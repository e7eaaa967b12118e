"""Orthogonal decomposition of slab systems, and sums over their cells.

A slab system { y in R^d : lo_i <= <w_i, y> <= hi_i } whose rows split into
groups with mutually orthogonal spans factorizes: the volume is the product
of the per-group volumes in their span coordinates (the frame's own for one
group).  Since the rows always form a tight frame here, the group spans
cover R^d, and each group of span dimension <= MAX_BLOCK is handled exactly.

A product of step functions composed with the rows integrates to a sum over
piece combinations of weight x slab-intersection volume: SlabSum holds that
sum, SlabBlock one orthogonal block of it, pooled_values its one evaluator;
framed_slab_sums sets up the slab sums of stacked frames, those that
single_block_frames accepts with no component_blocks; sums_at_zero
integrates many frames at zero shift in shared kernel calls.
Each slab sum runs on its pieces at the power-of-two scale of unit_scale.
Both evaluators run their lanes through _lane_volumes, kernels.table_volumes
on at most LANE_CAP lanes per call, on kernel tables (kernels.frame_tables)
built once per frame: each SlabBlock keeps its frame's, built in the first
pooled_values round that runs it, for all of that round's new blocks of one
shape together, and shared_block_integrals builds its stack's once per
call.
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np

from . import kernels, randomness
from .quadrature import RouteLimitError

# frame rows no longer than this impose no slab constraint
ROW_ZERO_TOL = 1e-12


class BlockTooWideError(ValueError):
    """An irreducible slab block spans more dimensions than the exact
    slab kernels handle; the exact route cannot serve this frame."""


# rows whose inner product exceeds this (relative to their norms + 1) share
# a block
ROW_LINK_TOL = 1e-10

# span dimension of the widest block the exact slab kernels handle
MAX_BLOCK = 3


def _row_links(w: np.ndarray) -> np.ndarray:
    """Pairs of rows of w (..., m, d) that share a block:
    |<w_i, w_j>| > ROW_LINK_TOL (|w_i| + 1)(|w_j| + 1)."""
    norms = np.sqrt(np.einsum("...ij,...ij->...i", w, w)) + 1.0
    gram = np.abs(w @ np.swapaxes(w, -1, -2))
    return gram > ROW_LINK_TOL * (norms[..., :, None] * norms[..., None, :])


def _span_rank(s: np.ndarray) -> np.ndarray:
    """Numerical rank from singular values s (..., r), largest first."""
    return np.sum(s > 1e-12 * (1.0 + s[..., :1]), axis=-1)


def _component_firsts(w: np.ndarray) -> np.ndarray:
    """The first row of each row's component of rows w (..., m, d), (...,
    m): rows share a component when _row_links joins them, directly or
    through other rows."""
    m = w.shape[-2]
    reach = _row_links(w) | np.eye(m, dtype=bool)
    # each squaring doubles the length of the paths reach covers
    for _ in range((m - 1).bit_length()):
        reach = reach @ reach
    return np.argmax(reach, axis=-1) if m else np.zeros(w.shape[:-1], dtype=np.intp)


def row_components(w: np.ndarray) -> list[np.ndarray]:
    """Index groups of linked rows, each sorted, in order of their first rows."""
    first = _component_firsts(w)
    return [np.flatnonzero(first == row) for row in np.flatnonzero(first == np.arange(len(first)))]


def span_coordinates(rows: np.ndarray) -> np.ndarray:
    """Rows re-expressed in an orthonormal basis of their own span."""
    u, s, vt = np.linalg.svd(rows, full_matrices=False)
    rank = int(_span_rank(s))
    return rows @ vt[:rank].T


def single_block_frames(rows: np.ndarray) -> np.ndarray:
    """ok (L,) for L frames rows (L, m, d): ok[l] when its columns are
    orthonormal, |W^T W - I| <= 1e-12 entrywise (as Haar bases and their
    complements are, to about 1e-15), no row is zero (norm <= ROW_ZERO_TOL)
    and component_blocks(rows[l]), and so SlabSum(rows[l], ...), has the
    single block (all rows, rows[l]): with no SVD when the rows form one
    component, and for d <= MAX_BLOCK when the components' span ranks add
    up to more than d (near a paired subspace), from the SVDs that
    component_blocks' span_coordinates calls make, stacked by size."""
    _, m, d = rows.shape
    first = _component_firsts(rows)
    orthonormal = (np.abs(np.swapaxes(rows, -1, -2) @ rows - np.eye(d)) <= 1e-12).all(axis=(1, 2))
    ok = orthonormal & ~first.any(axis=1)
    split = orthonormal & first.any(axis=1) & (d <= MAX_BLOCK)
    split &= (np.sqrt(np.einsum("lij,lij->li", rows, rows)) > ROW_ZERO_TOL).all(axis=1)
    # member[s, r, i]: row i of split frame s is in the component of first row r
    frames, member = rows[split], first[split][:, None, :] == np.arange(m)[:, None]
    sizes = member.sum(axis=2)
    ranks = np.zeros(len(frames), dtype=np.intp)
    for size in set(sizes.flat) - {0}:
        frame, lead = np.nonzero(sizes == size)
        comp = np.nonzero(member[frame, lead])[1].reshape(-1, size)
        np.add.at(ranks, frame, _span_rank(np.linalg.svd(frames[frame[:, None], comp], full_matrices=False)[1]))
    ok[split] = ranks != d
    return ok


def component_blocks(w: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(row indices, rows in block coordinates) per orthogonal component: w
    itself for one block of rank d = w.shape[1], else span_coordinates.

    Raises BlockTooWideError if some irreducible component spans more than
    MAX_BLOCK dimensions: no exact kernel serves it, and no caller falls
    back to another route (cli.main reports it as a failure, exit 1).

    Components whose span ranks do not add up to the rank of all rows are not
    orthogonal, whatever row_components' absolute link tolerance says: near a
    paired subspace, rows about 1e-12 from parallel within each component and
    2e-12 from orthogonal across them would make two thin rhombi of area 5e11
    each.  Then all rows form one block.  This guards the split; it does not
    bound its coupling error.
    """
    comps = row_components(w)
    rank = int(_span_rank(np.linalg.svd(w, compute_uv=False)))
    locals_ = [span_coordinates(w[comp]) for comp in comps] if len(comps) > 1 else []
    if sum(local.shape[1] for local in locals_) != rank:
        # one component, or a split whose span ranks do not add up
        comps, locals_ = [np.arange(w.shape[0])], [w if rank == w.shape[1] else span_coordinates(w)]
    for local in locals_:
        if local.shape[1] > MAX_BLOCK:
            raise BlockTooWideError(
                f"irreducible slab block of dimension {local.shape[1]} "
                f"exceeds the exact-geometry limit {MAX_BLOCK}"
            )
    return list(zip(comps, locals_))


class SlabBlock:
    """One orthogonal block of a slab system with the bounds (C, m) and
    weights (C,) of its piece combinations, in product order (as given by
    nonzero_combinations), and the kernel tables of its frame, which the
    first pooled_values round that runs the block builds."""

    def __init__(self, local: np.ndarray, lo: np.ndarray, hi: np.ndarray, weights):
        self.local = local  # the rows in block coordinates, (m, d)
        self.lo = lo
        self.hi = hi
        self.weights = weights
        self.tables = None  # kernels.frame_tables(local[None]), once built


# lanes per lane-wise kernel call of _lane_volumes: bounds the working memory
# of shared_block_integrals and pooled_values (the Haar route's chunks hold
# at most as many lanes)
LANE_CAP = 1 << 14


def _lane_volumes(tables, frame: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """kernels.table_volumes of the lanes frame (L,), lo and hi (L, m) on
    their frames' tables, at most LANE_CAP lanes per call.  A lane's volume
    does not depend on the other lanes of its call, so neither does any of
    its bits."""
    vol = np.empty(len(frame))
    for start in range(0, len(frame), LANE_CAP):
        chunk = slice(start, start + LANE_CAP)
        vol[chunk] = kernels.table_volumes(tables, frame[chunk], lo[chunk], hi[chunk])
    return vol


def _combination_sums(vol: np.ndarray, weights) -> np.ndarray:
    """sum_c weights[c] * vol[:, c] for vol (S, C), each s summed in order of c
    from 0.0: every slab sum's one order, whatever the lanes' count."""
    return kernels._sum_in_order(vol * weights)


def shared_block_integrals(local: np.ndarray, bounds) -> list[np.ndarray]:
    """Per (lo, hi, weights) in bounds, the (S,) sums over c, in order from
    0.0, of weights[c] x the volume of local[s] within lo[s, c], hi[s, c]:
    every (integrand, s, c) is one lane of shared _lane_volumes calls, on
    the kernel tables of local, built once per call.

    local is (S, m, d) or one (m, d) for every s; lo and hi are (S, C, m) or
    one (C, m) for every s.  S = 0 frames give empty arrays.
    """
    m, d = local.shape[-2:]
    # S from whichever of local and the bounds is stacked; () when none is
    lead = np.broadcast_shapes(local.shape[:-2], *(lo.shape[:-2] for lo, _, _ in bounds))
    frames = lead[0] if lead else 1
    # one lane per (s, c), s major, one integrand after another; a lane's
    # frame is local[s], or the one local
    local = local.reshape(-1, m, d)
    index, los, his = [], [], []
    for lo, hi, weights in bounds:
        shape = (frames, len(weights))
        index.append(np.broadcast_to(np.arange(len(local))[:, None], shape).reshape(-1))
        los.append(np.broadcast_to(lo, shape + (m,)).reshape(-1, m))
        his.append(np.broadcast_to(hi, shape + (m,)).reshape(-1, m))
    frame, lo, hi = np.concatenate(index), np.concatenate(los), np.concatenate(his)
    # no lanes, no tables: frames wider than the kernels reach here empty
    vol = _lane_volumes(kernels.frame_tables(local), frame, lo, hi) if len(frame) else np.zeros(0)
    vols = np.split(vol, np.cumsum([len(i) for i in index])[:-1])
    return [_combination_sums(v.reshape(frames, len(weights)), weights)
            for v, (_, _, weights) in zip(vols, bounds)]


def step_value(pieces, t: float) -> float:
    """Value at t of the step function with (lo, hi, value) pieces, each
    piece half-open [lo, hi); 0.0 off the pieces."""
    for lo, hi, v in pieces:
        if lo <= t < hi:
            return v
    return 0.0


def piece_combinations(pieces) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lo (C, m), hi (C, m), weights (C,)) of every choice of one piece per
    row, in itertools.product order (the last row's piece changes fastest,
    as np.indices(counts) orders them), one gather through a mixed-radix
    index; weights multiply values left to right from 1.0, with the bits of
    math.prod."""
    counts = np.array([len(row) for row in pieces], dtype=np.intp)
    table = np.array([piece for row in pieces for piece in row], dtype=float).reshape(-1, 3)
    # pick[c, i]: the piece of row i in combination c, a row of table; digit
    # i of c in the radices counts (np.indices stops at 64 rows)
    strides = np.ones(len(counts), dtype=np.intp)
    strides[:-1] = np.cumprod(counts[:0:-1])[::-1]
    pick = np.arange(math.prod(counts.tolist()))[:, None] // strides % np.maximum(counts, 1)
    pick += np.cumsum(counts) - counts
    weights = np.ones(len(pick))
    for column in table[pick, 2].T:
        weights *= column
    return table[pick, 0], table[pick, 1], weights


def nonzero_combinations(pieces) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """piece_combinations without the combinations of weight 0.0, which add
    nothing to a slab sum."""
    lo, hi, weights = piece_combinations(pieces)
    keep = weights != 0.0
    return lo[keep], hi[keep], weights[keep]


def support_radius(pieces) -> float:
    """Half the norm of the rows' support widths, its sum of squares taken
    over a power of two (exact) that keeps them in the float range;
    RouteLimitError where it is no float."""
    widths = np.array([max(p[1] for p in row) - min(p[0] for p in row) for row in pieces])
    power = math.frexp(float(widths.max()))[1]
    radius = 0.5 * math.ldexp(math.sqrt(float(np.sum(np.ldexp(widths, -power) ** 2))), power)
    if not math.isfinite(radius):
        raise RouteLimitError("the support of a slab sum's pieces is outside the float range")
    return radius


def unit_scale(pieces, d: int) -> tuple[list, int, int]:
    """(pieces', p, e), every slab sum's one scale, as the kernels'
    tolerances are absolute: the slab sum in R^d of pieces at s is 2^e times
    that of pieces' at s / 2^p, exactly.  p = e = 0, pieces' = pieces, for a
    support_radius in [2^-16, 2^16]; else p is its binade and each (lo, hi,
    v) becomes (lo / 2^p, hi / 2^p, v 2^t), t bringing its row's largest v
    into [1, 2) so no product of values leaves the float range."""
    radius = support_radius(pieces)
    if 2.0**-16 <= radius <= 2.0**16:
        return pieces, 0, 0
    p = math.frexp(radius)[1] - 1
    lam = math.ldexp(1.0, p)
    ts = [1 - math.frexp(max(v for _, _, v in row))[1] for row in pieces]
    scaled = [[(lo / lam, hi / lam, math.ldexp(v, t)) for lo, hi, v in row] for row, t in zip(pieces, ts)]
    return scaled, p, p * d - sum(ts)


def _times_power_of_two(values: np.ndarray, power: int) -> np.ndarray:
    """values * 2^power, or RouteLimitError where a nonzero one leaves the float range."""
    if power and (np.frexp(values)[1] + power > sys.float_info.max_exp)[values != 0.0].any():
        raise RouteLimitError("a slab sum's value is outside the float range")
    return np.ldexp(values, power) if power else values


class SlabSum:
    """int prod_i g_i(s_i + <w_i, y>) dy for rows w_i and step functions g_i
    given by their (lo, hi, value) pieces, built once, evaluated at many s.

    Zero rows (norm <= ROW_ZERO_TOL) contribute the constant g_i(s_i).  Every
    evaluator runs on the pieces of unit_scale at s / 2^power, times 2^scale.
    """

    def __init__(self, rows: np.ndarray, pieces):
        self.rows = rows  # (m, d)
        self.pieces, self.power, self.scale = unit_scale(pieces, rows.shape[1])
        norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
        self.zero_rows = np.nonzero(norms <= ROW_ZERO_TOL)[0]
        self.active_rows = np.nonzero(norms > ROW_ZERO_TOL)[0]

    @functools.cached_property
    def blocks(self) -> list[tuple[np.ndarray, SlabBlock]]:
        """(row indices, slab block) per orthogonal block of the active rows,
        with unshifted piece bounds; raises BlockTooWideError beyond
        MAX_BLOCK dimensions.
        framed_slab_sums sets it for the frames of one block."""
        out = []
        for comp, local in component_blocks(self.rows[self.active_rows]):
            rows = self.active_rows[comp]
            lo, hi, weights = nonzero_combinations([self.pieces[i] for i in rows])
            out.append((rows, SlabBlock(local, lo, hi, weights)))
        return out

    def zero_row_factor(self, shifts: np.ndarray) -> float:
        """Product of g_i(s_i) over the zero rows."""
        const = 1.0
        for i in self.zero_rows:
            const *= step_value(self.pieces[i], shifts[i])
            if const == 0.0:
                break
        return const

    def value(self, shifts: np.ndarray) -> float:
        """The integral at shifts s, one per row: values at one point, or
        RouteLimitError where it is nonzero but below the normal float range
        (values rounds there, as a grid scan's tail may)."""
        (unit,) = _unit_values([(self, shifts[None])])
        value = float(_times_power_of_two(unit, self.scale)[0])
        if unit[0] != 0.0 and abs(value) < sys.float_info.min:
            decimal = math.log10(abs(float(unit[0]))) + self.scale * math.log10(2.0)
            raise RouteLimitError(f"a slab sum's value, about 1e{decimal:.0f}, is below the normal float range")
        return value

    def values(self, shifts: np.ndarray) -> np.ndarray:
        """value at each row of shifts (P, m), rounded below the normal float
        range: the one-pair call of pooled_values."""
        return pooled_values([(self, shifts)])[0]

    def mc(self, shifts: np.ndarray, samples: int, seed: int, stream: int = 0) -> tuple[float, float]:
        """(estimate, standard error) of value(shifts) by stratified Monte
        Carlo, for rows that form a tight frame; reproducible from (seed,
        stream) and independent of randomness.MC_CHUNK.

        The points are uniform in the cube of radius sqrt(sum_i (|mid_i -
        s_i| + half_i)^2) over the active rows i, mid_i and half_i the centre
        and half-width of row i's pieces: where the integrand is nonzero,
        |<w_i, y>| <= |mid_i - s_i| + half_i, and the frame identity |y|^2 =
        sum_i <w_i, y>^2, to which zero rows add nothing, bounds |y| by that
        radius.  Zero rows give the constant zero_row_factor.
        """
        shifts = np.ldexp(shifts, -self.power)
        const = self.zero_row_factor(shifts)
        rows = self.active_rows
        lo = np.array([min(p[0] for p in self.pieces[i]) for i in rows])
        hi = np.array([max(p[1] for p in self.pieces[i]) for i in rows])
        reach = np.abs(0.5 * (hi + lo) - shifts[rows]) + 0.5 * (hi - lo)
        radius = math.sqrt(float(np.sum(reach**2)))
        if const == 0.0 or radius == 0.0:
            return 0.0, 0.0
        # (lo, hi, value) of piece j of row i at [:, j, i]; shorter rows are
        # padded with empty pieces, and a zero row's one piece (-inf, inf,
        # 1.0) leaves its factor to const
        table = np.zeros((3, max(map(len, self.pieces)), len(self.pieces), 1))
        for i in self.active_rows:
            table[:, : len(self.pieces[i]), i, 0] = np.array(self.pieces[i], dtype=float).T
        table[:, 0, self.zero_rows, 0] = [[-np.inf], [np.inf], [1.0]]
        d = self.rows.shape[1]
        total = total_sq = 0.0
        for _, y in randomness.stratified_cube(seed, stream, samples, d, radius):
            # t = s + W y, (m, N): each row's factor values are contiguous;
            # W y by a sum over the d columns in order, not a BLAS product,
            # a row at a time through one buffer: whole (m, N) temporaries
            # took 3x the time
            t = np.empty((len(self.rows), len(y)))
            term = np.empty(len(y))
            for w, row in zip(self.rows, t):
                np.multiply(y[:, 0], w[0], out=row)
                for c in range(1, d):
                    row += np.multiply(y[:, c], w[c], out=term)
            del term  # freed before the piece masks reach the peak RSS
            t += shifts[:, None]
            g = ((t >= table[0, 0]) & (t < table[1, 0])) * table[2, 0]
            for piece_lo, piece_hi, value in zip(*table[:, 1:]):
                g += ((t >= piece_lo) & (t < piece_hi)) * value  # the pieces are disjoint
            x = np.full(len(y), const)
            for factor in g:
                x *= factor
            total += float(x.sum())
            x *= x
            total_sq += float(x.sum())
        mean = total / samples
        var = max(total_sq / samples - mean * mean, 0.0)
        cube_vol = (2.0 * radius) ** d
        est_se = cube_vol * np.array([mean, math.sqrt(var / samples)])
        return tuple(_times_power_of_two(est_se, self.scale).tolist())


def _pool_shape(entries) -> None:
    """values[points] *= the block integral at the points, for each entry
    (block, shifts, values, points) of one round of pooled_values whose
    blocks share a kernel input shape (m, d); shifts (P, m) are those of the
    block's rows at the P points, and point p with combination c makes the
    lane with the bounds block.lo[c] - shifts[p], block.hi[c] - shifts[p].

    The blocks with no tables get them from one kernels.frame_tables call,
    and the lanes run on one join of the blocks' tables.  Consecutive
    entries form batches of at most LANE_CAP lanes (or one entry), with
    their bounds built in one array per side, and each batch runs through
    _lane_volumes, one kernels.table_volumes call per LANE_CAP lanes, whose
    seed-cell test keeps the lanes it proves empty out of the kernels (they
    add 0.0).
    """
    blocks = list({id(block): block for block, _, _, _ in entries}.values())
    new = [block for block in blocks if block.tables is None]
    if new:
        built = kernels.frame_tables(np.stack([block.local for block in new]))
        for block, tables in zip(new, kernels.split_tables(built)):
            block.tables = tables
    tables = kernels.join_tables([block.tables for block in blocks])
    index = {id(block): k for k, block in enumerate(blocks)}
    m = blocks[0].local.shape[0]
    counts = np.array([len(shifts) * len(block.weights) for block, shifts, _, _ in entries])
    ends = np.cumsum(counts)
    first = 0
    while first < len(entries):
        # the batch: entries first, ..., last - 1, at most LANE_CAP lanes
        # (or one entry), entry j's lanes at starts[j]:stops[j]
        base = ends[first] - counts[first]
        last = max(first + 1, int(np.searchsorted(ends, base + LANE_CAP, side="right")))
        batch, stops = entries[first:last], ends[first:last] - base
        starts = stops - counts[first:last]
        lo, hi = np.empty((stops[-1], m)), np.empty((stops[-1], m))
        for (block, shifts, _, _), a, b in zip(batch, starts, stops):
            grid = (len(shifts), len(block.weights), m)
            np.subtract(block.lo, shifts[:, None], out=lo[a:b].reshape(grid))
            np.subtract(block.hi, shifts[:, None], out=hi[a:b].reshape(grid))
        frame = np.repeat([index[id(block)] for block, _, _, _ in batch], counts[first:last])
        vol = _lane_volumes(tables, frame, lo, hi)
        for (block, shifts, values, points), a, b in zip(batch, starts, stops):
            sums = _combination_sums(vol[a:b].reshape(len(shifts), -1), block.weights)
            values[points] = values[points] * sums
        first = last


def pooled_values(pairs) -> list[np.ndarray]:
    """[slab_sum.values(shifts) for slab_sum, shifts in pairs], with the same
    bits, every pair's lanes sharing kernel calls.

    The blocks go in rounds: round j evaluates block j of every slab sum that
    has one, at the points whose value is still nonzero, and multiplies it
    in.  Point p and combination c make one lane, with the bounds
    lo[c] - s[p], hi[c] - s[p].  A round's lanes pool by (m, d), each shape
    in one _pool_shape call, whose batches of at most LANE_CAP lanes (or
    one entry) make one kernels.table_volumes call per LANE_CAP lanes; its
    seed-cell test drops the 2-D and 3-D lanes whose seed cell misses a row's slab (most
    of them, away from the support's centre) before the kernels run.  A
    block's points make entries of the pool of at most LANE_CAP (point,
    combination) pairs (at least one point), so a batch builds the bounds
    of at most LANE_CAP lanes (or one point's).  Each block's kernel tables
    are built once, in its first round.
    """
    values = _unit_values(pairs)
    return [_times_power_of_two(vals, slab_sum.scale) for (slab_sum, _), vals in zip(pairs, values)]


def _unit_values(pairs) -> list[np.ndarray]:
    """pooled_values before each slab sum's 2^scale."""
    pairs = [(slab_sum, np.ldexp(s, -slab_sum.power) if slab_sum.power else s) for slab_sum, s in pairs]
    values = []
    for slab_sum, shifts in pairs:
        if slab_sum.zero_rows.size:
            values.append(np.array([slab_sum.zero_row_factor(s) for s in shifts]))
        else:
            values.append(np.ones(len(shifts)))
    # all points 0.0 on the zero rows: no block split, no BlockTooWideError
    depth = max((len(slab_sum.blocks) for (slab_sum, _), vals in zip(pairs, values)
                 if vals.any()), default=0)
    for j in range(depth):
        parts = {}  # per shape: (block, shifts, values, points) of its lanes
        for (slab_sum, shifts), vals in zip(pairs, values):
            live = np.flatnonzero(vals != 0.0)
            if not live.size or j >= len(slab_sum.blocks):
                continue
            rows, block = slab_sum.blocks[j]
            per_entry = max(1, LANE_CAP // max(len(block.weights), 1))
            for start in range(0, live.size, per_entry):
                part = live[start : start + per_entry]
                parts.setdefault(block.local.shape, []).append((block, shifts[part][:, rows], vals, part))
        for entries in parts.values():
            _pool_shape(entries)
    return values


def framed_slab_sums(frames: np.ndarray, pieces) -> list[SlabSum]:
    """[SlabSum(w, p) for w, p in zip(frames, pieces)] for frames (L, m, d),
    with the same bits.  The frames that single_block_frames accepts, for
    1 <= d <= MAX_BLOCK, get their one block (all rows, the frame) with no
    component_blocks."""
    out = [SlabSum(w, p) for w, p in zip(frames, pieces)]
    if len(frames) and 1 <= frames.shape[2] <= MAX_BLOCK:
        for s in np.flatnonzero(single_block_frames(frames)):
            slab_sum = out[s]
            slab_sum.blocks = [(slab_sum.active_rows, SlabBlock(frames[s], *nonzero_combinations(slab_sum.pieces)))]
    return out


def sums_at_zero(frames: np.ndarray, integrands) -> np.ndarray:
    """int prod_i g_i(<w_i, y>) dy over each frame w = frames[s] (S, m, d),
    per integrand (g_1..g_m as (lo, hi, value) pieces): (len(integrands), S)
    values with the bits of SlabSum(frames[s], integrand).values at zero:
    like a grid scan's values, and unlike one value, they round below the
    normal float range.
    single_block_frames' frames (d <= MAX_BLOCK) run every integrand's
    combinations through one shared_block_integrals call, and the other
    frames' SlabSums share one pooled_values call, all at unit_scale."""
    integrands, _, scales = zip(*(unit_scale(pieces, frames.shape[2]) for pieces in integrands))
    out = np.empty((len(integrands), len(frames)))
    ok = single_block_frames(frames) & (frames.shape[2] <= MAX_BLOCK)
    out[:, ok] = shared_block_integrals(frames[ok], [nonzero_combinations(p) for p in integrands])
    rest = np.flatnonzero(~ok)
    zero = np.zeros((1, frames.shape[1]))
    values = pooled_values([(SlabSum(frames[s], pieces), zero) for s in rest for pieces in integrands])
    out[:, rest] = np.reshape(values, (len(rest), len(integrands))).T
    return np.array([_times_power_of_two(row, scale) for row, scale in zip(out, scales)])
