"""Orthogonal decomposition of slab systems, and sums over their cells.

A slab system { y in R^d : lo_i <= <w_i, y> <= hi_i } whose rows split into
groups with mutually orthogonal spans factorizes: the volume is the product
of the per-group volumes inside their span coordinates.  Since the rows
always form a tight frame here, the group spans cover R^d, and each group of
span dimension <= 3 is handled exactly by the clipping kernels.

A product of step functions composed with the rows integrates to a sum over
piece combinations of weight x slab-intersection volume: SlabSum holds that
sum, SlabBlock one orthogonal block of it, pooled_values its one evaluator.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from . import kernels

# frame rows no longer than this impose no slab constraint
ROW_ZERO_TOL = 1e-12

# A (point, combination) pair is dropped before the clipper only when every
# seed vertex lies outside another row's slab by this multiple of
# (seed-matrix condition number x the clipper's coordinate scale); the
# clippers' own eps is 1e-14 (2-D) or 1e-13 (3-D) times that scale, so such
# a pair clips to nothing and the kernel would return exactly 0.0.
# SlabBlock.candidates tests the separable form: the unshifted seed cell's
# corner table against one shift per point, with the scale bounded by the
# triangle inequality, |V - u|_1 <= |V|_1 + |u|_1.  That scale is at least
# the shifted corners', and the two forms' rounding differs by
# O(unit roundoff x condition number x scale), far below this margin, so
# every dropped pair still clips to exactly 0.0.
_PREFILTER_MARGIN = 1e-9
# (point, combination) pairs per test in SlabBlock.candidates: bounds its
# working memory
_PREFILTER_ROWS = 1 << 10


class BlockTooWideError(ValueError):
    """An irreducible slab block spans more dimensions than the exact
    clipping kernels handle; the exact route cannot serve this frame."""


def _row_links(w: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Pairs of rows of w (..., m, d) that share a block:
    |<w_i, w_j>| > tol (|w_i| + 1)(|w_j| + 1)."""
    norms = np.sqrt(np.einsum("...ij,...ij->...i", w, w)) + 1.0
    gram = np.abs(w @ np.swapaxes(w, -1, -2))
    return gram > tol * (norms[..., :, None] * norms[..., None, :])


def _span_rank(s: np.ndarray) -> np.ndarray:
    """Numerical rank from singular values s (..., r), largest first."""
    return np.sum(s > 1e-12 * (1.0 + s[..., :1]), axis=-1)


def row_components(w: np.ndarray, tol: float = 1e-10) -> list[np.ndarray]:
    """Index groups of rows linked by nonzero inner products (union of BFS)."""
    m = w.shape[0]
    linked = _row_links(w, tol)
    seen = np.zeros(m, dtype=bool)
    comps = []
    for start in range(m):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in np.nonzero(linked[i] & ~seen)[0]:
                seen[j] = True
                stack.append(int(j))
        comps.append(np.array(sorted(comp)))
    return comps


def span_coordinates(rows: np.ndarray) -> np.ndarray:
    """Rows re-expressed in an orthonormal basis of their own span."""
    u, s, vt = np.linalg.svd(rows, full_matrices=False)
    rank = int(_span_rank(s))
    return rows @ vt[:rank].T


def single_block_frames(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(local (L, m, d), ok (L,)) for L frames rows (L, m, d).

    ok[l] when the rows of frame l form one component under row_components'
    rule and their rank is d: then component_blocks(rows[l]) is the single
    block (all rows, local[l]).  A zero row (norm <= ROW_ZERO_TOL) links to
    no other row, so such a frame is never ok for m >= 2.
    """
    count, m, d = rows.shape
    links = _row_links(rows)
    reached = np.zeros((count, m), dtype=bool)
    reached[:, 0] = True
    for _ in range(m - 1):
        reached |= (links & reached[:, :, None]).any(axis=1)
    _, s, vt = np.linalg.svd(rows, full_matrices=False)
    ok = reached.all(axis=1) & (_span_rank(s) == d)
    return rows @ np.swapaxes(vt, -1, -2), ok


def component_blocks(w: np.ndarray, max_block: int = 3) -> list[tuple[np.ndarray, np.ndarray]]:
    """(row indices, rows in span coordinates) per orthogonal component.

    Raises BlockTooWideError if some irreducible component spans more than
    max_block dimensions (callers then fall back to Monte Carlo).

    Components whose span ranks do not add up to the rank of all rows are not
    orthogonal, whatever row_components' absolute link tolerance says: near a
    paired subspace, rows about 1e-12 from parallel within each component and
    2e-12 from orthogonal across them would make two thin rhombi of area 5e11
    each.  Then all rows form one block.  This guards the split; it does not
    bound its coupling error.
    """
    comps = row_components(w)
    locals_ = [span_coordinates(w[comp]) for comp in comps]
    if len(comps) > 1:
        rank = int(_span_rank(np.linalg.svd(w, compute_uv=False)))
        if sum(local.shape[1] for local in locals_) != rank:
            comps, locals_ = [np.arange(w.shape[0])], [span_coordinates(w)]
    blocks = []
    for comp, local in zip(comps, locals_):
        if local.shape[1] > max_block:
            raise BlockTooWideError(
                f"irreducible slab block of dimension {local.shape[1]} "
                f"exceeds the exact-geometry limit {max_block}"
            )
        blocks.append((comp, local))
    return blocks


def decomposed_volume(w: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> float:
    """Volume of the slab intersection, factorized over orthogonal blocks.

    section_quadrature's one combination at zero shift, kept off SlabSum:
    through a one-piece SlabSum, search-max --n 4 --k 2 --restarts 3
    --steps 1000 took 1.9-2.2 s instead of 0.94-1.04 s (2-core x86 VM)."""
    vol = 1.0
    for comp, local in component_blocks(w):
        vol *= kernels.slab_volume(local, lo[comp], hi[comp])
        if vol == 0.0:
            return 0.0
    return vol


class SlabBlock:
    """One orthogonal block of a slab system with the bounds (C, m) and
    weights (C,) of its piece combinations, in product order (as given by
    nonzero_combinations)."""

    def __init__(self, local: np.ndarray, lo: np.ndarray, hi: np.ndarray, weights):
        self.local = local  # the rows in span coordinates, (m, d)
        self.lo = lo
        self.hi = hi
        self.weights = weights

    @functools.cached_property
    def _seed_frame(self):
        """(seed rows, corner selector, inverse of the seed matrix, margin) of
        the clipper, or None when it returns 0.0 for every combination."""
        seeds = kernels.clip_seed_rows(self.local)
        if seeds is None:
            return None
        seeds = list(seeds)
        d = len(seeds)
        upper = ((np.arange(1 << d)[:, None] >> np.arange(d)) & 1) == 1  # (2^d, d)
        m = self.local[seeds]
        m_inv = np.linalg.inv(m)
        cond = np.abs(m).sum(axis=1).max() * np.abs(m_inv).sum(axis=1).max()
        return seeds, upper, m_inv.T, _PREFILTER_MARGIN * cond

    @functools.cached_property
    def _corner_table(self):
        """(low, high (C, m), radius (C,)) of the unshifted seed cells: with
        V[c, v] the corners of combination c's seed parallelogram (2-D) or
        parallelepiped (3-D), low[c, i] = min_v <w_i, V[c, v]> - hi[c, i],
        high[c, i] = max_v <w_i, V[c, v]> - lo[c, i] and radius[c] =
        max_v |V[c, v]|_1.  Needs a seed frame.  Built _PREFILTER_ROWS
        combinations at a time, so its working memory stays near that of the
        table it keeps."""
        seeds, upper, m_inv_t, _ = self._seed_frame
        low, high = np.empty(self.lo.shape), np.empty(self.lo.shape)
        radius = np.empty(len(self.lo))
        for start in range(0, len(self.lo), _PREFILTER_ROWS):
            part = slice(start, start + _PREFILTER_ROWS)
            lo, hi = self.lo[part], self.hi[part]
            verts = np.where(upper, hi[:, None, seeds], lo[:, None, seeds]) @ m_inv_t
            proj = verts @ self.local.T  # (rows, 2^d, m)
            radius[part] = np.abs(verts).sum(axis=2).max(axis=1)
            low[part] = proj.min(axis=1) - hi
            high[part] = proj.max(axis=1) - lo
        return low, high, radius

    def candidates(self, shifts: np.ndarray) -> np.ndarray:
        """Indices p * C + c, in increasing order, of the (point, combination)
        pairs that the 2-D or 3-D clipper may give a nonzero volume, pair
        (p, c) having the bounds lo[c] - shifts[p], hi[c] - shifts[p] for
        shifts (P, m) and the C combinations.

        Shifting the bounds by s moves every seed corner V[c, v] by -u,
        u = s[seeds] @ M^-T, and <w_i, V[c, v] - u> - (hi[c, i] - s_i) =
        <w_i, V[c, v]> - hi[c, i] - q_i with q = W u - s (likewise for lo).
        So pair (p, c) is dropped when some row i has low[c, i] - q[p, i] >
        slack or high[c, i] - q[p, i] < -slack, slack = margin (1 +
        radius[c] + |u_p|_1); by the triangle inequality that is at least
        the margin scaled by the shifted corners' largest 1-norm, |V - u|_1.
        Pairs are tested _PREFILTER_ROWS at a time.
        """
        seed_frame = self._seed_frame
        if seed_frame is None:
            return np.zeros(0, dtype=np.intp)
        seeds, _, m_inv_t, margin = seed_frame
        low, high, radius = self._corner_table
        u = shifts[:, seeds] @ m_inv_t  # (P, d)
        q = u @ self.local.T - shifts  # (P, m)
        u_norm = np.abs(u).sum(axis=1)
        count = len(self.weights)
        total = len(shifts) * count
        kept = [np.zeros(0, dtype=np.intp)]
        for start in range(0, total, _PREFILTER_ROWS):
            pairs = np.arange(start, min(start + _PREFILTER_ROWS, total))
            p, c = np.divmod(pairs, count)
            qp = q[p]
            slack = margin * (1.0 + radius[c] + u_norm[p])[:, None]
            outside = (low[c] - qp > slack) | (high[c] - qp < -slack)
            kept.append(pairs[~outside.any(axis=1)])
        return np.concatenate(kept)


# lanes per lane-wise kernel call in shared_block_integrals and pooled_values:
# bounds its working memory (the Haar route's chunks hold at most as many
# lanes)
LANE_CAP = 1 << 14

# lanes a queue of pooled_values gathers before it runs: a lockstep campaign
# fills it every round, and a call of LANE_CAP 2-D or 3-D lanes holds tens of
# MB of clipper arrays, while a call of this many already pays the kernels'
# fixed cost on a small share of its time
_POOL_LANES = 1 << 10


def _lane_volumes(rows: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """kernels.slab_volumes of the lanes rows (L, m, d), lo and hi (L, m), at
    most LANE_CAP lanes per call.  A lane's volume does not depend on the
    other lanes of its call, so neither does any of its bits."""
    vol = np.empty(len(rows))
    for start in range(0, len(rows), LANE_CAP):
        chunk = slice(start, start + LANE_CAP)
        vol[chunk] = kernels.slab_volumes(rows[chunk], lo[chunk], hi[chunk])
    return vol


def _combination_sums(vol: np.ndarray, weights) -> np.ndarray:
    """sum_c weights[c] * vol[:, c] for vol (S, C), each s summed in order of c
    from 0.0: every slab sum's one order, whatever the lanes' count."""
    sub = np.zeros(len(vol))
    for c, w in enumerate(weights):
        sub = sub + w * vol[:, c]
    return sub


def shared_block_integrals(local: np.ndarray, bounds) -> list[np.ndarray]:
    """Per (lo, hi, weights) in bounds, the (S,) sums over c, in order from
    0.0, of weights[c] x the volume of local[s] within lo[s, c], hi[s, c]:
    every (integrand, s, c) is one lane of shared kernel calls.

    local is (S, m, d) or one (m, d) for every s; lo and hi are (S, C, m) or
    one (C, m) for every s.  S = 0 frames give empty arrays.
    """
    m, d = local.shape[-2:]
    # S from whichever of local and the bounds is stacked; () when none is
    lead = np.broadcast_shapes(local.shape[:-2], *(lo.shape[:-2] for lo, _, _ in bounds))
    frames = lead[0] if lead else 1
    # one row per (s, c) lane, s major, one integrand after another
    local = local.reshape(-1, 1, m, d)
    rows, los, his = [], [], []
    for lo, hi, weights in bounds:
        shape = (frames, len(weights))
        rows.append(np.broadcast_to(local, shape + (m, d)).reshape(-1, m, d))
        los.append(np.broadcast_to(lo, shape + (m,)).reshape(-1, m))
        his.append(np.broadcast_to(hi, shape + (m,)).reshape(-1, m))
    vol = _lane_volumes(np.concatenate(rows), np.concatenate(los), np.concatenate(his))
    vols = np.split(vol, np.cumsum([len(r) for r in rows])[:-1])
    return [_combination_sums(v.reshape(frames, len(weights)), weights)
            for v, (_, _, weights) in zip(vols, bounds)]


def step_value(pieces, t: float) -> float:
    """Value at t of the step function with (lo, hi, value) pieces, each
    piece half-open [lo, hi); 0.0 off the pieces."""
    for lo, hi, v in pieces:
        if lo <= t < hi:
            return v
    return 0.0


def piece_combinations(pieces) -> tuple[np.ndarray, np.ndarray, list]:
    """(lo (C, m), hi (C, m), weights (C,)) of every choice of one piece per
    row, in itertools.product order; weights multiply values left to right."""
    combos = list(itertools.product(*pieces))
    bounds = np.array(combos, dtype=float)  # (C, m, 3): lo, hi, value
    weights = [math.prod(p[2] for p in combo) for combo in combos]
    return bounds[:, :, 0], bounds[:, :, 1], weights


def nonzero_combinations(pieces) -> tuple[np.ndarray, np.ndarray, list]:
    """piece_combinations without the combinations of weight 0.0, which add
    nothing to a slab sum."""
    lo, hi, weights = piece_combinations(pieces)
    keep = [c for c, w in enumerate(weights) if w != 0.0]
    return lo[keep], hi[keep], [weights[c] for c in keep]


class SlabSum:
    """int prod_i g_i(s_i + <w_i, y>) dy for rows w_i and step functions g_i
    given by their (lo, hi, value) pieces, built once, evaluated at many s.

    Zero rows (norm <= ROW_ZERO_TOL) contribute the constant g_i(s_i).
    """

    def __init__(self, rows: np.ndarray, pieces):
        self.rows = rows  # (m, d)
        self.pieces = pieces
        norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
        self.zero_rows = np.nonzero(norms <= ROW_ZERO_TOL)[0]
        self.active_rows = np.nonzero(norms > ROW_ZERO_TOL)[0]

    @functools.cached_property
    def blocks(self) -> list[tuple[np.ndarray, SlabBlock]]:
        """(row indices, slab block) per orthogonal block of the active rows,
        with unshifted piece bounds; raises BlockTooWideError beyond 3-D."""
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
        """The integral at shifts s, one per row: values at one point."""
        return float(self.values(shifts[None])[0])

    def values(self, shifts: np.ndarray) -> np.ndarray:
        """value at each row of shifts (P, m), with the same bits: the
        one-pair call of pooled_values."""
        return pooled_values([(self, shifts)])[0]


class _LanePool:
    """The lanes of one round of pooled_values, waiting for shared kernel
    calls.

    Lanes queue by their kernel input shape (m, d); a queue runs once it
    holds _POOL_LANES lanes, and flush() runs the rest.  Running a block's
    lanes multiplies its integral into the values of its live points.
    """

    def __init__(self):
        self._queues = {}
        self._lanes = {}

    def add(self, block: SlabBlock, lo: np.ndarray, hi: np.ndarray, lanes,
            values: np.ndarray, live: np.ndarray) -> None:
        """Queue the given lanes of the (live point, combination) pairs of
        block, with their bounds lo, hi (L, m)."""
        entry = (block, lo, hi, lanes, values, live)
        if not len(lo):
            _multiply_in(entry, np.zeros(0))
            return
        shape = block.local.shape
        self._queues.setdefault(shape, []).append(entry)
        self._lanes[shape] = self._lanes.get(shape, 0) + len(lo)
        if self._lanes[shape] >= _POOL_LANES:
            self._run(shape)

    def flush(self) -> None:
        for shape in list(self._queues):
            self._run(shape)

    def _run(self, shape) -> None:
        queue = self._queues.pop(shape)
        del self._lanes[shape]
        rows = np.concatenate([np.broadcast_to(e[0].local, (len(e[1]),) + shape) for e in queue])
        lo = np.concatenate([e[1] for e in queue])
        hi = np.concatenate([e[2] for e in queue])
        vol = _lane_volumes(rows, lo, hi)
        start = 0
        for entry in queue:
            _multiply_in(entry, vol[start : start + len(entry[1])])
            start += len(entry[1])


def _multiply_in(entry, lane_vol: np.ndarray) -> None:
    """values[live] *= the block integral at the live points, from the
    volumes of the queued lanes; the other (point, combination) pairs add
    exactly 0.0."""
    block, _, _, lanes, values, live = entry
    vol = np.zeros(live.size * len(block.weights))
    vol[lanes] = lane_vol
    vol = vol.reshape(live.size, len(block.weights))
    values[live] = values[live] * _combination_sums(vol, block.weights)


def pooled_values(pairs) -> list[np.ndarray]:
    """[slab_sum.values(shifts) for slab_sum, shifts in pairs], with the same
    bits, every pair's lanes sharing kernel calls.

    The blocks go in rounds: round j evaluates block j of every slab sum that
    has one, at the points whose value is still nonzero, and multiplies it
    in.  A round's (point, combination) lanes pool by (m, d) into shared
    kernels.slab_volumes calls of about _POOL_LANES lanes each.  For 2-D and
    3-D blocks, the lanes whose seed cell SlabBlock.candidates certifies
    empty skip the clipper (they would add exactly 0.0): it tests each
    combination's unshifted seed-cell corner table once per point shift, in
    O(m) per lane, with a slack that covers the shifted cell's (see
    _PREFILTER_MARGIN), and only the kept lanes get their bounds
    lo[c] - s[p], hi[c] - s[p].
    """
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
        pool = _LanePool()
        for (slab_sum, shifts), vals in zip(pairs, values):
            live = np.flatnonzero(vals != 0.0)
            if not live.size or j >= len(slab_sum.blocks):
                continue
            rows, block = slab_sum.blocks[j]
            s = shifts[live][:, rows]
            if block.local.shape[1] >= 2:
                lanes = block.candidates(s)
                point, combo = np.divmod(lanes, len(block.weights))
                lo, hi = block.lo[combo] - s[point], block.hi[combo] - s[point]
            else:
                lanes = slice(None)
                lo = (block.lo - s[:, None]).reshape(-1, rows.size)  # (point, combination) major
                hi = (block.hi - s[:, None]).reshape(-1, rows.size)
            pool.add(block, lo, hi, lanes, vals, live)
        pool.flush()
    return values
