"""Orthogonal decomposition of slab systems, and sums over their cells.

A slab system { y in R^d : lo_i <= <w_i, y> <= hi_i } whose rows split into
groups with mutually orthogonal spans factorizes: the volume is the product
of the per-group volumes inside their span coordinates.  Since the rows
always form a tight frame here, the group spans cover R^d, and each group of
span dimension <= 3 is handled exactly by the clipping kernels.

A product of step functions composed with the rows integrates to a sum over
piece combinations of weight x slab-intersection volume: SlabSum holds that
sum, SlabBlock one orthogonal block of it.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from . import kernels

# frame rows no longer than this impose no slab constraint
ROW_ZERO_TOL = 1e-12

# A piece combination is dropped before the clipper only when every seed
# vertex lies outside another row's slab by this multiple of (seed-matrix
# condition number x the clipper's coordinate scale); the clippers' own eps
# is 1e-14 (2-D) or 1e-13 (3-D) times that scale, so such a combination
# clips to nothing and the kernel would return exactly 0.0.
_PREFILTER_MARGIN = 1e-9


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
    """
    blocks = []
    for comp in row_components(w):
        local = span_coordinates(w[comp])
        if local.shape[1] > max_block:
            raise BlockTooWideError(
                f"irreducible slab block of dimension {local.shape[1]} "
                f"exceeds the exact-geometry limit {max_block}"
            )
        blocks.append((comp, local))
    return blocks


def decomposed_volume(w: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> float:
    """Volume of the slab intersection, factorized over orthogonal blocks."""
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

    def candidates(self, lo: np.ndarray, hi: np.ndarray) -> list[int]:
        """Indices of the combinations the clipper may give a nonzero volume.

        Builds every combination's seed parallelogram (2-D) or
        parallelepiped (3-D) and drops those lying wholly outside another
        row's slab by the margin.
        """
        seed_frame = self._seed_frame
        if seed_frame is None:
            return []
        seeds, upper, m_inv_t, margin = seed_frame
        verts = np.where(upper, hi[:, None, seeds], lo[:, None, seeds]) @ m_inv_t  # (C, 2^d, d)
        proj = verts @ self.local.T  # (C, 2^d, m)
        slack = margin * (1.0 + np.abs(verts).sum(axis=2).max(axis=1))[:, None]
        outside = (proj.min(axis=1) > hi + slack) | (proj.max(axis=1) < lo - slack)
        return np.flatnonzero(~outside.any(axis=1)).tolist()

    def integral(self, lo: np.ndarray, hi: np.ndarray, prefilter: bool = False) -> float:
        """Sum over combinations c of weights[c] x the volume of the slab
        system with bounds lo[c], hi[c] (shaped like self.lo, self.hi).

        With prefilter, 2-D and 3-D combinations whose seed cell is certified
        empty skip the clipper; they would add exactly 0.0, so the sum is
        bit-identical either way.
        """
        if prefilter and self.local.shape[1] >= 2:
            combos = self.candidates(lo, hi)
        else:
            combos = range(len(self.weights))
        sub = 0.0
        for c in combos:
            sub += self.weights[c] * kernels.slab_volume(self.local, lo[c], hi[c])
        return sub


def block_integrals(local: np.ndarray, lo: np.ndarray, hi: np.ndarray, weights) -> np.ndarray:
    """SlabBlock(local[s], lo, hi, weights).integral(lo, hi) for each of S
    2-D frames local (S, m, 2), with the same bits.

    Every (frame, combination) pair is one lane of kernels.polygon_areas;
    each frame sums its combinations in order from 0.0, as integral does.
    """
    frames, combos = local.shape[0], len(weights)
    vol = kernels.polygon_areas(
        np.repeat(local, combos, axis=0), np.tile(lo, (frames, 1)), np.tile(hi, (frames, 1))
    ).reshape(frames, combos)
    sub = np.zeros(frames)
    for c, w in enumerate(weights):
        sub = sub + w * vol[:, c]
    return sub


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

    def value(self, shifts: np.ndarray, prefilter: bool = False) -> float:
        """The integral at shifts s, one per row; prefilter as in
        SlabBlock.integral (bit-identical either way)."""
        value = self.zero_row_factor(shifts)
        if value == 0.0:
            return 0.0
        for rows, block in self.blocks:
            s = shifts[rows]
            value *= block.integral(block.lo - s, block.hi - s, prefilter)
            if value == 0.0:
                return 0.0
        return value
