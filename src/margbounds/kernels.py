"""Kernels in numpy/Python: slab-intersection volumes and Irwin-Hall.

The geometric kernels compute the volume of a slab intersection
{ y : lo_i <= <w_i, y> <= hi_i } in dimension 1, 2 or 3.  Callers guarantee
boundedness (the w_i always contain a spanning subset coming from a tight
frame) and strip zero rows beforehand.  The 2-D kernel clips a seed
parallelogram; the 3-D kernel sums (1/3) h |F| over the facets F, each a
2-D slab system, after merging rows parallel within _PARALLEL_SINE (see
polytope_volumes for its rounding bound).  Each kernel is lane-wise
(interval_lengths, polygon_areas, polytope_volumes): it takes frames (K, m,
d), a frame index (L,) and the bounds (L, m) of its L lanes, computes what
depends on a frame alone once per frame, and takes every lane through the
same floating-point operations whatever the other lanes of its call.  The
2-D and 3-D kernels first drop the lanes whose seed cell misses a row's
slab: they are empty.  slab_volumes dispatches by dimension, and only its
one-lane d = 1 calls run the scalar interval_length; tests/slab_reference.py
keeps scalar 2-D and 3-D twins as the tests' == reference.
"""

from __future__ import annotations

import math

import numpy as np

BACKEND = "pure"

_TINY = 1e-300


def interval_length(w, lo, hi):
    """Length of the intersection of the 1-D slabs lo_i <= w_i*y <= hi_i."""
    left = -math.inf
    right = math.inf
    for wi, l, h in zip(w, lo, hi):
        if wi > _TINY:
            a, b = l / wi, h / wi
        elif wi < -_TINY:
            a, b = h / wi, l / wi
        else:
            if l > 0.0 or h < 0.0:
                return 0.0
            continue
        if a > left:
            left = a
        if b < right:
            right = b
        if right <= left:
            return 0.0
    if not (math.isfinite(left) and math.isfinite(right)):
        raise ValueError("unbounded slab intersection (no spanning constraints)")
    return right - left


def interval_lengths(frames, frame, lo, hi):
    """interval_length of each lane l: the 1-D slabs lo[l, i] <= w_i * y <=
    hi[l, i] for w = frames[frame[l], :, 0], frames (K, m, 1), frame (L,),
    lo and hi (L, m); returns (L,) lengths with interval_length's bits.

    Each frame's row signs are found once.  A lane's ends are the largest
    lower and the smallest upper bound over its rows, taken in row order as
    interval_length takes them (np.maximum and np.minimum keep the first of
    two equal values, as its strict comparisons do)."""
    w = np.asarray(frames, dtype=float)[:, :, 0]
    frame = np.asarray(frame, dtype=np.intp)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    pos, neg = w > _TINY, w < -_TINY
    flat = ~(pos | neg)
    w = np.where(flat, 1.0, w)[frame]
    pos, flat = pos[frame], flat[frame]
    a = np.where(pos, lo, hi) / w
    b = np.where(pos, hi, lo) / w
    if flat.any():
        a[flat], b[flat] = -math.inf, math.inf
    left, right = np.full(len(frame), -math.inf), np.full(len(frame), math.inf)
    for i in range(lo.shape[1]):
        left, right = np.maximum(left, a[:, i]), np.minimum(right, b[:, i])
    # the bounds only tighten, so right <= left at the end iff it held at
    # some row, where interval_length returns 0.0
    empty = right <= left
    if flat.any():
        empty |= (flat & ((lo > 0.0) | (hi < 0.0))).any(axis=1)
    if not (np.isfinite(left[~empty]).all() and np.isfinite(right[~empty]).all()):
        raise ValueError("unbounded slab intersection (no spanning constraints)")
    out = np.zeros(len(frame))
    out[~empty] = right[~empty] - left[~empty]
    return out


def _clip_polygons(poly, nx, ny, b, eps):
    """Sutherland-Hodgman clip of every lane l of poly (x and y (2, W + 1,
    L)) by nx[l]*x + ny[l]*y <= b[l], keeping the vertices within eps[l] of
    that side (eps (2, L): eps and -eps): the lane's polygon has its count
    c <= W vertices in slots 0..c - 1, vertex 0 again in slot c, and NaN
    after it.  Returns the clipped polygons in the same layout, W as the
    largest count, and their counts.  Runs under np.errstate(divide,
    invalid and over "ignore").

    Slot j's successor is slot j + 1, so every slot computes its vertex's dp
    and its edge's crossing point at once; NaN slots compare false, so they
    are neither kept nor crossed, and the copy of vertex 0 (the one slot
    with a NaN successor) is not kept.  A kept vertex, then its edge's
    crossing point, go to the lane's next free slots, found by a running
    sum over the slots, by one flat scatter per coordinate and kind; the
    writes that are not kept land in a spare last slot."""
    width, count = poly.shape[1] - 1, poly.shape[2]
    lane = np.arange(count)
    dp = nx * poly[0] + ny * poly[1] - b
    above, below = dp > eps[0], dp < eps[1]
    # slot j's vertex stays if it is within eps and has a successor; its
    # edge crosses if its ends lie beyond eps on opposite sides
    keep = (dp[:-1] <= eps[0]) & (dp[1:] == dp[1:])
    cross = (below[:-1] & above[1:]) | (above[:-1] & below[1:])
    # the flat index of each output: its slot times count, plus the lane
    kept = np.empty((width, count), dtype=np.intp)
    stride = np.add(keep, cross, dtype=np.intp) * count
    at = lane
    for j in range(width):
        kept[j] = at
        at = at + stride[j]
    counts = (at - lane) // count
    out_width = int(counts.max())
    spare = (out_width + 1) * count + lane
    crossed = np.where(cross, kept + keep * count, spare)
    kept = np.where(keep, kept, spare)
    # only the crossing slots' points are kept; there the edge's ends lie
    # beyond eps on opposite sides, so their dp differ
    t = dp[:-1] / (dp[:-1] - dp[1:])
    points = poly[:, :-1] + t * (poly[:, 1:] - poly[:, :-1])
    out = np.full((2, out_width + 2, count), np.nan)
    closing = counts * count + lane
    for c in range(2):
        flat = out[c].reshape(-1)
        flat[kept] = poly[c, :-1]
        flat[crossed] = points[c]
        flat[closing] = out[c, 0]
    return out[:, : out_width + 1], counts


def _polygon_frame_tables(frames):
    """What polygon_areas needs of the frames (K, m, 2) alone: ok (K,),
    false where the seed rows are degenerate (their determinant is below
    1e-14 (1 + max |w|)^2; the frame's lanes are then 0.0); the seed table
    (5, K) of a00, a01, a10, a11 and det, i0 the longest row and i1 the
    one most transverse to it; each frame's row order (K, m), the seed rows
    i0, i1 and then the others in row order; the clip normals (2, 2(m - 2),
    K), the other rows' in that order, each as itself (the hi side) and
    negated (the -lo side)."""
    count, m, _ = frames.shape
    ks = np.arange(count)
    i0 = np.argmax(np.einsum("lij,lij->li", frames, frames), axis=1)
    a0 = frames[ks, i0]
    dets = a0[:, 0:1] * frames[:, :, 1] - a0[:, 1:2] * frames[:, :, 0]
    i1 = np.argmax(np.abs(dets), axis=1)
    det = dets[ks, i1]
    scale = 1.0 + np.abs(frames).max(axis=(1, 2))
    ok = ~(np.abs(det) < 1e-14 * (scale * scale))
    order = np.broadcast_to(np.arange(m), (count, m)).copy()
    # (a degenerate frame may have i0 == i1; its lanes are 0.0)
    if ok.any():
        rows = order[ok]
        others = rows[(rows != i0[ok, None]) & (rows != i1[ok, None])]
        order[ok] = np.column_stack([i0[ok], i1[ok], others.reshape(len(rows), m - 2)])
    seed = np.vstack([frames[ks, i0].T, frames[ks, i1].T, det])
    normals = frames[ks[:, None], order[:, 2:]].transpose(2, 1, 0)  # (2, m - 2, K)
    clip = np.stack([normals, -normals], axis=2).reshape(2, 2 * normals.shape[1], count)
    return ok, seed, order, clip


# a lane some non-seed row of which misses the seed parallelogram by this
# multiple of (the seed matrix's condition number x the cell's coordinate
# scale, 1 + |c|_1 + sum_s half_s |g_s|_1, c its centre) gets no clip.  The
# clipper's corners, and their distances from a row's side, are within a
# few unit roundoffs of that product of the exact ones, and it keeps only
# what lies within eps = 1e-14 (1 + the corners' largest 1-norm) <= 1e-14
# times that scale of each side: it would clip such a lane to 0.0 as well
_CLIP_MARGIN = 1e-9


def _polygon_seed_cells(tables, frame, lo, hi):
    """(L,): false for the lanes that polygon_areas gives 0.0 without a clip,
    those of a degenerate frame and those with a non-seed row whose slab
    misses the seed parallelogram by _CLIP_MARGIN (see there)."""
    ok, seed, order, clip = tables
    # per frame, g (2, 2, K): g[s] = g_s, the columns of the seed matrix's
    # inverse, so the seed parallelogram is {s g_0 + t g_1 : lo_i0 <= s <=
    # hi_i0, lo_i1 <= t <= hi_i1}; also |g_s|_1 and |<w_j, g_s>| for the
    # other rows, and the seed matrix's condition number
    a00, a01, a10, a11, det = seed
    g = np.array([[a11, -a10], [-a01, a00]]) / np.where(ok, det, 1.0)
    ag = np.abs(g)
    gl1 = ag[:, 0] + ag[:, 1]
    normals = clip[:, 0::2]
    wg = np.abs(normals[0] * g[:, 0, None] + normals[1] * g[:, 1, None])
    cond = (np.maximum(np.abs(a00) + np.abs(a01), np.abs(a10) + np.abs(a11))
            * np.maximum(ag[0, 0] + ag[1, 0], ag[0, 1] + ag[1, 1]))
    # (m, L): each lane's rows in its frame's order
    at = np.arange(len(frame)) * lo.shape[1] + order[frame].T
    lo, hi = lo.reshape(-1).take(at), hi.reshape(-1).take(at)
    mid, half = 0.5 * (lo[:2] + hi[:2]), 0.5 * (hi[:2] - lo[:2])
    g = g[:, :, frame]
    centre = mid[0] * g[0] + mid[1] * g[1]
    normals = normals[:, :, frame]
    wc = normals[0] * centre[0] + normals[1] * centre[1]
    scale = 1.0 + np.abs(centre[0]) + np.abs(centre[1]) + half[0] * gl1[0, frame] + half[1] * gl1[1, frame]
    # the largest |<w_j, y - c>| over the parallelogram, plus the margin
    slack = half[0] * wg[0][:, frame] + half[1] * wg[1][:, frame] + _CLIP_MARGIN * cond[frame] * scale
    return ok[frame] & ~((lo[2:] - wc > slack) | (hi[2:] - wc < -slack)).any(axis=0)


def polygon_areas(frames, frame, lo, hi):
    """Area of each lane l: the 2-D slabs lo[l, i] <= <w_i, y> <= hi[l, i]
    for the rows w = frames[frame[l]], frames (K, m, 2), frame (L,), lo and
    hi (L, m) with lo <= hi; returns (L,) areas.

    Lane-wise Sutherland-Hodgman: the seed parallelogram of the
    best-conditioned row pair, cut by the hi then -lo side of each other
    row in row order, each cut keeping the vertices within eps = 1e-14 (1 +
    the seed corners' largest 1-norm) of its side; then the shoelace sum
    from vertex 0.  Every lane goes through these floating-point operations
    in this order, so its area does not depend on the other lanes.  What
    depends on the frame alone (the seed rows, their determinant, the
    degeneracy test, the clip order) is found once per frame.  Vertices sit
    slot-major, (slots, lanes), NaN past each lane's count; a lane leaves
    once it has fewer than 3 vertices.

    A lane whose seed parallelogram misses another row's slab by
    _CLIP_MARGIN is 0.0 without a clip, as the clip would make it.
    (The 3-D facets call _polygon_areas directly: testing them too saved
    no measurable time on sup-grid.)
    """
    frame = np.asarray(frame, dtype=np.intp)
    out = np.zeros(len(frame))
    if not len(frame):
        return out
    tables = _polygon_frame_tables(np.asarray(frames, dtype=float))
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    live = np.flatnonzero(_polygon_seed_cells(tables, frame, lo, hi))
    out[live] = _polygon_areas(tables, frame[live], lo[live], hi[live])
    return out


def _polygon_areas(tables, frame, lo, hi):
    """polygon_areas on the frame tables of _polygon_frame_tables, with no
    seed-cell test."""
    ok, seed, order, clip = tables
    out = np.zeros(len(frame))
    idx = np.flatnonzero(ok[frame])
    if not idx.size:
        return out
    f = frame[idx]
    steps = clip.shape[1]
    # (m, L): each lane's rows in its frame's order
    at = idx * lo.shape[1] + order[f].T
    lo, hi = lo.reshape(-1).take(at), hi.reshape(-1).take(at)
    a00, a01, a10, a11, det = seed[:, f]
    # the seed parallelogram, then vertex 0 again (see _clip_polygons)
    s = np.stack([lo[0], hi[0], hi[0], lo[0]])
    t = np.stack([lo[1], lo[1], hi[1], hi[1]])
    poly = np.empty((2, 5, idx.size))
    np.divide(a11 * s - a01 * t, det, out=poly[0, :4])
    np.divide(a00 * t - a10 * s, det, out=poly[1, :4])
    poly[:, 4] = poly[:, 0]
    eps = 1e-14 * (1.0 + (np.abs(poly[0, :4]) + np.abs(poly[1, :4])).max(axis=0))
    eps = np.stack([eps, -eps])
    # per lane and clip step: the normal's x and y, and the bound b
    lane = np.empty((3, steps, idx.size))
    lane[:2] = clip[:, :, f]
    lane[2, 0::2], lane[2, 1::2] = hi[2:], -lo[2:]
    alive = np.ones(idx.size, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(steps):
            if not alive.all():  # a lane leaves once it has fewer than 3 vertices
                idx, poly, lane, eps = idx[alive], poly[:, :, alive], lane[:, :, alive], eps[:, alive]
            poly, cnt = _clip_polygons(poly, lane[0, k], lane[1, k], lane[2, k], eps)
            alive = cnt >= 3
            if not alive.any():
                return out
    term = poly[0, :-1] * poly[1, 1:] - poly[1, :-1] * poly[0, 1:]
    # the slots from a lane's count on add 0.0, and starting from term 0
    # rather than 0.0 can flip only the sign of a zero: neither moves a bit
    # of 0.5 |area|
    term[np.isnan(term)] = 0.0
    area = term[0]
    for j in range(1, len(term)):
        area = area + term[j]
    out[idx[alive]] = 0.5 * np.abs(area[alive])
    return out


# -- 3-D slab intersections --------------------------------------------------

# a row whose direction lies within this sine of an earlier row's merges
# into that row's slab before the facet recursion (see polytope_volumes)
_PARALLEL_SINE = 1e-8

# a lane some row of which misses its seed cell by this multiple of the
# cell's coordinate scale, 1 + |c|_1 + sum_s half_s |g_s|_1 (at most 7 (1 +
# the corners' largest 1-norm)), is empty
_EMPTY_MARGIN = 1e-11

# lanes per batch of polytope_volumes: a lane has up to 2m facets of m - 1
# rows each, so this bounds the working memory of polygon_areas.  On the 3-D
# calls of a sup-grid round (26-446 lanes of 1-2 frames each), 256 took 6%
# less kernel time than 128, but raised the peak memory those calls trace
# from 1.3 to 2.0 MB, and sup-grid's peak RSS by 0.7 MB
_POLYTOPE_LANES = 1 << 7


def _dot(a, b):
    """<a, b> over the last axis of 3-vectors, the three products added in
    order."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def _cross(a, b):
    """a x b over the last axis of 3-vectors."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def _polytope_seed_lanes(W):
    """The rows of each lane of W (L, m, 3) that span its seed cell: the
    longest row, the one most transverse to it and the one farthest from
    their plane, each the first of its equals.  Returns (seeds (L, 3), ok
    (L,)), ok false where their determinant is below 1e-14 (1 + max |w|)^3
    (the lane is then 0.0)."""
    lanes = np.arange(len(W))
    i0 = np.argmax(_dot(W, W), axis=1)
    crs = _cross(W[lanes, i0][:, None, :], W)
    i1 = np.argmax(_dot(crs, crs), axis=1)
    dets = np.abs(_dot(W, crs[lanes, i1][:, None, :]))
    i2 = np.argmax(dets, axis=1)
    scale = 1.0 + np.abs(W).max(axis=(1, 2))
    ok = dets[lanes, i2] >= 1e-14 * (scale * scale * scale)
    return np.stack([i0, i1, i2], axis=1), ok


def _sum_in_order(terms):
    """Sum over the last axis from 0.0 in index order, as a Python loop
    adds (np.sum adds pairwise)."""
    start = np.zeros(terms.shape[:-1] + (1,))
    return np.cumsum(np.concatenate([start, terms], axis=-1), axis=-1)[..., -1]


def polytope_volumes(frames, frame, lo, hi):
    """Volume of each lane l: the 3-D slabs lo[l, i] <= <w_i, y> <= hi[l, i]
    for the rows w = frames[frame[l]], frames (K, m, 3), frame (L,), lo and
    hi (L, m) with lo <= hi; returns (L,) volumes.

    Facet recursion (Lasserre 1983): about c, the centre of the lane's seed
    cell (the parallelepiped of its seed rows, which holds the polytope),
    vol = (1/3) sum over rows i and sides of h |F|, h the signed distance of
    the side's plane from c and F the facet the plane cuts from the other
    rows: a 2-D slab system in an orthonormal basis of w_i-perp, whose
    bounds shift by <w_j, x0> for x0 the plane's foot.  A batch's facets go
    through one polygon_areas call, and each lane adds its 2m terms from
    0.0 in row-then-side order, so a volume does not depend on the other
    lanes of its call.

    A row within sine _PARALLEL_SINE = tau of an earlier live row i first
    merges into it: its interval, scaled by <w_j, w_i> / |w_i|^2 about c, is
    intersected with row i's.  Coincident facets would otherwise count
    twice, and facets theta apart lose about u / theta relative (u the unit
    roundoff) where they cut each other.  The merge tilts the merged slab's
    planes about c by at most tau, which moves them at most tau R inside the
    seed cell, R its largest distance from c; so each merged row changes
    the volume by at most 2 tau R S, S <= pi R^2 the cell's largest plane
    section.  Otherwise each term carries polygon_areas' error (its clip
    tolerance, 1e-14 times the facet's coordinate scale, per unit of the
    facet's perimeter) times |h|, and the projections and the sum add
    O(m u) of sum |h| |F|.

    A lane with degenerate seed rows, or with a row that misses the seed
    cell by _EMPTY_MARGIN times the cell's coordinate scale, is 0.0; a facet
    whose plane misses the cell that way is skipped.

    What depends on the frame alone is found once per frame (_frame_tables):
    the seed cell's shape, the merges (the same for every nonempty lane of a
    frame), and each row's facet frame, the other rows in an orthonormal
    basis of w_i-perp with the merged rows zeroed, with its 2-D tables.  A
    lane's own work is its bounds.  The seed-cell test runs once over all
    lanes, then the lanes that pass go _POLYTOPE_LANES at a time.
    """
    frames = np.ascontiguousarray(frames, dtype=float)
    frame = np.asarray(frame, dtype=np.intp)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    out = np.zeros(len(frame))
    if not len(frame):
        return out
    seeds, ok, g, gl1, wg, *tables = _frame_tables(frames)
    # the seed-cell test, once over all lanes, its per-row terms built one
    # coordinate at a time as (L, m) arrays
    lanes = np.arange(len(frame))[:, None]
    seeds, g, gl1 = seeds[frame], g[frame], gl1[frame]
    mid = 0.5 * (lo[lanes, seeds] + hi[lanes, seeds])
    half = 0.5 * (hi[lanes, seeds] - lo[lanes, seeds])
    centre = mid[:, 0, None] * g[:, 0] + mid[:, 1, None] * g[:, 1] + mid[:, 2, None] * g[:, 2]
    wc = frames[:, :, 0][frame] * centre[:, 0, None]
    for k in (1, 2):
        wc += frames[:, :, k][frame] * centre[:, k, None]
    blo, bhi = lo - wc, hi - wc  # the bounds about c
    scale = 1.0 + (np.abs(centre[:, 0]) + np.abs(centre[:, 1]) + np.abs(centre[:, 2]))
    for s in range(3):
        scale = scale + half[:, s] * gl1[:, s]
    # the largest |<w_i, y - c>| over the seed cell, plus the margin
    slack = half[:, 0, None] * wg[:, :, 0][frame]
    for s in (1, 2):
        slack += half[:, s, None] * wg[:, :, s][frame]
    slack += (_EMPTY_MARGIN * scale)[:, None]
    empty = ~ok[frame] | ((blo > slack) | (bhi < -slack)).any(axis=1)
    live = np.flatnonzero(~empty)
    for start in range(0, live.size, _POLYTOPE_LANES):
        part = live[start : start + _POLYTOPE_LANES]
        out[part] = _polytope_volumes(tables, frame[part], blo[part], bhi[part], slack[part])
    return out


def _frame_tables(F):
    """What polytope_volumes needs of the frames F (K, m, 3) alone: seeds,
    ok, g (the seed cell's edge vectors per unit half-width), the 1-norms of
    g, |<w_i, g_s>|, the rows' squared norms; the merges: into (K, m), the
    row that row j merges into or -1, the rows j that merge in some frame,
    their factors alpha (None when no row merges), and the rows that stay
    alive; and per facet frame k m + i (row i of frame k): its Gram row
    over the other rows (K m, m - 1), which of them are merged (None when no
    row merges), and the 2-D tables of the other rows in an orthonormal
    basis of w_i-perp, merged rows zeroed."""
    count, m, _ = F.shape
    seeds, ok = _polytope_seed_lanes(F)
    frames = np.arange(count)[:, None]
    r = F[frames, seeds]  # (K, 3, 3)
    # g[:, s] = r_{s+1} x r_{s+2} / det, so <r_s, g_t> = delta_st and the seed
    # cell is {c + sum_s t_s half_s g_s : |t_s| <= 1}
    g = _cross(r[:, [1, 2, 0]], r[:, [2, 0, 1]])
    g = g / np.where(ok, _dot(r[:, 0], g[:, 0]), 1.0)[:, None, None]
    ag = np.abs(g)
    gl1 = ag[..., 0] + ag[..., 1] + ag[..., 2]
    wg = np.abs(_dot(F[:, :, None, :], g[:, None, :, :]))  # (K, m, 3)
    norms = _dot(F, F)
    gram = _dot(F[:, :, None, :], F[:, None, :, :])  # (K, m, m)
    crs = _cross(F[:, :, None, :], F[:, None, :, :])
    # (a degenerate frame's lanes are empty, so it merges nothing)
    parallel = ((_dot(crs, crs) <= _PARALLEL_SINE**2 * (norms[:, :, None] * norms[:, None, :]))
                & ok[:, None, None])
    # row j merges into the first live row parallel to it, with the factor
    # alpha (most frames have no parallel pair)
    alive = np.ones((count, m), dtype=bool)
    into = np.full((count, m), -1)
    merged, alpha = (), None
    if (parallel & np.tri(m, k=-1, dtype=bool)).any():
        for j in range(1, m):
            parallel_to = parallel[:, j, :j] & alive[:, :j]
            hit = parallel_to.any(axis=1)
            into[hit, j] = np.argmax(parallel_to[hit], axis=1)
            alive[hit, j] = False
        mk, mj = np.nonzero(into >= 0)
        merged = np.unique(mj)
        alpha = np.ones((count, m))
        alpha[mk, mj] = gram[mk, mj, into[mk, mj]] / norms[mk, into[mk, mj]]
    e = np.zeros_like(F)
    e[frames, np.arange(m), np.argmin(np.abs(F), axis=2)] = 1.0
    u = _cross(F, e)
    # (a degenerate frame may hold a zero row; its lanes are empty)
    unorm = np.sqrt(_dot(u, u))
    u = u / np.where(unorm > 0.0, unorm, 1.0)[..., None]
    nnorm = np.sqrt(norms)
    v = _cross(F, u) / np.where(nnorm > 0.0, nnorm, 1.0)[..., None]
    others = _others(m)
    wo = F[:, others]  # (K, m, m - 1, 3)
    flat = np.stack([_dot(wo, u[:, :, None, :]), _dot(wo, v[:, :, None, :])], axis=-1)
    dead = None
    if alpha is not None:
        # merged rows become zero rows that every point satisfies (their
        # lanes' bounds are -1, 1)
        dead = ~alive[:, others]
        flat[dead] = 0.0
        dead = dead.reshape(count * m, m - 1)
    facets = _polygon_frame_tables(flat.reshape(count * m, m - 1, 2))
    gram = gram[:, np.arange(m)[:, None], others].reshape(count * m, m - 1)
    return seeds, ok, g, gl1, wg, norms, into, merged, alpha, alive, gram, dead, facets


def _others(m):
    """(m, m - 1): row i lists the indices other than i of m rows, in order."""
    return np.broadcast_to(np.arange(m), (m, m))[~np.eye(m, dtype=bool)].reshape(m, m - 1)


def _polytope_volumes(tables, frame, blo, bhi, slack):
    """polytope_volumes of the lanes frame that pass its seed-cell test,
    from their bounds about c and slack, on the rest of the _frame_tables
    of their frames."""
    norms, into, merged, alpha, alive, gram, dead, facets = tables
    count, m = blo.shape
    into = into[frame]
    for j in merged:
        hit = np.flatnonzero(into[:, j] >= 0)
        if not hit.size:
            continue
        i = into[hit, j]
        scaled = alpha[frame[hit], j]
        a, b = blo[hit, j] / scaled, bhi[hit, j] / scaled
        blo[hit, i] = np.maximum(blo[hit, i], np.minimum(a, b))
        bhi[hit, i] = np.minimum(bhi[hit, i], np.maximum(a, b))
    empty = (blo >= bhi).any(axis=1)
    # facet (l, i, side): the plane <w_i, y - c> = bhi (side 0) or blo (side 1)
    # (its outward distance from c is signed / |w_i|; a plane beyond the seed
    # cell cuts no facet)
    plane = np.stack([bhi, blo], axis=2)
    signed = plane * np.array([1.0, -1.0])
    fl, fi, fs = np.nonzero((signed <= slack[:, :, None]) & (alive[frame] & ~empty[:, None])[:, :, None])
    if not fl.size:
        return np.zeros(count)
    facet = frame[fl] * m + fi
    rows = _others(m)[fi]  # (F, m - 1)
    b = plane[fl, fi, fs]
    nn = norms.reshape(-1)[facet]
    foot = (b / nn)[:, None] * gram[facet]
    flo, fhi = blo[fl[:, None], rows] - foot, bhi[fl[:, None], rows] - foot
    if dead is not None:
        zeroed = dead[facet]
        flo, fhi = np.where(zeroed, -1.0, flo), np.where(zeroed, 1.0, fhi)
    terms = np.zeros((count, m, 2))
    terms[fl, fi, fs] = signed[fl, fi, fs] / np.sqrt(nn) * _polygon_areas(facets, facet, flo, fhi)
    return _sum_in_order(terms.reshape(count, 2 * m)) / 3.0


def slab_volumes(frames, frame, lo, hi) -> np.ndarray:
    """Volume of { y in R^d : lo[l, i] <= <w_i, y> <= hi[l, i] } of each lane
    l, the rows w = frames[frame[l]], for frames (K, m, d), d in {1, 2, 3},
    frame (L,), lo and hi (L, m), by the lane kernel of dimension d.

    A one-lane d = 1 call runs interval_length instead, with the same bits:
    marginal_at's 1-D blocks make such calls one point at a time.  Per call,
    on a shared 2-core x86 VM (centred Haar frames; m = 3, 4, 5 rows for d =
    1, 2, 3; the best of 7 timeit repeats in each of three sessions; the
    scalar 2-D and 3-D kernels are tests/slab_reference.py's):

        d   1 lane: lane kernel, scalar   512 lanes: lane kernel, 512 scalar calls
        1   0.025 ms, 0.002 ms            0.06 ms, 1.1 ms
        2   0.35 ms, 0.011 ms             1.1 ms (0.76 on one shared frame), 6.3 ms
        3   0.69 ms, 0.12 ms              11.5 ms (4.0 on one shared frame), 83 ms

    so the callers of the 2-D and 3-D kernels batch their lanes.
    """
    frames = np.asarray(frames, dtype=float)
    frame = np.asarray(frame, dtype=np.intp)
    d = frames.shape[2]
    if d == 1:
        if len(frame) == 1:
            return np.array([interval_length(frames[frame[0], :, 0], lo[0], hi[0])])
        return interval_lengths(frames, frame, lo, hi)
    if d == 2:
        return polygon_areas(frames, frame, lo, hi)
    if d == 3:
        return polytope_volumes(frames, frame, lo, hi)
    raise ValueError(f"slab_volumes supports dimensions 1-3, got {d}")


# -- Signed power sums -------------------------------------------------------


def irwin_hall_at(c, t):
    """Density at t of sum(c_j * V_j) with V_j iid uniform on [0, 1]; for
    rows c (B, n) and t (B,), that of each row, (B,).

    Signed inclusion-exclusion over the 2^n subset sums; summed with
    math.fsum because of the heavy cancellation.  Requires all c_j > 0.  A
    row goes through the operations of a one-row call, so it has its bits.
    """
    c = np.asarray(c, dtype=float)
    n = c.shape[-1]
    if n == 0:
        raise ValueError("need at least one coefficient")
    if n > 24:
        raise ValueError("combinatorial blowup guard: n > 24")
    if np.any(c <= 0.0):
        raise ValueError("coefficients must be positive")
    sums = np.zeros(c.shape[:-1] + (1,))
    signs = np.ones(1)
    for cj in c.T[..., None]:
        sums = np.concatenate([sums, sums + cj], axis=-1)
        signs = np.concatenate([signs, -signs])
    diff = np.asarray(t)[..., None] - sums
    if n == 1:
        terms = signs * (diff > 0.0)
    else:
        terms = signs * np.where(diff > 0.0, diff, 0.0) ** (n - 1)
    total = [math.fsum(row) for row in terms.reshape(-1, 2**n).tolist()]
    scale = math.factorial(n - 1) * np.prod(c, axis=-1)
    return total[0] / float(scale) if c.ndim == 1 else np.array(total) / scale
