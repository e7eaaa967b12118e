"""Kernels in numpy/Python: slab-intersection volumes and Irwin-Hall.

The geometric kernels compute the volume of a slab intersection
{ y : lo_i <= <w_i, y> <= hi_i } in dimension 1, 2 or 3.  Callers guarantee
boundedness (the w_i always contain a spanning subset coming from a tight
frame) and strip zero rows beforehand.  The 2-D kernel clips a seed
parallelogram; the 3-D kernel sums (1/3) h |F| over the facets F, each a
2-D slab system, after merging rows parallel within _PARALLEL_SINE (see
polytope_volumes for its rounding bound).  Each scalar kernel has a
lane-wise twin (interval_lengths, polygon_areas, polytope_volumes) that
evaluates many slab systems per call with the scalar kernel's
floating-point operations, so every lane has the scalar result's bits.
slab_volumes picks between them by lane count; the scalar kernels also
serve section_quadrature, which holds one system at a time.
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


def interval_lengths(W, lo, hi):
    """interval_length of each lane l: the 1-D slabs lo[l, i] <= W[l, i] * y
    <= hi[l, i] for W, lo and hi (L, m); returns (L,) lengths with
    interval_length's bits."""
    W = np.asarray(W, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    count, m = W.shape
    left = np.full(count, -math.inf)
    right = np.full(count, math.inf)
    empty = np.zeros(count, dtype=bool)
    for i in range(m):
        w, l, h = W[:, i], lo[:, i], hi[:, i]
        pos, neg = w > _TINY, w < -_TINY
        flat = ~(pos | neg)
        empty |= flat & ((l > 0.0) | (h < 0.0))
        w = np.where(flat, 1.0, w)
        a = np.where(pos, l / w, np.where(neg, h / w, -math.inf))
        b = np.where(pos, h / w, np.where(neg, l / w, math.inf))
        left = np.where(a > left, a, left)
        right = np.where(b < right, b, right)
    # the bounds only tighten, so right <= left at the end iff it held at
    # some row, where interval_length returns 0.0
    empty |= right <= left
    if not (np.isfinite(left[~empty]).all() and np.isfinite(right[~empty]).all()):
        raise ValueError("unbounded slab intersection (no spanning constraints)")
    out = np.zeros(count)
    out[~empty] = right[~empty] - left[~empty]
    return out


def _clip_polygon(poly, nx, ny, b, eps):
    """Sutherland-Hodgman clip of a 2-D polygon by nx*x + ny*y <= b."""
    out = []
    m = len(poly)
    for i in range(m):
        px, py = poly[i]
        qx, qy = poly[(i + 1) % m]
        dp = nx * px + ny * py - b
        dq = nx * qx + ny * qy - b
        if dp <= eps:
            out.append((px, py))
        if (dp < -eps and dq > eps) or (dp > eps and dq < -eps):
            t = dp / (dp - dq)
            out.append((px + t * (qx - px), py + t * (qy - py)))
    return out


def _polygon_seed_rows(rows):
    """(i0, i1, det) of the rows (a list of (x, y) floats) seeding the 2-D
    clipper and their determinant, or None when they are degenerate at the
    clipper's tolerance (polygon_area then returns 0.0)."""
    norms = [x * x + y * y for x, y in rows]
    i0 = norms.index(max(norms))
    x0, y0 = rows[i0]
    dets = [x0 * y - y0 * x for x, y in rows]
    sizes = [abs(det) for det in dets]
    i1 = sizes.index(max(sizes))
    wmax = max(max(abs(x), abs(y)) for x, y in rows)
    if sizes[i1] < 1e-14 * (1.0 + wmax) ** 2:
        return None
    return i0, i1, dets[i1]


def polygon_area(W, lo, hi):
    """Area of the intersection of 2-D slabs lo_i <= <w_i, y> <= hi_i."""
    return _polygon_area(np.asarray(W, dtype=float).tolist(), np.asarray(lo, dtype=float).tolist(),
                         np.asarray(hi, dtype=float).tolist())


def _polygon_area(rows, lo, hi):
    """polygon_area of rows, lo and hi given as lists of Python floats: the
    IEEE operations of polygon_areas' numpy ones, faster for one system."""
    # Seed polygon: the parallelogram cut out by the best-conditioned pair.
    seeds = _polygon_seed_rows(rows)
    if seeds is None:
        return 0.0
    i0, i1, det = seeds
    a00, a01 = rows[i0]
    a10, a11 = rows[i1]
    poly = []
    for s, t in ((lo[i0], lo[i1]), (hi[i0], lo[i1]), (hi[i0], hi[i1]), (lo[i0], hi[i1])):
        poly.append(((a11 * s - a01 * t) / det, (a00 * t - a10 * s) / det))
    scale = 1.0 + max(abs(p[0]) + abs(p[1]) for p in poly)
    eps = 1e-14 * scale
    for i, (nx, ny) in enumerate(rows):
        if i == i0 or i == i1:
            continue
        poly = _clip_polygon(poly, nx, ny, hi[i], eps)
        if len(poly) < 3:
            return 0.0
        poly = _clip_polygon(poly, -nx, -ny, -lo[i], eps)
        if len(poly) < 3:
            return 0.0
    area = 0.0
    for i in range(len(poly)):
        px, py = poly[i]
        qx, qy = poly[(i + 1) % len(poly)]
        area += px * qy - py * qx
    return 0.5 * abs(area)


def _clip_polygons(x, y, cnt, nx, ny, b, eps):
    """_clip_polygon for every lane l: the polygon x[l, :cnt[l]], y[l, :cnt[l]]
    clipped by nx[l]*x + ny[l]*y <= b[l].  Returns the clipped vertices,
    padded to the widest lane, and their counts."""
    count, width = x.shape
    j = np.arange(width)
    valid = j < cnt[:, None]
    nxt = np.where(j + 1 < cnt[:, None], j + 1, 0)
    dp = nx[:, None] * x + ny[:, None] * y - b[:, None]
    dq = np.take_along_axis(dp, nxt, axis=1)
    e = eps[:, None]
    keep = valid & (dp <= e)
    cross = valid & (((dp < -e) & (dq > e)) | ((dp > e) & (dq < -e)))
    # each vertex emits itself if kept, then its edge's crossing point
    step = keep.astype(np.intp) + cross
    pos = np.cumsum(step, axis=1) - step
    counts = pos[:, -1] + step[:, -1]
    out_width = max(int(counts.max()), 1)
    ox = np.zeros((count, out_width))
    oy = np.zeros((count, out_width))
    r, c = np.nonzero(keep)
    ox[r, pos[r, c]] = x[r, c]
    oy[r, pos[r, c]] = y[r, c]
    r, c = np.nonzero(cross)
    q = nxt[r, c]
    px, py, qx, qy = x[r, c], y[r, c], x[r, q], y[r, q]
    t = dp[r, c] / (dp[r, c] - dq[r, c])  # nonzero: dp and dq lie beyond eps on opposite sides
    at = pos[r, c] + keep[r, c]
    ox[r, at] = px + t * (qx - px)
    oy[r, at] = py + t * (qy - py)
    return ox, oy, counts


def polygon_areas(W, lo, hi):
    """polygon_area of each lane l: the 2-D slabs lo[l, i] <= <W[l, i], y> <=
    hi[l, i] for W (L, m, 2), lo and hi (L, m); returns (L,) areas.

    Lane-wise Sutherland-Hodgman: every lane goes through polygon_area's
    floating-point operations in its order (seed rows, seed parallelogram,
    eps, the hi then -lo clip of each other row in row order, the shoelace
    sum from vertex 0), so each area has polygon_area's bits.  Vertices sit
    in arrays padded to the widest lane; a lane leaves once it has fewer than
    3 vertices.  Per call this costs more than polygon_area at 1-4 lanes.
    """
    W = np.asarray(W, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    count, m, _ = W.shape
    out = np.zeros(count)
    if count == 0:
        return out
    lanes = np.arange(count)
    i0 = np.argmax(np.einsum("lij,lij->li", W, W), axis=1)
    a0 = W[lanes, i0]
    dets = a0[:, 0:1] * W[:, :, 1] - a0[:, 1:2] * W[:, :, 0]
    i1 = np.argmax(np.abs(dets), axis=1)
    det = dets[lanes, i1]
    wmax = np.abs(W).max(axis=(1, 2))
    thr = 1e-14 * (1.0 + wmax) ** 2
    degenerate = np.abs(det) < thr
    # polygon_area squares with Python's float pow, which may differ from
    # numpy's x*x in the last bit: settle lanes that close to the threshold
    # with its own expression
    for lane in np.flatnonzero(np.abs(np.abs(det) - thr) <= 1e-15 * thr):
        degenerate[lane] = abs(det[lane]) < 1e-14 * (1.0 + float(wmax[lane])) ** 2
    idx = np.flatnonzero(~degenerate)
    if not idx.size:
        return out
    W, lo, hi, i0, i1, det = W[idx], lo[idx], hi[idx], i0[idx], i1[idx], det[idx]
    lanes = np.arange(idx.size)
    (a00, a01), (a10, a11) = W[lanes, i0].T, W[lanes, i1].T
    s = np.stack([lo[lanes, i0], hi[lanes, i0], hi[lanes, i0], lo[lanes, i0]], axis=1)
    t = np.stack([lo[lanes, i1], lo[lanes, i1], hi[lanes, i1], hi[lanes, i1]], axis=1)
    x = (a11[:, None] * s - a01[:, None] * t) / det[:, None]
    y = (a00[:, None] * t - a10[:, None] * s) / det[:, None]
    cnt = np.full(idx.size, 4)
    eps = 1e-14 * (1.0 + (np.abs(x) + np.abs(y)).max(axis=1))
    # each lane's m - 2 non-seed rows, in row order
    rows = np.broadcast_to(np.arange(m), (idx.size, m))
    others = rows[(rows != i0[:, None]) & (rows != i1[:, None])].reshape(idx.size, m - 2)
    for r in range(m - 2):
        for side in (1.0, -1.0):  # the hi side, then the -lo side
            lanes = np.arange(idx.size)
            i = others[:, r]
            b = hi[lanes, i] if side > 0.0 else -lo[lanes, i]
            x, y, cnt = _clip_polygons(x, y, cnt, side * W[lanes, i, 0], side * W[lanes, i, 1], b, eps)
            alive = cnt >= 3
            if not alive.all():
                x, y, cnt, eps, idx = x[alive], y[alive], cnt[alive], eps[alive], idx[alive]
                W, lo, hi, others = W[alive], lo[alive], hi[alive], others[alive]
                if not idx.size:
                    return out
    lanes = np.arange(idx.size)
    area = np.zeros(idx.size)
    for j in range(x.shape[1]):
        nj = np.where(j + 1 < cnt, j + 1, 0)
        term = x[:, j] * y[lanes, nj] - y[:, j] * x[lanes, nj]
        area = np.where(j < cnt, area + term, area)
    out[idx] = 0.5 * np.abs(area)
    return out


# -- 3-D slab intersections --------------------------------------------------

# a row whose direction lies within this sine of an earlier row's merges
# into that row's slab before the facet recursion (see polytope_volumes)
_PARALLEL_SINE = 1e-8

# a lane some row of which misses its seed cell by this multiple of the
# cell's coordinate scale is empty.  That scale, 1 + |c|_1 + sum_s half_s
# |g_s|_1, is at most 7 (1 + the corners' largest 1-norm), and
# SlabBlock.candidates drops only lanes that miss the cell by 1e-9 times the
# latter, so each of those evaluates to exactly 0.0
_EMPTY_MARGIN = 1e-11

# lanes per batch of polytope_volumes: a lane has up to 2m facets of m - 1
# rows each, so this bounds the working memory of polygon_areas
_POLYTOPE_LANES = 1 << 7


def _dot(a, b):
    """<a, b> over the last axis of 3-vectors, the three products added in
    order, as polytope_volume adds them."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def _cross(a, b):
    """a x b over the last axis of 3-vectors."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def _dot1(a, b):
    """_dot of two 3-vectors given as sequences of Python floats."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross1(a, b):
    """_cross of two 3-vectors given as sequences of Python floats."""
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]


def _polytope_seed_rows(rows):
    """(i0, i1, i2) of the rows (a list of [x, y, z] floats) spanning the
    seed cell: the longest row, the one most transverse to it and the one
    farthest from their plane; None when their determinant is below
    1e-14 (1 + max |w|)^3 (the kernels then return 0.0)."""
    norms = [_dot1(w, w) for w in rows]
    i0 = norms.index(max(norms))
    crs = [_cross1(rows[i0], w) for w in rows]
    sizes = [_dot1(c, c) for c in crs]
    i1 = sizes.index(max(sizes))
    dets = [abs(_dot1(w, crs[i1])) for w in rows]
    i2 = dets.index(max(dets))
    scale = 1.0 + max(abs(c) for w in rows for c in w)
    if dets[i2] < 1e-14 * (scale * scale * scale):
        return None
    return i0, i1, i2


def _polytope_seed_lanes(W):
    """_polytope_seed_rows of each lane of W (L, m, 3): (seeds (L, 3), ok
    (L,)), ok false where it returns None."""
    lanes = np.arange(len(W))
    i0 = np.argmax(_dot(W, W), axis=1)
    crs = _cross(W[lanes, i0][:, None, :], W)
    i1 = np.argmax(_dot(crs, crs), axis=1)
    dets = np.abs(_dot(W, crs[lanes, i1][:, None, :]))
    i2 = np.argmax(dets, axis=1)
    scale = 1.0 + np.abs(W).max(axis=(1, 2))
    ok = dets[lanes, i2] >= 1e-14 * (scale * scale * scale)
    return np.stack([i0, i1, i2], axis=1), ok


def polytope_volume(W, lo, hi):
    """Volume of the intersection of 3-D slabs lo_i <= <w_i, y> <= hi_i.

    One lane of polytope_volumes on Python floats: the same IEEE operations
    in the same order, so the same bits, at a fraction of the numpy calls'
    fixed cost."""
    rows = np.asarray(W, dtype=float).tolist()
    lo, hi = np.asarray(lo, dtype=float).tolist(), np.asarray(hi, dtype=float).tolist()
    m = len(rows)
    seeds = _polytope_seed_rows(rows)
    if seeds is None:
        return 0.0
    r = [rows[s] for s in seeds]
    g = [_cross1(r[1], r[2]), _cross1(r[2], r[0]), _cross1(r[0], r[1])]
    det = _dot1(r[0], g[0])
    g = [[c / det for c in gs] for gs in g]
    mid = [0.5 * (lo[s] + hi[s]) for s in seeds]
    half = [0.5 * (hi[s] - lo[s]) for s in seeds]
    centre = [mid[0] * g[0][k] + mid[1] * g[1][k] + mid[2] * g[2][k] for k in range(3)]
    blo, bhi, slack = [], [], []
    scale = 1.0 + (abs(centre[0]) + abs(centre[1]) + abs(centre[2]))
    for s in range(3):
        scale += half[s] * (abs(g[s][0]) + abs(g[s][1]) + abs(g[s][2]))
    for i, w in enumerate(rows):
        wc = _dot1(w, centre)
        blo.append(lo[i] - wc)
        bhi.append(hi[i] - wc)
        reach = (half[0] * abs(_dot1(w, g[0])) + half[1] * abs(_dot1(w, g[1]))
                 + half[2] * abs(_dot1(w, g[2])))
        slack.append(reach + _EMPTY_MARGIN * scale)
        if blo[i] > slack[i] or bhi[i] < -slack[i]:
            return 0.0
    norms = [_dot1(w, w) for w in rows]
    alive = [True] * m
    for j in range(1, m):
        for i in range(j):
            c = _cross1(rows[j], rows[i])
            if alive[i] and _dot1(c, c) <= _PARALLEL_SINE**2 * (norms[j] * norms[i]):
                alive[j] = False
                alpha = _dot1(rows[j], rows[i]) / norms[i]
                a, b = blo[j] / alpha, bhi[j] / alpha
                blo[i] = max(blo[i], min(a, b))
                bhi[i] = min(bhi[i], max(a, b))
                break
    if any(l >= h for l, h in zip(blo, bhi)):
        return 0.0
    total = 0.0
    for i, n in enumerate(rows):
        if not alive[i]:
            continue
        e = [0.0, 0.0, 0.0]
        size = [abs(c) for c in n]
        e[size.index(min(size))] = 1.0
        u = _cross1(n, e)
        unorm = math.sqrt(_dot1(u, u))
        u = [c / unorm for c in u]
        nnorm = math.sqrt(norms[i])
        v = [c / nnorm for c in _cross1(n, u)]
        for plane, sign in ((bhi[i], 1.0), (blo[i], -1.0)):
            if sign * plane > slack[i]:  # the plane misses the seed cell
                continue
            t = plane / norms[i]
            flat, flo, fhi = [], [], []
            for j, w in enumerate(rows):
                if j == i:
                    continue
                if not alive[j]:
                    flat.append([0.0, 0.0])
                    flo.append(-1.0)
                    fhi.append(1.0)
                    continue
                foot = t * _dot1(n, w)
                flat.append([_dot1(w, u), _dot1(w, v)])
                flo.append(blo[j] - foot)
                fhi.append(bhi[j] - foot)
            total += (sign * plane) / nnorm * _polygon_area(flat, flo, fhi)
    return total / 3.0


def _sum_in_order(terms):
    """Sum over the last axis from 0.0 in index order, as a Python loop
    adds (np.sum adds pairwise)."""
    start = np.zeros(terms.shape[:-1] + (1,))
    return np.cumsum(np.concatenate([start, terms], axis=-1), axis=-1)[..., -1]


def polytope_volumes(W, lo, hi):
    """polytope_volume of each lane l: the 3-D slabs lo[l, i] <= <W[l, i], y>
    <= hi[l, i] for W (L, m, 3), lo and hi (L, m) with lo <= hi; returns (L,)
    volumes.

    Facet recursion (Lasserre 1983): about c, the centre of the lane's seed
    cell (the parallelepiped of its seed rows, which holds the polytope),
    vol = (1/3) sum over rows i and sides of h |F|, h the signed distance of
    the side's plane from c and F the facet the plane cuts from the other
    rows: a 2-D slab system in an orthonormal basis of w_i-perp, whose
    bounds shift by <w_j, x0> for x0 the plane's foot.  A batch's facets go
    through one polygon_areas call, and each lane adds its 2m terms from
    0.0 in row-then-side order, so a volume has the bits of polytope_volume
    and does not depend on the other lanes of its call.

    A row within sine _PARALLEL_SINE = tau of an earlier live row i first
    merges into it: its interval, scaled by <w_j, w_i> / |w_i|^2 about c, is
    intersected with row i's.  Coincident facets would otherwise count
    twice, and facets theta apart lose about u / theta relative (u the unit
    roundoff) where they cut each other.  The merge tilts the merged slab's
    planes about c by at most tau, which moves them at most tau R inside the
    seed cell, R its largest distance from c; so each merged row changes
    the volume by at most 2 tau R S, S <= pi R^2 the cell's largest plane
    section.  Otherwise each term carries polygon_area's error (its clip
    tolerance, 1e-14 times the facet's coordinate scale, per unit of the
    facet's perimeter) times |h|, and the projections and the sum add
    O(m u) of sum |h| |F|.

    A lane with degenerate seed rows, or with a row that misses the seed
    cell by _EMPTY_MARGIN times the cell's coordinate scale, is 0.0; a facet
    whose plane misses the cell that way is skipped.  Lanes go
    _POLYTOPE_LANES at a time.
    """
    W = np.ascontiguousarray(W, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    out = np.zeros(len(W))
    for start in range(0, len(W), _POLYTOPE_LANES):
        end = start + _POLYTOPE_LANES
        out[start:end] = _polytope_volumes(W[start:end], lo[start:end], hi[start:end])
    return out


def _frame_tables(F):
    """What polytope_volumes needs of the frames F (K, m, 3) alone: seeds,
    ok, g (the seed cell's edge vectors per unit half-width), the 1-norms of
    g, |<w_i, g_s>|, the rows' squared norms, their Gram matrix, the pairs
    parallel within _PARALLEL_SINE, and each row i's other rows in an
    orthonormal basis of w_i-perp (K, m, m - 1, 2)."""
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
    parallel = _dot(crs, crs) <= _PARALLEL_SINE**2 * (norms[:, :, None] * norms[:, None, :])
    e = np.zeros_like(F)
    e[frames, np.arange(m), np.argmin(np.abs(F), axis=2)] = 1.0
    u = _cross(F, e)
    # (a degenerate frame may hold a zero row; its lanes are empty)
    unorm = np.sqrt(_dot(u, u))
    u = u / np.where(unorm > 0.0, unorm, 1.0)[..., None]
    nnorm = np.sqrt(norms)
    v = _cross(F, u) / np.where(nnorm > 0.0, nnorm, 1.0)[..., None]
    wo = F[:, _others(m)]  # (K, m, m - 1, 3)
    flat = np.stack([_dot(wo, u[:, :, None, :]), _dot(wo, v[:, :, None, :])], axis=-1)
    return seeds, ok, g, gl1, wg, norms, gram, parallel, flat


def _others(m):
    """(m, m - 1): row i lists the indices other than i of m rows, in order."""
    return np.broadcast_to(np.arange(m), (m, m))[~np.eye(m, dtype=bool)].reshape(m, m - 1)


def _polytope_volumes(W, lo, hi):
    count, m, _ = W.shape
    # a pooled call's lanes come in runs that share one frame (a block's
    # rows): the frame's own quantities are computed once per run
    bits = W.reshape(count, -1).view(np.int64)
    new = np.ones(count, dtype=bool)
    new[1:] = (bits[1:] != bits[:-1]).any(axis=1)
    run = np.cumsum(new) - 1
    seeds, ok, g, gl1, wg, norms, gram, parallel, flat = _frame_tables(W[new])
    seeds, ok, g, gl1, wg = seeds[run], ok[run], g[run], gl1[run], wg[run]
    lanes = np.arange(count)[:, None]
    mid = 0.5 * (lo[lanes, seeds] + hi[lanes, seeds])
    half = 0.5 * (hi[lanes, seeds] - lo[lanes, seeds])
    centre = mid[:, 0, None] * g[:, 0] + mid[:, 1, None] * g[:, 1] + mid[:, 2, None] * g[:, 2]
    wc = _dot(W, centre[:, None, :])
    blo, bhi = lo - wc, hi - wc  # the bounds about c
    scale = 1.0 + (np.abs(centre[:, 0]) + np.abs(centre[:, 1]) + np.abs(centre[:, 2]))
    for s in range(3):
        scale = scale + half[:, s] * gl1[:, s]
    # the largest |<w_i, y - c>| over the seed cell, plus the margin
    slack = (half[:, None, 0] * wg[..., 0] + half[:, None, 1] * wg[..., 1]
             + half[:, None, 2] * wg[..., 2]) + (_EMPTY_MARGIN * scale)[:, None]
    empty = ~ok | ((blo > slack) | (bhi < -slack)).any(axis=1)
    merge = parallel[run] & ~empty[:, None, None]
    alive = np.ones((count, m), dtype=bool)
    for j in range(1, m):
        into = merge[:, j, :j] & alive[:, :j]
        hit = np.flatnonzero(into.any(axis=1))
        if not hit.size:
            continue
        i = np.argmax(into[hit], axis=1)  # the first live row parallel to j
        alive[hit, j] = False
        alpha = gram[run[hit], j, i] / norms[run[hit], i]
        a, b = blo[hit, j] / alpha, bhi[hit, j] / alpha
        blo[hit, i] = np.maximum(blo[hit, i], np.minimum(a, b))
        bhi[hit, i] = np.minimum(bhi[hit, i], np.maximum(a, b))
    empty |= (blo >= bhi).any(axis=1)
    # facet (l, i, side): the plane <w_i, y - c> = bhi (side 0) or blo (side 1)
    # (its outward distance from c is signed / |w_i|; a plane beyond the seed
    # cell cuts no facet)
    plane = np.stack([bhi, blo], axis=2)
    signed = plane * np.array([1.0, -1.0])
    fl, fi, fs = np.nonzero((signed <= slack[:, :, None]) & (alive & ~empty[:, None])[:, :, None])
    if not fl.size:
        return np.zeros(count)
    fk = run[fl]
    rows = _others(m)[fi]  # (F, m - 1)
    b = plane[fl, fi, fs]
    nn = norms[fk, fi]
    foot = (b / nn)[:, None] * gram[fk[:, None], fi[:, None], rows]
    flo, fhi = blo[fl[:, None], rows] - foot, bhi[fl[:, None], rows] - foot
    flat = flat[fk, fi]
    # merged rows become zero rows that every point satisfies
    dead = ~alive[fl[:, None], rows]
    flat[dead] = 0.0
    flo[dead], fhi[dead] = -1.0, 1.0
    terms = np.zeros((count, m, 2))
    terms[fl, fi, fs] = signed[fl, fi, fs] / np.sqrt(nn) * polygon_areas(flat, flo, fhi)
    return _sum_in_order(terms.reshape(count, 2 * m)) / 3.0


def clip_seed_rows(W):
    """Indices of the seed rows of the 2-D clipper's parallelogram or of the
    3-D recursion's seed cell, which hold the polygon or polytope of every
    lo, hi, or None when W is degenerate and the kernels return 0.0 for
    every lo, hi.
    """
    rows = np.asarray(W, dtype=float).tolist()
    d = len(rows[0])
    if d == 2:
        seeds = _polygon_seed_rows(rows)
        return None if seeds is None else seeds[:2]
    if d == 3:
        return _polytope_seed_rows(rows)
    raise ValueError(f"clip_seed_rows supports dimensions 2-3, got {d}")


def slab_volume(W, lo, hi) -> float:
    """Volume of { y in R^d : lo_i <= <w_i, y> <= hi_i } for d in {1, 2, 3}."""
    d = W.shape[1] if W.ndim == 2 else 1
    if d == 1:
        return interval_length(W.reshape(-1), lo, hi)
    if d == 2:
        return polygon_area(W, lo, hi)
    if d == 3:
        return polytope_volume(W, lo, hi)
    raise ValueError(f"slab_volume supports dimensions 1-3, got {d}")


def slab_volumes(W, lo, hi) -> np.ndarray:
    """slab_volume of each lane: W (L, m, d), lo and hi (L, m), d in {1, 2, 3}.

    One lane runs slab_volume, 3-20x faster there than a lane kernel's
    fixed cost (2-core x86 VM, a centred Haar frame: 2-D, m = 4: 0.03
    against 0.5-0.8 ms; 3-D, m = 5: 0.27 against 0.8 ms), with the same
    bits.
    """
    if len(W) == 1:
        return np.array([slab_volume(W[0], lo[0], hi[0])])
    d = W.shape[2]
    if d == 1:
        return interval_lengths(W[:, :, 0], lo, hi)
    if d == 2:
        return polygon_areas(W, lo, hi)
    if d == 3:
        return polytope_volumes(W, lo, hi)
    raise ValueError(f"slab_volumes supports dimensions 1-3, got {d}")


# -- Signed power sums -------------------------------------------------------


def irwin_hall_at(c, t):
    """Density at t of sum(c_j * V_j) with V_j iid uniform on [0, 1].

    Signed inclusion-exclusion over the 2^n subset sums; summed with
    math.fsum because of the heavy cancellation.  Requires all c_j > 0.
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    if n == 0:
        raise ValueError("need at least one coefficient")
    if n > 24:
        raise ValueError("combinatorial blowup guard: n > 24")
    if np.any(c <= 0.0):
        raise ValueError("coefficients must be positive")
    sums = np.zeros(1)
    signs = np.ones(1)
    for cj in c:
        sums = np.concatenate([sums, sums + cj])
        signs = np.concatenate([signs, -signs])
    diff = t - sums
    if n == 1:
        terms = signs * (diff > 0.0)
    else:
        terms = signs * np.where(diff > 0.0, diff, 0.0) ** (n - 1)
    total = math.fsum(terms.tolist())
    return total / (math.factorial(n - 1) * float(np.prod(c)))
