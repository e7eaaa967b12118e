"""Scalar references for the slab kernels and the slab sums, which the
tests compare with ==.

polygon_area, polytope_volume and slab_volume evaluate one slab system at a
time on Python floats.  They are the scalar twins of the lane kernels
(kernels._polygon_areas and kernels._polytope_volumes): the lane kernels run
the same IEEE operations in the same order, so every lane must have the
twin's bits, in a call of any number of lanes, one included.  Every 2-D
system (a 2-D lane, or a facet of a 3-D lane) takes _edge_sum_area,
kernels._edge_sum_areas op for op, after its exactly parallel rows merge as
kernels._clip_tables merges them.  A 3-D facet's rows are the other rows
with the facet row's pivot coordinate eliminated, scale w_j - ratio_j w_i,
and its bounds scale blo_j - ratio_j b, as kernels.polytope_tables and
kernels._polytope_volumes build them: no basis, norm or square root.
slab_volume takes d = 1 to kernels.interval_length, which src keeps for
kernels.live_volumes' one-lane d = 1 calls.

scalar_slab_sum loops slab_volume over the orthogonal blocks and, per
block, over the piece combinations in itertools.product order: one scalar
kernel call per (block, combination), the floating-point operations of a
slab sum without lanes, a seed-cell test or shared kernel calls.
"""

import itertools
import math

import numpy as np

from margbounds import slabgeom
from margbounds.kernels import _EMPTY_MARGIN, _PARALLEL_SINE, _POINT, _SLIVER, interval_length


def _polygon_seed_rows(rows):
    """(i0, i1, det) of the rows (a list of (x, y) floats) seeding the 2-D
    kernel and their determinant, or None when they are degenerate
    (polygon_area then returns 0.0)."""
    norms = [x * x + y * y for x, y in rows]
    i0 = norms.index(max(norms))
    x0, y0 = rows[i0]
    dets = [x0 * y - y0 * x for x, y in rows]
    sizes = [abs(det) for det in dets]
    i1 = sizes.index(max(sizes))
    scale = 1.0 + max(max(abs(x), abs(y)) for x, y in rows)
    if sizes[i1] < 1e-14 * (scale * scale):
        return None
    return i0, i1, dets[i1]


def polygon_area(W, lo, hi):
    """Area of the intersection of 2-D slabs lo_i <= <w_i, y> <= hi_i."""
    return _polygon_area(np.asarray(W, dtype=float).tolist(), np.asarray(lo, dtype=float).tolist(),
                         np.asarray(hi, dtype=float).tolist())


def _polygon_area(rows, lo, hi, facet=False):
    """polygon_area of rows, lo and hi given as lists of Python floats: the
    IEEE operations of kernels._polygon_areas' numpy ones, faster for one
    system; a 3-D lane's facet (facet true) takes the sliver cut
    (kernels._SLIVER), as a frame with a zero row does, and the facets'
    rule for merged lanes."""
    # Seed polygon: the parallelogram cut out by the best-conditioned pair.
    seeds = _polygon_seed_rows(rows)
    if seeds is None:
        return 0.0
    i0, i1, det = seeds
    a00, a01 = rows[i0]
    a10, a11 = rows[i1]
    rest = [i for i in range(len(rows)) if i not in (i0, i1)]
    det = _product_difference(a00, a11, a01, a10)
    alpha = [_product_difference(rows[i][0], a11, rows[i][1], a10) / det for i in rest]
    beta = [_product_difference(a00, rows[i][1], a01, rows[i][0]) / det for i in rest]
    order = [i0, i1] + rest
    lo, hi = [lo[i] for i in order], [hi[i] for i in order]
    before, merged = (lo[:2], hi[:2]), False  # the seed slabs before the merges
    # a row exactly parallel to a seed row or to an earlier live row merges
    # into it and becomes a zero row, its slab's bounds -1, 1
    # (x_i y_j == x_j y_i: exact parallels' real products are equal, so they
    # round equal)
    live = [a != 0.0 and b != 0.0 for a, b in zip(alpha, beta)]
    others = [rows[i] for i in rest]
    for j, (a, b) in enumerate(zip(alpha, beta)):
        if a != 0.0 and b == 0.0:
            into, kappa = 0, a
        elif a == 0.0 and b != 0.0:
            into, kappa = 1, b
        else:
            x, y = others[j]
            earlier = [i for i in range(j) if live[i] and live[j] and others[i][0] * y == x * others[i][1]]
            if not earlier:
                continue
            into, kappa = 2 + earlier[0], a / alpha[earlier[0]]
            live[j] = False
        low, high = lo[2 + j] / kappa, hi[2 + j] / kappa
        lo[into], hi[into] = max(min(high, low), lo[into]), min(max(high, low), hi[into])
        lo[2 + j], hi[2 + j], alpha[j], beta[j], merged = -1.0, 1.0, 0.0, 0.0, True
    zero = any(a == 0.0 and b == 0.0 for a, b in zip(alpha, beta))
    area = _edge_sum_area(alpha + beta + [1.0 / abs(det)], lo, hi, 8.0 * _SLIVER if facet or zero else 0.0)
    # a merge that empties a seed slab or narrows it to its roundings
    w0, w1 = before[1][0] - before[0][0], before[1][1] - before[0][1]
    if facet and merged and area <= _SLIVER * (w0 * w1 * (1.0 / abs(det))):
        return 0.0
    for s in (0, 1):
        narrowed = not facet and (lo[s] != before[0][s] or hi[s] != before[1][s])
        if hi[s] < lo[s] or (narrowed and hi[s] - lo[s] <= _SLIVER * (abs(lo[s]) + abs(hi[s]))):
            return 0.0
    return area


def _divide(a, b):
    """a / b as IEEE arithmetic divides, also by zero (Python raises)."""
    if b:
        return a / b
    if a != a or not a:
        return math.nan
    return math.copysign(math.inf, a) * math.copysign(1.0, b)


def _product_difference(a, b, c, d):
    """kernels._product_difference on Python floats, op for op."""
    products = []
    for x, y in ((a, b), (c, d)):
        product = x * y
        xs, ys = 134217729.0 * x, 134217729.0 * y
        x1, y1 = xs - (xs - x), ys - (ys - y)
        x2, y2 = x - x1, y - y1
        products.append((product, x2 * y2 - (((product - x1 * y1) - x2 * y1) - x1 * y2)))
    (p, ep), (q, eq) = products
    s = p + -q
    bb = s - p
    return s + (((p - (s - bb)) + (-q - bb)) + (ep - eq))


def _edge_sum_area(third, lo, hi, cut):
    """kernels._edge_sum_areas of one lane on Python floats, op for op (a
    numpy np.maximum(a, b) or np.minimum(a, b) is max(b, a) or min(b, a):
    of two equal values both keep the second); at r = 1 its pair loop does
    not run."""
    r = len(lo) - 2
    alpha, beta, rdet = third[:r], third[r : 2 * r], third[2 * r]
    zero = [a == 0.0 and b == 0.0 for a, b in zip(alpha, beta)]
    empty = any(z and (lo[2 + j] > 0.0 or hi[2 + j] < 0.0) for j, z in enumerate(zero))
    lo, hi = list(lo), list(hi)
    for j in range(r):
        if zero[j]:
            lo[2 + j], hi[2 + j] = -math.inf, math.inf
    w0, w1 = hi[0] - lo[0], hi[1] - lo[1]
    area = w0 * w1
    if not area > 0.0:
        return 0.0 * (area * rdet * 0.125)
    p, q = [a * w0 for a in alpha], [b * w1 for b in beta]
    gamma = [a * (lo[0] + hi[0]) + b * (lo[1] + hi[1]) for a, b in zip(alpha, beta)]
    bnd = [[lo[2 + j] + lo[2 + j] - gamma[j] for j in range(r)],
           [max(lo[2 + j], hi[2 + j]) + max(lo[2 + j], hi[2 + j]) - gamma[j] for j in range(r)]]
    ap, aq = [abs(v) for v in p], [abs(v) for v in q]
    along = [aq[j] >= ap[j] for j in range(r)]
    along[1:] = [(aq[j] + aq[j] >= ap[j]) if along[0] else (ap[j] + ap[j] < aq[j]) for j in range(1, r)]
    rp, rq = [_divide(1.0, v) for v in p], [_divide(1.0, v) for v in q]
    # cross[edge][side][row] for the edges t = 1 and s = 1; each line's
    # interval [low, high] along its axis, low[side][row]
    cross = [[[(bnd[k][j] - q[j]) * rp[j] for j in range(r)] for k in (0, 1)],
             [[(bnd[k][j] - p[j]) * rq[j] for j in range(r)] for k in (0, 1)]]
    low, high = [[0.0] * r for _ in (0, 1)], [[0.0] * r for _ in (0, 1)]
    for k in (0, 1):
        for j in range(r):
            far = (bnd[k][j] + (q[j] if along[j] else p[j])) * (rp[j] if along[j] else rq[j])
            near = cross[0][k][j] if along[j] else cross[1][k][j]
            low[k][j], high[k][j] = max(-1.0, min(far, near)), min(1.0, max(far, near))
    for i in range(r):
        for j in range(i + 1, r):
            scale = _divide(1.0, (alpha[i] * beta[j] - alpha[j] * beta[i]) * area)
            ps = [[(bnd[a][i] * q[j] - bnd[c][j] * q[i]) * scale for c in (0, 1)] for a in (0, 1)]
            pt = [[(bnd[c][j] * p[i] - bnd[a][i] * p[j]) * scale for c in (0, 1)] for a in (0, 1)]
            if i and along[i] != along[j] and not zero[i]:
                for a in (0, 1):
                    for c in (0, 1):
                        if along[i]:
                            pt[a][c] = _divide(bnd[a][i] - p[i] * ps[a][c], q[i])
                        else:
                            ps[a][c] = _divide(bnd[a][i] - q[i] * pt[a][c], p[i])
            for row, pts in ((i, lambda a, c: (a, c)), (j, lambda a, c: (c, a))):
                point = ps if along[row] else pt
                for k in (0, 1):
                    ends = [point[pts(k, c)[0]][pts(k, c)[1]] for c in (0, 1)]
                    low[k][row] = max(min(ends[1], ends[0]), low[k][row])
                    high[k][row] = min(max(ends[1], ends[0]), high[k][row])
    lines = [[max(0.0, high[k][j] - low[k][j]) for j in range(r)] for k in (0, 1)]
    edges = []
    for edge in cross:
        high = min([1.0] + [max(edge[1][j], edge[0][j]) for j in range(r)])
        edges.append(max(0.0, high - max([-1.0] + [min(edge[1][j], edge[0][j]) for j in range(r)])))
    total = edges[0] + edges[1]
    total += total
    for j in range(r):
        if not zero[j]:
            shift = p[j] + q[j]
            terms = (bnd[1][j] + shift) * lines[1][j] - (bnd[0][j] + shift) * lines[0][j]
            total += terms / (aq[j] if along[j] else ap[j])
    if empty or (total <= 8.0 * _SLIVER and (total <= cut or max(edges + lines[0] + lines[1]) <= _POINT)):
        total = 0.0
    return total * (area * rdet * 0.125)


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


def polytope_volume(W, lo, hi):
    """Volume of the intersection of 3-D slabs lo_i <= <w_i, y> <= hi_i.

    One lane of kernels._polytope_volumes on Python floats: the same IEEE
    operations in the same order, so the same bits, at a fraction of the
    numpy calls' fixed cost."""
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
        if i not in seeds and (blo[i] > slack[i] or bhi[i] < -slack[i]):  # seed rows are not tested
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
        size = [abs(c) for c in n]
        k = size.index(max(size))
        keep = [c for c in range(3) if c != k]
        scale, order = math.frexp(size[k])
        for plane, sign in ((bhi[i], 1.0), (blo[i], -1.0)):
            if sign * plane > slack[i]:  # the plane misses the seed cell
                continue
            flat, flo, fhi = [], [], []
            for j, w in enumerate(rows):
                if j == i:
                    continue
                if not alive[j]:
                    flat.append([0.0, 0.0])
                    flo.append(-scale)
                    fhi.append(scale)
                    continue
                ratio = math.ldexp(math.copysign(1.0, n[k]) * w[k], -order)
                flat.append([scale * w[c] - ratio * n[c] for c in keep])
                flo.append(scale * blo[j] - plane * ratio)
                fhi.append(scale * bhi[j] - plane * ratio)
            total += (sign * plane) / size[k] * _polygon_area(flat, flo, fhi, facet=True)
    return total / 3.0


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



def scalar_slab_sum(rows, pieces, shifts, blocks=None) -> float:
    """int prod_i g_i(s_i + <w_i, y>) dy for rows w_i (m, d), step functions
    g_i given by their (lo, hi, value) pieces and shifts s (m,).

    Rows no longer than slabgeom.ROW_ZERO_TOL (by their squared lengths)
    contribute g_i(s_i), each piece half-open.  blocks, (row indices, rows
    in span coordinates) pairs, default to slabgeom.component_blocks of the
    other rows.  Each block sums weight x volume from 0.0 over its
    combinations of nonzero weight, the weight being the product of the
    pieces' values left to right; the blocks multiply in order, and a zero
    stops the product.
    """
    zero = np.einsum("ij,ij->i", rows, rows) <= slabgeom.ROW_ZERO_TOL**2
    value = 1.0
    for i in np.flatnonzero(zero):
        value *= next((v for lo, hi, v in pieces[i] if lo <= shifts[i] < hi), 0.0)
        if value == 0.0:
            return 0.0
    if blocks is None:
        active = np.flatnonzero(~zero)
        blocks = [(active[comp], local) for comp, local in slabgeom.component_blocks(rows[active])]
    for idx, local in blocks:
        sub = 0.0
        for combo in itertools.product(*[pieces[i] for i in idx]):
            weight = math.prod(p[2] for p in combo)
            if weight == 0.0:
                continue
            lo = np.array([p[0] for p in combo], dtype=float) - shifts[idx]
            hi = np.array([p[1] for p in combo], dtype=float) - shifts[idx]
            sub += weight * slab_volume(local, lo, hi)
        value *= sub
        if value == 0.0:
            return 0.0
    return value
