"""Scalar references for the slab kernels and the slab sums, which the
tests compare with ==.

polygon_area, polytope_volume and slab_volume evaluate one slab system at a
time on Python floats.  They are the scalar twins that the lane kernels
(kernels.polygon_areas and kernels.polytope_volumes) once shared src with,
kept here verbatim: the lane kernels run the same IEEE operations in the
same order, so every lane must have the twin's bits, in a call of any
number of lanes, one included.  slab_volume takes d = 1 to
kernels.interval_length, which src keeps for slab_volumes' one-lane calls.

scalar_slab_sum loops slab_volume over the orthogonal blocks and, per
block, over the piece combinations in itertools.product order: one scalar
kernel call per (block, combination), the floating-point operations of a
slab sum without lanes, a prefilter or a lane pool.
"""

import itertools
import math

import numpy as np

from margbounds import slabgeom
from margbounds.kernels import _EMPTY_MARGIN, _PARALLEL_SINE, interval_length


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
    scale = 1.0 + max(max(abs(x), abs(y)) for x, y in rows)
    if sizes[i1] < 1e-14 * (scale * scale):
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

    Rows no longer than slabgeom.ROW_ZERO_TOL contribute g_i(s_i), each piece
    half-open.  blocks, (row indices, rows in span coordinates) pairs,
    default to slabgeom.component_blocks of the other rows.  Each block sums
    weight x volume from 0.0 over its combinations of nonzero weight, the
    weight being the product of the pieces' values left to right; the
    blocks multiply in order, and a zero stops the product.
    """
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    value = 1.0
    for i in np.flatnonzero(norms <= slabgeom.ROW_ZERO_TOL):
        value *= next((v for lo, hi, v in pieces[i] if lo <= shifts[i] < hi), 0.0)
        if value == 0.0:
            return 0.0
    if blocks is None:
        active = np.flatnonzero(norms > slabgeom.ROW_ZERO_TOL)
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
