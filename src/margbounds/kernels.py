"""Scalar kernels in numpy/Python: slab-intersection volumes and Irwin-Hall.

The geometric kernels compute the volume of a slab intersection
{ y : lo_i <= <w_i, y> <= hi_i } in dimension 1, 2 or 3.  Callers guarantee
boundedness (the w_i always contain a spanning subset coming from a tight
frame) and strip zero rows beforehand.
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


def _polygon_seed_rows(W):
    """(i0, i1, det) of the rows seeding the 2-D clipper and their
    determinant, or None when W is degenerate at the clipper's tolerance
    (polygon_area then returns 0.0)."""
    i0 = int(np.argmax(np.einsum("ij,ij->i", W, W)))
    dets = W[i0, 0] * W[:, 1] - W[i0, 1] * W[:, 0]
    i1 = int(np.argmax(np.abs(dets)))
    det = dets[i1]
    if abs(det) < 1e-14 * (1.0 + float(np.abs(W).max())) ** 2:
        return None
    return i0, i1, det


def polygon_area(W, lo, hi):
    """Area of the intersection of 2-D slabs lo_i <= <w_i, y> <= hi_i."""
    W = np.asarray(W, dtype=float)
    m = W.shape[0]
    # Seed polygon: the parallelogram cut out by the best-conditioned pair.
    seeds = _polygon_seed_rows(W)
    if seeds is None:
        return 0.0
    i0, i1, det = seeds
    a00, a01 = W[i0]
    a10, a11 = W[i1]
    poly = []
    for s, t in ((lo[i0], lo[i1]), (hi[i0], lo[i1]), (hi[i0], hi[i1]), (lo[i0], hi[i1])):
        poly.append(((a11 * s - a01 * t) / det, (a00 * t - a10 * s) / det))
    scale = 1.0 + max(abs(p[0]) + abs(p[1]) for p in poly)
    eps = 1e-14 * scale
    for i in range(m):
        if i == i0 or i == i1:
            continue
        poly = _clip_polygon(poly, W[i, 0], W[i, 1], hi[i], eps)
        if len(poly) < 3:
            return 0.0
        poly = _clip_polygon(poly, -W[i, 0], -W[i, 1], -lo[i], eps)
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

_CUBE_FACES = (
    (0, 2, 6, 4),
    (1, 3, 7, 5),
    (0, 1, 5, 4),
    (2, 3, 7, 6),
    (0, 1, 3, 2),
    (4, 5, 7, 6),
)


def _clip_faces(faces, n, b, eps):
    """Clip a convex polyhedron (list of vertex-cycle faces) by <n,y> <= b."""
    newfaces = []
    cut = []
    for face in faces:
        out = []
        m = len(face)
        for i in range(m):
            p = face[i]
            q = face[(i + 1) % m]
            dp = n[0] * p[0] + n[1] * p[1] + n[2] * p[2] - b
            dq = n[0] * q[0] + n[1] * q[1] + n[2] * q[2] - b
            if dp <= eps:
                out.append(p)
            if (dp < -eps and dq > eps) or (dp > eps and dq < -eps):
                t = dp / (dp - dq)
                x = (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]), p[2] + t * (q[2] - p[2]))
                out.append(x)
                cut.append(x)
        if len(out) >= 3:
            newfaces.append(out)
    if len(cut) >= 3:
        # Deduplicate and order the section polygon around its centroid.
        uniq = []
        for x in cut:
            dup = False
            for y in uniq:
                if abs(x[0] - y[0]) + abs(x[1] - y[1]) + abs(x[2] - y[2]) < 10.0 * eps:
                    dup = True
                    break
            if not dup:
                uniq.append(x)
        if len(uniq) >= 3:
            nn = math.sqrt(n[0] * n[0] + n[1] * n[1] + n[2] * n[2])
            nu = (n[0] / nn, n[1] / nn, n[2] / nn)
            ax = min(range(3), key=lambda j: abs(nu[j]))
            e = [0.0, 0.0, 0.0]
            e[ax] = 1.0
            u = (
                e[0] - nu[0] * nu[ax],
                e[1] - nu[1] * nu[ax],
                e[2] - nu[2] * nu[ax],
            )
            un = math.sqrt(u[0] * u[0] + u[1] * u[1] + u[2] * u[2])
            u = (u[0] / un, u[1] / un, u[2] / un)
            v = (
                nu[1] * u[2] - nu[2] * u[1],
                nu[2] * u[0] - nu[0] * u[2],
                nu[0] * u[1] - nu[1] * u[0],
            )
            cx = sum(x[0] for x in uniq) / len(uniq)
            cy = sum(x[1] for x in uniq) / len(uniq)
            cz = sum(x[2] for x in uniq) / len(uniq)
            uniq.sort(
                key=lambda x: math.atan2(
                    (x[0] - cx) * v[0] + (x[1] - cy) * v[1] + (x[2] - cz) * v[2],
                    (x[0] - cx) * u[0] + (x[1] - cy) * u[1] + (x[2] - cz) * u[2],
                )
            )
            newfaces.append(uniq)
    return newfaces


def _faces_volume(faces):
    """Volume of a convex polyhedron given as unordered-orientation faces.

    Sums pyramid volumes from the global vertex centroid; convexity makes
    the solid star-shaped from that point, so orientations cancel out.
    """
    sx = sy = sz = 0.0
    cnt = 0
    for face in faces:
        for p in face:
            sx += p[0]
            sy += p[1]
            sz += p[2]
            cnt += 1
    if cnt == 0:
        return 0.0
    cx, cy, cz = sx / cnt, sy / cnt, sz / cnt
    vol = 0.0
    for face in faces:
        m = len(face)
        ax = ay = az = 0.0  # Newell area vector (x2)
        for i in range(m):
            p = face[i]
            q = face[(i + 1) % m]
            ax += p[1] * q[2] - p[2] * q[1]
            ay += p[2] * q[0] - p[0] * q[2]
            az += p[0] * q[1] - p[1] * q[0]
        p0 = face[0]
        h = ax * (p0[0] - cx) + ay * (p0[1] - cy) + az * (p0[2] - cz)
        vol += abs(h)
    return vol / 6.0


def _polytope_seed_rows(W):
    """(i0, i1, i2) of the rows seeding the 3-D clipper, or None when W is
    degenerate at the clipper's tolerance (polytope_volume then returns 0.0)."""
    i0 = int(np.argmax(np.einsum("ij,ij->i", W, W)))
    cr = np.cross(W[i0], W)
    i1 = int(np.argmax(np.einsum("ij,ij->i", cr, cr)))
    dets = cr[i1] @ W.T
    i2 = int(np.argmax(np.abs(dets)))
    if abs(dets[i2]) < 1e-14 * (1.0 + float(np.abs(W).max())) ** 3:
        return None
    return i0, i1, i2


def polytope_volume(W, lo, hi):
    """Volume of the intersection of 3-D slabs lo_i <= <w_i, y> <= hi_i."""
    W = np.asarray(W, dtype=float)
    m = W.shape[0]
    seeds = _polytope_seed_rows(W)
    if seeds is None:
        return 0.0
    i0, i1, i2 = seeds
    M = np.vstack([W[i0], W[i1], W[i2]])
    Minv = np.linalg.inv(M)
    bounds = ((lo[i0], hi[i0]), (lo[i1], hi[i1]), (lo[i2], hi[i2]))
    verts = []
    for bits in range(8):
        rhs = np.array([bounds[j][(bits >> j) & 1] for j in range(3)])
        verts.append(tuple(Minv @ rhs))
    faces = [[verts[j] for j in cycle] for cycle in _CUBE_FACES]
    scale = 1.0 + max(abs(v[0]) + abs(v[1]) + abs(v[2]) for v in verts)
    eps = 1e-13 * scale
    for i in range(m):
        if i == i0 or i == i1 or i == i2:
            continue
        n = (W[i, 0], W[i, 1], W[i, 2])
        faces = _clip_faces(faces, n, hi[i], eps)
        if not faces:
            return 0.0
        faces = _clip_faces(faces, (-n[0], -n[1], -n[2]), -lo[i], eps)
        if not faces:
            return 0.0
    return _faces_volume(faces)


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


def clip_seed_rows(W):
    """Indices of the rows from which the 2-D or 3-D clipper builds its seed
    parallelogram or parallelepiped, or None when W is degenerate and the
    clipper returns 0.0 for every lo, hi.
    """
    d = W.shape[1]
    if d == 2:
        seeds = _polygon_seed_rows(W)
        return None if seeds is None else seeds[:2]
    if d == 3:
        return _polytope_seed_rows(W)
    raise ValueError(f"clip_seed_rows supports dimensions 2-3, got {d}")


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
