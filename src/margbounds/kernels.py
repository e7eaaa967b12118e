"""Kernels in numpy/Python: slab-intersection volumes and Irwin-Hall sums.

The geometric kernels compute the volume of a slab intersection
{ y : lo_i <= <w_i, y> <= hi_i } in dimension 1, 2 or 3.  Callers guarantee
boundedness (the w_i always contain a spanning subset coming from a tight
frame) and strip zero rows beforehand.  The 2-D kernel takes every lane,
whatever its row count, by one closed form with a rounding bound:
Lasserre's edge sum over the seed rectangle cut by the other rows' slabs
(_edge_sum_areas), after merging exactly parallel rows.  The 3-D kernel
sums (1/3) h |F| = (1/3) b |proj F| / |w_ik| over the facets F, each a 2-D
slab system of one row fewer with its row's pivot coordinate k eliminated,
after merging rows parallel within _PARALLEL_SINE (see _polytope_volumes).

Each kernel is lane-wise, in three steps on frames (K, m, d), a frame
index (L,) and the bounds (L, m) of its L lanes:

- frame_tables builds what depends on a frame alone, once per frame, by one
  function per dimension (interval_tables, polygon_tables, polytope_tables).
  Every table field holds one entry per frame along its leading axis, so
  join_tables joins the tables of several stacks with one concatenate per
  field, and split_tables cuts a stack's tables into one-frame tables.
- seed_cells drops the 2-D and 3-D lanes whose seed cell misses a row's
  slab: they are empty.
- live_volumes computes the volumes of the lanes that pass.

Every lane goes through the same floating-point operations whatever the
other lanes of its call and whatever other frames its tables hold.
table_volumes runs the last two steps on prebuilt tables: slabgeom builds
each frame's tables once and runs all of its lanes through it, and the tests
enter through table_volumes(frame_tables(frames), ...) too.  Only
live_volumes' one-lane d = 1 calls run the scalar interval_length;
tests/slab_reference.py keeps scalar 2-D and 3-D twins as the tests' ==
reference.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

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


class IntervalTables(NamedTuple):
    """What the 1-D kernel needs of frames (K, m, 1) alone, per frame."""

    w: np.ndarray  # (K, m): the rows' coefficients
    pos: np.ndarray  # (K, m): w > _TINY
    flat: np.ndarray  # (K, m): neither w > _TINY nor w < -_TINY


def interval_tables(frames) -> IntervalTables:
    """The IntervalTables of frames (K, m, 1): each frame's row signs."""
    w = np.asarray(frames, dtype=float)[:, :, 0]
    pos, neg = w > _TINY, w < -_TINY
    return IntervalTables(w, pos, ~(pos | neg))


def _interval_lengths(tables, frame, lo, hi):
    """interval_length of each lane l: the 1-D slabs lo[l, i] <= w_i * y <=
    hi[l, i] for w the rows of frame[l] in tables, the IntervalTables of
    frames (K, m, 1), frame (L,), lo and hi (L, m) arrays; returns (L,)
    lengths with interval_length's bits, for one lane as for many (every
    1-D lane passes seed_cells).

    A lane's ends are the largest lower and the smallest upper bound over
    its rows, taken in row order as interval_length takes them (np.maximum
    and np.minimum keep the first of two equal values, as its strict
    comparisons do)."""
    w = np.where(tables.flat, 1.0, tables.w)[frame]
    pos, flat = tables.pos[frame], tables.flat[frame]
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


class ClipTables(NamedTuple):
    """What the 2-D kernel needs of frames (K, m, 2) alone, per frame.  A
    frame where no row merges has into -1 and factor 1."""

    ok: np.ndarray  # (K,): false where the seed rows are degenerate
    seed: np.ndarray  # (K, 5): a00, a01, a10, a11 and det of the seed rows
    order: np.ndarray  # (K, m): the seed rows, then the others in row order
    others: np.ndarray  # (K, m - 2, 2): the other rows, in that order
    third: np.ndarray  # (K, 2m - 3): alphas, betas, 1/|det|
    into: np.ndarray  # (K, m): the row that row j merges into, or -1
    factor: np.ndarray  # (K, m): row j over row into[j]
    cut: np.ndarray  # (K,): 8 _SLIVER where a lane of at most _SLIVER S gives 0.0, else 0


def _clip_tables(frames) -> ClipTables:
    """The ClipTables of frames (K, m, 2): ok false where the seed rows are
    degenerate (their determinant is below 1e-14 (1 + max |w|)^2; the
    frame's lanes are then 0.0); the seed table of a00, a01, a10, a11 and
    det, i0 the longest row and i1 the one most transverse to it; each
    frame's row order, the seed rows i0, i1 and then the others in row
    order, and those others.  In u = <w_i0, y> and v = <w_i1, y> another
    row is alpha u + beta v: each frame gets its rows' alphas, then their
    betas, then 1/|det|, from compensated products, for _edge_sum_areas.
    A row exactly parallel to a seed row (beta or alpha 0) or to an earlier
    live row i (alpha_i beta_j == alpha_j beta_i) merges into it, as the
    kernel's determinants would be 0, and becomes a zero row; a frame with
    a zero row takes the sliver cut (_SLIVER)."""
    count, m, _ = frames.shape
    r = m - 2
    ks = np.arange(count)
    f0, f1 = frames[:, :, 0], frames[:, :, 1]
    i0 = np.argmax(f0 * f0 + f1 * f1, axis=1)
    a0 = frames[ks, i0]
    dets = a0[:, 0:1] * f1 - a0[:, 1:2] * f0
    i1 = np.argmax(np.abs(dets), axis=1)
    det = dets[ks, i1]
    scale = 1.0 + np.abs(frames).max(axis=(1, 2))
    ok = ~(np.abs(det) < 1e-14 * (scale * scale))
    # i0, i1, then the others in row order; a degenerate frame keeps its order
    key = np.zeros((count, m))
    key[ks, i1] = -1
    key[ks, i0] = -2
    order = np.argsort(key, axis=1, kind="stable")
    order[~ok] = np.arange(m)
    seed = np.column_stack([a0, frames[ks, i1], det])
    others = frames[ks[:, None], order[:, 2:]]
    x, y = others.T  # (r, K) each
    a00, a01, a10, a11 = seed[:, :4].T
    # det, then x a11 - y a10 and a00 y - a01 x of each other row
    a, b, c, e = np.empty((4, 2 * r + 1, count))
    a[0], b[0], c[0], e[0] = a00, a11, a01, a10
    a[1 : r + 1], b[1 : r + 1], c[1 : r + 1], e[1 : r + 1] = x, a11, y, a10
    a[r + 1 :], b[r + 1 :], c[r + 1 :], e[r + 1 :] = a00, y, a01, x
    det = _product_difference(a, b, c, e)
    d = np.where(ok, det[0], 1.0)
    coords = det[1:] / d
    alpha, beta = coords[:r], coords[r:]  # (r, K) each
    # a row parallel to a seed row (alpha or beta 0; a zero row is a facet's
    # merged row) or to an earlier live row merges into it (most frames have
    # no such row)
    live = (alpha != 0.0) & (beta != 0.0)
    later, first = _row_pairs(r)
    parallel = (alpha[later] * beta[first] == alpha[first] * beta[later]) & (live[later] & live[first])
    into, factor, cut = np.full((count, m), -1), np.ones((count, m)), np.zeros(count)
    pairs = parallel.any()
    if pairs or not live.all():
        # the row, by its place in order, that each row merges into
        to = np.where(beta == 0.0, np.where(alpha == 0.0, -1, 0), np.where(alpha == 0.0, 1, -1))
        kappa = np.where(to == 0, alpha, beta)
        if pairs:
            pair = np.zeros((r, r, count), dtype=bool)
            pair[later, first] = parallel
        for row in range(1, r if pairs else 1):
            earlier = pair[row, :row] & live[:row]
            hit = earlier.any(axis=0)
            at = np.argmax(earlier, axis=0)[hit]
            to[row, hit] = 2 + at
            kappa[row, hit] = alpha[row, hit] / alpha[at, np.flatnonzero(hit)]
            live[row, hit] = False
        # (a degenerate frame merges nothing; its lanes are 0.0)
        mj, mk = np.nonzero((to >= 0) & ok)
        into[mk, order[mk, 2 + mj]] = order[mk, to[mj, mk]]
        factor[mk, order[mk, 2 + mj]] = kappa[mj, mk]
        alpha[mj, mk] = beta[mj, mk] = 0.0
        cut[((alpha == 0.0) & (beta == 0.0)).any(axis=0)] = 8.0 * _SLIVER
    third = np.column_stack([coords.T, 1.0 / np.abs(d)])
    return ClipTables(ok, seed, order, others, third, into, factor, cut)


@functools.cache
def _row_pairs(r):
    """The pairs (j, i), i < j, of r rows: two index arrays, which callers
    only read."""
    return np.tril_indices(r, -1)


def _two_product(a, b):
    """fl(a b) and its rounding error a b - fl(a b), exactly (Dekker 1971,
    without an fma: each factor split into two halves of 26 bits)."""
    product = a * b
    a = (a, 134217729.0 * a)
    b = (b, 134217729.0 * b)
    a1, b1 = a[1] - (a[1] - a[0]), b[1] - (b[1] - b[0])
    a2, b2 = a[0] - a1, b[0] - b1
    return product, a2 * b2 - (((product - a1 * b1) - a2 * b1) - a1 * b2)


def _product_difference(a, b, c, d):
    """a b - c d from its exact products, summed once more (Ogita, Rump and
    Oishi's Dot2): within u of the difference, plus 2 u^2 (|a b| + |c d|),
    where the plain difference loses u (|a b| + |c d|)."""
    p, ep = _two_product(a, b)
    q, eq = _two_product(c, d)
    s, es = _two_sum(p, -q)
    return s + (es + (ep - eq))


class PolygonTables(NamedTuple):
    """What the 2-D kernel needs of frames (K, m, 2) alone, per frame: its
    ClipTables, and the frame's part of the seed-cell test."""

    clip: ClipTables
    g: np.ndarray  # (K, 2, 2): [k, s] = g_s, a column of the seed matrix's inverse
    gl1: np.ndarray  # (K, 2): |g_s|_1
    wg: np.ndarray  # (K, m - 2, 2): |<w_j, g_s>| for the other rows j, in order
    cond: np.ndarray  # (K,): the seed matrix's condition number


def polygon_tables(frames) -> PolygonTables:
    """The PolygonTables of frames (K, m, 2).  The seed parallelogram is
    {s g_0 + t g_1 : lo_i0 <= s <= hi_i0, lo_i1 <= t <= hi_i1}."""
    clip = _clip_tables(np.asarray(frames, dtype=float))
    a00, a01, a10, a11, det = clip.seed.T
    g = np.array([[a11, -a10], [-a01, a00]]) / np.where(clip.ok, det, 1.0)  # (s, c, K)
    ag = np.abs(g)
    normals = clip.others.T  # (c, m - 2, K)
    wg = np.abs(normals[0] * g[:, 0, None] + normals[1] * g[:, 1, None])  # (s, m - 2, K)
    cond = (np.maximum(np.abs(a00) + np.abs(a01), np.abs(a10) + np.abs(a11))
            * np.maximum(ag[0, 0] + ag[1, 0], ag[0, 1] + ag[1, 1]))
    return PolygonTables(clip, g.transpose(2, 0, 1), (ag[:, 0] + ag[:, 1]).T, wg.T, cond)


# a lane some non-seed row of which misses the seed parallelogram by this
# multiple of (the seed matrix's condition number x the cell's coordinate
# scale, 1 + |c|_1 + sum_s half_s |g_s|_1, c its centre) is empty.  The
# test's centre and reach along a row are within a few unit roundoffs of
# that product of the exact ones, so the slab misses the exact
# parallelogram by far more than the edge sum's roundings, and it gives
# exactly 0.0 there too (_edge_sum_areas)
_CLIP_MARGIN = 1e-9


def _polygon_seed_cells(tables, frame, lo, hi):
    """(L,): false for the lanes that _polygon_areas would give 0.0, those
    of a degenerate frame and those with a non-seed row whose slab misses
    the seed parallelogram by _CLIP_MARGIN (see there).  The rows go
    one at a time, each as (L,) vectors."""
    ok, order, others = tables.clip.ok, tables.clip.order, tables.clip.others
    g, gl1, wg = tables.g, tables.gl1, tables.wg
    base = np.arange(len(frame)) * lo.shape[1]
    lo, hi = lo.reshape(-1), hi.reshape(-1)

    def bounds(i):
        # the bounds of row i of each lane's frame order
        at = base + order[:, i][frame]
        return lo.take(at), hi.take(at)

    lo0, hi0 = bounds(0)
    lo1, hi1 = bounds(1)
    mid0, half0 = 0.5 * (lo0 + hi0), 0.5 * (hi0 - lo0)
    mid1, half1 = 0.5 * (lo1 + hi1), 0.5 * (hi1 - lo1)
    # the parallelogram's centre c = mid0 g_0 + mid1 g_1
    cx = mid0 * g[:, 0, 0][frame] + mid1 * g[:, 1, 0][frame]
    cy = mid0 * g[:, 0, 1][frame] + mid1 * g[:, 1, 1][frame]
    scale = 1.0 + np.abs(cx) + np.abs(cy) + half0 * gl1[:, 0][frame] + half1 * gl1[:, 1][frame]
    margin = _CLIP_MARGIN * tables.cond[frame] * scale
    live = ok[frame]
    for j in range(len(order[0]) - 2):
        loj, hij = bounds(2 + j)
        wc = others[:, j, 0][frame] * cx + others[:, j, 1][frame] * cy
        # the largest |<w_j, y - c>| over the parallelogram, plus the margin
        slack = half0 * wg[:, j, 0][frame] + half1 * wg[:, j, 1][frame] + margin
        live &= ~((loj - wc > slack) | (hij - wc < -slack))
    return live


# an edge-sum lane of at most this share of its seed rectangle gives 0.0 where
# its frame has a zero row or is a 3-D facet's (ClipTables.cut), or where no
# edge spans more than _POINT of [-1, 1]^2 along its axis: so a point or a
# segment in exact arithmetic (a flat polytope's facets), which its roundings
# leave a few u, stays 0.0.  Other lanes keep their slivers
_SLIVER = 2.0**-48
_POINT = 2.0**-40


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _edge_sum_areas(third, lo, hi, cut):
    """Area of each lane of m rows: lo and hi (m, L) the bounds of the seed
    rows i0, i1 and the r = m - 2 others, third (2r + 1, L) its
    frame's alphas, betas and 1/|det|, cut (L,) its frame's sliver cut
    (ClipTables).

    In s, t with <w_i0, y> = (lo_0 + hi_0 + s w_0) / 2 and <w_i1, y> =
    (lo_1 + hi_1 + t w_1) / 2 (w = hi - lo) the lane is the square [-1,
    1]^2, of area 4 for S = w_0 w_1 / |det|, cut by the slabs L_j <= p_j s
    + q_j t <= H_j: p = alpha w_0, q = beta w_1, L_j = 2 lo_j - gamma_j,
    H_j = 2 hi_j - gamma_j, gamma_j = alpha_j (lo_0 + hi_0) + beta_j (lo_1 +
    hi_1) (hi_j < lo_j counts as hi_j = lo_j).  Twice its area is
    Lasserre's sum about the corner (-1, -1): 2 |F| over the edges t = 1
    and s = 1, and +-(b + p + q) |F| / |q| or / |p| over each line p s + q t
    = b, |F| the length of its edge along its axis, s or t.  Each edge runs
    between the line's crossings with the edges across its axis, within the
    other rows' slabs, in [-1, 1]: a handful of array operations per row,
    no sort.

    A line runs along s where |q| >= |p|, else along t; each later row
    takes the first one's axis unless that is more than twice as steep for
    it, so rows within 18 degrees of it share its axis.  Each pair's
    crossings are computed once, and every line through one reads its own
    axis coordinate of that one point: two lines theta apart share their
    corner however badly it lies along them (within u / theta), and moving a
    corner of angle pi - theta by e along its edges moves the area by about
    e theta times their lengths, so a small theta costs nothing.  Two later
    rows on different axes may be nearly parallel, so their crossing's other
    coordinate comes from the earlier row's line, which the point then meets
    within u.  _clip_tables builds alpha, beta and det from compensated
    products and merges exactly parallel rows, so no determinant of 0
    divides and a row near a seed row costs nothing.  A zero row (a merged
    row) has no lines: its slab holds the plane, or the lane is empty.  A
    lane that sums to at most 0, or to at most _SLIVER S with the sliver cut
    or with no edge longer than _POINT, gives 0.0.

    Rounding, to first order in u = 2^-53: the error is at most 96 u S (1 +
    sum_j E_j / M_j) over the rows j = (x, y) that are not zero: M_j =
    max(|p_j|, |q_j|) and E_j = A_j (w_0 + |c_0|) + B_j (w_1 + |c_1|) + 2
    |lo_j| + 2 |hi_j| >= M_j, c = lo + hi, A_j = (|x a11| + |y a10|) / |det|
    and B_j = (|a00 y| + |a01 x|) / |det|.
    The roundings of alpha, beta, gamma, L and H move each line by at most
    6 u (E_j + M_j) in b, so by 6 u (E_j / M_j + 1) across the square, whose
    chords are at most 2 sqrt(2) long; a row's two terms and its lines'
    corners add at most 8 u S; S adds 6 u, the edges' terms and the sum 12
    u S, and _SLIVER 32 u S.  A merged row's fold rounds a bound once,
    within its E_j term.
    """
    r = len(lo) - 2
    alpha, beta, rdet = third[:r], third[r : 2 * r], third[2 * r]
    zero = (alpha == 0.0) & (beta == 0.0)  # (r, L)
    has_zero = zero.any()
    if has_zero:  # its slab holds the plane, or the lane is empty
        empty = (zero & ((lo[2:] > 0.0) | (hi[2:] < 0.0))).any(axis=0)
        lo, hi = lo.copy(), hi.copy()
        lo[2:] = np.where(zero, -np.inf, lo[2:])
        hi[2:] = np.where(zero, np.inf, hi[2:])
    count = lo.shape[1]
    w0, w1 = hi[0] - lo[0], hi[1] - lo[1]
    area = w0 * w1
    p, q = alpha * w0, beta * w1  # (r, L)
    gamma = alpha * (lo[0] + hi[0])
    gamma += beta * (lo[1] + hi[1])
    bnd = np.empty((2, r, count))  # (side, row, L): L and H
    np.add(lo[2:], lo[2:], out=bnd[0])
    hi2 = np.maximum(hi[2:], lo[2:])
    np.add(hi2, hi2, out=bnd[1])
    bnd -= gamma
    # each row's axis (see above), True for s
    ap, aq = np.abs(p), np.abs(q)
    along = aq >= ap
    if r > 1:
        along[1:] = np.where(along[:1], aq[1:] + aq[1:] >= ap[1:], ap[1:] + ap[1:] < aq[1:])
    # (edge, side, row, L): each line's crossing with the edge t = 1 (its
    # s) and s = 1 (its t); its crossing with the edge across the other end
    # of its axis
    rp, rq = 1.0 / p, 1.0 / q
    cross = np.empty((2, 2, r, count))
    np.subtract(bnd, q, out=cross[0])
    cross[0] *= rp
    np.subtract(bnd, p, out=cross[1])
    cross[1] *= rq
    far = bnd + np.where(along, q, p)
    far *= np.where(along, rp, rq)
    # each line's interval along its axis (side, row, L): between its
    # crossings with the edges across it, within the other rows' slabs, in
    # [-1, 1]
    near = np.where(along, cross[0], cross[1])
    low, high = np.minimum(near, far), np.maximum(near, far, out=far)
    for i in range(r - 1):
        # the s and t of the crossing of row i's line a with the line c of
        # each later row j, (a, c, j, L)
        rest = slice(i + 1, None)
        bi, bj = bnd[:, None, i, None], bnd[None, :, rest]
        ps = bi * q[rest] - bj * q[i]
        pt = bj * p[i] - bi * p[rest]
        scale = 1.0 / ((alpha[i] * beta[rest] - alpha[rest] * beta[i]) * area)
        ps *= scale
        pt *= scale
        if i:  # two later rows (see above)
            fix = (along[i] != along[rest]) & ~zero[i]
            np.copyto(pt, (bi - p[i] * ps) / q[i], where=fix & along[i])
            np.copyto(ps, (bi - q[i] * pt) / p[i], where=fix & ~along[i])
        point = np.where(along[i], ps, pt)
        ends = np.minimum(point[:, 0], point[:, 1]), np.maximum(point[:, 0], point[:, 1])
        for k in range(r - 1 - i):
            np.maximum(low[:, i], ends[0][:, k], out=low[:, i])
            np.minimum(high[:, i], ends[1][:, k], out=high[:, i])
        point = np.where(along[rest], ps, pt)
        np.maximum(low[:, rest], np.minimum(point[0], point[1]), out=low[:, rest])
        np.minimum(high[:, rest], np.maximum(point[0], point[1]), out=high[:, rest])
    np.maximum(low, -1.0, out=low)
    np.minimum(high, 1.0, out=high)
    high -= low
    lines = np.maximum(high, 0.0, out=high)
    # the edges t = 1 and s = 1 (edge, L): their intervals within the rows'
    # slabs
    edges = np.minimum.reduce(np.maximum(cross[:, 0], cross[:, 1]), axis=1, initial=1.0)
    edges -= np.maximum.reduce(np.minimum(cross[:, 0], cross[:, 1]), axis=1, initial=-1.0)
    np.maximum(edges, 0.0, out=edges)
    # Lasserre's sum about the corner (-1, -1)
    bnd += p + q
    bnd *= lines
    terms = np.subtract(bnd[1], bnd[0], out=bnd[1])
    terms /= np.where(along, aq, ap)
    total = edges[0] + edges[1]
    total += total
    if has_zero:  # a zero row has no lines
        terms[zero] = 0.0
    for term in terms:
        total += term
    # no area is negative; the sliver cut, or a point within its roundings
    small = total <= 8.0 * _SLIVER
    if small.any() and (small & (total != 0.0)).any():
        point = np.maximum(edges.max(axis=0), lines.max(axis=(0, 1), initial=0.0)) <= _POINT
        total[small & ((total <= cut) | point)] = 0.0
    if has_zero:
        total[empty] = 0.0
    total[~(area > 0.0)] = 0.0
    area *= rdet
    area *= 0.125
    total *= area
    return total


def _merge_rows(into, factor, frame, lo, hi):
    """lo and hi (L, m) of the lanes frame (L,) with each merged row folded
    into its partner: where into[k, j] >= 0, row j of frame k is factor[k,
    j] times row into[k, j], so its bounds over that factor cut the
    partner's, and its own become -1, 1, which a zero row meets (copies
    where a row merges).  The 2-D and 3-D kernels' one merge loop."""
    if not (into >= 0).any():  # most frames merge nothing
        return lo, hi
    into = into[frame]
    merged = np.flatnonzero((into >= 0).any(axis=0))
    if merged.size:  # the merges write to the lanes' own copies
        lo, hi = lo.copy(), hi.copy()
    for j in merged:
        hit = np.flatnonzero(into[:, j] >= 0)
        i = into[hit, j]
        scaled = factor[frame[hit], j]
        a, b = lo[hit, j] / scaled, hi[hit, j] / scaled
        lo[hit, i] = np.maximum(lo[hit, i], np.minimum(a, b))
        hi[hit, i] = np.minimum(hi[hit, i], np.maximum(a, b))
        lo[hit, j], hi[hit, j] = -1.0, 1.0
    return lo, hi


def _polygon_areas(tables, frame, lo, hi, facets=False):
    """Area of each lane l: the 2-D slabs lo[l, i] <= <w_i, y> <= hi[l, i]
    for the rows w of frame[l], on tables, the ClipTables of frames (K, m,
    2), frame (L,), lo and hi (L, m) with lo <= hi; returns (L,) areas.

    The seed rows i0, i1 span a rectangle in their own coordinates, which
    the other rows cut, each with its alpha, beta and 1/|det| from the
    ClipTables, after each merged row has folded its slab into its
    partner's; _edge_sum_areas takes every m, with its rounding bound.  A
    lane whose merges empty a seed slab, or narrow it to its roundings,
    gives 0.0: to hi - lo at most _SLIVER (|lo| + |hi|), or for 3-D facets
    (facets true), whose bounds carry the centre's and the elimination's
    roundings, to an area of at most _SLIVER S before the merges.  Every
    lane goes through the same floating-point operations, so its area does
    not depend on the other lanes; a degenerate frame's lanes are 0.0.

    This runs no seed-cell test: live_volumes calls it on the lanes that
    passed seed_cells, where a lane whose seed parallelogram misses another
    row's slab by _CLIP_MARGIN is 0.0, as the edge sum gives it.  (The
    3-D facets call it directly: testing them too saved no measurable time
    on sup-grid.)
    """
    ok, _, order, _, third, into, factor, cut = tables
    out = np.zeros(len(frame))
    idx = np.flatnonzero(ok[frame])
    if not idx.size:
        return out
    f = frame[idx]
    mlo, mhi = _merge_rows(into, factor, frame, lo, hi)
    # (m, L): each lane's rows in its frame's order
    at = idx * lo.shape[1] + order[f].T
    third = third.T.take(f, axis=1)
    lanes = mlo.reshape(-1).take(at), mhi.reshape(-1).take(at)
    area = _edge_sum_areas(third, *lanes, cut[f])
    if mlo is not lo:
        l, h = lanes[0][:2], lanes[1][:2]
        l0, h0 = lo.reshape(-1).take(at[:2]), hi.reshape(-1).take(at[:2])
        if facets:
            w0, w1 = h0 - l0
            narrowed = (into >= 0).any(axis=1)[f] & (area <= _SLIVER * (w0 * w1 * third[-1]))
        else:
            narrowed = (((l != l0) | (h != h0)) & (h - l <= _SLIVER * (np.abs(l) + np.abs(h)))).any(axis=0)
        area[(h < l).any(axis=0) | narrowed] = 0.0
    out[idx] = area
    return out


# -- 3-D slab intersections --------------------------------------------------

# a row whose direction lies within this sine of an earlier row's merges
# into that row's slab before the facet recursion (see _polytope_volumes)
_PARALLEL_SINE = 1e-8

# a lane some row of which misses its seed cell by this multiple of the
# cell's coordinate scale, 1 + |c|_1 + sum_s half_s |g_s|_1 (at most 7 (1 +
# the corners' largest 1-norm)), is empty
_EMPTY_MARGIN = 1e-11

# lanes per _polytope_volumes call of live_volumes: a lane has up to 2m
# facets of m - 1 rows each, so this bounds the working memory of
# _polygon_areas.  On the 3-D calls of a sup-grid round (26-446 lanes of 1-2
# frames each), 256 took 6% less kernel time than 128, but raised the peak
# memory those calls trace from 1.3 to 2.0 MB, and sup-grid's peak RSS by
# 0.7 MB
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


class PolytopeTables(NamedTuple):
    """What the 3-D kernel needs of frames (K, m, 3) alone, per frame; the
    fields of its m facet frames, row i's at [k, i], hold each (K, m, ...).
    A frame where no row merges has into -1 and alpha 1."""

    w: np.ndarray  # (K, m, 3): the rows
    seeds: np.ndarray  # (K, 3): the seed rows (_polytope_seed_lanes)
    ok: np.ndarray  # (K,): false where the seed rows are degenerate
    g: np.ndarray  # (K, 3, 3): the seed cell's edge vectors per unit half-width
    gl1: np.ndarray  # (K, 3): their 1-norms
    wg: np.ndarray  # (K, m, 3): |<w_i, g_s>|
    into: np.ndarray  # (K, m): the row that row j merges into, or -1
    alpha: np.ndarray  # (K, m): the merge factors <w_j, w_i> / |w_i|^2
    pivot: np.ndarray  # (K, m): |w_ik|, row i's pivot entry
    scale: np.ndarray  # (K, m): |w_ik| / 2^e in [0.5, 1), 2^e its binary order
    ratio: np.ndarray  # (K, m, m - 1): sign(w_ik) w_jk / 2^e over the other rows j, 0 where j merges
    facets: ClipTables  # of the facet frames, each field (K, m, ...)


def polytope_tables(frames) -> PolytopeTables:
    """The PolytopeTables of frames (K, m, 3): the seed cell's shape, the
    merges (the same for every nonempty lane of a frame), and each row's
    facet frame with its ClipTables.  A lane's own work is its bounds.

    Row i's facet frame eliminates its pivot coordinate k, the first
    largest |w_ik|: on <w_i, y> = b, <w_j, y> = <w_j - rho_j w_i, y> + rho_j
    b, rho_j = w_jk / w_ik.  It holds scale w_j - ratio_j w_i without entry
    k, scale = |w_ik| / 2^e in [0.5, 1) and ratio_j = scale rho_j exact, so
    rows of small integers stay exact and their exact parallels merge in
    _clip_tables (rho_j itself rounds at a pivot of 3, and parallels then
    come out an ulp apart).  Facet rows are at most (1 + sqrt(3)) scale
    |w_j| long; merged rows are zero.  The facets' merged-lane rule (the
    cut here, the facets branch of _polygon_areas) stays: without it, flat
    lanes of rows a_j w_i + b_j v read 1e-19 for 0.0 (tests/test_kernels.py)."""
    F = np.ascontiguousarray(frames, dtype=float)
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
    crs = _cross(F[:, :, None, :], F[:, None, :, :])
    # (a degenerate frame's lanes are empty, so it merges nothing)
    parallel = ((_dot(crs, crs) <= _PARALLEL_SINE**2 * (norms[:, :, None] * norms[:, None, :]))
                & ok[:, None, None])
    # row j merges into the first live row parallel to it, with the factor
    # alpha (most frames have no parallel pair)
    into = np.full((count, m), -1)
    alpha = np.ones((count, m))
    if (parallel & np.tri(m, k=-1, dtype=bool)).any():
        for j in range(1, m):
            parallel_to = parallel[:, j, :j] & (into[:, :j] < 0)
            hit = parallel_to.any(axis=1)
            into[hit, j] = np.argmax(parallel_to[hit], axis=1)
        mk, mj = np.nonzero(into >= 0)
        alpha[mk, mj] = _dot(F[mk, mj], F[mk, into[mk, mj]]) / norms[mk, into[mk, mj]]
    k = np.argmax(np.abs(F), axis=2)  # (K, m): each row's pivot coordinate
    pivot = np.take_along_axis(F, k[..., None], axis=2)[..., 0]
    scale, order = np.frexp(np.abs(pivot))
    others = _others(m)
    wo = F[:, others]  # (K, m, m - 1, 3)
    ratio = np.ldexp(np.sign(pivot)[..., None] * np.take_along_axis(wo, k[:, :, None, None], axis=3)[..., 0],
                     -order[..., None])
    flat = np.take_along_axis(scale[..., None, None] * wo - ratio[..., None] * F[:, :, None, :],
                              _others(3)[k][:, :, None, :], axis=3)
    # merged rows become zero rows that every point satisfies (their lanes'
    # bounds are -1, 1, so -scale, scale in the facet)
    dead = into[:, others] >= 0
    flat[dead] = 0.0
    ratio[dead] = 0.0
    facets = _clip_tables(flat.reshape(count * m, m - 1, 2))._replace(cut=np.full(count * m, 8.0 * _SLIVER))
    facets = ClipTables(*(t.reshape((count, m) + t.shape[1:]) for t in facets))
    return PolytopeTables(F, seeds, ok, g, gl1, wg, into, alpha, np.abs(pivot), scale, ratio, facets)


def _others(m):
    """(m, m - 1): row i lists the indices other than i of m rows, in order."""
    return np.broadcast_to(np.arange(m), (m, m))[~np.eye(m, dtype=bool)].reshape(m, m - 1)


def _polytope_seed_cells(tables, frame, lo, hi):
    """seed_cells of 3-D lanes: the live lanes, with their bounds about c
    and slack."""
    lanes = np.arange(len(frame))[:, None]
    seeds, g, gl1 = tables.seeds[frame], tables.g[frame], tables.gl1[frame]
    mid = 0.5 * (lo[lanes, seeds] + hi[lanes, seeds])
    half = 0.5 * (hi[lanes, seeds] - lo[lanes, seeds])
    centre = mid[:, 0, None] * g[:, 0] + mid[:, 1, None] * g[:, 1] + mid[:, 2, None] * g[:, 2]
    wc = _dot(tables.w[frame], centre[:, None, :])
    blo, bhi = lo - wc, hi - wc  # the bounds about c
    scale = 1.0 + (np.abs(centre[:, 0]) + np.abs(centre[:, 1]) + np.abs(centre[:, 2]))
    for s in range(3):
        scale = scale + half[:, s] * gl1[:, s]
    # the largest |<w_i, y - c>| over the seed cell, plus the margin
    slack = _dot(half[:, None, :], tables.wg[frame]) + (_EMPTY_MARGIN * scale)[:, None]
    live = np.flatnonzero(tables.ok[frame] & ~((blo > slack) | (bhi < -slack)).any(axis=1))
    return live, (blo[live], bhi[live], slack[live])


def _polytope_volumes(tables, frame, blo, bhi, slack):
    """Volume of each lane l: the 3-D slabs lo[l, i] <= <w_i, y> <= hi[l, i]
    for the rows w of frame[l] in tables, the PolytopeTables of frames (K,
    m, 3), for lanes that passed seed_cells, from their bounds about c, blo
    and bhi (L, m), and slack (L, m), from _polytope_seed_cells.

    Facet recursion (Lasserre 1983): about c, the centre of the lane's seed
    cell (the parallelepiped of its seed rows, which holds the polytope),
    vol = (1/3) sum over rows i and sides of h |F|, h the signed distance of
    the side's plane <w_i, y - c> = b from c and F the facet the plane cuts
    from the other rows: h |F| = b A / |w_ik|, A the area of F projected off
    row i's pivot coordinate k, the facet frame's slab system (bounds scale
    blo_j - ratio_j b, scale bhi_j - ratio_j b; polytope_tables).  A call's
    facets go through one _polygon_areas call, and each lane adds its 2m
    terms from 0.0 in row-then-side order, so a volume does not depend on
    the other lanes of its call.

    A row within sine _PARALLEL_SINE = tau of an earlier live row i first
    merges into it: its interval, scaled by <w_j, w_i> / |w_i|^2 about c, is
    intersected with row i's.  Coincident facets would otherwise count
    twice, and facets theta apart lose about u / theta relative (u the unit
    roundoff) where they cut each other.  The merge tilts the merged slab's
    planes about c by at most tau, so it moves them at most tau R in the
    cell, R its largest distance from c, and the volume by at most 2 tau R
    S, S <= pi R^2 the cell's largest plane section.
    Otherwise, to first order in u, a term errs by at most 2 u |term| +
    (|b| / |w_ik|) (96 u S_F (1 + sum_j E_j / M_j) + 28 u R^2 sum_j 1 / sin
    theta_ij), R = sum_s half_s |g_s| >= |y - c| on the cell: _edge_sum_areas'
    bound on the facet system as rounded (S_F its seed rectangle), plus the
    elimination's roundings.  With P = scale, |ratio_j w_il| <= P |w_jk| and
    |b| <= sqrt(3) |w_ik| R, so a facet row w'_j rounds by at most 5 u P |w_j|
    and a bound beta_j meeting the facet by 9 u P |w_j| R (|beta_j| <= (1 +
    sqrt(3)) P |w_j| R): its line moves by at most 14 u P |w_j| R / |w'_j| <=
    14 u R / sin theta_ij, theta_ij the angle of w_j and w_i, along an edge
    at most 2R long.  The ordered sum adds 2m u sum |term|, the third u.

    A lane with degenerate seed rows, or with a row that misses the seed
    cell by _EMPTY_MARGIN times the cell's coordinate scale, is 0.0 by
    seed_cells; a facet whose plane misses the cell that way is skipped.
    live_volumes calls this on _POLYTOPE_LANES lanes at a time.
    """
    count, m = blo.shape
    blo, bhi = _merge_rows(tables.into, tables.alpha, frame, blo, bhi)
    empty = (blo >= bhi).any(axis=1)
    # facet (l, i, side): the plane <w_i, y - c> = b, bhi (side 0) or blo
    # (side 1); a plane beyond the seed cell cuts no facet
    plane = np.stack([bhi, blo], axis=2)
    signed = plane * np.array([1.0, -1.0])
    fl, fi, fs = np.nonzero((signed <= slack[:, :, None]) & ((tables.into[frame] < 0) & ~empty[:, None])[:, :, None])
    if not fl.size:
        return np.zeros(count)
    facet = frame[fl] * m + fi
    rows = _others(m)[fi]  # (F, m - 1)
    b = plane[fl, fi, fs]
    scale = tables.scale.reshape(-1)[facet][:, None]
    shift = b[:, None] * tables.ratio.reshape(-1, m - 1)[facet]
    flo, fhi = scale * blo[fl[:, None], rows] - shift, scale * bhi[fl[:, None], rows] - shift
    facets = ClipTables(*(t.reshape((len(t) * m,) + t.shape[2:]) for t in tables.facets))
    terms = np.zeros((count, m, 2))
    terms[fl, fi, fs] = signed[fl, fi, fs] / tables.pivot.reshape(-1)[facet] * _polygon_areas(facets, facet, flo, fhi, facets=True)
    return _sum_in_order(terms.reshape(count, 2 * m)) / 3.0


# -- Tables, seed cells and dispatch by dimension -----------------------------


def frame_tables(frames):
    """The kernel tables of frames (K, m, d), d in {1, 2, 3}: what the lane
    kernel of dimension d needs of each frame alone, built once per frame
    by interval_tables, polygon_tables or polytope_tables."""
    frames = np.asarray(frames, dtype=float)
    d = frames.shape[2]
    if d == 1:
        return interval_tables(frames)
    if d == 2:
        return polygon_tables(frames)
    if d == 3:
        return polytope_tables(frames)
    raise ValueError(f"the slab kernels support dimensions 1-3, got {d}")


def join_tables(tables):
    """The tables of the frames of each of tables (of one kind and m), in
    order: every field concatenated along its leading (frame) axis; one
    table, or one array, comes back as it is."""
    if len(tables) == 1:
        return tables[0]
    if isinstance(tables[0], tuple):
        return type(tables[0])(*map(join_tables, zip(*tables)))
    return np.concatenate(tables)


def split_tables(tables) -> list:
    """The one-frame tables of each frame of tables, in order: views, which
    join_tables joins back."""
    if isinstance(tables, tuple):
        return [type(tables)(*fields) for fields in zip(*map(split_tables, tables))]
    return [tables[k : k + 1] for k in range(len(tables))]


def seed_cells(tables, frame, lo, hi):
    """The seed-cell test of the lanes frame (L,), lo and hi (L, m), on
    their frames' tables: (live, lanes), the indices of the lanes it does
    not prove empty, and what live_volumes takes of them.  A 2-D or 3-D
    lane fails it when its frame is degenerate or its seed cell misses a
    row's slab by a margin (_CLIP_MARGIN, _EMPTY_MARGIN), where its kernel
    would give 0.0; every 1-D lane passes.  Each lane's result does not
    depend on the other lanes."""
    if isinstance(tables, PolytopeTables):
        return _polytope_seed_cells(tables, frame, lo, hi)
    if isinstance(tables, PolygonTables):
        live = np.flatnonzero(_polygon_seed_cells(tables, frame, lo, hi))
        return live, (lo[live], hi[live])
    return np.arange(len(frame)), (lo, hi)


def live_volumes(tables, frame, lanes) -> np.ndarray:
    """The volumes of lanes that passed seed_cells: frame (L,) and lanes as
    it returned them.  A one-lane 1-D call runs interval_length, with the
    lane kernel's bits: marginal_at's 1-D blocks make such calls."""
    if isinstance(tables, PolytopeTables):
        out = np.empty(len(frame))
        for start in range(0, len(frame), _POLYTOPE_LANES):
            part = slice(start, start + _POLYTOPE_LANES)
            out[part] = _polytope_volumes(tables, frame[part], *(lane[part] for lane in lanes))
        return out
    if isinstance(tables, PolygonTables):
        return _polygon_areas(tables.clip, frame, *lanes)
    if len(frame) == 1:
        lo, hi = lanes
        return np.array([interval_length(tables.w[frame[0]], lo[0], hi[0])])
    return _interval_lengths(tables, frame, *lanes)


def table_volumes(tables, frame, lo, hi) -> np.ndarray:
    """Volume of { y in R^d : lo[l, i] <= <w_i, y> <= hi[l, i] } of each lane
    l, the rows w of frame[l] in tables, frame_tables of frames (K, m, d),
    for frame (L,), lo and hi (L, m): seed_cells, then live_volumes of the
    live lanes, and 0.0 for the others.  A call costs far more than the
    scalar kernels take for one lane (tests/slab_reference.py's 2-D and 3-D
    twins), so callers batch their lanes."""
    frame = np.asarray(frame, dtype=np.intp)
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    out = np.zeros(len(frame))
    if len(frame):
        live, lanes = seed_cells(tables, frame, lo, hi)
        if live.size:
            out[live] = live_volumes(tables, frame[live], lanes)
    return out


# -- Signed power sums -------------------------------------------------------

# Most signed terms held at once: 2^20 doubles, 8 MB per array
TERM_CHUNK_BITS = 20


def _subset_sums(start, columns) -> np.ndarray:
    """Sums (B, 2^q) of start (a scalar or (B,)) and each subset of the
    columns of (B, q), bit j of a sum's index taking column j, added in
    index order."""
    sums = np.empty((columns.shape[0], 1 << columns.shape[1]))
    sums[:, 0] = start
    for j in range(columns.shape[1]):
        np.add(sums[:, :1 << j], columns[:, j:j + 1], out=sums[:, 1 << j:2 << j])
    return sums


SIGN_ROW_BITS = 12  # _SIGN_ROWS holds the signs of rows of up to 2^12 terms, 32 KB


def _sign_row(width: int) -> np.ndarray:
    """(-1)^|S| over the subsets S of width coordinates, in _subset_sums'
    order: the first 2^width entries of _SIGN_ROWS, doubled past
    SIGN_ROW_BITS coordinates."""
    signs = _SIGN_ROWS[:1 << width]
    while signs.size < 1 << width:
        signs = np.concatenate([signs, -signs])
    return signs


_SIGN_ROWS = np.ones(1)  # the row of no coordinates, doubled by _sign_row itself
_SIGN_ROWS = _sign_row(SIGN_ROW_BITS)
_SIGN_ROWS.setflags(write=False)


def _block_terms(c, t, head: int):
    """signed_terms of rows c (B, n), one chunk per subset of c[:, :head],
    each worked out in place in its array of subset sums."""
    n = c.shape[1]
    heads = _subset_sums(0.0, c[:, :head])
    head_signs, signs = _sign_row(head), _sign_row(n - head)
    for i in range(heads.shape[1]):
        terms = _subset_sums(heads[:, i], c[:, head:])
        np.subtract(t[:, None], terms, out=terms)
        if n == 1:
            yield signs * (terms > 0.0)
            continue
        # t > 0 and every s_S >= 0, so no difference is -0.0 or NaN and the
        # clamp has np.where(diff > 0.0, diff, 0.0)'s bits; ** 2 is np.square
        np.maximum(terms, 0.0, out=terms)
        if n == 3:
            np.square(terms, out=terms)
        elif n > 3:
            np.power(terms, n - 1, out=terms)
        np.multiply(terms, signs, out=terms)
        if head_signs[i] < 0.0:
            np.negative(terms, out=terms)
        yield terms


def signed_terms(c, t):
    """The terms (-1)^|S| (t - s_S)_+^(n-1) over the subsets S of each row of
    c (B, n) at t (B,), s_S the subset sums, as (rows, chunks) per block of
    rows: a slice of c and an iterator over chunks of at most
    2^TERM_CHUNK_BITS terms, one chunk of 2^TERM_CHUNK_BITS / 2^n rows, or
    for a wider row one per subset of its first n - TERM_CHUNK_BITS
    coordinates.  s_S adds in index order, so a term's bits do not depend
    on the chunking."""
    n = c.shape[1]
    head = max(0, n - TERM_CHUNK_BITS)
    size = max(1, (1 << TERM_CHUNK_BITS) >> n)
    for start in range(0, c.shape[0], size):
        rows = slice(start, start + size)
        yield rows, _block_terms(c[rows], t[rows], head)


TREE_MIN_TERMS = 1 << 12  # fsum (29 ns a term) ties the tree at 2^11 terms, takes 1.5-2x as long here
TREE_BLOCK_TERMS = 1 << 16  # terms per tree call (or one row): arrays of 512 KB


def _two_sum(a, b):
    """fl(a + b) and its rounding error a + b - fl(a + b), exactly (Knuth)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _tree_sums(terms) -> np.ndarray:
    """Each row's sum of terms (R, 2^L), L >= 1, where it is certified to
    round as math.fsum rounds it (correctly), else NaN.  A pairwise TwoSum
    tree leaves the float sum hi and errors summing exactly to the rest
    (Ogita, Rump and Oishi 2005), which lo adds up the same tree: a level's
    errors total at most u (1 + u)^L sum |p| and lo rounds each at most 2L
    times, so hi + lo is within 2 (L + 1)^2 u^2 sum |p| of the sum, u = 2^-53
    (if sum |p| >= 2^-900; below, that could underflow).  r = fl(hi + lo) is
    fsum's where that bound and |hi + lo - r| (exact) stay below half r's
    spacing, or a quarter at a power of two, whose cell is narrower below."""
    hi, lo = terms.T.copy(), None
    total = np.abs(hi).sum(axis=0)
    while len(hi) > 1:
        half = len(hi) // 2
        hi, e = _two_sum(hi[:half], hi[half:])
        lo = e if lo is None else e + (lo[:half] + lo[half:])
    r, d = _two_sum(hi[0], lo[0])
    cell = np.spacing(np.abs(r)) * np.where(np.abs(np.frexp(r)[0]) == 0.5, 0.25, 0.5)
    certified = (np.abs(d) + terms.shape[1].bit_length() ** 2 * 2.0**-105 * total < cell) & (total >= 2.0**-900)
    return np.where(certified, r, math.nan)


def irwin_hall_sums(c, t) -> list:
    """The signed sums of signed_terms per row of c (B, n), rounded as
    math.fsum rounds them: the density at t of sum(c_j V_j), V_j iid
    uniform on [0, 1], times (n-1)! prod c.  Every term is (n-1)-homogeneous
    in (c, t), so a caller may scale both by a power of two and undo the
    scaling on the sum.  Chunks of TREE_MIN_TERMS terms or more try
    _tree_sums first."""
    c = np.asarray(c, dtype=float)
    n = c.shape[-1]
    if n == 0:
        raise ValueError("need at least one coefficient")
    if n > 24:
        raise ValueError("combinatorial blowup guard: n > 24")
    if (c <= 0.0).any():
        raise ValueError("coefficients must be positive")
    totals = []
    t = np.full(c.shape[:-1], t, dtype=float).reshape(-1)
    for _, chunks in signed_terms(c.reshape(-1, n), t):
        if n > TERM_CHUNK_BITS:  # one row, summed across its chunks
            totals.append(math.fsum(itertools.chain.from_iterable(chunk[0].tolist() for chunk in chunks)))
        elif (terms := next(chunks)).size < TREE_MIN_TERMS:
            totals += [math.fsum(row) for row in terms.tolist()]
        else:
            step = max(1, TREE_BLOCK_TERMS >> n)
            sums = np.concatenate([_tree_sums(terms[i:i + step]) for i in range(0, len(terms), step)])
            lost = np.isnan(sums)
            sums[lost] = [math.fsum(row) for row in terms[lost].tolist()]
            totals += sums.tolist()
    return totals


def irwin_hall_bounds(c, t) -> np.ndarray:
    """Bounds, to first order in u = 2^-53, on the rounding errors of
    irwin_hall_sums(c, t) for rows c (B, n), n >= 2, of widths rounded once
    each and t half their floating-point sum:
    u [4 n^2 t sum_S (t - s_S)_+^(n-2) + (n + 1) sum_S (t - s_S)_+^(n-1)].

    The roundings of t, s_S (each at most (n - 1) u 2t) and the widths move
    t - s_S by at most 4 n t u, so a term by (n - 1) (t - s_S)^(n-2) times
    that; the difference, the power and fsum add (n + 1) u of it.  At n = 2
    the first sum counts every term: one whose difference rounds across 0
    moves the total by that rounding."""
    c = np.asarray(c, dtype=float)
    n = c.shape[1]
    if n < 2:
        raise ValueError("need at least two coefficients")
    t = np.asarray(t, dtype=float)
    bounds = np.zeros(c.shape[0])
    for rows, chunks in signed_terms(c, t):
        for terms in chunks:
            powers = np.abs(terms)
            bounds[rows] += (4 * n * n * t[rows] * (powers ** ((n - 2) / (n - 1))).sum(axis=1)
                             + (n + 1) * powers.sum(axis=1))
    return 2.0**-53 * bounds

