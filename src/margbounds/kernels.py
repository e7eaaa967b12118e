"""Kernels in numpy/Python: slab-intersection volumes and Irwin-Hall sums.

The geometric kernels compute the volume of a slab intersection
{ y : lo_i <= <w_i, y> <= hi_i } in dimension 1, 2 or 3.  Callers guarantee
boundedness (the w_i always contain a spanning subset coming from a tight
frame) and strip zero rows beforehand.  The 2-D kernel takes a lane of
three rows in closed form, the integral of a two-direction box spline over
the third row's slab (_three_row_areas), a lane of four rows by Lasserre's
edge sum over the seed rectangle cut by two slabs (_four_row_areas), each
with its rounding bound, and clips a seed parallelogram for five rows or
more; the 3-D kernel sums (1/3) h |F| over the facets F, each a 2-D slab
system of one row fewer, after merging rows parallel within _PARALLEL_SINE
(see _polytope_volumes for its rounding bound).

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


class ClipTables(NamedTuple):
    """What the 2-D kernel needs of frames (K, m, 2) alone, per frame."""

    ok: np.ndarray  # (K,): false where the seed rows are degenerate
    seed: np.ndarray  # (K, 5): a00, a01, a10, a11 and det of the seed rows
    order: np.ndarray  # (K, m): the seed rows, then the others in row order
    clip: np.ndarray  # (K, 2 (m - 2), 2): the clip normals, x and y
    third: np.ndarray  # (K, 3) at m = 3, (K, 5) at m = 4, else (K, 0): alphas, betas, 1/|det|


def _clip_tables(frames) -> ClipTables:
    """The ClipTables of frames (K, m, 2): ok false where the seed rows are
    degenerate (their determinant is below 1e-14 (1 + max |w|)^2; the
    frame's lanes are then 0.0); the seed table of a00, a01, a10, a11 and
    det, i0 the longest row and i1 the one most transverse to it; each
    frame's row order, the seed rows i0, i1 and then the others in row
    order; the clip normals, the other rows' in that order, each as itself
    (the hi side) and negated (the -lo side).  A three-row frame also gets
    its third row in seed coordinates, <w_2, y> = alpha u + beta v for u =
    <w_i0, y> and v = <w_i1, y>, and 1/|det|, which _three_row_areas takes;
    a four-row frame its rows 2 and 3 so, alpha_2, alpha_3, beta_2, beta_3
    and 1/|det|, from compensated products, for _four_row_areas."""
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
    seed = np.column_stack([frames[ks, i0], frames[ks, i1], det])
    normals = frames[ks[:, None], order[:, 2:]]  # (K, m - 2, 2)
    clip = np.stack([normals, -normals], axis=2).reshape(count, 2 * (m - 2), 2)
    third = np.empty((count, 0))
    a00, a01, a10, a11 = seed[:, :4].T
    if m == 3:
        x, y = normals[:, 0].T
        d = np.where(ok, det, 1.0)
        third = np.column_stack([(x * a11 - y * a10) / d, (a00 * y - a01 * x) / d, 1.0 / np.abs(d)])
    elif m == 4:
        (x2, x3), (y2, y3) = normals.T
        # det, then x a11 - y a10 and a00 y - a01 x of rows 2 and 3
        det = _product_difference(np.stack([a00, x2, x3, a00, a00]), np.stack([a11, a11, a11, y2, y3]),
                                  np.stack([a01, y2, y3, a01, a01]), np.stack([a10, a10, a10, x2, x3]))
        d = np.where(ok, det[0], 1.0)
        third = np.column_stack([*(det[1:] / d), 1.0 / np.abs(d)])
    return ClipTables(ok, seed, order, clip, third)


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
    """What the 2-D kernel needs of frames (K, m, 2) alone, per frame: the
    clip's tables, and the frame's part of the seed-cell test."""

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
    normals = clip.clip.T[:, 0::2]  # (c, m - 2, K)
    wg = np.abs(normals[0] * g[:, 0, None] + normals[1] * g[:, 1, None])  # (s, m - 2, K)
    cond = (np.maximum(np.abs(a00) + np.abs(a01), np.abs(a10) + np.abs(a11))
            * np.maximum(ag[0, 0] + ag[1, 0], ag[0, 1] + ag[1, 1]))
    return PolygonTables(clip, g.transpose(2, 0, 1), (ag[:, 0] + ag[:, 1]).T, wg.T, cond)


# a lane some non-seed row of which misses the seed parallelogram by this
# multiple of (the seed matrix's condition number x the cell's coordinate
# scale, 1 + |c|_1 + sum_s half_s |g_s|_1, c its centre) gets no clip.  The
# clipper's corners, and their distances from a row's side, are within a
# few unit roundoffs of that product of the exact ones, and it keeps only
# what lies within eps = 1e-14 (1 + the corners' largest 1-norm) <= 1e-14
# times that scale of each side: it would clip such a lane to 0.0 as well.
# For three and four rows the closed forms give exactly 0.0 there: the slab
# misses the rectangle by far more than their roundings (_three_row_areas,
# _four_row_areas)
_CLIP_MARGIN = 1e-9


def _polygon_seed_cells(tables, frame, lo, hi):
    """(L,): false for the lanes that _polygon_areas would give 0.0, those
    of a degenerate frame and those with a non-seed row whose slab misses
    the seed parallelogram by _CLIP_MARGIN (see there).  The rows go
    one at a time, each as (L,) vectors."""
    ok, _, order, clip, _ = tables.clip
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
        wc = clip[:, 2 * j, 0][frame] * cx + clip[:, 2 * j, 1][frame] * cy
        # the largest |<w_j, y - c>| over the parallelogram, plus the margin
        slack = half0 * wg[:, j, 0][frame] + half1 * wg[:, j, 1][frame] + margin
        live &= ~((loj - wc > slack) | (hij - wc < -slack))
    return live


# a third slab that meets the rectangle only within this share of the lane's
# s-scale of a corner (or a strip's edge) gives 0.0, so a facet that is a
# point or a segment in exact arithmetic stays 0.0, as the clip made it
_TOUCH = 2.0**-46


def _three_row_areas(third, lo, hi):
    """Area of each three-row lane: lo and hi (3, L) the bounds of the seed
    rows i0, i1 and the third row, third (3, L) its frame's alpha, beta and
    1/|det|.

    In u = <w_i0, y>, v = <w_i1, y> the lane is a rectangle of area S = w_0
    w_1 / |det| (w_s = hi_s - lo_s, c_s = lo_s + hi_s) cut by the slab
    lo_2 <= alpha u + beta v <= hi_2.  Over the rectangle, s = 2 (alpha u +
    beta v) - gamma, gamma = alpha c_0 + beta c_1, has a trapezoid density,
    the two-direction box spline of de Boor and Hollig (1982/83): flat on
    |s| <= M - n, zero beyond M + n, for p = |alpha| w_0, q = |beta| w_1, M
    = max(p, q), n = min(p, q).  The area is S times its integral over [l,
    h] = [2 lo_2, 2 hi_2] - gamma, divided by 2M: the plateau's overlap,
    2 (hi_2 - lo_2) itself for a slab on the plateau, plus (t_2^2 - t_1^2)
    / 4n per ramp, t the overlap's clamped distances from the ramp's outer
    end; no piece is negative.  n = 0 is a strip; M = 0, a zero third row,
    keeps the rectangle if 0 lies in [l, h].  A slab that misses the
    rectangle, or meets it within _TOUCH (p + q + |gamma|) of an end of the
    trapezoid, gives exactly 0.0; lo_2 > hi_2 counts as hi_2 = lo_2.

    Rounding, to first order in u = 2^-53: the error is at most (144 + 3 D)
    u S (1 + E / M), with D = (|a00 a11| + |a01 a10|) / |det| and E = A
    (w_0 + |c_0|) + B (w_1 + |c_1|) + 2 |lo_2| + 2 |hi_2|, A = (|x a11| +
    |y a10|) / |det| and B = (|a00 y| + |a01 x|) / |det| for the third row
    (x, y); a zero third row has no E / M term.  The roundings of alpha,
    beta, gamma, l and h move each end of the slab by at most (10 + 2 D) u
    E over a density of at most 1 / 2M; the touch test drops at most 128 u
    (2M + E) of s; the pieces, the division and S add (16 + 3 D) u.
    """
    alpha, beta, rdet = third
    # in place where a value is last used, which keeps the lane arrays few
    w0, w1 = hi[0] - lo[0], hi[1] - lo[1]
    lo2, hi2 = lo[2], np.maximum(hi[2], lo[2])
    p, q = np.abs(alpha), np.abs(beta)
    p *= w0
    q *= w1
    gamma, c1 = lo[0] + hi[0], lo[1] + hi[1]
    gamma *= alpha
    c1 *= beta
    gamma += c1
    l, h = lo2 + lo2, hi2 + hi2
    l -= gamma
    h -= gamma
    flat, ramp = np.maximum(p, q), np.minimum(p, q)
    flat += flat
    ramp += ramp
    reach = np.add(p, q, out=p)
    # the slab's distances from the trapezoid's right end, where the plateau
    # is [2n, 2M], and from its left end
    r1, r2 = reach - h, reach - l
    e1, e2 = np.add(reach, l, out=l), np.add(reach, h, out=h)
    tol = np.abs(gamma, out=gamma)
    tol += reach
    tol *= _TOUCH
    touch = r2 < tol
    touch |= e2 < tol
    width = hi2 - lo2
    width += width
    inside = r1 >= ramp
    inside &= r2 <= flat
    plateau, low = np.maximum(r2, ramp), np.maximum(r1, ramp, out=q)
    np.minimum(plateau, flat, out=plateau)
    np.minimum(low, flat, out=low)
    plateau -= low
    np.copyto(plateau, width, where=inside)
    for t in (r1, r2, e1, e2):
        np.maximum(t, 0.0, out=t)
        np.minimum(t, ramp, out=t)
    ramps = r2 - r1
    r2 += r1
    ramps *= r2
    e = np.subtract(e2, e1, out=r1)
    e2 += e1
    e *= e2
    ramps += e
    np.divide(ramps, ramp + ramp, out=ramps, where=ramp > 0.0)
    ramps[ramp <= 0.0] = 0.0
    plateau += ramps
    np.divide(plateau, flat, out=plateau, where=flat > 0.0)
    plateau[flat <= 0.0] = 1.0
    w0 *= w1
    w0 *= rdet
    w0 *= plateau
    w0[touch] = 0.0
    return w0


# a four-row lane of at most this share of its seed rectangle's area gives
# 0.0, so a facet that is a point or a segment in exact arithmetic stays
# 0.0 (the roundings of the tests' degenerate integer facets leave a few u)
_SLIVER = 2.0**-48


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _four_row_areas(third, lo, hi, merged):
    """Area of each four-row lane: lo and hi (4, L) the bounds of the seed
    rows i0, i1 and rows 2 and 3, third (5, L) its frame's alpha_2,
    alpha_3, beta_2, beta_3 and 1/|det|, merged (L,) true for the lanes
    that _merged_four_rows takes.

    In s, t with <w_i0, y> = (lo_0 + hi_0 + s w_0) / 2 and <w_i1, y> =
    (lo_1 + hi_1 + t w_1) / 2 (w = hi - lo) the lane is the square [-1,
    1]^2, of area 4 for S = w_0 w_1 / |det|, cut by the slabs L_j <= p_j s
    + q_j t <= H_j of rows 2 and 3: p = alpha w_0, q = beta w_1, L_j = 2
    lo_j - gamma_j, H_j = 2 hi_j - gamma_j, gamma_j = alpha_j (lo_0 + hi_0)
    + beta_j (lo_1 + hi_1) (hi_j < lo_j counts as hi_j = lo_j).  Twice its
    area is Lasserre's sum about the corner (-1, -1): 2 |F| over the edges
    t = 1 and s = 1, and +-(b + p + q) |F| / |q| or / |p| over each line p
    s + q t = b, |F| the length of its edge along its axis, s or t.  Each
    edge runs between the line's crossings with the edges across its axis,
    within the other row's slab, in [-1, 1]: a fixed handful of (L,)
    operations, no sort and no clip.

    A line runs along s where |q| >= |p|, else along t; row 3 takes row 2's
    axis unless that is more than twice as steep for it, so rows within 18
    degrees share their axis.  Each crossing is computed once, and every
    line through it reads its own axis coordinate of that one point: two
    lines theta apart share their corner however badly it lies along them
    (within u / theta), and moving a corner of angle pi - theta by e along
    its edges moves the area by about e theta times their lengths, so a
    small theta costs nothing.  _clip_tables builds alpha, beta and det from
    compensated products, so a row near a seed row costs nothing either.  A
    zero row (a facet's merged row) has no lines: its slab holds the plane,
    or the lane is empty.  Lanes whose rows 2 or 3 are exactly parallel to a
    seed row or to each other, or both zero, take _merged_four_rows, so no
    determinant of 0 divides.  A lane of at most _SLIVER S gives 0.0.

    Rounding, to first order in u = 2^-53: the error is at most 96 u S (1 +
    E_2 / M_2 + E_3 / M_3), E_j and M_j as _three_row_areas defines E and M
    with row j as the third row (no term for a zero row).  The roundings of
    alpha, beta, gamma, L and H move each line by at most 6 u (E_j + M_j) in
    b, so by 6 u (E_j / M_j + 1) across the square, whose chords are at
    most 2 sqrt(2) long; S adds 6 u; the sum of six terms of at most 16 and
    the crossings add 24 u S, and _SLIVER 32 u S.  Merged lanes take
    _three_row_areas' bound on the merged system.
    """
    if merged.any():
        out = np.empty(lo.shape[1])
        out[merged] = _merged_four_rows(third[:, merged], lo[:, merged], hi[:, merged])
        keep = ~merged
        if keep.any():
            out[keep] = _four_row_areas(third[:, keep], lo[:, keep], hi[:, keep], merged[keep])
        return out
    alpha, beta, rdet = third[:2], third[2:4], third[4]
    zero = (alpha == 0.0) & (beta == 0.0)  # (2, L): a facet's merged row
    has_zero = zero.any()
    if has_zero:  # its slab holds the plane, or the lane is empty
        empty = (zero & ((lo[2:] > 0.0) | (hi[2:] < 0.0))).any(axis=0)
        lo, hi = lo.copy(), hi.copy()
        lo[2:] = np.where(zero, -np.inf, lo[2:])
        hi[2:] = np.where(zero, np.inf, hi[2:])
    count = lo.shape[1]
    w0, w1 = hi[0] - lo[0], hi[1] - lo[1]
    p, q = alpha * w0, beta * w1  # (2, L): rows 2 and 3
    gamma = alpha * (lo[0] + hi[0])
    gamma += beta * (lo[1] + hi[1])
    bnd = np.empty((2, 2, count))  # (side, row, L): L and H
    np.add(lo[2:], lo[2:], out=bnd[0])
    hi2 = np.maximum(hi[2:], lo[2:])
    np.add(hi2, hi2, out=bnd[1])
    bnd -= gamma
    # each row's axis (see above), True for s
    ap, aq = np.abs(p), np.abs(q)
    along = np.empty((2, count), dtype=bool)
    np.greater_equal(aq[0], ap[0], out=along[0])
    along[1] = np.where(along[0], aq[1] + aq[1] >= ap[1], ap[1] + ap[1] < aq[1])
    # (edge, side, row, L): each line's crossing with the edge t = 1 (its
    # s) and s = 1 (its t); its crossing with the edge across the other end
    # of its axis; and the s or t of the crossing of row 2's line a with
    # row 3's line c, (a, c, L)
    rp, rq = 1.0 / p, 1.0 / q
    cross = np.empty((2, 2, 2, count))
    np.subtract(bnd, q, out=cross[0])
    cross[0] *= rp
    np.subtract(bnd, p, out=cross[1])
    cross[1] *= rq
    far = bnd + np.where(along, q, p)
    far *= np.where(along, rp, rq)
    b2, b3 = bnd[:, None, 0], bnd[None, :, 1]
    ps = b2 * q[1] - b3 * q[0]
    pt = b3 * p[0] - b2 * p[1]
    scale = 1.0 / ((alpha[0] * beta[1] - alpha[1] * beta[0]) * (w0 * w1))
    ps *= scale
    pt *= scale
    # each line's interval along its axis (side, row, L): between its
    # crossings with the edges across it, within the other row's slab, in
    # [-1, 1]
    near = np.where(along, cross[0], cross[1])
    low, high = np.minimum(near, far), np.maximum(near, far)
    point = np.where(along[0], ps, pt)
    np.maximum(low[:, 0], np.minimum(point[:, 0], point[:, 1]), out=low[:, 0])
    np.minimum(high[:, 0], np.maximum(point[:, 0], point[:, 1]), out=high[:, 0])
    point = np.where(along[1], ps, pt)
    np.maximum(low[:, 1], np.minimum(point[0], point[1]), out=low[:, 1])
    np.minimum(high[:, 1], np.maximum(point[0], point[1]), out=high[:, 1])
    np.maximum(low, -1.0, out=low)
    np.minimum(high, 1.0, out=high)
    high -= low
    lines = np.maximum(high, 0.0, out=high)
    # the edges t = 1 and s = 1 (edge, L): their intervals within the rows'
    # slabs
    low = np.minimum(cross[:, 0], cross[:, 1])  # (edge, row, L)
    high = np.maximum(cross[:, 0], cross[:, 1])
    edges = np.minimum(high[:, 0], high[:, 1])
    np.minimum(edges, 1.0, out=edges)
    low = np.maximum(low[:, 0], low[:, 1])
    np.maximum(low, -1.0, out=low)
    edges -= low
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
    total += terms[0]
    total += terms[1]
    total[total <= 8.0 * _SLIVER] = 0.0  # the whole square sums to 8
    if has_zero:
        total[empty] = 0.0
    w0 *= w1
    total[~(w0 > 0.0)] = 0.0
    w0 *= rdet
    w0 *= 0.125
    total *= w0
    return total


def _merged_four_rows(third, lo, hi):
    """_four_row_areas of lanes whose rows 2 or 3 are exactly parallel to a
    seed row or to each other, or both zero: each such row j is kappa times
    row r, a seed row (kappa = alpha_j or beta_j), row 2 (kappa = alpha_3 /
    alpha_2) or zero, and its slab merges into r's, [lo_j, hi_j] / kappa (a
    zero row keeps the lane if 0 lies in its slab, else the lane is empty);
    the seed rows and the row left, or a zero row with bounds -1, 1, take
    _three_row_areas, and a lane of at most _SLIVER S gives 0.0."""
    alpha, beta, rdet = third[:2], third[2:4], third[4]
    sliver = _SLIVER * ((hi[0] - lo[0]) * (hi[1] - lo[1]) * rdet)
    lo, hi = lo.copy(), np.maximum(hi, lo)
    zero = (alpha == 0.0) & (beta == 0.0)
    empty = (zero & ((lo[2:] > 0.0) | (hi[2:] < 0.0))).any(axis=0)
    seed0, seed1 = (beta == 0.0) & ~zero, (alpha == 0.0) & ~zero
    left = ~(zero | seed0 | seed1)
    row2 = left[0] & left[1]  # then alpha_2 beta_3 == alpha_3 beta_2
    for j, into, kappa, hit in ((2, 0, alpha[0], seed0[0]), (2, 1, beta[0], seed1[0]), (3, 0, alpha[1], seed0[1]),
                                (3, 1, beta[1], seed1[1]), (3, 2, alpha[1] / np.where(row2, alpha[0], 1.0), row2)):
        kappa = np.where(hit, kappa, 1.0)
        a, b = lo[j] / kappa, hi[j] / kappa
        lo[into] = np.where(hit, np.maximum(lo[into], np.minimum(a, b)), lo[into])
        hi[into] = np.where(hit, np.minimum(hi[into], np.maximum(a, b)), hi[into])
    third = np.zeros((3, lo.shape[1]))
    third[2] = rdet
    rest = np.where(left[0], 2, 3)
    keep = left[0] | left[1]
    lanes = np.arange(lo.shape[1])
    third[0] = np.where(keep, alpha[rest - 2, lanes], 0.0)
    third[1] = np.where(keep, beta[rest - 2, lanes], 0.0)
    lo3 = np.stack([lo[0], lo[1], np.where(keep, lo[rest, lanes], -1.0)])
    hi3 = np.stack([hi[0], hi[1], np.where(keep, hi[rest, lanes], 1.0)])
    empty |= (lo3 > hi3).any(axis=0)
    out = _three_row_areas(third, lo3, hi3)
    out[empty | (out <= sliver)] = 0.0
    return out


def _polygon_areas(tables, frame, lo, hi):
    """Area of each lane l: the 2-D slabs lo[l, i] <= <w_i, y> <= hi[l, i]
    for the rows w of frame[l], on tables, the ClipTables of frames (K, m,
    2), frame (L,), lo and hi (L, m) with lo <= hi; returns (L,) areas.

    Three rows (m = 3): _three_row_areas, in closed form, on the seed rows
    i0, i1 and the frame's alpha, beta and 1/|det|; see there for its
    rounding bound.  The 2-D lanes of the paper's k = 1 marginals at n = 3,
    and every facet of a four-row 3-D lane, are of this kind.  Four rows (m
    = 4): _four_row_areas, in closed form, on the same tables, with its own
    bound; the lanes of k = 2 marginals at n = 4, and every facet of a
    five-row 3-D lane, are of this kind.

    Five rows or more: lane-wise Sutherland-Hodgman: the seed parallelogram
    of the best-conditioned row pair, cut by the hi then -lo side of each
    other row in row order, each cut keeping the vertices within eps =
    1e-14 (1 + the seed corners' largest 1-norm) of its side; then the
    shoelace sum from vertex 0.  Vertices sit slot-major, (slots, lanes),
    NaN past each lane's count; a lane leaves once it has fewer than 3
    vertices.

    Every lane goes through the same floating-point operations in the same
    order, so its area does not depend on the other lanes.  What depends on
    the frame alone (the seed rows, their determinant, the degeneracy test,
    the row order, the alphas, betas and 1/|det|) is in its ClipTables; a
    degenerate frame's lanes are 0.0.

    This runs no seed-cell test: live_volumes calls it on the lanes that
    passed seed_cells, where a lane whose seed parallelogram misses another
    row's slab by _CLIP_MARGIN is 0.0 without a clip, as the clip would
    make it, and as the closed forms give exactly 0.0 there.  (The 3-D
    facets call it directly: testing them too saved no measurable time on
    sup-grid.)
    """
    ok, seed, order, clip, third = tables
    out = np.zeros(len(frame))
    idx = np.flatnonzero(ok[frame])
    if not idx.size:
        return out
    f = frame[idx]
    # (m, L): each lane's rows in its frame's order
    at = idx * lo.shape[1] + order[f].T
    lo, hi = lo.reshape(-1).take(at), hi.reshape(-1).take(at)
    if len(lo) == 3:
        out[idx] = _three_row_areas(third.T.take(f, axis=1), lo, hi)
        return out
    if len(lo) == 4:
        # frames whose rows 2 or 3 are exactly parallel to a seed row or to
        # each other, or both zero, take _merged_four_rows
        a2, a3, b2, b3 = (third[:, j] == 0.0 for j in range(4))
        z2, z3 = a2 & b2, a3 & b3
        merged = ((a2 ^ b2) | (a3 ^ b3) | (z2 & z3)
                  | ((third[:, 0] * third[:, 3] == third[:, 1] * third[:, 2]) & ~(z2 | z3)))[f]
        out[idx] = _four_row_areas(third.T.take(f, axis=1), lo, hi, merged)
        return out
    steps = clip.shape[1]
    a00, a01, a10, a11, det = seed.T[:, f]
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
    lane[:2] = clip.T[:, :, f]
    lane[2, 0::2], lane[2, 1::2] = hi[2:], -lo[2:]
    del lo, hi, s, t  # the clip needs only poly, lane and eps
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
    A frame where no row merges has into -1, alpha 1 and dead false."""

    w: np.ndarray  # (K, m, 3): the rows
    seeds: np.ndarray  # (K, 3): the seed rows (_polytope_seed_lanes)
    ok: np.ndarray  # (K,): false where the seed rows are degenerate
    g: np.ndarray  # (K, 3, 3): the seed cell's edge vectors per unit half-width
    gl1: np.ndarray  # (K, 3): their 1-norms
    wg: np.ndarray  # (K, m, 3): |<w_i, g_s>|
    norms: np.ndarray  # (K, m): |w_i|^2
    into: np.ndarray  # (K, m): the row that row j merges into, or -1
    alpha: np.ndarray  # (K, m): the merge factors <w_j, w_i> / |w_i|^2
    alive: np.ndarray  # (K, m): the rows that do not merge
    gram: np.ndarray  # (K, m, m - 1): <w_i, w_j> over the other rows j
    dead: np.ndarray  # (K, m, m - 1): which of them merge (zeroed in the facet)
    facets: ClipTables  # of the facet frames, each field (K, m, ...)


def polytope_tables(frames) -> PolytopeTables:
    """The PolytopeTables of frames (K, m, 3): what _polytope_volumes needs
    of each frame alone.  That is the seed cell's shape, the merges (the
    same for every nonempty lane of a frame), and each row's facet frame,
    the other rows in an orthonormal basis of w_i-perp with the merged rows
    zeroed, with its ClipTables.  A lane's own work is its bounds."""
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
    gram = _dot(F[:, :, None, :], F[:, None, :, :])  # (K, m, m)
    crs = _cross(F[:, :, None, :], F[:, None, :, :])
    # (a degenerate frame's lanes are empty, so it merges nothing)
    parallel = ((_dot(crs, crs) <= _PARALLEL_SINE**2 * (norms[:, :, None] * norms[:, None, :]))
                & ok[:, None, None])
    # row j merges into the first live row parallel to it, with the factor
    # alpha (most frames have no parallel pair)
    alive = np.ones((count, m), dtype=bool)
    into = np.full((count, m), -1)
    alpha = np.ones((count, m))
    if (parallel & np.tri(m, k=-1, dtype=bool)).any():
        for j in range(1, m):
            parallel_to = parallel[:, j, :j] & alive[:, :j]
            hit = parallel_to.any(axis=1)
            into[hit, j] = np.argmax(parallel_to[hit], axis=1)
            alive[hit, j] = False
        mk, mj = np.nonzero(into >= 0)
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
    # merged rows become zero rows that every point satisfies (their lanes'
    # bounds are -1, 1)
    dead = ~alive[:, others]
    flat[dead] = 0.0
    facets = _clip_tables(flat.reshape(count * m, m - 1, 2))
    facets = ClipTables(*(t.reshape((count, m) + t.shape[1:]) for t in facets))
    gram = gram[:, np.arange(m)[:, None], others]
    return PolytopeTables(F, seeds, ok, g, gl1, wg, norms, into, alpha, alive, gram, dead, facets)


def _others(m):
    """(m, m - 1): row i lists the indices other than i of m rows, in order."""
    return np.broadcast_to(np.arange(m), (m, m))[~np.eye(m, dtype=bool)].reshape(m, m - 1)


def _polytope_seed_cells(tables, frame, lo, hi):
    """seed_cells of 3-D lanes: the live lanes, with their bounds about c
    and slack."""
    # the per-row terms are built one coordinate at a time as (L, m) arrays
    lanes = np.arange(len(frame))[:, None]
    seeds, g, gl1 = tables.seeds[frame], tables.g[frame], tables.gl1[frame]
    mid = 0.5 * (lo[lanes, seeds] + hi[lanes, seeds])
    half = 0.5 * (hi[lanes, seeds] - lo[lanes, seeds])
    centre = mid[:, 0, None] * g[:, 0] + mid[:, 1, None] * g[:, 1] + mid[:, 2, None] * g[:, 2]
    wc = tables.w[:, :, 0][frame] * centre[:, 0, None]
    for k in (1, 2):
        wc += tables.w[:, :, k][frame] * centre[:, k, None]
    blo, bhi = lo - wc, hi - wc  # the bounds about c
    scale = 1.0 + (np.abs(centre[:, 0]) + np.abs(centre[:, 1]) + np.abs(centre[:, 2]))
    for s in range(3):
        scale = scale + half[:, s] * gl1[:, s]
    # the largest |<w_i, y - c>| over the seed cell, plus the margin
    slack = half[:, 0, None] * tables.wg[:, :, 0][frame]
    for s in (1, 2):
        slack += half[:, s, None] * tables.wg[:, :, s][frame]
    slack += (_EMPTY_MARGIN * scale)[:, None]
    live = np.flatnonzero(tables.ok[frame] & ~((blo > slack) | (bhi < -slack)).any(axis=1))
    return live, (blo[live], bhi[live], slack[live])


def _polytope_volumes(tables, frame, blo, bhi, slack):
    """Volume of each lane l: the 3-D slabs lo[l, i] <= <w_i, y> <= hi[l, i]
    for the rows w of frame[l] in tables, the PolytopeTables of frames (K,
    m, 3), for lanes that passed seed_cells, from their bounds about c, blo
    and bhi (L, m), and their slack (L, m), as _polytope_seed_cells gives
    them; returns (L,) volumes.

    Facet recursion (Lasserre 1983): about c, the centre of the lane's seed
    cell (the parallelepiped of its seed rows, which holds the polytope),
    vol = (1/3) sum over rows i and sides of h |F|, h the signed distance of
    the side's plane from c and F the facet the plane cuts from the other
    rows: a 2-D slab system in an orthonormal basis of w_i-perp, whose
    bounds shift by <w_j, x0> for x0 the plane's foot.  A call's facets go
    through one _polygon_areas call, and each lane adds its 2m terms from
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
    section.  Otherwise each term carries _polygon_areas' error times |h|:
    a four-row lane's facets have three rows and take _three_row_areas'
    bound, a five-row lane's four and _four_row_areas' bound, 96 u S_F (1 +
    E_2 / M_2 + E_3 / M_3) for S_F the facet's seed rectangle (a merged row
    is a zero row there, with no term), and wider facets the clip's
    tolerance, 1e-14 times the facet's coordinate scale, per unit of the
    facet's perimeter; the projections and the sum add O(m u) of sum |h|
    |F|.

    A lane with degenerate seed rows, or with a row that misses the seed
    cell by _EMPTY_MARGIN times the cell's coordinate scale, is 0.0 by
    seed_cells and never reaches this; a facet whose plane misses the cell
    that way is skipped.  live_volumes calls this on _POLYTOPE_LANES lanes
    at a time.
    """
    count, m = blo.shape
    into = tables.into[frame]
    merged = np.flatnonzero((into >= 0).any(axis=0))
    if merged.size:  # the merges write to the lanes' own copies
        blo, bhi = blo.copy(), bhi.copy()
    for j in merged:
        hit = np.flatnonzero(into[:, j] >= 0)
        i = into[hit, j]
        scaled = tables.alpha[frame[hit], j]
        a, b = blo[hit, j] / scaled, bhi[hit, j] / scaled
        blo[hit, i] = np.maximum(blo[hit, i], np.minimum(a, b))
        bhi[hit, i] = np.minimum(bhi[hit, i], np.maximum(a, b))
    empty = (blo >= bhi).any(axis=1)
    # facet (l, i, side): the plane <w_i, y - c> = bhi (side 0) or blo (side 1)
    # (its outward distance from c is signed / |w_i|; a plane beyond the seed
    # cell cuts no facet)
    plane = np.stack([bhi, blo], axis=2)
    signed = plane * np.array([1.0, -1.0])
    fl, fi, fs = np.nonzero((signed <= slack[:, :, None]) & (tables.alive[frame] & ~empty[:, None])[:, :, None])
    if not fl.size:
        return np.zeros(count)
    facet = frame[fl] * m + fi
    rows = _others(m)[fi]  # (F, m - 1)
    b = plane[fl, fi, fs]
    nn = tables.norms.reshape(-1)[facet]
    foot = (b / nn)[:, None] * tables.gram.reshape(-1, m - 1)[facet]
    flo, fhi = blo[fl[:, None], rows] - foot, bhi[fl[:, None], rows] - foot
    zeroed = tables.dead.reshape(-1, m - 1)[facet]
    if zeroed.any():
        flo, fhi = np.where(zeroed, -1.0, flo), np.where(zeroed, 1.0, fhi)
    facets = ClipTables(*(t.reshape((len(t) * m,) + t.shape[2:]) for t in tables.facets))
    terms = np.zeros((count, m, 2))
    terms[fl, fi, fs] = signed[fl, fi, fs] / np.sqrt(nn) * _polygon_areas(facets, facet, flo, fhi)
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

