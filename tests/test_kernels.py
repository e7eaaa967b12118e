import hashlib
import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from exact_slab_volume import exact_polygon_area, exact_slab_volume
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from slab_reference import _polygon_seed_rows, polytope_volume, slab_volume

from margbounds import kernels
from margbounds.grassmann import complement_bases, haar_bases, haar_directions
from margbounds.sections import sharp_block_subspace, sharp_paired_subspace

# These tests carried a "[pure]" id while a compiled twin of the kernels
# existed; the one-value parameter keeps their ids stable.
_KEEP_ID = pytest.mark.parametrize("backend", [kernels.BACKEND])


def _volumes(frames, frame, lo, hi):
    """kernels.table_volumes on the tables of frames, built in the call: the
    lane kernel of the frames' dimension (one-lane d = 1 calls: by
    interval_length, see kernels.live_volumes)."""
    return kernels.table_volumes(kernels.frame_tables(frames), frame, lo, hi)


def _lengths(frames, frame, lo, hi):
    """The 1-D lane kernel on the tables of frames (K, m, 1), also for one
    lane."""
    frame, lo, hi = np.asarray(frame, dtype=np.intp), np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    return kernels._interval_lengths(kernels.interval_tables(frames), frame, lo, hi)


def _one_lane(W, lo, hi):
    """The one-lane _volumes call on one slab system, asserted == the scalar
    reference slab_volume."""
    W, lo, hi = (np.asarray(a, dtype=float) for a in (W, lo, hi))
    got = _volumes(W[None], [0], lo[None], hi[None])[0]
    assert got == slab_volume(W, lo, hi)
    return got


def _assert_lanes_match(kernel, frames, frame, lo, hi):
    """The lanes of a lane kernel, in one call and each alone as a one-lane
    call given its frame, == slab_volume on the lane's frame; returns the
    one call's volumes."""
    got = kernel(frames, frame, lo, hi)
    want = [slab_volume(frames[k], l, h) for k, l, h in zip(frame, lo, hi)]
    assert np.array_equal(got, want)
    ones = [kernel(frames[k][None], [0], l[None], h[None])[0] for k, l, h in zip(frame, lo, hi)]
    assert np.array_equal(ones, want)
    return got


@_KEEP_ID
def test_interval_length_axis(backend):
    w = np.array([1.0])
    assert kernels.interval_length(w, np.array([-0.5]), np.array([0.5])) == 1.0


@_KEEP_ID
def test_interval_length_scaling(backend):
    w = np.array([2.0])
    assert kernels.interval_length(w, np.array([-1.0]), np.array([1.0])) == pytest.approx(1.0)


@_KEEP_ID
def test_interval_length_negative_coefficient(backend):
    w = np.array([-2.0, 1.0])
    got = kernels.interval_length(w, np.array([-1.0, -10.0]), np.array([1.0, 10.0]))
    assert got == pytest.approx(1.0)


@_KEEP_ID
def test_interval_length_empty(backend):
    w = np.array([1.0, 1.0])
    got = kernels.interval_length(w, np.array([0.0, 2.0]), np.array([1.0, 3.0]))
    assert got == 0.0


@_KEEP_ID
def test_interval_length_zero_coefficient_feasible(backend):
    w = np.array([0.0, 1.0])
    got = kernels.interval_length(w, np.array([-1.0, -0.5]), np.array([1.0, 0.5]))
    assert got == pytest.approx(1.0)


@_KEEP_ID
def test_interval_length_zero_coefficient_infeasible(backend):
    w = np.array([0.0, 1.0])
    got = kernels.interval_length(w, np.array([0.5, -0.5]), np.array([1.0, 0.5]))
    assert got == 0.0


@_KEEP_ID
def test_interval_length_unbounded_raises(backend):
    w = np.array([0.0])
    with pytest.raises(ValueError):
        kernels.interval_length(w, np.array([-1.0]), np.array([1.0]))


@_KEEP_ID
def test_polygon_area_unit_square(backend):
    w = np.eye(2)
    lo = np.array([-0.5, -0.5])
    hi = np.array([0.5, 0.5])
    assert _one_lane(w, lo, hi) == pytest.approx(1.0)


@_KEEP_ID
def test_polygon_area_rotated_square(backend):
    c, s = math.cos(0.3), math.sin(0.3)
    w = np.array([[c, s], [-s, c]])
    lo = np.array([-0.5, -1.0])
    hi = np.array([0.5, 1.0])
    assert _one_lane(w, lo, hi) == pytest.approx(2.0)


@_KEEP_ID
def test_polygon_area_extra_slack_constraint(backend):
    w = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    lo = np.array([-0.5, -0.5, -5.0])
    hi = np.array([0.5, 0.5, 5.0])
    assert _one_lane(w, lo, hi) == pytest.approx(1.0)


@_KEEP_ID
def test_polygon_area_octagon(backend):
    r = 1.0 / math.sqrt(2.0)
    w = np.array([[1.0, 0.0], [0.0, 1.0], [r, r], [r, -r]])
    hi = np.full(4, 1.0)
    got = _one_lane(w, -hi, hi)
    # regular octagon circumscribing constraints at distance 1
    assert got == pytest.approx(8.0 * (math.sqrt(2.0) - 1.0))


@_KEEP_ID
def test_polygon_area_degenerate_rows(backend):
    w = np.array([[1.0, 0.0], [2.0, 0.0]])
    assert _one_lane(w, np.array([-1.0, -1.0]), np.array([1.0, 1.0])) == 0.0


def test_polygon_area_400_gon():
    # 200 slabs |<w_j, y>| <= 1 at angles pi j / 200 cut out the regular
    # 400-gon circumscribing the unit disk; the kernel has no row cap
    angles = math.pi * np.arange(200) / 200.0
    w = np.column_stack([np.cos(angles), np.sin(angles)])
    hi = np.ones(200)
    want = 400.0 * math.tan(math.pi / 400.0)
    assert _one_lane(w, -hi, hi) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_polygon_areas_match_polygon_area(n):
    """The lane-wise kernel against the scalar reference, ==, in one call
    and one lane at a time, on Haar complement frames with centered,
    shifted and empty slab systems."""
    rng = np.random.default_rng(n)
    lanes = 600
    frames = complement_bases(haar_bases(n, n - 2, n, np.arange(lanes)))
    half = rng.uniform(0.2, 1.0, size=(lanes, n))
    shift = rng.normal(size=(lanes, n)) * np.repeat([0.0, 0.4, 3.0], lanes // 3)[:, None]
    lo, hi = shift - half, shift + half
    lo[-50:, 0], hi[-50:, 0] = 5.0, 6.0  # the first row's slab misses the rest
    got = _assert_lanes_match(_volumes, frames, np.arange(lanes), lo, hi)
    assert 0 < np.count_nonzero(got) < lanes


def test_polygon_areas_degenerate_lanes():
    # parallel rows (no seed pair), then a regular lane
    frames = np.array([[[1.0, 0.0], [2.0, 0.0], [0.5, 0.0]], [[1.0, 0.0], [0.0, 1.0], [0.7, 0.7]]])
    lo = np.array([[-1.0, -1.0, -1.0], [-0.5, -0.5, -0.6]])
    got = _polygon_lanes_match(frames, np.arange(len(frames)), lo, -lo)
    assert got[0] == 0.0 and got[1] > 0.0
    # seed determinants just below, at and above the threshold 1e-14 (1 + 1)^2;
    # then 3.536 t, which lies between 1e-14 (1 + 3.536)^2 computed with
    # Python's float pow and with x * x (both twins square with x * x, so the
    # lane is degenerate)
    frames = np.array([[[1.0, 0.0], [1.0, t]] for t in (3.9e-14, 4e-14, 4.1e-14)]
                      + [[[3.536, 0.0], [0.0, 5.818805429864252e-14]]])
    lo = -np.ones((4, 2))
    got = _polygon_lanes_match(frames, np.arange(len(frames)), lo, -lo)
    assert got[0] == 0.0 and got[1] > 0.0 and got[2] > 0.0 and got[3] == 0.0
    # strips narrower and wider than the clip tolerance 1e-14 (1 + 1): a
    # three-row frame takes the closed form, which keeps the narrow strip's
    # exact area (the clip gave it 0.0)
    frames = np.array([[[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]] * 2)
    lo = np.array([[-0.5, -0.5, 0.0]] * 2)
    hi = np.array([[0.5, 0.5, 1e-15], [0.5, 0.5, 1e-13]])
    got = _polygon_lanes_match(frames, np.arange(2), lo, hi)
    assert got[0] == float(exact_slab_volume(frames[0], lo[0], hi[0])) == 1e-15
    assert got[1] == float(exact_slab_volume(frames[1], lo[1], hi[1])) == 1e-13
    assert _volumes(np.zeros((0, 3, 2)), np.zeros(0, int), np.zeros((0, 3)), np.zeros((0, 3))).size == 0


_EDGE_KINDS = ("generic", "parallel", "near-seed", "straddle", "zero", "exact", "narrow", "corner")


def _edge_case(rng, kind, m):
    """An m-row 2-D slab system (W, lo, hi) of one kind, its rows in the
    kernel's order i0, i1, then the others: generic rows and bounds; a later
    row within 10^-12..10^-6 (relative) of an earlier row other than the seeds
    (m >= 4), or of a seed row, parallel or antiparallel, and shorter; two
    later rows other than the first 10^-13..10^-5 apart on either side of the
    axis threshold of _edge_sum_areas (|p| = 2 |q| with the first on s), their
    lines through one point of the seed parallelogram (m >= 5); one to
    max(1, m - 3) zero rows whose slabs hold 0, as a facet's merged rows have,
    the only one at m = 3; a later row exactly
    parallel to an earlier one, or a multiple that rounds; a slab of any row
    1e-16..1e-14 (relative) wide across the parallelogram of two others; or a
    slab of a later row that cuts a sliver off a corner of the seed
    parallelogram, or touches it there, or just misses it."""
    W = rng.normal(size=(m, 2))
    half = rng.uniform(0.05, 1.0, size=m)
    centre = rng.normal(size=m) * rng.choice([0.0, 0.5, 3.0])
    lo, hi = centre - half, centre + half
    i0, i1, _ = _polygon_seed_rows(W.tolist())
    order = [i0, i1] + [i for i in range(m) if i not in (i0, i1)]
    W, lo, hi = W[order], lo[order], hi[order]
    j = 2 + rng.integers(m - 2)
    if kind in ("parallel", "near-seed", "exact"):
        if kind == "parallel":
            j = 3 + rng.integers(m - 3)
            s = 2 + rng.integers(j - 2)
        else:
            s = rng.integers(2 if kind == "near-seed" else j)
        if kind != "exact":
            tilt = 10.0 ** rng.uniform(-12.0, -6.0) * rng.normal(size=2)
            W[j] = rng.choice([1.0, -1.0]) * rng.uniform(0.3, 1.0) * W[s] + np.linalg.norm(W[s]) * tilt
        else:
            W[j] = rng.choice([0.5, -0.25, -1.0, 0.3, -0.7]) * W[s]
    elif kind == "straddle":
        # seed coordinates alpha, beta below 0.45, which keep the seeds, and
        # p / q = alpha w_0 / (beta w_1) below 1 for the first row
        w0, w1 = hi[0] - lo[0], hi[1] - lo[1]
        beta = rng.choice([1.0, -1.0], size=3) * rng.uniform(0.05, 0.4, size=3) * min(1.0, 0.2 * w0 / w1)
        ratio = np.array([rng.uniform(-1.0, 1.0), 2.0, 2.0])
        ratio[1:] *= rng.choice([1.0, -1.0]) * (1.0 + np.array([-1.0, 1.0]) * 10.0 ** rng.uniform(-13.0, -5.0))
        alpha = ratio * beta * w1 / w0
        rows = [2] + list(rng.choice(np.arange(3, m), size=2, replace=False))
        W[rows] = alpha[:, None] * W[0] + beta[:, None] * W[1]
        point = np.linalg.solve(W[:2], [rng.uniform(lo[0], hi[0]), rng.uniform(lo[1], hi[1])])
        for r in rows[1:]:
            width = rng.uniform(0.05, 1.0) * np.abs(W[r]).sum()
            if rng.integers(2):
                lo[r], hi[r] = W[r] @ point, W[r] @ point + width
            else:
                lo[r], hi[r] = W[r] @ point - width, W[r] @ point
    elif kind == "zero":
        rows = 2 + rng.choice(m - 2, size=rng.integers(1, max(2, m - 2)), replace=False)
        W[rows] = 0.0
        lo[rows], hi[rows] = -rng.uniform(0.0, 1.0, size=len(rows)), rng.uniform(0.0, 1.0, size=len(rows))
    elif kind in ("narrow", "corner"):
        if kind == "narrow":
            j = rng.integers(m)
        a, b = [i for i in range(m) if i != j][:2]
        corners = np.linalg.solve(W[[a, b]], [[lo[a], lo[a], hi[a], hi[a]], [lo[b], hi[b], lo[b], hi[b]]])
        values = W[j] @ corners
        scale = np.abs(values).max() + values.max() - values.min()
        if kind == "narrow":
            lo[j] = rng.uniform(values.min(), values.max())
            hi[j] = lo[j] + 10.0 ** rng.uniform(-16.0, -14.0) * scale
        else:
            depth = rng.choice([1.0, -1.0, 0.0]) * 10.0 ** rng.uniform(-14.0, -2.0) * scale
            if rng.integers(2):
                lo[j], hi[j] = values.max() - depth, values.max() + scale
            else:
                lo[j], hi[j] = values.min() - scale, values.min() + depth
    return W, lo, hi


def _edge_sum_bound(W, lo, hi, order):
    """The rounding bound kernels._edge_sum_areas states for one
    non-degenerate system, its rows in the kernel's order: 96 u S (1 +
    sum_j E_j / M_j) over the rows j other than the seeds, no term for a
    zero row, E_j and M_j as kernels._edge_sum_areas defines them."""
    W, lo, hi = W.tolist(), lo.tolist(), hi.tolist()
    i0, i1, *rest = order
    (a00, a01), (a10, a11) = W[i0], W[i1]
    det = abs(a00 * a11 - a01 * a10)
    w0, w1 = hi[i0] - lo[i0], hi[i1] - lo[i1]
    c0, c1 = lo[i0] + hi[i0], lo[i1] + hi[i1]
    ratio = 0.0
    for j in rest:
        x, y = W[j]
        a, b = (abs(x * a11) + abs(y * a10)) / det, (abs(a00 * y) + abs(a01 * x)) / det
        big = max(abs(x * a11 - y * a10) / det * w0, abs(a00 * y - a01 * x) / det * w1)
        if big > 0.0:
            ratio += (a * (w0 + abs(c0)) + b * (w1 + abs(c1)) + 2.0 * abs(lo[j]) + 2.0 * abs(hi[j])) / big
    return 96.0 * 2.0**-53 * (w0 * w1 / det) * (1.0 + ratio)


def _assert_within_the_edge_sum_bound(systems, row_exp, bound_exp):
    """One kernel call on the systems of one m, rows scaled by 2^row_exp and
    bounds by 2^bound_exp, against the exact rational area of the float
    systems."""
    W = np.stack([s[0] for s in systems]) * 2.0**row_exp
    lo, hi = (np.stack([s[k] for s in systems]) * 2.0**bound_exp for k in (1, 2))
    tables = kernels.frame_tables(W)
    got = kernels.table_volumes(tables, np.arange(len(W)), lo, hi)
    assert (got >= 0.0).all()
    for k in np.flatnonzero(tables.clip.ok):
        error = abs(Fraction(got[k]) - exact_polygon_area(W[k], lo[k], hi[k]))
        assert error <= Fraction(_edge_sum_bound(W[k], lo[k], hi[k], tables.clip.order[k]))


# the kinds that _edge_case draws at m = 3, where there is one row other than
# the seeds
_KINDS_OF_3_ROWS = ("generic", "near-seed", "zero", "exact", "narrow", "corner")


@pytest.mark.parametrize("kind", _KINDS_OF_3_ROWS)
@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0, 40]), st.sampled_from([-40, 0, 40]))
def test_areas_of_3_rows_are_within_their_stated_bound(kind, seed, row_exp, bound_exp):
    # as at four rows below: 3,000 systems per kind (rows scaled by 2^-40
    # fall below the seed pair's degeneracy floor, 1e-14 (1 + max |w|)^2,
    # which is absolute)
    rng = np.random.default_rng(seed)
    _assert_within_the_edge_sum_bound([_edge_case(rng, kind, 3) for _ in range(100)], row_exp, bound_exp)


@pytest.mark.parametrize("kind", [kind for kind in _EDGE_KINDS if kind != "straddle"])
@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0, 40]), st.sampled_from([-40, 0, 40]))
def test_four_row_areas_are_within_their_stated_bound(kind, seed, row_exp, bound_exp):
    # the closed form against the exact rational area of the float system:
    # 100 systems of one kind per example, 3,000 per kind, rows scaled by
    # 2^0 or 2^40 and bounds by 2^-40, 2^0 or 2^40, in one kernel call
    rng = np.random.default_rng(seed)
    _assert_within_the_edge_sum_bound([_edge_case(rng, kind, 4) for _ in range(100)], row_exp, bound_exp)


@pytest.mark.parametrize("kind", _EDGE_KINDS)
@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0, 40]), st.sampled_from([-40, 0, 40]))
def test_areas_of_five_to_eight_rows_are_within_their_stated_bound(kind, seed, row_exp, bound_exp):
    # the same at m = 5..8: 25 systems of each m per example, 1,000 per kind
    rng = np.random.default_rng(seed)
    for m in (5, 6, 7, 8):
        _assert_within_the_edge_sum_bound([_edge_case(rng, kind, m) for _ in range(25)], row_exp, bound_exp)


def test_the_polygon_oracle_equals_the_vertex_oracle():
    # exact_polygon_area, which the accuracy families take for speed, is
    # exact_slab_volume's rational: small integer systems with repeated,
    # parallel and zero rows, and random ones of each kind
    rng = np.random.default_rng(7)
    for _ in range(150):
        m = int(rng.integers(2, 6))
        W = rng.integers(-2, 3, size=(m, 2)).astype(float)
        W[rng.random(m) < 0.15] = 0.0
        lo = rng.integers(-4, 1, size=m) / 2.0
        hi = lo + rng.integers(0, 4, size=m) / 2.0
        if np.linalg.matrix_rank(W) == 2:
            assert exact_polygon_area(W, lo, hi) == exact_slab_volume(W, lo, hi)
    for kind in _EDGE_KINDS:
        for m in (4, 5):
            W, lo, hi = _edge_case(rng, kind, m + (kind == "straddle"))
            assert exact_polygon_area(W, lo, hi) == exact_slab_volume(W, lo, hi)


def test_lanes_of_3_rows_equal_the_twin_in_calls_of_many_frames():
    _lanes_equal_the_twin_in_calls_of_many_frames(3)


def test_four_row_lanes_equal_the_twin_in_calls_of_many_frames():
    _lanes_equal_the_twin_in_calls_of_many_frames(4)


@pytest.mark.parametrize("m", [5, 6, 7, 8])
def test_lanes_of_five_to_eight_rows_equal_the_twin_in_calls_of_many_frames(m):
    _lanes_equal_the_twin_in_calls_of_many_frames(m)


def _lanes_equal_the_twin_in_calls_of_many_frames(m):
    # every kind of system, 4 frames of each of 10 lanes each, and lanes
    # whose rows are parallel to a seed row or to each other, or zero, or all
    # zero: the lanes of one call, and each lane alone, == the twin
    rng = np.random.default_rng(38 + m)
    kinds = _KINDS_OF_3_ROWS if m == 3 else [kind for kind in _EDGE_KINDS if m > 4 or kind != "straddle"]
    systems = [_edge_case(rng, kind, m) for _ in range(4) for kind in kinds]
    frames = np.stack([W for W, _, _ in systems])
    frame = np.repeat(np.arange(len(frames)), 10)
    lo, hi = np.array([systems[k][1] for k in frame]), np.array([systems[k][2] for k in frame])
    shift = rng.normal(size=lo.shape) * rng.choice([0.0, 0.1, 1.0], size=(len(frame), 1))
    zero = ~frames.any(axis=2)[frame]
    shift[zero] = 0.0  # keep 0 in a zero row's slab
    got = _polygon_lanes_match(frames, frame, lo + shift, hi + shift)
    assert 0 < np.count_nonzero(got) < len(got)
    # each merge case of two rows (of one row at m = 3): both parallel to
    # seed rows, one parallel to the other, one zero and one generic or
    # parallel to a seed row, both zero, then short generic rows past four
    # rows; eight frames of rows drawn from those; and a frame whose rows
    # other than the seeds are zero
    seeds = np.array([[1.0, 0.25], [-0.5, 1.0]])
    rows = [[2.0, 0.5], [0.3, -0.7], [-1.0, 2.0], [-0.6, 1.4], [0.0, 0.0], [4.0, 1.0], [0.6, -1.4]]
    pairs = ([[2.0, 0.5], [0.3, -0.7]], [[0.3, -0.7], [-1.0, 2.0]], [[0.3, -0.7], [-0.6, 1.4]],
             [[0.0, 0.0], [0.3, -0.7]], [[0.3, -0.7], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]],
             [[0.0, 0.0], [2.0, 0.5]], [[4.0, 1.0], [-1.0, 2.0]]) if m > 3 else [[row] for row in rows]
    frames = np.array([np.vstack([seeds, pair, rng.uniform(-0.5, 0.5, size=(m - 2 - len(pair), 2))]) for pair in pairs]
                      + [np.vstack([seeds, [rows[i] for i in rng.choice(len(rows), size=m - 2)]]) for _ in range(8)]
                      + [np.vstack([seeds, np.zeros((m - 2, 2))])])
    frame = np.repeat(np.arange(len(frames)), 12)
    lo = rng.uniform(-1.0, 0.2, size=(len(frame), m))
    hi = lo + rng.uniform(0.0, 1.2, size=lo.shape)
    got = _polygon_lanes_match(frames, frame, lo, hi)
    for k, l, h, value in zip(frame, lo, hi, got):
        _assert_exact(frames[k], l, h, value)


def test_a_seed_slab_narrower_than_the_clip_tolerance_keeps_its_area():
    # the seed row i0's slab is two ulps wide: the clip read 6.03e-9 here
    # (ROADMAP item 1(c)); the exact area is 1.26e-14
    W = np.array([[1.0158177, -0.69681254], [-0.2933315, 0.18012433], [1.43121931, -1.09981865],
                  [-0.29009949, -0.13643533]])
    edge = -2.39166721
    lo = np.array([-0.9397, -0.8395, edge, -1e6])
    hi = np.array([0.9397, 0.8395, np.nextafter(np.nextafter(edge, 0.0), 0.0), 1e6])
    got = _one_lane(W, lo, hi)
    exact = exact_slab_volume(W, lo, hi)
    assert 1.26e-14 < float(exact) < 1.27e-14
    assert abs(Fraction(got) - exact) <= Fraction(_edge_sum_bound(W, lo, hi, kernels._clip_tables(W[None]).order[0]))


@pytest.mark.parametrize("m", [4, 5])
def test_a_corner_sliver_of_a_plane_lane_keeps_its_area(m):
    # x + y >= 2 - 2^-25 cuts a triangle of 2^-51 off the corner (1, 1) of
    # the unit square, 1e-16 of the seed rectangle: a lane that is neither a
    # facet nor merged keeps it, where the sliver cut would give 0.0
    W = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0], [1.0, -2.0]][:m]
    lo, hi = [0.0, 0.0, 2.0 - 2.0**-25, -5.0, -9.0][:m], [1.0, 1.0, 3.0, 5.0, 9.0][:m]
    exact = exact_slab_volume(np.array(W), np.array(lo), np.array(hi))
    assert exact == Fraction(2) ** -51
    assert abs(Fraction(_one_lane(W, lo, hi)) - exact) <= exact * Fraction(1, 10**8)


@pytest.mark.parametrize("m", [3, 4, 5])
def test_a_merged_strip_keeps_its_area(m):
    # row 2 merges into the seed row 0 and leaves a strip 1e-15 or 1e-13
    # wide, far below 2^-48 of the seed rectangle before the merge: the edge
    # sum gives its exact area; where the merge empties the seed slab, or
    # meets it in a line, the lane is 0.0
    W = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.3, 0.7], [1.0, -2.0]][:m])
    lo = np.array([[-0.5, -0.5, 0.0, -5.0, -9.0]] * 4)[:, :m]
    hi = np.array([[0.5, 0.5, 1e-15, 5.0, 9.0]] * 4)[:, :m]
    hi[1, 2] = 1e-13
    lo[2, 2], hi[2, 2] = 0.5, 0.7
    lo[3, 2], hi[3, 2] = 0.6, 0.7
    got = _polygon_lanes_match(W[None], np.zeros(4, dtype=int), lo, hi)
    exact = [exact_slab_volume(W, l, h) for l, h in zip(lo, hi)]
    assert exact == [Fraction(1e-15), Fraction(1e-13), 0, 0]
    assert got[0] == 1e-15 and got[1] == pytest.approx(1e-13, rel=1e-15) and got[2] == got[3] == 0.0


@pytest.mark.parametrize("m", [3, 4, 5])
def test_a_lane_that_is_a_point_gives_zero(m):
    # 2x + y <= 0 and x >= 2y >= 0 meet in the one point 0, where the edge
    # sum leaves a few u: no edge is longer than _POINT, so the lane is 0.0
    rows = [0, 1, 3] if m == 3 else range(m)
    W = [[[2.0, 1.0], [1.0, -2.0], [1.0, -4.0], [0.0, 1.0], [1.0, 1.0]][i] for i in rows]
    lo, hi = [[-0.5, 0.0, 0.0, 0.0, -1.0][i] for i in rows], [[0.0, 0.5, 1.5, 0.5, 1.0][i] for i in rows]
    assert exact_slab_volume(np.array(W), np.array(lo), np.array(hi)) == 0
    assert _one_lane(W, lo, hi) == 0.0


@pytest.mark.parametrize("m,d,nonzero,digest", [
    (3, 2, 363, "b100c68266675567"), (4, 2, 291, "1d5312eaeedf1cae"), (5, 2, 258, "ab073697fbc8f154"),
    (6, 2, 208, "a3b5bae31217c6a6"), (4, 3, 380, "e2eabcf965461964"), (5, 3, 326, "dcfc9b8a2d16a47d"),
    (6, 3, 286, "97b9b6fcef89d7fd")])
def test_lanes_of_four_rows_or_more_keep_the_clips_bits(m, d, nonzero, digest):
    # the edge sum's bits (_edge_sum_areas): 2-D lanes, and the facets of
    # 3-D lanes; the (4, 2) and (5, 3) pins date from the four-row closed
    # form, the (3, 2) and (4, 3) pins from the one 2-D closed form, and the
    # others were the clip's, which the name recalls, until it was deleted
    #
    # The facets by pivoted elimination (kernels.polytope_tables) moved the
    # 3-D pins, with the same nonzero counts: (4, 3) from 53e06f3a3f36f62a,
    # 264 lanes by up to 341 ulp; (5, 3) from 0d973ddcd88d5aae, 223 lanes by
    # up to 450,731 ulp; (6, 3) from 1dc4c39b8053e187, 231 lanes by up to
    # 6,698,816 ulp.  The largest moves are slivers of 1.5e-8 and 4.8e-10,
    # off the exact volume by 3.5e-11 and 1.5e-10 relative now, 1.6e-11 and
    # 1.6e-9 before
    rng = np.random.default_rng(100 * m + d)
    frames = rng.normal(size=(6, m, d))
    frame = rng.integers(0, 6, size=400)
    half = rng.uniform(0.2, 1.0, size=(400, m))
    centre = rng.normal(size=(400, m)) * 0.5
    got = _volumes(frames, frame, centre - half, centre + half)
    assert np.count_nonzero(got) == nonzero
    assert hashlib.sha256(got.tobytes()).hexdigest()[:16] == digest


def test_interval_lengths_match_interval_length():
    """The lane-wise interval kernel against the scalar one, ==: zero and
    near-zero coefficients (feasible and not), empty and shifted lanes."""
    rng = np.random.default_rng(11)
    lanes, m = 900, 4
    w = rng.normal(size=(lanes, m))
    w[::7, 1] = 0.0
    w[1::7, 2] = 1e-301  # below the kernel's zero threshold
    w[2::7, 3] = -1e-299  # above it
    w[3::7, 0] = -1e-300
    half = rng.uniform(0.1, 1.0, size=(lanes, m))
    shift = rng.normal(size=(lanes, m)) * np.repeat([0.0, 0.5, 3.0], lanes // 3)[:, None]
    lo, hi = shift - half, shift + half
    got = _assert_lanes_match(_lengths, w[:, :, None], np.arange(lanes), lo, hi)
    assert np.array_equal(got, [kernels.interval_length(a, b, c) for a, b, c in zip(w, lo, hi)])
    assert 0 < np.count_nonzero(got) < lanes
    assert _lengths(np.zeros((0, 2, 1)), np.zeros(0, int), np.zeros((0, 2)), np.zeros((0, 2))).size == 0
    # a lane with no nonzero coefficient is unbounded unless a row is infeasible
    flat = np.array([[0.0, 1.0], [0.0, 0.0]])
    lo, hi = np.array([[1.0, -1.0], [-1.0, -1.0]]), np.array([[2.0, 1.0], [1.0, 1.0]])
    assert np.array_equal(_lengths(flat[:, :, None], [0], lo[:1], hi[:1]), [0.0])
    with pytest.raises(ValueError):
        kernels.interval_length(flat[1], lo[1], hi[1])
    with pytest.raises(ValueError):
        _lengths(flat[:, :, None], [0, 1], lo, hi)


def _assert_exact(W, lo, hi, got, rel=1e-13):
    """got is the exact volume of the float system within rel of its scale:
    the volume, or 1 for a volume below 1 (a lane that is empty in exact
    arithmetic must come out exactly 0.0)."""
    want = exact_slab_volume(W, lo, hi)
    if want == 0:
        assert got == 0.0
    else:
        assert abs(got - float(want)) <= rel * max(float(want), 1.0)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 10_000),
    st.integers(3, 6),
    st.permutations([0, 1]),
    st.tuples(st.sampled_from([1.0, -1.0]), st.sampled_from([1.0, -1.0])),
    st.sampled_from([0.0, 0.3, 1.5]),
)
def test_1d_and_2d_kernels_keep_their_bits_under_signed_permutations(seed, n, perm, signs, spread):
    # a frame with its columns permuted and negated gives == lengths and
    # areas, lane-wise and scalar: so a 1-D or 2-D block keeps its bits
    # whether or not an orthogonal factor that is a signed permutation
    # (what an SVD of an orthonormal 1- or 2-column frame gives) rotates it
    rng = np.random.default_rng(seed)
    lanes = 40
    half = rng.uniform(0.1, 1.0, size=(lanes, n))
    centre = spread * rng.normal(size=(lanes, n))
    lo, hi = centre - half, centre + half
    frame = np.arange(lanes) % 8
    frames = complement_bases(haar_bases(n, n - 2, seed, np.arange(8)))
    moved = frames[:, :, list(perm)] * np.array(signs)
    got = _volumes(frames, frame, lo, hi)
    assert np.array_equal(got, _assert_lanes_match(_volumes, moved, frame, lo, hi))
    lines = haar_directions(n, 8, seed)[:, :, None]
    got = _lengths(lines, frame, lo, hi)
    assert np.array_equal(got, _assert_lanes_match(_lengths, -lines, frame, lo, hi))


def test_polytope_volume_unit_cube():
    w = np.eye(3)
    hi = np.full(3, 0.5)
    assert _one_lane(w, -hi, hi) == pytest.approx(1.0)


def test_polytope_volume_cut_corner():
    # cube [0,1]^3 cut by x+y+z <= 1/2 leaves a corner simplex of volume 1/48
    w = np.vstack([np.eye(3), np.ones((1, 3))])
    lo = np.array([0.0, 0.0, 0.0, -10.0])
    hi = np.array([1.0, 1.0, 1.0, 0.5])
    assert _one_lane(w, lo, hi) == pytest.approx((0.5**3) / 6.0)


def test_polytope_volume_rotation_invariance():
    rng = np.random.default_rng(7)
    for _ in range(20):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        w = q  # rotated axes: still a unit cube
        hi = np.full(3, 0.5)
        assert _one_lane(w, -hi, hi) == pytest.approx(1.0, abs=1e-12)


_E1 = [1.0, 0.0, 0.0]


@pytest.mark.parametrize("extra,lo,hi", [
    # a slab through two opposite edges of the cube, and one through a
    # vertex (each once lost a section face)
    ([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]], [-1.0, -1.0], [1.0, 1.0]),
    ([[1.0, 1.0, 1.0]], [-10.0], [1.5 - 1.2e-12]),
    # a duplicated, a scaled and an antiparallel row: one facet each
    ([_E1], [-0.5], [0.5]),
    ([[2.0, 0.0, 0.0]], [-1.0], [1.0]),
    ([[-1.0, 0.0, 0.0], _E1], [-0.5, -0.5], [0.5, 0.5]),
], ids=["edges", "vertex", "duplicate", "scaled", "antiparallel"])
def test_polytope_volume_of_the_unit_cube_with_touching_slabs(extra, lo, hi):
    # [I_3; extra] with the cube's bounds +-1/2: the extra slabs hold the
    # cube, so the volume is 1 up to the vertex slab's 1.2e-12 cut (exactly
    # 1 - 1.2e-12**3 / 6)
    w = np.vstack([np.eye(3), extra])
    lo = np.concatenate([np.full(3, -0.5), lo])
    hi = np.concatenate([np.full(3, 0.5), hi])
    got = _one_lane(w, lo, hi)
    assert got == pytest.approx(1.0, abs=1e-14)
    _assert_exact(w, lo, hi, got, rel=1e-14)
    assert _volumes(np.stack([w, w]), [0, 1], np.stack([lo, lo]), np.stack([hi, hi])).tolist() == [got, got]


def test_polytope_volume_merges_rows_parallel_within_tau():
    # a row 1e-11 from e_1, and a cut between its bounds and e_1's: the merge
    # keeps the tighter interval, scaled about the seed-cell centre
    tilt = np.array([1.0, 1e-11, 0.0])
    w = np.vstack([np.eye(3), tilt])
    lo = np.array([-0.5, -0.5, -0.5, -0.25])
    hi = np.array([0.5, 0.5, 0.5, 0.5])
    assert _one_lane(w, lo, hi) == pytest.approx(0.75, abs=1e-11)
    # beyond tau the rows stay apart, and a wedge of the cube is cut off
    w[3] = [1.0, 0.5, 0.0]
    _assert_exact(w, lo, hi, _one_lane(w, lo, hi))
    # x + y in [0.1, 0.5] and -(x + y) in [0.1, 0.5]: each slab meets the
    # cube, and the merged interval is empty
    w = np.vstack([np.eye(3), [[1.0, 1.0, 0.0], [-1.0, -1.0, 0.0]]])
    lo = np.array([-0.5, -0.5, -0.5, 0.1, 0.1])
    hi = np.array([0.5, 0.5, 0.5, 0.5, 0.5])
    assert _one_lane(w, lo, hi) == 0.0


@pytest.mark.parametrize("n", [4, 5, 6])
def test_polytope_volumes_match_polytope_volume(n):
    """The lane-wise recursion against its scalar reference, ==, in one
    call and one lane at a time, on Haar complement frames with centered,
    shifted and empty slab systems; more lanes than one internal batch.
    Every 25th lane against the exact oracle."""
    rng = np.random.default_rng(n)
    lanes = 450
    frames = complement_bases(haar_bases(n, n - 3, n, np.arange(lanes)))
    half = rng.uniform(0.2, 1.0, size=(lanes, n))
    shift = rng.normal(size=(lanes, n)) * np.repeat([0.0, 0.4, 3.0], lanes // 3)[:, None]
    lo, hi = shift - half, shift + half
    lo[-40:, 0], hi[-40:, 0] = 5.0, 6.0  # the first row's slab misses the rest
    got = _assert_lanes_match(_volumes, frames, np.arange(lanes), lo, hi)
    assert 0 < np.count_nonzero(got) < lanes
    for lane in range(0, lanes, 25):
        _assert_exact(frames[lane], lo[lane], hi[lane], got[lane])


def _assert_polytope_lanes_match(frames, lo, hi):
    return _assert_lanes_match(_volumes, frames, np.arange(len(frames)), lo, hi)


def test_polytope_volumes_degenerate_lanes():
    # coplanar rows (no seed triple), then a regular lane
    frames = np.array([[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]], np.eye(3)])
    got = _assert_polytope_lanes_match(frames, -np.ones((2, 3)), np.ones((2, 3)))
    assert got.tolist() == [0.0, 8.0]
    # seed determinants just below, at and above the threshold 1e-14 (1 + 1)^3
    frames = np.array([np.diag([1.0, 1.0, t]) for t in (7.9e-14, 8e-14, 8.1e-14)])
    got = _assert_polytope_lanes_match(frames, -np.ones((3, 3)), np.ones((3, 3)))
    assert got[0] == 0.0 and got[1] > 0.0 and got[2] > 0.0
    assert _volumes(np.zeros((0, 4, 3)), np.zeros(0, int), np.zeros((0, 4)), np.zeros((0, 4))).size == 0


def test_polytope_volumes_cut_near_a_vertex():
    # the cube 2|y_i| <= 1 cut by x + y + z <= 1.5 - delta, 1e-12 and 0.1
    # from its corner (1/2, 1/2, 1/2): the corner simplex of volume
    # delta^3 / 6 goes
    frames = np.array([np.vstack([2.0 * np.eye(3), np.ones(3)])] * 3)
    delta = np.array([1.2e-12, 1.3e-12, 0.1])
    lo = np.tile([-1.0, -1.0, -1.0, -10.0], (3, 1))
    hi = np.column_stack([np.ones((3, 3)), 1.5 - delta])
    got = _assert_polytope_lanes_match(frames, lo, hi)
    assert got[:2] == pytest.approx(1.0, abs=1e-14) and got[2] == pytest.approx(1.0 - 0.1**3 / 6.0)
    for lane in range(3):
        _assert_exact(frames[lane], lo[lane], hi[lane], got[lane], rel=1e-14)


def test_polytope_volumes_lanes_die_part_way():
    # seeds from the cube rows, then x + y and y + z: lane 0 is empty by the
    # fourth row's hi side, lane 1 by the fifth row's lo side, lane 2 is the
    # cube
    frames = np.array([np.vstack([2.0 * np.eye(3), [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]])] * 3)
    lo = np.tile([-1.0, -1.0, -1.0, -1.2, -1.2], (3, 1))
    hi = -lo
    hi[0, 3] = -1.5
    lo[1, 4] = 1.5
    got = _assert_polytope_lanes_match(frames, lo, hi)
    assert got.tolist()[:2] == [0.0, 0.0] and got[2] == pytest.approx(1.0)


_HALF_INTEGER = st.integers(-4, 0).map(lambda i: i / 2.0)


@st.composite
def _small_integer_system(draw):
    """3 <= m <= 6 rows with entries in -2..2 spanning R^3, some repeated,
    negated or doubled, and half-integer bounds: slab planes through the
    polytope's vertices and coincident facets are common."""
    m = draw(st.integers(3, 6))
    rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3),
                         min_size=m, max_size=m))
    for i in range(1, m):
        if draw(st.booleans()):
            j = draw(st.integers(0, i - 1))
            rows[i] = [draw(st.sampled_from([1, -1, 2])) * c for c in rows[j]]
    w = np.array(rows, dtype=float)
    assume(np.all(np.abs(w).sum(axis=1) > 0) and np.linalg.matrix_rank(w) == 3)
    lo = np.array([draw(_HALF_INTEGER) for _ in range(m)])
    hi = lo + np.array([draw(st.integers(1, 4)) / 2.0 for _ in range(m)])
    return w, lo, hi


@settings(max_examples=150, deadline=None)
@given(_small_integer_system())
# a flat polytope, one of whose facets merges a row into a seed row and
# leaves a strip 6e-17 wide, the rounding of the facet's bounds
@example((np.array([[-2.0, 0.0, 0.0], [-2.0, 0.0, 2.0], [0.0, 0.0, -1.0], [1.0, 2.0, -2.0], [2.0, -2.0, -1.0]]),
          np.zeros(5), np.array([1.0, 0.5, 0.5, 0.5, 0.5])))
def test_polytope_volume_matches_the_exact_oracle_on_small_integer_systems(system):
    w, lo, hi = system
    got = polytope_volume(w, lo, hi)
    _assert_exact(w, lo, hi, got)
    assert _volumes(w[None], [0], lo[None], hi[None])[0] == got


@st.composite
def _facet_parallel_system(draw):
    """4 <= m <= 6 rows of small integers: a row w_i, a direction v, one or
    two free rows, and the rest of the form a_j w_i + b_j v, so that in
    w_i's facets they are parallel in exact arithmetic; in random row order,
    with half-integer bounds."""
    m = draw(st.integers(4, 6))
    small = st.lists(st.integers(-2, 2), min_size=3, max_size=3)
    wi, v = np.array(draw(small), dtype=float), np.array(draw(small), dtype=float)
    assume(np.linalg.matrix_rank(np.stack([wi, v])) == 2)
    free = draw(st.integers(1, 2 if m > 4 else 1))
    rows = [wi] + [np.array(draw(small), dtype=float) for _ in range(free)]
    for _ in range(m - 1 - free):
        rows.append(draw(st.integers(-2, 2)) * wi + draw(st.sampled_from([-2, -1, 1, 2])) * v)
    w = np.stack(rows)[draw(st.permutations(range(m)))]
    assume(np.all(np.abs(w).sum(axis=1) > 0) and np.linalg.matrix_rank(w) == 3)
    lo = np.array([draw(_HALF_INTEGER) for _ in range(m)])
    hi = lo + np.array([draw(st.integers(1, 4)) / 2.0 for _ in range(m)])
    return w, lo, hi


@settings(max_examples=100, deadline=None)
@given(_facet_parallel_system())
# test_open_defects.py's five-row lane: in row 1's facets rows 0, 3 and 4
# are w_1 - v, w_1 - 3 v and 2 w_1 - 5 v for v = (0, 1, 0); projected on an
# orthonormal basis of the facet plane they did not merge, and it read
# 0.0455317 for 11/240
@example((np.array([[-1.0, 1.0, 1.0], [-1.0, 2.0, 1.0], [0.0, 0.0, 1.0], [-1.0, -1.0, 1.0], [-2.0, -1.0, 2.0]]),
          np.array([-1.5, 0.0, 0.0, -1.0, 0.0]), np.array([0.5, 0.5, 0.5, 0.5, 1.0])))
# the pivot 6 of row 0: facet rows w_j - (w_j1 / 6) w_0 came out an ulp off
# parallel, and it read 0.0136176 for 7/512, where scale w_j - ratio_j w_0
# is exact
@example((np.array([[-4.0, 6.0, 2.0], [-2.0, 4.0, 2.0], [0.0, 4.0, 4.0], [-2.0, 2.0, 0.0], [1.0, 0.0, -1.0]]),
          np.array([-1.5, -1.0, -1.5, -0.5, -1.5]), np.array([-1.0, -0.5, 0.0, 0.5, -0.5])))
# two flat lanes, empty in exact arithmetic, that read 2.6e-33 and 5.1e-19
# without the facets' merged-lane rule
@example((np.array([[-4.0, 1.0, -1.0], [2.0, -1.0, 0.0], [8.0, -2.0, 2.0], [0.0, 1.0, 0.0], [-2.0, 2.0, 1.0]]),
          np.array([-1.0, -1.0, 0.0, -1.5, -2.0]), np.array([0.0, 0.5, 2.0, -0.5, -1.5])))
@example((np.array([[1.0, 0.0, -2.0], [6.0, 2.0, 0.0], [0.0, 4.0, 6.0], [-2.0, -2.0, -2.0], [-2.0, -2.0, -2.0],
                    [-1.0, 1.0, 2.0]]),
          np.array([-1.5, -0.5, -2.0, -1.5, 0.0, -2.0]), np.array([0.5, 0.0, -1.0, 0.5, 0.5, -0.5])))
def test_polytope_volume_of_facets_with_rows_parallel_in_exact_arithmetic(system):
    # the facet rows scale w_j - ratio_j w_i (kernels.polytope_tables) of
    # small integers are exact, so they stay parallel and _clip_tables
    # merges them; the facets' merged-lane rule (_polygon_areas) keeps the
    # flat lanes 0.0
    w, lo, hi = system
    got = polytope_volume(w, lo, hi)
    _assert_exact(w, lo, hi, got)
    assert _volumes(w[None], [0], lo[None], hi[None])[0] == got


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([("paired", 4, 1), ("paired", 5, 2), ("paired", 6, 3), ("block", 6, 3)]),
    st.floats(-13.0, -8.0),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 0.2]),
)
def test_polytope_volume_near_sharp_subspaces(case, log_tilt, seed, spread):
    # the cube section by the complement of a sharp subspace tilted by
    # 1e-13..1e-8: up to three pairs of rows nearly parallel, theta <= 7.3
    # tilt apart.  A merged row's slab tilts by theta about the seed-cell
    # centre, which moves the volume by at most 2 theta R S, with R <= 1.22
    # and S <= pi R^2 for these cells: at most 3 x 2 x 10 tilt x 1.25 x
    # pi 1.25^2 < 400 tilt.  Rows just beyond tau apart lose about u / tau
    kind, n, k = case
    rng = np.random.default_rng(seed)
    e = (sharp_paired_subspace if kind == "paired" else sharp_block_subspace)(n, k)
    tilt = 10.0**log_tilt
    basis = np.linalg.qr(e.basis + tilt * rng.normal(size=(n, k)))[0]
    w = complement_bases(basis[None])[0]
    center = spread * rng.normal(size=n)
    lo, hi = center - 0.5, center + 0.5
    got = polytope_volume(w, lo, hi)
    assert _volumes(w[None], [0], lo[None], hi[None])[0] == got
    _assert_exact(w, lo, hi, got, rel=1e-12 + 400.0 * tilt)


def irwin_hall_at(c, t):
    """Density at t of sum(c_j V_j), V_j iid uniform on [0, 1]: the signed
    sum kernels.irwin_hall_sums over (n-1)! prod c; for rows c (B, n) and
    t (B,), that of each row."""
    c = np.asarray(c, dtype=float)
    total = kernels.irwin_hall_sums(c, t)
    scale = math.factorial(c.shape[-1] - 1) * np.prod(c, axis=-1)
    return total[0] / float(scale) if c.ndim == 1 else np.array(total) / scale


@_KEEP_ID
def test_irwin_hall_closed_forms(backend):
    # density of U1 + U2 (triangle) at the peak and halfway down
    assert irwin_hall_at(np.array([1.0, 1.0]), 1.0) == pytest.approx(1.0)
    assert irwin_hall_at(np.array([1.0, 1.0]), 0.5) == pytest.approx(0.5)
    # three uniforms at the center: 3/4
    assert irwin_hall_at(np.array([1.0, 1.0, 1.0]), 1.5) == pytest.approx(0.75)


@_KEEP_ID
def test_irwin_hall_outside_support(backend):
    assert irwin_hall_at(np.array([1.0, 1.0]), 2.5) == pytest.approx(0.0, abs=1e-14)


_UNIT_ROUNDOFF = 2.0**-53


def _irwin_hall_oracle(c, t):
    """(density, cancellation scale) at 60 digits.

    The density is sum_S (-1)^|S| (t - s_S)_+^(n-1) over subsets S of the
    coefficients, s_S their sum, divided by (n-1)! prod c.  Rounding s_S and
    t - s_S perturbs each term by about (n-1) u t (t - s_S)^(n-2), so the
    cancellation scale t sum_S (t - s_S)_+^(n-2) / ((n-1)! prod c) bounds what
    the signed sum can lose (0 for n = 1, which has no cancellation).
    """
    n = len(c)
    with mpmath.workdps(60):
        cs = [mpmath.mpf(float(x)) for x in c]
        tm = mpmath.mpf(float(t))
        total = scale = mpmath.mpf(0)
        for mask in itertools.product((0, 1), repeat=n):
            diff = tm - mpmath.fsum(ci for ci, bit in zip(cs, mask) if bit)
            if diff > 0:
                total += (-1) ** sum(mask) * diff ** (n - 1)
                if n > 1:
                    scale += tm * diff ** (n - 2)
        norm = math.factorial(n - 1) * mpmath.fprod(cs)
        return float(total / norm), float(scale / norm)


def test_irwin_hall_matches_mpmath_oracle():
    # Haar-normal magnitudes (as in hyperplane sections) and coefficients
    # within a factor 3, at the center and at a random point of the support.
    # Where the cancellation scale is small against the density the error is
    # within 1e-12 relative; everywhere it stays within n u times that scale.
    rng = np.random.default_rng(21)
    well_conditioned = 0
    for n in range(1, 9):
        coefficients = [np.abs(d) for d in haar_directions(n, 15, seed=n)]
        coefficients += [rng.uniform(1.0, 3.0, size=n) for _ in range(15)]
        for c in coefficients:
            for t in (0.5 * c.sum(), rng.uniform(0.1, 0.9) * c.sum()):
                want, scale = _irwin_hall_oracle(c, t)
                err = abs(irwin_hall_at(c, t) - want)
                assert err <= n * _UNIT_ROUNDOFF * scale + 4.0 * _UNIT_ROUNDOFF * want
                if n * _UNIT_ROUNDOFF * scale <= 1e-13 * want:
                    assert err <= 1e-12 * want
                    well_conditioned += 1
    assert well_conditioned >= 300


def test_irwin_hall_bounds_cover_the_rounding_error():
    # Haar-normal magnitudes, and rows with small widths beside two wide
    # ones, whose signed sums cancel (as near Ball's maximizer): each total
    # at the center is within its bound of the 60-digit sum
    rng = np.random.default_rng(42)
    for n in range(2, 9):
        rows = [np.abs(d) for d in haar_directions(n, 8, seed=50 + n)]
        rows += [np.r_[1.0, 0.9, rng.uniform(1e-5, 1e-3, n - 2)] for _ in range(4)]
        c = np.array(rows)
        t = 0.5 * c.sum(axis=1)
        for row, tt, total, bound in zip(c.tolist(), t.tolist(), kernels.irwin_hall_sums(c, t),
                                         kernels.irwin_hall_bounds(c, t).tolist()):
            with mpmath.workdps(60):
                diffs = [(mpmath.mpf(tt) - mpmath.fsum(x for x, bit in zip(row, mask) if bit), sum(mask))
                         for mask in itertools.product((0, 1), repeat=n)]
                want = mpmath.fsum((-1) ** size * diff ** (n - 1) for diff, size in diffs if diff > 0)
                assert abs(total - want) <= bound, (n, row)
    with pytest.raises(ValueError):
        kernels.irwin_hall_bounds(np.ones((1, 1)), np.ones(1))


@_KEEP_ID
def test_irwin_hall_guards(backend):
    with pytest.raises(ValueError):
        irwin_hall_at(np.array([1.0, -1.0]), 0.0)
    with pytest.raises(ValueError):
        irwin_hall_at(np.ones(25), 12.5)


def test_irwin_hall_sums_do_not_depend_on_the_chunk(monkeypatch):
    # chunks of 2^3 terms: blocks of 8 / 2^n rows up to n = 3, then one row
    # streamed as 2^(n - 3) chunks; every sum keeps its bits, and a call holds
    # at most 2^3 terms in an array
    rng = np.random.default_rng(40)
    cases = [(rng.uniform(0.1, 1.0, size=(7, n)), rng.uniform(0.2, 0.8)) for n in range(1, 9)]
    want = [kernels.irwin_hall_sums(c, f * c.sum(axis=1)) for c, f in cases]
    widths = []
    real_terms = kernels._block_terms

    def spy(c, t, head):
        for chunk in real_terms(c, t, head):
            widths.append(chunk.size)
            yield chunk

    monkeypatch.setattr(kernels, "TERM_CHUNK_BITS", 3)
    monkeypatch.setattr(kernels, "_block_terms", spy)
    for (c, f), sums in zip(cases, want):
        assert kernels.irwin_hall_sums(c, f * c.sum(axis=1)) == sums
    assert max(widths) == 8


def _formula_terms(c, t, n, start=0.0, sign=1.0):
    """signs * np.where(diff > 0.0, diff, 0.0) ** (n - 1) (the Heaviside
    step at n = 1) over the subset sums of the columns of c (B, q) added
    to start, built by doubling: bit j of a term's index takes column j."""
    sums, signs = np.full((len(c), 1), start), np.full(1, sign)
    for cj in c.T[..., None]:
        sums = np.concatenate([sums, sums + cj], axis=-1)
        signs = np.concatenate([signs, -signs])
    diff = t[:, None] - sums
    return signs * (diff > 0.0 if n == 1 else np.where(diff > 0.0, diff, 0.0) ** (n - 1))


@pytest.mark.parametrize("n", range(1, 25))
def test_signed_terms_have_the_formula_bits(n):
    # three rows up to n = TERM_CHUNK_BITS, one wider row streamed in chunks:
    # chunk i holds the subsets whose first n - TERM_CHUNK_BITS coordinates
    # make up subset i, its sums starting from that subset's sum
    rng = np.random.default_rng(80 + n)
    head = max(0, n - kernels.TERM_CHUNK_BITS)
    c = rng.uniform(0.1, 1.0, size=(1 if head else 3, n))
    t = rng.uniform(0.2, 0.8, size=len(c)) * c.sum(axis=1)
    covered = 0
    for rows, block in kernels.signed_terms(c, t):
        for i, terms in enumerate(block):
            start = 0.0
            for j in range(head):
                if i >> j & 1:
                    start += float(c[0, j])
            want = _formula_terms(c[rows, head:], t[rows], n, start, (-1.0) ** bin(i).count("1"))
            assert terms.shape == want.shape
            assert np.array_equal(terms.view(np.int64), want.view(np.int64))
            covered += terms.size
    assert covered == len(c) << n


def _fsum_of_terms(c, t):
    """math.fsum of each row's signed_terms, one chunk of rows at a time."""
    sums = []
    for _, chunks in kernels.signed_terms(c, t):
        if c.shape[1] > kernels.TERM_CHUNK_BITS:
            sums.append(math.fsum(itertools.chain.from_iterable(chunk[0].tolist() for chunk in chunks)))
        else:
            sums += [math.fsum(row) for row in next(chunks).tolist()]
    return sums


@pytest.mark.parametrize("chunk_bits", [20, 3])
def test_irwin_hall_sums_round_as_fsum(monkeypatch, chunk_bits):
    # every chunk takes the TwoSum tree: Haar rows (ties are common at
    # n = 3), rows with one or two widths 1e-2..1e-9 of the others off and
    # at the centre, and sums at a power of two; each sum has fsum's bits.
    # Chunks of 2^3 terms hold 8 / 2^n rows up to n = 3 and stream the
    # wider rows (up to n = 8 here) into fsum
    monkeypatch.setattr(kernels, "TREE_MIN_TERMS", 0)
    monkeypatch.setattr(kernels, "TERM_CHUNK_BITS", chunk_bits)
    rng = np.random.default_rng(44)
    cases = []
    top, total_terms = (17, 2**15) if chunk_bits == 20 else (9, 2**11)
    for n in range(2, top):
        c = np.abs(haar_directions(n, max(8, total_terms >> n), seed=60 + n))
        cases += [(c, 0.5 * c.sum(axis=1)), (c, 0.3 * c.sum(axis=1))]
    for n in range(3, 9):
        for narrow in (1, 2):
            c = rng.uniform(0.5, 2.0, size=(64, n))
            c[:, :narrow] *= 10.0 ** -rng.integers(2, 10, size=(64, 1))
            cases += [(c, f * c.sum(axis=1)) for f in (0.3, 0.5, 0.49999999)]
    for n in range(1, 7):
        c = np.array([np.ones(n), np.r_[np.ones(n - 1), 2.0]])
        cases += [(c, np.full(2, t)) for t in (0.5, 1.0, 1.5, 2.0)]
    certified = rows = 0
    for c, t in cases:
        assert kernels.irwin_hall_sums(c, t) == _fsum_of_terms(c, t)
        if c.shape[1] <= chunk_bits:
            for _, chunks in kernels.signed_terms(c, t):
                sums = kernels._tree_sums(next(chunks))
                certified += int(np.isfinite(sums).sum())
                rows += sums.size
    # the tree, not the fallback, gives most sums
    assert certified >= 0.8 * rows


def test_tree_sums_leave_rounding_ties_and_power_of_two_edges_to_fsum():
    # the tree's hi + lo is 1 + 2^-53 for the sum 1 + 2^-53 + 2^-120 (a tie
    # in floats, but the sum rounds up) and 1 - 2^-54 for 1 - 2^-54 - 2^-120
    # (within r = 1's cell above it, but below a power of two the cell is
    # half as wide); neither is certified
    terms = np.array([[1.0, 2.0**-53, 2.0**-120, 0.0],
                      [1.0, -2.0**-54, -2.0**-120, 0.0],
                      [1.0, -2.0**-56, -2.0**-120, 0.0]])
    got = kernels._tree_sums(terms)
    want = [math.fsum(row) for row in terms.tolist()]
    assert want[:2] == [1.0 + 2.0**-52, 1.0 - 2.0**-53]
    assert math.isnan(got[0]) and math.isnan(got[1])
    assert got[2] == want[2] == 1.0


def test_slab_volume_dispatch():
    # table_volumes on frame_tables runs the kernel of the frames'
    # dimension, for one lane as for two, and the reference dispatches alike
    for d in (1, 2, 3):
        for lanes in (1, 2):
            got = _volumes(np.eye(d)[None], np.zeros(lanes, dtype=int),
                                       -np.ones((lanes, d)), np.ones((lanes, d)))
            assert got == pytest.approx([2.0**d] * lanes)
        assert slab_volume(np.eye(d), -np.ones(d), np.ones(d)) == pytest.approx(2.0**d)
    with pytest.raises(ValueError):
        _volumes(np.eye(4)[None], [0], -np.ones((1, 4)), np.ones((1, 4)))
    with pytest.raises(ValueError):
        slab_volume(np.eye(4), -np.ones(4), np.ones(4))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_slab_volumes_one_lane_calls_keep_the_many_lane_bits(d, monkeypatch):
    """A one-lane table_volumes call runs interval_length at d = 1 and the
    lane kernel at d = 2 and 3, and a two-lane call runs the lane kernel;
    either way every lane has the bits of the many-lane call, of the call
    over either half of the lanes and of the scalar reference."""
    n = d + 2
    rng = np.random.default_rng(d)
    lanes = 60
    frames = complement_bases(haar_bases(n, n - d, d, np.arange(lanes)))
    half = rng.uniform(0.2, 1.0, size=(lanes, n))
    shift = rng.normal(size=(lanes, n)) * 0.5
    lo, hi = shift - half, shift + half
    frame = np.arange(lanes)
    many = _volumes(frames, frame, lo, hi)
    assert 0 < np.count_nonzero(many)
    assert np.array_equal(many, [slab_volume(w, l, h) for w, l, h in zip(frames, lo, hi)])
    calls = []
    scalar = kernels.interval_length

    def spy(w, lo, hi):
        calls.append(len(w))
        return scalar(w, lo, hi)

    monkeypatch.setattr(kernels, "interval_length", spy)
    ones = [_volumes(frames, frame[i : i + 1], lo[i : i + 1], hi[i : i + 1]) for i in range(lanes)]
    assert calls == ([n] * lanes if d == 1 else [])
    assert all(one.shape == (1,) for one in ones)
    assert np.array_equal(np.concatenate(ones), many)
    calls.clear()
    pairs = [_volumes(frames, frame[i : i + 2], lo[i : i + 2], hi[i : i + 2])
             for i in range(0, lanes, 2)]
    halves = [_volumes(frames, frame[part], lo[part], hi[part])
              for part in (slice(None, lanes // 2), slice(lanes // 2, None))]
    assert calls == []
    assert np.array_equal(np.concatenate(pairs), many)
    assert np.array_equal(np.concatenate(halves), many)


def _shared_frames(d, rng):
    """Five Haar frames (K, 5, d) and a sixth with a degenerate seed set
    (parallel rows for d = 2 and 3, a zero row for d = 1), 300 lanes that
    index them out of order (frames 1 and 4 unused, the sixth shared by 100
    lanes), and centred, shifted and empty bounds."""
    m, lanes = 5, 300
    frames = complement_bases(haar_bases(m, m - d, 7 * d, np.arange(6)))
    if d == 1:
        frames[5, 2] = 0.0
    else:
        frames[5] = np.outer(rng.uniform(0.5, 2.0, size=m), frames[5, 0])
    frame = rng.choice([5, 3, 0, 2], size=lanes)
    frame[::3] = 5
    half = rng.uniform(0.2, 1.0, size=(lanes, m))
    shift = rng.normal(size=(lanes, m)) * np.repeat([0.0, 0.4, 3.0], lanes // 3)[:, None]
    return frames, frame, shift - half, shift + half


@pytest.mark.parametrize("d", [1, 2, 3])
def test_lane_kernels_index_shared_frames(d):
    """Lanes that share frames, index them out of order and skip some, and a
    degenerate frame shared by many lanes: each lane is == the scalar kernel
    on its frame, the one-lane call and the call over either half."""
    frames, frame, lo, hi = _shared_frames(d, np.random.default_rng(30 + d))
    got = _volumes(frames, frame, lo, hi)
    want = [slab_volume(frames[k], l, h) for k, l, h in zip(frame, lo, hi)]
    assert np.array_equal(got, want)
    assert 0 < np.count_nonzero(got[frame != 5]) < np.count_nonzero(frame != 5)
    if d > 1:
        assert not got[frame == 5].any()
    ones = [_volumes(frames, frame[i : i + 1], lo[i : i + 1], hi[i : i + 1])[0]
            for i in range(len(frame))]
    assert np.array_equal(ones, got)
    cut = len(frame) // 2
    halves = [_volumes(frames, frame[part], lo[part], hi[part])
              for part in (slice(None, cut), slice(cut, None))]
    assert np.array_equal(np.concatenate(halves), got)
    # no lanes at all, with frames to index
    none = _volumes(frames, np.zeros(0, dtype=int), lo[:0], hi[:0])
    assert none.shape == (0,)


def _polygon_lanes_match(frames, frame, lo, hi):
    return _assert_lanes_match(_volumes, frames, frame, lo, hi)


def test_polygon_areas_of_400_and_3_gons_in_one_call():
    # frame 0 cuts the regular 400-gon of test_polygon_area_400_gon; the
    # lanes of frame 1 (its rows reversed) bind three sides, with outward
    # normals at angles 0, 0.665 pi and 1.33 pi, and leave the others slack,
    # so the widest lane holds 100 times the vertices of the narrowest
    angles = math.pi * np.arange(200) / 200.0
    w = np.column_stack([np.cos(angles), np.sin(angles)])
    frames = np.stack([w, w[::-1]])
    frame = np.array([1, 0, 1, 1])
    hi = np.ones((4, 200))
    hi[frame == 1] = 50.0
    lo = -hi
    for lane, scale in ((0, 1.0), (2, 0.5), (3, 2.0)):
        hi[lane, [199, 66]] = scale
        lo[lane, 133] = -scale
    got = _polygon_lanes_match(frames, frame, lo, hi)
    assert got[1] == pytest.approx(400.0 * math.tan(math.pi / 400.0), rel=1e-12)
    # the triangles are those of the three binding rows alone
    binding = [199, 66, 133]
    for lane in (0, 2, 3):
        triangle = (frames[1, binding], lo[lane, binding], hi[lane, binding])
        assert got[lane] == pytest.approx(_one_lane(*triangle), rel=1e-14)
        _assert_exact(*triangle, got[lane])
    assert got[2] == pytest.approx(got[0] / 4.0) and got[3] == pytest.approx(4.0 * got[0])


@pytest.mark.parametrize("m", [3, 5])
def test_polygon_areas_lanes_die_at_every_clip_step(m):
    # seeds 2 e_1 and 2 e_2 (the square |y_i| <= 1/2), then m - 2 unit rows,
    # each side in row order, hi then lo (the clip's steps): lane k misses
    # the square by side k alone; the last lane keeps an octagon-like cut of
    # the square
    angles = np.linspace(0.3, 2.8, m - 2)
    w = np.vstack([2.0 * np.eye(2), np.column_stack([np.cos(angles), np.sin(angles)])])
    steps = 2 * (m - 2)
    lo = np.tile(np.r_[-1.0, -1.0, np.full(m - 2, -0.6)], (steps + 1, 1))
    hi = -lo
    for k in range(steps):
        row = 2 + k // 2
        if k % 2:
            lo[k, row] = 3.0
        else:
            hi[k, row] = -3.0
    got = _polygon_lanes_match(w[None], np.zeros(steps + 1, dtype=int), lo, hi)
    assert not got[:-1].any() and 0.0 < got[-1] < 1.0
    _assert_exact(w, lo[-1], hi[-1], got[-1])


@pytest.mark.parametrize("m", [3, 5, 8])
def test_polygon_areas_end_with_every_vertex_count(m):
    # the regular 2m-gon of m slabs |<w_j, y>| <= 1 at angles pi j / m, with
    # all but c of its sides moved out of reach: one lane ends with each
    # count c from 3 to 2m, in one call
    angles = math.pi * np.arange(m) / m
    w = np.column_stack([np.cos(angles), np.sin(angles)])
    counts = range(3, 2 * m + 1)
    lo, hi = np.full((len(counts), m), -40.0), np.full((len(counts), m), 40.0)
    for lane, c in enumerate(counts):
        for side in {round(s * 2 * m / c) % (2 * m) for s in range(c)}:
            if side < m:
                hi[lane, side] = 1.0
            else:
                lo[lane, side - m] = -1.0
    got = _polygon_lanes_match(w[None], np.zeros(len(counts), dtype=int), lo, hi)
    for lane in range(len(counts)):
        _assert_exact(w, lo[lane], hi[lane], got[lane])
    assert got[-1] == pytest.approx(2.0 * m * math.tan(math.pi / (2 * m)))


@st.composite
def _shared_frame_batch(draw):
    """A batch of 2-8 lanes of small-integer slab systems in d = 2 or 3 that
    index 1-3 frames of m rows (entries in -2..2, some rows repeated,
    negated or doubled), with half-integer bounds."""
    d = draw(st.sampled_from([2, 3]))
    m = draw(st.integers(d, 5))
    frames = []
    for _ in range(draw(st.integers(1, 3))):
        rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=d, max_size=d),
                             min_size=m, max_size=m))
        for i in range(1, m):
            if draw(st.booleans()):
                j = draw(st.integers(0, i - 1))
                rows[i] = [draw(st.sampled_from([1, -1, 2])) * c for c in rows[j]]
        w = np.array(rows, dtype=float)
        assume(np.all(np.abs(w).sum(axis=1) > 0) and np.linalg.matrix_rank(w) == d)
        frames.append(w)
    lanes = draw(st.integers(2, 8))
    frame = np.array([draw(st.integers(0, len(frames) - 1)) for _ in range(lanes)])
    lo = np.array([[draw(_HALF_INTEGER) for _ in range(m)] for _ in range(lanes)])
    hi = lo + np.array([[draw(st.integers(1, 4)) / 2.0 for _ in range(m)] for _ in range(lanes)])
    return np.stack(frames), frame, lo, hi


@settings(max_examples=60, deadline=None)
@given(_shared_frame_batch())
def test_shared_frame_batches_match_the_scalar_kernels_and_the_exact_oracle(batch):
    frames, frame, lo, hi = batch
    got = _volumes(frames, frame, lo, hi)
    for k, l, h, value in zip(frame, lo, hi, got):
        assert value == slab_volume(frames[k], l, h)
        assert _volumes(frames, [k], l[None], h[None])[0] == value
        _assert_exact(frames[k], l, h, value)


def _fields(tables):
    """Every array of tables, nested tables flattened, in field order."""
    if isinstance(tables, tuple):
        return [a for field in tables for a in _fields(field)]
    return [tables]


def _assert_tables_equal(got, want):
    """Same kind, field by field the same dtype, shape and bytes."""
    assert type(got) is type(want)
    for a, b in zip(_fields(got), _fields(want), strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def _frame_stacks(draw):
    """1-4 frames (K, m, d), d in 1..3, m in d..5, of small nonzero integer
    rows, some repeated, negated or doubled (parallel rows merge in 3-D), or
    of Haar complements."""
    d = draw(st.integers(1, 3))
    m = draw(st.integers(max(d, 2), 5))
    count = draw(st.integers(1, 4))
    if m > d and draw(st.booleans()):
        return complement_bases(haar_bases(m, m - d, draw(st.integers(0, 99)), np.arange(count)))
    frames = []
    for _ in range(count):
        rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=d, max_size=d),
                             min_size=m, max_size=m))
        for i in range(1, m):
            if draw(st.booleans()):
                j = draw(st.integers(0, i - 1))
                rows[i] = [draw(st.sampled_from([1, -1, 2])) * c for c in rows[j]]
        assume(all(any(row) for row in rows))  # callers strip zero rows
        frames.append(rows)
    return np.array(frames, dtype=float)


@settings(max_examples=80, deadline=None)
@given(_frame_stacks())
def test_joined_one_frame_tables_equal_the_stacks_tables(frames):
    # tables built one frame at a time, or cut from another stack, and
    # joined, have the bits of the tables built on the call's own stack
    whole = kernels.frame_tables(frames)
    ones = [kernels.frame_tables(frames[k : k + 1]) for k in range(len(frames))]
    _assert_tables_equal(kernels.join_tables(ones), whole)
    parts = kernels.split_tables(whole)
    assert len(parts) == len(frames)
    for part, one in zip(parts, ones):
        _assert_tables_equal(part, one)
    _assert_tables_equal(kernels.join_tables(parts[::-1]), kernels.frame_tables(frames[::-1]))


def test_joined_tables_of_merged_and_plain_3d_frames():
    # a frame whose rows 3 and 4 merge into rows 0 and 1 (parallel within
    # _PARALLEL_SINE), and a Haar frame where no row merges: into and alpha
    # join, and the lanes keep their one-frame bits
    merged = np.vstack([np.eye(3), [[2.0, 0.0, 0.0], [0.0, -1.0, 1e-10]]])
    plain = complement_bases(haar_bases(5, 2, 3, np.arange(1)))[0]
    frames = np.stack([merged, plain])
    tables = kernels.join_tables([kernels.frame_tables(f[None]) for f in frames])
    _assert_tables_equal(tables, kernels.frame_tables(frames))
    assert tables.into.tolist() == [[-1, -1, -1, 0, 1], [-1] * 5]
    assert tables.alpha[0, 3:].tolist() == [2.0, -1.0] and (tables.alpha[1] == 1.0).all()
    rng = np.random.default_rng(4)
    frame = np.array([0, 1, 1, 0, 0, 1])
    half = rng.uniform(0.3, 1.0, size=(6, 5))
    lo, hi = -half, half
    got = kernels.table_volumes(tables, frame, lo, hi)
    assert np.array_equal(got, [slab_volume(frames[k], l, h) for k, l, h in zip(frame, lo, hi)])
    assert got.all()
