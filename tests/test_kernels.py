import itertools
import math

import mpmath
import numpy as np
import pytest
from exact_slab_volume import exact_slab_volume
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from slab_reference import polytope_volume, slab_volume

from margbounds import kernels
from margbounds.grassmann import complement_bases, haar_bases, haar_directions
from margbounds.sections import sharp_block_subspace, sharp_paired_subspace

# These tests carried a "[pure]" id while a compiled twin of the kernels
# existed; the one-value parameter keeps their ids stable.
_KEEP_ID = pytest.mark.parametrize("backend", [kernels.BACKEND])


def _one_lane(W, lo, hi):
    """The one-lane slab_volumes call on one slab system, asserted == the
    scalar reference slab_volume."""
    W, lo, hi = (np.asarray(a, dtype=float) for a in (W, lo, hi))
    got = kernels.slab_volumes(W[None], [0], lo[None], hi[None])[0]
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
    # 400-gon circumscribing the unit disk; the clipper has no vertex cap
    angles = math.pi * np.arange(200) / 200.0
    w = np.column_stack([np.cos(angles), np.sin(angles)])
    hi = np.ones(200)
    want = 400.0 * math.tan(math.pi / 400.0)
    assert _one_lane(w, -hi, hi) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_polygon_areas_match_polygon_area(n):
    """The lane-wise clipper against the scalar reference, ==, in one call
    and one lane at a time, on Haar complement frames with centered,
    shifted and empty slab systems."""
    rng = np.random.default_rng(n)
    lanes = 600
    frames = complement_bases(haar_bases(n, n - 2, n, np.arange(lanes)))
    half = rng.uniform(0.2, 1.0, size=(lanes, n))
    shift = rng.normal(size=(lanes, n)) * np.repeat([0.0, 0.4, 3.0], lanes // 3)[:, None]
    lo, hi = shift - half, shift + half
    lo[-50:, 0], hi[-50:, 0] = 5.0, 6.0  # the first row's slab misses the rest
    got = _assert_lanes_match(kernels.polygon_areas, frames, np.arange(lanes), lo, hi)
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
    # strips narrower and wider than the clip tolerance 1e-14 (1 + 1)
    frames = np.array([[[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]] * 2)
    lo = np.array([[-0.5, -0.5, 0.0]] * 2)
    hi = np.array([[0.5, 0.5, 1e-15], [0.5, 0.5, 1e-13]])
    got = _polygon_lanes_match(frames, np.arange(2), lo, hi)
    assert got[0] == 0.0 and got[1] > 0.0
    assert kernels.polygon_areas(np.zeros((0, 3, 2)), np.zeros(0, int), np.zeros((0, 3)), np.zeros((0, 3))).size == 0


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
    got = _assert_lanes_match(kernels.interval_lengths, w[:, :, None], np.arange(lanes), lo, hi)
    assert np.array_equal(got, [kernels.interval_length(a, b, c) for a, b, c in zip(w, lo, hi)])
    assert 0 < np.count_nonzero(got) < lanes
    assert kernels.interval_lengths(np.zeros((0, 2, 1)), np.zeros(0, int), np.zeros((0, 2)), np.zeros((0, 2))).size == 0
    # a lane with no nonzero coefficient is unbounded unless a row is infeasible
    flat = np.array([[0.0, 1.0], [0.0, 0.0]])
    lo, hi = np.array([[1.0, -1.0], [-1.0, -1.0]]), np.array([[2.0, 1.0], [1.0, 1.0]])
    assert np.array_equal(kernels.interval_lengths(flat[:, :, None], [0], lo[:1], hi[:1]), [0.0])
    with pytest.raises(ValueError):
        kernels.interval_length(flat[1], lo[1], hi[1])
    with pytest.raises(ValueError):
        kernels.interval_lengths(flat[:, :, None], [0, 1], lo, hi)


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
    got = kernels.polygon_areas(frames, frame, lo, hi)
    assert np.array_equal(got, _assert_lanes_match(kernels.polygon_areas, moved, frame, lo, hi))
    lines = haar_directions(n, 8, seed)[:, :, None]
    got = kernels.interval_lengths(lines, frame, lo, hi)
    assert np.array_equal(got, _assert_lanes_match(kernels.interval_lengths, -lines, frame, lo, hi))


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
    assert kernels.polytope_volumes(np.stack([w, w]), [0, 1], np.stack([lo, lo]), np.stack([hi, hi])).tolist() == [got, got]


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
    got = _assert_lanes_match(kernels.polytope_volumes, frames, np.arange(lanes), lo, hi)
    assert 0 < np.count_nonzero(got) < lanes
    for lane in range(0, lanes, 25):
        _assert_exact(frames[lane], lo[lane], hi[lane], got[lane])


def _assert_polytope_lanes_match(frames, lo, hi):
    return _assert_lanes_match(kernels.polytope_volumes, frames, np.arange(len(frames)), lo, hi)


def test_polytope_volumes_degenerate_lanes():
    # coplanar rows (no seed triple), then a regular lane
    frames = np.array([[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]], np.eye(3)])
    got = _assert_polytope_lanes_match(frames, -np.ones((2, 3)), np.ones((2, 3)))
    assert got.tolist() == [0.0, 8.0]
    # seed determinants just below, at and above the threshold 1e-14 (1 + 1)^3
    frames = np.array([np.diag([1.0, 1.0, t]) for t in (7.9e-14, 8e-14, 8.1e-14)])
    got = _assert_polytope_lanes_match(frames, -np.ones((3, 3)), np.ones((3, 3)))
    assert got[0] == 0.0 and got[1] > 0.0 and got[2] > 0.0
    assert kernels.polytope_volumes(np.zeros((0, 4, 3)), np.zeros(0, int), np.zeros((0, 4)), np.zeros((0, 4))).size == 0


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
def test_polytope_volume_matches_the_exact_oracle_on_small_integer_systems(system):
    w, lo, hi = system
    got = polytope_volume(w, lo, hi)
    _assert_exact(w, lo, hi, got)
    assert kernels.polytope_volumes(w[None], [0], lo[None], hi[None])[0] == got


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
    assert kernels.polytope_volumes(w[None], [0], lo[None], hi[None])[0] == got
    _assert_exact(w, lo, hi, got, rel=1e-12 + 400.0 * tilt)


@_KEEP_ID
def test_irwin_hall_closed_forms(backend):
    # density of U1 + U2 (triangle) at the peak and halfway down
    assert kernels.irwin_hall_at(np.array([1.0, 1.0]), 1.0) == pytest.approx(1.0)
    assert kernels.irwin_hall_at(np.array([1.0, 1.0]), 0.5) == pytest.approx(0.5)
    # three uniforms at the center: 3/4
    assert kernels.irwin_hall_at(np.array([1.0, 1.0, 1.0]), 1.5) == pytest.approx(0.75)


@_KEEP_ID
def test_irwin_hall_outside_support(backend):
    assert kernels.irwin_hall_at(np.array([1.0, 1.0]), 2.5) == pytest.approx(0.0, abs=1e-14)


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
                err = abs(kernels.irwin_hall_at(c, t) - want)
                assert err <= n * _UNIT_ROUNDOFF * scale + 4.0 * _UNIT_ROUNDOFF * want
                if n * _UNIT_ROUNDOFF * scale <= 1e-13 * want:
                    assert err <= 1e-12 * want
                    well_conditioned += 1
    assert well_conditioned >= 300


@_KEEP_ID
def test_irwin_hall_guards(backend):
    with pytest.raises(ValueError):
        kernels.irwin_hall_at(np.array([1.0, -1.0]), 0.0)
    with pytest.raises(ValueError):
        kernels.irwin_hall_at(np.ones(25), 12.5)


def test_slab_volume_dispatch():
    # slab_volumes runs the kernel of the frames' dimension, for one lane as
    # for two, and the reference dispatches alike
    for d in (1, 2, 3):
        for lanes in (1, 2):
            got = kernels.slab_volumes(np.eye(d)[None], np.zeros(lanes, dtype=int),
                                       -np.ones((lanes, d)), np.ones((lanes, d)))
            assert got == pytest.approx([2.0**d] * lanes)
        assert slab_volume(np.eye(d), -np.ones(d), np.ones(d)) == pytest.approx(2.0**d)
    with pytest.raises(ValueError):
        kernels.slab_volumes(np.eye(4)[None], [0], -np.ones((1, 4)), np.ones((1, 4)))
    with pytest.raises(ValueError):
        slab_volume(np.eye(4), -np.ones(4), np.ones(4))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_slab_volumes_one_lane_calls_keep_the_many_lane_bits(d, monkeypatch):
    """A one-lane slab_volumes call runs interval_length at d = 1 and the
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
    many = kernels.slab_volumes(frames, frame, lo, hi)
    assert 0 < np.count_nonzero(many)
    assert np.array_equal(many, [slab_volume(w, l, h) for w, l, h in zip(frames, lo, hi)])
    calls = []
    scalar = kernels.interval_length

    def spy(w, lo, hi):
        calls.append(len(w))
        return scalar(w, lo, hi)

    monkeypatch.setattr(kernels, "interval_length", spy)
    ones = [kernels.slab_volumes(frames, frame[i : i + 1], lo[i : i + 1], hi[i : i + 1]) for i in range(lanes)]
    assert calls == ([n] * lanes if d == 1 else [])
    assert all(one.shape == (1,) for one in ones)
    assert np.array_equal(np.concatenate(ones), many)
    calls.clear()
    pairs = [kernels.slab_volumes(frames, frame[i : i + 2], lo[i : i + 2], hi[i : i + 2])
             for i in range(0, lanes, 2)]
    halves = [kernels.slab_volumes(frames, frame[part], lo[part], hi[part])
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
    got = kernels.slab_volumes(frames, frame, lo, hi)
    want = [slab_volume(frames[k], l, h) for k, l, h in zip(frame, lo, hi)]
    assert np.array_equal(got, want)
    assert 0 < np.count_nonzero(got[frame != 5]) < np.count_nonzero(frame != 5)
    if d > 1:
        assert not got[frame == 5].any()
    ones = [kernels.slab_volumes(frames, frame[i : i + 1], lo[i : i + 1], hi[i : i + 1])[0]
            for i in range(len(frame))]
    assert np.array_equal(ones, got)
    cut = len(frame) // 2
    halves = [kernels.slab_volumes(frames, frame[part], lo[part], hi[part])
              for part in (slice(None, cut), slice(cut, None))]
    assert np.array_equal(np.concatenate(halves), got)
    # no lanes at all, with frames to index
    none = kernels.slab_volumes(frames, np.zeros(0, dtype=int), lo[:0], hi[:0])
    assert none.shape == (0,)


def _polygon_lanes_match(frames, frame, lo, hi):
    return _assert_lanes_match(kernels.polygon_areas, frames, frame, lo, hi)


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
    # seeds 2 e_1 and 2 e_2 (the square |y_i| <= 1/2), then m - 2 unit rows
    # clipped in row order, hi side then lo side: lane k misses the square by
    # clip step k's side and dies there; the last lane keeps an octagon-like
    # cut of the square
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
    got = kernels.slab_volumes(frames, frame, lo, hi)
    for k, l, h, value in zip(frame, lo, hi, got):
        assert value == slab_volume(frames[k], l, h)
        assert kernels.slab_volumes(frames, [k], l[None], h[None])[0] == value
        _assert_exact(frames[k], l, h, value)
