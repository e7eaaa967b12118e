import itertools
import math

import mpmath
import numpy as np
import pytest
from exact_slab_volume import exact_slab_volume
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from margbounds import kernels
from margbounds.grassmann import complement_bases, haar_bases, haar_directions
from margbounds.kernels import slab_volume
from margbounds.sections import sharp_block_subspace, sharp_paired_subspace

# These tests carried a "[pure]" id while a compiled twin of the kernels
# existed; the one-value parameter keeps their ids stable.
_KEEP_ID = pytest.mark.parametrize("backend", [kernels.BACKEND])


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
    assert kernels.polygon_area(w, lo, hi) == pytest.approx(1.0)


@_KEEP_ID
def test_polygon_area_rotated_square(backend):
    c, s = math.cos(0.3), math.sin(0.3)
    w = np.array([[c, s], [-s, c]])
    lo = np.array([-0.5, -1.0])
    hi = np.array([0.5, 1.0])
    assert kernels.polygon_area(w, lo, hi) == pytest.approx(2.0)


@_KEEP_ID
def test_polygon_area_extra_slack_constraint(backend):
    w = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    lo = np.array([-0.5, -0.5, -5.0])
    hi = np.array([0.5, 0.5, 5.0])
    assert kernels.polygon_area(w, lo, hi) == pytest.approx(1.0)


@_KEEP_ID
def test_polygon_area_octagon(backend):
    r = 1.0 / math.sqrt(2.0)
    w = np.array([[1.0, 0.0], [0.0, 1.0], [r, r], [r, -r]])
    hi = np.full(4, 1.0)
    got = kernels.polygon_area(w, -hi, hi)
    # regular octagon circumscribing constraints at distance 1
    assert got == pytest.approx(8.0 * (math.sqrt(2.0) - 1.0))


@_KEEP_ID
def test_polygon_area_degenerate_rows(backend):
    w = np.array([[1.0, 0.0], [2.0, 0.0]])
    assert kernels.polygon_area(w, np.array([-1.0, -1.0]), np.array([1.0, 1.0])) == 0.0


def test_polygon_area_400_gon():
    # 200 slabs |<w_j, y>| <= 1 at angles pi j / 200 cut out the regular
    # 400-gon circumscribing the unit disk; the clipper has no vertex cap
    angles = math.pi * np.arange(200) / 200.0
    w = np.column_stack([np.cos(angles), np.sin(angles)])
    hi = np.ones(200)
    want = 400.0 * math.tan(math.pi / 400.0)
    assert kernels.polygon_area(w, -hi, hi) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_polygon_areas_match_polygon_area(n):
    """The lane-wise clipper against the scalar one, ==, on Haar complement
    frames with centered, shifted and empty slab systems."""
    rng = np.random.default_rng(n)
    lanes = 600
    frames = complement_bases(haar_bases(n, n - 2, n, np.arange(lanes)))
    half = rng.uniform(0.2, 1.0, size=(lanes, n))
    shift = rng.normal(size=(lanes, n)) * np.repeat([0.0, 0.4, 3.0], lanes // 3)[:, None]
    lo, hi = shift - half, shift + half
    lo[-50:, 0], hi[-50:, 0] = 5.0, 6.0  # the first row's slab misses the rest
    got = kernels.polygon_areas(frames, lo, hi)
    want = [kernels.polygon_area(w, l, h) for w, l, h in zip(frames, lo, hi)]
    assert np.array_equal(got, want)
    assert 0 < np.count_nonzero(got) < lanes


def test_polygon_areas_degenerate_lanes():
    # parallel rows (no seed pair), then a regular lane
    frames = np.array([[[1.0, 0.0], [2.0, 0.0], [0.5, 0.0]], [[1.0, 0.0], [0.0, 1.0], [0.7, 0.7]]])
    lo = np.array([[-1.0, -1.0, -1.0], [-0.5, -0.5, -0.6]])
    got = kernels.polygon_areas(frames, lo, -lo)
    assert np.array_equal(got, [kernels.polygon_area(w, l, -l) for w, l in zip(frames, lo)])
    assert got[0] == 0.0 and got[1] > 0.0
    # seed determinants just below, at and above the threshold 1e-14 (1 + 1)^2;
    # then 3.536 t, which lies between 1e-14 (1 + 3.536)^2 computed with
    # Python's float pow and with x * x (both twins square with x * x, so the
    # lane is degenerate)
    frames = np.array([[[1.0, 0.0], [1.0, t]] for t in (3.9e-14, 4e-14, 4.1e-14)]
                      + [[[3.536, 0.0], [0.0, 5.818805429864252e-14]]])
    lo = -np.ones((4, 2))
    got = kernels.polygon_areas(frames, lo, -lo)
    assert np.array_equal(got, [kernels.polygon_area(w, l, -l) for w, l in zip(frames, lo)])
    assert got[0] == 0.0 and got[1] > 0.0 and got[2] > 0.0 and got[3] == 0.0
    # strips narrower and wider than the clip tolerance 1e-14 (1 + 1)
    frames = np.array([[[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]] * 2)
    lo = np.array([[-0.5, -0.5, 0.0]] * 2)
    hi = np.array([[0.5, 0.5, 1e-15], [0.5, 0.5, 1e-13]])
    got = kernels.polygon_areas(frames, lo, hi)
    assert np.array_equal(got, [kernels.polygon_area(w, l, h) for w, l, h in zip(frames, lo, hi)])
    assert got[0] == 0.0 and got[1] > 0.0
    assert kernels.polygon_areas(np.zeros((0, 3, 2)), np.zeros((0, 3)), np.zeros((0, 3))).size == 0


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
    got = kernels.interval_lengths(w, lo, hi)
    want = [kernels.interval_length(a, b, c) for a, b, c in zip(w, lo, hi)]
    assert np.array_equal(got, want)
    assert 0 < np.count_nonzero(got) < lanes
    assert kernels.interval_lengths(np.zeros((0, 2)), np.zeros((0, 2)), np.zeros((0, 2))).size == 0
    # a lane with no nonzero coefficient is unbounded unless a row is infeasible
    flat = np.array([[0.0, 1.0], [0.0, 0.0]])
    lo, hi = np.array([[1.0, -1.0], [-1.0, -1.0]]), np.array([[2.0, 1.0], [1.0, 1.0]])
    assert np.array_equal(kernels.interval_lengths(flat[:1], lo[:1], hi[:1]), [0.0])
    with pytest.raises(ValueError):
        kernels.interval_length(flat[1], lo[1], hi[1])
    with pytest.raises(ValueError):
        kernels.interval_lengths(flat, lo, hi)


def _assert_exact(W, lo, hi, got, rel=1e-13):
    """got is the exact volume of the float system within rel of its scale:
    the volume, or 1 for a volume below 1 (a lane that is empty in exact
    arithmetic must come out exactly 0.0)."""
    want = exact_slab_volume(W, lo, hi)
    if want == 0:
        assert got == 0.0
    else:
        assert abs(got - float(want)) <= rel * max(float(want), 1.0)


def test_polytope_volume_unit_cube():
    w = np.eye(3)
    hi = np.full(3, 0.5)
    assert kernels.polytope_volume(w, -hi, hi) == pytest.approx(1.0)


def test_polytope_volume_cut_corner():
    # cube [0,1]^3 cut by x+y+z <= 1/2 leaves a corner simplex of volume 1/48
    w = np.vstack([np.eye(3), np.ones((1, 3))])
    lo = np.array([0.0, 0.0, 0.0, -10.0])
    hi = np.array([1.0, 1.0, 1.0, 0.5])
    assert kernels.polytope_volume(w, lo, hi) == pytest.approx((0.5**3) / 6.0)


def test_polytope_volume_rotation_invariance():
    rng = np.random.default_rng(7)
    for _ in range(20):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        w = q  # rotated axes: still a unit cube
        hi = np.full(3, 0.5)
        assert kernels.polytope_volume(w, -hi, hi) == pytest.approx(1.0, abs=1e-12)


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
    got = kernels.polytope_volume(w, lo, hi)
    assert got == pytest.approx(1.0, abs=1e-14)
    _assert_exact(w, lo, hi, got, rel=1e-14)
    assert kernels.polytope_volumes(np.stack([w, w]), np.stack([lo, lo]), np.stack([hi, hi])).tolist() == [got, got]


def test_polytope_volume_merges_rows_parallel_within_tau():
    # a row 1e-11 from e_1, and a cut between its bounds and e_1's: the merge
    # keeps the tighter interval, scaled about the seed-cell centre
    tilt = np.array([1.0, 1e-11, 0.0])
    w = np.vstack([np.eye(3), tilt])
    lo = np.array([-0.5, -0.5, -0.5, -0.25])
    hi = np.array([0.5, 0.5, 0.5, 0.5])
    assert kernels.polytope_volume(w, lo, hi) == pytest.approx(0.75, abs=1e-11)
    # beyond tau the rows stay apart, and a wedge of the cube is cut off
    w[3] = [1.0, 0.5, 0.0]
    _assert_exact(w, lo, hi, kernels.polytope_volume(w, lo, hi))
    # x + y in [0.1, 0.5] and -(x + y) in [0.1, 0.5]: each slab meets the
    # cube, and the merged interval is empty
    w = np.vstack([np.eye(3), [[1.0, 1.0, 0.0], [-1.0, -1.0, 0.0]]])
    lo = np.array([-0.5, -0.5, -0.5, 0.1, 0.1])
    hi = np.array([0.5, 0.5, 0.5, 0.5, 0.5])
    assert kernels.polytope_volume(w, lo, hi) == 0.0
    assert kernels.polytope_volumes(w[None], lo[None], hi[None]).tolist() == [0.0]


@pytest.mark.parametrize("n", [4, 5, 6])
def test_polytope_volumes_match_polytope_volume(n):
    """The lane-wise recursion against its one-lane twin, ==, on Haar
    complement frames with centered, shifted and empty slab systems; more
    lanes than one internal batch.  Every 25th lane against the exact
    oracle."""
    rng = np.random.default_rng(n)
    lanes = 450
    frames = complement_bases(haar_bases(n, n - 3, n, np.arange(lanes)))
    half = rng.uniform(0.2, 1.0, size=(lanes, n))
    shift = rng.normal(size=(lanes, n)) * np.repeat([0.0, 0.4, 3.0], lanes // 3)[:, None]
    lo, hi = shift - half, shift + half
    lo[-40:, 0], hi[-40:, 0] = 5.0, 6.0  # the first row's slab misses the rest
    got = kernels.polytope_volumes(frames, lo, hi)
    want = [kernels.polytope_volume(w, l, h) for w, l, h in zip(frames, lo, hi)]
    assert np.array_equal(got, want)
    assert 0 < np.count_nonzero(got) < lanes
    for lane in range(0, lanes, 25):
        _assert_exact(frames[lane], lo[lane], hi[lane], got[lane])


def _assert_polytope_lanes_match(frames, lo, hi):
    got = kernels.polytope_volumes(frames, lo, hi)
    assert np.array_equal(got, [kernels.polytope_volume(w, l, h) for w, l, h in zip(frames, lo, hi)])
    return got


def test_polytope_volumes_degenerate_lanes():
    # coplanar rows (no seed triple), then a regular lane
    frames = np.array([[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]], np.eye(3)])
    got = _assert_polytope_lanes_match(frames, -np.ones((2, 3)), np.ones((2, 3)))
    assert got.tolist() == [0.0, 8.0]
    # seed determinants just below, at and above the threshold 1e-14 (1 + 1)^3
    frames = np.array([np.diag([1.0, 1.0, t]) for t in (7.9e-14, 8e-14, 8.1e-14)])
    got = _assert_polytope_lanes_match(frames, -np.ones((3, 3)), np.ones((3, 3)))
    assert got[0] == 0.0 and got[1] > 0.0 and got[2] > 0.0
    assert kernels.polytope_volumes(np.zeros((0, 4, 3)), np.zeros((0, 4)), np.zeros((0, 4))).size == 0
    assert kernels.clip_seed_rows(frames[0]) is None and kernels.clip_seed_rows(frames[1]) == (0, 1, 2)


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
    got = kernels.polytope_volume(w, lo, hi)
    _assert_exact(w, lo, hi, got)
    assert kernels.polytope_volumes(w[None], lo[None], hi[None])[0] == got


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
    got = kernels.polytope_volume(w, lo, hi)
    assert kernels.polytope_volumes(w[None], lo[None], hi[None])[0] == got
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
    assert slab_volume(np.array([[1.0]]), np.array([-1.0]), np.array([1.0])) == pytest.approx(2.0)
    assert slab_volume(np.eye(2), -np.ones(2), np.ones(2)) == pytest.approx(4.0)
    assert slab_volume(np.eye(3), -np.ones(3), np.ones(3)) == pytest.approx(8.0)
    with pytest.raises(ValueError):
        slab_volume(np.eye(4), -np.ones(4), np.ones(4))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_slab_volumes_runs_one_lane_on_the_scalar_kernel(d, monkeypatch):
    """A one-lane slab_volumes call runs slab_volume and a two-lane call does
    not; either way every lane has the bits of the many-lane call."""
    n = d + 2
    rng = np.random.default_rng(d)
    lanes = 60
    frames = complement_bases(haar_bases(n, n - d, d, np.arange(lanes)))
    half = rng.uniform(0.2, 1.0, size=(lanes, n))
    shift = rng.normal(size=(lanes, n)) * 0.5
    lo, hi = shift - half, shift + half
    many = kernels.slab_volumes(frames, lo, hi)
    assert 0 < np.count_nonzero(many)
    calls = []
    scalar = kernels.slab_volume

    def spy(W, lo, hi):
        calls.append(W.shape)
        return scalar(W, lo, hi)

    monkeypatch.setattr(kernels, "slab_volume", spy)
    ones = [kernels.slab_volumes(frames[i : i + 1], lo[i : i + 1], hi[i : i + 1]) for i in range(lanes)]
    assert calls == [(n, d)] * lanes
    assert all(one.shape == (1,) for one in ones)
    assert np.array_equal(np.concatenate(ones), many)
    calls.clear()
    pairs = [kernels.slab_volumes(frames[i : i + 2], lo[i : i + 2], hi[i : i + 2])
             for i in range(0, lanes, 2)]
    assert calls == []
    assert np.array_equal(np.concatenate(pairs), many)
