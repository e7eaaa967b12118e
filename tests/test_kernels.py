import itertools
import math

import mpmath
import numpy as np
import pytest

from margbounds import kernels
from margbounds.grassmann import complement_bases, haar_bases, haar_directions
from margbounds.kernels import slab_volume

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
    # Python's float pow (as polygon_area does) and with x * x, where glibc's
    # pow differs from x * x in the last bit
    frames = np.array([[[1.0, 0.0], [1.0, t]] for t in (3.9e-14, 4e-14, 4.1e-14)]
                      + [[[3.536, 0.0], [0.0, 5.818805429864252e-14]]])
    lo = -np.ones((4, 2))
    got = kernels.polygon_areas(frames, lo, -lo)
    assert np.array_equal(got, [kernels.polygon_area(w, l, -l) for w, l in zip(frames, lo)])
    assert got[0] == 0.0 and got[1] > 0.0 and got[2] > 0.0 and got[3] > 0.0
    # strips narrower and wider than the clip tolerance 1e-14 (1 + 1)
    frames = np.array([[[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]] * 2)
    lo = np.array([[-0.5, -0.5, 0.0]] * 2)
    hi = np.array([[0.5, 0.5, 1e-15], [0.5, 0.5, 1e-13]])
    got = kernels.polygon_areas(frames, lo, hi)
    assert np.array_equal(got, [kernels.polygon_area(w, l, h) for w, l, h in zip(frames, lo, hi)])
    assert got[0] == 0.0 and got[1] > 0.0
    assert kernels.polygon_areas(np.zeros((0, 3, 2)), np.zeros((0, 3)), np.zeros((0, 3))).size == 0


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


@pytest.mark.parametrize("n", [4, 5, 6])
def test_polytope_volumes_match_polytope_volume(n):
    """The lane-wise 3-D clipper against the scalar one, ==, on Haar
    complement frames with centered, shifted and empty slab systems; more
    lanes than one internal batch."""
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


def _assert_polytope_lanes_match(frames, lo, hi):
    got = kernels.polytope_volumes(frames, lo, hi)
    assert np.array_equal(got, [kernels.polytope_volume(w, l, h) for w, l, h in zip(frames, lo, hi)])
    return got


def test_polytope_volumes_degenerate_lanes():
    # coplanar rows (no seed triple), then a regular lane
    frames = np.array([[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]], np.eye(3)])
    got = _assert_polytope_lanes_match(frames, -np.ones((2, 3)), np.ones((2, 3)))
    assert got.tolist() == [0.0, 8.0]
    # seed determinants just below, at and above the threshold 1e-14 (1 + 1)^3;
    # then one at numpy's 1e-14 (1 + w)^3 for w = 1.2795..., just below the
    # same threshold computed with Python's float pow (as polytope_volume
    # does), which differs from numpy's cube in the last bit
    frames = np.array([np.diag([1.0, 1.0, t]) for t in (7.9e-14, 8e-14, 8.1e-14)]
                      + [np.diag([1.2795786300262137, 1.0, 9.257564629011875e-14])])
    got = _assert_polytope_lanes_match(frames, -np.ones((4, 3)), np.ones((4, 3)))
    assert got[0] == 0.0 and got[1] > 0.0 and got[2] > 0.0 and got[3] == 0.0
    assert kernels.polytope_volumes(np.zeros((0, 4, 3)), np.zeros((0, 4)), np.zeros((0, 4))).size == 0


def test_polytope_volumes_cut_point_dedupe():
    # the unit cube (the seed rows) cut by x + y + z <= 1.5 - delta: the
    # cut points near the corner (1/2, 1/2, 1/2) lie 2 delta apart in l1,
    # just inside (merged: no section face) or just outside (kept) the dedupe
    # distance 10 eps = 2.5e-12
    frames = np.array([np.vstack([2.0 * np.eye(3), np.ones(3)])] * 3)
    delta = np.array([1.2e-12, 1.3e-12, 0.1])
    lo = np.tile([-1.0, -1.0, -1.0, -10.0], (3, 1))
    hi = np.column_stack([np.ones((3, 3)), 1.5 - delta])
    got = _assert_polytope_lanes_match(frames, lo, hi)
    assert got[:2] == pytest.approx(1.0) and got[2] == pytest.approx(1.0 - 0.1**3 / 6.0)


def _first_distinct_loop(points, tol):
    """_clip_faces' dedupe: keep a point unless it lies within tol (l1) of an
    earlier kept one."""
    kept = []
    for p in points:
        kept.append(all(np.abs(p - q).sum() >= tol for q, k in zip(points, kept) if k))
    return kept


def test_cut_point_dedupe_follows_the_sequential_rule():
    # lane 0 is a chain a ~ b ~ c with a and c 1.4 tol apart: b merges into
    # a, and c stays, because the point it is close to was dropped; the
    # other lanes cluster points on a lattice of spacing 0.6 tol
    tol = 1e-12
    chain = np.array([[0.0, 0.0, 0.0], [0.7e-12, 0.0, 0.0], [1.4e-12, 0.0, 0.0], [1.0, 0.0, 0.0]])
    rng = np.random.default_rng(11)
    lanes = [chain] + [0.6e-12 * rng.integers(0, 4, size=(6, 3)) for _ in range(40)]
    width = max(len(p) for p in lanes)
    ncut = np.array([len(p) - (i % 3) for i, p in enumerate(lanes)])
    pts = np.zeros((len(lanes), width, 3))
    for i, p in enumerate(lanes):
        pts[i, : ncut[i]] = p[: ncut[i]]
    got = kernels._first_distinct(pts[..., 0], pts[..., 1], pts[..., 2], ncut,
                                  np.full(len(lanes), tol))
    assert got[0, :4].tolist() == [True, False, True, True]
    for i in range(len(lanes)):
        want = _first_distinct_loop(pts[i, : ncut[i]], tol)
        assert got[i].tolist() == want + [False] * (width - ncut[i])


def test_polytope_volumes_lanes_die_part_way():
    # seeds from the cube rows, then x + y and y + z clipped in row order:
    # lane 0 dies at the fourth row's hi side, lane 1 at the fifth row's -lo
    # side, lane 2 survives
    frames = np.array([np.vstack([2.0 * np.eye(3), [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]])] * 3)
    lo = np.tile([-1.0, -1.0, -1.0, -1.2, -1.2], (3, 1))
    hi = -lo
    hi[0, 3] = -1.5
    lo[1, 4] = 1.5
    got = _assert_polytope_lanes_match(frames, lo, hi)
    assert got.tolist()[:2] == [0.0, 0.0] and got[2] == pytest.approx(1.0)


def test_section_order_settles_near_ties_with_math_atan2():
    # np.arctan2 rounds p's angle one ulp below math.atan2, level with q's,
    # which math.atan2 puts one ulp below p's: a stable sort by the numpy
    # angles would keep p before q, polytope_volume's sort puts q first.
    # The normal (0, 0, 1) makes the sort key atan2(y - cy, x - cx).
    p = np.array([0.9469008777183416, 0.6512660237487807, 0.0])
    q = np.array([0.9469008777183415, 0.6512660237487805, 0.0])
    rng = np.random.default_rng(3)
    lanes = [np.array([p, -p, q, -q])]  # centroid exactly 0
    lanes += [rng.normal(size=(4, 3)) for _ in range(50)]
    pts = np.array(lanes)
    x, y, z = pts[..., 0], pts[..., 1], pts[..., 2]
    normal = np.tile([0.0, 0.0, 1.0], (len(lanes), 1))
    order = kernels._section_order(x, y, z, np.full(len(lanes), 4), normal)
    for lane, got in zip(lanes, order):
        cx, cy = (sum(lane[:, i]) / 4 for i in range(2))
        want = sorted(range(4), key=lambda i: math.atan2(lane[i, 1] - cy, lane[i, 0] - cx))
        assert got.tolist() == want
    first = order[0].tolist()
    assert first.index(2) < first.index(0)  # q before p


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
