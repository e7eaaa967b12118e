import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from margbounds import sections
from margbounds.grassmann import Subspace, haar_directions, haar_sample, orthonormal_complement
from margbounds.quadrature import RouteLimitError, sinc_product_tail
from margbounds.sections import (
    Box,
    hyperplane_section_exact,
    hyperplane_section_sinc,
    hyperplane_sections_exact_batch,
    section_mc,
    section_quadrature,
    sharp_block_subspace,
    sharp_paired_subspace,
    unit_cube,
)


def _diag(n):
    return np.ones(n) / math.sqrt(n)


def test_box_validation():
    with pytest.raises(ValueError):
        Box([1.0, -1.0])
    with pytest.raises(ValueError):
        Box([])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            Box([1.0, bad])
    assert unit_cube(4).volume() == 1.0


@pytest.mark.parametrize("route", [hyperplane_section_exact, hyperplane_section_sinc])
@pytest.mark.parametrize("normal", [[math.nan, 1.0], [math.inf, 1.0], [0.0, 0.0]])
def test_non_unit_normals_rejected(route, normal):
    with pytest.raises(ValueError, match="unit norm"):
        route(unit_cube(2), np.array(normal))


def test_q2_diagonal_exact():
    assert hyperplane_section_exact(unit_cube(2), _diag(2)) == pytest.approx(
        math.sqrt(2.0), abs=1e-12
    )


def test_q3_diagonal_exact():
    # 3 sqrt(3) / 4
    assert hyperplane_section_exact(unit_cube(3), _diag(3)) == pytest.approx(
        3.0 * math.sqrt(3.0) / 4.0, abs=1e-12
    )


def test_q4_diagonal_exact():
    assert hyperplane_section_exact(unit_cube(4), _diag(4)) == pytest.approx(
        4.0 / 3.0, abs=1e-12
    )


def test_exact_rejects_zero_coordinates():
    with pytest.raises(ValueError):
        hyperplane_section_exact(unit_cube(3), np.array([1.0, 0.0, 0.0]))


def test_sinc_facet_case():
    got = hyperplane_section_sinc(unit_cube(3), np.array([1.0, 0.0, 0.0]))
    assert got == pytest.approx(1.0, abs=1e-12)


def test_sinc_matches_exact_diagonals():
    for n in (2, 3, 4, 6):
        want = hyperplane_section_exact(unit_cube(n), _diag(n))
        got = hyperplane_section_sinc(unit_cube(n), _diag(n), tol=1e-10)
        assert got == pytest.approx(want, abs=1e-9)


def test_sinc_two_nonzero_coefficients():
    a = np.array([3.0, 4.0, 0.0]) / 5.0
    want = hyperplane_section_exact(Box([1.0, 1.0]), np.array([0.6, 0.8]))
    got = hyperplane_section_sinc(unit_cube(3), a, tol=1e-10)
    assert got == pytest.approx(want, abs=1e-9)


def test_cross_route_random_boxes():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        sides = rng.uniform(0.3, 2.5, size=n)
        a = rng.normal(size=n)
        a /= np.linalg.norm(a)
        if np.abs(a).min() < 1e-3:
            continue
        box = Box(sides)
        exact = hyperplane_section_exact(box, a)
        sinc = hyperplane_section_sinc(box, a, tol=1e-9)
        quad = section_quadrature(box, orthonormal_complement(Subspace(a)))
        assert sinc == pytest.approx(exact, abs=2e-9)
        assert quad == pytest.approx(exact, rel=1e-9)


@pytest.mark.parametrize("normal", [(1, 1, 1, 1), (1, 1, 2, 2), (1, -1, 1, 1)])
def test_quadrature_matches_exact_where_slabs_meet_at_vertices(normal):
    # the complement of these normals cuts Q_4 in a 3-D section whose slab
    # planes meet at vertices of the cube section (Ball's diagonal section
    # is 4/3); the face-list clipper returned 1.0, 1.054 and 1.0
    a = np.array(normal, dtype=float) / np.linalg.norm(normal)
    quad = section_quadrature(unit_cube(4), orthonormal_complement(Subspace(a)))
    assert abs(quad - hyperplane_section_exact(unit_cube(4), a)) <= 1e-14
    if normal == (1, 1, 1, 1):
        assert abs(quad - 4.0 / 3.0) <= 1e-14


def test_quadrature_next_to_the_paired_subspace():
    # 1e-11 (0, 0, 1, 1) off sharp_paired_subspace(4, 1) two complement rows
    # are 1e-11 from parallel; merged, the section stays sqrt(2) (the
    # face-list clipper gave 1.1785; test_slabgeom's split test covers the
    # tilt (0, 0, 1, 0))
    basis = sharp_paired_subspace(4, 1).basis + 1e-11 * np.array([[0.0], [0.0], [1.0], [1.0]])
    h = orthonormal_complement(Subspace(basis / np.linalg.norm(basis)))
    assert section_quadrature(unit_cube(4), h) == pytest.approx(math.sqrt(2.0), rel=1e-10)


def test_batch_matches_single():
    box = unit_cube(5)
    dirs = haar_directions(5, 40, seed=4)
    batch = hyperplane_sections_exact_batch(box, dirs)
    singles = [hyperplane_section_exact(box, a) for a in dirs]
    assert batch == pytest.approx(singles, rel=1e-10)


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-9])
def test_sinc_rejects_tolerances_that_are_not_positive(tol):
    # a NaN budget would pass every `err > budget` check unverified
    with pytest.raises(ValueError, match="tol must be positive"):
        hyperplane_section_sinc(unit_cube(3), _diag(3), tol=tol)


def test_section_quadrature_coordinate_plane():
    h = Subspace.coordinate(4, [0, 1])
    assert section_quadrature(unit_cube(4), h) == pytest.approx(1.0)


def test_section_quadrature_decomposable_high_dim():
    # paired complement splits into orthogonal one-dimensional blocks
    e = sharp_paired_subspace(6, 2)
    h = orthonormal_complement(e)  # dimension 4, decomposable
    assert section_quadrature(unit_cube(6), h) == pytest.approx(2.0, abs=1e-12)


def test_section_quadrature_irreducible_guard():
    h = haar_sample(6, 4, seed=5)
    with pytest.raises(ValueError):
        section_quadrature(unit_cube(6), h)


def test_section_mc_agrees():
    # diagonal chord of the 2x1 rectangle clipped by the short sides: sqrt(2)
    a = np.array([1.0, 1.0]) / math.sqrt(2.0)
    h = Subspace(a)
    est, se = section_mc(Box([2.0, 1.0]), h, samples=200000, seed=8)
    assert se > 0.0
    assert est == pytest.approx(math.sqrt(2.0), abs=4.0 * se)


def test_section_mc_keeps_its_bits():
    # float.hex of section_mc before it became SlabSum.mc of the box's
    # indicator
    box = Box([0.7, 1.3, 0.9, 1.6, 1.1])
    est, se = section_mc(box, haar_sample(5, 2, seed=4), 20000, seed=9)
    assert (est.hex(), se.hex()) == ("0x1.1e7e846a5d6bfp+1", "0x1.709025dad9b66p-6")


def test_section_mc_bounds_y_by_the_active_rows():
    # the coordinate plane has two zero frame rows, which do not constrain y:
    # a sampling cube sized by every row's reach gave SE 0.0125 here
    est, se = section_mc(Box([0.7, 1.3, 0.9, 1.6]), Subspace.coordinate(4, [0, 2]), 20000, seed=9)
    assert se < 0.005
    assert est == pytest.approx(0.7 * 0.9, abs=4.0 * se)
    assert (est.hex(), se.hex()) == ("0x1.429dc725c3df0p-1", "0x1.2d133af9fe230p-8")


def test_section_mc_deterministic():
    h = haar_sample(4, 2, seed=2)
    a = section_mc(unit_cube(4), h, 50000, seed=3)
    b = section_mc(unit_cube(4), h, 50000, seed=3)
    assert a == b


def test_sharp_block_subspace_geometry():
    e = sharp_block_subspace(6, 3)
    h = orthonormal_complement(e)
    got = section_quadrature(unit_cube(6), h)
    assert got == pytest.approx((6.0 / 3.0) ** 1.5, abs=1e-10)


def test_sharp_block_divisibility_guard():
    with pytest.raises(ValueError):
        sharp_block_subspace(6, 2)  # n - k = 4 does not divide 6


def test_sharp_paired_subspace_geometry():
    for n, k in ((4, 2), (6, 2), (6, 3)):
        e = sharp_paired_subspace(n, k)
        h = orthonormal_complement(e)
        got = section_quadrature(unit_cube(n), h)
        assert got == pytest.approx(2.0 ** (k / 2.0), abs=1e-10)


def test_ball_upper_bound_on_haar_directions():
    box = unit_cube(6)
    dirs = haar_directions(6, 2000, seed=12)
    vals = hyperplane_sections_exact_batch(box, dirs)
    assert vals.max() <= math.sqrt(2.0) + 1e-8
    assert vals.min() >= 1.0 - 1e-8  # central sections of the cube are >= 1


def _section_oracle(sides, a):
    """|B cap a-perp| at 60 digits by the Irwin-Hall signed sum.

    With c_j = |a_j| z_j the section is prod z times the density at sum c / 2
    of a sum of independent uniforms on [0, c_j]:
    sum_S (-1)^|S| (t - s_S)_+^(n-1) / ((n-1)! prod c), s_S the subset sums.
    """
    n = len(sides)
    with mpmath.workdps(60):
        zs = [mpmath.mpf(float(z)) for z in sides]
        cs = [abs(mpmath.mpf(float(x))) * z for x, z in zip(a, zs)]
        t = mpmath.fsum(cs) / 2
        subsets = [(mpmath.mpf(0), 1)]  # (s_S, (-1)^|S|)
        for ci in cs:
            subsets += [(s + ci, -sign) for s, sign in subsets]
        total = mpmath.fsum(sign * (t - s) ** (n - 1) for s, sign in subsets if s < t)
        density = total / (math.factorial(n - 1) * mpmath.fprod(cs))
        return float(mpmath.fprod(zs) * density)


def _moderate_box(rng, m):
    """Sides within a factor 2 and normal coordinates within a factor 3."""
    sides = rng.uniform(1.0, 2.0, m)
    a = rng.uniform(1.0, 3.0, m) * rng.choice([-1.0, 1.0], m)
    return Box(sides), a / np.linalg.norm(a)


def test_section_oracle_matches_closed_forms():
    assert _section_oracle([1.0] * 3, _diag(3)) == pytest.approx(3.0 * math.sqrt(3.0) / 4.0)
    assert _section_oracle([1.0] * 4, _diag(4)) == pytest.approx(4.0 / 3.0)


def test_sinc_matches_oracle_where_the_tail_is_dropped():
    # from m = 9 on the tail envelope is below the value's unit roundoff in
    # this domain, so the result is the [0, T] quadrature alone
    rng = np.random.default_rng(31)
    for m in range(8, 14):
        for _ in range(2):
            box, a = _moderate_box(rng, m)
            want = _section_oracle(box.sides, a)
            assert abs(hyperplane_section_sinc(box, a) - want) <= 1e-12, (m, box.sides, a)


def test_sinc_tail_dropped_only_below_roundoff(monkeypatch):
    calls = []

    def spy(c, t_start):
        calls.append(c.size)
        return sinc_product_tail(c, t_start)

    monkeypatch.setattr(sections, "sinc_product_tail", spy)
    rng = np.random.default_rng(32)
    for m in (2, 3, 4, 9, 12, 16):
        for _ in range(4):
            calls.clear()
            box, a = _moderate_box(rng, m)
            hyperplane_section_sinc(box, a)
            assert calls == ([m] if m <= 4 else []), (m, box.sides, a)


def test_sinc_factor_guard_runs_before_any_quadrature(monkeypatch):
    panel_calls = []
    monkeypatch.setattr(sections, "adaptive_panels", lambda *args: panel_calls.append(args))
    with pytest.raises(RouteLimitError, match="more than 16 sinc factors"):
        hyperplane_section_sinc(unit_cube(17), _diag(17))
    assert panel_calls == []
    # zero coordinates are factored out first, so 16 nonzero of 17 is allowed
    monkeypatch.undo()
    a = np.r_[_diag(16), 0.0]
    assert hyperplane_section_sinc(unit_cube(17), a) == pytest.approx(
        hyperplane_section_exact(unit_cube(16), _diag(16)), abs=1e-9
    )


_ROUTES = [
    pytest.param(hyperplane_section_exact, 1e-10, id="exact"),
    pytest.param(hyperplane_section_sinc, 1e-8, id="sinc"),
]


@st.composite
def _boxes_and_normals(draw):
    n = draw(st.integers(2, 6))
    sides = draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n))
    a = np.array(draw(st.lists(st.floats(0.2, 1.0), min_size=n, max_size=n)))
    return np.array(sides), a / np.linalg.norm(a)


@pytest.mark.parametrize("route, tol", _ROUTES)
@settings(max_examples=15, deadline=None)
@given(data=_boxes_and_normals(), perm_seed=st.integers(0, 2**32 - 1),
       signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=6, max_size=6))
def test_section_is_invariant_under_permutation_and_sign_flips(route, tol, data, perm_seed, signs):
    sides, a = data
    want = route(Box(sides), a)
    perm = np.random.default_rng(perm_seed).permutation(sides.size)
    assert route(Box(sides[perm]), a[perm]) == pytest.approx(want, rel=tol, abs=tol)
    flipped = a * np.array(signs[: sides.size])
    assert route(Box(sides), flipped) == pytest.approx(want, rel=tol, abs=tol)


@pytest.mark.parametrize("route, tol", _ROUTES)
@settings(max_examples=15, deadline=None)
@given(data=_boxes_and_normals(), lam=st.floats(0.25, 4.0))
def test_section_scales_with_the_sides(route, tol, data, lam):
    # |lam B cap a-perp| = lam^(n-1) |B cap a-perp|
    sides, a = data
    factor = lam ** (sides.size - 1)
    want = factor * route(Box(sides), a)
    assert route(Box(lam * sides), a) == pytest.approx(want, rel=tol, abs=tol * factor)
