import hashlib
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from margbounds import kernels, sections
from margbounds.grassmann import Subspace, haar_directions, haar_sample, orthonormal_complement
from margbounds.quadrature import RouteLimitError, ToleranceError, sinc_product_tail
from margbounds.sections import (
    UNIT_ROUNDOFF,
    Box,
    hyperplane_section_exact,
    hyperplane_section_sinc,
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
    assert unit_cube(4).sides.tolist() == [1.0] * 4


@pytest.mark.parametrize("route", [hyperplane_section_exact, hyperplane_section_sinc])
@pytest.mark.parametrize("normal", [[math.nan, 1.0], [math.inf, 1.0], [0.0, 0.0]])
def test_non_unit_normals_rejected(route, normal):
    with pytest.raises(ValueError, match="unit norm"):
        route(unit_cube(2), np.array(normal))


@pytest.mark.parametrize("route", [hyperplane_section_exact, hyperplane_section_sinc])
def test_normals_of_the_wrong_shape_rejected(route):
    # the sinc route takes one normal; rows are the exact route's alone
    bad = [np.ones(3) / math.sqrt(3.0)]
    if route is hyperplane_section_sinc:
        bad.append(np.tile(_diag(2), (2, 1)))
    for a in bad:
        with pytest.raises(ValueError, match="dimension mismatch"):
            route(unit_cube(2), a)


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


@pytest.mark.parametrize("sides, a", [
    ([1.0, 2.0, 3.0], [0.6, 0.8, 0.0]),  # one zero coordinate
    ([1.5, 0.5, 2.0, 1.0], [0.0, 0.6, 0.0, -0.8]),  # two
    ([0.7, 1.3, 1.1, 0.9], [0.5, 0.0, 0.6, 0.0]),  # two, three factors left
    ([1.0, 1.0], [1.0, 1e-11]),  # below ZERO_COORD_TOL, not exactly zero
    ([2.0, 3.0, 5.0], [0.0, 1.0, 0.0]),  # facets
    ([1.0, 1.0, 1.0], [1.0, 0.0, 0.0]),
    ([1e12, 1.0], [0.6, 0.8]),  # a facet by width: c = (6e11, 0.8)
])
def test_exact_and_sinc_agree_where_coordinates_drop(sides, a):
    # coordinates of negligible width drop out of both routes alike; with
    # one coordinate a_i left the section is the others' sides over |a_i|
    a = np.array(a) / np.linalg.norm(a)
    exact = hyperplane_section_exact(Box(sides), a)
    assert abs(exact - hyperplane_section_sinc(Box(sides), a)) <= 1e-12
    zero = sections._zero_coords(np.abs(a), np.abs(a) * sides)
    if np.count_nonzero(~zero) == 1:
        assert exact == np.prod(np.array(sides)[zero]) / np.abs(a[~zero])[0]


def test_a_small_coordinate_of_a_wide_side_is_kept():
    # a_1 = 1e-11 on a side of 1e12 has the width 10 against 1: the section
    # is vol / 10 (the flat top of the widest window), not the facet's 1e12
    box, a = Box([1e12, 1.0]), np.array([1e-11, 1.0])
    assert hyperplane_section_exact(box, a) == pytest.approx(1e11, rel=1e-12)
    assert hyperplane_section_sinc(box, a) == pytest.approx(1e11, rel=1e-12)
    got = hyperplane_section_exact(box, np.array([a, [0.6, 0.8], [0.8, 0.6]]))
    np.testing.assert_allclose(got, [1e11, 1.0 / 0.6, 1.0 / 0.8], rtol=1e-12)


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


def test_batch_holds_one_chunk_of_terms_at_a_time(monkeypatch):
    # chunks of 2^12 terms, one row at n = 12: the 64 rows' (64, 2^12)
    # arrays would take 2 MiB each
    box = unit_cube(12)
    dirs = haar_directions(12, 64, seed=9)
    monkeypatch.setattr(kernels, "TERM_CHUNK_BITS", 12)
    tracemalloc.start()
    try:
        got = hyperplane_section_exact(box, dirs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert got.tolist() == [hyperplane_section_exact(box, a) for a in dirs]


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
    vals = hyperplane_section_exact(box, dirs)
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


def _moderate_box(rng, m, spread=3.0):
    """Sides within a factor 2 and normal coordinates within a factor
    `spread`."""
    sides = rng.uniform(1.0, 2.0, m)
    a = rng.uniform(1.0, spread, m) * rng.choice([-1.0, 1.0], m)
    return Box(sides), a / np.linalg.norm(a)


def _unit_volume(box):
    """The box scaled to volume 1, so that its sections lie near 1."""
    return Box(box.sides / np.exp(np.log(box.sides).mean()))


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


@pytest.mark.parametrize("spread", [3.0, 10.0])
def test_sinc_matches_oracle_at_every_factor_count(spread):
    rng = np.random.default_rng(33 if spread == 3.0 else 34)
    for m in range(2, 17):
        box, a = _moderate_box(rng, m, spread)
        box = _unit_volume(box)
        want = _section_oracle(box.sides, a)
        assert abs(hyperplane_section_sinc(box, a) - want) <= 1e-12, (m, box.sides, a)


def _narrow_box(rng, m, k, narrow):
    """A unit-volume box whose first `narrow` normal coordinates are scaled
    by 10^-k."""
    box, a = _moderate_box(rng, m)
    a[:narrow] *= 10.0**-k
    return _unit_volume(box), a / np.linalg.norm(a)


def test_sinc_with_narrow_factors_meets_its_tolerance_or_raises():
    # the tail expansion's rounding noise grows as 1 / prod r while the tail
    # stays small: at tol 1e-9 such boxes gave errors up to 1e2 before the
    # noise entered the error budget
    rng = np.random.default_rng(40)
    outcomes = set()
    for m in (3, 5, 8):
        for k in (2, 4, 5, 6, 8):
            for narrow in (1, 2):
                box, a = _narrow_box(rng, m, k, narrow)
                want = _section_oracle(box.sides, a)
                try:
                    got = hyperplane_section_sinc(box, a, tol=1e-9)
                except ToleranceError as exc:
                    assert exc.achieved > 1e-9, (m, k, narrow)
                    outcomes.add("raised")
                else:
                    assert abs(got - want) <= 1e-9, (m, k, narrow, got, want)
                    outcomes.add("value")
    assert outcomes == {"raised", "value"}


def _least_panels(r, threshold):
    """The least P whose tail envelope (P pi)^(1-m) / ((m-1) prod r) is at
    most threshold, at 40 digits."""
    m = len(r)

    def envelope(panels):
        return (panels * mpmath.pi) ** (1 - m) / ((m - 1) * mpmath.fprod(r))

    panels = int(mpmath.ceil((threshold * (m - 1) * mpmath.fprod(r)) ** (-1 / mpmath.mpf(m - 1))
                             / mpmath.pi))
    assert envelope(panels) <= threshold and (panels == 1 or envelope(panels - 1) > threshold)
    return panels


def _sinc_extent_rule(box, a, tol=1e-9):
    """(panels, expanded, panels within tol) by the rule at 40 digits: the
    least P whose envelope is at most 2^-53 pi / (2 sum r), integrated alone
    where P <= 128, and 16 panels plus the expansion otherwise; where the
    expansion's noise is too large, the least P whose envelope is at most
    tol / (2 k), the section being k J."""
    with mpmath.workdps(40):
        c = [abs(mpmath.mpf(float(x))) * mpmath.mpf(float(z)) / 2 for x, z in zip(a, box.sides)]
        r = [cj / max(c) for cj in c]
        panels = _least_panels(r, mpmath.mpf(2) ** -53 * mpmath.pi / (2 * mpmath.fsum(r)))
        k = mpmath.fprod(mpmath.mpf(float(z)) for z in box.sides) / (mpmath.pi * max(c))
        within_tol = _least_panels(r, mpmath.mpf(tol) / (2 * k))
    return (panels, False, within_tol) if panels <= 128 else (16, True, within_tol)


def test_sinc_extent_follows_the_envelope_rule(monkeypatch):
    seen = {}
    real_panels, real_tail = sections.adaptive_panels, sections.sinc_product_tail

    def panels_spy(f, edges, tol):
        seen["edges"] = edges
        return real_panels(f, edges, tol)

    def tail_spy(c, t_start):
        seen["tail"] = (c, t_start)
        return real_tail(c, t_start)

    monkeypatch.setattr(sections, "adaptive_panels", panels_spy)
    monkeypatch.setattr(sections, "sinc_product_tail", tail_spy)
    rng = np.random.default_rng(35)
    choices = set()
    for m in (2, 3, 5, 7, 8, 8, 8, 8, 9, 10, 12, 14, 16):
        for narrow in (1.0, 0.1, 1e-4):
            box, a = _moderate_box(rng, m)
            box = _unit_volume(box)
            a[: m // 3] *= narrow  # narrow factors raise the envelope
            a /= np.linalg.norm(a)
            seen.clear()
            try:
                hyperplane_section_sinc(box, a)
            except ToleranceError:
                seen["raised"] = True
            panels, expanded, within_tol = _sinc_extent_rule(box, a)
            if "edges" not in seen:
                # an expansion whose noise bound exceeds the budget skips the
                # quadrature for the Borwein value or a raise
                assert expanded and "tail" not in seen, (m, narrow)
                choices.add((m, "skipped"))
                continue
            if expanded and "tail" not in seen:
                # ... or integrates to the envelope's share of tol
                np.testing.assert_array_equal(seen["edges"], math.pi * np.arange(within_tol + 1.0))
                choices.add((m, "within tol"))
                continue
            np.testing.assert_array_equal(seen["edges"], math.pi * np.arange(panels + 1.0))
            assert ("tail" in seen) == expanded, (m, narrow)
            if expanded:
                c = np.abs(a) * box.sides
                np.testing.assert_allclose(seen["tail"][0], c / c.max(), rtol=1e-15)
                assert seen["tail"][1] == 16 * math.pi
            choices.add((m, expanded))
    # each choice occurs at m = 8; at m = 16 an envelope that needs the
    # expansion (prod r below 1e-24) comes with noise beyond the budget
    assert {(8, False), (8, True), (16, False), (16, "within tol")} <= choices
    assert {(8, "skipped"), (8, "within tol")} & choices


def test_exact_rows_mixing_zero_patterns_keep_their_one_row_bits():
    # rows that keep every coordinate, some or one (a facet) go through one
    # call, in groups by how many they keep; each row has its one-row bits
    rng = np.random.default_rng(36)
    for n in (2, 3, 5, 8):
        for scale in (1.0, 1e-30, 1e30):
            sides = rng.uniform(0.5, 2.0, n) * scale
            a = rng.normal(size=(12, n))
            for row, zeros in zip(a, [0, 1, 2, n - 1] * 3):
                row[rng.permutation(n)[:min(zeros, n - 1)]] = 0.0
            a /= np.linalg.norm(a, axis=1)[:, None]
            got = hyperplane_section_exact(Box(sides), a)
            assert got.tolist() == [hyperplane_section_exact(Box(sides), row) for row in a]


# hyperplane_section_exact at n = 2..16 on the box of sides 0.5 + j / n:
# the float.hex of one Haar normal's section (seed 300 + n) and, up to
# n = 10, the first 16 hex digits of the sha256 of 16,384 Haar normals'
# sections (seed 400 + n); wider batches take seconds
_PINNED_SECTIONS = {
    2: ("0x1.10d232dd19506p-1", "51f23749f850b04d"),
    3: ("0x1.c77dc1db66bc8p-2", "886f3054a27f9ced"),
    4: ("0x1.2344c0554d73dp-1", "63118bac4f8a3c2b"),
    5: ("0x1.483876a8d8c91p-1", "d2e75556387ae275"),
    6: ("0x1.27a35744950b0p-1", "d6352a99fd7e699f"),
    7: ("0x1.08dee3a819f0bp-1", "ed4e47b7ce333169"),
    8: ("0x1.01cecae90a4bfp-1", "cbb179dc606efae0"),
    9: ("0x1.27c977abfd07dp-1", "60e49754a33ff356"),
    10: ("0x1.f2b8af86aca88p-2", "d0f0cce9c28b55ee"),
    11: ("0x1.f1b8c1a6377d8p-2", None),
    12: ("0x1.bb3f093a222a4p-2", None),
    13: ("0x1.876197bf0e5ffp-2", None),
    14: ("0x1.970f4ccbfa91dp-2", None),
    15: ("0x1.7367de745759ep-2", None),
    16: ("0x1.7b2f7a16d07b0p-2", None),
}


@pytest.mark.parametrize("n", sorted(_PINNED_SECTIONS))
def test_exact_sections_are_pinned(n):
    one, batch = _PINNED_SECTIONS[n]
    box = Box(0.5 + np.arange(n) / n)
    assert hyperplane_section_exact(box, haar_directions(n, 1, seed=300 + n)[0]).hex() == one
    if batch is not None:
        values = hyperplane_section_exact(box, haar_directions(n, 16384, seed=400 + n))
        assert hashlib.sha256(values.tobytes()).hexdigest()[:16] == batch


def _section_error_scale(sides, a):
    """(section, cancellation scale) at 60 digits: _section_oracle, and
    prod z t sum_S (t - s_S)_+^(n-2) / ((n-1)! prod c), which bounds what the
    rounding of s_S and t - s_S can move the signed sum by (test_kernels's
    Irwin-Hall oracle)."""
    n = len(sides)
    with mpmath.workdps(60):
        zs = [mpmath.mpf(float(z)) for z in sides]
        cs = [abs(mpmath.mpf(float(x))) * z for x, z in zip(a, zs)]
        t = mpmath.fsum(cs) / 2
        sums = [mpmath.mpf(0)]
        for ci in cs:
            sums += [s + ci for s in sums]
        scale = mpmath.fsum(t * (t - s) ** (n - 2) for s in sums if s < t)
        norm = math.factorial(n - 1) * mpmath.fprod(cs) / mpmath.fprod(zs)
        return _section_oracle(sides, a), float(scale / norm)


@pytest.mark.parametrize("kind", ["cube", "unit-volume box"])
def test_exact_matches_the_oracle_on_haar_normals(kind):
    # 8 Haar normals per n = 3..12: within n u times the cancellation scale
    # plus 4 u of the section (the scale's bound held with a factor 4 to
    # spare over 200 normals per n), and within 1e-12 where that scale is
    # small against the section
    rng = np.random.default_rng(37)
    well_conditioned = 0
    for n in range(3, 13):
        sides = np.ones(n) if kind == "cube" else rng.uniform(0.5, 2.0, n)
        box = _unit_volume(Box(sides))
        dirs = haar_directions(n, 8, seed=200 + n)
        for a, got in zip(dirs, hyperplane_section_exact(box, dirs).tolist()):
            want, scale = _section_error_scale(box.sides, a)
            bound = n * UNIT_ROUNDOFF * scale + 4.0 * UNIT_ROUNDOFF * want
            assert abs(got - want) <= bound, (n, a)
            if n * UNIT_ROUNDOFF * scale <= 1e-13 * want:
                assert abs(got - want) <= 1e-12 * want, (n, a)
                well_conditioned += 1
    assert well_conditioned >= 20


def test_exact_names_the_batch_rows_lost_to_cancellation():
    # widths 1e-8 of the widest are kept, and their signed sum cancels (at
    # 1e200 they drop, and the section is a facet's)
    a = np.array([[0.6, 0.64, 0.48], [0.6, 0.48, 0.64]])
    with pytest.raises(RouteLimitError, match=r"cancellation.*\(rows \[0, 1\]\)"):
        hyperplane_section_exact(Box([1e8, 1.0, 1.0]), a)


def test_exact_rounding_bounds_hold_against_the_oracle():
    # Haar normals, and lines near Ball's maximizer whose small coordinates
    # make the signed sum cancel: the bound covers the 60-digit oracle's
    # error (with a factor 60 to 7,000 to spare), and is far larger where
    # the sum cancels; the rows lost to cancellation read NaN and inf
    rng = np.random.default_rng(41)
    for n in (3, 5, 8):
        box = _unit_volume(Box(rng.uniform(0.5, 2.0, n)))
        near = np.zeros((4, n))
        near[:, :2] = 1.0
        near[:, 2:] = rng.uniform(1e-6, 1e-2, (4, n - 2)) * np.logspace(0, -3, 4)[:, None]
        dirs = np.vstack([haar_directions(n, 6, seed=300 + n), near / np.linalg.norm(near, axis=1)[:, None]])
        values, errors = sections.hyperplane_section_exact_bounded(box, dirs)
        kept = ~np.isnan(values)
        assert values[kept].tolist() == hyperplane_section_exact(box, dirs[kept]).tolist()
        for a, got, err in zip(dirs, values.tolist(), errors.tolist()):
            if math.isnan(got):
                assert err == math.inf
            else:
                want = _section_oracle(box.sides, a)
                assert abs(got - want) <= err * want, (n, a)
        assert errors[:6].max() < 1e-8
        assert errors[6:].max() > 1e3 * errors[:6].max()
    # one normal (n,) reads as one row
    values, errors = sections.hyperplane_section_exact_bounded(unit_cube(3), _diag(3))
    assert values.shape == errors.shape == (1,) and errors[0] < 1e-13


_EXTREME_SCALES = [
    ([1e-100] * 4, [0.5] * 4, 4.0 / 3.0 * 1e-300),
    ([1e160, 1e160], [0.6, 0.8], 1.25e160),
]


@pytest.mark.parametrize("route", [hyperplane_section_exact, hyperplane_section_sinc])
@pytest.mark.parametrize("sides, a, want", _EXTREME_SCALES)
def test_sections_of_boxes_at_extreme_scales(route, sides, a, want):
    assert route(Box(sides), np.array(a)) == pytest.approx(want, rel=1e-12)


def test_sinc_disparate_factors_without_a_dominant_one_fail_to_certify():
    # three wide factors of 1e100 and two of 1: the expansion's rounding
    # noise is far beyond the budget, no factor dominates, and the envelope
    # needs far more than 4,096 panels
    with pytest.raises(ToleranceError, match="neither expanded nor dropped within the tolerance"):
        hyperplane_section_sinc(Box([1e100, 1e100, 1e100, 1.0, 1.0]), np.full(5, 0.2**0.5))


@pytest.mark.parametrize("route, sides, a", [
    (route, sides, a)
    for route in (hyperplane_section_exact, hyperplane_section_sinc)
    for sides, a in (([1e300, 1e300, 1e300], [0.6, 0.64, 0.48]),
                     ([1e-300, 1e-300, 1e-300], [0.6, 0.64, 0.48]))
] + [(hyperplane_section_sinc, [1e300, 1e300, 1e300], [1.0, 0.0, 0.0])])
def test_sections_outside_the_float_range_are_route_limits(route, sides, a):
    with pytest.raises(RouteLimitError, match="outside the normal float range"):
        route(Box(sides), np.array(a))


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
