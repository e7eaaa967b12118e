import math

import numpy as np
import pytest

from margbounds import average
from margbounds.average import (
    _box_section_values,
    _marginal_values_at_zero,
    avg_marginal_power,
    cube_avg_power,
    dual_affine_quermass,
    grinberg_check,
    line_marginals_at_zero,
    prop_avg_check,
    unit_ball_volume,
)
from margbounds.densities import ProductDensity, cube_density, random_product_density
from margbounds.grassmann import (
    Subspace,
    haar_bases,
    haar_directions,
    haar_sample,
    orthonormal_complement,
)
from margbounds.marginals import MarginalQuery, marginal_at
from margbounds.sections import Box, section_quadrature, sharp_paired_subspace, unit_cube


def test_unit_ball_volumes():
    assert unit_ball_volume(1) == pytest.approx(2.0)
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)


def test_line_marginals_match_marginal_at():
    for seed in range(15):
        n = 2 + seed % 3
        f = random_product_density(seed, n)
        dirs = np.atleast_2d(
            np.array([haar_sample(n, 1, seed=seed + 50).basis[:, 0]])
        )
        got = line_marginals_at_zero(f.factors, dirs)[0]
        # the direction spans the complement of a hyperplane subspace
        e = orthonormal_complement(Subspace(dirs[0]))
        want = marginal_at(MarginalQuery(f, e, np.zeros(n - 1)))
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def _reference_line_marginals_at_zero(factors, dirs):
    """The odometer loop over piece combinations (first factor's piece
    changing fastest) that line_marginals_at_zero replaces."""
    m, n = dirs.shape
    out = np.zeros(m)
    small = np.abs(dirs) <= 1e-12
    counts = [len(f.pieces) for f in factors]
    combo = [0] * n
    while True:
        lows = np.full(m, -np.inf)
        highs = np.full(m, np.inf)
        value = np.ones(m)
        for i in range(n):
            lo, hi, v = factors[i].pieces[combo[i]]
            value *= v
            with np.errstate(divide="ignore", invalid="ignore"):
                t1 = lo / dirs[:, i]
                t2 = hi / dirs[:, i]
            lo_i = np.where(small[:, i], -np.inf, np.minimum(t1, t2))
            hi_i = np.where(small[:, i], np.inf, np.maximum(t1, t2))
            value = np.where(small[:, i] & ~((lo <= 0.0) & (0.0 < hi)), 0.0, value)
            lows = np.maximum(lows, lo_i)
            highs = np.minimum(highs, hi_i)
        out += value * np.maximum(highs - lows, 0.0)
        j = 0
        while j < n:
            combo[j] += 1
            if combo[j] < counts[j]:
                break
            combo[j] = 0
            j += 1
        if j == n:
            return out


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_line_marginals_match_odometer_exactly(n):
    # centered factors, so some pieces contain 0 and some do not
    factors = [g.shifted(-g.support_midpoint()) for g in random_product_density(n, n, 3).factors]
    dirs = haar_directions(n, 400, seed=n, stream=0)
    # zero coordinates (those factors stay constant at f_i(0)), one of them
    # just inside the zero threshold
    dirs[0] = np.eye(n)[0]
    dirs[1, 1] = 0.0
    dirs[2, 0] = 1e-13
    dirs[1:3] /= np.linalg.norm(dirs[1:3], axis=1)[:, None]
    got = line_marginals_at_zero(factors, dirs)
    assert np.count_nonzero(got) > 300
    assert np.array_equal(got, _reference_line_marginals_at_zero(factors, dirs))


def test_cube_avg_power_2_1_oracle():
    g = cube_avg_power(2, 1, 100000, seed=5)
    assert abs(g.estimate - 4.0 / math.pi) <= 3.0 * g.std_error
    assert g.std_error < 0.01


def test_cube_avg_power_3_1_bounded():
    g = cube_avg_power(3, 1, 50000, seed=6)
    assert g.estimate <= math.sqrt(2.0) ** 3 + 3.0 * g.std_error
    assert g.estimate >= 1.0 - 3.0 * g.std_error


def test_cube_avg_power_deterministic():
    a = cube_avg_power(2, 1, 20000, seed=7)
    b = cube_avg_power(2, 1, 20000, seed=7)
    assert a.estimate == b.estimate and a.std_error == b.std_error


def test_avg_marginal_power_matches_cube_route():
    f = cube_density(2)
    a = avg_marginal_power(f, 1, 50000, seed=3)
    b = cube_avg_power(2, 1, 50000, seed=3)
    # n - k = 1 on both sides: identical streams, identical inner formula
    assert a.estimate == pytest.approx(b.estimate, rel=1e-12)


def test_cube_avg_power_convergence_rate():
    # standard error should scale like samples^(-1/2) over four decades
    sizes = [1000, 10000, 100000, 1000000]
    ses = [cube_avg_power(2, 1, m, seed=9).std_error for m in sizes]
    slope = np.polyfit(np.log(sizes), np.log(ses), 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.1)


def test_prop_avg_identity_case():
    rec = prop_avg_check(cube_density(2), 1, 20000, seed=11)
    assert rec["paired_diff"] == 0.0
    assert rec["paired_se"] == 0.0
    assert rec["pass"]


def test_prop_avg_random_f2():
    for seed in range(10):
        f = random_product_density(seed, 2)
        rec = prop_avg_check(f, 1, 20000, seed=seed)
        assert rec["pass"], rec


def test_prop_avg_n3_pairing():
    f = random_product_density(3, 3)
    rec = prop_avg_check(f, 1, 3000, seed=13)
    assert rec["pass"]
    # identical subspace samples: paired SE well below independent SE
    assert rec["paired_se"] <= math.hypot(rec["lhs_se"], rec["rhs_se"]) * (1.0 + 1e-12)


def test_dual_affine_quermass_omega_ratio():
    const = dual_affine_quermass(
        unit_cube(3), 2, 1000, seed=1, _section_fn=lambda b, e: 1.0
    )
    assert const.estimate == pytest.approx(unit_ball_volume(3) / unit_ball_volume(2))
    assert const.std_error == 0.0


def test_dual_affine_quermass_reproducible():
    a = dual_affine_quermass(unit_cube(3), 1, 20000, seed=2)
    b = dual_affine_quermass(unit_cube(3), 1, 20000, seed=2)
    assert a.estimate == b.estimate
    assert a.estimate > 0.0 and math.isfinite(a.estimate)


def test_grinberg_identity_map_exact():
    rec = grinberg_check([1.0, 1.0, 1.0], 3, 1, 20000, seed=3)
    assert rec["phi_cube"] == rec["phi_image"]
    assert rec["difference"] == 0.0


def test_grinberg_3_1():
    rec = grinberg_check([2.0, 0.5, 1.0], 3, 1, 100000, seed=17)
    assert rec["pass"], rec


def test_grinberg_4_2():
    rec = grinberg_check([2.0, 0.5, 3.0, 1.0 / 3.0], 4, 2, 20000, seed=19)
    assert rec["pass"], rec


def test_grinberg_rejects_non_volume_preserving():
    with pytest.raises(ValueError):
        grinberg_check([2.0, 1.0, 1.0], 3, 1, 2000, seed=0)


def test_sample_count_guards():
    with pytest.raises(ValueError):
        cube_avg_power(2, 1, 10, seed=0)
    with pytest.raises(ValueError):
        avg_marginal_power(cube_density(2), 1, 10)


def _centered_density(seed, n):
    """A random step product density whose factors' supports are centered at
    0, so that most marginals at 0 are positive."""
    factors = random_product_density(seed, n, 3).factors
    return ProductDensity([g.shifted(-g.support_midpoint()) for g in factors])


# Subspaces that leave the batched 2-D route: a coordinate subspace (zero
# frame rows) and the paired diagonals (a frame split into orthogonal blocks).
_FALLBACK_BASES = {
    3: Subspace.coordinate(4, [0, 1]).basis,
    8: sharp_paired_subspace(4, 2).basis,
}


def _reference_marginal_values_at_zero(f, k, samples, seed, stream, special=None):
    """The per-sample loop that the batched route replaces; sample i uses
    special[i] as its basis where given."""
    special = special or {}
    vals = np.empty(samples)
    for i in range(samples):
        e = Subspace(special[i]) if i in special else haar_sample(f.n, k, seed, stream=stream + 1 + i)
        vals[i] = marginal_at(MarginalQuery(f, e, np.zeros(k)), 1e-9)
    return vals


def _reference_box_section_values(box, k, samples, seed, stream, special=None):
    special = special or {}
    vals = np.empty(samples)
    for i in range(samples):
        e = Subspace(special[i]) if i in special else haar_sample(box.n, k, seed, stream=stream + 1 + i)
        vals[i] = section_quadrature(box, e)
    return vals


def _with_special_lanes(monkeypatch, special):
    """Make average draw special[i] in place of sample i of stream 0."""

    def patched(n, k, seed, streams):
        bases = haar_bases(n, k, seed, streams)
        for i, basis in special.items():
            bases[np.asarray(streams) == 1 + i] = basis
        return bases

    monkeypatch.setattr(average, "haar_bases", patched)


@pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (5, 3), (4, 1), (5, 2)])
def test_batched_marginal_values_match_per_sample_loop(n, k):
    # n - k = 2 goes lane-wise through the 2-D clipper, n - k = 3 falls back
    f = _centered_density(40 + n, n)
    got = _marginal_values_at_zero(f, k, 120, 1e-9, seed=n, stream=5)
    assert np.array_equal(got, _reference_marginal_values_at_zero(f, k, 120, n, 5))
    assert np.count_nonzero(got) > 100


@pytest.mark.parametrize("n,k", [(3, 2), (4, 2), (6, 2), (4, 3), (5, 3)])
def test_batched_box_sections_match_per_sample_loop(n, k):
    box = Box(np.linspace(0.6, 1.7, n))
    got = _box_section_values(box, k, 150, seed=n, stream=2)
    assert np.array_equal(got, _reference_box_section_values(box, k, 150, n, 2))


def test_batched_routes_mix_fallback_lanes(monkeypatch):
    _with_special_lanes(monkeypatch, _FALLBACK_BASES)
    f = _centered_density(3, 4)
    got = _marginal_values_at_zero(f, 2, 40, 1e-9, seed=1, stream=0)
    assert np.array_equal(got, _reference_marginal_values_at_zero(f, 2, 40, 1, 0, _FALLBACK_BASES))
    box = Box([0.8, 1.1, 1.3, 0.7])
    got = _box_section_values(box, 2, 40, seed=1, stream=0)
    assert np.array_equal(got, _reference_box_section_values(box, 2, 40, 1, 0, _FALLBACK_BASES))
    assert got[3] == pytest.approx(0.8 * 1.1) and got[8] == pytest.approx(2.0 * 0.8 * 0.7)


def test_batched_values_do_not_depend_on_chunk(monkeypatch):
    f = _centered_density(7, 4)
    box = Box([0.8, 1.1, 1.3, 0.7])
    runs = []
    for chunk in (1 << 20, 5):
        monkeypatch.setattr(average, "_DIR_CHUNK", chunk)
        runs.append((
            _marginal_values_at_zero(f, 2, 60, 1e-9, seed=4, stream=0),
            _box_section_values(box, 2, 60, seed=4, stream=0),
        ))
    (m_whole, s_whole), (m_chunked, s_chunked) = runs
    assert np.array_equal(m_whole, m_chunked) and np.array_equal(s_whole, s_chunked)
