import math

import mpmath
import numpy as np
import pytest
from slab_reference import scalar_slab_sum

from margbounds import average, slabgeom
from margbounds.average import (
    cube_avg_power,
    grinberg_check,
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
from margbounds.sections import (
    Box,
    box_pieces,
    section_quadrature,
    sharp_paired_subspace,
    unit_cube,
)


def test_unit_ball_volumes():
    assert unit_ball_volume(1) == pytest.approx(2.0)
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)


def test_unit_ball_volumes_match_mpmath_to_an_ulp_and_a_half():
    # up to n = 435, the last n whose omega_n is a normal float
    with mpmath.workdps(60):
        for n in range(436):
            want = mpmath.pi ** (mpmath.mpf(n) / 2) / mpmath.gamma(mpmath.mpf(n) / 2 + 1)
            got = unit_ball_volume(n)
            assert abs(got - want) <= 1.5 * math.ulp(got), n
    # below the normal range, and where pi^(n/2) alone leaves the float range
    assert 0.0 < unit_ball_volume(436) < 2.3e-308
    assert unit_ball_volume(1242) == unit_ball_volume(5000) == 0.0


def _marginal_values(f, k, samples, seed, stream):
    """pi_E(f)(0) over the Haar samples, one value per sample."""
    pieces = [g.pieces for g in f.factors]
    return average._slab_sums_at_zero([pieces], k, samples, seed, stream, True)[0]


def _section_values(box, k, samples, seed, stream):
    """|K cap E| over the Haar samples, one value per sample."""
    return average._slab_sums_at_zero([box_pieces(box)], k, samples, seed, stream, False)[0]


def _quermass(box, k, samples, seed, stream):
    """The dual affine quermassintegral of the box from its own draw."""
    return average._quermass_average(_section_values(box, k, samples, seed, stream), box.n, k, seed)


def _line_sums(pieces, dirs):
    return average._line_sums(dirs, slabgeom.nonzero_combinations(pieces))


def test_line_marginals_match_marginal_at():
    # Haar directions, then zero coordinates (those factors stay constant at
    # f_i(0)), one of them just inside the zero threshold
    for seed in range(15):
        n = 2 + seed % 3
        f = _centered_density(seed, n)
        dirs = haar_directions(n, 4, seed=seed + 50)
        dirs[1] = np.eye(n)[0]
        dirs[2, 1] = 0.0
        dirs[3, 0] = 1e-13
        dirs[2:] /= np.linalg.norm(dirs[2:], axis=1)[:, None]
        got = _line_sums([g.pieces for g in f.factors], dirs)
        for v, value in zip(dirs, got):
            # the direction spans the complement of a hyperplane subspace
            e = orthonormal_complement(Subspace(v))
            want = marginal_at(MarginalQuery(f, e, np.zeros(n - 1)))
            assert value == pytest.approx(want, rel=1e-15, abs=0.0), (seed, v)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_line_sums_match_scalar_slab_sum(n):
    # product densities with centered factors (some pieces contain 0 and
    # some do not) and box indicators, on Haar directions
    dirs = haar_directions(n, 300, seed=n, stream=0)
    zero = np.zeros(n)
    for pieces in ([g.pieces for g in _centered_density(n, n).factors],
                   box_pieces(Box(np.linspace(0.6, 1.7, n)))):
        got = _line_sums(pieces, dirs)
        assert np.count_nonzero(got) > 200
        want = [scalar_slab_sum(v[:, None], pieces, zero) for v in dirs]
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [3, 400])
def test_grinberg_line_sections_are_the_chord_formula(n):
    # k = 1: the box sections through the line sum have the bits of the
    # chord 2 min_i (z_i / 2) / |v_i|
    box = Box(np.linspace(0.5, 1.5, n))
    got = _section_values(box, 1, 1000, seed=n, stream=4)
    dirs = haar_directions(n, 1000, seed=n, stream=4)
    want = 2.0 * ((box.sides / 2.0)[None, :] / np.abs(dirs)).min(axis=1)
    assert np.array_equal(got, want)


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
    # the slab-sum route of the cube's marginal power average against
    # cube_avg_power's Irwin-Hall batch: n - k = 1 on both sides, so
    # identical streams, identical inner formula
    vals = _marginal_values(cube_density(2), 1, 50000, seed=3, stream=0)
    a, _ = average._mean_se(average._powered(vals, 2.0))
    b = cube_avg_power(2, 1, 50000, seed=3)
    assert a == pytest.approx(b.estimate, rel=1e-12)


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
    # sections all of measure 1
    const = average._quermass_average(np.ones(1000), 3, 2, seed=1)
    assert const.estimate == pytest.approx(unit_ball_volume(3) / unit_ball_volume(2))
    assert const.std_error == 0.0


def test_dual_affine_quermass_reproducible():
    a, b = (_quermass(unit_cube(3), 1, 20000, seed=2, stream=0) for _ in range(2))
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
        prop_avg_check(cube_density(2), 1, 10)


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
        vals[i] = marginal_at(MarginalQuery(f, e, np.zeros(k)))
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
    # n - k = 2 and 3 go lane-wise through the 2-D and 3-D kernels
    f = _centered_density(40 + n, n)
    got = _marginal_values(f, k, 120, seed=n, stream=5)
    assert np.array_equal(got, _reference_marginal_values_at_zero(f, k, 120, n, 5))
    assert np.count_nonzero(got) > 100


@pytest.mark.parametrize("n,k", [(3, 2), (4, 2), (6, 2), (4, 3), (5, 3)])
def test_batched_box_sections_match_per_sample_loop(n, k):
    box = Box(np.linspace(0.6, 1.7, n))
    got = _section_values(box, k, 150, seed=n, stream=2)
    assert np.array_equal(got, _reference_box_section_values(box, k, 150, n, 2))


def test_batched_routes_mix_fallback_lanes(monkeypatch):
    _with_special_lanes(monkeypatch, _FALLBACK_BASES)
    f = _centered_density(3, 4)
    got = _marginal_values(f, 2, 40, seed=1, stream=0)
    assert np.array_equal(got, _reference_marginal_values_at_zero(f, 2, 40, 1, 0, _FALLBACK_BASES))
    box = Box([0.8, 1.1, 1.3, 0.7])
    got = _section_values(box, 2, 40, seed=1, stream=0)
    assert np.array_equal(got, _reference_box_section_values(box, 2, 40, 1, 0, _FALLBACK_BASES))
    assert got[3] == pytest.approx(0.8 * 1.1) and got[8] == pytest.approx(2.0 * 0.8 * 0.7)



def test_batched_3d_routes_mix_fallback_lanes(monkeypatch):
    # n - k = 3 marginals and k = 3 sections: a coordinate subspace (zero
    # rows) and a frame of three orthogonal 1-D blocks leave the 3-D route
    split = np.zeros((5, 3))
    split[0, 0] = 1.0
    split[1:3, 1] = split[3:5, 2] = 1.0 / math.sqrt(2.0)
    special = {2: Subspace.coordinate(5, [0, 1]).basis, 5: sharp_paired_subspace(5, 2).basis}
    _with_special_lanes(monkeypatch, special)
    f = _centered_density(5, 5)
    got = _marginal_values(f, 2, 30, seed=2, stream=0)
    assert np.array_equal(got, _reference_marginal_values_at_zero(f, 2, 30, 2, 0, special))
    special = {2: Subspace.coordinate(5, [0, 1, 2]).basis, 5: split}
    _with_special_lanes(monkeypatch, special)
    box = Box([0.8, 1.1, 1.3, 0.7, 1.2])
    got = _section_values(box, 3, 30, seed=2, stream=0)
    assert np.array_equal(got, _reference_box_section_values(box, 3, 30, 2, 0, special))
    assert got[2] == pytest.approx(0.8 * 1.1 * 1.3) and got[5] == pytest.approx(0.8 * 1.1 * 0.7 * 2.0)

def test_batched_values_do_not_depend_on_chunk(monkeypatch):
    f = _centered_density(7, 4)
    box = Box([0.8, 1.1, 1.3, 0.7])
    runs = []
    for chunk in (1 << 20, 5):
        monkeypatch.setattr(average, "_DIR_CHUNK", chunk)
        runs.append((
            _marginal_values(f, 2, 60, seed=4, stream=0),
            _section_values(box, 2, 60, seed=4, stream=0),
        ))
    (m_whole, s_whole), (m_chunked, s_chunked) = runs
    assert np.array_equal(m_whole, m_chunked) and np.array_equal(s_whole, s_chunked)


def _prop_avg_reference(f, k, samples, seed, stream):
    """prop_avg_check with each side through its own single-integrand call,
    so each side draws and frames its own subspaces."""
    n = f.n
    lhs_vals = average._powered(_marginal_values(f, k, samples, seed, stream), float(n))
    rhs_vals = average._powered(
        _marginal_values(cube_density(n), k, samples, seed, stream), float(n)
    )
    lhs, lhs_se = average._mean_se(lhs_vals)
    rhs, rhs_se = average._mean_se(rhs_vals)
    diff, diff_se = average._mean_se(lhs_vals - rhs_vals)
    return {"lhs": lhs, "lhs_se": lhs_se, "rhs": rhs, "rhs_se": rhs_se,
            "paired_diff": diff, "paired_se": diff_se, "pass": bool(diff <= 3.0 * diff_se)}


def _grinberg_reference(diag, n, k, samples, seed, stream):
    """grinberg_check with each box through its own single-integrand call,
    so each side draws and frames its own subspaces."""
    phi_q = _quermass(unit_cube(n), k, samples, seed, stream)
    phi_sq = _quermass(Box(np.abs(diag)), k, samples, seed, stream)
    diff = abs(phi_q.estimate - phi_sq.estimate)
    combined_se = math.hypot(phi_q.std_error, phi_sq.std_error)
    return {"phi_cube": phi_q.estimate, "phi_cube_se": phi_q.std_error,
            "phi_image": phi_sq.estimate, "phi_image_se": phi_sq.std_error,
            "difference": diff, "combined_se": combined_se,
            "pass": bool(diff <= 3.0 * combined_se)}


_PROP_CASES = [(2, 1), (3, 1), (4, 2), (4, 1), (5, 2)]
_GRINBERG_CASES = [
    ([2.0, 0.5, 1.0], 3, 1),
    ([2.0, 0.5, 3.0, 1.0 / 3.0], 4, 2),
    ([1.5, 0.8, 1.25, 0.5, 1.0 / 0.75], 5, 3),
]


def _assert_same_record(got, want):
    assert list(got) == list(want)
    for key in want:
        assert got[key] == want[key], key


@pytest.mark.parametrize("n,k", _PROP_CASES)
def test_prop_avg_shared_draw_matches_one_draw_per_side(n, k):
    # line (n - k = 1), 2-D and 3-D routes
    f = _centered_density(20 + n, n)
    _assert_same_record(prop_avg_check(f, k, 1000, seed=n + k, stream=3),
                        _prop_avg_reference(f, k, 1000, n + k, 3))


@pytest.mark.parametrize("diag,n,k", _GRINBERG_CASES)
def test_grinberg_shared_draw_matches_one_draw_per_side(diag, n, k):
    _assert_same_record(grinberg_check(diag, n, k, 1000, seed=k, stream=1),
                        _grinberg_reference(diag, n, k, 1000, k, 1))


def test_paired_checks_keep_the_one_draw_per_side_bits():
    # float.hex of report fields from before both sides shared one draw; the
    # four-row closed form (now kernels._edge_sum_areas, for the 2-D lanes at
    # n = 4, k = 2) then moved paired_se here, and phi_image and combined_se
    # below, by 1, 1 and 2 units in the last place
    #
    # The Householder QR of grassmann._householder_qr (in place of LAPACK's,
    # for the Haar bases and their complements) moved lhs from ...342c2p-1
    # by +2 ulp, paired_se from ...110cap-5 by +1, phi_image from
    # ...bca57p+0 by -2, combined_se from ...f1b9p-4 by -8 and phi_cube
    # from ...715a1p+0 by +1; rhs, paired_diff and difference kept their bits
    #
    # The in-order sum of StepDensity.l1_norm (for np.dot, a BLAS ddot, so
    # that the density's normalization does not move with the BLAS kernel)
    # moved lhs from ...342c4p-1 by +8 ulp
    f = _centered_density(24, 4)
    rec = prop_avg_check(f, 2, 1000, seed=6, stream=3)
    assert rec["lhs"].hex() == "0x1.8a52450d342ccp-1"
    assert rec["rhs"].hex() == "0x1.dd9831d29fcaap+1"
    assert rec["paired_se"].hex() == "0x1.a2ff91eb110cbp-5"
    rec = prop_avg_check(_centered_density(23, 3), 1, 1000, seed=4, stream=3)
    assert rec["paired_diff"].hex() == "-0x1.59849943f5f55p+0"
    rec = grinberg_check([2.0, 0.5, 3.0, 1.0 / 3.0], 4, 2, 1000, seed=2, stream=1)
    # the n-th powers of raw / max(raw) moved these two by an ulp: against
    # 60-digit mpmath on the same section values, phi_image from +0.17 to
    # -0.35 and combined_se from -0.64 to +0.24 units of 2^-52 relative
    assert rec["phi_image"].hex() == "0x1.e92186c2bca55p+0"
    assert rec["combined_se"].hex() == "0x1.24d963749f1b1p-4"
    rec = grinberg_check([2.0, 0.5, 1.0], 3, 1, 1000, seed=1, stream=1)
    assert rec["difference"].hex() == "0x1.90f0b9f615500p-6"
    rec = grinberg_check([1.5, 0.8, 1.25, 0.5, 1.0 / 0.75], 5, 3, 1000, seed=3, stream=1)
    # omega_5 / omega_3 from the closed-form volumes, times max(raw), with
    # the 3-D sections in the Haar frames' own coordinates: 0.57 units of
    # 2^-52 relative below 60-digit mpmath over the exact sections (the
    # SVD-rotated frames gave 0x1.dc61f6b8715a3p+0, 0.50 units above), on
    # the frames of LAPACK's QR, which gave 0x1.dc61f6b8715a1p+0
    assert rec["phi_cube"].hex() == "0x1.dc61f6b8715a2p+0"


def test_grinberg_identity_map_stays_finite_at_large_n():
    # raw^400 overflows for the chords of Q_400 longer than about 5.9; the
    # powers of raw / max(raw) do not, and the identity map's two sides agree
    rec = grinberg_check(np.ones(400), 400, 1, 1000, seed=1)
    assert math.isfinite(rec["phi_cube"]) and rec["phi_cube"] > 0.0
    assert rec["phi_image"] == rec["phi_cube"] and rec["difference"] == 0.0
    assert math.isfinite(rec["combined_se"]) and rec["pass"]


def test_paired_checks_share_fallback_subspaces(monkeypatch):
    # subspaces that leave the batched 2-D and 3-D routes fall back once per
    # side, with each side's own bits
    _with_special_lanes(monkeypatch, _FALLBACK_BASES)
    f = _centered_density(3, 4)
    _assert_same_record(prop_avg_check(f, 2, 1000, seed=1), _prop_avg_reference(f, 2, 1000, 1, 0))
    diag = [2.0, 0.5, 3.0, 1.0 / 3.0]
    _assert_same_record(grinberg_check(diag, 4, 2, 1000, seed=1),
                        _grinberg_reference(diag, 4, 2, 1000, 1, 0))
    _with_special_lanes(monkeypatch, {2: Subspace.coordinate(5, [0, 1]).basis,
                                      5: sharp_paired_subspace(5, 2).basis})
    f = _centered_density(5, 5)
    _assert_same_record(prop_avg_check(f, 2, 1000, seed=2), _prop_avg_reference(f, 2, 1000, 2, 0))
    split = np.zeros((5, 3))
    split[0, 0] = 1.0
    split[1:3, 1] = split[3:5, 2] = 1.0 / math.sqrt(2.0)
    _with_special_lanes(monkeypatch, {2: Subspace.coordinate(5, [0, 1, 2]).basis, 5: split})
    diag = [1.5, 0.8, 1.25, 0.5, 1.0 / 0.75]
    _assert_same_record(grinberg_check(diag, 5, 3, 1000, seed=2),
                        _grinberg_reference(diag, 5, 3, 1000, 2, 0))


def test_paired_checks_do_not_depend_on_chunk(monkeypatch):
    f3, f4 = _centered_density(8, 3), _centered_density(7, 4)
    runs = []
    for chunk in (1 << 20, 5):
        monkeypatch.setattr(average, "_DIR_CHUNK", chunk)
        runs.append([
            prop_avg_check(f3, 1, 1000, seed=5),
            prop_avg_check(f4, 2, 1000, seed=5),
            grinberg_check([2.0, 0.5, 1.0], 3, 1, 1000, seed=5),
            grinberg_check([2.0, 0.5, 3.0, 1.0 / 3.0], 4, 2, 1000, seed=5),
        ])
    for whole, chunked in zip(*runs):
        _assert_same_record(chunked, whole)


def test_chunk_without_a_single_block_frame_falls_back(monkeypatch):
    # one subspace per chunk: the chunk of the coordinate subspace has no
    # frame for the batched route
    monkeypatch.setattr(average, "_DIR_CHUNK", 1)
    special = {3: Subspace.coordinate(4, [0, 1]).basis}
    _with_special_lanes(monkeypatch, special)
    box = Box([0.8, 1.1, 1.3, 0.7])
    got = _section_values(box, 2, 6, seed=1, stream=0)
    assert np.array_equal(got, _reference_box_section_values(box, 2, 6, 1, 0, special))
    f = _centered_density(3, 4)
    got = _marginal_values(f, 2, 6, seed=1, stream=0)
    assert np.array_equal(got, _reference_marginal_values_at_zero(f, 2, 6, 1, 0, special))


def test_frame_with_skewed_columns_falls_back_to_its_slab_sum(monkeypatch):
    # a full-rank, one-component frame whose columns are 1e-9 from
    # orthonormal leaves the batched route, and gets its SlabSum value
    skew = haar_bases(4, 2, 6, np.arange(1))[0] * [1.0 + 1e-9, 1.0]
    assert not slabgeom.single_block_frames(skew[None]).any()
    _with_special_lanes(monkeypatch, {4: skew})
    box = Box([0.8, 1.1, 1.3, 0.7])
    got = _section_values(box, 2, 12, seed=1, stream=0)
    assert got[4] > 0.0 and got[4] == slabgeom.SlabSum(skew, box_pieces(box)).value(np.zeros(4))
    monkeypatch.undo()
    want = _section_values(box, 2, 12, seed=1, stream=0)
    assert np.array_equal(np.delete(got, 4), np.delete(want, 4))


def test_haar_frames_wider_than_the_kernels_raise_block_too_wide():
    # n - k = 4: orthonormal one-block frames, but no kernel for d = 4
    with pytest.raises(slabgeom.BlockTooWideError):
        prop_avg_check(cube_density(6), 2, 1000, seed=1)


def _spy(monkeypatch, owner, name, log):
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        log.append((name, args))
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)


@pytest.mark.parametrize("check", ["prop_avg", "grinberg"])
def test_paired_checks_draw_and_frame_once_per_chunk(monkeypatch, check):
    monkeypatch.setattr(average, "_DIR_CHUNK", 40)
    log = []
    for owner, name in [(average, "haar_bases"), (average, "complement_bases"),
                        (slabgeom, "single_block_frames"), (slabgeom.kernels, "frame_tables"),
                        (slabgeom.kernels, "table_volumes"), (np.linalg, "svd")]:
        _spy(monkeypatch, owner, name, log)
    if check == "prop_avg":
        f = _centered_density(7, 4)
        prop_avg_check(f, 2, 1000, seed=5)
        lanes = len(slabgeom.nonzero_combinations([g.pieces for g in f.factors])[2]) + 1
        names = ["haar_bases", "complement_bases", "single_block_frames", "frame_tables", "table_volumes"]
    else:
        grinberg_check([2.0, 0.5, 3.0, 1.0 / 3.0], 4, 2, 1000, seed=5)
        lanes = 2
        names = ["haar_bases", "single_block_frames", "frame_tables", "table_volumes"]
    # chunk after chunk: one draw, one framing, one table build and one
    # kernel call each, and no SVD (the frames are integrated in their own
    # coordinates); each stream drawn once, at most _DIR_CHUNK lanes of both
    # sides a chunk
    chunks = [args[3] for name, args in log if name == "haar_bases"]
    assert len(chunks) > 10
    assert [name for name, _ in log] == names * len(chunks)
    assert np.array_equal(np.concatenate(chunks), 1 + np.arange(1000))
    assert max(len(c) for c in chunks) * lanes <= 40


@pytest.mark.parametrize("check", ["prop_avg", "grinberg"])
def test_paired_line_checks_draw_once_per_chunk(monkeypatch, check):
    monkeypatch.setattr(average, "_DIR_CHUNK", 300)
    log = []
    _spy(monkeypatch, average, "haar_directions", log)
    if check == "prop_avg":
        prop_avg_check(_centered_density(8, 3), 2, 1000, seed=5)
    else:
        grinberg_check([2.0, 0.5, 1.0], 3, 1, 1000, seed=5)
    assert [args[4] for _, args in log] == [0, 300, 600, 900]
