import json
import math

import mpmath
import numpy as np
import pytest

from margbounds import slabgeom
from margbounds.densities import (
    DensityFormatError,
    ProductDensity,
    StepDensity,
    cube_density,
    random_density,
    random_product_density,
    uniform_density,
)


def test_canonicalization_sorts_and_merges():
    f = StepDensity([(0.5, 1.0, 2.0), (-1.0, 0.0, 1.0), (0.0, 0.5, 2.0)])
    assert f.pieces == ((-1.0, 0.0, 1.0), (0.0, 1.0, 2.0))


def test_zero_value_pieces_dropped():
    f = StepDensity([(0.0, 1.0, 1.0), (2.0, 3.0, 0.0)])
    assert f.support() == (0.0, 1.0)


def test_invalid_pieces_raise():
    with pytest.raises(DensityFormatError):
        StepDensity([(1.0, 0.0, 1.0)])
    with pytest.raises(DensityFormatError):
        StepDensity([(0.0, 1.0, -1.0)])
    with pytest.raises(DensityFormatError):
        StepDensity([(0.0, 1.0, 1.0), (0.5, 1.5, 1.0)])
    with pytest.raises(DensityFormatError):
        StepDensity([(0.0, 1.0, 0.0)])


def test_norms():
    f = StepDensity([(0.0, 1.0, 2.0), (1.0, 3.0, 0.5)])
    assert f.l1_norm() == pytest.approx(3.0)
    assert f.sup_norm() == 2.0
    assert f.lp_norm(2) == pytest.approx(math.sqrt(4.0 + 0.5))
    assert f.lp_norm(math.inf) == 2.0
    with pytest.raises(ValueError):
        f.lp_norm(0.5)


@pytest.mark.parametrize("p", [2, 200, 2000, 1e6])
def test_lp_norm_matches_mpmath_at_large_p(p):
    # v**p overflows at p = 2000 for a sup of 2; the sup-scaled form does not
    pieces = [(0.0, 0.25, 2.0), (0.25, 1.0, 2.0 / 3.0)]
    with mpmath.workdps(50):
        want = mpmath.fsum(mpmath.mpf(v) ** p * (mpmath.mpf(hi) - mpmath.mpf(lo))
                           for lo, hi, v in pieces) ** (mpmath.mpf(1) / p)
    assert StepDensity(pieces).lp_norm(p) == pytest.approx(float(want), rel=1e-14)
    assert StepDensity(pieces).lp_norm(math.inf) == 2.0


def test_value_at_half_open():
    f = StepDensity([(0.0, 1.0, 2.0)])
    assert slabgeom.step_value(f.pieces, 0.0) == 2.0
    assert slabgeom.step_value(f.pieces, 1.0) == 0.0
    assert slabgeom.step_value(f.pieces, -0.1) == 0.0


def test_normalized():
    f = StepDensity([(0.0, 2.0, 3.0)])
    g = f.normalized()
    assert g.is_normalized()


def test_shift_and_dilate():
    f = uniform_density(-0.5, 0.5)
    g = f.shifted(5.0)
    assert g.support() == (4.5, 5.5)
    assert g.l1_norm() == pytest.approx(1.0)
    h = f.dilated(2.0)
    assert h.sup_norm() == pytest.approx(2.0)
    assert h.l1_norm() == pytest.approx(1.0)
    assert h.support() == (-0.25, 0.25)


def test_inverse_cdf_exact_quantiles():
    f = StepDensity([(0.0, 1.0, 0.5), (1.0, 2.0, 0.5)])
    u = np.array([0.0, 0.25, 0.5, 0.75])
    assert f.inverse_cdf(u) == pytest.approx([0.0, 0.5, 1.0, 1.5])


def test_inverse_cdf_skips_gaps():
    f = StepDensity([(0.0, 1.0, 0.5), (3.0, 4.0, 0.5)])
    x = f.inverse_cdf(np.array([0.6, 0.99]))
    assert np.all((x >= 3.0) & (x < 4.0))


def test_json_roundtrip():
    f = StepDensity([(0.0, 1.0, 0.25), (1.5, 2.0, 1.5)])
    g = StepDensity.from_json_dict(json.loads(json.dumps(f.to_json_dict())))
    assert g.pieces == f.pieces


def test_json_bad_shape():
    with pytest.raises(DensityFormatError):
        StepDensity.from_json_dict({"rows": []})


@pytest.mark.parametrize("pieces", [
    [[0, 1]], [[0, 1, 1, 2]], 5, None, [5], [[0, "x", 1]], [[0, "1", 1]], [[0, True, 1]],
    [[0, 1, None]], [[0, 1, [1]]], "012",
])
def test_rows_that_are_not_three_numbers_raise(pieces):
    with pytest.raises(DensityFormatError, match="invariant violated: "):
        StepDensity.from_json_dict({"pieces": pieces})


@pytest.mark.parametrize("factors", [5, [], None, {"pieces": [[0, 1, 1]]}])
def test_products_need_a_list_of_factors(factors):
    with pytest.raises(DensityFormatError, match="invariant violated: "):
        ProductDensity.from_json_dict({"factors": factors})


def test_random_density_in_class():
    for seed in range(30):
        f = random_density(seed, 3, 1.0)
        assert f.is_normalized(1e-9)
        assert f.sup_norm() <= 1.0 + 1e-12


def test_random_density_deterministic():
    assert random_density(4, 3, 1.0).pieces == random_density(4, 3, 1.0).pieces


def test_product_density():
    f = cube_density(3)
    assert f.n == 3
    assert f.sup_norms() == pytest.approx([1.0, 1.0, 1.0])
    assert f.in_class_f()
    x = f.sample(1, 1000)
    assert x.shape == (1000, 3)
    assert np.all(np.abs(x) <= 0.5)


def test_product_sampling_chunk_invariance():
    f = random_product_density(2, 3)
    whole = f.sample(5, 100)
    parts = np.vstack([f.sample(5, 50, start=0), f.sample(5, 50, start=50)])
    assert np.array_equal(whole, parts)


def test_product_json_roundtrip():
    f = random_product_density(9, 2)
    g = ProductDensity.from_json_dict(json.loads(json.dumps(f.to_json_dict())))
    assert all(a.pieces == b.pieces for a, b in zip(f.factors, g.factors))


@pytest.mark.parametrize("bound", [0.3, 1.0, 1e9])
@pytest.mark.parametrize("max_pieces", [1, 2, 3, 4])
def test_product_draw_matches_per_factor_draws(max_pieces, bound):
    # bound 0.3 is below every unit-mass density's sup on [-1, 1], so each
    # factor takes the rescale branch
    for n in range(1, 7):
        for base in (0, 1, 1024, 7 * 1024 + 3):
            for seed in (0, 11, 2**63 + 5):
                want = ProductDensity(
                    [random_density(seed, max_pieces, bound, stream=base + 1 + i) for i in range(n)]
                )
                got = random_product_density(seed, n, max_pieces, bound, stream_base=base)
                assert got == want
    assert all(f.sup_norm() <= 0.3 + 1e-12 for f in random_product_density(3, 6, 3, 0.3).factors)
