import math

import mpmath
import numpy as np
import pytest

from margbounds import average, bounds, special
from margbounds.quadrature import ToleranceError
from margbounds.special import hurwitz_zeta, sici


def _gauss_legendre_on_unit_interval(n):
    """Nodes and weights of the n-node Gauss-Legendre rule on [0, 1], from
    the roots of P_n refined in mpmath, each rounded once to a float."""
    nodes, weights = [], []
    for start in np.polynomial.legendre.leggauss(n)[0]:
        x = mpmath.findroot(lambda t: mpmath.legendre(n, t), mpmath.mpf(float(start)))
        slope = n * (x * mpmath.legendre(n, x) - mpmath.legendre(n - 1, x)) / (x * x - 1)
        nodes.append(float((1 + x) / 2))
        weights.append(float(1 / ((1 - x * x) * slope * slope)))
    return nodes, weights


def test_constant_tables_are_the_correctly_rounded_mpmath_values():
    with mpmath.workdps(60):
        nodes, weights = _gauss_legendre_on_unit_interval(20)
        assert special._GL_NODES.tolist() == nodes
        assert special._GL_WEIGHTS.tolist() == weights
        at = range(special._NODE_FIRST, special._NODE_FIRST + len(special._SI_AT_NODES))
        assert list(at)[-1] == special._LARGE_X
        assert special._SI_AT_NODES.tolist() == [float(mpmath.si(n)) for n in at]
        assert special._CI_AT_NODES.tolist() == [float(mpmath.ci(n)) for n in at]
        assert special._EULER_GAMMA == float(mpmath.euler)
        assert list(special._EM_COEFFICIENTS) == [
            float(mpmath.bernoulli(2 * j) / mpmath.factorial(2 * j)) for j in range(1, 12)]
        assert average._PI_LO == float(mpmath.pi - mpmath.mpf(math.pi))


def _sici_grid():
    """[1e-10, 1e8], dense around the branch boundaries 4 and 40, with every
    tabled integer node and the half-integers where the nearest node ties."""
    near = [np.linspace(b - 0.5, b + 0.5, 201) for b in (special._SMALL_X, special._LARGE_X)]
    edges = [np.nextafter(b, [0.0, math.inf]) for b in (special._SMALL_X, special._LARGE_X)]
    return np.concatenate([np.geomspace(1e-10, 1e8, 1500), *near, *edges,
                           [special._SMALL_X, special._LARGE_X],
                           np.arange(4.0, 40.5, 0.5), np.geomspace(40.0, 2100.0, 300)])


def test_sici_matches_mpmath_within_its_bound():
    x = _sici_grid()
    si, ci = sici(x)
    with mpmath.workdps(40):
        si_err = np.array([float(abs(mpmath.si(v) - s)) for v, s in zip(x.tolist(), si.tolist())])
        ci_err = np.array([float(abs(mpmath.ci(v) - c)) for v, c in zip(x.tolist(), ci.tolist())])
    assert si_err.max() <= 4e-15
    assert ci_err.max() <= 4e-15
    # the docstring's bounds
    assert np.all(si_err <= 1e-15)
    assert np.all(ci_err <= 1e-15 + 2.3e-16 * np.abs(np.log(x)))


def test_sici_keeps_each_arguments_bits_whatever_its_neighbours():
    # the sinc tail calls sici on lane batches of any size; the reference
    # expansion calls it one frequency at a time
    rng = np.random.default_rng(5)
    for size in (1, 3, 8, 17, 130):
        x = np.exp(rng.uniform(math.log(1e-3), math.log(5e3), size))
        si, ci = sici(x)
        for i in range(size):
            one_si, one_ci = sici(x[i : i + 1])
            assert (one_si[0].hex(), one_ci[0].hex()) == (si[i].hex(), ci[i].hex())
            zero_d = sici(x[i])
            assert (float(zero_d[0]), float(zero_d[1])) == (si[i], ci[i])


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_sici_rejects_arguments_outside_its_domain(bad):
    with pytest.raises(ValueError):
        sici(np.array([1.0, bad]))


_ZETA_S = (2.0, 2.5, 7.3, 30.0, 1e3, 1e6)
_ZETA_A = (8.5, 100.5, 60000.5)


@pytest.mark.parametrize("s", _ZETA_S)
@pytest.mark.parametrize("a", _ZETA_A)
def test_hurwitz_zeta_matches_mpmath_within_its_bound(s, a):
    value, err = hurwitz_zeta(s, a)
    assert math.isfinite(value) and math.isfinite(err)
    # mpmath.zeta loses digits at large a (at 50 digits it is 2e-13 off at
    # s = 30, a = 100.5), so the oracle runs at 300
    with mpmath.workdps(300):
        want = mpmath.zeta(s, a)
        assert abs(value - want) <= err
    assert err <= 1e-13 * float(want) + 1e-300
    assert value == 0.0 or abs(value - float(want)) <= 1e-15 * float(want)


@pytest.mark.parametrize("s, a", [(1.0, 8.5), (0.5, 8.5), (2.0, 0.0), (2.0, -1.0),
                                  (math.nan, 8.5), (2.0, math.inf), (math.inf, 8.5)])
def test_hurwitz_zeta_rejects_arguments_outside_its_domain(s, a):
    with pytest.raises(ValueError):
        hurwitz_zeta(s, a)


def test_ball_integral_counts_the_zeta_error_in_its_bound(monkeypatch):
    real = special.hurwitz_zeta
    monkeypatch.setattr(bounds.special, "hurwitz_zeta", lambda s, a: (real(s, a)[0], 1e3))
    with pytest.raises(ToleranceError) as info:
        bounds.ball_integral(3.0)
    assert info.value.achieved > 1.0
