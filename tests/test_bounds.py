import math

import mpmath
import numpy as np
import pytest
from slab_reference import scalar_slab_sum

from margbounds import bounds
from margbounds.bounds import (
    BLSystem,
    GaussianDensity,
    ball_integral,
    bl_check,
    bound_box1,
    bound_box2,
    bound_main,
    frame_constant_check,
    mercedes_system,
    random_bl_system,
)
from margbounds.densities import StepDensity, random_density, uniform_density
from margbounds.quadrature import ToleranceError
from margbounds.grassmann import (
    Subspace,
    frame_of_complement,
    haar_sample,
    orthonormal_complement,
)
from margbounds.sections import (
    section_quadrature,
    sharp_block_subspace,
    sharp_paired_subspace,
    unit_cube,
)


def test_ball_integral_closed_forms():
    assert ball_integral(2.0) == pytest.approx(1.0, abs=1e-8)
    assert ball_integral(4.0) == pytest.approx(2.0 / 3.0, abs=1e-8)


def test_ball_integral_upper_bound_strict_above_two():
    for p in (2.5, 3.0, 5.0, 10.0, 40.0):
        value = ball_integral(p, tol=1e-9)
        assert value < math.sqrt(2.0 / p)


def test_ball_integral_guards():
    with pytest.raises(ValueError):
        ball_integral(1.5)
    with pytest.raises(ValueError):
        ball_integral(2.0, tol=0.0)
    with pytest.raises(ValueError, match="tol must be positive"):
        ball_integral(2.0, tol=math.nan)


def _arch_moment(p, j):
    """int u^j cos(u)^p du over [-pi/2, pi/2] at 40 digits."""
    with mpmath.workdps(40):
        p = mpmath.mpf(p)
        return mpmath.quad(lambda u: u**j * mpmath.cos(u) ** p, [-mpmath.pi / 2, 0, mpmath.pi / 2])


def test_ball_integral_uncertifiable_tail_fails_before_quadrature(monkeypatch):
    # p = 2 at tol 1e-28: at the 60,000-panel cap the arch expansion's
    # remainder bracket, (2/pi) 5 A4 pi^-6 zeta(6, 60000) = 3.3e-28, alone
    # exceeds tol
    def no_quadrature(*args):
        raise AssertionError("quadrature ran")

    monkeypatch.setattr(bounds, "adaptive_panels", no_quadrature)
    with pytest.raises(ToleranceError, match="could not certify tolerance 1e-28") as info:
        ball_integral(2.0, tol=1e-28)
    with mpmath.workdps(30):
        want = 2 / mpmath.pi * 5 * _arch_moment(2, 4) * mpmath.pi**-6 * mpmath.zeta(6, 60000)
    assert info.value.achieved == pytest.approx(float(want), rel=1e-12)
    assert not isinstance(info.value, ValueError)


@pytest.mark.parametrize("p", [2.0, 2.5, 7.3, 20.0])
def test_arch_moments_match_mpmath(p):
    a0, a2, a4, rel_err = bounds.arch_moments(p)
    for got, j in ((a0, 0), (a2, 2), (a4, 4)):
        want = _arch_moment(p, j)
        assert abs(got - want) <= rel_err * want, (j, got, want)
    assert rel_err <= 1e-13
    # the closed forms themselves, at 30 digits
    with mpmath.workdps(30):
        x = 1 + mpmath.mpf(p) / 2
        want0 = _arch_moment(p, 0)
        assert abs(want0 * mpmath.zeta(2, x) / 2 / _arch_moment(p, 2) - 1) < mpmath.mpf(10) ** -29
        closed4 = 3 * want0 * (mpmath.zeta(2, x) ** 2 - mpmath.zeta(4, x)) / 4
        assert abs(closed4 / _arch_moment(p, 4) - 1) < mpmath.mpf(10) ** -29


def _arch_tail_oracle(p, k, orders=12):
    """(1/pi) int_{|t| >= k pi} |sin t / t|^p dt at 30 digits: t^-p expanded
    about each arch's midpoint to order 2 * orders - 1, each moment by
    quadrature, each order's sum over the arches a Hurwitz zeta."""
    with mpmath.workdps(30):
        p = mpmath.mpf(p)
        total = mpmath.mpf(0)
        for j in range(orders):
            moment = _arch_moment(p, 2 * j)
            total += (mpmath.rf(p, 2 * j) / mpmath.factorial(2 * j) * moment
                      * mpmath.pi ** (-p - 2 * j) * mpmath.zeta(p + 2 * j, k + mpmath.mpf(1) / 2))
        return 2 / mpmath.pi * total


def test_arch_tail_oracle_matches_direct_summation():
    # the arches k = 50, ..., 249 one by one, and the oracle from k = 250
    with mpmath.workdps(30):
        direct = 2 / mpmath.pi * mpmath.fsum(
            mpmath.quad(lambda t: abs(mpmath.sin(t) / t) ** 3, [k * mpmath.pi, (k + 1) * mpmath.pi])
            for k in range(50, 250))
        assert abs(direct + _arch_tail_oracle(3, 250) - _arch_tail_oracle(3, 50)) < mpmath.mpf(10) ** -27


@pytest.mark.parametrize("p", [2.0, 3.0, 10.0])
@pytest.mark.parametrize("k", [8, 50])
def test_arch_tail_bracket_holds_the_tail(p, k):
    value, remainder, err = bounds.arch_tail(p, k)
    want = float(_arch_tail_oracle(p, k))
    assert 0.0 < remainder
    assert err <= 1e-14 * value
    slack = err + 4e-16 * value
    assert value - slack <= want <= value + remainder + slack, (want - value, remainder)


def _ball_oracle(p, head=40):
    """I(p) at 30 digits: the first `head` arches by quadrature, the rest
    by _arch_tail_oracle."""
    with mpmath.workdps(30):
        arches = mpmath.fsum(
            mpmath.quad(lambda t: abs(mpmath.sinc(t)) ** p, [k * mpmath.pi, (k + 1) * mpmath.pi])
            for k in range(head))
        return 2 / mpmath.pi * arches + _arch_tail_oracle(p, head)


@pytest.mark.parametrize("p, want", [(2.0, 1.0), (4.0, 2.0 / 3.0), (2.5, None), (7.3, None),
                                     (29.9, None)])
def test_ball_integral_matches_oracle(p, want):
    if want is None:
        want = float(_ball_oracle(p))
    # the adaptive stop at tol / 4 leaves 1.5e-13 at p = 2.5, where
    # |sin t|^p is not smooth at the panel ends
    assert ball_integral(p) == pytest.approx(want, rel=2e-13, abs=0.0)


def test_ball_integral_sizes_its_quadrature_by_the_bracket(monkeypatch):
    panels = []
    real = bounds.adaptive_panels

    def spy(f, edges, tol):
        panels.append(edges.size - 1)
        return real(f, edges, tol)

    monkeypatch.setattr(bounds, "adaptive_panels", spy)
    for p in (2.0, 2.5, 17.0):
        ball_integral(p)
        k = panels[-1]
        target = min(1e-9 / 4.0, 2.0**-53 * (2.0 / math.pi) ** p)
        assert bounds.arch_tail(p, k)[1] <= target
        assert k == 8 or bounds.arch_tail(p, k - 1)[1] > target
    assert panels == [358, 203, 8]


def test_ball_integral_uncertified_quadrature_is_a_tolerance_error(monkeypatch):
    monkeypatch.setattr(bounds, "adaptive_panels", lambda f, edges, tol: (0.0, 1e-3))
    with pytest.raises(ToleranceError) as info:
        ball_integral(3.0)
    assert info.value.achieved > (2.0 / math.pi) * 1e-3


def test_frame_constant_check_sharp_case():
    # block frame: norms sqrt((n-k)/n) repeated, product equals the bound
    e = sharp_block_subspace(6, 3)
    a = frame_of_complement(e).norms
    product, bound = frame_constant_check(a)
    assert product == pytest.approx(bound)


def test_frame_constant_check_random():
    for seed in range(50):
        e = haar_sample(5, 2, seed=seed)
        a = frame_of_complement(e).norms
        product, bound = frame_constant_check(a)
        assert product <= bound * (1.0 + 1e-12)


def test_frame_constant_check_rejects_bad_mass():
    with pytest.raises(ValueError):
        frame_constant_check(np.array([0.5, 0.5, 0.5]))


def test_bound_box_dominates_sections():
    rng = np.random.default_rng(4)
    for seed in range(60):
        n = int(rng.integers(3, 6))
        dim_h = int(rng.integers(1, min(3, n - 1) + 1))
        h = haar_sample(n, dim_h, seed=seed)
        z = rng.uniform(0.3, 2.0, size=n)
        from margbounds.sections import Box

        section = section_quadrature(Box(z), h)
        assert section <= bound_box1(h, z) * (1.0 + 1e-9)
        k = n - dim_h
        if k <= n / 2:
            assert section <= bound_box2(h, z) * (1.0 + 1e-9)


def test_bound_main_q2_diagonal():
    e = Subspace(np.array([1.0, 1.0]) / math.sqrt(2.0))
    rep = bound_main(e, [1.0, 1.0])
    assert rep.bound_value == pytest.approx(math.sqrt(2.0))
    assert rep.constant == pytest.approx(math.sqrt(2.0))


def test_bound_main_branch_selection():
    # n=6, k=2: paired constant 2 < block constant (6/4)^2 = 2.25... no:
    # (6/4)^(4/2) = 2.25 > 2, so the paired branch wins
    e = sharp_paired_subspace(6, 2)
    rep = bound_main(e, np.ones(6))
    assert rep.branch == "paired"
    assert rep.bound_value == pytest.approx(2.0)
    # n=6, k=3: both constants are 2^(3/2); tie goes to the block branch
    e = sharp_block_subspace(6, 3)
    rep = bound_main(e, np.ones(6))
    assert rep.branch == "block"
    assert rep.bound_value == pytest.approx(2.0**1.5)


def test_main_constant_branches_and_guard():
    assert bounds.main_constant(6, 2) == (2.0, "paired")
    assert bounds.main_constant(4, 2) == (2.0, "block")  # a tie
    assert bounds.main_constant(5, 3) == (2.5, "block")
    for n, k in ((3, 3), (3, 0), (3, 4)):
        with pytest.raises(ValueError, match="need 1 <= k < n"):
            bounds.main_constant(n, k)


def test_bound_main_exponents_sum_and_recompute():
    for seed in range(20):
        e = haar_sample(5, 2, seed=seed)
        c = 0.5 + np.arange(5) * 0.3
        rep = bound_main(e, c)
        assert rep.exponents.betas.sum() == pytest.approx(2.0, abs=1e-9)
        # the report's constant and exponents give back its bound
        recomputed = rep.constant * float(np.exp(np.dot(rep.exponents.betas, np.log(c))))
        assert recomputed == pytest.approx(rep.bound_value, rel=1e-12)


def test_bound_main_scaling_identity():
    # multiplying c_i by lambda scales the bound by exactly lambda^gamma_i
    e = haar_sample(4, 2, seed=3)
    c = np.ones(4)
    rep = bound_main(e, c)
    lam = 1.7
    for i in range(4):
        c2 = c.copy()
        c2[i] = lam
        scaled = bound_main(e, c2)
        gamma_i = rep.exponents.betas[i]
        assert scaled.bound_value == pytest.approx(
            rep.bound_value * lam**gamma_i, rel=1e-12
        )


def test_bl_system_validation():
    with pytest.raises(ValueError):
        BLSystem(np.array([[1.0, 0.0], [0.0, 2.0]]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        BLSystem(np.eye(2), np.array([1.0, 2.0]))  # not a tight frame
    with pytest.raises(ValueError):
        BLSystem(np.eye(2), np.array([1.0, -1.0]))


def test_bl_orthonormal_equality_exact():
    system = BLSystem(np.eye(3), np.ones(3))
    fs = [random_density(s, 3, 1e9) for s in (1, 2, 3)]
    fs = [f.shifted(-f.support_midpoint()) for f in fs]
    lhs, rhs = bl_check(system, fs)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)


def test_bl_mercedes_gaussian_equality():
    lhs, rhs = bl_check(mercedes_system(), [GaussianDensity()] * 3)
    assert lhs == pytest.approx(rhs, abs=1e-6)


def test_bl_gaussian_shifted_strict():
    system = mercedes_system()
    lhs, rhs = bl_check(system, [GaussianDensity(mean=1.0), GaussianDensity(), GaussianDensity()])
    assert lhs < rhs


def test_bl_random_step_systems():
    for seed in range(40):
        d = 2 + seed % 2
        m = d + 2
        system = random_bl_system(seed, d, m)
        fs = []
        for i in range(m):
            f = random_density(seed, 3, 1e9, stream=100 + i)
            fs.append(f.shifted(-f.support_midpoint()))
        lhs, rhs = bl_check(system, fs)
        assert lhs <= rhs * (1.0 + 1e-9)


def test_bl_uniform_mercedes_strict_inequality():
    lhs, rhs = bl_check(mercedes_system(), [uniform_density()] * 3)
    assert lhs < rhs


def test_bl_mixed_density_kinds_rejected():
    with pytest.raises(ValueError):
        bl_check(mercedes_system(), [uniform_density(), GaussianDensity(), uniform_density()])


def _reference_bl_lhs_steps(system, densities):
    """The scalar reference over the rows sqrt(c_i) u_i, the piece bounds
    scaled by sqrt(c_i) and the values powered by c_i."""
    c = system.weights
    sqc = np.sqrt(c)
    pieces = [[(lo * s, hi * s, v**ci) for lo, hi, v in f.pieces]
              for f, s, ci in zip(densities, sqc, c)]
    return scalar_slab_sum(system.directions * sqc[:, None], pieces, np.zeros(system.m))


@pytest.mark.parametrize("d", [2, 3])
def test_bl_check_matches_per_combination_loop_exactly(d):
    for seed in range(12):
        m = d + 1 + seed % 4
        system = random_bl_system(seed, d, m, stream=5)
        fs = []
        for i in range(m):
            f = random_density(seed, 3, 1e9, stream=200 + i)
            fs.append(f.shifted(-f.support_midpoint()))
        lhs, _ = bl_check(system, fs)
        assert lhs == _reference_bl_lhs_steps(system, fs)
