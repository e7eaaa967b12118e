"""Bound formulas and their numerical verifiers.

Contains the sinc-power integral inequality, the frame-constant bound used
in the first box proposition, the two box bounds with their exponent
assignments, the main marginal bound with its branch selection, and a
numerical Brascamp-Lieb checker for tight-frame systems.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import slabgeom, special
from .densities import StepDensity
from .grassmann import ExponentAssignment, Subspace, box2_exponents, orthonormal_complement, projection_weights
from .quadrature import RouteLimitError, ToleranceError, adaptive_panels
from .sections import UNIT_ROUNDOFF, Box


def sinc_power_tail_weight(p: float) -> float:
    """int_0^pi sin(t)^p dt, the per-arch mass of the tail panels."""
    return math.sqrt(math.pi) * math.exp(math.lgamma((p + 1.0) / 2.0) - math.lgamma(p / 2.0 + 1.0))


# Most panels ball_integral integrates before its arch expansion.
MAX_BALL_PANELS = 60000


def arch_moments(p: float) -> tuple[float, float, float, float]:
    """(A0, A2, A4, a bound of their relative errors): A_j = int u^j
    cos(u)^p du over [-pi/2, pi/2], the moments of one arch of |sin t|^p
    about its midpoint.

    A0 is sinc_power_tail_weight(p), whose lgammas carry an error of a few
    units of roundoff of their own size.  With x = 1 + p/2, the weight
    cos(u)^p / A0 has the characteristic function Gamma(x)^2 / (Gamma(x +
    w/2) Gamma(x - w/2)), whose cumulants are k2 = psi'(x) / 2 = zeta(2, x)
    / 2 and k4 = -psi'''(x) / 8 = -3 zeta(4, x) / 4.  So A2 = A0 k2 = A0
    zeta(2, x) / 2 and A4 = A0 (k4 + 3 k2^2) = 3 A0 (zeta(2, x)^2 -
    zeta(4, x)) / 4.  The bound carries the two Hurwitz zetas' error bounds.
    """
    a0 = sinc_power_tail_weight(p)
    log_size = abs(math.lgamma((p + 1.0) / 2.0)) + abs(math.lgamma(p / 2.0 + 1.0))
    x = 1.0 + p / 2.0
    z2, z2_err = special.hurwitz_zeta(2.0, x)
    z4, z4_err = special.hurwitz_zeta(4.0, x)
    a2 = 0.5 * a0 * z2
    spread = z2 * z2 - z4
    a4 = 0.75 * a0 * spread
    rel_err = 4.0 * UNIT_ROUNDOFF * (2.0 + log_size) + max(
        z2_err / z2, (2.0 * z2 * z2_err + z4_err + 2.0 * UNIT_ROUNDOFF * z2 * z2) / spread)
    return a0, a2, a4, rel_err


def _arch_remainder_bound(p: float, a4: float, k: int) -> tuple[float, float]:
    """(R, its error bound): the arch expansion's remainder summed over the
    arches k, k + 1, ... lies in [0, R], in I(p)'s units."""
    coefficient = (2.0 / math.pi) * p * (p + 1.0) * (p + 2.0) * (p + 3.0) / 24.0 * a4
    zeta, zeta_err = special.hurwitz_zeta(p + 4.0, k)
    scale = coefficient * math.pi ** (-p - 4.0)
    return scale * zeta, scale * zeta_err


def arch_tail(p: float, k: int) -> tuple[float, float, float]:
    """(S, R, E): (1/pi) times the integral of |sin t / t|^p over |t| >= k pi
    lies in [S, S + R], up to E, the Hurwitz zetas' and the moments' error
    bounds.

    About its midpoint m = (j + 1/2) pi, t^-p has even Taylor terms that
    integrate against the arch [j pi, (j+1) pi] to A0 m^-p + p (p+1) / 2 A2
    m^-(p+2) (arch_moments) and odd ones that vanish; every fourth
    derivative of t^-p is positive, so the remainder lies in [0, p (p+1)
    (p+2) (p+3) / 24 A4 (j pi)^-(p+4)].  Summed over j >= k these are
    Hurwitz zetas at k + 1/2 and, for the remainder, at k.
    """
    a0, a2, a4, moment_err = arch_moments(p)
    z0, z0_err = special.hurwitz_zeta(p, k + 0.5)
    z2, z2_err = special.hurwitz_zeta(p + 2.0, k + 0.5)
    remainder, remainder_err = _arch_remainder_bound(p, a4, k)
    c0 = (2.0 / math.pi) * a0 * math.pi**-p
    c2 = (2.0 / math.pi) * 0.5 * p * (p + 1.0) * a2 * math.pi ** (-p - 2.0)
    value = c0 * z0 + c2 * z2
    err = c0 * z0_err + c2 * z2_err + remainder_err + (value + remainder) * moment_err
    return value, remainder, err


def ball_integral(p: float, tol: float = 1e-9) -> float:
    """I(p) = (1/pi) * int |sin t / t|^p dt over the real line.

    The first K arches [k pi, (k+1) pi], cut at the zeros of sin, are
    integrated by adaptive_panels; the rest are summed in closed form by
    arch_tail, whose remainder bracket falls like K^-(p+3).  K is the least
    K >= 8 whose bracket is at most min(tol / 4, 2^-53 (2/pi)^p), the second
    a rounding of I(p) >= (2/pi)^p (sin t / t >= 2/pi on [0, pi/2]): 358
    panels at p = 2, 203 at p = 2.5 and 8 from p = 17 on.  The bracket, the
    quadrature's error estimate and every error bound of arch_tail go into
    the achieved error.  Raises ToleranceError when tol cannot be certified:
    before any quadrature when the bracket at the MAX_BALL_PANELS cap
    already exceeds it.
    """
    if p < 2.0:
        raise ValueError("requires p >= 2")
    if not tol > 0.0:  # NaN fails too
        raise ValueError("tol must be positive")
    a4 = arch_moments(p)[2]
    target = min(tol / 4.0, UNIT_ROUNDOFF * (2.0 / math.pi) ** p)

    def bracket(k: int) -> float:
        return _arch_remainder_bound(p, a4, k)[0]

    k_panels = 8
    at_eight = bracket(k_panels)
    if at_eight > target:
        # zeta(p + 4, K) is close to (K - 1/2)^-(p+3) / (p+3): scale from
        # K = 8, then step to the least K
        guess = 0.5 + 7.5 * (at_eight / target) ** (1.0 / (p + 3.0))
        k_panels = min(MAX_BALL_PANELS, math.ceil(guess))
        while bracket(k_panels - 1) <= target:
            k_panels -= 1
        while k_panels < MAX_BALL_PANELS and bracket(k_panels) > target:
            k_panels += 1
        # at the panel cap the bracket alone can exceed tol; no quadrature helps
        if bracket(k_panels) > tol:
            raise ToleranceError(f"could not certify tolerance {tol}", bracket(k_panels))
    edges = math.pi * np.arange(k_panels + 1, dtype=float)

    def integrand(t: np.ndarray) -> np.ndarray:
        with np.errstate(invalid="ignore", divide="ignore"):
            r = np.where(t > 0.0, np.abs(np.sin(t)) / np.where(t > 0.0, t, 1.0), 1.0)
        return r**p

    numeric, quad_err = adaptive_panels(integrand, edges, tol / 4.0 * math.pi / 2.0)
    tail, remainder, tail_err = arch_tail(p, k_panels)
    achieved = (2.0 / math.pi) * quad_err + remainder + tail_err
    if achieved > tol:
        raise ToleranceError(f"could not certify tolerance {tol}", achieved)
    return (2.0 / math.pi) * numeric + tail


def frame_constant_check(a) -> tuple[float, float]:
    """(prod a_i^{-a_i^2}, (n/m)^{m/2}) for frame norms a with m = sum a_i^2.

    m must be within 1e-8 of an integer in [1, n-1] (the codomain dimension
    of the underlying frame); 0^0 counts as 1.
    """
    a = np.asarray(a, dtype=float)
    n = a.size
    if np.any(a < -1e-12) or np.any(a > 1.0 + 1e-12):
        raise ValueError("frame norms must lie in [0, 1]")
    m = float(np.sum(a * a))
    m_int = round(m)
    if abs(m - m_int) > 1e-8 or not (1 <= m_int <= n - 1):
        raise ValueError(f"sum of squares {m:.12g} is not an admissible integer")
    mask = a > 0.0
    log_prod = -np.sum(a[mask] ** 2 * np.log(a[mask]))
    product = float(np.exp(log_prod))
    bound = (n / m_int) ** (m_int / 2.0)
    return product, bound


def bound_box1(h: Subspace, sides) -> float:
    """(n/(n-k))^{(n-k)/2} * prod z_i^{a_i^2} with a_i = |P_H e_i| (H = section
    subspace of dimension n-k)."""
    z = np.asarray(sides, dtype=float)
    n, dim_h = h.n, h.k
    if not (1 <= n - dim_h < n):
        raise ValueError("need a proper subspace")
    if z.size != n or np.any(z <= 0.0):
        raise ValueError("sides must be n positive reals")
    betas = np.einsum("ij,ij->i", h.basis, h.basis)
    const = (n / dim_h) ** (dim_h / 2.0)
    return const * float(np.exp(np.dot(betas, np.log(z))))


def bound_box2(h: Subspace, sides) -> float:
    """2^{k/2} * prod z_j^{beta_j} with beta from the proof's case split."""
    z = np.asarray(sides, dtype=float)
    n, dim_h = h.n, h.k
    k = n - dim_h
    if z.size != n or np.any(z <= 0.0):
        raise ValueError("sides must be n positive reals")
    betas = box2_exponents(h).betas  # validates k <= n/2
    return 2.0 ** (k / 2.0) * float(np.exp(np.dot(betas, np.log(z))))


@dataclass(frozen=True)
class BoundReport:
    """The main marginal bound, with the exponents of the active branch."""

    bound_value: float
    exponents: ExponentAssignment  # the gamma_i (sum = k)
    branch: str  # "block" for (n/(n-k))^{(n-k)/2}, "paired" for 2^{k/2}
    constant: float


def main_constant(n: int, k: int) -> tuple[float, str]:
    """(min((n/(n-k))^{(n-k)/2}, 2^{k/2}), branch) for 1 <= k < n; ties go to
    the block branch, and k > n/2 forces it (the paired hypothesis fails)."""
    if not (1 <= k < n):
        raise ValueError("need 1 <= k < n")
    const_block = (n / (n - k)) ** ((n - k) / 2.0)
    const_paired = 2.0 ** (k / 2.0)
    if k <= n / 2 and const_paired < const_block:
        return const_paired, "paired"
    return const_block, "block"


def bound_main(e: Subspace, sup_norms) -> BoundReport:
    """min((n/(n-k))^{(n-k)/2}, 2^{k/2}) * prod c_i^{gamma_i} for E in G_{n,k}.

    The branch achieving the smaller constant (main_constant) is reported
    together with that branch's exponent collection.
    """
    n, k = e.n, e.k
    constant, branch = main_constant(n, k)
    c = np.asarray(sup_norms, dtype=float)
    if c.size != n or np.any(c <= 0.0):
        raise ValueError("sup norms must be n positive reals")
    if branch == "paired":
        gammas = 1.0 - box2_exponents(orthonormal_complement(e)).betas
    else:
        gammas = projection_weights(e).betas
    power = np.dot(gammas, np.log(c))
    with np.errstate(over="ignore"):  # past the float range: RouteLimitError
        value = constant * float(np.exp(power))
    if not sys.float_info.min <= value < math.inf:
        decimal = (power + math.log(constant)) / math.log(10.0)
        raise RouteLimitError(f"the bound, about 1e{decimal:.0f}, is outside the normal float range")
    return BoundReport(
        bound_value=value,
        exponents=ExponentAssignment(gammas, float(k)),
        branch=branch,
        constant=constant,
    )


# -- Brascamp-Lieb ------------------------------------------------------------


@dataclass(frozen=True)
class GaussianDensity:
    """Closed-form Gaussian factor, admitted only by the equality test."""

    mean: float = 0.0
    variance: float = 1.0

    def l1_norm(self) -> float:
        return 1.0


@dataclass(frozen=True)
class BLSystem:
    """Unit vectors u_i with positive weights c_i forming a tight frame."""

    directions: np.ndarray  # (m, d), unit rows
    weights: np.ndarray  # (m,)

    def __init__(self, directions, weights):
        u = np.array(directions, dtype=float, copy=True)
        c = np.array(weights, dtype=float, copy=True)
        m, d = u.shape
        if m < d:
            raise ValueError("need at least d vectors")
        if c.shape != (m,) or np.any(c <= 0.0):
            raise ValueError("weights must be m positive reals")
        norms = np.linalg.norm(u, axis=1)
        if np.abs(norms - 1.0).max() > 1e-12:
            raise ValueError("directions must be unit vectors (within 1e-12)")
        defect = np.abs((u.T * c) @ u - np.eye(d)).max()
        if defect > 1e-10:
            raise ValueError(f"weighted frame identity violated (defect {defect:.3e})")
        u.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "directions", u)
        object.__setattr__(self, "weights", c)

    @property
    def d(self) -> int:
        return self.directions.shape[1]

    @property
    def m(self) -> int:
        return self.directions.shape[0]


def random_bl_system(seed: int, d: int, m: int, stream: int = 0) -> BLSystem:
    """Random tight-frame system via whitening of iid Gaussian rows."""
    from . import randomness

    if m < d:
        # the Gram matrix below would be singular
        raise ValueError("need at least d vectors")
    g = randomness.normals(seed, stream, 0, m * d).reshape(m, d)
    gram = g.T @ g
    evals, evecs = np.linalg.eigh(gram)
    whitener = evecs @ np.diag(evals**-0.5) @ evecs.T
    rows = g @ whitener  # sum of rows' outer products is now I_d
    norms = np.linalg.norm(rows, axis=1)
    return BLSystem(rows / norms[:, None], norms**2)


# Most piece combinations the step-factor Brascamp-Lieb route enumerates.
# Each is one slab-sum lane, about 9 us at d = 2 and 15 us at d = 3 (2-core
# x86 VM), so 10 rows of 3 pieces take under a second and 68 MB peak RSS at
# d = 2 or 3 (the process's, imports included); the count grows threefold
# per extra row, so 20 rows would take half a day.
MAX_BL_COMBINATIONS = 3**10


def _bl_lhs_steps(system: BLSystem, densities: list[StepDensity]) -> float:
    """Exact integral of prod f_i(<u_i, x>)^{c_i} for step factors.

    A slab sum over the rows sqrt(c_i) u_i with the pieces' values powered:
    <sqrt(c_i) u_i, x> = sqrt(c_i) <u_i, x>, so the piece bounds scale by
    sqrt(c_i).  Raises RouteLimitError before enumerating more than
    MAX_BL_COMBINATIONS piece combinations.
    """
    combinations = math.prod(len(f.pieces) for f in densities)
    if combinations > MAX_BL_COMBINATIONS:
        raise RouteLimitError(
            f"bl-check route guard: {combinations} piece combinations exceed {MAX_BL_COMBINATIONS}")
    c = system.weights
    sqc = np.sqrt(c)
    pieces = [
        [(lo * s, hi * s, v**ci) for lo, hi, v in f.pieces]
        for f, s, ci in zip(densities, sqc, c)
    ]
    rows = system.directions * sqc[:, None]
    return slabgeom.SlabSum(rows, pieces).value(np.zeros(system.m))


def _bl_lhs_gaussians(system: BLSystem, densities: list[GaussianDensity]) -> float:
    """Gaussian integrand: the quadratic form integrates in closed form."""
    u = system.directions
    c = system.weights
    d = system.d
    prec = np.zeros((d, d))
    lin = np.zeros(d)
    const = 0.0
    log_norm = 0.0
    for ui, ci, g in zip(u, c, densities):
        prec += (ci / g.variance) * np.outer(ui, ui)
        lin += (ci * g.mean / g.variance) * ui
        const += ci * g.mean**2 / g.variance
        log_norm += -0.5 * ci * math.log(2.0 * math.pi * g.variance)
    sign, logdet = np.linalg.slogdet(prec)
    if sign <= 0:
        raise ValueError("degenerate Gaussian system")
    quad = float(lin @ np.linalg.solve(prec, lin))
    log_lhs = log_norm - 0.5 * const + 0.5 * quad + 0.5 * (d * math.log(2.0 * math.pi) - logdet)
    return math.exp(log_lhs)


def bl_check(system: BLSystem, densities) -> tuple[float, float]:
    """(lhs, rhs) of the normalized Brascamp-Lieb inequality for the system.

    Step factors are integrated exactly over the slab arrangement (d <=
    slabgeom.MAX_BLOCK); identical-Gaussian factors use the closed-form
    quadratic integral.
    """
    densities = list(densities)
    if len(densities) != system.m:
        raise ValueError("need one density per direction")
    if all(isinstance(f, StepDensity) for f in densities):
        if system.d > slabgeom.MAX_BLOCK:
            raise slabgeom.BlockTooWideError(f"step-density route supports d <= {slabgeom.MAX_BLOCK}")
        lhs = _bl_lhs_steps(system, densities)
    elif all(isinstance(f, GaussianDensity) for f in densities):
        lhs = _bl_lhs_gaussians(system, densities)
    else:
        raise ValueError("densities must be all step or all Gaussian")
    rhs = math.prod(f.l1_norm() ** ci for f, ci in zip(densities, system.weights))
    return lhs, rhs


def mercedes_system() -> BLSystem:
    """Three unit vectors in the plane at mutual angle 120 deg, weights 2/3."""
    angles = np.array([0.5, 0.5 + 2.0 / 3.0, 0.5 + 4.0 / 3.0]) * math.pi
    u = np.column_stack([np.cos(angles), np.sin(angles)])
    return BLSystem(u, np.full(3, 2.0 / 3.0))
