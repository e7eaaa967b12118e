"""The special functions of the sinc routes, in numpy and math alone.

sici(x) gives the sine and cosine integrals Si and Ci (DLMF 6.2) on arrays
of x > 0, for the sinc-product tail; hurwitz_zeta(s, a) gives the Hurwitz
zeta function (DLMF 25.11) with a bound on its error, for the arch tail of
the sinc-power integral.  Each docstring states its bound, and
tests/test_special.py checks it against mpmath.  The constant tables below
are correctly rounded values that the tests recompute with mpmath.
"""

from __future__ import annotations

import math

import numpy as np

_EULER_GAMMA = 0.5772156649015329

# 20-node Gauss-Legendre rule on [0, 1]: nodes and weights
_GL_NODES = np.array([
    0.0034357004074525377, 0.018014036361043106, 0.04388278587433705,
    0.0804415140888906, 0.1268340467699246, 0.1819731596367425,
    0.24456649902458646, 0.3131469556422902, 0.38610707442917747,
    0.46173673943325133, 0.5382632605667487, 0.6138929255708225,
    0.6868530443577098, 0.7554335009754135, 0.8180268403632576,
    0.8731659532300754, 0.9195584859111094, 0.956117214125663,
    0.9819859636389568, 0.9965642995925474,
])
_GL_WEIGHTS = np.array([
    0.008807003569576059, 0.02030071490019347, 0.031336024167054534,
    0.04163837078835238, 0.05096505990862022, 0.059097265980759206,
    0.06584431922458832, 0.07104805465919102, 0.07458649323630187,
    0.07637669356536292, 0.07637669356536292, 0.07458649323630187,
    0.07104805465919102, 0.06584431922458832, 0.059097265980759206,
    0.05096505990862022, 0.04163837078835238, 0.031336024167054534,
    0.02030071490019347, 0.008807003569576059,
])
# Si(x) = int_0^1 sin(x u) / u du and int_0^x (1 - cos t) / t dt =
# int_0^1 2 sin(x u / 2)^2 / u du: the rule's weights over its nodes
_GL_WEIGHTS_OVER_NODES = _GL_WEIGHTS / _GL_NODES

# Si(n) and Ci(n) at the integer nodes n = 4, ..., 40 of the middle branch
_NODE_FIRST = 4
_SI_AT_NODES = np.array([
    1.7582031389490531, 1.549931244944674, 1.4246875512805066,
    1.4545966142480935, 1.5741868217069421, 1.6650400758296025,
    1.6583475942188741, 1.5783068069457273, 1.5049712415263734,
    1.4993617228628247, 1.5562110500776651, 1.6181944437083688,
    1.6313022682700329, 1.5901364158707012, 1.5366080968611855,
    1.518630031769364, 1.54824170104344, 1.5948909680696592,
    1.6160837365943665, 1.5954594323131568, 1.5547386917229191,
    1.5314825509999612, 1.5448688629863385, 1.5802856839686727,
    1.604745738290372, 1.597314515044121, 1.5667565400303511,
    1.5417670372937895, 1.5442417770591415, 1.570284698168686,
    1.5952561851824687, 1.5969222045083056, 1.575107209556777,
    1.5506074710255766, 1.5454929372356987, 1.5633370576963705,
    1.5869851193547846,
])
_CI_AT_NODES = np.array([
    -0.1409816978869304, -0.19002974965664388, -0.06805724389324713,
    0.07669527848218452, 0.12243388253200956, 0.05534753133313361,
    -0.04545643300445537, -0.08956313549547998, -0.04978000688411367,
    0.026764125564034555, 0.06939635592758454, 0.04627867767436044,
    -0.014200190120190023, -0.05524268226081385, -0.043475102999501004,
    0.005150371008426129, 0.044419820845353314, 0.040890500154692366,
    0.0016406919157377496, -0.03565986038226168, -0.03833301555124715,
    -0.006848597179702591, 0.028295151031757133, 0.035723217717395866,
    0.010869534308760866, -0.021946972974023045, -0.033032417282071146,
    -0.01395271708876538, 0.01638882337615868, 0.03025743417174731,
    0.016264916437355767, -0.011479856355303129, -0.027408995844977448,
    -0.017924419710374877, 0.00712976180197138, 0.024505833417995327,
    0.019020007896208765,
])

# the branch boundaries of sici
_SMALL_X = 4.0
_LARGE_X = 40.0

# the auxiliary functions' asymptotic series (DLMF 6.12.3-4) in y = 1/x^2:
# x f(x) ~ sum_k (-1)^k (2k)! y^k and x^2 g(x) ~ sum_k (-1)^k (2k+1)! y^k,
# 18 terms each; (2k)! / 40^(2k) is smallest near k = 20
_ASYMPTOTIC_TERMS = 18
_F_SERIES = np.array([(-1) ** k * float(math.factorial(2 * k)) for k in range(_ASYMPTOTIC_TERMS)])
_G_SERIES = np.array([(-1) ** k * float(math.factorial(2 * k + 1)) for k in range(_ASYMPTOTIC_TERMS)])


def _row_sums(terms: np.ndarray) -> np.ndarray:
    """Sums over the last axis of (k, n) terms, each row's bits independent
    of k: a matmul (BLAS) may round a row differently by the rows beside it,
    while a reduction over contiguous rows sums each row the same way."""
    return np.add.reduce(terms, axis=1)


def _sici_small(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """0 < x <= 4: both integrals from 0 by one Gauss-Legendre product each."""
    t = x[:, None] * _GL_NODES
    si = _row_sums(np.sin(t) * _GL_WEIGHTS_OVER_NODES)
    half = np.sin(0.5 * t)
    ci = (_EULER_GAMMA + np.log(x)) - 2.0 * _row_sums(half * half * _GL_WEIGHTS_OVER_NODES)
    return si, ci


def _sici_middle(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """4 < x <= 40: the tabled values at the nearest integer n, plus the
    Gauss-Legendre integral of sin t / t and cos t / t from n to x."""
    n = np.rint(x)
    d = x - n  # exact, |d| <= 1/2
    t = n[:, None] + d[:, None] * _GL_NODES
    at = n.astype(np.intp) - _NODE_FIRST
    weights = _GL_WEIGHTS / t
    si = _SI_AT_NODES[at] + d * _row_sums(np.sin(t) * weights)
    ci = _CI_AT_NODES[at] + d * _row_sums(np.cos(t) * weights)
    return si, ci


def _sici_large(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x > 40: Si = pi/2 - f cos x - g sin x and Ci = f sin x - g cos x, with
    f and g from their asymptotic series (DLMF 6.12.3-4)."""
    r = 1.0 / x
    y = r * r
    powers = np.vander(y, _ASYMPTOTIC_TERMS, increasing=True)  # y^k, k = 0, ..., 17
    f = r * _row_sums(powers * _F_SERIES)
    g = y * _row_sums(powers * _G_SERIES)
    cos, sin = np.cos(x), np.sin(x)
    return math.pi / 2.0 - f * cos - g * sin, f * sin - g * cos


def sici(x) -> tuple[np.ndarray, np.ndarray]:
    """(Si(x), Ci(x)) for an array of finite x > 0 (DLMF 6.2.9, 6.2.13).

    Three branches, each a fixed handful of numpy calls:
    - x <= 4: Si = int_0^x sin t / t dt and Ci = gamma + ln x -
      int_0^x 2 sin(t/2)^2 / t dt, each by a 20-node Gauss-Legendre rule;
    - 4 < x <= 40: Si and Ci at the nearest integer, correctly rounded,
      plus a 20-node Gauss-Legendre rule over the remaining |x - n| <= 1/2;
    - x > 40: the auxiliary functions f and g by 18 terms of their
      asymptotic series, whose remainder the first omitted term bounds:
      below 2e-18 at x = 40 (DLMF 6.12(ii)).
    The Gauss-Legendre rules' truncation errors are below 1e-30, so only
    rounding is left.  Error bound: |Si error| <= 1e-15 and |Ci error| <=
    1e-15 + 2.3e-16 |ln x| absolute; against 40-digit mpmath on
    [1e-10, 1e8] both are within 4e-15 (tests/test_special.py).  Raises
    ValueError for any x that is not finite and positive.
    """
    x = np.asarray(x, dtype=float)
    if not np.all((x > 0.0) & (x < math.inf)):
        raise ValueError("sici needs finite x > 0")
    si = np.empty(x.shape)
    ci = np.empty(x.shape)
    small = x <= _SMALL_X
    large = x > _LARGE_X
    for branch, where in ((_sici_small, small), (_sici_middle, ~(small | large)),
                          (_sici_large, large)):
        if where.any():
            si[where], ci[where] = branch(x[where])
    return si, ci


# B_2j / (2j)! for j = 1, ..., 11, each correctly rounded from the exact
# Bernoulli number B_2j = numerator / denominator
_BERNOULLI_2J = ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6),
                 (-3617, 510), (43867, 798), (-174611, 330), (854513, 138))
_EM_COEFFICIENTS = tuple(num / (den * math.factorial(2 * j))
                         for j, (num, den) in enumerate(_BERNOULLI_2J, 1))
_UNIT_ROUNDOFF = 2.0**-53


def hurwitz_zeta(s: float, a: float) -> tuple[float, float]:
    """(zeta(s, a), error bound) for real s > 1 and a > 0, where
    zeta(s, a) = sum_{k >= 0} (a + k)^-s.

    Sums the terms directly up to x = a + N >= max(20, 2 s), then adds the
    Euler-Maclaurin tail (DLMF 2.10.1 for t^-s)
    x^(1-s) / (s - 1) + x^-s / 2 + sum_{j=1}^{10} B_2j / (2j)! (s)_(2j-1)
    x^(-s-2j+1).  Every even derivative of t^-s is positive, so the
    remainder is at most the first omitted term, j = 11; at x >= max(20, 2 s)
    that is below 1e-18 of the tail.  When the direct terms fall fast
    (large s), it stops as soon as their rest, at most x^-s (1 + x / (s - 1)),
    is below 2^-60 of the sum.

    The error bound is the remainder in use, plus 8 units of roundoff of the
    value (each power carries at most 1 ulp, the sums are math.fsum), plus
    the subnormal spacing for every term that may have underflowed.  It is
    below 1e-15 of the value whenever the value is a normal float, and the
    tests check it against 300-digit mpmath (tests/test_special.py).  Raises
    ValueError unless s > 1 and a > 0 are finite, and OverflowError when a
    term (a + k)^-s exceeds the float range (a < 1 and large s).
    """
    if not (1.0 < s < math.inf and 0.0 < a < math.inf):
        raise ValueError("hurwitz_zeta needs finite s > 1 and a > 0")
    x_em = max(20.0, 2.0 * s)
    terms = []
    x = a
    while x < x_em:
        power = x**-s
        rest = power * (1.0 + x / (s - 1.0))
        if rest <= 2.0**-60 * sum(terms):
            return _zeta_sum(terms, rest, len(terms) + 1.0 + x / (s - 1.0))
        terms.append(power)
        x += 1.0
    terms += [x ** (1.0 - s) / (s - 1.0), 0.5 * x**-s]
    rising = s * x ** (-s - 1.0)  # (s)_(2j-1) x^(-s-2j+1) at j = 1
    for j, coefficient in enumerate(_EM_COEFFICIENTS[:-1], 1):
        terms.append(coefficient * rising)
        rising *= ((s + 2 * j - 1) / x) * ((s + 2 * j) / x)
    return _zeta_sum(terms, abs(_EM_COEFFICIENTS[-1] * rising), len(terms) + 1.0)


def _zeta_sum(terms: list[float], remainder: float, underflows: float) -> tuple[float, float]:
    """(fsum of terms, its error bound): see hurwitz_zeta."""
    value = math.fsum(terms)
    return value, remainder + 8.0 * _UNIT_ROUNDOFF * abs(value) + underflows * math.ulp(0.0)
