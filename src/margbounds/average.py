"""Grassmannian averages: marginal power moments, dual affine
quermassintegrals, and their invariance checks.

All estimators draw subspaces from per-sample substream offsets of a counter
RNG, so estimates are bitwise reproducible and independent of chunking or
worker count.  Every inner value is one exact slab sum at zero shift
(_slab_sums_at_zero): pi_E(f)(0) = int_{E^perp} prod f_i(<w_i, y>) dy over a
frame of E^perp, and a box section |K cap E| the same sum of K's indicator
over a frame of E.  Only cube_avg_power's k = 1 side, a hyperplane section,
takes the signed-sum formula instead.  Only the subspace average is Monte
Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import slabgeom
from .densities import ProductDensity, cube_density
# haar_sample and marginal_at stay bound here: perfbench's tracer self-test
# patches them through this module
from .grassmann import complement_bases, haar_bases, haar_directions, haar_sample  # noqa: F401
from .marginals import marginal_at  # noqa: F401
from .sections import Box, box_pieces, hyperplane_sections_exact_batch, unit_cube

_DIR_CHUNK = 1 << 14


@dataclass(frozen=True)
class GrassmannAverage:
    """Monte Carlo average over G_{n,k} of an inner value raised to `power`."""

    n: int
    k: int
    power: float
    samples: int
    estimate: float
    std_error: float
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "power": self.power,
            "samples": self.samples,
            "estimate": self.estimate,
            "std_error": self.std_error,
            "seed": self.seed,
        }


# pi - math.pi, rounded: pi^k = math.pi^k (1 + k _PI_LO / math.pi) to ~1e-30
_PI_LO = 1.2246467991473532e-16


def unit_ball_volume(n: int) -> float:
    """omega_n, the volume of the n-dimensional Euclidean unit ball, n >= 0:
    pi^(n/2) / (n/2)! for even n and 2^((n+1)/2) pi^((n-1)/2) / n!! for odd
    n, as one correctly rounded division of exact integers: the factorials,
    and the ratio of pi^h corrected for the rounding of math.pi.  pi^h is
    taken as 4^h (pi/4)^h, which never overflows.  Within 1.5 ulp of mpmath
    for n <= 435, the last n whose omega_n is a normal float
    (tests/test_average.py)."""
    half, odd = divmod(n, 2)
    fact = math.prod(range(1, n + 1, 2)) if odd else math.factorial(half)
    quarter = (math.pi / 4.0) ** half
    num, den = (quarter + quarter * (half * _PI_LO / math.pi)).as_integer_ratio()
    return (num << (2 * half + (half + 1) * odd)) / (den * fact)


def _haar_draws(n: int, k: int, samples: int, seed: int, stream: int, lanes=None):
    """(part, draw) per chunk of the first `samples` Haar draws of G_{n,k}.

    With lanes None the draws are lines (k = 1): directions (count, n) of
    the one stream, _DIR_CHUNK per chunk.  Otherwise they are bases
    (count, n, k) of streams stream + 1 + i, at most _DIR_CHUNK lanes a
    chunk at `lanes` per subspace (at least one subspace)."""
    per_chunk = _DIR_CHUNK if lanes is None else max(1, _DIR_CHUNK // lanes)
    for start in range(0, samples, per_chunk):
        count = min(per_chunk, samples - start)
        part = slice(start, start + count)
        if lanes is None:
            yield part, haar_directions(n, count, seed, stream, start)
        else:
            yield part, haar_bases(n, k, seed, stream + 1 + np.arange(start, start + count))


def _line_sums(dirs: np.ndarray, combos) -> np.ndarray:
    """int prod_i g_i(v_i y) dy for each unit row v of dirs (count, n), from
    the nonzero piece combinations (lo, hi (C, n), weights) of the g_i:
    weight x interval length summed over the combinations in order from
    0.0, vectorized over the directions."""
    los, his, weights = combos
    count, n = dirs.shape
    small = np.abs(dirs) <= slabgeom.ROW_ZERO_TOL
    out = np.zeros(count)
    for lo, hi, weight in zip(los, his, weights):
        lows = np.full(count, -np.inf)
        highs = np.full(count, np.inf)
        # a vanishing coefficient leaves the factor constant at g_i(0)
        dead = np.zeros(count, dtype=bool)
        for i in range(n):
            with np.errstate(divide="ignore", invalid="ignore"):
                t1 = lo[i] / dirs[:, i]
                t2 = hi[i] / dirs[:, i]
            lows = np.maximum(lows, np.where(small[:, i], -np.inf, np.minimum(t1, t2)))
            highs = np.minimum(highs, np.where(small[:, i], np.inf, np.maximum(t1, t2)))
            if not (lo[i] <= 0.0 < hi[i]):
                dead |= small[:, i]
        out = out + np.where(dead, 0.0, weight) * np.maximum(highs - lows, 0.0)
    return out


def _slab_sums_at_zero(
    integrands, k: int, samples: int, seed: int, stream: int, complement: bool
) -> np.ndarray:
    """int prod_i g_i(<w_i, y>) dy over each Haar sample of G_{n,k}, one
    row per integrand (g_1..g_n as their (lo, hi, value) pieces) of one
    value per sample: every Haar inner value of this module.

    The rows w_i are the frame of E^perp when complement (pi_E(f)(0) for
    the density f = prod g_i), else of E (|K cap E| for a box K, the g_i
    its sides' indicators).  Every integrand is evaluated on the same draw:
    each chunk draws its subspaces once and frames them once.  A 1-D frame
    (a Haar line) goes through _line_sums, every other chunk of frames
    through one slabgeom.sums_at_zero call.
    """
    n = len(integrands[0])
    if not (1 <= k < n):
        raise ValueError("need 1 <= k < n")
    bounds = [slabgeom.nonzero_combinations(pieces) for pieces in integrands]
    vals = np.empty((len(integrands), samples))
    if (n - k if complement else k) == 1:
        for part, dirs in _haar_draws(n, 1, samples, seed, stream):
            vals[:, part] = [_line_sums(dirs, combos) for combos in bounds]
        return vals
    lanes = sum(max(len(weights), 1) for _, _, weights in bounds)
    for part, bases in _haar_draws(n, k, samples, seed, stream, lanes):
        frames = complement_bases(bases) if complement else bases
        vals[:, part] = slabgeom.sums_at_zero(frames, integrands)
    return vals


def _density_pieces(f: ProductDensity) -> list:
    return [fi.pieces for fi in f.factors]


def _powered(values: np.ndarray, power: float) -> np.ndarray:
    """values**power via exp(power*log), with zeros passed through."""
    out = np.zeros_like(values)
    pos = values > 0.0
    out[pos] = np.exp(power * np.log(values[pos]))
    return out


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    m = values.size
    mean = float(values.mean())
    return mean, float(math.sqrt(values.var() / m))


def cube_avg_power(
    n: int, k: int, subspace_samples: int, seed: int = 0, stream: int = 0
) -> GrassmannAverage:
    """The cube side of the marginal power average (the comparison's rhs):
    pi_E(1_{Q_n})(0) = |Q_n cap E^perp|, by the Irwin-Hall batch of
    hyperplane sections when k = 1."""
    if subspace_samples < 1000:
        raise ValueError("need subspace_samples >= 1000")
    if not (1 <= k < n):
        raise ValueError("need 1 <= k < n")
    if k == 1:
        cube = unit_cube(n)
        vals = np.empty(subspace_samples)
        for part, dirs in _haar_draws(n, 1, subspace_samples, seed, stream):
            vals[part] = hyperplane_sections_exact_batch(cube, dirs)
    else:
        cube = _density_pieces(cube_density(n))
        vals = _slab_sums_at_zero([cube], k, subspace_samples, seed, stream, True)[0]
    mean, se = _mean_se(_powered(vals, float(n)))
    return GrassmannAverage(n, k, float(n), subspace_samples, mean, se, seed)


def prop_avg_check(
    f: ProductDensity, k: int, samples: int, seed: int = 0, stream: int = 0
) -> dict:
    """Paired comparison of the f-average against the cube average.

    Both integrands are evaluated on one draw of subspace samples.  The
    pass verdict uses the paired-difference standard error, which is far
    tighter than comparing the two marginal errors.
    """
    if samples < 1000:
        raise ValueError("need samples >= 1000")
    n = f.n
    integrands = [_density_pieces(f), _density_pieces(cube_density(n))]
    lhs_vals, rhs_vals = _powered(
        _slab_sums_at_zero(integrands, k, samples, seed, stream, True), float(n)
    )
    lhs, lhs_se = _mean_se(lhs_vals)
    rhs, rhs_se = _mean_se(rhs_vals)
    diff, diff_se = _mean_se(lhs_vals - rhs_vals)
    return {
        "lhs": lhs,
        "lhs_se": lhs_se,
        "rhs": rhs,
        "rhs_se": rhs_se,
        "paired_diff": diff,
        "paired_se": diff_se,
        "pass": bool(diff <= 3.0 * diff_se),
    }


def _quermass_average(raw: np.ndarray, n: int, k: int, seed: int) -> GrassmannAverage:
    """(omega_n/omega_k) (mean of raw^n)^{1/n} from the section values raw,
    with its delta-method standard error.  The powers are of raw / max(raw),
    at most 1, and the estimate and its error scale back by max(raw): raw^n
    itself leaves the float range at large n (grinberg --n 400 --k 1)."""
    top = float(raw.max())
    mean, se = _mean_se(_powered(raw / top if top > 0.0 else raw, float(n)))
    ratio = unit_ball_volume(n) / unit_ball_volume(k) * top
    estimate = ratio * mean ** (1.0 / n)
    std_error = ratio * se * mean ** (1.0 / n - 1.0) / n if mean > 0.0 else math.inf
    return GrassmannAverage(n, k, float(n), raw.size, estimate, std_error, seed)


def grinberg_check(
    diag, n: int, k: int, samples: int, seed: int = 0, stream: int = 0
) -> dict:
    """Invariance of the dual affine quermassintegral under a diagonal
    volume-preserving map S: compares Phi_k(Q_n) and Phi_k(S Q_n) on one
    draw of subspace samples."""
    s = np.asarray(diag, dtype=float)
    if s.size != n:
        raise ValueError("diag must have n entries")
    if abs(abs(np.prod(s)) - 1.0) > 1e-12:
        raise ValueError("S must be volume-preserving (|det S| = 1 within 1e-12)")
    if samples < 1000:
        raise ValueError("need samples >= 1000")
    if not (1 <= k < n):
        raise ValueError("need 1 <= k < n")
    if k > 3:
        raise slabgeom.BlockTooWideError("section dimension k > 3 needs a Monte Carlo section engine")
    boxes = [box_pieces(unit_cube(n)), box_pieces(Box(np.abs(s)))]
    raw = _slab_sums_at_zero(boxes, k, samples, seed, stream, False)
    phi_q, phi_sq = (_quermass_average(row, n, k, seed) for row in raw)
    diff = abs(phi_q.estimate - phi_sq.estimate)
    combined_se = math.hypot(phi_q.std_error, phi_sq.std_error)
    return {
        "phi_cube": phi_q.estimate,
        "phi_cube_se": phi_q.std_error,
        "phi_image": phi_sq.estimate,
        "phi_image_se": phi_sq.std_error,
        "difference": diff,
        "combined_se": combined_se,
        "pass": bool(diff <= 3.0 * combined_se),
    }
