"""Grassmannian averages: marginal power moments, dual affine
quermassintegrals, and their invariance checks.

All estimators draw subspaces from per-sample substream offsets of a counter
RNG, so estimates are bitwise reproducible and independent of chunking or
worker count.  Inner values are exact (slab geometry or signed-sum section
formulas); only the subspace average is Monte Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import slabgeom
from .densities import ProductDensity, cube_density
# haar_sample stays bound here: perfbench's tracer self-test patches it
# through this module
from .grassmann import Subspace, complement_bases, haar_bases, haar_directions, haar_sample  # noqa: F401
from .marginals import MarginalQuery, marginal_at
from .sections import Box, hyperplane_sections_exact_batch, section_quadrature, unit_cube

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
# largest n whose factorial den in unit_ball_volume converts to a float
# (301!! does not)
_CLOSED_FORM_MAX_N = 300


def unit_ball_volume(n: int) -> float:
    """omega_n, the volume of the n-dimensional Euclidean unit ball, n >= 0:
    pi^(n/2) / (n/2)! for even n and 2^((n+1)/2) pi^((n-1)/2) / n!! for odd
    n, with the factorials exact integers and pi^h corrected for the
    rounding of math.pi.  Within 1.5 ulp of mpmath for n <= 40
    (tests/test_average.py).  Beyond n = _CLOSED_FORM_MAX_N the factorials
    leave the float range, and exp(n/2 ln pi - lgamma(n/2 + 1)) serves
    instead."""
    if n > _CLOSED_FORM_MAX_N:
        return math.exp(0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n + 1.0))
    half, odd = divmod(n, 2)
    den = math.prod(range(1, n + 1, 2)) if odd else math.factorial(half)
    pi_power = math.pi**half
    return 2.0 ** ((half + 1) * odd) * (pi_power + pi_power * (half * _PI_LO / math.pi)) / den


def _per_haar_direction(fn, rows: int, n: int, samples: int, seed: int, stream: int) -> np.ndarray:
    """fn(dirs) over the first `samples` Haar directions of the stream, in
    chunks of _DIR_CHUNK rows; fn maps (count, n) directions to `rows` rows
    of count values, one row per integrand."""
    vals = np.empty((rows, samples))
    for start in range(0, samples, _DIR_CHUNK):
        count = min(_DIR_CHUNK, samples - start)
        vals[:, start : start + count] = fn(haar_directions(n, count, seed, stream, start))
    return vals


def _per_haar_subspace(fn, n: int, k: int, samples: int, seed: int, stream: int, lanes):
    """fn(bases) over the Haar subspaces of streams stream + 1 + i, i <
    samples; lanes[j] is integrand j's lane count per subspace, and each
    chunk holds at most _DIR_CHUNK lanes summed over the integrands (at
    least one subspace); fn maps (count, n, k) bases to one row of count
    values per integrand."""
    per_chunk = max(1, _DIR_CHUNK // sum(lanes))
    vals = np.empty((len(lanes), samples))
    for start in range(0, samples, per_chunk):
        count = min(per_chunk, samples - start)
        streams = stream + 1 + np.arange(start, start + count)
        vals[:, start : start + count] = fn(haar_bases(n, k, seed, streams))
    return vals


def _clipped_or_fallback(bases, frames, bounds, fallbacks) -> np.ndarray:
    """One row per integrand of one value per subspace of bases (count, n, k),
    from the frame rows frames (count, n, d).

    2-D and 3-D frames that form a single slab block are evaluated
    lane-wise by one slabgeom.shared_block_integrals call over every
    integrand's combinations (lo, hi, weights) of bounds; every other
    subspace (a zero row, a frame that splits into orthogonal blocks, a 1-D
    or wider frame) gets fallback(Subspace(basis)) from each of fallbacks.
    """
    vals = np.empty((len(bounds), len(bases)))
    ok = np.zeros(len(bases), dtype=bool)
    if frames.shape[2] in (2, 3):
        local, ok = slabgeom.single_block_frames(frames)
        vals[:, ok] = slabgeom.shared_block_integrals(local[ok], bounds)
    for i in np.flatnonzero(~ok):
        e = Subspace(bases[i])
        vals[:, i] = [fallback(e) for fallback in fallbacks]
    return vals


def line_marginals_at_zero(factors, dirs: np.ndarray) -> np.ndarray:
    """int prod_i f_i(v_i y) dy for each unit row v of dirs, vectorized.

    This is the marginal at 0 onto a hyperplane with normal line span(v)
    rotated into one coordinate -- equivalently the codimension-one case of
    the tight-frame identity.  Exact: a sum over piece combinations of
    interval intersection lengths.
    """
    m, n = dirs.shape
    if len(factors) != n:
        raise ValueError("need one factor per column")
    los, his, weights = slabgeom.piece_combinations([f.pieces for f in factors])
    small = np.abs(dirs) <= slabgeom.ROW_ZERO_TOL
    out = np.zeros(m)
    # sum with the first factor's piece changing fastest
    counts = [len(f.pieces) for f in factors]
    for c in np.arange(len(weights)).reshape(counts).ravel(order="F"):
        lows = np.full(m, -np.inf)
        highs = np.full(m, np.inf)
        # a vanishing coefficient leaves the factor constant at f_i(0)
        dead = np.zeros(m, dtype=bool)
        for i in range(n):
            lo, hi = los[c, i], his[c, i]
            with np.errstate(divide="ignore", invalid="ignore"):
                t1 = lo / dirs[:, i]
                t2 = hi / dirs[:, i]
            lows = np.maximum(lows, np.where(small[:, i], -np.inf, np.minimum(t1, t2)))
            highs = np.minimum(highs, np.where(small[:, i], np.inf, np.maximum(t1, t2)))
            if not (lo <= 0.0 < hi):
                dead |= small[:, i]
        out += np.where(dead, 0.0, weights[c]) * np.maximum(highs - lows, 0.0)
    return out


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


def _marginal_value_rows(
    densities, k: int, samples: int, inner_tol: float, seed: int, stream: int
) -> np.ndarray:
    """pi_E(f)(0) over Haar E in G_{n,k} for each f of densities (all on
    R^n), one row per density of one value per subspace sample.

    Every density is evaluated on the same draw: each chunk draws its
    subspaces (or directions) once, builds their complements and frames
    once, and runs every density's lanes through one kernel run.
    """
    n = densities[0].n
    if not (1 <= k < n):
        raise ValueError("need 1 <= k < n")
    if n - k == 1:
        # the complement is a Haar line: integrate f along random directions
        return _per_haar_direction(
            lambda dirs: [line_marginals_at_zero(f.factors, dirs) for f in densities],
            len(densities), n, samples, seed, stream,
        )
    zero = np.zeros(k)
    bounds = [slabgeom.nonzero_combinations([fi.pieces for fi in f.factors]) for f in densities]
    fallbacks = [
        lambda e, f=f: marginal_at(MarginalQuery(f, e, zero), inner_tol) for f in densities
    ]

    def values(bases):
        return _clipped_or_fallback(bases, complement_bases(bases), bounds, fallbacks)

    lanes = [max(len(weights), 1) for _, _, weights in bounds]
    return _per_haar_subspace(values, n, k, samples, seed, stream, lanes)


def _marginal_values_at_zero(
    f: ProductDensity, k: int, samples: int, inner_tol: float, seed: int, stream: int
) -> np.ndarray:
    """pi_E(f)(0) over Haar E in G_{n,k}, one value per subspace sample: the
    one-element call of _marginal_value_rows."""
    return _marginal_value_rows((f,), k, samples, inner_tol, seed, stream)[0]


def avg_marginal_power(
    f: ProductDensity,
    k: int,
    subspace_samples: int,
    inner_tol: float = 1e-9,
    seed: int = 0,
    stream: int = 0,
) -> GrassmannAverage:
    """Estimate of int_{G_{n,k}} pi_E(f)(0)^n dmu over Haar subspaces."""
    if subspace_samples < 1000:
        raise ValueError("need subspace_samples >= 1000")
    n = f.n
    vals = _marginal_values_at_zero(f, k, subspace_samples, inner_tol, seed, stream)
    mean, se = _mean_se(_powered(vals, float(n)))
    return GrassmannAverage(n, k, float(n), subspace_samples, mean, se, seed)


def _cube_marginal_values(
    n: int, k: int, samples: int, seed: int, stream: int
) -> np.ndarray:
    """pi_E(1_{Q_n})(0) = |Q_n cap E^perp| over Haar E, batched when k = 1."""
    if k == 1:
        box = unit_cube(n)
        return _per_haar_direction(
            lambda dirs: [hyperplane_sections_exact_batch(box, dirs)], 1, n, samples, seed, stream
        )[0]
    return _marginal_values_at_zero(cube_density(n), k, samples, 1e-9, seed, stream)


def cube_avg_power(
    n: int, k: int, subspace_samples: int, seed: int = 0, stream: int = 0
) -> GrassmannAverage:
    """The cube side of the marginal power average (the comparison's rhs)."""
    if subspace_samples < 1000:
        raise ValueError("need subspace_samples >= 1000")
    if not (1 <= k < n):
        raise ValueError("need 1 <= k < n")
    vals = _cube_marginal_values(n, k, subspace_samples, seed, stream)
    mean, se = _mean_se(_powered(vals, float(n)))
    return GrassmannAverage(n, k, float(n), subspace_samples, mean, se, seed)


def prop_avg_check(
    f: ProductDensity,
    k: int,
    samples: int,
    tol: float = 0.0,
    seed: int = 0,
    stream: int = 0,
) -> dict:
    """Paired comparison of the f-average against the cube average.

    Both integrands are evaluated on one draw of subspace samples: each
    chunk draws its subspaces once, frames them once and runs both sides'
    lanes through one kernel run.  The pass verdict uses the
    paired-difference standard error, which is far tighter than comparing
    the two marginal errors.
    """
    if samples < 1000:
        raise ValueError("need samples >= 1000")
    n = f.n
    lhs_vals, rhs_vals = _powered(
        _marginal_value_rows((f, cube_density(n)), k, samples, 1e-9, seed, stream), float(n)
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
        "pass": bool(diff <= tol + 3.0 * diff_se),
    }


def _box_section_rows(
    boxes, k: int, samples: int, seed: int, stream: int, section_fn=None
) -> np.ndarray:
    """|K cap E| over Haar E in G_{n,k} for each box K of boxes (all in
    R^n), one row per box of one value per sample, every box on the same
    draw (and frames, and kernel run) per chunk."""
    n = boxes[0].n
    if k == 1:
        halves = [box.sides / 2.0 for box in boxes]

        def chords(dirs):
            size = np.abs(dirs)
            with np.errstate(divide="ignore"):
                return [2.0 * (half[None, :] / size).min(axis=1) for half in halves]

        return _per_haar_direction(chords, len(boxes), n, samples, seed, stream)
    # each box's indicator: one combination of weight 1.0
    bounds = [((-box.sides / 2.0)[None], (box.sides / 2.0)[None], [1.0]) for box in boxes]
    fallbacks = [lambda e, box=box: section_quadrature(box, e) for box in boxes]

    def values(bases):
        if section_fn is not None:
            subspaces = [Subspace(b) for b in bases]
            return [[section_fn(box, e) for e in subspaces] for box in boxes]
        return _clipped_or_fallback(bases, bases, bounds, fallbacks)

    return _per_haar_subspace(values, n, k, samples, seed, stream, [1] * len(boxes))


def _box_section_values(
    box: Box, k: int, samples: int, seed: int, stream: int, section_fn=None
) -> np.ndarray:
    """|K cap E| over Haar E in G_{n,k} for a box K, one value per sample:
    the one-element call of _box_section_rows."""
    return _box_section_rows((box,), k, samples, seed, stream, section_fn)[0]


def _check_quermass_args(n: int, k: int, samples: int, section_fn=None) -> None:
    """The dual quermassintegral's guards, raised before any draw."""
    if samples < 1000:
        raise ValueError("need samples >= 1000")
    if not (1 <= k < n):
        raise ValueError("need 1 <= k < n")
    if section_fn is None and k > 3:
        raise ValueError("section dimension k > 3 needs a Monte Carlo section engine")


def _quermass_average(raw: np.ndarray, n: int, k: int, seed: int) -> GrassmannAverage:
    """(omega_n/omega_k) (mean of raw^n)^{1/n} from the section values raw,
    with its delta-method standard error."""
    mean, se = _mean_se(_powered(raw, float(n)))
    ratio = unit_ball_volume(n) / unit_ball_volume(k)
    estimate = ratio * mean ** (1.0 / n)
    std_error = ratio * se * mean ** (1.0 / n - 1.0) / n if mean > 0.0 else math.inf
    return GrassmannAverage(n, k, float(n), raw.size, estimate, std_error, seed)


def dual_affine_quermass(
    box: Box, k: int, samples: int, seed: int = 0, stream: int = 0, _section_fn=None
) -> GrassmannAverage:
    """(omega_n/omega_k) (int |K cap E|^n dmu)^{1/n} for a box K.

    The standard error for the 1/n power comes from the delta method applied
    to the sample mean of the n-th powers.
    """
    _check_quermass_args(box.n, k, samples, _section_fn)
    raw = _box_section_values(box, k, samples, seed, stream, _section_fn)
    return _quermass_average(raw, box.n, k, seed)


def grinberg_check(
    diag, n: int, k: int, samples: int, seed: int = 0, stream: int = 0
) -> dict:
    """Invariance of the dual affine quermassintegral under a diagonal
    volume-preserving map S: compares Phi_k(Q_n) and Phi_k(S Q_n) on one
    draw of subspace samples, each chunk's subspaces drawn and framed once
    and both boxes' lanes run through one kernel run."""
    s = np.asarray(diag, dtype=float)
    if s.size != n:
        raise ValueError("diag must have n entries")
    if abs(abs(np.prod(s)) - 1.0) > 1e-12:
        raise ValueError("S must be volume-preserving (|det S| = 1 within 1e-12)")
    _check_quermass_args(n, k, samples)
    raw = _box_section_rows((unit_cube(n), Box(np.abs(s))), k, samples, seed, stream)
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
