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
from scipy.special import gammaln

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


def unit_ball_volume(n: int) -> float:
    """omega_n, the volume of the n-dimensional Euclidean unit ball."""
    return math.exp(0.5 * n * math.log(math.pi) - gammaln(0.5 * n + 1.0))


def _per_haar_direction(fn, n: int, samples: int, seed: int, stream: int) -> np.ndarray:
    """fn(dirs) over the first `samples` Haar directions of the stream, in
    chunks of _DIR_CHUNK rows; fn maps (count, n) rows to count values."""
    vals = np.empty(samples)
    for start in range(0, samples, _DIR_CHUNK):
        count = min(_DIR_CHUNK, samples - start)
        vals[start : start + count] = fn(haar_directions(n, count, seed, stream, start))
    return vals


def _per_haar_subspace(fn, n: int, k: int, samples: int, seed: int, stream: int, lanes: int):
    """fn(bases) over the Haar subspaces of streams stream + 1 + i, i <
    samples; each chunk holds at most _DIR_CHUNK lanes (at least one
    subspace) at `lanes` lanes per subspace; fn maps (count, n, k) bases to
    count values."""
    per_chunk = max(1, _DIR_CHUNK // lanes)
    vals = np.empty(samples)
    for start in range(0, samples, per_chunk):
        count = min(per_chunk, samples - start)
        streams = stream + 1 + np.arange(start, start + count)
        vals[start : start + count] = fn(haar_bases(n, k, seed, streams))
    return vals


def _clipped_or_fallback(bases, frames, lo, hi, weights, fallback) -> np.ndarray:
    """One value per subspace of bases (count, n, k) from its frame rows.

    2-D frames that form a single slab block are evaluated lane-wise by
    slabgeom.block_integrals over the combinations lo, hi, weights; every
    other subspace (a 3-D frame, a zero row, a frame that splits into
    orthogonal blocks) gets fallback(Subspace(basis)).
    """
    vals = np.empty(len(bases))
    ok = np.zeros(len(bases), dtype=bool)
    if frames.shape[2] == 2:
        local, ok = slabgeom.single_block_frames(frames)
        vals[ok] = slabgeom.block_integrals(local[ok], lo, hi, weights)
    for i in np.flatnonzero(~ok):
        vals[i] = fallback(Subspace(bases[i]))
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


def _marginal_values_at_zero(
    f: ProductDensity, k: int, samples: int, inner_tol: float, seed: int, stream: int
) -> np.ndarray:
    """pi_E(f)(0) over Haar E in G_{n,k}, one value per subspace sample."""
    n = f.n
    if not (1 <= k < n):
        raise ValueError("need 1 <= k < n")
    if n - k == 1:
        # the complement is a Haar line: integrate f along random directions
        return _per_haar_direction(
            lambda dirs: line_marginals_at_zero(f.factors, dirs), n, samples, seed, stream
        )
    zero = np.zeros(k)
    lo, hi, weights = slabgeom.nonzero_combinations([fi.pieces for fi in f.factors])

    def values(bases):
        return _clipped_or_fallback(
            bases, complement_bases(bases), lo, hi, weights,
            lambda e: marginal_at(MarginalQuery(f, e, zero), inner_tol),
        )

    return _per_haar_subspace(values, n, k, samples, seed, stream, max(len(weights), 1))


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
            lambda dirs: hyperplane_sections_exact_batch(box, dirs), n, samples, seed, stream
        )
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

    Both integrands are evaluated on identical subspace samples; the pass
    verdict uses the paired-difference standard error, which is far tighter
    than comparing the two marginal errors.
    """
    if samples < 1000:
        raise ValueError("need samples >= 1000")
    n = f.n
    lhs_vals = _powered(_marginal_values_at_zero(f, k, samples, 1e-9, seed, stream), float(n))
    # same Haar streams as the lhs -> identical subspace samples
    rhs_vals = _powered(
        _marginal_values_at_zero(cube_density(n), k, samples, 1e-9, seed, stream), float(n)
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


def _box_section_values(
    box: Box, k: int, samples: int, seed: int, stream: int, section_fn=None
) -> np.ndarray:
    """|K cap E| over Haar E in G_{n,k} for a box K, one value per sample."""
    n = box.n
    if k == 1:
        half = box.sides / 2.0

        def chord(dirs):
            with np.errstate(divide="ignore"):
                return 2.0 * (half[None, :] / np.abs(dirs)).min(axis=1)

        return _per_haar_direction(chord, n, samples, seed, stream)
    # the box's indicator: one combination of weight 1.0
    lo, hi = (-box.sides / 2.0)[None], (box.sides / 2.0)[None]

    def values(bases):
        if section_fn is not None:
            return [section_fn(box, Subspace(b)) for b in bases]
        return _clipped_or_fallback(
            bases, bases, lo, hi, [1.0], lambda e: section_quadrature(box, e)
        )

    return _per_haar_subspace(values, n, k, samples, seed, stream, 1)


def dual_affine_quermass(
    box: Box, k: int, samples: int, seed: int = 0, stream: int = 0, _section_fn=None
) -> GrassmannAverage:
    """(omega_n/omega_k) (int |K cap E|^n dmu)^{1/n} for a box K.

    The standard error for the 1/n power comes from the delta method applied
    to the sample mean of the n-th powers.
    """
    if samples < 1000:
        raise ValueError("need samples >= 1000")
    n = box.n
    if not (1 <= k < n):
        raise ValueError("need 1 <= k < n")
    if _section_fn is None and k > 3:
        raise ValueError("section dimension k > 3 needs a Monte Carlo section engine")
    raw = _box_section_values(box, k, samples, seed, stream, _section_fn)
    mean, se = _mean_se(_powered(raw, float(n)))
    ratio = unit_ball_volume(n) / unit_ball_volume(k)
    estimate = ratio * mean ** (1.0 / n)
    std_error = ratio * se * mean ** (1.0 / n - 1.0) / n if mean > 0.0 else math.inf
    return GrassmannAverage(n, k, float(n), samples, estimate, std_error, seed)


def grinberg_check(
    diag, n: int, k: int, samples: int, seed: int = 0, stream: int = 0
) -> dict:
    """Invariance of the dual affine quermassintegral under a diagonal
    volume-preserving map S: compares Phi_k(Q_n) and Phi_k(S Q_n) on common
    subspace samples."""
    s = np.asarray(diag, dtype=float)
    if s.size != n:
        raise ValueError("diag must have n entries")
    if abs(abs(np.prod(s)) - 1.0) > 1e-12:
        raise ValueError("S must be volume-preserving (|det S| = 1 within 1e-12)")
    phi_q = dual_affine_quermass(unit_cube(n), k, samples, seed, stream)
    phi_sq = dual_affine_quermass(Box(np.abs(s)), k, samples, seed, stream)
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
