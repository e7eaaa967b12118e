"""Oscillatory quadrature: panelized Gauss-Kronrod plus analytic tails.

Products of sinc factors decay only polynomially, so naive truncation cannot
reach 1e-9 tolerances.  The scheme here integrates [0, T] on panels cut at
the zeros of the fastest factor and evaluates the [T, oo) remainder in closed
form: the sine product expands into 2^m pure exponentials whose t^{-m}
moments reduce to Si/Ci via an integration-by-parts recurrence.  The 2^m
terms cancel, so that tail carries the expansion's rounding noise (up to
~2e-13 at 16 factors) rather than Si/Ci precision.  Callers that know the
remainder is below their result's rounding (sections.hyperplane_section_sinc
compares its envelope T^{1-m} / ((m-1) prod c) with the value's unit
roundoff) skip the expansion; sinc_product_tail itself always expands.

Adaptive refinement bisects a batch of the worst panels per round and
evaluates all their children with one integrand call.  It keeps the bits of
refining one panel at a time: the children's K15/G7 dot products run as a
stacked matmul over (parents, 2, 15), which rounds each parent's pair of
children as a 2-row gemv on its own; a flat (2 * parents, 15) gemv does not.
"""

from __future__ import annotations

import math

import numpy as np
# scipy >= 1.10 loads scipy.special on first attribute access, so only the
# routes that call a special function pay its import
import scipy

# 15-point Kronrod nodes/weights on [-1, 1] with the embedded 7-point Gauss rule.
_KRONROD_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_KRONROD_WEIGHTS = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_GAUSS_WEIGHTS_ON_KRONROD = np.array([
    0.0, 0.129484966168870, 0.0, 0.279705391489277, 0.0,
    0.381830050505119, 0.0, 0.417959183673469, 0.0,
    0.381830050505119, 0.0, 0.279705391489277, 0.0,
    0.129484966168870, 0.0,
])


# Most factors the tail's 2^m sign-pattern expansion is built to evaluate.
MAX_SINC_FACTORS = 16


class RouteLimitError(ValueError):
    """Valid input beyond the size a route is built to evaluate (too many
    factors or coordinates for its 2^m expansion, or too many piece
    combinations to enumerate)."""


class ToleranceError(RuntimeError):
    """Raised when a quadrature cannot certify the requested tolerance."""

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved error bound {achieved:.3e})")
        self.achieved = achieved


def _gk_rule(f, lefts: np.ndarray, rights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """G7/K15 on the panels [lefts, rights], for arrays of any shape (...).

    f is called once, on the flat array of every node.  The dot products with
    the weights run over the last axis of a (..., 15) array: one gemv for a
    1-D row of panels, one stacked matmul (one 2-row gemv per pair of
    children) for a (cut, 2) batch of bisections.
    """
    half = 0.5 * (rights - lefts)
    mid = 0.5 * (rights + lefts)
    pts = mid[..., None] + half[..., None] * _KRONROD_NODES
    vals = f(pts.reshape(-1)).reshape(pts.shape)
    k15 = half * (vals @ _KRONROD_WEIGHTS)
    g7 = half * (vals @ _GAUSS_WEIGHTS_ON_KRONROD)
    return k15, np.abs(k15 - g7)


def gk_panels(f, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized G7/K15 on consecutive panels.

    f must accept a flat numpy array.  Returns (per-panel K15 values,
    per-panel |K15 - G7| error estimates).
    """
    return _gk_rule(f, edges[:-1], edges[1:])


def adaptive_panels(f, edges: np.ndarray, tol: float, max_rounds: int = 12):
    """Refine the worst panels by bisection until the error sum meets tol.

    Returns (math.fsum of the K15 values, math.fsum of the error estimates).
    The panels are kept as parallel arrays.  Each round sums the errors left
    to right in panel order; if the sum exceeds tol it ranks the panels by
    error with a stable sort, bisects the worst cut = max(1, P // 8) of them
    and evaluates all 2 * cut children with one call of f.  The children go
    to the end of the panel order, left then right, in rank order; at most
    max_rounds rounds run.

    Bit contract: each child's value is the one a gk_panels call on its
    parent's three edges would give, because the children's K15/G7 dot
    products run as a stacked matmul over a (cut, 2, 15) array, which numpy
    evaluates as one 2-row gemv per parent.  A flat (2 * cut, 15) gemv would
    round some rows differently.
    """
    lo, hi = edges[:-1], edges[1:]
    k15, err = gk_panels(f, edges)
    for _ in range(max_rounds):
        # a plain left-to-right sum (accumulate does not sum pairwise)
        if np.add.accumulate(err)[-1] <= tol:
            break
        order = np.argsort(err, kind="stable")
        cut = max(1, err.size // 8)
        keep, worst = order[:-cut], order[-cut:]
        mid = 0.5 * (lo[worst] + hi[worst])
        lefts = np.stack([lo[worst], mid], axis=1)
        rights = np.stack([mid, hi[worst]], axis=1)
        k_children, err_children = _gk_rule(f, lefts, rights)
        lo = np.concatenate([lo[keep], lefts.ravel()])
        hi = np.concatenate([hi[keep], rights.ravel()])
        k15 = np.concatenate([k15[keep], k_children.ravel()])
        err = np.concatenate([err[keep], err_children.ravel()])
    return math.fsum(k15.tolist()), math.fsum(err.tolist())


# Sign patterns per lane batch: a power of two, and at least 4, because BLAS
# rounds a row of `signs @ c` differently in a call with fewer than 4 rows.
_TAIL_CHUNK = 4096


def _low_sign_rows(rows: int, m: int) -> np.ndarray:
    """(rows, m) array, rows = 2^b <= 2^m, whose row i holds +1.0 in column
    j < b where bit j of i is set and -1.0 everywhere else."""
    out = np.full((rows, m), -1.0)
    for j in range(rows.bit_length() - 1):
        out.reshape(-1, 2, 1 << j, m)[:, 1, :, j] = 1.0
    return out


def _exp_moments(w: np.ndarray, m: int, t_start: float) -> np.ndarray:
    """E_m(w) = int_T^oo t^{-m} e^{iwt} dt for an array of w > 0, by the
    integration-by-parts recurrence from E_1 = -Ci(wT) + i(pi/2 - Si(wT))."""
    si, ci = scipy.special.sici(w * t_start)
    e = np.empty(w.shape, dtype=complex)
    e.real = -ci
    e.imag = math.pi / 2.0 - si
    phase = np.exp(1j * w * t_start)
    iw = 1j * w
    for j in range(2, m + 1):
        e = (t_start ** (1 - j) * phase + iw * e) / (j - 1)
    return e


def sinc_product_tail(c: np.ndarray, t_start: float) -> float:
    """int_T^oo prod_j sinc(c_j t) dt by a closed-form expansion.

    Expands prod sin(c_j t) = sum over sign patterns of +-e^{i omega t}/(2i)^m
    and reduces each t^{-m} exponential moment to Si/Ci with the recurrence of
    _exp_moments.  The 2^m terms cancel: the true tail is at most the
    envelope T^{1-m} / ((m-1) prod c), which from about m = 7 on is mostly
    below the expansion's rounding noise (up to ~2e-13 in absolute value at
    T = 128 pi / max c), so the result is accurate to that noise, not to
    Si/Ci precision.

    The patterns are evaluated _TAIL_CHUNK at a time as numpy lanes and their
    terms summed in pattern order from 0.0, so the result does not depend on
    the chunk size.  Raises RouteLimitError for more than 16 factors.
    """
    c = np.asarray(c, dtype=float)
    m = c.size
    if c.ndim != 1 or m == 0:
        raise ValueError("c must be a nonempty 1-D array")
    if not np.all(np.isfinite(c) & (c > 0.0)):
        raise ValueError("every c_j must be positive and finite")
    if not (math.isfinite(t_start) and t_start > 0.0):
        raise ValueError("t_start must be positive and finite")
    if m > MAX_SINC_FACTORS:
        raise RouteLimitError(f"tail expansion guard: more than {MAX_SINC_FACTORS} sinc factors")
    rows = min(2**m, _TAIL_CHUNK)
    signs = _low_sign_rows(rows, m)
    scale = (2.0j) ** m
    # E_m(0) is a pure power tail; a zero frequency needs m >= 2, which
    # positive c guarantees
    e_zero = t_start ** (1 - m) / (m - 1) if m >= 2 else math.nan
    total = 0.0 + 0.0j
    for start in range(0, 2**m, rows):
        # the chunk's low bits repeat in every chunk; its high bits are constant
        for j in range(rows.bit_length() - 1, m):
            signs[:, j] = 1.0 if (start >> j) & 1 else -1.0
        omegas = signs @ c
        coef = np.prod(signs, axis=1) / scale
        w = np.abs(omegas)
        e = np.full(rows, complex(e_zero, 0.0))
        live = w > 0.0
        e[live] = _exp_moments(w[live], m, t_start)
        terms = coef * np.where(omegas >= 0.0, e, np.conj(e))
        terms[0] += total
        total = np.cumsum(terms)[-1]
    return float(total.real) / float(np.prod(c))
