"""Volumes of central sections of axis-aligned boxes.

Four routes with very different failure modes, used to cross-validate each
other: an exact signed-sum formula for hyperplane sections (the density of a
weighted sum of uniforms), an oscillatory Fourier (sinc-product) route, the
exact slab kernels in the section coordinates for dimensions up to
slabgeom.MAX_BLOCK, and the slab sum's stratified Monte Carlo
(slabgeom.SlabSum.mc) for higher dimensions.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import kernels, slabgeom
from .grassmann import Subspace
from .quadrature import (
    MAX_SINC_FACTORS,
    RouteLimitError,
    ToleranceError,
    adaptive_panels,
    sinc_product_tail,
)

ZERO_COORD_TOL = 1e-10  # on a cube, |a_j| at or below this is an exact zero (_zero_coords)
UNIT_ROUNDOFF = 2.0**-53


@dataclass(frozen=True)
class Box:
    """Origin-symmetric axis-aligned box prod_i [-z_i/2, z_i/2]."""

    sides: np.ndarray

    def __init__(self, sides):
        sides = np.array(sides, dtype=float, copy=True)
        if sides.ndim != 1 or sides.size == 0:
            raise ValueError("sides must be a nonempty 1-D sequence")
        if not np.all((sides > 0.0) & np.isfinite(sides)):
            raise ValueError("all side lengths must be positive and finite")
        sides.setflags(write=False)
        object.__setattr__(self, "sides", sides)

    @property
    def n(self) -> int:
        return self.sides.size


def unit_cube(n: int) -> Box:
    return Box(np.ones(n))


def box_pieces(box: Box) -> list:
    """The pieces of the box's indicator, one centred interval per side."""
    return [[(-z / 2.0, z / 2.0, 1.0)] for z in box.sides.tolist()]


def _zero_coords(a_abs: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Where the coordinates |a| (n, ...), columns of unit normals of widths
    c_j = |a_j| z_j, are exact zeros: c_j max |a| <= ZERO_COORD_TOL max c,
    which on a cube reads |a_j| <= ZERO_COORD_TOL.

    Such a coordinate's side is a factor of the section, and for a facet,
    one coordinate a_i left, the section is the product of the others'
    sides over |a_i|.  Dropped, it raises the section by at most c_j /
    (2 max c) <= sqrt(n) ZERO_COORD_TOL / 2 relative, and never lowers it:
    the section is vol E f(c_j U), f the density of the others' sum
    sum_i c_i U_i, and 0 <= f(0) - f(x) <= f(0) |x| / max c since f is the
    widest factor's window over a symmetric unimodal law.
    """
    return c * a_abs.max(axis=0) <= ZERO_COORD_TOL * c.max(axis=0)


def _normals(box: Box, a) -> tuple[np.ndarray, np.ndarray]:
    """The unit normal a (n,), or rows of them (B, n), and the mask (n,) or
    (n, B) of the coordinates each keeps (_zero_coords drops the rest)."""
    a = np.asarray(a, dtype=float)
    if a.shape[-1:] != (box.n,):
        raise ValueError("dimension mismatch between box and normal")
    cols = np.abs(a).T.copy()  # numpy reduces a short last axis row by row; these by column
    # np.linalg.norm's sum of squares, written so that a NaN or infinite
    # norm fails the check
    if not (np.abs(np.sqrt(np.add.reduce(cols * cols, axis=0)) - 1.0) <= 1e-12).all():
        raise ValueError("normal vector must have unit norm (within 1e-12)")
    return a, ~_zero_coords(cols, (cols.T * box.sides).T)


def _frexp_prod(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mantissa, exponent) of the product of each column of positive finite
    floats (n, ...), rounded as the plain product but without overflow or
    underflow: the columns' mantissas multiply to at least 2^-n (n < 1,022)."""
    f, e = np.frexp(values)
    mantissa, e2 = np.frexp(f.prod(axis=0))
    return mantissa, e.sum(axis=0) + e2


def _normal_float(mantissa, exponent) -> np.ndarray:
    """mantissa * 2^exponent for mantissas > 0, or RouteLimitError where
    such a section lies outside the range of normal floats."""
    f, e = np.frexp(mantissa)
    exponent = exponent + e
    outside = (exponent < sys.float_info.min_exp) | (exponent > sys.float_info.max_exp)
    if outside.any():
        power = np.ravel(np.log10(f) + exponent * math.log10(2.0))[np.ravel(outside)][0]
        raise RouteLimitError(f"the section, about 1e{power:.0f}, is outside the normal float range")
    return np.ldexp(f, exponent)


# How far (relative) a signed vertex sum may stray outside the section's
# bracket before it counts as lost to cancellation.  Rounding moves it far
# less: about 1e-5 at n = 4 with a coordinate at ZERO_COORD_TOL.
CANCELLATION_SLACK = 2.0**-10


class CancellationError(RouteLimitError):
    """Rows lost to cancellation; values holds the others' sections, NaN at those."""

    def __init__(self, message: str, values: np.ndarray):
        super().__init__(message)
        self.values = values


def _exact_rows(box: Box, a, bounded: bool):
    """hyperplane_section_exact's sections of the rows of a (NaN where lost
    to cancellation) and, if bounded, bounds on their relative rounding
    errors (inf where lost), else None."""
    a, keep = _normals(box, a)
    a_abs, keep = np.abs(a.reshape(-1, box.n)), keep.reshape(box.n, -1)
    kept = keep.sum(axis=0)
    if box.n > 24 and kept.max() > 24:
        raise RouteLimitError("combinatorial blowup guard: n > 24 nonzero coordinates")
    mantissa, exponent = _frexp_prod(np.where(keep, 1.0, box.sides[:, None]))
    errors = np.zeros(len(a_abs)) if bounded else None
    for m in np.bincount(kept).nonzero()[0].tolist():
        group = kept == m
        mask = keep.T[group]
        a_kept = a_abs[group][mask].reshape(-1, m)
        sides = np.where(mask, box.sides, 0.0)[mask].reshape(-1, m)
        e = np.frexp(sides.T.copy().max(axis=0))[1] - 1
        scaled = a_kept * np.ldexp(sides, -e[:, None])
        t = 0.5 * scaled.sum(axis=1)
        total = np.array(kernels.irwin_hall_sums(scaled, t))
        if bounded:
            # the products and the quotient round at most n + 3 times
            with np.errstate(divide="ignore"):
                errors[group] = (box.n + 3) * UNIT_ROUNDOFF + (
                    kernels.irwin_hall_bounds(scaled, t) / np.where(total > 0.0, total, 0.0) if m > 1 else 0.0)
        a_mantissa, a_exponent = _frexp_prod(a_kept.T.copy())
        mantissa[group] *= total / (math.factorial(m - 1) * a_mantissa)
        exponent[group] += e * (m - 1) - a_exponent
    c = a_abs * box.sides
    with np.errstate(divide="ignore", invalid="ignore"):
        # a sum that cancelled to 0 or below reads -inf or NaN: lost
        log2_values = np.log2(mantissa) + exponent
        log2_vol = float(np.log2(box.sides).sum())
        lo = log2_vol - np.log2(c.sum(axis=1)) + math.log2(1.0 - CANCELLATION_SLACK)
        hi = log2_vol - np.log2(c.T.copy().max(axis=0)) + math.log2(1.0 + CANCELLATION_SLACK)
    lost = ~((log2_values >= lo) & (log2_values <= hi))
    values = _normal_float(np.where(lost, 1.0, mantissa), np.where(lost, 0, exponent))
    values[lost] = math.nan
    if bounded:
        errors[lost] = math.inf
    return values, errors


def hyperplane_section_exact(box: Box, a):
    """|B cap a-perp| by the signed vertex formula (exact up to rounding)
    for a unit normal a (n,), or that of each row of normals a (B, n).

    Over the m coordinates _zero_coords keeps, with c_j = |a_j| z_j, it is the
    dropped sides' product times irwin_hall_sums(c) / ((m-1)! prod |a|).
    Every row goes one way, by m, with its one-row bits: the sides scaled by
    the power of two that brings the widest into [1, 2) (the sum is
    (m-1)-homogeneous), products by _frexp_prod.

    Every section lies in [vol / sum c, vol / max c], over every coordinate:
    the density of sum_j c_j U_j is symmetric and unimodal on an interval of
    length sum c, and its widest factor caps it.  Raises CancellationError,
    naming a batch's rows, for values more than CANCELLATION_SLACK outside
    it (as when one side is 1e8 times the others), RouteLimitError for a
    section outside the normal float range or more than 24 coordinates
    kept.  Inside the bracket a value may still have cancelled:
    hyperplane_section_exact_bounded bounds its rounding error.
    """
    values, _ = _exact_rows(box, a, False)
    lost = np.isnan(values)
    if lost.any():
        rows_note = f" (rows {np.flatnonzero(lost).tolist()})" if np.ndim(a) > 1 else ""
        raise CancellationError(
            "exact route lost the section to cancellation: the signed vertex sum "
            f"lies outside the bracket [vol / sum c, vol / max c]{rows_note}", values)
    return float(values[0]) if np.ndim(a) == 1 else values


def hyperplane_section_exact_bounded(box: Box, a) -> tuple[np.ndarray, np.ndarray]:
    """hyperplane_section_exact's sections of the unit normal(s) a, as (B,)
    with its bits, and bounds on their relative rounding errors
    (kernels.irwin_hall_bounds and the products' roundings; not the drop of
    a coordinate): NaN and inf where it loses a row to cancellation.  The
    bound adds up every term's worst case: 5e-12 to 3e-9 on Haar normals
    at n = 8, 6e-8 to 1e-3 at n = 20, 60 to 7,000 times the error."""
    return _exact_rows(box, a, True)


# Most [0, T] panels the sinc route integrates where its envelope drops the
# tail, and the panels it integrates before the tail expansion otherwise.
MAX_DROP_PANELS = 128
EXPANSION_PANELS = 16
# Most panels it integrates to drop a tail within tol / 2 where the
# expansion's noise would exceed that
MAX_TOL_PANELS = 4096
# sinc_product_tail's rounding noise at max r = 1, in units of 2^-53
# mean_w |w|^(m-1) / ((m-1)! prod r) over its sign-pattern frequencies w
TAIL_NOISE_FACTOR = 32.0


def _log_tail_noise(r: np.ndarray, log_prod_r: float) -> float:
    """log of a bound on the rounding noise of sinc_product_tail(r, S), for
    max r = 1 and S = EXPANSION_PANELS pi.

    The recurrence of _exp_moments carries the error of E_1(w) = -Ci(wS) +
    i(pi/2 - Si(wS)) to E_m(w) times w^(m-1) / (m-1)!, whatever S is, and the
    pattern weights 2^-m / prod r average it over the 2^m frequencies w.
    sici's absolute errors, at most 1e-15 for Si and 1e-15 + 2.3e-16 |ln wS|
    for Ci (together under 26 units of 2^-53 for 1e-5 <= wS <= 16 * 16 pi;
    a smaller wS has a larger log but a smaller w^(m-1)), and the roundings
    of wS, pi/2 - Si and the phases stay below TAIL_NOISE_FACTOR units.  Against a 30-digit evaluation of the same
    expansion (m = 3..9, coordinates down to 1e-8 of the widest) the noise
    reached 1.15 units, at S = 16 pi and 128 pi alike.  Narrow factors raise
    it as 1 / prod r while the tail stays small.
    """
    m = r.size
    w = r[:1]  # |w| is even in the sign pattern, so the first sign stays +
    for rj in r[1:].tolist():
        w = np.concatenate([w + rj, w - rj])
    mean_power = float(np.mean(np.abs(w) ** (m - 1)))
    return (math.log(TAIL_NOISE_FACTOR * UNIT_ROUNDOFF * mean_power / math.factorial(m - 1))
            - log_prod_r)


def hyperplane_section_sinc(box: Box, a, tol: float = 1e-9) -> float:
    """|B cap a-perp| via Fourier inversion of the sinc characteristic product.

    With c_j = |a_j| z_j / 2 over the nonzero coordinates, the section is
    vol(B) / (pi max c) J, J = int_0^oo prod_j sinc(r_j s) ds in s = (max c) t,
    r_j = c_j / max c <= 1; the fastest factor's zeros cut [0, oo) into
    panels of width pi.  Both ends of J are certified: J = pi rho(0), rho the
    density of sum_j r_j V_j (V_j uniform on [-1, 1]), which is symmetric and
    unimodal on [-sum r, sum r] and capped by its widest factor, so
    pi / (2 sum r) <= J <= pi / 2.  Since |sinc(r_j s)| <= 1 / (r_j s), the
    [S, oo) tail is at most the envelope S^{1-m} / ((m-1) prod r).

    The extent is set before integrating.  P is the least panel count whose
    envelope at S = P pi is at most 2^-53 of the lower bound pi / (2 sum r).
    Where P <= MAX_DROP_PANELS the route integrates P panels and drops the
    tail, which cannot move J beyond its rounding (the tail's closed-form
    2^m expansion would return only its own rounding noise there).
    Otherwise it integrates EXPANSION_PANELS panels and adds
    sinc_product_tail at S = EXPANSION_PANELS pi.  On boxes with sides
    within a factor 2 and normal coordinates within a factor 3 the tail is
    dropped from m = 9 on and expanded up to m = 7; m = 8 goes either way.

    tol bounds the absolute error of the section: half of it goes to the
    quadrature and half to the tail, expanded or dropped.  The expansion's
    rounding noise (_log_tail_noise) does not fall with S; where its bound
    exceeds that half, as with normal coordinates 1e-5 of the widest or a
    section of 1e4 at tol 1e-9, J = pi / 2 is used if the widest factor
    dominates (sum r <= 2, so the others' sum stays on its flat top;
    Borwein).  Otherwise the route integrates up to the least S whose
    envelope is within that half and drops the tail, or raises
    ToleranceError where that takes more than MAX_TOL_PANELS panels.  The
    sides enter as a power of two times a mantissa, so no intermediate
    overflows or underflows.  Raises RouteLimitError for more than
    MAX_SINC_FACTORS nonzero coordinates, before any quadrature, and for a
    section outside the normal float range, before any quadrature too.
    """
    if not tol > 0.0:  # NaN fails too
        raise ValueError("tol must be positive")
    if np.size(a) != box.n:
        raise ValueError("dimension mismatch between box and normal")
    a, keep = _normals(box, a)
    m = int(keep.sum())
    # the guard runs here because a dropped tail never reaches the expansion's
    if m > MAX_SINC_FACTORS:
        raise RouteLimitError(f"sinc route guard: more than {MAX_SINC_FACTORS} sinc factors")
    if m == 1:
        # facet: the section is the opposite pair of faces' cross-section
        mantissa, exponent = _frexp_prod(box.sides[~keep])
        return float(_normal_float(mantissa / np.abs(a[keep]), exponent)[0])
    z = box.sides[keep]
    e_max = math.frexp(float(z.max()))[1]
    c = np.abs(a[keep]) * np.ldexp(z, -e_max) / 2.0  # c_j / 2^e_max
    c_max = float(c.max())
    r = c / c_max
    r_sum = float(r.sum())
    with np.errstate(divide="ignore"):  # an underflowed r_j makes the envelope infinite
        log_prod_r = math.fsum(np.log(r).tolist())
    # the section is k J, k = k_mantissa 2^k_exponent
    k_mantissa, k_exponent = _frexp_prod(box.sides)
    k_mantissa = float(k_mantissa) / (math.pi * c_max)
    k_exponent = int(k_exponent) - e_max
    # the section lies in k [pi / (2 sum r), pi / 2]; the end nearer the
    # range's limit must be a normal float
    _normal_float(k_mantissa * (math.pi / (2.0 * r_sum) if k_exponent > 0 else math.pi / 2.0),
                  k_exponent)
    # half of tol / k, in J's units
    log_budget = math.log(tol) - math.log(2.0 * k_mantissa) - k_exponent * math.log(2.0)
    budget = math.exp(min(log_budget, 700.0))

    def log_extent(log_threshold: float) -> float:
        """log of the least S whose envelope is at most e^log_threshold."""
        return (-math.log(m - 1) - log_prod_r - log_threshold) / (m - 1)

    # drop the tail where its envelope is below the rounding of J's lower bound
    log_s = log_extent(math.log(UNIT_ROUNDOFF * math.pi / (2.0 * r_sum)))
    expand = log_s > math.log(MAX_DROP_PANELS * math.pi)
    if expand:
        log_noise = _log_tail_noise(r, log_prod_r)
        if log_noise > log_budget:
            expand = False
            # the computed sum carries at most (m + 3) roundings of 2^-53
            if r_sum <= 2.0 * (1.0 - (m + 3) * UNIT_ROUNDOFF):
                return float(_normal_float(k_mantissa * math.pi / 2.0, k_exponent))
            log_s = log_extent(log_budget)
            log_s_max = math.log(MAX_TOL_PANELS * math.pi)
            if log_s > log_s_max:
                log_envelope = (1 - m) * log_s_max - math.log(m - 1) - log_prod_r
                raise ToleranceError("sinc tail can be neither expanded nor dropped within the tolerance",
                                     _scaled_bound(2.0 * k_mantissa, k_exponent,
                                                   min(log_noise, log_envelope)))
    panels = EXPANSION_PANELS if expand else max(1, math.ceil(math.exp(log_s) / math.pi))

    def integrand(s: np.ndarray) -> np.ndarray:
        with np.errstate(invalid="ignore", divide="ignore"):
            x = r[None, :] * s[:, None]
            vals = np.where(x != 0.0, np.sin(x) / np.where(x != 0.0, x, 1.0), 1.0)
        return np.prod(vals, axis=1)

    edges = math.pi * np.arange(panels + 1, dtype=float)
    value, err = adaptive_panels(integrand, edges, budget)
    if err > budget:
        raise ToleranceError("sinc quadrature failed to meet tolerance",
                             _scaled_bound(err * k_mantissa, k_exponent, 0.0))
    if expand:
        value += sinc_product_tail(r, panels * math.pi)
    return float(_normal_float(k_mantissa * value, k_exponent))


def _scaled_bound(mantissa: float, exponent: int, log_factor: float) -> float:
    """mantissa 2^exponent e^log_factor as a float, inf where it overflows."""
    log_value = math.log(mantissa) + exponent * math.log(2.0) + log_factor
    return math.exp(log_value) if log_value < 709.0 else math.inf


def section_quadrature(box: Box, h: Subspace) -> float:
    """|B cap H| by the exact slab kernels in H coordinates: the SlabSum of
    the box's indicator over the rows of H's basis, at zero shift.

    The section in the orthonormal coordinates of H is the slab intersection
    { y : |<y, w_i>| <= z_i/2 } with w_i the rows of H's basis; its volume is
    computed exactly provided every irreducible orthogonal block of the slab
    system has dimension <= slabgeom.MAX_BLOCK.  Wider irreducible sections must
    go through section_mc.
    """
    _check_section(box, h)
    return slabgeom.SlabSum(np.asarray(h.basis), box_pieces(box)).value(np.zeros(box.n))


def _check_section(box: Box, h: Subspace) -> None:
    """Both section routes' check of the box and the subspace H."""
    if h.n != box.n:
        raise ValueError("dimension mismatch between box and subspace")
    if h.k == 0:
        raise ValueError("zero-dimensional section")


# fewest samples section_mc takes
MIN_MC_SAMPLES = 100


def section_mc(
    box: Box, h: Subspace, samples: int, seed: int, stream: int = 0
) -> tuple[float, float]:
    """Stratified Monte Carlo estimate of |B cap H| with a standard error:
    SlabSum.mc of the box's indicator over the rows of H's basis, at zero
    shift."""
    if samples < MIN_MC_SAMPLES:
        raise ValueError(f"need samples >= {MIN_MC_SAMPLES}")
    _check_section(box, h)
    slab_sum = slabgeom.SlabSum(np.asarray(h.basis), box_pieces(box))
    return slab_sum.mc(np.zeros(box.n), samples, seed, stream)


def sharp_block_subspace(n: int, k: int) -> Subspace:
    """E in G_{n,k} whose complement is spanned by disjoint-block diagonals.

    Requires (n-k) | n; the cube section by the complement is then a cube of
    volume (n/(n-k))^{(n-k)/2}, the first sharpness case.
    """
    if not (1 <= k < n):
        raise ValueError("need 1 <= k < n")
    d = n - k
    if n % d != 0:
        raise ValueError(f"(n - k) = {d} must divide n = {n}")
    s = n // d
    basis = np.zeros((n, k))
    col = 0
    for b in range(d):
        offset = b * s
        for j in range(1, s):
            v = np.zeros(n)
            v[offset : offset + j] = 1.0
            v[offset + j] = -float(j)
            basis[:, col] = v / math.sqrt(j * (j + 1))
            col += 1
    return Subspace(basis)


def sharp_paired_subspace(n: int, k: int) -> Subspace:
    """E in G_{n,k} realizing the 2^{k/2} bound: k paired-coordinate diagonals.

    The complement contains (e_{2i-1}+e_{2i})/sqrt(2) for i <= k plus the
    remaining n-2k coordinate vectors, so the cube section is a box of volume
    2^{k/2}.
    """
    if not (1 <= k <= n / 2):
        raise ValueError("need 1 <= k <= n/2")
    basis = np.zeros((n, k))
    for i in range(k):
        basis[2 * i, i] = 1.0 / math.sqrt(2.0)
        basis[2 * i + 1, i] = -1.0 / math.sqrt(2.0)
    return Subspace(basis)
