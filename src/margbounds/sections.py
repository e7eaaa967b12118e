"""Volumes of central sections of axis-aligned boxes.

Four routes with very different failure modes, used to cross-validate each
other: an exact signed-sum formula for hyperplane sections (the density of a
weighted sum of uniforms), an oscillatory Fourier (sinc-product) route, the
exact slab kernels in the section coordinates for dimensions up to three, and
the slab sum's stratified Monte Carlo (slabgeom.SlabSum.mc) for higher
dimensions.
"""

from __future__ import annotations

import math
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

ZERO_COORD_TOL = 1e-10  # |a_j| below this is treated as an exact zero
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

    def volume(self) -> float:
        return float(np.prod(self.sides))


def unit_cube(n: int) -> Box:
    return Box(np.ones(n))


def box_pieces(box: Box) -> list:
    """The pieces of the box's indicator, one centred interval per side."""
    return [[(-z / 2.0, z / 2.0, 1.0)] for z in box.sides.tolist()]


def _check_unit(a: np.ndarray) -> None:
    # written so that a NaN or infinite norm fails the check
    if not abs(np.linalg.norm(a) - 1.0) <= 1e-12:
        raise ValueError("normal vector must have unit norm (within 1e-12)")


def hyperplane_section_exact(box: Box, a):
    """|B cap a-perp| by the signed vertex formula (exact up to rounding),
    or that of each row of normals a (B, n), with one-row calls' bits.

    Evaluates the density at its center of the weighted sum of independent
    uniforms sum_j z_j a_j U_j, times the box volume.  Requires every a_j to
    be nonzero; callers must factor out zero coordinates first.
    """
    a = np.asarray(a, dtype=float)
    if a.shape[-1] != box.n:
        raise ValueError("dimension mismatch between box and normal")
    for row in a.reshape(-1, box.n):
        _check_unit(row)
    if (np.abs(a) <= ZERO_COORD_TOL).any():
        raise ValueError(
            "exact route needs all |a_j| > 1e-10; factor out zero coordinates"
        )
    if box.n > 24:
        raise RouteLimitError("combinatorial blowup guard: n > 24")
    c = np.abs(a) * box.sides
    dens = kernels.irwin_hall_at(c, 0.5 * c.sum(axis=-1))
    return box.volume() * dens


def hyperplane_sections_exact_batch(box: Box, normals: np.ndarray) -> np.ndarray:
    """Vectorized exact hyperplane sections for many unit normals (rows).

    Same formula as hyperplane_section_exact, evaluated with plain numpy
    sums; adequate for well-conditioned (e.g. Haar) normals.
    """
    normals = np.asarray(normals, dtype=float)
    m, n = normals.shape
    if n != box.n:
        raise ValueError("dimension mismatch between box and normals")
    if n > 20:
        raise RouteLimitError("batch guard: n > 20")
    c = np.abs(normals) * box.sides[None, :]
    if c.min() <= ZERO_COORD_TOL:
        raise ValueError("batch exact route needs all |a_j| > 1e-10")
    bits = (np.arange(2**n)[:, None] >> np.arange(n)[None, :]) & 1
    signs = 1.0 - 2.0 * (bits.sum(axis=1) % 2)
    subset_sums = c @ bits.T.astype(float)  # (m, 2^n)
    diff = 0.5 * c.sum(axis=1)[:, None] - subset_sums
    terms = np.where(diff > 0.0, diff, 0.0) ** (n - 1)
    dens = (terms @ signs) / (math.factorial(n - 1) * np.prod(c, axis=1))
    return box.volume() * dens


def hyperplane_section_sinc(box: Box, a, tol: float = 1e-9) -> float:
    """|B cap a-perp| via Fourier inversion of the sinc characteristic product.

    Integrates the m-factor sinc product on [0, T], T = 128 pi / max c, on
    128 panels cut at the zeros of the fastest factor, then adds the [T, oo)
    tail.  Since |sinc(c_j t)| <= 1 / (c_j t), the tail is at most the
    envelope T^{1-m} / ((m-1) prod c).  Where that envelope is at most the
    unit roundoff 2^-53 of the [0, T] value, the tail is dropped: it cannot
    move the result by more than rounding does, and its closed-form 2^m
    expansion would return only its own rounding noise there (from about
    m = 8 on).  Otherwise sinc_product_tail evaluates it in closed form, so
    the requested absolute tolerance is met even for the slowly decaying
    two-factor case.  Raises RouteLimitError for more than MAX_SINC_FACTORS
    nonzero coordinates, before any quadrature.
    """
    if not tol > 0.0:  # NaN fails too
        raise ValueError("tol must be positive")
    a = np.asarray(a, dtype=float)
    if a.size != box.n:
        raise ValueError("dimension mismatch between box and normal")
    _check_unit(a)
    keep = np.abs(a) > ZERO_COORD_TOL
    prefactor = float(np.prod(box.sides[~keep]))
    c = np.abs(a[keep]) * box.sides[keep] / 2.0
    if c.size == 0:
        raise ValueError("normal vector is numerically zero")
    if c.size == 1:
        # facet: the section is the opposite pair of faces' cross-section
        return prefactor
    if c.size > MAX_SINC_FACTORS:
        # checked here because a dropped tail never reaches the expansion's guard
        raise RouteLimitError(f"sinc route guard: more than {MAX_SINC_FACTORS} sinc factors")
    scale = prefactor * float(np.prod(box.sides[keep])) / math.pi

    def integrand(t: np.ndarray) -> np.ndarray:
        with np.errstate(invalid="ignore", divide="ignore"):
            x = c[None, :] * t[:, None]
            vals = np.where(x != 0.0, np.sin(x) / np.where(x != 0.0, x, 1.0), 1.0)
        return np.prod(vals, axis=1)

    cmax = float(c.max())
    t_end = 128 * math.pi / cmax
    edges = np.linspace(0.0, t_end, 129)
    budget = tol / (2.0 * scale)
    value, err = adaptive_panels(integrand, edges, budget)
    if err > budget:
        raise ToleranceError("sinc quadrature failed to meet tolerance", err * scale)
    tail = 0.0 if _tail_below_roundoff(c, t_end, value) else sinc_product_tail(c, t_end)
    return scale * (value + tail)


def _tail_below_roundoff(c: np.ndarray, t_end: float, value: float) -> bool:
    """Whether the tail envelope T^{1-m} / ((m-1) prod c) is at most
    UNIT_ROUNDOFF * |value|.

    Compared as logarithms, which neither underflow nor overflow for positive
    finite c and T; a zero or NaN value compares False, so the expansion runs.
    """
    if not abs(value) > 0.0:
        return False
    m = c.size
    log_envelope = (
        (1 - m) * math.log(t_end) - math.log(m - 1) - math.fsum(map(math.log, c.tolist()))
    )
    return log_envelope <= math.log(UNIT_ROUNDOFF) + math.log(abs(value))


def section_quadrature(box: Box, h: Subspace) -> float:
    """|B cap H| by the exact slab kernels in H coordinates: the SlabSum of
    the box's indicator over the rows of H's basis, at zero shift.

    The section in the orthonormal coordinates of H is the slab intersection
    { y : |<y, w_i>| <= z_i/2 } with w_i the rows of H's basis; its volume is
    computed exactly provided every irreducible orthogonal block of the slab
    system has dimension <= 3.  Higher-dimensional irreducible sections must
    go through section_mc.
    """
    if h.n != box.n:
        raise ValueError("dimension mismatch between box and subspace")
    if h.k == 0:
        raise ValueError("zero-dimensional section")
    return slabgeom.SlabSum(np.asarray(h.basis), box_pieces(box)).value(np.zeros(box.n))


def section_mc(
    box: Box, h: Subspace, samples: int, seed: int, stream: int = 0
) -> tuple[float, float]:
    """Stratified Monte Carlo estimate of |B cap H| with a standard error:
    SlabSum.mc of the box's indicator over the rows of H's basis, at zero
    shift."""
    if samples < 100:
        raise ValueError("need samples >= 100")
    if h.n != box.n:
        raise ValueError("dimension mismatch between box and subspace")
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
