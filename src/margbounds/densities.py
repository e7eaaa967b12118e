"""One-dimensional step densities and products of them.

A StepDensity is a nonnegative piecewise-constant function with compact
support; every integral the library needs then reduces to finite sums and
small-dimension polytope volumes, which keeps all oracles exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import randomness


class DensityFormatError(ValueError):
    """Raised when a density file violates an invariant; names the violation."""


def _canonicalize(pieces) -> tuple[tuple[float, float, float], ...]:
    rows = []
    for p in pieces:
        lo, hi, v = float(p[0]), float(p[1]), float(p[2])
        if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(v)):
            raise DensityFormatError("invariant violated: pieces must be finite")
        if hi <= lo:
            raise DensityFormatError("invariant violated: piece needs lo < hi")
        if v < 0.0:
            raise DensityFormatError("invariant violated: value >= 0 on every piece")
        if v > 0.0:
            rows.append((lo, hi, v))
    rows.sort()
    for (lo0, hi0, _), (lo1, _, _) in zip(rows, rows[1:]):
        if lo1 < hi0 - 1e-15 * max(1.0, abs(hi0)):
            raise DensityFormatError("invariant violated: pieces must not overlap")
    # merge adjacent pieces of equal value
    merged: list[list[float]] = []
    for lo, hi, v in rows:
        if merged and v == merged[-1][2] and abs(lo - merged[-1][1]) < 1e-15 * max(1.0, abs(lo)):
            merged[-1][1] = hi
        else:
            merged.append([lo, hi, v])
    return tuple((a, b, c) for a, b, c in merged)


@dataclass(frozen=True)
class StepDensity:
    """Nonnegative piecewise-constant function with finitely many pieces."""

    pieces: tuple[tuple[float, float, float], ...]

    def __init__(self, pieces):
        object.__setattr__(self, "pieces", _canonicalize(pieces))
        if not self.pieces:
            raise DensityFormatError("invariant violated: density must not be zero everywhere")

    # -- array views -----------------------------------------------------

    @property
    def los(self) -> np.ndarray:
        return np.array([p[0] for p in self.pieces])

    @property
    def his(self) -> np.ndarray:
        return np.array([p[1] for p in self.pieces])

    @property
    def values(self) -> np.ndarray:
        return np.array([p[2] for p in self.pieces])

    @property
    def widths(self) -> np.ndarray:
        return self.his - self.los

    def support(self) -> tuple[float, float]:
        return self.pieces[0][0], self.pieces[-1][1]

    def support_midpoint(self) -> float:
        lo, hi = self.support()
        return 0.5 * (lo + hi)

    # -- norms ---------------------------------------------------------------

    def l1_norm(self) -> float:
        return float(np.dot(self.values, self.widths))

    def sup_norm(self) -> float:
        return float(self.values.max())

    def lp_norm(self, p: float) -> float:
        if p == math.inf:
            return self.sup_norm()
        if not p >= 1.0:  # NaN fails too
            raise ValueError("lp_norm requires p >= 1")
        # M (sum (v/M)^p w)^{1/p} with M the sup: no power exceeds 1, so a
        # large p cannot overflow, and the sup's piece keeps the sum positive
        sup = self.sup_norm()
        return sup * float(np.dot((self.values / sup) ** p, self.widths) ** (1.0 / p))

    def is_normalized(self, tol: float = 1e-12) -> bool:
        return abs(self.l1_norm() - 1.0) <= tol

    # -- transforms --------------------------------------------------------

    def normalized(self) -> "StepDensity":
        s = self.l1_norm()
        return StepDensity([(lo, hi, v / s) for lo, hi, v in self.pieces])

    def shifted(self, offset: float) -> "StepDensity":
        """Translate by offset (x -> f(x - offset))."""
        return StepDensity([(lo + offset, hi + offset, v) for lo, hi, v in self.pieces])

    def dilated(self, lam: float) -> "StepDensity":
        """L1-isometric dilation x -> lam f(lam x); scales the sup by lam."""
        if lam <= 0.0:
            raise ValueError("dilation factor must be positive")
        return StepDensity([(lo / lam, hi / lam, v * lam) for lo, hi, v in self.pieces])

    # -- sampling ------------------------------------------------------------

    def inverse_cdf(self, u: np.ndarray) -> np.ndarray:
        """Exact inverse-transform sampling for u in [0, 1)."""
        w = self.values * self.widths
        total = w.sum()
        cum = np.concatenate([[0.0], np.cumsum(w)]) / total
        idx = np.clip(np.searchsorted(cum, u, side="right") - 1, 0, len(self.pieces) - 1)
        frac = (u - cum[idx]) / (cum[idx + 1] - cum[idx])
        return self.los[idx] + frac * self.widths[idx]

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"pieces": [[lo, hi, v] for lo, hi, v in self.pieces]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "StepDensity":
        if not isinstance(data, dict) or "pieces" not in data:
            raise DensityFormatError('invariant violated: expected {"pieces": [[lo, hi, value], ...]}')
        return cls(data["pieces"])

    @classmethod
    def from_json_file(cls, path) -> "StepDensity":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))


def uniform_density(lo: float = -0.5, hi: float = 0.5) -> StepDensity:
    return StepDensity([(lo, hi, 1.0 / (hi - lo))])


def random_density(seed: int, max_pieces: int, bound: float, stream: int = 0) -> StepDensity:
    """Normalized random step density with sup_norm <= bound.

    Deterministic in (seed, stream).  The draw is normalized to unit mass and,
    if its sup then exceeds the bound, rescaled horizontally (which preserves
    the L1 norm).
    """
    return _density_from_uniforms(randomness.uniforms(seed, stream, 0, 3 * max_pieces + 1),
                                  max_pieces, bound)


def _density_from_uniforms(u: np.ndarray, max_pieces: int, bound: float) -> StepDensity:
    """random_density from its 3 max_pieces + 1 uniforms u; one row of a
    many-stream randomness.uniforms call has the one-stream call's bits."""
    if max_pieces < 1:
        raise ValueError("max_pieces must be >= 1")
    if bound <= 0.0:
        raise ValueError("bound must be positive")
    npieces = 1 + int(u[0] * max_pieces)
    cuts = np.sort(u[1 : npieces + 2]) * 2.0 - 1.0
    vals = u[npieces + 2 : 2 * npieces + 2] + 0.05
    pieces = [(cuts[i], cuts[i + 1], vals[i]) for i in range(npieces) if cuts[i + 1] - cuts[i] > 1e-9]
    if not pieces:
        pieces = [(-0.5, 0.5, 1.0)]
    f = StepDensity(pieces).normalized()
    s = f.sup_norm() / bound
    if s > 1.0:
        f = StepDensity([(lo * s, hi * s, v / s) for lo, hi, v in f.pieces])
    return f


@dataclass(frozen=True)
class ProductDensity:
    """f(x) = prod_i f_i(x_i) with one-dimensional step factors."""

    factors: tuple[StepDensity, ...] = field()

    def __init__(self, factors):
        factors = tuple(factors)
        if not factors:
            raise ValueError("need at least one factor")
        object.__setattr__(self, "factors", factors)

    @property
    def n(self) -> int:
        return len(self.factors)

    def sup_norms(self) -> np.ndarray:
        return np.array([f.sup_norm() for f in self.factors])

    def support_midpoints(self) -> np.ndarray:
        return np.array([f.support_midpoint() for f in self.factors])

    def in_class_f(self, tol: float = 1e-9) -> bool:
        """Membership in the class of normalized factors with sup norm <= 1."""
        return all(f.is_normalized(tol) and f.sup_norm() <= 1.0 + tol for f in self.factors)

    def sample(self, seed: int, count: int, stream: int = 0, start: int = 0) -> np.ndarray:
        """count x n matrix of exact inverse-transform samples."""
        u = randomness.uniforms(seed, stream, start * self.n, count * self.n).reshape(count, self.n)
        cols = [f.inverse_cdf(u[:, i]) for i, f in enumerate(self.factors)]
        return np.column_stack(cols)

    def to_json_dict(self) -> dict:
        return {"factors": [f.to_json_dict() for f in self.factors]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "ProductDensity":
        if not isinstance(data, dict) or "factors" not in data:
            raise DensityFormatError('invariant violated: expected {"factors": [...]}')
        return cls([StepDensity.from_json_dict(d) for d in data["factors"]])

    @classmethod
    def from_json_file(cls, path) -> "ProductDensity":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))


def cube_density(n: int) -> ProductDensity:
    """The indicator of the unit cube as a product of uniform factors."""
    return ProductDensity([uniform_density() for _ in range(n)])


def random_product_density(
    seed: int, n: int, max_pieces: int = 3, bound: float = 1.0, stream_base: int = 0
) -> ProductDensity:
    """Product of n random_density factors, factor i from stream
    stream_base + i + 1, all drawn in one pass."""
    u = randomness.uniforms(seed, stream_base + 1 + np.arange(n), 0, 3 * max_pieces + 1)
    return ProductDensity([_density_from_uniforms(row, max_pieces, bound) for row in u])
