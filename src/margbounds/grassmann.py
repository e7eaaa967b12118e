"""Subspaces of R^n: Haar sampling, complements, tight frames, exponent
assignments and extremal search.

A Subspace carries an explicit orthonormal basis; the tight frame of its
complement (rows of the complement basis) is the workhorse identity behind
every marginal and section computation in the package.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import randomness

ORTHO_TOL = 1e-12


@dataclass(frozen=True)
class Subspace:
    """A k-dimensional subspace of R^n given by an n x k orthonormal basis."""

    basis: np.ndarray

    def __init__(self, basis):
        basis = np.array(basis, dtype=float, copy=True)
        if basis.ndim == 1:
            basis = basis.reshape(-1, 1)
        n, k = basis.shape
        if k > n:
            raise ValueError(f"subspace dimension {k} exceeds ambient dimension {n}")
        if k > 0:
            defect = np.abs(basis.T @ basis - np.eye(k)).max()
            if defect > ORTHO_TOL:
                raise ValueError(f"basis not orthonormal (defect {defect:.3e} > {ORTHO_TOL})")
        basis.setflags(write=False)
        object.__setattr__(self, "basis", basis)

    @property
    def n(self) -> int:
        return self.basis.shape[0]

    @property
    def k(self) -> int:
        return self.basis.shape[1]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "basis_rows": [[float(f"{x:.17g}") for x in row] for row in self.basis],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Subspace":
        if not isinstance(data, dict) or "basis_rows" not in data:
            raise ValueError('invariant violated: expected {"basis_rows": [[...], ...]}')
        basis = np.asarray(data["basis_rows"], dtype=float)
        return cls(basis)

    @classmethod
    def from_json_file(cls, path) -> "Subspace":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))

    @classmethod
    def coordinate(cls, n: int, indices) -> "Subspace":
        basis = np.zeros((n, len(indices)))
        for j, i in enumerate(indices):
            basis[i, j] = 1.0
        return cls(basis)


@dataclass(frozen=True)
class Frame:
    """Vectors w_1..w_n in R^d with sum of w_i w_i^T equal to I_d."""

    vectors: np.ndarray  # (n, d), rows w_i

    def __init__(self, vectors):
        vectors = np.array(vectors, dtype=float, copy=True)
        d = vectors.shape[1]
        defect = np.abs(vectors.T @ vectors - np.eye(d)).max()
        if defect > ORTHO_TOL:
            raise ValueError(f"not a tight frame (defect {defect:.3e})")
        vectors.setflags(write=False)
        object.__setattr__(self, "vectors", vectors)

    @property
    def d(self) -> int:
        return self.vectors.shape[1]

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def norms(self) -> np.ndarray:
        """a_i = |w_i| (each lies in [0, 1], squares summing to d)."""
        return np.sqrt(np.einsum("ij,ij->i", self.vectors, self.vectors))

    @property
    def directions(self) -> np.ndarray:
        """u_i = w_i/a_i; rows with a_i = 0 are NaN (direction undefined)."""
        a = self.norms
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(a[:, None] > 0.0, self.vectors / a[:, None], np.nan)


@dataclass(frozen=True)
class ExponentAssignment:
    """Exponents beta_i in [0, 1] summing to a required target."""

    betas: np.ndarray
    target_sum: float

    def __init__(self, betas, target_sum):
        betas = np.asarray(betas, dtype=float)
        if betas.min() < -1e-12 or betas.max() > 1.0 + 1e-12:
            raise ValueError("exponents must lie in [0, 1]")
        if abs(betas.sum() - target_sum) > 1e-10:
            raise ValueError(
                f"exponents sum to {betas.sum():.12g}, expected {target_sum:.12g}"
            )
        betas = np.clip(betas, 0.0, 1.0)
        betas.setflags(write=False)
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "target_sum", float(target_sum))


def _fix_qr_signs(q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Make the thin-QR factorization unique (positive diagonal of R); works
    on one factorization or a stack of them."""
    sgn = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    sgn[sgn == 0.0] = 1.0
    return q * sgn[..., None, :]


def haar_bases(n: int, k: int, seed: int, streams) -> np.ndarray:
    """Orthonormal bases (L, n, k) of Haar-distributed elements of G_{n,k},
    one per stream in the integer array streams.

    Each lane orthonormalizes the iid Gaussian n x k matrix of its stream;
    the sign convention makes the factorization unique, so lane i is
    determined by (seed, streams[i]) alone.
    """
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got (n, k) = ({n}, {k})")
    g = randomness.normals(seed, np.asarray(streams), 0, n * k).reshape(-1, n, k)
    q, r = np.linalg.qr(g)
    return _fix_qr_signs(q, r)


def haar_sample(n: int, k: int, seed: int, stream: int = 0) -> Subspace:
    """Haar-distributed element of G_{n,k}: the one-lane haar_bases."""
    streams = np.array([stream & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    return Subspace(haar_bases(n, k, seed, streams)[0])


def haar_directions(n: int, count: int, seed: int, stream: int = 0, start: int = 0) -> np.ndarray:
    """Haar unit vectors start, ..., start + count - 1 of the stream in R^n,
    one per row (vectorized k=1 case); chunks of one stream concatenate to
    the whole."""
    g = randomness.normals(seed, stream, start * n, count * n).reshape(count, n)
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def complement_bases(bases: np.ndarray) -> np.ndarray:
    """Orthonormal bases (L, n, n-k) of the orthogonal complements of the
    spans of bases (L, n, k), each with orthonormal columns."""
    count, n, k = bases.shape
    if k == n:
        return np.zeros((count, n, 0))
    q, _ = np.linalg.qr(bases, mode="complete")
    comp = q[..., k:]
    # re-project for a clean orthogonality defect
    comp = comp - bases @ (np.swapaxes(bases, -1, -2) @ comp)
    q2, r2 = np.linalg.qr(comp)
    return _fix_qr_signs(q2, r2)


def orthonormal_complement(e: Subspace) -> Subspace:
    """The orthogonal complement (zero-dimensional when k = n): the one-lane
    complement_bases."""
    return Subspace(complement_bases(e.basis[None])[0])


def frame_of_complement(e: Subspace) -> Frame:
    """Tight frame w_i = V^T e_i in R^{n-k}, V an orthonormal basis of E-perp."""
    if e.k >= e.n:
        raise ValueError("the complement frame needs k < n")
    v = orthonormal_complement(e).basis  # (n, n-k)
    return Frame(v)


def projection_weights(e: Subspace) -> ExponentAssignment:
    """gamma_i = |P_E e_i|^2; nonnegative, summing to k."""
    if not (1 <= e.k < e.n):
        raise ValueError("need 1 <= k < n")
    gam = np.einsum("ij,ij->i", e.basis, e.basis)
    return ExponentAssignment(np.clip(gam, 0.0, 1.0), float(e.k))


def box2_exponents(h: Subspace) -> ExponentAssignment:
    """Exponents for the 2^{k/2} box bound, following the proof's case split.

    h has dimension n-k with k <= n/2.  Base branch (all projections of the
    coordinate vectors onto H-perp no longer than 1/sqrt(2)): beta_j = 1-a_j^2.
    Otherwise the coordinate with the largest projection is split off
    (beta_i = 0) and the construction recurses on P_i H inside R^{n-1}.
    """
    n = h.n
    k = n - h.k
    if not (1 <= k <= n / 2):
        raise ValueError(f"need 1 <= k <= n/2, got (n, k) = ({n}, {k})")
    betas = _box2_recurse(h.basis)
    return ExponentAssignment(betas, float(n - k))


def _box2_recurse(basis: np.ndarray) -> np.ndarray:
    n, dim_h = basis.shape
    k = n - dim_h
    # a_i = |P_{H-perp} e_i|; squared norm is 1 - |row_i|^2
    row_sq = np.einsum("ij,ij->i", basis, basis)
    a_sq = np.clip(1.0 - row_sq, 0.0, 1.0)
    if a_sq.max() <= 0.5:
        return 1.0 - a_sq
    i = int(np.argmax(a_sq))  # largest a_i, lowest index on ties
    betas = np.zeros(n)
    if k == 1:
        betas[:] = 1.0
        betas[i] = 0.0
        return betas
    # project H onto e_i-perp and drop coordinate i; injective since a_i > 0
    # excludes e_i from H
    reduced = np.delete(basis, i, axis=0)
    q, r = np.linalg.qr(reduced)
    if np.abs(np.diag(r)).min() <= 1e-8:
        raise AssertionError("projection unexpectedly non-injective")
    sub = _box2_recurse(_fix_qr_signs(q, r))
    betas[np.arange(n) != i] = sub
    betas[i] = 0.0
    return betas


def parallelepiped_projection_check(b, generators, i: int) -> tuple[float, float]:
    """(|b_i| |A|_k, |P_i A|_k) for the parallelepiped A spanned by the
    generators inside b-perp; both sides via Gram determinants."""
    b = np.asarray(b, dtype=float)
    gens = np.column_stack([np.asarray(g, dtype=float) for g in generators])
    if abs(np.linalg.norm(b) - 1.0) > 1e-10:
        raise ValueError("b must be a unit vector")
    if np.abs(b @ gens).max() > 1e-10:
        raise ValueError("generators must be orthogonal to b")
    gram = gens.T @ gens
    det = np.linalg.det(gram)
    if det < 1e-20:
        raise ValueError("generators are (numerically) dependent")
    proj = gens.copy()
    proj[i, :] = 0.0
    det_proj = max(np.linalg.det(proj.T @ proj), 0.0)
    return abs(b[i]) * math.sqrt(det), math.sqrt(det_proj)


# proposals the climb scores per objective call: of 8, 12, 16 and 24, 12 gave
# the lowest search-max times at (n, k) = (4, 2), (5, 2) and (6, 1)
_SPECULATE = 12


def grassmann_search_max(
    objective,
    n: int,
    k: int,
    restarts: int,
    steps: int,
    seed: int,
) -> tuple[Subspace, float]:
    """Random-restart local maximization of a function on G_{n,k}; objective
    maps bases (B, n, k) to their values (B,).

    Geodesic-style perturbations: add a random tangent-scale step to the
    basis, re-orthonormalize, accept on improvement; the step size halves
    after every streak of 10 rejections.  Restarts are independent and merge
    by maximum (lowest restart index wins ties), so the result does not
    depend on evaluation order.

    The climb scores the next _SPECULATE proposals in one objective call,
    proposal j with the step size sigma 0.5^((fails + j) // 10) it has if
    all before it are rejected; it accepts the first that improves and
    replays the rejections before it, so the trajectory and its bits are
    those of one proposal per call.
    """
    if restarts < 1 or steps < 1:
        raise ValueError("restarts and steps must be >= 1")
    best_val = -math.inf
    best_sub = None
    for r in range(restarts):
        sub = haar_sample(n, k, seed, stream=2 * r + 1)
        val = float(objective(sub.basis[None])[0])
        sigma = 0.5
        fails = 0
        noise = randomness.normals(seed, 2 * r + 2, 0, steps * n * k).reshape(steps, n, k)
        s = 0
        while s < steps:
            ahead = np.arange(min(_SPECULATE, steps - s))
            sigmas = sigma * 0.5 ** ((fails + ahead) // 10)
            q, rr = np.linalg.qr(sub.basis + sigmas[:, None, None] * noise[s : s + ahead.size])
            cands = [Subspace(basis) for basis in _fix_qr_signs(q, rr)]
            vals = objective(np.stack([cand.basis for cand in cands]))
            better = np.flatnonzero(vals > val)
            # the rejections before the first improvement, or all of them
            rejected = int(better[0]) if better.size else ahead.size
            fails += rejected
            sigma *= 0.5 ** (fails // 10)
            fails %= 10
            s += rejected
            if better.size:
                sub, val = cands[rejected], float(vals[rejected])
                fails = 0
                s += 1
        if val > best_val:
            best_val = val
            best_sub = sub
    return best_sub, best_val
