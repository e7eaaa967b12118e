"""Orthogonal decomposition of slab systems.

A slab system { y in R^d : lo_i <= <w_i, y> <= hi_i } whose rows split into
groups with mutually orthogonal spans factorizes: the volume is the product
of the per-group volumes inside their span coordinates.  Since the rows
always form a tight frame here, the group spans cover R^d, and each group of
span dimension <= 3 is handled exactly by the clipping kernels.
"""

from __future__ import annotations

import numpy as np

from . import kernels

ROW_ZERO_TOL = 1e-12


class BlockTooWideError(ValueError):
    """An irreducible slab block spans more dimensions than the exact
    clipping kernels handle; the exact route cannot serve this frame."""


def row_components(w: np.ndarray, tol: float = 1e-10) -> list[np.ndarray]:
    """Index groups of rows linked by nonzero inner products (union of BFS)."""
    m = w.shape[0]
    norms = np.sqrt(np.einsum("ij,ij->i", w, w))
    gram = np.abs(w @ w.T)
    linked = gram > tol * np.outer(norms + 1.0, norms + 1.0)
    seen = np.zeros(m, dtype=bool)
    comps = []
    for start in range(m):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in np.nonzero(linked[i] & ~seen)[0]:
                seen[j] = True
                stack.append(int(j))
        comps.append(np.array(sorted(comp)))
    return comps


def span_coordinates(rows: np.ndarray) -> np.ndarray:
    """Rows re-expressed in an orthonormal basis of their own span."""
    u, s, vt = np.linalg.svd(rows, full_matrices=False)
    rank = int(np.sum(s > 1e-12 * (1.0 + s[0])))
    return rows @ vt[:rank].T


def component_blocks(w: np.ndarray, max_block: int = 3) -> list[tuple[np.ndarray, np.ndarray]]:
    """(row indices, rows in span coordinates) per orthogonal component.

    Raises BlockTooWideError if some irreducible component spans more than
    max_block dimensions (callers then fall back to Monte Carlo).
    """
    blocks = []
    for comp in row_components(w):
        local = span_coordinates(w[comp])
        if local.shape[1] > max_block:
            raise BlockTooWideError(
                f"irreducible slab block of dimension {local.shape[1]} "
                f"exceeds the exact-geometry limit {max_block}"
            )
        blocks.append((comp, local))
    return blocks


def decomposed_volume(w: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> float:
    """Volume of the slab intersection, factorized over orthogonal blocks."""
    vol = 1.0
    for comp, local in component_blocks(w):
        vol *= kernels.slab_volume(local, lo[comp], hi[comp])
        if vol == 0.0:
            return 0.0
    return vol
