"""Scalar reference for the slab sums, which the tests compare with ==.

It loops kernels.slab_volume over the orthogonal blocks and, per block, over
the piece combinations in itertools.product order: one scalar kernel call
per (block, combination), the floating-point operations of a slab sum
without lanes, a prefilter or a lane pool.
"""

import itertools
import math

import numpy as np

from margbounds import kernels, slabgeom


def scalar_slab_sum(rows, pieces, shifts, blocks=None) -> float:
    """int prod_i g_i(s_i + <w_i, y>) dy for rows w_i (m, d), step functions
    g_i given by their (lo, hi, value) pieces and shifts s (m,).

    Rows no longer than slabgeom.ROW_ZERO_TOL contribute g_i(s_i), each piece
    half-open.  blocks, (row indices, rows in span coordinates) pairs,
    default to slabgeom.component_blocks of the other rows.  Each block sums
    weight x volume from 0.0 over its combinations of nonzero weight, the
    weight being the product of the pieces' values left to right; the
    blocks multiply in order, and a zero stops the product.
    """
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    value = 1.0
    for i in np.flatnonzero(norms <= slabgeom.ROW_ZERO_TOL):
        value *= next((v for lo, hi, v in pieces[i] if lo <= shifts[i] < hi), 0.0)
        if value == 0.0:
            return 0.0
    if blocks is None:
        active = np.flatnonzero(norms > slabgeom.ROW_ZERO_TOL)
        blocks = [(active[comp], local) for comp, local in slabgeom.component_blocks(rows[active])]
    for idx, local in blocks:
        sub = 0.0
        for combo in itertools.product(*[pieces[i] for i in idx]):
            weight = math.prod(p[2] for p in combo)
            if weight == 0.0:
                continue
            lo = np.array([p[0] for p in combo], dtype=float) - shifts[idx]
            hi = np.array([p[1] for p in combo], dtype=float) - shifts[idx]
            sub += weight * kernels.slab_volume(local, lo, hi)
        value *= sub
        if value == 0.0:
            return 0.0
    return value
