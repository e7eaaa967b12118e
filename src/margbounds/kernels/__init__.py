"""Kernel backend selection.

Prefers the compiled extension; falls back to the pure numpy/Python twins.
Set MARGBOUNDS_PURE_PYTHON=1 to force the fallback (used by the benchmark
and the backend-agreement tests).
"""

from __future__ import annotations

import os

from . import _pure

if os.environ.get("MARGBOUNDS_PURE_PYTHON"):
    _impl = _pure
    BACKEND = "pure"
else:
    try:
        from . import _core as _impl  # type: ignore[no-redef]

        BACKEND = "compiled"
    except ImportError:  # pragma: no cover - depends on build environment
        _impl = _pure
        BACKEND = "pure"

interval_length = _impl.interval_length
polygon_area = _impl.polygon_area
irwin_hall_at = _impl.irwin_hall_at
# The 3-D clipper has a single (Python) implementation.
polytope_volume = _pure.polytope_volume


def slab_volume(W, lo, hi) -> float:
    """Volume of { y in R^d : lo_i <= <w_i, y> <= hi_i } for d in {1, 2, 3}."""
    d = W.shape[1] if W.ndim == 2 else 1
    if d == 1:
        return interval_length(W.reshape(-1), lo, hi)
    if d == 2:
        return polygon_area(W, lo, hi)
    if d == 3:
        return polytope_volume(W, lo, hi)
    raise ValueError(f"slab_volume supports dimensions 1-3, got {d}")


def clip_seed_rows(W):
    """Indices of the rows from which the 2-D or 3-D clipper builds its seed
    parallelogram or parallelepiped, or None when W is degenerate and the
    clipper returns 0.0 for every lo, hi.  Both backends choose the same rows.
    """
    d = W.shape[1]
    if d == 2:
        seeds = _pure._polygon_seed_rows(W)
        return None if seeds is None else seeds[:2]
    if d == 3:
        return _pure._polytope_seed_rows(W)
    raise ValueError(f"clip_seed_rows supports dimensions 2-3, got {d}")


def backends() -> dict:
    """All importable backends, keyed by name (for benchmarks/tests)."""
    out = {"pure": _pure}
    try:
        from . import _core

        out["compiled"] = _core
    except ImportError:
        pass
    return out
