"""Counter-based random streams.

All Monte Carlo estimators in this package draw their randomness from
splitmix64 evaluated at explicit (seed, stream, counter) coordinates, so a
run is fully determined by its seed and sample count and is bitwise
independent of chunking or worker count.
"""

from __future__ import annotations

import numpy as np

_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_INV53 = float(2.0**-53)


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, vectorized over uint64 arrays."""
    z = (x + _GAMMA) & _MASK
    z = ((z ^ (z >> np.uint64(30))) * _M1) & _MASK
    z = ((z ^ (z >> np.uint64(27))) * _M2) & _MASK
    return z ^ (z >> np.uint64(31))


def stream_base(seed: int, stream):
    """64-bit base offset for a (seed, stream) pair; elementwise when stream
    is an integer array of streams."""
    s = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    if isinstance(stream, np.ndarray):
        t = stream.astype(np.uint64)
    else:
        t = np.uint64(stream & 0xFFFFFFFFFFFFFFFF)
    base = _mix(_mix(np.asarray([s])) ^ t)
    return base if isinstance(stream, np.ndarray) else base[0]


def uniforms(seed: int, stream, start: int, count: int) -> np.ndarray:
    """count uniforms in [0, 1) at counters start..start+count-1.

    For an integer array of L streams the result is (L, count), row i being
    the draw from streams[i]: splitmix64 is elementwise, so one pass over
    every stream gives each row's bits.
    """
    base = stream_base(seed, stream)
    ctr = np.add.outer(base, np.arange(start, start + count, dtype=np.uint64)) & _MASK
    bits = _mix(ctr) >> np.uint64(11)
    return bits.astype(np.float64) * _INV53


def normals(seed: int, stream, start: int, count: int) -> np.ndarray:
    """count standard normals; normal i consumes uniform counters 2i, 2i+1.

    start indexes normals, so disjoint [start, start+count) ranges never
    share underlying counters regardless of how a loop is chunked.  An
    integer array of L streams gives (L, count), as in uniforms.
    """
    u = uniforms(seed, stream, 2 * start, 2 * count)
    u = u.reshape(u.shape[:-1] + (count, 2))
    u1 = np.maximum(u[..., 0], _INV53)
    r = np.sqrt(-2.0 * np.log(u1))
    return r * np.cos(2.0 * np.pi * u[..., 1])


MC_CHUNK = 1 << 15


def stratified_cube(seed: int, stream: int, samples: int, d: int, radius: float):
    """Yield (start, points) chunks of `samples` points in [-radius, radius]^d;
    point j uses counters j*d.. and its first axis lies in stratum j, so the
    points do not depend on the chunk size MC_CHUNK."""
    for start in range(0, samples, MC_CHUNK):
        count = min(MC_CHUNK, samples - start)
        u = uniforms(seed, stream, start * d, count * d).reshape(count, d)
        idx = np.arange(start, start + count, dtype=float)
        u[:, 0] = (idx + u[:, 0]) / samples
        yield start, (2.0 * u - 1.0) * radius
