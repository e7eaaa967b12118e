"""Exact slab-intersection volumes in dimension 1-3, the kernels' oracle.

exact_slab_volume reads the float rows and bounds as the rationals they
are and works in fractions.Fraction throughout: it enumerates the vertices
(every d of the 2m bounding planes with a unique common point that meets
every slab), then sums the volume by fan triangulation, so the answer is
the exact volume of the system the floats describe.  It is slow (C(2m, d)
exact solves), meant for small test systems.
"""

import functools
import itertools
from fractions import Fraction


def _det(a):
    if len(a) == 1:
        return a[0][0]
    if len(a) == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    return (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]))


def _solve(a, b):
    """Cramer's rule: the x with a x = b, or None when a is singular."""
    det = _det(a)
    if det == 0:
        return None
    x = []
    for k in range(len(a)):
        ak = [row[:k] + [bk] + row[k + 1:] for row, bk in zip(a, b)]
        x.append(_det(ak) / det)
    return tuple(x)


def _sub(a, b):
    return [x - y for x, y in zip(a, b)]


def _ccw_order(points):
    """points (2-D) in counter-clockwise order about their centroid, by
    exact comparisons."""
    n = len(points)
    cx = sum(p[0] for p in points) / n
    cy = sum(p[1] for p in points) / n

    def half(p):
        x, y = p[0] - cx, p[1] - cy
        return 0 if (y > 0 or (y == 0 and x > 0)) else 1

    def before(p, q):
        hp, hq = half(p), half(q)
        if hp != hq:
            return hp - hq
        cross = (p[0] - cx) * (q[1] - cy) - (p[1] - cy) * (q[0] - cx)
        return -1 if cross > 0 else (1 if cross < 0 else 0)

    return sorted(points, key=functools.cmp_to_key(before))


def _polygon_area(points):
    ring = _ccw_order(points)
    twice = sum(p[0] * q[1] - p[1] * q[0] for p, q in zip(ring, ring[1:] + ring[:1]))
    return abs(twice) / 2


def _facet_ring(points, normal):
    """The vertices of a 3-D facet in cyclic order: ordered in the
    projection that drops the normal's largest coordinate."""
    drop = max(range(3), key=lambda k: abs(normal[k]))
    keep = [k for k in range(3) if k != drop]
    flat = {(p[keep[0]], p[keep[1]]): p for p in points}
    return [flat[q] for q in _ccw_order(list(flat))]


def exact_slab_volume(W, lo, hi) -> Fraction:
    """Volume of { y in R^d : lo_i <= <w_i, y> <= hi_i } for d in {1, 2, 3},
    exactly, with W (m, d), lo and hi (m,) read as exact rationals.  Zero
    rows impose lo_i <= 0 <= hi_i; the other rows must bound the set."""
    rows = [[Fraction(float(c)) for c in w] for w in W]
    lo = [Fraction(float(b)) for b in lo]
    hi = [Fraction(float(b)) for b in hi]
    d = len(rows[0])
    halves = []  # (a, b): <a, y> <= b
    for w, low, high in zip(rows, lo, hi):
        if low > high:
            return Fraction(0)
        if not any(w):
            if low > 0 or high < 0:
                return Fraction(0)
            continue
        halves.append((w, high))
        halves.append(([-c for c in w], -low))
    vertices = set()
    for combo in itertools.combinations(halves, d):
        x = _solve([a for a, _ in combo], [b for _, b in combo])
        if x is not None and all(sum(ai * xi for ai, xi in zip(a, x)) <= b for a, b in halves):
            vertices.add(x)
    if len(vertices) <= d:
        return Fraction(0)
    if d == 1:
        return max(vertices)[0] - min(vertices)[0]
    if d == 2:
        return _polygon_area(list(vertices))
    centre = [sum(v[k] for v in vertices) / len(vertices) for k in range(3)]
    faces = {}
    for a, b in halves:
        on = frozenset(v for v in vertices if sum(ai * vi for ai, vi in zip(a, v)) == b)
        if len(on) >= 3:
            faces.setdefault(on, a)  # a plane counted twice is one facet
    volume = Fraction(0)
    for on, normal in faces.items():
        ring = _facet_ring(on, normal)
        for p, q in zip(ring[1:], ring[2:]):
            volume += abs(_det([_sub(ring[0], centre), _sub(p, centre), _sub(q, centre)]))
    return volume / 6
