"""Marginal densities of product densities on subspaces.

The marginal of f(x) = prod f_i(x_i) onto a k-dimensional subspace E,
evaluated at x in E, is an integral over E-perp that the complement tight
frame turns into

    pi_E(f)(x) = int_{R^{n-k}} prod_i f_i(x_i + <y, w_i>) dy,

with w_i the rows of an orthonormal basis of E-perp and x_i the ambient
coordinates of x.  For step factors this is a finite sum of slab-intersection
volumes, so the deterministic route is exact.  It needs every orthogonal
block of the frame rows to span at most slabgeom.MAX_BLOCK dimensions
(always true for n - k <= MAX_BLOCK); a wider one raises
slabgeom.BlockTooWideError, with no fallback.  On top sit the theorem verifier, the one-dimensional worst-case
(cube) comparison, and the small-ball estimator.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import bounds, randomness, slabgeom
from .densities import ProductDensity
from .grassmann import Subspace, check_orthonormal, complement_bases, orthonormal_complement
from .quadrature import RouteLimitError
from .sections import hyperplane_section_exact, unit_cube

_GRID_BUDGET = 400_000


@dataclass(frozen=True)
class MarginalQuery:
    """Evaluation point of pi_E(f): x is given in coordinates of E's basis."""

    f: ProductDensity
    e: Subspace
    x: np.ndarray

    def __init__(self, f: ProductDensity, e: Subspace, x):
        x = np.array(x, dtype=float, copy=True).reshape(-1)
        if e.n != f.n:
            raise ValueError("density and subspace live in different dimensions")
        if x.size != e.k:
            raise ValueError("x must have one coordinate per basis column of E")
        x.setflags(write=False)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "x", x)

    def ambient_shifts(self) -> np.ndarray:
        """x_i = <x, e_i> for the ambient point represented by x."""
        return self.e.basis @ self.x


def _framed_slab_sum(f: ProductDensity, comp: Subspace) -> slabgeom.SlabSum:
    """The per-(f, E) part of pi_E(f), from comp, the complement of E: its
    frame rows w_i with the factors' pieces, evaluated at the ambient shifts
    x_i = <x, e_i>."""
    if comp.n != f.n:
        raise ValueError("density and subspace live in different dimensions")
    return slabgeom.SlabSum(comp.basis, [fi.pieces for fi in f.factors])


def _slab_sum(f: ProductDensity, e: Subspace) -> slabgeom.SlabSum:
    """The per-(f, E) part of pi_E(f), framed by orthonormal_complement(e)
    (the call perfbench's tracer counts per marginal)."""
    return _framed_slab_sum(f, orthonormal_complement(e))


def _slab_sums(pairs) -> list:
    """_slab_sum(f, e) of each (f, e) of pairs, with the same bits: the
    complements of the subspaces of one shape (n, k) come from one
    complement_bases call and are checked orthonormal together, as Subspace
    checks each, and go through one slabgeom.framed_slab_sums call."""
    if any(e.n != f.n for f, e in pairs):
        raise ValueError("density and subspace live in different dimensions")
    shapes = {}
    for i, (_, e) in enumerate(pairs):
        shapes.setdefault(e.basis.shape, []).append(i)
    out = [None] * len(pairs)
    for index in shapes.values():
        comps = complement_bases(np.stack([pairs[i][1].basis for i in index]))
        check_orthonormal(comps)
        sums = slabgeom.framed_slab_sums(comps, [[fi.pieces for fi in pairs[i][0].factors] for i in index])
        for i, slab_sum in zip(index, sums):
            out[i] = slab_sum
    return out


def marginal_at(q: MarginalQuery) -> float:
    """pi_E(f)(x) by exact slab-arrangement integration.

    Factors whose frame vector vanishes contribute the constant f_i(x_i);
    the rest integrate exactly over the orthogonal blocks of the frame rows.
    Requires every irreducible block to span at most slabgeom.MAX_BLOCK
    dimensions (always true for n - k <= MAX_BLOCK); otherwise raises
    slabgeom.BlockTooWideError.
    """
    return _slab_sum(q.f, q.e).value(q.ambient_shifts())


def _axis_offsets(radius: float, step: float) -> np.ndarray:
    half_count = int(math.floor(radius / step + 1e-12))
    return step * np.arange(-half_count, half_count + 1, dtype=float)


def marginal_grid_sup(
    f: ProductDensity,
    e: Subspace,
    grid_radius: float,
    grid_step: float,
    tol: float = 1e-9,
) -> float:
    """Grid maximum of pi_E(f): a certified lower bound for its sup.

    The grid is centered at the image in E of the per-factor support
    midpoints, scanned at the given step, then refined locally (step halving
    around the running argmax) until the improvement drops below tol.  Every
    reported value is an exact marginal evaluation, so the result can only
    under-, never over-estimate the true supremum.  The one-element call of
    marginal_grid_sups.
    """
    return marginal_grid_sups([(f, e, grid_radius, grid_step, tol)])[0]


def _product_offsets(axis: np.ndarray, k: int) -> np.ndarray:
    """The points of axis^k, (len(axis)^k, k), in itertools.product order."""
    return np.stack(np.meshgrid(*[axis] * k, indexing="ij"), axis=-1).reshape(-1, k)


@functools.cache
def _stencil(k: int) -> np.ndarray:
    """The refinement stencil {-2, ..., 2}^k in itertools.product order,
    without its centre: the running best, whose value a scan would only
    repeat."""
    stencil = np.delete(_product_offsets(np.arange(-2.0, 3.0), k), (5**k - 1) // 2, axis=0)
    stencil.setflags(write=False)
    return stencil


def _scan_points(e: Subspace, origin: np.ndarray, offsets: np.ndarray):
    """(the points origin + offsets (P, k) of E, their ambient shifts); the
    stacked matmul gives each point the bits of e.basis @ x (xs @ e.basis.T
    does not)."""
    xs = origin + offsets
    return xs, np.matmul(e.basis, xs[:, :, None])[:, :, 0]


def marginal_grid_sups(problems) -> list[float]:
    """marginal_grid_sup(f, e, grid_radius, grid_step, tol) for each tuple of
    problems, with the same bits, run in lockstep.

    Consecutive problems form lockstep groups of at most slabgeom.LANE_CAP
    grid points (or one problem), so a long campaign never holds more of its
    points at once.  A group sets up its slab sums at once (_slab_sums).
    Each round of a group scans every problem that is still refining (first
    the grids, then the halved 5^k stencils around each running argmax,
    without their centre, the argmax itself) through one
    slabgeom.pooled_values call, so all their lanes share kernel calls.  Per
    problem: the first maximum of a scan wins, refinement stops once the
    gain drops below its tol (a stencil with no point above the running
    best gains at most 0), and there are at most 40 halvings.  Each slab sum
    takes its own scale (slabgeom.unit_scale).  A grid of more than
    _GRID_BUDGET points raises RouteLimitError before its group runs.
    """
    sups, group, points = [], [], 0
    for problem in problems:
        _, e, grid_radius, grid_step, tol = problem
        if grid_radius <= 0.0 or grid_step <= 0.0:
            raise ValueError("grid parameters must be positive")
        if not tol > 0.0:  # NaN fails too
            raise ValueError("tol must be positive")
        offs = _axis_offsets(grid_radius, grid_step)
        if offs.size**e.k > _GRID_BUDGET:
            raise RouteLimitError(
                f"grid budget exceeded: {offs.size}^{e.k} points (limit {_GRID_BUDGET})"
            )
        if group and points + offs.size**e.k > slabgeom.LANE_CAP:
            sups += _lockstep_grid_sups(group)
            group, points = [], 0
        group.append((problem, offs))
        points += offs.size**e.k
    if group:
        sups += _lockstep_grid_sups(group)
    return sups


def _lockstep_grid_sups(group) -> list:
    """The grid sups of the (problem, grid offsets) pairs of group, every
    round one pooled_values call."""
    pairs = [(f, e) for (f, e, _, _, _), _ in group]
    runs = [(slab_sum, e, e.basis.T @ f.support_midpoints())
            for slab_sum, (f, e) in zip(_slab_sums(pairs), pairs)]

    def scan(scans) -> list:
        # scans: (run index, origin, offsets); the first maximum wins, as
        # in a loop that keeps v > best
        points = [_scan_points(runs[i][1], origin, offsets) for i, origin, offsets in scans]
        values = slabgeom.pooled_values(
            [(runs[i][0], shifts) for (i, _, _), (_, shifts) in zip(scans, points)]
        )
        out = []
        for v, (xs, _) in zip(values, points):
            best = int(np.argmax(v))
            out.append((v[best], xs[best]))
        return out

    best = scan([(i, runs[i][2], _product_offsets(offs, runs[i][1].k)) for i, (_, offs) in enumerate(group)])
    steps = [grid_step for (_, _, _, grid_step, _), _ in group]
    refining = list(range(len(runs)))
    for _ in range(40):
        if not refining:
            break
        for i in refining:
            steps[i] *= 0.5
        refined = scan([(i, best[i][1], steps[i] * _stencil(runs[i][1].k)) for i in refining])
        still = []
        for i, (refined_v, refined_x) in zip(refining, refined):
            gain = refined_v - best[i][0]
            if refined_v > best[i][0]:
                best[i] = (refined_v, refined_x)
            if not gain < group[i][0][4]:
                still.append(i)
        refining = still
    return [v for v, _ in best]


_GRID_POINTS_PER_AXIS = {1: 33, 2: 15, 3: 9, 4: 5}


def default_grid(f: ProductDensity, e: Subspace) -> tuple[float, float]:
    """(radius, step) covering the projected support at a per-k budget."""
    radius = slabgeom.support_radius([fi.pieces for fi in f.factors])
    points = _GRID_POINTS_PER_AXIS.get(e.k, 5)
    return radius, 2.0 * radius / (points - 1)


def verify_main_theorems(cases, tol: float = 1e-4) -> list[dict]:
    """Compare the grid sup of pi_E(f) against the marginal product bound,
    for each (f, e) of cases, with the grid sups run in lockstep by
    marginal_grid_sups.

    One {sup_lower_bound, bound, branch, slack, pass} per case; pass iff
    sup_lower_bound <= bound * (1 + tol).
    """
    reports, problems = [], []
    for f, e in cases:
        report = bounds.bound_main(e, f.sup_norms())
        radius, step = default_grid(f, e)
        # the grid sup only needs to resolve the bound comparison: refining
        # it further can make the lower bound larger (safe direction) but
        # never flips a pass into a fail, so the refinement stop is relative
        # to the bound, which a dilation of f scales as it scales the sup
        reports.append(report)
        problems.append((f, e, radius, step, 1e-2 * tol * report.bound_value))
    records = []
    for report, sup_lb in zip(reports, marginal_grid_sups(problems)):
        sup_lb = float(sup_lb)
        records.append({
            "sup_lower_bound": sup_lb,
            "bound": report.bound_value,
            "branch": report.branch,
            "slack": report.bound_value - sup_lb,
            "pass": bool(sup_lb <= report.bound_value * (1.0 + tol)),
        })
    return records


def _rogozin_problem(f: ProductDensity, theta, tol: float):
    """(theta as an array, grid-sup problem) of rogozin_check."""
    if not f.in_class_f():
        raise ValueError("f must have normalized factors with sup norm <= 1")
    theta = np.asarray(theta, dtype=float)
    e = Subspace(theta)
    radius, step = default_grid(f, e)
    return theta, (f, e, radius, step, min(tol, 1e-9))


def rogozin_check(f: ProductDensity, theta, tol: float = 1e-4) -> tuple[float, float]:
    """(grid sup of the line marginal along theta, |Q_n cap theta-perp|).

    The one-dimensional marginal of any density in the normalized class is
    dominated by the central cube section; the caller asserts
    sup_lb <= cube_section * (1 + tol).
    """
    theta, problem = _rogozin_problem(f, theta, tol)
    return marginal_grid_sup(*problem), hyperplane_section_exact(unit_cube(theta.size), theta)


def rogozin_checks(cases, tol: float = 1e-4) -> list[tuple[float, float]]:
    """rogozin_check(f, theta, tol) for each (f, theta) of cases, with the
    grid sups run in lockstep by marginal_grid_sups."""
    prepared = [_rogozin_problem(f, theta, tol) for f, theta in cases]
    sups = marginal_grid_sups([problem for _, problem in prepared])
    thetas = np.array([theta for theta, _ in prepared])
    return list(zip(sups, hyperplane_section_exact(unit_cube(thetas.shape[1]), thetas).tolist()))


def small_ball_bound(n: int, k: int, eps: float) -> float:
    """(C sqrt(2 e pi) eps)^k with C^k the main bound's constant."""
    const, _ = bounds.main_constant(n, k)
    return const * (math.sqrt(2.0 * math.e * math.pi) * eps) ** k


def small_ball(
    f: ProductDensity,
    e: Subspace,
    z,
    eps: float,
    samples: int,
    seed: int,
    stream: int = 0,
) -> tuple[float, float, float]:
    """(estimate, std_error, bound) for P(|P_E X - z| <= eps sqrt(k)).

    X is sampled exactly from f by per-factor inverse transform; the closed-
    form bound follows from the marginal sup bound.  The estimate saturates
    at 1, so the comparison is vacuous once the bound exceeds 1.
    """
    if not eps > 0.0:  # NaN fails too
        raise ValueError("eps must be positive")
    from .average import MIN_SAMPLES  # average imports this module

    if samples < MIN_SAMPLES:
        raise ValueError(f"need samples >= {MIN_SAMPLES}")
    if not f.in_class_f():
        raise ValueError("f must have normalized factors with sup norm <= 1")
    z = np.asarray(z, dtype=float).reshape(-1)
    n, k = e.n, e.k
    if z.size != k:
        raise ValueError("z must have one coordinate per basis column of E")
    bound = small_ball_bound(n, k, eps)
    hits = 0
    r = eps * math.sqrt(k)
    for start in range(0, samples, randomness.MC_CHUNK):
        count = min(randomness.MC_CHUNK, samples - start)
        x = f.sample(seed, count, stream=stream, start=start)
        coords = x @ e.basis
        hits += int(np.sum(np.linalg.norm(coords - z[None, :], axis=1) <= r))
    p = hits / samples
    se = math.sqrt(max(p * (1.0 - p), 0.0) / samples)
    return p, se, bound
