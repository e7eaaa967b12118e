import itertools
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from slab_reference import polygon_area, scalar_slab_sum, slab_volume
from hypothesis import given, settings
from hypothesis import strategies as st

from margbounds import kernels, marginals, slabgeom
from margbounds.bounds import random_bl_system
from margbounds.densities import (
    ProductDensity,
    StepDensity,
    cube_density,
    random_product_density,
    uniform_density,
)
from margbounds.grassmann import Subspace, haar_sample, orthonormal_complement
from margbounds.marginals import (
    MarginalQuery,
    default_grid,
    marginal_at,
    marginal_grid_sup,
    marginal_grid_sups,
    rogozin_check,
    rogozin_checks,
    small_ball,
    small_ball_bound,
    verify_main_theorems,
)
from margbounds.sections import section_quadrature, sharp_paired_subspace, unit_cube


def _slab_sum(f, e):
    return slabgeom.SlabSum(orthonormal_complement(e).basis, [fi.pieces for fi in f.factors])


def _diag_subspace(n):
    return Subspace(np.ones(n) / math.sqrt(n))


def test_coordinate_marginal_of_cube():
    f = cube_density(4)
    e = Subspace.coordinate(4, [0, 1])
    assert marginal_at(MarginalQuery(f, e, [0.0, 0.0])) == pytest.approx(1.0, abs=1e-10)


def test_q2_diagonal_marginal():
    f = cube_density(2)
    got = marginal_at(MarginalQuery(f, _diag_subspace(2), [0.0]))
    assert got == pytest.approx(math.sqrt(2.0), abs=1e-8)


def test_shifted_coordinate_marginal():
    g = StepDensity([(0.0, 0.5, 2.0)])
    f = ProductDensity([g, g])
    e = Subspace.coordinate(2, [0])
    got = marginal_at(MarginalQuery(f, e, [0.25]))
    assert got == pytest.approx(2.0, abs=1e-10)


def test_zero_frame_row_zero_value():
    g = StepDensity([(0.0, 0.5, 2.0)])
    f = ProductDensity([g, g])
    e = Subspace.coordinate(2, [0])
    assert marginal_at(MarginalQuery(f, e, [-1.0])) == 0.0


def test_marginal_matches_section_for_cube():
    # Lemma: the cube marginal at 0 is the complement section volume
    for seed in range(10):
        n = 3 + seed % 2
        k = 1 + seed % 2
        e = haar_sample(n, k, seed=seed)
        f = cube_density(n)
        got = marginal_at(MarginalQuery(f, e, np.zeros(k)))
        want = section_quadrature(unit_cube(n), orthonormal_complement(e))
        assert got == pytest.approx(want, rel=1e-10)


def test_coordinate_marginal_normalization():
    # for coordinate E the marginal is the product of the kept factors, so
    # its integral is the product of their masses: exactly 1
    f = random_product_density(6, 4)
    e = Subspace.coordinate(4, [1, 2])
    total = 0.0
    for lo1, hi1, v1 in f.factors[1].pieces:
        for lo2, hi2, v2 in f.factors[2].pieces:
            x = [0.5 * (lo1 + hi1), 0.5 * (lo2 + hi2)]
            val = marginal_at(MarginalQuery(f, e, x))
            assert val == pytest.approx(v1 * v2, rel=1e-10)
            total += val * (hi1 - lo1) * (hi2 - lo2)
    assert total == pytest.approx(1.0, abs=1e-8)


def _marginal_mc(q, samples, seed):
    """SlabSum.mc of pi_E(f)(x), the Monte Carlo route of a marginal."""
    return marginals._slab_sum(q.f, q.e).mc(q.ambient_shifts(), samples, seed)


def test_marginal_mc_agrees_with_exact():
    rng = np.random.default_rng(5)
    misses = 0
    for trial in range(30):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(max(1, n - 3), n))
        f = random_product_density(trial, n)
        e = haar_sample(n, k, seed=trial)
        x = 0.1 * rng.normal(size=k) + e.basis.T @ f.support_midpoints()
        q = MarginalQuery(f, e, x)
        exact = marginal_at(q)
        est, se = _marginal_mc(q, 60000, seed=trial)
        if abs(est - exact) > 3.0 * se + 1e-12:
            misses += 1
    assert misses <= 1  # 3-sigma criterion: rare misses allowed


def test_marginal_mc_deterministic():
    f = cube_density(3)
    e = haar_sample(3, 1, seed=1)
    q = MarginalQuery(f, e, [0.0])
    assert _marginal_mc(q, 5000, seed=2) == _marginal_mc(q, 5000, seed=2)


def test_marginal_mc_se_scaling():
    f = random_product_density(8, 3)
    e = haar_sample(3, 1, seed=8)
    q = MarginalQuery(f, e, [0.0])
    _, se1 = _marginal_mc(q, 20000, seed=3)
    _, se2 = _marginal_mc(q, 80000, seed=3)
    assert se2 == pytest.approx(se1 / 2.0, rel=0.2)


def test_grid_sup_q2_diagonal():
    f = cube_density(2)
    e = _diag_subspace(2)
    radius, step = default_grid(f, e)
    got = marginal_grid_sup(f, e, radius, step)
    assert math.sqrt(2.0) - 1e-6 <= got <= math.sqrt(2.0) + 1e-9


def test_grid_sup_translation_covariance():
    u = uniform_density(5.0, 6.0)
    f = ProductDensity([u, u])
    e = _diag_subspace(2)
    radius, step = default_grid(f, e)
    got = marginal_grid_sup(f, e, radius, step)
    assert got == pytest.approx(math.sqrt(2.0), abs=1e-6)


def test_grid_sup_coordinate_subspace():
    f = random_product_density(11, 3)
    e = Subspace.coordinate(3, [0, 1])
    radius, step = default_grid(f, e)
    got = marginal_grid_sup(f, e, radius, step)
    want = f.factors[0].sup_norm() * f.factors[1].sup_norm()
    assert got == pytest.approx(want, rel=1e-6)


def test_grid_budget_guard():
    f = cube_density(4)
    e = haar_sample(4, 4, seed=0)
    with pytest.raises(ValueError):
        marginal_grid_sup(f, e, 1.0, 1e-4)


def test_nan_tolerances_are_rejected():
    f = cube_density(2)
    e = _diag_subspace(2)
    with pytest.raises(ValueError, match="tol must be positive"):
        marginal_grid_sup(f, e, 0.5, 0.1, tol=math.nan)
    with pytest.raises(ValueError, match="eps must be positive"):
        small_ball(f, e, [0.0], math.nan, 1000, seed=0)


def test_verify_main_theorem_sharp():
    [rec] = verify_main_theorems([(cube_density(2), _diag_subspace(2))])
    assert rec["pass"]
    assert rec["slack"] == pytest.approx(0.0, abs=1e-6)


def test_verify_main_theorem_random():
    cases = []
    for trial in range(25):
        n = 3 + trial % 2
        k = trial % (n - 1) + 1
        cases.append((random_product_density(trial, n), haar_sample(n, k, seed=trial + 100)))
    for rec in verify_main_theorems(cases, tol=1e-4):
        assert rec["pass"], rec


def test_rogozin_cube_sections_drop_zero_coordinates():
    # one call for the chunk's directions, whatever their zero patterns: a
    # facet, the 2-D section with normal (0.6, 0.8), and a Haar direction
    thetas = [np.array([1.0, 0.0, 0.0]), np.array([0.6, 0.8, 0.0]), np.array([0.0, 0.6, 0.8]),
              haar_sample(3, 1, seed=5).basis[:, 0]]
    f = cube_density(3)
    got = [cs for _, cs in rogozin_checks([(f, theta) for theta in thetas])]
    assert got == [rogozin_check(f, theta)[1] for theta in thetas]
    assert got[0] == 1.0
    assert got[1] == pytest.approx(1.0 / 0.8, rel=1e-15)
    assert got[2] == got[1]


def test_rogozin_equality_cube_diagonal():
    for n in (2, 3, 4):
        f = cube_density(n)
        theta = np.ones(n) / math.sqrt(n)
        sup_lb, cs = rogozin_check(f, theta)
        assert sup_lb == pytest.approx(cs, abs=1e-6)


def test_rogozin_coordinate_direction():
    f = ProductDensity([uniform_density(0.0, 1.0)] * 3)
    sup_lb, cs = rogozin_check(f, np.array([1.0, 0.0, 0.0]))
    assert sup_lb == pytest.approx(1.0, abs=1e-9)
    assert cs == pytest.approx(1.0)


def test_rogozin_rejects_out_of_class():
    f = ProductDensity([StepDensity([(0.0, 0.5, 2.0)])] * 2)  # sup norm 2
    with pytest.raises(ValueError):
        rogozin_check(f, np.array([1.0, 0.0]))


def test_small_ball_uniform_coordinate():
    f = cube_density(3)
    e = Subspace.coordinate(3, [0])
    eps = 0.1
    est, se, bound = small_ball(f, e, [0.0], eps, 100000, seed=4)
    assert est == pytest.approx(2.0 * eps, abs=3.0 * se)
    assert bound == pytest.approx(math.sqrt(2.0) * math.sqrt(2.0 * math.e * math.pi) * eps)
    assert est <= bound + 3.0 * se


def test_small_ball_saturation():
    f = cube_density(2)
    e = Subspace.coordinate(2, [0])
    est, se, bound = small_ball(f, e, [0.0], 10.0, 2000, seed=5)
    assert est == 1.0
    assert bound > 1.0


def test_small_ball_bound_formula():
    assert small_ball_bound(4, 2, 0.1) == pytest.approx(
        2.0 * (math.sqrt(2.0 * math.e * math.pi) * 0.1) ** 2
    )


# -- the slab sum against the per-point loop -----------------------------------


def _reference_marginal_at(q):
    """The per-point scalar reference: complement, zero rows and blocks
    recomputed, and every piece combination through the scalar kernel."""
    e = q.e
    shifts = q.ambient_shifts()
    if e.k == e.n:
        return math.prod(slabgeom.step_value(f.pieces, s) for f, s in zip(q.f.factors, shifts))
    return scalar_slab_sum(orthonormal_complement(e).basis, [fi.pieces for fi in q.f.factors], shifts)


def _reference_grid_sup(f, e, grid_radius, grid_step, tol):
    """marginal_grid_sup's scan and refinement with one full evaluation per point."""
    k = e.k
    half = int(math.floor(grid_radius / grid_step + 1e-12))
    offs = grid_step * np.arange(-half, half + 1, dtype=float)

    def scan(origin, offsets):
        best_v, best_x = -1.0, origin
        for combo in itertools.product(offsets, repeat=k):
            x = origin + np.array(combo)
            v = _reference_marginal_at(MarginalQuery(f, e, x))
            if v > best_v:
                best_v, best_x = v, x
        return best_v, best_x

    best_v, best_x = scan(e.basis.T @ f.support_midpoints(), offs)
    step = grid_step
    for _ in range(40):
        step *= 0.5
        refined_v, refined_x = scan(best_x, step * np.arange(-2.0, 3.0))
        gain = refined_v - best_v
        if refined_v > best_v:
            best_v, best_x = refined_v, refined_x
        if gain < tol:
            break
    return best_v


@pytest.mark.parametrize("n,k,seed", [(3, 2, 1), (4, 3, 2), (4, 2, 3), (5, 3, 4),
                                      (4, 1, 5), (5, 2, 6), (5, 4, 7), (4, 3, 8)])
def test_plan_matches_per_point_loop_exactly(n, k, seed):
    # codimension n - k in {1, 2, 3}: 1-D, 2-D and 3-D blocks
    f = random_product_density(seed, n, 2)
    e = haar_sample(n, k, seed=seed + 40)
    radius, step = default_grid(f, e)
    assert marginal_grid_sup(f, e, radius, step, 1e-6) == _reference_grid_sup(
        f, e, radius, step, 1e-6
    )
    rng = np.random.default_rng(seed)
    center = e.basis.T @ f.support_midpoints()
    points = [np.zeros(k), center] + [center + 0.5 * rng.normal(size=k) for _ in range(4)]
    batched = _slab_sum(f, e).values(np.array([e.basis @ x for x in points]))
    for x, value in zip(points, batched):
        q = MarginalQuery(f, e, x)
        want = _reference_marginal_at(q)
        assert marginal_at(q) == want
        assert value == want


@pytest.mark.parametrize("n,k,seed", [(3, 2, 1), (4, 2, 3), (4, 1, 5), (5, 2, 6)])
def test_grid_sup_does_not_depend_on_lane_cap(n, k, seed, monkeypatch):
    # 1-D, 2-D and 3-D blocks, with several kernel calls per scan
    f = random_product_density(seed, n, 3)
    e = haar_sample(n, k, seed=seed + 40)
    radius, step = default_grid(f, e)
    whole = marginal_grid_sup(f, e, radius, step, 1e-6)
    monkeypatch.setattr(slabgeom, "LANE_CAP", 50)
    monkeypatch.setattr(kernels, "_POLYTOPE_LANES", 16)
    assert marginal_grid_sup(f, e, radius, step, 1e-6) == whole


@pytest.mark.parametrize("k,center", [(1, 2), (2, 12)])
def test_grid_scan_keeps_the_first_maximum(k, center, monkeypatch):
    # every value ties: the refinement scan centers on the first grid point,
    # and holds the halved stencil around it without its centre (the point
    # itself), in itertools.product order
    scans = []

    def flat(pairs):
        ((_, shifts),) = pairs
        scans.append(shifts)
        return [np.ones(len(shifts))]

    monkeypatch.setattr(slabgeom, "pooled_values", flat)
    f = cube_density(3)
    e = haar_sample(3, k, seed=1)
    radius, step = default_grid(f, e)
    assert marginal_grid_sup(f, e, radius, step) == 1.0
    assert len(scans) == 2
    first = e.basis.T @ f.support_midpoints() + marginals._axis_offsets(radius, step)[0]
    assert np.array_equal(scans[0][0], e.basis @ first)
    stencil = np.array(list(itertools.product(0.5 * step * np.arange(-2.0, 3.0), repeat=k)))
    assert not stencil[center].any()
    points = first + np.delete(stencil, center, axis=0)
    assert np.array_equal(scans[1], np.matmul(e.basis, points[:, :, None])[:, :, 0])


def _mixed_batch():
    """Grid-sup problems whose slab sums differ in block structure."""
    problems = []

    def add(f, e, tol):
        radius, step = default_grid(f, e)
        problems.append((f, e, radius, step, tol))

    # zero rows and three 1-D blocks
    add(random_product_density(21, 5, 2), Subspace(np.eye(5)[:, :2]), 1e-6)
    # parallel rows
    add(random_product_density(22, 4, 2), sharp_paired_subspace(4, 2), 1e-9)
    # one 1-D, 2-D and 3-D block
    add(random_product_density(23, 3, 2), haar_sample(3, 2, seed=61), 1e-6)
    add(random_product_density(24, 4, 2), haar_sample(4, 2, seed=62), 1e-9)
    add(random_product_density(25, 4, 2), haar_sample(4, 1, seed=63), 1e-6)
    # the line marginal of rogozin --n 1: no blocks at all
    add(random_product_density(26, 1, 3), Subspace(np.array([1.0])), 1e-9)
    return problems


_SMALL_CHUNKS = {"_POLYTOPE_LANES": 16}


@pytest.mark.parametrize("shrink", [{}, _SMALL_CHUNKS, {**_SMALL_CHUNKS, "LANE_CAP": 50}])
def test_pooled_grid_sups_match_the_per_trial_reference(shrink, monkeypatch):
    # small polytope chunks split the 3-D kernel calls; a small LANE_CAP
    # also splits every round into more kernel calls and the batch into
    # lockstep groups
    problems = _mixed_batch()
    want = [_reference_grid_sup(*p) for p in problems]
    for name, size in shrink.items():
        monkeypatch.setattr(kernels if name == "_POLYTOPE_LANES" else slabgeom, name, size)
    # every contiguous split of the batch runs its parts as these sub-batches
    for i in range(len(problems)):
        for j in range(i + 1, len(problems) + 1):
            assert marginal_grid_sups(problems[i:j]) == want[i:j]


def _spy_pools(monkeypatch):
    """Record each _pool_shape call, one per round and kernel shape, with its
    distinct blocks (held, so their ids stay distinct) and its entries' lane
    counts, and the frames each kernel table builder gets, per dimension."""
    pools, builds = [], {1: 0, 2: 0, 3: 0}
    pool_shape = slabgeom._pool_shape

    def spy(entries):
        blocks = list({id(entry[0]): entry[0] for entry in entries}.values())
        lanes = [len(shifts) * len(block.weights) for block, shifts, _, _ in entries]
        pools.append(SimpleNamespace(blocks=blocks, lanes=lanes, tested=[], events=[]))
        return pool_shape(entries)

    monkeypatch.setattr(slabgeom, "_pool_shape", spy)
    for d, name in ((1, "interval_tables"), (2, "polygon_tables"), (3, "polytope_tables")):
        def build(frames, d=d, original=getattr(kernels, name)):
            builds[d] += len(frames)
            return original(frames)

        monkeypatch.setattr(kernels, name, build)
    return pools, builds


def _verify_chunk():
    """One verify --n 4 --k 1 --trials 2 chunk: 3-D blocks."""
    from margbounds import cli

    return cli._verify_trials((3, 4, 1, 1e-4, 1.0, 1.0, range(2)))


@pytest.mark.parametrize("run", [lambda: marginal_grid_sups(_mixed_batch()), _verify_chunk])
def test_kernel_tables_are_built_once_per_block(run, monkeypatch):
    pools, builds = _spy_pools(monkeypatch)
    run()
    blocks = {id(block): block for pool in pools for block in pool.blocks}.values()
    for d in (1, 2, 3):
        assert builds[d] == sum(block.local.shape[1] == d for block in blocks)
    # not vacuous: blocks run in several rounds
    assert sum(len(pool.blocks) for pool in pools) > len(blocks) > 1


@pytest.mark.parametrize("command,sup", [("verify", (1.0, 1.0)), ("verify", (0.5, 1.5)),
                                         ("rogozin", (1.0, 1.0))])
def test_a_chunk_sets_up_its_trials_once(command, sup, monkeypatch):
    # one small chunk (trials 2-4; verify --n 4 --k 2 or rogozin --n 4): one
    # uniforms call draws every factor (one more its sup norms), no frame
    # that single_block_frames accepts goes through component_blocks, and
    # no refinement scan holds its running best
    from margbounds import cli, randomness

    draws, rejected, split, best = [], [], [], {}
    uniforms, single, blocks = randomness.uniforms, slabgeom.single_block_frames, slabgeom.component_blocks
    pooled = slabgeom.pooled_values

    def spy_uniforms(seed, stream, start, count):
        draws.append(set((np.atleast_1d(stream).astype(np.uint64) % np.uint64(1024)).tolist()))
        return uniforms(seed, stream, start, count)

    def spy_single(frames):
        ok = single(frames)
        rejected.extend(frame.tobytes() for frame in frames[~ok])
        return ok

    def spy_blocks(w):
        split.append(w.tobytes())
        return blocks(w)

    def spy_pooled(pairs):
        values = pooled(pairs)
        for (slab_sum, shifts), v in zip(pairs, values):
            if id(slab_sum) in best:
                assert not any(row.tobytes() == best[id(slab_sum)][1] for row in shifts)
            i = int(np.argmax(v))
            if id(slab_sum) not in best or v[i] > best[id(slab_sum)][0]:
                best[id(slab_sum)] = (v[i], shifts[i].tobytes())
        return values

    monkeypatch.setattr(randomness, "uniforms", spy_uniforms)
    monkeypatch.setattr(slabgeom, "single_block_frames", spy_single)
    monkeypatch.setattr(slabgeom, "component_blocks", spy_blocks)
    monkeypatch.setattr(slabgeom, "pooled_values", spy_pooled)
    if command == "verify":
        records = cli._verify_trials((5, 4, 2, 1e-4, *sup, range(2, 5)))
    else:
        records = cli._rogozin_trials((5, 4, 1e-4, range(2, 5)))
    assert [r["trial"] for r in records] == [2, 3, 4]
    assert sum(streams == {1, 2, 3, 4} for streams in draws) == 1
    assert sum(streams == {512} for streams in draws) == (sup != (1.0, 1.0))
    assert set(split) <= set(rejected)
    assert len(best) == 3


def _batch_lanes(lanes, cap):
    """The lane counts of the kernel calls of a pool whose entries hold lanes
    lanes: consecutive entries of at most cap lanes together, or one entry
    alone, cut into calls of cap lanes; a batch of no lanes makes no call."""
    calls, batch = [], 0
    for count in lanes:
        if batch + count > cap:
            calls += [batch] if batch else []
            batch = 0
        if count > cap:
            calls += [cap] * (count // cap) + ([count % cap] if count % cap else [])
        else:
            batch += count
    return calls + ([batch] if batch else [])


@pytest.mark.parametrize("run", [lambda: marginal_grid_sups(_mixed_batch()), _verify_chunk])
def test_pools_run_only_live_lanes(run, monkeypatch):
    # a small LANE_CAP splits rounds into several batches: each makes one
    # seed-cell test of at most LANE_CAP lanes, then one kernel call on
    # exactly the lanes it passed, in order (none if it passed none)
    monkeypatch.setattr(slabgeom, "LANE_CAP", 200)
    pools, _ = _spy_pools(monkeypatch)
    seed_cells, live_volumes = kernels.seed_cells, kernels.live_volumes

    def cells(tables, frame, lo, hi):
        live, lanes = seed_cells(tables, frame, lo, hi)
        pools[-1].tested.append(len(frame))
        pools[-1].events.append(("passed", (frame[live],) + lanes))
        return live, lanes

    def volumes(tables, frame, lanes):
        pools[-1].events.append(("ran", (frame,) + lanes))
        return live_volumes(tables, frame, lanes)

    monkeypatch.setattr(kernels, "seed_cells", cells)
    monkeypatch.setattr(kernels, "live_volumes", volumes)
    run()
    for pool in pools:
        assert pool.tested == _batch_lanes(pool.lanes, 200)
        want = []
        for kind, lanes in pool.events:
            if kind == "passed":
                want += [("passed", lanes)] + ([("ran", lanes)] if len(lanes[0]) else [])
        assert [kind for kind, _ in pool.events] == [kind for kind, _ in want]
        for (_, got), (_, lanes) in zip(pool.events, want):
            assert [a.tobytes() for a in got] == [a.tobytes() for a in lanes]
    assert any(len(pool.tested) > 1 for pool in pools)
    passed = sum(len(lanes[0]) for pool in pools for kind, lanes in pool.events if kind == "passed")
    assert passed < sum(sum(pool.tested) for pool in pools)


def test_lockstep_groups_hold_at_most_lane_cap_grid_points(monkeypatch):
    # grids of 225, 225, 225, 225, 33 and 33 points against a cap of 300
    problems = _mixed_batch()
    groups = []
    lockstep = marginals._lockstep_grid_sups

    def spy(group):
        groups.append([problem for problem, _ in group])
        return lockstep(group)

    monkeypatch.setattr(marginals, "_lockstep_grid_sups", spy)
    monkeypatch.setattr(slabgeom, "LANE_CAP", 300)
    marginal_grid_sups(problems)
    assert [len(group) for group in groups] == [1, 1, 1, 3]
    assert all(a is b for a, b in zip([p for group in groups for p in group], problems))


def _block_lanes(block, shifts, rows):
    """The (point, combination) lanes of block at the points shifts (P, n),
    point major, as pooled_values builds them: their bounds lo, hi (L, m)."""
    s = shifts[:, rows]
    lo = (block.lo - s[:, None]).reshape(-1, rows.size)
    hi = (block.hi - s[:, None]).reshape(-1, rows.size)
    return lo, hi


def _dropped_lanes(local, lo, hi):
    """The lanes of one 2-D frame local that kernels.seed_cells drops
    before the kernel runs."""
    live, _ = kernels.seed_cells(kernels.frame_tables(local[None]), np.zeros(len(lo), dtype=np.intp), lo, hi)
    return np.setdiff1d(np.arange(len(lo)), live)


def test_polygon_areas_drop_lanes_off_center():
    # not vacuous: away from the support center most seed cells miss a slab
    f = random_product_density(3, 4, 3)
    e = haar_sample(4, 2, seed=3)
    x = e.basis.T @ f.support_midpoints() + np.array([[0.2], [0.6], [0.8]])
    ((rows, block),) = _slab_sum(f, e).blocks
    lo, hi = _block_lanes(block, x @ e.basis.T, rows)
    dropped = _dropped_lanes(block.local, lo, hi)
    assert 0 < len(dropped) < len(lo)
    tables = kernels.frame_tables(block.local[None])
    assert not kernels.table_volumes(tables, np.zeros(len(lo), dtype=np.intp), lo, hi)[dropped].any()


def _tilted_paired_subspace(n, k, seed, tilt):
    """sharp_paired_subspace(n, k) turned by a small random rotation: its
    complement rows come in nearly parallel pairs, so they form one block
    with an ill-conditioned seed matrix."""
    rng = np.random.default_rng(seed)
    basis = sharp_paired_subspace(n, k).basis + tilt * rng.normal(size=(n, k))
    return Subspace(np.linalg.qr(basis)[0])


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 10_000),
    st.sampled_from([("haar", 3, 1), ("haar", 4, 2), ("haar", 5, 2), ("haar", 4, 1), ("haar", 5, 3),
                     ("paired", 4, 2), ("paired", 5, 2), ("paired", 6, 3)]),
    st.sampled_from([1e-3, 0.05]),
    st.sampled_from([0.05, 0.4, 1.5]),
)
def test_kernels_drop_only_lanes_they_would_give_zero(seed, case, tilt, spread):
    # 2-D and 3-D blocks, some with ill-conditioned seed matrices, at shifts
    # near and far from the support center: a lane that the 2-D seed-cell
    # test drops is one the scalar reference gives exactly 0.0,
    # and the lane kernels, which drop lanes first, keep its bits
    kind, n, k = case
    f = random_product_density(seed, n, 3)
    if kind == "haar":
        e = haar_sample(n, k, seed=seed)
    else:
        e = _tilted_paired_subspace(n, k, seed, tilt)
    rng = np.random.default_rng(seed)
    center = e.basis.T @ f.support_midpoints()
    shifts = (center + spread * rng.normal(size=(5, k))) @ e.basis.T
    tested = 0
    for rows, block in _slab_sum(f, e).blocks:
        if block.local.shape[1] < 2:
            continue
        lo, hi = _block_lanes(block, shifts, rows)
        if block.local.shape[1] == 2:
            for lane in _dropped_lanes(block.local, lo, hi):
                assert polygon_area(block.local, lo[lane], hi[lane]) == 0.0
        tables = kernels.frame_tables(block.local[None])
        got = kernels.table_volumes(tables, np.zeros(len(lo), dtype=np.intp), lo, hi)
        assert np.array_equal(got, [slab_volume(block.local, l, h) for l, h in zip(lo, hi)])
        tested += 1
    assert tested


def _bl_guard_slab_sum():
    """bl-check's slab sum at its route guard: d = 3, m = 10 rows and three
    nonzero pieces per row, so one 3-D block of 3^10 piece combinations."""
    system = random_bl_system(3, 3, 10)
    sqc = np.sqrt(system.weights)
    pieces = [[(-1.0 - 0.05 * i, -0.3, 0.5), (-0.3, 0.4 + 0.02 * i, 1.0),
               (0.4 + 0.02 * i, 1.1, 0.25 + 0.05 * i)] for i in range(10)]
    pieces = [[(lo * s, hi * s, v**c) for lo, hi, v in row]
              for row, s, c in zip(pieces, sqc, system.weights)]
    return slabgeom.SlabSum(system.directions * sqc[:, None], pieces)


def test_bl_guard_slab_sum_keeps_its_bits_and_memory():
    slab_sum = _bl_guard_slab_sum()
    [(rows, block)] = slab_sum.blocks
    assert block.local.shape == (10, 3) and len(block.weights) == 3**10
    tracemalloc.start()
    try:
        value = slab_sum.value(np.zeros(10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the lanes' bounds, 2 x 4.5 MiB, and the seed-cell test's arrays for one
    # kernel call of LANE_CAP lanes: 20.9 MiB measured
    assert peak < 24 * 2**20
    # the value's bits (re-pinned for the edge sum on the 3-D lanes' nine-row
    # facets: the exact sum over the 5,334 lanes that pass the seed-cell test
    # by rational vertex enumeration is 2.5772580870113675, 9.7e-16 above
    # this value; the clip's 0x1.49e397ce885d3p+1 was 5.2e-16 below)
    assert value.hex() == "0x1.49e397ce885d2p+1"


def test_lockstep_slab_sums_keep_the_one_lane_bits():
    # one complement_bases call per shape, for subspaces of mixed shapes in
    # any order
    pairs = [(random_product_density(s, n, 2), haar_sample(n, k, seed=7, stream=s)) for s, (n, k) in
             enumerate([(4, 2), (3, 1), (4, 2), (5, 3), (3, 1), (4, 2), (1, 1)])]
    for got, (f, e) in zip(marginals._slab_sums(pairs), pairs, strict=True):
        assert got.rows.tobytes() == orthonormal_complement(e).basis.tobytes()
        assert got.pieces == [fi.pieces for fi in f.factors]
    with pytest.raises(ValueError, match="different dimensions"):
        marginals._slab_sums([(random_product_density(1, 3, 2), haar_sample(4, 2, seed=1))])
