import itertools
import math
import tracemalloc

import numpy as np
import pytest
from exact_slab_volume import exact_slab_volume
from hypothesis import given, settings
from hypothesis import strategies as st
from slab_reference import scalar_slab_sum

from margbounds import bounds, kernels, slabgeom
from margbounds.densities import ProductDensity, random_product_density
from margbounds.grassmann import Subspace, complement_bases, haar_bases, haar_sample, orthonormal_complement
from margbounds.marginals import MarginalQuery, marginal_at
from margbounds.quadrature import RouteLimitError
from margbounds.sections import (
    Box,
    box_pieces,
    section_mc,
    section_quadrature,
    sharp_paired_subspace,
    unit_cube,
)
from margbounds.slabgeom import (
    BlockTooWideError,
    SlabSum,
    component_blocks,
    nonzero_combinations,
    piece_combinations,
    row_components,
    shared_block_integrals,
    single_block_frames,
    span_coordinates,
)


def test_row_components_orthogonal_split():
    w = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
    comps = row_components(w)
    assert [list(c) for c in comps] == [[0], [1, 2]]


def test_row_components_linked_chain():
    w = np.array([[1.0, 0.1, 0.0], [0.1, 1.0, 0.1], [0.0, 0.1, 1.0]])
    comps = row_components(w)
    assert len(comps) == 1


def test_component_blocks_span_coordinates():
    w = np.array([[0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
    blocks = component_blocks(w)
    assert len(blocks) == 1
    comp, local = blocks[0]
    assert local.shape == (2, 2)  # re-expressed in the 2-D span
    g1 = w @ w.T
    g2 = local @ local.T
    assert np.allclose(g1, g2, atol=1e-12)


def test_component_blocks_guard():
    w = np.linalg.qr(np.random.default_rng(0).normal(size=(4, 4)))[0]
    w = w + 0.01  # break orthogonality so rows link into one 4-D block
    with pytest.raises(BlockTooWideError):
        component_blocks(w)
    assert issubclass(BlockTooWideError, ValueError)


def test_split_whose_ranks_exceed_the_rank_of_all_rows_is_one_block():
    # 1e-11 off the paired subspace, rows 0 and 1 of the complement frame are
    # 1e-11 from parallel and link to row 2 by an inner product below
    # row_components' tolerance; split, the blocks' ranks would add up to 4
    # in a 3-D span, and the section would be about 1e11
    exact = orthonormal_complement(sharp_paired_subspace(4, 1)).basis
    assert [list(comp) for comp, _ in component_blocks(exact)] == [[0, 1], [2], [3]]
    basis = sharp_paired_subspace(4, 1).basis + 1e-11 * np.array([[0.0], [0.0], [1.0], [0.0]])
    h = orthonormal_complement(Subspace(basis / np.linalg.norm(basis)))
    assert len(row_components(h.basis)) == 3
    [(comp, local)] = component_blocks(h.basis)
    assert list(comp) == [0, 1, 2, 3] and local.shape == (4, 3)
    assert section_quadrature(unit_cube(4), h) == pytest.approx(np.sqrt(2.0), rel=1e-10)


def test_decomposed_volume_product_structure():
    # two orthogonal 1-D constraints: the blocks' lengths multiply, in
    # section_quadrature's slab sum as in SlabSum.value
    w = np.array([[1.0, 0.0], [0.0, 2.0]])
    lo = np.array([-1.0, -1.0])
    hi = np.array([1.0, 1.0])
    slab_sum = SlabSum(w, [[(l, u, 1.0)] for l, u in zip(lo, hi)])
    assert len(slab_sum.blocks) == 2
    assert slab_sum.value(np.zeros(2)) == pytest.approx(2.0 * 1.0)
    # the same slabs as a section of the box [-1, 1] x [-1/2, 1/2]
    assert section_quadrature(Box([2.0, 1.0]), Subspace(np.eye(2))) == pytest.approx(2.0 * 1.0)


def test_decomposed_volume_empty_block_short_circuits(monkeypatch):
    # two parallel constraints with disjoint ranges: an empty first block
    # makes the value exactly 0.0, and the second block's kernel never runs
    w = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    lo = np.array([2.0, -1.0, -1.0])
    hi = np.array([3.0, 1.0, 1.0])
    slab_sum = SlabSum(w, [[(l, u, 1.0)] for l, u in zip(lo, hi)])
    assert [list(rows) for rows, _ in slab_sum.blocks] == [[0, 1], [2]]
    calls = []
    kernel = kernels.live_volumes

    def spy(tables, frame, lanes):
        calls.append(len(frame))
        return kernel(tables, frame, lanes)

    monkeypatch.setattr(kernels, "live_volumes", spy)
    assert slab_sum.value(np.zeros(3)) == 0.0
    assert calls == [1]
    # the same first block at two points: the second block runs only at the
    # point where the first is not empty
    calls.clear()
    shifts = np.array([[0.0, 0.0, 0.0], [2.5, 0.0, 0.0]])
    got = slab_sum.values(shifts)
    assert got[0] == 0.0 and got[1] == pytest.approx(2.0)
    assert calls == [2, 1]


def test_piece_combinations_product_order():
    a = [(0.0, 1.0, 2.0), (1.0, 2.0, 3.0)]
    b = [(-1.0, 0.0, 5.0)]
    c = [(0.0, 0.5, 7.0), (0.5, 1.0, 11.0)]
    lo, hi, weights = piece_combinations([a, b, c])
    # the last row's piece changes fastest
    assert lo.tolist() == [[0.0, -1.0, 0.0], [0.0, -1.0, 0.5], [1.0, -1.0, 0.0], [1.0, -1.0, 0.5]]
    assert hi.tolist() == [[1.0, 0.0, 0.5], [1.0, 0.0, 1.0], [2.0, 0.0, 0.5], [2.0, 0.0, 1.0]]
    assert weights.tolist() == [70.0, 110.0, 105.0, 165.0]


@pytest.mark.parametrize("n,d", [(3, 2), (4, 2), (6, 2), (4, 3), (6, 3)])
def test_single_block_frames_match_component_blocks(n, d):
    # a frame that spans R^d in one block is its own local frame: no SVD
    # rotates it, here or in component_blocks
    frames = complement_bases(haar_bases(n, n - d, 4, np.arange(200)))
    ok = single_block_frames(frames)
    assert ok.all()
    for w in frames:
        [(comp, block)] = component_blocks(w)
        assert list(comp) == list(range(n))
        assert block is w


@pytest.mark.parametrize("n,k", [(4, 2), (4, 1), (5, 2), (6, 3)])
def test_single_block_frames_match_component_blocks_near_paired_subspaces(n, k):
    # complement frames 1e-13..1e-8 off a paired subspace: their rows split
    # into components whose span ranks add up (a split) or do not (one block
    # of all rows), and ok is exactly the one-block case
    rng = np.random.default_rng(n + k)
    tilts = 10.0 ** rng.uniform(-13.0, -8.0, size=(300, 1, 1))
    bases = np.linalg.qr(sharp_paired_subspace(n, k).basis + tilts * rng.normal(size=(300, n, k)))[0]
    frames = complement_bases(bases)
    ok = single_block_frames(frames)
    for w, one in zip(frames, ok):
        blocks = component_blocks(w)
        assert one == (len(blocks) == 1 and blocks[0][1] is w)
    split = np.array([len(row_components(w)) > 1 for w in frames])
    assert (ok & split).any() and (~ok & split).any()


def test_single_block_frames_reject_zero_rows_splits_and_low_rank():
    coordinate = Subspace.coordinate(4, [0, 1]).basis  # rows 2 and 3 vanish
    paired = sharp_paired_subspace(4, 2).basis  # two orthogonal 1-D blocks
    flat = np.array([[1.0, 0.0], [2.0, 0.0], [0.5, 0.0], [1.0, 0.0]])  # one block of rank 1
    haar = haar_bases(4, 2, 1, np.arange(1))[0]
    # full rank and one component, but its columns are 1e-9 from orthonormal
    skew = haar * [1.0 + 1e-9, 1.0]
    ok = single_block_frames(np.stack([coordinate, paired, flat, haar, skew]))
    assert ok.tolist() == [False, False, False, True, False]
    assert len(row_components(paired)) == 2
    assert len(row_components(flat)) == 1 and span_coordinates(flat).shape == (4, 1)
    [(_, local)] = component_blocks(flat)
    assert local.shape == (4, 1)
    [(_, local)] = component_blocks(skew)
    assert local is skew


def _one_block(local):
    return [(np.arange(len(local)), local)]


@pytest.mark.parametrize("n", [3, 4])
def test_block_integrals_match_the_scalar_reference(n):
    f = random_product_density(n, n, 3)
    pieces = [fi.pieces for fi in f.factors]
    lo, hi, weights = nonzero_combinations(pieces)
    local = complement_bases(haar_bases(n, n - 2, 2, np.arange(50)))
    assert single_block_frames(local).all()
    [got] = shared_block_integrals(local, [(lo, hi, weights)])
    want = [scalar_slab_sum(loc, pieces, np.zeros(n), _one_block(loc)) for loc in local]
    assert np.array_equal(got, want)
    assert np.count_nonzero(got) > 40


def test_shared_block_integrals_match_one_call_per_integrand():
    # two densities with different combination counts on the same frames,
    # and per-frame shifted bounds: pooling the lanes keeps every bit
    n = 4
    local = complement_bases(haar_bases(n, 2, 3, np.arange(40)))
    assert single_block_frames(local).all()
    pieces = [[fi.pieces for fi in random_product_density(seed, n, 3).factors] for seed in (5, 6)]
    bounds = [nonzero_combinations(p) for p in pieces]
    assert len(bounds[0][2]) != len(bounds[1][2])
    lo, hi, weights = bounds[0]
    shifts = 0.05 * np.random.default_rng(0).standard_normal((40, 1, n))
    bounds.append((lo - shifts, hi - shifts, weights))
    pieces.append(pieces[0])
    got = shared_block_integrals(local, bounds)
    frame_shifts = [np.zeros((40, n))] * 2 + [shifts[:, 0]]
    for row, p, s in zip(got, pieces, frame_shifts):
        want = [scalar_slab_sum(loc, p, s_l, _one_block(loc)) for loc, s_l in zip(local, s)]
        assert np.array_equal(row, want)
        assert np.count_nonzero(row) > 30


@pytest.mark.parametrize("n,k,complement", [(5, 2, True), (5, 3, False)])
def test_unrotated_3d_single_blocks_match_the_exact_oracle(n, k, complement):
    # 3-D single blocks run in their frame's own coordinates: a box's
    # sections are within the kernels' 1e-13 relative bound (of the volume,
    # or of 1 below it) of the exact volume of the float system
    bases = haar_bases(n, k, 11, np.arange(30))
    frames = complement_bases(bases) if complement else bases
    assert frames.shape[2] == 3 and single_block_frames(frames).all()
    sides = np.linspace(0.6, 1.7, n)
    [got] = shared_block_integrals(frames, [nonzero_combinations(box_pieces(Box(sides)))])
    for w, vol in zip(frames, got):
        want = float(exact_slab_volume(w, -sides / 2.0, sides / 2.0))
        assert want > 0.0 and abs(vol - want) <= 1e-13 * max(want, 1.0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=6), st.integers(0, 10_000))
def test_piece_combinations_match_product_and_math_prod(counts, seed):
    # the rows' pieces gathered per combination, and the weights as
    # elementwise products in row order: the bits of itertools.product and
    # a left-to-right math.prod, zero weights and rows with no piece included
    rng = np.random.default_rng(seed)
    pieces = [[(float(a), float(b), float(v)) for a, b, v in
               zip(rng.normal(size=c), rng.normal(size=c), rng.choice([0.0, 0.3, 1.7, -2.1, 1e-200], c))]
              for c in counts]
    combos = list(itertools.product(*pieces))
    lo, hi, weights = piece_combinations(pieces)
    assert lo.shape == hi.shape == (len(combos), len(pieces)) and weights.shape == (len(combos),)
    assert lo.tolist() == [[p[0] for p in combo] for combo in combos]
    assert hi.tolist() == [[p[1] for p in combo] for combo in combos]
    want = [math.prod(p[2] for p in combo) for combo in combos]
    assert [w.hex() for w in weights.tolist()] == [w.hex() for w in want]
    keep = [c for c, w in enumerate(want) if w != 0.0]
    lo, hi, weights = nonzero_combinations(pieces)
    assert weights.tolist() == [want[c] for c in keep] and lo.tolist() == [[p[0] for p in combos[c]] for c in keep]


def test_block_integrals_of_no_frames_are_empty():
    f = random_product_density(1, 4, 3)
    lo, hi, weights = nonzero_combinations([fi.pieces for fi in f.factors])
    for d in (2, 3):
        [got] = shared_block_integrals(np.zeros((0, 4, d)), [(lo, hi, weights)])
        assert got.shape == (0,)
    rows = shared_block_integrals(np.zeros((0, 4, 2)), [(lo, hi, weights), (lo[:1], hi[:1], [1.0])])
    assert [row.shape for row in rows] == [(0,), (0,)]


def _diagonal_block_subspace(n, d):
    """E = span(e_0, (e_1 + ... + e_d) / sqrt(d)): its complement frame has a
    zero row, a (d - 1)-D block and n - d - 1 coordinate 1-D blocks."""
    basis = np.zeros((n, 2))
    basis[0, 0] = 1.0
    basis[1 : d + 1, 1] = 1.0 / np.sqrt(d)
    return Subspace(basis)


@pytest.mark.parametrize("seed,e", [
    (1, Subspace.coordinate(4, [0, 1])),
    (2, sharp_paired_subspace(4, 2)),
    (3, _diagonal_block_subspace(6, 3)),
    (4, _diagonal_block_subspace(6, 4)),
    (5, Subspace(haar_bases(5, 2, 9, np.arange(1))[0])),
], ids=["coordinate", "paired", "block-2d", "block-3d", "haar-3d"])
def test_slab_sum_values_match_value_loop(seed, e):
    """SlabSum.values against the scalar reference per point, ==, on frames
    with zero rows and several blocks."""
    f = random_product_density(seed, e.n, 3)
    slab_sum = SlabSum(orthonormal_complement(e).basis, [fi.pieces for fi in f.factors])
    rng = np.random.default_rng(seed)
    xs = e.basis.T @ f.support_midpoints() + rng.normal(size=(150, e.k)) * 0.6
    shifts = np.array([e.basis @ x for x in xs])
    got = slab_sum.values(shifts)
    want = [scalar_slab_sum(slab_sum.rows, slab_sum.pieces, s) for s in shifts]
    assert np.array_equal(got, want)
    assert 0 < np.count_nonzero(got) < len(xs)


_FRAMES = {
    "coordinate": Subspace.coordinate(4, [0, 1]),  # two zero rows, two 1-D blocks
    "paired": sharp_paired_subspace(4, 1),  # a 2-D block and two 1-D blocks
    "block-2d": _diagonal_block_subspace(5, 3),
    "block-3d": _diagonal_block_subspace(6, 4),
    "haar-2d": Subspace(haar_bases(4, 2, 3, np.arange(1))[0]),
    "haar-3d": Subspace(haar_bases(5, 2, 4, np.arange(1))[0]),
}


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(_FRAMES)),
    st.integers(0, 10_000),
    st.lists(st.sampled_from(["keep", "zero-piece", "zero-row"]), min_size=6, max_size=6),
    st.lists(st.floats(-1.2, 1.2), min_size=2, max_size=2),
)
def test_value_matches_the_scalar_reference(frame, seed, edits, offset):
    # zero rows, split blocks, and blocks with zero-weight or no nonzero
    # combinations, at points in and off the support
    e = _FRAMES[frame]
    f = random_product_density(seed, e.n, 3)
    pieces = []
    for fi, edit in zip(f.factors, edits):
        if edit == "zero-piece":
            pieces.append([(lo, hi, 0.0 if j == 0 else v) for j, (lo, hi, v) in enumerate(fi.pieces)])
        elif edit == "zero-row":
            pieces.append([(lo, hi, 0.0) for lo, hi, _ in fi.pieces])
        else:
            pieces.append(fi.pieces)
    slab_sum = SlabSum(orthonormal_complement(e).basis, pieces)
    x = e.basis.T @ f.support_midpoints() + np.array(offset[: e.k])
    shifts = e.basis @ x
    got = slab_sum.value(shifts)
    assert type(got) is float
    want = scalar_slab_sum(slab_sum.rows, pieces, shifts)
    assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


def test_value_beyond_the_exact_blocks_is_zero_where_a_zero_row_vanishes():
    # row 0 vanishes and rows 1-5 form one 4-D block: a point where the zero
    # row's factor is 0.0 needs no block, any other point does
    f = random_product_density(2, 6, 3)
    slab_sum = SlabSum(orthonormal_complement(_diagonal_block_subspace(6, 5)).basis,
                       [fi.pieces for fi in f.factors])
    assert list(slab_sum.zero_rows) == [0]
    outside = np.zeros(6)
    outside[0] = f.factors[0].pieces[-1][1] + 1.0
    assert slab_sum.value(outside) == 0.0
    assert np.array_equal(slab_sum.values(np.stack([outside, outside])), [0.0, 0.0])
    with pytest.raises(BlockTooWideError):
        slab_sum.value(f.support_midpoints())


def test_one_dimensional_blocks_join_the_pool_a_lane_cap_at_a_time(monkeypatch):
    # a Haar line's complement frame: one 1-D block of 3^6 = 729 piece
    # combinations, at 240 points 175k (point, combination) lanes, ten
    # times slabgeom.LANE_CAP
    rng = np.random.default_rng(3)
    pieces = [list(zip(edges[:-1], edges[1:], rng.uniform(0.2, 1.0, 3)))
              for edges in np.cumsum(rng.uniform(0.2, 0.6, (6, 4)), axis=1) - 0.8]
    slab_sum = SlabSum(haar_bases(6, 1, 3, np.arange(1))[0], pieces)
    [(_, block)] = slab_sum.blocks
    assert block.local.shape[1] == 1 and len(block.weights) == 729
    shifts = 0.2 * rng.normal(size=(240, 6))
    slab_sum.values(shifts[:1])  # the blocks' and combinations' own memory
    tracemalloc.start()
    try:
        got = slab_sum.values(shifts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # all 175k lanes in one pool.add peaked at 38 MiB, a LANE_CAP at a
    # time at 6.1 MiB
    assert peak < 8 * 2**20
    assert np.count_nonzero(got) > 200
    monkeypatch.setattr(slabgeom, "LANE_CAP", 1 << 30)
    assert np.array_equal(got, slab_sum.values(shifts))


def test_sums_at_zero_build_each_frames_tables_once(monkeypatch):
    # eight Haar frames of one 2-D block each and two centred integrands of
    # 36 and 12 nonzero piece combinations: 384 lanes, 8 LANE_CAP chunks of
    # 50 lanes
    frames = complement_bases(haar_bases(4, 2, 5, np.arange(8)))
    assert single_block_frames(frames).all()
    integrands = [[fi.shifted(-fi.support_midpoint()).pieces for fi in random_product_density(seed, 4, 3).factors]
                  for seed in (1, 2)]
    whole = slabgeom.sums_at_zero(frames, integrands)
    builds = []
    polygon_tables = kernels.polygon_tables

    def spy(stack):
        builds.append(len(stack))
        return polygon_tables(stack)

    monkeypatch.setattr(kernels, "polygon_tables", spy)
    monkeypatch.setattr(slabgeom, "LANE_CAP", 50)
    got = slabgeom.sums_at_zero(frames, integrands)
    assert builds == [len(frames)]
    assert np.array_equal(got, whole) and got.all()
    zero = np.zeros(4)
    assert got.tolist() == [[SlabSum(w, pieces).value(zero) for w in frames] for pieces in integrands]


def test_mc_takes_zero_rows_as_their_constant_factor():
    # a coordinate line's complement frame: row 0 vanishes, rows 1-3 are
    # the coordinate axes of E-perp
    f = random_product_density(5, 4, 3)
    slab_sum = SlabSum(orthonormal_complement(Subspace.coordinate(4, [0])).basis,
                       [fi.pieces for fi in f.factors])
    assert list(slab_sum.zero_rows) == [0]
    inside = f.support_midpoints()
    est, se = slab_sum.mc(inside, 40000, seed=2)
    assert se > 0.0 and abs(est - slab_sum.value(inside)) <= 4.0 * se
    outside = inside.copy()
    outside[0] = f.factors[0].pieces[-1][1] + 1.0
    assert slab_sum.mc(outside, 40000, seed=2) == (0.0, 0.0)


# Each entry point of the slab sums at the dilation lam = 2^p of its input,
# with its values divided by the power of lam that the dilation multiplies
# them by: lam^k for a marginal at x / lam or a k-dimensional box section,
# lam^(m - d) for m rows in R^d of pieces (lo / lam, hi / lam, lam v).
# Every entry is compared with its own run at lam = 1, not with
# scalar_slab_sum at scale, which has the same absolute tolerances.


def _centred(seed, n, lam):
    return [fi.shifted(-fi.support_midpoint()).dilated(lam) for fi in random_product_density(seed, n, 3).factors]


def _scaled_marginal_at(lam):
    f = random_product_density(3, 4, 3)
    e = haar_sample(4, 2, seed=1)
    g = ProductDensity([fi.dilated(lam) for fi in f.factors])
    return marginal_at(MarginalQuery(g, e, e.basis.T @ f.support_midpoints() / lam)) / lam**2


def _scaled_values_with_a_zero_row(lam):
    # E holds e_0, so row 0 of its complement frame vanishes and rows 1-4
    # span R^3
    v = np.array([0.0, 0.4, -0.5, 0.3, 0.7])
    e = Subspace(np.column_stack([np.eye(5)[0], v / np.linalg.norm(v)]))
    f = random_product_density(4, 5, 3)
    slab_sum = SlabSum(orthonormal_complement(e).basis, [fi.dilated(lam).pieces for fi in f.factors])
    assert list(slab_sum.zero_rows) == [0]
    xs = e.basis.T @ f.support_midpoints() + 0.1 * np.array(list(itertools.product([-1.0, 0.0, 1.0], repeat=2)))
    return slab_sum.values(xs @ e.basis.T / lam) / lam**2


def _scaled_sums_at_zero(lam):
    frames = complement_bases(haar_bases(4, 2, 5, np.arange(8)))
    assert single_block_frames(frames).all()
    return slabgeom.sums_at_zero(frames, [[fi.pieces for fi in _centred(1, 4, lam)]]) / lam**2


def _scaled_sums_at_zero_of_a_skewed_frame(lam):
    # columns 1e-9 from orthonormal: the per-frame SlabSum route
    skew = haar_bases(4, 2, 6, np.arange(1))[0] * [1.0 + 1e-9, 1.0]
    assert not single_block_frames(skew[None]).any()
    return slabgeom.sums_at_zero(skew[None], [[fi.pieces for fi in _centred(2, 4, lam)]]) / lam**2


_SIDES = np.array([0.7, 0.85, 1.0, 1.15, 1.3])


def _scaled_section_quadrature(lam):
    return section_quadrature(Box(_SIDES * lam), haar_sample(5, 3, seed=3)) / lam**3


def _scaled_section_mc(lam):
    return np.array(section_mc(Box(_SIDES * lam), haar_sample(5, 3, seed=3), 2000, seed=4)) / lam**3


def _scaled_bl_check(lam):
    # the inequality is dilation invariant: lhs and rhs keep their values
    # (lhs up to lam^(sum c - d), and sum c = d to rounding)
    system = bounds.random_bl_system(5, 2, 4)
    return np.array(bounds.bl_check(system, _centred(5, 4, lam)))


@pytest.mark.parametrize("p", [20, -20, 47, -47, 60, -60])
@pytest.mark.parametrize("entry", [
    _scaled_marginal_at, _scaled_values_with_a_zero_row, _scaled_sums_at_zero,
    _scaled_sums_at_zero_of_a_skewed_frame, _scaled_section_quadrature, _scaled_section_mc,
    _scaled_bl_check,
], ids=lambda entry: entry.__name__[len("_scaled_"):])
def test_slab_sums_keep_their_values_under_power_of_two_dilations(entry, p):
    want = np.asarray(entry(1.0))
    assert np.all(want > 0.0)
    np.testing.assert_allclose(entry(2.0**p), want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("p", [300, -300])
@pytest.mark.parametrize("entry", [_scaled_section_quadrature, _scaled_section_mc],
                         ids=lambda entry: entry.__name__[len("_scaled_"):])
def test_box_sections_far_from_unit_scale_keep_their_values(entry, p):
    # a box indicator's pieces have the value 1 in all five rows: scaled by
    # 2^p each, their products would leave the float range
    np.testing.assert_array_equal(entry(2.0**p), entry(1.0))


def test_one_value_below_the_normal_range_is_a_route_limit():
    # a grid scan's values round below the normal float range, as its tail
    # may; one value there is a RouteLimitError, and a zero stays 0.0
    f = random_product_density(3, 4, 3)
    rows = haar_sample(4, 2, seed=1).basis
    pieces = [[(lo * 2.0**-600, hi * 2.0**-600, v) for lo, hi, v in fi.pieces] for fi in f.factors]
    slab_sum = SlabSum(rows, pieces)
    unit = SlabSum(rows, [fi.pieces for fi in f.factors]).value(np.zeros(4))
    assert unit > 0.0
    assert slab_sum.values(np.zeros((1, 4)))[0] == 0.0
    with pytest.raises(RouteLimitError, match=r"about 1e-36\d, is below the normal float range"):
        slab_sum.value(np.zeros(4))
    assert slab_sum.value(np.full(4, 2.0**-590)) == 0.0
