import numpy as np
import pytest

from margbounds.densities import random_product_density
from margbounds.grassmann import Subspace, complement_bases, haar_bases
from margbounds.sections import sharp_paired_subspace
from margbounds.slabgeom import (
    BlockTooWideError,
    SlabBlock,
    block_integrals,
    component_blocks,
    decomposed_volume,
    nonzero_combinations,
    piece_combinations,
    row_components,
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


def test_decomposed_volume_product_structure():
    # two orthogonal 1-D constraints: lengths multiply
    w = np.array([[1.0, 0.0], [0.0, 2.0]])
    lo = np.array([-1.0, -1.0])
    hi = np.array([1.0, 1.0])
    assert decomposed_volume(w, lo, hi) == pytest.approx(2.0 * 1.0)


def test_decomposed_volume_empty_block_short_circuits():
    # two parallel constraints with disjoint ranges: empty intersection
    w = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    lo = np.array([2.0, -1.0, -1.0])
    hi = np.array([3.0, 1.0, 1.0])
    assert decomposed_volume(w, lo, hi) == 0.0


def test_piece_combinations_product_order():
    a = [(0.0, 1.0, 2.0), (1.0, 2.0, 3.0)]
    b = [(-1.0, 0.0, 5.0)]
    c = [(0.0, 0.5, 7.0), (0.5, 1.0, 11.0)]
    lo, hi, weights = piece_combinations([a, b, c])
    # the last row's piece changes fastest
    assert lo.tolist() == [[0.0, -1.0, 0.0], [0.0, -1.0, 0.5], [1.0, -1.0, 0.0], [1.0, -1.0, 0.5]]
    assert hi.tolist() == [[1.0, 0.0, 0.5], [1.0, 0.0, 1.0], [2.0, 0.0, 0.5], [2.0, 0.0, 1.0]]
    assert weights == [70.0, 110.0, 105.0, 165.0]


@pytest.mark.parametrize("n,d", [(3, 2), (4, 2), (6, 2), (4, 3), (6, 3)])
def test_single_block_frames_match_component_blocks(n, d):
    frames = complement_bases(haar_bases(n, n - d, 4, np.arange(200)))
    local, ok = single_block_frames(frames)
    assert ok.all()
    for w, loc in zip(frames, local):
        [(comp, block)] = component_blocks(w)
        assert list(comp) == list(range(n))
        assert np.array_equal(loc, block)
        assert np.array_equal(loc, span_coordinates(w))


def test_single_block_frames_reject_zero_rows_splits_and_low_rank():
    coordinate = Subspace.coordinate(4, [0, 1]).basis  # rows 2 and 3 vanish
    paired = sharp_paired_subspace(4, 2).basis  # two orthogonal 1-D blocks
    flat = np.array([[1.0, 0.0], [2.0, 0.0], [0.5, 0.0], [1.0, 0.0]])  # one block of rank 1
    haar = haar_bases(4, 2, 1, np.arange(1))[0]
    _, ok = single_block_frames(np.stack([coordinate, paired, flat, haar]))
    assert ok.tolist() == [False, False, False, True]
    assert len(row_components(paired)) == 2
    assert len(row_components(flat)) == 1 and span_coordinates(flat).shape == (4, 1)


@pytest.mark.parametrize("n", [3, 4])
def test_block_integrals_match_slab_block_integral(n):
    f = random_product_density(n, n, 3)
    lo, hi, weights = nonzero_combinations([fi.pieces for fi in f.factors])
    local, ok = single_block_frames(complement_bases(haar_bases(n, n - 2, 2, np.arange(50))))
    assert ok.all()
    got = block_integrals(local, lo, hi, weights)
    want = [SlabBlock(loc, lo, hi, weights).integral(lo, hi) for loc in local]
    assert np.array_equal(got, want)
    assert np.count_nonzero(got) > 40
