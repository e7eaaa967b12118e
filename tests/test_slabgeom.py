import numpy as np
import pytest

from margbounds.slabgeom import (
    BlockTooWideError,
    component_blocks,
    decomposed_volume,
    piece_combinations,
    row_components,
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
