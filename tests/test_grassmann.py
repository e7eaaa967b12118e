import math

import numpy as np
import pytest

from margbounds import grassmann, randomness, slabgeom
from margbounds.grassmann import (
    ExponentAssignment,
    Frame,
    Subspace,
    box2_exponents,
    complement_bases,
    frame_of_complement,
    grassmann_search_max,
    haar_bases,
    haar_directions,
    haar_sample,
    orthonormal_complement,
    parallelepiped_projection_check,
    projection_weights,
)
from margbounds.marginals import cube_hyperplane_section
from margbounds.sections import box_pieces, unit_cube


def test_subspace_validation():
    with pytest.raises(ValueError):
        Subspace(np.array([[1.0, 0.0], [1.0, 0.0]]))  # not orthonormal
    with pytest.raises(ValueError):
        Subspace(np.ones((2, 3)))  # k > n


def test_subspace_vector_orientation():
    e = Subspace(np.array([1.0, 0.0, 0.0]))
    assert e.basis.shape == (3, 1)
    assert e.k == 1


def test_subspace_json_roundtrip():
    e = haar_sample(4, 2, seed=5)
    e2 = Subspace.from_json_dict(e.to_json_dict())
    assert np.allclose(e.basis, e2.basis, atol=1e-15)


def test_coordinate_subspace():
    c = Subspace.coordinate(4, [1, 3])
    assert c.basis[1, 0] == 1.0 and c.basis[3, 1] == 1.0


def test_haar_sample_deterministic():
    a = haar_sample(6, 3, seed=9)
    b = haar_sample(6, 3, seed=9)
    assert np.array_equal(a.basis, b.basis)
    assert not np.array_equal(a.basis, haar_sample(6, 3, seed=10).basis)


def test_haar_directions_unit_rows():
    d = haar_directions(5, 100, seed=2)
    assert np.allclose(np.linalg.norm(d, axis=1), 1.0, atol=1e-12)


def test_haar_directions_chunks_concatenate():
    whole = haar_directions(4, 10, seed=3, stream=2)
    head = haar_directions(4, 3, seed=3, stream=2)
    tail = haar_directions(4, 7, seed=3, stream=2, start=3)
    assert np.array_equal(np.vstack([head, tail]), whole)


@pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (5, 2), (4, 1), (5, 3), (3, 3)])
def test_haar_bases_and_complements_match_one_lane_calls(n, k):
    streams = np.concatenate([1 + np.arange(300), [2**40 + 7]])
    bases = haar_bases(n, k, 11, streams)
    comps = complement_bases(bases)
    assert bases.shape == (streams.size, n, k) and comps.shape == (streams.size, n, n - k)
    for basis, comp, stream in zip(bases, comps, streams):
        e = haar_sample(n, k, 11, stream=int(stream))
        assert np.array_equal(basis, e.basis)
        assert np.array_equal(comp, orthonormal_complement(e).basis)


def test_orthonormal_complement():
    e = haar_sample(7, 3, seed=1)
    v = orthonormal_complement(e)
    assert v.k == 4
    assert np.abs(e.basis.T @ v.basis).max() < 1e-12


def test_complement_of_full_space():
    e = haar_sample(3, 3, seed=4)
    assert orthonormal_complement(e).k == 0


def test_frame_identity():
    e = haar_sample(6, 2, seed=8)
    fr = frame_of_complement(e)
    assert fr.vectors.shape == (6, 4)
    # the defining property: sum of outer products is the identity
    gram = fr.vectors.T @ fr.vectors
    assert np.abs(gram - np.eye(4)).max() < 1e-12
    assert fr.norms.max() <= 1.0 + 1e-12
    assert np.sum(fr.norms**2) == pytest.approx(4.0)


def test_frame_rejects_non_tight():
    with pytest.raises(ValueError):
        Frame(np.array([[1.0, 0.0], [1.0, 0.0]]))


def test_exponent_assignment_validation():
    ExponentAssignment(np.array([0.5, 0.5, 1.0]), 2.0)
    with pytest.raises(ValueError):
        ExponentAssignment(np.array([1.5, 0.5]), 2.0)
    with pytest.raises(ValueError):
        ExponentAssignment(np.array([0.5, 0.5]), 2.0)


def test_projection_weights_sum():
    e = haar_sample(5, 2, seed=6)
    w = projection_weights(e)
    assert w.betas.sum() == pytest.approx(2.0)
    assert np.all(w.betas >= 0.0) and np.all(w.betas <= 1.0)


def test_box2_exponents_valid_assignment():
    for seed in range(30):
        n = 4 + seed % 3
        k = 1 + seed % (n // 2)
        h = orthonormal_complement(haar_sample(n, k, seed=seed))
        ea = box2_exponents(h)
        assert ea.betas.sum() == pytest.approx(n - k, abs=1e-9)
        assert np.all(ea.betas >= -1e-12) and np.all(ea.betas <= 1.0 + 1e-12)


def test_box2_exponents_base_branch():
    # coordinate complement: all projections onto H-perp are 0 or 1
    h = Subspace.coordinate(4, [0, 1, 2])  # k = 1
    betas = box2_exponents(h).betas
    assert betas == pytest.approx([1.0, 1.0, 1.0, 0.0])


def test_box2_exponents_k_limit():
    h = orthonormal_complement(haar_sample(4, 3, seed=0))  # k = 3 > n/2
    with pytest.raises(ValueError):
        box2_exponents(h)


def test_parallelepiped_projection_lemma():
    rng = np.random.default_rng(0)
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(3, 7))
        m = int(rng.integers(1, n - 1))
        b = rng.normal(size=n)
        b /= np.linalg.norm(b)
        gens = rng.normal(size=(n, m))
        gens -= np.outer(b, b @ gens)
        i = int(rng.integers(0, n))
        lhs, rhs = parallelepiped_projection_check(b, gens.T, i)
        if lhs > rhs * (1.0 + 1e-9):
            violations += 1
    assert violations == 0


def test_parallelepiped_projection_equality_case():
    # b = e1, generators in e1-perp: projection along coordinate 1 is identity
    b = np.array([1.0, 0.0, 0.0])
    gens = [np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 2.0])]
    lhs, rhs = parallelepiped_projection_check(b, gens, 0)
    assert lhs == pytest.approx(2.0)
    assert rhs == pytest.approx(2.0)


def test_search_max_finds_cube_diagonal():
    # max over lines of |<theta, (1,1)>/sqrt(2)| peaks at the diagonal
    target = np.array([1.0, 1.0]) / math.sqrt(2.0)

    def objective(bases):
        return np.abs(bases[:, :, 0] @ target)

    best, val = grassmann_search_max(objective, 2, 1, restarts=4, steps=150, seed=3)
    assert val == pytest.approx(1.0, abs=1e-3)


def test_search_max_deterministic():
    def objective(bases):
        return np.abs(bases).max(axis=(1, 2))

    a = grassmann_search_max(objective, 4, 2, restarts=2, steps=50, seed=11)
    b = grassmann_search_max(objective, 4, 2, restarts=2, steps=50, seed=11)
    assert a[1] == b[1]
    assert np.array_equal(a[0].basis, b[0].basis)


def _one_proposal_climb(objective, n, k, restarts, steps, seed):
    """grassmann_search_max as it scored one proposal per objective call.
    Returns (best subspace, best value, per restart the steps that improved
    and the steps whose rejection halved the step size)."""
    best_val, best_sub, trace = -math.inf, None, []
    for r in range(restarts):
        sub = haar_sample(n, k, seed, stream=2 * r + 1)
        val = float(objective(sub.basis[None])[0])
        sigma, fails = 0.5, 0
        noise = randomness.normals(seed, 2 * r + 2, 0, steps * n * k).reshape(steps, n, k)
        improved, halved = [], []
        for s in range(steps):
            q, rr = np.linalg.qr(sub.basis + sigma * noise[s])
            cand = Subspace(grassmann._fix_qr_signs(q, rr))
            cand_val = float(objective(cand.basis[None])[0])
            if cand_val > val:
                sub, val = cand, cand_val
                fails = 0
                improved.append(s)
            else:
                fails += 1
                if fails >= 10:
                    sigma *= 0.5
                    fails = 0
                    halved.append(s)
        trace.append((improved, halved))
        if val > best_val:
            best_val, best_sub = val, sub
    return best_sub, best_val, trace


def _batches(trace, steps, width):
    """(position of the first improvement or None, whether a halving falls
    before a later proposal of the batch) of each speculative batch."""
    out = []
    for improved, halved in trace:
        s = 0
        while s < steps:
            end = min(s + width, steps)
            first = next((a for a in improved if s <= a < end), None)
            last = end - 1 if first is None else first
            out.append((None if first is None else first - s, any(s <= h < last for h in halved)))
            s = end if first is None else first + 1
    return out


def _cube_objective(n, k):
    """search-max's objective: |Q_n cap E-perp| of each basis of E."""
    if k == 1:
        return lambda bases: np.array([cube_hyperplane_section(basis[:, 0]) for basis in bases])
    cube = [box_pieces(unit_cube(n))]
    return lambda bases: slabgeom.sums_at_zero(complement_bases(bases), cube)[0]


@pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (5, 2)], ids=["k=1", "n-k=2", "n-k=3"])
def test_speculative_climb_is_the_one_proposal_climb(n, k):
    # the climb that scores _SPECULATE proposals per call keeps the first
    # improvement and replays the rejections before it: its best basis and
    # value are == those of one proposal per call, on the cube objective, on
    # a stub that improves rarely once its entry nears 1 (long streaks of
    # rejections, halvings inside a batch) and on one that never improves
    width = grassmann._SPECULATE
    steps = 5 * width + 3  # not a multiple of the batch width
    batches = []
    stubs = (lambda bases: bases[:, 0, 0], lambda bases: np.zeros(len(bases)))
    for objective in (_cube_objective(n, k),) + stubs:
        for seed in (1, 2, 3):
            best, val = grassmann_search_max(objective, n, k, 2, steps, seed)
            want, want_val, trace = _one_proposal_climb(objective, n, k, 2, steps, seed)
            assert best.basis.tobytes() == want.basis.tobytes()
            assert val == want_val
            batches += _batches(trace, steps, width)
    positions = {first for first, _ in batches}
    assert {0, width - 1, None} <= positions
    assert any(halved for _, halved in batches)
