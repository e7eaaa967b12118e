import numpy as np
import pytest

from margbounds import randomness


def test_uniforms_deterministic():
    a = randomness.uniforms(42, 0, 0, 1000)
    b = randomness.uniforms(42, 0, 0, 1000)
    assert np.array_equal(a, b)


def test_uniforms_range():
    u = randomness.uniforms(1, 2, 0, 10000)
    assert u.min() >= 0.0 and u.max() < 1.0


def test_uniforms_chunking_invariance():
    whole = randomness.uniforms(7, 3, 0, 1000)
    parts = np.concatenate(
        [randomness.uniforms(7, 3, s, 100) for s in range(0, 1000, 100)]
    )
    assert np.array_equal(whole, parts)


def test_uniforms_streams_differ():
    a = randomness.uniforms(5, 0, 0, 100)
    b = randomness.uniforms(5, 1, 0, 100)
    assert not np.array_equal(a, b)


def test_normals_chunking_invariance():
    whole = randomness.normals(9, 4, 0, 999)
    parts = np.concatenate(
        [randomness.normals(9, 4, s, c) for s, c in ((0, 250), (250, 250), (500, 499))]
    )
    assert np.array_equal(whole, parts)


def test_draws_over_a_stream_array_match_each_stream():
    streams = np.array([0, 1, 5, 2**33])
    u = randomness.uniforms(3, streams, 4, 10)
    z = randomness.normals(3, streams, 4, 10)
    assert u.shape == z.shape == (4, 10)
    for row_u, row_z, stream in zip(u, z, streams):
        assert np.array_equal(row_u, randomness.uniforms(3, int(stream), 4, 10))
        assert np.array_equal(row_z, randomness.normals(3, int(stream), 4, 10))


def test_normals_odd_start():
    whole = randomness.normals(3, 1, 0, 10)
    assert randomness.normals(3, 1, 3, 4) == pytest.approx(list(whole[3:7]), abs=0.0)


def test_moments_sane():
    u = randomness.uniforms(13, 0, 0, 200000)
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1.0 / 12.0) < 0.002
    z = randomness.normals(13, 1, 0, 200000)
    assert abs(z.mean()) < 0.01
    assert abs(z.var() - 1.0) < 0.02


@pytest.mark.parametrize("d", [1, 3])
def test_stratified_cube_chunking_invariance(monkeypatch, d):
    samples = 1000
    u = randomness.uniforms(4, 2, 0, samples * d).reshape(samples, d)
    u[:, 0] = (np.arange(samples) + u[:, 0]) / samples
    whole = (2.0 * u - 1.0) * 1.5
    monkeypatch.setattr(randomness, "MC_CHUNK", 128)
    chunks = list(randomness.stratified_cube(4, 2, samples, d, 1.5))
    assert [start for start, _ in chunks] == list(range(0, samples, 128))
    assert np.array_equal(np.concatenate([y for _, y in chunks]), whole)
