import math

import numpy as np
import pytest
from scipy.special import sici

from margbounds import bounds, quadrature, sections
from margbounds.quadrature import (
    RouteLimitError,
    ToleranceError,
    adaptive_panels,
    gk_panels,
    sinc_product_tail,
)


def test_gk_exact_on_polynomials():
    # K15 integrates polynomials of degree <= 22 exactly
    edges = np.array([0.0, 1.0])
    for deg in (0, 3, 7, 13):
        val, err = gk_panels(lambda t, d=deg: t**d, edges)
        assert val[0] == pytest.approx(1.0 / (deg + 1), rel=1e-14)


def test_gk_error_estimate_reported():
    edges = np.linspace(0.0, 10.0, 3)
    _, err = gk_panels(np.sin, edges)
    assert np.all(err >= 0.0)


def test_adaptive_meets_tolerance():
    edges = np.linspace(0.0, math.pi, 4)
    val, err = adaptive_panels(np.sin, edges, 1e-12)
    assert err <= 1e-12
    assert val == pytest.approx(2.0, abs=1e-11)


def test_adaptive_oscillatory():
    f = lambda t: np.sin(40.0 * t) ** 2
    edges = np.linspace(0.0, 1.0, 8)
    val, err = adaptive_panels(f, edges, 1e-10)
    exact = 0.5 - math.sin(80.0) / 160.0
    assert val == pytest.approx(exact, abs=1e-9)


def _reference_adaptive_panels(f, edges, tol, max_rounds=12):
    """The panel-at-a-time refinement: a list of (lo, hi, k15, err) tuples,
    one gk_panels call per bisected panel."""
    k15, err = gk_panels(f, edges)
    segs = list(zip(edges[:-1], edges[1:], k15, err))
    for _ in range(max_rounds):
        total_err = sum(s[3] for s in segs)
        if total_err <= tol:
            break
        segs.sort(key=lambda s: s[3])
        cut = max(1, len(segs) // 8)
        worst = segs[-cut:]
        segs = segs[:-cut]
        for w in worst:
            e = np.array([w[0], 0.5 * (w[0] + w[1]), w[1]])
            k, er = gk_panels(f, e)
            segs.append((e[0], e[1], k[0], er[0]))
            segs.append((e[1], e[2], k[1], er[1]))
    return math.fsum(s[2] for s in segs), math.fsum(s[3] for s in segs)


def _counted(f):
    """f with a running count of the points it was evaluated at."""
    def g(t):
        g.points += t.size
        return f(t)
    g.points = 0
    return g


def _captured_quadrature(monkeypatch, module, call):
    """The (f, edges, tol) that `call` hands to module.adaptive_panels."""
    seen = []

    def spy(f, edges, tol):
        seen.append((f, edges, tol))
        return adaptive_panels(f, edges, tol)

    monkeypatch.setattr(module, "adaptive_panels", spy)
    call()
    monkeypatch.undo()
    (captured,) = seen
    return captured


def _assert_same_as_reference(f, edges, tol, max_rounds=12):
    batched, reference = _counted(f), _counted(f)
    got = adaptive_panels(batched, edges, tol, max_rounds)
    want = _reference_adaptive_panels(reference, edges, tol, max_rounds)
    assert got == want
    assert batched.points == reference.points
    return got


@pytest.mark.parametrize("p", [2.0, 2.5, 7.3, 29.9])
def test_adaptive_panels_bit_for_bit_on_ball_integrand(monkeypatch, p):
    f, edges, tol = _captured_quadrature(monkeypatch, bounds, lambda: bounds.ball_integral(p))
    _assert_same_as_reference(f, edges, tol)


@pytest.mark.parametrize("m", [2, 5, 12])
def test_adaptive_panels_bit_for_bit_on_sinc_product(monkeypatch, m):
    rng = np.random.default_rng(m)
    box = sections.Box(rng.uniform(0.5, 2.0, m))
    a = rng.normal(size=m)
    a /= np.linalg.norm(a)
    f, edges, tol = _captured_quadrature(
        monkeypatch, sections, lambda: sections.hyperplane_section_sinc(box, a))
    _assert_same_as_reference(f, edges, tol)


def test_adaptive_panels_bit_for_bit_oscillatory():
    _assert_same_as_reference(lambda t: np.sin(40.0 * t) ** 2, np.linspace(0.0, 1.0, 8), 1e-10)


def test_adaptive_panels_bit_for_bit_with_tied_errors():
    # equal panels of width pi: several panels share their error exactly,
    # so which of them is bisected first follows the stable order
    f = lambda t: np.sin(t) ** 2
    edges = math.pi * np.arange(9.0)
    _, err = gk_panels(f, edges)
    assert np.unique(err).size < err.size
    _assert_same_as_reference(f, edges, 1e-13)


def _tied_signed(t):
    """sqrt|frac(2t) - 1/3|, its sign flipped on every half unit and on
    every unit: on [4, 8) each unit panel, and each half-unit child, sees
    the same fractional parts bit for bit, so errors tie while values do
    not, and bisecting another of the tied panels changes the result."""
    halves = np.floor(2.0 * t)
    sign = np.where(halves % 4.0 < 2.0, 1.0, -1.0) * np.where(halves % 2.0 == 0.0, 1.0, -1.0)
    return sign * np.sqrt(np.abs(2.0 * t - halves - 1.0 / 3.0))


@pytest.mark.parametrize("max_rounds", range(1, 8))
def test_adaptive_panels_bit_for_bit_with_signed_ties(max_rounds):
    edges = np.arange(4.0, 9.0)
    k15, err = gk_panels(_tied_signed, edges)
    assert np.unique(err).size == 1 and np.unique(k15).size == 2
    _assert_same_as_reference(_tied_signed, edges, 1e-12, max_rounds)


def test_adaptive_panels_stops_on_the_left_to_right_error_sum():
    # tol sits between the plain left-to-right sum of the first errors and
    # numpy's pairwise sum, so summing in another order flips the decision
    # to refine
    f = lambda t: np.sin(300.0 * t) ** 2
    for panels in range(9, 100):
        edges = np.linspace(0.0, 1.0, panels + 1)
        _, err = gk_panels(f, edges)
        plain = 0.0
        for e in err.tolist():
            plain += e
        if err.sum() != plain:
            break
    else:
        pytest.skip("no panel count where the two sums differ")
    _assert_same_as_reference(f, edges, min(plain, float(err.sum())))


def test_adaptive_panels_bit_for_bit_when_rounds_run_out():
    f = lambda t: np.sqrt(t)
    value, err = _assert_same_as_reference(f, np.linspace(0.0, 1.0, 5), 1e-15, max_rounds=3)
    assert err > 1e-15


# float.hex of ball_integral(p) as the panel-at-a-time refinement computed it
@pytest.mark.parametrize("p, want", [
    (2.0, "0x1.fffffffffffdfp-1"),
    (4.0, "0x1.55555555550fep-1"),
    (7.3, "0x1.00750c8c9caaep-1"),
])
def test_ball_integral_keeps_its_bits(p, want):
    assert bounds.ball_integral(p).hex() == want


def _tail_reference(c, t_start):
    """Brute-force high-panel quadrature out to where the envelope is tiny."""
    c = np.asarray(c, dtype=float)

    def f(t):
        x = c[None, :] * t[:, None]
        return np.prod(np.sin(x) / x, axis=1)

    # envelope decays like t^-m; go far enough that the remainder is < 1e-13
    m = c.size
    t_end = max((1.0 / (np.prod(c) * 1e-14)) ** (1.0 / m) if m > 1 else 1e13, t_start * 4)
    t_end = min(t_end, t_start + 2e5)
    edges = np.linspace(t_start, t_end, 20000)
    val, err = adaptive_panels(f, edges, 1e-12)
    return val


@pytest.mark.parametrize(
    "c",
    [
        np.array([1.0, 0.7, 0.3]),
        np.array([0.5, 0.5, 0.5, 0.5]),
        np.array([1.3, 0.9, 0.45, 0.2, 0.1]),
    ],
)
def test_sinc_product_tail_matches_quadrature(c):
    t_start = 40.0 * math.pi
    got = sinc_product_tail(c, t_start)
    ref = _tail_reference(c, t_start)
    assert got == pytest.approx(ref, abs=5e-10)


def test_sinc_product_tail_two_factors():
    # slowest-decaying case (t^-2 envelope); closed tail must still be tight
    c = np.array([1.0, 0.25])
    t_start = 100.0 * math.pi
    got = sinc_product_tail(c, t_start)
    ref = _tail_reference(c, t_start)
    assert got == pytest.approx(ref, abs=1e-9)


def test_sinc_product_tail_guard():
    with pytest.raises(ValueError):
        sinc_product_tail(np.ones(17), 10.0)
    with pytest.raises(RouteLimitError):
        sinc_product_tail(np.ones(17), 10.0)


_TIED_16 = (0.31, 0.12, 0.47, 0.25, 0.25, 0.18, 0.5, 0.1,
            0.39, 0.22, 0.44, 0.15, 0.33, 0.27, 0.41, 0.2)

# (c, t_start, float.hex of the tail) as the one-pattern-at-a-time expansion
# with a per-|omega| table computed them; the lane-wise expansion must keep
# every bit.  Tied entries repeat |omega|, and equal entries give patterns
# whose frequency is exactly zero.
_PINNED_TAILS = [
    ((1.0, 0.25), 100.0 * math.pi, "-0x1.3b1da01000000p-23"),
    ((1.0, 0.7, 0.3), 40.0 * math.pi, "0x1.2e50549b251b5p-20"),
    ((0.5, 0.5, 0.5, 0.5), 40.0 * math.pi, "0x1.0e49fc1bfffffp-20"),
    ((1.3, 0.9, 0.45, 0.2, 0.1), 40.0 * math.pi, "-0x1.2af8e997ede91p-30"),
    ((0.45, 0.3, 0.3, 0.2, 0.45, 0.15, 0.1, 0.25), 128.0 * math.pi / 0.45,
     "-0x1.a527ed5c3c83bp-51"),
    ((0.5, 0.25, 0.25, 0.4, 0.1, 0.1, 0.3, 0.2, 0.35, 0.15, 0.45, 0.2),
     128.0 * math.pi / 0.5, "-0x1.e1ec4b15b99fap-46"),
    (_TIED_16[:13], 128.0 * math.pi / 0.5, "0x1.25c148533dfc8p-46"),
    (_TIED_16, 128.0 * math.pi / 0.5, "-0x1.926a82e5a37dfp-44"),
    ((0.25,) * 16, 128.0 * math.pi / 0.25, "0x1.b9c3dc5cf1a72p-50"),
]


@pytest.mark.parametrize("c, t_start, want", _PINNED_TAILS,
                         ids=[f"m{len(c)}-{i}" for i, (c, _, _) in enumerate(_PINNED_TAILS)])
def test_sinc_product_tail_keeps_its_bits(c, t_start, want):
    assert sinc_product_tail(np.array(c), t_start).hex() == want


def _reference_sinc_product_tail(c, t_start):
    """The one-pattern-at-a-time expansion, with one E_m per distinct |omega|."""
    c = np.asarray(c, dtype=float)
    m = c.size
    signs = np.array([[1.0 if (bits >> j) & 1 else -1.0 for j in range(m)]
                      for bits in range(2**m)])
    omegas = signs @ c
    coef = np.prod(signs, axis=1) / (2.0j) ** m
    table = {}
    for w in np.unique(np.abs(omegas)):
        if w == 0.0:
            table[0.0] = complex(t_start ** (1 - m) / (m - 1), 0.0)
            continue
        si, ci = sici(w * t_start)
        e = complex(-ci, math.pi / 2.0 - si)
        for j in range(2, m + 1):
            e = (t_start ** (1 - j) * np.exp(1j * w * t_start) + 1j * w * e) / (j - 1)
        table[float(w)] = e
    total = 0.0 + 0.0j
    for w, cf in zip(omegas, coef):
        e = table[float(abs(w))]
        total += cf * (e if w >= 0.0 else np.conj(e))
    return float(total.real) / float(np.prod(c))


def test_sinc_product_tail_matches_pattern_loop_bit_for_bit():
    rng = np.random.default_rng(17)
    for m in list(range(1, 13)) * 2 + [13, 14]:
        if m % 3 == 0:
            c = rng.choice([0.1, 0.2, 0.25, 0.3, 0.5], m)  # ties, zero frequencies
        else:
            c = rng.uniform(0.05, 1.5, m)
        t_start = 128.0 * math.pi / float(c.max()) if m % 2 else float(rng.uniform(5.0, 500.0))
        want = _reference_sinc_product_tail(c, t_start)
        assert sinc_product_tail(c, t_start).hex() == want.hex(), (c.tolist(), t_start)


@pytest.mark.parametrize("chunk", [4, 64, 256])
def test_sinc_product_tail_does_not_depend_on_chunk(monkeypatch, chunk):
    monkeypatch.setattr(quadrature, "_TAIL_CHUNK", chunk)
    for c, t_start, want in _PINNED_TAILS:
        assert sinc_product_tail(np.array(c), t_start).hex() == want


def test_sinc_product_tail_within_envelope():
    # |prod sinc(c_j t)| <= t^{-m} / prod c, so |tail| <= T^{1-m} / ((m-1) prod c).
    # From m ~ 7 on that envelope is mostly below the expansion's rounding
    # noise (up to ~2e-13 here), which the 1e-12 slack covers.
    rng = np.random.default_rng(8)
    for m in range(2, 17):
        for _ in range(3):
            c = rng.uniform(0.1, 0.5, m)
            t_start = 128.0 * math.pi / float(c.max())
            envelope = t_start ** (1 - m) / ((m - 1) * float(np.prod(c)))
            assert abs(sinc_product_tail(c, t_start)) <= envelope + 1e-12


@pytest.mark.parametrize("c, t_start", [
    ((1.0, 0.0, 0.5), 10.0),
    ((1.0, -0.5), 10.0),
    ((1.0, math.nan), 10.0),
    ((1.0, math.inf), 10.0),
    ((), 10.0),
    ((1.0, 0.5), 0.0),
    ((1.0, 0.5), -1.0),
    ((1.0, 0.5), math.nan),
    ((1.0, 0.5), math.inf),
])
def test_sinc_product_tail_rejects_bad_input(c, t_start):
    with pytest.raises(ValueError) as info:
        sinc_product_tail(np.array(c, dtype=float), t_start)
    assert not isinstance(info.value, RouteLimitError)


def test_tolerance_error_carries_value():
    err = ToleranceError("failed", 0.25)
    assert err.achieved == 0.25
    assert "0.25" in str(err) or "2.5" in str(err)
