"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Each test exercises the documented surface (library ops or CLI) at the stated
tolerances.  The printed lines go to the real stdout so they appear in the
test log even under capture.
"""

import json
import math
import sys

import numpy as np
import pytest

from margbounds import average, bounds, cli, marginals, sections
from margbounds.densities import (
    ProductDensity,
    cube_density,
    random_density,
    random_product_density,
)
from margbounds.grassmann import (
    Subspace,
    frame_of_complement,
    haar_directions,
    haar_sample,
    orthonormal_complement,
    parallelepiped_projection_check,
)
from margbounds.sections import (
    Box,
    hyperplane_section_exact,
    hyperplane_section_sinc,
    section_quadrature,
    sharp_block_subspace,
    sharp_paired_subspace,
    unit_cube,
)


def _line(number, name, ok):
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'}", file=sys.__stdout__)
    assert ok, f"acceptance criterion {number} ({name}) failed"


def test_acceptance_01_ball_integral():
    ok = abs(bounds.ball_integral(2.0) - 1.0) <= 1e-8
    ok &= abs(bounds.ball_integral(4.0) - 2.0 / 3.0) <= 1e-8
    for p in np.logspace(math.log10(2.0), 2.0, 50):
        p = float(p)
        value = bounds.ball_integral(p, tol=1e-9)
        bound = math.sqrt(2.0 / p)
        ok &= value <= bound + 1e-9
        if p > 2.0 + 1e-9:
            ok &= bound - value > 0.0
    _line(1, "sinc-power integrals", ok)


def test_acceptance_02_cube_hyperplane_sections():
    ok = True
    rng = np.random.default_rng(202)
    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 9))
        a = rng.normal(size=n)
        a /= np.linalg.norm(a)
        if np.abs(a).min() < 1e-4:
            continue
        box = unit_cube(n)
        exact = hyperplane_section_exact(box, a)
        sinc = hyperplane_section_sinc(box, a, tol=1e-9)
        ok &= abs(exact - sinc) <= 1e-8
        checked += 1
    q3 = hyperplane_section_exact(unit_cube(3), np.ones(3) / math.sqrt(3.0))
    ok &= abs(q3 - 1.29903811) <= 1e-8
    q2 = hyperplane_section_exact(unit_cube(2), np.ones(2) / math.sqrt(2.0))
    ok &= abs(q2 - math.sqrt(2.0)) <= 1e-9
    for n in range(2, 9):
        dirs = haar_directions(n, 10000, seed=300 + n)
        vals = hyperplane_section_exact(unit_cube(n), dirs)
        ok &= bool(vals.max() <= math.sqrt(2.0) + 1e-8)
    _line(2, "cube hyperplane sections", ok)


def test_acceptance_03_sharpness():
    e_block = sharp_block_subspace(6, 4)
    sec_block = section_quadrature(unit_cube(6), orthonormal_complement(e_block))
    rep_block = bounds.bound_main(e_block, np.ones(6))
    ok = abs(sec_block - 3.0) <= 1e-4
    ok &= abs(sec_block - (6.0 / 2.0) ** 1.0) <= 1e-4
    ok &= rep_block.branch == "block"
    ok &= abs(sec_block - rep_block.bound_value) <= 1e-10

    e_paired = sharp_paired_subspace(6, 2)
    sec_paired = section_quadrature(unit_cube(6), orthonormal_complement(e_paired))
    rep_paired = bounds.bound_main(e_paired, np.ones(6))
    ok &= abs(sec_paired - 2.0) <= 1e-4
    ok &= rep_paired.branch == "paired"
    ok &= abs(sec_paired - rep_paired.bound_value) <= 1e-10
    _line(3, "sharp subspaces attain both constants", ok)


def test_acceptance_04_main_theorem_suite():
    configs = [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3), (5, 2), (5, 3), (5, 4)]
    cases = []
    for t in range(500):
        n, k = configs[t % len(configs)]
        sup_lo, sup_hi = (1.0, 1.0) if t % 2 == 0 else (0.5, 4.0)
        f = cli._trial_densities(404, n, [t], sup_lo, sup_hi)[0]
        cases.append((f, haar_sample(n, k, 404, stream=t * 1024 + 513)))
    violations = sum(not rec["pass"] for rec in marginals.verify_main_theorems(cases, tol=1e-4))
    _line(4, "marginal sup vs product bound (500 trials)", violations == 0)


def test_acceptance_05_box_propositions():
    rng = np.random.default_rng(505)
    ok = True
    for seed in range(500):
        n = int(rng.integers(3, 7))
        dim_h = int(rng.integers(1, 4))
        if dim_h >= n:
            dim_h = n - 1
        h = haar_sample(n, dim_h, seed=seed, stream=7)
        z = rng.uniform(0.25, 3.0, size=n)
        section = section_quadrature(Box(z), h)
        ok &= section <= bounds.bound_box1(h, z) * (1.0 + 1e-6)
        k = n - dim_h
        if k <= n / 2:
            ok &= section <= bounds.bound_box2(h, z) * (1.0 + 1e-6)
    for seed in range(10000):
        n = 3 + seed % 4
        k = 1 + seed % (n - 1)
        a = frame_of_complement(haar_sample(n, k, seed=seed, stream=8)).norms
        product, bound = frame_constant = bounds.frame_constant_check(a)
        ok &= product <= bound * (1.0 + 1e-12)
    _line(5, "box section bounds and frame constant", ok)


def test_acceptance_06_rogozin():
    ok = True
    for t in range(200):
        n = 2 + t % 3  # n in {2, 3, 4}
        f = cli._trial_densities(606, n, [t], 1.0, 1.0)[0]
        theta = haar_directions(n, 1, 606, stream=t * 1024 + 513)[0]
        sup_lb, cs = marginals.rogozin_check(f, theta, tol=1e-4)
        ok &= sup_lb <= cs * (1.0 + 1e-4)
    for n in (2, 3, 4):
        f = cube_density(n)
        theta = np.ones(n) / math.sqrt(n)
        sup_lb, cs = marginals.rogozin_check(f, theta)
        ok &= abs(sup_lb - cs) <= 1e-6
    _line(6, "line-marginal vs cube section", ok)


def test_acceptance_07_average_comparison():
    g = average.cube_avg_power(2, 1, 100000, seed=707)
    ok = abs(g.estimate - 4.0 / math.pi) <= 3.0 * g.std_error
    for seed in range(20):
        f = random_product_density(seed, 2, stream_base=seed * 64)
        rec = average.prop_avg_check(f, 1, 20000, seed=707 + seed)
        ok &= rec["pass"]
    f3 = random_product_density(99, 3)
    rec3 = average.prop_avg_check(f3, 1, 100000, seed=777)
    ok &= rec3["pass"]
    _line(7, "Grassmannian marginal power averages", ok)


def test_acceptance_08_grinberg_invariance():
    rec3 = average.grinberg_check([2.0, 0.5, 1.0], 3, 1, 100000, seed=808)
    rec4 = average.grinberg_check([2.0, 0.5, 3.0, 1.0 / 3.0], 4, 2, 100000, seed=809)
    _line(8, "dual affine quermassintegral invariance", rec3["pass"] and rec4["pass"])


def test_acceptance_09_brascamp_lieb():
    system = bounds.BLSystem(np.eye(3), np.ones(3))
    fs = [random_density(s, 3, 1e9) for s in (1, 2, 3)]
    fs = [f.shifted(-f.support_midpoint()) for f in fs]
    lhs, rhs = bounds.bl_check(system, fs)
    ok = abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)
    lhs_g, rhs_g = bounds.bl_check(bounds.mercedes_system(), [bounds.GaussianDensity()] * 3)
    ok &= abs(lhs_g - rhs_g) <= 1e-6
    for t in range(100):
        rec = cli._bl_trial((909, 2 + t % 2, 4 + t % 2, 1e-6, t))
        ok &= rec["lhs"] <= rec["rhs"] * (1.0 + 1e-6)
    _line(9, "Brascamp-Lieb checker", ok)


def test_acceptance_10_parallelepiped_projections():
    rng = np.random.default_rng(1010)
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
    _line(10, "parallelepiped projection inequality", violations == 0)


def test_acceptance_11_small_ball():
    ok = True
    for t in range(100):
        n = 2 + t % 4  # n in {2..5}
        k = 1 + t % 2
        rec = cli._small_ball_trial((1111, n, k, 0.05 + 0.002 * (t % 7), 20000, t))
        ok &= rec["pass"]
    f = cube_density(3)
    e = Subspace.coordinate(3, [0])
    eps = 0.1
    est, se, bound = marginals.small_ball(f, e, [0.0], eps, 100000, seed=1112)
    ok &= abs(est - 2.0 * eps) <= 3.0 * se
    ok &= est <= bound + 3.0 * se
    _line(11, "small-ball probabilities", ok)


def test_acceptance_12_determinism(tmp_path):
    campaigns = [
        ["verify", "--n", "4", "--k", "2", "--trials", "24", "--seed", "12"],
        ["rogozin", "--n", "3", "--trials", "24", "--seed", "12"],
        ["bl-check", "--d", "2", "--m", "4", "--systems", "24", "--seed", "12"],
        ["small-ball", "--n", "3", "--k", "1", "--trials", "12", "--samples", "4000",
         "--seed", "12"],
    ]
    serial_only = [
        ["sections", "--mode", "exact", "--sides", "1,1,1",
         "--normal", "0.577350269189626,0.577350269189626,0.577350269189626"],
        ["ball-integral", "--p-min", "2", "--p-max", "6", "--steps", "3"],
        ["average", "--n", "2", "--k", "1", "--samples", "5000", "--seed", "12"],
        ["grinberg", "--n", "3", "--k", "1", "--diag", "2,0.5,1",
         "--samples", "5000", "--seed", "12"],
        ["search-max", "--n", "4", "--k", "2", "--restarts", "2", "--steps", "30",
         "--seed", "12"],
    ]
    ok = True
    for i, args in enumerate(campaigns):
        out1 = tmp_path / f"c{i}_w1.json"
        out8 = tmp_path / f"c{i}_w8.json"
        ok &= cli.main(args + ["--workers", "1", "--out", str(out1)]) == 0
        ok &= cli.main(args + ["--workers", "8", "--out", str(out8)]) == 0
        ok &= out1.read_bytes() == out8.read_bytes()
    for i, args in enumerate(serial_only):
        out1 = tmp_path / f"s{i}_a.json"
        out2 = tmp_path / f"s{i}_b.json"
        ok &= cli.main(args + ["--out", str(out1)]) == 0
        ok &= cli.main(args + ["--out", str(out2)]) == 0
        ok &= out1.read_bytes() == out2.read_bytes()
    _line(12, "byte-identical reports across workers/runs", ok)
