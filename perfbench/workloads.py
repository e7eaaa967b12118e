"""Seeded input generator and output checks for the three benchmark workloads.

`generate(name, seed, inputs_dir)` writes every input file (densities and
subspaces as JSON) before any timing starts and returns the fixed job mix: a
list of jobs, each an argv for `margbounds.cli.main` plus what the checker
needs.  The mix's shape (commands, dimensions, trial and sample counts) is
the same for every seed; the seed only moves the numbers inside it.

Workloads and why they were chosen:

- ``sup-grid``: `verify` and `rogozin` campaigns.  Hundreds of exact
  marginal evaluations share one subspace per trial, so the slab kernels
  (exact blocks of dimension 1, 2 and 3), the piece-combination loop and
  any per-subspace plan dominate.
- ``haar-average``: paired `average --density` and `grinberg` on
  codimension >= 2, where each Haar subspace yields exactly one inner value
  (per-subspace caching cannot help, batching across subspaces can), plus a
  minority of jobs on the vectorized k = 1 paths and `small-ball`.
- ``routes-xval``: many small `sections` jobs cross-validating the exact,
  sinc, clipping and Monte Carlo routes, plus `ball-integral` and
  `bl-check`; this mix bypasses `marginals` and the grid entirely, so
  quadrature, the sinc tail, Irwin-Hall, the MC sampler and per-job CLI
  overhead dominate.

Inputs stay inside each command's supported domain.  Known failing inputs
are left out of the timed mixes; they remain open defects:

- `verify` with n - k >= 4, `sections --mode sinc --tol 1e-16` and
  `--trials 0` exit early; fixing them would turn fast exits into real
  work and read as a regression.
- `sections --mode exact` loses about 1e-8 to cancellation at n >= 14 when
  a normal coordinate is near 0.02, so the hyperplane normals here keep
  their coordinates within a factor 3 of each other.
- `grinberg --n 4 --k 2 --samples 1000` with a strongly anisotropic
  diagonal (2, 0.5, 3, 1/3) fails its 3-standard-error check on about one
  seed in ten, so the diagonals here are drawn from [0.7, 1.4].
"""

from __future__ import annotations

import json
import math
import os
import random

import numpy as np

WORKLOADS = ("sup-grid", "haar-average", "routes-xval")

# Stream layout of the CLI's per-trial densities: trial t of a `verify` or
# `rogozin` job draws its density from stream block t * 1024 of the job seed.
_TRIAL_STREAM_BLOCK = 1024

# sup-grid: (command, n, k, trials, piece combinations, jobs, jobs with
# --sup-range).  Each trial's density is drawn by the CLI from the job's
# --seed.  A trial's cost grows with the number of piece combinations per
# marginal evaluation (the product of its factors' piece counts), so the
# generator picks seeds whose trials sum to the listed number: every workload
# seed then asks the same amount of exact work.  Jobs are sized so that the
# median falls inside a cluster of similar jobs and the slowest quarter is
# the six `verify --n 4 --k 2` and `rogozin --n 3` jobs, whose cost varies
# least from seed to seed.
_SUP_GRID_JOBS = (
    ("verify", 3, 2, 5, 40, 3, 3),
    ("verify", 4, 2, 2, 32, 3, 2),
    ("verify", 5, 2, 1, 2, 3, 2),
    ("verify", 4, 1, 2, 32, 3, 2),
    ("rogozin", 3, 1, 24, 192, 3, 0),
    ("rogozin", 4, 1, 2, 32, 3, 0),
)
_SUP_RANGE = (0.5, 1.5)


def _cli_seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


def _combinations(seed: int, n: int, trials: int, limit: int) -> int:
    """Piece combinations summed over the trials a CLI seed gives (counting
    stops once the sum passes limit)."""
    from margbounds.densities import random_product_density

    total = 0
    for t in range(trials):
        f = random_product_density(seed, n, 3, 1.0, stream_base=t * _TRIAL_STREAM_BLOCK)
        total += math.prod(len(fi.pieces) for fi in f.factors)
        if total > limit:
            break
    return total


def _seed_with_combinations(rng: random.Random, n: int, trials: int, target: int) -> int:
    while True:
        seed = _cli_seed(rng)
        if _combinations(seed, n, trials, target) == target:
            return seed


def _step_density(rng: random.Random, pieces: int) -> dict:
    """Normalized step density on a fixed support with random inner cuts and
    heights, so every seed gives densities of similar geometry."""
    cuts = [-1.0] + sorted(rng.uniform(-0.6, 0.6) for _ in range(pieces - 1)) + [1.0]
    while min(b - a for a, b in zip(cuts, cuts[1:])) < 0.1:
        cuts = [-1.0] + sorted(rng.uniform(-0.6, 0.6) for _ in range(pieces - 1)) + [1.0]
    vals = [rng.uniform(0.2, 1.0) for _ in range(pieces)]
    mass = sum(v * (b - a) for v, a, b in zip(vals, cuts, cuts[1:]))
    vals = [v / mass for v in vals]
    stretch = max(1.0, max(vals))  # horizontal dilation keeps the mass
    rows = [
        [a * stretch, b * stretch, v / stretch]
        for v, a, b in zip(vals, cuts, cuts[1:])
    ]
    return {"pieces": rows}


def _unit_vector(rng: random.Random, n: int) -> list:
    """A random unit vector whose coordinates are within a factor 3 of each
    other in magnitude (see the module docstring)."""
    v = [rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.5) for _ in range(n)]
    norm = math.sqrt(sum(x * x for x in v))
    return [x / norm for x in v]


def _unit_volume_sides(rng: random.Random, n: int) -> list:
    """Box sides within a factor 2 of 1 and with product 1.

    Section volumes then stay near 1, the scale at which the 1e-8 absolute
    tolerance between the exact and sinc routes is stated.
    """
    logs = [rng.uniform(-0.7, 0.7) for _ in range(n)]
    mean = sum(logs) / n
    return [math.exp(x - mean) for x in logs]


def _subspace(rng: random.Random, n: int, k: int) -> dict:
    g = np.array([[rng.gauss(0.0, 1.0) for _ in range(k)] for _ in range(n)])
    q, r = np.linalg.qr(g)
    q = q * np.where(np.diag(r) < 0.0, -1.0, 1.0)[None, :]
    rows = [[float(f"{x:.17g}") for x in row] for row in q]
    return {"n": n, "k": k, "basis_rows": rows}


def _csv(values) -> str:
    return ",".join(repr(float(x)) for x in values)


def _volume_preserving_diag(rng: random.Random, n: int) -> list:
    """Diagonal with entries in [0.7, 1.4] scaled to determinant 1."""
    d = [rng.uniform(0.7, 1.4) for _ in range(n)]
    scale = math.exp(-sum(math.log(x) for x in d) / n)
    d = [x * scale for x in d]
    d[-1] = 1.0 / math.prod(d[:-1])
    return d


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1)


def _sup_grid(rng: random.Random, inputs_dir: str) -> list:
    jobs = []
    for cmd, n, k, trials, target, count, ranged in _SUP_GRID_JOBS:
        for i in range(count):
            seed = _seed_with_combinations(rng, n, trials, target)
            argv = [cmd, "--n", str(n)]
            if cmd == "verify":
                argv += ["--k", str(k)]
            argv += ["--trials", str(trials), "--seed", str(seed), "--workers", "1"]
            if i < ranged:
                argv += ["--sup-range=" + _csv(_SUP_RANGE)]
            jobs.append({"id": f"{cmd}-n{n}k{k}-{i}", "argv": argv})
    return jobs


def _haar_average(rng: random.Random, inputs_dir: str) -> list:
    # five jobs of each kind: the median falls among the `grinberg --k 2`
    # jobs and the slowest quarter among the `average --density` ones
    jobs = []
    for i in range(5):
        path = os.path.join(inputs_dir, f"density3-{i}.json")
        _write_json(path, {"factors": [_step_density(rng, 2) for _ in range(3)]})
        jobs.append({"id": f"average-density-n3k1-{i}", "argv": [
            "average", "--n", "3", "--k", "1", "--samples", "1000",
            "--density", path, "--seed", str(_cli_seed(rng))]})
        jobs.append({"id": f"grinberg-n4k2-{i}", "argv": [
            "grinberg", "--n", "4", "--k", "2", "--samples", "1000",
            "--diag=" + _csv(_volume_preserving_diag(rng, 4)),
            "--seed", str(_cli_seed(rng))]})
    # the vectorized k = 1 paths and small-ball: a minority of the jobs
    path = os.path.join(inputs_dir, "density2.json")
    _write_json(path, {"factors": [_step_density(rng, 3) for _ in range(2)]})
    jobs.append({"id": "average-density-n2k1", "argv": [
        "average", "--n", "2", "--k", "1", "--samples", "20000",
        "--density", path, "--seed", str(_cli_seed(rng))]})
    jobs.append({"id": "average-cube-n4k1", "argv": [
        "average", "--n", "4", "--k", "1", "--samples", "20000",
        "--seed", str(_cli_seed(rng))]})
    jobs.append({"id": "grinberg-n3k1", "argv": [
        "grinberg", "--n", "3", "--k", "1", "--samples", "20000",
        "--diag=" + _csv(_volume_preserving_diag(rng, 3)),
        "--seed", str(_cli_seed(rng))]})
    for n, k in ((3, 1), (4, 2)):
        jobs.append({"id": f"small-ball-n{n}k{k}", "argv": [
            "small-ball", "--n", str(n), "--k", str(k), "--trials", "4",
            "--samples", "5000", "--seed", str(_cli_seed(rng)), "--workers", "1"]})
    return jobs


def _routes_xval(rng: random.Random, inputs_dir: str) -> list:
    jobs = []
    # exact vs sinc on hyperplane sections: three boxes for each n up to 13,
    # one for n = 14..16 (16 is the sinc-tail guard; the tail costs 2^n terms)
    for n in [n for n in range(2, 14) for _ in range(3)] + [14, 15, 16]:
        sides = _unit_volume_sides(rng, n)
        normal = _unit_vector(rng, n)
        pair = f"hyper-{len(jobs) // 2}"
        for mode in ("exact", "sinc"):
            jobs.append({"id": f"sections-{mode}-n{n}-{pair}", "pair": pair, "argv": [
                "sections", "--mode", mode, "--sides=" + _csv(sides),
                "--normal=" + _csv(normal)]})
    # clipping (exact) vs Monte Carlo on k <= 3 dimensional sections
    for i, (n, k) in enumerate([(3, 1), (4, 2), (5, 2), (4, 3), (6, 3), (8, 3)]):
        sides = [rng.uniform(0.5, 2.0) for _ in range(n)]
        path = os.path.join(inputs_dir, f"subspace-{i}.json")
        _write_json(path, _subspace(rng, n, k))
        pair = f"sub-{i}"
        jobs.append({"id": f"sections-quadrature-n{n}k{k}", "pair": pair, "argv": [
            "sections", "--mode", "quadrature", "--sides=" + _csv(sides),
            "--subspace-file", path]})
        jobs.append({"id": f"sections-mc-n{n}k{k}", "pair": pair, "argv": [
            "sections", "--mode", "mc", "--sides=" + _csv(sides),
            "--subspace-file", path, "--samples", "20000",
            "--seed", str(_cli_seed(rng))]})
    # p = 2 sets the panel count, so every seed starts the curve there
    for i in range(2):
        jobs.append({"id": f"ball-integral-{i}", "argv": [
            "ball-integral", "--p-min", "2", "--p-max", repr(rng.uniform(10.0, 30.0)),
            "--steps", "3"]})
    for d, m in ((2, 4), (2, 5), (3, 4), (3, 5)):
        jobs.append({"id": f"bl-check-d{d}m{m}", "argv": [
            "bl-check", "--d", str(d), "--m", str(m), "--systems", "3",
            "--seed", str(_cli_seed(rng)), "--workers", "1"]})
    return jobs


_GENERATORS = {
    "sup-grid": _sup_grid,
    "haar-average": _haar_average,
    "routes-xval": _routes_xval,
}

# one small job per workload, run untimed before the timed rounds
_WARMUP = {
    "sup-grid": ["verify", "--n", "3", "--k", "2", "--trials", "1", "--seed", "1"],
    "haar-average": ["average", "--n", "3", "--k", "1", "--samples", "1000", "--seed", "1"],
    "routes-xval": ["sections", "--mode", "sinc", "--sides", "1,1,1",
                    "--normal", "0.6,0.64,0.48"],
}


def generate(name: str, seed: int, inputs_dir: str) -> dict:
    """Write the workload's input files and return its plan (warm-up + jobs)."""
    if name not in _GENERATORS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}:{seed}")
    os.makedirs(inputs_dir, exist_ok=True)
    return {"warmup": list(_WARMUP[name]), "jobs": _GENERATORS[name](rng, inputs_dir)}


# -- output checks ---------------------------------------------------------------

EXACT_SINC_ABS_TOL = 1e-8  # the acceptance tolerance for exact vs sinc sections
MC_SIGMAS = 4.0  # clipping and Monte Carlo must agree within 4 standard errors


def check_pairs(jobs: list, reports: dict) -> list:
    """Cross-route disagreements among paired `sections` jobs, as messages.

    `reports` maps job id to the parsed report of its first run.
    """
    groups: dict = {}
    for job in jobs:
        if "pair" in job:
            groups.setdefault(job["pair"], []).append(job["id"])
    problems = []
    for pair, ids in sorted(groups.items()):
        recs = {}
        for job_id in ids:
            report = reports.get(job_id)
            if report is None:
                problems.append(f"{pair}: no report from {job_id}")
                break
            rec = report["records"][0]
            recs[rec["mode"]] = rec
        else:
            if "exact" in recs:
                diff = abs(recs["exact"]["value"] - recs["sinc"]["value"])
                if not diff <= EXACT_SINC_ABS_TOL:
                    problems.append(f"{pair}: exact and sinc differ by {diff:.3e}")
            else:
                se = recs["mc"]["std_error"]
                diff = abs(recs["quadrature"]["value"] - recs["mc"]["value"])
                if not diff <= MC_SIGMAS * se:
                    problems.append(
                        f"{pair}: clipping and MC differ by {diff:.3e} (se {se:.3e})")
    return problems
