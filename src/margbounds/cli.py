"""Command-line front end: verification campaigns with reproducible reports.

Every run is a pure function of its flags: randomness is counter-based from
the seed, trials are keyed by their index (so worker count never changes
results), and reports are written atomically with a stable schema.  The
wall-clock time is printed to the console but kept out of the report bytes,
which makes reports byte-identical across re-runs of the same config.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import functools
import json
import math
import os
import sys
import tempfile
import time

import numpy as np
# nothing here computes with scipy; the import only keeps scipy in
# sys.modules, where perfbench/child.py reads its __version__ for every
# benchmark record (a child without it fails after its jobs)
import scipy  # noqa: F401

from . import average, bounds, densities, grassmann, marginals, sections, slabgeom
from .quadrature import RouteLimitError, ToleranceError

REPORT_VERSION = "margbounds-report-1"

_TRIAL_STREAM_BLOCK = 1024  # per-trial stream namespace width


# -- report plumbing -----------------------------------------------------------


def _plain(obj):
    """Recursively convert numpy scalars/arrays so json can serialize."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    return obj


def _write_text_atomic(path: str, text: str) -> None:
    """Write to a temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_atomic(path: str, obj) -> None:
    """Sorted, indented JSON with a final newline, written atomically."""
    _write_text_atomic(path, json.dumps(_plain(obj), indent=2, sort_keys=True) + "\n")


def emit_curve(points, path: str, header=("x", "y")) -> None:
    """CSV emission: header row, 17-significant-digit values, LF endings."""
    points = list(points)
    if not points:
        raise ValueError("emit_curve needs at least one point")
    width = len(header)
    lines = [",".join(header)]
    for row in points:
        if len(row) != width:
            raise ValueError("row width does not match header")
        lines.append(",".join(f"{float(v):.17g}" for v in row))
    _write_text_atomic(path, "\n".join(lines) + "\n")


def build_report(config: dict, records: list, failures: list, summary: dict) -> dict:
    return {
        "version": REPORT_VERSION,
        "config": config,
        "records": records,
        "failures": failures,
        "summary": summary,
        "runtime_ms": None,  # printed to the console, never persisted
    }


def _chunk_count(items: int, workers: int) -> int:
    """How many chunks items tasks split into: one at a single worker, about
    4 per worker otherwise, so a slow chunk does not leave the others idle."""
    return 1 if workers <= 1 else max(1, min(items, 4 * workers))


def _pmap(fn, args_list, workers: int) -> list:
    """Order-preserving map; results are independent of the worker count."""
    if workers <= 1 or len(args_list) <= 1:
        return [fn(a) for a in args_list]
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        chunk = len(args_list) // _chunk_count(len(args_list), workers)
        return list(pool.map(fn, args_list, chunksize=chunk))


# -- per-trial workers (top level so they pickle) -------------------------------


def _trial_density(seed: int, n: int, t: int, sup_lo: float, sup_hi: float):
    """Random product density for trial t; sup norms drawn from [lo, hi]."""
    base = t * _TRIAL_STREAM_BLOCK
    f = densities.random_product_density(seed, n, 3, 1.0, stream_base=base)
    if sup_lo == 1.0 and sup_hi == 1.0:
        return f
    from . import randomness

    u = randomness.uniforms(seed, base + 512, 0, n)
    targets = sup_lo + (sup_hi - sup_lo) * u
    factors = [fi.dilated(c / fi.sup_norm()) for fi, c in zip(f.factors, targets)]
    return densities.ProductDensity(factors)


def _trial_chunks(trials: int, workers: int) -> list:
    """_chunk_count contiguous ranges of trial indices, in order."""
    count = _chunk_count(trials, workers)
    edges = [trials * i // count for i in range(count + 1)]
    return [range(lo, hi) for lo, hi in zip(edges, edges[1:])]


def _verify_trials(args) -> list:
    """The records of a chunk of verify trials, whose grid sups run in
    lockstep."""
    seed, n, k, tol, sup_lo, sup_hi, trials = args
    cases = [
        (_trial_density(seed, n, t, sup_lo, sup_hi),
         grassmann.haar_sample(n, k, seed, stream=t * _TRIAL_STREAM_BLOCK + 513))
        for t in trials
    ]
    records = marginals.verify_main_theorems(cases, tol)
    for t, rec in zip(trials, records):
        rec["trial"] = t
    return records


def _rogozin_trials(args) -> list:
    """The records of a chunk of rogozin trials, whose grid sups run in
    lockstep."""
    seed, n, tol, trials = args
    cases = [
        (_trial_density(seed, n, t, 1.0, 1.0),
         grassmann.haar_directions(n, 1, seed, stream=t * _TRIAL_STREAM_BLOCK + 513)[0])
        for t in trials
    ]
    return [
        {
            "trial": t,
            "sup_lower_bound": float(sup_lb),
            "cube_section": float(cube_section),
            "pass": bool(sup_lb <= cube_section * (1.0 + tol)),
        }
        for t, (sup_lb, cube_section) in zip(trials, marginals.rogozin_checks(cases, tol))
    ]


def _bl_trial(args) -> dict:
    seed, d, m, tol, t = args
    base = t * _TRIAL_STREAM_BLOCK
    system = bounds.random_bl_system(seed, d, m, stream=base)
    factors = densities.random_product_density(seed, m, 3, 1e9, stream_base=base).factors
    fs = [f.shifted(-f.support_midpoint()) for f in factors]  # center so slabs overlap
    lhs, rhs = bounds.bl_check(system, fs, tol)
    return {
        "trial": t,
        "lhs": lhs,
        "rhs": rhs,
        "pass": bool(lhs <= rhs * (1.0 + tol)),
    }


def _small_ball_trial(args) -> dict:
    seed, n, k, eps, samples, t = args
    base = t * _TRIAL_STREAM_BLOCK
    f = _trial_density(seed, n, t, 1.0, 1.0)
    e = grassmann.haar_sample(n, k, seed, stream=base + 513)
    z = e.basis.T @ f.support_midpoints()
    est, se, bound = marginals.small_ball(f, e, z, eps, samples, seed, stream=base + 514)
    return {
        "trial": t,
        "estimate": est,
        "std_error": se,
        "bound": bound,
        "saturated": bool(bound > 1.0),
        "pass": bool(est <= bound + 3.0 * se),
    }


# -- subcommands ----------------------------------------------------------------


def _finish(ns, config: dict, records: list, failures: list, summary: dict) -> int:
    report = build_report(config, records, failures, summary)
    out = getattr(ns, "out", None)
    if out:
        try:
            write_json_atomic(out, report)
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 3
    status = "PASS" if not failures else "FAIL"
    print(
        f"{ns.subcommand}: {status} ({len(records)} records, {len(failures)} failures)"
    )
    return 0 if not failures else 1


def cmd_verify(ns) -> int:
    sup_lo, sup_hi = ns.sup_range
    args = [(ns.seed, ns.n, ns.k, ns.tol, sup_lo, sup_hi, chunk)
            for chunk in _trial_chunks(ns.trials, ns.workers)]
    records = [rec for chunk in _pmap(_verify_trials, args, ns.workers) for rec in chunk]
    failures = [r["trial"] for r in records if not r["pass"]]
    summary = {
        "max_slack": max(r["slack"] for r in records),
        "min_slack": min(r["slack"] for r in records),
    }
    config = {
        "subcommand": "verify", "n": ns.n, "k": ns.k, "trials": ns.trials,
        "seed": ns.seed, "tol": ns.tol, "sup_range": [sup_lo, sup_hi],
    }
    return _finish(ns, config, records, failures, summary)


def cmd_rogozin(ns) -> int:
    args = [(ns.seed, ns.n, ns.tol, chunk) for chunk in _trial_chunks(ns.trials, ns.workers)]
    records = [rec for chunk in _pmap(_rogozin_trials, args, ns.workers) for rec in chunk]
    failures = [r["trial"] for r in records if not r["pass"]]
    summary = {
        "max_ratio": max(r["sup_lower_bound"] / r["cube_section"] for r in records)
    }
    config = {
        "subcommand": "rogozin", "n": ns.n, "trials": ns.trials,
        "seed": ns.seed, "tol": ns.tol,
    }
    return _finish(ns, config, records, failures, summary)


def cmd_sections(ns) -> int:
    sides = np.array(ns.sides)
    box = sections.Box(sides)
    record: dict = {"mode": ns.mode, "sides": list(ns.sides)}
    if ns.mode in ("exact", "sinc"):
        if ns.normal is None:
            print("error: --normal is required for exact/sinc modes", file=sys.stderr)
            return 2
        a = np.array(ns.normal)
        norm = np.linalg.norm(a)
        if norm == 0.0:
            print("error: --normal must not be the zero vector", file=sys.stderr)
            return 2
        a = a / norm
        if ns.mode == "exact":
            value = sections.hyperplane_section_exact(box, a)
        else:
            value = sections.hyperplane_section_sinc(box, a, tol=ns.tol)
        record.update({"normal": [float(x) for x in a], "value": value})
    else:
        if ns.subspace_file is None:
            print("error: --subspace-file is required for quadrature/mc modes", file=sys.stderr)
            return 2
        try:
            h = grassmann.Subspace.from_json_file(ns.subspace_file)
        except OSError as exc:
            print(f"error: cannot read subspace: {exc}", file=sys.stderr)
            return 3
        if ns.mode == "quadrature":
            value = sections.section_quadrature(box, h)
            record.update({"value": value})
        else:
            value, se = sections.section_mc(box, h, ns.samples, ns.seed)
            record.update({"value": value, "std_error": se})
    config = {"subcommand": "sections", "mode": ns.mode, "seed": ns.seed}
    return _finish(ns, config, [record], [], {"value": record["value"]})


def cmd_ball_integral(ns) -> int:
    ps = np.linspace(ns.p_min, ns.p_max, ns.steps)
    rows = []
    records = []
    failures = []
    for p in ps:
        p = float(p)
        value = bounds.ball_integral(p, ns.tol)
        bound = math.sqrt(2.0 / p)
        margin = bound - value
        rows.append((p, value, bound, margin))
        rec = {"p": p, "value": value, "bound": bound, "margin": margin,
               "pass": bool(value <= bound + ns.tol)}
        records.append(rec)
        if not rec["pass"]:
            failures.append(p)
    if ns.csv_out:
        try:
            emit_curve(rows, ns.csv_out, header=("p", "integral", "bound", "margin"))
        except OSError as exc:
            print(f"error: cannot write CSV: {exc}", file=sys.stderr)
            return 3
    config = {"subcommand": "ball-integral", "p_min": ns.p_min, "p_max": ns.p_max,
              "steps": ns.steps, "tol": ns.tol}
    return _finish(ns, config, records, failures, {"min_margin": min(r["margin"] for r in records)})


def cmd_bl_check(ns) -> int:
    args = [(ns.seed, ns.d, ns.m, ns.tol, t) for t in range(ns.systems)]
    records = _pmap(_bl_trial, args, ns.workers)
    # Gaussian equality case on the fixed equiangular system
    sys_m = bounds.mercedes_system()
    lhs, rhs = bounds.bl_check(sys_m, [bounds.GaussianDensity()] * 3)
    records.append({
        "trial": "gaussian-equality",
        "lhs": lhs,
        "rhs": rhs,
        "pass": bool(abs(lhs - rhs) <= 1e-6),
    })
    failures = [r["trial"] for r in records if not r["pass"]]
    config = {"subcommand": "bl-check", "d": ns.d, "m": ns.m,
              "systems": ns.systems, "seed": ns.seed, "tol": ns.tol}
    summary = {"max_ratio": max(r["lhs"] / r["rhs"] for r in records)}
    return _finish(ns, config, records, failures, summary)


def cmd_average(ns) -> int:
    if ns.density:
        try:
            f = densities.ProductDensity.from_json_file(ns.density)
        except OSError as exc:
            print(f"error: cannot read density: {exc}", file=sys.stderr)
            return 3
        if f.n != ns.n:
            print("error: density dimension does not match --n", file=sys.stderr)
            return 2
        rec = average.prop_avg_check(f, ns.k, ns.samples, seed=ns.seed)
        failures = [] if rec["pass"] else ["prop-avg"]
        summary = {"lhs": rec["lhs"], "rhs": rec["rhs"]}
        records = [rec]
    else:
        g = average.cube_avg_power(ns.n, ns.k, ns.samples, seed=ns.seed)
        records = [g.to_json_dict()]
        failures = []
        summary = {"estimate": g.estimate, "std_error": g.std_error}
    config = {"subcommand": "average", "n": ns.n, "k": ns.k, "samples": ns.samples,
              "seed": ns.seed, "density": ns.density}
    return _finish(ns, config, records, failures, summary)


def cmd_grinberg(ns) -> int:
    diag = list(ns.diag)
    if len(diag) != ns.n:
        print("error: --diag must have n entries", file=sys.stderr)
        return 2
    rec = average.grinberg_check(diag, ns.n, ns.k, ns.samples, seed=ns.seed)
    failures = [] if rec["pass"] else ["grinberg"]
    config = {"subcommand": "grinberg", "n": ns.n, "k": ns.k, "diag": diag,
              "samples": ns.samples, "seed": ns.seed}
    summary = {"difference": rec["difference"], "combined_se": rec["combined_se"]}
    return _finish(ns, config, [rec], failures, summary)


def cmd_small_ball(ns) -> int:
    args = [(ns.seed, ns.n, ns.k, ns.eps, ns.samples, t) for t in range(ns.trials)]
    records = _pmap(_small_ball_trial, args, ns.workers)
    failures = [r["trial"] for r in records if not r["pass"]]
    if ns.csv_out:
        rows = [(r["trial"], r["estimate"], r["bound"]) for r in records]
        try:
            emit_curve(rows, ns.csv_out, header=("trial", "estimate", "bound"))
        except OSError as exc:
            print(f"error: cannot write CSV: {exc}", file=sys.stderr)
            return 3
    config = {"subcommand": "small-ball", "n": ns.n, "k": ns.k, "eps": ns.eps,
              "samples": ns.samples, "trials": ns.trials, "seed": ns.seed}
    summary = {"max_estimate": max(r["estimate"] for r in records)}
    return _finish(ns, config, records, failures, summary)


def cmd_search_max(ns) -> int:
    n, k = ns.n, ns.k
    bound, _ = bounds.main_constant(n, k)
    if k == 1:
        cube = sections.unit_cube(n)

        def objective(bases):
            # cube_hyperplane_section of each line, in one call when no line
            # has a zero coordinate to factor out
            thetas = bases[:, :, 0]
            if (np.abs(thetas) > sections.ZERO_COORD_TOL).all():
                return sections.hyperplane_section_exact(cube, thetas)
            return np.array([marginals.cube_hyperplane_section(theta) for theta in thetas])
    elif n - k <= 3:
        cube = [sections.box_pieces(sections.unit_cube(n))]

        def objective(bases):
            # section_quadrature's value of each complement, all in one call
            return slabgeom.sums_at_zero(grassmann.complement_bases(bases), cube)[0]
    else:
        raise slabgeom.BlockTooWideError("search-max needs k = 1 or n - k <= 3")
    best, value = grassmann.grassmann_search_max(
        objective, n, k, ns.restarts, ns.steps, ns.seed
    )
    rec = {
        "best_value": value,
        "bound": bound,
        "subspace": best.to_json_dict(),
        "pass": bool(value <= bound * (1.0 + ns.tol)),
    }
    failures = [] if rec["pass"] else ["search-max"]
    config = {"subcommand": "search-max", "n": n, "k": k, "restarts": ns.restarts,
              "steps": ns.steps, "seed": ns.seed, "tol": ns.tol}
    return _finish(ns, config, [rec], failures, {"best_value": value, "bound": bound})


def cmd_densities_validate(ns) -> int:
    records = []
    failures = []
    for path in ns.files:
        rec: dict = {"path": path}
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            print(f"error: cannot read {path}: {exc}", file=sys.stderr)
            return 3
        except json.JSONDecodeError as exc:
            rec.update({"valid": False, "error": f"invalid JSON: {exc}"})
            records.append(rec)
            failures.append(path)
            continue
        try:
            if isinstance(data, dict) and "factors" in data:
                f = densities.ProductDensity.from_json_dict(data)
                rec.update({
                    "valid": True, "kind": "product", "n": f.n,
                    "sup_norms": [fi.sup_norm() for fi in f.factors],
                    "normalized": all(fi.is_normalized(1e-9) for fi in f.factors),
                    "in_class": f.in_class_f(),
                })
            else:
                f1 = densities.StepDensity.from_json_dict(data)
                rec.update({
                    "valid": True, "kind": "step",
                    "l1_norm": f1.l1_norm(), "sup_norm": f1.sup_norm(),
                    "normalized": f1.is_normalized(1e-9),
                })
        except densities.DensityFormatError as exc:
            rec.update({"valid": False, "error": str(exc)})
            failures.append(path)
        records.append(rec)
    config = {"subcommand": "densities-validate", "files": list(ns.files)}
    return _finish(ns, config, records, failures, {"checked": len(records)})


# -- argument parsing ------------------------------------------------------------


def _floats_csv(text: str) -> list:
    values = [float(x) for x in text.split(",") if x.strip() != ""]
    if not all(math.isfinite(v) for v in values):
        raise argparse.ArgumentTypeError(f"expected finite numbers, got {text!r}")
    return values


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"expected a finite positive number, got {text!r}")
    return value


def _sinc_power(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 2.0):
        raise argparse.ArgumentTypeError(f"expected a finite number >= 2, got {text!r}")
    return value


def _seed(text: str) -> int:
    # randomness keeps only the low 64 bits, so a wider seed would alias
    try:
        value = int(text)
    except ValueError:
        value = -1
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"expected an integer in [0, 2**64), got {text!r}")
    return value


def _sup_range(text: str) -> tuple:
    parts = _floats_csv(text)
    if len(parts) != 2 or parts[0] <= 0.0 or parts[1] < parts[0]:
        raise argparse.ArgumentTypeError("expected lo,hi with 0 < lo <= hi")
    return parts[0], parts[1]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="margbounds",
        description="Numerical verification of sharp marginal-density and cube-section bounds.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, workers=True):
        p.add_argument("--seed", type=_seed, default=0)
        p.add_argument("--out", type=str, default=None, help="JSON report path")
        if workers:
            p.add_argument("--workers", type=_positive_int, default=1)

    p = sub.add_parser("verify", help="marginal sup vs the product bound on random instances")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--tol", type=_positive_float, default=1e-4)
    p.add_argument("--sup-range", type=_sup_range, default=(1.0, 1.0),
                   help="lo,hi range for factor sup norms (default unit)")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("rogozin", help="line-marginal sup vs the central cube section")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--tol", type=_positive_float, default=1e-4)
    common(p)
    p.set_defaults(func=cmd_rogozin)

    p = sub.add_parser("sections", help="one box-section volume by a chosen route")
    p.add_argument("--mode", choices=("exact", "sinc", "quadrature", "mc"), required=True)
    p.add_argument("--sides", type=_floats_csv, required=True)
    p.add_argument("--normal", type=_floats_csv, default=None)
    p.add_argument("--subspace-file", type=str, default=None)
    p.add_argument("--samples", type=_positive_int, default=100000)
    p.add_argument("--tol", type=_positive_float, default=1e-9)
    common(p, workers=False)
    p.set_defaults(func=cmd_sections, workers=1)

    p = sub.add_parser("ball-integral", help="sinc-power integrals against sqrt(2/p)")
    p.add_argument("--p-min", type=_sinc_power, default=2.0)
    p.add_argument("--p-max", type=_sinc_power, default=100.0)
    p.add_argument("--steps", type=_positive_int, default=50)
    p.add_argument("--tol", type=_positive_float, default=1e-9)
    p.add_argument("--csv-out", type=str, default=None)
    common(p, workers=False)
    p.set_defaults(func=cmd_ball_integral, workers=1)

    p = sub.add_parser("bl-check", help="Brascamp-Lieb inequality on random tight frames")
    p.add_argument("--d", type=_positive_int, default=2)
    p.add_argument("--m", type=_positive_int, default=4)
    p.add_argument("--systems", type=_positive_int, default=100)
    p.add_argument("--tol", type=_positive_float, default=1e-6)
    common(p)
    p.set_defaults(func=cmd_bl_check)

    p = sub.add_parser("average", help="Grassmannian average of marginal powers")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--samples", type=_positive_int, default=100000)
    p.add_argument("--density", type=str, default=None,
                   help="product density JSON; runs the paired comparison")
    common(p, workers=False)
    p.set_defaults(func=cmd_average, workers=1)

    p = sub.add_parser("grinberg", help="dual affine quermassintegral invariance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--diag", type=_floats_csv, required=True)
    p.add_argument("--samples", type=_positive_int, default=100000)
    common(p, workers=False)
    p.set_defaults(func=cmd_grinberg, workers=1)

    p = sub.add_parser("small-ball", help="projected small-ball probabilities vs the bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eps", type=_positive_float, default=0.05)
    p.add_argument("--samples", type=_positive_int, default=20000)
    p.add_argument("--trials", type=_positive_int, default=20)
    p.add_argument("--csv-out", type=str, default=None)
    common(p)
    p.set_defaults(func=cmd_small_ball)

    p = sub.add_parser("search-max", help="random-restart search for extremal subspaces")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--restarts", type=_positive_int, default=8)
    p.add_argument("--steps", type=_positive_int, default=200)
    p.add_argument("--tol", type=_positive_float, default=1e-6)
    common(p, workers=False)
    p.set_defaults(func=cmd_search_max, workers=1)

    p = sub.add_parser("densities-validate", help="validate step/product density JSON files")
    p.add_argument("files", nargs="+")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_densities_validate, workers=1, seed=0)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # One parser per process.  Safe while every default stays immutable:
    # parse_args returns a fresh Namespace on every call, and argparse looks
    # up sys.stderr only when it reports an error.
    return build_parser()


def main(argv=None) -> int:
    ns = _parser().parse_args(argv)
    t0 = time.monotonic()
    try:
        code = ns.func(ns)
    except (slabgeom.BlockTooWideError, RouteLimitError, ToleranceError) as exc:
        # valid flags, but the route cannot deliver a certified value
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"elapsed: {1000.0 * (time.monotonic() - t0):.0f} ms", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
