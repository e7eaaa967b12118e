"""Command-line front end: verification campaigns with reproducible reports.

Every run is a pure function of its flags: randomness is counter-based from
the seed, trials are keyed by their index (so worker count never changes
results), and reports are written atomically with a stable schema.  The
wall-clock time is printed to the console but kept out of the report bytes,
which makes reports byte-identical across re-runs of the same config.

Only main turns an outcome into an exit code: 0 when every check passes, 1
when one fails or a route cannot certify a value (RouteLimitError,
ToleranceError, BlockTooWideError), 2 for a usage error (any other
ValueError), 3 for an input that cannot be read or an output that cannot be
written (OSError).  Subcommands raise; they never print "error:".
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
from json.encoder import encode_basestring_ascii

import numpy as np
# nothing here computes with scipy; the import only keeps scipy in
# sys.modules, where perfbench/child.py reads its __version__ for every
# benchmark record (a child without it fails after its jobs)
import scipy  # noqa: F401

from . import average, bounds, densities, grassmann, kernels, marginals, randomness, sections, slabgeom
from .quadrature import RouteLimitError, ToleranceError

REPORT_VERSION = "margbounds-report-1"

_TRIAL_STREAM_BLOCK = 1024  # per-trial stream namespace width


# -- report plumbing -----------------------------------------------------------


_FLOAT_NAMES = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(x) -> str:
    text = float.__repr__(x)
    return _FLOAT_NAMES.get(text, text)


# the text of each exact scalar type a report holds, as json writes it
_SCALAR_TEXT = {
    str: encode_basestring_ascii, float: _float_text, np.float64: _float_text, int: int.__repr__,
    bool: lambda x: "true" if x else "false", type(None): lambda _: "null",
}


def _json_text(obj, indent: str) -> str:
    """obj's JSON as json.dumps(obj, indent=2, sort_keys=True) writes it at
    nesting indent, with numpy scalars and arrays as the Python values they
    hold.  Raises TypeError for anything else, as json does."""
    to_text = _SCALAR_TEXT.get(type(obj))
    if to_text is not None:
        return to_text(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        brackets = "{}"
        parts = [encode_basestring_ascii(_key_text(key)) + ": " + _json_text(value, inner)
                 for key, value in sorted(obj.items())]
    elif isinstance(obj, (list, tuple, np.ndarray)):
        brackets = "[]"
        parts = [_json_text(value, inner) for value in (obj.tolist() if isinstance(obj, np.ndarray) else obj)]
    else:
        return _scalar_text(obj)
    if not parts:
        return brackets
    return brackets[0] + "\n" + inner + (",\n" + inner).join(parts) + "\n" + indent + brackets[1]


def _scalar_text(obj) -> str:
    """The text of a numpy scalar or of a subclass of a JSON scalar type."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return int.__repr__(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _float_text(float(obj))
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _key_text(key) -> str:
    """A dict key as json writes it, before quoting."""
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float_text(key)
    if key is True or key is False or key is None:
        return "null" if key is None else "true" if key else "false"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _write_text_atomic(path: str, text: str) -> None:
    """Write to a temp file in the target directory, then rename; the file
    gets the mode a plain open() would give it, 0o666 less the umask."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        try:
            umask = os.umask(0o022)  # the umask can only be read by setting it
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)
            data = memoryview(text.encode("utf-8"))
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_atomic(path: str, obj) -> None:
    """Sorted JSON indented by two spaces with a final newline, written
    atomically: json.dumps(obj, indent=2, sort_keys=True) + "\n" with numpy
    scalars and arrays as the Python values they hold, built in one pass."""
    _write_text_atomic(path, _json_text(obj, "") + "\n")


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


def _trial_densities(seed: int, n: int, trials, sup_lo: float, sup_hi: float) -> list:
    """The random product densities of trials, trial t's factors from the
    streams t * _TRIAL_STREAM_BLOCK + 1, ..., + n, all from one
    randomness.uniforms call, and its sup norms, when [lo, hi] is not
    [1, 1], drawn from [lo, hi] on stream t * _TRIAL_STREAM_BLOCK + 512, all
    from one more."""
    bases = np.array(trials, dtype=np.uint64) * np.uint64(_TRIAL_STREAM_BLOCK)
    fs = densities.random_product_densities(seed, n, bases)
    if sup_lo == 1.0 and sup_hi == 1.0:
        return fs
    targets = sup_lo + (sup_hi - sup_lo) * randomness.uniforms(seed, bases + np.uint64(512), 0, n)
    try:  # in Python floats, which leave the float range with no warning
        return [densities.ProductDensity([fi.dilated(c / fi.sup_norm()) for fi, c in zip(f.factors, row)])
                for f, row in zip(fs, targets.tolist())]
    except densities.DensityFormatError as exc:  # inf or 0.0 pieces
        raise RouteLimitError(f"sup norms in [{sup_lo:g}, {sup_hi:g}] dilate past the float range") from exc


def _trial_chunks(trials: int, workers: int) -> list:
    """_chunk_count contiguous ranges of trial indices, in order."""
    count = _chunk_count(trials, workers)
    edges = [trials * i // count for i in range(count + 1)]
    return [range(lo, hi) for lo, hi in zip(edges, edges[1:])]


def _trial_streams(trials) -> np.ndarray:
    """The streams of the Haar subspaces of trials: trial t draws from
    stream t * _TRIAL_STREAM_BLOCK + 513 of the seed."""
    return np.array([t * _TRIAL_STREAM_BLOCK + 513 for t in trials], dtype=np.uint64)


def _verify_trials(args) -> list:
    """The records of a chunk of verify trials, whose densities come from
    _trial_densities, subspaces from one haar_bases call and whose grid sups
    run in lockstep."""
    seed, n, k, tol, sup_lo, sup_hi, trials = args
    bases = grassmann.haar_bases(n, k, seed, _trial_streams(trials))
    cases = [(f, grassmann.Subspace(basis))
             for f, basis in zip(_trial_densities(seed, n, trials, sup_lo, sup_hi), bases)]
    records = marginals.verify_main_theorems(cases, tol)
    for t, rec in zip(trials, records):
        rec["trial"] = t
    return records


def _rogozin_trials(args) -> list:
    """The records of a chunk of rogozin trials, whose densities come from
    _trial_densities, directions from one haar_directions call and whose
    grid sups run in lockstep."""
    seed, n, tol, trials = args
    thetas = grassmann.haar_directions(n, 1, seed, _trial_streams(trials))[:, 0]
    cases = list(zip(_trial_densities(seed, n, trials, 1.0, 1.0), thetas))
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
    lhs, rhs = bounds.bl_check(system, fs)
    return {
        "trial": t,
        "lhs": lhs,
        "rhs": rhs,
        "pass": bool(lhs <= rhs * (1.0 + tol)),
    }


def _small_ball_trial(args) -> dict:
    seed, n, k, eps, samples, t = args
    base = t * _TRIAL_STREAM_BLOCK
    (f,) = _trial_densities(seed, n, [t], 1.0, 1.0)
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


def _finish(ns, config: dict, records: list, failures: list, summary: dict, curve=None) -> int:
    """Write curve, (rows, header), to --csv-out where both are set, then
    the report to --out where it is set, and print the console line; 0 with
    no failures, else 1."""
    csv_out, out = getattr(ns, "csv_out", None), getattr(ns, "out", None)
    if csv_out and curve:
        try:
            emit_curve(curve[0], csv_out, header=curve[1])
        except OSError as exc:
            raise OSError(f"cannot write CSV: {exc}") from exc
    if out:
        try:
            write_json_atomic(out, build_report(config, records, failures, summary))
        except OSError as exc:
            raise OSError(f"cannot write report: {exc}") from exc
    status = "PASS" if not failures else "FAIL"
    print(
        f"{ns.subcommand}: {status} ({len(records)} records, {len(failures)} failures)"
    )
    return 0 if not failures else 1


def _load_json(path: str):
    """The JSON value of the UTF-8 file at path: OSError where it cannot be
    opened, ValueError where it is not UTF-8 or holds no JSON text."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _read_input(path: str, what: str):
    """_load_json(path), or an OSError naming the file where that fails: an
    input that cannot be read is an I/O failure, not a bad flag."""
    try:
        return _load_json(path)
    except (OSError, ValueError) as exc:
        raise OSError(f"cannot read {what} file {path}: {exc}") from exc


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
            raise ValueError("--normal is required for exact/sinc modes")
        a = np.array(ns.normal)
        if not a.any():
            raise ValueError("--normal must not be the zero vector")
        # scaled by the power of two of its largest coordinate, exactly, so
        # that the norm neither overflows nor underflows; the norm sums the
        # squares in order (np.linalg.norm is a BLAS dot on a 1-D array)
        a = np.ldexp(a, -math.frexp(np.abs(a).max())[1])
        a = a / np.sqrt(kernels._sum_in_order(a * a))
        if ns.mode == "exact":
            value = sections.hyperplane_section_exact(box, a)
        else:
            value = sections.hyperplane_section_sinc(box, a, tol=ns.tol)
        record.update({"normal": a.tolist(), "value": value})
    else:
        if ns.subspace_file is None:
            raise ValueError("--subspace-file is required for quadrature/mc modes")
        h = grassmann.Subspace.from_json_dict(_read_input(ns.subspace_file, "subspace"))
        if ns.mode == "quadrature":
            value = sections.section_quadrature(box, h)
            record.update({"value": value})
        else:
            value, se = sections.section_mc(box, h, ns.samples, ns.seed)
            record.update({"value": value, "std_error": se})
    config = {"subcommand": "sections", "mode": ns.mode, "seed": ns.seed}
    return _finish(ns, config, [record], [], {"value": record["value"]})


def cmd_ball_integral(ns) -> int:
    if ns.steps == 1 and ns.p_max != ns.p_min:
        # one step evaluates --p-min alone, while the config records --p-max
        raise ValueError("--steps 1 evaluates --p-min alone; pass --steps >= 2 or "
                         "--p-max equal to --p-min")
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
    config = {"subcommand": "ball-integral", "p_min": ns.p_min, "p_max": ns.p_max,
              "steps": ns.steps, "tol": ns.tol}
    return _finish(ns, config, records, failures, {"min_margin": min(r["margin"] for r in records)},
                   curve=(rows, ("p", "integral", "bound", "margin")))


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
        f = densities.ProductDensity.from_json_dict(_read_input(ns.density, "density"))
        if f.n != ns.n:
            raise ValueError("density dimension does not match --n")
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
        raise ValueError("--diag must have n entries")
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
    config = {"subcommand": "small-ball", "n": ns.n, "k": ns.k, "eps": ns.eps,
              "samples": ns.samples, "trials": ns.trials, "seed": ns.seed}
    summary = {"max_estimate": max(r["estimate"] for r in records)}
    curve = ([(r["trial"], r["estimate"], r["bound"]) for r in records], ("trial", "estimate", "bound"))
    return _finish(ns, config, records, failures, summary, curve=curve)


def cmd_search_max(ns) -> int:
    n, k = ns.n, ns.k
    bound, _ = bounds.main_constant(n, k)
    unscored = 0
    if k == 1:
        cube = sections.unit_cube(n)

        def objective(bases):
            # a line the exact route loses to cancellation scores -inf: rejected
            nonlocal unscored
            try:
                return sections.hyperplane_section_exact(cube, bases[:, :, 0])
            except sections.CancellationError as exc:
                lost = np.isnan(exc.values)
                unscored += int(lost.sum())
                return np.where(lost, -math.inf, exc.values)
    elif n - k <= slabgeom.MAX_BLOCK:
        cube = [sections.box_pieces(sections.unit_cube(n))]

        def objective(bases):
            # section_quadrature's value of each complement, all in one call
            return slabgeom.sums_at_zero(grassmann.complement_bases(bases), cube)[0]
    else:
        raise slabgeom.BlockTooWideError(f"search-max needs k = 1 or n - k <= {slabgeom.MAX_BLOCK}")
    best, value = grassmann.grassmann_search_max(
        objective, n, k, ns.restarts, ns.steps, ns.seed
    )
    if best is None:
        raise RouteLimitError("the exact route certified no section the climb proposed")
    # a line can cancel inside the exact route's bracket, so k = 1 fails only
    # where best_value less its rounding bound exceeds the bound; the slab
    # route bounds no rounding yet (ROADMAP item 9)
    error = None
    if k == 1:
        error = float(sections.hyperplane_section_exact_bounded(cube, best.basis[:, 0])[1][0])
    rec = {
        "best_value": value,
        "bound": bound,
        "subspace": best.to_json_dict(),
        "unscored": unscored,
        "rounding_bound": error,
        "pass": bool(value * (1.0 - (error or 0.0)) <= bound * (1.0 + ns.tol)),
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
            data = _load_json(path)
        except OSError as exc:
            raise OSError(f"cannot read {path}: {exc}") from exc
        except ValueError as exc:  # not UTF-8, or no JSON text
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


def _number(convert, accept, expected: str):
    """The argparse type that reads convert(text) where accept holds of it,
    and is the usage error "expected {expected}, got {text!r}" otherwise."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value
    return parse


_positive_int = _number(int, lambda v: v >= 1, "a positive integer")
_positive_float = _number(float, lambda v: math.isfinite(v) and v > 0.0, "a finite positive number")
# the fewest samples of a Haar average or a small-ball estimate, and of a
# Monte Carlo section
_many_samples = _number(int, lambda v: v >= average.MIN_SAMPLES, f"a positive integer >= {average.MIN_SAMPLES}")
_mc_samples = _number(int, lambda v: v >= sections.MIN_MC_SAMPLES, f"a positive integer >= {sections.MIN_MC_SAMPLES}")
_sinc_power = _number(float, lambda v: math.isfinite(v) and v >= 2.0, "a finite number >= 2")
# randomness keeps only the low 64 bits, so a wider seed would alias
_seed = _number(int, lambda v: 0 <= v < 2**64, "an integer in [0, 2**64)")


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
    p.add_argument("--samples", type=_mc_samples, default=100000)
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
    p.add_argument("--samples", type=_many_samples, default=100000)
    p.add_argument("--density", type=str, default=None,
                   help="product density JSON; runs the paired comparison")
    common(p, workers=False)
    p.set_defaults(func=cmd_average, workers=1)

    p = sub.add_parser("grinberg", help="dual affine quermassintegral invariance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--diag", type=_floats_csv, required=True)
    p.add_argument("--samples", type=_many_samples, default=100000)
    common(p, workers=False)
    p.set_defaults(func=cmd_grinberg, workers=1)

    p = sub.add_parser("small-ball", help="projected small-ball probabilities vs the bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eps", type=_positive_float, default=0.05)
    p.add_argument("--samples", type=_many_samples, default=20000)
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
    except (ValueError, ToleranceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (slabgeom.BlockTooWideError, RouteLimitError, ToleranceError)):
            return 1  # valid flags, but the route cannot deliver a certified value
        return 2 if isinstance(exc, ValueError) else 3  # bad flags, or I/O
    print(f"elapsed: {1000.0 * (time.monotonic() - t0):.0f} ms", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
