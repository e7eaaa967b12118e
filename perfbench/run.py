"""Layered benchmark of margbounds' verification campaigns.

    python3 perfbench/run.py --workload {sup-grid,haar-average,routes-xval,all}
                             --seed N --seconds S --trace {0,1}

Runs from the root of a checkout, on the pure backend that the test suite
uses under PYTHONPATH=src.  The workload's inputs are generated from --seed
before any timing (see workloads.py), then a child process runs the fixed
job mix in-process through `margbounds.cli.main(argv)`, one job at a time.

--trace 0 measures the end-to-end metrics with tracing off: the mix runs
max(2, round(S / nominal round time)) times after one untimed warm-up job,
so sample counts do not depend on machine speed, and set-up time is the
median over fresh interpreters.  --trace 1 runs the mix once untraced and
once traced, each in its own process, and reports the per-layer metrics.

Times are reported at a nominal machine speed.  On a shared 2-core VM the
same job mix was measured 20% slower or faster from one minute to the next,
with identical inputs.  So the child runs a fixed reference chunk (numpy QR
and interpreter arithmetic, no margbounds code) between jobs every 0.25 s,
and every time measured next to those chunks is multiplied by
REFERENCE_NOMINAL_S / (mean chunk time): a round's wall time by the mean of
the round's chunks, a job's latency by the mean of the two chunks before and
the two after it.  On that VM this cut the spread of a repeated run's wall
time from 19% to 5%.  Raw medians are printed next to the scaled ones.
Peak RSS is not scaled.

Every output is checked: exit codes, each report's `failures`, cross-route
agreement on routes-xval, and identical report bytes across rounds and
between traced and untraced runs.  The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}; the lines before it give the
provenance, the report digests and each metric with its unit and sample
count.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import workloads
from child import reference_chunk

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

# Round lengths on a 2-core x86 machine with the pure backend; they only fix
# how many rounds a run of S seconds makes.
NOMINAL_ROUND_S = {"sup-grid": 9.0, "haar-average": 10.0, "routes-xval": 3.2}
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10
SETUP_REPEATS = 7
RUN_DEADLINE_S = 170.0
# A reference chunk's duration at the nominal machine speed (see the module
# docstring).
REFERENCE_NOMINAL_S = 0.010

SETUP_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import margbounds.cli\n"
    "margbounds.cli.build_parser()\n"
    "print(repr(time.perf_counter() - t0))\n"
)


# -- statistics ------------------------------------------------------------------


def nearest_rank(sorted_values: list, pct: float):
    """The pct-th percentile by the nearest-rank rule."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(count: int):
    """Highest ladder percentile with at least 10 samples beyond it, or None."""
    best = None
    for pct in TAIL_LADDER:
        rank = max(1, math.ceil(pct / 100.0 * count))
        if count - rank >= TAIL_MIN_BEYOND:
            best = pct
    return best


# -- processes -------------------------------------------------------------------


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run(cmd: list, deadline: float) -> subprocess.CompletedProcess:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run deadline exceeded")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"timed out: {' '.join(cmd[:3])}") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[:3])} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc


def scale(reference: list) -> float:
    """Factor that takes times measured next to these reference chunks to the
    nominal machine speed."""
    return REFERENCE_NOMINAL_S / statistics.mean(reference)


def measure_setup(deadline: float) -> tuple[list, list]:
    """(seconds, reference chunk seconds) for fresh interpreters importing
    margbounds.cli and building its parser; one untimed probe first, so
    bytecode caches exist, and a reference chunk before each probe."""
    cmd = [sys.executable, "-c", SETUP_PROBE]
    _run(cmd, deadline)
    reference_chunk()
    times, reference = [], []
    for _ in range(SETUP_REPEATS):
        reference.append(reference_chunk())
        times.append(float(_run(cmd, deadline).stdout.strip()))
    return times, reference


def run_child(plan_path: str, tag: str, deadline: float, rounds: int = 1,
              seconds: float = 0.0, trace: str | None = None) -> dict:
    result_path = os.path.join(os.path.dirname(plan_path), f"result-{tag}.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), plan_path, result_path,
           "--rounds", str(rounds), "--seconds", repr(seconds)]
    if trace:
        cmd += ["--trace", trace]
    _run(cmd, deadline)
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


# -- checks ----------------------------------------------------------------------


def failed_jobs(jobs: list, runs: list, pair_problems: list) -> tuple[int, int, list]:
    """(attempted, failed, messages) over every job execution in `runs`.

    A job execution fails on a nonzero exit, a non-empty report `failures`,
    a cross-route disagreement, or report bytes that differ from the
    reference (the first round of the first run).
    """
    reference = runs[0]["rounds"][0]["digests"]
    bad_pairs = {msg.split(":", 1)[0] for msg in pair_problems}
    messages = list(pair_problems)
    attempted = failed = 0
    for run in runs:
        for rnd in run["rounds"]:
            for i, job in enumerate(jobs):
                attempted += 1
                why = None
                if rnd["codes"][i] != 0:
                    why = f"exit {rnd['codes'][i]}"
                elif run["failures"][i] < 0:
                    why = "no report written"
                elif run["failures"][i] > 0:
                    why = f"report lists {run['failures'][i]} failures"
                elif rnd["digests"][i] != reference[i]:
                    why = "report bytes changed between repeats"
                elif job.get("pair") in bad_pairs:
                    why = "cross-route check failed"
                if why:
                    failed += 1
                    messages.append(f"{job['id']}: {why}")
        if run["warmup_code"] != 0:
            messages.append(f"warm-up job exited {run['warmup_code']}")
    return attempted, failed, messages


def declared_metrics(kind: str) -> dict:
    """{name: unit} of the metrics BENCHMARK.json declares, in its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


# -- one workload ----------------------------------------------------------------


def installed_copy():
    """Directory of a margbounds importable without src on the path, if any."""
    spec = importlib.util.find_spec("margbounds")
    if spec is None or not spec.origin:
        return None
    origin = os.path.dirname(os.path.abspath(spec.origin))
    return None if origin.startswith(SRC + os.sep) else origin


def provenance(child: dict, installed, load_start) -> dict:
    prov = {
        "backend": child["backend"],
        "margbounds_file": child["margbounds_file"],
        "installed_copy": installed,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": [round(x, 2) for x in load_start],
        "python": platform.python_version(),
        "numpy": child["versions"]["numpy"],
        "scipy": child["versions"]["scipy"],
    }
    if child["backend"] != "pure":
        prov["flag"] = f"backend is {child['backend']}, not the pure backend the tests run"
    elif installed:
        prov["flag"] = f"an installed margbounds at {installed} is shadowed by src"
    return prov


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float,
                 installed) -> dict:
    load_start = os.getloadavg()
    wdir = os.path.join(WORK, name)
    shutil.rmtree(wdir, ignore_errors=True)
    inputs = os.path.join(wdir, "inputs")
    plan = workloads.generate(name, seed, os.path.relpath(inputs, ROOT))
    plan_path = os.path.join(wdir, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh, indent=1)
    jobs = plan["jobs"]

    lines = []
    if not trace:
        setup, setup_reference = measure_setup(deadline)
        rounds = max(2, round(seconds / NOMINAL_ROUND_S[name]))
        plain = run_child(plan_path, "timed", deadline, rounds, seconds)
        runs = [plain]
        raw_walls = [r["wall_s"] for r in plain["rounds"]]
        walls = [r["wall_s"] * scale(r["reference_s"]) for r in plain["rounds"]]
        lat = sorted(1000.0 * x * scale(r["reference_s"][max(0, i - 1):i + 3])
                     for r in plain["rounds"]
                     for x, i in zip(r["latency_s"], r["reference_index"]))
        tail = tail_percentile(len(lat))
        metrics = {
            "wall_s": statistics.median(walls),
            "job_p50_ms": nearest_rank(lat, 50.0),
            "job_tail_ms": nearest_rank(lat, tail) if tail else max(lat),
            "peak_rss_mb": plain["peak_rss_mb"],
            "setup_s": statistics.median(setup) * scale(setup_reference),
        }
        samples = {"wall_s": f"{len(walls)} rounds, raw median {statistics.median(raw_walls):.4g} s",
                   "job_p50_ms": f"{len(lat)} jobs",
                   "job_tail_ms": f"{len(lat)} jobs, p{tail:g}" if tail else
                   f"{len(lat)} jobs, max (fewer than {TAIL_MIN_BEYOND} beyond p50)",
                   "peak_rss_mb": "1 process",
                   "setup_s": f"{len(setup)} interpreters, raw median {statistics.median(setup):.4g} s"}
        chunks = [x for r in plain["rounds"] for x in r["reference_s"]]
        lines.append(f"reference {name}: {len(chunks)} chunks, mean {statistics.mean(chunks):.6f} s "
                     f"(nominal {REFERENCE_NOMINAL_S} s)")
    else:
        plain = run_child(plan_path, "untraced", deadline)
        trace_path = os.path.join(wdir, "trace.jsonl")
        traced = run_child(plan_path, "traced", deadline, trace=trace_path)
        runs = [plain, traced]
        metrics = layers = dict(traced["layers"])
        layers["cli.report_bytes"] = traced["rounds"][0]["report_bytes"]
        untraced = plain["rounds"][0]
        layers["trace.wall_s"] *= scale(traced["rounds"][0]["reference_s"])
        layers["trace.overhead_frac"] = (
            layers["trace.wall_s"] / (untraced["wall_s"] * scale(untraced["reference_s"])) - 1.0)
        shares = {k: v for k, v in layers.items() if k.endswith(".self_frac")}
        lines.append(f"trace: {os.path.relpath(trace_path, ROOT)}; layer self-time shares "
                     f"(the benchmark's own included) sum to {sum(shares.values()):.6f}")
        for key, share in shares.items():
            lines.append(f"self-time {name} {key.split('.')[0]} = "
                         f"{share * layers['trace.wall_s']:.6f} s")
        samples = {k: "1 traced round" for k in metrics}

    declared = declared_metrics("per_layer" if trace else "end_to_end")
    if set(metrics) != set(declared):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(declared))} do not match "
                         "BENCHMARK.json")

    pair_problems = workloads.check_pairs(jobs, plain["reports"])
    attempted, failed, messages = failed_jobs(jobs, runs, pair_problems)
    prov = provenance(plain, installed, load_start)
    lines.insert(0, "provenance " + json.dumps(prov, sort_keys=True))
    for job, digest in zip(jobs, plain["rounds"][0]["digests"]):
        lines.append(f"digest {name} {job['id']} {digest}")
    lines += [f"problem {name} {m}" for m in messages]
    for key, unit in declared.items():
        lines.append(f"metric {name} {key} = {metrics[key]:.6g} {unit} ({samples[key]})")
    if not trace:
        lines.append(f"metric {name} failed_frac = {failed / attempted:.6g} "
                     f"({attempted} job runs)")
    return {
        "lines": lines,
        "correct": failed == 0 and not messages,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in declared.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "margbounds", "cli.py")):
        print(f"error: no margbounds sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    installed = installed_copy()
    sys.path.insert(1, SRC)
    deadline = time.monotonic() + RUN_DEADLINE_S
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if len(names) > 1:
        deadline += RUN_DEADLINE_S * (len(names) - 1)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                         deadline, installed)
            print("\n".join(results[name]["lines"]), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
