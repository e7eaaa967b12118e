"""Runs one workload's job mix in this process and writes a JSON result file.

    python3 perfbench/child.py PLAN RESULT --rounds R [--seconds S] [--trace FILE]

PLAN is the JSON plan written by run.py (warm-up argv plus jobs).  Every job
is a call to `margbounds.cli.main(argv + ["--out", report])` from this
single process; console output is captured and dropped.  Without --trace the
mix runs R times after one untimed warm-up job (fewer only if the rounds
overrun 3 x S seconds).  With --trace the functions of every margbounds
module are wrapped first, the mix runs once, and the spans go to FILE; a
traced pass always runs in a process of its own, so no wrapper can leak into
a timed run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _import_cli():
    """Import margbounds.cli from the checkout's src, not from anywhere else."""
    sys.path.insert(0, SRC)
    import margbounds
    import margbounds.cli

    origin = os.path.dirname(os.path.abspath(margbounds.__file__))
    if origin != os.path.join(SRC, "margbounds"):
        raise SystemExit(f"margbounds imported from {origin}, not from {SRC}")
    return margbounds, margbounds.cli


# Reference chunk: a fixed computation that does not touch margbounds.  The
# host's speed drifts by tens of percent within a minute, so the benchmark
# runs one chunk between jobs every REFERENCE_EVERY_S seconds and run.py
# scales the times measured next to them (see run.py).
REFERENCE_EVERY_S = 0.25
_REFERENCE_MATRIX = np.arange(12.0).reshape(4, 3) + 1.0


def reference_chunk() -> float:
    """Seconds taken by a fixed mix of interpreter work and small numpy calls."""
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(300):
        q, _ = np.linalg.qr(_REFERENCE_MATRIX + i)
        acc += float(q[0, 0])
        for j in range(40):
            acc += (j * 0.5) % 3.0
    return time.perf_counter() - t0


def run_job(cli, argv: list, report_path: str) -> tuple[int, float]:
    """(exit code, seconds) of one in-process CLI invocation."""
    sink = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = cli.main(argv + ["--out", report_path])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, time.perf_counter() - t0


def run_round(cli, jobs: list, reports_dir: str, sample: bool = True) -> dict:
    """Run every job once.

    Returns the wall time (reference chunks excluded), per-job latency, exit
    codes and report bytes, the reference chunk times, and for each job the
    index of the last chunk before it.
    """
    latency, codes, blobs, refs, ref_index = [], [], [], [], []
    last = None
    t0 = time.perf_counter()
    for i, job in enumerate(jobs):
        if sample and (last is None or time.perf_counter() - last >= REFERENCE_EVERY_S):
            refs.append(reference_chunk())
            last = time.perf_counter()
        ref_index.append(len(refs) - 1)
        path = os.path.join(reports_dir, f"{i:03d}.json")
        if os.path.exists(path):
            os.unlink(path)
        code, dt = run_job(cli, job["argv"], path)
        latency.append(dt)
        codes.append(code)
        try:
            with open(path, "rb") as fh:
                blobs.append(fh.read())
        except FileNotFoundError:
            blobs.append(b"")
    if sample:
        refs.append(reference_chunk())
    wall = time.perf_counter() - t0 - sum(refs)
    return {"wall_s": wall, "latency_s": latency, "codes": codes, "blobs": blobs,
            "reference_s": refs, "reference_index": ref_index}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("plan")
    ap.add_argument("result")
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", default=None)
    args = ap.parse_args(argv)

    margbounds, cli = _import_cli()
    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)
    jobs = plan["jobs"]
    reports_dir = os.path.join(os.path.dirname(args.plan), "reports")
    os.makedirs(reports_dir, exist_ok=True)

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.patch(margbounds)
    warm_code, _ = run_job(cli, plan["warmup"], os.path.join(reports_dir, "warmup.json"))

    reference_chunk()
    rounds = []
    start = time.perf_counter()
    if tracer is None:
        for r in range(args.rounds):
            if r >= 2 and time.perf_counter() - start > 3.0 * args.seconds:
                break
            rounds.append(run_round(cli, jobs, reports_dir))
        layers = None
    else:
        # chunks inside the traced round would count as benchmark time, so
        # the traced round is bracketed by them instead
        before = [reference_chunk() for _ in range(8)]
        tracer.reset()
        with tracer.root_span():
            rounds.append(run_round(cli, jobs, reports_dir, sample=False))
        tracer.restore()
        rounds[0]["reference_s"] = before + [reference_chunk() for _ in range(8)]
        layers = tracer.layer_metrics()
        tracer.write(args.trace)

    first = rounds[0]["blobs"]
    reports = {}
    for job, blob in zip(jobs, first):
        try:
            reports[job["id"]] = json.loads(blob)
        except ValueError:
            pass
    result = {
        "backend": margbounds.BACKEND,
        "margbounds_file": os.path.relpath(margbounds.__file__, os.path.dirname(HERE)),
        "versions": {m: sys.modules[m].__version__ for m in ("numpy", "scipy")},
        "warmup_code": warm_code,
        "rounds": [
            {
                "wall_s": r["wall_s"],
                "reference_s": r["reference_s"],
                "reference_index": r["reference_index"],
                "latency_s": r["latency_s"],
                "codes": r["codes"],
                "digests": [hashlib.sha256(b).hexdigest() for b in r["blobs"]],
                "report_bytes": sum(len(b) for b in r["blobs"]),
            }
            for r in rounds
        ],
        "failures": [len(rep.get("failures", [])) if (rep := reports.get(j["id"])) else -1
                     for j in jobs],
        "reports": reports,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": layers,
    }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
