"""Self-tests of the benchmark's helpers: python3 -m pytest perfbench"""

import inspect
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import margbounds  # noqa: E402
import margbounds.cli  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_tail_percentile_keeps_ten_samples_beyond():
    for count in range(1, 2000):
        pct = run.tail_percentile(count)
        if count < 20:
            assert pct is None
            continue
        assert count - math.ceil(pct / 100.0 * count) >= run.TAIL_MIN_BEYOND
        higher = [p for p in run.TAIL_LADDER if p > pct]
        if higher:
            assert count - math.ceil(higher[0] / 100.0 * count) < run.TAIL_MIN_BEYOND


def test_nearest_rank():
    values = list(range(1, 101))
    assert run.nearest_rank(values, 50.0) == 50
    assert run.nearest_rank(values, 90.0) == 90
    assert run.nearest_rank([7], 99.9) == 7


def test_self_time_subtracts_union_of_children():
    assert tracer.self_time(0, 100, []) == 100
    assert tracer.self_time(0, 100, [(10, 20), (30, 50)]) == 70
    # overlapping children count once
    assert tracer.self_time(0, 100, [(10, 40), (30, 60)]) == 50
    # parts of children outside the span do not count
    assert tracer.self_time(0, 100, [(-20, 10), (90, 130)]) == 80
    assert tracer.self_time(0, 100, [(0, 100), (20, 30)]) == 0


def _snapshot():
    modules = {name: dict(vars(mod)) for name, mod in sys.modules.items()
               if mod is not None and name.startswith("margbounds")}
    classes = {}
    for attrs in modules.values():
        for obj in attrs.values():
            if inspect.isclass(obj) and obj.__module__.startswith("margbounds"):
                classes[obj] = dict(vars(obj))
    return modules, classes


def test_patch_wraps_imported_names_and_restore_is_exact():
    before_modules, before_classes = _snapshot()
    original = margbounds.marginals.marginal_at
    t = tracer.Tracer()
    t.patch(margbounds)
    try:
        from margbounds import average, bounds, grassmann, marginals

        assert marginals.marginal_at is not original
        assert average.marginal_at is marginals.marginal_at
        assert bounds.orthonormal_complement is grassmann.orthonormal_complement
        assert marginals.orthonormal_complement is grassmann.orthonormal_complement
        assert average.haar_sample is grassmann.haar_sample
        t.reset()
        e = average.haar_sample(3, 2, 0)
        f = margbounds.cube_density(3)
        average.marginal_at(marginals.MarginalQuery(f, e, [0.0, 0.0]))
        assert t.calls["marginals.marginal_at"] == 1
        assert t.calls["grassmann.haar_sample"] == 1
        assert t.calls["grassmann.orthonormal_complement"] == 1
        assert t.calls["kernels.interval_length"] >= 1
    finally:
        t.restore()
    after_modules, after_classes = _snapshot()
    for name, attrs in before_modules.items():
        for key, value in attrs.items():
            assert after_modules[name][key] is value, f"{name}.{key} not restored"
    for cls, attrs in before_classes.items():
        for key, value in attrs.items():
            assert after_classes[cls][key] is value, f"{cls.__name__}.{key} not restored"


def test_traced_self_times_account_for_the_root_span():
    t = tracer.Tracer()
    t.patch(margbounds)
    try:
        t.reset()
        with t.root_span():
            margbounds.rogozin_check(margbounds.cube_density(3), [0.6, 0.64, 0.48])
    finally:
        t.restore()
    metrics = t.layer_metrics()
    shares = [v for k, v in metrics.items() if k.endswith(".self_frac")]
    assert len(shares) == len(tracer.LAYERS)
    assert sum(shares) == pytest.approx(1.0, rel=1e-9)
    assert metrics["marginals.grid_sup.calls"] == 1
    assert metrics["marginals.points_per_sup"] == metrics["marginals.marginal_at.calls"]
    # run.py adds the two metrics it measures outside the traced process
    declared = run.declared_metrics("per_layer")
    assert set(metrics) | {"cli.report_bytes", "trace.overhead_frac"} == set(declared)


@pytest.mark.parametrize("name", ["haar-average", "routes-xval"])
def test_generator_is_deterministic_in_the_seed(name, tmp_path):
    a = workloads.generate(name, 5, str(tmp_path / "a"))
    b = workloads.generate(name, 5, str(tmp_path / "b"))
    c = workloads.generate(name, 6, str(tmp_path / "c"))
    strip = [[x for x in job["argv"] if str(tmp_path) not in x] for job in a["jobs"]]
    assert strip == [[x for x in job["argv"] if str(tmp_path) not in x] for job in b["jobs"]]
    assert strip != [[x for x in job["argv"] if str(tmp_path) not in x] for job in c["jobs"]]
    for fname in os.listdir(tmp_path / "a"):
        assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()


def test_pair_check_flags_disagreement():
    jobs = [{"id": "e", "pair": "p"}, {"id": "s", "pair": "p"}]
    agree = {"e": {"records": [{"mode": "exact", "value": 1.0}]},
             "s": {"records": [{"mode": "sinc", "value": 1.0 + 1e-10}]}}
    assert workloads.check_pairs(jobs, agree) == []
    agree["s"]["records"][0]["value"] = 1.0 + 1e-6
    assert len(workloads.check_pairs(jobs, agree)) == 1
