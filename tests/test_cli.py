import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import margbounds
from margbounds import cli
from margbounds.densities import random_product_density
from margbounds.quadrature import RouteLimitError


def run(args):
    return cli.main(args)


def _plain(obj):
    """The report tree as json.dumps sees it: numpy scalars and arrays as
    the Python values they hold (the writer's reference)."""
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


def _stdlib_bytes(obj) -> bytes:
    return (json.dumps(_plain(obj), indent=2, sort_keys=True) + "\n").encode("utf-8")


@pytest.fixture(autouse=True)
def reports_have_the_stdlib_bytes(monkeypatch):
    """Every report a test here writes has json.dumps's bytes; returns the
    list of the objects written."""
    written = []
    real_write = cli.write_json_atomic

    def checked_write(path, obj):
        real_write(path, obj)
        with open(path, "rb") as fh:
            assert fh.read() == _stdlib_bytes(obj)
        written.append(obj)

    monkeypatch.setattr(cli, "write_json_atomic", checked_write)
    return written


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run(["verify"])  # missing required flags
    assert exc.value.code == 2


def test_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2


def test_verify_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run(["verify", "--n", "3", "--k", "1", "--trials", "10", "--seed", "1",
                "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["version"] == cli.REPORT_VERSION
    assert len(report["records"]) == 10
    assert report["failures"] == []
    assert report["runtime_ms"] is None
    assert report["config"]["seed"] == 1


def test_verify_reports_byte_identical_across_workers(tmp_path):
    out1 = tmp_path / "w1.json"
    out8 = tmp_path / "w8.json"
    base = ["verify", "--n", "4", "--k", "2", "--trials", "16", "--seed", "9"]
    assert run(base + ["--workers", "1", "--out", str(out1)]) == 0
    assert run(base + ["--workers", "8", "--out", str(out8)]) == 0
    assert out1.read_bytes() == out8.read_bytes()


@pytest.mark.parametrize("base", [["verify", "--n", "4", "--k", "1"], ["rogozin", "--n", "4"]])
def test_trial_chunks_leave_the_bytes_alone(base, tmp_path):
    # one lockstep chunk of 13 trials at --workers 1; 8 and 12 chunks at 2
    # and 3, some of them holding two trials that run in lockstep in a worker
    for workers in (2, 3):
        assert max(len(chunk) for chunk in cli._trial_chunks(13, workers)) == 2
    blobs = []
    for workers in ("1", "2", "3"):
        out = tmp_path / f"w{workers}.json"
        assert run(base + ["--trials", "13", "--seed", "5", "--workers", workers,
                           "--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]
    assert [r["trial"] for r in json.loads(blobs[0])["records"]] == list(range(13))


def test_trial_chunks_are_contiguous_and_in_order():
    for trials in range(1, 30):
        for workers in range(1, 5):
            chunks = cli._trial_chunks(trials, workers)
            assert [t for chunk in chunks for t in chunk] == list(range(trials))
            assert len(chunks) == (1 if workers == 1 else min(trials, 4 * workers))


def test_verify_reports_byte_identical_across_runs(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    base = ["rogozin", "--n", "3", "--trials", "8", "--seed", "4"]
    assert run(base + ["--out", str(out1)]) == 0
    assert run(base + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sections_exact_value(tmp_path):
    out = tmp_path / "s.json"
    code = run(["sections", "--mode", "exact", "--sides", "1,1",
                "--normal", "0.7071067811865476,0.7071067811865476",
                "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["summary"]["value"] == pytest.approx(math.sqrt(2.0), abs=1e-8)


@pytest.mark.parametrize("sides, normal", [("1,2,3", "0.6,0.8,0"), ("1,1", "1,1e-11"),
                                           ("1e12,1", "1e-11,1")])
def test_sections_exact_drops_zero_coordinates(tmp_path, sides, normal):
    # a coordinate of negligible width drops out of the exact route as out
    # of the sinc route, not a usage error; 1e-11 on a side of 1e12 is kept
    values = []
    for mode in ("exact", "sinc"):
        out = tmp_path / f"{mode}.json"
        assert run(["sections", "--mode", mode, "--sides", sides, "--normal", normal,
                    "--out", str(out)]) == 0
        values.append(json.loads(out.read_text())["summary"]["value"])
    assert abs(values[0] - values[1]) <= 1e-12


def test_sections_quadrature_from_subspace_file(tmp_path):
    from margbounds.grassmann import haar_sample

    h = haar_sample(4, 2, seed=3)
    sub_path = tmp_path / "h.json"
    sub_path.write_text(json.dumps(h.to_json_dict()))
    out = tmp_path / "s.json"
    code = run(["sections", "--mode", "quadrature", "--sides", "1,1,1,1",
                "--subspace-file", str(sub_path), "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["summary"]["value"] > 0.0


def test_sections_quadrature_of_the_diagonal_section_of_q4(tmp_path):
    # Ball's cube slicing case: the complement of (1, 1, 1, 1) / 2 cuts Q_4
    # in a section of volume 4/3 (the face-list clipper reported 1.0)
    from margbounds.grassmann import Subspace, orthonormal_complement

    h = orthonormal_complement(Subspace(np.full(4, 0.5)))
    sub_path = tmp_path / "h.json"
    sub_path.write_text(json.dumps(h.to_json_dict()))
    out = tmp_path / "s.json"
    code = run(["sections", "--mode", "quadrature", "--sides", "1,1,1,1",
                "--subspace-file", str(sub_path), "--out", str(out)])
    assert code == 0
    assert abs(json.loads(out.read_text())["summary"]["value"] - 4.0 / 3.0) <= 1e-14


def test_sections_quadrature_of_a_narrow_box_agrees_with_mc(tmp_path):
    # sides about 1e-14: the slab kernels' absolute tolerances once made
    # this section 2.323e-42, 41% above the Monte Carlo value
    from margbounds.grassmann import haar_sample

    sub_path = tmp_path / "h.json"
    sub_path.write_text(json.dumps(haar_sample(5, 3, seed=3).to_json_dict()))
    records = {}
    for mode in ("quadrature", "mc"):
        out = tmp_path / f"{mode}.json"
        assert run(["sections", "--mode", mode, "--sides=7e-15,8.5e-15,1e-14,1.15e-14,1.3e-14",
                    "--subspace-file", str(sub_path), "--out", str(out)]) == 0
        records[mode] = json.loads(out.read_text())["records"][0]
    mc = records["mc"]
    assert abs(records["quadrature"]["value"] - mc["value"]) <= 4.0 * mc["std_error"]


def test_sections_quadrature_below_the_normal_range_is_a_route_limit(tmp_path, capsys):
    # the section of sides 1e-200 is about 1e-400: it once rounded to a
    # reported 0.0 with exit 0; sides 1e-100 give 1e-200 times the unit value
    from margbounds.grassmann import haar_sample
    from margbounds.sections import Box, section_quadrature

    h = haar_sample(4, 2, seed=0)
    sub_path = tmp_path / "h.json"
    sub_path.write_text(json.dumps(h.to_json_dict()))
    code, value = _section_run(["--mode", "quadrature", "--sides", "1e-200,1e-200,1e-200,1e-200",
                                "--subspace-file", str(sub_path)], tmp_path)
    assert (code, value) == (1, None)
    err = capsys.readouterr().err
    assert err.startswith("error: a slab sum's value, about 1e-400, is below the normal float range")
    code, value = _section_run(["--mode", "quadrature", "--sides", "1e-100,1e-100,1e-100,1e-100",
                                "--subspace-file", str(sub_path)], tmp_path)
    assert code == 0
    assert value == pytest.approx(1e-200 * section_quadrature(Box(np.ones(4)), h), rel=1e-13)


@pytest.mark.parametrize("mode", ["quadrature", "mc"])
def test_sections_of_a_zero_dimensional_subspace_is_usage_error(tmp_path, capsys, mode):
    # both routes run one check of the box and the subspace: mc once
    # reported 0.0 +- 0.0 here
    sub_path = tmp_path / "h.json"
    sub_path.write_text(json.dumps({"n": 3, "k": 0, "basis_rows": [[], [], []]}))
    out = tmp_path / "s.json"
    assert run(["sections", "--mode", mode, "--sides", "1,1,1", "--samples", "1000",
                "--subspace-file", str(sub_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: zero-dimensional section")
    assert not out.exists()


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_sections_normal_of_any_scale(tmp_path, capsys, scale):
    # the normal is scaled by a power of two before its norm: 1e200 once
    # overflowed it ("must have unit norm", a RuntimeWarning on stderr) and
    # 1e-200 underflowed it ("must not be the zero vector")
    values = []
    for normal in (f"{scale},{scale}", "1,1"):
        out = tmp_path / "s.json"
        assert run(["sections", "--mode", "exact", "--sides", "1,1", "--normal", normal,
                    "--out", str(out)]) == 0
        values.append(json.loads(out.read_text())["records"][0]["value"])
    assert values == pytest.approx([math.sqrt(2.0)] * 2, abs=1e-15)
    assert capsys.readouterr().err.count("Warning") == 0


def test_sections_missing_normal_is_usage_error():
    assert run(["sections", "--mode", "exact", "--sides", "1,1"]) == 2


def test_ball_integral_csv(tmp_path):
    csv_path = tmp_path / "ball.csv"
    code = run(["ball-integral", "--p-min", "2", "--p-max", "4", "--steps", "3",
                "--csv-out", str(csv_path)])
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "p,integral,bound,margin"
    rows = [line.split(",") for line in lines[1:]]
    assert [float(r[0]) for r in rows] == [2.0, 3.0, 4.0]
    assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-8)
    assert float(rows[0][3]) == pytest.approx(0.0, abs=1e-8)


def test_uncertifiable_ball_integral_tolerance_exits_1(monkeypatch, tmp_path, capsys):
    # at the 60,000-panel cap the p = 2 arch bracket is 3.3e-28
    def no_quadrature(*args):
        raise AssertionError("quadrature ran")

    monkeypatch.setattr(cli.bounds, "adaptive_panels", no_quadrature)
    out = tmp_path / "ball.json"
    code = run(["ball-integral", "--p-min", "2", "--p-max", "3", "--steps", "2",
                "--tol", "1e-28", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: could not certify tolerance 1e-28 (achieved error bound")
    assert "Traceback" not in err
    assert not out.exists()


def test_one_ball_integral_step_with_two_powers_is_a_usage_error(monkeypatch, capsys):
    def no_integral(*args):
        raise AssertionError("integrated a curve whose --p-max is dropped")

    monkeypatch.setattr(cli.bounds, "ball_integral", no_integral)
    assert run(["ball-integral", "--p-min", "2", "--p-max", "6", "--steps", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --steps 1 evaluates --p-min alone")
    monkeypatch.undo()
    assert run(["ball-integral", "--p-min", "3", "--p-max", "3", "--steps", "1"]) == 0


def _section_run(argv, tmp_path):
    """(exit code, reported value or None) of one `sections` run."""
    out = tmp_path / "section.json"
    code = run(["sections", *argv, "--out", str(out)])
    value = json.loads(out.read_text())["summary"]["value"] if out.exists() else None
    return code, value


def test_sinc_section_of_a_1e200_box(tmp_path):
    # the factors 1e-200 of the widest overflowed the tail expansion
    code, value = _section_run(["--mode", "sinc", "--sides", "1e200,1,1",
                                "--normal", "0.6,0.64,0.48"], tmp_path)
    assert code == 0 and value == pytest.approx(1.0 / 0.6, rel=1e-15)


def test_exact_section_of_a_1e200_box_is_its_facet(tmp_path):
    # the other widths are 1e-200 of the widest, so they drop out (the
    # signed vertex sum overflowed, and scaled it cancelled to nothing)
    code, value = _section_run(["--mode", "exact", "--sides", "1e200,1,1",
                                "--normal", "0.6,0.64,0.48"], tmp_path)
    assert code == 0 and value == pytest.approx(1.0 / 0.6, rel=1e-15)


def test_exact_section_of_a_1e200_box_is_a_route_limit(tmp_path, capsys):
    # widths 1e-8 of the widest are kept, and scaled, the signed vertex sum
    # cancels to nothing
    code, value = _section_run(["--mode", "exact", "--sides", "1e200,1e192,1e192",
                                "--normal", "0.6,0.64,0.48"], tmp_path)
    assert code == 1 and value is None
    err = capsys.readouterr().err
    assert err.startswith("error: exact route lost the section to cancellation")
    assert "Traceback" not in err


@pytest.mark.parametrize("mode", ["exact", "sinc"])
def test_sections_of_a_1e_minus_100_box(mode, tmp_path):
    # prod c underflowed to 0.0 in both routes
    code, value = _section_run(["--mode", mode, "--sides", "1e-100,1e-100,1e-100,1e-100",
                                "--normal", "0.5,0.5,0.5,0.5"], tmp_path)
    assert code == 0 and value == pytest.approx(4.0 / 3.0 * 1e-300, rel=1e-12)


def test_sinc_section_of_a_1e160_box(tmp_path):
    # vol(B) / pi overflowed the error budget; two factors keep J = pi / 2
    # exactly (sum r <= 2), which the route takes where the absolute 1e-9 is
    # beyond the tail expansion's rounding
    code, value = _section_run(["--mode", "sinc", "--sides", "1e160,1e160",
                                "--normal", "0.6,0.8"], tmp_path)
    assert code == 0 and value == pytest.approx(1.25e160, rel=1e-12)


def _routes_xval_workloads():
    """perfbench/workloads.py as a module, compiled from its source so that
    nothing is written next to it."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "workloads.py")
    module = types.ModuleType("routes_xval_workloads")
    with open(path, encoding="utf-8") as fh:
        exec(compile(fh.read(), path, "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("seed", [3, 7, 6161])
def test_routes_xval_exact_and_sinc_pairs_agree_to_1e_12(seed, tmp_path):
    # the benchmark's gate is 1e-8; the sinc route's rounding is about 1e-14
    workloads = _routes_xval_workloads()
    plan = workloads.generate("routes-xval", seed, str(tmp_path / "inputs"))
    values = {}
    for job in plan["jobs"]:
        if job["argv"][:3] in (["sections", "--mode", "exact"], ["sections", "--mode", "sinc"]):
            code, value = _section_run(job["argv"][1:], tmp_path)
            assert code == 0, job["id"]
            values.setdefault(job["pair"], []).append(value)
    assert len(values) == 39
    for pair, (exact, sinc) in values.items():
        assert abs(exact - sinc) <= 1e-12, (pair, exact, sinc)


@pytest.mark.parametrize("argv, flag", [
    (["--p-min", "nan"], "--p-min"),
    (["--p-min", "1.5"], "--p-min"),
    (["--p-min", "x"], "--p-min"),
    (["--p-max", "inf"], "--p-max"),
    (["--p-max=-inf"], "--p-max"),
    (["--p-min", "30", "--p-max", "1.5", "--steps", "40"], "--p-max"),
])
def test_bad_sinc_powers_are_usage_errors(monkeypatch, capsys, argv, flag):
    def no_integral(*args):
        raise AssertionError("integrated before the flags were checked")

    monkeypatch.setattr(cli.bounds, "ball_integral", no_integral)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SystemExit) as exc:
            run(["ball-integral", *argv])
    assert exc.value.code == 2
    assert f"argument {flag}: expected a finite number >= 2" in capsys.readouterr().err


def test_bl_check_passes(tmp_path):
    out = tmp_path / "bl.json"
    code = run(["bl-check", "--d", "2", "--m", "4", "--systems", "10",
                "--seed", "2", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert any(r["trial"] == "gaussian-equality" for r in report["records"])


def test_bl_check_fewer_vectors_than_dimensions_is_usage_error(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["bl-check", "--d", "2", "--m", "1"]) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert "need at least d vectors" in err and "RuntimeWarning" not in err


def test_average_cube(tmp_path):
    out = tmp_path / "avg.json"
    code = run(["average", "--n", "2", "--k", "1", "--samples", "20000",
                "--seed", "4", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["summary"]["estimate"] == pytest.approx(4.0 / math.pi, abs=0.02)


def test_average_with_density_file(tmp_path):
    f = random_product_density(3, 2)
    dens_path = tmp_path / "f.json"
    dens_path.write_text(json.dumps(f.to_json_dict()))
    code = run(["average", "--n", "2", "--k", "1", "--samples", "5000",
                "--seed", "4", "--density", str(dens_path)])
    assert code == 0


def test_average_of_a_narrow_density_is_the_unit_average_scaled(tmp_path):
    # supports 2^-47 as wide: each marginal at 0 scales by 2^94 and its 4th
    # power by 2^376 (the lhs once read 4.60e113, 60 times too high)
    f = random_product_density(3, 4, 3)
    lhs = []
    for lam in (1.0, 2.0**47):
        dens_path = tmp_path / "f.json"
        dens_path.write_text(json.dumps({"factors": [fi.dilated(lam).to_json_dict() for fi in f.factors]}))
        out = tmp_path / "avg.json"
        run(["average", "--n", "4", "--k", "2", "--samples", "2000", "--seed", "3",
             "--density", str(dens_path), "--out", str(out)])
        lhs.append(json.loads(out.read_text())["records"][0]["lhs"])
    assert lhs[1] == pytest.approx(lhs[0] * 2.0**376, rel=1e-12)


def test_grinberg_cli():
    code = run(["grinberg", "--n", "3", "--k", "1", "--diag", "2,0.5,1",
                "--samples", "20000", "--seed", "5"])
    assert code == 0


def test_grinberg_wrong_diag_length():
    assert run(["grinberg", "--n", "3", "--k", "1", "--diag", "2,0.5",
                "--samples", "2000", "--seed", "5"]) == 2


def test_small_ball_cli(tmp_path):
    csv_path = tmp_path / "sb.csv"
    code = run(["small-ball", "--n", "3", "--k", "1", "--eps", "0.05",
                "--samples", "5000", "--trials", "5", "--seed", "6",
                "--csv-out", str(csv_path)])
    assert code == 0
    assert csv_path.read_text().splitlines()[0] == "trial,estimate,bound"


def test_small_ball_k_equal_n_is_usage_error(capsys):
    assert run(["small-ball", "--n", "3", "--k", "3", "--samples", "1000",
                "--trials", "1"]) == 2
    err = capsys.readouterr().err
    assert "error: need 1 <= k < n" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("normal", ["0,0", "nan,1", "1,inf"])
def test_sections_bad_normal_is_usage_error(tmp_path, normal):
    out = tmp_path / "s.json"
    argv = ["sections", "--mode", "exact", "--sides", "1,1", "--normal", normal,
            "--out", str(out)]
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("mode, n, reason", [
    ("sinc", 17, "more than 16 sinc factors"),
    ("exact", 25, "n > 24"),
])
def test_route_size_limits_exit_1_with_reason(tmp_path, capsys, mode, n, reason):
    # valid flags beyond what the route evaluates: not a usage error
    out = tmp_path / "s.json"
    ones = ",".join(["1"] * n)
    code = run(["sections", "--mode", mode, "--sides", ones, "--normal", ones,
                "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err and reason in err
    assert "Traceback" not in err
    assert not out.exists()


def test_non_finite_sides_are_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["sections", "--mode", "exact", "--sides", "nan,1", "--normal", "1,1"])
    assert exc.value.code == 2
    assert "argument --sides: expected finite numbers" in capsys.readouterr().err


def test_search_max_cli(tmp_path):
    out = tmp_path / "sm.json"
    code = run(["search-max", "--n", "4", "--k", "2", "--restarts", "2",
                "--steps", "40", "--seed", "7", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["summary"]["best_value"] <= report["summary"]["bound"] * (1 + 1e-6)


def test_search_max_near_the_paired_subspace_passes(tmp_path):
    # at 1,000 steps the climb ends within about 1e-12 of the extremal
    # subspace, where a split into non-orthogonal blocks would read 2.5e23
    out = tmp_path / "sm.json"
    code = run(["search-max", "--n", "4", "--k", "2", "--restarts", "3",
                "--steps", "1000", "--seed", "1", "--out", str(out)])
    assert code == 0
    assert 2.0 - 1e-9 < json.loads(out.read_text())["summary"]["best_value"] <= 2.0


def test_search_max_report_is_pinned(tmp_path):
    # the climb scores its proposals in batches, and ends where one proposal
    # per step ends, to the bit (1.9913631328061048 before the four-row
    # facets of its 3-D lanes took the edge sum, kernels._edge_sum_areas;
    # then 1.9913631328061046, 0x1.fdc9f969dcc14p+0, before the Haar starts
    # and the proposals took grassmann._householder_qr in place of LAPACK's
    # QR: rounding-level changes of the proposals change which of 1,000
    # steps improve, and the end moved by -16,146,529 ulp, -1.8e-9 relative;
    # then 0x1.fdc9f95a76bb3p+0 before the 3-D facets took pivoted
    # elimination: +115,784,957 ulp, +1.3e-8 relative, the climb amplifying
    # rounding-level changes of its scores as before, not a kernel error)
    out = tmp_path / "sm.json"
    code = run(["search-max", "--n", "5", "--k", "2", "--restarts", "3",
                "--steps", "1000", "--seed", "1", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["summary"]["best_value"].hex() == "0x1.fdc9f9c8e28b0p+0"


@pytest.mark.parametrize("seed", [1, 3])
def test_search_max_rejects_lines_the_exact_route_cannot_certify(tmp_path, seed):
    # the climb toward Ball's maximizer proposes lines whose signed vertex
    # sums cancel; each is rejected and counted, and the run ends on
    # certified values (one such line aborted the whole run before)
    out = tmp_path / "sm.json"
    assert run(["search-max", "--n", "6", "--k", "1", "--seed", str(seed),
                "--out", str(out)]) == 0
    rec = json.loads(out.read_text())["records"][0]
    assert rec["unscored"] > 0
    assert rec["best_value"] <= math.sqrt(2.0) * (1.0 + 1e-12)


def test_search_max_fails_only_on_a_certified_violation(tmp_path):
    # the climb ends on a line that cancels inside the exact route's
    # bracket, 9.2e-4 above Ball's sqrt(2); its rounding bound covers that,
    # so the run passes and reports the bound
    out = tmp_path / "sm.json"
    assert run(["search-max", "--n", "5", "--k", "1", "--restarts", "3", "--steps", "1000",
                "--seed", "1", "--out", str(out)]) == 0
    rec = json.loads(out.read_text())["records"][0]
    assert rec["unscored"] > 0 and rec["pass"]
    assert rec["best_value"] > math.sqrt(2.0) * (1.0 + 1e-4)
    assert rec["best_value"] * (1.0 - rec["rounding_bound"]) <= math.sqrt(2.0) * (1.0 + 1e-12)


def test_search_max_with_no_certified_line_is_a_failure(monkeypatch, capsys):
    def lost(box, a):
        raise cli.sections.CancellationError("lost", np.full(len(a), math.nan))

    monkeypatch.setattr(cli.sections, "hyperplane_section_exact", lost)
    assert run(["search-max", "--n", "4", "--k", "1", "--restarts", "1", "--steps", "3"]) == 1
    assert capsys.readouterr().err.startswith("error: the exact route certified no section")


def test_average_k1_with_a_lost_line_is_a_failure(monkeypatch, capsys):
    # the cube side takes the exact route, which names a line it loses
    exact = cli.average.hyperplane_section_exact

    def lose_row_3(box, a):
        values = exact(box, a)
        values[3] = math.nan
        raise cli.sections.CancellationError("exact route lost the section (rows [3])", values)

    monkeypatch.setattr(cli.average, "hyperplane_section_exact", lose_row_3)
    assert run(["average", "--n", "4", "--k", "1", "--samples", "1000"]) == 1
    err = capsys.readouterr().err
    assert err == "error: exact route lost the section (rows [3])\n"


def test_average_k1_report_does_not_depend_on_the_blas_thread_count(tmp_path):
    # no BLAS reduction enters the cube side's sums, so its bytes do not
    # follow OpenBLAS's split of a dot across threads
    src = os.path.dirname(os.path.dirname(os.path.abspath(margbounds.__file__)))
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"average-{threads}.json"
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-m", "margbounds.cli", "average", "--n", "14", "--k", "1",
                        "--samples", "1004", "--seed", "1", "--out", str(out)],
                       env=env, capture_output=True, check=True)
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_densities_validate(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"pieces": [[0.0, 1.0, 1.0]]}))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"pieces": [[0.0, 1.0, -1.0]]}))
    assert run(["densities-validate", str(good)]) == 0
    assert run(["densities-validate", str(good), str(bad)]) == 1


def test_densities_validate_unreadable_is_io_error(tmp_path):
    assert run(["densities-validate", str(tmp_path / "missing.json")]) == 3


def test_emit_curve_format(tmp_path):
    path = tmp_path / "c.csv"
    cli.emit_curve([(1.0, 1.0 / 3.0)], str(path), header=("x", "y"))
    text = path.read_text()
    assert text == "x,y\n1,0.33333333333333331\n"
    with pytest.raises(ValueError):
        cli.emit_curve([], str(path))


def test_write_json_atomic_sorted(tmp_path):
    path = tmp_path / "r.json"
    cli.write_json_atomic(str(path), {"b": np.float64(1.5), "a": np.int64(2)})
    text = path.read_text()
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"a": 2, "b": 1.5}


# every kind of value a report can hold: nested dicts, lists and tuples,
# empty containers, any text, ints, floats with -0.0, subnormals, NaN and
# +-inf, numpy scalars and arrays, None
_json_scalars = (st.none() | st.booleans() | st.integers() | st.floats() | st.text()
                 | st.floats().map(np.float64) | st.integers(-2**63, 2**63 - 1).map(np.int64)
                 | st.booleans().map(np.bool_) | st.sampled_from([-0.0, 5e-324, 2.2e-308, math.nan,
                                                                  math.inf, -math.inf]))
_json_arrays = (st.lists(st.floats(), max_size=4).map(lambda v: np.array(v, dtype=float))
                | st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=4).map(np.array)
                | st.lists(st.booleans(), min_size=1, max_size=4).map(lambda v: np.array(v).reshape(1, -1)))
_json_trees = st.recursive(
    _json_scalars | _json_arrays,
    lambda children: (st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(st.text(), children, max_size=4)),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(obj=_json_trees)
def test_write_json_atomic_has_the_stdlib_bytes(tmp_path_factory, obj):
    path = tmp_path_factory.mktemp("w") / "r.json"
    cli.write_json_atomic(str(path), obj)
    assert path.read_bytes() == _stdlib_bytes(obj)


@pytest.mark.parametrize("obj", [
    {"strings": ["", "\u00e9\u4e2d\U0001f600", "\x00\x1f\x7f\t\n\"\\/"], "ints": [0, -1, 2**80],
     "floats": [-0.0, 5e-324, 1e308, math.nan, math.inf, -math.inf, 0.1], "none": None,
     "empty": [{}, [], ()], "nested": {"b": (1, [2, {"c": ()}]), "a": {}}},
    {"f": np.float64(-0.0), "i": np.int64(-2**63), "b": [np.bool_(True), np.bool_(False), True],
     "a": np.arange(6.0).reshape(2, 3), "e": np.array([]), "f32": np.float32(0.1), "u": np.uint64(2**64 - 1)},
    {1: "int key", 2.5: "float key", -math.inf: "inf key"}, {True: 1}, {None: 0}, [], {}, "top", 7, None,
], ids=["python", "numpy", "number-keys", "bool-key", "none-key", "empty-list", "empty-dict", "str", "int",
        "none"])
def test_write_json_atomic_has_the_stdlib_bytes_at_the_edges(tmp_path, obj):
    path = tmp_path / "r.json"
    cli.write_json_atomic(str(path), obj)
    assert path.read_bytes() == _stdlib_bytes(obj)


@pytest.mark.parametrize("obj", [{"a": 1j}, {"a": {1, 2}}, {(1, 2): 3}, {"a": np.array(1.0)},
                                 [object()], {"a": np.complex128(1)}])
def test_write_json_atomic_rejects_what_json_rejects(tmp_path, obj):
    with pytest.raises(TypeError):
        json.dumps(_plain(obj), indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        cli.write_json_atomic(str(tmp_path / "r.json"), obj)
    assert os.listdir(tmp_path) == []


def test_a_failed_write_leaves_neither_the_target_nor_a_temp_file(tmp_path, monkeypatch):
    def full_disk(fd, data):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli.os, "write", full_disk)
    with pytest.raises(OSError):
        cli.write_json_atomic(str(tmp_path / "r.json"), {"a": 1})
    with pytest.raises(OSError):
        cli.emit_curve([(1.0, 2.0)], str(tmp_path / "c.csv"))
    assert os.listdir(tmp_path) == []


def test_an_unwritable_report_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli.os, "write", lambda fd, data: (_ for _ in ()).throw(OSError(28, "full")))
    out = tmp_path / "r.json"
    assert run(["sections", "--mode", "exact", "--sides", "1,1", "--normal", "0.6,0.8",
                "--out", str(out)]) == 3
    assert "error: cannot write report" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


_EVERY_SUBCOMMAND = {
    "verify": ["--n", "3", "--k", "1", "--trials", "2"],
    "rogozin": ["--n", "3", "--trials", "2"],
    "sections": ["--mode", "exact", "--sides", "1,2,3", "--normal", "0.6,0.8,0"],
    "ball-integral": ["--p-min", "2", "--p-max", "3", "--steps", "2"],
    "bl-check": ["--d", "2", "--m", "3", "--systems", "2"],
    "average": ["--n", "3", "--k", "1", "--samples", "1000"],
    "grinberg": ["--n", "3", "--k", "1", "--diag", "2,0.5,1", "--samples", "1000"],
    "small-ball": ["--n", "3", "--k", "1", "--eps", "0.05", "--samples", "1000", "--trials", "1"],
    "search-max": ["--n", "4", "--k", "1", "--restarts", "1", "--steps", "3"],
    "densities-validate": [],
}


def test_every_subcommand_covered():
    (subparsers,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(_EVERY_SUBCOMMAND) == set(subparsers.choices)


@pytest.mark.parametrize("subcommand", sorted(_EVERY_SUBCOMMAND))
def test_every_subcommand_report_has_the_stdlib_bytes(subcommand, tmp_path, reports_have_the_stdlib_bytes):
    argv = [subcommand] + _EVERY_SUBCOMMAND[subcommand]
    if subcommand == "densities-validate":
        density = tmp_path / "f.json"
        density.write_text(json.dumps({"pieces": [[0.0, 1.0, 1.0]]}))
        argv.append(str(density))
    out = tmp_path / "r.json"
    assert run(argv + ["--out", str(out)]) in (0, 1)
    assert [r["config"]["subcommand"] for r in reports_have_the_stdlib_bytes] == [subcommand]


@pytest.mark.parametrize("umask", [0o022, 0o027, 0o077], ids=oct)
def test_reports_and_curves_follow_the_umask(tmp_path, umask):
    old = os.umask(umask)
    try:
        out, csv_path = tmp_path / "r.json", tmp_path / "c.csv"
        assert run(["ball-integral", "--p-min", "2", "--p-max", "3", "--steps", "2",
                    "--out", str(out), "--csv-out", str(csv_path)]) == 0
    finally:
        os.umask(old)
    for path in (out, csv_path):
        assert os.stat(path).st_mode & 0o777 == 0o666 & ~umask


@pytest.mark.parametrize("pieces", [[[0, 1]], 5, [[0, "x", 1]]], ids=["two-numbers", "not-a-list", "a-string"])
def test_malformed_piece_rows_are_invalid_densities(tmp_path, pieces):
    path = tmp_path / "d.json"
    path.write_text(json.dumps({"pieces": pieces}))
    out = tmp_path / "r.json"
    assert run(["densities-validate", str(path), "--out", str(out)]) == 1
    (rec,) = json.loads(out.read_text())["records"]
    assert rec["valid"] is False
    assert rec["error"].startswith("invariant violated: ")


@pytest.mark.parametrize("pieces", [[[0, 1]], 5, [[0, "x", 1]]], ids=["two-numbers", "not-a-list", "a-string"])
def test_malformed_piece_rows_in_an_average_density_are_usage_errors(tmp_path, capsys, pieces):
    path = tmp_path / "d.json"
    path.write_text(json.dumps({"factors": [{"pieces": [[0, 1, 1]]}, {"pieces": pieces}]}))
    assert run(["average", "--n", "2", "--k", "1", "--samples", "1000", "--density", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invariant violated: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,flag", [
    (["verify", "--n", "3", "--k", "1", "--trials", "0"], "--trials"),
    (["rogozin", "--n", "3", "--trials", "-1"], "--trials"),
    (["average", "--n", "2", "--k", "1", "--samples", "0"], "--samples"),
    (["bl-check", "--systems", "0"], "--systems"),
    (["ball-integral", "--steps", "0"], "--steps"),
    (["verify", "--n", "3", "--k", "1", "--trials", "1", "--workers", "0"], "--workers"),
    (["verify", "--n", "3", "--k", "1", "--trials", "1", "--workers", "-3"], "--workers"),
    (["bl-check", "--d", "-1"], "--d"),
    (["bl-check", "--d", "0"], "--d"),
    (["bl-check", "--m", "0"], "--m"),
    (["search-max", "--n", "3", "--k", "1", "--restarts", "0"], "--restarts"),
    (["search-max", "--n", "3", "--k", "1", "--steps", "0"], "--steps"),
])
def test_non_positive_counts_are_usage_errors(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert f"argument {flag}: expected a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["average", "--n", "3", "--k", "1", "--samples", "999"],
    ["grinberg", "--n", "3", "--k", "1", "--diag", "2,0.5,1", "--samples", "999"],
])
def test_too_few_haar_samples_are_usage_errors_that_name_the_flag(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "argument --samples: expected a positive integer >= 1000, got '999'" in capsys.readouterr().err


@pytest.mark.parametrize("argv,minimum", [
    (["small-ball", "--n", "2", "--k", "1", "--samples", "999"], 1000),
    (["sections", "--mode", "mc", "--sides", "1,1", "--normal", "0.6,0.8", "--samples", "99"], 100),
])
def test_too_few_samples_are_usage_errors_that_name_the_flag(argv, minimum, capsys):
    # small-ball and Monte Carlo sections need at least 1,000 and 100
    # samples; argparse refuses fewer, naming the flag, and takes the minimum
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert f"argument --samples: expected a positive integer >= {minimum}, got '{minimum - 1}'" in capsys.readouterr().err
    assert cli.build_parser().parse_args(argv[:-1] + [str(minimum)]).samples == minimum


@pytest.mark.parametrize("content", [None, "not json", b"\xff\xfe"], ids=["missing", "not-json", "not-utf8"])
@pytest.mark.parametrize("what", ["subspace", "density"])
def test_unreadable_input_files_are_io_failures_that_name_the_file(tmp_path, capsys, content, what):
    path = tmp_path / "input.json"
    if isinstance(content, str):
        path.write_text(content)
    elif content is not None:
        path.write_bytes(content)
    out = tmp_path / "r.json"
    if what == "subspace":
        argv = ["sections", "--mode", "quadrature", "--sides", "1,1", "--subspace-file", str(path)]
    else:
        argv = ["average", "--n", "2", "--k", "1", "--samples", "1000", "--density", str(path)]
    assert run(argv + ["--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {what} file {path}: ")
    assert "Traceback" not in err
    assert not out.exists()


def test_densities_validate_records_an_undecodable_file_as_invalid(tmp_path):
    path = tmp_path / "d.json"
    path.write_bytes(b"\xff\xfe")
    out = tmp_path / "r.json"
    assert run(["densities-validate", str(path), "--out", str(out)]) == 1
    (rec,) = json.loads(out.read_text())["records"]
    assert rec["valid"] is False
    assert rec["error"].startswith("invalid JSON: 'utf-8' codec can't decode")


@pytest.mark.parametrize("argv", [
    ["ball-integral", "--p-min", "2", "--p-max", "3", "--steps", "2"],
    ["small-ball", "--n", "2", "--k", "1", "--samples", "1000", "--trials", "1"],
], ids=["ball-integral", "small-ball"])
def test_an_unwritable_curve_exits_3_before_the_report(tmp_path, capsys, argv):
    out = tmp_path / "r.json"
    csv_path = tmp_path / "missing" / "c.csv"
    assert run(argv + ["--csv-out", str(csv_path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write CSV: ")
    assert "Traceback" not in err
    assert not out.exists()


def test_an_over_budget_grid_is_a_failure_not_a_usage_error(capsys, monkeypatch):
    # valid flags: 5^9 grid points exceed the budget before any grid work
    monkeypatch.setattr(cli.marginals, "_lockstep_grid_sups", None)
    assert run(["verify", "--n", "10", "--k", "9", "--trials", "1", "--seed", "1"]) == 1
    assert capsys.readouterr().err == "error: grid budget exceeded: 5^9 points (limit 400000)\n"


def test_block_too_wide_is_a_failure_not_a_usage_error(capsys):
    # n - k = 6: the complement frame forms one irreducible 6-D block
    assert run(["verify", "--n", "8", "--k", "2", "--trials", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: irreducible slab block of dimension 6")


def _verify_ratios(tmp_path, n, k, sup, seed=3):
    """(exit code, sup_lower_bound / bound per trial) of verify at
    --sup-range sup,sup, with every warning an error."""
    out = tmp_path / f"verify-{n}-{k}-{sup}-{seed}.json"
    argv = ["verify", "--n", str(n), "--k", str(k), "--trials", "2", "--seed", str(seed),
            "--sup-range", f"{sup},{sup}", "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(argv)
    if not out.exists():
        return code, None
    return code, [r["sup_lower_bound"] / r["bound"] for r in json.loads(out.read_text())["records"]]


def test_verify_beyond_the_float_range_is_a_route_limit(tmp_path, capsys):
    # the marginal bound, about 1e400 (and 1e-600), is no float
    for sup, decimal in (("1e200", "1e400"), ("1e-300", "1e-600")):
        assert _verify_ratios(tmp_path, 3, 2, sup) == (1, None)
        err = capsys.readouterr().err
        assert err.startswith(f"error: the bound, about {decimal}, is outside the normal float range")


@pytest.mark.parametrize("n,k,sup", [(2, 1, "1e200"), (3, 1, "1e14"), (4, 2, "1e50")])
def test_verify_at_large_sup_norms_keeps_the_unit_scale_ratios(n, k, sup, tmp_path):
    # every factor dilated to one sup norm: the grid sup, the bound and the
    # refinement tol scale alike, so the ratio is that of sup norms 1e3,
    # whose grids the exact kernels resolve; sup norms 1e14 once gave ratios
    # of 1.6-2.3, false failures
    code, ratios = _verify_ratios(tmp_path, n, k, sup)
    assert code == 0
    assert ratios == pytest.approx(_verify_ratios(tmp_path, n, k, "1e3")[1], rel=1e-12)


def test_verify_at_tiny_sup_norms_gives_a_value(tmp_path):
    # supports about 1e300 and 1e6 wide: the refinement tol is relative to
    # the bound, so the grid sups refine as at sup norms 1e3 and keep their
    # ratios (a 1e-9 floor once stopped them after one halving)
    for n, k, sup, seed in ((2, 1, "1e-300", 3), (4, 2, "1e-6", 0)):
        code, ratios = _verify_ratios(tmp_path, n, k, sup, seed)
        assert code == 0
        assert ratios == pytest.approx(_verify_ratios(tmp_path, n, k, "1e3", seed)[1], rel=1e-12)


@pytest.mark.parametrize("sup", ["1e-320", "1.7e308"])
def test_verify_at_the_ends_of_the_sup_range_is_a_route_limit(sup, tmp_path, capsys):
    # a dilation to these sup norms takes the pieces past the float range
    # (it once exited 2, "pieces must be finite", after a RuntimeWarning)
    assert _verify_ratios(tmp_path, 2, 1, sup) == (1, None)
    assert capsys.readouterr().err.startswith("error: sup norms in [")


def test_search_max_beyond_its_route_is_a_failure_not_a_usage_error(capsys):
    # valid flags; n - k = 4 with k > 1 is beyond the exact section route
    assert run(["search-max", "--n", "6", "--k", "2", "--restarts", "1", "--steps", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: search-max needs k = 1 or n - k <= 3")
    assert "Traceback" not in err


def test_grinberg_beyond_its_route_is_a_failure_not_a_usage_error(capsys):
    # valid flags; k = 4 sections are beyond the exact section route
    assert run(["grinberg", "--n", "5", "--k", "4", "--diag", "2,0.5,1,1,1",
                "--samples", "2000"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: section dimension k > 3 needs a Monte Carlo section engine")
    assert "Traceback" not in err


@pytest.mark.parametrize("content", [{"x": 1}, [[1, 0], [0, 1]]], ids=["no-basis-rows", "bare-list"])
def test_malformed_subspace_file_is_usage_error(tmp_path, capsys, content):
    sub_path = tmp_path / "h.json"
    sub_path.write_text(json.dumps(content))
    out = tmp_path / "s.json"
    code = run(["sections", "--mode", "quadrature", "--sides", "1,1",
                "--subspace-file", str(sub_path), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith('error: invariant violated: expected {"basis_rows": ')
    assert "Traceback" not in err
    assert not out.exists()


def test_bl_check_beyond_3d_is_a_failure_not_a_usage_error(capsys):
    # a 4-D frame is one slab block wider than the exact kernels handle
    assert run(["bl-check", "--d", "4", "--m", "6", "--systems", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: step-density route supports d <= 3")


def test_bl_check_route_limit_exits_1_before_enumerating(capsys):
    # up to 3^30 piece combinations: refused before any is listed
    t0 = time.monotonic()
    assert run(["bl-check", "--d", "2", "--m", "30", "--systems", "1"]) == 1
    assert time.monotonic() - t0 < 1.0
    assert capsys.readouterr().err.startswith("error: bl-check route guard: ")


def test_unmet_sinc_tolerance_reports_achieved_bound(capsys):
    code = run(["sections", "--mode", "sinc", "--sides", "1,1,1",
                "--normal", "1,2,3", "--tol", "1e-16"])
    assert code == 1
    err = capsys.readouterr().err
    assert "achieved error bound" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,flag", [
    (["verify", "--n", "3", "--k", "1", "--trials", "1", "--tol", "nan"], "--tol"),
    (["verify", "--n", "3", "--k", "1", "--trials", "1", "--tol", "-1"], "--tol"),
    (["rogozin", "--n", "3", "--trials", "1", "--tol", "nan"], "--tol"),
    (["sections", "--mode", "exact", "--sides", "1,1", "--normal", "1,1", "--tol", "0"], "--tol"),
    (["ball-integral", "--steps", "2", "--tol", "nan"], "--tol"),
    (["bl-check", "--systems", "1", "--tol", "inf"], "--tol"),
    (["search-max", "--n", "3", "--k", "1", "--tol", "x"], "--tol"),
    (["small-ball", "--n", "3", "--k", "1", "--trials", "1", "--eps", "nan"], "--eps"),
    (["small-ball", "--n", "3", "--k", "1", "--trials", "1", "--eps", "0"], "--eps"),
])
def test_bad_tolerances_are_usage_errors(argv, flag, capsys):
    # a bad flag must not read as a FAIL report (exit 1)
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert f"argument {flag}: expected a finite positive number" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", str(2**64), "1.5"])
def test_seeds_outside_64_bits_are_usage_errors(seed, capsys):
    # randomness keeps the low 64 bits, so -5 and 2**64 - 5 would give
    # identical records under different config echoes
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--n", "3", "--k", "1", "--trials", "1", "--seed", seed])
    assert exc.value.code == 2
    assert "argument --seed: expected an integer in [0, 2**64)" in capsys.readouterr().err


def test_largest_seed_is_accepted(tmp_path):
    out = tmp_path / "report.json"
    seed = 2**64 - 1
    assert run(["verify", "--n", "3", "--k", "2", "--trials", "2", "--seed", str(seed),
                "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["seed"] == seed


def _first_run_bytes(argv, path):
    """Report bytes of argv run as the first call on a freshly built parser."""
    cli._parser.cache_clear()
    assert run(argv + ["--out", str(path)]) == 0
    return path.read_bytes()


def test_reused_parser_leaks_no_state(tmp_path, capsys):
    normal = ["sections", "--mode", "exact", "--sides", "1,1",
              "--normal", "0.6,0.8", "--seed", "3"]
    spread = ["verify", "--n", "3", "--k", "1", "--trials", "2", "--seed", "5",
              "--workers", "2", "--sup-range", "0.5,1.5"]
    plain = ["verify", "--n", "3", "--k", "1", "--trials", "2"]
    density = tmp_path / "d.json"
    density.write_text(json.dumps({"pieces": [[0.0, 1.0, 1.0]]}))
    validate = ["densities-validate", str(density)]
    sequence = [normal, spread, plain, validate]
    first = [_first_run_bytes(argv, tmp_path / f"first{i}.json")
             for i, argv in enumerate(sequence)]

    cli._parser.cache_clear()
    reused = []
    for i, argv in enumerate(sequence):
        path = tmp_path / f"reused{i}.json"
        assert run(argv + ["--out", str(path)]) == 0
        reused.append(path.read_bytes())
        if argv is normal:
            # the same command without --normal must not see the last one
            assert run(normal[:5] + ["--seed", "3"]) == 2
    assert reused == first
    assert json.loads(reused[2])["config"]["sup_range"] == [1.0, 1.0]

    assert run(spread) == 0
    ns = cli._parser().parse_args(validate)
    assert (ns.seed, ns.workers) == (0, 1)

    # usage errors reach whichever stream is current, not the one at build time
    missing_k = "the following arguments are required: --k"
    with contextlib.redirect_stderr(io.StringIO()) as err:
        with pytest.raises(SystemExit) as exc:
            run(["verify", "--n", "3"])
    assert exc.value.code == 2
    assert missing_k in err.getvalue()
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--n", "3"])
    assert exc.value.code == 2
    assert missing_k in capsys.readouterr().err


def test_main_builds_its_parser_once(monkeypatch, tmp_path):
    built = []
    real_build_parser = cli.build_parser

    def counting_build_parser():
        built.append(1)
        return real_build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    assert run(["sections", "--mode", "exact", "--sides", "1,1", "--normal", "0.6,0.8"]) == 0
    assert run(["rogozin", "--n", "3", "--trials", "1"]) == 0
    assert run(["ball-integral", "--p-min", "2", "--p-max", "3", "--steps", "2"]) == 0
    with pytest.raises(SystemExit):
        run(["bl-check", "--systems", "0"])
    assert run(["densities-validate", str(tmp_path / "missing.json")]) == 3
    assert len(built) == 1


_IMPORT_PATH_SCRIPT = """
import hashlib, os, sys
scipy_modules = lambda: {m for m in sys.modules if m.split(".")[0] == "scipy"}
import scipy
bare = scipy_modules()
import margbounds.cli as cli
at_import = scipy_modules()
out = os.path.join(sys.argv[1], "report.json")
for argv in (["verify", "--n", "3", "--k", "1", "--trials", "2"],
             ["rogozin", "--n", "3", "--trials", "2"],
             ["grinberg", "--n", "3", "--k", "1", "--samples", "1000", "--diag", "2,0.5,1"],
             ["ball-integral", "--p-min", "2", "--p-max", "3", "--steps", "2"],
             ["sections", "--mode", "sinc", "--sides", "1,1,1", "--normal", "0.6,0.64,0.48"]):
    assert cli.main(argv + ["--out", out]) == 0
with open(out, "rb") as fh:
    print("scipy" in sys.modules, "scipy.special" in sys.modules,
          sorted(at_import - bare), sorted(scipy_modules() - bare) == [],
          hashlib.sha256(fh.read()).hexdigest())
"""


def test_no_command_loads_a_scipy_submodule(tmp_path):
    # a fresh interpreter: Si/Ci, the Hurwitz zeta and lgamma of the sinc
    # tail, ball-integral and grinberg are margbounds' own, so neither
    # importing margbounds nor running them loads scipy.special, or any
    # scipy module beyond what a bare `import scipy` loads; scipy itself
    # stays loaded for cli's one import.  The sinc report's bytes are
    # pinned: its value 1.2999131944444446 lies 3.5e-16 above the 60-digit
    # signed-vertex value 1.2999131944444442.  The pin moved from a58cf91f...
    # when the CLI's norm of the normal became a sum of squares in order
    # (np.linalg.norm's BLAS dot): the normal reads 0.6, 0.64, 0.48, not
    # 0.6000000000000001, 0.6400000000000001, 0.48000000000000004, and the
    # value kept its bits.
    src = os.path.dirname(os.path.dirname(os.path.abspath(margbounds.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", _IMPORT_PATH_SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1].split() == [
        "True", "False", "[]", "True",
        "b4cdcb8559865219edbb4bf7d9678d0f4405c1aa5eaf3775a0b33f8604bcde1c"]


@pytest.mark.parametrize("base", [["verify", "--n", "3", "--k", "2"], ["verify", "--n", "5", "--k", "2"],
                                  ["verify", "--n", "3", "--k", "2", "--sup-range=0.5,1.5"],
                                  ["verify", "--n", "4", "--k", "1"], ["rogozin", "--n", "3"],
                                  ["rogozin", "--n", "4"]])
def test_batched_trial_frames_keep_the_bytes(base, tmp_path):
    # a chunk draws its densities and subspaces (or directions) in one call
    # each and frames their complements in one call: one chunk of 9 trials
    # at --workers 1, 8 chunks of one or two at --workers 2, and one-trial
    # chunks whose subspaces come from the one-lane draws all give the same
    # records; verify --n 4 --k 1 and rogozin --n 4 run 3-D blocks
    sup = (0.5, 1.5) if "--sup-range=0.5,1.5" in base else (1.0, 1.0)
    blobs = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}.json"
        assert run(base + ["--trials", "9", "--seed", "6", "--workers", workers, "--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
    n = int(base[2])
    if base[0] == "verify":
        k = int(base[4])
        cases = [(cli._trial_densities(6, n, [t], *sup)[0],
                  margbounds.grassmann.haar_sample(n, k, 6, stream=t * cli._TRIAL_STREAM_BLOCK + 513)) for t in range(9)]
        want = [margbounds.marginals.verify_main_theorems([case])[0]["sup_lower_bound"] for case in cases]
    else:
        cases = [(cli._trial_densities(6, n, [t], 1.0, 1.0)[0],
                  margbounds.grassmann.haar_directions(n, 1, 6, stream=t * cli._TRIAL_STREAM_BLOCK + 513)[0])
                 for t in range(9)]
        want = [margbounds.marginals.rogozin_checks([case])[0][0] for case in cases]
    assert [r["sup_lower_bound"] for r in json.loads(blobs[0])["records"]] == want


def _per_trial_pieces(seed, n, t, sup_lo, sup_hi):
    """The pieces of trial t's density drawn trial by trial and factor by
    factor, written out with the public StepDensity: one uniforms call per
    factor stream t * 1024 + i + 1, and one for the sup norms on stream
    t * 1024 + 512."""
    from margbounds import randomness
    from margbounds.densities import StepDensity

    base = t * cli._TRIAL_STREAM_BLOCK
    factors = []
    for i in range(n):
        u = randomness.uniforms(seed, base + 1 + i, 0, 10)
        count = 1 + int(u[0] * 3)
        cuts = np.sort(u[1 : count + 2]) * 2.0 - 1.0
        vals = u[count + 2 : 2 * count + 2] + 0.05
        f = StepDensity([(cuts[j], cuts[j + 1], vals[j]) for j in range(count)
                         if cuts[j + 1] - cuts[j] > 1e-9] or [(-0.5, 0.5, 1.0)])
        mass = 0.0  # StepDensity.l1_norm's sum, in piece order
        for v, width in zip(f.values.tolist(), (f.his - f.los).tolist()):
            mass += v * width
        f = StepDensity([(lo, hi, v / mass) for lo, hi, v in f.pieces])
        s = float(f.values.max())
        if s > 1.0:
            f = StepDensity([(lo * s, hi * s, v / s) for lo, hi, v in f.pieces])
        factors.append(f)
    if (sup_lo, sup_hi) != (1.0, 1.0):
        targets = sup_lo + (sup_hi - sup_lo) * randomness.uniforms(seed, base + 512, 0, n)
        factors = [f.dilated(c / float(f.values.max())) for f, c in zip(factors, targets.tolist())]
    return [f.pieces for f in factors]


def _per_trial_or_none(seed, n, t, sup):
    """_per_trial_pieces, or None where a dilation leaves the float range."""
    from margbounds.densities import DensityFormatError

    try:
        return _per_trial_pieces(seed, n, t, *sup)
    except DensityFormatError:
        return None


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2**31), st.integers(0, 40), st.integers(1, 5),
       st.sampled_from([(1.0, 1.0), (0.5, 1.5), (1e-320, 1e-320), (1.7e308, 1.7e308)]))
def test_chunk_densities_match_the_per_trial_draws(n, seed, first, count, sup):
    # one uniforms call for every factor of a chunk (and one for its sup
    # norms) gives each trial the per-trial draws' pieces, whatever trial
    # the chunk starts at; a dilation past the float range (always at sup
    # norms 1e-320, at 1.7e308 unless every factor's sup is near 1) fails
    # with the per-trial route's reason
    trials = range(first, first + count)
    reason = re.escape(f"sup norms in [{sup[0]:g}, {sup[1]:g}] dilate past the float range")
    want = [_per_trial_or_none(seed, n, t, sup) for t in trials]
    assert None not in want or sup[0] in (1e-320, 1.7e308)
    assert None in want or sup[0] != 1e-320
    if None in want:
        with pytest.raises(RouteLimitError, match=reason):
            cli._trial_densities(seed, n, trials, *sup)
    else:
        got = cli._trial_densities(seed, n, trials, *sup)
        assert [[f.pieces for f in product.factors] for product in got] == want
    for t, pieces in zip(trials, want):
        if pieces is None:
            with pytest.raises(RouteLimitError, match=reason):
                cli._trial_densities(seed, n, [t], *sup)
        else:
            assert [f.pieces for f in cli._trial_densities(seed, n, [t], *sup)[0].factors] == pieces
