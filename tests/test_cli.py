import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import margbounds
from margbounds import cli
from margbounds.densities import random_product_density


def run(args):
    return cli.main(args)


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


def test_uncertifiable_ball_integral_tolerance_exits_1(tmp_path, capsys):
    out = tmp_path / "ball.json"
    code = run(["ball-integral", "--p-min", "2", "--p-max", "3", "--steps", "2",
                "--tol", "1e-14", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: could not certify tolerance 1e-14 (achieved error bound")
    assert "Traceback" not in err
    assert not out.exists()


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
    # per step ends, to the bit
    out = tmp_path / "sm.json"
    code = run(["search-max", "--n", "5", "--k", "2", "--restarts", "3",
                "--steps", "1000", "--seed", "1", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["summary"]["best_value"].hex() == (1.9913631328061048).hex()


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


def test_block_too_wide_is_a_failure_not_a_usage_error(capsys):
    # n - k = 6: the complement frame forms one irreducible 6-D block
    assert run(["verify", "--n", "8", "--k", "2", "--trials", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: irreducible slab block of dimension 6")


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
    # stays loaded for cli's one import.  The sinc report keeps the bytes
    # it had with scipy's Si/Ci.
    src = os.path.dirname(os.path.dirname(os.path.abspath(margbounds.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", _IMPORT_PATH_SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1].split() == [
        "True", "False", "[]", "True",
        "9e0ea27a8e33745cac647bbfff0ec8648c77c3cddd015cc1fdd4e0b2090c683b"]
