import json
import math
import os
import warnings

import numpy as np
import pytest

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


def test_unmet_sinc_tolerance_reports_achieved_bound(capsys):
    code = run(["sections", "--mode", "sinc", "--sides", "1,1,1",
                "--normal", "1,2,3", "--tol", "1e-16"])
    assert code == 1
    err = capsys.readouterr().err
    assert "achieved error bound" in err
    assert "Traceback" not in err
