"""The defect ledger: each reproduced open defect as a strict xfail.

Every case asserts what the north star asks of a command, on a value or an
exit code, and fails today for the reason its ROADMAP item gives.  Strict
mode turns a fix into an XPASS, which fails the suite, so the change that
mends a defect drops its marker and the ledger stays current.
"""

import json
import math

import numpy as np
import pytest
from exact_slab_volume import exact_slab_volume

from margbounds import cli, densities, grassmann, kernels, marginals, slabgeom


def _report(tmp_path, argv):
    """(exit code, report or None) of one in-process CLI run."""
    out = tmp_path / "report.json"
    code = cli.main(argv + ["--out", str(out)])
    return code, (json.loads(out.read_text()) if out.exists() else None)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 17")
def test_a_narrow_normal_exact_section_is_right_or_refused(tmp_path):
    # six unit sides, two normal coordinates near 0: the rational section is
    # 1.1910061925418634; the signed vertex sum cancels to 0.9058982053063905
    # and passes
    code, report = _report(tmp_path, [
        "sections", "--mode", "exact", "--sides", "1,1,1,1,1,1", "--normal",
        "1.709237753453937e-09,9.568418940400373e-08,0.22173541156336796,"
        "0.26844522038667024,0.839167552832119,0.4178138211980543"])
    if code != 1:
        record = report["records"][0]
        assert abs(record["value"] - 1.1910061925418634) <= record.get("rounding_bound", 1e-12) * 1.1910061925418634


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 17")
def test_search_max_at_k_1_stays_below_balls_bound(tmp_path):
    # Ball's sqrt(2) bounds every hyperplane section of the unit cube; the
    # climb keeps a value that rounding made up, 1.4155077188280838
    code, report = _report(tmp_path, ["search-max", "--n", "5", "--k", "1", "--restarts", "3",
                                      "--steps", "1000", "--seed", "1"])
    assert report["records"][0]["best_value"] <= math.sqrt(2.0) * (1.0 + 1e-12)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1(b)")
def test_search_max_at_k_2_matches_the_rational_section(tmp_path):
    # the climb ends among nearly parallel slab rows, where the 3-D kernel
    # reads about 2.75e-9 relative high; the subspace moves with the BLAS
    # kernel, so the oracle is taken at whichever one the run reports
    code, report = _report(tmp_path, ["search-max", "--n", "5", "--k", "2", "--restarts", "3",
                                      "--steps", "1000", "--seed", "1"])
    record = report["records"][0]
    rows = grassmann.orthonormal_complement(grassmann.Subspace.from_json_dict(record["subspace"])).basis
    exact = float(exact_slab_volume(rows, [-0.5] * 5, [0.5] * 5))
    assert abs(record["best_value"] - exact) <= 1e-14 * exact


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 14")
def test_slab_sum_mc_does_not_claim_zero_for_a_positive_6d_value():
    # a k = 1 marginal at n = 7: its 6-D integrand is positive at the
    # support midpoints, yet no point of the sampling cube hits its support
    f = densities.random_product_density(1, 7)
    e = grassmann.haar_sample(7, 1, 1, stream=513)
    mids = f.support_midpoints()
    if not math.prod(slabgeom.step_value(fi.pieces, m) for fi, m in zip(f.factors, mids)) > 0.0:
        pytest.fail("the integrand vanishes at the support midpoints")
    shifts = marginals.MarginalQuery(f, e, e.basis.T @ mids).ambient_shifts()
    estimate, std_error = marginals._slab_sum(f, e).mc(shifts, 20_000, 1)
    assert (estimate, std_error) != (0.0, 0.0)


def test_a_five_row_lane_with_a_narrow_seed_slab_is_right():
    # the four-row system of tests/test_kernels.py's narrow seed slab (row
    # 2, the seed row i0, two ulps wide) with a fifth row (0.3, 0.7) at
    # +-1e6: the clip read 7.97e-9 where the exact area is 1.26e-14
    W = np.array([[1.0158177, -0.69681254], [-0.2933315, 0.18012433], [1.43121931, -1.09981865],
                  [-0.29009949, -0.13643533], [0.3, 0.7]])
    edge = -2.39166721
    lo = np.array([-0.9397, -0.8395, edge, -1e6, -1e6])
    hi = np.array([0.9397, 0.8395, np.nextafter(np.nextafter(edge, 0.0), 0.0), 1e6, 1e6])
    got = kernels.table_volumes(kernels.frame_tables(W[None]), [0], lo[None], hi[None])[0]
    exact = float(exact_slab_volume(W, lo, hi))
    assert abs(got - exact) <= 1e-3 * exact


def test_a_facet_with_rows_parallel_only_before_rounding_is_right():
    # in the facet of row 1, rows 0, 3 and 4 are multiples 1, 3 and 5 of one
    # direction; projected on an orthonormal basis of the facet plane they
    # came out 1e-16 apart, did not merge, and the lane read 0.0455317 where
    # the exact volume is 11/240.  Pivoted elimination keeps them parallel
    W = np.array([[-1.0, 1.0, 1.0], [-1.0, 2.0, 1.0], [0.0, 0.0, 1.0], [-1.0, -1.0, 1.0], [-2.0, -1.0, 2.0]])
    lo, hi = np.array([-1.5, 0.0, 0.0, -1.0, 0.0]), np.array([0.5, 0.5, 0.5, 0.5, 1.0])
    got = kernels.table_volumes(kernels.frame_tables(W[None]), [0], lo[None], hi[None])[0]
    assert abs(got - float(exact_slab_volume(W, lo, hi))) <= 1e-13


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 4")
def test_verify_runs_at_n_5_k_1(tmp_path):
    # the complement frame is one 4-D slab block, beyond the 3-D kernels:
    # exit 1 before any trial
    code, _ = _report(tmp_path, ["verify", "--n", "5", "--k", "1", "--trials", "1", "--seed", "1"])
    assert code == 0


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 18")
def test_ball_integral_at_p_2_has_no_negative_margin(tmp_path):
    # the integral at p = 2 is exactly 1 = sqrt(2/2); the quadrature reads
    # 1.0000000000000002 and reports the margin -2.2e-16
    code, report = _report(tmp_path, ["ball-integral", "--p-min", "2", "--p-max", "2", "--steps", "1"])
    assert report["summary"]["min_margin"] >= 0.0


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 10")
def test_grinberg_does_not_refute_its_theorem(tmp_path):
    # the quermassintegral is invariant under a volume-preserving diagonal
    # map, so a FAIL is a false refutation; this seed's 3-SE test fails
    code, report = _report(tmp_path, ["grinberg", "--n", "4", "--k", "2", "--samples", "1000",
                                      "--diag", "2,0.5,3,0.3333333333333333", "--seed", "2"])
    assert code == 0 and report["failures"] == []
