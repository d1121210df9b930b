"""End-to-end acceptance run at full instance counts.

One test per criterion; each prints a PASS/FAIL line (run with -s to watch
them stream) and asserts the pinned tolerance.  The randomized suites run
once in a module fixture so the wall-clock and probe-count budgets can be
asserted over the whole block.  The byte-identity gate rides on the same
fixture: the sha256 of the selftest report, and the suites' counts at two
more seeds; the suites' decide() margins at seed 7 are pinned on their own
smaller run.
"""

import hashlib
import math
import time

import numpy as np
import pytest

from l2tor import checks
from l2tor.checks import SUITES, run_suite
from l2tor.cli import _emit, _environment
from l2tor.config import DEFAULT_SEED
from l2tor.selftest import CRITERIA, CriterionResult

_TIMINGS: dict[str, float] = {}
_RESULTS: dict[str, CriterionResult] = {}


@pytest.fixture(scope="module")
def results():
    if not _RESULTS:
        for criterion in CRITERIA:
            start = time.perf_counter()
            row = criterion(DEFAULT_SEED, False)
            _TIMINGS[row.name] = time.perf_counter() - start
            _RESULTS[row.name] = row
    return _RESULTS


def _report(row: CriterionResult) -> None:
    print(f"{'PASS' if row.passed else 'FAIL'}: {row.name}")


def test_c3_reproduction(results):
    row = results["C3"]
    _report(row)
    assert row.detail["abs_error"] < 1e-6
    assert _TIMINGS["C3"] < 30.0
    assert row.passed


def test_even_dimension_vanishing(results):
    row = results["even-dim-vanishing"]
    _report(row)
    assert all(v == 0.0 for v in row.detail["values"].values())
    assert row.passed


def test_anomaly_dim2(results):
    row = results["anomaly-dim2"]
    _report(row)
    eighth = -1.0 / (8.0 * math.pi)
    assert row.detail["d"][0] == pytest.approx(eighth, abs=1e-12)
    assert row.detail["d"][1] == pytest.approx(0.0, abs=1e-12)
    assert row.detail["d"][2] == pytest.approx(eighth, abs=1e-12)
    assert row.detail["sum"] == pytest.approx(-1.0 / (4.0 * math.pi), abs=1e-12)
    assert row.passed


def test_anomaly_dim3(results):
    row = results["anomaly-dim3"]
    _report(row)
    for entry in row.detail["rows"]:
        assert entry["sum"] == pytest.approx(entry["target"], abs=1e-12)
        assert max(entry["cancellations"]) < 1e-12
    assert {entry["u"] for entry in row.detail["rows"]} == {0.0, 0.1, 0.5, 1.0}
    assert row.passed


@pytest.mark.parametrize("suite", ["basic", "block", "short-exact",
                                   "gromov-shubin"])
def test_inequality_suite_zero_violations(results, suite):
    row = results[suite]
    _report(row)
    assert row.detail["n_violations"] == 0
    assert row.passed


# probes and instances of every suite row at the default seed: a change that
# moves one of them moves the suite's sdf-check and selftest bytes
_SUITE_ROWS = {
    "basic": (73_916, 800),
    "block": (52_012, 800),
    "short-exact": (3_344, 400),
    "gromov-shubin": (2_049, 400),
    "laplacian": (7_522, 1_000),
}


@pytest.mark.parametrize("suite", sorted(_SUITE_ROWS))
def test_suite_probes_and_instances_are_pinned(results, suite):
    detail = results[suite].detail
    assert (detail["probes"], detail["instances"]) == _SUITE_ROWS[suite]


# sha256 of `l2tor selftest --output` at the default seed, pinned with
# python 3.11.7, numpy 2.4.6, scipy 1.17.1 on 2 CPUs
_SELFTEST_SHA256 = "6becd27cb8c6ad3f865e7877368ad9d03900d533dcb2bdb39f7f1a390b167bbd"


def test_selftest_report_bytes_are_pinned(results, tmp_path):
    # the fixture's rows, written as `selftest --output` writes them
    rows = list(results.values())
    path = tmp_path / "selftest.json"
    _emit({"results": [r.to_dict() for r in rows], "ok": all(r.passed for r in rows)},
          str(path))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == _SELFTEST_SHA256, (
        f"selftest report sha256 {digest}; this run: {_environment(DEFAULT_SEED)}")


# probes, violations and total skips of every suite at 200 instances and
# max_dim 6, at seeds 7 and 11: the sdf-check counts beyond the default seed
_OTHER_SEEDS = {
    ("basic", 7): (18_142, 0, 288), ("basic", 11): (17_853, 0, 264),
    ("block", 7): (12_923, 0, 192), ("block", 11): (13_112, 0, 184),
    ("short-exact", 7): (1_593, 0, 0), ("short-exact", 11): (1_590, 0, 0),
    ("gromov-shubin", 7): (976, 0, 0), ("gromov-shubin", 11): (935, 0, 0),
    ("laplacian", 7): (1_467, 0, 0), ("laplacian", 11): (1_444, 0, 0),
}


@pytest.mark.parametrize("suite, seed", sorted(_OTHER_SEEDS))
def test_suite_counts_at_other_seeds_are_pinned(suite, seed):
    rep = run_suite(suite, seed=seed, instances=200, max_dim=6)
    counts = (rep.probes, len(rep.violations), sum(rep.skipped.values()))
    assert counts == _OTHER_SEEDS[suite, seed]


# sha256 of every decide() margin of the five suites at seed 7, 50 instances
# each and max_dim 6, in suite-name order: float.hex, or None where a left
# side vanishes on its range; a last-bit change in the step-function algebra
# or in a rank moves it even where no probe, violation or skip moves
_MARGINS_SHA256 = "7164915d0d441b6f21a9f59977579417e52766c841f520ddfb5ded251dd957e9"


def test_suite_margins_at_seed_7_are_pinned(monkeypatch):
    margins = []
    decide = checks._decide

    def collected(relations):
        probes, violations, found = decide(relations)
        margins.extend(found)
        return probes, violations, found

    monkeypatch.setattr(checks, "_decide", collected)
    for suite in sorted(SUITES):
        run_suite(suite, seed=7, instances=50, max_dim=6)
    assert len(margins) == 1_708
    text = "\n".join("None" if m is None else m.hex() for m in margins)
    assert hashlib.sha256(text.encode()).hexdigest() == _MARGINS_SHA256


# the decompositions of every suite at seed 7, 200 instances and max_dim 6,
# as (svd, cholesky, inv, qr): a change that adds one back fails here.  The
# Cholesky factors are the generated grams', the inverses the spaces'
# inverse whiteners and gromov-shubin's s_blocks, the QRs the frames of
# random_complex; the structure checks take an SVD only where the Frobenius
# norm of the defect does not settle them
_DECOMPOSITIONS = {
    "basic": (1_622, 1_000, 600, 0),
    "block": (800, 800, 400, 0),
    "short-exact": (3_770, 1_583, 1_411, 623),
    "gromov-shubin": (2_871, 1_182, 1_773, 424),
    "laplacian": (1_343, 591, 391, 439),
}


@pytest.mark.parametrize("suite", sorted(_DECOMPOSITIONS))
def test_suite_decompositions_at_seed_7_are_pinned(suite, monkeypatch):
    names = ("svd", "cholesky", "inv", "qr")
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _call=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _call(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    run_suite(suite, seed=7, instances=200, max_dim=6)
    assert tuple(calls.values()) == _DECOMPOSITIONS[suite]


def test_inequality_suites_probe_and_time_budget(results):
    suites = ["basic", "block", "short-exact", "gromov-shubin"]
    probes = sum(results[s].detail["probes"] for s in suites)
    elapsed = sum(_TIMINGS[s] for s in suites)
    print(f"PASS: suite-budget ({probes} probes in {elapsed:.1f}s)"
          if probes >= 100_000 and elapsed < 300.0 else "FAIL: suite-budget")
    assert probes >= 100_000
    assert elapsed < 300.0


def test_laplacian_decomposition_thousand_complexes(results):
    row = results["laplacian"]
    _report(row)
    assert row.detail["instances"] == 1000
    assert row.detail["n_violations"] == 0
    assert row.passed


def test_circle_determinants(results):
    row = results["circle-det"]
    _report(row)
    for entry in row.detail["rows"]:
        assert entry["abs_error"] < 1e-8
    assert {round(e["L"], 6) for e in row.detail["rows"]} == {
        1.0, round(2 * math.pi, 6), 5.0}
    assert row.passed


def test_expansion_constant_oracle(results):
    row = results["cim-constant"]
    _report(row)
    assert row.detail["selected"] == "reciprocal"
    assert row.detail["max_selected_residual"] < 1e-10
    # the losing closed form disagrees visibly away from power gap two
    reported = [r["literal_residual"] for r in row.detail["rows"]
                if r["power_gap"] != 2]
    assert min(reported) > 0.1
    assert row.passed


def test_heat_kernel_boundary_insensitivity(results):
    row = results["heat-boundary"]
    _report(row)
    assert row.detail["closed_form_violations"] == 0
    assert row.detail["monotone_in_cutoff"] is True
    assert all(math.isfinite(v) for v in row.detail["fitted_c1_at_c2_1"].values())
    assert row.passed


def test_large_time_domination(results):
    row = results["large-t-domination"]
    _report(row)
    assert row.detail["probes"] >= 10_000
    assert row.detail["violations"] == 0
    assert row.passed


def test_jsj_formula(results):
    row = results["jsj"]
    _report(row)
    assert row.detail["graph_torsion"] == 0.0
    assert row.detail["unit_torsion"] == -1.0
    assert row.detail["additivity_defect"] < 1e-12
    assert row.passed


def test_all_criteria_green(results):
    failing = [name for name, row in results.items() if not row.passed]
    print("PASS: all-criteria" if not failing else f"FAIL: {failing}")
    assert not failing
