"""Tests of the benchmark's own code: the output checks reject wrong values,
tracing leaves every output unchanged, and counts repeat for a fixed seed."""

import json
import math
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import l2tor  # noqa: E402
import numpy.linalg  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Item, Workload, check_item, check_sdf, same_output  # noqa: E402


def _sample(workload, seed=3, per_kind=2):
    """A few items of every kind in the workload's round."""
    w = Workload(workload, seed)
    w.setup()
    seen = Counter()
    picked = []
    for item in w.items():
        if seen[item.kind] < per_kind:
            seen[item.kind] += 1
            picked.append(item)
    return picked


@pytest.fixture(scope="module")
def torsion_items():
    return _sample("torsion")


@pytest.fixture(scope="module")
def suite_items():
    return _sample("inequalities", per_kind=1) + _sample("complexes", per_kind=1)


def test_program_outputs_pass(torsion_items, suite_items):
    for item in torsion_items + suite_items:
        assert check_item(item, item.run()) is None, item.kind


def test_injected_violation_is_rejected(suite_items):
    for item in suite_items:
        report = item.run()
        bad = replace(report, violations=[{"item": "x", "lambda": 1.0, "lhs": 2.0,
                                           "rhs": 1.0, "instance": 0}])
        assert check_item(item, bad) is not None


@pytest.mark.parametrize("kind", ["zeta_det", "circle_det", "analytic_torsion",
                                  "torsion_constant"])
def test_perturbed_analytic_value_is_rejected(torsion_items, kind):
    item = next(i for i in torsion_items if i.kind == kind)
    out = item.run()
    assert check_item(item, out) is None
    if kind == "torsion_constant":
        wrong = out + 2e-6
    elif kind == "analytic_torsion":
        wrong = out + 1e-6 * max(1.0, abs(out))
    else:
        wrong = out * (1.0 + 1e-6)
    assert check_item(item, wrong) is not None


def test_expected_values_are_the_closed_forms():
    S = l2tor.Spectrum(np.array([0.0, 0.5, 2.0]), np.array([1.0, 2.0, 0.5]))
    assert workloads.log_det(S) == pytest.approx(2.0 * math.log(0.5) + 0.5 * math.log(2.0))
    item = Item("circle_det", lambda: None, 9.0)
    assert check_item(item, 9.0) is None
    assert check_item(item, 9.0 * (1 + 1e-7)) is not None


def test_sdf_check_rejects_moved_breakpoint_and_wrong_weight():
    f = workloads.sdf_sample(seed=11, n=1)[0]
    F = l2tor.sdf_of_map(f)
    assert check_sdf(f, F) is None
    moved = l2tor.SpectralDensityFunction(F.lams * (1.0 + 1e-5), F.vals)
    assert check_sdf(f, moved) is not None
    reweighted = l2tor.SpectralDensityFunction(F.lams, F.vals * 2.0)
    assert check_sdf(f, reweighted) is not None


def test_sdf_sample_passes():
    assert workloads.run_sdf_sample(seed=4) == [None] * workloads.SDF_SAMPLE


def test_inputs_follow_the_seed():
    def expected(seed):
        w = Workload("torsion", seed)
        w.setup()
        return [i.expected for i in w.items()]

    assert expected(5) == expected(5)
    assert expected(5) != expected(6)


def _traced(items):
    tracer = tracing.layer_tracer([workloads])
    tracer.install()
    try:
        outs = [item.run() for item in items]
    finally:
        tracer.remove()
    return outs, tracer.counts


def test_tracing_leaves_outputs_unchanged_and_restores(torsion_items, suite_items):
    items = torsion_items + suite_items
    originals = (l2tor.checks.run_suite, workloads.run_suite, numpy.linalg.svd,
                 l2tor.heattrace.quad, l2tor.TracedMap.__init__,
                 l2tor.SpectralDensityFunction.__call__)
    plain = [item.run() for item in items]
    traced, counts = _traced(items)
    assert all(same_output(a, b) for a, b in zip(plain, traced))
    assert counts["checks.run_suite"] == len(suite_items)
    assert counts["heattrace.quad"] > 0 and counts["linalg.svd"] > 0
    assert (l2tor.checks.run_suite, workloads.run_suite, numpy.linalg.svd,
            l2tor.heattrace.quad, l2tor.TracedMap.__init__,
            l2tor.SpectralDensityFunction.__call__) == originals


def test_counts_repeat_for_a_fixed_seed(suite_items, torsion_items):
    items = suite_items + torsion_items
    assert _traced(items)[1] == _traced(items)[1]


def test_self_time_excludes_children():
    t = tracing.Tracer()

    def inner():
        return sum(range(20000))

    wrapped_inner = t.wrap("inner", "inner", inner)
    outer = t.wrap("outer", "outer", lambda: wrapped_inner() + wrapped_inner())
    t.spans = []
    outer()
    assert t.counts == Counter({"inner": 2, "outer": 1})
    assert t.self_s["outer"] + t.self_s["inner"] == pytest.approx(t.total_s["outer"])
    assert t.self_s["inner"] == pytest.approx(t.total_s["inner"])
    outer_id = next(s[0] for s in t.spans if s[2] == "outer")
    assert [s[1] for s in t.spans if s[2] == "inner"] == [outer_id, outer_id]


def test_traced_run_reports_every_per_layer_metric_of_the_benchmark():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    run = {"import_s": 0.5, "modules": 700, "items": 10, "plain_s": 1.0, "traced_s": 1.2}
    metrics = tracing.layer_metrics(Counter(), tracing.Tracer(), 1, run)
    assert list(metrics) == [m["name"] for m in spec["per_layer"]]
    assert all(metrics[m["name"]]["unit"] == m["unit"] for m in spec["per_layer"])


def test_round_counts_failures():
    import run

    class NoYardstick:
        @staticmethod
        def per_item():
            return 1e-3

    def boom():
        raise RuntimeError("fault")

    calls = []

    def drifting():  # within tolerance, but not the same in every round
        calls.append(1)
        return -1.0 / (3.0 * math.pi) + 1e-9 * len(calls)

    c = -1.0 / (3.0 * math.pi)
    items = [Item("torsion_constant", lambda: c, c), Item("torsion_constant", lambda: 0.0, c),
             Item("torsion_constant", boom, c), Item("torsion_constant", drifting, c)]
    rounds = run.Rounds(items, check_item, same_output)
    rounds.run_round(NoYardstick)
    assert (rounds.done, rounds.failed) == (4, 2)
    rounds.run_round(NoYardstick)
    assert (rounds.done, rounds.failed, rounds.rounds) == (8, 5, 2)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "torsion", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
