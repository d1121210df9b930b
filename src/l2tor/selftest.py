"""End-to-end acceptance checks, shared by the CLI and the test suite.

Each criterion returns a row with a stable name, a boolean verdict and a
detail payload; tolerances are pinned here and nowhere else.  The payload
holds no timing, so a seed gives the same report bytes on every run; each
row's wall time is kept beside it, in `seconds`.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from .anomaly import PRESET_FAMILIES, anomaly_coefficients
from .checks import run_suite
from .config import DEFAULT_SEED
from .heattrace import HeatTraceModel, large_time_dominating_bound, zeta_det
from .hyperbolic import load_plancherel_table, torsion_constant
from .jsj import JsjManifest, JsjPiece, is_graph_manifold, torsion_3manifold
from .kernels1d import HALF_NEUMANN, LINE, Domain1D, boundary_insensitivity_check
from .mellin import resolve_dsmall_constant
from .rand import rng_for
from .spectrum import Spectrum

__all__ = ["CriterionResult", "run_selftest", "CRITERIA"]


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: dict
    seconds: float = 0.0  # wall time, set by run_selftest; not in to_dict

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


def _c3_constant(seed: int, quick: bool) -> CriterionResult:
    start = time.perf_counter()
    value = torsion_constant(load_plancherel_table())
    elapsed = time.perf_counter() - start
    target = -1.0 / (3.0 * math.pi)
    ok = abs(value - target) < 1e-6 and elapsed < 30.0
    return CriterionResult("C3", ok, {
        "value": value, "target": target, "abs_error": abs(value - target)})


def _even_dim(seed: int, quick: bool) -> CriterionResult:
    vals = {m: torsion_constant(m=m) for m in (2, 4, 6)}
    ok = all(v == 0.0 for v in vals.values())
    return CriterionResult("even-dim-vanishing", ok, {"values": vals})


def _anomaly_dim2(seed: int, quick: bool) -> CriterionResult:
    out = anomaly_coefficients(PRESET_FAMILIES[2], 0.0)
    eighth = -1.0 / (8.0 * math.pi)
    target = -1.0 / (4.0 * math.pi)
    per_degree_ok = (abs(out.d_per_degree[0] - eighth) < 1e-12
                     and abs(out.d_per_degree[1]) < 1e-12
                     and abs(out.d_per_degree[2] - eighth) < 1e-12)
    ok = per_degree_ok and abs(out.alternating_sum - target) < 1e-12
    return CriterionResult("anomaly-dim2", ok, {
        "d": out.d_per_degree, "sum": out.alternating_sum, "target": target})


def _anomaly_dim3(seed: int, quick: bool) -> CriterionResult:
    fam = PRESET_FAMILIES[3]
    rows = []
    ok = True
    for u in (0.0, 0.1, 0.5, 1.0):
        out = anomaly_coefficients(fam, u)
        target = -(1.0 + u) / (4.0 * math.pi)
        cancel2 = abs(out.diagnostics["second_derivative_alternating_term"])
        cancel_k = abs(out.diagnostics["curvature_psi_alternating_term"])
        good = (abs(out.alternating_sum - target) < 1e-12
                and cancel2 < 1e-12 and cancel_k < 1e-12)
        ok = ok and good
        rows.append({"u": u, "sum": out.alternating_sum, "target": target,
                     "cancellations": [cancel2, cancel_k], "ok": good})
    return CriterionResult("anomaly-dim3", ok, {"rows": rows})


# full and quick instance counts; basic and block give most of the probes
# that tests/test_acceptance.py asks of the inequality suites (100 000)
_SUITE_SIZES = {
    "basic": (800, 60),
    "block": (800, 60),
    "short-exact": (400, 60),
    "gromov-shubin": (400, 60),
    "laplacian": (1000, 150),
}


def _make_suite_criterion(suite: str):
    def run(seed: int, quick: bool) -> CriterionResult:
        full, small = _SUITE_SIZES[suite]
        rep = run_suite(suite, seed=seed, instances=small if quick else full,
                        max_dim=6)
        return CriterionResult(suite, rep.ok, {
            "probes": rep.probes, "instances": rep.instances,
            "violations": rep.violations[:10],
            "n_violations": len(rep.violations)})
    return run


def _circle_det(seed: int, quick: bool) -> CriterionResult:
    rows = []
    ok = True
    for L in (1.0, 2.0 * math.pi, 5.0):
        det = zeta_det(HeatTraceModel.from_circle(L))
        err = abs(det - L * L)
        good = err < 1e-8
        ok = ok and good
        rows.append({"L": L, "det": det, "target": L * L, "abs_error": err})
    return CriterionResult("circle-det", ok, {"rows": rows})


def _cim_constant(seed: int, quick: bool) -> CriterionResult:
    res = resolve_dsmall_constant()
    literal_worst = max(row["literal_residual"] for row in res.rows)
    ok = (res.selected == "reciprocal"
          and res.max_selected_residual < 1e-10
          and literal_worst > 0.1)  # the disagreement is reported, not hidden
    return CriterionResult("cim-constant", ok, asdict(res))


def _heat_boundary(seed: int, quick: bool) -> CriterionResult:
    rep = boundary_insensitivity_check(Domain1D(HALF_NEUMANN), Domain1D(LINE))
    c1_at_1 = rep.fitted_c1[1.0]
    ok = (not rep.closed_form_violations
          and rep.monotone_in_cutoff
          and all(math.isfinite(v) for v in c1_at_1.values()))
    return CriterionResult("heat-boundary", ok, {
        "closed_form_violations": len(rep.closed_form_violations),
        "fitted_c1_at_c2_1": c1_at_1,
        "monotone_in_cutoff": rep.monotone_in_cutoff,
        "probes": rep.probes})


def _large_t_domination(seed: int, quick: bool) -> CriterionResult:
    n_spectra = 200 if quick else 1250
    probes = 0
    violations = 0
    for k in range(n_spectra):
        rng = rng_for(seed, 10_000 + k)
        n = int(rng.integers(1, 9))
        S = Spectrum(np.sort(rng.uniform(0.005, 8.0, n)), rng.uniform(0.1, 3.0, n))
        eps = float(rng.uniform(0.05, 4.0))
        ts = 1.0 + np.sort(rng.uniform(0.0, 40.0, 8))
        out = large_time_dominating_bound(S, eps, ts)
        probes += len(ts)
        violations += len(out["violations"])
    return CriterionResult("large-t-domination", violations == 0, {
        "probes": probes, "violations": violations})


def _jsj(seed: int, quick: bool) -> CriterionResult:
    graph = JsjManifest("graph", (JsjPiece("seifert", 0.0, "s"),))
    unit = JsjManifest("unit", (JsjPiece("hyperbolic", 3.0 * math.pi, "h"),))
    a = JsjManifest("a", (JsjPiece("hyperbolic", 2.25, "x"),))
    b = JsjManifest("b", (JsjPiece("hyperbolic", 4.5, "y"),))
    ab = JsjManifest("ab", a.pieces + b.pieces)
    additive = abs(torsion_3manifold(ab)
                   - torsion_3manifold(a) - torsion_3manifold(b))
    ok = (is_graph_manifold(graph)
          and torsion_3manifold(graph) == 0.0
          and torsion_3manifold(unit) == -1.0
          and additive < 1e-12)
    return CriterionResult("jsj", ok, {
        "graph_torsion": torsion_3manifold(graph),
        "unit_torsion": torsion_3manifold(unit),
        "additivity_defect": additive})


CRITERIA = [
    _c3_constant,
    _even_dim,
    _anomaly_dim2,
    _anomaly_dim3,
    _make_suite_criterion("basic"),
    _make_suite_criterion("block"),
    _make_suite_criterion("short-exact"),
    _make_suite_criterion("gromov-shubin"),
    _make_suite_criterion("laplacian"),
    _circle_det,
    _cim_constant,
    _heat_boundary,
    _large_t_domination,
    _jsj,
]


def run_selftest(seed: int = DEFAULT_SEED, quick: bool = False) -> list[CriterionResult]:
    results = []
    for criterion in CRITERIA:
        start = time.perf_counter()
        row = criterion(seed, quick)
        row.seconds = time.perf_counter() - start
        results.append(row)
    return results
