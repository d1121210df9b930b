"""Seeded workloads for the l2tor benchmark and the checks on their outputs.

A workload is a fixed round of items built from the seed; every run repeats
that round.  An item is one suite instance (``run_suite`` with one instance)
or one determinant, torsion or constant evaluation.  Each item carries an
``expected`` value computed here without the program's own machinery, and
``check_item`` compares the program's output against it.

Only ``numpy`` and ``l2tor`` are imported at module level, so a fresh
interpreter that builds a workload pays for nothing but the program's own
import chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from l2tor.checks import run_suite
from l2tor.heattrace import HeatTraceModel, analytic_torsion, zeta_det
from l2tor.hyperbolic import load_plancherel_table, torsion_constant
from l2tor.mellin import resolve_dsmall_constant
from l2tor.rand import random_map, random_space
from l2tor.sdf import sdf_of_map
from l2tor.spectrum import Spectrum

MAX_DIM = 6

# instances per suite in one round: enough that the round's mean instance
# cost varies by about 1% between seeds (instance costs spread by 20-35%)
SUITE_ROUND = {
    "inequalities": (("basic", 200), ("block", 200)),
    "complexes": (("short-exact", 200), ("gromov-shubin", 200), ("laplacian", 200)),
}
# torsion round: (kind, count)
TORSION_ROUND = (("zeta_det", 110), ("analytic_torsion", 40), ("circle_det", 40),
                 ("torsion_constant", 8))
WORKLOADS = ("inequalities", "complexes", "torsion")
# the yardstick kind whose work resembles each workload's (bench/yardstick.py)
YARDSTICKS = {"inequalities": "evaluation", "complexes": "construction",
              "torsion": "quadrature"}
SUITE_KINDS = frozenset(s for rounds in SUITE_ROUND.values() for s, _ in rounds)

# maps per run in the sdf_of_map sample of the suite workloads
SDF_SAMPLE = 64

# accuracy demanded of the analytic side; quadrature targets 1e-12
DET_RTOL = 1e-9
TORSION_CONSTANT_ATOL = 1e-6
# singular values must agree to this share of the largest one
SDF_ATOL = 1e-7

_WEIGHTS = (1.0, 0.5, 2.0, 1.0 / 3.0)
# torsion per unit volume of hyperbolic 3-space
H3_CONSTANT = -1.0 / (3.0 * math.pi)


@dataclass
class Item:
    kind: str
    run: Callable[[], Any]
    expected: Any = None


def _rng(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *path]))


def _instance_seed(seed: int, suite_index: int, k: int) -> int:
    return int(np.random.SeedSequence([seed, 1, suite_index, k]).generate_state(1)[0])


def _random_spectrum(rng: np.random.Generator, n: int) -> Spectrum:
    """n log-uniform eigenvalues on [0.05, 20], weights from a small set, and
    a zero mode three times in ten."""
    eig = np.exp(rng.uniform(math.log(0.05), math.log(20.0), n))
    w = rng.choice(_WEIGHTS, n)
    if rng.random() < 0.3:
        eig = np.append(eig, 0.0)
        w = np.append(w, float(rng.choice(_WEIGHTS)))
    return Spectrum(eig, w)


def log_det(S: Spectrum) -> float:
    """sum of w log(lambda) over the positive eigenvalues: -zeta'(0) of a
    finite spectrum, computed directly."""
    pos = S.eigenvalues > 0
    return float(np.sum(S.weights[pos] * np.log(S.eigenvalues[pos])))


def _suite_items(workload: str, seed: int) -> list[Item]:
    items = []
    for s_idx, (suite, count) in enumerate(SUITE_ROUND[workload]):
        for k in range(count):
            inst = _instance_seed(seed, s_idx, k)
            items.append(Item(suite, lambda suite=suite, inst=inst:
                              run_suite(suite, inst, 1, max_dim=MAX_DIM)))
    return items


def _torsion_items(seed: int, table) -> list[Item]:
    items = []
    counts = dict(TORSION_ROUND)
    # sizes and degree counts cycle rather than being drawn, because the
    # cost of an item grows with them: drawn, they moved the round's cost by
    # 8% from seed to seed
    rng = _rng(seed, 2, 0)
    for k in range(counts["zeta_det"]):
        S = _random_spectrum(rng, 1 + k % 8)
        items.append(Item("zeta_det", lambda S=S: zeta_det(S), log_det(S)))
    rng = _rng(seed, 2, 1)
    for k in range(counts["analytic_torsion"]):
        spectra = {p: _random_spectrum(rng, 1 + (k + p) % 6) for p in range(2 + k % 3)}
        expected = sum((-1) ** p * p * -log_det(S) for p, S in spectra.items())

        def run(spectra=spectra):
            return analytic_torsion({p: HeatTraceModel.from_spectrum(S)
                                     for p, S in spectra.items()}).total
        items.append(Item("analytic_torsion", run, expected))
    rng = _rng(seed, 2, 2)
    for L in np.exp(rng.uniform(math.log(0.5), math.log(8.0), counts["circle_det"])):
        L = float(L)
        items.append(Item("circle_det", lambda L=L: zeta_det(HeatTraceModel.from_circle(L)),
                          L * L))
    for _ in range(counts["torsion_constant"]):
        items.append(Item("torsion_constant", lambda: torsion_constant(table), H3_CONSTANT))
    # interleave kinds so every stretch of the round has the same mix
    order = _rng(seed, 2, 3).permutation(len(items))
    return [items[i] for i in order]


class Workload:
    """One-time set-up plus the seeded round of items of a named workload."""

    def __init__(self, name: str, seed: int):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
        self.name = name
        self.seed = seed
        self.yardstick = YARDSTICKS[name]
        self.table = None

    def setup(self) -> None:
        """The workload's one-time work, which set-up time includes."""
        if self.name == "torsion":
            self.table = load_plancherel_table()
            resolve_dsmall_constant()

    def items(self) -> list[Item]:
        if self.name == "torsion":
            return _torsion_items(self.seed, self.table)
        return _suite_items(self.name, self.seed)

    def sdf_checks(self) -> list[str | None]:
        """The sdf_of_map sample of the suite workloads, one reason or None
        per map; the torsion workload builds no traced maps."""
        return [] if self.name == "torsion" else run_sdf_sample(self.seed)

    def first_item(self) -> Item:
        """The item that ends set-up: the first torsion constant on the
        torsion workload, the first item of the round elsewhere."""
        if self.name == "torsion":
            return Item("torsion_constant", lambda: torsion_constant(self.table), H3_CONSTANT)
        return self.items()[0]


def check_item(item: Item, out) -> str | None:
    """None when the output passes its check, else a one-line reason."""
    if item.kind in SUITE_KINDS:
        # the paper's inequalities are theorems: any violation is a fault
        if out.instances != 1 or out.violations:
            return f"{item.kind}: {len(out.violations)} violations"
        return None
    if item.kind == "torsion_constant":
        ok = abs(out - item.expected) <= TORSION_CONSTANT_ATOL
    elif item.kind == "circle_det":
        ok = abs(out - item.expected) <= DET_RTOL * item.expected
    elif item.kind == "zeta_det":
        ok = out > 0 and abs(math.log(out) - item.expected) <= DET_RTOL * max(
            1.0, abs(item.expected))
    else:  # analytic_torsion
        ok = abs(out - item.expected) <= DET_RTOL * max(1.0, abs(item.expected))
    return None if ok else f"{item.kind}: got {out!r}, expected {item.expected!r}"


def same_output(a, b) -> bool:
    """Equal outputs: suite reports by their JSON payload, numbers exactly."""
    if hasattr(a, "to_dict"):
        a, b = a.to_dict(), b.to_dict()
    return a == b


# -- sdf_of_map sample ------------------------------------------------------------


def sdf_sample(seed: int, n: int = SDF_SAMPLE) -> list:
    """Random gram-weighted maps drawn like the suites draw them."""
    rng = _rng(seed, 3)
    maps = []
    for _ in range(n):
        norm = float(rng.choice(_WEIGHTS))
        U = random_space(rng, int(rng.integers(1, MAX_DIM + 1)), norm)
        V = random_space(rng, int(rng.integers(1, MAX_DIM + 1)), norm)
        maps.append(random_map(rng, U, V))
    return maps


def expected_singular_values(f) -> np.ndarray:
    """Generalised singular values from eigh(A^T G_t A, G_s), ascending, with
    dim(source) entries."""
    from scipy.linalg import eigh

    a = f.coefficients
    mu = eigh(a.T @ f.target.gram @ a, f.source.gram, eigvals_only=True)
    return np.sqrt(np.clip(mu, 0.0, None))


def check_sdf(f, F) -> str | None:
    """Compare a spectral density function with the independent eigensolve.

    The eigensolve squares the singular values, so a zero one comes back as
    about sqrt(machine epsilon) times the largest: the comparison allows
    SDF_ATOL of the largest singular value, far below the 1e-6 separation
    that random_map keeps between zero and nonzero singular values.
    """
    weight = f.source.normalization
    jumps = np.diff(F.vals, prepend=0.0)
    mult = np.rint(jumps / weight).astype(int)
    if np.any(mult < 1) or not np.allclose(mult * weight, jumps, rtol=0.0, atol=1e-12):
        return "sdf jumps are not multiples of the trace normalization"
    got = np.repeat(F.lams, mult)
    want = expected_singular_values(f)
    if got.shape != want.shape:
        return f"sdf counts {got.size} singular values, eigensolve {want.size}"
    if np.max(np.abs(got - want), initial=0.0) > SDF_ATOL * max(want.max(initial=0.0), 1e-300):
        return "sdf breakpoints differ from the eigensolve"
    return None


def run_sdf_sample(seed: int) -> list[str | None]:
    return [check_sdf(f, sdf_of_map(f)) for f in sdf_sample(seed)]


