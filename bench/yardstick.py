"""Fixed units of work that measure how fast the machine runs right now.

The machine's speed changes by itself, and not every kind of work changes by
the same factor.  So each workload is measured against a unit made of the
kind of library work that its items do:

- ``evaluation``: the ``inequalities`` suites spend their time evaluating
  step functions point by point and in numpy calls on matrices no larger
  than 6x6, so the unit does both on 5x5 matrices;
- ``construction``: the ``complexes`` suites spend theirs drawing random
  matrices and building validated gram-weighted spaces and maps, so the
  unit draws, validates, factors and decomposes 5x5 matrices;
- ``quadrature``: the analytic side integrates heat traces of small spectra
  with ``scipy.integrate.quad``, so the unit integrates one such trace;
- ``import``: set-up is mostly importing modules, so the unit executes the
  cached bytecode of twenty pure-Python standard-library modules into fresh
  module objects, which is what an import does once the files are found.

A unit never touches l2tor, so its cost is the same on every commit.  Run
after every item, it tracks changes of machine speed that last longer than
an item.
"""

from __future__ import annotations

import importlib.util
import math
import time
from dataclasses import dataclass

import numpy as np

_A = np.arange(25.0).reshape(5, 5) / 7.0 + np.eye(5)
_G = _A @ _A.T + np.eye(5)
_B = np.linspace(0.0, 3.0, 12)
_PROBES = tuple(np.linspace(0.0, 4.0, 9))
_LAM = np.array([0.07, 0.3, 1.1, 2.5, 7.0, 15.0])
_W = np.array([1.0, 0.5, 2.0, 1.0, 1.0 / 3.0, 0.5])


class _Step:
    """A step function evaluated one point at a time, as the checkers do."""

    __slots__ = ("lams", "vals")

    def __init__(self, lams, vals):
        self.lams = np.asarray(lams, dtype=float)
        self.vals = np.asarray(vals, dtype=float)

    def __call__(self, x: float) -> float:
        idx = np.searchsorted(self.lams, x, side="right")
        return 0.0 if idx == 0 else float(self.vals[idx - 1])


def evaluation_unit() -> float:
    acc = 0.0
    for _ in range(3):
        sv = np.linalg.svd(np.linalg.cholesky(_G).T @ _A, compute_uv=False)
        lams = np.unique(np.concatenate([sv, _B]))
        step = _Step(lams, np.cumsum(np.ones_like(lams)))
        acc += sum(step(x) for x in _PROBES)
        for i in range(20):
            acc += (i * 0.5) % 3.0
    return acc


@dataclass(frozen=True)
class _Space:
    """A validated gram form, built the way the suites build their spaces."""

    dim: int
    gram: np.ndarray | None = None

    def __post_init__(self):
        g = np.eye(self.dim) if self.gram is None else np.asarray(self.gram, dtype=float)
        if not np.allclose(g, g.T, atol=1e-12, rtol=1e-12):
            raise ValueError("gram form must be symmetric")
        g = 0.5 * (g + g.T)
        if np.linalg.eigvalsh(g).min() <= 0:
            raise ValueError("gram form must be positive definite")
        object.__setattr__(self, "gram", g)
        object.__setattr__(self, "chol", np.linalg.cholesky(g))


_RNG = np.random.default_rng(0)


def construction_unit() -> float:
    acc = 0.0
    for _ in range(2):
        a = _RNG.standard_normal((5, 5))
        src, tgt = _Space(5, a @ a.T + np.eye(5)), _Space(5)
        q, _r = np.linalg.qr(_RNG.standard_normal((5, 3)))
        m = tgt.chol.T @ a @ np.linalg.inv(src.chol.T)
        acc += float(np.linalg.svd(m, compute_uv=False)[0]) + float(q[0, 0])
        acc += float(np.kron(np.eye(3), a).sum())
    return acc


def quadrature_unit() -> float:
    from scipy.integrate import quad

    val, _err = quad(lambda u: float(np.sum(_W * np.expm1(-_LAM * math.exp(-u)))),
                     0.0, 60.0, limit=200, epsabs=1e-12, epsrel=1e-12)
    return val


_STDLIB = ("json.decoder", "json.encoder", "email.feedparser", "email._header_value_parser",
           "http.client", "argparse", "dataclasses", "fractions", "statistics", "inspect",
           "pathlib", "tarfile", "zipfile", "ast", "string", "textwrap", "calendar", "difflib",
           "pprint", "configparser")


def import_unit() -> None:
    for name in _STDLIB:
        spec = importlib.util.find_spec(name)
        spec.loader.exec_module(importlib.util.module_from_spec(spec))


class Yardstick:
    """`units_per_item` units of one kind, and the rate of that kind on the
    reference machine in its slow state, to which rates are scaled."""

    KINDS = {
        "evaluation": (evaluation_unit, 6, 3000.0),
        "construction": (construction_unit, 3, 1200.0),
        "quadrature": (quadrature_unit, 1, 400.0),
        "import": (import_unit, 1, 33.0),
    }

    def __init__(self, kind: str):
        self.kind = kind
        self.unit, self.units_per_item, self.reference_rate = self.KINDS[kind]

    def per_item(self) -> float:
        """Run the units that follow one item; return the seconds taken."""
        t0 = time.perf_counter()
        for _ in range(self.units_per_item):
            self.unit()
        return time.perf_counter() - t0
