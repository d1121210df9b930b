"""Hyperbolic model-space heat densities, torsion constant, cusp volumes.

The per-unit-volume p-form heat traces of hyperbolic space are integrals of
polynomial spectral densities against a Gaussian; the shipped table for
dimension three is validated at load time by structural invariants (Hodge
duality of the traces, the short-time leading term, and the vanishing
alternating sum) rather than by quoted numbers.  Feeding the densities into
the torsion machinery yields the proportionality constant relating torsion
to volume, which vanishes in even dimensions by duality.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from math import factorial
from typing import Callable

import numpy as np

from .heattrace import HeatTraceModel, TorsionResult, analytic_torsion, quad

__all__ = [
    "PlancherelComponent",
    "PlancherelTable",
    "load_plancherel_table",
    "heat_density",
    "plancherel_heat_model",
    "torsion_constant",
    "torsion_constant_result",
    "CuspEnd",
    "cusp_volume",
    "truncated_volume",
]

_VALIDATION_TIMES = np.geomspace(1e-3, 5.0, 12)  # PlancherelTable.validate's probes


def _gaussian_moment(k: int) -> float:
    """int_0^inf s^k e^{-s^2} ds = Gamma((k+1)/2)/2."""
    return 0.5 * math.gamma((k + 1) / 2)


def _exp_taylor_remainder(z: float, order: int) -> float:
    """e^{-z} minus its Taylor polynomial through degree `order`, stable.

    Summing the series from degree order + 1 avoids the catastrophic
    cancellation of the direct subtraction for small z.
    """
    if z == 0.0:
        return 0.0
    if z > 0.5:
        return math.exp(-z) - sum((-z) ** j / factorial(j) for j in range(order + 1))
    term = (-z) ** (order + 1) / factorial(order + 1)
    total = 0.0
    j = order + 1
    while abs(term) > 1e-20 * max(abs(total), 1e-280):
        total += term
        j += 1
        term *= (-z) / j
    return total


@dataclass(frozen=True)
class PlancherelComponent:
    """One spectral component: eigenvalue r^2 + shift, density poly(r)."""

    shift: float
    poly: tuple[float, ...]

    def __post_init__(self):
        if self.shift < 0:
            raise ValueError("spectral shift must be nonnegative")
        if not self.poly or any(not np.isfinite(c) for c in self.poly):
            raise ValueError("density polynomial must be finite and nonempty")

    def trace(self, t: float) -> float:
        """int_0^inf e^{-t(r^2 + shift)} poly(r) dr via r = s / sqrt(t)."""
        if t <= 0:
            raise ValueError("time must be positive")
        acc = 0.0
        for k, c in enumerate(self.poly):
            if c:
                acc += c * _gaussian_moment(k) * t ** (-(k + 1) / 2.0)
        return acc * math.exp(-t * self.shift)

    def expansion(self, m: int):
        """Coefficients of t^{-(m-i)/2}, i = 0..m, plus a stable remainder.

        Expanding e^{-shift t} against each power t^{-(k+1)/2} assigns the
        terms with nonpositive exponent to the coefficient vector; the
        remainder evaluates the complementary Taylor tail without
        cancellation.
        """
        coeff = np.zeros(m + 1)
        tail_terms = []
        for k, c in enumerate(self.poly):
            if not c:
                continue
            base = c * _gaussian_moment(k)
            # the j-th Taylor term has power -(k+1)/2 + j, which is
            # t^{-(m-i)/2} for i = m - k - 1 + 2j; keep 0 <= i <= m
            j_lo, j_cut = max(0, (k + 2 - m) // 2), (k + 1) // 2
            for j in range(j_lo, j_cut + 1):
                coeff[m - k - 1 + 2 * j] += base * (-self.shift) ** j / factorial(j)
            tail_terms.append((base, k, j_cut if j_lo <= j_cut else -1))

        def remainder(t: float) -> float:
            acc = 0.0
            for base, k, j_cut in tail_terms:
                acc += base * t ** (-(k + 1) / 2.0) * _exp_taylor_remainder(
                    self.shift * t, j_cut)
            return acc

        return coeff, remainder

    def tail_integral(self, T: float) -> float:
        """Exact-or-certified integral of trace(t)/t over [T, inf)."""
        if self.shift > 0:
            val, _ = quad(lambda t: self.trace(t) / t, T, np.inf,
                          limit=300, epsabs=1e-14, epsrel=1e-12)
            return val
        acc = 0.0
        for k, c in enumerate(self.poly):
            if c:
                a = (k + 1) / 2.0
                acc += c * _gaussian_moment(k) * T ** (-a) / a
        return acc


@dataclass(frozen=True)
class PlancherelTable:
    m: int
    rows: tuple[tuple[PlancherelComponent, ...], ...]  # indexed by degree p

    def __post_init__(self):
        if self.m < 1 or self.m % 2 == 0:
            raise ValueError("table dimension must be odd and positive")
        if len(self.rows) != self.m + 1:
            raise ValueError(f"need rows for every degree 0..{self.m}")

    def density(self, p: int, t: float) -> float:
        if not 0 <= p <= self.m:
            raise ValueError(f"no density row for degree {p}")
        return sum(comp.trace(t) for comp in self.rows[p])

    # -- structural invariants ----------------------------------------------------

    def validate(self) -> dict:
        """Duality, short-time leading term, vanishing alternating sum.

        Raises on failure; returns the observed defects.
        """
        dual = 0.0
        alternating = 0.0
        for t in _VALIDATION_TIMES:
            vals = [self.density(p, t) for p in range(self.m + 1)]
            for p in range(self.m + 1):
                dual = max(dual, abs(vals[p] - vals[self.m - p]))
            alternating = max(alternating, abs(sum((-1) ** p * v
                                                   for p, v in enumerate(vals))))
        if dual > 1e-10:
            raise ValueError(f"duality defect {dual}")
        if alternating > 1e-9:
            raise ValueError(f"alternating-sum defect {alternating}")
        t0 = 1e-4
        leading = 0.0
        for p in range(self.m + 1):
            target = math.comb(self.m, p) / (4.0 * math.pi * t0) ** (self.m / 2.0)
            rel = abs(self.density(p, t0) - target) / target
            leading = max(leading, rel)
        if leading > 1e-3:
            raise ValueError(f"short-time leading-term defect {leading}")
        return {"duality": dual, "alternating_sum": alternating,
                "leading_term_rel": leading}


def _field(raw, key: str, location: str, convert: Callable):
    """convert(raw[key]); a raw that is no object, a missing key or a value
    that convert refuses raises a ValueError naming the location."""
    if not isinstance(raw, dict):
        raise ValueError(f"{location}: expected an object")
    if key not in raw:
        raise ValueError(f"{location}: missing field {key!r}")
    try:
        return convert(raw[key])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{location}.{key}: {exc}") from None


def _integer(value) -> int:
    """A JSON integer; 3.0 counts as 3, while 3.9, true and "3" are refused."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"expected an integer, got {value!r}")


def load_plancherel_table(path: str | None = None) -> PlancherelTable:
    """Load a density table from JSON (the packaged m = 3 table by default)
    and validate it; a malformed file raises a ValueError naming the file
    and the field."""
    if path is None:
        where = "plancherel_h3.json"
        raw = json.loads(resources.files("l2tor.data").joinpath(where).read_text())
    else:
        where = str(path)
        with open(path) as fh:
            raw = json.load(fh)
    m = _field(raw, "m", where, _integer)
    rows: list[tuple[PlancherelComponent, ...] | None] = [None] * (m + 1)
    for i, row in enumerate(_field(raw, "rows", where, list)):
        loc = f"{where}.rows[{i}]"
        p = _field(row, "p", loc, _integer)
        if not 0 <= p <= m:
            raise ValueError(f"{loc}.p: degree {p} is outside 0..{m}")
        if rows[p] is not None:
            raise ValueError(f"{loc}.p: degree {p} appears twice")
        comps = []
        for j, c in enumerate(_field(row, "components", loc, list)):
            cloc = f"{loc}.components[{j}]"
            shift, poly = _field(c, "shift", cloc, float), _field(c, "poly", cloc, tuple)
            try:
                comps.append(PlancherelComponent(shift, poly))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{cloc}: {exc}") from None
        rows[p] = tuple(comps)
    table = PlancherelTable(m, tuple(() if r is None else r for r in rows))
    table.validate()
    return table


def heat_density(table: PlancherelTable, p: int, t: float) -> float:
    """Per-unit-volume p-form heat trace at time t."""
    try:
        value = table.density(p, t)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"heat density of degree {p} overflows a double at t = {t:g}")
    return value


def plancherel_heat_model(table: PlancherelTable, p: int) -> HeatTraceModel:
    """HeatTraceModel for one degree, with analytic expansion and tail."""
    comps = table.rows[p]
    coeff = np.zeros(table.m + 1)
    remainders = []
    for comp in comps:
        c, rem = comp.expansion(table.m)
        coeff += c
        remainders.append(rem)
    return HeatTraceModel(
        evaluate=lambda t: table.density(p, t),
        m=table.m,
        coefficients=coeff,
        residual=lambda t: sum(r(t) for r in remainders),
        tail_integral=lambda T: sum(comp.tail_integral(T) for comp in comps),
    )


def torsion_constant_result(table: PlancherelTable | None = None,
                            m: int = 3) -> TorsionResult:
    """Torsion per unit volume of the hyperbolic space, by degree.

    Even dimensions return zero outright, with no degrees: the duality
    pairing of degrees p and m - p flips the sign of the degree weight.
    Odd dimensions run the full small/large-time pipeline over all degrees.
    """
    if m % 2 == 0:
        return TorsionResult([], 0.0, {"error": 0.0})
    if table is None:
        table = load_plancherel_table()
    if table.m != m:
        raise ValueError(f"table is for dimension {table.m}, not {m}")
    models = {p: plancherel_heat_model(table, p) for p in range(m + 1)}
    return analytic_torsion(models)


def torsion_constant(table: PlancherelTable | None = None, m: int = 3) -> float:
    """Torsion per unit volume; see torsion_constant_result."""
    return torsion_constant_result(table, m).total


@dataclass(frozen=True)
class CuspEnd:
    """Warped end [R, inf) x F with cross-section volume vol(F) at u = 0."""

    cross_section_volume: float
    base_height: float = 0.0

    def __post_init__(self):
        if self.cross_section_volume <= 0:
            raise ValueError("cross-section volume must be positive")


def cusp_volume(end: CuspEnd, m: int, height: float | None = None) -> float:
    """Volume of the end above `height`: vol(F) e^{-(m-1)R} / (m-1).

    The warped metric contracts the cross-section by e^{-u}, so the volume
    element carries e^{-(m-1)u}.
    """
    if m < 2:
        raise ValueError("end volume needs dimension at least 2")
    R = end.base_height if height is None else height
    try:
        value = end.cross_section_volume * math.exp(-(m - 1) * R) / (m - 1)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"cusp volume overflows a double at height {R:g}")
    return value


def truncated_volume(total_volume: float, ends: list[CuspEnd], R: float,
                     m: int) -> float:
    """Volume of the compact part once every end is cut at height R."""
    cusps = sum(cusp_volume(e, m, height=R) for e in ends)
    if total_volume < cusps - 1e-12 * max(1.0, abs(total_volume)):
        raise ValueError(
            f"total volume {total_volume} is smaller than the cusp volume {cusps}")
    return total_volume - cusps
