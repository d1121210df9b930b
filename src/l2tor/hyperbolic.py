"""Hyperbolic model-space heat densities, torsion constant, cusp volumes.

The per-unit-volume p-form heat traces of hyperbolic space are integrals of
polynomial spectral densities against a Gaussian; the shipped table for
dimension three is validated at load time by structural invariants (Hodge
duality of the traces, the short-time leading term, and the vanishing
alternating sum) rather than by quoted numbers; a table of dimension m
refuses a density term r^k with k >= m, more singular than the t^{-m/2}
expansion of its heat models holds.  Feeding the densities into
the torsion machinery yields the proportionality constant relating torsion
to volume, which vanishes in even dimensions by duality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from math import factorial

import numpy as np

from .heattrace import (_EPS, _TERM_ULPS, ExactIntegral, HeatTraceModel, TorsionResult,
                        _exact_sum, _special, analytic_torsion)
from .heattrace import quad  # unused here; bench/tracing.py looks up hyperbolic.quad by name
from .inputs import ManifestError, check_range, convert, field, integer, items, number, read_json

__all__ = [
    "PlancherelComponent",
    "PlancherelTable",
    "load_plancherel_table",
    "plancherel_heat_model",
    "torsion_constant",
    "torsion_constant_result",
    "CuspEnd",
    "cusp_volume",
    "truncated_volume",
]

_VALIDATION_TIMES = np.geomspace(1e-3, 5.0, 12)  # PlancherelTable.validate's probes
# scipy.special.expn(n, s) for n <= 8 is within 10 ulps of a 40-digit mpmath value
_EXPN_ULPS = 16.0


def _gaussian_moment(k: int) -> float:
    """int_0^inf s^k e^{-s^2} ds = Gamma((k+1)/2)/2."""
    return 0.5 * math.gamma((k + 1) / 2)


def _exp_integrals(s: float, coefficients: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    """E_p(s) = int_1^inf e^{-st} t^{-p} dt for p = (k + 3)/2, one per
    coefficient c_k of a density polynomial, and bounds on their errors.

    Integer orders (odd k) come from scipy.special.expn, for the nonzero
    coefficients only: a zero c_k keeps E_p and its bound at 0, since its
    term c_k E_p and that term's error are 0 either way.  The packaged
    table's odd coefficients are all 0, so its degrees load no scipy.
    Half-integer orders start from
    E_{3/2}(s) = 2 e^{-s} - 2 sqrt(pi s) erfc(sqrt s) and step up with
    E_{p+1} = (e^{-s} - s E_p) / p, which carries the error of E_p, times
    s / p, into each step.  Both are exact at s = 0, where
    E_p(0) = 1/(p - 1).  A rounding of sqrt(s) moves erfc by about s ulps.
    """
    top = len(coefficients) - 1
    values = np.zeros(top + 1)
    errors = np.zeros(top + 1)
    odd = [k for k in range(1, top + 1, 2) if coefficients[k]]
    if odd:
        values[odd] = _special().expn((np.array(odd) + 3) // 2, s)
        errors[odd] = _EPS * _EXPN_ULPS * values[odd]
    e = math.exp(-s)
    a = 2.0 * e
    b = 2.0 * math.sqrt(math.pi * s) * math.erfc(math.sqrt(s))
    E = a - b
    err = _EPS * (_TERM_ULPS * a + (_TERM_ULPS + 2.0 * s) * b + abs(E))
    p = 1.5
    for k in range(0, top + 1, 2):
        values[k], errors[k] = E, err
        sE = s * E
        E = (e - sE) / p
        err = (s * err + _EPS * (_TERM_ULPS * e + sE + abs(e - sE))) / p + _EPS * abs(E)
        p += 1.0
    return values, errors


# 1e-20 * 1e-280 as rounded: the remainder loop's absolute floor
_REMAINDER_FLOOR = 1e-20 * 1e-280


def _exp_taylor_remainder(z: float, order: int) -> float:
    """e^{-z} minus its Taylor polynomial through degree `order`, stable.

    Summing the series from degree order + 1 avoids the catastrophic
    cancellation of the direct subtraction for small z.  The series stops
    at the first term with |term| <= 1e-20 max(|total|, 1e-280); rounding is
    monotone, so that bound is max(|1e-20 total|, _REMAINDER_FLOOR), and the
    loop tests it with comparisons alone, which cost less per term than
    calls to abs and max.
    """
    if z == 0.0:
        return 0.0
    if z > 0.5:
        return math.exp(-z) - sum((-z) ** j / factorial(j) for j in range(order + 1))
    nz = -z
    j = order + 1
    term = nz ** j / factorial(j)
    total = 0.0
    while True:
        size = term if term > 0.0 else -term
        bound = 1e-20 * total
        if bound < 0.0:
            bound = -bound
        # not (a > b) rather than a <= b, so that a NaN ends the loop
        if not (size > bound and size > _REMAINDER_FLOOR):
            return total
        total += term
        j += 1
        term *= nz / j


@dataclass(frozen=True)
class PlancherelComponent:
    """One spectral component: eigenvalue r^2 + shift, density poly(r)."""

    shift: float
    poly: tuple[float, ...]

    def __post_init__(self):
        check_range("shift", self.shift, 0, math.inf, "[)")
        if not self.poly or any(not np.isfinite(c) for c in self.poly):
            raise ValueError("density polynomial must be finite and nonempty")

    def trace(self, t: float) -> float:
        """int_0^inf e^{-t(r^2 + shift)} poly(r) dr via r = s / sqrt(t); a
        trace beyond a double is refused."""
        check_range("t", t, 0, math.inf)
        acc = 0.0
        try:
            for k, c in enumerate(self.poly):
                if c:
                    acc += c * _gaussian_moment(k) * t ** (-(k + 1) / 2.0)
        except OverflowError:  # t^{-(k+1)/2} beyond a double
            acc = math.inf
        value = acc * math.exp(-t * self.shift)
        if not math.isfinite(value):
            raise ValueError(f"heat trace overflows a double at t = {t:g}")
        return value

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
            tail_terms.append((base, -(k + 1) / 2.0, j_cut if j_lo <= j_cut else -1))
        shift = self.shift

        def remainder(t: float) -> float:
            z = shift * t
            acc = 0.0
            for base, power, j_cut in tail_terms:
                acc += base * t ** power * _exp_taylor_remainder(z, j_cut)
            return acc

        return coeff, remainder

    def large_time_exact(self) -> ExactIntegral:
        """The integral of trace(t)/t over [1, inf) in closed form,
        sum_k c_k Gamma((k+1)/2)/2 E_{(k+3)/2}(shift), and a bound on its
        error."""
        values, errors = _exp_integrals(self.shift, self.poly)
        weights = np.array([c * _gaussian_moment(k) for k, c in enumerate(self.poly)])
        return _exact_sum(weights * values, extra=float(np.sum(np.abs(weights) * errors)))


def _below_degree(poly: tuple[float, ...], m: int) -> tuple[float, ...]:
    """poly, if no nonzero r^k with k >= m gives a t^{-(k+1)/2} beyond t^{-m/2}."""
    k = max((k for k, c in enumerate(poly) if c), default=0)
    if k >= m:
        raise ValueError(f"the r^{k} term gives t^(-{k + 1}/2), more singular than "
                         f"the expansion's t^(-{m}/2); need degree below {m}")
    return poly


@dataclass(frozen=True)
class PlancherelTable:
    m: int
    rows: tuple[tuple[PlancherelComponent, ...], ...]  # indexed by degree p

    def __post_init__(self):
        if self.m < 1 or self.m % 2 == 0:
            raise ValueError("table dimension must be odd and positive")
        if len(self.rows) != self.m + 1:
            raise ValueError(f"need rows for every degree 0..{self.m}")
        for p, row in enumerate(self.rows):
            for j, comp in enumerate(row):
                convert(comp.poly, f"rows[{p}].components[{j}].poly",
                        lambda poly: _below_degree(poly, self.m))

    def density(self, p: int, t: float) -> float:
        """Per-unit-volume p-form heat trace at time t."""
        check_range("p", p, 0, self.m, "[]", integer=True)
        check_range("t", t, 0, math.inf)
        try:
            value = sum(comp.trace(t) for comp in self.rows[p])
        except ValueError:  # a component's trace overflows
            value = math.inf
        if not math.isfinite(value):
            raise ValueError(f"heat density of degree {p} overflows a double at t = {t:g}")
        return value

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


def load_plancherel_table(path: str | None = None) -> PlancherelTable:
    """Load a density table from JSON (the packaged m = 3 table by default)
    and validate it; a malformed file (or term of degree m or more) raises
    a ManifestError naming the file and the field, and a failed invariant
    one naming the file (each invariant ties rows together: duality pairs
    degree p with m - p)."""
    source = (resources.files("l2tor.data").joinpath("plancherel_h3.json")
              if path is None else path)
    where = str(source)
    raw = read_json(source)
    m = field(raw, "m", where, integer)
    if m < 1 or m % 2 == 0:
        raise ManifestError(f"{where}.m", f"expected an odd positive dimension, got {m}")
    rows: dict[int, tuple[PlancherelComponent, ...]] = {}
    for i, row in enumerate(field(raw, "rows", where, items)):
        loc = f"{where}.rows[{i}]"
        p = field(row, "p", loc, integer)
        convert(p, f"{loc}.p", lambda p: check_range("p", p, 0, m, "[]"))
        if p in rows:
            raise ManifestError(f"{loc}.p", f"degree {p} appears twice")
        comps = []
        for j, c in enumerate(field(row, "components", loc, items)):
            cloc = f"{loc}.components[{j}]"
            shift = field(c, "shift", cloc, number)
            poly = tuple(convert(v, f"{cloc}.poly[{k}]", number)
                         for k, v in enumerate(field(c, "poly", cloc, items)))
            convert(poly, f"{cloc}.poly", lambda poly: _below_degree(poly, m))
            comps.append(convert(poly, cloc, lambda poly: PlancherelComponent(shift, poly)))
        rows[p] = tuple(comps)
    if len(rows) != m + 1:
        raise ManifestError(f"{where}.rows",
                            f"expected a row for each degree 0..{m}, got {len(rows)}")
    table = PlancherelTable(m, tuple(rows[p] for p in range(m + 1)))
    convert(table, where, PlancherelTable.validate)
    return table


def plancherel_heat_model(table: PlancherelTable, p: int) -> HeatTraceModel:
    """HeatTraceModel for one degree: the small-time expansion with its
    stable remainder, which the table's degree bound makes vanish at t = 0,
    and the large-time integral in closed form."""
    check_range("p", p, 0, table.m, "[]", integer=True)
    comps = table.rows[p]
    large = [comp.large_time_exact() for comp in comps]
    coeff = np.zeros(table.m + 1)
    remainders = []
    for comp in comps:
        c, rem = comp.expansion(table.m)
        coeff += c
        # e^0 is its own Taylor polynomial: an unshifted component's
        # remainder is exactly 0, and adding it changes no sum
        if comp.shift:
            remainders.append(rem)
    model = HeatTraceModel(
        evaluate=lambda t: table.density(p, t),
        m=table.m,
        coefficients=coeff,
        residual=(remainders[0] if len(remainders) == 1
                  else lambda t: sum(r(t) for r in remainders)),
        # the components' values add with no further rounding of their terms
        large_time_exact=_exact_sum(np.array([v for v, _ in large]), 0.0,
                                    sum(err for _, err in large)),
    )
    model._from_library = True
    return model


def torsion_constant_result(table: PlancherelTable | None = None,
                            m: int = 3) -> TorsionResult:
    """Torsion per unit volume of the hyperbolic space, by degree.

    Even dimensions return zero outright, with no degrees: the duality
    pairing of degrees p and m - p flips the sign of the degree weight.
    Odd dimensions run the full small/large-time pipeline over all degrees;
    degrees with equal rows (p and m - p, by duality) share one model, which
    analytic_torsion solves once.
    """
    if m % 2 == 0:
        return TorsionResult([], 0.0, {"error": 0.0})
    if table is None:
        table = load_plancherel_table()
    if table.m != m:
        raise ValueError(f"table is for dimension {table.m}, not {m}")
    by_row: dict[tuple[PlancherelComponent, ...], HeatTraceModel] = {}
    for p, row in enumerate(table.rows):
        if row not in by_row:
            by_row[row] = plancherel_heat_model(table, p)
    return analytic_torsion({p: by_row[row] for p, row in enumerate(table.rows)})


def torsion_constant(table: PlancherelTable | None = None, m: int = 3) -> float:
    """Torsion per unit volume; see torsion_constant_result."""
    return torsion_constant_result(table, m).total


@dataclass(frozen=True)
class CuspEnd:
    """Warped end [R, inf) x F with cross-section volume vol(F) at u = 0."""

    cross_section_volume: float

    def __post_init__(self):
        check_range("cross_section_volume", self.cross_section_volume, 0, math.inf)


def cusp_volume(end: CuspEnd, m: int, height: float = 0.0) -> float:
    """Volume of the end above height R: vol(F) e^{-(m-1)R} / (m-1).

    The warped metric contracts the cross-section by e^{-u}, so the volume
    element carries e^{-(m-1)u}.
    """
    check_range("m", m, 2, math.inf, "[)")
    try:
        value = end.cross_section_volume * math.exp(-(m - 1) * height) / (m - 1)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"cusp volume overflows a double at height {height:g}")
    return value


def truncated_volume(total_volume: float, ends: list[CuspEnd], R: float,
                     m: int) -> float:
    """Volume of the compact part once every end is cut at height R."""
    check_range("total_volume", total_volume, 0, math.inf, "[)")
    cusps = sum(cusp_volume(e, m, height=R) for e in ends)
    if total_volume < cusps - 1e-12 * max(1.0, abs(total_volume)):
        raise ValueError(
            f"total volume {total_volume} is smaller than the cusp volume {cusps}")
    return total_volume - cusps
