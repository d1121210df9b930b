"""Zeta-regularized determinants and torsion from heat-trace data.

A HeatTraceModel wraps an evaluable kernel-free trace theta(t) together with
its dimension parameter m and the coefficients of the t^{-(m-i)/2} expansion
at small time.  A finite spectrum's expansion is its constant term alone, so
from_spectrum sets m = 0 and takes no dimension parameter; from_circle sets
m = 1, the hyperbolic degrees set the dimension of their table, and a
hand-built model gives its own m and coefficients.  The derivative at zero
of the Mellin-regularized trace splits into a small-time part (subtracted
integral plus expansion constants) and the plain large-time integral;
torsion alternates these over form degrees with weight (-1)^p p.

Exact pieces: a model hands the solvers a Mellin integral in closed form
as an ExactIntegral (value and rounding bound), and d_small and
large_time_integral then use it (method "exact").  For a finite spectrum
the subtracted integral over (0, 1] is -sum w Ein(lam) and the integral of
theta/t over [1, inf) is sum w E1(lam); E1 is computed once per eigenvalue
and serves both, since Ein(x) = E1(x) + log x + gamma from 1 on, and Ein's
series below 1 runs on Python floats, which for the few eigenvalues of a
typical spectrum costs less than numpy's per-call overhead.  For a circle
of length L, Poisson summation gives sum_k (2/k) erfc(kL/2) and
sum_n 2 E1((2 pi n / L)^2); at lengths where one sum would be too long, the
scale relation theta_L(t) = theta_1(t / L^2) gives it from the other.  The
hyperbolic Plancherel degrees (l2tor.hyperbolic) carry their large-time
integral as a sum of c E_p(shift) over the terms c e^{-shift t} t^{-(k+1)/2}
of their traces.

The large-time integral is exact or refused: large_time_integral returns
the model's large_time_exact and refuses a model without one, since its
finiteness is what makes the trace determinant class.  A small-time
integral without a closed form (the hyperbolic degrees, hand-built models)
is computed by adaptive quadrature in s = sqrt(t): the integral of
2 residual(s^2) / s over [e^{-60}, 1].  Heat-trace residuals expand in powers
of t^{1/2}, so this integrand is smooth, and QUADPACK meets its tolerance
on the first 21-point interval for the H3 degrees.  `quad` runs that first
interval itself, as QUADPACK does, and hands an integrand that needs
subdivision to scipy's quad.  The subtracted
integrand suffers catastrophic cancellation near t = 0 when computed
naively, so models carry a stable `residual` callable whenever the trace
has a closed form, and the integrand calls it directly.  d_small probes
that residual only on a model built by hand or by replace(), where a wrong
expansion can enter: the tests check the library constructors' models
(from_spectrum, from_circle, hyperbolic.plancherel_heat_model).
analytic_torsion solves a model once, however many degrees share it: the H3
degrees p and 3 - p have equal rows and share their model, so the torsion
constant takes two small-time quadratures, not four.

scipy is imported on first use, so importing this module loads none of it:
scipy.special by the first closed form that needs a special function, and
scipy's quad only for an integrand that QUADPACK would subdivide.  The H3
torsion constant loads no scipy at all.  `quad` stays a module-level
function because `bench/tracing.py` patches it by name to count and time
the quadrature calls.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .config import QUAD_ATOL
from .inputs import check_range
from .mellin import EULER_GAMMA, dsmall_constant
from .spectrum import (Spectrum, circle_heat_trace, circle_trace_residual)

__all__ = [
    "HeatTraceModel",
    "ExactIntegral",
    "d_small",
    "DsmallResult",
    "large_time_integral",
    "LargeTimeResult",
    "analytic_torsion",
    "TorsionResult",
    "zeta_det",
    "zeta_det_with_error",
    "cheeger_mueller_correction",
    "large_time_dominating_bound",
]

_S_LOW = math.exp(-60.0)  # lower end of the small-time integral in s = sqrt(t)

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).smallest_subnormal)  # bounds a term lost to underflow
# relative error, in ulps, of one closed-form term at an exactly known
# argument (special function, logarithm, products)
_TERM_ULPS = 8.0
# series of Ein(x) = sum_k (-1)^{k+1} x^k / (k k!) for x < 1, lowest power
# first: the twentieth term is below 3e-20
_EIN_SERIES = (0.0, *((-1) ** (k + 1) / (k * math.factorial(k)) for k in range(1, 21)))
# circle sums stop where erfc(kL/2) and E1((2 pi n / L)^2) fall below 1e-19;
# the dropped tails are bounded and added to the error
_ERFC_CUTOFF = 6.5
_EXP1_CUTOFF = 42.0
# at most this many terms per circle sum: a longer one comes from the
# scale relation
_MAX_CIRCLE_TERMS = 64
_DOMINATION_ATOL = 1e-12  # slack of the large-time domination check


# QUADPACK's dqk21.f: the nonnegative nodes of the 21-point Kronrod rule,
# largest first and the centre last (indices 1, 3, .., 9 are the 10-point
# Gauss nodes), their Kronrod weights, and the Gauss weights of indices
# 1, 3, .., 9
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
        0.0)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)


def _qk21(func, a: float, b: float) -> tuple[float, float, float, float]:
    """QUADPACK's dqk21 on [a, b], operation for operation: the 21-point
    Kronrod value, its error estimate, and the integrals of |f| and of
    |f - mean| (resabs and resasc).  The integrand is evaluated in
    QUADPACK's order: the centre, the Gauss pairs, the Kronrod-only pairs."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    resg = 0.0
    fc = float(func(centr))
    resk = _WGK[10] * fc
    resabs = abs(resk)
    fv1, fv2 = [0.0] * 10, [0.0] * 10
    for j in range(5):
        jtw = 2 * j + 1
        absc = hlgth * _XGK[jtw]
        fval1 = fv1[jtw] = float(func(centr - absc))
        fval2 = fv2[jtw] = float(func(centr + absc))
        fsum = fval1 + fval2
        resg = resg + _WG[j] * fsum
        resk = resk + _WGK[jtw] * fsum
        resabs = resabs + _WGK[jtw] * (abs(fval1) + abs(fval2))
    for j in range(5):
        jtwm1 = 2 * j
        absc = hlgth * _XGK[jtwm1]
        fval1 = fv1[jtwm1] = float(func(centr - absc))
        fval2 = fv2[jtwm1] = float(func(centr + absc))
        fsum = fval1 + fval2
        resk = resk + _WGK[jtwm1] * fsum
        resabs = resabs + _WGK[jtwm1] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        ratio = 200.0 * abserr / resasc
        # min(1, ratio^1.5), without the OverflowError of a huge ratio's power
        abserr = resasc * (ratio ** 1.5 if ratio < 1.0 else 1.0)
    if resabs > sys.float_info.min / (50.0 * _EPS):  # QUADPACK's uflow, d1mach(1)
        abserr = max(_EPS * 50.0 * resabs, abserr)
    return result, abserr, resabs, resasc


def quad(func, a, b, **kwargs):
    """scipy's adaptive `quad`, with its first step run here.

    With d_small's arguments (finite a < b, and epsabs, epsrel and a limit
    of at least 2), QUADPACK's dqagse starts with one dqk21 rule on [a, b]
    and returns it when its error meets the tolerance.  That step runs here
    in Python floats, with the same operations in the same order, so its
    (value, error) are scipy's bit for bit.  Every other case (a rule that
    misses the tolerance or detects round-off, a NaN, other arguments)
    imports scipy and returns its quad, which recomputes from the start.
    """
    if (kwargs.keys() == {"epsabs", "epsrel", "limit"} and kwargs["limit"] >= 2
            and -math.inf < a < b < math.inf):
        epsabs, epsrel = kwargs["epsabs"], kwargs["epsrel"]
        # tolerances that dqagse refuses as invalid input (ier = 6) go to scipy
        if not (epsabs <= 0.0 and epsrel < max(50.0 * _EPS, 0.5e-28)):
            result, abserr, resabs, resasc = _qk21(func, a, b)
            errbnd = max(epsabs, epsrel * abs(result))
            # dqagse's first accuracy test: return unless round-off (ier = 2)
            # or a missed tolerance asks for subdivision
            roundoff = abserr <= 100.0 * _EPS * resabs and abserr > errbnd
            if not roundoff and ((abserr <= errbnd and abserr != resasc) or abserr == 0.0):
                return result, abserr
    from scipy.integrate import quad

    return quad(func, a, b, **kwargs)


@functools.cache
def _special():
    """scipy.special, imported on the first call and bound once, so that
    importing this module loads no scipy and a hot constructor runs no
    import statement per call."""
    import scipy.special

    return scipy.special


class ExactIntegral(NamedTuple):
    """A Mellin integral in closed form and a bound on its error."""

    value: float
    error: float


def _exact_sum(terms: np.ndarray, ulps: float | np.ndarray = _TERM_ULPS,
               extra: float = 0.0) -> ExactIntegral:
    """Sum of closed-form terms; each is good to `ulps` ulps or lost to
    underflow, the sum adds at most n - 1 more, and `extra` bounds any
    further error (a truncated tail, the errors of inexact factors)."""
    error = (_EPS * float(np.add.reduce(np.abs(terms) * (terms.size + ulps)))
             + terms.size * _TINY + extra)
    return ExactIntegral(float(np.add.reduce(terms)), error)


def _ein(x: np.ndarray, exp1_x: np.ndarray) -> np.ndarray:
    """Ein(x), the integral of (1 - e^{-s})/s over [0, x], without
    cancellation: its alternating series below 1, E1(x) + log x + gamma
    (three positive terms) above, given exp1_x = E1(x).

    The series runs by Horner's rule on Python floats, with the same IEEE
    operations in the same order as
    np.polynomial.polynomial.polyval(x, _EIN_SERIES), so its values are
    polyval's bit for bit.  On the handful of arguments of a typical
    spectrum this costs less than the 40 ufunc calls of the array form; its
    cost grows with the number of arguments below 1, and passes the array
    form's at about a hundred of them.
    """
    out = np.empty_like(x)
    low = x < 1.0
    top, rest = _EIN_SERIES[-1], _EIN_SERIES[-2::-1]
    series = []
    for v in x[low].tolist():
        acc = top
        for c in rest:
            acc = c + acc * v
        series.append(acc)
    out[low] = series
    high = ~low
    out[high] = exp1_x[high] + np.log(x[high]) + EULER_GAMMA
    return out


def _circle_integrals(L: float) -> tuple[ExactIntegral, ExactIntegral]:
    """Both Mellin integrals of the kernel-free circle trace, at every L.

    The residual is L (4 pi t)^{-1/2} sum_{k>=1} 2 e^{-k^2 L^2/4t}, whose
    integral against dt/t over (0, 1] is S(L) = sum_k (2/k) erfc(kL/2); the
    integral of theta/t over [1, inf) is G(L) = sum_{n>=1} 2 E1((2 pi n / L)^2).
    A rounding of the argument x moves erfc(x) by about 2 x^2 ulps, and each
    of the four roundings in y moves E1(y) by about y ulps.  Dropped tails
    shrink at least geometrically: erfc(x + d) <= erfc(x) e^{-2xd} and
    E1(y + d) <= E1(y) e^{-d}.  A sum that would need more than
    _MAX_CIRCLE_TERMS terms (S for L <= 13/64, G above L = 62) comes from
    the other one by the scale relation, whose bound is the smaller there
    and whose cost is fixed: a long sum's bound grows with its length
    (1.3e-10 at L = 1000, against 1.7e-12 by the relation).
    """
    special = _special()
    half = 0.5 * L
    gap = (2.0 * math.pi / L) ** 2
    K = int(_ERFC_CUTOFF / half) + 1
    N = int(math.sqrt(_EXP1_CUTOFF / gap)) + 1
    small = large = None
    if K <= _MAX_CIRCLE_TERMS:
        k = np.arange(1, K + 1, dtype=float)
        x = k * half
        x_next = (K + 1) * half
        dropped = (2.0 / (K + 1)) * math.erfc(x_next) / -math.expm1(-2.0 * x_next * half)
        small = _exact_sum(2.0 / k * special.erfc(x), _TERM_ULPS + 2.0 * x * x, dropped)
    if N <= _MAX_CIRCLE_TERMS:
        n = np.arange(1, N + 1, dtype=float)
        y = gap * n * n
        y_next = gap * (N + 1) ** 2
        dropped = 2.0 * float(special.exp1(y_next)) / -math.expm1(-gap * (2 * N + 3))
        large = _exact_sum(2.0 * special.exp1(y), _TERM_ULPS + 4.0 * y, dropped)
    if small is None:
        small = _circle_scale_relation(L, large)
    if large is None:
        large = _circle_scale_relation(L, small)
    return small, large


def _circle_scale_relation(L: float, known: ExactIntegral) -> ExactIntegral:
    """The circle integral that `known` (S(L) or G(L)) leaves out, from
    S(L) + G(L) = S(1) + G(1) + 2 (L - 1) / sqrt(4 pi) - 2 log L, with the
    bounds of the three sums carried.

    The trace scales as theta_L(t) = theta_1(t / L^2), so zeta_L(s) =
    L^{2s} zeta_1(s) and, as zeta_1(0) = -1, zeta_L'(0) = zeta_1'(0) - 2 log L;
    the relation is this less the expansion constants -2L / sqrt(4 pi) - gamma.
    """
    small_1, large_1 = _circle_integrals(1.0)
    terms = np.array([small_1.value, large_1.value,
                      2.0 * (L - 1.0) / math.sqrt(4.0 * math.pi), -2.0 * math.log(L),
                      -known.value])
    return _exact_sum(terms, extra=small_1.error + large_1.error + known.error)


@dataclass
class HeatTraceModel:
    """Evaluable kernel-free heat trace with expansion metadata.

    coefficients[i] multiplies t^{-(m-i)/2} for i = 0..m; every model has
    them.  residual(t), when present, evaluates theta(t) minus the full
    expansion without cancellation.  spectral_gap is the smallest positive
    eigenvalue; zeta_det requires it positive.
    small_time_exact, when present, is the integral of the residual against
    dt/t over (0, 1] in closed form, which d_small then uses in place of
    quadrature.  large_time_exact is the integral of theta(t)/t over
    [1, inf) in closed form; a model without it is refused by
    large_time_integral, since only a finite integral makes the trace
    determinant class.
    """

    evaluate: Callable[[float], float]
    m: int
    coefficients: np.ndarray
    residual: Callable[[float], float] | None = None
    spectral_gap: float | None = None
    small_time_exact: ExactIntegral | None = None
    large_time_exact: ExactIntegral | None = None
    # set by from_spectrum, from_circle and plancherel_heat_model, whose
    # expansion and residual the library derives; a hand-built model and
    # every replace() copy leave it False, and d_small probes their residual
    _from_library: bool = field(default=False, init=False, repr=False)

    def __post_init__(self):
        check_range("m", self.m, 0, math.inf, "[)", integer=True)
        coeff = np.asarray(self.coefficients, dtype=float)
        if coeff.shape != (self.m + 1,):
            raise ValueError(f"need {self.m + 1} expansion coefficients")
        self.coefficients = coeff

    # -- constructors ---------------------------------------------------------------

    @staticmethod
    def from_spectrum(S: Spectrum) -> "HeatTraceModel":
        """Kernel-free trace of a finite spectrum.

        Its expansion is the constant term alone (m = 0), the total positive
        weight; the residual sums w * expm1(-lam t).  The two Mellin
        integrals are -sum w Ein(lam) and sum w E1(lam).
        """
        pos = S.positive_part()
        # every eigenvalue of the positive part is positive, so its residual
        # needs no mask: the arrays are bound once, not gathered per call
        lam, w = pos.eigenvalues, pos.weights
        coeff = np.zeros(1)
        coeff[0] = pos.total_weight
        e1 = _special().exp1(lam)  # once, for both integrals
        model = HeatTraceModel(
            evaluate=lambda t: pos.heat_trace(t, include_kernel=True),
            m=0,
            coefficients=coeff,
            residual=lambda t: float((w * np.expm1(-t * lam)).sum()),
            # the positive part is sorted: its first eigenvalue is the gap
            spectral_gap=float(lam[0]) if lam.size else math.inf,
            small_time_exact=_exact_sum(-w * _ein(lam, e1)),
            large_time_exact=_exact_sum(w * e1),
        )
        model._from_library = True
        return model

    @staticmethod
    def from_circle(circumference: float) -> "HeatTraceModel":
        """Kernel-free circle trace with its exact two-term expansion and
        both Mellin integrals in closed form, at every length L in [1e-153,
        1e154], where (2 pi / L)^2 and the sums' cutoffs are normal doubles."""
        L = check_range("circumference", circumference, 1e-153, 1e154, "[]")
        gap = (2.0 * math.pi / L) ** 2
        coeff = np.array([L / math.sqrt(4.0 * math.pi), -1.0])
        small, large = _circle_integrals(L)
        model = HeatTraceModel(
            evaluate=lambda t: circle_heat_trace(L, t, include_zero=False),
            m=1,
            coefficients=coeff,
            residual=lambda t: circle_trace_residual(L, t),
            spectral_gap=gap,
            small_time_exact=small,
            large_time_exact=large,
        )
        model._from_library = True
        return model

    def expansion_value(self, t: float) -> float:
        check_range("t", t, 0, math.inf)
        try:
            powers = np.array([t ** (-(self.m - i) / 2.0) for i in range(self.m + 1)])
            value = float(self.coefficients @ powers)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise ValueError(f"expansion overflows a double at t = {t:g}")
        return value

    def residual_value(self, t: float) -> float:
        check_range("t", t, 0, math.inf)
        try:
            value = (self.residual(t) if self.residual is not None
                     else self.evaluate(t) - self.expansion_value(t))
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise ValueError(f"residual overflows a double at t = {t:g}")
        return value


# -- small-time part -----------------------------------------------------------------


@dataclass
class DsmallResult:
    value: float
    integral: float
    constant_part: float
    error: float  # of the integral: quadrature estimate or rounding bound
    method: str


def _check_residual_integrable(model: HeatTraceModel) -> None:
    """Reject a model whose residual contradicts evaluate - expansion at
    t = 0.01, as one that ignores the coefficients does, or fails to vanish
    like sqrt(t), probed at 1e-2, 1e-4 and 1e-6."""
    residual = model.residual or model.residual_value
    if model.residual is not None:
        r, e, x = residual(1e-2), model.evaluate(1e-2), model.expansion_value(1e-2)
        if not abs(r - (e - x)) <= 1e-9 * (abs(r) + abs(e) + abs(x)):
            raise ValueError(f"the residual {r:.6g} at t = 0.01 contradicts evaluate - "
                             f"expansion = {e - x:.6g}; expansion coefficients look wrong")
    qs = [abs(residual(t)) / math.sqrt(t) for t in (1e-2, 1e-4, 1e-6)]
    if qs[-1] > 10.0 * qs[0] + 1e-9:
        raise ValueError(
            "subtracted integrand is not o(1)/t-integrable near 0: residual/sqrt(t) "
            f"grows {qs[0]:.3g} -> {qs[-1]:.3g}; expansion coefficients look wrong")


def d_small(model: HeatTraceModel) -> DsmallResult:
    """Small-time part: subtracted dt/t integral on (0, 1] plus constants.

    The integral is the model's exact value when it has one, else
    quadrature.  A model that no library constructor returned is refused
    when its residual contradicts its coefficients or its subtracted
    integrand is not integrable.
    """
    if not model._from_library:
        _check_residual_integrable(model)
    if model.small_time_exact is not None:
        (integral, err), method = model.small_time_exact, "exact"
    else:
        # the integral of residual(t)/t over [e^{-120}, 1], in s = sqrt(t)
        residual = model.residual or model.residual_value
        integral, err = quad(lambda s: 2.0 * residual(s * s) / s, _S_LOW, 1.0,
                             limit=400, epsabs=QUAD_ATOL * 1e-2, epsrel=1e-12)
        method = "quad"
    constant = float(sum(dsmall_constant(i, model.m) * model.coefficients[i]
                         for i in range(model.m + 1)))
    return DsmallResult(integral + constant, integral, constant, err, method)


# -- large-time part -----------------------------------------------------------------


@dataclass
class LargeTimeResult:
    value: float
    error: float  # rounding bound
    method: str  # always "exact"


def large_time_integral(model: HeatTraceModel) -> LargeTimeResult:
    """Integral of theta(t)/t over [1, inf): the model's exact value.

    A model without one (large_time_exact) is refused: nothing else
    certifies that the integral is finite, which is what makes the trace
    determinant class.
    """
    if model.large_time_exact is None:
        raise ValueError("not certified determinant-class: the model has no "
                         "large_time_exact, the integral of theta(t)/t over [1, inf)")
    value, err = model.large_time_exact
    return LargeTimeResult(value, err, "exact")


# -- torsion -------------------------------------------------------------------------


@dataclass
class TorsionResult:
    per_degree: list[tuple[int, float, float]]  # (p, small part, large part)
    total: float
    diagnostics: dict = field(default_factory=dict)


def _zeta_prime(model: HeatTraceModel, subject: str) -> tuple[float, float, float]:
    """zeta'(0) as (small-time part, large-time part, sum of their errors);
    refuses, naming `subject`, a model not certified determinant class."""
    sm = d_small(model)
    try:
        lg = large_time_integral(model)
    except ValueError as exc:
        raise ValueError(f"{subject}{exc}") from None
    return sm.value, lg.value, abs(sm.error) + abs(lg.error)


def analytic_torsion(models: dict[int, HeatTraceModel]) -> TorsionResult:
    """Alternating degree-weighted sum of small- and large-time parts.

    Degrees are nonnegative, and every degree must carry its large-time
    integral; the total carries the weight (-1)^p p per degree.  A model
    object shared by several degrees is solved once, and refused naming
    the first of them.
    """
    per_degree = []
    total = 0.0
    err = 0.0
    solved: dict[int, tuple[float, float, float]] = {}  # by id of the model
    for p, model in sorted(models.items()):
        check_range("p", p, 0, math.inf, "[)")
        if id(model) not in solved:
            solved[id(model)] = _zeta_prime(model, f"degree {p} is ")
        small, large, error = solved[id(model)]
        per_degree.append((p, small, large))
        total += (-1) ** p * p * (small + large)
        err += p * error
    return TorsionResult(per_degree, total, {"error": err})


def zeta_det_with_error(source: Spectrum | HeatTraceModel) -> tuple[float, float]:
    """exp(-zeta'(0)) through the same small/large split as the torsion,
    with the error det * (small-part error + large-part error).

    A finite spectrum must have a positive part; zero modes are dropped
    (determinant of the restriction).  Refuses a model without its
    large-time integral, and one whose determinant overflows a double or
    underflows to 0.
    """
    if isinstance(source, Spectrum):
        model = HeatTraceModel.from_spectrum(source)
        if model.spectral_gap == math.inf:  # from_spectrum's gap of no eigenvalue
            raise ValueError("spectrum has no positive part")
    else:
        model = source
        if model.spectral_gap is None:
            raise ValueError("determinant requires a spectral gap")
        check_range("spectral_gap", model.spectral_gap, 0, math.inf, "(]")
    small, large, error = _zeta_prime(model, "")
    zeta_prime = small + large
    try:
        det = math.exp(-zeta_prime)
    except OverflowError:
        det = 0.0  # refused below, as an underflow is
    if det == 0.0:
        raise ValueError(f"exp(-zeta'(0)) is outside double range: zeta'(0) = {zeta_prime}")
    return det, det * error


def zeta_det(source: Spectrum | HeatTraceModel) -> float:
    """exp(-zeta'(0)); see zeta_det_with_error."""
    return zeta_det_with_error(source)[0]


def cheeger_mueller_correction(chi_boundary: int) -> float:
    """Offset (ln 2)/2 times the boundary Euler characteristic between the
    analytic and topological quantities for product metrics."""
    check_range("chi_boundary", chi_boundary, -math.inf, math.inf, integer=True)
    return 0.5 * math.log(2.0) * chi_boundary


# -- large-time domination ------------------------------------------------------------


def large_time_dominating_bound(spectrum: Spectrum, eps: float, t_values=None) -> dict:
    """Pointwise domination of the large-time integrand by counting data.

    For t >= 1 the kernel-free trace obeys

        t^{-1} theta(t) <= int_0^eps e^{-t lam} F(lam) d lam
                           + e^{-t eps} F(eps) / t
                           + e^{-t eps} e^{eps} theta(1) / t,

    where F is the eigenvalue-counting function of the spectrum's positive
    part, so F(0) = 0.  The right side is evaluated exactly for the step
    function F.  Returns per-probe margins and any violations (beyond
    _DOMINATION_ATOL).  eps must be positive and at most 709, where e^eps
    stays finite, and each t finite and at least 1.
    """
    check_range("eps", eps, 0, 709.0, "(]")
    if t_values is None:
        t_values = np.geomspace(1.0, 50.0, 12)
    t_values = np.asarray(t_values, dtype=float)
    if not ((t_values >= 1.0) & (t_values < np.inf)).all():
        raise ValueError("domination holds for finite t >= 1 only")
    pos = spectrum.positive_part()
    theta1 = pos.heat_trace(1.0, include_kernel=True)
    small = pos.eigenvalues[pos.eigenvalues <= eps]
    small_w = pos.weights[pos.eigenvalues <= eps]
    f_eps = float(small_w.sum())
    violations = []
    margins = []
    for t in t_values:
        lhs = pos.heat_trace(t, include_kernel=True) / t
        term1 = float(np.sum(small_w * (np.exp(-t * small) - math.exp(-t * eps)))) / t
        term2 = math.exp(-t * eps) * f_eps / t
        term3 = math.exp(-t * eps) * math.exp(eps) * theta1 / t
        rhs = term1 + term2 + term3
        margins.append(rhs - lhs)
        if lhs > rhs + _DOMINATION_ATOL:
            violations.append({"t": float(t), "lhs": lhs, "rhs": rhs})
    return {"violations": violations, "margins": margins, "theta_at_1": theta1}
