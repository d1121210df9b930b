"""Zeta-regularized determinants and torsion from heat-trace data.

A HeatTraceModel wraps an evaluable kernel-free trace theta(t) together with
its dimension parameter m and the coefficients of the t^{-(m-i)/2} expansion
at small time.  The derivative at zero of the Mellin-regularized trace splits
into a small-time part (subtracted integral plus expansion constants) and the
plain large-time integral; torsion alternates these over form degrees with
weight (-1)^p p.

Exact pieces: finite spectra and circles carry both Mellin integrals in
closed form.  For a finite spectrum the subtracted integral over (0, 1] is
-sum w Ein(lam) and the integral of theta/t over [1, inf) is sum w E1(lam);
for a circle of length L, Poisson summation gives sum_k (2/k) erfc(kL/2) and
sum_n 2 E1((2 pi n / L)^2).  d_small and large_time_integral use these
values (method "exact") with a bound on their rounding error.

Quadrature: every other model (the hyperbolic Plancherel degrees,
hand-built models) is integrated with adaptive quadrature.  The subtracted
integrand suffers catastrophic cancellation near t = 0 when computed
naively, so models carry a stable `residual` callable whenever the trace has
a closed form.  The large-time integral needs a finiteness certificate: a
spectral gap whose decay theta(t) <= theta(1) e^{-gap (t-1)} is checked at
fixed times, an exact tail functional, or a dyadic probe of the decay.

scipy is imported by the functions that call it, so importing this module
loads none of it.  `quad` stays a module-level function, not a local import,
because `bench/tracing.py` patches it by name to count and time the
quadrature calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .config import QUAD_ATOL
from .mellin import EULER_GAMMA, dsmall_constant
from .sdf import SpectralDensityFunction
from .spectrum import (Spectrum, circle_heat_trace, circle_heat_trace_residual)

__all__ = [
    "HeatTraceModel",
    "ExactIntegral",
    "asympt_fit",
    "AsymptoticFit",
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
    "power_weight_double_integral",
]

_LOG_CUTOFF = 120.0  # u-range of the log-substituted small-time integral

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).smallest_subnormal)  # bounds a term lost to underflow
# relative error, in ulps, of one closed-form term at an exactly known
# argument (special function, logarithm, products)
_TERM_ULPS = 8.0
# series of Ein(x) = sum_k (-1)^{k+1} x^k / (k k!) for x < 1: the twentieth
# term is below 3e-20
_EIN_SERIES = np.array([0.0] + [(-1) ** (k + 1) / (k * math.factorial(k))
                                for k in range(1, 21)])
# circle sums stop where erfc(kL/2) and E1((2 pi n / L)^2) fall below 1e-19;
# the dropped tails are bounded and added to the error
_ERFC_CUTOFF = 6.5
_EXP1_CUTOFF = 42.0
# at most this many terms per circle sum: shorter circles keep quadrature
_MAX_CIRCLE_TERMS = 1 << 16
_ILL_CONDITIONED = 1e8  # asympt_fit flags a fit with a larger condition number
_DOMINATION_ATOL = 1e-12  # slack of the large-time domination check
_MONOTONE_TIMES = np.geomspace(1e-3, 10.0, 25)  # check_positive_decreasing's probes


def quad(func, a, b, **kwargs):
    """scipy.integrate.quad, imported on the first call."""
    from scipy.integrate import quad

    return quad(func, a, b, **kwargs)


class ExactIntegral(NamedTuple):
    """A Mellin integral in closed form and a bound on its error."""

    value: float
    error: float


def _exact_sum(terms: np.ndarray, ulps: float | np.ndarray = _TERM_ULPS,
               dropped: float = 0.0) -> ExactIntegral:
    """Sum of closed-form terms; each is good to `ulps` ulps or lost to
    underflow, the sum adds at most n - 1 more, and `dropped` bounds a
    truncated tail."""
    error = (_EPS * float(np.sum(np.abs(terms) * (terms.size + ulps)))
             + terms.size * _TINY + dropped)
    return ExactIntegral(float(np.sum(terms)), error)


def _ein(x: np.ndarray) -> np.ndarray:
    """Ein(x), the integral of (1 - e^{-s})/s over [0, x], without
    cancellation: its alternating series below 1, E1(x) + log x + gamma
    (three positive terms) above."""
    from scipy.special import exp1

    out = np.empty_like(x)
    low = x < 1.0
    out[low] = np.polynomial.polynomial.polyval(x[low], _EIN_SERIES)
    high = x[~low]
    out[~low] = exp1(high) + np.log(high) + EULER_GAMMA
    return out


def _circle_integrals(L: float) -> tuple[ExactIntegral, ExactIntegral] | None:
    """Both Mellin integrals of the kernel-free circle trace.

    The residual is L (4 pi t)^{-1/2} sum_{k>=1} 2 e^{-k^2 L^2/4t}, whose
    integral against dt/t over (0, 1] is sum_k (2/k) erfc(kL/2); the integral
    of theta/t over [1, inf) is sum_{n>=1} 2 E1((2 pi n / L)^2).  A rounding
    of the argument x moves erfc(x) by about 2 x^2 ulps, and each of the
    four roundings in y moves E1(y) by about y ulps.  Dropped tails
    shrink at least geometrically: erfc(x + d) <= erfc(x) e^{-2xd} and
    E1(y + d) <= E1(y) e^{-d}.  None when a sum would need more than
    _MAX_CIRCLE_TERMS terms.
    """
    from scipy.special import erfc, exp1

    half = 0.5 * L
    gap = (2.0 * math.pi / L) ** 2
    K = int(_ERFC_CUTOFF / half) + 1
    N = int(math.sqrt(_EXP1_CUTOFF / gap)) + 1
    if max(K, N) > _MAX_CIRCLE_TERMS:
        return None
    k = np.arange(1, K + 1, dtype=float)
    x = k * half
    x_next = (K + 1) * half
    dropped = (2.0 / (K + 1)) * math.erfc(x_next) / -math.expm1(-2.0 * x_next * half)
    small = _exact_sum(2.0 / k * erfc(x), _TERM_ULPS + 2.0 * x * x, dropped)
    n = np.arange(1, N + 1, dtype=float)
    y = gap * n * n
    y_next = gap * (N + 1) ** 2
    dropped = 2.0 * float(exp1(y_next)) / -math.expm1(-gap * (2 * N + 3))
    large = _exact_sum(2.0 * exp1(y), _TERM_ULPS + 4.0 * y, dropped)
    return small, large


@dataclass
class HeatTraceModel:
    """Evaluable kernel-free heat trace with expansion metadata.

    coefficients[i] multiplies t^{-(m-i)/2} for i = 0..m; None means the
    expansion is unknown and the small-time machinery refuses to run until
    an explicit fit supplies it.  residual(t), when present, evaluates
    theta(t) minus the full expansion without cancellation.  spectral_gap
    certifies exponential large-time decay; tail_integral(T), when present,
    returns the exact value of the integral of theta(t)/t over [T, inf).
    small_time_exact and large_time_exact, when present, are the integral of
    the residual against dt/t over (0, 1] and of theta(t)/t over [1, inf)
    in closed form; the solvers then use them in place of quadrature.
    """

    evaluate: Callable[[float], float]
    m: int
    coefficients: np.ndarray | None = None
    residual: Callable[[float], float] | None = None
    spectral_gap: float | None = None
    tail_integral: Callable[[float], float] | None = None
    small_time_exact: ExactIntegral | None = None
    large_time_exact: ExactIntegral | None = None
    # the unit of the residual check's probe times: set by from_spectrum
    # (1 / largest eigenvalue) and from_circle (L^2), so their expansions
    # have taken hold at the probes; replace() and every other model keep 1
    _time_scale: float = field(default=1.0, init=False, repr=False)

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("dimension parameter must be nonnegative")
        if self.coefficients is not None:
            coeff = np.asarray(self.coefficients, dtype=float)
            if coeff.shape != (self.m + 1,):
                raise ValueError(f"need {self.m + 1} expansion coefficients")
            self.coefficients = coeff

    # -- constructors ---------------------------------------------------------------

    @staticmethod
    def from_spectrum(S: Spectrum, m: int = 0) -> "HeatTraceModel":
        """Kernel-free trace of a finite spectrum.

        All expansion coefficients vanish except the constant term, which is
        the total positive weight; the residual sums w * expm1(-lam t).  The
        two Mellin integrals are -sum w Ein(lam) and sum w E1(lam).
        """
        from scipy.special import exp1

        pos = S.positive_part()
        coeff = np.zeros(m + 1)
        coeff[m] = pos.total_weight
        model = HeatTraceModel(
            evaluate=lambda t: pos.heat_trace(t, include_kernel=True),
            m=m,
            coefficients=coeff,
            residual=pos.heat_trace_residual,
            spectral_gap=S.spectral_gap,
            small_time_exact=_exact_sum(-pos.weights * _ein(pos.eigenvalues)),
            large_time_exact=_exact_sum(pos.weights * exp1(pos.eigenvalues)),
        )
        if pos.eigenvalues.size:
            model._time_scale = 1.0 / float(pos.eigenvalues[-1])
        return model

    @staticmethod
    def from_circle(circumference: float) -> "HeatTraceModel":
        """Kernel-free circle trace with its exact two-term expansion and,
        unless the circle is very short, both Mellin integrals exactly."""
        L = circumference
        if not L > 0:
            raise ValueError("circumference must be positive")
        coeff = np.array([L / math.sqrt(4.0 * math.pi), -1.0])
        small, large = _circle_integrals(L) or (None, None)
        model = HeatTraceModel(
            evaluate=lambda t: circle_heat_trace(L, t, include_zero=False),
            m=1,
            coefficients=coeff,
            residual=lambda t: circle_heat_trace_residual(L, t),
            spectral_gap=(2.0 * math.pi / L) ** 2,
            small_time_exact=small,
            large_time_exact=large,
        )
        model._time_scale = L * L
        return model

    def expansion_value(self, t: float) -> float:
        coeff = self.coefficients
        if coeff is None:
            raise ValueError("expansion coefficients unknown")
        powers = np.array([t ** (-(self.m - i) / 2.0) for i in range(self.m + 1)])
        return float(coeff @ powers)

    def residual_value(self, t: float) -> float:
        if self.residual is not None:
            return self.residual(t)
        return self.evaluate(t) - self.expansion_value(t)

    def check_positive_decreasing(self) -> bool:
        vals = np.array([self.evaluate(t) for t in _MONOTONE_TIMES])
        return bool(np.all(vals >= -1e-12) and np.all(np.diff(vals) <= 1e-10))


# -- asymptotic fitting --------------------------------------------------------------


@dataclass
class AsymptoticFit:
    coefficients: np.ndarray
    condition_number: float
    max_residual: float
    ill_conditioned: bool


def asympt_fit(theta: Callable[[float], float] | HeatTraceModel,
               t_grid, m: int | None = None) -> AsymptoticFit:
    """Weighted least squares of theta against the powers t^{-(m-i)/2}.

    Each row is weighted by t^{m/2} so all basis columns have comparable
    scale; the condition number of the weighted design is reported and a fit
    whose condition number exceeds _ILL_CONDITIONED is flagged, not rejected.
    """
    if isinstance(theta, HeatTraceModel):
        if m is None:
            m = theta.m
        theta = theta.evaluate
    if m is None:
        raise ValueError("dimension parameter m required")
    ts = np.asarray(t_grid, dtype=float)
    if ts.size < m + 1:
        raise ValueError("grid must have at least m + 1 points")
    if ts.min() <= 0 or ts.max() > 0.1 + 1e-12:
        raise ValueError("grid must lie in (0, 0.1]")
    design = np.column_stack([ts ** (-(m - i) / 2.0) for i in range(m + 1)])
    w = ts ** (m / 2.0)
    values = np.array([theta(t) for t in ts])
    wd = design * w[:, None]
    coeff, *_ = np.linalg.lstsq(wd, values * w, rcond=None)
    sv = np.linalg.svd(wd, compute_uv=False)
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else math.inf
    resid = float(np.max(np.abs(design @ coeff - values)))
    return AsymptoticFit(coeff, cond, resid, cond > _ILL_CONDITIONED)


# -- small-time part -----------------------------------------------------------------


@dataclass
class DsmallResult:
    value: float
    integral: float
    constant_part: float
    error: float  # of the integral: quadrature estimate or rounding bound
    method: str


def _check_residual_integrable(model: HeatTraceModel) -> None:
    """Reject when theta minus the expansion fails to vanish like sqrt(t),
    probed at 1e-2, 1e-4 and 1e-6 times the model's time scale."""
    qs = []
    for t in (1e-2, 1e-4, 1e-6):
        t *= model._time_scale
        qs.append(abs(model.residual_value(t)) / math.sqrt(t))
    if qs[-1] > 10.0 * qs[0] + 1e-9:
        raise ValueError(
            "subtracted integrand is not o(1)/t-integrable near 0: residual/sqrt(t) "
            f"grows {qs[0]:.3g} -> {qs[-1]:.3g}; expansion coefficients look wrong")


def d_small(model: HeatTraceModel) -> DsmallResult:
    """Small-time part: subtracted dt/t integral on (0, 1] plus constants.

    The integral is the model's exact value when it has one, else
    quadrature.  Refuses when expansion coefficients are unknown (run
    asympt_fit and set them explicitly) or when the subtracted integrand is
    not integrable.
    """
    if model.coefficients is None:
        raise ValueError(
            "expansion coefficients unknown; fit them explicitly (asympt_fit) "
            "and set model.coefficients before computing the small-time part")
    _check_residual_integrable(model)
    if model.small_time_exact is not None:
        (integral, err), method = model.small_time_exact, "exact"
    else:
        integral, err = quad(lambda u: model.residual_value(math.exp(-u)),
                             0.0, _LOG_CUTOFF, limit=400,
                             epsabs=QUAD_ATOL * 1e-2, epsrel=1e-12)
        method = "quad"
    constant = float(sum(dsmall_constant(i, model.m) * model.coefficients[i]
                         for i in range(model.m + 1)))
    return DsmallResult(integral + constant, integral, constant, err, method)


# -- large-time part -----------------------------------------------------------------


@dataclass
class LargeTimeResult:
    value: float | None
    determinant_class: bool | None
    tail_bound: float | None
    error: float  # quadrature estimate or rounding bound
    method: str


# times t > 1 at which the decay certificate of a spectral gap is checked,
# and the relative slack that forgives rounding in theta(t) and the bound
_GAP_PROBES = (1.5, 2.0, 4.0, 8.0)
_GAP_RTOL = 1e-9


def _gap_tail_bound(theta_at_1: float, gap: float, T: float) -> float:
    """Upper bound for the integral of theta/t over [T, inf) from the decay
    certificate theta(t) <= theta(1) e^{-gap (t-1)}."""
    if math.isinf(gap):
        return 0.0
    return theta_at_1 * math.exp(gap) * math.exp(-gap * T) / (gap * T)


def _gap_decay_holds(model: HeatTraceModel, theta_at_1: float, gap: float) -> bool:
    """theta(t) <= theta(1) e^{-gap (t-1)} at the probe times, for a
    positive gap."""
    if not gap > 0:
        return False
    return all(model.evaluate(t) <= theta_at_1 * math.exp(-gap * (t - 1.0)) * (1.0 + _GAP_RTOL)
               for t in _GAP_PROBES)


def large_time_integral(model: HeatTraceModel) -> LargeTimeResult:
    """Integral of theta(t)/t over [1, inf) with a finiteness certificate.

    An exact value of the model is returned as it is.  A spectral gap
    certifies the tail once theta is seen to decay at that rate at fixed
    times, and a value is refused (method "gap-refuted") when it does not;
    an exact tail functional is added analytically; otherwise dyadic probing
    classifies the decay and refuses a value when divergence is detected or
    the behaviour is ambiguous.
    """
    if model.large_time_exact is not None:
        value, err = model.large_time_exact
        return LargeTimeResult(value, True, None, err, "exact")
    if model.spectral_gap is not None:
        gap = model.spectral_gap
        theta1 = model.evaluate(1.0)
        if not _gap_decay_holds(model, theta1, gap):
            return LargeTimeResult(None, None, None, 0.0, "gap-refuted")
        if theta1 == 0.0:
            return LargeTimeResult(0.0, True, 0.0, 0.0, "empty")
        val, err = quad(lambda t: model.evaluate(t) / t, 1.0, np.inf,
                        limit=400, epsabs=QUAD_ATOL * 1e-2, epsrel=1e-12)
        # the decay just checked bounds the tail over [2, inf)
        tail = _gap_tail_bound(theta1, gap, 2.0)
        return LargeTimeResult(val, True, tail, err, "gap")
    if model.tail_integral is not None:
        T = 64.0
        val, err = quad(lambda t: model.evaluate(t) / t, 1.0, T,
                        limit=400, epsabs=QUAD_ATOL * 1e-2, epsrel=1e-12)
        return LargeTimeResult(val + model.tail_integral(T), True, None, err, "tail")

    # no certificate: dyadic comparison probe; geometric tails keep the
    # piece ratios bounded below one, harmonic-type tails push them to one
    total = 0.0
    err_total = 0.0
    pieces = []
    for k in range(25):
        lo, hi = 2.0 ** k, 2.0 ** (k + 1)
        val, err = quad(lambda t: model.evaluate(t) / t, lo, hi,
                        limit=200, epsabs=1e-13, epsrel=1e-11)
        pieces.append(val)
        total += val
        err_total += err
        if abs(val) < 1e-13:
            return LargeTimeResult(total, True, abs(val), err_total + 1e-12, "dyadic")
    ratios = np.array([pieces[j + 1] / pieces[j] for j in range(len(pieces) - 9,
                                                                len(pieces) - 1)])
    r = float(ratios.max())
    if r <= 0.8:
        tail = pieces[-1] * r / (1.0 - r)
        return LargeTimeResult(total + tail, True, tail,
                               err_total + abs(tail) * 0.5, "dyadic")
    # power decay keeps the ratio constant; slower-than-power decay pushes
    # it toward one, which forces divergence of the dt/t integral
    trend = float(ratios[-1] - ratios[0])
    if ratios.min() >= 0.97 or (r >= 0.9 and trend >= 0.005):
        return LargeTimeResult(None, False, None, err_total, "dyadic-divergent")
    return LargeTimeResult(None, None, None, err_total, "dyadic-ambiguous")


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
    lg = large_time_integral(model)
    if lg.determinant_class is not True:
        raise ValueError(f"{subject}not certified determinant-class ({lg.method})")
    return sm.value, lg.value, abs(sm.error) + abs(lg.error)


def analytic_torsion(models: dict[int, HeatTraceModel]) -> TorsionResult:
    """Alternating degree-weighted sum of small- and large-time parts.

    Every degree must certify determinant class; the total carries the
    weight (-1)^p p per degree.
    """
    per_degree = []
    total = 0.0
    err = 0.0
    for p, model in sorted(models.items()):
        small, large, error = _zeta_prime(model, f"degree {p} is ")
        per_degree.append((p, small, large))
        total += (-1) ** p * p * (small + large)
        err += abs(p) * error
    return TorsionResult(per_degree, total, {"error": err})


def zeta_det_with_error(source: Spectrum | HeatTraceModel, m: int = 0) -> tuple[float, float]:
    """exp(-zeta'(0)) through the same small/large split as the torsion,
    with the error det * (small-part error + large-part error).

    A finite spectrum must have a positive part; zero modes are dropped
    (determinant of the restriction).  Refuses a model whose large time
    part is not certified determinant class, and one whose determinant
    overflows a double or underflows to 0.
    """
    if isinstance(source, Spectrum):
        if source.positive_part().eigenvalues.size == 0:
            raise ValueError("spectrum has no positive part")
        model = HeatTraceModel.from_spectrum(source, m=m)
    else:
        model = source
        if model.spectral_gap is None or model.spectral_gap <= 0:
            raise ValueError("determinant requires a positive spectral gap")
    small, large, error = _zeta_prime(model, "")
    zeta_prime = small + large
    try:
        det = math.exp(-zeta_prime)
    except OverflowError:
        det = 0.0  # refused below, as an underflow is
    if det == 0.0:
        raise ValueError(f"exp(-zeta'(0)) is outside double range: zeta'(0) = {zeta_prime}")
    return det, det * error


def zeta_det(source: Spectrum | HeatTraceModel, m: int = 0) -> float:
    """exp(-zeta'(0)); see zeta_det_with_error."""
    return zeta_det_with_error(source, m)[0]


def cheeger_mueller_correction(chi_boundary: int) -> float:
    """Offset (ln 2)/2 times the boundary Euler characteristic between the
    analytic and topological quantities for product metrics."""
    return 0.5 * math.log(2.0) * chi_boundary


# -- large-time domination ------------------------------------------------------------


def large_time_dominating_bound(F: SpectralDensityFunction, eps: float,
                                spectrum: Spectrum, t_values=None) -> dict:
    """Pointwise domination of the large-time integrand by counting data.

    For t >= 1 the kernel-free trace obeys

        t^{-1} theta(t) <= int_0^eps e^{-t lam} F(lam) d lam
                           + e^{-t eps} F(eps) / t
                           + e^{-t eps} e^{eps} theta(1) / t,

    where F must be the eigenvalue-counting function of the spectrum with
    F(0) = 0.  The right side is evaluated exactly for the step function F.
    Returns per-probe margins and any violations (beyond _DOMINATION_ATOL).
    """
    if F(0.0) != 0.0:
        raise ValueError("domination bound requires F(0) = 0 (no kernel)")
    if eps <= 0:
        raise ValueError("eps must be positive")
    pos = spectrum.positive_part()
    counting = pos.counting_function()
    if not np.array_equal(counting.lams, F.lams) or not np.array_equal(counting.vals, F.vals):
        raise ValueError("F must be the counting function of the spectrum")
    if t_values is None:
        t_values = np.geomspace(1.0, 50.0, 12)
    theta1 = pos.heat_trace(1.0, include_kernel=True)
    f_eps = F(eps)
    small = pos.eigenvalues[pos.eigenvalues <= eps]
    small_w = pos.weights[pos.eigenvalues <= eps]
    violations = []
    margins = []
    for t in np.asarray(t_values, dtype=float):
        if t < 1.0:
            raise ValueError("domination holds for t >= 1 only")
        lhs = pos.heat_trace(t, include_kernel=True) / t
        term1 = float(np.sum(small_w * (np.exp(-t * small) - math.exp(-t * eps)))) / t
        term2 = math.exp(-t * eps) * f_eps / t
        term3 = math.exp(-t * eps) * math.exp(eps) * theta1 / t
        rhs = term1 + term2 + term3
        margins.append(rhs - lhs)
        if lhs > rhs + _DOMINATION_ATOL:
            violations.append({"t": float(t), "lhs": lhs, "rhs": rhs})
    return {"violations": violations, "margins": margins, "theta_at_1": theta1}


def power_weight_double_integral(eps: float, exponents=(0.5, 0.25)) -> dict:
    """Iterated integral of e^{-t lam} (sum of lam^a) over [1, inf) x [0, eps].

    Returns the 2-d quadrature value next to the incomplete-gamma closed form
    (swapping the order reduces each power to int_0^eps lam^{a-1} e^{-lam}),
    certifying finiteness.
    """
    from scipy.special import gamma, gammainc

    def moment(a: float, upper: float) -> float:
        val, _ = quad(lambda v: math.exp(-v) * v ** a, 0.0, min(upper, 60.0),
                      limit=200, epsabs=1e-14, epsrel=1e-13)
        return val

    # two substitutions keep everything bounded: lam = v / t inside gives
    # inner(t) = sum_a t^{-1-a} int_0^{t eps} e^{-v} v^a dv, and t = u^{-p}
    # outside turns the algebraic tail into u^{p a - 1} factors with p a >= 1
    p_sub = max(4, math.ceil(1.0 / min(exponents)))

    def outer_integrand(u: float) -> float:
        if u <= 0.0:
            return 0.0
        t = u ** -p_sub
        return p_sub * sum(u ** (p_sub * a - 1.0) * moment(a, t * eps)
                           for a in exponents)

    outer, outer_err = quad(outer_integrand, 0.0, 1.0, limit=400,
                            epsabs=1e-11, epsrel=1e-11)
    closed = float(sum(gamma(a) * gammainc(a, eps) for a in exponents))
    return {
        "quadrature": outer,
        "closed_form": closed,
        "difference": abs(outer - closed),
        "finite": True,
        "quad_error": outer_err,
    }
