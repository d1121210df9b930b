import collections
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad
from scipy.special import erfc, exp1

from l2tor import heattrace
from l2tor.heattrace import (_EIN_SERIES, _EPS, _ERFC_CUTOFF, _EXP1_CUTOFF, _TERM_ULPS,
                             _TINY, _WG, _WGK, _XGK, ExactIntegral, HeatTraceModel,
                             _circle_scale_relation, _ein, _exact_sum, analytic_torsion,
                             cheeger_mueller_correction, d_small,
                             large_time_dominating_bound, large_time_integral,
                             zeta_det, zeta_det_with_error)
from l2tor.anomaly import ConformalFamily
from l2tor.hyperbolic import (CuspEnd, PlancherelComponent, load_plancherel_table,
                              plancherel_heat_model)
from l2tor.kernels1d import Domain1D, kernel_1d, sup_bound_check
from l2tor.mellin import EULER_GAMMA
from l2tor.rand import rng_for
from l2tor.spectrum import Spectrum, circle_heat_trace


def test_large_time_single_eigenvalue_exponential_integral():
    S = Spectrum.from_pairs([(1.0, 1.0)])
    res = large_time_integral(HeatTraceModel.from_spectrum(S))
    assert res.method == "exact"
    assert res.value == pytest.approx(float(exp1(1.0)), abs=1e-10)


def test_large_time_kernel_only_spectrum():
    S = Spectrum.from_pairs([(0.0, 5.0)])
    res = large_time_integral(HeatTraceModel.from_spectrum(S))
    assert (res.value, res.method) == (0.0, "exact")


def _large_time_quad(theta) -> ExactIntegral:
    """The integral of theta(t)/t over [1, inf) by quadrature: the oracle
    for the closed forms, and the large-time value of hand-built models."""
    return ExactIntegral(*quad(lambda t: theta(t) / t, 1.0, np.inf,
                               limit=400, epsabs=1e-12, epsrel=1e-12))


def _quadrature_twin(model: HeatTraceModel) -> HeatTraceModel:
    """The same trace, residual, expansion, gap and library mark without the
    exact values: d_small integrates it numerically, and its large-time
    integral comes from quadrature here."""
    twin = HeatTraceModel(evaluate=model.evaluate, m=model.m,
                          coefficients=model.coefficients, residual=model.residual,
                          spectral_gap=model.spectral_gap,
                          large_time_exact=_large_time_quad(model.evaluate))
    twin._from_library = model._from_library
    return twin


def _close(a: float, b: float, tol: float = 1e-12) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a))


@given(st.lists(st.tuples(st.floats(-8.0, 3.0), st.sampled_from([1 / 3, 0.5, 1.0, 2.0])),
                min_size=1, max_size=6),
       st.booleans())
def test_exact_spectrum_pieces_match_quadrature(pairs, zero_mode):
    S = Spectrum.from_pairs([(10.0 ** e, w) for e, w in pairs]
                            + ([(0.0, 1.0)] if zero_mode else []))
    model = HeatTraceModel.from_spectrum(S)
    twin = _quadrature_twin(model)
    sm, sm_q = d_small(model), d_small(twin)
    lg, lg_q = large_time_integral(model), large_time_integral(twin)
    assert (sm.method, lg.method, sm_q.method) == ("exact", "exact", "quad")
    assert _close(sm.integral, sm_q.integral)
    assert sm.constant_part == sm_q.constant_part
    assert _close(lg.value, lg_q.value)


@given(st.floats(math.log(0.05), math.log(50.0)))
def test_exact_circle_pieces_match_quadrature(log_L):
    model = HeatTraceModel.from_circle(math.exp(log_L))
    twin = _quadrature_twin(model)
    sm, sm_q = d_small(model), d_small(twin)
    lg, lg_q = large_time_integral(model), large_time_integral(twin)
    assert (sm.method, lg.method, sm_q.method) == ("exact", "exact", "quad")
    assert _close(sm.integral, sm_q.integral)
    assert _close(lg.value, lg_q.value)


def _d_small_quad_paths(model: HeatTraceModel) -> list[str]:
    """Run d_small(model), check each heattrace.quad call it makes against
    scipy's quad on the same arguments, repr for repr, and return the path
    of each call: "first interval" where heattrace.quad returned QUADPACK's
    first 21-point rule itself, "fallback" where it called scipy."""
    import scipy.integrate

    ours, paths = heattrace.quad, []

    def scipy_quad(*args, **kwargs):
        paths[-1] = "fallback"
        return quad(*args, **kwargs)

    def checked(func, a, b, **kwargs):
        paths.append("first interval")
        got = ours(func, a, b, **kwargs)
        assert repr(got) == repr(quad(func, a, b, **kwargs))
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scipy.integrate, "quad", scipy_quad)
        mp.setattr(heattrace, "quad", checked)
        d_small(model)
    return paths


def test_quad_is_scipys_quad_bit_for_bit():
    # on d_small's arguments, both paths of heattrace.quad give scipy's
    # (value, error) to the last bit, and each path is taken
    paths = collections.Counter()

    @given(st.lists(st.tuples(st.floats(-8.0, 3.0), st.sampled_from([1 / 3, 0.5, 1.0, 2.0])),
                    min_size=1, max_size=8))
    def spectra(pairs):
        S = Spectrum.from_pairs([(10.0 ** e, w) for e, w in pairs])
        paths.update(_d_small_quad_paths(_quadrature_twin(HeatTraceModel.from_spectrum(S))))

    @given(st.floats(math.log(1e-6), math.log(50.0)))
    def circles(log_L):
        model = HeatTraceModel.from_circle(math.exp(log_L))
        paths.update(_d_small_quad_paths(_quadrature_twin(model)))

    spectra()
    circles()
    table = load_plancherel_table()
    for p in range(4):
        # the H3 integrands meet the tolerance on the first interval
        assert _d_small_quad_paths(plancherel_heat_model(table, p)) == ["first interval"]
    assert paths["first interval"] > 0 and paths["fallback"] > 0, paths


def test_quad_hands_a_nan_integrand_to_scipy(monkeypatch):
    import scipy.integrate

    calls, fallbacks = [], []
    with monkeypatch.context() as mp:
        mp.setattr(heattrace, "quad",
                   lambda *args, **kwargs: calls.append(kwargs) or (0.0, 0.0))
        d_small(plancherel_heat_model(load_plancherel_table(), 0))
    [kwargs] = calls  # d_small's tolerances and limit

    def nan(s):
        return math.nan

    with monkeypatch.context() as mp:
        mp.setattr(scipy.integrate, "quad",
                   lambda *args, **kw: fallbacks.append(0) or quad(*args, **kw))
        with pytest.warns(IntegrationWarning) as ours:
            got = heattrace.quad(nan, 0.0, 1.0, **kwargs)
    with pytest.warns(IntegrationWarning) as theirs:
        want = quad(nan, 0.0, 1.0, **kwargs)
    assert fallbacks == [0]
    assert repr(got) == repr(want) == "(nan, nan)"
    assert [str(w.message) for w in ours] == [str(w.message) for w in theirs]


def test_kronrod_rule_constants_are_quadpacks():
    # the 10-point Gauss-Legendre rule at 40 digits rounds to the Gauss
    # nodes and weights quoted from dqk21.f, and the 21 Kronrod weights sum
    # to the length 2 of [-1, 1]
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    with mpmath.workdps(40):
        for j, x in enumerate(_XGK[1:10:2]):
            node = mp.findroot(lambda z: mp.legendre(10, z), mp.mpf(x))
            slope = 10 * (node * mp.legendre(10, node) - mp.legendre(9, node)) / (node ** 2 - 1)
            assert x == float(node)
            assert _WG[j] == float(2 / ((1 - node ** 2) * slope ** 2))
        assert abs(2 * mp.fsum(_WGK[:10]) + _WGK[10] - 2) < 4 * _EPS


def test_exact_error_bounds_cover_high_precision_values():
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    cases = []
    rng = rng_for(7, 3)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        eig = 10.0 ** rng.uniform(-8.0, 3.0, n)
        w = rng.choice([1 / 3, 0.5, 1.0, 2.0], n)
        pairs = list(zip(eig.tolist(), w.tolist()))
        model = HeatTraceModel.from_spectrum(Spectrum(eig, w))
        cases.append((model.small_time_exact,
                       lambda p=pairs: -sum(mp.mpf(w) * (mp.e1(lam) + mp.log(lam) + mp.euler)
                                            for lam, w in p)))
        cases.append((model.large_time_exact,
                      lambda p=pairs: sum(mp.mpf(w) * mp.e1(lam) for lam, w in p)))
    for L in (0.05, 0.3, 1.0, 2 * math.pi, 7.0, 50.0):
        model = HeatTraceModel.from_circle(L)
        cases.append((model.small_time_exact, lambda L=L: mp.nsum(
            lambda k: 2 / k * mp.erfc(k * mp.mpf(L) / 2), [1, mp.inf])))
        cases.append((model.large_time_exact, lambda L=L: mp.nsum(
            lambda n: 2 * mp.e1((2 * mp.pi * n / mp.mpf(L)) ** 2), [1, mp.inf])))
    with mpmath.workdps(40):
        for (value, error), truth in cases:
            assert abs(mp.mpf(value) - truth()) <= error
            assert error <= 1e-12 * max(1.0, abs(value))


def test_circles_of_every_length_have_exact_pieces():
    with pytest.raises(ValueError, match=_CIRCLE_MODEL + "0.0$"):
        HeatTraceModel.from_circle(0.0)
    # at L <= 13/64 the erfc sum, and above L = 62 the E1 sum, would need
    # more than 64 terms; the scale relation gives it
    for L, rel in ((1.96e-4, 1e-12), (1.9e-4, 1e-12), (1e-4, 1e-12), (1e-6, 1e-12),
                   (1e-8, 1e-12), (1e5, 1e-10), (1e6, 1e-10)):
        model = HeatTraceModel.from_circle(L)
        assert (d_small(model).method, large_time_integral(model).method) == ("exact", "exact")
        det, err = zeta_det_with_error(model)
        assert det == pytest.approx(L * L, rel=rel)
        assert abs(det - L * L) <= err
    for L in (1e-4, 1e-6):
        model = HeatTraceModel.from_circle(L)
        sm, sm_q = d_small(model), d_small(_quadrature_twin(model))
        assert sm_q.method == "quad"
        assert _close(sm.integral, sm_q.integral)


def _direct_circle_sums(L: float) -> tuple[ExactIntegral, ExactIntegral]:
    """Both circle sums term by term, however many terms they take, with the
    cut-offs and bounds of _circle_integrals."""
    half, gap = 0.5 * L, (2.0 * math.pi / L) ** 2
    K = int(_ERFC_CUTOFF / half) + 1
    N = int(math.sqrt(_EXP1_CUTOFF / gap)) + 1
    k, n = np.arange(1, K + 1, dtype=float), np.arange(1, N + 1, dtype=float)
    x, x_next = k * half, (K + 1) * half
    dropped = (2.0 / (K + 1)) * math.erfc(x_next) / -math.expm1(-2.0 * x_next * half)
    small = _exact_sum(2.0 / k * erfc(x), _TERM_ULPS + 2.0 * x * x, dropped)
    y, y_next = gap * n * n, gap * (N + 1) ** 2
    dropped = 2.0 * float(exp1(y_next)) / -math.expm1(-gap * (2 * N + 3))
    large = _exact_sum(2.0 * exp1(y), _TERM_ULPS + 4.0 * y, dropped)
    return small, large


@pytest.mark.parametrize("L", [1e-3, 0.05, 10.0, 1e3, 5e4])
def test_circle_scale_relation_matches_the_direct_sums(L):
    # each sum the relation gives from the other lies within the two bounds
    # of the direct value, summed here however long it is
    small, large = _direct_circle_sums(L)
    for direct, known in ((small, large), (large, small)):
        value, error = _circle_scale_relation(L, known)
        assert abs(value - direct.value) <= error + direct.error


def test_exact_methods_carry_rounding_size_errors():
    S = Spectrum.from_pairs([(0.3, 2.0), (5.0, 0.5)])
    sm = d_small(HeatTraceModel.from_spectrum(S))
    lg = large_time_integral(HeatTraceModel.from_spectrum(S))
    for err, value in ((sm.error, sm.integral), (lg.error, lg.value)):
        assert 0.0 < err <= 1e-14 * abs(value)
    det, err = zeta_det_with_error(S)
    assert det == pytest.approx(0.3 ** 2 * 5.0 ** 0.5, rel=1e-13)
    assert 0.0 < err <= 1e-13 * det


# -- refusals ---------------------------------------------------------------------------


def _without_large_time(gap: float = 1.0) -> HeatTraceModel:
    """theta = e^{-t} with its expansion and the given gap, but without its
    large-time integral."""
    return HeatTraceModel(evaluate=lambda t: math.exp(-t), m=0,
                          coefficients=np.array([1.0]),
                          residual=lambda t: math.expm1(-t), spectral_gap=gap)


_REFUSED = (r"not certified determinant-class: the model has no large_time_exact, "
            r"the integral of theta\(t\)/t over \[1, inf\)$")


def test_model_without_large_time_exact_is_refused():
    model = _without_large_time()
    with pytest.raises(ValueError, match="^" + _REFUSED):
        large_time_integral(model)
    with pytest.raises(ValueError, match="^degree 1 is " + _REFUSED):
        analytic_torsion({1: model})
    with pytest.raises(ValueError, match="^" + _REFUSED):
        zeta_det(model)


@pytest.mark.parametrize("gap", [2.0, 0.0, -1.0, math.inf])
def test_gap_certificate_refuses_overstated_gap(gap):
    # a declared gap, true or not, certifies nothing without the integral
    model = _without_large_time(gap)
    with pytest.raises(ValueError, match="^" + _REFUSED):
        large_time_integral(model)
    with pytest.raises(ValueError, match="^degree 1 is " + _REFUSED):
        analytic_torsion({1: model})
    if gap > 0:
        with pytest.raises(ValueError, match="^" + _REFUSED):
            zeta_det(model)


@pytest.mark.parametrize("theta", [
    lambda t: 1.0 / math.log(t + math.e),
    lambda t: (1.0 + t) ** -0.1,
], ids=["divergent", "ambiguous"])
def test_dyadic_refusals_stop_the_torsion(theta):
    # traces whose large-time integral diverges, or decays too slowly to
    # tell, are refused for want of large_time_exact
    model = HeatTraceModel(evaluate=theta, m=0, coefficients=np.array([1.0]))
    with pytest.raises(ValueError, match="^" + _REFUSED):
        large_time_integral(model)
    with pytest.raises(ValueError, match="^degree 1 is " + _REFUSED):
        analytic_torsion({1: model})


def test_residual_check_still_guards_exact_models():
    S = Spectrum.from_pairs([(1.0, 1.0)])
    # claiming no constant term leaves theta itself as the residual
    wrong = replace(HeatTraceModel.from_spectrum(S), coefficients=np.array([0.0]),
                    residual=None)
    assert wrong.small_time_exact is not None
    for run in (d_small, lambda m: analytic_torsion({1: m}), zeta_det):
        with pytest.raises(ValueError, match="integrable"):
            run(wrong)


def test_residual_check_refuses_a_residual_that_contradicts_the_coefficients():
    # replace() keeps the closed-form residual, which ignores the coefficients,
    # so without the comparison this determinant came out 50.85, not 3^2 = 9
    S = Spectrum.from_pairs([(1.0, 1.0), (3.0, 2.0)])
    wrong = replace(HeatTraceModel.from_spectrum(S), coefficients=np.array([0.0]))
    for run in (d_small, lambda m: analytic_torsion({1: m}), zeta_det):
        with pytest.raises(ValueError, match="^the residual .* contradicts evaluate - expansion"):
            run(wrong)
    # a copy that agrees with its residual is solved as before
    assert zeta_det(replace(HeatTraceModel.from_spectrum(S))) == pytest.approx(9.0, rel=1e-12)


def test_dsmall_probes_only_models_from_outside_the_library(monkeypatch):
    # library models are not probed: d_small evaluates neither their trace
    # nor their residual outside its quadrature; a hand-built model and a
    # replace() copy of a library model are
    from l2tor import heattrace

    real, inside = heattrace.quad, []

    def quad(*args, **kwargs):
        inside.append(True)
        try:
            return real(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(heattrace, "quad", quad)

    def probes(model: HeatTraceModel) -> int:
        calls = []

        def counted(f):
            def call(t):
                if not inside:
                    calls.append(t)
                return f(t)
            return call

        model.evaluate, model.residual = counted(model.evaluate), counted(model.residual)
        d_small(model)
        return len(calls)

    S = Spectrum.from_pairs([(1.0, 1.0), (3.0, 2.0)])
    table = load_plancherel_table()
    assert probes(HeatTraceModel.from_spectrum(S)) == 0
    assert probes(HeatTraceModel.from_circle(1.5)) == 0
    assert probes(plancherel_heat_model(table, 1)) == 0
    assert probes(replace(HeatTraceModel.from_spectrum(S))) > 0
    assert probes(replace(plancherel_heat_model(table, 1))) > 0
    assert probes(_without_large_time()) > 0


def _residual_holds(model: HeatTraceModel, scale: float) -> None:
    """The probe d_small runs on models from outside the library, at times
    1e-2, 1e-4 and 1e-6 of `scale`: the residual agrees with evaluate -
    expansion to 1e-9 of their sizes, and residual / sqrt(t) does not grow
    more than tenfold."""
    qs = []
    for t in (1e-2 * scale, 1e-4 * scale, 1e-6 * scale):
        r, e, x = model.residual_value(t), model.evaluate(t), model.expansion_value(t)
        assert abs(r - (e - x)) <= 1e-9 * (abs(r) + abs(e) + abs(x)), (t, r, e - x)
        qs.append(abs(r) / math.sqrt(t))
    assert qs[-1] <= 10.0 * qs[0] + 1e-9, qs


@given(st.lists(st.tuples(st.floats(-8.0, 3.0), st.sampled_from([1 / 3, 0.5, 1.0, 2.0])),
                min_size=1, max_size=8),
       st.booleans())
@example([(-8.0, 1.0)], False)
@example([(3.0, 1.0), (-8.0, 2.0)], True)
def test_spectrum_model_residual_vanishes_like_sqrt_t(pairs, zero_mode):
    # at the spectrum's own time scale, 1 / largest eigenvalue
    S = Spectrum.from_pairs([(10.0 ** e, w) for e, w in pairs]
                            + ([(0.0, 1.0)] if zero_mode else []))
    _residual_holds(HeatTraceModel.from_spectrum(S), 1.0 / float(S.eigenvalues[-1]))


@given(st.floats(-153.0, 154.0))
@example(-153.0)
@example(154.0)
def test_circle_model_residual_vanishes_like_sqrt_t(exponent):
    # every length from_circle accepts, at its own time scale L^2
    L = min(max(10.0 ** exponent, 1e-153), 1e154)
    _residual_holds(HeatTraceModel.from_circle(L), L * L)


@pytest.mark.parametrize("p", range(4))
def test_plancherel_model_residual_vanishes_like_sqrt_t(p):
    # every row of the packaged table, at time scale 1
    _residual_holds(plancherel_heat_model(load_plancherel_table(), p), 1.0)


def test_large_time_divergence_detected():
    slow = HeatTraceModel(evaluate=lambda t: 1.0 / math.log(t + math.e), m=0,
                          coefficients=np.array([0.0]))
    with pytest.raises(ValueError, match="^" + _REFUSED):
        large_time_integral(slow)


def test_dsmall_rejects_wrong_coefficients():
    # claiming no constant term leaves a non-vanishing residual
    S = Spectrum.from_pairs([(1.0, 1.0)])
    model = HeatTraceModel(
        evaluate=lambda t: S.heat_trace(t), m=0, coefficients=np.array([0.0]))
    with pytest.raises(ValueError, match="integrable"):
        d_small(model)


def test_dsmall_single_eigenvalue_closed_form():
    # for theta = e^{-at}: integral of (e^{-at} - 1)/t over (0,1] plus gamma
    # plus the tail equals -gamma - ln a; the small part alone is the
    # difference against the exponential-integral tail
    a = 2.5
    S = Spectrum.from_pairs([(a, 1.0)])
    model = HeatTraceModel.from_spectrum(S)
    sm = d_small(model)
    lg = large_time_integral(model)
    assert sm.value + lg.value == pytest.approx(-math.log(a), abs=1e-10)


def test_dsmall_pure_power_plus_tail_vanishes():
    # a pure power trace contributes nothing once the tail is added:
    # the Mellin transform of t^{-a} has no content at s = 0; the integral
    # of A t^{-5/2} over [1, inf) is A / 1.5
    A = 0.8
    model = HeatTraceModel(
        evaluate=lambda t: A * t ** -1.5, m=3,
        coefficients=np.array([A, 0.0, 0.0, 0.0]),
        residual=lambda t: 0.0,
        large_time_exact=ExactIntegral(A / 1.5, 0.0))
    total = d_small(model).value + large_time_integral(model).value
    assert total == pytest.approx(0.0, abs=1e-10)


def test_dsmall_meromorphic_consistency_synthetic():
    # theta = t^{-3/2} + 2 t^{-1/2} + 5 + e^{-t}: the derivative at zero of
    # the Mellin-regularized small-time integral evaluates in closed form
    from scipy.integrate import quad

    def theta(t):
        return t ** -1.5 + 2.0 * t ** -0.5 + 5.0 + math.exp(-t)

    model = HeatTraceModel(
        evaluate=theta, m=3,
        coefficients=np.array([1.0, 0.0, 2.0, 6.0]),
        residual=lambda t: math.expm1(-t))
    got = d_small(model).value
    holom, _ = quad(lambda t: math.expm1(-t) / t, 0.0, 1.0)
    expected = (-2.0 / 3.0) * 1.0 + (-2.0) * 2.0 + EULER_GAMMA * 6.0 + holom
    assert got == pytest.approx(expected, abs=1e-9)


def _positive_decreasing(model: HeatTraceModel) -> bool:
    """The kernel-free trace is positive and decreasing on a log grid."""
    vals = np.array([model.evaluate(t) for t in np.geomspace(1e-3, 10.0, 25)])
    return bool(np.all(vals >= -1e-12) and np.all(np.diff(vals) <= 1e-10))


def test_model_invariant_positive_decreasing():
    S = Spectrum.from_pairs([(0.5, 1.0), (2.0, 3.0)])
    assert _positive_decreasing(HeatTraceModel.from_spectrum(S))
    assert _positive_decreasing(HeatTraceModel.from_circle(2.0))


def test_model_coefficients_reproduce_trace_to_sqrt_order():
    # residual over sqrt(t) stays bounded on a log grid when the declared
    # expansion is right
    model = HeatTraceModel.from_circle(1.5)
    for t in np.geomspace(1e-8, 1e-2, 7):
        assert abs(model.residual_value(t)) <= 10.0 * math.sqrt(t)


def test_exponentially_damped_power_closed_form():
    # theta = c e^{-t} t^{-1/2} continues to c Gamma(-1/2) = -2 sqrt(pi) c
    c = 0.8
    S_like = HeatTraceModel(
        evaluate=lambda t: c * math.exp(-t) * t ** -0.5, m=1,
        coefficients=np.array([c, 0.0]),
        residual=lambda t: c * t ** -0.5 * math.expm1(-t),
        large_time_exact=_large_time_quad(lambda t: c * math.exp(-t) * t ** -0.5))
    total = d_small(S_like).value + large_time_integral(S_like).value
    assert total == pytest.approx(-2.0 * math.sqrt(math.pi) * c, abs=1e-9)


@pytest.mark.parametrize("L", [1.0, 2 * math.pi, 5.0, 0.003, 0.002, 1e-3, 5e-4])
def test_circle_determinant_is_square_of_circumference(L):
    # a short circle's expansion takes hold only at times of order L^2
    det = zeta_det(HeatTraceModel.from_circle(L))
    assert det == pytest.approx(L * L, rel=1e-8)


@pytest.mark.parametrize("eigenvalue", [1e6, 1e8])
def test_large_eigenvalue_determinant(eigenvalue):
    assert zeta_det(Spectrum.from_pairs([(eigenvalue, 1.0)])) == pytest.approx(
        eigenvalue, rel=1e-12)


def test_single_eigenvalue_determinant():
    S = Spectrum.from_pairs([(math.e, 1.0)])
    assert zeta_det(S) == pytest.approx(math.e, abs=1e-10)


def test_zeta_det_multiplicative_on_unions():
    rng = rng_for(7, 0)
    for _ in range(10):
        a = Spectrum.from_pairs([(float(x), 1.0) for x in rng.uniform(0.2, 5, 3)])
        b = Spectrum.from_pairs([(float(x), 2.0) for x in rng.uniform(0.2, 5, 2)])
        prod = zeta_det(a) * zeta_det(b)
        union = Spectrum(np.concatenate([a.eigenvalues, b.eigenvalues]),
                         np.concatenate([a.weights, b.weights]))
        assert zeta_det(union) == pytest.approx(prod, rel=1e-9)


@pytest.mark.parametrize("eigenvalue", [1000.0, 0.001])
def test_zeta_det_refuses_determinants_outside_double_range(eigenvalue):
    # eigenvalue^200 overflows a double (1e600) or underflows to 0 (1e-600)
    S = Spectrum.from_pairs([(eigenvalue, 200.0)])
    with pytest.raises(ValueError, match="zeta'"):
        zeta_det_with_error(S)
    # just inside the range the determinant is still reported
    S = Spectrum.from_pairs([(eigenvalue, 100.0)])
    assert zeta_det(S) == pytest.approx(eigenvalue ** 100, rel=1e-9)


def test_zeta_det_requires_positive_part():
    with pytest.raises(ValueError):
        zeta_det(Spectrum.from_pairs([(0.0, 1.0)]))


def test_torsion_zero_for_empty_traces():
    zero = Spectrum.from_pairs([])
    models = {p: HeatTraceModel.from_spectrum(zero) for p in range(3)}
    res = analytic_torsion(models)
    assert res.total == 0.0


def test_torsion_single_degree_matches_parts():
    S = Spectrum.from_pairs([(1.0, 1.0)])
    model = HeatTraceModel.from_spectrum(S)
    res = analytic_torsion({1: model})
    expected = -(d_small(model).value + float(exp1(1.0)))
    assert res.total == pytest.approx(expected, abs=1e-9)
    p, sm, lg = res.per_degree[0]
    assert res.total == pytest.approx(sum((-1) ** p * p * (sm + lg)
                                          for p, sm, lg in res.per_degree))


@given(st.lists(st.tuples(st.sampled_from([0.0, 0.3, 1.0]) | st.floats(0.0, 50.0),
                          st.floats(0.01, 10.0)), max_size=8),
       st.floats(1e-8, 10.0))
def test_spectrum_model_residual_is_heat_trace_residual(pairs, t):
    # the residual is sum over positive eigenvalues of w (e^{-t lam} - 1),
    # summed through expm1 without cancellation
    S = Spectrum.from_pairs(pairs)
    residual = HeatTraceModel.from_spectrum(S).residual(t)
    expected = math.fsum(w * math.expm1(-t * lam) for lam, w in pairs if lam > 0)
    assert residual == pytest.approx(expected, rel=1e-12, abs=1e-300)


def test_torsion_solves_a_shared_model_once(monkeypatch):
    from l2tor import heattrace

    S = Spectrum.from_pairs([(0.4, 1.0), (2.5, 3.0)])
    T = Spectrum.from_pairs([(1.0, 2.0)])

    def models(share: bool) -> dict:
        twin = _quadrature_twin(HeatTraceModel.from_spectrum(S))
        other = twin if share else _quadrature_twin(HeatTraceModel.from_spectrum(S))
        return {1: HeatTraceModel.from_spectrum(T), 2: twin, 3: other}

    real, calls = heattrace.quad, []
    monkeypatch.setattr(heattrace, "quad",
                        lambda *a, **k: calls.append(a[1:3]) or real(*a, **k))
    shared = analytic_torsion(models(share=True))
    # one small-time quadrature for the shared model
    assert len(calls) == 1
    separate = analytic_torsion(models(share=False))
    assert len(calls) == 1 + 2
    # per_degree, total and error, each float to the bit
    assert repr(shared) == repr(separate)


def test_torsion_refuses_a_negative_degree():
    model = HeatTraceModel.from_spectrum(Spectrum.from_pairs([(1.0, 1.0)]))
    with pytest.raises(ValueError, match=r"^p must be in \[0, inf\), got -1$"):
        analytic_torsion({-1: model, 1: model})


def test_torsion_refuses_a_shared_model_at_its_first_degree():
    refused = _without_large_time()
    good = HeatTraceModel.from_spectrum(Spectrum.from_pairs([(1.0, 1.0)]))
    with pytest.raises(ValueError, match="^degree 2 is " + _REFUSED):
        analytic_torsion({1: good, 2: refused, 3: refused})


def test_torsion_linear_in_weights():
    rng = rng_for(7, 1)
    eigs = rng.uniform(0.3, 4.0, 4)
    base = Spectrum(np.sort(eigs), np.ones(4))
    doubled = Spectrum(base.eigenvalues, 2.0 * base.weights)
    t1 = analytic_torsion({1: HeatTraceModel.from_spectrum(base)}).total
    t2 = analytic_torsion({1: HeatTraceModel.from_spectrum(doubled)}).total
    assert t2 == pytest.approx(2.0 * t1, rel=1e-9)


def test_cheeger_mueller_correction_values():
    assert cheeger_mueller_correction(0) == 0.0
    assert cheeger_mueller_correction(2) == pytest.approx(math.log(2.0))
    assert cheeger_mueller_correction(-4) == pytest.approx(-2.0 * math.log(2.0))


def test_domination_single_eigenvalue_strict():
    S = Spectrum.from_pairs([(2.0, 1.0)])
    out = large_time_dominating_bound(S, eps=1.0, t_values=[1.0, 2.0, 5.0, 10.0])
    assert not out["violations"]
    # the tail estimate is tight exactly at t = 1, strict beyond
    assert out["margins"][0] == pytest.approx(0.0, abs=1e-15)
    assert all(m > 0 for m in out["margins"][1:])


def test_domination_counts_an_eigenvalue_at_eps_with_its_weight():
    # F(eps) counts the eigenvalues <= eps, weighted: here the weight 2 at 1
    S = Spectrum.from_pairs([(1.0, 2.0), (3.0, 0.5)])
    theta1 = 2.0 * math.exp(-1.0) + 0.5 * math.exp(-3.0)
    out = large_time_dominating_bound(S, eps=1.0, t_values=[1.0, 4.0])
    for t, margin in zip([1.0, 4.0], out["margins"]):
        lhs = (2.0 * math.exp(-t) + 0.5 * math.exp(-3.0 * t)) / t
        rhs = (math.exp(-t) * 2.0 + math.exp(-t) * math.exp(1.0) * theta1) / t
        assert margin == pytest.approx(rhs - lhs, rel=1e-13)


def test_domination_gap_above_eps():
    S = Spectrum.from_pairs([(5.0, 2.0)])
    out = large_time_dominating_bound(S, eps=1.0)
    assert not out["violations"]


@pytest.mark.parametrize("eps, t_values", [
    (math.nan, None), (math.inf, None), (0.0, None), (-1.0, None),
    (1.0, [math.nan]), (1.0, [2.0, math.inf]), (1.0, [0.5]), (1.0, [1.0, math.nan]),
], ids=["nan-eps", "inf-eps", "zero-eps", "negative-eps",
        "nan-t", "inf-t", "t-below-1", "nan-t-after-valid"])
def test_domination_refuses_eps_or_t_out_of_range(eps, t_values):
    S = Spectrum.from_pairs([(2.0, 1.0)])
    with pytest.raises(ValueError, match=r"eps must be in \(0, 709\]|finite t >= 1"):
        large_time_dominating_bound(S, eps, t_values)


def test_domination_random_probes():
    rng = rng_for(7, 2)
    for k in range(50):
        n = int(rng.integers(1, 8))
        S = Spectrum(np.sort(rng.uniform(0.01, 6.0, n)), rng.uniform(0.2, 2.0, n))
        eps = float(rng.uniform(0.05, 3.0))
        ts = np.sort(rng.uniform(1.0, 30.0, 6))
        out = large_time_dominating_bound(S, eps, ts)
        assert not out["violations"], k


def power_weight_double_integral(eps: float, exponents=(0.5, 0.25)) -> dict:
    """Iterated integral of e^{-t lam} (sum of lam^a) over [1, inf) x [0, eps]
    by nested quadrature, next to its incomplete-gamma closed form (swapping
    the order reduces each power to int_0^eps lam^{a-1} e^{-lam})."""
    from scipy.special import gamma, gammainc

    def moment(a: float, upper: float) -> float:
        return quad(lambda v: math.exp(-v) * v ** a, 0.0, min(upper, 60.0),
                    limit=200, epsabs=1e-14, epsrel=1e-13)[0]

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

    outer, _ = quad(outer_integrand, 0.0, 1.0, limit=400, epsabs=1e-11, epsrel=1e-11)
    closed = float(sum(gamma(a) * gammainc(a, eps) for a in exponents))
    return {"quadrature": outer, "closed_form": closed, "difference": abs(outer - closed)}


def test_double_integral_matches_incomplete_gamma():
    for eps in (0.5, 1.0, 2.0):
        out = power_weight_double_integral(eps)
        assert out["difference"] < 1e-8
    single = power_weight_double_integral(1.0, exponents=(0.25,))
    from scipy.special import gamma as G, gammainc
    assert single["closed_form"] == pytest.approx(float(G(0.25) * gammainc(0.25, 1.0)))


def _bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


_BELOW_ONE = st.floats(0.0, 1.0, exclude_max=True, allow_subnormal=True)


# every float below 1, subnormals included
@given(st.lists(_BELOW_ONE, max_size=100))
def test_ein_series_is_polyval_bit_for_bit(xs):
    x = np.asarray(xs, dtype=float)
    want = np.polynomial.polynomial.polyval(x, np.asarray(_EIN_SERIES))
    assert _bits(_ein(x, exp1(x))) == _bits(want)


@given(st.lists(st.floats(1.0, 700.0), max_size=10))
def test_ein_above_one_is_exp1_log_gamma(xs):
    x = np.asarray(xs, dtype=float)
    assert _bits(_ein(x, exp1(x))) == _bits(exp1(x) + np.log(x) + EULER_GAMMA)


def _ein_reference(x: np.ndarray) -> np.ndarray:
    """Each branch in its array form: polyval below 1, exp1 + log + gamma
    from 1 on."""
    low = x < 1.0
    out = np.empty_like(x)
    out[low] = np.polynomial.polynomial.polyval(x[low], np.asarray(_EIN_SERIES))
    out[~low] = exp1(x[~low]) + np.log(x[~low]) + EULER_GAMMA
    return out


@pytest.mark.parametrize("xs", [
    [],
    [1.0],
    [1.0, 1.5, 3.0, 40.0, 700.0],
    [np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)],
    [0.0, 5e-324, 0.02, 0.999, 1.0, 2.0, 0.5, 17.0],
], ids=["empty", "one", "from-one", "around-one", "mixed"])
def test_ein_branches_on_fixed_arguments(xs):
    x = np.asarray(xs, dtype=float)
    got = _ein(x, exp1(x))
    assert got.shape == x.shape
    assert _bits(got) == _bits(_ein_reference(x))


def test_from_spectrum_computes_e1_once_for_both_integrals(monkeypatch):
    import scipy.special

    calls = []

    def fake_exp1(x):
        # E1 shifted by 1: a value only this call can have produced
        calls.append(np.array(x, copy=True))
        return exp1(x) + 1.0

    monkeypatch.setattr(scipy.special, "exp1", fake_exp1)
    lam, w = np.array([0.5, 1.0, 2.5, 9.0]), np.array([1.0, 2.0, 0.5, 1.5])
    model = HeatTraceModel.from_spectrum(Spectrum(lam, w))
    assert len(calls) == 1 and _bits(calls[0]) == _bits(lam)
    e1 = exp1(lam) + 1.0
    assert model.large_time_exact == _exact_sum(w * e1)
    assert model.small_time_exact == _exact_sum(-w * _ein(lam, e1))
    # the upper branch took the shifted values, not a fresh E1
    high = lam >= 1.0
    assert _bits(_ein(lam, e1)[high]) == _bits(e1[high] + np.log(lam[high]) + EULER_GAMMA)


@given(st.lists(st.floats(-1e300, 1e300), max_size=300),
       st.floats(0.0, 100.0), st.floats(0.0, 1e-3))
def test_exact_sum_is_its_np_sum_form(values, ulps, extra):
    terms = np.asarray(values, dtype=float)
    want = ExactIntegral(
        float(np.sum(terms)),
        _EPS * float(np.sum(np.abs(terms) * (terms.size + ulps))) + terms.size * _TINY + extra)
    got = _exact_sum(terms, ulps, extra)
    assert _bits(got) == _bits(want)


_NAN, _INF = math.nan, math.inf
_ONE = Spectrum.from_pairs([(1.0, 1.0)])


_TIME = r"^t must be in \(0, inf\), got "
_CIRCLE_MODEL = r"^circumference must be in \[1e-153, 1e\+154\], got "
_WITH_KERNEL = Spectrum.from_pairs([(0.0, 1.0), (1.0, 1.0)])


@pytest.mark.parametrize("call, message", [
    (lambda: _ONE.heat_trace(_NAN), _TIME + "nan$"),
    (lambda: _ONE.heat_trace_rounding_bound(_NAN), _TIME + "nan$"),
    (lambda: circle_heat_trace(1.0, _NAN), _TIME + "nan$"),
    (lambda: circle_heat_trace(_NAN, 1.0), _CIRCLE_MODEL + "nan$"),
    (lambda: circle_heat_trace(-1.0, 1.0), _CIRCLE_MODEL + "-1.0$"),
    (lambda: kernel_1d(Domain1D.line(), _NAN, 0.0, 0.0), _TIME + "nan$"),
    (lambda: kernel_1d(Domain1D.line(), 1.0, _NAN, 0.0), r"^x must be in \(-inf, inf\)"),
    (lambda: kernel_1d(Domain1D.line(), 1.0, 0.0, _INF), r"^y must be in \(-inf, inf\)"),
    (lambda: sup_bound_check(Domain1D.line(), _NAN), r"^t0 must be in \(0, 1e\+306\], got nan$"),
    (lambda: Domain1D.circle(_INF), r"^length must be in \(0, inf\), got inf$"),
    (lambda: Domain1D.interval_neumann(_NAN), r"^length must be in \(0, inf\), got nan$"),
    (lambda: PlancherelComponent(0.0, (1.0,)).trace(_NAN), _TIME + "nan$"),
    (lambda: CuspEnd(_NAN), r"^cross_section_volume must be in \(0, inf\), got nan$"),
    (lambda: ConformalFamily(3, lambda x, u: 1 + x, cross_section_volume=_NAN),
     r"^cross_section_volume must be in \(0, inf\), got nan$"),
    (lambda: HeatTraceModel.from_circle(_NAN), _CIRCLE_MODEL + "nan$"),
    (lambda: HeatTraceModel.from_circle(_INF), _CIRCLE_MODEL + "inf$"),
    (lambda: HeatTraceModel.from_circle(1e308), _CIRCLE_MODEL + "1e"),
    # (2 pi / L)^2 is subnormal: the gap has lost precision
    (lambda: HeatTraceModel.from_circle(1e155), _CIRCLE_MODEL + "1e"),
    (lambda: zeta_det(replace(HeatTraceModel.from_spectrum(_ONE), spectral_gap=_NAN)),
     r"^spectral_gap must be in \(0, inf\], got nan$"),
    # (2 pi / L)^2 overflows
    (lambda: HeatTraceModel.from_circle(1e-154), _CIRCLE_MODEL + "1e-154$"),
    # L / 2 rounds to 0, so the cutoff 6.5 / (L / 2) divides by zero
    (lambda: HeatTraceModel.from_circle(5e-324), _CIRCLE_MODEL + "5e-324$"),
    # 42 / (2 pi / L)^2, the square of the E1 sum's cutoff, overflows
    (lambda: HeatTraceModel.from_circle(4e154), _CIRCLE_MODEL + "4e"),
    # -inf * 0 at the zero mode
    (lambda: _WITH_KERNEL.heat_trace(_INF, include_kernel=True), _TIME + "inf$"),
    (lambda: _WITH_KERNEL.heat_trace_rounding_bound(_INF, include_kernel=True),
     _TIME + "inf$"),
    (lambda: circle_heat_trace(1.0, _INF), _TIME + "inf$"),
    # the image count of an infinite time overflows
    (lambda: kernel_1d(Domain1D.circle(1.0), _INF, 0.0, 0.0), _TIME + "inf$"),
    (lambda: kernel_1d(Domain1D.line(), _INF, 0.0, 0.0), _TIME + "inf$"),
    # a finite time far past the kernel's convergence asks for 1e154 images
    (lambda: kernel_1d(Domain1D.circle(1.0), 1e308, 0.0, 0.0),
     r"^t must be in \(0, 1e\+06\], got 1e\+308$"),
    (lambda: kernel_1d(Domain1D.interval_neumann(1.0), 1e308, 0.0, 0.0),
     r"^t must be in \(0, 1e\+06\], got 1e\+308$"),
    (lambda: sup_bound_check(Domain1D.line(), _INF), r"^t0 must be in \(0, 1e\+306\], got inf$"),
    # the grid's top time 10 t0 would pass kernel_1d's 1e6 L^2
    (lambda: sup_bound_check(Domain1D.circle(2.0), 1e6),
     r"^t0 must be in \(0, 400000\], got 1000000.0$"),
    (lambda: PlancherelComponent(0.0, (1.0,)).trace(_INF), _TIME + "inf$"),
    # (2 pi / L)^2 overflows in the eigenvalue series
    (lambda: circle_heat_trace(1e-200, 1.0), _CIRCLE_MODEL + "1e-200$"),
    # L / sqrt(4 pi t) is beyond a double
    (lambda: circle_heat_trace(1e154, 5e-324),
     r"^circle heat trace overflows a double at t = 4.94066e-324$"),
], ids=["heat-trace", "heat-trace-bound", "circle-trace", "circle-trace-nan-length",
        "circle-trace-negative-length", "kernel-time", "kernel-x",
        "kernel-y", "sup-bound", "circle-length", "interval-length", "plancherel-trace",
        "cusp-volume", "conformal-volume", "circle-model-nan", "circle-model-inf",
        "circle-model-gap-zero", "circle-model-gap-subnormal", "det-gap",
        "circle-model-gap-overflow", "circle-model-half-length-zero",
        "circle-model-cutoff-overflow", "heat-trace-inf", "heat-trace-bound-inf",
        "circle-trace-inf", "kernel-circle-time-inf", "kernel-line-time-inf",
        "kernel-circle-images", "kernel-interval-images", "sup-bound-inf", "sup-bound-images",
        "plancherel-trace-inf", "circle-trace-gap-overflow", "circle-trace-overflow"])
def test_range_checks_refuse_nan_and_infinity(call, message):
    # every range check goes through inputs.check_range, outside whose
    # intervals NaN lies
    with pytest.raises(ValueError, match=message):
        call()
