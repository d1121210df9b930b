import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import exp1

from l2tor.heattrace import (HeatTraceModel, analytic_torsion, asympt_fit,
                             cheeger_mueller_correction, d_small,
                             large_time_dominating_bound, large_time_integral,
                             power_weight_double_integral, zeta_det,
                             zeta_det_with_error)
from l2tor.mellin import EULER_GAMMA
from l2tor.rand import rng_for
from l2tor.spectrum import Spectrum


def test_large_time_single_eigenvalue_exponential_integral():
    S = Spectrum.from_pairs([(1.0, 1.0)])
    res = large_time_integral(HeatTraceModel.from_spectrum(S))
    assert res.determinant_class
    assert res.value == pytest.approx(float(exp1(1.0)), abs=1e-10)


def test_large_time_kernel_only_spectrum():
    S = Spectrum.from_pairs([(0.0, 5.0)])
    res = large_time_integral(HeatTraceModel.from_spectrum(S))
    assert res.value == 0.0
    assert res.determinant_class is True


def _quadrature_twin(model: HeatTraceModel) -> HeatTraceModel:
    """The same trace, residual, expansion and gap without the exact values,
    so that the solvers integrate it numerically."""
    return HeatTraceModel(evaluate=model.evaluate, m=model.m,
                          coefficients=model.coefficients, residual=model.residual,
                          spectral_gap=model.spectral_gap)


def test_large_time_tail_bound_dominates_actual_tail():
    from scipy.integrate import quad
    S = Spectrum.from_pairs([(0.7, 2.0), (3.0, 1.0)])
    model = HeatTraceModel(evaluate=lambda t: S.heat_trace(t), m=0,
                           spectral_gap=S.spectral_gap)
    res = large_time_integral(model)
    assert res.method == "gap"
    actual_tail, _ = quad(lambda t: model.evaluate(t) / t, 2.0, np.inf)
    assert res.tail_bound >= actual_tail


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
    assert (sm.method, lg.method) == ("exact", "exact")
    assert (sm_q.method, lg_q.method) == ("quad", "gap")
    assert _close(sm.integral, sm_q.integral)
    assert sm.constant_part == sm_q.constant_part
    assert _close(lg.value, lg_q.value)


@given(st.floats(math.log(0.05), math.log(50.0)))
def test_exact_circle_pieces_match_quadrature(log_L):
    model = HeatTraceModel.from_circle(math.exp(log_L))
    twin = _quadrature_twin(model)
    sm, sm_q = d_small(model), d_small(twin)
    lg, lg_q = large_time_integral(model), large_time_integral(twin)
    assert (sm.method, lg.method) == ("exact", "exact")
    assert sm_q.method == "quad" and lg_q.method in ("gap", "empty")
    assert _close(sm.integral, sm_q.integral)
    assert _close(lg.value, lg_q.value)


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


def test_very_short_circle_has_no_exact_pieces():
    model = HeatTraceModel.from_circle(1e-4)
    assert model.small_time_exact is None and model.large_time_exact is None
    with pytest.raises(ValueError, match="positive"):
        HeatTraceModel.from_circle(0.0)
    # below L = 13/65535 (about 2e-4) the circle sums need more than 65 536
    # terms; such a circle is integrated by quadrature, probed at its own
    # time scale L^2
    for L in (1.96e-4, 1.9e-4, 1e-4, 1e-6, 1e-8):
        det, err = zeta_det_with_error(HeatTraceModel.from_circle(L))
        assert det == pytest.approx(L * L, rel=1e-12)
        assert abs(det - L * L) <= err


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


def _decaying(gap: float) -> HeatTraceModel:
    """theta = e^{-t} declared with the given spectral gap."""
    return HeatTraceModel(evaluate=lambda t: math.exp(-t), m=0,
                          coefficients=np.array([1.0]),
                          residual=lambda t: math.expm1(-t), spectral_gap=gap)


def test_gap_certificate_accepts_true_gap():
    res = large_time_integral(_decaying(1.0))
    assert (res.method, res.determinant_class) == ("gap", True)
    assert res.value == pytest.approx(float(exp1(1.0)), abs=1e-12)


@pytest.mark.parametrize("gap", [2.0, 0.0, -1.0, math.inf])
def test_gap_certificate_refuses_overstated_gap(gap):
    model = _decaying(gap)
    res = large_time_integral(model)
    assert (res.value, res.determinant_class, res.method) == (None, None, "gap-refuted")
    with pytest.raises(ValueError, match="gap-refuted"):
        analytic_torsion({1: model})
    if gap > 0:
        with pytest.raises(ValueError, match="gap-refuted"):
            zeta_det(model)


@pytest.mark.parametrize("theta, method, det_class", [
    (lambda t: 1.0 / math.log(t + math.e), "dyadic-divergent", False),
    (lambda t: (1.0 + t) ** -0.1, "dyadic-ambiguous", None),
], ids=["divergent", "ambiguous"])
def test_dyadic_refusals_stop_the_torsion(theta, method, det_class):
    model = HeatTraceModel(evaluate=theta, m=0, coefficients=np.array([1.0]))
    res = large_time_integral(model)
    assert (res.value, res.determinant_class, res.method) == (None, det_class, method)
    with pytest.raises(ValueError, match=method):
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


def test_large_time_divergence_detected():
    slow = HeatTraceModel(evaluate=lambda t: 1.0 / math.log(t + math.e), m=0,
                          coefficients=np.array([0.0]))
    res = large_time_integral(slow)
    assert res.determinant_class is False
    assert res.value is None


def test_dsmall_refuses_unknown_coefficients():
    model = HeatTraceModel(evaluate=lambda t: math.exp(-t), m=1)
    with pytest.raises(ValueError, match="asympt_fit"):
        d_small(model)


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
    # the Mellin transform of t^{-a} has no content at s = 0
    A = 0.8
    model = HeatTraceModel(
        evaluate=lambda t: A * t ** -1.5, m=3,
        coefficients=np.array([A, 0.0, 0.0, 0.0]),
        residual=lambda t: 0.0,
        tail_integral=lambda T: A * T ** -1.5 / 1.5)
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


def test_model_invariant_positive_decreasing():
    S = Spectrum.from_pairs([(0.5, 1.0), (2.0, 3.0)])
    assert HeatTraceModel.from_spectrum(S).check_positive_decreasing()
    assert HeatTraceModel.from_circle(2.0).check_positive_decreasing()


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
        spectral_gap=1.0)
    total = d_small(S_like).value + large_time_integral(S_like).value
    assert total == pytest.approx(-2.0 * math.sqrt(math.pi) * c, abs=1e-9)


@pytest.mark.parametrize("L", [1.0, 2 * math.pi, 5.0, 0.003, 0.002, 1e-3, 5e-4])
def test_circle_determinant_is_square_of_circumference(L):
    # the short circles pass the residual check because it probes at times
    # proportional to L^2, where their expansion has taken hold
    det = zeta_det(HeatTraceModel.from_circle(L))
    assert det == pytest.approx(L * L, rel=1e-8)


@pytest.mark.parametrize("eigenvalue", [1e6, 1e8])
def test_large_eigenvalue_determinant(eigenvalue):
    # the residual check probes at times proportional to 1/eigenvalue
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


def test_torsion_linear_in_weights():
    rng = rng_for(7, 1)
    eigs = rng.uniform(0.3, 4.0, 4)
    base = Spectrum(np.sort(eigs), np.ones(4))
    doubled = Spectrum(base.eigenvalues, 2.0 * base.weights)
    t1 = analytic_torsion({1: HeatTraceModel.from_spectrum(base)}).total
    t2 = analytic_torsion({1: HeatTraceModel.from_spectrum(doubled)}).total
    assert t2 == pytest.approx(2.0 * t1, rel=1e-9)


def test_asympt_fit_circle():
    model = HeatTraceModel.from_circle(2 * math.pi)
    # full trace (kernel included) has no constant term
    theta_full = lambda t: model.evaluate(t) + 1.0
    fit = asympt_fit(theta_full, np.geomspace(1e-4, 0.1, 30), m=1)
    assert fit.coefficients[0] == pytest.approx(math.sqrt(math.pi), abs=1e-6)
    assert fit.coefficients[1] == pytest.approx(0.0, abs=1e-6)


def test_asympt_fit_synthetic():
    fit = asympt_fit(lambda t: t ** -0.5 + 3.0, np.geomspace(1e-3, 0.1, 20), m=1)
    assert fit.coefficients == pytest.approx(np.array([1.0, 3.0]), abs=1e-9)


def test_asympt_fit_zero_trace():
    fit = asympt_fit(lambda t: 0.0, np.geomspace(1e-3, 0.1, 20), m=2)
    assert np.allclose(fit.coefficients, 0.0, atol=1e-12)


def test_cheeger_mueller_correction_values():
    assert cheeger_mueller_correction(0) == 0.0
    assert cheeger_mueller_correction(2) == pytest.approx(math.log(2.0))
    assert cheeger_mueller_correction(-4) == pytest.approx(-2.0 * math.log(2.0))


def test_domination_single_eigenvalue_strict():
    S = Spectrum.from_pairs([(2.0, 1.0)])
    F = S.counting_function()
    out = large_time_dominating_bound(F, eps=1.0, spectrum=S,
                                      t_values=[1.0, 2.0, 5.0, 10.0])
    assert not out["violations"]
    # the tail estimate is tight exactly at t = 1, strict beyond
    assert out["margins"][0] == pytest.approx(0.0, abs=1e-15)
    assert all(m > 0 for m in out["margins"][1:])


def test_domination_gap_above_eps():
    S = Spectrum.from_pairs([(5.0, 2.0)])
    F = S.counting_function()
    out = large_time_dominating_bound(F, eps=1.0, spectrum=S)
    assert not out["violations"]


def test_domination_random_probes():
    rng = rng_for(7, 2)
    for k in range(50):
        n = int(rng.integers(1, 8))
        S = Spectrum(np.sort(rng.uniform(0.01, 6.0, n)), rng.uniform(0.2, 2.0, n))
        F = S.counting_function()
        eps = float(rng.uniform(0.05, 3.0))
        ts = np.sort(rng.uniform(1.0, 30.0, 6))
        out = large_time_dominating_bound(F, eps, S, ts)
        assert not out["violations"], k


def test_double_integral_matches_incomplete_gamma():
    for eps in (0.5, 1.0, 2.0):
        out = power_weight_double_integral(eps)
        assert out["difference"] < 1e-8
    single = power_weight_double_integral(1.0, exponents=(0.25,))
    from scipy.special import gamma as G, gammainc
    assert single["closed_form"] == pytest.approx(float(G(0.25) * gammainc(0.25, 1.0)))
