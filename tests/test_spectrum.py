import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from l2tor.heattrace import HeatTraceModel
from l2tor.spectrum import Spectrum, _theta_dual_sum, circle_heat_trace, circle_trace_residual


def circle_spectrum(circumference: float, n_max: int) -> Spectrum:
    """Eigenvalues (2 pi n / L)^2 for |n| <= n_max, multiplicity two for n > 0."""
    base = (2.0 * math.pi / circumference) ** 2
    eigs = [0.0] + [base * n * n for n in range(1, n_max + 1)]
    weights = [1.0] + [2.0] * n_max
    return Spectrum(np.asarray(eigs), np.asarray(weights))


def test_trace_example_with_kernel_flag():
    S = Spectrum.from_pairs([(0.0, 1.0), (1.0, 2.0)])
    assert S.heat_trace(1.0) == pytest.approx(2.0 * math.exp(-1.0))
    assert S.heat_trace(1.0, include_kernel=True) == pytest.approx(
        1.0 + 2.0 * math.exp(-1.0))


def test_empty_spectrum_trace_is_zero():
    S = Spectrum.from_pairs([])
    assert S.heat_trace(0.5) == 0.0


def test_nonpositive_time_rejected():
    S = Spectrum.from_pairs([(1.0, 1.0)])
    with pytest.raises(ValueError):
        S.heat_trace(0.0)


def test_kernel_weight_and_gap():
    S = Spectrum.from_pairs([(0.0, 2.5), (0.5, 1.0), (3.0, 1.0)])
    assert S.weights[S.eigenvalues == 0.0].tolist() == [2.5]
    assert S.positive_part().eigenvalues[0] == 0.5
    assert S.positive_part().weights.sum() == 2.0


def test_validation_rejects_bad_inputs():
    with pytest.raises(ValueError):
        Spectrum.from_pairs([(-1.0, 1.0)])
    with pytest.raises(ValueError):
        Spectrum.from_pairs([(1.0, 0.0)])


def test_circle_trace_matches_truncated_spectrum():
    # eigenvalue series against the image (dual) series form
    for L in (1.0, 2 * math.pi, 5.0):
        S = circle_spectrum(L, n_max=4000)
        for t in (0.05, 0.3, 1.7):
            direct = S.heat_trace(t, include_kernel=True)
            assert circle_heat_trace(L, t) == pytest.approx(direct, abs=1e-10)


def test_circle_dual_series_small_time_form():
    # at small t the trace approaches L / sqrt(4 pi t)
    L = 2 * math.pi
    t = 1e-4
    assert circle_heat_trace(L, t) == pytest.approx(L / math.sqrt(4 * math.pi * t),
                                                    rel=1e-12)


def test_residual_is_stable_at_tiny_times():
    S = Spectrum.from_pairs([(2.0, 1.5)])
    t = 1e-12
    # naive subtraction would lose all digits here
    residual = HeatTraceModel.from_spectrum(S).residual(t)
    assert residual == pytest.approx(-1.5 * 2.0 * t, rel=1e-6)


def test_counting_function_steps():
    S = Spectrum.from_pairs([(0.0, 1.0), (1.0, 2.0), (4.0, 1.0)])
    F = S.counting_function()
    assert F(0.5) == 0.0
    assert F(1.0) == 2.0
    assert F(4.0) == 3.0
    G = S.counting_function(include_kernel=True)
    assert G(0.0) == 1.0


@given(st.lists(st.tuples(st.floats(0.01, 50.0), st.floats(0.1, 3.0)),
                min_size=1, max_size=10))
def test_trace_monotone_decreasing(pairs):
    S = Spectrum.from_pairs(pairs)
    ts = np.geomspace(0.01, 10, 12)
    vals = [S.heat_trace(t) for t in ts]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_union_weights_additive():
    a = Spectrum.from_pairs([(1.0, 1.0)])
    b = Spectrum.from_pairs([(1.0, 0.5), (2.0, 1.0)])
    u = Spectrum(np.concatenate([a.eigenvalues, b.eigenvalues]),
                 np.concatenate([a.weights, b.weights]))
    assert u.heat_trace(1.0) == pytest.approx(a.heat_trace(1.0) + b.heat_trace(1.0))


def _same_arrays(a: Spectrum, b: Spectrum) -> bool:
    """Equal dtypes, shapes and bytes of both arrays."""
    return all(x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
               for x, y in ((a.eigenvalues, b.eigenvalues), (a.weights, b.weights)))


@pytest.mark.parametrize("pairs", [
    [(2.0, 1.0), (0.5, 0.5), (0.5, 2.0), (7.0, 1.0 / 3.0)],
    [(0.0, 2.0), (3.0, 1.0), (0.0, 0.5), (1e-300, 1.0), (0.25, 1.0)],
    [(0.0, 1.0), (0.0, 3.0)],
    [],
], ids=["no-kernel", "zero-modes", "only-zero-modes", "empty"])
def test_positive_part_equals_the_constructed_part(pairs):
    S = Spectrum.from_pairs(pairs)
    mask = S.eigenvalues > 0
    want = Spectrum(S.eigenvalues[mask], S.weights[mask])
    part = S.positive_part()
    assert _same_arrays(part, want)
    assert part.positive_part() is part
    assert (part is S) == bool(mask.all())


@pytest.mark.parametrize("eigenvalues, weights", [
    ([1.0, -1e-300], [1.0, 1.0]),
    ([1.0, math.nan], [1.0, 1.0]),
    ([math.inf], [1.0]),
    ([1.0], [math.inf]),
    ([1.0], [-0.5]),
    ([1.0, 2.0], [1.0]),
    ([[1.0]], [[1.0]]),
], ids=["negative", "nan", "infinite", "infinite-weight", "negative-weight",
        "mismatched", "two-dimensional"])
def test_constructor_refuses_bad_input(eigenvalues, weights):
    with pytest.raises(ValueError):
        Spectrum(np.asarray(eigenvalues), np.asarray(weights))


def test_extreme_lengths_and_times_raise_no_overflow_warning():
    spectrum = Spectrum.from_pairs([(0.0, 1.0), (1.0, 2.0), (3.0, 1.0), (1e300, 1.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (5e-324, 1e-300, 1.0, 7.9e306):
            assert _theta_dual_sum(1e154, t) >= 0.0
        assert _theta_dual_sum(2.0, 5e-324) == 0.0
        for kernel in (False, True):
            assert spectrum.heat_trace(1e308, include_kernel=kernel) == float(kernel)
            assert 0.0 <= spectrum.heat_trace_rounding_bound(1e308, kernel) < 1e-14


@pytest.mark.parametrize("L, t", [(1e154, 7.9e306), (1e154, 7e306), (5e153, 1e306)])
def test_dual_sum_keeps_the_terms_whose_product_overflows(L, t):
    # k^2 L^2 passes the largest double for k >= 2 at L = 1e154, where the
    # k = 2 term is still 4e-5 of the sum near t = L^2 / (4 pi)
    with mpmath.workdps(40):
        exact = 2 * mpmath.nsum(lambda k: mpmath.exp(-k ** 2 * mpmath.mpf(L) ** 2
                                                     / (4 * mpmath.mpf(t))), [1, mpmath.inf])
        assert abs(_theta_dual_sum(L, t) - exact) <= 1e-15 * exact


@given(st.floats(1e-3, 1e3), st.floats(1e-6, 1e3))
@example(1e150, 1e290)
def test_dual_sum_without_overflow_keeps_its_direct_form(L, t):
    direct = float(2.0 * np.sum(np.exp(-(np.arange(1, 65.0) ** 2) * L * L / (4.0 * t))))
    assert repr(_theta_dual_sum(L, t)) == repr(direct)


@pytest.mark.parametrize("weight", [1.0, 1e3])
def test_rounding_bound_covers_a_subnormal_trace(weight):
    # from t = 708.4 on, e^{-t} is subnormal and good only to half the
    # smallest subnormal; a bound of eps times the trace underflows to 0
    spectrum = Spectrum.from_pairs([(1.0, weight)])
    assert spectrum.heat_trace_rounding_bound(740.0) > 0.0
    with mpmath.workdps(40):
        for t in np.linspace(700.0, 746.0, 185):
            t = float(t)
            exact = weight * mpmath.exp(-mpmath.mpf(t))
            error = abs(spectrum.heat_trace(t) - exact)
            assert error <= spectrum.heat_trace_rounding_bound(t), t


@pytest.mark.parametrize("L, t, message", [
    (1.0, 0.0, r"^t must be in \(0, inf\), got 0.0$"),
    (1.0, math.nan, r"^t must be in \(0, inf\), got nan$"),
    (math.inf, 1.0, r"^circumference must be in \[1e-153, 1e\+154\], got inf$"),
    (1e-200, 1.0, r"^circumference must be in \[1e-153, 1e\+154\], got 1e-200$"),
], ids=["zero-time", "nan-time", "infinite-length", "length-below-range"])
def test_circle_residual_holds_the_circle_traces_ranges(L, t, message):
    with pytest.raises(ValueError, match=message):
        circle_trace_residual(L, t)
