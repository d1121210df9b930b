import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from l2tor.spectrum import Spectrum, circle_heat_trace


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
    assert S.kernel_weight == 2.5
    assert S.spectral_gap == 0.5
    assert S.positive_part().total_weight == 2.0


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
    assert S.heat_trace_residual(t) == pytest.approx(-1.5 * 2.0 * t, rel=1e-6)


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
