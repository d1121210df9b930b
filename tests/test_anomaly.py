import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from l2tor.anomaly import (PRESET_FAMILIES, STAR_POWER, ConformalFamily, Jet,
                           anomaly_coefficients, hodge_star_conformal,
                           mean_curvature, product_lift, v_operator)


def _series_divide(num, den):
    """Quotient num/den of two order-2 x-series by long division: the
    oracle for variation_multiple, which reads the u-column of log f."""
    q0 = num[0] / den[0]
    q1 = (num[1] - q0 * den[1]) / den[0]
    q2 = (num[2] - q0 * den[2] - q1 * den[1]) / den[0]
    return np.array([q0, q1, q2])


def test_jet_arithmetic_against_finite_differences():
    def func(x, u):
        return (1 + x + u * x * x) / (2 + u + x)

    jet = func(Jet.var_x(0.3), Jet.var_u(0.7))
    h = 1e-5

    def fd(g, which):
        if which == "x":
            return (g(0.3 + h, 0.7) - g(0.3 - h, 0.7)) / (2 * h)
        return (g(0.3, 0.7 + h) - g(0.3, 0.7 - h)) / (2 * h)

    plain = lambda x, u: (1 + x + u * x * x) / (2 + u + x)
    assert jet.value == pytest.approx(plain(0.3, 0.7), rel=1e-14)
    assert jet.d_x == pytest.approx(fd(plain, "x"), abs=1e-9)
    assert jet.d_u == pytest.approx(fd(plain, "u"), abs=1e-9)
    dxx_fd = (plain(0.3 + h, 0.7) - 2 * plain(0.3, 0.7) + plain(0.3 - h, 0.7)) / h ** 2
    assert 2.0 * jet.c[2, 0] == pytest.approx(dxx_fd, abs=1e-6)


def test_jet_exp_log_sqrt_roundtrip():
    jet = 1 + 0.3 * Jet.var_x(0.2) + 0.1 * Jet.var_u(0.5)
    assert np.allclose(jet.log().exp().c, jet.c, atol=1e-13)
    assert np.allclose((jet.sqrt() * jet.sqrt()).c, jet.c, atol=1e-13)


def test_jet_division_guard():
    with pytest.raises(ZeroDivisionError):
        Jet.var_x(0.0).reciprocal()


def test_euclidean_star_dim2():
    flat = ConformalFamily(2, lambda x, u: 1 + 0 * x + 0 * u)
    rows = {r["form"]: r["coefficient"] for p in range(3)
            for r in hodge_star_conformal(flat, p, (0.3, 0.2))}
    assert rows["1"] == 1.0
    assert rows["dx"] == 1.0 and rows["dy"] == -1.0
    assert rows["dx^dy"] == 1.0


def test_star_dim2_scaling_example():
    fam = PRESET_FAMILIES[2]  # f = 1 + u x
    row = hodge_star_conformal(fam, 0, (1.0, 0.5))[0]
    assert row["coefficient"] == pytest.approx(1.5)
    top = hodge_star_conformal(fam, 2, (1.0, 0.5))[0]
    assert top["coefficient"] == pytest.approx(1.0 / 1.5)


def test_star_dim3_top_degree_power():
    fam = PRESET_FAMILIES[3]
    f_val = fam.jet(0.4, 0.2).value
    row = hodge_star_conformal(fam, 3, (0.4, 0.2))[0]
    assert row["coefficient"] == pytest.approx(f_val ** -3, rel=1e-13)
    one = hodge_star_conformal(fam, 1, (0.4, 0.2))
    assert {r["image"] for r in one} == {"dy^dz", "dz^dx", "dx^dy"}
    assert all(r["coefficient"] == pytest.approx(f_val) for r in one)


@pytest.mark.parametrize("p", [1.0, True, -1, 4])
def test_star_and_variation_refuse_a_degree_that_is_no_integer_in_range(p):
    for operator in (hodge_star_conformal, v_operator):
        with pytest.raises(ValueError, match=rf"^p must be an integer in \[0, 3\], got {p}$"):
            operator(PRESET_FAMILIES[3], p, (0.25, 0.5))


def test_v_operator_middle_degree_dim2_vanishes():
    for fam in (PRESET_FAMILIES[2],
                ConformalFamily(2, lambda x, u: (1 + x * x * u).exp())):
        for pt in ((0.0, 0.3), (0.7, 0.9)):
            assert v_operator(fam, 1, pt) == 0.0


def test_v_operator_example_and_boundary_vanishing():
    fam = PRESET_FAMILIES[2]
    # at u = 0, f = 1 and d_u f = x, so the multiple is x itself
    assert v_operator(fam, 0, (1.0, 0.0)) == pytest.approx(-1.0)
    for p in range(3):
        assert v_operator(fam, p, (0.0, 0.8)) == 0.0


def test_v_operator_antisymmetry_dim3():
    fam = PRESET_FAMILIES[3]
    rng = np.random.default_rng(11)
    for _ in range(20):
        x, u = rng.uniform(0, 1, 2)
        for p in range(4):
            a = v_operator(fam, p, (x, u))
            b = v_operator(fam, 3 - p, (x, u))
            assert a == pytest.approx(-b, abs=1e-13)


def test_v_operator_crosscheck_random_families():
    # the operator is (d_u star) star^-1, and the star on the complementary
    # degree is f^k: v_operator equals d_u(f^k)/f^k, taken through jets
    rng = np.random.default_rng(12)
    for dim in (2, 3):
        for _ in range(10):
            a, b, c = rng.uniform(0.1, 0.8, 3)
            fam = ConformalFamily(dim, lambda x, u, a=a, b=b, c=c:
                                  1 + a * x + u * x * (b + c * x))
            for p in range(dim + 1):
                point = (float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
                value = v_operator(fam, p, point)
                star = fam.jet(*point) ** STAR_POWER[dim][dim - p]
                assert abs(value - star.d_u / star.value) <= 1e-10 * max(1.0, abs(value))


@given(st.lists(st.floats(-2.0, 2.0), min_size=12, max_size=12),
       st.lists(st.floats(0.25, 4.0), min_size=2, max_size=2),
       st.lists(st.floats(-0.2, 0.2), min_size=2, max_size=2),
       st.floats(0.0, 1.0))
def test_variation_multiple_is_the_series_quotient(coefficients, constants, slopes, u):
    # f = (P0 + u P1) / (Q0 + u Q1) with P, Q quadratics in x, positive at x = 0
    a = np.array(coefficients).reshape(2, 2, 3)
    a[:, 0, 0], a[:, 1, 0] = constants, slopes

    def f(x, u):
        P0, P1, Q0, Q1 = (sum(a[k, j, i] * x ** i for i in range(3))
                          for k in range(2) for j in range(2))
        return (P0 + u * P1) / (Q0 + u * Q1)

    family = ConformalFamily(3, f)
    jet = family.jet(0.0, u)
    expected = _series_divide(jet.c[:, 1], jet.c[:, 0])
    got = family.variation_multiple(u)
    assert np.abs(got - expected).max() <= 1e-13 * max(1.0, np.abs(expected).max())


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("u", [0.0, 0.1, 0.5, 1.0])
def test_variation_multiple_of_the_presets_is_the_series_quotient_bitwise(dim, u):
    family = PRESET_FAMILIES[dim]
    jet = family.jet(0.0, u)
    expected = _series_divide(jet.c[:, 1], jet.c[:, 0])
    assert family.variation_multiple(u).tobytes() == expected.tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dim", [2, 3])
def test_variation_multiple_refuses_an_overflowed_log_without_a_warning(dim):
    # log f = log(1 + e) squares e's x-coefficient u (or 1 + u): past 1.3e154
    # that square overflows in the pure-x column, which a structural zero of
    # the u-column meets without making NaN; the u-column's own x^2 entry
    # 2u overflows past 9e307
    family = PRESET_FAMILIES[dim]
    for u in (1e150, 1e200, 1e300):
        assert family.variation_multiple(u).tolist() == [0.0, 1.0, -u]
    with pytest.raises(ValueError, match="variation multiple overflows a double"):
        family.variation_multiple(1e308)


def test_variation_multiple_refuses_a_factor_not_positive_at_the_boundary():
    for f in (lambda x, u: x - 1 + 0 * u, lambda x, u: x + u * x):
        with pytest.raises(ValueError, match="positive"):
            ConformalFamily(3, f).variation_multiple(0.5)


def test_mean_curvature_values():
    fam = PRESET_FAMILIES[3]
    assert mean_curvature(fam, 0.0) == pytest.approx(2.0)
    for u in (0.1, 0.5, 1.0):
        assert mean_curvature(fam, u) == pytest.approx(2.0 * (1.0 + u))
    flat = ConformalFamily(3, lambda x, u: 1 + 0 * x + 0 * u)
    assert mean_curvature(flat, 0.3) == 0.0
    with pytest.raises(ValueError):
        mean_curvature(PRESET_FAMILIES[2], 0.0)


def test_anomaly_dim2_frozen_values():
    out = anomaly_coefficients(PRESET_FAMILIES[2], 0.0)
    eighth = -1.0 / (8.0 * math.pi)
    assert out.d_per_degree == pytest.approx([eighth, 0.0, eighth], abs=1e-15)
    assert out.alternating_sum == pytest.approx(-1.0 / (4.0 * math.pi), abs=1e-12)


def test_anomaly_dim3_frozen_values():
    fam = PRESET_FAMILIES[3]
    for u in (0.0, 0.1, 0.5, 1.0):
        out = anomaly_coefficients(fam, u)
        assert out.alternating_sum == pytest.approx(-(1.0 + u) / (4.0 * math.pi),
                                                    abs=1e-12)
        assert abs(out.diagnostics["second_derivative_alternating_term"]) < 1e-12
        assert abs(out.diagnostics["curvature_psi_alternating_term"]) < 1e-12


def test_anomaly_dim3_equals_minus_curvature_over_8pi():
    fam = PRESET_FAMILIES[3]
    for u in (0.0, 0.3, 0.9):
        out = anomaly_coefficients(fam, u)
        assert out.alternating_sum == pytest.approx(
            -mean_curvature(fam, u) / (8.0 * math.pi), abs=1e-12)


def test_anomaly_u_independent_family_vanishes():
    fam = ConformalFamily(3, lambda x, u: 1 + x + 0 * u)
    out = anomaly_coefficients(fam, 0.5)
    assert out.d_per_degree == pytest.approx([0.0] * 4, abs=1e-15)
    assert out.alternating_sum == 0.0


def test_anomaly_rejects_nonstationary_boundary():
    bad = ConformalFamily(2, lambda x, u: 1 + u + u * x)
    with pytest.raises(ValueError, match="stationary"):
        anomaly_coefficients(bad, 0.5)


def test_anomaly_scales_with_cross_section_volume():
    small = anomaly_coefficients(PRESET_FAMILIES[2], 0.0).alternating_sum
    fat = ConformalFamily(2, lambda x, u: 1 + u * x, cross_section_volume=2.5)
    assert anomaly_coefficients(fat, 0.0).alternating_sum == pytest.approx(
        2.5 * small, rel=1e-12)


def test_product_lift():
    assert product_lift(-1.0 / (4.0 * math.pi)) == pytest.approx(
        -1.0 / (2.0 * math.pi))
    assert product_lift(0.0) == 0.0
    base = anomaly_coefficients(PRESET_FAMILIES[3], 0.4).alternating_sum
    assert product_lift(base) == pytest.approx(-(1.4) / (2.0 * math.pi), abs=1e-12)
