import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn

from l2tor import heattrace
from l2tor.heattrace import analytic_torsion, d_small, large_time_integral
from l2tor.hyperbolic import (_REMAINDER_FLOOR, CuspEnd, PlancherelComponent,
                              PlancherelTable, _exp_taylor_remainder,
                              _gaussian_moment, cusp_volume, load_plancherel_table, plancherel_heat_model,
                              torsion_constant, torsion_constant_result,
                              truncated_volume)


@pytest.fixture(scope="module")
def table():
    return load_plancherel_table()


def test_gaussian_moments_match_gamma_oracle():
    for k in range(0, 7):
        assert _gaussian_moment(k) == pytest.approx(
            0.5 * float(gamma_fn((k + 1) / 2.0)), rel=1e-12)


def test_gaussian_moments_match_quadrature_oracle():
    for k in range(0, 9):
        val, _ = quad(lambda s: s ** k * math.exp(-s * s), 0.0, 14.0,
                      limit=200, epsabs=1e-15, epsrel=1e-13)
        assert _gaussian_moment(k) == pytest.approx(val, rel=1e-12)


def test_table_invariants_pass(table):
    out = table.validate()
    assert out["duality"] < 1e-10
    assert out["alternating_sum"] < 1e-9
    assert out["leading_term_rel"] < 1e-3


def test_scalar_density_closed_form(table):
    # shift 1 and density r^2/(2 pi^2) give e^{-t} (4 pi t)^{-3/2}
    for t in (1e-3, 0.1, 1.0, 4.0):
        expected = math.exp(-t) / (4.0 * math.pi * t) ** 1.5
        assert table.density(0, t) == pytest.approx(expected, rel=1e-9)


def test_duality_row_equality(table):
    for t in (0.01, 0.5, 2.0):
        assert table.density(3, t) == pytest.approx(table.density(0, t),
                                                          rel=1e-12)
        assert table.density(2, t) == pytest.approx(table.density(1, t),
                                                          rel=1e-12)


def test_one_form_leading_term(table):
    t = 1e-4
    target = 3.0 / (4.0 * math.pi * t) ** 1.5
    assert table.density(1, t) == pytest.approx(target, rel=1e-3)


def test_density_decreasing_and_log_convex(table):
    ts = np.geomspace(1e-3, 5.0, 40)
    for p in range(4):
        vals = np.array([table.density(p, t) for t in ts])
        assert np.all(np.diff(vals) < 0)
        logs = np.log(vals)
        # chord inequality for convexity of log K in t on the uneven grid
        t1, t2, t3 = ts[:-2], ts[1:-1], ts[2:]
        chord = ((t3 - t2) * logs[:-2] + (t2 - t1) * logs[2:]) / (t3 - t1)
        assert np.all(logs[1:-1] <= chord + 1e-12)


def test_torsion_constant_three_dimensional(table):
    c3 = torsion_constant(table)
    assert c3 == pytest.approx(-1.0 / (3.0 * math.pi), abs=1e-6)


def test_torsion_constant_sign_rule(table):
    # odd dimension m = 2n + 1 carries sign (-1)^n
    c3 = torsion_constant(table)
    assert (-1.0) ** 1 * c3 > 0


def test_torsion_constant_even_dimension_zero():
    assert torsion_constant(m=2) == 0.0
    assert torsion_constant(m=4) == 0.0


def _counting_quad(monkeypatch) -> list:
    """Count the calls of heattrace.quad; returns the list the calls land
    in, one entry per call: the number of times it evaluated its integrand."""
    calls = []
    real = heattrace.quad

    def counted(func, *args, **kwargs):
        calls.append(0)

        def integrand(x):
            calls[-1] += 1
            return func(x)

        return real(integrand, *args, **kwargs)

    monkeypatch.setattr(heattrace, "quad", counted)
    return calls


def _dual_free_table(table):
    """The packaged table with degrees 2 and 3 scaled, so that no degree's
    row equals its dual's (duality no longer holds; nothing validates it)."""
    scaled = tuple(tuple(replace(c, poly=tuple(2.0 * v for v in c.poly)) for c in row)
                   for row in table.rows[2:])
    return PlancherelTable(3, table.rows[:2] + scaled)


def test_constant_solves_each_distinct_row_once(table, monkeypatch):
    separate = analytic_torsion({p: plancherel_heat_model(table, p) for p in range(4)})
    calls = _counting_quad(monkeypatch)
    # the repr of a float tells apart every two doubles
    assert repr(torsion_constant_result()) == repr(separate)
    # degrees 0/3 and 1/2 have equal rows: one small-time quadrature each
    assert len(calls) == 2


def test_no_quadrature_outlives_its_constant(table, monkeypatch):
    calls = _counting_quad(monkeypatch)
    first = torsion_constant(table)
    assert torsion_constant(table) == first
    assert len(calls) == 2 * 2


def test_h3_quadrature_takes_one_21_point_interval(table, monkeypatch):
    # in s = sqrt(t) the integrand is smooth, and the first Gauss-Kronrod
    # interval over the whole range meets the tolerance
    calls = _counting_quad(monkeypatch)
    torsion_constant_result(table)
    assert len(calls) == 2 and max(calls) <= 21


def test_constant_of_a_table_without_equal_rows_solves_every_degree(table, monkeypatch):
    distinct = _dual_free_table(table)
    assert len(set(distinct.rows)) == 4
    separate = analytic_torsion({p: plancherel_heat_model(distinct, p) for p in range(4)})
    calls = _counting_quad(monkeypatch)
    result = torsion_constant_result(distinct)
    assert len(calls) == 4
    assert repr(result) == repr(separate)


def _series_integral(component: PlancherelComponent) -> mpmath.mpf:
    """The integral of the remainder of c r^2 at shift 1 against dt/t over
    (0, 1]: the remainder is base t^{-3/2} (e^{-t} - 1 + t) with
    base = c Gamma(3/2)/2, so the integral is
    base sum_{j>=2} (-1)^j / (j! (j - 3/2))."""
    assert component.shift == 1.0 and component.poly[:2] == (0.0, 0.0)
    base = mpmath.mpf(component.poly[2]) * mpmath.gamma(mpmath.mpf(3) / 2) / 2
    return base * mpmath.nsum(
        lambda j: (-1) ** j / (mpmath.factorial(j) * (j - mpmath.mpf(3) / 2)),
        [2, mpmath.inf])


def test_h3_small_time_integrals_lie_within_their_error_of_the_series(table):
    seen = set()
    for tbl in (table, _dual_free_table(table)):
        for p, row in enumerate(tbl.rows):
            shifted = tuple(c for c in row if c.shift)
            if shifted in seen:
                continue
            seen.add(shifted)
            res = d_small(plancherel_heat_model(tbl, p))
            assert res.method == "quad" and len(shifted) == 1
            with mpmath.workdps(40):
                exact = _series_integral(shifted[0])
                assert abs(mpmath.mpf(res.integral) - exact) <= res.error
    assert len(seen) == 2


def _summed_remainders(row, m: int):
    """The residual as the sum of every component's expansion remainder."""
    remainders = [comp.expansion(m)[1] for comp in row]
    return lambda t: sum(r(t) for r in remainders)


_TWO_SHIFTS = (PlancherelComponent(1.0, (0.0, 0.0, 0.05)),
               PlancherelComponent(0.0, (0.1, 0.0, 0.1)),
               PlancherelComponent(2.5, (0.3, -0.2, 0.07)))


# down to the smallest time at which d_small's integrand evaluates the
# residual, (e^{-60})^2 = e^{-120}; below about 3e-206 the powers t^{-3/2}
# overflow in either form
@given(st.floats(1e-60, 1.0))
@example(1.0)
@example(math.exp(-120.0))
@example(math.exp(-60.0) ** 2)
def test_residual_leaves_out_exactly_the_unshifted_components(table, t):
    rows = [(table, p) for p in range(4)]
    rows.append((PlancherelTable(3, (_TWO_SHIFTS,) * 4), 0))
    for tbl, p in rows:
        residual = plancherel_heat_model(tbl, p).residual
        assert repr(residual(t)) == repr(_summed_remainders(tbl.rows[p], 3)(t))


def _abs_max_remainder(z: float, order: int) -> float:
    """_exp_taylor_remainder's series with its stopping rule written with
    abs and max: |term| <= 1e-20 max(|total|, 1e-280)."""
    if z == 0.0:
        return 0.0
    if z > 0.5:
        return math.exp(-z) - sum((-z) ** j / math.factorial(j) for j in range(order + 1))
    term = (-z) ** (order + 1) / math.factorial(order + 1)
    total = 0.0
    j = order + 1
    while abs(term) > 1e-20 * max(abs(total), 1e-280):
        total += term
        j += 1
        term *= (-z) / j
    return total


# the first term is z^2/2 at order 1 and -z at order 0; at
# z = 1.414213562373095e-150 and at z = _REMAINDER_FLOOR respectively its
# size is exactly the floor, and the neighbouring z fall below and above it
@given(st.floats(0.0, 0.5, allow_subnormal=True), st.integers(-1, 6))
@example(0.0, 1)
@example(1.4142135623730947e-150, 1)
@example(1.414213562373095e-150, 1)
@example(1.4142135623730952e-150, 1)
@example(_REMAINDER_FLOOR, 0)
@example(math.nextafter(_REMAINDER_FLOOR, 1.0), 0)
@example(5e-324, -1)
@example(0.5, -1)
@example(0.5, 0)
@example(0.5, 1)
@example(0.5, 2)
@example(0.5, 3)
@example(0.5, 4)
@example(0.5, 5)
@example(0.5, 6)
def test_exp_taylor_remainder_matches_its_abs_max_form(z, order):
    assert repr(_exp_taylor_remainder(z, order)) == repr(_abs_max_remainder(z, order))


def _power_form_remainder(comp: PlancherelComponent, m: int):
    """The expansion remainder with each term's power and z = shift t
    computed in place."""
    tail = []
    for k, c in enumerate(comp.poly):
        if c:
            j_lo, j_cut = max(0, (k + 2 - m) // 2), (k + 1) // 2
            tail.append((c * _gaussian_moment(k), k, j_cut if j_lo <= j_cut else -1))

    def remainder(t: float) -> float:
        acc = 0.0
        for base, k, j_cut in tail:
            acc += base * t ** (-(k + 1) / 2.0) * _exp_taylor_remainder(comp.shift * t, j_cut)
        return acc

    return remainder


@given(st.floats(1e-60, 1.0))
@example(math.exp(-120.0))
def test_expansion_remainder_matches_its_in_place_form(table, t):
    comps = {c for row in table.rows for c in row} | set(_TWO_SHIFTS)
    for comp in comps:
        got = comp.expansion(3)[1](t)
        assert repr(got) == repr(_power_form_remainder(comp, 3)(t))


def test_per_degree_models_certify_determinant_class(table):
    for p in range(4):
        model = plancherel_heat_model(table, p)
        res = large_time_integral(model)
        assert res.method == "exact" and math.isfinite(res.value)


def test_empty_row_has_zero_large_time_integral():
    empty = PlancherelTable(1, ((), ()))
    assert tuple(plancherel_heat_model(empty, 0).large_time_exact) == (0.0, 0.0)


@given(st.floats(0.0, 20.0),
       st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=6))
@example(0.0, [1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
@example(20.0, [1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
def test_component_large_time_integral_within_its_error_of_mpmath(shift, poly):
    # integer orders E_2, E_3, E_4 (odd k) and half-integer orders
    # E_{3/2}, E_{5/2}, E_{7/2} (even k) both occur
    value, error = PlancherelComponent(shift, tuple(poly)).large_time_exact()
    with mpmath.workdps(40):
        s = mpmath.mpf(shift)
        exact = sum(mpmath.mpf(c) * mpmath.gamma(mpmath.mpf(k + 1) / 2) / 2
                    * mpmath.expint(mpmath.mpf(k + 3) / 2, s)
                    for k, c in enumerate(poly))
        assert abs(mpmath.mpf(value) - exact) <= error


def test_degree_zero_contribution_closed_form(table):
    # the scalar-row contribution to the torsion has the closed value
    # (4 pi)^{-3/2} Gamma(-3/2) = 1 / (6 pi)
    model = plancherel_heat_model(table, 0)
    total = d_small(model).value + large_time_integral(model).value
    assert total == pytest.approx(1.0 / (6.0 * math.pi), abs=1e-10)


def test_coexact_power_part_contributes_nothing(table):
    # pure power heat traces carry no determinant content; rebuilding the
    # coexact component alone must give zero
    coexact = PlancherelComponent(0.0, (1.0 / math.pi ** 2, 0.0, 1.0 / math.pi ** 2))
    tbl_row = (coexact,)
    model_coeff, remainder = coexact.expansion(3)
    from l2tor.heattrace import HeatTraceModel
    model = HeatTraceModel(
        evaluate=lambda t: coexact.trace(t), m=3, coefficients=model_coeff,
        residual=remainder, large_time_exact=coexact.large_time_exact())
    total = d_small(model).value + large_time_integral(model).value
    assert total == pytest.approx(0.0, abs=1e-10)


def test_table_validation_catches_broken_duality():
    half = 1.0 / (2.0 * math.pi ** 2)
    one = 1.0 / math.pi ** 2
    scalar = (PlancherelComponent(1.0, (0.0, 0.0, half)),)
    oneform = (PlancherelComponent(1.0, (0.0, 0.0, half)),
               PlancherelComponent(0.0, (one, 0.0, one)))
    broken = PlancherelTable(3, (scalar, oneform, oneform, oneform))
    with pytest.raises(ValueError, match="duality|alternating|leading"):
        broken.validate()


def test_table_refuses_a_term_more_singular_than_its_expansion(table):
    # an r^4 density gives t^{-5/2}, which the m = 3 expansion cannot hold:
    # without the refusal this table's constant came out -0.10502, not the
    # packaged table's -0.10610, since its residual kept the t^{-5/2} term
    extra = PlancherelComponent(1.0, (0.0, 0.0, 0.0, 0.0, 1e-3))
    rows = list(table.rows)
    rows[0] += (extra,)
    rows[3] += (extra,)
    with pytest.raises(ValueError, match=(
            r"^rows\[0\]\.components\[1\]\.poly: the r\^4 term gives t\^\(-5/2\), more "
            r"singular than the expansion's t\^\(-3/2\); need degree below 3$")):
        PlancherelTable(3, tuple(rows))
    # zero coefficients past the bound are no term
    padded = PlancherelComponent(1.0, (0.0, 0.0, 0.05, 0.0, 0.0))
    assert PlancherelTable(3, ((padded,),) * 4).rows[0] == (padded,)


@pytest.mark.parametrize("shift", [-1.0, math.nan, math.inf])
def test_component_refuses_shift_outside_zero_to_infinity(shift):
    with pytest.raises(ValueError, match=rf"^shift must be in \[0, inf\), got {shift}$"):
        PlancherelComponent(shift, (1.0,))


def test_component_trace_refuses_a_trace_beyond_a_double(table):
    # t^{-1} at the smallest subnormal t overflows the power itself, and
    # 1e308 t^{-1/2} the sum of finite terms
    message = r"^heat trace overflows a double at t = "
    with pytest.raises(ValueError, match=message + "4.94066e-324$"):
        table.rows[1][0].trace(5e-324)
    with pytest.raises(ValueError, match=message + "1e-10$"):
        PlancherelComponent(0.0, (1e308,)).trace(1e-10)
    # the density of the degree keeps its own message
    with pytest.raises(ValueError, match=(r"^heat density of degree 1 overflows a double "
                                          r"at t = 4.94066e-324$")):
        table.density(1, 5e-324)


@pytest.mark.parametrize("p", [1.0, True, -1, 4])
def test_heat_model_refuses_a_degree_that_is_no_integer_of_the_table(table, p):
    with pytest.raises(ValueError, match=rf"^p must be an integer in \[0, 3\], got {p}$"):
        plancherel_heat_model(table, p)


def test_cusp_volume_examples():
    assert cusp_volume(CuspEnd(1.0), m=3, height=0.0) == pytest.approx(0.5)
    assert cusp_volume(CuspEnd(1.0), m=3, height=50.0) == pytest.approx(0.0, abs=1e-40)
    assert cusp_volume(CuspEnd(2.0), m=3, height=1.0) == pytest.approx(math.exp(-2.0))


def test_cusp_volume_scaling_exact():
    end = CuspEnd(3.7)
    for m in (2, 3, 5):
        v0 = cusp_volume(end, m, height=0.0)
        for R in (0.5, 1.0, 4.0):
            assert cusp_volume(end, m, height=R) / v0 == pytest.approx(
                math.exp(-(m - 1) * R), rel=1e-12)


def test_cusp_volume_rejects_low_dimension():
    with pytest.raises(ValueError):
        cusp_volume(CuspEnd(1.0), m=1)


def test_truncated_volume_identities():
    ends = [CuspEnd(1.0), CuspEnd(0.5)]
    total = 10.0
    assert truncated_volume(total, [], 0.0, 3) == total
    big_r = truncated_volume(total, ends, 40.0, 3)
    assert big_r == pytest.approx(total, abs=1e-15)
    for R in (0.0, 1.0, 2.0):
        cut = truncated_volume(total, ends, R, 3)
        back = cut + sum(cusp_volume(e, 3, height=R) for e in ends)
        assert back == pytest.approx(total, abs=1e-12)


def test_truncated_volume_monotone_in_height():
    ends = [CuspEnd(2.0)]
    vals = [truncated_volume(5.0, ends, R, 3) for R in (0.0, 0.5, 1.0, 2.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_truncated_volume_rejects_deficit():
    with pytest.raises(ValueError):
        truncated_volume(0.1, [CuspEnd(1.0)], 0.0, 3)
