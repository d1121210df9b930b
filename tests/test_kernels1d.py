import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from l2tor import kernels1d
from l2tor.inputs import check_range
from l2tor.kernels1d import (CIRCLE, HALF_DIRICHLET, HALF_NEUMANN, INTERVAL_NEUMANN, LINE,
                             Domain1D, boundary_insensitivity_check, kernel_1d,
                             sup_bound_check)
from l2tor.spectrum import circle_heat_trace


def kernel_mass(domain: Domain1D, t: float, x: float) -> float:
    """Integral of the kernel in its second argument over the domain, by
    quadrature."""
    if domain.kind == LINE:
        lo, hi = x - 40.0 * math.sqrt(t) - 1.0, x + 40.0 * math.sqrt(t) + 1.0
    elif domain.kind in (HALF_NEUMANN, HALF_DIRICHLET):
        lo, hi = 0.0, x + 40.0 * math.sqrt(t) + 1.0
    else:
        lo, hi = 0.0, domain.length
    val, _ = quad(lambda y: kernel_1d(domain, t, x, y), lo, hi,
                  limit=300, epsabs=1e-12, epsrel=1e-11)
    return val


def test_line_diagonal():
    line = Domain1D(LINE)
    for t in (0.01, 0.5, 3.0):
        assert kernel_1d(line, t, 0.7, 0.7) == pytest.approx(
            1.0 / math.sqrt(4 * math.pi * t))


def test_half_line_neumann_diagonal_closed_form():
    half = Domain1D(HALF_NEUMANN)
    for t, x in ((0.1, 0.0), (0.5, 1.2), (2.0, 0.3)):
        expected = (1.0 + math.exp(-x * x / t)) / math.sqrt(4 * math.pi * t)
        assert kernel_1d(half, t, x, x) == pytest.approx(expected, rel=1e-13)


def test_dirichlet_vanishes_at_wall():
    half = Domain1D(HALF_DIRICHLET)
    assert kernel_1d(half, 0.3, 0.0, 1.0) == pytest.approx(0.0, abs=1e-15)


def test_points_outside_domain_rejected():
    with pytest.raises(ValueError):
        kernel_1d(Domain1D(HALF_NEUMANN), 1.0, -0.5, 0.2)
    with pytest.raises(ValueError):
        kernel_1d(Domain1D(INTERVAL_NEUMANN, 1.0), 1.0, 0.5, 1.5)
    with pytest.raises(ValueError):
        kernel_1d(Domain1D(LINE), 0.0, 0.0, 0.0)


def test_circle_diagonal_integral_matches_spectral_series():
    # integrating the diagonal over the circle gives the eigenvalue series
    for L in (1.0, 2 * math.pi):
        circ = Domain1D(CIRCLE, L)
        for t in (0.05, 0.4, 2.0):
            val, _ = quad(lambda x: kernel_1d(circ, t, x, x), 0.0, L,
                          limit=200, epsabs=1e-13)
            assert val == pytest.approx(circle_heat_trace(L, t), abs=1e-10)


def test_symmetry_all_domains():
    rng = np.random.default_rng(5)
    domains = [Domain1D(LINE), Domain1D(HALF_NEUMANN),
               Domain1D(HALF_DIRICHLET), Domain1D(INTERVAL_NEUMANN, 1.5),
               Domain1D(CIRCLE, 2.0)]
    for dom in domains:
        for _ in range(20):
            t = float(rng.uniform(0.01, 3.0))
            if dom.kind == "intervalNeumann":
                x, y = rng.uniform(0, 1.5, 2)
            elif dom.kind == "circle":
                x, y = rng.uniform(0, 2.0, 2)
            elif dom.kind == "line":
                x, y = rng.uniform(-3, 3, 2)
            else:
                x, y = rng.uniform(0, 3, 2)
            a = kernel_1d(dom, t, float(x), float(y))
            b = kernel_1d(dom, t, float(y), float(x))
            assert a == pytest.approx(b, abs=1e-12)


def test_semigroup_property_interval_and_circle():
    interval = Domain1D(INTERVAL_NEUMANN, 1.0)
    circle = Domain1D(CIRCLE, 1.0)
    for dom, hi in ((interval, 1.0), (circle, 1.0)):
        for (s, t, x, y) in ((0.1, 0.2, 0.3, 0.8), (0.05, 0.5, 0.0, 0.9)):
            conv, _ = quad(lambda z: kernel_1d(dom, s, x, z) * kernel_1d(dom, t, z, y),
                           0.0, hi, limit=300, epsabs=1e-12)
            assert conv == pytest.approx(kernel_1d(dom, s + t, x, y), abs=1e-8)


def test_mass_conservation_and_dirichlet_loss():
    assert kernel_mass(Domain1D(LINE), 0.7, 0.3) == pytest.approx(1.0, abs=1e-8)
    assert kernel_mass(Domain1D(HALF_NEUMANN), 0.7, 0.9) == pytest.approx(
        1.0, abs=1e-8)
    assert kernel_mass(Domain1D(INTERVAL_NEUMANN, 2.0), 0.7, 1.1) == pytest.approx(
        1.0, abs=1e-8)
    assert kernel_mass(Domain1D(CIRCLE, 2.0), 0.7, 1.1) == pytest.approx(1.0, abs=1e-8)
    lost = kernel_mass(Domain1D(HALF_DIRICHLET), 0.7, 0.9)
    assert lost < 1.0 - 1e-4


def test_boundary_insensitivity_halfline_in_line():
    rep = boundary_insensitivity_check(Domain1D(HALF_NEUMANN), Domain1D(LINE))
    assert not rep.closed_form_violations
    assert rep.monotone_in_cutoff
    # the image-term identity makes c2 = 1 feasible on every grid
    assert 1.0 in rep.fitted_c1
    assert all(v < math.inf for v in rep.fitted_c1[1.0].values())
    assert rep.probes >= 64 * 33


def test_boundary_insensitivity_decay_constant_strictness():
    rep = boundary_insensitivity_check(Domain1D(HALF_NEUMANN), Domain1D(LINE))
    per_k = rep.fitted_c1[4.0]
    ks = sorted(per_k)
    assert per_k[ks[-1]] < per_k[ks[0]]  # strictly smaller at larger cutoffs


def test_boundary_insensitivity_interval_in_halfline():
    rep = boundary_insensitivity_check(Domain1D(INTERVAL_NEUMANN, 3.0),
                                       Domain1D(HALF_NEUMANN),
                                       K_values=(0.5, 1.0, 2.0))
    assert rep.monotone_in_cutoff
    assert rep.fitted_c1[4.0][2.0] <= rep.fitted_c1[4.0][0.5]


def test_boundary_insensitivity_same_domain_trivial():
    # the default points span [0, L) on a circle: the kernel refuses x >= L
    rep = boundary_insensitivity_check(Domain1D(CIRCLE, 1.0), Domain1D(CIRCLE, 1.0))
    assert all(v == 0.0 for per_k in rep.fitted_c1.values() for v in per_k.values())
    assert rep.probes == 64 * 33


def test_sup_bound_line():
    out = sup_bound_check(Domain1D(LINE), 1.0)
    assert out["sup"] == pytest.approx(1.0 / math.sqrt(4 * math.pi), rel=1e-12)
    assert out["attained_on_initial_diagonal"]


def test_sup_bound_half_line_neumann():
    out = sup_bound_check(Domain1D(HALF_NEUMANN), 1.0)
    assert out["sup"] == pytest.approx(2.0 / math.sqrt(4 * math.pi), rel=1e-12)
    assert out["argmax"][1] == 0.0 and out["argmax"][2] == 0.0


@pytest.mark.parametrize("domain", [Domain1D(LINE), Domain1D(HALF_NEUMANN),
                                    Domain1D(HALF_DIRICHLET), Domain1D(INTERVAL_NEUMANN, 2.0),
                                    Domain1D(CIRCLE, 2.0)], ids=lambda d: d.kind)
def test_sup_bound_takes_t0_up_to_1e306_on_every_kind(domain):
    out = sup_bound_check(domain, 1e306)
    assert out["attained_on_initial_diagonal"]
    if domain.length is not None:  # far past P^2 the kernel is 1/L
        assert out["sup"] == 1.0 / domain.length
    above = math.nextafter(1e306, math.inf)
    message = f"t0 must be in (0, 1e+306], got {above}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sup_bound_check(domain, above)


@pytest.mark.parametrize("domain, t0", [(Domain1D(CIRCLE, 0.003), 0.3),
                                        (Domain1D(INTERVAL_NEUMANN, 0.01), 1.0)],
                         ids=[CIRCLE, INTERVAL_NEUMANN])
def test_sup_bound_on_a_short_period_is_one_over_the_length_on_the_initial_diagonal(
        domain, t0):
    # every time of the grid is past P^2, so every kernel is the constant
    out = sup_bound_check(domain, t0)
    assert out["sup"] == out["diagonal_max_at_t0"] == 1.0 / domain.length
    t, x, y = out["argmax"]
    assert t == t0 and x == y
    assert out["attained_on_initial_diagonal"]


def test_sup_bound_circle_finite():
    out = sup_bound_check(Domain1D(CIRCLE, 2 * math.pi), 1.0)
    series = circle_heat_trace(2 * math.pi, 1.0) / (2 * math.pi)
    assert out["sup"] == pytest.approx(series, rel=1e-10)
    assert out["attained_on_initial_diagonal"]


# kernel_1d written with one branch per kind, and the point test it ran
# before, with the constant 1/L from t = P^2 on the two periodic kinds: the
# oracle that the one image sum over kernels1d._KINDS matches bit for bit
def _branch_contains(domain: Domain1D, x: float) -> bool:
    if domain.kind == LINE:
        return True
    if domain.kind in (HALF_NEUMANN, HALF_DIRICHLET):
        return x >= 0.0
    if domain.kind == INTERVAL_NEUMANN:
        return 0.0 <= x <= domain.length
    return 0.0 <= x < domain.length


def _branch_kernel(domain: Domain1D, t: float, x: float, y: float) -> float:
    gauss = kernels1d._gauss
    check_range("t", t, 0, math.inf)
    check_range("x", x, -math.inf, math.inf)
    check_range("y", y, -math.inf, math.inf)
    if not _branch_contains(domain, x) or not _branch_contains(domain, y):
        raise ValueError(f"points ({x}, {y}) outside domain {domain.kind}")
    kind = domain.kind
    if kind == LINE:
        return gauss(x - y, t)
    if kind == HALF_NEUMANN:
        return gauss(x - y, t) + gauss(x + y, t)
    if kind == HALF_DIRICHLET:
        return gauss(x - y, t) - gauss(x + y, t)
    L = domain.length
    if kind == CIRCLE and t >= L * L:
        return 1.0 / L
    if kind == INTERVAL_NEUMANN and t >= 4.0 * L * L:
        return 2.0 / (2.0 * L)
    reach = kernels1d._IMAGE_REACH * math.sqrt(t) + abs(x) + abs(y) + L
    if kind == CIRCLE:
        n_max = int(math.ceil(reach / L))
        return sum(gauss(x - y + n * L, t) for n in range(-n_max, n_max + 1))
    n_max = int(math.ceil(reach / (2.0 * L)))
    acc = 0.0
    for n in range(-n_max, n_max + 1):
        acc += gauss(x - y + 2.0 * n * L, t) + gauss(x + y + 2.0 * n * L, t)
    return acc


def _outcome(kernel, domain, t, x, y) -> str:
    """The kernel's value in hex, or the message it refuses the point with."""
    try:
        return kernel(domain, t, x, y).hex()
    except ValueError as exc:
        return str(exc)


_DOMAINS = [Domain1D(LINE), Domain1D(HALF_NEUMANN), Domain1D(HALF_DIRICHLET),
            Domain1D(INTERVAL_NEUMANN, 1.5), Domain1D(INTERVAL_NEUMANN, 0.01),
            Domain1D(CIRCLE, 2.0), Domain1D(CIRCLE, 0.003)]
# a point as a fraction of the domain's width (L, or 4 without a length),
# reaching a tenth past either end, and the ends themselves
_FRACTION = st.sampled_from([0.0, 1.0]) | st.floats(-0.1, 1.1)


@pytest.mark.parametrize("domain", _DOMAINS, ids=lambda d: f"{d.kind}-{d.length}")
@given(st.floats(-12.0, 8.0), _FRACTION, _FRACTION)
def test_image_sum_matches_the_branch_per_kind_bit_for_bit(domain, log_t, fx, fy):
    width = domain.length or 4.0
    start = -width / 2.0 if domain.kind == LINE else 0.0
    t, x, y = math.exp(log_t), start + fx * width, start + fy * width
    assert _outcome(kernel_1d, domain, t, x, y) == _outcome(_branch_kernel, domain, t, x, y)


def _theta_kernel(domain: Domain1D, t: float, x: float, y: float) -> mpmath.mpf:
    """The kernel as Jacobi theta functions (the Fourier series of the image
    sum), at mpmath's working precision."""
    L, t, x, y = (mpmath.mpf(v) for v in (domain.length, t, x, y))
    if domain.kind == CIRCLE:
        q = mpmath.exp(-4 * mpmath.pi ** 2 * t / L ** 2)
        return mpmath.jtheta(3, mpmath.pi * (x - y) / L, q) / L
    q = mpmath.exp(-mpmath.pi ** 2 * t / L ** 2)
    return (mpmath.jtheta(3, mpmath.pi * (x - y) / (2 * L), q)
            + mpmath.jtheta(3, mpmath.pi * (x + y) / (2 * L), q)) / (2 * L)


@given(st.sampled_from([CIRCLE, INTERVAL_NEUMANN]),
       st.sampled_from([0.003, 0.01, 1.5, 2.0, 3.0]),
       st.floats(-math.log(30.0), math.log(30.0)),
       st.floats(0.0, 1.0, exclude_max=True), st.floats(0.0, 1.0, exclude_max=True))
def test_periodic_kernels_are_the_theta_series_to_4_ulps(kind, length, log_ratio, fx, fy):
    # t log-uniform on [P^2 / 30, 30 P^2]: the image sum below P^2 and the
    # constant 1/L from P^2 on
    domain = Domain1D(kind, length)
    period = 2.0 * length if kind == INTERVAL_NEUMANN else length
    t = period * period * math.exp(log_ratio)
    x, y = fx * length, fy * length
    with mpmath.workdps(40):
        exact = _theta_kernel(domain, t, x, y)
        error = abs(mpmath.mpf(kernel_1d(domain, t, x, y)) - exact)
    assert error <= 4 * math.ulp(float(exact))


@pytest.mark.parametrize("kind", [CIRCLE, INTERVAL_NEUMANN])
def test_a_length_whose_constant_overflows_is_refused(kind):
    # 1/L is beyond a double below about 5.6e-309, and P^2 underflows there,
    # so every time would give the constant
    for length in (5e-324, 5e-309):
        with pytest.raises(ValueError, match=r"^heat kernel overflows a double at length "):
            kernel_1d(Domain1D(kind, length), 1.0, 0.0, 0.0)
    # P^2 underflows at L = 1e-200 too, but 1/L is a double
    assert kernel_1d(Domain1D(kind, 1e-200), 1e-300, 0.0, 0.0) == 1e200


@pytest.mark.parametrize("kind", [CIRCLE, INTERVAL_NEUMANN])
def test_an_image_reach_beyond_a_double_is_refused(kind):
    # 12 sqrt(t) + |x| + |y| + L overflows at points near L = 1e308 (and on
    # the interval P = 2L is inf already): the translate count was inf or
    # NaN, an OverflowError on the circle and a ValueError about NaN on the
    # interval
    domain = Domain1D(kind, 1e308)
    with pytest.raises(ValueError,
                       match=r"^image reach overflows a double at length 1e\+308$"):
        kernel_1d(domain, 1.0, 0.9e308, 0.9e308)
    # near 0 the reach is a double, and the kernel is the line's to rounding
    assert kernel_1d(domain, 1.0, 0.0, 0.0) == pytest.approx(
        (1.0 if kind == CIRCLE else 2.0) / math.sqrt(4.0 * math.pi), rel=1e-15)


_TINY = 5e-324


@pytest.mark.parametrize("domain, inside, outside", [
    (Domain1D(LINE), [0.0, -1e308, 1e308], []),
    (Domain1D(HALF_NEUMANN), [0.0, 1e308], [-_TINY]),
    (Domain1D(HALF_DIRICHLET), [0.0, 1e308], [-_TINY]),
    (Domain1D(INTERVAL_NEUMANN, 2.0), [0.0, 2.0], [-_TINY, math.nextafter(2.0, 3.0)]),
    (Domain1D(CIRCLE, 2.0), [0.0, math.nextafter(2.0, 0.0)], [-_TINY, 2.0]),
], ids=[LINE, HALF_NEUMANN, HALF_DIRICHLET, INTERVAL_NEUMANN, CIRCLE])
def test_contains_is_the_span_and_refuses_nan_and_infinities(domain, inside, outside):
    assert all(domain.contains(x) for x in inside)
    assert not any(domain.contains(x) for x in outside + [math.nan, math.inf, -math.inf])


@pytest.mark.parametrize("K_values, message", [
    ((), r"^K_values must be nonempty and increase strictly, got \(\)$"),
    ((2.0, 1.0), r"^K_values must be nonempty and increase strictly, got \(2.0, 1.0\)$"),
    ((1.0, 1.0), r"^K_values must be nonempty and increase strictly, got \(1.0, 1.0\)$"),
    ((math.nan,), r"^K must be in \(0, inf\), got nan$"),
    ((0.5, math.inf), r"^K must be in \(0, inf\), got inf$"),
    ((0.0, 1.0), r"^K must be in \(0, inf\), got 0.0$"),
], ids=["empty", "decreasing", "repeated", "nan", "inf", "zero"])
def test_boundary_insensitivity_refuses_bad_cutoffs_before_any_kernel(
        K_values, message, monkeypatch):
    monkeypatch.setattr(kernels1d, "kernel_1d", lambda *args: pytest.fail("kernel ran"))
    with pytest.raises(ValueError, match=message):
        boundary_insensitivity_check(Domain1D(HALF_NEUMANN), Domain1D(LINE), K_values)


@pytest.mark.parametrize("kind, length, message", [
    ("disc", None, "^unknown domain kind 'disc'$"),
    (LINE, 1.0, "^line takes no length$"),
    (CIRCLE, None, "^circle needs a length$"),
    (INTERVAL_NEUMANN, 0.0, r"^length must be in \(0, inf\), got 0.0$"),
], ids=["unknown-kind", "line-with-length", "circle-without-length", "zero-length"])
def test_domain_refuses_a_length_its_kind_does_not_take(kind, length, message):
    with pytest.raises(ValueError, match=message):
        Domain1D(kind, length)
