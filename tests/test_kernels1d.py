import math

import numpy as np
import pytest
from scipy.integrate import quad

from l2tor.kernels1d import (HALF_DIRICHLET, HALF_NEUMANN, LINE, Domain1D,
                             boundary_insensitivity_check, kernel_1d, sup_bound_check)
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
    line = Domain1D.line()
    for t in (0.01, 0.5, 3.0):
        assert kernel_1d(line, t, 0.7, 0.7) == pytest.approx(
            1.0 / math.sqrt(4 * math.pi * t))


def test_half_line_neumann_diagonal_closed_form():
    half = Domain1D.half_line_neumann()
    for t, x in ((0.1, 0.0), (0.5, 1.2), (2.0, 0.3)):
        expected = (1.0 + math.exp(-x * x / t)) / math.sqrt(4 * math.pi * t)
        assert kernel_1d(half, t, x, x) == pytest.approx(expected, rel=1e-13)


def test_dirichlet_vanishes_at_wall():
    half = Domain1D.half_line_dirichlet()
    assert kernel_1d(half, 0.3, 0.0, 1.0) == pytest.approx(0.0, abs=1e-15)


def test_points_outside_domain_rejected():
    with pytest.raises(ValueError):
        kernel_1d(Domain1D.half_line_neumann(), 1.0, -0.5, 0.2)
    with pytest.raises(ValueError):
        kernel_1d(Domain1D.interval_neumann(1.0), 1.0, 0.5, 1.5)
    with pytest.raises(ValueError):
        kernel_1d(Domain1D.line(), 0.0, 0.0, 0.0)


def test_circle_diagonal_integral_matches_spectral_series():
    # integrating the diagonal over the circle gives the eigenvalue series
    for L in (1.0, 2 * math.pi):
        circ = Domain1D.circle(L)
        for t in (0.05, 0.4, 2.0):
            val, _ = quad(lambda x: kernel_1d(circ, t, x, x), 0.0, L,
                          limit=200, epsabs=1e-13)
            assert val == pytest.approx(circle_heat_trace(L, t), abs=1e-10)


def test_symmetry_all_domains():
    rng = np.random.default_rng(5)
    domains = [Domain1D.line(), Domain1D.half_line_neumann(),
               Domain1D.half_line_dirichlet(), Domain1D.interval_neumann(1.5),
               Domain1D.circle(2.0)]
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
    interval = Domain1D.interval_neumann(1.0)
    circle = Domain1D.circle(1.0)
    for dom, hi in ((interval, 1.0), (circle, 1.0)):
        for (s, t, x, y) in ((0.1, 0.2, 0.3, 0.8), (0.05, 0.5, 0.0, 0.9)):
            conv, _ = quad(lambda z: kernel_1d(dom, s, x, z) * kernel_1d(dom, t, z, y),
                           0.0, hi, limit=300, epsabs=1e-12)
            assert conv == pytest.approx(kernel_1d(dom, s + t, x, y), abs=1e-8)


def test_mass_conservation_and_dirichlet_loss():
    assert kernel_mass(Domain1D.line(), 0.7, 0.3) == pytest.approx(1.0, abs=1e-8)
    assert kernel_mass(Domain1D.half_line_neumann(), 0.7, 0.9) == pytest.approx(
        1.0, abs=1e-8)
    assert kernel_mass(Domain1D.interval_neumann(2.0), 0.7, 1.1) == pytest.approx(
        1.0, abs=1e-8)
    assert kernel_mass(Domain1D.circle(2.0), 0.7, 1.1) == pytest.approx(1.0, abs=1e-8)
    lost = kernel_mass(Domain1D.half_line_dirichlet(), 0.7, 0.9)
    assert lost < 1.0 - 1e-4


def test_boundary_insensitivity_halfline_in_line():
    rep = boundary_insensitivity_check(Domain1D.half_line_neumann(), Domain1D.line())
    assert not rep.closed_form_violations
    assert rep.monotone_in_cutoff
    # the image-term identity makes c2 = 1 feasible on every grid
    assert 1.0 in rep.fitted_c1
    assert all(v < math.inf for v in rep.fitted_c1[1.0].values())
    assert rep.probes >= 64 * 33


def test_boundary_insensitivity_decay_constant_strictness():
    rep = boundary_insensitivity_check(Domain1D.half_line_neumann(), Domain1D.line())
    per_k = rep.fitted_c1[4.0]
    ks = sorted(per_k)
    assert per_k[ks[-1]] < per_k[ks[0]]  # strictly smaller at larger cutoffs


def test_boundary_insensitivity_interval_in_halfline():
    rep = boundary_insensitivity_check(Domain1D.interval_neumann(3.0),
                                       Domain1D.half_line_neumann(),
                                       K_values=(0.5, 1.0, 2.0))
    assert rep.monotone_in_cutoff
    assert rep.fitted_c1[4.0][2.0] <= rep.fitted_c1[4.0][0.5]


def test_boundary_insensitivity_same_domain_trivial():
    # the default points span [0, L) on a circle: the kernel refuses x >= L
    rep = boundary_insensitivity_check(Domain1D.circle(1.0), Domain1D.circle(1.0))
    assert all(v == 0.0 for per_k in rep.fitted_c1.values() for v in per_k.values())
    assert rep.probes == 64 * 33


def test_sup_bound_line():
    out = sup_bound_check(Domain1D.line(), 1.0)
    assert out["sup"] == pytest.approx(1.0 / math.sqrt(4 * math.pi), rel=1e-12)
    assert out["attained_on_initial_diagonal"]


def test_sup_bound_half_line_neumann():
    out = sup_bound_check(Domain1D.half_line_neumann(), 1.0)
    assert out["sup"] == pytest.approx(2.0 / math.sqrt(4 * math.pi), rel=1e-12)
    assert out["argmax"][1] == 0.0 and out["argmax"][2] == 0.0


def test_sup_bound_circle_finite():
    out = sup_bound_check(Domain1D.circle(2 * math.pi), 1.0)
    series = circle_heat_trace(2 * math.pi, 1.0) / (2 * math.pi)
    assert out["sup"] == pytest.approx(series, rel=1e-10)
    assert out["attained_on_initial_diagonal"]
