"""Boundary metric-anomaly coefficients for conformal families.

A two-parameter conformal factor f(x, u) (x the inward normal coordinate,
u the family parameter) scales a flat product metric near the boundary at
x = 0; the variation operator of the Hodge star acts on each form degree by
a multiple of (d_u f)/f.  For families stationary at the boundary the
t^0 boundary coefficient of the variation trace reduces to second-order
normal derivatives of that multiple contracted against fixed tables of
boundary-condition traces, and the alternating sum across degrees survives
only through the mean-curvature term.

Derivatives are carried by a tiny forward-mode jet algebra (x to second
order, u to first), so no symbolic engine is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .inputs import check_range

__all__ = [
    "Jet",
    "ConformalFamily",
    "hodge_star_conformal",
    "v_operator",
    "mean_curvature",
    "anomaly_coefficients",
    "AnomalyCoefficients",
    "product_lift",
    "PRESET_FAMILIES",
]

# star coefficient is f^STAR_POWER[dim][q] on degree q forms; the star
# variation acts on degree p by STAR_POWER[dim][dim - p] times (d_u f)/f
STAR_POWER = {2: (1, 0, -1), 3: (3, 1, -1, -3)}
# traces of the boundary-condition projections per degree (dim 3)
PSI_N = (1, 2, 1, 0)
PSI_D = (0, 1, 2, 1)
# dim 2: degree 0 is Neumann, degree 2 Dirichlet; the middle degree carries
# one of each, recorded as 0 (its variation multiple vanishes anyway)
PSI_2 = (1, 0, -1)
_X_PROBES = (0.0, 0.25, 0.5, 0.9)  # ConformalFamily.validate's positivity probes


class Jet:
    """Truncated bivariate Taylor value: x-order <= 2, u-order <= 1.

    coeffs[i, j] multiplies x^i u^j around the expansion point.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs):
        self.c = np.asarray(coeffs, dtype=float).reshape(3, 2)

    @staticmethod
    def const(v: float) -> "Jet":
        c = np.zeros((3, 2))
        c[0, 0] = v
        return Jet(c)

    @staticmethod
    def var_x(x0: float) -> "Jet":
        c = np.zeros((3, 2))
        c[0, 0] = x0
        c[1, 0] = 1.0
        return Jet(c)

    @staticmethod
    def var_u(u0: float) -> "Jet":
        c = np.zeros((3, 2))
        c[0, 0] = u0
        c[0, 1] = 1.0
        return Jet(c)

    @staticmethod
    def lift(v) -> "Jet":
        return v if isinstance(v, Jet) else Jet.const(float(v))

    # -- ring operations -------------------------------------------------------------

    def __add__(self, other):
        return Jet(self.c + Jet.lift(other).c)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.c)

    def __sub__(self, other):
        return Jet(self.c - Jet.lift(other).c)

    def __rsub__(self, other):
        return Jet(Jet.lift(other).c - self.c)

    def __mul__(self, other):
        o = Jet.lift(other).c
        s = self.c
        out = np.zeros((3, 2))
        for i1 in range(3):
            for j1 in range(2):
                v = s[i1, j1]
                if v == 0.0:
                    continue
                for i2 in range(3 - i1):
                    for j2 in range(2 - j1):
                        w = o[i2, j2]
                        if w != 0.0:  # a structural zero times an overflow is 0, not NaN
                            out[i1 + i2, j1 + j2] += v * w
        return Jet(out)

    __rmul__ = __mul__

    def _nilpotent_series(self, coeffs: list[float]) -> "Jet":
        """sum coeffs[k] * e^k for the nilpotent part e = self - value."""
        e = self - self.value
        acc = Jet.const(coeffs[0])
        power = Jet.const(1.0)
        for ck in coeffs[1:]:
            power = power * e
            acc = acc + ck * power
        return acc

    def reciprocal(self) -> "Jet":
        v = self.value
        if v == 0.0:
            raise ZeroDivisionError("jet with zero value part")
        scaled = Jet(self.c / v)
        return Jet(scaled._nilpotent_series([1.0, -1.0, 1.0, -1.0]).c / v)

    def __truediv__(self, other):
        return self * Jet.lift(other).reciprocal()

    def __rtruediv__(self, other):
        return Jet.lift(other) * self.reciprocal()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("jet powers must be integers")
        if n < 0:
            return self.reciprocal() ** (-n)
        out = Jet.const(1.0)
        for _ in range(n):
            out = out * self
        return out

    def exp(self) -> "Jet":
        base = math.exp(self.value)
        return Jet(base * self._nilpotent_series([1.0, 1.0, 0.5, 1.0 / 6.0]).c)

    def log(self) -> "Jet":
        v = self.value
        if v <= 0.0:
            raise ValueError("jet log needs a positive value part")
        scaled = Jet(self.c / v)
        out = scaled._nilpotent_series([0.0, 1.0, -0.5, 1.0 / 3.0])
        return out + math.log(v)

    def sqrt(self) -> "Jet":
        return (0.5 * self.log()).exp()

    # -- extraction ------------------------------------------------------------------

    @property
    def value(self) -> float:
        return float(self.c[0, 0])

    @property
    def d_x(self) -> float:
        return float(self.c[1, 0])

    @property
    def d_u(self) -> float:
        return float(self.c[0, 1])


@dataclass(frozen=True)
class ConformalFamily:
    """Conformal factor f(x, u) > 0 driving a boundary metric family.

    dim selects the convention: in dimension 2 the metric is f (dx^2+dy^2),
    in dimension 3 it is f^2 (dx^2+dy^2+dz^2).  The family must be
    stationary at the boundary (d_u f(0, u) = 0), which is what collapses
    the general boundary coefficient to the reduced formula used here.
    cross_section_volume scales every boundary integral linearly (the flat
    cross-sections are unit-volume circles and tori by default).
    """

    dim: int
    f: Callable[[Jet, Jet], Jet]
    name: str = ""
    cross_section_volume: float = 1.0

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError("only dimensions 2 and 3 are supported")
        check_range("cross_section_volume", self.cross_section_volume, 0, math.inf)

    def jet(self, x: float, u: float) -> Jet:
        check_range("x", x, -math.inf, math.inf)
        check_range("u", u, -math.inf, math.inf)
        out = self.f(Jet.var_x(x), Jet.var_u(u))
        return Jet.lift(out)

    def validate(self, u: float) -> None:
        for x in _X_PROBES:
            jet = self.jet(x, u)
            if not jet.value > 0:
                raise ValueError(f"conformal factor not positive at {(x, u)}")
        if abs(self.jet(0.0, u).d_u) > 1e-12:
            raise ValueError(
                "family is not stationary at the boundary (d_u f(0, u) != 0); "
                "the reduced boundary formula does not apply")

    def variation_multiple(self, u: float) -> np.ndarray:
        """x-series (orders 0..2) of (d_u f)/f at the boundary: the u-column
        of log f, since d_u log f = (d_u f)/f.  The log squares f's
        x-coefficients relative to f(0, u); an overflow in the pure-x column
        stays there, but one that reaches the u-column (past u ≈ 9e307 for
        the presets) refuses the multiple."""
        jet = self.jet(0.0, u)
        with np.errstate(over="ignore", invalid="ignore"):
            series = jet.log().c[:, 1].copy()
        if not np.isfinite(series).all():
            raise ValueError(f"the variation multiple overflows a double at u = {u}")
        return series


PRESET_FAMILIES = {
    2: ConformalFamily(2, lambda x, u: 1 + u * x, name="linear-tilt-2d"),
    3: ConformalFamily(3, lambda x, u: 1 + x + u * x, name="linear-tilt-3d"),
}

def hodge_star_conformal(family: ConformalFamily, p: int, point) -> list[dict]:
    """Star action on the degree-p basis forms at (x, u).

    Returns one row per basis form with the image form and its coefficient;
    in these conformal families the coefficient is a power of f times a
    sign, constant across each degree except for orientation signs in the
    middle degree of dimension 2.
    """
    check_range("p", p, 0, family.dim, "[]", integer=True)
    x, u = point
    fval = family.jet(x, u).value
    if family.dim == 2:
        tables = {
            0: [("1", "dx^dy", fval)],
            1: [("dx", "dy", 1.0), ("dy", "dx", -1.0)],
            2: [("dx^dy", "1", 1.0 / fval)],
        }
    else:
        tables = {
            0: [("1", "dx^dy^dz", fval ** 3)],
            1: [("dx", "dy^dz", fval), ("dy", "dz^dx", fval), ("dz", "dx^dy", fval)],
            2: [("dy^dz", "dx", 1.0 / fval), ("dz^dx", "dy", 1.0 / fval),
                ("dx^dy", "dz", 1.0 / fval)],
            3: [("dx^dy^dz", "1", fval ** -3)],
        }
    return [{"form": a, "image": b, "coefficient": c} for a, b, c in tables[p]]


def v_operator(family: ConformalFamily, p: int, point) -> float:
    """Scalar by which the star variation acts on degree-p forms at (x, u).

    The operator is (d_u star) composed with the star inverse, and the star
    on the complementary degree is f^k with k = STAR_POWER[dim][dim - p], so
    it is k (d_u f)/f.
    """
    m = family.dim
    check_range("p", p, 0, m, "[]", integer=True)
    x, u = point
    jet = family.jet(x, u)
    return STAR_POWER[m][m - p] * (jet.d_u / jet.value)


def mean_curvature(family: ConformalFamily, u: float) -> float:
    """Boundary mean curvature in the unnormalized coordinate frame.

    Convention: the normal derivative of f^2 at x = 0 (the trace of the
    second fundamental form against the coordinate, not unit-normalized,
    frame); dimension 3 only, where the curvature term survives.
    """
    if family.dim != 3:
        raise ValueError("mean curvature term is used in dimension 3 only")
    jet = family.jet(0.0, u)
    return check_range("mean curvature 2 f d_x f", 2.0 * jet.value * jet.d_x, -math.inf, math.inf)


@dataclass
class AnomalyCoefficients:
    """Per-degree boundary coefficients and their alternating sum."""

    d_per_degree: list[float]
    alternating_sum: float
    psi_tables: dict
    diagnostics: dict = field(default_factory=dict)


def anomaly_coefficients(family: ConformalFamily, u: float) -> AnomalyCoefficients:
    """Boundary t^0 coefficients d_p of the star-variation trace at u.

    Valid only for boundary-stationary families (checked): the variation
    multiple vanishes at x = 0, so all terms proportional to it drop and
    the reduced formulas below are exact.  The boundary integral is the
    coefficient times the flat cross-section volume.
    """
    family.validate(u)
    vol = family.cross_section_volume
    series = family.variation_multiple(u)
    r1, r2 = float(series[1]), 2.0 * float(series[2])
    m = family.dim
    w = STAR_POWER[m][::-1]
    if m == 2:
        d = [vol * PSI_2[p] * w[p] * r1 / (8.0 * math.pi) for p in range(3)]
        alternating = sum((-1) ** p * d[p] for p in range(3))
        return AnomalyCoefficients(
            d, alternating, {"psi": PSI_2},
            diagnostics={"normal_derivative": r1})
    k = mean_curvature(family, u)
    S = (0.0, -k, -k, 0.0)
    d = []
    second_alt = 0.0
    curvature_alt = 0.0
    for p in range(4):
        second = 4.0 * (PSI_N[p] - PSI_D[p]) * w[p] * r2
        curved = w[p] * r1 * ((PSI_N[p] + 5.0 * PSI_D[p]) * k + 16.0 * S[p])
        d.append(vol * (second + curved) / (256.0 * math.pi))
        second_alt += (-1) ** p * second / (256.0 * math.pi)
        curvature_alt += (-1) ** p * w[p] * r1 * (PSI_N[p] + 5.0 * PSI_D[p]) * k \
            / (256.0 * math.pi)
    alternating = sum((-1) ** p * d[p] for p in range(4))
    return AnomalyCoefficients(
        d, alternating,
        {"psi": tuple(PSI_N[p] - PSI_D[p] for p in range(4)), "psi_N": PSI_N, "psi_D": PSI_D},
        diagnostics={
            "mean_curvature": k,
            "normal_derivative": r1,
            "second_normal_derivative": r2,
            "second_derivative_alternating_term": second_alt,
            "curvature_psi_alternating_term": curvature_alt,
        })


def product_lift(base_sum: float) -> float:
    """Anomaly after crossing with an even sphere: the Euler factor 2."""
    return check_range("2 base_sum", 2.0 * base_sum, -math.inf, math.inf)
