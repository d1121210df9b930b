"""Constants for the small-time part of zeta-regularized determinants.

Subtracting the divergent expansion terms from a heat trace and integrating
against dt/t leaves, per expansion power t^{-a} with a = (m-i)/2, a constant
equal to d/ds [ (1/Gamma(s)) * 1/(s-a) ] at s = 0.  Since 1/Gamma(s) =
s + gamma s^2 + ..., that constant is exactly -1/a = -2/(m-i), the closed
form `dsmall_constant` uses.  A second candidate circulates, -(m-i)/2; the
two agree only at m-i = 2.  The self-test `resolve_dsmall_constant` decides
between them by a high-precision derivative of the reciprocal-Gamma
product and reports the residual of the losing candidate; it backs the
`cim-constant` criterion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .inputs import check_range

__all__ = [
    "EULER_GAMMA",
    "literal_candidate",
    "reciprocal_candidate",
    "power_constant_oracle",
    "resolve_dsmall_constant",
    "dsmall_constant",
    "CimResolution",
]

EULER_GAMMA = 0.57721566490153286
_ORACLE_DPS = 40  # mpmath working precision of the oracles
_MAX_GAP = 6  # resolve_dsmall_constant checks the power gaps 1..6


def literal_candidate(i: int, m: int) -> float:
    """Constant -(m-i)/2 for i != m."""
    return -(m - i) / 2.0


def reciprocal_candidate(i: int, m: int) -> float:
    """Constant -2/(m-i) for i != m, the reciprocal of the power."""
    return -2.0 / (m - i)


def power_constant_oracle(a: float) -> float:
    """d/ds [ 1/Gamma(s) * 1/(s - a) ] at s = 0 for a > 0, high precision.

    This is the exact contribution of a pure t^{-a} term to the derivative
    at zero of the Mellin-regularized trace; 1/Gamma(s) = s + gamma s^2 + ...
    makes the product vanish at s = 0, so the derivative is finite.
    """
    import mpmath

    check_range("a", a, 0, math.inf)
    with mpmath.workdps(_ORACLE_DPS):
        val = mpmath.diff(lambda s: 1 / mpmath.gamma(s) / (s - a), 0)
        return float(val)


@dataclass
class CimResolution:
    """Outcome of the self-test that checks the expansion-constant candidates."""

    selected: str                      # "reciprocal" or "literal"
    rows: list[dict]                   # per power gap: oracle and residuals
    max_selected_residual: float
    euler_gamma_residual: float


@lru_cache(maxsize=1)
def resolve_dsmall_constant() -> CimResolution:
    """Select the expansion constant by oracle and validate Euler's constant.

    For every power gap m - i in 1.._MAX_GAP the oracle value is compared
    against both closed-form candidates; the convention with the smaller
    worst-case residual wins.  The i = m constant -Gamma'(1) is checked to
    be Euler-Mascheroni by numerical differentiation of Gamma at 1.
    """
    import mpmath

    rows = []
    worst = {"literal": 0.0, "reciprocal": 0.0}
    for gap in range(1, _MAX_GAP + 1):
        a = gap / 2.0
        oracle = power_constant_oracle(a)
        lit = literal_candidate(0, gap)
        rec = reciprocal_candidate(0, gap)
        res_lit = abs(oracle - lit)
        res_rec = abs(oracle - rec)
        worst["literal"] = max(worst["literal"], res_lit)
        worst["reciprocal"] = max(worst["reciprocal"], res_rec)
        rows.append({
            "power_gap": gap,
            "oracle": oracle,
            "literal": lit,
            "literal_residual": res_lit,
            "reciprocal": rec,
            "reciprocal_residual": res_rec,
        })
    selected = "reciprocal" if worst["reciprocal"] <= worst["literal"] else "literal"
    with mpmath.workdps(_ORACLE_DPS):
        gamma_prime = float(mpmath.diff(mpmath.gamma, 1))
    return CimResolution(
        selected=selected,
        rows=rows,
        max_selected_residual=worst[selected],
        euler_gamma_residual=abs(-gamma_prime - EULER_GAMMA),
    )


def dsmall_constant(i: int, m: int) -> float:
    """Expansion constant c(i, m): Euler-Mascheroni at i = m, otherwise
    -2/(m - i) for the power gap m - i."""
    if check_range("i", i, -math.inf, m, "(]") == m:
        return EULER_GAMMA
    return reciprocal_candidate(i, m)
