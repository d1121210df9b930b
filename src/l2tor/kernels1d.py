"""Exact one-dimensional heat kernels by the method of images.

Reflection and translation sums of the Gaussian kernel give the heat
kernels of the line, half-lines (reflecting or absorbing), the Neumann
interval and the circle with no discretization error, which makes the
boundary-insensitivity comparison checkable to machine precision: the
difference of two kernels at a point decays like a Gaussian in the distance
to where the domains differ.

A domain is built from its kind, with a length L where the kind takes one:
Domain1D(LINE), Domain1D(HALF_NEUMANN), Domain1D(HALF_DIRICHLET),
Domain1D(INTERVAL_NEUMANN, L) or Domain1D(CIRCLE, L).  One table, _KINDS,
holds what the method of images fixes for each kind.  On the two periodic
kinds, with period P, the kernel from t = P^2 on is its closed form 1/L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .inputs import check_range

__all__ = [
    "Domain1D",
    "kernel_1d",
    "boundary_insensitivity_check",
    "BoundaryReport",
    "sup_bound_check",
]

LINE = "line"
HALF_NEUMANN = "halfLineNeumann"
HALF_DIRICHLET = "halfLineDirichlet"
INTERVAL_NEUMANN = "intervalNeumann"
CIRCLE = "circle"

# images within 12 sqrt(t) + span keep the dropped Gaussian tail below 1e-14
_IMAGE_REACH = 12.0
_CLOSED_FORM_ATOL = 1e-12  # pointwise, for the half-line image-term identity
# probe grids: times, points and decay constants of
# boundary_insensitivity_check, points per axis of sup_bound_check
_BOUNDARY_TIMES = np.geomspace(1e-4, 10.0, 33)
_BOUNDARY_POINTS = 64
_DECAY_CANDIDATES = (1.0, 2.0, 4.0)
_SUP_POINTS = 24


class _Images(NamedTuple):  # what the method of images fixes for a kind
    takes_length: bool
    low: float          # the span runs from low to L, or to inf without L
    closed: str         # the span's brackets, as check_range reads them
    reflections: tuple  # (sign of y, sign of the term) for each image of y
    period: float       # translation period in units of L; 0 for none


_KINDS = {
    LINE: _Images(False, -math.inf, "()", ((-1.0, 1.0),), 0.0),
    HALF_NEUMANN: _Images(False, 0.0, "[)", ((-1.0, 1.0), (1.0, 1.0)), 0.0),
    HALF_DIRICHLET: _Images(False, 0.0, "[)", ((-1.0, 1.0), (1.0, -1.0)), 0.0),
    INTERVAL_NEUMANN: _Images(True, 0.0, "[]", ((-1.0, 1.0), (1.0, 1.0)), 2.0),  # both walls
    CIRCLE: _Images(True, 0.0, "[)", ((-1.0, 1.0),), 1.0),  # fundamental domain
}


@dataclass(frozen=True)
class Domain1D:
    kind: str
    length: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown domain kind {self.kind!r}")
        takes_length = _KINDS[self.kind].takes_length
        if takes_length != (self.length is not None):
            raise ValueError(f"{self.kind} {'needs a' if takes_length else 'takes no'} length")
        if takes_length:
            check_range("length", self.length, 0, math.inf)

    def contains(self, x: float) -> bool:
        images = _KINDS[self.kind]
        high = math.inf if self.length is None else self.length
        try:
            check_range("x", x, images.low, high, images.closed)
        except ValueError:
            return False
        return True


def _gauss(z: float, t: float) -> float:
    # beyond |z| = 55 sqrt(t) the exponent is below -756 and exp gives 0.0;
    # returning it there keeps z * z / (4 t) from overflowing at tiny t
    if abs(z) > 55.0 * math.sqrt(t):
        return 0.0
    return math.exp(-z * z / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)


def kernel_1d(domain: Domain1D, t: float, x: float, y: float) -> float:
    """Heat kernel of the domain at (t, x, y), exact up to tails < 1e-14.

    On the circle and the Neumann interval, whose images repeat with period
    P, the kernel is the constant 1/L from t = P^2 on: by Poisson summation
    its first non-constant mode is then at most 2 exp(-4 pi^2) = 1.4e-17 of
    the value, below half an ulp.  Below P^2 the sum takes at most 15
    translates a side.  A length whose 1/L, or whose image reach
    12 sqrt(t) + |x| + |y| + L, is beyond a double is refused.
    """
    check_range("t", t, 0, math.inf)
    check_range("x", x, -math.inf, math.inf)
    check_range("y", y, -math.inf, math.inf)
    if not domain.contains(x) or not domain.contains(y):
        raise ValueError(f"points ({x}, {y}) outside domain {domain.kind}")
    _, _, _, reflections, period = _KINDS[domain.kind]
    L, n_max = domain.length or 0.0, 0
    P = period * L
    if P:
        if t >= P * P:
            value = sum(sign for _, sign in reflections) / P
            if not math.isfinite(value):
                raise ValueError(f"heat kernel overflows a double at length {L:g}")
            return value
        translates = (_IMAGE_REACH * math.sqrt(t) + abs(x) + abs(y) + L) / P
        if not math.isfinite(translates):
            raise ValueError(f"image reach overflows a double at length {L:g}")
        n_max = int(math.ceil(translates))
    # each translate's reflected terms are summed before they join the total
    acc = 0.0
    for n in range(-n_max, n_max + 1):
        shift = period * n * L
        acc += sum(sign * _gauss(x + y_sign * y + shift, t) for y_sign, sign in reflections)
    return acc


def _distance_to_complement(V: Domain1D, N: Domain1D, x: float) -> float:
    """Distance from x in V to the part of N that V misses."""
    if (V.kind, N.kind) == (HALF_NEUMANN, LINE):
        return x
    if (V.kind, N.kind) == (HALF_DIRICHLET, LINE):
        return x
    if V.kind == INTERVAL_NEUMANN and N.kind == HALF_NEUMANN:
        return V.length - x
    if V.kind == N.kind and V.length == N.length:
        return math.inf
    raise ValueError(f"unsupported pair ({V.kind}, {N.kind})")


def _grid(domain: Domain1D, points: int, start: float) -> np.ndarray:
    """Points from start to L, unless the span is open there, or to start + 4."""
    if domain.length is None:
        return np.linspace(start, start + 4.0, points)
    return np.linspace(start, domain.length, points,
                       endpoint=_KINDS[domain.kind].closed[1] == "]")


@dataclass
class BoundaryReport:
    pair: tuple[str, str]
    fitted_c1: dict            # c2 -> {K: smallest constant valid on the grid}
    best: tuple[float, float]  # (c1, c2) with the smallest fitted constant
    closed_form_violations: list
    monotone_in_cutoff: bool
    rows: list = field(default_factory=list)  # (t, x, diff, bound at best c2)
    probes: int = 0


def boundary_insensitivity_check(V: Domain1D, N: Domain1D,
                                 K_values=(0.25, 0.5, 1.0, 1.5, 2.0)) -> BoundaryReport:
    """Gaussian-decay comparison of the kernels of V and N on the diagonal.

    For every candidate decay constant c2 and cutoff K, the smallest c1 with

        |K_V(t,x,x) - K_N(t,x,x)| <= c1 * exp(-d(x)^2 / (c2 t))

    over all grid points with d(x) >= K is fitted; d(x) is the distance to
    the region where the domains differ, so c1(K) is non-increasing in K by
    construction (the defining sup shrinks).  For the half-line inside the
    line the difference is exactly the image term exp(-x^2/t)/sqrt(4 pi t),
    which is verified pointwise to _CLOSED_FORM_ATOL.  The points x span
    V: [0, L] for the interval, [0, L) for the circle and [0, 4] otherwise.
    The cutoffs K_values must be a nonempty, strictly increasing sequence in
    (0, inf).
    """
    K_values = tuple(check_range("K", K, 0, math.inf) for K in K_values)
    if not K_values or any(b <= a for a, b in zip(K_values, K_values[1:])):
        raise ValueError(f"K_values must be nonempty and increase strictly, got {K_values}")
    xs = _grid(V, _BOUNDARY_POINTS, 0.0)
    pair = (V.kind, N.kind)
    diffs = []
    closed_violations = []
    probes = 0
    for x in xs:
        d = _distance_to_complement(V, N, x)
        for t in _BOUNDARY_TIMES:
            probes += 1
            diff = abs(kernel_1d(V, t, x, x) - kernel_1d(N, t, x, x))
            diffs.append((float(t), float(x), d, diff))
            if pair == (HALF_NEUMANN, LINE):
                pred = math.exp(-x * x / t) / math.sqrt(4.0 * math.pi * t)
                if abs(diff - pred) > _CLOSED_FORM_ATOL:
                    closed_violations.append({"t": float(t), "x": float(x),
                                              "diff": diff, "predicted": pred})
    fitted: dict[float, dict[float, float]] = {}
    for c2 in _DECAY_CANDIDATES:
        per_k = {}
        for K in K_values:
            worst = 0.0
            for t, x, d, diff in diffs:
                if d >= K and math.isfinite(d) and diff > 0.0:
                    # log space: the raw exponential overflows long before
                    # the product does (diff itself decays like a Gaussian)
                    log_term = d * d / (c2 * t) + math.log(diff)
                    if log_term < 700.0:
                        worst = max(worst, math.exp(log_term))
            per_k[K] = worst
        fitted[c2] = per_k
    monotone = all(
        all(per_k[a] >= per_k[b] - 1e-15 for a, b in zip(K_values, K_values[1:]))
        for per_k in fitted.values())
    best_c2 = min(_DECAY_CANDIDATES, key=lambda c2: fitted[c2][K_values[0]])
    best = (fitted[best_c2][K_values[0]], best_c2)
    rows = [(t, x, diff, best[0] * math.exp(-d * d / (best[1] * t)))
            for t, x, d, diff in diffs if math.isfinite(d)]
    return BoundaryReport(pair, fitted, best, closed_violations, monotone,
                          rows, probes)


def sup_bound_check(domain: Domain1D, t0: float) -> dict:
    """Uniform bound for the kernel at times >= t0.

    Returns the grid supremum and asserts it is attained on the diagonal at
    t = t0: the kernel is dominated by its diagonal (Cauchy-Schwarz for the
    semigroup) and the diagonal decreases in time.  The time grid runs to
    10 t0, so t0 is held to (0, 1e306], where 4 pi t stays finite, on every
    kind.
    """
    check_range("t0", t0, 0, 1e306, "(]")
    xs = _grid(domain, _SUP_POINTS, max(_KINDS[domain.kind].low, -2.0))
    ts = np.geomspace(t0, 10.0 * t0, 12)
    sup = 0.0
    arg = None
    for t in ts:
        for x in xs:
            for y in xs:
                val = kernel_1d(domain, t, x, y)
                if val > sup:
                    sup, arg = val, (float(t), float(x), float(y))
    diag_at_t0 = max(kernel_1d(domain, t0, x, x) for x in xs)
    return {
        "sup": sup,
        "argmax": arg,
        "diagonal_max_at_t0": diag_at_t0,
        "attained_on_initial_diagonal": abs(sup - diag_at_t0) <= 1e-12 * sup,
    }
