"""Explicit spectra with weights, their heat traces, and circle heat traces.

A Spectrum is a finite weighted eigenvalue list; the weight of an eigenvalue
is its multiplicity times the trace normalization.  Its heat trace lives
here, together with the circle heat trace, summed in whichever of its
eigenvalue and dual-series forms converges faster, and the circle trace's
numerically stable residual.  A finite spectrum's residual is summed by
its heat-trace model (HeatTraceModel.from_spectrum).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .inputs import check_range
from .sdf import SpectralDensityFunction

__all__ = [
    "Spectrum",
    "circle_heat_trace",
]

_TINY = float(np.finfo(float).smallest_subnormal)  # bounds a term lost to underflow


@dataclass(frozen=True)
class Spectrum:
    """Sorted nonnegative eigenvalues with positive weights."""

    eigenvalues: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        eig = np.asarray(self.eigenvalues, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if eig.shape != w.shape or eig.ndim != 1:
            raise ValueError("eigenvalues and weights must be 1-d of equal length")
        if eig.size:
            if eig.min() < 0 or not np.all(np.isfinite(eig)):
                raise ValueError("eigenvalues must be finite and nonnegative")
            if w.min() <= 0 or not np.all(np.isfinite(w)):
                raise ValueError("weights must be finite and positive")
        order = np.argsort(eig, kind="stable")
        object.__setattr__(self, "eigenvalues", eig[order])
        object.__setattr__(self, "weights", w[order])

    @staticmethod
    def from_pairs(pairs) -> "Spectrum":
        pairs = list(pairs)
        if not pairs:
            return Spectrum(np.zeros(0), np.zeros(0))
        eig, w = zip(*pairs)
        return Spectrum(np.asarray(eig, dtype=float), np.asarray(w, dtype=float))

    def positive_part(self) -> "Spectrum":
        """The spectrum without its zero modes: itself when it has none.
        A part of a checked and sorted spectrum is checked and sorted, so
        the constructor's checks are skipped."""
        mask = self.eigenvalues > 0
        if mask.all():
            return self
        part = object.__new__(Spectrum)
        object.__setattr__(part, "eigenvalues", self.eigenvalues[mask])
        object.__setattr__(part, "weights", self.weights[mask])
        return part

    def heat_trace(self, t: float, include_kernel: bool = False) -> float:
        check_range("t", t, 0, math.inf)
        mask = slice(None) if include_kernel else self.eigenvalues > 0
        with np.errstate(over="ignore"):  # t lam overflows only where its term is 0
            return float(np.sum(self.weights[mask] * np.exp(-t * self.eigenvalues[mask])))

    def heat_trace_rounding_bound(self, t: float, include_kernel: bool = False) -> float:
        """Bound on the floating-point error of heat_trace(t): each term
        w e^{-t lam} is good to 2 + t lam ulps (the rounding of t lam is
        amplified by the exponential), and the sum of n terms adds at most
        n - 1 more.  A term that underflows below the normal range loses
        up to w + 1 smallest subnormals more: w in the exponential, one in
        the product; adding subnormals is exact."""
        check_range("t", t, 0, math.inf)
        mask = slice(None) if include_kernel else self.eigenvalues > 0
        lam = self.eigenvalues[mask]
        eps = float(np.finfo(float).eps)
        # t lam overflows only where its term has underflowed to 0
        with np.errstate(over="ignore"):
            terms = self.weights[mask] * np.exp(-t * lam)
            return float(eps * np.sum(terms * (terms.size + 2.0 + np.minimum(t * lam, 1e308)))
                         + _TINY * np.sum(self.weights[mask] + 1.0))

    def counting_function(self, include_kernel: bool = False) -> SpectralDensityFunction:
        """Step function lambda -> weighted count of eigenvalues <= lambda."""
        mask = slice(None) if include_kernel else self.eigenvalues > 0
        return SpectralDensityFunction.from_jumps(self.eigenvalues[mask], self.weights[mask])


# -k^2 for k = 1..64: the dual series is summed to k = 64
_DUAL_EXPONENTS = -np.arange(1, 65, dtype=float) ** 2


def _theta_dual_sum(L: float, t: float) -> float:
    """sum over k >= 1 of 2 exp(-k^2 L^2 / 4t).

    Each exponent is -(k^2 L) L / 4t.  Where that overflows a double, as it
    can for L near 1e154 or t near 5e-324, the exponent is taken as
    -k^2 ((L / 4t) L) instead, which overflows only where the term is 0."""
    with np.errstate(over="ignore"):
        exponent = _DUAL_EXPONENTS * L * L / (4.0 * t)
        over = np.isinf(exponent)
        exponent[over] = _DUAL_EXPONENTS[over] * (L / (4.0 * t) * L)
    return float(2.0 * np.sum(np.exp(exponent)))


def circle_heat_trace(circumference: float, t: float, include_zero: bool = True) -> float:
    """Full heat trace of the circle Laplacian, switching between the
    eigenvalue series and the image (dual) series at t = L^2 / (4 pi) so the
    faster-converging form is always used.  Without the zero mode the
    eigenvalue series is summed on its own, so small traces keep their
    relative accuracy.  L lies in from_circle's [1e-153, 1e154], and a
    trace beyond a double is refused."""
    check_range("t", t, 0, math.inf)
    L = check_range("circumference", circumference, 1e-153, 1e154, "[]")
    t_star = L * L / (4.0 * math.pi)
    if t < t_star:
        value = L / math.sqrt(4.0 * math.pi * t) * (1.0 + _theta_dual_sum(L, t))
        if not math.isfinite(value):
            raise ValueError(f"circle heat trace overflows a double at t = {t:g}")
        return value if include_zero else value - 1.0
    base = (2.0 * math.pi / L) ** 2
    n_max = int(math.ceil(math.sqrt(40.0 / (base * t)))) + 2
    ns = np.arange(1, n_max + 1, dtype=float)
    nonzero = float(2.0 * np.sum(np.exp(-t * base * ns ** 2)))
    return 1.0 + nonzero if include_zero else nonzero


def circle_trace_residual(circumference: float, t: float) -> float:
    """Kernel-free circle trace minus its expansion L (4 pi t)^{-1/2} - 1,
    exact and stable for all t (the difference is the dual-series tail);
    t and L are held to circle_heat_trace's ranges."""
    check_range("t", t, 0, math.inf)
    L = check_range("circumference", circumference, 1e-153, 1e154, "[]")
    t_star = L * L / (4.0 * math.pi)
    if t < t_star:
        return L / math.sqrt(4.0 * math.pi * t) * _theta_dual_sum(L, t)
    return (circle_heat_trace(L, t, include_zero=False)
            - L / math.sqrt(4.0 * math.pi * t) + 1.0)
