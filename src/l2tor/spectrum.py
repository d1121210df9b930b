"""Explicit spectra with weights, their heat traces, and circle heat traces.

A Spectrum is a finite weighted eigenvalue list; the weight of an eigenvalue
is its multiplicity times the trace normalization.  Heat traces and the
numerically stable variants needed by the small-time integrals live here,
together with the circle heat trace, summed in whichever of its eigenvalue
and dual-series forms converges faster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sdf import SpectralDensityFunction

__all__ = [
    "Spectrum",
    "circle_heat_trace",
]


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

    @property
    def kernel_weight(self) -> float:
        return float(self.weights[self.eigenvalues == 0.0].sum())

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())

    def positive_part(self) -> "Spectrum":
        mask = self.eigenvalues > 0
        return Spectrum(self.eigenvalues[mask], self.weights[mask])

    @property
    def spectral_gap(self) -> float:
        """Smallest positive eigenvalue; inf for a kernel-only spectrum."""
        pos = self.eigenvalues[self.eigenvalues > 0]
        return float(pos[0]) if pos.size else math.inf

    def heat_trace(self, t: float, include_kernel: bool = False) -> float:
        if t <= 0:
            raise ValueError("time must be positive")
        mask = slice(None) if include_kernel else self.eigenvalues > 0
        return float(np.sum(self.weights[mask] * np.exp(-t * self.eigenvalues[mask])))

    def heat_trace_rounding_bound(self, t: float, include_kernel: bool = False) -> float:
        """Bound on the floating-point error of heat_trace(t): each term
        w e^{-t lam} is good to 2 + t lam ulps (the rounding of t lam is
        amplified by the exponential), and the sum of n terms adds at most
        n - 1 more."""
        if t <= 0:
            raise ValueError("time must be positive")
        mask = slice(None) if include_kernel else self.eigenvalues > 0
        lam = self.eigenvalues[mask]
        terms = self.weights[mask] * np.exp(-t * lam)
        eps = float(np.finfo(float).eps)
        return float(eps * np.sum(terms * (terms.size + 2.0 + t * lam)))

    def heat_trace_residual(self, t: float) -> float:
        """Kernel-free trace minus its t -> 0 limit, without cancellation.

        Equals sum of w (e^{-t lam} - 1) over positive eigenvalues, computed
        through expm1.
        """
        mask = self.eigenvalues > 0
        return float(np.sum(self.weights[mask] * np.expm1(-t * self.eigenvalues[mask])))

    def counting_function(self, include_kernel: bool = False) -> SpectralDensityFunction:
        """Step function lambda -> weighted count of eigenvalues <= lambda."""
        mask = slice(None) if include_kernel else self.eigenvalues > 0
        return SpectralDensityFunction.from_jumps(self.eigenvalues[mask], self.weights[mask])


_DUAL_KS = np.arange(1, 65, dtype=float)  # the dual series is summed to k = 64


def _theta_dual_sum(L: float, t: float) -> float:
    """sum over k >= 1 of 2 exp(-k^2 L^2 / 4t)."""
    return float(2.0 * np.sum(np.exp(-(_DUAL_KS ** 2) * L * L / (4.0 * t))))


def circle_heat_trace(circumference: float, t: float, include_zero: bool = True) -> float:
    """Full heat trace of the circle Laplacian, switching between the
    eigenvalue series and the image (dual) series at t = L^2 / (4 pi) so the
    faster-converging form is always used.  Without the zero mode the
    eigenvalue series is summed on its own, so small traces keep their
    relative accuracy."""
    if t <= 0:
        raise ValueError("time must be positive")
    L = circumference
    t_star = L * L / (4.0 * math.pi)
    if t < t_star:
        value = L / math.sqrt(4.0 * math.pi * t) * (1.0 + _theta_dual_sum(L, t))
        return value if include_zero else value - 1.0
    base = (2.0 * math.pi / L) ** 2
    n_max = int(math.ceil(math.sqrt(40.0 / (base * t)))) + 2
    ns = np.arange(1, n_max + 1, dtype=float)
    nonzero = float(2.0 * np.sum(np.exp(-t * base * ns ** 2)))
    return 1.0 + nonzero if include_zero else nonzero


def circle_heat_trace_residual(circumference: float, t: float) -> float:
    """Kernel-free circle trace minus its expansion L (4 pi t)^{-1/2} - 1,
    exact and stable for all t (the difference is the dual-series tail)."""
    L = circumference
    t_star = L * L / (4.0 * math.pi)
    if t < t_star:
        return L / math.sqrt(4.0 * math.pi * t) * _theta_dual_sum(L, t)
    return (circle_heat_trace(L, t, include_zero=False)
            - L / math.sqrt(4.0 * math.pi * t) + 1.0)
