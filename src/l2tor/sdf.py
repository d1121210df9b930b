"""Spectral density functions as exact right-continuous step functions.

The spectral density of a map f counts the generalized singular values of
f that are <= lambda, in units of the source trace normalization.  A step
function holds whole counts and one unit, so values that are equal
multiples of the unit compare exactly, and "<= for all lambda" questions
are decidable on finitely many probes: the value is constant from one
breakpoint to the next, so l2tor.checks decides them at 0 and at the
breakpoints.  The density of a map is built straight from its singular
values, which come sorted.

A function has a dozen breakpoints or so, where a numpy call costs more
than the arithmetic it does: the breakpoints and counts are kept as Python
lists of floats, and the algebra below (argument changes, kernel removal,
sums) is written over them; lams, counts and vals read them as float arrays.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .inputs import check_range
from .traced import TracedMap

__all__ = [
    "SpectralDensityFunction",
    "sdf_of_map",
    "ns_exponent_fit",
    "NsExponentFit",
]

FLAT_ALPHA = 0.05  # fitted exponents at or below it certify no power law
_MOVED = "the argument change merged or overflowed breakpoints"


class SpectralDensityFunction:
    """Nondecreasing right-continuous step function on [0, inf).

    Stored as sorted breakpoint positions, the cumulative count attained at
    (and right of) each breakpoint, both lists of floats, and the unit one
    count is worth; the value is count * unit, and 0 left of the first
    breakpoint.  A derived function may share its lists with the function
    it came from, so they are never changed in place.
    """

    __slots__ = ("_lams", "_counts", "unit")

    def __init__(self, lams, vals):
        """The public form: the values are counted in unit 1."""
        lams = np.asarray(lams, dtype=float)
        vals = np.asarray(vals, dtype=float)
        if lams.shape != vals.shape or lams.ndim != 1:
            raise ValueError("breakpoints and values must be 1-d arrays of equal length")
        # each test is written so that NaN fails it; inf can only sit last
        if lams.size:
            if not (lams[1:] > lams[:-1]).all():
                raise ValueError("breakpoint positions must be strictly increasing")
            if not (lams[0] >= 0 and lams[-1] < np.inf):
                raise ValueError("breakpoints must be finite and nonnegative")
            if not ((vals[1:] >= vals[:-1]).all() and vals[0] >= 0 and vals[-1] < np.inf):
                raise ValueError("values must be finite, nonnegative and nondecreasing")
        self._lams, self._counts, self.unit = lams.tolist(), vals.tolist(), 1.0

    @classmethod
    def _derived(cls, lams: list[float], counts: list[float], unit: float,
                 moved: bool = False) -> "SpectralDensityFunction":
        """A function derived from valid ones, which keeps the invariants by
        construction and so skips __init__'s checks; only the rounding of an
        argument change (moved=True) can merge or overflow breakpoints, and
        its test, each breakpoint below the next and the last below inf, is
        written so that NaN fails it."""
        if moved and not all(map(operator.lt, lams, [*lams[1:], math.inf])):
            raise ValueError(_MOVED)
        F = object.__new__(cls)
        F._lams, F._counts, F.unit = lams, counts, unit
        return F

    @staticmethod
    def from_jumps(positions, counts, unit=1.0) -> "SpectralDensityFunction":
        """From (position, jump count) pairs, one count worth unit; positions may repeat."""
        check_range("unit", unit, 0, np.inf)
        positions = np.asarray(positions, dtype=float)
        counts = np.asarray(counts, dtype=float)
        if positions.shape != counts.shape or positions.ndim != 1:
            raise ValueError("positions and counts must be 1-d arrays of equal length")
        F = SpectralDensityFunction(*_steps(positions, counts))
        F.unit = float(unit)
        return F

    @property
    def lams(self) -> np.ndarray:
        """The breakpoints, as a new float array."""
        return np.array(self._lams, dtype=float)

    @property
    def counts(self) -> np.ndarray:
        """The count at each breakpoint, as a new float array."""
        return np.array(self._counts, dtype=float)

    @property
    def vals(self) -> np.ndarray:
        """The value at each breakpoint, count * unit."""
        return self.counts * self.unit

    # -- evaluation ----------------------------------------------------------------

    def __call__(self, lam: float) -> float:
        """Value at lam, the scalar form of values."""
        return float(self.values(lam))

    def values(self, lams) -> np.ndarray:
        """Values at every point of lams."""
        lams = np.asarray(lams, dtype=float)
        if not self._lams:
            return np.zeros(lams.shape)
        idx = np.searchsorted(self.lams, lams, side="right")
        return np.where(idx == 0, 0.0, self.counts[idx - 1]) * self.unit

    @property
    def max_breakpoint(self) -> float:
        return self._lams[-1] if self._lams else 0.0

    # -- exact step-function algebra, in counts of the same unit -------------------

    def _count_at_zero(self) -> float:
        return self._counts[0] if self._lams and self._lams[0] == 0.0 else 0.0

    def reduced(self) -> "SpectralDensityFunction":
        """Subtract the count at 0 (kernel contribution)."""
        f0 = self._count_at_zero()
        if f0 == 0.0:
            return self
        return self._derived(self._lams[1:], [n - f0 for n in self._counts[1:]], self.unit)

    def scaled_argument(self, c: float) -> "SpectralDensityFunction":
        """Return lambda -> F(c * lambda) for c >= 0; c = 0 gives the
        constant F(0)."""
        if check_range("c", c, 0, np.inf, "[)") == 0:
            return self._derived([], [], self.unit).plus_constant(self._count_at_zero())
        c = float(c)
        # the top breakpoint is the first to overflow; refused before dividing
        if self.max_breakpoint / c == math.inf:
            raise ValueError(f"c = {c} moves the breakpoints past the largest double")
        return self._derived([x / c for x in self._lams], self._counts, self.unit, moved=True)

    def power_argument(self, a: float) -> "SpectralDensityFunction":
        """Return lambda -> F(lambda ** a) for a > 0 (domain lambda >= 0);
        the breakpoints move by libm's pow."""
        check_range("a", a, 0, np.inf)
        e = 1.0 / float(a)
        try:
            lams = [x ** e for x in self._lams]
        except OverflowError:  # Python raises where the power passes the largest double
            raise ValueError(_MOVED) from None
        return self._derived(lams, self._counts, self.unit, moved=True)

    def plus(self, other: "SpectralDensityFunction") -> "SpectralDensityFunction":
        """The sum, on the union of the breakpoints; whole counts add exactly."""
        if other.unit != self.unit:
            raise ValueError(f"cannot add step functions in units {self.unit} and {other.unit}")
        a, b = [0.0, *self._counts], [0.0, *other._counts]
        lams = sorted({*self._lams, *other._lams})
        counts = [a[bisect_right(self._lams, x)] + b[bisect_right(other._lams, x)]
                  for x in lams]
        return self._derived(lams, counts, self.unit)

    def plus_constant(self, c: float) -> "SpectralDensityFunction":
        """Add c >= 0 counts everywhere."""
        if check_range("c", c, 0, np.inf, "[)") == 0:
            return self
        c = float(c)
        counts = [n + c for n in self._counts]
        if self._lams and self._lams[0] == 0.0:
            return self._derived(self._lams, counts, self.unit)
        return self._derived([0.0, *self._lams], [c, *counts], self.unit)

    # -- probing grids ---------------------------------------------------------------

    def probe_points(self) -> np.ndarray:
        """0 and the breakpoints: the function is constant from each to the
        next and past the last.  l2tor.checks merges the points of the
        functions in a relation, decides it at each and counts them as
        probes once per cluster."""
        return np.array([0.0, *self._lams])


def _steps(positions, counts) -> tuple[np.ndarray, np.ndarray]:
    """Distinct sorted positions and the cumulative count at each."""
    positions = np.asarray(positions, dtype=float)
    counts = np.asarray(counts, dtype=float)
    order = np.argsort(positions, kind="stable")
    positions, counts = positions[order], counts[order]
    uniq, idx = np.unique(positions, return_index=True)
    jump = np.add.reduceat(counts, idx) if counts.size else counts
    return uniq, np.cumsum(jump)


def _from_descending(sv: np.ndarray, rank: int, unit: float) -> SpectralDensityFunction:
    """The function counting the values of sv <= lambda, one count worth
    unit, for singular values sv in descending order (as LAPACK returns
    them) of which the first `rank` are kept and the rest clamped to zero;
    equal to from_jumps(clamped sv, ones, unit) in one walk over Python
    floats, without its sort.  A NaN, a negative or infinite value or one
    out of order among those kept is refused."""
    values = sv.tolist()
    n = len(values)
    values[rank:] = [0.0] * (n - rank)
    lams, counts, last = [], [], math.inf
    for k, value in enumerate(values):
        if value != last or not k:  # the first of a run of equal values
            if not 0.0 <= value < last:  # written so that NaN fails it
                raise ValueError("singular values must be finite, nonnegative and descending")
            lams.append(value)
            counts.append(float(n - k))
            last = value
    lams.reverse()
    counts.reverse()
    return SpectralDensityFunction._derived(lams, counts, float(unit))


def sdf_of_map(f: TracedMap) -> SpectralDensityFunction:
    """Spectral density of f: counts generalized singular values <= lambda,
    in units of the source normalization.

    Exact step function; singular values are computed once, and those past
    f.rank() are clamped to zero by the rank rule.
    """
    return _from_descending(f.singular_values(), f.rank(), f.source.normalization)


@dataclass
class NsExponentFit:
    """Power-law fit of a reduced spectral density near zero."""

    alpha: float
    residual: float
    n_points: int
    flag: str  # ok | insufficient-data | spectral-gap | flat-not-certifying


def ns_exponent_fit(F: SpectralDensityFunction, eps: float) -> NsExponentFit:
    """Least-squares slope of log F against log lambda over (0, eps].

    Requires F(0) = 0 (pass a reduced density).  A spectral gap below eps
    yields alpha = +inf; a near-flat density (alpha <= FLAT_ALPHA) is
    flagged as not certifying power-law domination.
    """
    check_range("eps", eps, 0, np.inf, "(]")
    if F(0.0) != 0.0:
        raise ValueError("fit requires a reduced density with F(0) = 0")
    mask = (F.lams > 0) & (F.lams <= eps)
    lams = F.lams[mask]
    vals = F.vals[mask]
    if lams.size == 0:
        return NsExponentFit(math.inf, 0.0, 0, "spectral-gap")
    if lams.size < 3:
        return NsExponentFit(math.nan, math.nan, int(lams.size), "insufficient-data")
    x = np.log(lams)
    y = np.log(vals)
    design = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    alpha = float(coef[0])
    resid = float(np.sqrt(np.mean((design @ coef - y) ** 2)))
    flag = "ok" if alpha > FLAT_ALPHA else "flat-not-certifying"
    return NsExponentFit(alpha, resid, int(lams.size), flag)
