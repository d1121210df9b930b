"""Finite-dimensional traced inner-product spaces and maps between them.

A TracedSpace is R^n with a positive-definite gram form and a scalar trace
normalization; its normalized dimension is normalization * n.  A TracedMap
is a linear map between two such spaces.  Singular values, operator norms
and adjoints are always taken with respect to the gram forms, so a space
with a non-identity gram behaves exactly like an abstract inner-product
space expressed in a skew basis.

Maps are validated once.  The public TracedMap constructor checks the shape
and finiteness of the coordinate matrix it is given.  Derived maps
(compositions, adjoints, zero and identity maps, restricted differentials,
Laplacians, connecting and block maps) are born whitened: they keep the
matrix between orthonormal coordinates, refuse one that is not finite (an
overflow in their making) and compute coordinates only when read.  Every
singular value, rank, norm, kernel and image goes through `whitened`, and
each map is decomposed and ranked once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .config import RANK_RTOL, ZERO_SV_ATOL
from .inputs import check_range

__all__ = ["TracedSpace", "TracedMap", "check_spaces", "nonzero_mask", "same_space"]


def nonzero_mask(sv: np.ndarray) -> np.ndarray:
    """The rank rule, behind every rank, kernel and image decision: the
    singular values sv (in any order) that exceed both RANK_RTOL times the
    largest and ZERO_SV_ATOL count as nonzero.  A NaN or infinite value is
    refused: it would turn the threshold into NaN and every value into a zero."""
    top = sv.max(initial=0.0)
    if not top < np.inf:
        raise ValueError("singular values must be finite")
    return sv > max(RANK_RTOL * top, ZERO_SV_ATOL)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=64)  # bounded: a kept identity outlives the spaces that use it
def _identity(dim: int) -> np.ndarray:
    """The dim x dim identity shared by the identity-gram spaces of that
    dimension, hence read-only."""
    return _read_only(np.eye(dim))


@lru_cache(maxsize=64)  # bounded, as _identity: a kept space outlives the maps that use it
def _orthonormal_space(dim: int, normalization: float) -> "TracedSpace":
    """The identity-gram space shared by restricted differentials, connecting and block maps."""
    return TracedSpace(dim, normalization)


def _finite(whitened: np.ndarray) -> np.ndarray:
    if not np.isfinite(whitened).all():
        raise ValueError("the map overflows a double in whitened coordinates")
    return whitened


def same_space(a: "TracedSpace", b: "TracedSpace") -> bool:
    """Whether a and b are one space (the same object, or equal dim, normalization
    and gram), as a product of whitened matrices between them needs."""
    return a is b or ((a.dim, a.normalization) == (b.dim, b.normalization)
                      and np.array_equal(a.gram, b.gram))


def check_spaces(name: str, f: "TracedMap", source: "TracedSpace", target: "TracedSpace") -> None:
    """Refuse a map whose source or target is not the given space."""
    for end, have, want in (("source", f.source, source), ("target", f.target, target)):
        if not same_space(have, want):
            raise ValueError(f"{name} has wrong {end}")


@dataclass(frozen=True)
class TracedSpace:
    """R^dim with gram form `gram` and trace normalization `normalization`."""

    dim: int
    normalization: float = 1.0
    gram: np.ndarray | None = None

    def __post_init__(self):
        check_range("dim", self.dim, 0, np.inf, "[)", integer=True)
        object.__setattr__(self, "normalization",
                           check_range("normalization", float(self.normalization), 0, np.inf))
        if self.gram is None:
            # the gram, its Cholesky factor and its inverse are one identity
            eye = _identity(self.dim)
            for name in ("gram", "_chol", "inverse_whitener"):
                object.__setattr__(self, name, eye)
            return
        gram = np.asarray(self.gram, dtype=float)
        if gram.shape != (self.dim, self.dim):
            raise ValueError(f"gram must be {self.dim}x{self.dim}, got {gram.shape}")
        # |g - g^T| <= atol + rtol |g^T| with atol = rtol = 1e-12; NaN and inf fail it
        if not np.all(np.abs(gram - gram.T) <= 1e-12 + 1e-12 * np.abs(gram.T)):
            raise ValueError("gram form must be symmetric")
        gram = 0.5 * (gram + gram.T)
        # Cholesky factor L with gram = L L^T; whitening map is L^T.  The
        # factorization exists exactly when the form is positive definite.
        try:
            chol = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            raise ValueError("gram form must be positive definite") from None
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "_chol", chol)

    @property
    def normalized_dim(self) -> float:
        return self.normalization * self.dim

    @property
    def whitener(self) -> np.ndarray:
        """Matrix W with <u, v>_gram = (W u) . (W v); here W = L^T."""
        return self._chol.T

    @cached_property
    def inverse_whitener(self) -> np.ndarray:
        """W^{-1}, computed once per space and shared, hence read-only; an
        identity-gram space holds the shared identity from construction."""
        return _read_only(np.linalg.inv(self.whitener))

    def inner(self, u, v) -> float:
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        return float(u @ self.gram @ v)

    def orthonormal_basis(self) -> np.ndarray:
        """Columns form a gram-orthonormal basis (inverse whitener)."""
        return self.inverse_whitener.copy()


class TracedMap:
    """Linear map between traced spaces: a coordinate matrix, or for a
    derived map the matrix between whitened coordinates."""

    # per-map caches, set on first use
    _coefficients = _whitened = _svals = _svd = _rank = None

    def __init__(self, source: TracedSpace, target: TracedSpace, coefficients):
        coeff = np.asarray(coefficients, dtype=float)
        if coeff.shape != (target.dim, source.dim):
            raise ValueError(f"coefficient matrix must be {target.dim}x{source.dim}, "
                             f"got {coeff.shape}")
        if not np.isfinite(coeff).all():
            raise ValueError("coefficients must be finite")
        self.source, self.target, self._coefficients = source, target, coeff

    @classmethod
    def _derived(cls, source: TracedSpace, target: TracedSpace,
                 whitened: np.ndarray) -> "TracedMap":
        """A map derived from valid ones, born whitened: a float matrix of the
        right shape by construction, so __init__'s checks are skipped; one
        that is not finite (an overflow in its making) is refused."""
        f = object.__new__(cls)
        f.source, f.target, f._whitened = source, target, _finite(whitened)
        return f

    @property
    def coefficients(self) -> np.ndarray:
        """The matrix in the spaces' coordinates; a derived map computes it
        from its whitened matrix on first read."""
        if self._coefficients is None:
            self._coefficients = (self.target.inverse_whitener @ self._whitened
                                  @ self.source.whitener)
        return self._coefficients

    # -- gram-aware linear algebra -------------------------------------------------

    @property
    def whitened(self) -> np.ndarray:
        """Matrix of the map between the whitened (orthonormal) coordinates;
        one that is not finite (an overflowed whitening) is refused."""
        if self._whitened is None:
            self._whitened = _finite(self.target.whitener @ self._coefficients
                                     @ self.source.inverse_whitener)
        return self._whitened

    def singular_values(self) -> np.ndarray:
        """Generalized singular values w.r.t. the gram forms, descending; read
        from the full decomposition when the map has one."""
        if self._svals is None:
            full = self._svd is not None or not min(self.source.dim, self.target.dim)
            sv = self._full_svd()[1] if full else np.linalg.svd(self.whitened, compute_uv=False)
            pad = self.source.dim - sv.size
            self._svals = np.concatenate([sv, np.zeros(pad)]) if pad else sv
        return self._svals

    def _full_svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """u, s, vt of `whitened` with square u and vt, computed once per map
        and shared, hence read-only.  The bases below cut it at rank(), so the
        rank rule decides them as it decides rank(); a map from or to a zero
        space has identities for u and vt."""
        if self._svd is None:
            m, n = self.whitened.shape
            if min(m, n) == 0:
                self._svd = (_identity(m), _read_only(np.zeros(0)), _identity(n))
            else:
                self._svd = tuple(_read_only(a) for a in
                                  np.linalg.svd(self.whitened, full_matrices=True))
        return self._svd

    def kernel_basis(self) -> np.ndarray:
        """Orthonormal kernel basis (columns), in whitened source coordinates."""
        return self._full_svd()[2][self.rank():].T

    def image_basis(self) -> np.ndarray:
        """Orthonormal image basis (columns), in whitened target coordinates."""
        return self._full_svd()[0][:, :self.rank()]

    def _pinv(self, rhs: np.ndarray) -> np.ndarray:
        """The pseudoinverse of `whitened`, cut at rank(), applied to rhs
        (columns, in whitened target coordinates)."""
        u, s, vt = self._full_svd()
        r = self.rank()
        return vt[:r].T @ ((1.0 / s[:r])[:, None] * (u[:, :r].T @ rhs))

    def least_norm_solve(self, rhs: np.ndarray) -> np.ndarray:
        """The x of least gram norm with f x = rhs (columns, in coordinates);
        for rhs outside the image, f x is the gram-orthogonal projection of
        rhs onto the image."""
        return self.source.inverse_whitener @ self._pinv(self.target.whitener @ rhs)

    def clamped_singular_values(self) -> np.ndarray:
        sv = self.singular_values().copy()
        sv[self.rank():] = 0.0
        return sv

    @property
    def norm(self) -> float:
        sv = self.singular_values()
        return float(sv[0]) if sv.size else 0.0

    def rank(self) -> int:
        """The rank rule applied once per map; since the singular values
        descend, the ones it keeps are the first rank() of them."""
        if self._rank is None:
            self._rank = int(np.count_nonzero(nonzero_mask(self.singular_values())))
        return self._rank

    def kernel_dim(self) -> int:
        return self.source.dim - self.rank()

    def is_injective(self) -> bool:
        return self.rank() == self.source.dim

    def is_surjective(self) -> bool:
        return self.rank() == self.target.dim

    def min_nonzero_singular_value(self) -> float:
        if self.rank() == 0:
            raise ValueError("map has no nonzero singular values")
        return float(self.singular_values()[self.rank() - 1])

    @property
    def inverse_norm(self) -> float:
        """Norm of the inverse taken image -> kernel-complement.

        Convention: reciprocal of the smallest nonzero singular value; the
        zero map has no inverse in this sense.
        """
        return 1.0 / self.min_nonzero_singular_value()

    def adjoint(self) -> "TracedMap":
        """f* with <f u, v>_target = <u, f* v>_source: the transpose in
        whitened coordinates."""
        return TracedMap._derived(self.target, self.source, self.whitened.T)

    # -- composition helpers -------------------------------------------------------

    def compose(self, other: "TracedMap") -> "TracedMap":
        """self ∘ other (apply `other` first), refused unless other's target
        is self's source."""
        if not same_space(other.target, self.source):
            raise ValueError("composition through different spaces")
        return TracedMap._derived(other.source, self.target, self.whitened @ other.whitened)

    def __matmul__(self, other: "TracedMap") -> "TracedMap":
        return self.compose(other)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return self.coefficients @ np.asarray(vec, dtype=float)

    @staticmethod
    def identity(space: TracedSpace) -> "TracedMap":
        return TracedMap._exact(space, space, np.eye(space.dim))

    @staticmethod
    def zero(source: TracedSpace, target: TracedSpace) -> "TracedMap":
        return TracedMap._exact(source, target, np.zeros((target.dim, source.dim)))

    @staticmethod
    def _exact(source: TracedSpace, target: TracedSpace, matrix: np.ndarray) -> "TracedMap":
        """A zero or identity map: one matrix in all coordinates, read-only."""
        f = TracedMap._derived(source, target, _read_only(matrix))
        f._coefficients = matrix
        return f

    def __repr__(self) -> str:  # pragma: no cover
        return f"TracedMap({self.source.dim}->{self.target.dim}, norm={self.norm:.4g})"
