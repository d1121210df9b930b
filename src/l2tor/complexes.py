"""Finite cochain complexes over traced spaces.

Provides the complex-level spectral density (differential restricted to the
orthogonal complement of the previous image), Laplacians, harmonic spaces,
the connecting map of a short exact triple, and the two sides of the
identity relating the Laplacian's density to the two adjacent complex
densities.
"""

from __future__ import annotations

import numpy as np

from .config import STRUCTURE_ATOL
from .sdf import SpectralDensityFunction, sdf_of_map
from .traced import TracedMap, TracedSpace, _orthonormal_space, check_spaces

__all__ = [
    "FiniteCochainComplex",
    "ShortExactTriple",
    "complex_sdf",
    "laplacian_sdf_decomposition",
    "connecting_map",
]


class FiniteCochainComplex:
    """Graded traced spaces C^0 -> C^1 -> ... with c^{p+1} c^p = 0."""

    def __init__(self, spaces: list[TracedSpace], differentials: list[TracedMap]):
        if len(differentials) != max(len(spaces) - 1, 0):
            raise ValueError("need exactly len(spaces) - 1 differentials")
        for p, d in enumerate(differentials):
            check_spaces(f"differential {p}", d, spaces[p], spaces[p + 1])
        self.spaces = list(spaces)
        self.differentials = list(differentials)
        # by degree; any other key, whatever its type, names a zero space or map
        self._spaces = dict(enumerate(self.spaces))
        self._differentials: dict[int, TracedMap] = dict(enumerate(self.differentials))
        self._zero = TracedSpace(0, spaces[0].normalization if spaces else 1.0)
        self._degrees: dict[int, tuple[np.ndarray, TracedMap]] = {}
        defect = self.square_zero_defect()
        if defect > STRUCTURE_ATOL:
            raise ValueError(f"c∘c is not zero: operator-norm defect {defect}")

    # -- basic structure -------------------------------------------------------------

    @property
    def top_degree(self) -> int:
        return len(self.spaces) - 1

    def space(self, p: int) -> TracedSpace:
        return self._spaces.get(p, self._zero)

    def differential(self, p: int) -> TracedMap:
        if p not in self._differentials:
            self._differentials[p] = TracedMap.zero(self.space(p), self.space(p + 1))
        return self._differentials[p]

    def square_zero_defect(self) -> float:
        worst = 0.0
        for p in range(len(self.differentials) - 1):
            worst = max(worst, (self.differentials[p + 1] @ self.differentials[p]).norm)
        return worst

    # -- gram-aware subspace computations ---------------------------------------------

    def _degree(self, p: int) -> tuple[np.ndarray, TracedMap]:
        """The image-complement basis in whitened coordinates, cut at its rank
        from c^{p-1}'s own decomposition, and the restricted differential of
        degree p, built on first use and kept."""
        if p not in self._degrees:
            prev, d = self.differential(p - 1), self.differential(p)
            basis = prev._full_svd()[0][:, prev.rank():]
            source = _orthonormal_space(basis.shape[1], self.space(p).normalization)
            self._degrees[p] = (basis, TracedMap._derived(source, d.target, d.whitened @ basis))
        return self._degrees[p]

    def image_complement_basis(self, p: int) -> np.ndarray:
        """Gram-orthonormal basis (columns) of (im c^{p-1})^perp inside C^p."""
        return self.space(p).inverse_whitener @ self._degree(p)[0]

    def restricted_differential(self, p: int) -> TracedMap:
        """c^p restricted to (im c^{p-1})^perp, in a gram-orthonormal basis."""
        return self._degree(p)[1]

    def laplacian(self, p: int) -> TracedMap:
        """Delta_p = (c^p)* c^p + c^{p-1} (c^{p-1})* as a map C^p -> C^p."""
        up, down = self.differential(p).whitened, self.differential(p - 1).whitened
        return TracedMap._derived(self.space(p), self.space(p), up.T @ up + down @ down.T)

    def _harmonic(self, p: int) -> np.ndarray:
        """Orthonormal basis of ker(c^p) ∩ (im c^{p-1})^perp in whitened
        coordinates: the image-complement basis times the restricted
        differential's kernel basis (whose source gram is the identity)."""
        basis, restricted = self._degree(p)
        return basis @ restricted.kernel_basis()

    def harmonic_basis(self, p: int) -> np.ndarray:
        """Gram-orthonormal basis of ker(c^p) ∩ (im c^{p-1})^perp."""
        return self.space(p).inverse_whitener @ self._harmonic(p)

    def cohomology_dim(self, p: int) -> int:
        return self.restricted_differential(p).kernel_dim()


def complex_sdf(C: FiniteCochainComplex, p: int) -> SpectralDensityFunction:
    """Spectral density of c^p restricted to the complement of im c^{p-1}.

    Absent degrees are treated as zero spaces.
    """
    return sdf_of_map(C.restricted_differential(p))


def laplacian_sdf_decomposition(C: FiniteCochainComplex, p: int
                                ) -> tuple[SpectralDensityFunction, SpectralDensityFunction]:
    """The two sides of the eigenvalue-count identity for the Laplacian.

    The positive spectrum of Delta_p splits into squares of the nonzero
    restricted-differential singular values in degrees p and p-1, so the
    kernel-subtracted density of Delta_p at lambda (the first side) equals
    the sum of the two reduced complex densities at sqrt(lambda) (the
    second).  The laplacian suite decides the equality with the checker
    that decides basic.6 and block.1.
    """
    lhs = sdf_of_map(C.laplacian(p)).reduced()
    rhs = complex_sdf(C, p).reduced().power_argument(0.5).plus(
        complex_sdf(C, p - 1).reduced().power_argument(0.5)
    )
    return lhs, rhs


class ShortExactTriple:
    """0 -> C -> D -> E -> 0 of finite cochain complexes, degreewise."""

    def __init__(self, C: FiniteCochainComplex, D: FiniteCochainComplex,
                 E: FiniteCochainComplex, j: list[TracedMap], q: list[TracedMap]):
        self.C, self.D, self.E = C, D, E
        self.j, self.q = list(j), list(q)
        for name, maps, source, target in (("j", self.j, C, D), ("q", self.q, D, E)):
            for p, f in enumerate(maps):
                check_spaces(f"{name}_{p}", f, source.space(p), target.space(p))
        # by degree, as in FiniteCochainComplex: any other key names a zero map
        self._j: dict[int, TracedMap] = dict(enumerate(self.j))
        self._q: dict[int, TracedMap] = dict(enumerate(self.q))
        self.validate()

    def j_at(self, p: int) -> TracedMap:
        if p not in self._j:
            self._j[p] = TracedMap.zero(self.C.space(p), self.D.space(p))
        return self._j[p]

    def q_at(self, p: int) -> TracedMap:
        if p not in self._q:
            self._q[p] = TracedMap.zero(self.D.space(p), self.E.space(p))
        return self._q[p]

    def validate(self) -> None:
        top = max(self.C.top_degree, self.D.top_degree, self.E.top_degree)
        for p in range(top + 1):
            jp, qp = self.j_at(p), self.q_at(p)
            if self.C.space(p).dim and not jp.is_injective():
                raise ValueError(f"j_{p} is not injective")
            if self.E.space(p).dim and not qp.is_surjective():
                raise ValueError(f"q_{p} is not surjective")
            if (qp @ jp).norm > STRUCTURE_ATOL * max(1.0, qp.norm * jp.norm):
                raise ValueError(f"q_{p} j_{p} != 0")
            # exactness: rank j_p + rank q_p = dim D^p pins ker q = im j
            if jp.rank() + qp.rank() != self.D.space(p).dim:
                raise ValueError(f"ker q_{p} != im j_{p} (rank defect)")
            # commutation with differentials, in the spaces' coordinates
            for name, at, A, B in (("j", self.j_at, self.C, self.D),
                                   ("q", self.q_at, self.D, self.E)):
                da = B.differential(p).coefficients @ at(p).coefficients
                ad = at(p + 1).coefficients @ A.differential(p).coefficients
                if np.max(np.abs(da - ad), initial=0.0) > STRUCTURE_ATOL:
                    raise ValueError(f"{name} does not commute with d at degree {p}")


def connecting_map(T: ShortExactTriple, p: int) -> TracedMap:
    """Connecting map H^p(E) -> H^{p+1}(C) via harmonic representatives.

    Lift a harmonic p-cocycle of E through q (minimal-norm preimage), apply
    the D differential, pull the resulting ker-q element back through j, and
    project onto the harmonic space of C^{p+1}.  Both cohomology spaces carry
    the subspace inner product induced by their harmonic embeddings.
    """
    h_e, h_c = T.E._harmonic(p), T.C._harmonic(p + 1)
    src = _orthonormal_space(h_e.shape[1], T.E.space(p).normalization)
    tgt = _orthonormal_space(h_c.shape[1], T.C.space(p + 1).normalization)
    if src.dim == 0 or tgt.dim == 0:
        return TracedMap.zero(src, tgt)
    # in whitened coordinates: minimal-norm lift through q, exact pullback by
    # j, coordinates of the harmonic projection in the orthonormal basis
    lifts = T.q_at(p)._pinv(h_e)
    pulled = T.j_at(p + 1)._pinv(T.D.differential(p).whitened @ lifts)
    return TracedMap._derived(src, tgt, h_c.T @ pulled)
