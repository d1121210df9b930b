"""Seeded generators for random traced maps, complexes and triples.

Entries are standard normal and gram forms are A A^T + I.  Maps from
random_map, random_injective and random_surjective are redrawn until no
singular value lies in (1e-12, SEPARATION] times the largest, so the rank
rule (TracedMap.rank) decides their kernels with room to spare.  All
randomness flows through an explicit numpy Generator; instance seeds are
spawned deterministically from a master seed.
"""

from __future__ import annotations

import numpy as np

from .complexes import FiniteCochainComplex, ShortExactTriple
from .traced import TracedMap, TracedSpace, _identity, _orthonormal_space

__all__ = [
    "rng_for",
    "random_space",
    "random_map",
    "random_injective",
    "random_surjective",
    "random_complex",
    "random_short_exact_triple",
    "random_homotopy_pair",
]

# generated maps are redrawn until clamped rank decisions are this clear-cut
SEPARATION = 1e-6
MAX_DRAWS = 64  # draws of one map before _separated gives up


def rng_for(master_seed: int, instance: int) -> np.random.Generator:
    """Deterministic per-instance generator derived from a master seed."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([master_seed, instance])))


def random_space(rng: np.random.Generator, dim: int, normalization: float = 1.0) -> TracedSpace:
    if dim == 0:
        return TracedSpace(dim, normalization)
    a = rng.standard_normal((dim, dim))
    return TracedSpace._generated(dim, normalization, a @ a.T + _identity(dim))


def _separated(rng: np.random.Generator, source: TracedSpace, target: TracedSpace,
               predicate=None) -> TracedMap:
    for _ in range(MAX_DRAWS):
        f = TracedMap(source, target, rng.standard_normal((target.dim, source.dim)))
        sv = f.singular_values().tolist()
        if not sv or sv[0] == 0.0:
            if predicate is None or predicate(f):
                return f
            continue
        top = sv[0]
        if any(SEPARATION * top >= s > 1e-12 * top for s in sv):
            continue  # singular value inside the danger band; redraw
        if predicate is not None and not predicate(f):
            continue
        return f
    raise RuntimeError("could not draw a well-separated map")


def random_map(rng: np.random.Generator, source: TracedSpace,
               target: TracedSpace) -> TracedMap:
    return _separated(rng, source, target)


def random_injective(rng: np.random.Generator, source: TracedSpace,
                     target: TracedSpace) -> TracedMap:
    if target.dim < source.dim:
        raise ValueError("injective map needs target dim >= source dim")
    return _separated(
        rng, source, target,
        predicate=lambda f: source.dim == 0 or f.singular_values()[source.dim - 1] > 0.05,
    )


def random_surjective(rng: np.random.Generator, source: TracedSpace,
                      target: TracedSpace) -> TracedMap:
    if source.dim < target.dim:
        raise ValueError("surjective map needs source dim >= target dim")
    return _separated(
        rng, source, target,
        predicate=lambda f: target.dim == 0 or f.singular_values()[target.dim - 1] > 0.05,
    )


def _orthonormal_columns(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    if k == 0:
        return np.zeros((n, 0))
    a = rng.standard_normal((n, k))
    q, _ = np.linalg.qr(a)
    return q[:, :k]


def random_complex(rng: np.random.Generator, dims: list[int],
                   normalization: float = 1.0,
                   log_sing_range: tuple[float, float] = (-1.0, 1.0)) -> FiniteCochainComplex:
    """Random complex with prescribed degree dimensions.

    Built from Hodge data: each degree splits into harmonic, incoming-image
    and outgoing-coexact frames, and c^p carries the coexact frame of degree
    p isomorphically onto the image frame of degree p+1 with log-uniform
    singular factors drawn from exp(U(log_sing_range)), which enforces
    c∘c = 0 up to rounding.
    """
    n = len(dims)
    ranks = []
    for p in range(n - 1):
        prev = ranks[p - 1] if p > 0 else 0
        cap = min(dims[p] - prev, dims[p + 1])
        ranks.append(0 if cap <= 0 else int(rng.integers(0, cap + 1)))
    spaces = [random_space(rng, d, normalization) for d in dims]
    out_frames = []
    in_frames = []
    for p in range(n):
        r_out = ranks[p] if p < n - 1 else 0
        r_in = ranks[p - 1] if p > 0 else 0
        frame = _orthonormal_columns(rng, dims[p], r_out + r_in) if dims[p] else np.zeros((0, 0))
        in_frames.append(frame[:, :r_in])
        out_frames.append(frame[:, r_in : r_in + r_out])
    diffs = []
    for p in range(n - 1):
        r = ranks[p]
        sing = np.exp(rng.uniform(*log_sing_range, size=r))
        coeff = in_frames[p + 1] @ np.diag(sing) @ out_frames[p].T
        diffs.append(TracedMap(spaces[p], spaces[p + 1], coeff))
    return FiniteCochainComplex(spaces, diffs)


def _coupling_nullspace(C: FiniteCochainComplex, E: FiniteCochainComplex,
                        rng: np.random.Generator) -> list[np.ndarray]:
    """Random degreewise h_p: E^p -> C^{p+1} with d_C h + h d_E = 0."""
    top = max(C.top_degree, E.top_degree)
    shapes = [(C.space(p + 1).dim, E.space(p).dim) for p in range(top + 1)]
    sizes = [r * c for r, c in shapes]
    total = sum(sizes)
    if total == 0:
        return [np.zeros(s) for s in shapes]
    rows = []
    for p in range(top + 1):
        # constraint at degree p: d_C^{p+1} h_p + h_{p+1} d_E^p = 0
        out_shape = (C.space(p + 2).dim, E.space(p).dim)
        if out_shape[0] * out_shape[1] == 0:
            continue
        block = np.zeros((out_shape[0] * out_shape[1], total))
        offset = sum(sizes[:p])
        a = C.differential(p + 1).coefficients
        block[:, offset : offset + sizes[p]] = np.kron(np.eye(out_shape[1]), a)
        if p + 1 <= top and sizes[p + 1]:
            offset1 = sum(sizes[: p + 1])
            b = E.differential(p).coefficients
            block[:, offset1 : offset1 + sizes[p + 1]] = np.kron(b.T, np.eye(out_shape[0]))
        rows.append(block)
    # the null space of the constraints, cut by the rank rule of one map
    constraint = np.vstack(rows) if rows else np.zeros((0, total))
    null = TracedMap._derived(_orthonormal_space(total, 1.0),
                              _orthonormal_space(len(constraint), 1.0),
                              constraint).kernel_basis()
    vec = null @ rng.standard_normal(null.shape[1]) if null.shape[1] else np.zeros(total)
    if vec.size:
        vec[np.abs(vec) < 1e-13 * max(np.abs(vec).max(), 1.0)] = 0.0
    out, pos = [], 0
    for r, c in shapes:
        out.append(vec[pos : pos + r * c].reshape(c, r).T if r * c else np.zeros((r, c)))
        pos += r * c
    return out


def random_short_exact_triple(rng: np.random.Generator, dims_c: list[int],
                              dims_e: list[int], normalization: float = 1.0,
                              coupling_scale: float = 1.0,
                              log_sing_range: tuple[float, float] = (-1.0, 1.0)) -> ShortExactTriple:
    """Triple with D = C ⊕ E carrying an upper-triangular coupled differential
    and an independent random gram, j and q the block inclusion/projection."""
    top = max(len(dims_c), len(dims_e))
    dims_c = dims_c + [0] * (top - len(dims_c))
    dims_e = dims_e + [0] * (top - len(dims_e))
    C = random_complex(rng, dims_c, normalization, log_sing_range=log_sing_range)
    E = random_complex(rng, dims_e, normalization, log_sing_range=log_sing_range)
    hs = _coupling_nullspace(C, E, rng)
    d_spaces = [random_space(rng, dims_c[p] + dims_e[p], normalization) for p in range(top)]
    d_diffs = []
    for p in range(top - 1):
        dc = C.differential(p).coefficients
        de = E.differential(p).coefficients
        h = coupling_scale * hs[p]
        block = np.zeros((d_spaces[p + 1].dim, d_spaces[p].dim))
        block[: dims_c[p + 1], : dims_c[p]] = dc
        block[: dims_c[p + 1], dims_c[p] :] = h
        block[dims_c[p + 1] :, dims_c[p] :] = de
        d_diffs.append(TracedMap(d_spaces[p], d_spaces[p + 1], block))
    D = FiniteCochainComplex(d_spaces, d_diffs)
    j = []
    q = []
    for p in range(top):
        jm = np.zeros((d_spaces[p].dim, dims_c[p]))
        jm[: dims_c[p]] = np.eye(dims_c[p])
        j.append(TracedMap(C.space(p), d_spaces[p], jm))
        qm = np.zeros((dims_e[p], d_spaces[p].dim))
        qm[:, dims_c[p] :] = np.eye(dims_e[p])
        q.append(TracedMap(d_spaces[p], E.space(p), qm))
    return ShortExactTriple(C, D, E, j, q)


def _null_homotopic_perturbation(rng: np.random.Generator,
                                 X: FiniteCochainComplex) -> list[np.ndarray]:
    """N_p = (d K + K d)_p for random K, returned as coordinate blocks."""
    # K_p: X^p -> X^{p-1}; a draw of size zero leaves the generator as it was
    ks = [rng.standard_normal((X.space(p - 1).dim, X.space(p).dim))
          for p in range(X.top_degree + 2)]
    return [X.differential(p - 1).coefficients @ ks[p]
            + ks[p + 1] @ X.differential(p).coefficients
            for p in range(X.top_degree + 1)]


def random_homotopy_pair(rng: np.random.Generator, dims_c: list[int],
                         acyclic_dim: int = 2, normalization: float = 1.0,
                         log_sing_range: tuple[float, float] = (-1.0, 1.0)):
    """(C, D, f, g, T) with g f = id + d T + T d and D ≃ C ⊕ acyclic cone.

    Returns chain maps as per-degree TracedMap lists; the homotopy T_p maps
    C^p -> C^{p-1}.
    """
    C = random_complex(rng, dims_c, normalization, log_sing_range=log_sing_range)
    top = C.top_degree
    cone_at = int(rng.integers(0, max(top, 1))) if top >= 1 else 0
    a_dims = [0] * (top + 1)
    if top >= 1:
        a_dims[cone_at] = acyclic_dim
        a_dims[cone_at + 1] = acyclic_dim
    d_spaces = [random_space(rng, C.space(p).dim + a_dims[p], normalization)
                for p in range(top + 1)]
    d_diffs = []
    for p in range(top):
        block = np.zeros((d_spaces[p + 1].dim, d_spaces[p].dim))
        nc, nc1 = C.space(p).dim, C.space(p + 1).dim
        block[:nc1, :nc] = C.differential(p).coefficients
        if a_dims[p] and a_dims[p + 1] and p == cone_at:
            block[nc1:, nc:] = np.eye(acyclic_dim)
        d_diffs.append(TracedMap(d_spaces[p], d_spaces[p + 1], block))
    D = FiniteCochainComplex(d_spaces, d_diffs)

    # chain automorphism S = 1 + (dK + Kd), contraction-scaled so S is invertible
    raw = _null_homotopic_perturbation(rng, D)
    biggest = max((np.abs(n).max(initial=0.0) for n in raw), default=0.0)
    scale = 0.4 / biggest if biggest > 0 else 0.0
    s_blocks = [np.eye(D.space(p).dim) + scale * raw[p] for p in range(top + 1)]
    s_inv = [np.linalg.inv(b) for b in s_blocks]

    incl = []
    proj = []
    for p in range(top + 1):
        nc = C.space(p).dim
        im = np.zeros((D.space(p).dim, nc))
        im[:nc] = np.eye(nc)
        incl.append(im)
        pm = np.zeros((nc, D.space(p).dim))
        pm[:, :nc] = np.eye(nc)
        proj.append(pm)

    f = [TracedMap(C.space(p), D.space(p), s_blocks[p] @ incl[p]) for p in range(top + 1)]
    ks = [rng.standard_normal((C.space(p - 1).dim, D.space(p).dim)) * 0.5
          for p in range(top + 2)]
    g = [TracedMap(D.space(p), C.space(p),
                   proj[p] @ s_inv[p] + C.differential(p - 1).coefficients @ ks[p]
                   + ks[p + 1] @ D.differential(p).coefficients)
         for p in range(top + 1)]
    T = [TracedMap(C.space(p), C.space(p - 1), ks[p] @ f[p].coefficients)
         for p in range(top + 1)]
    return C, D, f, g, T
