import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from l2tor.checks import CheckReport
from l2tor.complexes import (FiniteCochainComplex, complex_sdf, connecting_map,
                             laplacian_sdf_decomposition)
from l2tor.rand import (random_complex, random_short_exact_triple, rng_for)
from l2tor.sdf import SpectralDensityFunction, sdf_of_map
from l2tor.traced import TracedMap, TracedSpace, nonzero_mask


def two_term(scalar, normalization=1.0):
    s0 = TracedSpace(1, normalization)
    s1 = TracedSpace(1, normalization)
    d = TracedMap(s0, s1, np.array([[float(scalar)]]))
    return FiniteCochainComplex([s0, s1], [d])


def test_single_space_zero_differential():
    s = TracedSpace(1, 0.5)
    C = FiniteCochainComplex([s], [])
    F = complex_sdf(C, 0)
    assert F(0.0) == 0.5
    assert F(7.0) == 0.5


def test_two_term_times_two():
    C = two_term(2.0)
    F = complex_sdf(C, 0)
    assert F(1.9) == 0.0
    assert F(2.0) == 1.0


def test_square_zero_enforced():
    s = TracedSpace(1)
    d = TracedMap(s, s, np.array([[1.0]]))
    with pytest.raises(ValueError):
        FiniteCochainComplex([s, s, s], [d, d])


def complex_sdf_via_projector(C: FiniteCochainComplex, p: int) -> SpectralDensityFunction:
    """Projector-route oracle for complex_sdf.

    Applies c^p to the full space composed with the gram-orthogonal projector
    onto (im c^{p-1})^perp, then removes the artificial kernel contributed by
    the projected-away subspace: that many counts, in the same unit.
    """
    space = C.space(p)
    basis = C.image_complement_basis(p)
    proj = basis @ basis.T @ space.gram if space.dim else np.zeros((0, 0))
    d = C.differential(p)
    full = TracedMap(space, d.target, d.coefficients @ proj)
    extra = space.dim - basis.shape[1]
    sdf = sdf_of_map(full)
    if extra == 0:
        return sdf
    counts = sdf.counts - extra
    keep = counts >= 0
    return SpectralDensityFunction.from_jumps(
        sdf.lams[keep], np.diff(counts[keep], prepend=0.0), sdf.unit)


def test_complex_sdf_against_projector_oracle():
    rng = rng_for(3, 0)
    report = CheckReport()
    for k in range(40):
        n = int(rng.integers(2, 5))
        dims = [int(rng.integers(1, 6)) for _ in range(n)]
        C = random_complex(rng, dims, normalization=0.5)
        for p in range(n):
            report.equal(f"{k}.{p}", complex_sdf(C, p), [complex_sdf_via_projector(C, p)])
    report.decide()
    assert report.violations == []


def test_laplacian_zero_differentials():
    s0 = TracedSpace(2)
    s1 = TracedSpace(3)
    C = FiniteCochainComplex([s0, s1], [TracedMap.zero(s0, s1)])
    lhs, rhs = laplacian_sdf_decomposition(C, 0)
    assert lhs.lams.size == 0 and rhs.lams.size == 0


def test_laplacian_times_three_example():
    # differential multiplication by 3: Laplacian at degree 0 is 9 and the
    # kernel-free density steps at 9 while the complex density steps at 3
    C = two_term(3.0)
    lap = C.laplacian(0)
    assert lap.coefficients == pytest.approx(np.array([[9.0]]))
    lhs, rhs = laplacian_sdf_decomposition(C, 0)
    report = CheckReport()
    report.equal("laplacian", lhs, [rhs])
    report.decide()
    assert report.ok
    assert lhs.lams == pytest.approx(np.array([9.0]))
    assert complex_sdf(C, 0).lams == pytest.approx(np.array([3.0]))


def test_laplacian_decomposition_random():
    rng = rng_for(3, 1)
    report = CheckReport()
    for k in range(60):
        n = int(rng.integers(2, 5))
        dims = [int(rng.integers(1, 7)) for _ in range(n)]
        C = random_complex(rng, dims, normalization=float(rng.choice([1.0, 0.5])))
        for p in range(n):
            lhs, rhs = laplacian_sdf_decomposition(C, p)
            report.equal(f"{k}.{p}", lhs, [rhs])
    report.decide()
    assert report.violations == []


def test_harmonic_dims_satisfy_euler_identity():
    rng = rng_for(3, 2)
    for k in range(20):
        n = int(rng.integers(2, 5))
        dims = [int(rng.integers(1, 6)) for _ in range(n)]
        C = random_complex(rng, dims)
        euler_dims = sum((-1) ** p * dims[p] for p in range(n))
        euler_cohom = sum((-1) ** p * C.cohomology_dim(p) for p in range(n))
        assert euler_dims == euler_cohom


def _harmonic_basis_oracle(C: FiniteCochainComplex, p: int) -> np.ndarray:
    """Oracle: the harmonic basis from an SVD of the whitened differential
    on the image-complement basis, cut by the rank rule on its own values."""
    space = C.space(p)
    if space.dim == 0:
        return np.zeros((0, 0))
    basis = C.image_complement_basis(p)
    d = C.differential(p)
    if d.target.dim == 0:
        return basis
    m = d.target.whitener @ d.coefficients @ basis
    _, s, vt = np.linalg.svd(m, full_matrices=True)
    return basis @ vt[np.count_nonzero(nonzero_mask(s)):].T


@given(st.integers(0, 2 ** 32 - 1), st.lists(st.integers(0, 5), min_size=1, max_size=4))
def test_harmonic_basis_matches_the_whitened_svd_route(seed, dims):
    C = random_complex(rng_for(seed, 0), dims, normalization=0.5)
    for p in range(-1, len(dims) + 1):
        h, oracle = C.harmonic_basis(p), _harmonic_basis_oracle(C, p)
        assert h.shape == oracle.shape == (C.space(p).dim, C.cohomology_dim(p))
        # equal subspaces: equal gram projectors, compared in whitened coordinates
        w = C.space(p).whitener
        assert np.abs(w @ h @ h.T @ w.T - w @ oracle @ oracle.T @ w.T).max(
            initial=0.0) <= 1e-12


def test_each_degree_is_decomposed_once(monkeypatch):
    C = random_complex(rng_for(3, 4), [3, 4, 4, 2], normalization=0.5)
    assert C.space(-1) is C.space(C.top_degree + 1)
    spaces, solves = [], []
    post_init, solve = TracedSpace.__post_init__, np.linalg.solve
    monkeypatch.setattr(TracedSpace, "__post_init__",
                        lambda s: spaces.append(s.dim) or post_init(s))
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solves.append(1) or solve(a, b))
    for _ in range(2):
        for p in range(C.top_degree + 1):
            complex_sdf(C, p)
            C.cohomology_dim(p)
            laplacian_sdf_decomposition(C, p)
    # degrees -1..3 each build one restricted differential, whose source is
    # the one new space; each nonempty degree solves for its basis once
    assert len(spaces) == C.top_degree + 2
    assert len(solves) == C.top_degree + 1
    for p in range(-1, C.top_degree + 2):
        assert C.restricted_differential(p) is C.restricted_differential(p)


def test_out_of_range_zero_maps_are_built_once_and_read_only():
    T = random_short_exact_triple(rng_for(3, 5), [1, 2], [2, 1])
    top = T.D.top_degree
    out_of_range = [(T.D.differential, p) for p in (-1, top, top + 1)]
    out_of_range += [(getter, p) for getter in (T.j_at, T.q_at) for p in (-1, top + 1)]
    for getter, p in out_of_range:
        first = getter(p)
        assert getter(p) is first
        assert not first.coefficients.any()
        assert not first.coefficients.flags.writeable
    assert T.D.differential(-1).target is T.D.space(0)
    assert T.D.differential(top).source is T.D.space(top)


def test_triple_validation_and_connecting_map_rank():
    rng = rng_for(3, 3)
    found_nonzero = False
    for k in range(30):
        n = int(rng.integers(2, 4))
        dims_c = [int(rng.integers(0, 3)) for _ in range(n)]
        dims_e = [int(rng.integers(0, 3)) for _ in range(n)]
        dims_c[0] = max(dims_c[0], 1)
        dims_e[0] = max(dims_e[0], 1)
        T = random_short_exact_triple(rng, dims_c, dims_e)
        for p in range(n):
            delta = connecting_map(T, p)
            if delta.source.dim and delta.target.dim and delta.norm > 1e-8:
                found_nonzero = True
    assert found_nonzero, "connecting map should be nontrivial on some instances"


def test_connecting_map_explicit_nontrivial():
    # C concentrated in degree 1, E in degree 0, coupling the identity:
    # the connecting map on cohomology is an isomorphism
    z = TracedSpace(0)
    r = TracedSpace(1)
    C = FiniteCochainComplex([z, r], [TracedMap.zero(z, r)])
    E = FiniteCochainComplex([r, z], [TracedMap.zero(r, z)])
    d0 = TracedSpace(1)
    d1 = TracedSpace(1)
    D = FiniteCochainComplex([d0, d1], [TracedMap(d0, d1, np.array([[1.0]]))])
    from l2tor.complexes import ShortExactTriple
    j = [TracedMap.zero(z, d0), TracedMap(r, d1, np.array([[1.0]]))]
    q = [TracedMap(d0, r, np.array([[1.0]])), TracedMap.zero(d1, z)]
    T = ShortExactTriple(C, D, E, j, q)
    delta = connecting_map(T, 0)
    assert delta.source.dim == 1 and delta.target.dim == 1
    assert abs(delta.coefficients[0, 0]) == pytest.approx(1.0)
