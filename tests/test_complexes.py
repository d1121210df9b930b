import sys
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from l2tor.checks import CheckReport
from l2tor.complexes import (FiniteCochainComplex, ShortExactTriple, complex_sdf,
                             connecting_map, laplacian_sdf_decomposition)
from l2tor.rand import (_coupling_nullspace, random_complex, random_map,
                        random_short_exact_triple, random_space, rng_for)
from l2tor.sdf import SpectralDensityFunction, sdf_of_map
from l2tor.traced import TracedMap, TracedSpace, _orthonormal_space, _rank_threshold


def _rank_count(sv: np.ndarray) -> int:
    """The count of the singular values sv (in any order) that the rank rule
    keeps: those above its one threshold."""
    values = sv.tolist()
    return sum(map(_rank_threshold(values).__lt__, values))


def _image_complement_basis(C: FiniteCochainComplex, p: int) -> np.ndarray:
    """Gram-orthonormal basis (columns) of (im c^{p-1})^perp inside C^p: the
    complex's kept whitened basis of degree p, in the space's coordinates."""
    return C.space(p).inverse_whitener @ C._degree(p)[0]


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
    basis = _image_complement_basis(C, p)
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
    basis = _image_complement_basis(C, p)
    d = C.differential(p)
    if d.target.dim == 0:
        return basis
    m = d.target.whitener @ d.coefficients @ basis
    _, s, vt = np.linalg.svd(m, full_matrices=True)
    return basis @ vt[_rank_count(s):].T


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
    svds, solves, spaces, laplacians = [], [], [], []
    svd, solve, post_init = np.linalg.svd, np.linalg.solve, TracedSpace.__post_init__
    laplacian = FiniteCochainComplex.laplacian

    def counted_svd(a, *args, **kwargs):
        # the calling method and its map (kept, so no id is reused)
        frame = sys._getframe(1)
        svds.append((frame.f_code.co_name, frame.f_locals.get("self")))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solves.append(1) or solve(a, b))
    monkeypatch.setattr(TracedSpace, "__post_init__",
                        lambda s: spaces.append(s.dim) or post_init(s))
    monkeypatch.setattr(FiniteCochainComplex, "laplacian",
                        lambda self, p: laplacians.append(laplacian(self, p)) or laplacians[-1])
    _orthonormal_space.cache_clear()
    passes = []
    for _ in range(3):
        for p in range(C.top_degree + 1):
            complex_sdf(C, p)
            C.cohomology_dim(p)
            C.harmonic_basis(p)
            _image_complement_basis(C, p)
            laplacian_sdf_decomposition(C, p)
        passes.append((len(svds), len(spaces)))
    # every SVD is a map's own, taken once per map and kind: _degree and the
    # Laplacian decomposition run no SVD and no solve of their own
    assert {name for name, _ in svds} <= {"singular_values", "_full_svd"}
    assert not solves
    assert set(Counter((name, id(f)) for name, f in svds).values()) == {1}
    # a repeated pass builds no space and decomposes no map again: its only
    # SVDs are those of its own new Laplacians, one values-only SVD each
    fresh = {id(f) for f in laplacians}
    assert len(fresh) == len(laplacians) == 3 * (C.top_degree + 1)
    assert all(id(f) in fresh for _, f in svds[passes[0][0]:])
    assert sorted((name, id(f)) for name, f in svds if id(f) in fresh) == sorted(
        ("singular_values", i) for i in fresh)
    assert passes[0][1] == len(spaces)
    # the restricted differentials' sources are shared identity-gram spaces,
    # one per dimension
    dims = {C.restricted_differential(p).source.dim for p in range(-1, C.top_degree + 2)}
    assert sorted(spaces) == sorted(dims)
    for p in range(-1, C.top_degree + 2):
        restricted = C.restricted_differential(p)
        assert restricted is C.restricted_differential(p)
        assert restricted.source is _orthonormal_space(restricted.source.dim, 0.5)
        # the image-complement basis is cut from c^{p-1}'s own decomposition
        basis = C._degree(p)[0]
        assert np.shares_memory(basis, C.differential(p - 1)._full_svd()[0]) or basis.size == 0


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


def _one_degree_triple(j0=None, q0=None):
    """0 -> R -> R^2 -> R -> 0 in one degree, with j and q the inclusion and
    projection; j0 or q0 replaces j_0 or q_0."""
    c, d, e = TracedSpace(1), TracedSpace(2), TracedSpace(1)
    C, D, E = (FiniteCochainComplex([s], []) for s in (c, d, e))
    j0 = j0 or TracedMap(c, d, np.array([[1.0], [0.0]]))
    q0 = q0 or TracedMap(d, e, np.array([[0.0, 1.0]]))
    return ShortExactTriple(C, D, E, [j0], [q0])


_OTHER_SPACES = {
    "normalization": TracedSpace(1, 0.5),
    "gram": TracedSpace(1, 1.0, 3.0 * np.eye(1)),
}


@pytest.mark.parametrize("other", sorted(_OTHER_SPACES))
@pytest.mark.parametrize("end", ["source", "target"])
def test_complex_refuses_a_differential_between_other_spaces(other, end):
    s0, s1 = TracedSpace(1), TracedSpace(1)
    ends = {"source": s0, "target": s1, end: _OTHER_SPACES[other]}
    d = TracedMap(ends["source"], ends["target"], np.array([[2.0]]))
    with pytest.raises(ValueError, match=f"differential 0 has wrong {end}"):
        FiniteCochainComplex([s0, s1], [d])


@pytest.mark.parametrize("other", sorted(_OTHER_SPACES))
@pytest.mark.parametrize("which", ["j_0 source", "q_0 target"])
def test_triple_refuses_maps_between_other_spaces(other, which):
    space = _OTHER_SPACES[other]
    d = TracedSpace(2)
    if which == "j_0 source":
        bad = {"j0": TracedMap(space, d, np.array([[1.0], [0.0]]))}
    else:
        bad = {"q0": TracedMap(d, space, np.array([[0.0, 1.0]]))}
    with pytest.raises(ValueError, match=f"{which.replace(' ', ' has wrong ')}"):
        _one_degree_triple(**bad)


def test_maps_between_equal_spaces_are_accepted():
    # another object of equal dim, normalization and gram is the same space
    gram = np.array([[2.0, 0.5], [0.5, 1.0]])
    s0, s1 = TracedSpace(2, 0.5, gram), TracedSpace(1, 0.5)
    d = TracedMap(TracedSpace(2, 0.5, gram.copy()), TracedSpace(1, 0.5), np.array([[1.0, 2.0]]))
    assert FiniteCochainComplex([s0, s1], [d]).cohomology_dim(0) == 1
    T = _one_degree_triple(j0=TracedMap(TracedSpace(1), TracedSpace(2),
                                        np.array([[1.0], [0.0]])))
    delta = connecting_map(T, 0)
    assert (delta.source.dim, delta.target.dim) == (1, 0)


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
    j = [TracedMap.zero(z, d0), TracedMap(r, d1, np.array([[1.0]]))]
    q = [TracedMap(d0, r, np.array([[1.0]])), TracedMap.zero(d1, z)]
    T = ShortExactTriple(C, D, E, j, q)
    delta = connecting_map(T, 0)
    assert delta.source.dim == 1 and delta.target.dim == 1
    assert abs(delta.coefficients[0, 0]) == pytest.approx(1.0)


# -- the whitened route against today's gram-coordinate formulas -------------------
#
# Derived maps are born whitened, image complements are cut from the previous
# differential's own decomposition and connecting maps are pseudoinverse
# applies in whitened coordinates.  The oracles below are the gram-coordinate
# formulas they replace: an adjoint G_s^-1 C^T G_t, compositions and
# Laplacians as coefficient products, the image complement from an SVD of
# W_t C_prev followed by a solve, and the connecting map through gram-
# coordinate least-norm solves.

def _gram_whitened(source: TracedSpace, target: TracedSpace, coeff: np.ndarray) -> np.ndarray:
    return target.whitener @ coeff @ np.linalg.inv(source.whitener)


def _gram_svals(source: TracedSpace, target: TracedSpace, coeff: np.ndarray) -> np.ndarray:
    if min(source.dim, target.dim) == 0:
        return np.zeros(source.dim)
    sv = np.linalg.svd(_gram_whitened(source, target, coeff), compute_uv=False)
    return np.concatenate([sv, np.zeros(max(source.dim - target.dim, 0))])


def _gram_adjoint(f: TracedMap) -> np.ndarray:
    return np.linalg.inv(f.source.gram) @ f.coefficients.T @ f.target.gram


def _assert_same_map(f: TracedMap, coeff: np.ndarray) -> None:
    """f against the gram-coordinate matrix coeff of the same map: singular
    values to 1e-12 of the largest, equal ranks, coefficients to 1e-12
    relative."""
    want = _gram_svals(f.source, f.target, coeff)
    got = f.singular_values()
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= 1e-12 * want.max(initial=0.0)
    assert f.rank() == _rank_count(want)
    assert np.abs(f.coefficients - coeff).max(initial=0.0) <= 1e-12 * np.abs(coeff).max(
        initial=0.0)


def _gram_image_complement(C: FiniteCochainComplex, p: int) -> np.ndarray:
    """The image-complement basis by the gram-coordinate route: an SVD of
    W_t C_{p-1}, cut by the rank rule on its own values, then a solve."""
    space = C.space(p)
    if space.dim == 0:
        return np.zeros((0, 0))
    wt, prev = space.whitener, C.differential(p - 1)
    if prev.source.dim == 0:
        return np.linalg.solve(wt, np.eye(space.dim))
    u, s, _ = np.linalg.svd(wt @ prev.coefficients, full_matrices=True)
    return np.linalg.solve(wt, u[:, _rank_count(s):])


def _gram_least_norm_solve(f: TracedMap, rhs: np.ndarray) -> np.ndarray:
    u, s, vt = np.linalg.svd(_gram_whitened(f.source, f.target, f.coefficients),
                             full_matrices=True)
    r = _rank_count(s)
    coords = (1.0 / s[:r])[:, None] * (u[:, :r].T @ (f.target.whitener @ rhs))
    return np.linalg.solve(f.source.whitener, vt[:r].T @ coords)


def _gram_harmonic(C: FiniteCochainComplex, p: int) -> np.ndarray:
    basis = _gram_image_complement(C, p)
    d = C.differential(p)
    if basis.shape[1] == 0 or d.target.dim == 0:
        return basis
    _, s, vt = np.linalg.svd(d.target.whitener @ d.coefficients @ basis, full_matrices=True)
    return basis @ vt[_rank_count(s):].T


def _projector(space: TracedSpace, basis: np.ndarray) -> np.ndarray:
    """The gram-orthogonal projector onto the span of a gram-orthonormal basis,
    in whitened coordinates."""
    w = space.whitener
    return w @ basis @ basis.T @ w.T


@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 5), st.integers(0, 5), st.integers(0, 5))
def test_compositions_match_coefficient_products(seed, du, dv, dw):
    rng = rng_for(seed, 0)
    U, V, W = (random_space(rng, n, 0.5) for n in (du, dv, dw))
    f, g = random_map(rng, U, V), random_map(rng, V, W)
    _assert_same_map(g @ f, g.coefficients @ f.coefficients)
    _assert_same_map(f.adjoint() @ g.adjoint(), _gram_adjoint(f) @ _gram_adjoint(g))


@given(st.integers(0, 2 ** 32 - 1), st.lists(st.integers(0, 5), min_size=2, max_size=4))
def test_whitened_maps_match_the_gram_coordinate_formulas(seed, dims):
    C = random_complex(rng_for(seed, 0), dims, normalization=0.5)
    for p in range(-1, len(dims) + 1):
        d, prev = C.differential(p), C.differential(p - 1)
        _assert_same_map(d.adjoint(), _gram_adjoint(d))
        _assert_same_map(d.adjoint() @ d, _gram_adjoint(d) @ d.coefficients)
        _assert_same_map(prev @ prev.adjoint(), prev.coefficients @ _gram_adjoint(prev))
        _assert_same_map(C.laplacian(p), _gram_adjoint(d) @ d.coefficients
                         + prev.coefficients @ _gram_adjoint(prev))
        # the image complement spans the same subspace, and the restricted
        # differential has the same singular values and rank
        space, basis = C.space(p), _gram_image_complement(C, p)
        got = _image_complement_basis(C, p)
        assert got.shape == basis.shape
        assert np.abs(_projector(space, got) - _projector(space, basis)).max(
            initial=0.0) <= 1e-12
        restricted = C.restricted_differential(p)
        want = _gram_svals(TracedSpace(basis.shape[1]), d.target, d.coefficients @ basis)
        got = restricted.singular_values()
        assert np.abs(got - want).max(initial=0.0) <= 1e-12 * want.max(initial=0.0)
        assert restricted.rank() == _rank_count(want)


@given(st.integers(0, 2 ** 32 - 1), st.lists(st.integers(0, 3), min_size=2, max_size=4),
       st.lists(st.integers(0, 3), min_size=2, max_size=4))
def test_connecting_map_matches_the_gram_coordinate_route(seed, dims_c, dims_e):
    dims_c[0], dims_e[0] = max(dims_c[0], 1), max(dims_e[0], 1)
    T = random_short_exact_triple(rng_for(seed, 0), dims_c, dims_e, normalization=0.5,
                                  log_sing_range=(-3.5, 1.0))
    for p in range(T.D.top_degree + 1):
        delta = connecting_map(T, p)
        h_e, h_c = _gram_harmonic(T.E, p), _gram_harmonic(T.C, p + 1)
        assert (delta.source.dim, delta.target.dim) == (h_e.shape[1], h_c.shape[1])
        if delta.source.dim == 0 or delta.target.dim == 0:
            continue
        lifts = _gram_least_norm_solve(T.q_at(p), h_e)
        pulled = _gram_least_norm_solve(T.j_at(p + 1), T.D.differential(p).coefficients @ lifts)
        coords = h_c.T @ T.C.space(p + 1).gram @ pulled
        want = _gram_svals(delta.source, delta.target, coords)
        assert np.abs(delta.singular_values() - want).max() <= 1e-12 * max(want.max(), 1.0)
        assert delta.rank() == _rank_count(want)
        # the same operator E^p -> C^{p+1} through the harmonic embeddings,
        # whichever orthonormal bases of the harmonic spaces each route took
        e_gram = T.E.space(p).gram
        new = T.C.harmonic_basis(p + 1) @ delta.coefficients @ T.E.harmonic_basis(p).T @ e_gram
        old = h_c @ coords @ h_e.T @ e_gram
        assert np.abs(new - old).max() <= 1e-12 * max(np.abs(old).max(), 1.0)


def _svd_kernel_basis(f: TracedMap) -> np.ndarray:
    """Oracle: the null space that rand._coupling_nullspace took before it
    was a traced map's kernel_basis: a full SVD of the constraints cut by
    the rank rule over the array, and the identity when there are none."""
    m, n = f.whitened.shape
    if m == 0:
        return np.eye(n)
    _, s, vt = np.linalg.svd(f.whitened, full_matrices=True)
    return vt[int(np.count_nonzero(s > _rank_threshold(s.tolist()))):].T


@given(st.integers(0, 2 ** 32 - 1), st.lists(st.integers(0, 4), min_size=1, max_size=4),
       st.lists(st.integers(0, 4), min_size=1, max_size=4))
def test_coupling_nullspace_matches_the_svd_form_bitwise(seed, dims_c, dims_e):
    rng = rng_for(seed, 0)
    C, E = random_complex(rng, dims_c), random_complex(rng, dims_e)
    got = _coupling_nullspace(C, E, rng_for(seed, 1))
    with mock.patch.object(TracedMap, "kernel_basis", _svd_kernel_basis):
        want = _coupling_nullspace(C, E, rng_for(seed, 1))
    assert [h.shape for h in got] == [h.shape for h in want]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
