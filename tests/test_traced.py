import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from l2tor.checks import run_suite
from l2tor.config import RANK_RTOL, ZERO_SV_ATOL
from l2tor.rand import random_map, random_space, rng_for
from l2tor.sdf import sdf_of_map
from l2tor.traced import TracedMap, TracedSpace, _rank_threshold


def _nonzero(sv) -> list[bool]:
    """The rank rule on a list of singular values, in any order: which lie
    above the one threshold."""
    threshold = _rank_threshold(list(sv))
    return [v > threshold for v in sv]


def test_space_rejects_indefinite_gram():
    with pytest.raises(ValueError):
        TracedSpace(2, 1.0, np.array([[1.0, 2.0], [2.0, 1.0]]))


@pytest.mark.parametrize("gram", [
    [[1.0, 0.5], [0.0, 1.0]],          # asymmetric
    [[1.0, 2.0], [2.0, 1.0]],          # indefinite
    [[1.0, 1.0], [1.0, 1.0]],          # singular, positive semidefinite
    [[1.0, np.nan], [np.nan, 1.0]],    # not a number
], ids=["asymmetric", "indefinite", "singular", "nan"])
def test_space_rejects_invalid_gram(gram):
    with pytest.raises(ValueError):
        TracedSpace(2, 1.0, np.array(gram))


def test_space_accepts_rounding_asymmetry_and_symmetrizes():
    g = np.array([[2.0, 0.5], [0.5 * (1 + 1e-13), 1.0]])
    s = TracedSpace(2, 1.0, g)
    assert np.array_equal(s.gram, 0.5 * (g + g.T))


@pytest.mark.parametrize("n", [0, 1, 4])
def test_identity_space_is_exactly_the_identity(n):
    s = TracedSpace(n)
    for m in (s.gram, s.whitener, s.inverse_whitener):
        assert m.shape == (n, n)
        assert np.array_equal(m, np.eye(n))


def test_cached_inverse_equals_direct_inverse_bitwise():
    rng = rng_for(1, 5)
    s = random_space(rng, 5)
    assert s.inverse_whitener.tobytes() == np.linalg.inv(s.whitener).tobytes()
    assert s.inverse_whitener is s.inverse_whitener
    with pytest.raises(ValueError):
        s.inverse_whitener[0, 0] = 0.0
    # the gram inverse is gone: derived maps are whitened, so no map needs it
    assert not hasattr(s, "inverse_gram")


@pytest.mark.parametrize("n", [0, 1, 4])
def test_identity_space_inverses_are_read_only_identities(n, monkeypatch):
    def no_inverse(_a):
        raise AssertionError("an identity gram was inverted")

    monkeypatch.setattr(np.linalg, "inv", no_inverse)
    s = TracedSpace(n)
    inv = s.inverse_whitener
    assert inv.dtype == float and inv.shape == (n, n)
    assert inv.tobytes() == np.eye(n).tobytes()
    assert not inv.flags.writeable
    assert s.inverse_whitener is inv
    # every identity-gram space of one dimension shares one identity for its
    # gram, Cholesky factor and inverse whitener
    other = TracedSpace(n, 0.5)
    assert s.gram is other.inverse_whitener is other._chol
    assert not s.gram.flags.writeable and not s.whitener.flags.writeable
    with pytest.raises(ValueError):
        s.gram[...] = 0.0


def test_space_rejects_nonpositive_normalization():
    with pytest.raises(ValueError):
        TracedSpace(2, 0.0)


def test_normalization_is_held_as_a_float():
    third = TracedSpace(3, Fraction(1, 3))
    assert type(third.normalization) is float and third.normalization == 1.0 / 3.0


def test_whitener_reproduces_inner_product():
    rng = rng_for(1, 0)
    s = random_space(rng, 4)
    u = rng.standard_normal(4)
    v = rng.standard_normal(4)
    w = s.whitener
    assert float(u @ s.gram @ v) == pytest.approx(float((w @ u) @ (w @ v)), rel=1e-12)


def test_orthonormal_basis_is_gram_orthonormal():
    rng = rng_for(1, 1)
    s = random_space(rng, 5)
    b = s.inverse_whitener
    assert np.allclose(b.T @ s.gram @ b, np.eye(5), atol=1e-10)


def test_rank_rule_cutoff():
    # relative cut at RANK_RTOL of the largest, absolute floor at ZERO_SV_ATOL
    sv = [2.0, 2.0 * RANK_RTOL, 2.0 * RANK_RTOL * 1.5, 0.0]
    assert _nonzero(sv) == [True, False, True, False]
    tiny = [ZERO_SV_ATOL, 0.5 * ZERO_SV_ATOL, 2.0 * ZERO_SV_ATOL]
    assert _nonzero(tiny) == [False, False, True]
    assert _nonzero([]) == []
    # the order of the values does not matter
    assert _nonzero(sv[::-1]) == [False, True, False, True]


@pytest.mark.parametrize("sv", [[2.0, np.nan], [np.nan], [np.inf, 1.0]],
                         ids=["nan", "only-nan", "inf"])
def test_rank_rule_refuses_nonfinite_values(sv):
    # a NaN top would make every comparison false, so every value a zero
    with pytest.raises(ValueError, match="finite"):
        _rank_threshold(sv)


_RANK_EDGES = (0.0, 1e-17, 0.5 * ZERO_SV_ATOL, ZERO_SV_ATOL, 2.0 * ZERO_SV_ATOL,
               0.5 * RANK_RTOL, RANK_RTOL, 2.0 * RANK_RTOL, 0.5, 1.0, 1.0, 2.0)


@st.composite
def ranked_maps(draw):
    """A map drawn as the suites draw them, or a scaled diagonal one whose
    singular values hold zeros, ties and values at and around both
    thresholds of the rank rule."""
    n, m = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    if draw(st.booleans()):
        rng = rng_for(draw(st.integers(0, 2 ** 16)), 0)
        return random_map(rng, random_space(rng, n), random_space(rng, m))
    entries = draw(st.lists(st.sampled_from(_RANK_EDGES), min_size=min(n, m),
                            max_size=min(n, m)))
    scale = draw(st.sampled_from([1.0, 1e-3, 3.0, 1e3]))
    coeff = np.eye(m, n)
    coeff[np.diag_indices(min(n, m))] = scale * np.array(entries)
    return TracedMap(TracedSpace(n), TracedSpace(m), coeff)


@given(ranked_maps())
def test_rank_counts_the_values_above_the_threshold(f):
    rank = f.rank()
    assert type(rank) is int
    assert rank == sum(_nonzero(f.singular_values().tolist()))


@given(st.lists(st.floats(0.0, 1e3), min_size=1, max_size=5),
       st.sampled_from([np.nan, np.inf]), st.data())
def test_rank_refuses_a_nan_or_inf_past_the_leading_value(values, bad, data):
    sv = sorted(values, reverse=True)
    sv.insert(data.draw(st.integers(1, len(sv))), bad)
    space = TracedSpace(len(sv))
    f = TracedMap(space, space, np.eye(len(sv)))
    f._svals = np.array(sv)  # as if the decomposition had returned them
    with pytest.raises(ValueError, match="finite"):
        f.rank()


def test_rank_decisions_follow_the_rank_rule():
    s = TracedSpace(4)
    f = TracedMap(s, s, np.diag([3.0, 1.0, 0.5 * RANK_RTOL, 2.0 * ZERO_SV_ATOL]))
    assert f.singular_values()[:2] == pytest.approx([3.0, 1.0])
    assert f.rank() == 2
    # the density clamps the values past the rank to zero
    assert sdf_of_map(f).lams.tolist() == [0.0, 1.0, 3.0]
    assert f.kernel_dim() == 2
    assert not f.is_injective() and not f.is_surjective()
    assert f.min_nonzero_singular_value() == pytest.approx(1.0)


def test_identity_norm_and_rank():
    s = TracedSpace(3)
    f = TracedMap.identity(s)
    assert f.norm == pytest.approx(1.0)
    assert f.rank() == 3
    assert f.kernel_dim() == 0


# adjoint defect tolerance, relative to the largest inner product
ADJOINT_ATOL = 1e-12


def adjoint_defect(f: TracedMap) -> float:
    """Max defect of <f e_i, e_j>_t - <e_i, f* e_j>_s over basis vectors;
    fails beyond ADJOINT_ATOL."""
    lhs = f.coefficients.T @ f.target.gram              # (i, j) = <f e_i, e_j>_t
    rhs = f.source.gram @ f.adjoint().coefficients      # (i, j) = <e_i, f* e_j>_s
    defect = float(np.max(np.abs(lhs - rhs))) if lhs.size else 0.0
    assert defect <= ADJOINT_ATOL * max(1.0, float(np.max(np.abs(lhs))) if lhs.size else 1.0)
    return defect


def test_adjoint_identity_random_grams():
    rng = rng_for(1, 2)
    for k in range(20):
        src = random_space(rng, int(rng.integers(1, 5)))
        tgt = random_space(rng, int(rng.integers(1, 5)))
        f = random_map(rng, src, tgt)
        assert adjoint_defect(f) < 1e-12 * max(1.0, f.norm)


def test_adjoint_of_adjoint_is_original():
    rng = rng_for(1, 3)
    f = random_map(rng, random_space(rng, 3), random_space(rng, 4))
    back = f.adjoint().adjoint()
    assert np.allclose(back.coefficients, f.coefficients, atol=1e-10)


def test_operator_norm_against_rayleigh_sampling():
    rng = rng_for(1, 4)
    f = random_map(rng, random_space(rng, 4), random_space(rng, 3))
    best = 0.0
    for _ in range(2000):
        x = rng.standard_normal(4)
        y = f.coefficients @ x
        num = np.sqrt(y @ f.target.gram @ y)
        den = np.sqrt(x @ f.source.gram @ x)
        best = max(best, num / den)
    assert best <= f.norm * (1 + 1e-9)
    assert best >= f.norm * 0.95


def test_inverse_norm_is_reciprocal_smallest_nonzero():
    s = TracedSpace(3)
    f = TracedMap(s, s, np.diag([2.0, 0.5, 0.0]))
    assert f.inverse_norm == pytest.approx(2.0)


def test_zero_map_has_no_inverse_norm():
    s = TracedSpace(2)
    with pytest.raises(ValueError):
        TracedMap.zero(s, s).inverse_norm


@given(st.integers(min_value=0, max_value=5))
def test_singular_value_count_matches_dim(n):
    s = TracedSpace(n)
    f = TracedMap.identity(s)
    assert f.singular_values().size == n


def test_rejects_nonfinite_coefficients():
    s = TracedSpace(2)
    with pytest.raises(ValueError):
        TracedMap(s, s, np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_overflowed_composition_is_refused_where_it_is_made():
    # a derived map is born whitened and refuses a product that is not
    # finite, so no overflowed map reaches a rank, norm or basis decision
    s = TracedSpace(2)
    g = TracedMap(s, s, np.full((2, 2), 1e200))
    with np.errstate(over="ignore", invalid="ignore"):
        for make in (lambda: g @ g, lambda: g.adjoint() @ g, lambda: g @ g.adjoint()):
            with pytest.raises(ValueError, match="overflows"):
                make()


@pytest.mark.parametrize("other", [TracedSpace(1, 0.5), TracedSpace(1, 1.0, 3.0 * np.eye(1))])
def test_composition_through_different_spaces_is_refused(other):
    # whitened matrices pair the target's and the source's orthonormal
    # coordinates, so a product through spaces of one dimension but another
    # normalization or gram would be a different map than the coefficients'
    f = TracedMap(TracedSpace(1), TracedSpace(1), [[1.0]])
    g = TracedMap(other, TracedSpace(1), [[1.0]])
    with pytest.raises(ValueError, match="different spaces"):
        g @ f
    with pytest.raises(ValueError, match="different spaces"):
        f.adjoint() @ g.adjoint()


def test_composition_through_equal_spaces_is_the_coefficient_product():
    gram = np.array([[2.0, 0.5], [0.5, 1.0]])
    a, b = TracedSpace(2, 0.5, gram), TracedSpace(2, 0.5, gram.copy())
    f = TracedMap(TracedSpace(2), a, [[1.0, 2.0], [0.0, 3.0]])
    g = TracedMap(b, TracedSpace(1), [[4.0, -1.0]])
    assert np.allclose((g @ f).coefficients, g.coefficients @ f.coefficients,
                       rtol=1e-12, atol=0.0)


def test_whitening_overflow_is_refused_not_read_as_rank_zero():
    # finite coefficients whose whitened matrix overflows: its singular
    # values would be NaN, read as rank 0 and an all-kernel density
    f = TracedMap(TracedSpace(1), TracedSpace(1, 1.0, np.array([[1e300]])),
                  np.array([[1e200]]))
    with np.errstate(over="ignore"):
        for decide in (f.rank, f.kernel_basis, lambda: f.norm):
            with pytest.raises(ValueError, match="overflows"):
                decide()


@pytest.mark.parametrize("suite", ["short-exact", "gromov-shubin", "laplacian"])
def test_only_generator_maps_run_the_validating_constructor(suite, monkeypatch):
    # compositions, adjoints, zero maps, restricted differentials,
    # Laplacians, connecting and homotopy-defect maps are derived, born
    # whitened: every validating construction comes from the random
    # generators, and no derived map has its coordinates recomputed from
    # its whitened matrix (the structure checks read generator and zero
    # maps' coordinates only)
    callers = Counter()
    init = TracedMap.__init__

    def counted(self, *args):
        callers[sys._getframe(1).f_globals["__name__"]] += 1
        init(self, *args)

    monkeypatch.setattr(TracedMap, "__init__", counted)
    derived = TracedMap._derived.__func__
    made = Counter()

    def counted_derived(cls, *args):
        made["derived"] += 1
        f = derived(cls, *args)
        assert f._whitened is args[2] and f._coefficients is None
        return f

    monkeypatch.setattr(TracedMap, "_derived", classmethod(counted_derived))
    coefficients = TracedMap.coefficients.fget

    def counted_coefficients(self):
        made["converted"] += self._coefficients is None
        return coefficients(self)

    monkeypatch.setattr(TracedMap, "coefficients", property(counted_coefficients))
    assert run_suite(suite, 7, 1, max_dim=6).ok
    assert set(callers) == {"l2tor.rand"}
    assert made["derived"] > callers["l2tor.rand"] > 0
    assert made["converted"] == 0


def _gram_pinv_apply(f: TracedMap, rhs: np.ndarray) -> np.ndarray:
    """Oracle: minimal-gram-norm solutions x with f x = rhs from a thin SVD
    of the whitened matrix, with the rank rule applied to its own values."""
    ws = f.source.whitener
    wt = f.target.whitener
    b = wt @ f.coefficients @ f.source.inverse_whitener
    u, s, vt = np.linalg.svd(b, full_matrices=False)
    nonzero = np.array(_nonzero(s.tolist()), dtype=bool)
    inv = np.where(nonzero, 1.0 / np.where(nonzero, s, 1.0), 0.0)
    x_white = vt.T @ (inv[:, None] * (u.T @ (wt @ rhs)))
    return np.linalg.solve(ws, x_white)


def _amax(a: np.ndarray) -> float:
    return float(np.abs(a).max(initial=0.0))


@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 5), st.integers(0, 5),
       st.integers(0, 5))
def test_kernel_image_bases_and_least_norm_solve(seed, n, m, r):
    # a map U -> V of rank min(r, n, m) between random gram spaces
    rng = rng_for(seed, 0)
    r = min(r, n, m)
    src, tgt = random_space(rng, n), random_space(rng, m)
    f = TracedMap(src, tgt, rng.standard_normal((m, r)) @ rng.standard_normal((r, n)))
    assert f.rank() == r
    ker, im = f.kernel_basis(), f._full_svd()[0][:, :r]
    assert ker.shape == (n, n - r) and im.shape == (m, r)
    for basis in (ker, im):
        assert np.allclose(basis.T @ basis, np.eye(basis.shape[1]), atol=1e-12)
    # ker spans the null space of the whitened map, im its column space
    scale = max(1.0, f.norm)
    assert _amax(f.whitened @ ker) <= 1e-12 * scale
    assert _amax(f.whitened - im @ (im.T @ f.whitened)) <= 1e-12 * scale
    rhs = rng.standard_normal((m, 3))
    # the least-gram-norm x with f x = rhs, by the pseudoinverse that the
    # connecting map applies in whitened coordinates
    x = src.inverse_whitener @ f._pinv(tgt.whitener @ rhs)
    oracle = _gram_pinv_apply(f, rhs)
    assert x.shape == (n, 3)
    assert _amax(x - oracle) <= 1e-12 * max(1.0, _amax(oracle))
    # x is gram-orthogonal to ker f, and f x is the gram projection of rhs
    # onto the image
    assert _amax(ker.T @ (src.whitener @ x)) <= 1e-12 * max(1.0, _amax(src.whitener @ x))
    wrhs = tgt.whitener @ rhs
    assert _amax(tgt.whitener @ f.coefficients @ x - im @ (im.T @ wrhs)) <= 1e-10 * max(1.0, _amax(wrhs))
