import bisect
import math
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from l2tor.checks import CheckReport, _moebius_argument, check_block_matrix_F, tie_shifted
from l2tor.config import TIE_RTOL
from l2tor.rand import random_map, random_space, rng_for
from l2tor.sdf import SpectralDensityFunction, _from_descending, ns_exponent_fit, sdf_of_map
from l2tor.traced import TracedMap, TracedSpace, _rank_threshold


def _tie_shifted(x) -> np.ndarray:
    """checks.tie_shifted over the points of an array or a scalar, as a
    float array of the same shape."""
    x = np.asarray(x, dtype=float)
    return np.array(tie_shifted(x.ravel().tolist())).reshape(x.shape)


def diag_map(entries, normalization=1.0):
    n = len(entries)
    s = TracedSpace(n, normalization)
    return TracedMap(s, s, np.diag(np.asarray(entries, dtype=float)))


def test_identity_on_three_dim():
    f = TracedMap.identity(TracedSpace(3))
    F = sdf_of_map(f)
    assert F(0.5) == 0.0
    assert F(1.0) == 3.0
    assert F(10.0) == 3.0


def test_diagonal_zero_two():
    F = sdf_of_map(diag_map([0.0, 2.0]))
    assert F(0.0) == 1.0
    assert F(1.9) == 1.0
    assert F(2.0) == 2.0


def test_random_map_against_generalized_eigensolve():
    # oracle: generalized eigenvalues of (A^T G_t A, G_s) are the squared
    # generalized singular values
    rng = rng_for(2, 0)
    for k in range(25):
        src = random_space(rng, 4)
        tgt = random_space(rng, 4)
        f = random_map(rng, src, tgt)
        F = sdf_of_map(f)
        eigs = scipy.linalg.eigh(
            f.coefficients.T @ tgt.gram @ f.coefficients, src.gram,
            eigvals_only=True)
        svs = np.sqrt(np.clip(eigs, 0.0, None))
        for lam in np.concatenate([svs, [0.0], svs * 0.999, svs * 1.001, [100.0]]):
            expected = float(np.count_nonzero(svs <= lam + 1e-9 * max(1.0, lam)))
            assert F(_tie_shifted(lam)) == pytest.approx(expected * src.normalization)


def test_total_equals_normalized_source_dim():
    rng = rng_for(2, 1)
    f = random_map(rng, random_space(rng, 5, 0.25), random_space(rng, 3, 0.25))
    F = sdf_of_map(f)
    assert F(math.inf) == pytest.approx(5 * 0.25)
    assert F(f.norm) == pytest.approx(F(math.inf))


def test_reduced_examples():
    Fbar = sdf_of_map(diag_map([0.0, 2.0])).reduced()
    assert Fbar(0.0) == 0.0
    assert Fbar(1.9) == 0.0
    assert Fbar(2.0) == 1.0
    zero = TracedMap.zero(TracedSpace(3), TracedSpace(2))
    assert sdf_of_map(zero).reduced()(math.inf) == 0.0


def test_reduced_adjoint_symmetry():
    # kernel-subtracted densities of f and f* agree (transposed eigensolve)
    rng = rng_for(2, 2)
    report = CheckReport()
    for k in range(25):
        f = random_map(rng, random_space(rng, int(rng.integers(1, 6))),
                       random_space(rng, int(rng.integers(1, 6))))
        report.equal(str(k), sdf_of_map(f).reduced(), [sdf_of_map(f.adjoint()).reduced()])
    report.decide()
    assert report.violations == []


def test_equals_takes_no_value_slack_and_the_tie_slack_on_positions():
    # an equality recorded in a CheckReport compares values exactly and
    # forgives a breakpoint displaced by eigensolve rounding, and nothing larger
    F = SpectralDensityFunction(np.array([1.0, 2.0]), np.array([0.5, 1.0]))
    report = CheckReport()
    report.equal("value+5e-10", F, [SpectralDensityFunction(F.lams, F.vals + 5e-10)])
    report.equal("value+2e-9", F, [SpectralDensityFunction(F.lams, F.vals + 2e-9)])
    report.equal("moved-1e-12", F, [SpectralDensityFunction(F.lams * (1.0 + 1e-12), F.vals)])
    report.equal("moved-1e-6", F, [SpectralDensityFunction(F.lams * (1.0 + 1e-6), F.vals)])
    report.decide()
    assert {v.item for v in report.violations} == {"value+5e-10", "value+2e-9", "moved-1e-6"}


def test_monotone_right_continuous_bounded():
    rng = rng_for(2, 3)
    f = random_map(rng, random_space(rng, 5), random_space(rng, 4))
    F = sdf_of_map(f)
    probes = np.unique(F.probe_points())
    vals = [F(x) for x in probes]
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
    assert max(vals) <= f.source.normalization * f.source.dim + 1e-12


def variational_sdf(f: TracedMap, lam: float) -> float:
    """Largest normalized dimension of a coordinate subspace L of ker(f)^perp
    with |f x| <= lam |x| on L: the min-max oracle for the reduced
    sdf_of_map(f).

    Only defined for maps that are diagonal w.r.t. an orthonormal basis;
    the restriction keeps the subspace search exact (enumeration over
    coordinate subspaces collapses to counting qualifying diagonal entries).
    """
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if not np.allclose(f.source.gram, np.eye(f.source.dim), atol=1e-12):
        raise ValueError("variational form requires an orthonormal source basis")
    if not np.allclose(f.target.gram, np.eye(f.target.dim), atol=1e-12):
        raise ValueError("variational form requires an orthonormal target basis")
    coeff = f.coefficients
    if coeff.size:
        off = coeff.copy()
        n = min(coeff.shape)
        off[np.arange(n), np.arange(n)] = 0.0
        if np.max(np.abs(off)) > 1e-12:
            raise ValueError("variational form requires a diagonal map")
    diag = np.abs(np.diag(coeff)) if coeff.size else np.zeros(0)
    entries = np.concatenate([diag, np.zeros(f.source.dim - diag.size)])
    qualifying = np.count_nonzero((entries > _rank_threshold(entries.tolist())) & (entries <= lam))
    return float(qualifying) * f.source.normalization


def test_variational_examples():
    f = diag_map([1.0, 2.0, 3.0])
    assert variational_sdf(f, 2.0) == 2.0
    g = diag_map([0.0, 5.0])
    assert variational_sdf(g, 1.0) == 0.0


def test_variational_matches_counting():
    rng = rng_for(2, 4)
    for k in range(30):
        n = int(rng.integers(1, 7))
        entries = rng.uniform(0, 3, size=n)
        entries[rng.random(n) < 0.3] = 0.0
        f = diag_map(entries, normalization=0.5)
        lam = float(rng.uniform(0, 3.5))
        expected = 0.5 * np.count_nonzero((entries > 0) & (entries <= lam))
        assert variational_sdf(f, lam) == pytest.approx(expected)
        assert variational_sdf(f, lam) == sdf_of_map(f).reduced()(lam)


def test_variational_rejects_nondiagonal():
    s = TracedSpace(2)
    f = TracedMap(s, s, np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        variational_sdf(f, 1.0)


def test_ns_fit_recovers_half_power_law():
    lams = np.geomspace(1e-4, 1e-1, 24)
    F = SpectralDensityFunction(lams, np.sqrt(lams))
    fit = ns_exponent_fit(F, eps=0.1)
    assert fit.flag == "ok"
    assert fit.alpha == pytest.approx(0.5, abs=0.05)


def test_ns_fit_spectral_gap():
    F = SpectralDensityFunction(np.array([2.0]), np.array([1.0]))
    fit = ns_exponent_fit(F, eps=1.0)
    assert fit.flag == "spectral-gap"
    assert math.isinf(fit.alpha)


def test_ns_fit_flat_flagged():
    lams = np.geomspace(1e-6, 1e-2, 12)
    F = SpectralDensityFunction(lams, np.full(12, 2.0) + np.linspace(0, 1e-9, 12))
    fit = ns_exponent_fit(F, eps=0.1)
    assert fit.flag == "flat-not-certifying"
    assert abs(fit.alpha) < 0.05


def test_ns_fit_insufficient_data():
    F = SpectralDensityFunction(np.array([1e-3, 2e-3]), np.array([1.0, 2.0]))
    fit = ns_exponent_fit(F, eps=0.1)
    assert fit.flag == "insufficient-data"


def test_step_algebra_transforms():
    F = SpectralDensityFunction(np.array([1.0, 4.0]), np.array([1.0, 3.0]))
    G = F.scaled_argument(2.0)  # G(x) = F(2x)
    assert G(0.5) == 1.0 and G(2.0) == 3.0
    H = F.power_argument(2.0)  # H(x) = F(x^2)
    assert H(1.0) == 1.0 and H(2.0) == 3.0 and H(1.9) == 1.0
    S = F.plus(G)
    assert S(4.0) == F(4.0) + G(4.0)


@given(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=8))
def test_from_jumps_value_matches_direct_count(positions):
    F = SpectralDensityFunction.from_jumps(positions, np.ones(len(positions)))
    for lam in positions + [0.0, 10.5]:
        assert F(lam) == float(sum(1 for p in positions if p <= lam))


@st.composite
def step_functions(draw, max_size=8):
    lams = sorted(set(draw(st.lists(
        st.floats(min_value=0.0, max_value=1e3), max_size=max_size))))
    jumps = draw(st.lists(st.floats(min_value=1e-3, max_value=10.0),
                          min_size=len(lams), max_size=len(lams)))
    return SpectralDensityFunction(lams, np.cumsum(jumps))


@st.composite
def probes_for(draw, F):
    """Arbitrary points, every breakpoint, its lower neighbour and a point
    below the first breakpoint."""
    pts = draw(st.lists(st.floats(min_value=0.0, max_value=2e3), max_size=10))
    lams = F.lams
    extra = [lams, np.nextafter(lams, -np.inf), 0.5 * lams[:1], [0.0]]
    return np.concatenate([np.asarray(pts, dtype=float)] + [np.asarray(e) for e in extra])


def reference_value(F, x):
    """F at x by a bisect count of the breakpoints <= x."""
    count = bisect.bisect_right(F.lams.tolist(), x)
    return float(F.vals[count - 1]) if count else 0.0


@given(st.data(), step_functions())
def test_values_match_scalar_evaluation_bitwise(data, F):
    # at the probes and at their tie shifts, the two slacks of the checkers
    for x in (data.draw(probes_for(F)), _tie_shifted(data.draw(probes_for(F)))):
        got = F.values(x)
        expected = np.array([reference_value(F, v) for v in x], dtype=float)
        assert got.shape == x.shape
        assert got.tobytes() == expected.tobytes()
        assert np.array([F(v) for v in x]).tobytes() == expected.tobytes()


def test_values_of_empty_function_are_zero():
    x = np.array([0.0, 1.0, 1e9])
    zero = SpectralDensityFunction([], [])
    assert np.array_equal(zero.values(x), np.zeros(3))
    assert np.array_equal(zero.values(_tie_shifted(x)), np.zeros(3))
    assert zero.values(np.zeros(0)).shape == (0,)
    assert zero(0.0) == 0.0


def test_tie_shift_is_relative_above_one_and_absolute_below():
    # zero is not shifted: a kernel is compared at 0 itself
    x = np.array([0.0, 0.5, 1.0, 1e6])
    assert np.array_equal(tie_shifted(x.tolist()), x + TIE_RTOL * np.array([0.0, 1.0, 1.0, 1e6]))


@given(step_functions())
def test_scaled_argument_at_zero_is_the_constant_f0(F):
    G = F.scaled_argument(0.0)
    f0 = reference_value(F, 0.0)
    x = np.array([0.0, 1e-300, 1.0, 1e9])
    assert np.array_equal(G.values(x), np.full(4, f0))
    assert G.lams.size == (f0 != 0.0)


def test_scaled_argument_at_zero_examples():
    assert SpectralDensityFunction([], []).scaled_argument(0.0).lams.size == 0
    F = SpectralDensityFunction(np.array([0.0, 2.0]), np.array([0.5, 1.5]))
    G = F.scaled_argument(0.0)
    assert G(0.0) == 0.5 and G(1e9) == 0.5
    unreduced = SpectralDensityFunction(np.array([2.0]), np.array([1.0]))
    assert unreduced.scaled_argument(0.0)(math.inf) == 0.0
    with pytest.raises(ValueError, match=r"^c must be in \[0, inf\), got -1.0$"):
        F.scaled_argument(-1.0)


# -- validation at the entry points only ----------------------------------------------


@pytest.mark.parametrize("build", [
    lambda: SpectralDensityFunction([math.nan], [1.0]),
    lambda: SpectralDensityFunction([1.0, 2.0], [1.0, math.nan]),
    lambda: SpectralDensityFunction([1.0, math.inf], [1.0, 2.0]),
    lambda: SpectralDensityFunction.from_jumps([0.5, math.nan], [1.0, 1.0]),
    lambda: SpectralDensityFunction.from_jumps([1.0], [1.0, 5.0]),
    lambda: SpectralDensityFunction.from_jumps([1.0, 2.0], [1.0]),
    lambda: SpectralDensityFunction.from_jumps([[1.0, 2.0]], [[1.0, 1.0]]),
], ids=["nan-breakpoint", "nan-value", "inf-breakpoint", "nan-jump-position",
        "more-counts-than-positions", "more-positions-than-counts", "two-dimensional"])
def test_entry_points_refuse_nonfinite_input(build):
    with pytest.raises(ValueError, match="finite|increasing|1-d arrays of equal length"):
        build()


@st.composite
def counted_maps(draw):
    """Maps whose singular values show each case of the sorted path: a
    zero-dimensional source or target, a source larger than the target
    (zeros appended), repeated values (a scaled identity) and values the
    rank rule clamps to zero."""
    ds, dt = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    norm = draw(st.sampled_from([1.0, 0.5, 0.25, 1.0 / 3.0]))
    kind = draw(st.sampled_from(["random", "scaled-identity", "clamped"]))
    rng = rng_for(draw(st.integers(0, 2 ** 16)), 0)
    if kind == "random":
        return random_map(rng, random_space(rng, ds, norm), random_space(rng, dt, norm))
    if kind == "scaled-identity":
        coeff = draw(st.floats(min_value=1e-3, max_value=1e3)) * np.eye(dt, ds)
    else:
        coeff = np.eye(dt, ds) * rng.choice([1.0, 2.0, 1e-13, 1e-17, 0.0], size=ds)
    return TracedMap(TracedSpace(ds, norm), TracedSpace(dt, norm), coeff)


def clamped(sv, rank):
    """sv with the values past rank set to zero, as an array."""
    sv = sv.copy()
    sv[rank:] = 0.0
    return sv


@given(counted_maps())
def test_sorted_singular_values_build_what_from_jumps_builds_bitwise(f):
    unit = f.source.normalization
    square = (f.adjoint() @ f).singular_values()  # the f*f side of basic.6
    for sv, got in ((clamped(f.singular_values(), f.rank()), sdf_of_map(f)),
                    (clamped(square, f.rank()), _from_descending(square, f.rank(), unit))):
        want = SpectralDensityFunction.from_jumps(sv, np.ones(sv.shape), unit)
        assert got.lams.tobytes() == want.lams.tobytes()
        assert got.counts.tobytes() == want.counts.tobytes()
        assert got.unit == want.unit


@given(st.lists(st.one_of(st.sampled_from([0.0, 0.5, 2.0]),
                          st.floats(0.0, 1e300, allow_nan=False)), max_size=8),
       st.sampled_from([1.0, 0.5, 0.25, 1.0 / 3.0]))
def test_sorted_path_equals_from_jumps_bitwise(values, unit):
    # ties and zeros included: the walk over Python floats gives the same
    # breakpoints and counts as the sorting construction
    sv = np.array(sorted(values, reverse=True), dtype=float)
    got = _from_descending(sv, sv.size, unit)
    want = SpectralDensityFunction.from_jumps(sv, np.ones(sv.shape), unit)
    assert got.lams.tobytes() == want.lams.tobytes()
    assert got.counts.tobytes() == want.counts.tobytes()
    assert got.lams.dtype == got.counts.dtype == float and got.unit == want.unit


@pytest.mark.parametrize("sv", [[1.0, 2.0], [2.0, 1.0, 1.5], [math.nan], [2.0, math.nan, 1.0],
                                [1.0, -1.0], [math.inf, 1.0]],
                         ids=["ascending", "unsorted", "nan", "nan-inside", "negative", "inf"])
def test_sorted_path_refuses_values_out_of_order_or_not_finite(sv):
    with pytest.raises(ValueError, match="finite, nonnegative and descending"):
        _from_descending(np.array(sv), len(sv), 1.0)


@pytest.mark.parametrize("sv", [[1.0, 2.0], [2.0, math.nan]], ids=["unsorted", "nan"])
def test_sdf_of_map_refuses_unsorted_or_nan_singular_values(monkeypatch, sv):
    f = diag_map([1.0, 2.0])
    monkeypatch.setattr(TracedMap, "singular_values", lambda self: np.array(sv))
    with pytest.raises(ValueError, match="finite|descending"):
        sdf_of_map(f)


@st.composite
def separated_step_functions(draw, max_size=6):
    """Breakpoints on a quarter grid in [0, 1000], so every argument change
    drawn below keeps them further apart than the tie shift."""
    ticks = draw(st.lists(st.integers(0, 4000), min_size=1, max_size=max_size, unique=True))
    jumps = draw(st.lists(st.floats(min_value=1e-3, max_value=10.0),
                          min_size=len(ticks), max_size=len(ticks)))
    return SpectralDensityFunction(0.25 * np.sort(ticks), np.cumsum(jumps))


def _derived_cases(F, G, c, a, t):
    """(name, derived function, its value at lambda as a composition with F)."""
    return [
        ("reduced", F.reduced(), lambda x: F.values(x) - F(0.0)),
        ("scaled", F.scaled_argument(c), lambda x: F.values(c * x)),
        ("scaled-0", F.scaled_argument(0.0), lambda x: F.values(0.0 * x)),
        ("power", F.power_argument(a), lambda x: F.values(x ** a)),
        ("plus", F.plus(G), lambda x: F.values(x) + G.values(x)),
        ("plus-constant", F.plus_constant(c), lambda x: F.values(x) + c),
        ("moebius", _moebius_argument(F, c, t), lambda x: F.values(c * x / (1.0 - t * x))),
    ]


@given(separated_step_functions(), separated_step_functions(),
       st.floats(min_value=0.1, max_value=10.0), st.floats(min_value=0.25, max_value=4.0),
       st.floats(min_value=0.0, max_value=2.0))
def test_derived_functions_keep_the_invariants_and_compose(F, G, c, a, t):
    for name, D, composed in _derived_cases(F, G, c, a, t):
        rebuilt = SpectralDensityFunction(D.lams, D.vals)  # the public checks pass
        assert rebuilt.lams.tobytes() == D.lams.tobytes(), name
        assert rebuilt.vals.tobytes() == D.vals.tobytes(), name
        # breakpoints pull back rounded, so both sides read just right of them
        x = _tie_shifted(np.unique(D.probe_points()))
        if name == "moebius":
            x = x[t * x < 1.0]  # the pullback lives on [0, 1/t)
        got, want = D.values(x), composed(x)
        assert np.allclose(got, want, rtol=0.0, atol=1e-9), name


def test_derived_functions_skip_validation(monkeypatch):
    calls = []
    init = SpectralDensityFunction.__init__

    def counted(self, lams, vals):
        calls.append(1)
        init(self, lams, vals)

    F = SpectralDensityFunction([0.0, 1.0, 3.0], [1.0, 2.0, 4.0])
    G = SpectralDensityFunction.from_jumps([0.5, 2.0], [1.0, 1.0])
    monkeypatch.setattr(SpectralDensityFunction, "__init__", counted)
    for _name, D, _composed in _derived_cases(F, G, 2.0, 0.5, 0.1):
        assert D.lams.size
    assert calls == []
    rng = rng_for(4, 1)
    phi, xi = (random_map(rng, random_space(rng, dims[0]), random_space(rng, dims[1]))
               for dims in ((3, 3), (2, 4)))
    gamma = random_map(rng, xi.source, phi.target)
    check_block_matrix_F(CheckReport(), phi, gamma, xi)
    assert calls == []  # sdf_of_map of M, phi and xi builds from sorted values


def test_argument_change_that_merges_breakpoints_raises():
    F = SpectralDensityFunction([1.0, np.nextafter(1.0, 2.0)], [1.0, 2.0])
    # rounding maps both breakpoints to 1.0; no invalid function is stored
    with pytest.raises(ValueError):
        F.power_argument(1e6)


# -- the list algebra against the array formulas it replaced ---------------------------

_UNITS = (1.0, 0.5, 0.25, 1.0 / 3.0)
_POINTS = st.one_of(st.sampled_from([0.0, 1e-300, 1.0, math.nextafter(1.0, 2.0), 1e300]),
                    st.floats(0.0, 1e3), st.floats(0.0, 1e308))


@st.composite
def whole_step_functions(draw, max_size=8):
    """Whole counts of a unit, as the suites' functions hold; breakpoints
    from 0 to the largest doubles, neighbours included, so argument
    changes merge and overflow them."""
    lams = sorted(set(draw(st.lists(_POINTS, max_size=max_size))))
    jumps = draw(st.lists(st.integers(1, 4), min_size=len(lams), max_size=len(lams)))
    return SpectralDensityFunction.from_jumps(lams, jumps, draw(st.sampled_from(_UNITS)))


def _merged_or_overflowed(lams):
    """Whether the array form refused an argument change's breakpoints."""
    return bool(lams.size) and not ((lams[1:] > lams[:-1]).all() and lams[-1] < np.inf)


def _array_reduced(F):
    lams, counts = F.lams, F.counts
    f0 = float(counts[0]) if lams.size and lams[0] == 0.0 else 0.0
    return (lams, counts) if f0 == 0.0 else (lams[1:], counts[1:] - f0)


def _array_plus(F, G):
    pos = np.concatenate([F.lams, G.lams])
    jumps = np.concatenate([np.diff(F.counts, prepend=0.0), np.diff(G.counts, prepend=0.0)])
    order = np.argsort(pos, kind="stable")
    uniq, idx = np.unique(pos[order], return_index=True)
    jump = np.add.reduceat(jumps[order], idx) if jumps.size else jumps
    return uniq, np.cumsum(jump)


def _array_plus_constant(F, c):
    if c == 0:
        return F.lams, F.counts
    if F.lams.size and F.lams[0] == 0.0:
        return F.lams, F.counts + c
    return np.concatenate([[0.0], F.lams]), np.concatenate([[c], F.counts + c])


def _same(G, lams, counts, unit):
    assert G.lams.tobytes() == np.asarray(lams, dtype=float).tobytes()
    assert G.counts.tobytes() == np.asarray(counts, dtype=float).tobytes()
    assert G.unit == unit
    # Python floats throughout: a numpy scalar would slow every later step
    assert all(type(x) is float for x in (*G._lams, *G._counts))


@given(whole_step_functions(), whole_step_functions(),
       st.floats(1e-310, 1e10), st.floats(1e-3, 1e6), st.floats(0.0, 1e10),
       st.floats(0.0, 10.0))
def test_list_algebra_equals_the_array_formulas_bitwise(F, G, c, a, t, k):
    unit = F.unit
    R = F.reduced()
    _same(R, *_array_reduced(F), unit)

    with np.errstate(all="ignore"):
        scaled = F.lams / c
        moebius = F.lams / (c + t * F.lams)
    if F.max_breakpoint / c == math.inf:
        with pytest.raises(ValueError, match="^" + re.escape(f"c = {c} moves the breakpoints")):
            F.scaled_argument(c)
    elif _merged_or_overflowed(scaled):
        with pytest.raises(ValueError, match="merged or overflowed"):
            F.scaled_argument(c)
    else:
        _same(F.scaled_argument(c), scaled, F.counts, unit)
    if _merged_or_overflowed(moebius):
        with pytest.raises(ValueError, match="merged or overflowed"):
            _moebius_argument(F, c, t)
    else:
        _same(_moebius_argument(F, c, t), moebius, F.counts, unit)

    # Python's ** (libm's pow) raises where numpy's power gave inf, which
    # the array form refused as overflowed
    try:
        powered = np.array([x ** (1 / a) for x in F._lams])
    except OverflowError:
        powered = np.array([math.inf])
    if _merged_or_overflowed(powered):
        with pytest.raises(ValueError, match="merged or overflowed"):
            F.power_argument(a)
    else:
        _same(F.power_argument(a), powered, F.counts, unit)

    _same(F.plus_constant(k), *_array_plus_constant(F, k), unit)
    with pytest.raises(ValueError, match=r"^c must be in \[0, inf\), got inf$"):
        F.plus_constant(math.inf)
    with pytest.raises(ValueError, match=r"^c must be in \[0, inf\), got inf$"):
        F.scaled_argument(math.inf)

    if G.unit != unit:
        with pytest.raises(ValueError, match="cannot add step functions in units"):
            F.plus(G)
    else:
        _same(F.plus(G), *_array_plus(F, G), unit)
        _same(F.plus(R), *_array_plus(F, R), unit)


@given(st.lists(_POINTS, max_size=12))
def test_the_tie_shift_of_a_list_equals_that_of_an_array_bitwise(points):
    # the array form it replaced: max(x > 0, x) is max(1, x) for a positive
    # x and 0 otherwise
    shifted = tie_shifted(points)
    assert all(type(y) is float for y in shifted)
    x = np.array(points, dtype=float)
    assert np.array(shifted, dtype=float).tobytes() == (
        x + TIE_RTOL * np.maximum(x > 0.0, x)).tobytes()
