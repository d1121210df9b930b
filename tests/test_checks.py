import bisect
import functools
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from l2tor import checks
from l2tor.checks import (CheckReport, Violation, check_basic_F, check_block_matrix_F,
                          check_gromov_shubin, check_short_exact, run_suite, tie_shifted)
from l2tor.complexes import FiniteCochainComplex
from l2tor.rand import (random_homotopy_pair, random_short_exact_triple,
                        rng_for)
from l2tor.sdf import SpectralDensityFunction, sdf_of_map
from l2tor.traced import TracedMap, TracedSpace


def checked(check, *args, **kwargs):
    """The report of one checker call, decided."""
    report = CheckReport()
    check(report, *args, **kwargs)
    report.decide()
    return report


def recorded(check, *args):
    """The decided report of one checker call and the relations it
    recorded, by item."""
    report = CheckReport()
    check(report, *args)
    relations = {rel.item: rel for rel in report.pending}
    report.decide()
    return report, relations


def diag_map(entries):
    n = len(entries)
    s = TracedSpace(n)
    return TracedMap(s, s, np.diag(np.asarray(entries, dtype=float)))


def test_basic_identity_and_doubling():
    # f = id, g = 2*id: the composition inequality is an equality throughout
    f = TracedMap.identity(TracedSpace(3))
    g = diag_map([2.0, 2.0, 2.0])
    rep = checked(check_basic_F, f, g=g)
    assert rep.ok
    assert rep.probes > 0


def test_basic_square_identity_random():
    rng = rng_for(4, 0)
    from l2tor.rand import random_map, random_space
    for k in range(20):
        f = random_map(rng, random_space(rng, int(rng.integers(1, 6))),
                       random_space(rng, int(rng.integers(1, 6))))
        rep = checked(check_basic_F, f)
        assert rep.ok


def test_square_identity_takes_the_rank_of_f():
    # f keeps 5e-4 (ratio 5e-6 to the largest); in f*f the ratio is 2.5e-11,
    # below RANK_RTOL, yet ker(f*f) = ker f: item 6 must still see rank 2.
    # The squared value 2.5e-7 is far past the tie slack at 0.
    f = diag_map([100.0, 5e-4])
    assert f.rank() == 2
    assert (f.adjoint() @ f).rank() == 1
    rep = checked(check_basic_F, f)
    assert rep.ok, rep.violations
    # and a genuine kernel stays a kernel on both sides
    assert checked(check_basic_F, diag_map([1.0, 0.0])).ok


def test_equality_sees_a_kernel_disagreement_below_the_tie_slack():
    # f*f clamps the squared value 2.5e-11 into its kernel, while F_f at
    # sqrt(lambda) keeps it as a breakpoint at 2.5e-11, below the 1e-9 tie
    # slack; probing 0 unshifted shows the two disagree at 0
    f = diag_map([1.0, 5e-6])
    lhs = sdf_of_map(f.adjoint() @ f)
    rhs = sdf_of_map(f).power_argument(0.5)
    rep = CheckReport()
    rep.equal("square", lhs, [rhs])
    rep.decide()
    assert [(v.lam, v.lhs, v.rhs) for v in rep.violations] == [(0.0, 1.0, 0.0)]
    # the suite's square identity takes the rank of f, so it still holds
    assert checked(check_basic_F, f).ok


def test_basic_square_identity_regression_seed():
    # instance 0 of this seed draws f with singular values
    # [8.32, 3.28, 1.11, 0.743, 6.12e-5]; basic.6 used to report lhs 1, rhs 0
    rep = run_suite("basic", seed=799682287, instances=1, max_dim=6)
    assert rep.violations == []
    assert rep.probes == 173


def test_basic_subspace_conditions_regression_seed():
    # instance 0 of this seed draws ker g at 8.0e-6 rad from im f; principal
    # angles once called ker g contained in im f (1 - cos = 3.2e-11) and the
    # intersection nontrivial, and reduced.3 reported 4 violations at
    # lambda = 1.674e-5.  The ranks of f and g f see the angle, as the
    # densities do: reduced.1 is recorded and reduced.3 skipped
    rep = run_suite("basic", seed=4010320131, instances=1, max_dim=6)
    assert rep.violations == []
    assert rep.skipped == {"basic.2": 1, "reduced.2": 1, "reduced.3": 1}
    assert rep.probes == 59


@pytest.mark.parametrize("theta", [0.0, 1e-12, 8e-6, 1e-3])
def test_basic_kernel_of_g_at_an_angle_to_the_image_of_f(theta):
    # im f = span(e1, e2) in R^3 and ker g = span(cos t e2 + sin t e3): the
    # rank rule counts the meet of the two as g f does, so neither item can
    # be decided on densities that disagree with its side condition
    f = TracedMap(TracedSpace(2), TracedSpace(3), [[1.0, 0.0], [0.0, 0.7], [0.0, 0.0]])
    g = TracedMap(TracedSpace(3), TracedSpace(2),
                  [[1.3, 0.0, 0.0], [0.0, -0.9 * np.sin(theta), 0.9 * np.cos(theta)]])
    rep = checked(check_basic_F, f, g=g)
    assert rep.violations == []
    meets = theta * 0.7 <= 1e-10 * 1.3  # g f's small value is clamped
    skipped = {item for item, _ in rep.skipped} & {"reduced.1", "reduced.3"}
    assert skipped == ({"reduced.1"} if meets else {"reduced.3"})


def test_basic_shape_mismatch_rejected():
    f = TracedMap.identity(TracedSpace(3))
    g = TracedMap.identity(TracedSpace(2))
    with pytest.raises(ValueError):
        check_basic_F(CheckReport(), f, g=g)


@pytest.mark.parametrize("role", ["g", "i", "p"])
def test_basic_maps_through_other_spaces_rejected(role):
    # equal dimensions, another gram: g f, i f and f p would not compose
    f = TracedMap.identity(TracedSpace(1))
    other = TracedMap.identity(TracedSpace(1, 1.0, 3.0 * np.eye(1)))
    message = "p must land in the source of f" if role == "p" else f"{role} must be composable"
    with pytest.raises(ValueError, match=message):
        check_basic_F(CheckReport(), f, **{role: other})


def test_block_diagonal_additivity_exact():
    phi = diag_map([1.0, 3.0])
    xi = diag_map([2.0])
    gamma = TracedMap.zero(xi.source, phi.target)
    rep = checked(check_block_matrix_F, phi, gamma, xi)
    assert rep.ok
    items = {v.item for v in rep.violations}
    assert "block.1" not in items


def test_block_item4_identity_example():
    # phi = xi = 1, gamma = 0: the block map steps at 1, the scaled argument
    # pushes the comparison point down to 1/4
    one = diag_map([1.0])
    rep, relations = recorded(check_block_matrix_F, one,
                              TracedMap.zero(one.source, one.target), diag_map([1.0]))
    assert rep.ok
    # c4 = 2 (1 + |gamma| + |xi|) and c5 = 2 (1 + |gamma| + |phi|) are both 4
    for item in ("block.4", "block.5"):
        assert relations[item].rhs[0].lams.tolist() == [0.25]


def _regrammed(space, scale):
    """A space of the same dimension and normalization whose gram is scale
    times that of space."""
    return TracedSpace(space.dim, space.normalization, scale * space.gram)


@pytest.mark.parametrize("end", ["source", "target"])
def test_block_refuses_gamma_between_other_spaces(end):
    # equal dimensions, a 9·I gram: the block map would mix coordinates
    phi, xi = diag_map([1.0, 3.0]), diag_map([2.0, 0.5])
    source = _regrammed(xi.source, 9.0) if end == "source" else xi.source
    target = _regrammed(phi.target, 9.0) if end == "target" else phi.target
    gamma = TracedMap(source, target, np.ones((2, 2)))
    with pytest.raises(ValueError, match=f"gamma has wrong {end}"):
        check_block_matrix_F(CheckReport(), phi, gamma, xi)


@pytest.mark.parametrize("ends", ["sources", "targets"])
def test_block_refuses_summands_of_different_normalizations(ends):
    # U1 + U2 and V1 + V2 are traced spaces only with one normalization each
    phi = diag_map([1.0, 3.0])
    one, half = TracedSpace(1), TracedSpace(1, 0.5)
    xi = TracedMap(half, one, [[2.0]]) if ends == "sources" else TracedMap(one, half, [[2.0]])
    gamma = TracedMap.zero(xi.source, phi.target)
    with pytest.raises(ValueError, match="phi and xi act between spaces of different normalizations"):
        check_block_matrix_F(CheckReport(), phi, gamma, xi)


def test_block_accepts_gamma_between_equal_spaces():
    phi, xi = diag_map([1.0, 3.0]), diag_map([2.0, 0.5])
    gamma = TracedMap(_regrammed(xi.source, 1.0), _regrammed(phi.target, 1.0), np.ones((2, 2)))
    same = TracedMap(xi.source, phi.target, np.ones((2, 2)))
    assert checked(check_block_matrix_F, phi, gamma, xi) == checked(check_block_matrix_F,
                                                                     phi, same, xi)


def test_block_random_suite_small():
    rep = run_suite("block", seed=11, instances=60, max_dim=4)
    assert rep.ok
    assert rep.probes > 1000


def test_short_exact_split_zero_differentials():
    # split triple with zero differentials: all reduced densities vanish
    z2, z1 = TracedSpace(2), TracedSpace(1)
    C = FiniteCochainComplex([z2, z2], [TracedMap.zero(z2, z2)])
    E = FiniteCochainComplex([z1, z1], [TracedMap.zero(z1, z1)])
    d = TracedSpace(3)
    D = FiniteCochainComplex([d, d], [TracedMap.zero(d, d)])
    j = [TracedMap(z2, d, np.vstack([np.eye(2), np.zeros((1, 2))]))] * 2
    q = [TracedMap(d, z1, np.hstack([np.zeros((1, 2)), np.eye(1)]))] * 2
    from l2tor.complexes import ShortExactTriple
    T = ShortExactTriple(C, D, E, j, q)
    rep, relations = recorded(check_short_exact, T, 0)
    assert rep.ok
    # with |d^0| = 0 the stated range ends at c1 = 4^{-1/2}
    assert relations["short-exact[p=0]"].upper == 0.5


def test_short_exact_random_triples():
    rng = rng_for(4, 1)
    for k in range(25):
        dims_c = [int(rng.integers(0, 3)) for _ in range(3)]
        dims_e = [int(rng.integers(0, 3)) for _ in range(3)]
        dims_c[0] = max(dims_c[0], 1)
        dims_e[0] = max(dims_e[0], 1)
        T = random_short_exact_triple(rng, dims_c, dims_e,
                                      log_sing_range=(-3.0, 1.0))
        for p in range(3):
            rep = checked(check_short_exact, T, p)
            assert rep.ok, (k, p, rep.violations)


def test_gromov_shubin_identity_equality():
    # f = g = id, T = 0: infinite threshold, comparison with scale one
    rng = rng_for(4, 2)
    from l2tor.rand import random_complex
    C = random_complex(rng, [2, 3, 2])
    n = C.top_degree + 1
    f = [TracedMap.identity(C.space(p)) for p in range(n)]
    T = [TracedMap.zero(C.space(p), C.space(p - 1) if p else TracedSpace(0))
         for p in range(n)]
    for p in range(n):
        rep, relations = recorded(check_gromov_shubin, C, C, f, f, T, p)
        assert rep.ok
        relation = relations[f"gromov-shubin[p={p}]"]
        assert relation.upper == np.inf
        if p < n - 1:
            # scale one: the right side steps where the left side does
            assert relation.rhs[0].lams == pytest.approx(relation.lhs.lams)


def test_gromov_shubin_homotopy_residual_rejected():
    rng = rng_for(4, 3)
    from l2tor.rand import random_complex
    C = random_complex(rng, [2, 2])
    n = 2
    f = [TracedMap.identity(C.space(p)) for p in range(n)]
    bad_g = [TracedMap(C.space(p), C.space(p), 2.0 * np.eye(C.space(p).dim))
             for p in range(n)]
    T = [TracedMap.zero(C.space(p), C.space(p - 1) if p else TracedSpace(0))
         for p in range(n)]
    with pytest.raises(ValueError):
        check_gromov_shubin(CheckReport(), C, C, f, bad_g, T, 0)


def _rebuilt(maps, degree, end, scale):
    """The lists f, g, T with one map's source or target regrammed by scale."""
    h = maps[degree]
    source = _regrammed(h.source, scale) if end == "source" else h.source
    target = _regrammed(h.target, scale) if end == "target" else h.target
    return [*maps[:degree], TracedMap(source, target, h.coefficients), *maps[degree + 1:]]


@pytest.mark.parametrize("name, degree, end", [
    ("f", 0, "source"), ("f", 1, "target"), ("g", 0, "source"), ("g", 0, "target"),
    ("T", 1, "source"), ("T", 1, "target"),
])
def test_gromov_shubin_refuses_maps_between_other_spaces(name, degree, end):
    # each map degree 0 reads, rebuilt into a 25·I-gram copy of its space:
    # the homotopy residual reads coefficients only, so only the spaces tell
    C, D, f, g, T = random_homotopy_pair(rng_for(4, 5), [2, 3, 2])
    maps = {"f": f, "g": g, "T": T}
    maps[name] = _rebuilt(maps[name], degree, end, 25.0)
    with pytest.raises(ValueError, match=f"{name}_{degree} has wrong {end}"):
        check_gromov_shubin(CheckReport(), C, D, maps["f"], maps["g"], maps["T"], 0)


def test_gromov_shubin_accepts_maps_between_equal_spaces():
    C, D, f, g, T = random_homotopy_pair(rng_for(4, 5), [2, 3, 2])
    copied = _rebuilt(_rebuilt(f, 1, "target", 1.0), 1, "source", 1.0)
    assert checked(check_gromov_shubin, C, D, copied, g, T, 0) == checked(
        check_gromov_shubin, C, D, f, g, T, 0)


def test_gromov_shubin_cone_pairs():
    rng = rng_for(4, 4)
    for k in range(20):
        dims = [int(rng.integers(1, 5)) for _ in range(int(rng.integers(2, 4)))]
        C, D, f, g, T = random_homotopy_pair(rng, dims)
        for p in range(len(dims)):
            rep = checked(check_gromov_shubin, C, D, f, g, T, p)
            assert rep.ok, (k, p, rep.violations)


def test_suite_reports_are_deterministic():
    a = run_suite("basic", seed=5, instances=10, max_dim=4).to_dict()
    b = run_suite("basic", seed=5, instances=10, max_dim=4).to_dict()
    assert a == b


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nope", seed=1, instances=1)


@pytest.mark.parametrize("kwargs, message", [
    ({"instances": -3}, "instances must be an integer in [1, inf), got -3"),
    ({"instances": 0}, "instances must be an integer in [1, inf), got 0"),
    ({"max_dim": 0}, "max_dim must be an integer in [1, inf), got 0"),
    ({"seed": -1}, "seed must be an integer in [0, inf), got -1"),
], ids=["kwargs0-instances must be at least 1, got -3",  # ids recorded under the old wording
        "kwargs1-instances must be at least 1, got 0", "kwargs2-max_dim must be at least 1, got 0",
        "kwargs3-seed must be at least 0, got -1"])
def test_run_suite_refuses_counts_that_check_nothing(kwargs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_suite("basic", **{"seed": 1, "instances": 1, "max_dim": 3, **kwargs})


_CHECKERS = ("check_basic_F", "check_block_matrix_F", "check_short_exact",
             "check_gromov_shubin")


@pytest.mark.parametrize("suite, checker, per_degree", [
    ("basic", "check_basic_F", False),
    ("block", "check_block_matrix_F", False),
    ("short-exact", "check_short_exact", True),
    ("gromov-shubin", "check_gromov_shubin", True),
    ("laplacian", None, False),
])
def test_suites_call_the_public_checkers(monkeypatch, suite, checker, per_degree):
    # a wrapper on the module attribute sees every call a suite makes, as a
    # tracer does; each call records into the instance's one report
    calls = {name: [] for name in _CHECKERS}

    def counting(name, check):
        def wrapper(report, *args, **kwargs):
            calls[name].append((report, args[-1]))
            return check(report, *args, **kwargs)
        return wrapper

    for name in _CHECKERS:
        monkeypatch.setattr(checks, name, counting(name, getattr(checks, name)))
    assert run_suite(suite, seed=20240801, instances=1, max_dim=6).ok
    assert {name for name, seen in calls.items() if seen} == ({checker} if checker else set())
    if checker:
        reports, last_args = zip(*calls[checker])
        assert len({id(r) for r in reports}) == 1
        if per_degree:
            assert 2 <= len(last_args) <= 4 and list(last_args) == list(range(len(last_args)))
        else:
            assert len(last_args) == 1


# seed 20240801, 30 instances, max_dim 6: any change to a generator, a checker or
# the evaluation of step functions that moves a probe or a skip shows here
_SUITE_COUNTS = {
    "basic": (2633, {"reduced.1": 7, "basic.2": 12, "reduced.2": 12, "reduced.3": 11}),
    "block": (1947, {"block.r4": 15, "block.2": 4, "block.5": 1}),
    "short-exact": (209, {}),
    "gromov-shubin": (136, {}),
    "laplacian": (189, {}),
}


@pytest.mark.parametrize("suite", sorted(_SUITE_COUNTS))
def test_suite_counts_are_pinned(suite):
    rep = run_suite(suite, seed=20240801, instances=30, max_dim=6)
    probes, skipped = _SUITE_COUNTS[suite]
    assert rep.probes == probes
    assert rep.violations == []
    assert rep.skipped == skipped


THIRD = 1.0 / 3.0  # a unit float sums miss: six thirds add up to 1.9999999999999998


def _steps_at(points):
    """Step functions of up to six one-count jumps at the points drawn."""
    return st.lists(points, max_size=6).map(
        lambda pos: SpectralDensityFunction.from_jumps(pos, np.ones(len(pos)), THIRD))


_steps = _steps_at(st.floats(min_value=0.0, max_value=50.0))


def _reference_count(F, x):
    """The count of F at x by a bisect count of the breakpoints <= x."""
    count = bisect.bisect_right(F.lams.tolist(), x)
    return float(F.counts[count - 1]) if count else 0.0


# -- the decider's points and probe count, by the rule as documented ------------------


def decided_points(functions, upper=np.inf):
    """0 and the distinct breakpoints of the functions below upper: where
    the decider evaluates a relation."""
    points = np.unique(np.concatenate([F.probe_points() for F in functions]))
    return points[points < upper]


def cluster_count(points):
    """The clusters of the sorted points, each a point and every later point
    up to its tie shift: the decider's probe count."""
    count, reach = 0, -np.inf
    for x in points.tolist():
        if x > reach:
            count, reach = count + 1, tie_shifted([x])[0]
    return count


# -- the per-relation checkers of the grid before clusters, kept as an oracle ---------

RANGE_END_RTOL = 1e-12  # the oracle's last probe of [0, upper) is upper * (1 - RANGE_END_RTOL)


def _old_points(F):
    """0, the breakpoints, their midpoints and a point past the top: the
    probe points of F before clusters."""
    return np.concatenate([[0.0], F.lams, 0.5 * (F.lams[1:] + F.lams[:-1]),
                           [1.1 * F.max_breakpoint + 1.0]])


def probe_grid(functions):
    """Sorted distinct probe points of all the functions before clusters:
    each function is constant from one point to the next and past the last."""
    return np.unique(np.concatenate([_old_points(F) for F in functions]))


def _counts(F, lams):
    """The counts of F at every point of lams."""
    return np.concatenate([[0.0], F.counts])[np.searchsorted(F.lams, lams, side="right")]


def _sum_counts(terms, lams):
    """Sum of the terms' counts at every point of lams, added in order."""
    return sum((_counts(t, lams) for t in terms), np.zeros(lams.shape))


def _check_leq(item, lhs, rhs, report, upper=np.inf, constant=0.0):
    """Check lhs <= constant + sum of rhs on [0, upper) in counts and return
    the smallest margin rhs - lhs where lhs > 0 (None if lhs vanishes
    there), as count * unit."""
    probes = probe_grid([lhs, *rhs])
    probes = probes[probes < upper]
    if np.isfinite(upper):
        probes = np.append(probes, upper * (1.0 - RANGE_END_RTOL))
    report.probes += probes.size
    # the tie shift widens only the right side, never inflating the left
    lvals = _counts(lhs, probes)
    rvals = constant + _sum_counts(rhs, np.array(tie_shifted(probes.tolist())))
    for k in np.flatnonzero(lvals > rvals):
        report.violations.append(Violation(item, float(probes[k]), float(lvals[k] * lhs.unit),
                                           float(rvals[k] * lhs.unit)))
    margins = (rvals - lvals)[lvals > 0.0]
    return float(margins.min() * lhs.unit) if margins.size else None


def _check_equal(item, lhs, rhs, report):
    probes = probe_grid([lhs, *rhs])
    report.probes += probes.size
    shifted = np.array(tie_shifted(probes.tolist()))
    lvals = _counts(lhs, shifted)
    rvals = _sum_counts(rhs, shifted)
    for k in np.flatnonzero(lvals != rvals):
        report.violations.append(Violation(item, float(probes[k]), float(lvals[k] * lhs.unit),
                                           float(rvals[k] * lhs.unit)))
    return float(np.max(np.abs(lvals - rvals))) * lhs.unit


def _decided(relations):
    """Record the relations (equal?, item, lhs, rhs, upper, constant) in one
    report and decide them once; returns the report and the margins."""
    report = CheckReport()
    for equal, item, lhs, rhs, upper, constant in relations:
        if equal:
            report.equal(item, lhs, rhs)
        else:
            report.leq(item, lhs, rhs, upper=upper, constant=constant)
    return report, report.decide()


def _bits(x):
    return None if x is None else float(x).hex()


def _records(report):
    return [(v.item, _bits(v.lam), _bits(v.lhs), _bits(v.rhs)) for v in report.violations]


@given(st.lists(_steps, min_size=1, max_size=4),
       st.lists(st.floats(min_value=0.0, max_value=60.0), max_size=10))
def test_side_values_match_scalar_sum_bitwise(terms, pts):
    # a left side above every right side makes each probe a violation, which
    # shows the decider's values: the left side's count at the probe, the
    # right side's counts summed in order at its tie shift, each times the unit
    lhs = SpectralDensityFunction.from_jumps([0.0, *pts], [100.0] + [1.0] * len(pts), THIRD)
    report, _ = _decided([(False, "item", lhs, terms, np.inf, 0.0)])
    probes = decided_points([lhs, *terms])
    assert [v.lam for v in report.violations] == probes.tolist()
    expected = [sum(_reference_count(t, v) for t in terms) * THIRD
                for v in tie_shifted(probes.tolist())]
    assert np.array([v.rhs for v in report.violations]).tobytes() == \
        np.array(expected).tobytes()
    assert [v.lhs for v in report.violations] == [
        _reference_count(lhs, v) * THIRD for v in probes]


@given(_steps, st.lists(_steps, min_size=1, max_size=3), st.sampled_from([0.0, 1.0, 2.0]))
def test_check_leq_shifts_only_the_right_side(lhs, terms, constant):
    report, (margin,) = _decided([(False, "item", lhs, terms, np.inf, constant)])
    probes = decided_points([lhs, *terms])
    lvals = np.array([_reference_count(lhs, v) for v in probes])
    rvals = np.array([constant + sum(_reference_count(t, v) for t in terms)
                      for v in tie_shifted(probes.tolist())])
    assert report.probes == cluster_count(probes)
    assert [(v.lam, v.lhs, v.rhs) for v in report.violations] == [
        (probes[k], lvals[k] * THIRD, rvals[k] * THIRD) for k in np.flatnonzero(lvals > rvals)]
    positive = lvals > 0.0
    assert margin == (float(np.min((rvals - lvals)[positive])) * THIRD
                      if positive.any() else None)


def test_tie_slack_forgives_only_rounding_sized_moves():
    # a right-side breakpoint displaced upward by rounding is a tie for both
    # relations; one moved by more than the slack is a violation: the right
    # side is read 1e-9 past each breakpoint
    early = SpectralDensityFunction([1.0], [1.0])
    for gap, ok in [(5e-10, True), (1e-9, True), (2e-9, False), (1e-8, False), (1e-6, False)]:
        late = SpectralDensityFunction([1.0 + gap], [1.0])
        leq, _ = _decided([(False, "leq", early, [late], np.inf, 0.0)])
        equal, _ = _decided([(True, "equal", early, [late], np.inf, 0.0)])
        assert leq.ok == ok and equal.ok == ok
        if not ok:
            assert [(v.lam, v.lhs, v.rhs) for v in leq.violations] == [(1.0, 1.0, 0.0)]


@pytest.mark.parametrize("upper", [0.0, -1.0, -np.inf])
def test_an_empty_range_has_no_probe(upper):
    # [0, upper) is empty: a left side above the right at 0 is not probed
    kernel, empty = SpectralDensityFunction([0.0], [2.0]), SpectralDensityFunction([], [])
    report = CheckReport()
    report.leq("empty-range", kernel, [empty], upper=upper)
    assert report.decide() == [None]
    assert report.violations == [] and report.probes == 0


@st.composite
def _relation_batches(draw, near_breakpoints=True, clustered=False):
    """Relations over a shared pool of functions: inequalities and
    equalities, with and without a range bound, some built to hold (the
    left side is the sum of the right) and some with a step added on
    purpose, so that the batch holds violations.  A range may end just
    past a breakpoint (near_breakpoints) or be empty.  Clustered batches
    put every breakpoint at base * (1 + j * delta) for j in 0..8 and delta
    between 1e-10 and 2e-9, so that clusters hold several points and
    differ by less than a tie shift and by more."""
    points = st.floats(0.0, 50.0)
    if clustered:
        base, delta = draw(st.floats(0.5, 50.0)), draw(st.floats(1e-10, 2e-9))
        points = st.integers(0, 8).map(lambda j: base * (1.0 + j * delta))
    pool = draw(st.lists(_steps_at(points), min_size=1, max_size=5))
    relations = []
    for k in range(draw(st.integers(1, 8))):
        equal = draw(st.booleans())
        rhs = [pool[j] for j in draw(st.lists(st.integers(0, len(pool) - 1), max_size=3))]
        lhs = draw(st.sampled_from(["pool", "sum", "sum+step"]))
        if lhs == "pool":
            lhs = pool[draw(st.integers(0, len(pool) - 1))]
        else:
            at = [draw(points)] if lhs == "sum+step" else []
            step = SpectralDensityFunction.from_jumps(at, np.ones(len(at)), THIRD)
            lhs = functools.reduce(SpectralDensityFunction.plus, rhs, step)
        past = [float(np.nextafter(x, np.inf)) for F in (lhs, *rhs)
                for x in F.lams] if near_breakpoints else []
        upper = draw(st.sampled_from([np.inf, -np.inf, -1.0, 0.0, 0.5, 7.0, 60.0, *past]))
        constant = draw(st.sampled_from([0.0, 1.0, 2.0]))
        relations.append((equal, f"r{k}", lhs, rhs, upper, constant))
    return relations


def _matches_the_oracle(relations):
    """Decide the relations and compare each with the per-relation checkers
    of the grid before clusters, wherever that grid probed only inside the
    range: the violations are the oracle's at 0 and the breakpoints, and
    the margins agree bit for bit and the verdicts agree.  An empty range
    has no probe.  Below about 1e-304 the oracle's range-end probe
    upper * (1 - RANGE_END_RTOL) rounds to upper itself, outside the range.

    The one exception is an equality with two breakpoints closer than the
    tie shift: the old grid also read the sides at the tie shift of
    midpoints and of a point past the top, and one of these can fall
    between two such breakpoints, where the sides differ only by rounding,
    and report that tie.  There the margin is at most the oracle's."""
    # an equality is decided on [0, inf) whatever upper was drawn
    relations = [(equal, item, lhs, rhs, np.inf if equal else upper, constant)
                 for equal, item, lhs, rhs, upper, constant in relations]
    report, margins = _decided(relations)
    assert report.probes == sum(
        cluster_count(decided_points([lhs, *rhs], upper))
        for _, _, lhs, rhs, upper, _ in relations)
    oracle = CheckReport()
    for (equal, item, lhs, rhs, upper, constant), margin in zip(relations, margins):
        found = [r for r in _records(report) if r[0] == item]
        if upper <= 0.0:
            assert margin is None and found == []
            continue
        if np.isfinite(upper) and upper * (1.0 - RANGE_END_RTOL) == upper:
            continue
        before = len(oracle.violations)
        expected = (_check_equal(item, lhs, rhs, oracle) if equal
                    else _check_leq(item, lhs, rhs, oracle, upper, constant))
        points = decided_points([lhs, *rhs], upper)
        at_points = {_bits(x) for x in points}
        assert found == [r for r in _records(oracle)[before:] if r[1] in at_points]
        if equal and cluster_count(points) < points.size:
            assert margin <= expected and (margin == 0.0) == (found == [])
        else:
            assert _bits(margin) == _bits(expected)
            assert bool(found) == (len(oracle.violations) > before)


@given(_relation_batches())
def test_decider_matches_the_per_relation_checkers_bitwise(relations):
    _matches_the_oracle(relations)


@settings(max_examples=200)
@given(_relation_batches(clustered=True))
def test_decider_matches_the_per_relation_checkers_on_clustered_breakpoints(relations):
    # breakpoints within a few tie shifts of each other: a violation at an
    # early point of a cluster is reported as at any other point.  The
    # profile's 60 examples draw few batches where that matters
    _matches_the_oracle(relations)


def test_a_violation_early_in_a_cluster_is_reported():
    # 1 and 1 + 8e-10 are one cluster, one probe; the right side's jump at
    # 1 + 1.5e-9 lies past the tie shift of 1, so the left side is ahead
    # there, though not at the tie shift of 1 + 8e-10
    lhs = SpectralDensityFunction([1.0, 1.0 + 8e-10], [1.0, 2.0])
    rhs = SpectralDensityFunction([1.0 + 1.5e-9], [2.0])
    report, margins = _decided([(False, "leq", lhs, [rhs], np.inf, 0.0),
                                (True, "equal", lhs, [rhs], np.inf, 0.0)])
    assert margins == [-1.0, 2.0] and report.probes == 2 * 3
    assert [(v.item, v.lam, v.lhs, v.rhs) for v in report.violations] == [
        ("leq", 1.0, 1.0, 0.0), ("equal", 1.0, 2.0, 0.0)]


def test_an_equality_tie_is_forgiven_whatever_lies_near_it():
    # the sides jump at 1 + 5d and 1 + 6d, 4e-10 apart: a tie, with or
    # without the shared jumps at 1 + 2d and 1 + 4d.  The old grid read the
    # sides at the tie shift of the midpoint 1 + 3d, which falls between the
    # two, and reported the tie as a violation
    d = 4e-10
    for shared in ([], [1 + 2 * d, 1 + 4 * d]):
        F = SpectralDensityFunction.from_jumps([*shared, 1 + 5 * d], np.ones(len(shared) + 1), 1.0)
        G = SpectralDensityFunction.from_jumps([*shared, 1 + 6 * d], np.ones(len(shared) + 1), 1.0)
        report, margins = _decided([(True, "equal", F, [G], np.inf, 0.0)])
        assert margins == [0.0] and report.ok
    assert _check_equal("equal", F, [G], CheckReport()) == 1.0


def _moved(relations, rng):
    """The relations with every positive breakpoint of their functions moved
    by up to 4 ulps either way and kept positive, one moved copy per
    function; a breakpoint at 0 is a kernel and stays.  The bits of a
    positive double count its ulps."""
    moved = {}

    def move(F):
        if id(F) not in moved:
            bits = F.lams.view(np.int64)
            shifted = bits + rng.integers(-4, 5, bits.size) * (bits > 0)
            lams = np.where(shifted > 0, shifted, bits).view(float)
            moved[id(F)] = SpectralDensityFunction.from_jumps(
                lams, np.diff(F.counts, prepend=0.0), F.unit)
        return moved[id(F)]

    return [rel._replace(lhs=move(rel.lhs), rhs=[move(F) for F in rel.rhs])
            for rel in relations]


def _probe_counts(relations):
    """The probes of each relation, decided alone."""
    return [checks._decide([rel])[0] for rel in relations]


def _on_an_edge(functions, upper):
    """Whether a positive breakpoint lies within rounding of the reach of a
    cluster or of the range end upper: there a move of a few ulps moves it
    into or out of a cluster or the range, and so moves the count."""
    points = np.unique(np.concatenate([F.lams for F in functions]))
    reach = -np.inf
    for x in points[points > 0.0].tolist():
        if min(abs(x - reach), abs(x - upper)) <= 1e-12 * max(1.0, x):
            return True
        if x > reach:
            reach = tie_shifted([x])[0]
    return False


@given(_relation_batches(near_breakpoints=False), st.integers(0, 2**32 - 1))
def test_probe_counts_ignore_the_last_bits_of_breakpoints(relations, seed):
    # the sum and its terms, moved apart by rounding, are probed as before
    report = CheckReport()
    for equal, item, lhs, rhs, upper, constant in relations:
        edge = upper if not equal and upper > 0.0 else np.inf
        assume(not _on_an_edge([lhs, *rhs], edge))
        if equal:
            report.equal(item, lhs, rhs)
        else:
            report.leq(item, lhs, rhs, upper=upper, constant=constant)
    moved = _moved(report.pending, np.random.default_rng(seed))
    assert _probe_counts(moved) == _probe_counts(report.pending)


@functools.cache
def _seed_7_decisions(suite):
    """The relations of every decision of the suite at seed 7, 200
    instances, max_dim 6."""
    decisions, decide = [], checks._decide

    def recorded(relations):
        decisions.append(relations)
        return decide(relations)

    with mock.patch.object(checks, "_decide", recorded):
        run_suite(suite, seed=7, instances=200, max_dim=6)
    return decisions


@pytest.mark.parametrize("suite", ["basic", "block", "laplacian"])
def test_suite_probe_counts_ignore_the_last_bits_of_breakpoints(suite):
    # the suites whose relations hold rounding twins (breakpoints within
    # 1e-12 of each other); every decision, each moved at random
    rng = np.random.default_rng(7)
    for relations in _seed_7_decisions(suite):
        assert _probe_counts(_moved(relations, rng)) == _probe_counts(relations)


def test_sides_one_count_apart_at_unit_third_are_a_violation():
    # values are compared as whole counts, with no slack, and reported as
    # count * unit
    two = SpectralDensityFunction.from_jumps([1.0, 2.0], [1.0, 1.0], THIRD)
    three = SpectralDensityFunction.from_jumps([1.0, 2.0], [1.0, 2.0], THIRD)
    report = CheckReport()
    report.leq("leq", three, [two])
    report.equal("equal", two, [three])
    assert report.decide() == [-THIRD, THIRD]
    assert [(v.item, v.lam, v.lhs, v.rhs) for v in report.violations] == [
        ("leq", 2.0, 3 * THIRD, 2 * THIRD), ("equal", 2.0, 2 * THIRD, 3 * THIRD)]


def test_three_one_count_functions_sum_to_three_counts_exactly():
    one = SpectralDensityFunction.from_jumps([0.5], [1.0], THIRD)
    three = SpectralDensityFunction.from_jumps([0.5], [3.0], THIRD)
    total = one.plus(one).plus(one)
    assert total.counts.tolist() == [3.0] and total.unit == THIRD
    report = CheckReport()
    report.equal("plus", three, [total])
    report.equal("terms", three, [one, one, one])
    assert report.decide() == [0.0, 0.0]
    assert report.ok


def test_functions_in_different_units_are_refused():
    third = SpectralDensityFunction.from_jumps([0.5], [1.0], THIRD)
    half = SpectralDensityFunction.from_jumps([0.5], [1.0], 0.5)
    with pytest.raises(ValueError, match="units"):
        third.plus(half)
    report = CheckReport()
    report.leq("same", third, [third])
    report.leq("mixed", third, [third, half])
    with pytest.raises(ValueError, match="^mixed: .*units"):
        report.decide()


def test_a_violation_found_without_probing_keeps_its_place():
    # fail() decides what was recorded before it, so violations stay in the
    # order their relations and findings were recorded
    one, two = SpectralDensityFunction([1.0], [1.0]), SpectralDensityFunction([2.0], [1.0])
    report = CheckReport()
    report.leq("first", one, [two])
    report.fail(Violation("found", 0.0, 1.0, 2.0))
    report.leq("second", one, [two])
    assert report.decide() == [-1.0]
    assert [v.item for v in report.violations] == ["first", "found", "second"]
    with pytest.raises(ValueError, match=r"^upper must be in \[-inf, inf\], got nan$"):
        report.leq("nan", one, [two], upper=float("nan"))


@pytest.mark.parametrize("suite", ["basic", "block"])
def test_an_instance_probes_each_function_once_and_decides_once(monkeypatch, suite):
    # the breakpoints of every distinct function of the instance are read
    # once in its one decision, no function is asked for its probe points
    # on its own, and no breakpoint or count array is built while the
    # instance runs: the algebra and the decision work on the lists the
    # functions keep
    reads, built, probed, batches, deciding = [], [], [], [], []
    decide = checks._decide
    slot = SpectralDensityFunction.__dict__["_lams"]

    def read_lams(F):
        if deciding:
            reads.append(id(F))
        return slot.__get__(F)

    def counted_decide(relations):
        batches.append(relations)
        deciding.append(True)
        try:
            return decide(relations)
        finally:
            deciding.pop()

    def counted_array(name):
        get = SpectralDensityFunction.__dict__[name].fget
        return property(lambda F: built.append(name) or get(F))

    monkeypatch.setattr(checks, "_decide", counted_decide)
    monkeypatch.setattr(SpectralDensityFunction, "_lams", property(read_lams, slot.__set__))
    for name in ("lams", "counts"):
        monkeypatch.setattr(SpectralDensityFunction, name, counted_array(name))
    monkeypatch.setattr(SpectralDensityFunction, "probe_points", lambda F: probed.append(F))
    report = run_suite(suite, seed=20240801, instances=1, max_dim=6)
    assert report.probes > 0
    assert len(batches) == 1 and len(batches[0]) >= 8
    distinct = {id(F) for rel in batches[0] for F in (rel.lhs, *rel.rhs)}
    assert sorted(reads) == sorted(distinct)
    assert probed == [] and built == []


@given(st.lists(_steps, min_size=1, max_size=5))
def test_the_decider_gives_each_function_its_probe_points_bitwise(funcs):
    # _steps draws empty and one-breakpoint functions too; each function is
    # decided against itself, and against itself plus one count, which
    # fails at every probe and so shows where the decision probes
    report = CheckReport()
    for k, F in enumerate(funcs):
        report.equal(f"f{k}", F, [F])
        report.equal(f"g{k}", F.plus_constant(1.0), [F])
    assert report.decide() == [0.0, THIRD] * len(funcs)
    for k, F in enumerate(funcs):
        assert F.probe_points().tobytes() == np.concatenate([[0.0], F.lams]).tobytes()
        lams = [v.lam for v in report.violations if v.item == f"g{k}"]
        assert np.array(lams).tobytes() == decided_points([F]).tobytes()
    assert report.probes == 2 * sum(cluster_count(decided_points([F])) for F in funcs)


def test_the_lookup_reads_zero_below_a_first_breakpoint_and_on_empty_functions():
    empty, late = SpectralDensityFunction([], []), SpectralDensityFunction([2.0], [1.0])
    report = CheckReport()
    report.equal("empty", empty, [empty, empty])
    assert report.decide() == [0.0]  # a decision with no breakpoint at all
    report.leq("late", late, [late])
    report.equal("late-empty", late, [empty])
    report.leq("empty-late", empty, [late])
    assert report.decide() == [0.0, 1.0, None]
    assert [(v.item, v.lam, v.lhs, v.rhs) for v in report.violations] == [
        ("late-empty", 2.0, 1.0, 0.0)]


def _two_pass_grid(lhs, terms):
    """The grid as it was built before probe_grid: each function's points
    uniqued, the right side's terms uniqued together, then both sides."""
    def points(F):
        pts = [0.0, *F.lams]
        if F.lams.size > 1:
            pts.extend(0.5 * (F.lams[1:] + F.lams[:-1]))
        pts.append(1.1 * F.max_breakpoint + 1.0)
        return np.unique(np.asarray(pts, dtype=float))

    rhs = np.unique(np.concatenate([points(t) for t in terms] or [np.array([0.0])]))
    return np.unique(np.concatenate([points(lhs), rhs]))


@given(_steps, st.lists(_steps, max_size=4))
def test_probe_grid_matches_the_two_pass_grid_bitwise(lhs, terms):
    assert probe_grid([lhs, *terms]).tobytes() == _two_pass_grid(lhs, terms).tobytes()


def test_no_tolerance_parameters():
    # tolerances and flags are fixed constants, never parameters
    import inspect
    import pkgutil

    import l2tor
    from l2tor import (anomaly, checks, complexes, heattrace, hyperbolic, kernels1d,
                       spectrum)

    banned = {"rank_rtol", "reduced", "use_stated_range", "homotopy_atol",
              "structure_atol", "validate", "identity_gram", "tries", "cond_threshold",
              "flat_threshold", "closed_form_atol", "crosscheck_atol", "value_atol",
              "n_grid", "c2_candidates", "max_gap", "dps", "x_probes", "tie_rtol",
              "margin_key", "x_grid", "t_grid", "u_probes"}
    seen = 0
    for info in pkgutil.iter_modules(l2tor.__path__):
        module = __import__(f"l2tor.{info.name}", fromlist=["_"])
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).values() if inspect.isclass(obj) else [obj]
            for fn in members:
                fn = getattr(fn, "__func__", getattr(fn, "func", fn))
                if inspect.isfunction(fn):
                    seen += 1
                    assert not banned & set(inspect.signature(fn).parameters), fn
    assert seen > 100
    for fn in (checks._decide, checks.CheckReport.leq, checks.CheckReport.equal,
               complexes.ShortExactTriple.validate,
               complexes.laplacian_sdf_decomposition, heattrace.large_time_dominating_bound):
        assert not {"atol", "value_atol"} & set(inspect.signature(fn).parameters), fn
    # _exact_sum sums the terms it is given, so `terms` is banned only where
    # it was a knob
    for fn in (kernels1d.boundary_insensitivity_check,
               hyperbolic.PlancherelTable.validate, spectrum._theta_dual_sum,
               anomaly.ConformalFamily.validate):
        assert "terms" not in inspect.signature(fn).parameters, fn
    # a finite spectrum's expansion is its constant term at every m, so the
    # analytic functions of a spectrum take no dimension parameter
    for fn in (heattrace.HeatTraceModel.from_spectrum, heattrace.zeta_det,
               heattrace.zeta_det_with_error):
        assert "m" not in inspect.signature(fn).parameters, fn
