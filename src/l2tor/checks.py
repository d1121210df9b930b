"""Property checkers for the spectral-density inequalities.

Each of the four checkers takes the CheckReport to record into as its
first argument and records one family of step-function relations there,
skipping items whose side conditions fail (the kernel-subtracted variants
always run); no checker decides.  A suite instance records all its
relations, over every degree, in one report, and run_suite decides that
report once, in Python floats, one relation at a time.  Each relation is
decided at 0 and at every breakpoint of its functions in its range, the
breakpoints listed once per function and decision, and the violations come
in the order recorded; its probes are counted once per cluster of
breakpoints.  No other module decides a relation between step functions.
Ranks come from the rank rule (traced.nonzero_mask).  Values are whole
counts of one unit and are compared exactly; the one slack,
config.TIE_RTOL, forgives breakpoints that differ only by eigensolve
rounding: tie_shifted sets how far a cluster reaches and moves the right
side's positive points of an inequality and both sides' of an equality,
and never the point 0, so kernel dimensions are compared as they are.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .complexes import (FiniteCochainComplex, ShortExactTriple, complex_sdf,
                        connecting_map, laplacian_sdf_decomposition)
from .config import STRUCTURE_ATOL, TIE_RTOL
from .inputs import check_range
from .rand import (random_complex, random_homotopy_pair, random_injective,
                   random_map, random_short_exact_triple, random_space,
                   random_surjective, rng_for)
from .sdf import SpectralDensityFunction, _from_descending, sdf_of_map
from .traced import TracedMap, _orthonormal_space, check_spaces, same_space

__all__ = [
    "Violation",
    "CheckReport",
    "tie_shifted",
    "check_basic_F",
    "check_block_matrix_F",
    "check_short_exact",
    "check_gromov_shubin",
    "SuiteReport",
    "run_suite",
    "SUITES",
]

R_VALUES = (0.25, 0.5, 0.75)


@dataclass
class Violation:
    item: str
    lam: float
    lhs: float
    rhs: float

    def to_dict(self) -> dict:
        return {"item": self.item, "lambda": self.lam, "lhs": self.lhs, "rhs": self.rhs}


class _Relation(NamedTuple):
    """lhs <= constant + sum of rhs on [0, upper), or lhs == sum of rhs, in counts."""
    item: str
    lhs: SpectralDensityFunction
    rhs: list[SpectralDensityFunction]
    upper: float
    constant: float
    equal: bool


@dataclass
class CheckReport:
    violations: list[Violation] = field(default_factory=list)
    skipped: list[tuple[str, str]] = field(default_factory=list)
    probes: int = 0
    pending: list[_Relation] = field(default_factory=list)  # recorded, not yet decided

    @property
    def ok(self) -> bool:
        return not self.violations

    def leq(self, item: str, lhs: SpectralDensityFunction, rhs: list[SpectralDensityFunction],
            upper: float = np.inf, constant: float = 0.0) -> None:
        """Record lhs <= constant + sum of rhs on [0, upper), in counts."""
        check_range("upper", upper, -np.inf, np.inf, "[]")
        self.pending.append(_Relation(item, lhs, rhs, upper, constant, False))

    def equal(self, item: str, lhs: SpectralDensityFunction,
              rhs: list[SpectralDensityFunction]) -> None:
        """Record lhs == sum of rhs on [0, inf)."""
        self.pending.append(_Relation(item, lhs, rhs, np.inf, 0.0, True))

    def fail(self, violation: Violation) -> None:
        """Add a violation found without probing, after those of the
        relations recorded before it."""
        self.decide()
        self.violations.append(violation)

    def decide(self) -> list[float | None]:
        """Decide every pending relation, in the order recorded, and return
        each one's margin: the smallest rhs - lhs where lhs > 0 for an
        inequality (None if lhs vanishes on the range), the largest
        |lhs - rhs| for an equality, as count * unit."""
        relations, self.pending = self.pending, []
        if not relations:
            return []
        probes, violations, margins = _decide(relations)
        self.probes += probes
        self.violations.extend(violations)
        return margins


def tie_shifted(lams) -> np.ndarray:
    """Positive lams moved right by TIE_RTOL * max(1, lam); evaluating there
    forgives breakpoints that differ only by eigensolve rounding.  Zero stays
    where it is, so a kernel on one side that the other side places at a
    small positive breakpoint is seen at any scale."""
    lams = np.asarray(lams, dtype=float)
    # max(lam > 0, lam) is max(1, lam) for a positive lam and 0 otherwise
    return lams + TIE_RTOL * np.maximum(lams > 0.0, lams)


def _decide(relations: list[_Relation]) -> tuple[int, list[Violation], list[float | None]]:
    """Probe count, violations and margins of the relations, in Python floats.

    Each distinct function's breakpoints and counts are listed once.  A
    relation is evaluated at 0 and at every distinct breakpoint of its
    functions below upper, sorted, and every point of the decision is
    tie-shifted in one call.  Every function is constant from one point to
    the next and past the last, so for an inequality any other point reads
    the left side no higher and the right side no lower than the point
    below it.  The points are counted as probes by clusters: a cluster
    starts at a point b and takes every later point up to tie_shifted(b),
    so breakpoints that differ only by rounding are one probe.  The shift
    leaves 0 where it is, which makes 0 a cluster of its own, and an empty
    range has no probe.  A count is read by bisect_right; an inequality
    compares the count of lhs at a point with constant + those of rhs at
    its tie shift, an equality both sides at the tie shift, exactly, the
    right side summed term by term in order before the constant is added.
    Violations, in relation then point order, and margins are reported as
    count * unit.  A relation mixing units is refused by item.

    The loop pays a bisect per function and point; at the sizes the suites
    run that is cheaper than a vectorized pass over one table (BENCH_3).
    """
    listed: dict[int, tuple[list[float], list[float]]] = {}
    sides, grids = [], []
    for rel in relations:
        side, unit, distinct = [], rel.lhs.unit, {0.0}
        for F in (rel.lhs, *rel.rhs):
            if F.unit != unit:
                raise ValueError(f"{rel.item}: the functions differ in units")
            # breakpoints, counts led by the 0 left of the first breakpoint
            entry = listed.get(id(F))
            if entry is None:
                entry = listed[id(F)] = (F.lams.tolist(), [0.0, *F.counts.tolist()])
            side.append(entry)
            distinct.update(entry[0])
        upper = float(rel.upper)
        sides.append(side)
        grids.append(sorted(x for x in distinct if x < upper))
    shifted = tie_shifted([x for grid in grids for x in grid]).tolist()

    probes, start = 0, 0
    violations: list[Violation] = []
    margins: list[float | None] = []
    for rel, ((lams, counts), *rhs), grid in zip(relations, sides, grids):
        constant, unit, equal = float(rel.constant), rel.lhs.unit, rel.equal
        # the largest |lhs - rhs|, or the smallest rhs - lhs where lhs > 0
        worst = 0.0 if equal else math.inf
        # the tie shift of the first point of the current cluster
        reach = -math.inf
        for x, y in zip(grid, shifted[start:start + len(grid)]):
            if x > reach:
                probes += 1
                reach = y
            rv = 0.0
            for term_lams, term_counts in rhs:
                rv += term_counts[bisect_right(term_lams, y)]
            rv = constant + rv
            if equal:
                lv = counts[bisect_right(lams, y)]
                if lv != rv:
                    violations.append(Violation(rel.item, x, lv * unit, rv * unit))
                if abs(lv - rv) > worst:
                    worst = abs(lv - rv)
            else:
                lv = counts[bisect_right(lams, x)]
                if lv > rv:
                    violations.append(Violation(rel.item, x, lv * unit, rv * unit))
                if lv > 0.0 and rv - lv < worst:
                    worst = rv - lv
        start += len(grid)
        margins.append(worst * unit if worst < math.inf else None)
    return probes, violations, margins


# -- composition-law inequalities ------------------------------------------------------


def check_basic_F(report: CheckReport, f: TracedMap, g: TracedMap | None = None,
                  i: TracedMap | None = None, p: TracedMap | None = None) -> None:
    """Composition inequalities for spectral densities, plain and kernel-subtracted.

    f: U -> V is always required; g: V -> W drives items 1-3, an injective
    i: V -> V' drives item 4, a surjective p: U0 -> U drives item 5.  Item 6
    is the square identity for f alone.  Its f*f side keeps the top f.rank()
    singular values and clamps the rest: ker(f*f) = ker f exactly, but
    squaring also squares each value's ratio to the largest, so a value f
    keeps (ratio 7.4e-6) would fall below RANK_RTOL in f*f (5.4e-11).
    The subspace side conditions of reduced.1 and reduced.3 are read from
    the ranks of f and g f, so a skip and the densities it guards follow
    one rank rule.
    """
    F_f = sdf_of_map(f)
    rF_f = F_f.reduced()

    if g is not None:
        if not same_space(g.source, f.target):
            raise ValueError("g must be composable with f")
        gf = g @ f
        F_g, F_gf = sdf_of_map(g), sdf_of_map(gf)
        rF_g, rF_gf = F_g.reduced(), F_gf.reduced()
        report.leq("basic.1", F_f, [F_gf.scaled_argument(g.norm)])
        if f.is_surjective():
            report.leq("basic.2", F_g, [F_gf.scaled_argument(f.norm)])
        else:
            report.skipped.append(("basic.2", "f not surjective"))
        for r in R_VALUES:
            report.leq(f"basic.3[r={r}]", F_gf,
                       [F_g.power_argument(1 - r), F_f.power_argument(r)])
        # the rank rule's dimension of im f ∩ ker g, as the densities count it
        meet = f.rank() - gf.rank()
        if meet == 0:
            report.leq("reduced.1", rF_f, [rF_gf.scaled_argument(g.norm)])
        else:
            report.skipped.append(("reduced.1", "ker g ∩ im f nontrivial"))
        if f.is_surjective():
            report.leq("reduced.2", rF_g, [rF_gf.scaled_argument(f.norm)])
        else:
            report.skipped.append(("reduced.2", "f not surjective"))
        if meet == g.kernel_dim():
            for r in R_VALUES:
                report.leq(f"reduced.3[r={r}]", rF_gf,
                           [rF_g.power_argument(1 - r), rF_f.power_argument(r)])
        else:
            report.skipped.append(("reduced.3", "ker g not contained in im f"))

    if i is not None:
        if not same_space(i.source, f.target):
            raise ValueError("i must be composable with f")
        if not i.is_injective():
            report.skipped.append(("basic.4", "i not injective"))
        else:
            inv_norm = i.inverse_norm
            F_if = sdf_of_map(i @ f)
            report.leq("basic.4", F_if, [F_f.scaled_argument(inv_norm)])
            report.leq("reduced.4", F_if.reduced(), [rF_f.scaled_argument(inv_norm)])

    if p is not None:
        if not same_space(p.target, f.source):
            raise ValueError("p must land in the source of f")
        if not p.is_surjective():
            report.skipped.append(("basic.5", "p not surjective"))
        else:
            F_fp = sdf_of_map(f @ p)
            rF_fp = F_fp.reduced()
            report.leq("basic.5", F_f, [F_fp.scaled_argument(p.norm)])
            report.leq("reduced.5", rF_fp, [rF_f.scaled_argument(p.inverse_norm)])
            report.leq("reduced.6", rF_f, [rF_fp.scaled_argument(p.norm)],
                       constant=p.kernel_dim())

    # square identity: density of f*f at lambda equals density of f at sqrt(lambda)
    sv = (f.adjoint() @ f).singular_values().copy()
    sv[f.rank():] = 0.0
    F_ff = _from_descending(sv, F_f.unit)
    report.equal("basic.6", F_ff, [F_f.power_argument(0.5)])


def _block_map(phi: TracedMap, gamma: TracedMap, xi: TracedMap) -> TracedMap:
    """Upper-triangular [[phi, gamma], [0, xi]] on orthogonal direct sums: in
    whitened coordinates, the block matrix of the blocks' whitened matrices
    between identity-gram spaces."""
    u1, u2, v1, v2 = phi.source, xi.source, phi.target, xi.target
    whitened = np.zeros((v1.dim + v2.dim, u1.dim + u2.dim))
    whitened[: v1.dim, : u1.dim] = phi.whitened
    whitened[: v1.dim, u1.dim :] = gamma.whitened
    whitened[v1.dim :, u1.dim :] = xi.whitened
    return TracedMap._derived(_orthonormal_space(u1.dim + u2.dim, u1.normalization),
                              _orthonormal_space(v1.dim + v2.dim, v1.normalization), whitened)


def check_block_matrix_F(report: CheckReport, phi: TracedMap, gamma: TracedMap,
                         xi: TracedMap) -> None:
    """Upper-triangular block-map inequalities, plain and kernel-subtracted.

    gamma: U2 -> V1 couples the blocks, from xi's source to phi's target,
    and U1, U2 and V1, V2 must share a normalization, so that each direct
    sum is one traced space; item validity ranges follow the
    stated side conditions (phi invertible for item 2, the power-range bound
    for item 3, phi dense image and lambda < 1 for item 5).
    """
    check_spaces("gamma", gamma, xi.source, phi.target)
    if (phi.source.normalization != xi.source.normalization
            or phi.target.normalization != xi.target.normalization):
        raise ValueError("phi and xi act between spaces of different normalizations")
    M = _block_map(phi, gamma, xi)
    F_M, F_phi, F_xi = sdf_of_map(M), sdf_of_map(phi), sdf_of_map(xi)
    rF_M, rF_phi, rF_xi = F_M.reduced(), F_phi.reduced(), F_xi.reduced()
    gnorm = gamma.norm

    if gamma.norm == 0.0:
        report.equal("block.1", F_M, [F_phi, F_xi])
        report.equal("block.r1", rF_M, [rF_phi, rF_xi])

    phi_invertible = (phi.source.dim == phi.target.dim and phi.rank() == phi.source.dim)
    if phi_invertible:
        c = 4.0 + 2.0 * gnorm * phi.inverse_norm
        report.leq("block.2", F_M, [F_phi.scaled_argument(c), F_xi.scaled_argument(c)])
        report.leq("block.r2", rF_M, [rF_phi.scaled_argument(c), rF_xi.scaled_argument(c)])
    else:
        report.skipped.append(("block.2", "phi not invertible"))

    xi_injective = xi.is_injective()
    phi_dense = phi.is_surjective()
    c3 = 4.0 + 2.0 * gnorm
    F_xi_c3, rF_xi_c3 = F_xi.scaled_argument(c3), rF_xi.scaled_argument(c3)
    for r in R_VALUES:
        upper = c3 ** (1.0 / (r - 1.0))
        report.leq(f"block.3[r={r}]", F_M,
                   [F_phi.power_argument(r), F_xi_c3.power_argument(1 - r)], upper=upper)
        if xi_injective or phi_dense:
            report.leq(f"block.r3[r={r}]", rF_M,
                       [rF_phi.power_argument(r), rF_xi_c3.power_argument(1 - r)], upper=upper)
        else:
            report.skipped.append((f"block.r3[r={r}]", "xi not injective and phi not dense"))

    c4 = 2.0 * (1.0 + gnorm + xi.norm)
    report.leq("block.4", F_phi, [F_M.scaled_argument(c4)])
    if xi_injective:
        report.leq("block.r4", rF_phi, [rF_M.scaled_argument(c4)])
    else:
        report.skipped.append(("block.r4", "xi not injective"))

    if phi_dense:
        c5 = 2.0 * (1.0 + gnorm + phi.norm)
        report.leq("block.5", F_xi, [F_M.scaled_argument(c5)], upper=1.0)
        report.leq("block.r5", rF_xi, [rF_M.scaled_argument(c5)], upper=1.0,
                   constant=phi.kernel_dim())
    else:
        report.skipped.append(("block.5", "phi has no dense image"))


def check_short_exact(report: CheckReport, T: ShortExactTriple, p: int) -> None:
    """Degree-p density inequality for a short exact triple of complexes.

    Computes the four constants from the norms of d^p, j and q (inverses
    taken image -> kernel-complement), builds the connecting map on
    cohomology via harmonic representatives, and records

        rF_p(D, lam) <= rF_p(E, c_E lam^1/2) + rF(delta, c_d lam^1/4)
                        + rF_p(C, c_C lam^1/4)

    on [0, c1) with the stated c1 formula.  The relation's observed slack
    is its margin from CheckReport.decide; no conclusion is drawn about
    optimality.
    """
    d_p = T.D.differential(p)
    j_p, j_p1 = T.j_at(p), T.j_at(p + 1)
    q_p, q_p1 = T.q_at(p), T.q_at(p + 1)
    nd = d_p.norm
    j1_inv = j_p1.inverse_norm if j_p1.rank() else 1.0
    q_inv = q_p.inverse_norm if q_p.rank() else 1.0
    c_E = (4.0 + 2.0 * nd) * q_p1.norm * q_inv
    c_C = np.sqrt(j1_inv) * j_p.norm
    c_delta = np.sqrt(j1_inv) * (4.0 + 2.0 * j1_inv * nd) * q_inv
    c1_stated = min((4.0 + 2.0 * nd) ** -0.5, (4.0 + 2.0 * j1_inv * nd) ** -0.5)

    delta = connecting_map(T, p)
    lhs = complex_sdf(T.D, p).reduced()
    rhs = [
        complex_sdf(T.E, p).reduced().scaled_argument(c_E).power_argument(0.5),
        sdf_of_map(delta).reduced().scaled_argument(c_delta).power_argument(0.25),
        complex_sdf(T.C, p).reduced().scaled_argument(c_C).power_argument(0.25),
    ]
    report.leq(f"short-exact[p={p}]", lhs, rhs, upper=c1_stated)


def _moebius_argument(F: SpectralDensityFunction, c: float, t: float) -> SpectralDensityFunction:
    """mu -> F(c * mu / (1 - t * mu)) on [0, 1/t), as an exact step function.

    The argument map is strictly increasing, so breakpoints pull back to
    s / (c + t s); for t = 0 this is plain argument scaling.
    """
    if c <= 0:
        return F.scaled_argument(0.0)
    return F._derived(F.lams / (c + t * F.lams), F.counts, F.unit, moved=True)


def check_gromov_shubin(report: CheckReport, C: FiniteCochainComplex,
                        D: FiniteCochainComplex, f: list[TracedMap], g: list[TracedMap],
                        T: list[TracedMap], p: int) -> None:
    """Density comparison along a chain homotopy equivalence.

    Requires f_q: C^q -> D^q, g_p: D^p -> C^p and T_q: C^q -> C^{q-1} for
    the degrees q = p, p + 1 it reads, and the homotopy relation
    g f = id + T c + c T at degree p to hold within STRUCTURE_ATOL; then
    records the kernel-subtracted comparison

        rF_p(C, mu) <= rF_p(D, |f_{p+1}| |g_p| mu / (1 - |T_{p+1}| mu))

    for mu below (2 |T_{p+1}|)^{-2} capped at the argument pole (infinite
    threshold for T = 0).  This is the sharp form of the homotopy comparison:
    pairing the relation against x in ker(c^p)^perp bounds |f x| from below
    by (1 - |T| mu)|x| / |g|.  The quadratic norm product stated with the
    theorem is falsified by explicit small instances (see the suite), so the
    checker uses the provable constants.  Since homotopy
    equivalences preserve cohomology dimensions, the unreduced comparison is
    equivalent; the equality of harmonic dimensions is asserted as well.
    """
    check_range("p", p, 0, len(g) - 1, "[]", integer=True)
    check_spaces(f"g_{p}", g[p], D.space(p), C.space(p))
    for q in (p, p + 1):
        if q < len(f):
            check_spaces(f"f_{q}", f[q], C.space(q), D.space(q))
        if q < len(T):
            check_spaces(f"T_{q}", T[q], C.space(q), C.space(q - 1))
    space = C.space(p)
    resid = g[p].coefficients @ f[p].coefficients - np.eye(space.dim)
    if p + 1 < len(T) and T[p + 1].source.dim:
        resid = resid - T[p + 1].coefficients @ C.differential(p).coefficients
    if p > 0 and T[p].source.dim and C.space(p - 1).dim:
        resid = resid - C.differential(p - 1).coefficients @ T[p].coefficients
    defect = TracedMap._derived(space, space,
                                space.whitener @ resid @ space.inverse_whitener).norm
    if defect > STRUCTURE_ATOL:
        raise ValueError(f"homotopy relation fails at degree {p}: defect {defect}")

    t_norm = T[p + 1].norm if p + 1 < len(T) else 0.0
    f_norm = f[p + 1].norm if p + 1 < len(f) else 0.0
    scale = f_norm * g[p].norm
    if t_norm == 0.0:
        threshold = np.inf
    else:
        threshold = min((2.0 * t_norm) ** -2.0, (2.0 * t_norm) ** -1.0)
    h_c = C.cohomology_dim(p)
    h_d = D.cohomology_dim(p)
    if h_c != h_d:
        report.fail(Violation(f"gromov-shubin-harmonics[p={p}]", 0.0, float(h_c), float(h_d)))
    lhs = complex_sdf(C, p).reduced()
    rhs = [_moebius_argument(complex_sdf(D, p).reduced(), scale, t_norm)]
    report.leq(f"gromov-shubin[p={p}]", lhs, rhs, upper=threshold)


# -- randomized suites -----------------------------------------------------------------


@dataclass
class SuiteReport:
    suite: str
    seed: int
    instances: int
    probes: int
    violations: list[dict]
    skipped: dict[str, int]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "instances": self.instances,
            "probes": self.probes,
            "violations": self.violations,
            "skipped": self.skipped,
            "ok": self.ok,
        }


_NORMALIZATIONS = (1.0, 0.5, 0.25, 1.0 / 3.0)


def _dims(rng, max_dim, n):
    return [int(rng.integers(1, max_dim + 1)) for _ in range(n)]


def _basic_instance(rng: np.random.Generator, max_dim: int, report: CheckReport) -> None:
    norm = float(rng.choice(_NORMALIZATIONS))
    du, dv, dw = _dims(rng, max_dim, 3)
    U = random_space(rng, du, norm)
    V = random_space(rng, dv, norm)
    W = random_space(rng, dw, norm)
    Vp = random_space(rng, dv + int(rng.integers(0, 3)), norm)
    U0 = random_space(rng, du + int(rng.integers(0, 3)), norm)
    f = random_map(rng, U, V)
    g = random_map(rng, V, W)
    i = random_injective(rng, V, Vp)
    p = random_surjective(rng, U0, U)
    check_basic_F(report, f, g=g, i=i, p=p)


def _block_instance(rng: np.random.Generator, max_dim: int, report: CheckReport) -> None:
    norm = float(rng.choice(_NORMALIZATIONS))
    d1, d2 = _dims(rng, max_dim, 2)
    dv1 = d1 if rng.random() < 0.7 else int(rng.integers(1, max_dim + 1))
    dv2 = int(rng.integers(1, max_dim + 1))
    U1 = random_space(rng, d1, norm)
    U2 = random_space(rng, d2, norm)
    V1 = random_space(rng, dv1, norm)
    V2 = random_space(rng, dv2, norm)
    phi = random_map(rng, U1, V1)
    xi = random_map(rng, U2, V2)
    if rng.random() < 0.25:
        gamma = TracedMap.zero(U2, V1)
    else:
        gamma = random_map(rng, U2, V1)
    check_block_matrix_F(report, phi, gamma, xi)


def _short_exact_instance(rng: np.random.Generator, max_dim: int, report: CheckReport) -> None:
    norm = float(rng.choice(_NORMALIZATIONS))
    n_deg = int(rng.integers(2, 5))
    cap = max(2, max_dim)
    dims_c = [int(rng.integers(0, cap)) for _ in range(n_deg)]
    dims_e = [int(rng.integers(0, cap)) for _ in range(n_deg)]
    if sum(dims_c) == 0:
        dims_c[0] = 1
    if sum(dims_e) == 0:
        dims_e[0] = 1
    scale = float(rng.uniform(0.2, 1.5))
    triple = random_short_exact_triple(rng, dims_c, dims_e, norm,
                                       coupling_scale=scale,
                                       log_sing_range=(-3.5, 1.0))
    for p in range(n_deg):
        check_short_exact(report, triple, p)


def _gromov_shubin_instance(rng: np.random.Generator, max_dim: int,
                            report: CheckReport) -> None:
    norm = float(rng.choice(_NORMALIZATIONS))
    n_deg = int(rng.integers(2, 5))
    dims_c = [int(rng.integers(1, max_dim + 1)) for _ in range(n_deg)]
    C, D, f, g, T = random_homotopy_pair(rng, dims_c, acyclic_dim=int(rng.integers(1, 3)),
                                         normalization=norm,
                                         log_sing_range=(-3.5, 1.0))
    for p in range(n_deg):
        check_gromov_shubin(report, C, D, f, g, T, p)


def _laplacian_instance(rng: np.random.Generator, max_dim: int, report: CheckReport) -> None:
    norm = float(rng.choice(_NORMALIZATIONS))
    n_deg = int(rng.integers(2, 5))
    dims = [int(rng.integers(1, max_dim + 1)) for _ in range(n_deg)]
    # Laplacian eigenvalues are squared singular values, as in basic.6,
    # but these singular factors lie within e^{-4} of each other: over 200
    # instances at each of the default seed and seeds 7 and 11 the smallest
    # nonzero eigenvalue is 4.8e-5 of the largest, far above RANK_RTOL.
    C = random_complex(rng, dims, norm, log_sing_range=(-3.0, 1.0))
    for p in range(n_deg):
        lhs, rhs = laplacian_sdf_decomposition(C, p)
        report.equal(f"laplacian[p={p}]", lhs, [rhs])


SUITES = {
    "basic": _basic_instance,
    "block": _block_instance,
    "short-exact": _short_exact_instance,
    "gromov-shubin": _gromov_shubin_instance,
    "laplacian": _laplacian_instance,
}


def run_suite(suite: str, seed: int, instances: int, max_dim: int = 6) -> SuiteReport:
    """Run `instances` randomized checks of the named suite: each instance
    records into its own report, which is decided once."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    for name, value, least in (("seed", seed, 0), ("instances", instances, 1),
                               ("max_dim", max_dim, 1)):
        check_range(name, value, least, np.inf, "[)", integer=True)
    builder = SUITES[suite]
    violations: list[dict] = []
    skipped: dict[str, int] = {}
    probes = 0
    for k in range(instances):
        report = CheckReport()
        builder(rng_for(seed, k), max_dim, report)
        report.decide()
        probes += report.probes
        for v in report.violations:
            entry = v.to_dict()
            entry["instance"] = k
            violations.append(entry)
        for item, _reason in report.skipped:
            skipped[item] = skipped.get(item, 0) + 1
    return SuiteReport(suite, seed, instances, probes, violations, skipped)
