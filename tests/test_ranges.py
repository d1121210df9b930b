"""A boundary sweep over the public API: every public function and method
that takes a number is called with NaN, +inf, -inf, 0, -1, the smallest
subnormal and 1e308 in each numeric argument in turn, the other arguments
keeping valid values.  Each call refuses the value with a ValueError or
returns a result whose floats are all finite.

SWEEP lists (name, call, valid numeric arguments); the completeness test
derives the public callables with numeric parameters from l2tor.__all__,
so an entry point missing from SWEEP fails it by name.
"""

import dataclasses
import inspect
import math
import numbers

import numpy as np
import pytest

import l2tor
from l2tor import (ConformalFamily, CuspEnd, Domain1D, HeatTraceModel, JsjManifest,
                   JsjPiece, PlancherelTable, SpectralDensityFunction, Spectrum, TracedSpace,
                   anomaly_coefficients, cheeger_mueller_correction, check_gromov_shubin,
                   check_short_exact, complex_sdf, connecting_map, cusp_volume,
                   heat_density, hodge_star_conformal, kernel_1d,
                   laplacian_sdf_decomposition, large_time_dominating_bound,
                   load_plancherel_table, mean_curvature, ns_exponent_fit, product_lift,
                   run_suite, sup_bound_check, torsion_constant, truncated_volume,
                   v_operator, zeta_det)
from l2tor.anomaly import PRESET_FAMILIES
from l2tor.checks import CheckReport
from l2tor.hyperbolic import plancherel_heat_model
from l2tor.rand import random_complex, random_homotopy_pair, random_short_exact_triple

BOUNDARY = [math.nan, math.inf, -math.inf, 0.0, -1.0, 5e-324, 1e308]
BOUNDARY_IDS = ["nan", "inf", "-inf", "zero", "minus-one", "subnormal", "1e308"]

_F = SpectralDensityFunction([1.0, 2.0], [1.0, 2.0])
_LAMS = np.geomspace(1e-4, 1e-1, 24)
_POWER_LAW = SpectralDensityFunction(_LAMS, np.sqrt(_LAMS))
_RNG = np.random.default_rng(20240801)
_C = random_complex(_RNG, [2, 3, 2], log_sing_range=(-1.0, 1.0))
_TRIPLE = random_short_exact_triple(_RNG, [1, 2], [2, 1])
_HOMOTOPY = random_homotopy_pair(_RNG, [2, 2], acyclic_dim=1)
_SPECTRUM = Spectrum.from_pairs([(0.0, 1.0), (1.0, 1.0), (3.0, 2.0)])
_TABLE = load_plancherel_table()
_H3_MODEL = plancherel_heat_model(_TABLE, 1)
_FAMILY2, _FAMILY3 = PRESET_FAMILIES[2], PRESET_FAMILIES[3]


def _model_det(m, spectral_gap):
    """A model is a record whose numbers the solvers check, so its
    constructor is swept through zeta_det."""
    exact = HeatTraceModel.from_spectrum(Spectrum.from_pairs([(1.0, 1.0), (3.0, 2.0)]))
    return zeta_det(dataclasses.replace(exact, m=m, spectral_gap=spectral_gap))


# (name as in the completeness test, call, valid value of each numeric argument)
SWEEP = [
    ("TracedSpace", TracedSpace, {"dim": 2, "normalization": 0.5}),
    ("SpectralDensityFunction.from_jumps",
     lambda unit: SpectralDensityFunction.from_jumps([1.0, 2.0], [1.0, 1.0], unit),
     {"unit": 0.5}),
    ("SpectralDensityFunction.__call__", _F, {"lam": 1.5}),
    ("SpectralDensityFunction.scaled_argument", _F.scaled_argument, {"c": 2.0}),
    ("SpectralDensityFunction.power_argument", _F.power_argument, {"a": 2.0}),
    ("SpectralDensityFunction.plus_constant", _F.plus_constant, {"c": 1.0}),
    ("ns_exponent_fit", lambda eps: ns_exponent_fit(_POWER_LAW, eps), {"eps": 0.1}),
    *((f"FiniteCochainComplex.{name}", getattr(_C, name), {"p": 1})
      for name in ("space", "differential", "image_complement_basis",
                   "restricted_differential", "laplacian", "harmonic_basis",
                   "cohomology_dim")),
    ("ShortExactTriple.j_at", _TRIPLE.j_at, {"p": 1}),
    ("ShortExactTriple.q_at", _TRIPLE.q_at, {"p": 1}),
    ("complex_sdf", lambda p: complex_sdf(_C, p), {"p": 1}),
    ("connecting_map", lambda p: connecting_map(_TRIPLE, p), {"p": 0}),
    ("laplacian_sdf_decomposition", lambda p: laplacian_sdf_decomposition(_C, p), {"p": 1}),
    ("check_gromov_shubin",
     lambda p: check_gromov_shubin(CheckReport(), *_HOMOTOPY, p), {"p": 0}),
    ("check_short_exact", lambda p: check_short_exact(CheckReport(), _TRIPLE, p), {"p": 0}),
    ("run_suite", lambda seed, instances, max_dim: run_suite("basic", seed, instances, max_dim),
     {"seed": 7, "instances": 1, "max_dim": 2}),
    ("Spectrum.heat_trace", lambda t: _SPECTRUM.heat_trace(t, include_kernel=True),
     {"t": 0.5}),
    ("Spectrum.heat_trace_rounding_bound",
     lambda t: _SPECTRUM.heat_trace_rounding_bound(t, include_kernel=True), {"t": 0.5}),
    ("HeatTraceModel", _model_det, {"m": 0, "spectral_gap": 1.0}),
    ("HeatTraceModel.from_circle", HeatTraceModel.from_circle, {"circumference": 2.0}),
    ("HeatTraceModel.expansion_value", HeatTraceModel.from_circle(2.0).expansion_value,
     {"t": 0.5}),
    ("HeatTraceModel.residual_value", HeatTraceModel.from_circle(2.0).residual_value,
     {"t": 0.5}),
    # the t^{-3/2} of an m = 3 expansion overflows at the smallest subnormal
    ("HeatTraceModel.expansion_value[m=3]", _H3_MODEL.expansion_value, {"t": 0.5}),
    ("HeatTraceModel.residual_value[m=3]", _H3_MODEL.residual_value, {"t": 0.5}),
    ("cheeger_mueller_correction", cheeger_mueller_correction, {"chi_boundary": 2}),
    ("large_time_dominating_bound",
     lambda eps: large_time_dominating_bound(_SPECTRUM, eps), {"eps": 2.0}),
    ("CuspEnd", CuspEnd, {"cross_section_volume": 1.5}),
    ("PlancherelTable", lambda m: PlancherelTable(m, _TABLE.rows), {"m": 3}),
    ("PlancherelTable.density", _TABLE.density, {"p": 1, "t": 0.5}),
    ("cusp_volume", lambda m, height: cusp_volume(CuspEnd(1.0), m, height),
     {"m": 3, "height": 0.5}),
    ("heat_density", lambda p, t: heat_density(_TABLE, p, t), {"p": 1, "t": 0.5}),
    ("torsion_constant", lambda m: torsion_constant(_TABLE, m), {"m": 3}),
    ("truncated_volume",
     lambda total_volume, R, m: truncated_volume(total_volume, [CuspEnd(1.0)], R, m),
     {"total_volume": 2.0, "R": 0.5, "m": 3}),
    ("Domain1D", lambda length: Domain1D("circle", length), {"length": 2.0}),
    ("Domain1D.interval_neumann", Domain1D.interval_neumann, {"length": 2.0}),
    ("Domain1D.circle", Domain1D.circle, {"length": 2.0}),
    ("Domain1D.contains", Domain1D.circle(2.0).contains, {"x": 0.5}),
    *((f"kernel_1d[{domain.kind}]", lambda t, x, y, domain=domain: kernel_1d(domain, t, x, y),
       {"t": 0.5, "x": 0.5, "y": 1.0})
      for domain in (Domain1D.line(), Domain1D.half_line_neumann(),
                     Domain1D.interval_neumann(2.0), Domain1D.circle(2.0))),
    ("sup_bound_check", lambda t0: sup_bound_check(Domain1D.circle(2.0), t0), {"t0": 0.5}),
    ("ConformalFamily", lambda dim, cross_section_volume: ConformalFamily(
        dim, _FAMILY3.f, cross_section_volume=cross_section_volume),
     {"dim": 3, "cross_section_volume": 1.5}),
    *((f"ConformalFamily.{name}[{family.dim}]", getattr(family, name), {"u": 0.5})
      for name in ("validate", "variation_multiple") for family in (_FAMILY2, _FAMILY3)),
    *((f"ConformalFamily.jet[{family.dim}]", family.jet, {"x": 0.25, "u": 0.5})
      for family in (_FAMILY2, _FAMILY3)),
    *((f"anomaly_coefficients[{family.dim}]",
       lambda u, family=family: anomaly_coefficients(family, u), {"u": 0.5})
      for family in (_FAMILY2, _FAMILY3)),
    ("hodge_star_conformal", lambda p: hodge_star_conformal(_FAMILY3, p, (0.25, 0.5)),
     {"p": 1}),
    ("mean_curvature", lambda u: mean_curvature(_FAMILY3, u), {"u": 0.5}),
    ("product_lift", product_lift, {"base_sum": 0.25}),
    ("v_operator", lambda p: v_operator(_FAMILY3, p, (0.25, 0.5)), {"p": 1}),
    ("JsjManifest", lambda boundary_tori: JsjManifest("m", (), boundary_tori),
     {"boundary_tori": 1}),
    ("JsjPiece", lambda volume: JsjPiece("hyperbolic", volume), {"volume": 2.0}),
]

# results whose infinities are documented values: the Novikov-Shubin
# exponent of a density with a spectral gap below eps is +inf
_INFINITE_VALUES = {"ns_exponent_fit"}


def _floats_finite(value, allow_inf=False, seen=None) -> bool:
    """Every float reachable from value (numbers, arrays, containers,
    dataclass fields, slots and attributes) is finite, or with allow_inf
    not NaN; functions and strings hold none."""
    seen = set() if seen is None else seen
    if isinstance(value, (str, bool, type(None))) or inspect.isroutine(value) or id(value) in seen:
        return True
    seen.add(id(value))
    if isinstance(value, (numbers.Number, np.ndarray)):
        value = np.asarray(value)
        if value.dtype.kind not in "fc":
            return True
        return bool((~np.isnan(value) if allow_inf else np.isfinite(value)).all())
    if isinstance(value, dict):
        value = list(value.values())
    if dataclasses.is_dataclass(value):
        value = [getattr(value, f.name) for f in dataclasses.fields(value)]
    elif not isinstance(value, (list, tuple)):
        value = ([getattr(value, s) for s in getattr(type(value), "__slots__", ())]
                 + list(getattr(value, "__dict__", {}).values()))
    return all(_floats_finite(v, allow_inf, seen) for v in value)


def _cases():
    for name, call, valid in SWEEP:
        for arg in valid:
            for value, vid in zip(BOUNDARY, BOUNDARY_IDS):
                yield pytest.param(name, call, {**valid, arg: value}, id=f"{name}-{arg}-{vid}")


@pytest.mark.parametrize("name, call, kwargs", _cases())
def test_boundary_value_is_refused_or_gives_finite_floats(name, call, kwargs):
    try:
        result = call(**kwargs)
    except ValueError:
        return
    assert _floats_finite(result, allow_inf=name in _INFINITE_VALUES), result


# cases whose arithmetic overflowed, with a RuntimeWarning, before the value
# was refused or returned
_ONCE_OVERFLOWED = ("SpectralDensityFunction.scaled_argument-c-subnormal",
                    "sup_bound_check-t0-subnormal", "sup_bound_check-t0-1e308")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, call, kwargs",
                         [case for case in _cases() if case.id in _ONCE_OVERFLOWED],
                         ids=_ONCE_OVERFLOWED)
def test_boundary_value_is_handled_without_a_warning(name, call, kwargs):
    test_boundary_value_is_refused_or_gives_finite_floats(name, call, kwargs)


@pytest.mark.parametrize("name, call, valid", SWEEP, ids=[entry[0] for entry in SWEEP])
def test_valid_arguments_give_finite_floats(name, call, valid):
    assert _floats_finite(call(**valid))


def _is_numeric(param: inspect.Parameter) -> bool:
    annotation = param.annotation
    if not isinstance(annotation, str):
        annotation = getattr(annotation, "__name__", str(annotation))
    default = param.default
    return (annotation in ("int", "float", "float | None", "int | None")
            or isinstance(default, (int, float)) and not isinstance(default, bool))


def _numeric_parameters():
    """(name, parameter) for every numeric parameter of a public function in
    l2tor.__all__, of an exported class's constructor, and of its public
    methods (with __call__)."""
    for export in l2tor.__all__:
        obj = getattr(l2tor, export)
        callables = [(export, obj)]
        if inspect.isclass(obj):
            callables += [(f"{export}.{name}", member) for name, member in vars(obj).items()
                          if (not name.startswith("_") or name == "__call__")
                          and (inspect.isfunction(member)
                               or isinstance(member, (staticmethod, classmethod)))]
        for name, member in callables:
            member = getattr(member, "__func__", member)
            for param in inspect.signature(member).parameters.values():
                if _is_numeric(param):
                    yield name, param.name


def test_sweep_covers_every_public_numeric_parameter():
    swept = {(name.split("[")[0], arg) for name, _, valid in SWEEP for arg in valid}
    missing = sorted(set(_numeric_parameters()) - swept)
    assert not missing, f"add these to SWEEP: {missing}"
