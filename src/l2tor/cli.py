"""Unified command-line front end.

Subcommands cover the density-inequality suites, zeta/torsion evaluation of
spectrum files, hyperbolic model-space quantities, the one-dimensional
heat-kernel comparisons, the boundary anomaly engine, manifest-based
3-manifold torsion, and the end-to-end selftest.  Reports are JSON with
sorted keys, so identical seed and arguments give byte-identical output.
Handlers raise ValueError (or OSError) for bad usage or input; `main` turns
these, an ArithmeticError (an overflow on the input) and a report holding
NaN or inf into an `error:` line on stderr and exit status 2.
"""

from __future__ import annotations

import argparse
import ast
import csv
import json
import math
import operator
import os
import sys
from pathlib import Path
from typing import Callable

import numpy as np

from .anomaly import (PRESET_FAMILIES, ConformalFamily, Jet,
                      anomaly_coefficients)
from .checks import SUITES, run_suite
from .config import seed_from_env
from .heattrace import (HeatTraceModel, TorsionResult, analytic_torsion, d_small,
                        zeta_det_with_error)
from .hyperbolic import (CuspEnd, cusp_volume, heat_density, load_plancherel_table,
                         torsion_constant_result)
from .inputs import ManifestError, check_range, convert, field, integer, items, number, read_json
from .jsj import is_graph_manifold, load_manifest, torsion_3manifold
from .kernels1d import Domain1D, boundary_insensitivity_check, sup_bound_check
from .selftest import run_selftest
from .spectrum import Spectrum

HEATCMP_PAIRS = {
    "halfline-line": (Domain1D.half_line_neumann, Domain1D.line),
    "interval-halfline": (lambda: Domain1D.interval_neumann(3.0),
                          Domain1D.half_line_neumann),
}


def _emit(payload: dict, output: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2, default=float, allow_nan=False)
    if output:
        Path(output).write_text(text + "\n")
    else:
        print(text)


def _finite(text: str) -> float:
    """The argparse type of every float option: NaN, ±inf and text that is
    no number are refused, naming the option."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan  # refused below, with the same message
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _spectrum(pairs, location: str) -> Spectrum:
    """A list of [eigenvalue, weight] pairs of numbers; a malformed entry is
    named."""
    numbers = []
    for k, pair in enumerate(pairs):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ManifestError(f"{location}[{k}]", "expected [eigenvalue, weight]")
        numbers.append([convert(v, f"{location}[{k}][{i}]", number)
                        for i, v in enumerate(pair)])
    return Spectrum.from_pairs(numbers)


def _load_spectrum(path: str) -> tuple[Spectrum | None, dict[int, Spectrum] | None]:
    """Spectrum files: a JSON list of [eigenvalue, weight] pairs, or an
    object {"degrees": [{"p": int, "spectrum": [[eig, w], ...]}, ...]}.
    A malformed file raises a ManifestError naming the file and the field."""
    raw = read_json(path)
    if isinstance(raw, list):
        return _spectrum(raw, path), None
    if isinstance(raw, dict) and "degrees" in raw:
        degrees = {}
        for k, entry in enumerate(field(raw, "degrees", path, items)):
            loc = f"{path}.degrees[{k}]"
            p = field(entry, "p", loc, integer)
            if p < 0:
                raise ManifestError(f"{loc}.p", f"degree {p} is negative")
            if p in degrees:
                raise ManifestError(f"{loc}.p", f"degree {p} appears twice")
            degrees[p] = _spectrum(field(entry, "spectrum", loc, items), f"{loc}.spectrum")
        return None, degrees
    raise ManifestError(path, "expected a list of [eigenvalue, weight] pairs or an "
                              "object with a 'degrees' list")


def _torsion_report(res: TorsionResult) -> dict:
    return {"value": res.total, "errorEstimate": res.diagnostics["error"],
            "perDegree": [{"p": p, "small": sm, "large": lg} for p, sm, lg in res.per_degree]}


# -- subcommand handlers ---------------------------------------------------------------


def _seed(args) -> int:
    """--seed, else L2TOR_SEED, else the default; only the commands that
    take --seed read the variable, so a bad value stops no other command."""
    seed = seed_from_env() if args.seed is None else args.seed
    return check_range("seed", seed, 0, math.inf, "[)", integer=True)


def _cmd_sdf_check(args) -> int:
    rep = run_suite(args.suite, seed=_seed(args), instances=args.instances,
                    max_dim=args.max_dim)
    _emit(rep.to_dict(), args.output)
    return 0 if rep.ok else 1


def _cmd_zeta(args) -> int:
    if not args.spectrum:
        raise ValueError("zeta needs --spectrum")
    single, degrees = _load_spectrum(args.spectrum)
    if args.op == "trace":
        if single is None:
            raise ValueError("--op trace expects a flat spectrum file")
        value = single.heat_trace(args.t, include_kernel=args.include_kernel)
        error = single.heat_trace_rounding_bound(args.t, include_kernel=args.include_kernel)
        _emit({"op": "trace", "t": args.t, "value": value, "errorEstimate": error},
              args.output)
        return 0
    if args.op == "det":
        if single is None:
            raise ValueError("--op det expects a flat spectrum file")
        value, error = zeta_det_with_error(single)
        _emit({"op": "det", "value": value, "errorEstimate": error}, args.output)
        return 0
    if args.op == "dsmall":
        if single is None:
            raise ValueError("--op dsmall expects a flat spectrum file")
        res = d_small(HeatTraceModel.from_spectrum(single))
        _emit({"op": "dsmall", "value": res.value,
               "errorEstimate": res.error}, args.output)
        return 0
    if args.op == "torsion":
        if degrees is None:
            degrees = {1: single}
        models = {p: HeatTraceModel.from_spectrum(s) for p, s in degrees.items()}
        _emit({"op": "torsion", **_torsion_report(analytic_torsion(models))}, args.output)
        return 0
    raise ValueError(f"unknown zeta op {args.op!r}")


def _cmd_hyperbolic(args) -> int:
    if args.op == "constant":
        table = None if args.m % 2 == 0 else load_plancherel_table(args.table)
        res = torsion_constant_result(table, m=args.m)
        _emit({"op": "constant", "m": args.m, **_torsion_report(res)}, args.output)
        return 0
    if args.op == "density":
        table = load_plancherel_table(args.table)
        if args.m != table.m:
            raise ValueError(f"table is for dimension {table.m}")
        value = heat_density(table, args.p, args.t)
        _emit({"op": "density", "m": args.m, "p": args.p, "t": args.t,
               "value": value}, args.output)
        return 0
    if args.op == "cusp":
        end = CuspEnd(args.cross_section)
        value = cusp_volume(end, args.m, height=args.height)
        _emit({"op": "cusp", "m": args.m, "crossSection": args.cross_section,
               "height": args.height, "value": value}, args.output)
        return 0
    raise ValueError(f"unknown hyperbolic op {args.op!r}")


def _cmd_heatcmp(args) -> int:
    ks = tuple(sorted({args.K, args.K * 2.0, args.K * 0.5}))
    # every distance to the boundary is >= 0, so a cutoff <= 0 cuts nothing
    for k in ks:
        check_range("the cutoff K/2, K or 2K of --K", k, 0, math.inf)
    make_v, make_n = HEATCMP_PAIRS[args.pair]
    V, N = make_v(), make_n()
    rep = boundary_insensitivity_check(V, N, K_values=ks)
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "x", "diff", "bound"])
            writer.writerows(rep.rows)
    sup = sup_bound_check(V, 1.0)
    verdict = {
        "pair": list(rep.pair),
        "fitted_c1": {str(c2): per_k for c2, per_k in rep.fitted_c1.items()},
        "best": list(rep.best),
        "closed_form_violations": rep.closed_form_violations[:10],
        "monotone_in_cutoff": rep.monotone_in_cutoff,
        "sup_bound": sup,
        "probes": rep.probes,
        "ok": not rep.closed_form_violations and rep.monotone_in_cutoff,
    }
    _emit(verdict, args.output)
    return 0 if verdict["ok"] else 1


_EXPR_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub,
                ast.Mult: operator.mul, ast.Div: operator.truediv}
_EXPR_FUNCTIONS = {"exp": Jet.exp, "log": Jet.log, "sqrt": Jet.sqrt}
_EXPR_MAX_POWER = 64


def _int_literal(node: ast.expr) -> int | None:
    """The value of an integer literal, possibly negated, else None."""
    sign = 1
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        sign, node = -1, node.operand
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return sign * node.value
    return None


def _compile_expr(node: ast.expr) -> Callable[[dict], object]:
    """Turn a whitelisted expression tree into a function of {x, u, pi}.

    Allowed: numbers, x, u, pi, + - * /, unary minus, ** with an integer
    literal exponent, and exp, log, sqrt of one argument; anything else is
    a ValueError.
    """
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        value = float(node.value)  # no big-integer arithmetic
        return lambda env: value
    if isinstance(node, ast.Name) and node.id in ("x", "u", "pi"):
        name = node.id
        return lambda env: env[name]
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        operand = _compile_expr(node.operand)
        return lambda env: -operand(env)
    if isinstance(node, ast.BinOp) and type(node.op) in _EXPR_BINOPS:
        op = _EXPR_BINOPS[type(node.op)]
        left, right = _compile_expr(node.left), _compile_expr(node.right)
        return lambda env: op(left(env), right(env))
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        n = _int_literal(node.right)
        if n is None or abs(n) > _EXPR_MAX_POWER:
            raise ValueError(f"--f: exponents must be integer literals of size at most "
                             f"{_EXPR_MAX_POWER}")
        base = _compile_expr(node.left)
        return lambda env: base(env) ** n
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _EXPR_FUNCTIONS and len(node.args) == 1
            and not node.keywords):
        fn = _EXPR_FUNCTIONS[node.func.id]
        arg = _compile_expr(node.args[0])
        return lambda env: fn(Jet.lift(arg(env)))
    raise ValueError(f"--f: {ast.unparse(node)!r} is not allowed; use numbers, x, u, pi, "
                     "+ - * /, integer powers, exp, log and sqrt")


def _parse_factor(expr: str) -> Callable:
    """Conformal factor f(x, u) from the text of --f, parsed, never eval-ed."""
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"--f: cannot parse {expr!r}: {exc.msg}") from None
    compiled = _compile_expr(tree.body)

    def factor(x, u):
        try:
            return compiled({"x": x, "u": u, "pi": math.pi})
        except ArithmeticError as exc:
            raise ValueError(f"--f: {expr!r} at x={Jet.lift(x).value:g}, "
                             f"u={Jet.lift(u).value:g}: {exc}") from None

    return factor


def _cmd_anomaly(args) -> int:
    family = (ConformalFamily(args.dim, _parse_factor(args.f), name=f"expr:{args.f}")
              if args.f else PRESET_FAMILIES[args.dim])
    if args.sweep:
        try:
            u0, u1, n = args.sweep.split(":")
            us = np.linspace(_finite(u0), _finite(u1), int(n))
        except (ValueError, argparse.ArgumentTypeError):
            raise ValueError("--sweep expects u0:u1:n with finite bounds u0, u1") from None
        rows = [["u", "sum"] + [f"d{p}" for p in range(family.dim + 1)]]
        for u in us:
            out = anomaly_coefficients(family, float(u))
            rows.append([f"{u:.6g}", f"{out.alternating_sum:.12g}"]
                        + [f"{d:.12g}" for d in out.d_per_degree])
        if args.output:
            with open(args.output, "w", newline="") as fh:
                csv.writer(fh).writerows(rows)
        else:
            csv.writer(sys.stdout).writerows(rows)
        return 0
    out = anomaly_coefficients(family, args.u)
    _emit({"dim": family.dim, "family": family.name, "u": args.u,
           "d": out.d_per_degree, "sum": out.alternating_sum,
           "psiTables": out.psi_tables, "diagnostics": out.diagnostics},
          args.output)
    return 0


def _cmd_jsj(args) -> int:
    manifest = load_manifest(args.input)
    torsion = torsion_3manifold(manifest)
    payload = {
        "name": manifest.name,
        "boundaryTori": manifest.boundary_tori,
        "pieces": len(manifest.pieces),
        "hyperbolicVolume": manifest.hyperbolic_volume,
        "graphManifold": is_graph_manifold(manifest),
        "torsion": torsion,
        "note": ("vanishing homology growth and positive spectral decay "
                 "rates are assumptions of the formula, not verified here"),
    }
    if args.report == "text":
        lines = [f"{manifest.name}:",
                 f"  pieces: {len(manifest.pieces)}",
                 f"  hyperbolic volume: {manifest.hyperbolic_volume:.12g}",
                 f"  graph manifold: {payload['graphManifold']}",
                 f"  torsion: {torsion:.12g}"]
        text = "\n".join(lines)
        if args.output:
            Path(args.output).write_text(text + "\n")
        else:
            print(text)
    else:
        _emit(payload, args.output)
    return 0


def _environment(seed: int) -> str:
    """Versions, seed and CPU count; the versions come from the installed
    metadata, so scipy is not imported for them."""
    import importlib.metadata
    import platform

    version = importlib.metadata.version
    return (f"python {platform.python_version()}, numpy {version('numpy')}, "
            f"scipy {version('scipy')}, seed {seed}, {os.cpu_count()} CPUs")


def _cmd_selftest(args) -> int:
    seed = _seed(args)
    print(_environment(seed), file=sys.stderr)
    results = run_selftest(seed=seed, quick=args.quick)
    width = max(len(r.name) for r in results)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name.ljust(width)}  {r.seconds:.2f} s")
    ok = all(r.passed for r in results)
    if args.output:
        _emit({"results": [r.to_dict() for r in results], "ok": ok}, args.output)
    return 0 if ok else 1


# -- parser ------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    # SUPPRESS keeps a value parsed before the subcommand intact
    p.add_argument("--output", default=argparse.SUPPRESS,
                   help="write the report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="l2tor",
        description="spectral density suites, zeta-regularized torsion, and "
                    "model-space heat-trace checks")
    parser.add_argument("--output", help="write the report here instead of stdout")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("sdf-check", help="randomized density-inequality suites")
    p.add_argument("--suite", required=True, choices=sorted(SUITES))
    p.add_argument("--seed", type=int)
    p.add_argument("--instances", type=int, default=200)
    p.add_argument("--max-dim", type=int, default=6)
    _add_common(p)
    p.set_defaults(handler=_cmd_sdf_check)

    p = sub.add_parser("zeta", help="determinants and torsion from spectrum files")
    p.add_argument("--spectrum", help="JSON spectrum file")
    p.add_argument("--op", choices=["det", "trace", "torsion", "dsmall"],
                   default="det")
    p.add_argument("--t", type=_finite, default=1.0, help="time for --op trace")
    p.add_argument("--include-kernel", action="store_true")
    _add_common(p)
    p.set_defaults(handler=_cmd_zeta)

    p = sub.add_parser("hyperbolic", help="model-space densities and constants")
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--op", required=True, choices=["density", "constant", "cusp"])
    p.add_argument("--p", type=int, default=0, help="form degree for --op density")
    p.add_argument("--t", type=_finite, default=1.0, help="time for --op density")
    p.add_argument("--table", help="alternative density table (JSON)")
    p.add_argument("--cross-section", type=_finite, default=1.0)
    p.add_argument("--height", type=_finite, default=0.0)
    _add_common(p)
    p.set_defaults(handler=_cmd_hyperbolic)

    p = sub.add_parser("heatcmp", help="one-dimensional kernel comparisons")
    p.add_argument("--pair", required=True, choices=sorted(HEATCMP_PAIRS))
    p.add_argument("--K", type=_finite, default=1.0, help="distance cutoff")
    p.add_argument("--csv", help="write (t, x, diff, bound) rows here")
    _add_common(p)
    p.set_defaults(handler=_cmd_heatcmp)

    p = sub.add_parser("anomaly", help="boundary metric-anomaly coefficients")
    p.add_argument("--dim", type=int, choices=[2, 3], required=True)
    p.add_argument("--f", help="conformal factor expression in x and u")
    p.add_argument("--u", type=_finite, default=0.0)
    p.add_argument("--sweep", help="u0:u1:n emits CSV over the parameter range")
    _add_common(p)
    p.set_defaults(handler=_cmd_anomaly)

    p = sub.add_parser("jsj", help="3-manifold torsion from a manifest")
    p.add_argument("--input", required=True)
    p.add_argument("--report", choices=["json", "text"], default="json")
    _add_common(p)
    p.set_defaults(handler=_cmd_jsj)

    p = sub.add_parser("selftest", help="run the acceptance checks end to end")
    p.add_argument("--seed", type=int)
    p.add_argument("--quick", action="store_true",
                   help="smaller instance counts for a smoke run")
    _add_common(p)
    p.set_defaults(handler=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "handler", None):
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.handler(args)
    except (OSError, ValueError, ArithmeticError) as exc:
        kind = f"{type(exc).__name__}: " if isinstance(exc, ArithmeticError) else ""
        print(f"error: {kind}{exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
