"""Traced run: spans and counts around the calls into each layer of l2tor.

The tracer wraps public functions and methods of the program's modules from
the outside, in every module that looks them up, and restores the originals
when it is removed.  Each wrapped call is a span with a name, a start, an
end and the span that caused it.  Self time of a layer is the duration of
its spans minus the part their child spans cover; it is accumulated as the
spans close, so memory stays flat however long the run.  The spans of the
first traced round are also kept in memory and written out at the end.

Per-layer metrics are reported per round of the workload's items.  Counts
come from the first traced round, so they repeat exactly for a fixed seed.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

SPAN_CAP = 100_000

_LINALG = ("svd", "eigvalsh", "cholesky", "inv", "solve", "qr")
_MAP_GENERATORS = ("random_map", "random_injective", "random_surjective")


class Tracer:
    def __init__(self):
        self.counts: Counter = Counter()
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.spans: list | None = None
        self._stack: list[list] = []
        self._next_id = 0
        self._map_generators_open = 0
        self._patches: list[tuple[object, str, object, object]] = []

    # -- spans ------------------------------------------------------------------

    def wrap(self, layer: str, name: str, fn, after=None, map_generator=False):
        """fn wrapped in a span of `layer` counted under `name`; `after` sees
        the result."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [0.0, span_id]
            stack.append(frame)
            tracer._map_generators_open += map_generator
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer._map_generators_open -= map_generator
                duration = t1 - t0
                tracer.self_s[layer] += duration - frame[0]
                tracer.total_s[name] += duration
                tracer.counts[name] += 1
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[0] += duration
                spans = tracer.spans
                if spans is not None and len(spans) < SPAN_CAP:
                    spans.append((span_id, parent[1] if parent else None, name, t0, t1))
            if after is not None:
                after(result)
            return result

        return wrapper

    # -- patching ---------------------------------------------------------------

    def _plan(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr], replacement))

    def function(self, layer, name, module, attr, modules, after=None, only_here=False,
                 map_generator=False):
        """Wrap module.attr in `module` and in every module of `modules` that
        imported it by name."""
        orig = getattr(module, attr)
        wrapper = self.wrap(layer, name, orig, after, map_generator)
        for mod in [module] if only_here else modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._plan(mod, key, wrapper)

    def method(self, layer, name, cls, attr, after=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            new = staticmethod(self.wrap(layer, name, raw.__func__, after))
        elif isinstance(raw, property):
            new = property(self.wrap(layer, name, raw.fget, after))
        else:
            new = self.wrap(layer, name, raw, after)
        self._plan(cls, attr, new)

    def install(self) -> None:
        for owner, attr, _orig, new in self._patches:
            setattr(owner, attr, new)

    def remove(self) -> None:
        for owner, attr, orig, _new in reversed(self._patches):
            setattr(owner, attr, orig)


def layer_tracer(extra_modules=()) -> Tracer:
    """A tracer planned over the l2tor layers; `extra_modules` are other
    modules that call into l2tor by imported name (the workload's)."""
    import numpy

    from l2tor import checks, complexes, heattrace, hyperbolic, mellin, rand, sdf, traced

    modules = [m for n, m in sorted(sys.modules.items())
               if n == "l2tor" or n.startswith("l2tor.")] + list(extra_modules)
    t = Tracer()

    def count_map_draw(_result):
        if t._map_generators_open:
            t.counts["rand.maps_drawn"] += 1

    def count_suite(report):
        t.counts["checks.instances"] += report.instances
        t.counts["checks.probes"] += report.probes

    def count_large_time(result):
        t.counts[f"heattrace.method.{result.method}"] += 1

    for attr in ("random_space", "random_map", "random_injective", "random_surjective",
                 "random_complex", "random_short_exact_triple", "random_homotopy_pair"):
        t.function("rand", f"rand.{attr}", rand, attr, modules,
                   map_generator=attr in _MAP_GENERATORS)

    t.method("traced", "traced.space_new", traced.TracedSpace, "__post_init__")
    t.method("traced", "traced.map_new", traced.TracedMap, "__init__", after=count_map_draw)
    t.method("traced", "traced.svals_calls", traced.TracedMap, "singular_values")
    for attr in ("whitened", "adjoint", "compose"):
        t.method("traced", f"traced.{attr}", traced.TracedMap, attr)

    for attr in _LINALG:
        t.function("linalg", f"linalg.{attr}", numpy.linalg, attr, modules, only_here=True)

    SDF = sdf.SpectralDensityFunction
    t.method("sdf.eval", "sdf.evals", SDF, "__call__")
    t.method("sdf", "sdf.new", SDF, "__init__")
    for attr in ("from_jumps", "reduced", "scaled_argument", "power_argument", "plus",
                 "plus_constant", "probe_points"):
        t.method("sdf", f"sdf.{attr}", SDF, attr)
    t.function("sdf", "sdf.sdf_of_map", sdf, "sdf_of_map", modules)

    for attr in ("complex_sdf", "connecting_map", "laplacian_sdf_decomposition"):
        t.function("complexes", f"complexes.{attr}", complexes, attr, modules)
    t.method("complexes", "complexes.harmonic_basis", complexes.FiniteCochainComplex,
             "harmonic_basis")

    t.function("checks", "checks.run_suite", checks, "run_suite", modules, after=count_suite)
    for attr in ("check_basic_F", "check_block_matrix_F", "check_short_exact",
                 "check_gromov_shubin"):
        t.function("checks", f"checks.{attr}", checks, attr, modules)

    t.function("quad", "heattrace.quad", heattrace, "quad", modules, only_here=True)
    t.function("heattrace", "heattrace.large_time_integral", heattrace,
               "large_time_integral", modules, after=count_large_time)
    for attr in ("d_small", "analytic_torsion", "zeta_det"):
        t.function("heattrace", f"heattrace.{attr}", heattrace, attr, modules)

    t.function("quad", "hyperbolic.quad", hyperbolic, "quad", modules, only_here=True)
    t.function("hyperbolic", "hyperbolic.torsion_constant", hyperbolic, "torsion_constant",
               modules)
    t.function("hyperbolic", "hyperbolic.load", hyperbolic, "load_plancherel_table", modules)
    t.function("hyperbolic", "hyperbolic.plancherel_heat_model", hyperbolic,
               "plancherel_heat_model", modules)

    t.function("mellin", "mellin.resolve", mellin, "resolve_dsmall_constant", modules)
    t.function("mellin", "mellin.dsmall_constant", mellin, "dsmall_constant", modules)
    return t


# -- per-layer metrics ---------------------------------------------------------------

_COUNT = "count"


def layer_metrics(c: Counter, t: Tracer, rounds: int, run: dict) -> dict:
    """Per-layer metrics: counts `c` of one round, times per round, and the
    run-wide figures in `run` (import, round size, traced and untraced item
    seconds)."""
    per = 1.0 / rounds

    def s(value):
        return {"value": value, "unit": "s"}

    def n(value):
        return {"value": int(value), "unit": _COUNT}

    rand_calls = sum(v for k, v in c.items() if k.startswith("rand.random_"))
    map_returns = sum(c[f"rand.{g}"] for g in _MAP_GENERATORS)
    drawn = c["rand.maps_drawn"]
    out = {
        "setup.import_s": s(run["import_s"]),
        "setup.modules": n(run["modules"]),
        "round.items": n(run["items"]),
        "round.untraced_s": s(run["plain_s"] * per),
        "trace.overhead_s": s((run["traced_s"] - run["plain_s"]) * per),
        "trace.overhead_ratio": {"value": run["traced_s"] / run["plain_s"] - 1.0,
                                 "unit": "ratio"},
        "hyperbolic.load_s": s(t.total_s["hyperbolic.load"]),
        "mellin.resolve_s": s(t.total_s["mellin.resolve"]),
        "rand.calls": n(rand_calls),
        "rand.self_s": s(t.self_s["rand"] * per),
        "rand.accept_ratio": {"value": map_returns / drawn if drawn else 1.0, "unit": "ratio"},
        "traced.space_new": n(c["traced.space_new"]),
        "traced.space_new_s": s(t.total_s["traced.space_new"] * per),
        "traced.map_new": n(c["traced.map_new"]),
        "traced.svals_calls": n(c["traced.svals_calls"]),
        "traced.self_s": s(t.self_s["traced"] * per),
    }
    for attr in _LINALG:
        out[f"linalg.{attr}"] = n(c[f"linalg.{attr}"])
    out.update({
        "linalg.self_s": s(t.self_s["linalg"] * per),
        "sdf.evals": n(c["sdf.evals"]),
        "sdf.evals_s": s(t.total_s["sdf.evals"] * per),
        "sdf.new": n(c["sdf.new"]),
        "sdf.self_s": s(t.self_s["sdf"] * per),
        "complexes.calls": n(sum(v for k, v in c.items() if k.startswith("complexes."))),
        "complexes.self_s": s(t.self_s["complexes"] * per),
        "checks.instances": n(c["checks.instances"]),
        "checks.probes": n(c["checks.probes"]),
        "checks.self_s": s(t.self_s["checks"] * per),
        "heattrace.quad_calls": n(c["heattrace.quad"]),
        "heattrace.quad_s": s(t.total_s["heattrace.quad"] * per),
        "heattrace.self_s": s(t.self_s["heattrace"] * per),
        "heattrace.gap": n(c["heattrace.method.gap"]),
        "heattrace.tail": n(c["heattrace.method.tail"]),
        "hyperbolic.constant_calls": n(c["hyperbolic.torsion_constant"]),
        "hyperbolic.quad_calls": n(c["hyperbolic.quad"]),
        "hyperbolic.self_s": s(t.self_s["hyperbolic"] * per),
        "mellin.dsmall_constant_calls": n(c["mellin.dsmall_constant"]),
    })
    return out


# -- the traced run ------------------------------------------------------------------


def traced_run(workload_name: str, seed: int, seconds: float, out_dir: Path) -> dict:
    """Import, set up and run whole rounds under the tracer for `seconds`.

    Every item runs twice per round, once traced and once not, in
    alternating order, so the tracing overhead is measured on the same
    inputs at the same moment.  Both outputs are checked, and must be equal.
    """
    before = len(sys.modules)
    t0 = time.perf_counter()
    import l2tor  # noqa: F401
    import_s = time.perf_counter() - t0
    modules_loaded = len(sys.modules) - before

    import workloads
    from workloads import Workload, check_item, same_output

    tracer = layer_tracer([workloads])
    workload = Workload(workload_name, seed)
    tracer.install()
    try:
        workload.setup()
        workload.first_item().run()
    finally:
        tracer.remove()
    items = workload.items()

    setup_counts = Counter(tracer.counts)
    round_counts = None
    plain_s = traced_s = 0.0
    done = failed = rounds = 0
    errors: list[str] = []
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        if rounds == 0:
            tracer.spans = []
        for k, item in enumerate(items):
            outs = {}
            for traced in ((False, True) if k % 2 == 0 else (True, False)):
                if traced:
                    tracer.install()
                a = time.perf_counter()
                try:
                    outs[traced] = item.run()
                except Exception as exc:  # an item that raises is a failed operation
                    outs[traced] = None
                    errors.append(f"{item.kind}: {exc!r}")
                finally:
                    b = time.perf_counter()
                    if traced:
                        tracer.remove()
                if traced:
                    traced_s += b - a
                else:
                    plain_s += b - a
            done += 2
            differ = None not in outs.values() and not same_output(outs[False], outs[True])
            for out in outs.values():
                reason = "raised" if out is None else check_item(item, out)
                if reason is None and differ:
                    reason = "traced and untraced outputs differ"
                if reason is not None:
                    failed += 1
                    errors.append(reason)
        rounds += 1
        if round_counts is None:
            round_counts = tracer.counts - setup_counts
            spans, tracer.spans = tracer.spans, None
    metrics = layer_metrics(round_counts, tracer, rounds, {
        "import_s": import_s, "modules": modules_loaded, "items": len(items),
        "plain_s": plain_s, "traced_s": traced_s})
    span_file = out_dir / f"{workload_name}-seed{seed}-spans.jsonl"
    out_dir.mkdir(exist_ok=True)
    with span_file.open("w") as fh:
        fh.write(json.dumps({"fields": ["id", "parent", "name", "start", "end"],
                             "cap": SPAN_CAP, "spans": len(spans)}) + "\n")
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    return {
        "attempted": done, "failed": failed, "errors": errors[:5],
        "metrics": metrics,
        "detail": {"rounds": rounds, "items_per_round": len(items),
                   "round_counts": dict(sorted(round_counts.items())),
                   "span_file": span_file.name},
    }

