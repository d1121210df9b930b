"""l2tor benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload <inequalities|complexes|torsion>
                         --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from
``src/``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (``items_per_s``, ``setup_s``,
``peak_rss_mb``); with ``--trace 1`` they are the per-layer ones.  The same
object, with the environment, is written under ``bench/out/``.  See
bench/README.md.
"""

from __future__ import annotations

import os

# one BLAS thread in this process and in every process it starts; set before
# numpy is first imported
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_PROBES = 7
SETUP_PROBE_TIMEOUT_S = 60.0
# items per chunk of a round
CHUNK = 25
# rounds per run at least, so that per-chunk medians have a majority to vote
MIN_ROUNDS = 3


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def environment(seed: int) -> dict:
    import mpmath
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "cpu_count": os.cpu_count(),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "seed": seed,
    }


# -- set-up time ---------------------------------------------------------------------


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Seconds from starting a fresh interpreter to its first finished item,
    unscaled and scaled to the reference speed by the import unit the probe
    timed right after (see bench/yardstick.py)."""
    from yardstick import Yardstick

    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), workload, str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        unit_line = proc.stdout.readline()
        proc.wait(timeout=SETUP_PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    reference_unit_s = 1.0 / Yardstick("import").reference_rate
    return elapsed, elapsed * reference_unit_s / float(unit_line)


# -- timed rounds --------------------------------------------------------------------


class Rounds:
    """Runs whole rounds of items, checks every output, and keeps the time
    spent in items apart from the time spent in the yardstick.

    Times are kept per chunk of consecutive items and per round, so that a
    chunk slowed by a burst of machine noise in one round can be outvoted by
    the same chunk in the other rounds."""

    def __init__(self, items, check, same_output):
        self.items = items
        self.check = check
        self.same_output = same_output
        self.item_s: list[list[float]] = []   # [round][chunk]
        self.ref_s: list[list[float]] = []    # [round][chunk]
        self.done = 0
        self.failed = 0
        self.first_round = None
        self.errors: list[str] = []

    @property
    def rounds(self) -> int:
        return len(self.item_s)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(reason)

    def run_round(self, yard) -> None:
        outs = []
        item_s = [0.0] * -(-len(self.items) // CHUNK)
        ref_s = list(item_s)
        for k, item in enumerate(self.items):
            t0 = time.perf_counter()
            try:
                out = item.run()
            except Exception:  # an item that raises is a failed operation
                out = None
                self.fail(traceback.format_exc(limit=3))
            item_s[k // CHUNK] += time.perf_counter() - t0
            ref_s[k // CHUNK] += yard.per_item()
            outs.append(out)
        self.item_s.append(item_s)
        self.ref_s.append(ref_s)
        self.done += len(self.items)
        for k, (item, out) in enumerate(zip(self.items, outs)):
            if out is None:
                continue
            reason = self.check(item, out)
            first = None if self.first_round is None else self.first_round[k]
            if reason is None and first is not None and not self.same_output(out, first):
                reason = f"{item.kind}: output changed between rounds"
            if reason is not None:
                self.fail(reason)
        if self.first_round is None:
            self.first_round = outs

    def round_s(self, yard) -> float:
        """Seconds one round takes at the reference machine speed: per chunk,
        the median over rounds of its item time scaled by the yardstick rate
        measured alongside it, summed over the chunks."""
        total = 0.0
        for c in range(len(self.item_s[0])):
            units = yard.units_per_item * min(CHUNK, len(self.items) - c * CHUNK)
            total += statistics.median(
                items[c] * (units / ref[c]) / yard.reference_rate
                for items, ref in zip(self.item_s, self.ref_s))
        return total

    def unscaled_round_s(self) -> float:
        return sum(map(sum, self.item_s)) / self.rounds


def timed_run(workload_name: str, seed: int, seconds: float) -> dict:
    from workloads import Workload, check_item, same_output
    from yardstick import Yardstick

    probes = [setup_probe(workload_name, seed) for _ in range(SETUP_PROBES)]

    workload = Workload(workload_name, seed)
    workload.setup()
    workload.first_item().run()
    rounds = Rounds(workload.items(), check_item, same_output)
    yard = Yardstick(workload.yardstick)
    start = time.perf_counter()
    while rounds.rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
        rounds.run_round(yard)
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    sample = workload.sdf_checks()
    for reason in sample:
        if reason is not None:
            rounds.fail(reason)

    n = len(rounds.items)
    rate = n / rounds.round_s(yard)
    raw_rate = n / rounds.unscaled_round_s()
    return {
        "attempted": rounds.done + len(sample),
        "failed": rounds.failed,
        "errors": rounds.errors,
        "metrics": {
            "items_per_s": {"value": rate, "unit": "1/s"},
            "setup_s": {"value": statistics.median(s for _, s in probes), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        },
        "detail": {
            "rounds": rounds.rounds, "items_per_round": n, "wall_s": wall,
            "item_s": sum(map(sum, rounds.item_s)), "yardstick_s": sum(map(sum, rounds.ref_s)),
            "machine_speed": raw_rate / rate, "items_per_s_unscaled": raw_rate,
            "setup_s_unscaled": statistics.median(raw for raw, _ in probes),
        },
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "l2tor" / "__init__.py").is_file():
        print(f"no l2tor sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.trace:
        from tracing import traced_run

        result = traced_run(args.workload, args.seed, args.seconds, OUT_DIR)
    else:
        result = timed_run(args.workload, args.seed, args.seconds)
    failed = result["failed"]
    line = {"correct": failed == 0, "attempted": result["attempted"], "failed": failed,
            "metrics": result["metrics"]}
    for reason in result.pop("errors"):
        print(f"failed: {reason}", file=sys.stderr)
    OUT_DIR.mkdir(exist_ok=True)
    record = dict(line, workload=args.workload, seconds=args.seconds,
                  environment=environment(args.seed), detail=result["detail"])
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record["environment"]))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
