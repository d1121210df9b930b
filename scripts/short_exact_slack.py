#!/usr/bin/env python3
"""Observed slack of the short-exact density inequality across random triples.

The constants in the inequality are not claimed optimal; this experiment
collects the smallest right-minus-left margin per instance, so one can see
how much room the stated constants leave on generic data.  No conclusion is
drawn beyond the recorded numbers.

--seed overrides L2TOR_SEED, which is read only when --seed is absent.  A
negative seed, --instances below 1, --max-dim outside [1, 32] and an
L2TOR_SEED that is no integer are refused with one `error:` line and exit
status 2.
"""

import argparse
import sys

import numpy as np

from l2tor.checks import MAX_DIM, CheckReport, check_short_exact
from l2tor.config import seed_from_env
from l2tor.rand import random_short_exact_triple, rng_for


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--instances", type=int, default=300)
    parser.add_argument("--max-dim", type=int, default=3)
    args = parser.parse_args()
    try:
        seed = seed_from_env() if args.seed is None else args.seed
        for name, value, least in (("seed", seed, 0), ("--instances", args.instances, 1),
                                   ("--max-dim", args.max_dim, 1)):
            if value < least:
                raise ValueError(f"{name} must be at least {least}, got {value}")
        if args.max_dim > MAX_DIM:
            raise ValueError(f"--max-dim must be at most {MAX_DIM}, got {args.max_dim}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    margins = []
    violations = 0
    for k in range(args.instances):
        rng = rng_for(seed, k)
        n_deg = int(rng.integers(2, 5))
        dims_c = [int(rng.integers(0, args.max_dim)) for _ in range(n_deg)]
        dims_e = [int(rng.integers(0, args.max_dim)) for _ in range(n_deg)]
        dims_c[0] = max(dims_c[0], 1)
        dims_e[0] = max(dims_e[0], 1)
        triple = random_short_exact_triple(rng, dims_c, dims_e,
                                           log_sing_range=(-3.5, 1.0))
        for p in range(n_deg):
            rep = CheckReport()
            check_short_exact(rep, triple, p)
            (margin,) = rep.decide()
            violations += len(rep.violations)
            if margin is not None and np.isfinite(margin):
                margins.append(margin)

    margins = np.asarray(margins)
    print(f"instances: {args.instances}  degree checks with content: {margins.size}")
    print(f"violations: {violations}")
    if margins.size:
        qs = np.percentile(margins, [0, 5, 25, 50, 75, 100])
        print("min-margin percentiles (0/5/25/50/75/100):")
        print("  " + "  ".join(f"{q:.4g}" for q in qs))
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
