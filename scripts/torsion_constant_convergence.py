#!/usr/bin/env python3
"""Per-degree breakdown of the model-space torsion constant.

The degree contributions combine the subtracted small-time integral and the
plain large-time integral; the alternating degree-weighted sum is the
constant of proportionality against volume.
"""

import argparse
import math
import sys

from l2tor.heattrace import d_small, large_time_integral
from l2tor.hyperbolic import load_plancherel_table, plancherel_heat_model


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--table", help="alternative density table (JSON)")
    args = parser.parse_args()

    table = load_plancherel_table(args.table)
    print(f"dimension {table.m}; invariants: {table.validate()}\n")
    print(f"{'p':>3}{'small part':>18}{'large part':>18}{'weighted':>18}")
    total = 0.0
    for p in range(table.m + 1):
        model = plancherel_heat_model(table, p)
        sm = d_small(model).value
        lg = large_time_integral(model).value
        weighted = (-1) ** p * p * (sm + lg)
        total += weighted
        print(f"{p:>3}{sm:>18.12f}{lg:>18.12f}{weighted:>18.12f}")
    print(f"\nconstant: {total:.12f}")
    print(f"target -1/(3 pi): {-1.0 / (3.0 * math.pi):.12f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
