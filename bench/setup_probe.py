"""Set-up probe: a fresh interpreter imports l2tor, does the workload's
one-time work and finishes its first item, then says "ready" on stdout.

The parent times the interval from starting this process to reading that
line.  The probe then times the ``import`` yardstick unit a few times, in the
same process and right after set-up, and prints the median seconds, so the
parent can scale the set-up time to the reference machine speed.

Usage: python3 bench/setup_probe.py <src-dir> <workload> <seed>
"""

import sys

if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    from workloads import Workload  # noqa: E402  (imports l2tor)

    workload = Workload(sys.argv[2], int(sys.argv[3]))
    workload.setup()
    workload.first_item().run()
    print("ready", flush=True)

    import statistics  # noqa: E402

    from yardstick import Yardstick  # noqa: E402

    yard = Yardstick("import")
    yard.per_item()  # the first run also finds and reads the files
    print(statistics.median(yard.per_item() for _ in range(8)), flush=True)
