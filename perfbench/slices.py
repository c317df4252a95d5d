"""Re-derive the design-sweep fault-slice membership from the generator.

    python3 perfbench/slices.py [--probe N]

The slices are defined by generator inputs (family, dims, budget, instance
seeds) in workloads.fault_slices, not by a stored list of failing cases.
This command designs every member, applies the benchmark's checks and
prints how many fail today, per slice and family.  A change that mends a
fault shows here as fewer failures, with the slice definitions untouched.

--probe N also designs N seeded instances per family of the neighbouring
regions the sweep leaves out (P = 1e-9 and 1e-6, and relay capacity at
P = 1e6 with destinations wider than the signal rank) and prints their
failure counts, which depend on the instance.
"""

from __future__ import annotations

import argparse
import collections

import numpy as np

import workloads
from run import import_matfield


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", type=int, default=0, metavar="N")
    parser.add_argument("--list", action="store_true", help="print every failing member")
    args = parser.parse_args()
    mf = import_matfield()
    counts = collections.Counter()
    for family, dims, power, seeds, fault in workloads.fault_slices():
        _, _, problem = workloads.design_once(mf, family, dims, power, seeds)
        counts[fault, family, "members"] += 1
        if problem is not None:
            counts[fault, family, "fail"] += 1
            if args.list:
                print(f"{fault} {family} dims={dims} P={power:g} seeds={seeds}: {problem}")
    for (fault, family, kind), n in sorted(counts.items()):
        if kind == "members":
            print(f"{fault:10s} {family:15s} {counts[fault, family, 'fail']}/{n} fail")

    rng = np.random.default_rng(0)
    regions = [(family, power, False) for power in (1e-9, 1e-6) for family in workloads.FAMILIES]
    regions.append(("relay-capacity", 1e6, True))
    for family, power, wide_dst in regions if args.probe else ():
        fails = 0
        for _ in range(args.probe):
            dims = tuple(int(d) for d in rng.integers(1, 9, 4))
            if wide_dst:
                dims = (dims[0], max(dims[1], min(dims[0], dims[2], dims[3]) + 1), dims[2], dims[3])
            seeds = tuple(int(s) for s in rng.integers(0, 2**62, 2))
            fails += workloads.design_once(mf, family, dims, power, seeds)[2] is not None
        print(f"probe {family:15s} P={power:g}{' wide dst' if wide_dst else ''}: "
              f"{fails}/{args.probe} fail")


if __name__ == "__main__":
    main()
