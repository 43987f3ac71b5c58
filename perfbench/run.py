#!/usr/bin/env python3
"""End-to-end benchmark of the BDS reproduction's default configuration.

Run from the root of a checkout:

    python3 perfbench/run.py --workload burst-uncapped --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all            # every workload, one table

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
split from an outside-in traced run. The last line of standard output is
the result as one JSON object; the exit code is non-zero when an output
check fails. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", help="one workload of perfbench/workloads.py")
    target.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    from perfbench import THREAD_VARS

    # One process generates the load: pin BLAS/OpenMP pools before numpy
    # loads, so a run measures the program and not thread scheduling.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        print(f"error: imported repro from {repro.__file__}, not {src}", file=sys.stderr)
        return 2
    from perfbench import bench
    from perfbench.workloads import WORKLOADS

    if args.all:
        return bench.run_all(ROOT, Path(__file__).resolve(), args.seed, args.seconds,
                             bool(args.trace), list(WORKLOADS))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    return bench.run_workload(ROOT, args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
