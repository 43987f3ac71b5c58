"""Parallel experiment engine A/B — serial vs pool fan-out vs warm cache.

Runs the same mini figure-suite batch (a strategy × file-size grid of
independent simulations) three ways:

* **serial** — ``run_many(specs, workers=1)``, the baseline every other
  mode must match bit-for-bit (compared via ``SimResult.fingerprint()``);
* **parallel** — ``workers=N`` over a process pool, no cache (the pure
  fan-out speedup);
* **cached** — parallel with a cold content-addressed
  :class:`~repro.analysis.runcache.RunCache`, then a warm re-run that
  must be served entirely from disk.

Run as a script to emit ``BENCH_parallel.json``::

    PYTHONPATH=src python benchmarks/bench_parallel_suite.py [--quick]

or through pytest like the other benchmarks (quick scale). The >=2.5x
parallel-speedup floor is asserted only when the host actually has >=4
CPUs (a 1-core container cannot exhibit it); the warm-cache floor
(< 20 % of the cold-cache wall time) and bit-identical results are
asserted everywhere.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

from repro.analysis.parallel import RunSpec, run_many
from repro.analysis.runcache import RunCache
from repro.net.topology import Topology
from repro.overlay.job import MulticastJob
from repro.utils.units import MB, MBps

RESULT_FORMAT_VERSION = 2

FULL_STRATEGIES = ("bds", "gingko", "bullet", "akamai", "chain", "direct")
QUICK_STRATEGIES = ("bds", "gingko", "direct")
# Sized so each full-scale run takes a substantial fraction of a second
# (41-670 simulated cycles depending on strategy): thin 2 MB/s NICs make
# the transfer span many cycles, which is what gives the pool something
# to overlap.
FULL_SIZES_MB = (1024, 2048)
QUICK_SIZES_MB = (48,)


def make_specs(quick: bool, seed: int = 7):
    """The suite batch: strategy × file-size grid on a 6-DC mesh."""
    strategies = QUICK_STRATEGIES if quick else FULL_STRATEGIES
    sizes_mb = QUICK_SIZES_MB if quick else FULL_SIZES_MB

    def make_scenario(size_mb: int):
        def _scenario():
            topo = Topology.full_mesh(
                num_dcs=6,
                servers_per_dc=8,
                wan_capacity=500 * MBps,
                uplink=2 * MBps,
            )
            job = MulticastJob(
                job_id="suite",
                src_dc="dc0",
                dst_dcs=tuple(f"dc{i}" for i in range(1, 6)),
                total_bytes=size_mb * MB,
                block_size=2 * MB,
            )
            job.bind(topo)
            return topo, [job]

        return _scenario

    return [
        RunSpec(
            strategy=strategy,
            seed=seed,
            scenario=make_scenario(size_mb),
            label=f"{strategy}:{size_mb}MB",
        )
        for strategy in strategies
        for size_mb in sizes_mb
    ]


def _fingerprints(outcomes):
    for outcome in outcomes:
        if not outcome.ok:
            raise RuntimeError(
                f"run {outcome.spec.label!r} failed: {outcome.error}"
            )
    return [outcome.result.fingerprint() for outcome in outcomes]


def measure_suite(quick: bool, workers: int, progress: bool) -> dict:
    """Time the batch serial / parallel / cold-cache / warm-cache."""
    specs = make_specs(quick)

    started = time.perf_counter()
    serial = run_many(make_specs(quick), workers=1)
    serial_wall = time.perf_counter() - started
    serial_fps = _fingerprints(serial)

    started = time.perf_counter()
    parallel = run_many(make_specs(quick), workers=workers, progress=progress)
    parallel_wall = time.perf_counter() - started
    parallel_fps = _fingerprints(parallel)

    cache_dir = tempfile.mkdtemp(prefix="bench-repro-cache-")
    try:
        cold_cache = RunCache(root=cache_dir)
        started = time.perf_counter()
        cold = run_many(
            make_specs(quick), workers=workers, cache=cold_cache,
            progress=progress,
        )
        cold_wall = time.perf_counter() - started
        cold_fps = _fingerprints(cold)

        warm_cache = RunCache(root=cache_dir)
        started = time.perf_counter()
        warm = run_many(
            make_specs(quick), workers=workers, cache=warm_cache,
            progress=progress,
        )
        warm_wall = time.perf_counter() - started
        warm_fps = _fingerprints(warm)
        entry_count = warm_cache.entry_count()
        size_bytes = warm_cache.size_bytes()
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    return {
        "runs": len(specs),
        "workers": workers,
        "serial_wall_s": serial_wall,
        "parallel_wall_s": parallel_wall,
        "parallel_speedup": serial_wall / max(parallel_wall, 1e-9),
        "cold_cache": {
            "wall_s": cold_wall,
            "stats": cold_cache.stats.as_dict(),
        },
        "warm_cache": {
            "wall_s": warm_wall,
            "stats": warm_cache.stats.as_dict(),
            "fraction_of_cold": warm_wall / max(cold_wall, 1e-9),
            "entries": entry_count,
            "size_bytes": size_bytes,
        },
        "identical_results": (
            serial_fps == parallel_fps == cold_fps == warm_fps
        ),
    }


def format_report(payload: dict) -> str:
    suite = payload["suite"]
    return (
        f"[parallel suite] {suite['runs']} runs, "
        f"workers={suite['workers']}, cpu_count={payload['cpu_count']}\n"
        f"serial    {suite['serial_wall_s']:.2f}s\n"
        f"parallel  {suite['parallel_wall_s']:.2f}s "
        f"-> {suite['parallel_speedup']:.2f}x\n"
        f"cold cache {suite['cold_cache']['wall_s']:.2f}s "
        f"{suite['cold_cache']['stats']}\n"
        f"warm cache {suite['warm_cache']['wall_s']:.2f}s "
        f"({suite['warm_cache']['fraction_of_cold']:.1%} of cold) "
        f"{suite['warm_cache']['stats']}\n"
        f"identical results across all modes: {suite['identical_results']}"
    )


def run_bench(quick: bool, workers: int, progress: bool = False) -> dict:
    return {
        "format_version": RESULT_FORMAT_VERSION,
        "quick": quick,
        "cpu_count": os.cpu_count() or 1,
        "suite": measure_suite(quick, workers, progress),
    }


def test_parallel_suite(benchmark, report):
    """Pytest entry: quick scale, 2 workers; parity + warm cache asserted."""
    payload = benchmark.pedantic(
        lambda: run_bench(quick=True, workers=2), rounds=1, iterations=1
    )
    report("\n" + format_report(payload))
    suite = payload["suite"]
    assert suite["identical_results"]
    assert suite["warm_cache"]["stats"]["hits"] >= 1
    assert suite["warm_cache"]["stats"]["misses"] == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small batch for CI smoke runs (no speedup floor asserted)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=max(4, os.cpu_count() or 1),
        help="pool size for the parallel/cached passes (default: >=4)",
    )
    parser.add_argument(
        "--output",
        default="BENCH_parallel.json",
        help="where to write the JSON result (default: ./BENCH_parallel.json)",
    )
    parser.add_argument(
        "--progress", action="store_true", help="stream run_many progress"
    )
    args = parser.parse_args(argv)

    payload = run_bench(
        quick=args.quick, workers=args.workers, progress=args.progress
    )
    print(format_report(payload))

    Path(args.output).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {args.output}")

    suite = payload["suite"]
    failed = False
    if not suite["identical_results"]:
        print("FAIL: parallel/cached results diverged from serial", file=sys.stderr)
        failed = True
    if suite["warm_cache"]["stats"]["misses"] > 0:
        print("FAIL: warm cache pass missed", file=sys.stderr)
        failed = True
    if suite["warm_cache"]["fraction_of_cold"] >= 0.20:
        print(
            f"FAIL: warm cache pass took "
            f"{suite['warm_cache']['fraction_of_cold']:.1%} of the cold pass "
            "(floor: 20%)",
            file=sys.stderr,
        )
        failed = True
    cpu_count = payload["cpu_count"]
    if not args.quick:
        if cpu_count >= 4 and args.workers >= 4:
            if suite["parallel_speedup"] < 2.5:
                print(
                    f"FAIL: parallel speedup {suite['parallel_speedup']:.2f}x "
                    "below the 2.5x target at workers>=4",
                    file=sys.stderr,
                )
                failed = True
        else:
            print(
                f"note: host has {cpu_count} CPU(s); the 2.5x parallel-speedup "
                "floor needs >=4 and is not asserted here"
            )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
