"""Routing-solve benchmark — Fleischer FPTAS against the exact LP.

Times the routing solvers on the same deterministic random instances at
three commodity scales (the largest matching the Fig. 13b regime where
the paper runs its FPTAS):

* the vectorized Fleischer phase solver (``repro.lp.fptas``), cold and
  warm-started (demands drifted as between consecutive control cycles),
  next to the exact LP (``scipy.optimize.linprog``),
* the greedy water-filler, dict-walking reference vs the incidence
  rewrite (which must agree bit-for-bit — it feeds the determinism
  fingerprints).

Every FPTAS objective is checked against the exact LP: cold and warm
solves must clear the ``(1−ε)³`` guarantee on every benchmarked
instance.

Run as a script to emit ``BENCH_routing.json``::

    PYTHONPATH=src python benchmarks/bench_routing_solver.py [--quick]

or through pytest like the other benchmarks (quick scale).
"""

import argparse
import json
import random
import sys
import time
from pathlib import Path

from repro.analysis.reporting import format_table
from repro.core.routing import BDSRouter
from repro.lp.fptas import max_multicommodity_flow
from repro.lp.incidence import PathIncidence
from repro.lp.mcf import Commodity, PathMCF

EPSILON = 0.1
FULL_SCALES = (50, 150, 400)
QUICK_SCALES = (15, 40, 90)

RESULT_FORMAT_VERSION = 2


def make_instance(num_commodities, seed):
    """A router-shaped instance: (uplink, wan, downlink) triple paths.

    Mirrors what ``BDSRouter._build_commodities`` produces — each
    commodity is a merged block group with up to 3 candidate source
    servers, demand-capped by the group's remaining bytes per cycle.
    """
    rng = random.Random(seed)
    num_dcs = 8
    servers_per_dc = max(4, num_commodities // 10)
    caps = {}
    for a in range(num_dcs):
        for b in range(num_dcs):
            if a != b:
                caps[("wan", f"dc{a}", f"dc{b}")] = rng.uniform(50.0, 200.0)
        for s in range(servers_per_dc):
            caps[("up", f"dc{a}-s{s}")] = rng.uniform(10.0, 40.0)
            caps[("down", f"dc{a}-s{s}")] = rng.uniform(10.0, 40.0)
    commodities = []
    for ci in range(num_commodities):
        dst_dc = rng.randrange(num_dcs)
        dst = f"dc{dst_dc}-s{rng.randrange(servers_per_dc)}"
        paths = []
        for _ in range(rng.randint(2, 3)):
            src_dc = rng.choice([d for d in range(num_dcs) if d != dst_dc])
            src = f"dc{src_dc}-s{rng.randrange(servers_per_dc)}"
            paths.append(
                (
                    ("up", src),
                    ("wan", f"dc{src_dc}", f"dc{dst_dc}"),
                    ("down", dst),
                )
            )
        demand = rng.uniform(5.0, 80.0) if rng.random() < 0.8 else None
        commodities.append(
            Commodity(name=f"g{ci}", paths=tuple(paths), demand=demand)
        )
    return commodities, caps


def drift_demands(commodities, factor=0.9):
    """The next cycle's instance: same paths/capacities, demands moved."""
    return [
        Commodity(
            name=c.name,
            paths=c.paths,
            demand=None if c.demand is None else c.demand * factor,
        )
        for c in commodities
    ]


def timed(fn):
    started = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - started


def reference_greedy(commodities, capacities, fair_rounds=3):
    """The pre-incidence greedy loop (dict walking), kept as baseline."""
    residual = dict(capacities)
    rates = {}
    remaining = {
        i: (c.demand if c.demand is not None else float("inf"))
        for i, c in enumerate(commodities)
    }

    def push_flow(index, limit_fraction):
        commodity = commodities[index]
        demand = remaining[index]
        while demand > 1e-9:
            best_pi, best_room = -1, 0.0
            for pi, path in enumerate(commodity.paths):
                room = min(residual.get(r, 0.0) for r in path)
                if room > best_room:
                    best_room = room
                    best_pi = pi
            if best_pi < 0 or best_room <= 1e-9:
                break
            push = min(demand, best_room * limit_fraction)
            if push <= 1e-9:
                break
            key = (commodity.name, best_pi)
            rates[key] = rates.get(key, 0.0) + push
            for res in commodity.paths[best_pi]:
                residual[res] = residual.get(res, 0.0) - push
            demand -= push
            if limit_fraction < 1.0:
                break
        remaining[index] = demand

    active = [i for i, d in remaining.items() if d > 1e-9]
    for _round in range(fair_rounds):
        if not active:
            break
        share = 1.0 / max(len(active), 1)
        for i in active:
            push_flow(i, share)
        active = [i for i in active if remaining[i] > 1e-9]
    for i in range(len(commodities)):
        if remaining[i] > 1e-9:
            push_flow(i, 1.0)
    return rates


def bench_scale(num_commodities, seed=0):
    """One scale point: every solver on the same instance."""
    commodities, caps = make_instance(num_commodities, seed)
    guarantee = (1 - EPSILON) ** 3

    cold, cold_s = timed(
        lambda: max_multicommodity_flow(commodities, caps, epsilon=EPSILON)
    )
    lp, lp_s = timed(lambda: PathMCF(commodities, caps).solve_lp())

    drifted = drift_demands(commodities)
    warm, warm_s = timed(
        lambda: max_multicommodity_flow(
            drifted, caps, epsilon=EPSILON, warm=cold.warm_state
        )
    )
    cold2, cold2_s = timed(
        lambda: max_multicommodity_flow(drifted, caps, epsilon=EPSILON)
    )
    lp2 = PathMCF(drifted, caps).solve_lp()

    greedy_old, greedy_old_s = timed(lambda: reference_greedy(commodities, caps))
    # Match the router's call pattern: one shared incidence per cycle,
    # amortized across backends (route() builds it before dispatching).
    inc, inc_build_s = timed(
        lambda: PathIncidence.build(commodities, caps, strict=False)
    )
    greedy_new, greedy_new_s = timed(
        lambda: BDSRouter._solve_greedy(commodities, caps, incidence=inc)
    )

    return {
        "commodities": num_commodities,
        "resources": len(caps),
        "epsilon": EPSILON,
        "fptas": {
            "cold_s": cold_s,
            "warm_s": warm_s,
            "cold_drifted_s": cold2_s,
            "speedup_warm_vs_cold": (
                cold2_s / warm_s if warm_s > 0 else float("inf")
            ),
            "iterations_cold": cold.iterations,
            "iterations_warm": warm.iterations,
            "phases_cold": cold.phases,
            "warm_start": warm.warm_start,
        },
        "objectives": {
            "lp": lp.objective,
            "lp_s": lp_s,
            "cold": cold.objective,
            "warm": warm.objective,
            "lp_drifted": lp2.objective,
            "cold_ratio": cold.objective / lp.objective if lp.objective else 1.0,
            "warm_ratio": (
                warm.objective / lp2.objective if lp2.objective else 1.0
            ),
            "guarantee": guarantee,
            "cold_within_guarantee": cold.objective
            >= guarantee * lp.objective - 1e-9,
            "warm_within_guarantee": warm.objective
            >= guarantee * lp2.objective - 1e-9,
        },
        "greedy": {
            "reference_s": greedy_old_s,
            "incidence_s": greedy_new_s,
            "incidence_build_s": inc_build_s,
            "speedup": (
                greedy_old_s / greedy_new_s if greedy_new_s > 0 else float("inf")
            ),
            "identical": greedy_old == greedy_new,
        },
    }


def run_benchmark(scales, seed=0):
    return {
        "format_version": RESULT_FORMAT_VERSION,
        "epsilon": EPSILON,
        "scales": [bench_scale(n, seed=seed) for n in scales],
    }


def format_report(payload) -> str:
    rows = []
    for entry in payload["scales"]:
        fp = entry["fptas"]
        obj = entry["objectives"]
        gr = entry["greedy"]
        rows.append(
            [
                str(entry["commodities"]),
                f"{obj['lp_s'] * 1e3:.0f}",
                f"{fp['cold_s'] * 1e3:.0f}",
                f"{fp['warm_s'] * 1e3:.0f}",
                f"{obj['cold_ratio']:.4f}",
                f"{obj['warm_ratio']:.4f}",
                fp["warm_start"],
                f"{gr['speedup']:.1f}x",
                "yes" if gr["identical"] else "NO",
            ]
        )
    table = format_table(
        [
            "commodities",
            "LP (ms)",
            "cold (ms)",
            "warm (ms)",
            "cold obj/LP",
            "warm obj/LP",
            "warm mode",
            "greedy",
            "greedy ==",
        ],
        rows,
    )
    largest = payload["scales"][-1]
    return (
        f"[routing solver] Fleischer FPTAS vs exact LP, eps={EPSILON}\n"
        + table
        + (
            f"\nlargest scale ({largest['commodities']} commodities): "
            f"cold solve {largest['fptas']['cold_s'] * 1e3:.0f}ms, warm "
            f"resumes in {largest['fptas']['warm_s'] * 1e3:.0f}ms"
        )
    )


def check(payload) -> list:
    """Acceptance checks; returns a list of failure strings."""
    failures = []
    for entry in payload["scales"]:
        n = entry["commodities"]
        if not entry["objectives"]["cold_within_guarantee"]:
            failures.append(f"{n} commodities: cold solve below (1-eps)^3 * LP")
        if not entry["objectives"]["warm_within_guarantee"]:
            failures.append(f"{n} commodities: warm solve below (1-eps)^3 * LP")
        if not entry["greedy"]["identical"]:
            failures.append(f"{n} commodities: greedy rewrite diverged")
    return failures


def test_routing_solver(benchmark, report):
    """Pytest entry: quick scales; guarantee + parity must always hold."""
    payload = benchmark.pedantic(
        lambda: run_benchmark(QUICK_SCALES, seed=0), rounds=1, iterations=1
    )
    report("\n" + format_report(payload))
    assert check(payload) == []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small scales for CI smoke runs",
    )
    parser.add_argument(
        "--output",
        default="BENCH_routing.json",
        help="where to write the JSON result (default: ./BENCH_routing.json)",
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    scales = QUICK_SCALES if args.quick else FULL_SCALES
    payload = run_benchmark(scales, seed=args.seed)
    payload["quick"] = args.quick
    print(format_report(payload))

    Path(args.output).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {args.output}")

    failures = check(payload)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
