"""Measurement loops, metrics and reporting of one benchmark run."""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy

from perfbench import THREAD_VARS
from perfbench.check import check_result
from perfbench.tracing import (
    SELF_METRICS,
    Instrumentation,
    Tracer,
    aggregate,
    crosscheck,
    write_chrome_trace,
)
from perfbench.workloads import build_simulation, instance_seeds, pair_count

#: Set-up-only repetitions of each scenario before the timed loop, so
#: ``setup_s`` is a median of several samples even when few runs fit.
SETUP_REPS = 3

#: Whole rounds (every scenario once) an untraced run makes at least, so
#: each scenario's repeats can be checked against its first run and the
#: decide tail has a fixed minimum sample count.
MIN_ROUNDS = 3

#: ``decide_tail_ms`` is the highest percentile with this many decide
#: samples beyond it.
TAIL_SAMPLES = 10

#: The self times of a traced run must add up to its wall within this.
SPLIT_TOLERANCE_S = 1e-6

#: Host times are reported as on a host where ``reference_sample`` takes
#: this long.
REFERENCE_S = 0.125


class Outcome:
    """Accumulated output checks of every simulated run in one benchmark run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self._fingerprints: Dict[int, str] = {}

    def record(self, seed: int, sim, result) -> None:
        bad, problems = check_result(sim.jobs, result)
        self.attempted += len(sim.jobs)
        self.problems.extend(f"scenario {seed}: {p}" for p in problems)
        fingerprint = self._fingerprints.setdefault(seed, result.fingerprint())
        if fingerprint != result.fingerprint():
            # Runs of one scenario must be identical, traced or not.
            self.problems.append(f"scenario {seed}: fingerprint differs from its first run")
            bad = {job.job_id for job in sim.jobs}
        self.failed += len(bad)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def decide_times(result) -> List[float]:
    """Host seconds of every decide the simulator made."""
    return [
        s.time_decide
        for s in result.cycle_stats
        if not s.decision_reused and not s.fast_forwarded
    ]


def completion_times(jobs, result) -> List[float]:
    """Simulated seconds from arrival to completion of each completed job."""
    return [
        result.job_completion[j.job_id] - j.arrival_time
        for j in jobs
        if j.job_id in result.job_completion
    ]


def tail_percentile(samples: int) -> float:
    """The highest percentile with ``TAIL_SAMPLES`` of ``samples`` beyond it."""
    return max(0.0, 100.0 * (1.0 - TAIL_SAMPLES / samples))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reference_sample() -> float:
    """Host seconds of a fixed job that shares no code with the program.

    Tuple-keyed dict building and scanning, a keyed sort, and numpy
    argsort, gather and scatter: the kinds of work the simulator does,
    so other load on the host slows both alike.
    """
    gc.collect()
    started = time.perf_counter()
    table = {}
    for i in range(30_000):
        table[("job", i % 977, i)] = i
    total = 0
    for key, value in table.items():
        if key[1] & 1:
            total += value
    sorted(table, key=lambda k: (k[2] % 101, k[1]))
    values = np.random.default_rng(0).random(300_000)
    counts = np.zeros(1000)
    for _ in range(10):
        order = np.argsort(values, kind="stable")
        values = values[order] * 1.0001
        np.add.at(counts, order % 1000, 1.0)
    return time.perf_counter() - started


def _setup_once(name: str, seed: int) -> float:
    gc.collect()
    started = time.perf_counter()
    build_simulation(name, seed)
    return time.perf_counter() - started


def _run_frozen(sim):
    """Run with the set-up heap frozen out of the collector's scans.

    Otherwise one full collection over the scenario's static objects
    lands at an arbitrary cycle and adds ~100 ms to whichever decide it
    hits. Objects the run allocates are still collected, and timed.
    """
    gc.freeze()
    try:
        return sim.run()
    finally:
        gc.unfreeze()


def _timed_run(name: str, seed: int):
    gc.collect()
    started = time.perf_counter()
    sim = build_simulation(name, seed)
    built = time.perf_counter()
    result = _run_frozen(sim)
    done = time.perf_counter()
    return sim, result, built - started, done - started


def _traced_run(name: str, seed: int, tracer: Tracer, instr: Instrumentation):
    gc.collect()
    with instr:
        root = tracer.begin("wall")
        span = tracer.begin("setup")
        sim = build_simulation(name, seed)
        tracer.end(span)
        span = tracer.begin("simulator.run")
        result = _run_frozen(sim)
        tracer.end(span)
        tracer.end(root)
    return sim, result


def _scenario_info(seed: int, sim, result) -> dict:
    return {
        "seed": seed,
        "jobs": len(sim.jobs),
        "pairs": pair_count(sim.jobs),
        "cycles": result.cycles_run,
        "fingerprint": result.fingerprint(),
    }


def measure(name: str, seed: int, seconds: float) -> dict:
    """Untraced rounds over the workload's scenarios: end-to-end metrics.

    Times are medians per scenario, averaged over scenarios; decide times
    pool every decide of the run. Completion times repeat exactly, so
    they come from the first round.

    Host times are scaled by ``REFERENCE_S`` over the median time of a
    reference job run after every scenario run: on a shared host, other
    tenants slow whole runs by up to 30%, and they slow the reference job
    alike. The unscaled figures are kept in the run's output file.
    """
    seeds = instance_seeds(name, seed)
    outcome = Outcome()
    started = time.perf_counter()
    setups = {s: [_setup_once(name, s) for _ in range(SETUP_REPS)] for s in seeds}
    walls: Dict[int, List[float]] = {s: [] for s in seeds}
    decides: List[float] = []
    round_decides = 0
    jct: List[float] = []
    jct_max: List[float] = []
    scenarios: List[dict] = []
    reference = [reference_sample()]
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - started < seconds:
        for s in seeds:
            sim, result, setup_s, wall_s = _timed_run(name, s)
            reference.append(reference_sample())
            setups[s].append(setup_s)
            walls[s].append(wall_s)
            times = decide_times(result)
            decides.extend(times)
            outcome.record(s, sim, result)
            if rounds == 0:
                round_decides += len(times)
                completions = completion_times(sim.jobs, result)
                jct.extend(completions)
                jct_max.append(max(completions, default=float("nan")))
                scenarios.append(_scenario_info(s, sim, result))
        rounds += 1
    # The percentile depends only on the decide count of the guaranteed
    # rounds, so it is the same in every run of a seed.
    pct = tail_percentile(round_decides * MIN_ROUNDS)
    tail = float(np.percentile(decides, pct, method="lower"))
    host_times = {
        "wall_s": statistics.fmean(statistics.median(walls[s]) for s in seeds),
        "setup_s": statistics.fmean(statistics.median(setups[s]) for s in seeds),
        "decide_p50_ms": 1e3 * statistics.median(decides),
        "decide_tail_ms": 1e3 * tail,
    }
    scale = REFERENCE_S / statistics.median(reference)
    metrics = {
        **{metric: scale * value for metric, value in host_times.items()},
        "peak_rss_mb": peak_rss_mb(),
        "jct_p50_s": statistics.median(jct) if jct else float("nan"),
        "jct_max_s": statistics.fmean(jct_max),
    }
    return {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
        "info": {
            "failed_frac": outcome.failed / outcome.attempted,
            "rounds": rounds,
            "scenarios": scenarios,
            "unscaled": host_times,
            "reference_s": reference,
            "scale": scale,
            "walls_s": {str(s): w for s, w in walls.items()},
            "setups_s": {str(s): v for s, v in setups.items()},
            "decide_samples": len(decides),
            "decide_tail_percentile": pct,
            "decide_samples_beyond_tail": int(sum(d > tail for d in decides)),
            "problems": outcome.problems[:20],
        },
    }


def layer_metrics(
    tracer: Tracer, instr: Instrumentation, runs: Sequence[tuple]
) -> Tuple[Dict[str, float], List[dict], float]:
    """Per-layer metrics of one traced round, its cross-check and split sum."""
    agg = aggregate(tracer.spans)
    counters = tracer.counters

    def calls(span: str) -> float:
        return agg.get(span, {}).get("calls", 0)

    def total(span: str) -> float:
        return agg.get(span, {}).get("total_s", 0.0)

    metrics = {
        metric: agg.get(span, {}).get("self_s", 0.0)
        for span, metric in SELF_METRICS.items()
    }
    caches = [sim._cycle_cache for sim in instr.sims]
    caches += [mirror.cache for mirror in instr.mirrors.values()]
    hits = sum(c.hits for c in caches)
    misses = sum(c.misses for c in caches)
    decided = counters["validate.directives"]
    metrics.update(
        {
            "controller.decide_calls": calls("controller.decide"),
            "controller.decide_s": total("controller.decide"),
            "baselines.decide_calls": calls("baselines.decide"),
            "baselines.decide_s": total("baselines.decide"),
            "scheduling.select_calls": calls("scheduling.select"),
            "scheduling.blocks_selected": counters["scheduling.blocks_selected"],
            "routing.route_calls": calls("routing.route"),
            "routing.directives": counters["routing.directives"],
            "shardexec.payload_bytes": counters["shardexec.payload_bytes"],
            "simulator.validate_keep_ratio": (
                counters["validate.flows"] / decided if decided else 1.0
            ),
            "simulator.cycles": sum(r.cycles_run for _s, r in runs),
            "simulator.cycles_reused": sum(r.cycles_decision_reused for _s, r in runs),
            "simulator.cycles_fast_forwarded": sum(r.cycles_fast_forwarded for _s, r in runs),
            "flow.rate_calls": calls("flow.rate"),
            "flow.flows": counters["flow.flows"],
            "store.record_calls": calls("store.record"),
            "store.deliveries": counters["store.deliveries"],
            "cycle_cache.hits": hits,
            "cycle_cache.misses": misses,
            "cycle_cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "trace.wall_s": total("wall"),
        }
    )
    stage_totals: Dict[str, float] = {}
    for _sim, result in runs:
        for stage, seconds in result.stage_time_totals().items():
            stage_totals[stage] = stage_totals.get(stage, 0.0) + seconds
    split_sum = sum(metrics[m] for m in SELF_METRICS.values())
    return metrics, crosscheck(stage_totals, agg), split_sum


def measure_traced(name: str, seed: int, seconds: float) -> Tuple[dict, Tracer]:
    """Rounds of one untraced and one traced run per scenario: the layer split.

    Layer figures come from the round whose traced wall is the median;
    the tracing overhead compares median traced and untraced round walls.
    """
    seeds = instance_seeds(name, seed)
    outcome = Outcome()
    rounds: List[dict] = []
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < seconds:
        tracer = Tracer()
        instr = Instrumentation(tracer)
        untraced = 0.0
        runs = []
        for s in seeds:
            sim, result, _setup, wall_s = _timed_run(name, s)
            untraced += wall_s
            outcome.record(s, sim, result)
            t_sim, t_result = _traced_run(name, s, tracer, instr)
            outcome.record(s, t_sim, t_result)
            runs.append((t_sim, t_result))
        metrics, rows, split_sum = layer_metrics(tracer, instr, runs)
        if abs(split_sum - metrics["trace.wall_s"]) > SPLIT_TOLERANCE_S:
            outcome.problems.append(
                f"layer split sums to {split_sum!r} s, traced wall is {metrics['trace.wall_s']!r} s"
            )
        rounds.append(
            {
                "untraced": untraced,
                "metrics": metrics,
                "crosscheck": rows,
                "split_sum": split_sum,
                "tracer": tracer,
                "scenarios": [_scenario_info(s, *run) for s, run in zip(seeds, runs)],
            }
        )
    traced = [r["metrics"]["trace.wall_s"] for r in rounds]
    chosen = sorted(rounds, key=lambda r: r["metrics"]["trace.wall_s"])[(len(rounds) - 1) // 2]
    metrics = dict(chosen["metrics"])
    metrics["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(r["untraced"] for r in rounds) - 1.0
    )
    return {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
        "info": {
            "failed_frac": outcome.failed / outcome.attempted,
            "rounds": len(rounds),
            "scenarios": chosen["scenarios"],
            "untraced_walls_s": [r["untraced"] for r in rounds],
            "traced_walls_s": traced,
            "split_sum_s": chosen["split_sum"],
            "crosscheck": chosen["crosscheck"],
            "spans": len(chosen["tracer"].spans),
            "problems": outcome.problems[:20],
        },
    }, chosen["tracer"]


def host_metadata(root: Path) -> dict:
    commit = "unknown"
    if (root / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": commit,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def metric_units(root: Path, trace: bool) -> Dict[str, str]:
    """Metric name -> unit, in BENCHMARK.json order, for one kind of run."""
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool) -> int:
    """One benchmark run: report lines, then the result as the last line."""
    units = metric_units(root, trace)
    if trace:
        report, tracer = measure_traced(name, seed, seconds)
    else:
        report, tracer = measure(name, seed, seconds), None
    if set(report["metrics"]) != set(units):
        raise RuntimeError(
            f"measured metrics {sorted(report['metrics'])} differ from BENCHMARK.json {sorted(units)}"
        )
    meta = host_metadata(root)
    meta.update(
        {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    )
    info = report.pop("info")
    out_dir = root / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    with open(out_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "info": info, **report}, fh, indent=1)
    if tracer is not None:
        write_chrome_trace(tracer, out_dir / f"{stem}.spans.json")

    print(f"# {name} seed={seed} trace={int(trace)}")
    print("# meta " + json.dumps({**meta, "rounds": info["rounds"], "scenarios": info["scenarios"]}))
    for metric, unit in units.items():
        print(f"{metric:34s} {report['metrics'][metric]:>16.6g} {unit}")
    print(f"{'failed_frac':34s} {info['failed_frac']:>16.6g} ratio")
    if not trace:
        print(
            f"# decide_tail_ms is p{info['decide_tail_percentile']:.4g} of "
            f"{info['decide_samples']} decides, {info['decide_samples_beyond_tail']} beyond it"
        )
        print(
            f"# host times scaled by {info['scale']:.4g} (reference job median "
            f"{statistics.median(info['reference_s']):.4g} s, nominal {REFERENCE_S} s); unscaled: "
            + ", ".join(f"{k}={v:.6g}" for k, v in info["unscaled"].items())
        )
    else:
        print(f"# layer self times sum to {info['split_sum_s']:.6f} s of a {report['metrics']['trace.wall_s']:.6f} s traced wall")
        print("# program stage timer vs outside-in spans (s):")
        for row in info["crosscheck"]:
            flag = "ok" if row["agree"] else "DISAGREE"
            print(
                f"#   {row['stage']:14s} program {row['program_s']:10.4f}  "
                f"spans {row['spans_s']:10.4f} ({'+'.join(row['spans'])})  {flag}"
            )
    for problem in info["problems"]:
        print(f"# FAIL {problem}")
    result_line = {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            metric: {"value": float(report["metrics"][metric]), "unit": unit}
            for metric, unit in units.items()
        },
    }
    print(json.dumps(result_line), flush=True)
    return 0 if report["correct"] else 1


def run_all(
    root: Path, script: Path, seed: int, seconds: float, trace: bool, workloads: Sequence[str]
) -> int:
    """Every workload, each in its own process; one table of all metrics."""
    status = 0
    rows: List[Tuple[str, Optional[dict]]] = []
    for name in workloads:
        proc = subprocess.run(
            [
                sys.executable,
                str(script),
                "--workload", name,
                "--seed", str(seed),
                "--seconds", str(seconds),
                "--trace", str(int(trace)),
            ],
            capture_output=True,
            text=True,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = None
        if lines:
            try:
                result = json.loads(lines[-1])
            except json.JSONDecodeError:
                result = None
        if proc.returncode != 0 or result is None or not result["correct"]:
            status = 1
        rows.append((name, result))
    units = metric_units(root, trace)
    print(f"{'metric':34s} {'unit':>6s} " + " ".join(f"{n:>17s}" for n, _ in rows))
    for metric, unit in units.items():
        cells = [
            f"{r['metrics'][metric]['value']:>17.6g}" if r else f"{'-':>17s}"
            for _n, r in rows
        ]
        print(f"{metric:34s} {unit:>6s} " + " ".join(cells))
    cells = [
        f"{r['failed'] / r['attempted']:>17.6g}" if r else f"{'-':>17s}" for _n, r in rows
    ]
    print(f"{'failed_frac':34s} {'ratio':>6s} " + " ".join(cells))
    print(f"{'correct':34s} {'':>6s} " + " ".join(f"{str(bool(r and r['correct'])):>17s}" for _n, r in rows))
    return status
