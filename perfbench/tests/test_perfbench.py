"""Tests of the benchmark's own code: generators, output checks, span arithmetic.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from perfbench.bench import layer_metrics, metric_units, tail_percentile
from perfbench.check import check_result
from perfbench.tracing import SELF_METRICS, Instrumentation, Tracer, aggregate, self_times
from perfbench.workloads import WORKLOADS
from repro.core.config import BDSConfig
from repro.core.controller import BDSController
from repro.net.simulator import SimConfig, Simulation
from repro.net.topology import Topology
from repro.overlay.job import MulticastJob
from repro.utils.units import MB, MBps


def _describe_jobs(jobs):
    return [
        (j.job_id, j.src_dc, tuple(j.dst_dcs), j.total_bytes, j.block_size, j.arrival_time)
        for j in jobs
    ]


def _inputs_digest(name, seed):
    topology, jobs, background = WORKLOADS[name].inputs(seed)
    bg = None
    if background is not None:
        key = ("wan",) + tuple(sorted(topology.links)[0][1:])
        bg = [background.usage(key, t, 1.0) for t in (0.0, 3600.0, 7200.0)]
    return sorted(topology.links), _describe_jobs(jobs), bg


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_deterministic_per_seed(name):
    assert _inputs_digest(name, 7) == _inputs_digest(name, 7)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_differ_across_seeds(name):
    assert _inputs_digest(name, 7)[1] != _inputs_digest(name, 8)[1]


def _small_sim():
    topology = Topology.full_mesh(
        num_dcs=3, servers_per_dc=2, wan_capacity=20 * MBps, uplink=10 * MBps
    )
    job = MulticastJob(
        job_id="j0",
        src_dc="dc0",
        dst_dcs=("dc1", "dc2"),
        total_bytes=64 * MB,
        block_size=4 * MB,
    )
    job.bind(topology)
    return Simulation(
        topology=topology,
        jobs=[job],
        strategy=BDSController(BDSConfig(), seed=3),
        config=SimConfig(),
        seed=3,
    )


def _small_run():
    sim = _small_sim()
    return sim, sim.run()


class _DroppedStore:
    """A store that lost one delivered (server, block) pair."""

    def __init__(self, store, server, block_id):
        self._store = store
        self._dropped = (server, block_id)

    def has(self, server, block_id):
        if (server, block_id) == self._dropped:
            return False
        return self._store.has(server, block_id)


def test_checker_accepts_a_correct_run():
    sim, result = _small_run()
    assert check_result(sim.jobs, result) == (set(), [])


def test_checker_rejects_a_dropped_delivery():
    sim, result = _small_run()
    job = sim.jobs[0]
    block = job.blocks[5]
    server = job.assigned_server("dc2", block.block_id)
    tampered = replace(result, store=_DroppedStore(result.store, server, block.block_id))
    failed, problems = check_result(sim.jobs, tampered)
    assert failed == {"j0"}
    assert "1 pairs missing" in problems[0]


def test_checker_rejects_an_incomplete_job():
    sim, result = _small_run()
    failed, _problems = check_result(sim.jobs, replace(result, job_completion={}))
    assert failed == {"j0"}


def test_checker_rejects_missing_bytes():
    sim, result = _small_run()
    failed, problems = check_result(sim.jobs, replace(result, cycle_stats=result.cycle_stats[:1]))
    assert failed == {"j0"}
    assert "required" in problems[-1]


class _Clock:
    def __init__(self, times):
        self._times = iter(times)

    def __call__(self):
        return next(self._times)


def test_self_times_on_a_nested_tree():
    # root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 9]
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 2.0, 3.0, 1],
        ["c", 5.0, 9.0, 0],
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    agg = aggregate(spans)
    assert agg["root"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert sum(entry["self_s"] for entry in agg.values()) == 10.0


def test_tracer_records_nesting_and_added_spans():
    tracer = Tracer(clock=_Clock([0.0, 1.0, 2.0, 6.0, 7.0, 8.0]))
    root = tracer.begin("wall")
    child = tracer.begin("simulator.run")
    tracer.end(child)
    tracer.add("simulator.validate", 3.0, 5.0)
    second = tracer.begin("flow.rate")
    tracer.end(second)
    tracer.end(root)
    assert [s[3] for s in tracer.spans] == [-1, 0, 0, 0]
    agg = aggregate(tracer.spans)
    assert agg["wall"]["self_s"] == 8.0 - 1.0 - 2.0 - 1.0
    with pytest.raises(RuntimeError):
        tracer.end(root)


def test_instrumented_run_matches_and_restores():
    _sim, plain = _small_run()
    original = BDSController.decide
    tracer = Tracer()
    with Instrumentation(tracer):
        root = tracer.begin("wall")
        sim = _small_sim()
        run = tracer.begin("simulator.run")
        traced = sim.run()
        tracer.end(run)
        tracer.end(root)
    assert BDSController.decide is original
    assert traced.fingerprint() == plain.fingerprint()
    agg = aggregate(tracer.spans)
    for span in ("controller.decide", "routing.route", "flow.rate", "simulator.validate"):
        assert agg[span]["calls"] > 0
    assert set(agg) <= set(SELF_METRICS)
    assert sum(e["self_s"] for e in agg.values()) == pytest.approx(agg["wall"]["total_s"])
    assert tracer.counters["validate.flows"] == tracer.counters["validate.directives"]


def test_traced_metrics_match_benchmark_json():
    tracer = Tracer()
    instr = Instrumentation(tracer)
    with instr:
        root = tracer.begin("wall")
        span = tracer.begin("setup")
        sim = _small_sim()
        tracer.end(span)
        span = tracer.begin("simulator.run")
        result = sim.run()
        tracer.end(span)
        tracer.end(root)
    metrics, rows, split_sum = layer_metrics(tracer, instr, [(sim, result)])
    root_dir = Path(__file__).resolve().parents[2]
    assert set(metrics) | {"trace.overhead_frac"} == set(metric_units(root_dir, trace=True))
    assert split_sum == pytest.approx(metrics["trace.wall_s"], abs=1e-9)
    assert metrics["simulator.validate_keep_ratio"] == 1.0
    assert {row["stage"] for row in rows} >= {"decide", "schedule", "route", "rate_resolve"}


def test_benchmark_json_names_are_unique():
    root_dir = Path(__file__).resolve().parents[2]
    spec = json.loads((root_dir / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("samples", [12, 24, 36, 100, 1000])
def test_tail_percentile_leaves_ten_samples_beyond(samples):
    values = np.arange(samples, dtype=float)
    tail = np.percentile(values, tail_percentile(samples), method="lower")
    assert (values > tail).sum() == 10
