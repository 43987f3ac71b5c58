"""Golden determinism regression: same seed => bit-identical results.

The simulator memoizes and mutates per-cycle state; any accidental
dependence on set-iteration order or cache warm-up would show up here as
a diff between two runs of the same scenario, or against the committed
fingerprints at the end of this file.

The scenario is the Fig. 9 BDS-vs-Gingko shape scaled down: one source
DC multicasting to several destinations over a full mesh, run with both
strategies, with and without mid-run failures.
"""

from __future__ import annotations

import pytest

from repro.analysis.runner import make_strategy
from repro.net.failures import FailureEvent, FailureSchedule
from repro.net.simulator import SimConfig, SimResult, Simulation
from repro.net.topology import Topology
from repro.overlay.job import MulticastJob
from repro.utils.units import MB, MBps

SEED = 90  # the Fig. 9 headline seed


def _run(
    strategy_name: str,
    event: bool = True,
    with_failures: bool = False,
) -> SimResult:
    topo = Topology.full_mesh(
        num_dcs=5, servers_per_dc=4, wan_capacity=500 * MBps, uplink=25 * MBps
    )
    job = MulticastJob(
        job_id="fig9",
        src_dc="dc0",
        dst_dcs=tuple(f"dc{i}" for i in range(1, 5)),
        total_bytes=64 * MB,
        block_size=4 * MB,
    )
    job.bind(topo)
    failures = None
    if with_failures:
        failures = FailureSchedule(
            [
                FailureEvent(cycle=1, kind="agent_fail", target="dc1-s0"),
                FailureEvent(cycle=2, kind="link_fail", target=("dc0", "dc2")),
                FailureEvent(cycle=4, kind="agent_recover", target="dc1-s0"),
                FailureEvent(cycle=5, kind="link_recover", target=("dc0", "dc2")),
            ]
        )
    sim = Simulation(
        topology=topo,
        jobs=[job],
        strategy=make_strategy(strategy_name, seed=SEED),
        config=SimConfig(event_engine=event),
        failures=failures,
        seed=SEED,
    )
    return sim.run()


def _fingerprint(result: SimResult):
    return (
        result.job_completion,
        result.dc_completion,
        result.server_completion,
        result.blocks_per_cycle(),
        [s.bytes_transferred for s in result.cycle_stats],
    )


class TestGoldenDeterminism:
    @pytest.mark.parametrize("strategy", ["bds", "gingko"])
    @pytest.mark.parametrize("event", [True, False])
    def test_same_seed_same_result(self, strategy, event):
        first = _run(strategy, event)
        second = _run(strategy, event)
        assert first.all_complete
        assert _fingerprint(first) == _fingerprint(second)

    def test_repeated_runs_with_failures_identical(self):
        first = _run("bds", with_failures=True)
        second = _run("bds", with_failures=True)
        assert _fingerprint(first) == _fingerprint(second)


# ---------------------------------------------------------------------------
# Parallel engine parity: workers=4 must be bit-identical to workers=1
# ---------------------------------------------------------------------------


def _parity_topology() -> Topology:
    return Topology.full_mesh(
        num_dcs=5, servers_per_dc=4, wan_capacity=500 * MBps, uplink=25 * MBps
    )


def _parity_jobs(topo: Topology, size=64 * MB):
    job = MulticastJob(
        job_id="fig9",
        src_dc="dc0",
        dst_dcs=tuple(f"dc{i}" for i in range(1, 5)),
        total_bytes=size,
        block_size=4 * MB,
    )
    job.bind(topo)
    return [job]


class TestParallelParity:
    """Every run owns a fresh topology/jobs/seed, so fanning the batch out
    over a process pool must not change a single bit of any result."""

    def test_compare_strategies_parallel_matches_serial(self):
        from repro.analysis.runner import compare_strategies

        names = ("bds", "gingko", "direct")
        serial = compare_strategies(
            _parity_topology, _parity_jobs, names, seed=SEED
        )
        parallel = compare_strategies(
            _parity_topology, _parity_jobs, names, seed=SEED, workers=4
        )
        for name in names:
            assert serial[name].fingerprint() == parallel[name].fingerprint()
            assert _fingerprint(serial[name]) == _fingerprint(parallel[name])

    def test_sweep_parallel_matches_serial(self):
        from repro.analysis.sweeps import sweep

        def scenario(size_mb: float):
            topo = _parity_topology()
            return topo, _parity_jobs(topo, size=size_mb * MB)

        serial = sweep("size", [32, 48, 64], scenario, seed=SEED)
        parallel = sweep("size", [32, 48, 64], scenario, seed=SEED, workers=4)
        assert serial.completion_times() == parallel.completion_times()
        assert [p.cycles for p in serial.points] == [
            p.cycles for p in parallel.points
        ]

    def test_run_many_parallel_matches_serial(self):
        from repro.analysis.parallel import RunSpec, run_many

        def scenario():
            topo = _parity_topology()
            return topo, _parity_jobs(topo)

        def specs():
            return [
                RunSpec(strategy=name, seed=SEED, scenario=scenario)
                for name in ("bds", "gingko", "bullet", "direct")
            ]

        serial = run_many(specs(), workers=1)
        parallel = run_many(specs(), workers=4)
        assert [o.result.fingerprint() for o in serial] == [
            o.result.fingerprint() for o in parallel
        ]

# ---------------------------------------------------------------------------
# Sharded control plane parity: shards=1 is bit-identical to the default
# controller; shards=k is deterministic on both engines
# ---------------------------------------------------------------------------


def _run_sharded(shards: int, event: bool, stride: int = 1) -> SimResult:
    from repro.core.config import BDSConfig
    from repro.core.controller import BDSController

    topo = Topology.full_mesh(
        num_dcs=5, servers_per_dc=4, wan_capacity=500 * MBps, uplink=25 * MBps
    )
    jobs = []
    for j in range(4):
        src = f"dc{j}"
        job = MulticastJob(
            job_id=f"golden{j}",
            src_dc=src,
            dst_dcs=tuple(f"dc{i}" for i in range(5) if f"dc{i}" != src),
            total_bytes=48 * MB,
            block_size=4 * MB,
        )
        job.bind(topo)
        jobs.append(job)
    sim = Simulation(
        topology=topo,
        jobs=jobs,
        strategy=BDSController(
            BDSConfig(shards=shards, shard_stride=stride)
        ),
        config=SimConfig(event_engine=event),
        seed=SEED,
    )
    return sim.run()


class TestShardedGoldenDeterminism:
    @pytest.mark.parametrize("event", [False, True])
    def test_single_shard_matches_default_controller(self, event):
        sharded_off = _run_sharded(1, event=event)
        # Same scenario through the default (config-less) controller:
        from repro.core.controller import BDSController

        topo = Topology.full_mesh(
            num_dcs=5,
            servers_per_dc=4,
            wan_capacity=500 * MBps,
            uplink=25 * MBps,
        )
        jobs = []
        for j in range(4):
            src = f"dc{j}"
            job = MulticastJob(
                job_id=f"golden{j}",
                src_dc=src,
                dst_dcs=tuple(f"dc{i}" for i in range(5) if f"dc{i}" != src),
                total_bytes=48 * MB,
                block_size=4 * MB,
            )
            job.bind(topo)
            jobs.append(job)
        baseline = Simulation(
            topology=topo,
            jobs=jobs,
            strategy=BDSController(),
            config=SimConfig(event_engine=event),
            seed=SEED,
        ).run()
        assert sharded_off.all_complete
        assert _fingerprint(sharded_off) == _fingerprint(baseline)

    @pytest.mark.parametrize("shards", [2, 4])
    @pytest.mark.parametrize("event", [False, True])
    def test_sharded_repeat_identical(self, shards, event):
        first = _run_sharded(shards, event=event)
        second = _run_sharded(shards, event=event)
        assert first.all_complete
        assert _fingerprint(first) == _fingerprint(second)

    def test_sharded_stride_engines_agree(self):
        tick = _run_sharded(4, event=False, stride=2)
        ev = _run_sharded(4, event=True, stride=2)
        assert tick.all_complete
        assert _fingerprint(tick) == _fingerprint(ev)


# ---------------------------------------------------------------------------
# Committed golden fingerprints: literal SimResult.fingerprint() digests
# ---------------------------------------------------------------------------
#
# Unlike the repeat tests above, these compare against committed values,
# so a change that moves every code path the same way still fails. The
# scenario is multi-cycle (thin uplinks) with three jobs, fractional tail
# blocks, and shared destinations, so the router's §5.1 merge, the
# partial-first reorder, the rate-proportional block deal, and the
# simulator's directive validation all run on every cycle.


def _golden_scenario(relays: bool = False):
    topo = Topology.full_mesh(
        num_dcs=6, servers_per_dc=3, wan_capacity=8 * MBps, uplink=3 * MBps
    )
    jobs = []
    for j, (src, size) in enumerate(
        [("dc0", 96.5 * MB), ("dc1", 72.25 * MB), ("dc0", 40 * MB)]
    ):
        job = MulticastJob(
            job_id=f"g{j}",
            src_dc=src,
            dst_dcs=tuple(
                f"dc{i}" for i in range(5) if f"dc{i}" != src
            ),
            total_bytes=size,
            block_size=4 * MB,
            relay_dcs=("dc5",) if relays else (),
        )
        job.bind(topo)
        jobs.append(job)
    return topo, jobs


def _golden_run(variant: str, shard_mode: str = "inprocess") -> SimResult:
    """The golden scenario under ``variant``; ``shard_mode`` applies to
    the sharded variants."""
    from repro.baselines.gingko import GingkoStrategy
    from repro.core.config import BDSConfig
    from repro.core.controller import BDSController

    topo, jobs = _golden_scenario(relays=variant == "relays")
    bds = {
        "fptas": dict(routing_backend="fptas", epsilon=0.25),
        "no-merge": dict(merge_blocks=False),
        "sharded-affinity": dict(
            shards=4, shard_partition="affinity", shard_stride=1
        ),
        # The controller is down for cycles 1-3: every shard's work
        # falls back to Gingko, then the mirrors catch up on the log.
        "sharded-outage": dict(
            shards=4, shard_partition="affinity", shard_stride=1
        ),
        # Each shard's mirror decides on an overlay of its own index.
        "sharded-speculation": dict(
            shards=4,
            shard_partition="affinity",
            shard_stride=1,
            speculation_horizon=1.0,
        ),
        "one-source": dict(max_sources_per_group=1),
        "speculation": dict(speculation_horizon=1.0),
    }.get(variant, {})
    sim_cfg = {"tick": dict(event_engine=False)}.get(variant, {})
    failures = None
    if variant == "failures":
        failures = FailureSchedule(
            [
                FailureEvent(cycle=1, kind="agent_fail", target="dc1-s0"),
                FailureEvent(cycle=2, kind="link_fail", target=("dc0", "dc2")),
                FailureEvent(cycle=5, kind="agent_recover", target="dc1-s0"),
                FailureEvent(cycle=7, kind="link_recover", target=("dc0", "dc2")),
            ]
        )
    elif variant == "sharded-outage":
        failures = FailureSchedule(
            [
                FailureEvent(cycle=1, kind="controller_fail"),
                FailureEvent(cycle=4, kind="controller_recover"),
            ]
        )
    if variant == "gingko":
        strategy = GingkoStrategy(seed=SEED)
    else:
        if "shards" in bds:
            bds["shard_mode"] = shard_mode
        # Seeded so the Gingko fallback of an outage run is reproducible.
        strategy = BDSController(BDSConfig(**bds), seed=SEED)
    try:
        return Simulation(
            topology=topo,
            jobs=jobs,
            strategy=strategy,
            config=SimConfig(**sim_cfg),
            failures=failures,
            seed=SEED,
        ).run()
    finally:
        shutdown = getattr(strategy, "shutdown", None)
        if shutdown is not None:
            shutdown()


#: Recorded before the array-native route-to-flow rewrite (DirectiveBatch),
#: from the per-row source-pick loop and the per-block validation loop.
#: ``sharded-speculation`` was recorded later, while shards could still
#: run on the shared store instead of their own mirrors; both agreed.
#: ``speculation`` and ``sharded-speculation`` were recorded while
#: speculated cycles still ran the scalar scheduler and name-interned
#: router rows, before speculation became a possession-matrix overlay.
#: ``sharded-outage`` was recorded while the simulator still kept its
#: pending maps and skipped its candidate table in sharded runs.
GOLDEN_FINGERPRINTS = {
    "uncapped-greedy": (
        "23ccbbb9faf36b180934905ad6c1632e"
        "6e5b59fed66d62cb6673a6ab7b933e2e"
    ),
    "relays": (
        "6d4db8e3099c402a7799a9e68c991962"
        "c06f99a3813ac97805037aeb4b4fd75e"
    ),
    "failures": (
        "3a07e9823c31dbc479ff3fa43d48faa5"
        "63f226b7a1183c2fc6525eb55ce324a0"
    ),
    "fptas": (
        "57d4b67f6990c5c82007be5eae66cd50"
        "f1b306aae3a282be8ca6fff90ac5bfcd"
    ),
    "no-merge": (
        "a49b1feab8624ded8a067a687eb67414"
        "b3ce1c59bc71809baf2b0b8038f9cdf8"
    ),
    "sharded-affinity": (
        "cd9d81730e6c1a59f170ea5d4922b40f"
        "90eb4b73049ce16d6e7f0f4c83352cfd"
    ),
    "gingko": (
        "65e21eefba9bd9698b15f936ae689383"
        "3108c597706e2e0e074d7534a79b7e78"
    ),
    "one-source": (
        "7d9cd532cc8731d4765e4c55fc295f9f"
        "3efc779d0d43fabd7cabce23d55b37f6"
    ),
    "speculation": (
        "cf3c00fb0c41cb28fbfed8549248052a"
        "b8d8d932426a857da44abc0363d3183d"
    ),
    "sharded-outage": (
        "2277c3ce54e0f30f5d3ac63ce4f566ca"
        "edd77f06df113dd308ea95a1506e265e"
    ),
    "sharded-speculation": (
        "85d0f8fec72b2a6c1eae9f0022f0fd49"
        "77a88bafe48b1d20c8e803afb3db26eb"
    ),
    "tick": (
        "23ccbbb9faf36b180934905ad6c1632e"
        "6e5b59fed66d62cb6673a6ab7b933e2e"
    ),
}


class TestCommittedGoldenFingerprints:
    @pytest.mark.parametrize("variant", sorted(GOLDEN_FINGERPRINTS))
    def test_fingerprint_matches_committed(self, variant):
        result = _golden_run(variant)
        assert result.all_complete
        assert result.fingerprint() == GOLDEN_FINGERPRINTS[variant]

    @pytest.mark.parametrize("variant", ["sharded-speculation"])
    def test_process_mode_matches_committed(self, variant):
        """Worker-process mirrors speculate too, to the same digest."""
        result = _golden_run(variant, shard_mode="process")
        assert result.all_complete
        assert result.fingerprint() == GOLDEN_FINGERPRINTS[variant]
