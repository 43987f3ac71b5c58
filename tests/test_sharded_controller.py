"""Sharded control plane: identity, determinism, and reconciliation.

Contracts under test (ISSUE: sharded multi-controller control plane):

* ``shards=1`` takes the original single-controller code path and is
  bit-identical to a controller built before the knob existed — the
  golden-fingerprint tests assert equality against a default-config run
  on both the tick and event engines.
* ``shards=k`` is deterministic: repeated runs produce identical
  fingerprints, on both engines, in both execution modes.
* ``shard_mode="process"`` produces results bit-identical to
  ``"inprocess"`` (worker mirrors replay the possession log).
* The reconciliation pass bounds each WAN link's summed directive rate
  caps by its bulk budget.
* Sharded completion times stay within a small tolerance of the single
  controller (the documented quality envelope).
"""

from __future__ import annotations

import copy
import logging
import time

import pytest

from repro.core.config import BDSConfig
from repro.core.controller import BDSController
from repro.core.routing import BDSRouter
from repro.core.scheduling import RarestFirstScheduler
from repro.core.shardexec import LocalShardRunner, ShardExecutor, ShardResult
from repro.core.speculation import SpeculatedDelivery, SpeculatedView
from repro.net.cycle_cache import CycleCache
from repro.net.simulator import SimConfig, SimResult, Simulation
from repro.net.topology import Topology
from repro.overlay.job import MulticastJob
from repro.utils.units import MB, MBps

SEED = 90

#: Documented quality envelope: sharded completion within 2 cycles and
#: within 2x of single-controller (tiny scenarios quantize to whole
#: cycles, so a relative bound alone would be vacuous or flaky).
QUALITY_SLACK_CYCLES = 2


def _scenario(num_jobs: int = 6):
    topo = Topology.full_mesh(
        num_dcs=5, servers_per_dc=4, wan_capacity=500 * MBps, uplink=25 * MBps
    )
    jobs = []
    for j in range(num_jobs):
        src = f"dc{j % 5}"
        job = MulticastJob(
            job_id=f"job{j}",
            src_dc=src,
            dst_dcs=tuple(f"dc{i}" for i in range(5) if f"dc{i}" != src),
            total_bytes=48 * MB,
            block_size=4 * MB,
        )
        job.bind(topo)
        jobs.append(job)
    return topo, jobs


def _run(
    shards: int,
    stride: int = 1,
    mode: str = "inprocess",
    event: bool = True,
    num_jobs: int = 6,
    config: BDSConfig = None,
) -> SimResult:
    topo, jobs = _scenario(num_jobs)
    cfg = config or BDSConfig(
        shards=shards, shard_stride=stride, shard_mode=mode
    )
    controller = BDSController(cfg)
    sim = Simulation(
        topology=topo,
        jobs=jobs,
        strategy=controller,
        config=SimConfig(event_engine=event),
        seed=SEED,
    )
    try:
        return sim.run()
    finally:
        controller.shutdown()


def _fingerprint(result: SimResult):
    return (
        result.job_completion,
        result.dc_completion,
        result.server_completion,
        result.blocks_per_cycle(),
        [s.bytes_transferred for s in result.cycle_stats],
    )


class TestSingleShardIdentity:
    """shards=1 must be bit-identical to the pre-knob controller."""

    @pytest.mark.parametrize("event", [False, True])
    def test_default_config_unchanged(self, event):
        baseline = _run(1, event=event, config=BDSConfig())
        sharded_off = _run(1, event=event)
        assert baseline.all_complete
        assert _fingerprint(baseline) == _fingerprint(sharded_off)

    def test_no_shard_telemetry_on_single_path(self):
        result = _run(1)
        assert all(s.shard_count == 0 for s in result.cycle_stats)
        assert all(s.time_reconcile == 0.0 for s in result.cycle_stats)

    def test_signature_none_when_unsharded(self):
        assert BDSController(BDSConfig()).shard_signature is None
        assert BDSController(
            BDSConfig(shards=3, shard_seed=5, shard_stride=2)
        ).shard_signature == (3, 5, 2, "hash")
        assert BDSController(
            BDSConfig(shards=3, shard_partition="affinity")
        ).shard_signature == (3, 0, 1, "affinity")


class TestShardedDeterminism:
    @pytest.mark.parametrize("shards", [2, 4])
    @pytest.mark.parametrize("event", [False, True])
    def test_repeated_runs_identical(self, shards, event):
        first = _run(shards, event=event)
        second = _run(shards, event=event)
        assert first.all_complete
        assert _fingerprint(first) == _fingerprint(second)

    @pytest.mark.parametrize("shards", [2, 4])
    def test_event_matches_tick(self, shards):
        assert _fingerprint(_run(shards, event=True)) == _fingerprint(
            _run(shards, event=False)
        )

    @pytest.mark.parametrize("stride", [2, 3])
    def test_stride_deterministic_both_engines(self, stride):
        tick = _run(3, stride=stride, event=False)
        ev = _run(3, stride=stride, event=True)
        assert tick.all_complete
        assert _fingerprint(tick) == _fingerprint(ev)

    def test_shard_telemetry_recorded(self):
        result = _run(3)
        fresh = [s for s in result.cycle_stats if s.shard_count]
        assert fresh, "sharded cycles must record shard telemetry"
        for s in fresh:
            assert s.shard_count == 3
            assert s.time_shard_max >= s.time_shard_mean >= 0.0
        assert result.stage_time_totals()["reconcile"] >= 0.0


class TestProcessMode:
    def test_process_matches_inprocess(self):
        assert _fingerprint(_run(2, mode="process")) == _fingerprint(
            _run(2, mode="inprocess")
        )

    def test_process_matches_inprocess_with_stride(self):
        assert _fingerprint(
            _run(3, stride=2, mode="process")
        ) == _fingerprint(_run(3, stride=2, mode="inprocess"))

    def test_broken_pool_falls_back_with_warning(self, monkeypatch, caplog):
        """A failing worker pool is logged, the run continues in-process
        with identical results, and the caller's config is untouched."""

        def broken(*args, **kwargs):
            raise RuntimeError("worker pool down")

        monkeypatch.setattr(ShardExecutor, "decide", broken)
        config = BDSConfig(shards=3, shard_mode="process", speculation_horizon=1.0)
        with caplog.at_level(logging.WARNING, logger="repro.core.controller"):
            fallen_back = _run(3, config=config)
        assert config.shard_mode == "process"
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert "worker pool down" in warnings[0].getMessage()
        inprocess = _run(
            3, config=BDSConfig(shards=3, speculation_horizon=1.0)
        )
        assert fallen_back.all_complete
        assert _fingerprint(fallen_back) == _fingerprint(inprocess)


class TestReconciliation:
    def test_wan_sums_within_budget(self):
        """Controller output (pre-simulator) respects every WAN budget."""
        topo, jobs = _scenario(8)
        cfg = BDSConfig(shards=4)
        controller = BDSController(cfg)
        sim = Simulation(
            topology=topo,
            jobs=jobs,
            strategy=controller,
            config=SimConfig(event_engine=False),
            seed=SEED,
        )
        sim.run()
        budgets = {
            key: cfg.safety_threshold * link.capacity
            for key, link in topo.links.items()
        }
        checked = 0
        for decision in controller.decisions:
            usage = {}
            for d in decision.directives:
                if d.rate_cap is None:
                    continue
                res = topo.flow_resources(d.src_server, d.dst_server)
                for key in res:
                    if key in budgets:
                        usage[key] = usage.get(key, 0.0) + d.rate_cap
            for key, used in usage.items():
                checked += 1
                assert used <= budgets[key] * (1 + 1e-9)
        assert checked > 0

    def test_reconciled_counter_sane(self):
        topo, jobs = _scenario(8)
        controller = BDSController(BDSConfig(shards=4))
        Simulation(
            topology=topo,
            jobs=jobs,
            strategy=controller,
            config=SimConfig(event_engine=False),
            seed=SEED,
        ).run()
        for decision in controller.decisions:
            assert decision.reconciled_directives <= len(decision.directives)
            assert decision.reconcile_runtime >= 0.0


def _shared_store_decide(pipes):
    """Reference for ``LocalShardRunner.decide``: no mirrors.

    Each due shard schedules and routes on a sub-view of the shared store
    holding only its own jobs — a speculation view of the shard's
    speculated deliveries when it has any — with its own scheduler and
    router (``pipes`` keeps them across cycles) and a fresh cycle cache.
    """

    def decide(runner, view, buckets, due, speculated):
        results = []
        for s in due:
            if s not in pipes:
                cfg = runner.config
                pipes[s] = (
                    RarestFirstScheduler(
                        max_blocks_per_cycle=cfg.max_blocks_per_cycle,
                        use_relays=cfg.use_relays,
                    ),
                    BDSRouter(
                        backend=cfg.routing_backend,
                        epsilon=cfg.epsilon,
                        max_sources_per_group=cfg.max_sources_per_group,
                        merge_blocks=cfg.merge_blocks,
                    ),
                )
            scheduler, router = pipes[s]
            sub = copy.copy(view)
            sub.jobs = list(buckets[s])
            sub._cache = CycleCache()
            if speculated[s]:
                sub = SpeculatedView(
                    sub,
                    [SpeculatedDelivery(b, dst, "") for b, dst in speculated[s]],
                )
            started = time.perf_counter()
            selections = scheduler.select(sub)
            dirs, diag = router.route(sub, selections, batch=scheduler.last_batch)
            results.append(
                ShardResult(
                    directives=dirs,
                    scheduled_blocks=len(selections),
                    num_commodities=diag.num_commodities,
                    objective=diag.objective,
                    schedule_runtime=scheduler.last_runtime,
                    routing_runtime=diag.runtime,
                    iterations=diag.iterations,
                    phases=diag.phases,
                    warm_start=diag.warm_start,
                    reuse_horizon=diag.reuse_horizon,
                    wall=time.perf_counter() - started,
                )
            )
        return results

    return decide


def _shared_store_only(monkeypatch):
    """Route every sharded decide through the shared-store reference."""
    monkeypatch.setattr(LocalShardRunner, "decide", _shared_store_decide({}))


class TestShardLocalState:
    """Partition-scoped mirrors (the sharded decide path)."""

    @pytest.mark.parametrize("shards,stride", [(2, 1), (3, 2), (4, 1)])
    def test_mirror_matches_shared_store(self, shards, stride, monkeypatch):
        """The shared-store reference and the mirrors must decide
        bit-for-bit alike."""
        mirror = _run(shards, stride=stride)
        _shared_store_only(monkeypatch)
        shared = _run(shards, stride=stride)
        assert mirror.all_complete
        assert _fingerprint(mirror) == _fingerprint(shared)

    @pytest.mark.parametrize("shards", [2, 4])
    def test_speculating_mirror_matches_shared_store(self, shards, monkeypatch):
        """With speculation on, each mirror's overlay must decide like a
        speculation view of the shared store."""
        config = BDSConfig(
            shards=shards, shard_partition="affinity", speculation_horizon=1.0
        )
        mirror = _run(shards, config=config)
        _shared_store_only(monkeypatch)
        shared = _run(shards, config=config)
        assert mirror.all_complete
        assert _fingerprint(mirror) == _fingerprint(shared)

    def test_state_telemetry_recorded(self):
        result = _run(3)
        fresh = [s for s in result.cycle_stats if s.shard_count]
        assert fresh
        assert any(s.shard_state_bytes > 0 for s in fresh)
        assert any(s.shard_candidate_bytes > 0 for s in fresh)
        assert any(s.shard_payload_bytes > 0 for s in fresh)
        assert all(s.shard_stride == 1 for s in fresh)

    def test_state_telemetry_recorded_with_speculation(self):
        """Speculated cycles decide on the mirrors too, so every fresh
        cycle reports the mirrors' state."""
        result = _run(2, config=BDSConfig(shards=2, speculation_horizon=1.0))
        fresh = [s for s in result.cycle_stats if s.shard_count]
        assert fresh
        assert all(s.shard_state_bytes > 0 for s in fresh)
        assert all(s.shard_candidate_bytes > 0 for s in fresh)

    def test_per_shard_state_scales_down(self):
        """At a scale past the matrix's 1024-column capacity floor, each
        shard's possession state is a fraction of the full store's."""
        topo = Topology.full_mesh(
            num_dcs=5, servers_per_dc=4, wan_capacity=500 * MBps,
            uplink=25 * MBps,
        )

        def make_jobs():
            jobs = []
            for j in range(8):
                src = f"dc{j % 5}"
                job = MulticastJob(
                    job_id=f"big{j}",
                    src_dc=src,
                    dst_dcs=tuple(
                        f"dc{i}" for i in range(5) if f"dc{i}" != src
                    ),
                    total_bytes=300 * 4 * MB,
                    block_size=4 * MB,
                )
                job.bind(topo)
                jobs.append(job)
            return jobs

        def run(config):
            controller = BDSController(config)
            sim = Simulation(
                topology=topo,
                jobs=make_jobs(),
                strategy=controller,
                config=SimConfig(max_cycles=2, event_engine=False),
                seed=SEED,
            )
            try:
                return sim.run()
            finally:
                controller.shutdown()

        base = run(BDSConfig())
        base_bytes = base.store.state_bytes()
        assert base_bytes > 0
        sharded = run(BDSConfig(shards=4, shard_partition="affinity"))
        peak = max(s.shard_state_bytes for s in sharded.cycle_stats)
        assert 0 < peak <= 0.5 * base_bytes


class TestAffinityPartition:
    @pytest.mark.parametrize("event", [False, True])
    def test_single_shard_matches_hash(self, event):
        """At shards=1 the partition policy is irrelevant: affinity must
        reproduce the default-config golden fingerprint."""
        baseline = _run(1, event=event, config=BDSConfig())
        affinity = _run(
            1,
            event=event,
            config=BDSConfig(shards=1, shard_partition="affinity"),
        )
        assert _fingerprint(baseline) == _fingerprint(affinity)

    @pytest.mark.parametrize("shards", [2, 4])
    def test_deterministic(self, shards):
        cfg = BDSConfig(shards=shards, shard_partition="affinity")
        first = _run(shards, config=cfg)
        second = _run(
            shards,
            config=BDSConfig(shards=shards, shard_partition="affinity"),
        )
        assert first.all_complete
        assert _fingerprint(first) == _fingerprint(second)

    def test_event_matches_tick(self):
        cfg = dict(shards=3, shard_partition="affinity")
        assert _fingerprint(
            _run(3, event=True, config=BDSConfig(**cfg))
        ) == _fingerprint(_run(3, event=False, config=BDSConfig(**cfg)))

    def test_process_matches_inprocess(self):
        assert _fingerprint(
            _run(
                2,
                config=BDSConfig(
                    shards=2, shard_partition="affinity", shard_mode="process"
                ),
            )
        ) == _fingerprint(
            _run(2, config=BDSConfig(shards=2, shard_partition="affinity"))
        )

    def test_quality_within_tolerance(self):
        base = _run(1)
        sharded = _run(
            3, config=BDSConfig(shards=3, shard_partition="affinity")
        )
        assert sharded.all_complete
        dt = 3.0
        for job_id, t_base in base.job_completion.items():
            assert (
                sharded.job_completion[job_id]
                <= t_base + QUALITY_SLACK_CYCLES * dt
            )


class TestAdaptiveStride:
    def test_auto_run_completes_with_sane_telemetry(self):
        result = _run(
            3, config=BDSConfig(shards=3, shard_stride="auto")
        )
        assert result.all_complete
        fresh = [s for s in result.cycle_stats if s.shard_count]
        assert fresh
        # The effective stride is always a positive int within [1, k].
        assert all(1 <= s.shard_stride <= 3 for s in fresh)

    def test_auto_signature_tracks_effective_stride(self):
        controller = BDSController(BDSConfig(shards=4, shard_stride="auto"))
        # Auto mode cold-starts maximally staggered (stride = shards).
        assert controller.shard_signature == (4, 0, 4, "hash")
        # A stride change must change the signature (the event engine's
        # cached decisions key on it).
        controller._stride = 2
        assert controller.shard_signature == (4, 0, 2, "hash")

    def test_auto_quality_within_tolerance(self):
        base = _run(1)
        auto = _run(4, config=BDSConfig(shards=4, shard_stride="auto"))
        assert auto.all_complete
        dt = 3.0
        for job_id, t_base in base.job_completion.items():
            # Worst case the stride widens to k: same envelope as the
            # static stride=k test below.
            assert (
                auto.job_completion[job_id]
                <= t_base + (QUALITY_SLACK_CYCLES + 4) * dt
            )


class TestShardedQuality:
    @pytest.mark.parametrize("shards", [2, 4])
    def test_completion_within_tolerance(self, shards):
        base = _run(1)
        sharded = _run(shards)
        assert sharded.all_complete
        dt = 3.0
        for job_id, t_base in base.job_completion.items():
            t_shard = sharded.job_completion[job_id]
            assert t_shard <= t_base + QUALITY_SLACK_CYCLES * dt

    def test_stride_completion_within_tolerance(self):
        base = _run(1)
        strided = _run(4, stride=4)
        assert strided.all_complete
        dt = 3.0
        for job_id, t_base in base.job_completion.items():
            assert (
                strided.job_completion[job_id]
                <= t_base + (QUALITY_SLACK_CYCLES + 4) * dt
            )
