"""The cycle-driven simulator: directives, progress, completion, failures."""

import numpy as np
import pytest

from repro.baselines.base import OverlayStrategy
from repro.net.background import BackgroundTraffic
from repro.net.failures import FailureEvent, FailureSchedule
from repro.net.simulator import (
    DirectiveBatch,
    SimConfig,
    Simulation,
    TransferDirective,
)
from repro.net.topology import Topology, wan_key
from repro.overlay.job import MulticastJob
from repro.utils.units import GB, MB, MBps


class ScriptedStrategy(OverlayStrategy):
    """Emits a fixed decision function; used to isolate simulator behavior."""

    def __init__(self, decide_fn, uses_rates=False):
        self._fn = decide_fn
        self.uses_controller_rates = uses_rates

    def decide(self, view):
        return self._fn(view)


def two_dc_topology(uplink=10 * MBps, wan=1 * GB) -> Topology:
    return Topology.full_mesh(
        num_dcs=2, servers_per_dc=2, wan_capacity=wan, uplink=uplink
    )


def one_block_job(topo, size=30 * MB) -> MulticastJob:
    job = MulticastJob(
        job_id="j", src_dc="dc0", dst_dcs=("dc1",), total_bytes=size,
        block_size=size,
    )
    job.bind(topo)
    return job


class TestDirectiveValidation:
    def test_needs_blocks(self):
        with pytest.raises(ValueError):
            TransferDirective(job_id="j", block_ids=(), src_server="a", dst_server="b")

    def test_endpoints_differ(self):
        with pytest.raises(ValueError):
            TransferDirective(
                job_id="j", block_ids=(("j", 0),), src_server="a", dst_server="a"
            )

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            TransferDirective(
                job_id="j",
                block_ids=(("j", 0),),
                src_server="a",
                dst_server="b",
                rate_cap=-1,
            )


class TestProgress:
    def test_single_block_transfer_time(self):
        """30 MB over a 10 MB/s uplink should take 3 seconds (one cycle)."""
        topo = two_dc_topology()
        job = one_block_job(topo)

        def decide(view):
            return [
                TransferDirective(
                    job_id="j",
                    block_ids=(("j", 0),),
                    src_server="dc0-s0",
                    dst_server="dc1-s0",
                )
            ]

        sim = Simulation(topo, [job], ScriptedStrategy(decide), SimConfig())
        result = sim.run()
        assert result.all_complete
        assert result.completion_time("j") == pytest.approx(3.0)

    def test_partial_progress_persists_across_cycles(self):
        """60 MB at 10 MB/s = 6 s = two 3-second cycles."""
        topo = two_dc_topology()
        job = one_block_job(topo, size=60 * MB)

        def decide(view):
            return [
                TransferDirective(
                    job_id="j",
                    block_ids=(("j", 0),),
                    src_server="dc0-s0",
                    dst_server="dc1-s0",
                )
            ]

        result = Simulation(topo, [job], ScriptedStrategy(decide), SimConfig()).run()
        assert result.completion_time("j") == pytest.approx(6.0)

    def test_rate_caps_honoured(self):
        """A 5 MB/s cap on a 10 MB/s NIC doubles the transfer time."""
        topo = two_dc_topology()
        job = one_block_job(topo, size=30 * MB)

        def decide(view):
            return [
                TransferDirective(
                    job_id="j",
                    block_ids=(("j", 0),),
                    src_server="dc0-s0",
                    dst_server="dc1-s0",
                    rate_cap=5 * MBps,
                )
            ]

        result = Simulation(
            topo, [job], ScriptedStrategy(decide, uses_rates=True), SimConfig()
        ).run()
        assert result.completion_time("j") == pytest.approx(6.0)

    def test_oversubscribed_rates_are_clipped(self):
        """Two 10 MB/s requests through one 10 MB/s uplink are halved."""
        topo = two_dc_topology()
        job = MulticastJob(
            job_id="j", src_dc="dc0", dst_dcs=("dc1",),
            total_bytes=30 * MB, block_size=15 * MB,
        )
        job.bind(topo)

        def decide(view):
            out = []
            for i, dst in enumerate(("dc1-s0", "dc1-s1")):
                bid = ("j", i)
                if not view.store.has(dst, bid):
                    out.append(
                        TransferDirective(
                            job_id="j",
                            block_ids=(bid,),
                            src_server="dc0-s0",
                            dst_server=dst,
                            rate_cap=10 * MBps,
                        )
                    )
            return out

        # Striping starts block 1 on dc0-s1; seed a copy on dc0-s0 so both
        # flows contend for the same 10 MB/s uplink.
        result = Simulation(
            topo,
            [job],
            ScriptedStrategy(decide, uses_rates=True),
            SimConfig(),
            pre_seeded={"dc0-s0": [job.blocks[1]]},
        ).run()
        # Both pull 15 MB from dc0-s0's 10 MB/s uplink at 5 MB/s each -> 3 s.
        assert result.completion_time("j") == pytest.approx(3.0)

    def test_useless_directives_filtered(self):
        """Directives for blocks the source lacks are dropped, not fatal."""
        topo = two_dc_topology()
        job = one_block_job(topo)

        def decide(view):
            return [
                TransferDirective(
                    job_id="j",
                    block_ids=(("j", 0),),
                    src_server="dc1-s1",  # holds nothing
                    dst_server="dc1-s0",
                )
            ]

        result = Simulation(
            topo, [job], ScriptedStrategy(decide), SimConfig(max_cycles=3)
        ).run()
        assert not result.all_complete
        assert all(s.active_flows == 0 for s in result.cycle_stats)

    def test_unknown_server_raises(self):
        topo = two_dc_topology()
        job = one_block_job(topo)

        def decide(view):
            return [
                TransferDirective(
                    job_id="j",
                    block_ids=(("j", 0),),
                    src_server="ghost",
                    dst_server="dc1-s0",
                )
            ]

        sim = Simulation(topo, [job], ScriptedStrategy(decide), SimConfig())
        with pytest.raises(KeyError):
            sim.run()


class TestCompletionTracking:
    def test_server_and_dc_completion(self):
        topo = two_dc_topology()
        job = MulticastJob(
            job_id="j", src_dc="dc0", dst_dcs=("dc1",),
            total_bytes=20 * MB, block_size=10 * MB,
        )
        job.bind(topo)

        def decide(view):
            out = []
            for block, _dc, server in view.pending_deliveries(job):
                src = next(iter(view.eligible_sources(block.block_id)))
                out.append(
                    TransferDirective(
                        job_id="j",
                        block_ids=(block.block_id,),
                        src_server=src,
                        dst_server=server,
                    )
                )
            return out

        result = Simulation(topo, [job], ScriptedStrategy(decide), SimConfig()).run()
        assert ("j", "dc1-s0") in result.server_completion
        assert ("j", "dc1-s1") in result.server_completion
        assert ("j", "dc1") in result.dc_completion
        assert result.job_completion["j"] == result.dc_completion[("j", "dc1")]

    def test_same_block_twice_in_one_cycle_counts_once(self):
        # Block 0 reaches its assigned server from two sources in cycle
        # 0; block 1 only goes out from cycle 1. Counting block 0 twice
        # would complete dc1 in cycle 0.
        topo = two_dc_topology(uplink=100 * MBps)
        job = MulticastJob(
            job_id="j", src_dc="dc0", dst_dcs=("dc1",),
            total_bytes=20 * MB, block_size=10 * MB,
        )
        job.bind(topo)
        b0, b1 = (b.block_id for b in job.blocks)

        def decide(view):
            if view.cycle == 0:
                return [
                    TransferDirective("j", (b0,), src, "dc1-s0")
                    for src in ("dc0-s0", "dc0-s1")
                ]
            return [TransferDirective("j", (b1,), "dc0-s1", "dc1-s1")]

        sim = Simulation(
            topo,
            [job],
            ScriptedStrategy(decide),
            SimConfig(),
            pre_seeded={"dc0-s1": [job.blocks[0]]},
        )
        result = sim.run()
        assert result.all_complete
        assert result.server_completion[("j", "dc1-s0")] <= 3.0
        assert result.dc_completion[("j", "dc1")] == (
            result.server_completion[("j", "dc1-s1")]
        )
        assert result.dc_completion[("j", "dc1")] > 3.0
        assert sum(r.dst_server == "dc1-s0" for r in result.store.deliveries) == 1

    def test_duplicate_job_ids_rejected(self):
        topo = Topology.full_mesh(
            num_dcs=3, servers_per_dc=2, wan_capacity=1 * GB, uplink=10 * MBps
        )
        jobs = []
        for dst in ("dc1", "dc2"):
            job = MulticastJob(
                job_id="same", src_dc="dc0", dst_dcs=(dst,),
                total_bytes=8 * MB, block_size=4 * MB,
            )
            job.bind(topo)
            jobs.append(job)
        with pytest.raises(ValueError, match="duplicate job id 'same'"):
            Simulation(topo, jobs, ScriptedStrategy(lambda v: []))

    def test_job_arrival_delays_start(self):
        topo = two_dc_topology()
        job = one_block_job(topo)
        job.arrival_time = 9.0  # cycle 3

        def decide(view):
            assert all(j.arrival_time <= view.time for j in view.jobs)
            out = []
            for j in view.jobs:
                for block, _dc, server in view.pending_deliveries(j):
                    src = next(iter(view.eligible_sources(block.block_id)))
                    out.append(
                        TransferDirective(
                            job_id=j.job_id,
                            block_ids=(block.block_id,),
                            src_server=src,
                            dst_server=server,
                        )
                    )
            return out

        result = Simulation(topo, [job], ScriptedStrategy(decide), SimConfig()).run()
        assert result.completion_time("j") >= 9.0

    def test_max_cycles_stops_incomplete_run(self):
        topo = two_dc_topology()
        job = one_block_job(topo, size=1 * GB)

        def decide(view):
            return []

        result = Simulation(
            topo, [job], ScriptedStrategy(decide), SimConfig(max_cycles=5)
        ).run()
        assert not result.all_complete
        assert len(result.cycle_stats) == 5
        with pytest.raises(KeyError):
            result.completion_time("j")


class TestFailuresAndBackground:
    def test_failed_agents_excluded(self):
        topo = two_dc_topology()
        job = one_block_job(topo)
        failures = FailureSchedule(
            [FailureEvent(cycle=0, kind="agent_fail", target="dc0-s0")]
        )

        def decide(view):
            assert "dc0-s0" in view.failed_agents
            return [
                TransferDirective(
                    job_id="j",
                    block_ids=(("j", 0),),
                    src_server="dc0-s0",
                    dst_server="dc1-s0",
                )
            ]

        result = Simulation(
            topo,
            [job],
            ScriptedStrategy(decide),
            SimConfig(max_cycles=2),
            failures=failures,
        ).run()
        assert not result.all_complete  # only source failed; no transfer ran

    def test_failed_link_zeroes_bulk_capacity(self):
        topo = two_dc_topology()
        job = one_block_job(topo)
        failures = FailureSchedule(
            [FailureEvent(cycle=0, kind="link_fail", target=("dc0", "dc1"))]
        )

        def decide(view):
            assert view.bulk_capacities[wan_key("dc0", "dc1")] == 0.0
            return []

        Simulation(
            topo,
            [job],
            ScriptedStrategy(decide),
            SimConfig(max_cycles=1),
            failures=failures,
        ).run()

    def test_background_reduces_bulk_budget(self):
        topo = two_dc_topology(wan=100 * MBps)
        job = one_block_job(topo)
        bg = BackgroundTraffic(
            base_fraction=0.5, diurnal_fraction=0.0, noise_fraction=0.0, seed=0
        )

        class ThresholdStrategy(ScriptedStrategy):
            respects_safety_threshold = True

        def decide(view):
            budget = view.bulk_capacities[wan_key("dc0", "dc1")]
            # 0.8 * 100 - 50 = 30 MB/s.
            assert budget == pytest.approx(30 * MBps)
            return []

        Simulation(
            topo,
            [job],
            ThresholdStrategy(decide),
            SimConfig(max_cycles=1),
            background=bg,
        ).run()

    def test_controller_unavailable_flag_propagates(self):
        topo = two_dc_topology()
        job = one_block_job(topo)
        failures = FailureSchedule(
            [FailureEvent(cycle=1, kind="controller_fail")]
        )
        seen = []

        def decide(view):
            seen.append(view.controller_available)
            return []

        Simulation(
            topo,
            [job],
            ScriptedStrategy(decide),
            SimConfig(max_cycles=3),
            failures=failures,
        ).run()
        assert seen == [True, False, False]


class TestPreSeeding:
    def test_pre_seeded_assigned_blocks_count_delivered(self):
        topo = two_dc_topology()
        job = MulticastJob(
            job_id="j", src_dc="dc0", dst_dcs=("dc1",),
            total_bytes=20 * MB, block_size=10 * MB,
        )
        job.bind(topo)
        # Seed both shard blocks directly onto their assigned servers.
        seeded = {
            "dc1-s0": [job.blocks[0]],
            "dc1-s1": [job.blocks[1]],
        }
        result = Simulation(
            topo,
            [job],
            ScriptedStrategy(lambda v: []),
            SimConfig(max_cycles=2),
            pre_seeded=seeded,
        ).run()
        assert result.all_complete
        assert result.completion_time("j") == 0.0

    def test_one_pre_seeded_shard_completes_its_server_only(self):
        topo = two_dc_topology()
        job = MulticastJob(
            job_id="j", src_dc="dc0", dst_dcs=("dc1",),
            total_bytes=20 * MB, block_size=10 * MB,
        )
        job.bind(topo)
        result = Simulation(
            topo,
            [job],
            ScriptedStrategy(lambda v: []),
            SimConfig(max_cycles=2),
            pre_seeded={"dc1-s0": [job.blocks[0]]},
        ).run()
        assert result.server_completion == {("j", "dc1-s0"): 0.0}
        assert result.dc_completion == {}
        assert not result.all_complete

    @pytest.mark.parametrize("how", ["pre-seeded", "delivered"])
    def test_copies_off_the_assigned_servers_count_for_nothing(self, how):
        # Each block on the dc1 server it is *not* striped to, and on
        # both servers of the relay DC dc2.
        topo = Topology.full_mesh(
            num_dcs=3, servers_per_dc=2, wan_capacity=1 * GB, uplink=100 * MBps
        )
        job = MulticastJob(
            job_id="j", src_dc="dc0", dst_dcs=("dc1",), relay_dcs=("dc2",),
            total_bytes=20 * MB, block_size=10 * MB,
        )
        job.bind(topo)
        b0, b1 = job.blocks
        off = {
            "dc1-s0": [b1],
            "dc1-s1": [b0],
            "dc2-s0": [b0, b1],
            "dc2-s1": [b0, b1],
        }
        origin = {b0: "dc0-s0", b1: "dc0-s1"}

        def decide(view):
            if how == "pre-seeded":
                return []
            return [
                TransferDirective("j", (b.block_id,), origin[b], dst)
                for dst, blocks in off.items()
                for b in blocks
            ]

        sim = Simulation(
            topo,
            [job],
            ScriptedStrategy(decide),
            SimConfig(max_cycles=3),
            pre_seeded=off if how == "pre-seeded" else None,
        )
        result = sim.run()
        assert all(
            result.store.has(dst, b.block_id)
            for dst, blocks in off.items()
            for b in blocks
        )
        assert sim.snapshot_view().pending_deliveries(job) == [
            (b0, "dc1", "dc1-s0"),
            (b1, "dc1", "dc1-s1"),
        ]
        assert result.server_completion == {}
        assert result.dc_completion == {}

    def test_snapshot_view_reflects_state(self):
        topo = two_dc_topology()
        job = one_block_job(topo)
        sim = Simulation(topo, [job], ScriptedStrategy(lambda v: []), SimConfig())
        view = sim.snapshot_view()
        assert view.cycle == 0
        assert view.store.has("dc0-s0", ("j", 0))
        pending = view.pending_deliveries(job)
        assert len(pending) == 1


# ---------------------------------------------------------------------------
# Directive validation: every rule, on every kind of input
# ---------------------------------------------------------------------------
#
# ``Simulation._valid_directives`` packs whatever the strategy returned
# into a ``DirectiveBatch`` in the store's id space and validates the
# arrays. Each rule is checked on a router-style batch (interned ids, no
# materialized directives) and on a baseline-style ``TransferDirective``
# list.

INPUT_KINDS = ("router-batch", "list")


def _validation_sim() -> Simulation:
    topo = Topology.full_mesh(
        num_dcs=2, servers_per_dc=2, wan_capacity=1 * GB, uplink=10 * MBps
    )
    job = MulticastJob(
        job_id="j", src_dc="dc0", dst_dcs=("dc1",), total_bytes=12 * MB,
        block_size=4 * MB,
    )
    job.bind(topo)
    sim = Simulation(
        topology=topo,
        jobs=[job],
        strategy=ScriptedStrategy(lambda view: []),
    )
    # Server dc0-s0 holds every block; dc1-s1 already holds block 2.
    sim.store.seed("dc0-s0", job.blocks)
    sim.store.seed("dc1-s1", [job.blocks[2]])
    return sim


def _as_input(kind: str, sim: Simulation, directives):
    if kind != "router-batch":
        return list(directives)
    matrix = sim.store.matrix
    packed = DirectiveBatch.of(directives, matrix)
    if (
        (packed.src < 0).any()
        or (packed.dst < 0).any()
        or (packed.gids < 0).any()
    ):
        # Ids the matrix never interned: the batch lives in its own id
        # space, as an unpickled or speculation-overlay batch does.
        return DirectiveBatch.of(directives)
    # What the router emits: ids in the store's matrix, nothing
    # materialized yet.
    return DirectiveBatch(
        matrix,
        packed.job_ids,
        packed.src,
        packed.dst,
        packed.rate_caps,
        packed.offsets,
        packed.gids,
    )


def _d(src, dst, *indices, rate=None, job="j"):
    return TransferDirective(
        job_id=job,
        block_ids=tuple(("j", i) for i in indices),
        src_server=src,
        dst_server=dst,
        rate_cap=rate,
    )


class TestValidationRules:
    @pytest.mark.parametrize("kind", INPUT_KINDS)
    def test_unknown_source_raises(self, kind):
        sim = _validation_sim()
        raw = _as_input(kind, sim, [_d("ghost", "dc1-s0", 0)])
        with pytest.raises(KeyError, match="unknown source server 'ghost'"):
            sim._valid_directives(raw, set())

    @pytest.mark.parametrize("kind", INPUT_KINDS)
    def test_unknown_destination_raises(self, kind):
        sim = _validation_sim()
        raw = _as_input(kind, sim, [_d("dc0-s0", "ghost", 0)])
        with pytest.raises(
            KeyError, match="unknown destination server 'ghost'"
        ):
            sim._valid_directives(raw, set())

    @pytest.mark.parametrize("kind", INPUT_KINDS)
    def test_failed_agents_dropped_before_unknown_check(self, kind):
        sim = _validation_sim()
        raw = _as_input(
            kind,
            sim,
            [
                _d("dc0-s1", "dc1-s0", 0),  # source failed
                _d("dc0-s0", "dc1-s0", 1),  # destination failed
                _d("ghost", "dc1-s1", 1),  # unknown, but a failed agent
                _d("dc0-s0", "dc1-s1", 0, rate=5.0),
            ],
        )
        valid = sim._valid_directives(raw, {"dc0-s1", "dc1-s0", "ghost"})
        assert list(valid) == [_d("dc0-s0", "dc1-s1", 0, rate=5.0)]
        valid = sim._valid_directives(
            _as_input(kind, sim, [_d("dc0-s0", "dc1-s0", 0)]), {"dc0-s0"}
        )
        assert list(valid) == []

    @pytest.mark.parametrize("kind", INPUT_KINDS)
    def test_useless_blocks_filtered_in_order(self, kind):
        sim = _validation_sim()
        # dc1-s0 lacks every block; dc1-s1 already holds block 2.
        raw = _as_input(
            kind,
            sim,
            [
                _d("dc0-s0", "dc1-s1", 2, 1, 0, rate=7.0),
                _d("dc1-s0", "dc0-s1", 0, 1),  # source holds nothing
                _d("dc0-s0", "dc1-s0", 1, 2, 0),
            ],
        )
        valid = sim._valid_directives(raw, set())
        assert list(valid) == [
            _d("dc0-s0", "dc1-s1", 1, 0, rate=7.0),
            _d("dc0-s0", "dc1-s0", 1, 2, 0),
        ]
        assert isinstance(valid, DirectiveBatch)
        assert valid.gids.tolist() == [
            valid.space.block_gids[bid]
            for d in valid
            for bid in d.block_ids
        ]

    @pytest.mark.parametrize("kind", INPUT_KINDS)
    def test_never_interned_blocks_dropped(self, kind):
        sim = _validation_sim()
        raw = _as_input(
            kind,
            sim,
            [
                _d("dc0-s0", "dc1-s0", 0, 99, 1),
                TransferDirective(
                    job_id="other",
                    block_ids=(("other", 0),),
                    src_server="dc0-s0",
                    dst_server="dc1-s0",
                ),
            ],
        )
        valid = sim._valid_directives(raw, set())
        assert list(valid) == [_d("dc0-s0", "dc1-s0", 0, 1)]

    @pytest.mark.parametrize("kind", INPUT_KINDS)
    def test_directive_left_without_blocks_dropped(self, kind):
        sim = _validation_sim()
        raw = _as_input(
            kind,
            sim,
            [
                _d("dc0-s0", "dc1-s1", 2),  # destination holds it
                _d("dc0-s0", "dc1-s0", 2, rate=1.0),
            ],
        )
        valid = sim._valid_directives(raw, set())
        assert list(valid) == [_d("dc0-s0", "dc1-s0", 2, rate=1.0)]
        assert len(valid) == 1

    @pytest.mark.parametrize("kind", INPUT_KINDS)
    def test_empty_input(self, kind):
        sim = _validation_sim()
        assert list(sim._valid_directives(_as_input(kind, sim, []), set())) == []


class TestDirectiveBatch:
    def _batch(self):
        return DirectiveBatch.of(
            [
                _d("a", "b", 0, 1, rate=2.0),
                _d("c", "b", 2),
                _d("a", "c", 3, 4, 5, rate=0.5),
            ]
        )

    def test_sequence_protocol(self):
        batch = self._batch()
        assert len(batch) == 3
        assert batch[1] == _d("c", "b", 2)
        assert batch[-1] == _d("a", "c", 3, 4, 5, rate=0.5)
        assert batch[:2] == [_d("a", "b", 0, 1, rate=2.0), _d("c", "b", 2)]
        assert batch == list(batch)
        assert list(batch) + [] == list(batch)

    def test_take_and_keep_blocks(self):
        batch = self._batch()
        sub = batch.take([2, 0])
        assert list(sub) == [batch[2], batch[0]]
        keep = np.array([True, False, False, True, False, True])
        kept = batch.keep_blocks(keep)
        assert list(kept) == [_d("a", "b", 0, rate=2.0), _d("a", "c", 3, 5, rate=0.5)]

    def test_take_keeps_row_order(self):
        batch = self._batch()
        assert batch.take([0, 1, 2]) is batch
        swapped = batch.take([1, 0, 2])
        assert list(swapped) == [batch[1], batch[0], batch[2]]
        assert swapped.src.tolist() == [batch.src[1], batch.src[0], batch.src[2]]
        assert list(batch.take([1, 0])[:1]) == [batch[1]]

    def test_pickles_as_directives(self):
        import pickle

        batch = self._batch()
        clone = pickle.loads(pickle.dumps(batch))
        assert isinstance(clone, DirectiveBatch)
        assert clone == batch

    def test_translates_between_spaces(self):
        sim = _validation_sim()
        local = DirectiveBatch.of([_d("dc0-s0", "dc1-s0", 1, 0)])
        moved = DirectiveBatch.of(local, sim.store.matrix)
        assert moved.space is sim.store.matrix
        assert list(moved) == list(local)
