"""Equivalence suite for the vectorized data-plane kernels.

The array waterfill (`max_min_fair_rates_vectorized`), the array clip
(`clip_rates_to_capacity_vectorized`), and the batched delivery path
(`PossessionIndex.record_deliveries` + `Simulation._apply_deliveries`)
all claim *bit-identity* with the scalar kernels and the per-pair
``record_delivery`` loop. These tests make that claim falsifiable:
randomized scenario sweeps compare the two implementations
dict-for-dict, error paths must raise the same exceptions, and whole
simulations are fingerprinted with the simulator's rate and delivery
entry points patched to the scalar forms.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.analysis.runner import make_strategy
from repro.lp.incidence import FlowIncidence, segment_mins
from repro.net import simulator
from repro.net.flow import (
    Flow,
    FlowKernelStats,
    clip_rates_to_capacity_scalar,
    clip_rates_to_capacity_vectorized,
    max_min_fair_rates_scalar,
    max_min_fair_rates_vectorized,
)
from repro.net.simulator import SimResult, Simulation
from repro.net.topology import Topology
from repro.overlay.blocks import Block
from repro.overlay.job import MulticastJob
from repro.overlay.store import PossessionIndex
from repro.utils.units import MB, MBps

# ---------------------------------------------------------------------------
# Randomized scenario generation
# ---------------------------------------------------------------------------

RESOURCE_POOL = [("wan", f"dc{i}", f"dc{j}") for i in range(6) for j in range(6)]


def _random_scenario(rng: random.Random, num_flows: int):
    """Random flows over a random subset of a shared resource pool."""
    resources = rng.sample(RESOURCE_POOL, rng.randint(3, 12))
    capacities = {
        res: rng.choice([0.5, 1.0, 2.0, 5.0, 10.0, 100.0]) for res in resources
    }
    flows = []
    for i in range(num_flows):
        path = tuple(rng.sample(resources, rng.randint(1, min(4, len(resources)))))
        demand = rng.choice([0.0, 0.25, 1.0, 3.0, 7.5, float("inf")])
        rate_cap = rng.choice([None, 0.0, 0.5, 2.0, 50.0])
        # flow ids deliberately collide sometimes to exercise dup handling
        fid = f"f{i % max(1, num_flows - 2)}"
        flows.append(
            Flow(flow_id=fid, resources=path, demand=demand, rate_cap=rate_cap)
        )
    return flows, capacities


# ---------------------------------------------------------------------------
# Waterfill: vectorized ≡ scalar
# ---------------------------------------------------------------------------


class TestWaterfillEquivalence:
    @pytest.mark.parametrize("seed", range(25))
    @pytest.mark.parametrize("num_flows", [1, 7, 64, 150])
    def test_randomized_bit_identity(self, seed, num_flows):
        rng = random.Random(1000 * seed + num_flows)
        flows, capacities = _random_scenario(rng, num_flows)
        scalar = max_min_fair_rates_scalar(flows, capacities)
        vectorized = max_min_fair_rates_vectorized(flows, capacities)
        # Exact dict equality: same keys, same float bits.
        assert scalar == vectorized
        assert all(isinstance(v, float) for v in vectorized.values())

    def test_zero_cap_flows_skip_resource_validation(self):
        # Scalar semantics: flows with no effective capacity are preset to
        # 0 and never validated, so their unknown resources must not raise
        # in the vectorized path either.
        flows = [
            Flow(flow_id="dead", resources=(("wan", "x", "y"),), rate_cap=0.0),
            Flow(flow_id="live", resources=(("wan", "a", "b"),), demand=5.0),
        ]
        caps = {("wan", "a", "b"): 2.0}
        scalar = max_min_fair_rates_scalar(flows, caps)
        vectorized = max_min_fair_rates_vectorized(flows, caps)
        assert scalar == vectorized == {"dead": 0.0, "live": 2.0}

    def test_flow_caps_hit_before_saturation(self):
        # Rate caps freeze flows below every link's fair share; the
        # leftover headroom goes to the uncapped flow.
        shared = ("wan", "a", "b")
        flows = [
            Flow(flow_id="small", resources=(shared,), rate_cap=1.0),
            Flow(flow_id="mid", resources=(shared,), rate_cap=3.0),
            Flow(flow_id="big", resources=(shared,)),
        ]
        caps = {shared: 12.0}
        expected = {"small": 1.0, "mid": 3.0, "big": 8.0}
        assert max_min_fair_rates_scalar(flows, caps) == expected
        assert max_min_fair_rates_vectorized(flows, caps) == expected

    def test_unknown_resource_raises_same_keyerror(self):
        flows = [Flow(flow_id="f", resources=(("wan", "a", "b"),), demand=1.0)]
        with pytest.raises(KeyError) as scalar_err:
            max_min_fair_rates_scalar(flows, {})
        with pytest.raises(KeyError) as vec_err:
            max_min_fair_rates_vectorized(flows, {})
        assert str(scalar_err.value) == str(vec_err.value)

    def test_unbounded_raises_same_valueerror(self):
        flows = [Flow(flow_id="f", resources=())]
        with pytest.raises(ValueError, match="unbounded"):
            max_min_fair_rates_scalar(flows, {})
        with pytest.raises(ValueError, match="unbounded"):
            max_min_fair_rates_vectorized(flows, {})

    def test_stats_counter_threads_through(self):
        flows = [
            Flow(flow_id="f", resources=(("wan", "a", "b"),), demand=1.0)
        ]
        stats = FlowKernelStats()
        max_min_fair_rates_vectorized(flows, {("wan", "a", "b"): 5.0}, stats=stats)
        # A healthy run records no stalemates.
        assert stats.stalemates == 0


# ---------------------------------------------------------------------------
# Clip: vectorized ≡ scalar
# ---------------------------------------------------------------------------


class TestClipEquivalence:
    @pytest.mark.parametrize("seed", range(25))
    def test_randomized_bit_identity(self, seed):
        rng = random.Random(seed)
        flows, capacities = _random_scenario(rng, rng.randint(1, 80))
        requested = {
            f.flow_id: rng.choice([0.0, 0.3, 1.5, 4.0, 20.0]) for f in flows
        }
        scalar = clip_rates_to_capacity_scalar(flows, requested, capacities)
        vectorized = clip_rates_to_capacity_vectorized(
            flows, requested, capacities
        )
        assert scalar == vectorized

    def test_validates_all_resources_even_at_zero_rate(self):
        # clip (unlike the waterfill) validates every flow's resources.
        flows = [Flow(flow_id="f", resources=(("wan", "x", "y"),))]
        with pytest.raises(KeyError):
            clip_rates_to_capacity_scalar(flows, {"f": 0.0}, {})
        with pytest.raises(KeyError):
            clip_rates_to_capacity_vectorized(flows, {"f": 0.0}, {})


# ---------------------------------------------------------------------------
# FlowIncidence / segment_mins building blocks
# ---------------------------------------------------------------------------


class TestIncidenceHelpers:
    def test_segment_mins_handles_empty_segments(self):
        values = np.array([3.0, 1.0, 2.0])
        starts = np.array([0, 2, 2, 2])
        lens = np.array([2, 0, 1, 0])
        out = segment_mins(values, starts, lens, default=np.inf)
        assert out.tolist() == [1.0, np.inf, 2.0, np.inf]

    def test_segment_mins_empty_input(self):
        out = segment_mins(
            np.array([]), np.array([0]), np.array([0]), default=7.0
        )
        assert out.tolist() == [7.0]

    def test_incidence_build_rejects_unknown_resource(self):
        with pytest.raises(KeyError, match="unknown resource"):
            FlowIncidence.build([(("wan", "a", "b"),)], {})

    def test_incidence_loads_and_usage(self):
        r1, r2 = ("wan", "a", "b"), ("wan", "b", "c")
        inc = FlowIncidence.build(
            [(r1,), (r1, r2)], {r1: 10.0, r2: 20.0}
        )
        assert inc.num_flows == 2 and inc.num_resources == 2
        assert inc.loads().tolist() == [2, 1]
        assert inc.usage(np.array([1.0, 3.0])).tolist() == [4.0, 3.0]


# ---------------------------------------------------------------------------
# Batched delivery: record_deliveries ≡ looped record_delivery
# ---------------------------------------------------------------------------


def _fresh_indexes():
    server_dc = {f"dc{d}-s{s}": f"dc{d}" for d in range(3) for s in range(4)}
    return (
        PossessionIndex(server_dc),
        PossessionIndex(server_dc),
        sorted(server_dc),
    )


def _random_events(rng: random.Random, servers, count: int):
    blocks = [Block(job_id="j", index=i, size=MB) for i in range(10)]
    events = []
    for _ in range(count):
        block = rng.choice(blocks)
        src, dst = rng.sample(servers, 2)
        events.append((block, src, dst, rng.random() * 10.0, "dc0"))
    return events


class TestBatchedDelivery:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("count", [1, 5, 40, 200])
    def test_batch_matches_sequential(self, seed, count):
        rng = random.Random(seed * 7 + count)
        batched, sequential, servers = _fresh_indexes()
        events = _random_events(rng, servers, count)

        out_batch = batched.record_deliveries(events)
        out_seq = [sequential.record_delivery(*e) for e in events]

        assert out_batch == out_seq
        assert batched.deliveries == sequential.deliveries
        assert batched.epoch == sequential.epoch
        for server in servers:
            assert batched.blocks_on(server) == sequential.blocks_on(server)
        for block in {e[0] for e in events}:
            bid = block.block_id
            assert batched.holders(bid) == sequential.holders(bid)
            assert batched.duplicate_count(bid) == sequential.duplicate_count(
                bid
            )
            for dc in ("dc0", "dc1", "dc2"):
                assert batched.dc_copy_count(dc, bid) == sequential.dc_copy_count(
                    dc, bid
                )

    def test_within_batch_duplicate_keeps_first_occurrence(self):
        batched, sequential, servers = _fresh_indexes()
        block = Block(job_id="j", index=0, size=MB)
        events = [
            (block, servers[0], servers[1], 1.0, "dc0"),
            (block, servers[2], servers[1], 2.0, "dc0"),  # same pair, later
        ]
        out = batched.record_deliveries(events)
        assert out[0] is not None and out[1] is None
        assert [r.time for r in batched.deliveries] == [1.0]
        assert sequential.record_delivery(*events[0]) is not None
        assert sequential.record_delivery(*events[1]) is None

    def test_unknown_destination_rejected(self):
        batched, _, servers = _fresh_indexes()
        block = Block(job_id="j", index=0, size=MB)
        with pytest.raises(KeyError, match="unknown server"):
            batched.record_deliveries([(block, servers[0], "ghost", 1.0, "dc0")])
        # Whole-batch rejection: nothing landed.
        assert batched.epoch == 0 and not batched.deliveries

    def test_empty_batch_is_noop(self):
        batched, _, _ = _fresh_indexes()
        assert batched.record_deliveries([]) == []
        assert batched.epoch == 0


# ---------------------------------------------------------------------------
# Whole-simulation fingerprints: array data plane vs the scalar forms
# ---------------------------------------------------------------------------

SEED = 90


def _use_scalar_data_plane(monkeypatch) -> None:
    """Scalar rate kernels at every flow count and per-pair delivery
    records: the data plane the array kernels must reproduce."""
    monkeypatch.setattr(
        simulator, "max_min_fair_rates", max_min_fair_rates_scalar
    )
    monkeypatch.setattr(
        simulator, "clip_rates_to_capacity", clip_rates_to_capacity_scalar
    )
    monkeypatch.setattr(
        PossessionIndex,
        "record_deliveries",
        lambda self, events: [self.record_delivery(*e) for e in events],
    )


def _run(strategy_name: str) -> SimResult:
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
    sim = Simulation(
        topology=topo,
        jobs=[job],
        strategy=make_strategy(strategy_name, seed=SEED),
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
        [r.time for r in result.store.deliveries],
    )


class TestDataPlaneGolden:
    @pytest.mark.parametrize("strategy", ["bds", "gingko", "bullet"])
    def test_array_data_plane_matches_scalar(self, strategy, monkeypatch):
        vectorized = _run(strategy)
        _use_scalar_data_plane(monkeypatch)
        scalar = _run(strategy)
        assert vectorized.all_complete
        assert _fingerprint(vectorized) == _fingerprint(scalar)

    def test_delivery_records_identical(self, monkeypatch):
        vectorized = _run("gingko")
        _use_scalar_data_plane(monkeypatch)
        scalar = _run("gingko")
        assert vectorized.store.deliveries == scalar.store.deliveries
        assert len(vectorized.store.deliveries) > 0

    def test_stalemate_counter_exported(self):
        result = _run("bds")
        # Healthy scenario: the counter exists and stays at zero.
        assert result.total_rate_stalemates() == 0
