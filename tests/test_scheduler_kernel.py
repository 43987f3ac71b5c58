"""Equivalence suite for the array-native control plane.

The vectorized rarest-first kernel and the batched router build must
each be *bit-identical* to the scalar paths that still run on speculation
overlays: same selections in the same order, same directives. The bitset
possession matrix must give the same answer to every store query, and
follow the same epoch trajectory, as :class:`DictPossessionIndex` — a
compact dict-of-sets reference model kept here as the oracle. These
tests pin that contract over randomized topologies, jobs with priorities
and relays, failures, and selection caps.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.runner import make_strategy
from repro.core.routing import BDSRouter
from repro.core.scheduling import RarestFirstScheduler
from repro.core.speculation import DeliverySpeculator, SpeculatedView
from repro.net.cycle_cache import CycleCache
from repro.net.failures import FailureEvent, FailureSchedule
from repro.net.simulator import SimConfig, Simulation
from repro.net.topology import Topology
from repro.overlay.job import MulticastJob
from repro.overlay.store import DeliveryRecord, PossessionIndex
from repro.utils.units import MB, MBps


class DictPossessionIndex:
    """Reference possession index: plain dicts of sets, no interning.

    Mirrors :class:`PossessionIndex`'s observable contract — query
    answers, ``epoch`` (+1 per new copy, +1 per effective
    ``drop_server``), delivery provenance — in the most direct form, so
    the matrix-backed index has something independent to agree with.
    """

    def __init__(self, server_dc):
        self._server_dc = dict(server_dc)
        self._holders = {}
        self._server_blocks = {s: set() for s in self._server_dc}
        self.deliveries = []
        self.epoch = 0

    def _add(self, block_id, server_id):
        if server_id not in self._server_dc:
            raise KeyError(f"unknown server {server_id!r}")
        holders = self._holders.setdefault(block_id, set())
        if server_id in holders:
            return False
        holders.add(server_id)
        self._server_blocks[server_id].add(block_id)
        self.epoch += 1
        return True

    def seed(self, server_id, blocks):
        for block in blocks:
            self._add(block.block_id, server_id)

    def record_delivery(self, block, src_server, dst_server, time, origin_dc):
        if not self._add(block.block_id, dst_server):
            return None
        record = DeliveryRecord(
            block_id=block.block_id,
            src_server=src_server,
            dst_server=dst_server,
            time=time,
            from_origin_dc=self._server_dc[src_server] == origin_dc,
        )
        self.deliveries.append(record)
        return record

    def drop_server(self, server_id):
        held = self._server_blocks.get(server_id)
        if not held:
            return
        for block_id in held:
            self._holders[block_id].discard(server_id)
        self._server_blocks[server_id] = set()
        self.epoch += 1

    def dc_of(self, server_id):
        return self._server_dc[server_id]

    def has(self, server_id, block_id):
        return block_id in self._server_blocks.get(server_id, ())

    def holders(self, block_id):
        return frozenset(self._holders.get(block_id, ()))

    def duplicate_count(self, block_id):
        return len(self._holders.get(block_id, ()))

    def blocks_on(self, server_id):
        return frozenset(self._server_blocks.get(server_id, ()))

    def dc_copy_count(self, dc, block_id):
        return sum(
            1
            for s in self._holders.get(block_id, ())
            if self._server_dc[s] == dc
        )

    def dc_has_block(self, dc, block_id):
        return self.dc_copy_count(dc, block_id) > 0

    def origin_fraction_by_server(self):
        totals, from_origin = {}, {}
        for record in self.deliveries:
            dst = record.dst_server
            totals[dst] = totals.get(dst, 0) + 1
            from_origin[dst] = from_origin.get(dst, 0) + record.from_origin_dc
        return {s: from_origin[s] / n for s, n in totals.items()}


def _random_scenario(seed: int):
    """A randomized (topology, jobs, failures) triple.

    Varies DC/server counts, destination sets, priorities, and relay DCs;
    every other seed adds mid-run agent and link failures.
    """
    rng = random.Random(seed)
    num_dcs = rng.randint(3, 5)
    # Slow links relative to job sizes so that several cycles into a run
    # there is still plenty of pending work: equivalence tests on an
    # *empty* mid-run selection would be vacuous.
    topo = Topology.full_mesh(
        num_dcs=num_dcs,
        servers_per_dc=rng.randint(2, 4),
        wan_capacity=40 * MBps,
        uplink=5 * MBps,
    )
    dcs = [f"dc{i}" for i in range(num_dcs)]
    jobs = []
    for j in range(rng.randint(1, 3)):
        src = rng.choice(dcs)
        others = [d for d in dcs if d != src]
        rng.shuffle(others)
        num_dsts = rng.randint(1, len(others))
        dsts = tuple(sorted(others[:num_dsts]))
        leftovers = others[num_dsts:]
        relays = tuple(leftovers[:1]) if leftovers and rng.random() < 0.5 else ()
        job = MulticastJob(
            job_id=f"job{j}",
            src_dc=src,
            dst_dcs=dsts,
            relay_dcs=relays,
            total_bytes=rng.choice([48, 64, 96]) * MB,
            block_size=4 * MB,
            priority=rng.randint(0, 2),
        )
        job.bind(topo)
        jobs.append(job)
    failures = None
    if seed % 2:
        events = [
            FailureEvent(cycle=1, kind="agent_fail", target=f"{dcs[1]}-s0"),
            FailureEvent(cycle=2, kind="link_fail", target=(dcs[0], dcs[1])),
        ]
        failures = FailureSchedule(events)
    return topo, jobs, failures


def _midrun_view(seed: int, cycles: int = 2):
    """A cluster view a few cycles into a simulation."""
    topo, jobs, failures = _random_scenario(seed)
    sim = Simulation(
        topology=topo,
        jobs=jobs,
        strategy=make_strategy("bds", seed=seed),
        config=SimConfig(max_cycles=cycles, stop_when_complete=False),
        failures=failures,
        seed=seed,
    )
    sim.run()
    return sim.snapshot_view()


class TestVectorizedSelectionEquivalence:
    """vectorized ≡ cached scalar on the simulator's warm cache ≡ cached
    scalar on a fresh cache: content AND order."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("cap", [0, 7])
    def test_three_paths_identical(self, seed, cap):
        view = _midrun_view(seed)
        scheduler = RarestFirstScheduler(max_blocks_per_cycle=cap)

        vectorized = scheduler.select(view)
        # The kernel must actually have run (its integer companion is the
        # witness); otherwise this test silently compares scalar to scalar.
        assert scheduler.last_batch is not None
        assert len(scheduler.last_batch.gids) == len(vectorized)

        view._candidates = None  # hide the table -> cached scalar path
        cached = scheduler.select(view)
        assert scheduler.last_batch is None

        view._cache = CycleCache()  # cold memos: every query hits the store
        cold = scheduler.select(view)

        assert vectorized == cached  # list equality: content AND order
        assert vectorized == cold

    @pytest.mark.parametrize("seed", range(4))
    def test_no_relays_mode_identical(self, seed):
        view = _midrun_view(seed)
        scheduler = RarestFirstScheduler(use_relays=False)
        vectorized = scheduler.select(view)
        assert scheduler.last_batch is not None
        view._candidates = None
        assert vectorized == scheduler.select(view)

    def test_repeated_select_is_stable(self):
        # The kernel caches ScheduledBlocks and compacts candidate rows;
        # neither may change what a repeated select on the same view says.
        view = _midrun_view(2)
        scheduler = RarestFirstScheduler()
        first = scheduler.select(view)
        second = scheduler.select(view)
        assert first == second


class TestBatchedRouterEquivalence:
    """Batched (interned-id) group build ≡ the scalar build."""

    @pytest.mark.parametrize("seed", range(8))
    def test_directives_identical(self, seed):
        view = _midrun_view(seed)
        scheduler = RarestFirstScheduler()
        selections = scheduler.select(view)
        batch = scheduler.last_batch
        assert batch is not None

        router = BDSRouter()
        batched, _ = router.route(view, selections, batch=batch)
        scalar, _ = BDSRouter().route(view, selections, batch=None)
        assert batched == scalar

    @pytest.mark.parametrize("merge", [True, False])
    def test_merge_ablation_identical(self, merge):
        view = _midrun_view(4)
        scheduler = RarestFirstScheduler()
        selections = scheduler.select(view)
        batch = scheduler.last_batch
        router = BDSRouter(merge_blocks=merge)
        batched, _ = router.route(view, selections, batch=batch)
        scalar, _ = BDSRouter(merge_blocks=merge).route(
            view, selections, batch=None
        )
        assert batched == scalar


def _twin_indices(topo: Topology):
    server_dc = {s.server_id: s.dc for s in topo.servers.values()}
    return PossessionIndex(server_dc), DictPossessionIndex(server_dc)


def _index(server_dc, matrix: bool):
    """The index under test, or (``matrix=False``) the reference model."""
    if matrix:
        return PossessionIndex(server_dc)
    return DictPossessionIndex(server_dc)


def _assert_indices_agree(matrix_idx, dict_idx, jobs, servers):
    assert matrix_idx.epoch == dict_idx.epoch
    for job in jobs:
        for block in job.blocks:
            bid = block.block_id
            assert set(matrix_idx.holders(bid)) == set(dict_idx.holders(bid))
            assert matrix_idx.duplicate_count(bid) == dict_idx.duplicate_count(
                bid
            )
            for dc in {dc for dc in (s.split("-")[0] for s in servers)}:
                assert matrix_idx.dc_has_block(dc, bid) == dict_idx.dc_has_block(
                    dc, bid
                )
                assert matrix_idx.dc_copy_count(
                    dc, bid
                ) == dict_idx.dc_copy_count(dc, bid)
    for server in servers:
        assert set(matrix_idx.blocks_on(server)) == set(
            dict_idx.blocks_on(server)
        )
        for job in jobs:
            for block in job.blocks:
                assert matrix_idx.has(server, block.block_id) == dict_idx.has(
                    server, block.block_id
                )
    assert (
        matrix_idx.origin_fraction_by_server()
        == dict_idx.origin_fraction_by_server()
    )


class TestPossessionIndexEquivalence:
    """Matrix-backed index ≡ the dict reference for every query, every
    step."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_mutation_sequences(self, seed):
        rng = random.Random(1000 + seed)
        topo, jobs, _failures = _random_scenario(seed)
        matrix_idx, dict_idx = _twin_indices(topo)
        servers = sorted(topo.servers)
        blocks = [b for job in jobs for b in job.blocks]

        # Initial seeding: every job's blocks onto its source DC servers.
        for job in jobs:
            src_servers = [
                s for s in servers if topo.servers[s].dc == job.src_dc
            ]
            for i, block in enumerate(job.blocks):
                holder = src_servers[i % len(src_servers)]
                matrix_idx.seed(holder, [block])
                dict_idx.seed(holder, [block])
        _assert_indices_agree(matrix_idx, dict_idx, jobs, servers)

        for step in range(30):
            op = rng.random()
            if op < 0.8:
                block = rng.choice(blocks)
                dst = rng.choice(servers)
                src_candidates = sorted(matrix_idx.holders(block.block_id))
                if not src_candidates:
                    continue
                src = rng.choice(src_candidates)
                origin = matrix_idx.dc_of(src)
                r1 = matrix_idx.record_delivery(
                    block, src, dst, float(step), origin
                )
                r2 = dict_idx.record_delivery(
                    block, src, dst, float(step), origin
                )
                assert (r1 is None) == (r2 is None)
            else:
                victim = rng.choice(servers)
                matrix_idx.drop_server(victim)
                dict_idx.drop_server(victim)
            _assert_indices_agree(matrix_idx, dict_idx, jobs, servers)

    @pytest.mark.parametrize("matrix", [True, False])
    def test_unknown_names_behave(self, matrix):
        topo, jobs, _ = _random_scenario(0)
        server_dc = {s.server_id: s.dc for s in topo.servers.values()}
        idx = _index(server_dc, matrix)
        assert idx.holders(("nope", 0)) == frozenset()
        assert idx.blocks_on("no-such-server") == frozenset()
        assert idx.duplicate_count(("nope", 0)) == 0
        idx.drop_server("no-such-server")  # no-op, no epoch bump
        assert idx.epoch == 0
        with pytest.raises(KeyError):
            idx.seed("no-such-server", jobs[0].blocks[:1])


class TestEpochSemantics:
    """Epoch: +1 per new copy; one bump per effective drop_server call."""

    @pytest.mark.parametrize("matrix", [True, False])
    def test_seed_and_delivery_bump_per_copy(self, matrix):
        topo, jobs, _ = _random_scenario(0)
        server_dc = {s.server_id: s.dc for s in topo.servers.values()}
        idx = _index(server_dc, matrix)
        job = jobs[0]
        src = sorted(
            s for s in server_dc if server_dc[s] == job.src_dc
        )[0]
        dst = sorted(s for s in server_dc if server_dc[s] != job.src_dc)[0]

        idx.seed(src, job.blocks)
        assert idx.epoch == len(job.blocks)
        idx.seed(src, job.blocks)  # all duplicates: no bump
        assert idx.epoch == len(job.blocks)

        block = job.blocks[0]
        idx.record_delivery(block, src, dst, 0.0, job.src_dc)
        assert idx.epoch == len(job.blocks) + 1
        idx.record_delivery(block, src, dst, 1.0, job.src_dc)  # duplicate
        assert idx.epoch == len(job.blocks) + 1

    @pytest.mark.parametrize("matrix", [True, False])
    def test_drop_server_single_bump(self, matrix):
        topo, jobs, _ = _random_scenario(0)
        server_dc = {s.server_id: s.dc for s in topo.servers.values()}
        idx = _index(server_dc, matrix)
        job = jobs[0]
        src = sorted(
            s for s in server_dc if server_dc[s] == job.src_dc
        )[0]
        idx.seed(src, job.blocks)  # several blocks on one server
        before = idx.epoch
        idx.drop_server(src)
        assert idx.epoch == before + 1  # one event, not one per block
        idx.drop_server(src)  # nothing left: no bump
        assert idx.epoch == before + 1
        assert idx.blocks_on(src) == frozenset()


class TestSpeculationFallback:
    """Speculation overlays must opt out of the vectorized fast paths."""

    def test_speculated_store_is_not_exact(self):
        view = _midrun_view(0)
        sizes = {
            b.block_id: b.size for job in view.jobs for b in job.blocks
        }
        speculator = DeliverySpeculator(horizon_seconds=3.0)
        scheduler = RarestFirstScheduler()
        selections = scheduler.select(view)
        batch = scheduler.last_batch
        assert batch is not None
        directives, _ = BDSRouter().route(view, selections, batch=batch)
        speculated = speculator.speculate(view, directives, sizes)
        if not speculated:
            pytest.skip("no speculatable directives in this scenario")
        overlay = SpeculatedView(view, speculated)
        # The overlay's store shadows the matrix with phantom copies: it
        # must advertise inexactness and drop the candidate table, so the
        # scheduler takes the scalar path (whose store queries see the
        # phantoms) instead of reading the un-speculated matrix.
        assert overlay.store.is_exact_matrix is False
        assert overlay._candidates is None
        scheduler.select(overlay)
        assert scheduler.last_batch is None
