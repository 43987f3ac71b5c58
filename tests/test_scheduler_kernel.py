"""Equivalence suite for the array-native control plane.

The control plane has one decide path: the vectorized rarest-first kernel
and the router's matrix-id row build, over the live possession matrix or
a speculation overlay of it. Each is checked against a reference kept
here as the oracle:

* :func:`scalar_rarest_first` — per-candidate store queries and one tuple
  sort — for the kernel: same selections in the same order;
* :func:`scan_pending` — a ``store.has`` scan of every (destination DC,
  block) pair — for :meth:`ClusterView.pending_deliveries` over the
  live matrix, speculation overlays, partition clones and shard
  mirrors;
* :func:`name_interned_rows` — rows interned by name from
  ``view.eligible_sources`` — for the router's row build: same
  directives;
* :class:`SpeculatedStoreOracle` — the real store plus speculated copies
  as plain sets — for :meth:`PossessionIndex.overlay`'s answers;
* :class:`DictPossessionIndex` — a compact dict-of-sets model — for the
  bitset possession matrix's query answers and epoch trajectory.

These tests pin that contract over randomized topologies, jobs with
priorities and relays, failures, and selection caps.
"""

from __future__ import annotations

import random
from typing import Dict, List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.runner import make_strategy
from repro.core import routing
from repro.core.config import BDSConfig
from repro.core.decisions import ScheduledBlock
from repro.core.routing import BDSRouter
from repro.core.scheduling import RarestFirstScheduler
from repro.core.shardexec import ShardFeed, ShardMirror
from repro.core.speculation import (
    DeliverySpeculator,
    SpeculatedDelivery,
    SpeculatedView,
)
from repro.net.failures import FailureEvent, FailureSchedule
from repro.net.simulator import IdSpace, SimConfig, Simulation
from repro.net.topology import Topology
from repro.overlay.job import MulticastJob
from repro.overlay.store import DeliveryRecord, PossessionIndex
from repro.utils.units import MB, MBps


def scan_pending(view, job):
    """Reference for ``ClusterView.pending_deliveries``: a full scan.

    Every (destination DC, block) pair whose assigned server lacks the
    block per ``view.store.has``, in ``job.dst_dcs`` order and ascending
    block index.
    """
    store = view.store
    pending = []
    for dc in job.dst_dcs:
        for block in job.blocks:
            server = job.assigned_server(dc, block.block_id)
            if not store.has(server, block.block_id):
                pending.append((block, dc, server))
    return pending


def scalar_rarest_first(view, max_blocks_per_cycle=0, use_relays=True):
    """Reference rarest-first selection from per-candidate store queries.

    Candidates in enumeration order (per job: pending deliveries, then
    relay placements while the relay DC holds no copy), minus failed
    destinations and blocks with no healthy holder, sorted by
    ``(is_relay, -priority, duplicates, block index)`` with ties in
    enumeration order.
    """
    store = view.store
    failed = view.failed_agents
    keyed = []
    for job in view.jobs:
        pending = [(b, dc, s, False) for b, dc, s in scan_pending(view, job)]
        if use_relays:
            for dc in job.relay_dcs:
                for block in job.blocks:
                    if not store.dc_has_block(dc, block.block_id):
                        server = job.assigned_server(dc, block.block_id)
                        pending.append((block, dc, server, True))
        for block, dc, server, is_relay in pending:
            if server in failed:
                continue
            duplicates = store.duplicate_count(block.block_id)
            if not any(s not in failed for s in store.holders(block.block_id)):
                continue
            key = (is_relay, -job.priority, duplicates, block.index, len(keyed))
            keyed.append(
                (
                    key,
                    ScheduledBlock(
                        job_id=job.job_id,
                        block=block,
                        dst_dc=dc,
                        dst_server=server,
                        duplicates=duplicates,
                        is_relay=is_relay,
                    ),
                )
            )
    keyed.sort(key=lambda item: item[0])
    selected = [entry for _key, entry in keyed]
    if max_blocks_per_cycle:
        selected = selected[:max_blocks_per_cycle]
    return selected


def name_interned_rows(view, selections, _batch, _sizes):
    """Reference for ``routing._selection_rows``: rows interned by name.

    Ignores the scheduler's batch: servers are interned in sorted-name
    order (the matrix's order) into a fresh :class:`IdSpace`, blocks on
    first sight, and each distinct block's holders come from
    ``view.eligible_sources``, laid out DC-major.
    """
    servers = view.topology.servers
    space = IdSpace(sorted(servers))
    server_ids = space.server_ids
    dc_names = sorted({servers[name].dc for name in space.server_names})
    dc_ids = {dc: i for i, dc in enumerate(dc_names)}
    server_dc = [dc_ids[servers[name].dc] for name in space.server_names]
    slot_of: Dict[str, int] = {}
    holders_of: Dict[int, List[int]] = {}
    pair_row: List[int] = []
    pair_src: List[int] = []
    for i, entry in enumerate(selections):
        slot_of.setdefault(entry.job_id, len(slot_of))
        gid = space.intern(entry.block.block_id)
        holders = holders_of.get(gid)
        if holders is None:
            holders = holders_of[gid] = sorted(
                (server_ids[s] for s in view.eligible_sources(entry.block.block_id)),
                key=lambda s: (server_dc[s], s),
            )
        pair_row.extend([i] * len(holders))
        pair_src.extend(holders)

    def column(values, dtype=np.int64):
        return np.array(list(values), dtype=dtype)

    gids = column(space.block_gids[e.block.block_id] for e in selections)
    dst = column(server_ids[e.dst_server] for e in selections)
    reach, paths = view._cache.reach_table(
        view.topology.epoch, view.failed_links, space.server_names
    )
    return routing._Rows(
        space=space,
        job_ids=list(slot_of),
        server_dc=column(server_dc),
        num_dcs=len(dc_names),
        slot=column(slot_of[e.job_id] for e in selections),
        gids=gids,
        index=column(e.block.index for e in selections),
        dst=dst,
        dst_dc=column(dc_ids[e.dst_dc] for e in selections),
        sizes=column((e.block.size for e in selections), np.float64),
        buffered=view.received_bytes_many(space, gids, dst),
        pair_row=column(pair_row),
        pair_src=column(pair_src),
        reach=reach,
        paths=paths,
    )


def oracle_route(monkeypatch, router, view, selections):
    """``router.route`` with its row build swapped for the oracle."""
    with monkeypatch.context() as patch:
        patch.setattr(routing, "_selection_rows", name_interned_rows)
        directives, _ = router.route(view, selections)
    return directives


class SpeculatedStoreOracle:
    """The real store plus speculated copies, as plain sets.

    Answers ``has``/``holders``/``duplicate_count``/``dc_has_block`` the
    way a speculated delivery state must: a pair is held if the real
    store holds it or it was speculated. Every other query goes to the
    real store.
    """

    def __init__(self, store, extra):
        self._store = store
        self._extra_by_server = {}
        self._extra_holders = {}
        for delivery in extra:
            self._extra_by_server.setdefault(delivery.dst_server, set()).add(
                delivery.block_id
            )
            self._extra_holders.setdefault(delivery.block_id, set()).add(
                delivery.dst_server
            )

    def __getattr__(self, name):
        return getattr(self._store, name)

    def has(self, server_id, block_id):
        if block_id in self._extra_by_server.get(server_id, ()):
            return True
        return self._store.has(server_id, block_id)

    def holders(self, block_id):
        return set(self._store.holders(block_id)) | self._extra_holders.get(
            block_id, set()
        )

    def duplicate_count(self, block_id):
        return len(self.holders(block_id))

    def dc_has_block(self, dc, block_id):
        return any(self._store.dc_of(s) == dc for s in self.holders(block_id))


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
    """kernel on the simulator's table ≡ kernel on a fresh table ≡ the
    scalar oracle: content AND order."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("cap", [0, 7])
    def test_three_paths_identical(self, seed, cap):
        view = _midrun_view(seed)
        scheduler = RarestFirstScheduler(max_blocks_per_cycle=cap)

        vectorized = scheduler.select(view)
        assert scheduler.last_batch is not None
        assert len(scheduler.last_batch.gids) == len(vectorized)

        view._candidates = None  # the scheduler builds a fresh table
        fresh = scheduler.select(view)

        assert vectorized == fresh  # list equality: content AND order
        assert vectorized == scalar_rarest_first(view, cap)

    @pytest.mark.parametrize("seed", range(4))
    def test_no_relays_mode_identical(self, seed):
        view = _midrun_view(seed)
        scheduler = RarestFirstScheduler(use_relays=False)
        vectorized = scheduler.select(view)
        assert scheduler.last_batch is not None
        assert vectorized == scalar_rarest_first(view, use_relays=False)

    def test_repeated_select_is_stable(self):
        # The kernel caches ScheduledBlocks and compacts candidate rows;
        # neither may change what a repeated select on the same view says.
        view = _midrun_view(2)
        scheduler = RarestFirstScheduler()
        first = scheduler.select(view)
        second = scheduler.select(view)
        assert first == second


class TestBatchedRouterEquivalence:
    """Matrix-id row build ≡ the name-interned oracle."""

    @pytest.mark.parametrize("seed", range(8))
    def test_directives_identical(self, seed, monkeypatch):
        view = _midrun_view(seed)
        scheduler = RarestFirstScheduler()
        selections = scheduler.select(view)
        batch = scheduler.last_batch
        assert batch is not None

        router = BDSRouter()
        batched, _ = router.route(view, selections, batch=batch)
        unbatched, _ = BDSRouter().route(view, selections)
        oracle = oracle_route(monkeypatch, BDSRouter(), view, selections)
        assert batched == unbatched
        assert batched == oracle

    @pytest.mark.parametrize("merge", [True, False])
    def test_merge_ablation_identical(self, merge, monkeypatch):
        view = _midrun_view(4)
        scheduler = RarestFirstScheduler()
        selections = scheduler.select(view)
        batch = scheduler.last_batch
        router = BDSRouter(merge_blocks=merge)
        batched, _ = router.route(view, selections, batch=batch)
        oracle = oracle_route(
            monkeypatch, BDSRouter(merge_blocks=merge), view, selections
        )
        assert batched == oracle


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


def _speculated(view, seed: int):
    """Deliveries to speculate on a mid-run view: the speculator's picks
    from one routed cycle, plus random pending pairs — enough to kill
    whole candidate groups — and a relay-DC copy when a job has one."""
    sizes = {b.block_id: b.size for job in view.jobs for b in job.blocks}
    scheduler = RarestFirstScheduler()
    selections = scheduler.select(view)
    directives, _ = BDSRouter().route(
        view, selections, batch=scheduler.last_batch
    )
    out = DeliverySpeculator(horizon_seconds=3.0).speculate(
        view, directives, sizes
    )
    rng = random.Random(seed)
    for job in view.jobs:
        pending = view.pending_deliveries(job)
        for block, _dc, server in rng.sample(pending, (len(pending) * 2) // 3):
            out.append(SpeculatedDelivery(block.block_id, server, ""))
        for dc in job.relay_dcs:
            block = rng.choice(job.blocks)
            server = job.assigned_server(dc, block.block_id)
            out.append(SpeculatedDelivery(block.block_id, server, ""))
    return out


class TestSpeculationOverlay:
    """Speculation views decide through the one vectorized path."""

    @pytest.mark.parametrize("seed", range(4))
    def test_overlay_matches_oracle_store(self, seed):
        view = _midrun_view(seed)
        speculated = _speculated(view, seed)
        assert speculated
        overlay = SpeculatedView(view, speculated).store
        oracle = SpeculatedStoreOracle(view.store, speculated)
        dcs = sorted({s.dc for s in view.topology.servers.values()})
        for job in view.jobs:
            for block in job.blocks:
                bid = block.block_id
                assert set(overlay.holders(bid)) == oracle.holders(bid)
                assert overlay.duplicate_count(bid) == oracle.duplicate_count(bid)
                for dc in dcs:
                    assert overlay.dc_has_block(dc, bid) == oracle.dc_has_block(
                        dc, bid
                    )
                for server in view.topology.servers:
                    assert overlay.has(server, bid) == oracle.has(server, bid)

    def test_overlay_leaves_base_untouched(self):
        view = _midrun_view(0)
        before = view.store.matrix.bits.copy()
        epoch = view.store.epoch
        logged = len(view.store.deliveries)
        overlay = SpeculatedView(view, _speculated(view, 0))
        assert overlay.store.matrix.base is view.store.matrix
        assert overlay.store.epoch > epoch
        assert np.array_equal(view.store.matrix.bits, before)
        assert view.store.epoch == epoch
        assert len(view.store.deliveries) == logged

    @pytest.mark.parametrize("seed", range(4))
    def test_overlay_engages_kernel(self, seed, monkeypatch):
        view = _midrun_view(seed)
        speculated = _speculated(view, seed)
        overlay = SpeculatedView(view, speculated)
        assert overlay._candidates is view._candidates
        scheduler = RarestFirstScheduler()
        selections = scheduler.select(overlay)
        assert scheduler.last_batch is not None
        assert len(scheduler.last_batch.gids) == len(selections)

        # The same decide over the old semantics: the oracle store
        # answering every query, the scalar selection, the
        # name-interned row build.
        reference = SpeculatedView(view, speculated)
        reference.store = SpeculatedStoreOracle(view.store, speculated)
        assert selections == scalar_rarest_first(reference)
        directives, _ = BDSRouter().route(
            overlay, selections, batch=scheduler.last_batch
        )
        # Tagged with the live matrix: validation takes it as is.
        assert directives.space is view.store.matrix
        assert directives == oracle_route(
            monkeypatch, BDSRouter(), reference, selections
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_overlay_never_compacts(self, seed):
        view = _midrun_view(seed)
        scheduler = RarestFirstScheduler()
        scheduler.select(view)  # real compaction, if any, happens here
        groups = [
            g for gs in view._candidates.groups_by_job.values() for g in gs
        ]
        alive = [g.alive.copy() for g in groups]

        scheduler.select(SpeculatedView(view, _speculated(view, seed)))
        assert all(
            np.array_equal(g.alive, a) for g, a in zip(groups, alive)
        )
        real = scheduler.select(view)
        view._candidates = None
        assert real == RarestFirstScheduler().select(view)


@st.composite
def _possession_states(draw):
    """A bound scenario plus random possession: pre-seeded copies, two
    delivery batches, speculated copies and extra failed agents, as
    index sets into the (server, block) pairs."""
    num_dcs = draw(st.integers(min_value=3, max_value=4))
    topo = Topology.full_mesh(
        num_dcs=num_dcs,
        servers_per_dc=draw(st.integers(min_value=1, max_value=3)),
        wan_capacity=40 * MBps,
        uplink=5 * MBps,
    )
    dcs = [f"dc{i}" for i in range(num_dcs)]
    jobs = []
    for j in range(draw(st.integers(min_value=1, max_value=2))):
        src = draw(st.sampled_from(dcs))
        others = [d for d in dcs if d != src]
        dsts = draw(
            st.lists(st.sampled_from(others), min_size=1, unique=True)
        )
        spare = [d for d in others if d not in dsts]
        job = MulticastJob(
            job_id=f"job{j}",
            src_dc=src,
            dst_dcs=tuple(dsts),
            relay_dcs=tuple(spare[: draw(st.integers(0, 1))]),
            total_bytes=draw(st.integers(min_value=1, max_value=9)) * 4 * MB,
            block_size=4 * MB,
        )
        job.bind(topo)
        jobs.append(job)
    servers = sorted(topo.servers)
    pairs = [
        (server, job, block)
        for job in jobs
        for block in job.blocks
        for server in servers
    ]
    subset = st.sets(st.integers(min_value=0, max_value=len(pairs) - 1))
    picks = [
        [pairs[i] for i in sorted(draw(subset))] for _ in range(4)
    ]
    failed = draw(st.sets(st.sampled_from(servers)))
    return topo, jobs, picks, failed


def _deliver(sim, picks):
    """Land the picked copies (the source only feeds provenance)."""
    sim.store.record_deliveries(
        [
            (block, server, server, 0.0, job.src_dc)
            for server, job, block in picks
        ]
    )


class TestPendingDeliveriesOracle:
    """``pending_deliveries`` ≡ the ``store.has`` scan, on every kind of
    view: the simulator's, a partition clone, a speculation overlay and
    a shard mirror's — also after the scheduler compacted the tables."""

    @given(state=_possession_states())
    @settings(max_examples=60, deadline=None)
    def test_pending_matches_scan(self, state):
        topo, jobs, (seeded, first, second, speculated), failed = state
        pre_seeded: Dict[str, list] = {}
        for server, _job, block in seeded:
            pre_seeded.setdefault(server, []).append(block)
        sim = Simulation(
            topology=topo,
            jobs=jobs,
            strategy=make_strategy("bds", seed=0),
            pre_seeded=pre_seeded,
        )
        config = BDSConfig()
        feed = ShardFeed(1, lambda _job_id: 0)
        mirror = ShardMirror(topo, config)

        _deliver(sim, first)
        view = sim.snapshot_view()
        payload = feed.payload(view, 0, view.jobs, config, False, [])
        mirror.apply(payload)
        # Compacts whichever candidate groups the gathers find >50% dead.
        RarestFirstScheduler().select(view)
        RarestFirstScheduler().select(mirror.view(payload))

        _deliver(sim, second)
        view = sim.snapshot_view()
        payload = feed.payload(view, 0, view.jobs, config, False, [])
        mirror.apply(payload)
        extra = [
            SpeculatedDelivery(block.block_id, server, "")
            for server, _job, block in speculated
        ]
        reference = SpeculatedView(view, extra)
        reference.store = SpeculatedStoreOracle(view.store, extra)
        checks = [
            (view, view),
            (view.with_extra_failed_agents(failed), view),
            (SpeculatedView(view, extra), reference),
            (mirror.view(payload), view),
        ]
        for subject, oracle in checks:
            for job in jobs:
                assert subject.pending_deliveries(job) == scan_pending(
                    oracle, job
                )
