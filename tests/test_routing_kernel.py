"""Property tests: the router's array pick/merge kernel against a per-row oracle.

``oracle_groups`` below is the per-row source-pick loop the router ran
before its pick and §5.1 merge became array kernels over interned ids:
for every selection, sort the usable holders, bucket them by DC, take a
destination-DC holder first, then round-robin over the other DCs from a
block-index-dependent start, and merge rows by (job, destination, picked
sources) in first-hit order. It is kept here, verbatim in behaviour, as
the reference the kernel must reproduce exactly — group keys, group order
(the rarity order the solver consumes) and member order — over random
possession matrices, failed agents, failed WAN links, fan-out caps 1..4,
and merging on and off, on both the matrix (``SelectionBatch``) path and
the name-interning fallback.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Sequence, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decisions import ScheduledBlock
from repro.core.routing import BDSRouter
from repro.core.scheduling import RarestFirstScheduler
from repro.core.controller import BDSController
from repro.net.simulator import ClusterView, Simulation
from repro.net.topology import Topology
from repro.overlay.job import MulticastJob
from repro.utils.units import MB, MBps

GroupKey = Tuple[str, str, Tuple[str, ...]]


def oracle_sources(
    view: ClusterView, entry: ScheduledBlock, max_sources: int
) -> Tuple[str, ...]:
    """Up to ``max_sources`` diverse usable holders for one selection."""
    holders = sorted(
        s
        for s in view.eligible_sources(entry.block.block_id)
        if s != entry.dst_server
        and view.flow_resources(s, entry.dst_server) is not None
    )
    if not holders:
        return ()
    by_dc: Dict[str, List[str]] = {}
    for holder in holders:
        by_dc.setdefault(view.store.dc_of(holder), []).append(holder)
    index = entry.block.index
    picked: List[str] = []
    if entry.dst_dc in by_dc:
        local = by_dc[entry.dst_dc]
        picked.append(local[index % len(local)])
    other_dcs = sorted(dc for dc in by_dc if dc != entry.dst_dc)
    if other_dcs:
        start = index % len(other_dcs)
        for dc in other_dcs[start:] + other_dcs[:start]:
            if len(picked) >= max_sources:
                break
            servers = by_dc[dc]
            candidate = servers[index % len(servers)]
            if candidate not in picked:
                picked.append(candidate)
    return tuple(picked[:max_sources])


def oracle_groups(
    view: ClusterView,
    selections: Sequence[ScheduledBlock],
    max_sources: int,
    merge: bool,
) -> Dict[GroupKey, List[int]]:
    """Selection rows merged by (job, destination, source set), §5.1."""
    groups: Dict[GroupKey, List[int]] = {}
    for i, entry in enumerate(selections):
        sources = oracle_sources(view, entry, max_sources)
        if not sources:
            continue
        if merge:
            key = (entry.job_id, entry.dst_server, sources)
        else:
            key = (entry.job_id, f"{entry.dst_server}#{i}", sources)
        groups.setdefault(key, []).append(i)
    return groups


def kernel_groups(router, view, selections, batch) -> Dict[GroupKey, List[int]]:
    groups = router._build_groups(view, selections, batch)
    members = groups.members.tolist()
    bounds = groups.offsets.tolist()
    return {
        key: members[bounds[g] : bounds[g + 1]]
        for g, key in enumerate(groups.keys)
    }


@st.composite
def scenarios(draw):
    num_dcs = draw(st.integers(2, 4))
    servers_per_dc = draw(st.integers(1, 3))
    topo = Topology.full_mesh(
        num_dcs=num_dcs,
        servers_per_dc=servers_per_dc,
        wan_capacity=40 * MBps,
        uplink=5 * MBps,
    )
    dcs = sorted(topo.dcs)
    servers = sorted(topo.servers)
    jobs = []
    for j in range(draw(st.integers(1, 2))):
        src = draw(st.sampled_from(dcs))
        others = [d for d in dcs if d != src]
        dsts = draw(
            st.lists(st.sampled_from(others), min_size=1, unique=True)
        )
        job = MulticastJob(
            job_id=f"job{j}",
            src_dc=src,
            dst_dcs=tuple(sorted(dsts)),
            total_bytes=draw(st.integers(1, 9)) * 4 * MB,
            block_size=4 * MB,
        )
        job.bind(topo)
        jobs.append(job)
    # Random extra possession: each (server, block) pair independently.
    blocks = [block for job in jobs for block in job.blocks]
    held = draw(
        st.lists(
            st.booleans(), min_size=len(servers) * len(blocks),
            max_size=len(servers) * len(blocks),
        )
    )
    pre_seeded: Dict[str, list] = {}
    for k, flag in enumerate(held):
        if flag:
            server = servers[k // len(blocks)]
            pre_seeded.setdefault(server, []).append(blocks[k % len(blocks)])
    failed_agents = set(draw(st.lists(st.sampled_from(servers), unique=True)))
    links = sorted(topo.links)
    failed_links = frozenset(
        (key[1], key[2])
        for key in draw(st.lists(st.sampled_from(links), unique=True))
    )
    return (
        topo,
        jobs,
        pre_seeded,
        failed_agents,
        failed_links,
        draw(st.integers(1, 4)),
        draw(st.booleans()),
    )


def _view(topo, jobs, pre_seeded, failed_agents, failed_links):
    sim = Simulation(
        topology=topo,
        jobs=jobs,
        strategy=BDSController(),
        pre_seeded=pre_seeded,
        seed=0,
    )
    view = copy.copy(sim.snapshot_view())
    view.failed_agents = set(failed_agents)
    view._failed_frozen = frozenset(failed_agents)
    view.failed_links = failed_links
    return view


@settings(max_examples=150, deadline=None)
@given(scenarios())
def test_kernel_matches_per_row_oracle(case):
    (
        topo,
        jobs,
        pre_seeded,
        failed_agents,
        failed_links,
        max_sources,
        merge,
    ) = case
    view = _view(topo, jobs, pre_seeded, failed_agents, failed_links)
    scheduler = RarestFirstScheduler()
    selections = scheduler.select(view)
    batch = scheduler.last_batch
    assert batch is not None and len(batch.gids) == len(selections)
    router = BDSRouter(max_sources_per_group=max_sources, merge_blocks=merge)
    expected = oracle_groups(view, selections, max_sources, merge)
    got = kernel_groups(router, view, selections, batch)
    assert list(got) == list(expected)
    assert got == expected
    # The name-interning fallback (no SelectionBatch) builds the same
    # groups from the same selections.
    assert list(kernel_groups(router, view, selections, None).items()) == list(
        expected.items()
    )


def test_oracle_exercises_every_pick_branch():
    """A fixed case where the kernel must take local, rotated other-DC
    and capped picks in one selection."""
    topo = Topology.full_mesh(
        num_dcs=4, servers_per_dc=3, wan_capacity=40 * MBps, uplink=5 * MBps
    )
    job = MulticastJob(
        job_id="j",
        src_dc="dc0",
        dst_dcs=("dc1", "dc2"),
        total_bytes=24 * MB,
        block_size=4 * MB,
    )
    job.bind(topo)
    pre_seeded = {
        "dc1-s1": list(job.blocks[:3]),
        "dc3-s0": list(job.blocks),
        "dc3-s2": list(job.blocks[2:]),
        "dc2-s0": list(job.blocks[1:4]),
    }
    view = _view(topo, [job], pre_seeded, {"dc3-s2"}, frozenset())
    scheduler = RarestFirstScheduler()
    selections = scheduler.select(view)
    for max_sources in (1, 2, 3, 4):
        router = BDSRouter(max_sources_per_group=max_sources)
        expected = oracle_groups(view, selections, max_sources, True)
        assert kernel_groups(
            router, view, selections, scheduler.last_batch
        ) == expected
        assert any(len(key[2]) == min(max_sources, 3) for key in expected)
