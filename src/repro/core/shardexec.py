"""Shard-local execution for the sharded controller.

This module owns the *partition-scoped state* side of the sharded
control plane (``BDSConfig.shards > 1``): each shard decides against a
:class:`ShardMirror` — its own :class:`~repro.overlay.store.
PossessionIndex` (shard-local block interning and bitsets), its own
:class:`~repro.net.candidates.CandidateTable`, and its own
:class:`~repro.net.cycle_cache.CycleCache` — so per-shard possession and
candidate memory is O(its partition's pairs), not O(total pairs). The
same mirror class backs both execution modes:

* ``shard_mode="inprocess"`` (:class:`LocalShardRunner`): mirrors live
  in the controller's process and are fed directly from the live view;
* ``shard_mode="process"`` (:class:`ShardExecutor`): one persistent
  single-worker :class:`~concurrent.futures.ProcessPoolExecutor` per
  shard gives each shard worker affinity; the worker keeps its mirror
  across cycles, so per-decide payloads are *deltas*. All payloads are
  pickle-pure (topologies, jobs, and directives are plain dataclasses of
  primitives; jobs carry no topology reference — their placement binding
  is a string dict).

Both modes share :class:`ShardFeed`, the parent-side delta bookkeeping:
the first time a job reaches its shard the feed snapshots that job's
current holders outright; every later possession change arrives through
the **delivery-log watermark replay** — the parent keeps one cursor per
shard into the store's append-only delivery log and forwards only the
records of blocks the shard owns (blocks belong to exactly one job, jobs
to exactly one shard). Replays re-apply via ``seed`` (idempotent: an
already-set possession bit is a no-op), so overlap between a snapshot
and the log can never double-count. ``PossessionIndex.seed`` does not
write the delivery log, so initial placements are covered by the
snapshot alone. Possession is monotone while a simulation runs (the
simulator never drops copies mid-run; disk-loss enters as *agent*
failure), so a mirror can never hold a copy the global store has lost.

Mirror decides run the same vectorized scheduling kernel and batched
router build as the single controller, over the mirror's own possession
matrix and candidate table — bit-identical to deciding on the shared
store (shard-local gid numbering differs with arrival order, but nothing
downstream compares gids across jobs; holders, duplicate counts, and
iteration orders are equal), so ``shard_mode`` does not change results.
With speculation on (§5.1), the payload also carries the speculated
deliveries of the shard's blocks, and the mirror decides on a
:meth:`~repro.overlay.store.PossessionIndex.overlay` of its index that
holds them; the mirror itself only ever ingests real deliveries.

Determinism: the parent feeds and submits due shards in shard-index
order and gathers results in the same order, so the combined directive
list is identical regardless of worker scheduling.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import BDSConfig
    from repro.net.simulator import ClusterView, TransferDirective
    from repro.net.topology import Topology
    from repro.overlay.job import MulticastJob

BlockId = Tuple[str, int]
ResourceKey = Tuple[str, str]
#: ``(block_id, dst_server)`` possession pairs.
Pairs = List[Tuple[BlockId, str]]


@dataclass
class ShardPayload:
    """One due shard's decide input (a delta against the shard mirror)."""

    cycle: int
    time: float
    cycle_seconds: float
    budgets: Mapping[ResourceKey, float]
    failed_agents: Tuple[str, ...]
    failed_links: FrozenSet
    active_job_ids: Tuple[str, ...]
    #: Jobs the mirror has not seen yet, with a holders snapshot as
    #: ``(job_id, server_id, block-index array)`` batches — one entry
    #: per (new job, holding server), in job order then ascending
    #: server-row order (deterministic payload bytes), each carrying the
    #: ascending indices of that job's blocks the server holds. The
    #: batched form keeps 10^6-block snapshots out of per-block Python
    #: loops on both sides of the boundary.
    new_jobs: List["MulticastJob"] = field(default_factory=list)
    new_holders: List[Tuple[str, str, "np.ndarray"]] = field(
        default_factory=list
    )
    #: Possession deltas since this shard's previous payload:
    #: ``(block_id, dst_server)`` in delivery-log order.
    deliveries: Pairs = field(default_factory=list)
    #: Deliveries speculated to land during this decide (§5.1), of the
    #: shard's blocks only. The mirror decides on an overlay holding
    #: them and does not ingest them.
    speculated: Pairs = field(default_factory=list)
    #: In-flight partial bytes. Process mode filters to the shard's
    #: blocks (pickle size); in-process passes the live map (strategies
    #: only query their own blocks' keys, so results are identical).
    partials: Mapping[Tuple[BlockId, str], float] = field(default_factory=dict)
    #: First payload only: the topology and controller config the
    #: mirror is built from.
    topology: Optional["Topology"] = None
    config: Optional["BDSConfig"] = None

    def approx_bytes(self) -> int:
        """Structural size estimate of the *delta* stream (bytes).

        Counts the components that actually cross the mirror boundary
        each decide — new jobs (dominated by their block lists), holders
        snapshots, the watermark delivery replay and the speculated
        deliveries — with fixed
        per-entry costs, so the telemetry is deterministic and identical
        across execution modes (a real ``pickle.dumps`` would charge the
        in-process mode for serialization it never performs). The
        per-cycle scalars and the shared partials/budget references are
        excluded.
        """
        total = 0
        for job in self.new_jobs:
            total += 256 + 96 * len(job.blocks)
        for _job_id, _server, indices in self.new_holders:
            total += 48 + 8 * len(indices)
        total += 56 * (len(self.deliveries) + len(self.speculated))
        return total


@dataclass
class ShardResult:
    """One shard decide's output, execution-mode independent.

    The in-process runner and the process workers both reduce to this
    shape, so the accumulation and replay bookkeeping in
    ``BDSController._decide_sharded`` cannot diverge between modes.
    """

    directives: Sequence["TransferDirective"]
    scheduled_blocks: int
    num_commodities: int
    objective: float
    schedule_runtime: float
    routing_runtime: float
    iterations: int
    phases: int
    warm_start: str
    reuse_horizon: Optional[int]
    wall: float
    #: Shard-local state telemetry: possession-array bytes and candidate
    #: table bytes of the mirror after this decide, and the structural
    #: size of the delta payload that fed it.
    state_bytes: int = 0
    candidate_bytes: int = 0
    payload_bytes: int = 0


class ShardMirror:
    """One shard's partition-scoped control state.

    Owns everything a shard needs to decide: a shard-local possession
    index (only the shard's blocks are ever interned, so its matrix
    capacity — bits, dup counts, DC counts — grows with the partition,
    not the cluster), the shard's candidate table built incrementally as
    jobs arrive, the scheduler/router pair (with the router's private
    FPTAS warm store), and a persistent :class:`CycleCache`. Fed by
    :meth:`apply`-ing :class:`ShardPayload` deltas; :meth:`decide` runs
    one schedule+route over a plain :class:`ClusterView` whose store is
    the mirror's index, or an overlay of it when the payload carries
    speculated deliveries.
    """

    def __init__(
        self,
        topology: "Topology",
        config: "BDSConfig",
        block_capacity: int = 64,
    ) -> None:
        from repro.core.routing import BDSRouter
        from repro.core.scheduling import RarestFirstScheduler
        from repro.net.candidates import CandidateTable
        from repro.net.cycle_cache import CycleCache
        from repro.overlay.store import PossessionIndex

        self.topology = topology
        self.config = config
        server_dc = {
            server.server_id: server.dc
            for server in topology.servers.values()
        }
        # Right-size the matrix to the partition: callers pass the block
        # count of the shard's first job batch, so per-shard possession
        # arrays start at ~pairs/k instead of the cluster-scale floor.
        self.store = PossessionIndex(server_dc, block_capacity=block_capacity)
        self.jobs_by_id: Dict[str, "MulticastJob"] = {}
        self.scheduler = RarestFirstScheduler(
            max_blocks_per_cycle=config.max_blocks_per_cycle,
            use_relays=config.use_relays,
        )
        self.router = BDSRouter(
            backend=config.routing_backend,
            epsilon=config.epsilon,
            max_sources_per_group=config.max_sources_per_group,
            merge_blocks=config.merge_blocks,
        )
        self.cache = CycleCache()
        self.candidates = CandidateTable((), self.store.matrix)

    def apply(self, payload: ShardPayload) -> None:
        """Fold one delta payload into the mirror (idempotent seeds).

        Each new job's blocks are interned as one contiguous column range
        up front, so the holders snapshot and the delivery replay land as
        whole-array ``set_many`` batches (``base + block-index``) instead
        of per-block facade calls — the final possession bits, duplicate
        counts, and epoch total are identical to seeding block by block
        (seeds are idempotent and commute across distinct (server, block)
        pairs).
        """
        store = self.store
        matrix = store.matrix
        job_base: Dict[str, int] = {}
        for job in payload.new_jobs:
            self.jobs_by_id[job.job_id] = job
            base = matrix.intern_block_range(job.job_id, len(job.blocks))
            job_base[job.job_id] = base
            self.candidates.ensure_job(
                job,
                gids=np.arange(base, base + len(job.blocks), dtype=np.int64),
            )
        for job_id, server, indices in payload.new_holders:
            store.seed_gids(server, job_base[job_id] + indices)
        if payload.deliveries:
            gid_of = matrix.block_gids
            by_server: Dict[str, List[int]] = {}
            for block_id, dst in payload.deliveries:
                by_server.setdefault(dst, []).append(gid_of[block_id])
            for dst, gids in by_server.items():
                store.seed_gids(dst, np.asarray(gids, dtype=np.int64))

    def view(self, payload: ShardPayload) -> "ClusterView":
        """The mirror's view of this payload's cycle (an overlay of the
        mirror's index when the payload carries speculated deliveries)."""
        from repro.net.cycle_cache import CycleCache
        from repro.net.simulator import ClusterView

        store, cache = self.store, self.cache
        if payload.speculated:
            # The overlay's memos must not outlive it: fresh cache.
            store = store.overlay(payload.speculated)
            cache = CycleCache()
        return ClusterView(
            topology=self.topology,
            store=store,
            jobs=[self.jobs_by_id[jid] for jid in payload.active_job_ids],
            cycle=payload.cycle,
            time=payload.time,
            cycle_seconds=payload.cycle_seconds,
            bulk_capacities=payload.budgets,
            failed_agents=set(payload.failed_agents),
            controller_available=True,
            partial_bytes=payload.partials,
            failed_links=payload.failed_links,
            cache=cache,
            candidates=self.candidates,
        )

    def decide(self, payload: ShardPayload) -> ShardResult:
        """One schedule+route over the mirror for this payload's cycle."""
        import time as _time

        view = self.view(payload)
        started = _time.perf_counter()
        selections = self.scheduler.select(view)
        directives, diag = self.router.route(
            view, selections, batch=getattr(self.scheduler, "last_batch", None)
        )
        wall = _time.perf_counter() - started
        return ShardResult(
            directives=directives,
            scheduled_blocks=len(selections),
            num_commodities=diag.num_commodities,
            objective=diag.objective,
            schedule_runtime=getattr(self.scheduler, "last_runtime", 0.0),
            routing_runtime=diag.runtime,
            iterations=diag.iterations,
            phases=diag.phases,
            warm_start=diag.warm_start,
            reuse_horizon=diag.reuse_horizon,
            wall=wall,
            state_bytes=self.store.state_bytes(),
            candidate_bytes=self.candidates.state_bytes(),
            payload_bytes=payload.approx_bytes(),
        )


class ShardFeed:
    """Parent-side delta bookkeeping, shared by both execution modes.

    Tracks per shard which jobs the mirror already knows and a watermark
    into the store's append-only delivery log; :meth:`payload` emits
    exactly the delta between the mirror's last feeding and the live
    view. Job→shard ownership is resolved through the controller's
    ``shard_of`` callable so hash and affinity partitioning feed the
    same mirrors they decide (the feed must never re-derive assignments
    with a different policy than the bucketer).
    """

    def __init__(self, shards: int, shard_of: Callable[[str], int]) -> None:
        self._shard_of = shard_of
        self._known_jobs: List[Set[str]] = [set() for _ in range(shards)]
        self._watermarks: List[int] = [0] * shards
        self._initialized: List[bool] = [False] * shards

    def payload(
        self,
        view: "ClusterView",
        shard: int,
        bucket: Sequence["MulticastJob"],
        config: "BDSConfig",
        isolate: bool,
        speculated: Pairs,
    ) -> ShardPayload:
        """The shard's delta payload for this cycle's view.

        ``speculated`` are the deliveries of the shard's blocks speculated
        to land during this decide; they ride along as given.

        ``isolate=True`` (process mode) copies the budget map and
        filters the partial-bytes map to the shard's blocks — the
        payload crosses a pickle boundary. ``isolate=False`` (in-process
        mirrors) passes the live mappings through: the mirror only
        queries its own blocks' keys, results are identical, and the
        filtering cost vanishes.
        """
        known = self._known_jobs[shard]
        new_jobs = [job for job in bucket if job.job_id not in known]
        new_holders: List[Tuple[str, str, np.ndarray]] = []
        store = view.store
        matrix = store.matrix
        for job in new_jobs:
            known.add(job.job_id)
            # One row-gather per (job, server) replaces a per-block
            # holders() scan: gather the job's column ids once, then test
            # each server's bit row against them. Keys are built as
            # (job_id, index) tuples directly — block ids are exactly
            # that, and skipping the Block objects keeps the gather from
            # pointer-chasing 10^6 dataclass instances inside the decide
            # wall.
            gid_map = matrix.block_gids
            n_blocks = len(job.blocks)
            job_id = job.job_id
            get_gid = gid_map.get
            gids = np.fromiter(
                (get_gid((job_id, i), -1) for i in range(n_blocks)),
                dtype=np.int64,
                count=n_blocks,
            )
            seen = gids >= 0
            if not seen.any():
                continue
            sub_gids = gids[seen]
            sub_idx = np.flatnonzero(seen)
            held = matrix.dup[sub_gids] > 0
            if not held.any():
                continue
            sub_gids = sub_gids[held]
            sub_idx = sub_idx[held]
            names = matrix.server_names
            for sid in range(matrix.num_servers):
                mask = matrix.test_row_many(sid, sub_gids)
                if mask.any():
                    new_holders.append((job.job_id, names[sid], sub_idx[mask]))
        log = store.deliveries
        watermark = self._watermarks[shard]
        shard_of = self._shard_of
        deliveries = [
            (record.block_id, record.dst_server)
            for record in log[watermark:]
            if shard_of(record.block_id[0]) == shard
        ]
        self._watermarks[shard] = len(log)
        partial_map = getattr(view, "_partial", {})
        if isolate:
            partials = {
                key: value
                for key, value in partial_map.items()
                if shard_of(key[0][0]) == shard
            }
            budgets: Mapping[ResourceKey, float] = dict(view.bulk_capacities)
        else:
            partials = partial_map
            budgets = view.bulk_capacities
        first = not self._initialized[shard]
        self._initialized[shard] = True
        return ShardPayload(
            cycle=view.cycle,
            time=view.time,
            cycle_seconds=view.cycle_seconds,
            budgets=budgets,
            failed_agents=tuple(sorted(view.failed_agents)),
            failed_links=view.failed_links,
            active_job_ids=tuple(job.job_id for job in bucket),
            new_jobs=new_jobs,
            new_holders=new_holders,
            deliveries=deliveries,
            speculated=speculated,
            partials=partials,
            topology=view.topology if first else None,
            config=config if first else None,
        )


class LocalShardRunner:
    """In-process shard-local mirrors (``shard_mode="inprocess"``).

    The in-process twin of :class:`ShardExecutor`: same feed, same
    mirrors, no process boundary. It keeps one extra (partitioned) copy
    of possession state for per-shard candidate tables and caches that
    are O(pairs/shards) — the memory shape that lets a shard lift out to
    its own process or host unchanged.
    """

    def __init__(
        self, config: "BDSConfig", shard_of: Callable[[str], int]
    ) -> None:
        self.config = config
        self.feed = ShardFeed(config.shards, shard_of)
        self._mirrors: List[Optional[ShardMirror]] = [None] * config.shards

    def decide(
        self,
        view: "ClusterView",
        buckets: Sequence[Sequence["MulticastJob"]],
        due: Sequence[int],
        speculated: Sequence[Pairs],
    ) -> List[ShardResult]:
        """Run the due shards' decides in shard-index order.

        ``speculated[s]`` are shard ``s``'s speculated deliveries.
        """
        results: List[ShardResult] = []
        for shard in due:
            payload = self.feed.payload(
                view,
                shard,
                buckets[shard],
                self.config,
                isolate=False,
                speculated=speculated[shard],
            )
            mirror = self._mirrors[shard]
            if mirror is None:
                mirror = ShardMirror(
                    view.topology,
                    self.config,
                    block_capacity=_payload_block_count(payload),
                )
                self._mirrors[shard] = mirror
            mirror.apply(payload)
            results.append(mirror.decide(payload))
        return results

    def mirror_state_bytes(self) -> List[Tuple[int, int]]:
        """Per existing mirror: (possession bytes, candidate bytes)."""
        out: List[Tuple[int, int]] = []
        for mirror in self._mirrors:
            if mirror is None:
                continue
            out.append(
                (mirror.store.state_bytes(), mirror.candidates.state_bytes())
            )
        return out


def _payload_block_count(payload: ShardPayload) -> int:
    """Matrix-capacity hint from a mirror's first payload."""
    return max(64, sum(len(job.blocks) for job in payload.new_jobs))


# Worker-process mirror. Each pool has exactly one worker and serves
# exactly one shard, so a single module global suffices.
_MIRROR: Optional[ShardMirror] = None


def _worker_decide(payload: ShardPayload) -> ShardResult:
    global _MIRROR
    if _MIRROR is None:
        _MIRROR = ShardMirror(
            payload.topology,
            payload.config,
            block_capacity=_payload_block_count(payload),
        )
    _MIRROR.apply(payload)
    return _MIRROR.decide(payload)


class ShardExecutor:
    """Parent-side manager of the per-shard worker pools."""

    def __init__(
        self, config: "BDSConfig", shard_of: Callable[[str], int]
    ) -> None:
        self.config = config
        self.feed = ShardFeed(config.shards, shard_of)
        self._pools: List[Optional[ProcessPoolExecutor]] = [
            None
        ] * config.shards

    def decide(
        self,
        view: "ClusterView",
        buckets: Sequence[Sequence["MulticastJob"]],
        due: Sequence[int],
        speculated: Sequence[Pairs],
    ) -> List[ShardResult]:
        """Run the due shards' decides concurrently; results in due order.

        ``speculated[s]`` are shard ``s``'s speculated deliveries.
        """
        futures = []
        for shard in due:
            payload = self.feed.payload(
                view,
                shard,
                buckets[shard],
                self.config,
                isolate=True,
                speculated=speculated[shard],
            )
            pool = self._pools[shard]
            if pool is None:
                pool = ProcessPoolExecutor(max_workers=1)
                self._pools[shard] = pool
            futures.append(pool.submit(_worker_decide, payload))
        return [future.result() for future in futures]

    def shutdown(self) -> None:
        for pool in self._pools:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
        self._pools = [None] * self.config.shards
