"""Cycle-driven flow-level simulator for inter-DC multicast.

Time advances in controller cycles of ``ΔT`` seconds (3 s by default, the
paper's update interval). Each cycle:

1. the failure schedule is applied;
2. latency-sensitive background traffic on every WAN link is sampled;
3. the *strategy* (BDS's controller or one of the decentralized baselines)
   inspects a :class:`ClusterView` and emits :class:`TransferDirective`s —
   single-hop block transfers between servers, optionally rate-capped;
4. rates are resolved — controller-assigned rates are clipped to capacity,
   baseline flows get max-min fair shares;
5. flows progress by ``rate × ΔT`` bytes, delivering blocks whose transfer
   completes, updating the possession index and all completion metrics.

Multi-hop overlay paths (store-and-forward) emerge across cycles: once a
block lands on an intermediate server it becomes a candidate source in the
next cycle, exactly like BDS's per-cycle choice of ``w_b,s``.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.net.background import BackgroundTraffic, delay_inflation
from repro.net.candidates import CandidateTable
from repro.net.cycle_cache import (
    CycleCache,
    DecisionReuseState,
    first_cycle_at_or_after,
)
from repro.net.failures import FailureSchedule
from repro.net.flow import (
    Flow,
    FlowKernelStats,
    clip_rates_to_capacity,
    max_min_fair_rates,
)
from repro.net.topology import ResourceKey, Topology
from repro.overlay.blocks import Block
from repro.overlay.job import MulticastJob
from repro.overlay.store import PossessionIndex
from repro.utils.rng import SeedLike, make_rng
from repro.utils.validation import check_fraction, check_positive

BlockId = Tuple[str, int]

#: Fast-forward chunk cap: at most this many cycles are skipped per
#: analytic pass. Bounds the O(k) cumsum buffers and, with per-cycle stats
#: on, the stats appended per pass.
_FF_CHUNK = 131072


@dataclass(frozen=True)
class TransferDirective:
    """One single-hop transfer order: send ``block_ids`` from src to dst.

    ``rate_cap`` (bytes/s) is set by centralized strategies (BDS) and left
    ``None`` by decentralized ones, whose flows then share bandwidth
    max-min fairly. Blocks are transferred in the listed order, resuming any
    partial progress the destination already accumulated.
    """

    job_id: str
    block_ids: Tuple[BlockId, ...]
    src_server: str
    dst_server: str
    rate_cap: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.block_ids:
            raise ValueError("a directive needs at least one block")
        if self.src_server == self.dst_server:
            raise ValueError("directive endpoints must differ")
        if self.rate_cap is not None and self.rate_cap < 0:
            raise ValueError("rate_cap must be >= 0")


class IdSpace:
    """Interned server and block names that no possession matrix backs.

    A :class:`DirectiveBatch` addresses servers and blocks by small ints
    in an *id space*: normally the live
    :class:`~repro.overlay.store.PossessionMatrix` (same attribute names:
    ``server_names``/``server_ids``/``block_names``/``block_gids``), and
    this standalone table when there is no matrix to borrow (unpickled
    batches, lists packed without a space). Server ids
    are assigned in the given order; blocks are interned on first sight.
    """

    __slots__ = ("server_names", "server_ids", "block_names", "block_gids")

    def __init__(self, server_names: Iterable[str] = ()) -> None:
        self.server_names: List[str] = list(server_names)
        self.server_ids: Dict[str, int] = {
            name: i for i, name in enumerate(self.server_names)
        }
        self.block_names: List[BlockId] = []
        self.block_gids: Dict[BlockId, int] = {}

    def intern_server(self, name: str) -> int:
        sid = self.server_ids.get(name)
        if sid is None:
            sid = self.server_ids[name] = len(self.server_names)
            self.server_names.append(name)
        return sid

    def intern(self, block_id: BlockId) -> int:
        gid = self.block_gids.get(block_id)
        if gid is None:
            gid = self.block_gids[block_id] = len(self.block_names)
            self.block_names.append(block_id)
        return gid


_NO_IDS = np.empty(0, dtype=np.int64)
_NO_IDS.flags.writeable = False
_ZERO_OFFSETS = np.zeros(1, dtype=np.int64)
_ZERO_OFFSETS.flags.writeable = False


class DirectiveBatch(Sequence[TransferDirective]):
    """A directive list as parallel arrays over an interned id space.

    Row ``i`` is one single-hop transfer order: ``job_ids[i]``, source and
    destination server ids ``src[i]``/``dst[i]``, ``rate_caps[i]``, and
    its blocks ``gids[offsets[i]:offsets[i + 1]]`` in send order (a CSR).
    Ids index ``space`` — the possession matrix the router worked in, or
    an :class:`IdSpace`. The router emits batches, and the simulator
    validates them and builds flows on the arrays without a per-block
    ``Block`` or ``TransferDirective``.

    The batch is also a read-only ``Sequence[TransferDirective]``:
    indexing or iterating materializes (and caches) the equivalent
    :class:`TransferDirective`, so consumers written against directive
    lists keep working. Equality compares as a directive list; pickling
    ships the directives and re-packs them in a fresh :class:`IdSpace`
    (a matrix space would drag the whole possession matrix along).

    Packing a list into a matrix space (:meth:`of`) keeps the original
    directive objects; ids the matrix has never interned become ``-1``
    and are resolved by :meth:`Simulation._valid_directives`.
    """

    __slots__ = (
        "space",
        "job_ids",
        "src",
        "dst",
        "rate_caps",
        "offsets",
        "gids",
        "_items",
    )

    def __init__(
        self,
        space,
        job_ids: List[str],
        src: np.ndarray,
        dst: np.ndarray,
        rate_caps: List[Optional[float]],
        offsets: np.ndarray,
        gids: np.ndarray,
        items: Optional[List[Optional[TransferDirective]]] = None,
    ) -> None:
        self.space = space
        self.job_ids = job_ids
        self.src = src
        self.dst = dst
        self.rate_caps = rate_caps
        self.offsets = offsets
        self.gids = gids
        self._items = items if items is not None else [None] * len(job_ids)

    @classmethod
    def of(
        cls, directives: Iterable[TransferDirective], space=None
    ) -> "DirectiveBatch":
        """``directives`` as a batch in ``space`` (a fresh :class:`IdSpace`
        when ``None``). A batch already in ``space`` is returned as is;
        one in another space (an unpickled batch's :class:`IdSpace`) is
        re-packed from its directives."""
        if isinstance(directives, DirectiveBatch) and (
            space is None or directives.space is space
        ):
            return directives
        items = list(directives)
        if space is None:
            space = IdSpace()
        if not items:
            return cls.empty(space)
        if isinstance(space, IdSpace):
            server_of = space.intern_server
            block_of = space.intern
        else:
            server_ids = space.server_ids
            block_gids = space.block_gids

            def server_of(name: str) -> int:
                return server_ids.get(name, -1)

            def block_of(block_id: BlockId) -> int:
                return block_gids.get(block_id, -1)

        offsets = np.zeros(len(items) + 1, dtype=np.int64)
        np.cumsum([len(d.block_ids) for d in items], out=offsets[1:])
        return cls(
            space,
            [d.job_id for d in items],
            np.array([server_of(d.src_server) for d in items], dtype=np.int64),
            np.array([server_of(d.dst_server) for d in items], dtype=np.int64),
            [d.rate_cap for d in items],
            offsets,
            np.array(
                [block_of(bid) for d in items for bid in d.block_ids],
                dtype=np.int64,
            ),
            items,
        )

    @classmethod
    def empty(cls, space=None) -> "DirectiveBatch":
        """A batch with no directives (its arrays are shared, read-only)."""
        if space is None:
            space = IdSpace()
        return cls(space, [], _NO_IDS, _NO_IDS, [], _ZERO_OFFSETS, _NO_IDS, [])

    # -- Sequence protocol ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.job_ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        item = self._items[index]
        if item is None:
            if index < 0:
                index += len(self)
            lo, hi = self.offsets[index : index + 2].tolist()
            names = self.space.block_names
            servers = self.space.server_names
            item = TransferDirective(
                job_id=self.job_ids[index],
                block_ids=tuple(names[g] for g in self.gids[lo:hi].tolist()),
                src_server=servers[int(self.src[index])],
                dst_server=servers[int(self.dst[index])],
                rate_cap=self.rate_caps[index],
            )
            self._items[index] = item
        return item

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, (list, tuple, DirectiveBatch)):
            return NotImplemented
        return len(self) == len(other) and all(
            a == b for a, b in zip(self, other)
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"DirectiveBatch({list(self)!r})"

    def __reduce__(self):
        return (DirectiveBatch.of, (list(self),))

    # -- array views ---------------------------------------------------------

    @property
    def counts(self) -> np.ndarray:
        """Blocks per directive."""
        return np.diff(self.offsets)

    def endpoints(self) -> List[Tuple[str, str]]:
        """(source, destination) server names per directive."""
        names = self.space.server_names
        pairs: List[Tuple[str, str]] = []
        for i, (s, t) in enumerate(zip(self.src.tolist(), self.dst.tolist())):
            if s < 0 or t < 0:
                # Only packed lists carry ids their space lacks, and
                # those keep their original directives.
                d = self._items[i]
                pairs.append((d.src_server, d.dst_server))
            else:
                pairs.append((names[s], names[t]))
        return pairs

    def take(self, rows: Sequence[int]) -> "DirectiveBatch":
        """The sub-batch of directives ``rows``, in that order."""
        idx = np.asarray(rows, dtype=np.int64)
        if len(idx) == len(self) and (idx == np.arange(len(idx))).all():
            return self
        counts = self.counts[idx]
        offsets = np.zeros(len(idx) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        starts = np.repeat(self.offsets[:-1][idx] - offsets[:-1], counts)
        entries = starts + np.arange(offsets[-1], dtype=np.int64)
        rows_l = idx.tolist()
        return DirectiveBatch(
            self.space,
            [self.job_ids[i] for i in rows_l],
            self.src[idx],
            self.dst[idx],
            [self.rate_caps[i] for i in rows_l],
            offsets,
            self.gids[entries],
            [self._items[i] for i in rows_l],
        )

    def keep_blocks(self, keep: np.ndarray) -> "DirectiveBatch":
        """Drop the CSR entries where ``keep`` is false, in order.

        Directives left without blocks are dropped; a directive that lost
        some blocks re-materializes with the survivors.
        """
        if keep.all():
            return self
        kept = np.zeros(len(keep) + 1, dtype=np.int64)
        np.cumsum(keep, out=kept[1:])
        counts = kept[self.offsets[1:]] - kept[self.offsets[:-1]]
        full = (counts == self.counts).tolist()
        rows = np.flatnonzero(counts)
        rows_l = rows.tolist()
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(counts[rows], out=offsets[1:])
        return DirectiveBatch(
            self.space,
            [self.job_ids[i] for i in rows_l],
            self.src[rows],
            self.dst[rows],
            [self.rate_caps[i] for i in rows_l],
            offsets,
            self.gids[keep],
            [self._items[i] if full[i] else None for i in rows_l],
        )


def remaining_bytes(
    sizes: np.ndarray, buffered: np.ndarray, offsets: np.ndarray
) -> List[float]:
    """Per-segment ``sum(size - buffered)`` over a CSR, left to right.

    Each segment is folded with Python's ``sum`` over the same float
    terms in the same order as a per-block generator would, so demands
    and flow sizes stay bit-identical to the per-block loops this
    replaces (numpy's pairwise reductions would not be).
    """
    terms = (sizes - buffered).tolist()
    bounds = offsets.tolist()
    return [sum(terms[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def buffered_bytes(
    partial: Mapping[Tuple[BlockId, str], float],
    space,
    gids: np.ndarray,
    sids: np.ndarray,
) -> np.ndarray:
    """Bytes already buffered for each (block ``gids[k]``, server
    ``sids[k]``) pair, from the name-keyed partial-bytes map.

    One pass over the (small) partial map re-keys it into ``space``'s ids;
    the pairs are then matched with a sorted search, so the cost is
    O(partials) Python plus O(pairs) numpy.
    """
    out = np.zeros(len(gids), dtype=np.float64)
    if not partial or len(gids) == 0:
        return out
    width = len(space.server_names)
    block_gids = space.block_gids
    server_ids = space.server_ids
    keys: List[int] = []
    values: List[float] = []
    for (block_id, server), value in partial.items():
        gid = block_gids.get(block_id)
        sid = server_ids.get(server)
        if gid is not None and sid is not None:
            keys.append(gid * width + sid)
            values.append(value)
    if not keys:
        return out
    key_arr = np.asarray(keys, dtype=np.int64)
    order = np.argsort(key_arr)
    key_arr = key_arr[order]
    val_arr = np.asarray(values, dtype=np.float64)[order]
    query = gids * width + sids
    pos = np.searchsorted(key_arr, query)
    pos[pos == len(key_arr)] = 0
    hit = key_arr[pos] == query
    out[hit] = val_arr[pos[hit]]
    return out


@dataclass
class SimConfig:
    """Simulation knobs.

    ``safety_threshold`` is the §5.2 limit: strategies that declare
    ``respects_safety_threshold`` get at most ``threshold × capacity −
    online traffic`` of each WAN link; others may burst up to the full
    residual capacity (and cause the Fig. 6 interference incidents).
    """

    cycle_seconds: float = 3.0
    max_cycles: int = 100_000
    safety_threshold: float = 0.8
    stop_when_complete: bool = True
    record_link_stats: bool = False
    links_of_interest: Tuple[ResourceKey, ...] = ()
    # Per-cycle control-plane overhead: status collection + decision push
    # eat into every flow's usable transfer window (Fig. 12c's first two
    # overhead sources). 0 disables the effect.
    control_overhead_seconds: float = 0.0
    # TCP (re-)establishment cost: a flow whose (src, dst) pair was not
    # active in the previous cycle loses this much of the cycle before
    # transferring (Fig. 12c's third overhead source).
    flow_setup_seconds: float = 0.0
    # Event-driven simulator core (§5.2: decisions stay valid until state
    # changes). When on, the loop (a) replays the previous decision while
    # its validity key — store/topology/partial-membership epochs, failure
    # sets, controller availability, active-job signature, background
    # state token — and the strategy's certified reuse horizon both hold,
    # skipping decide/validate/path lookups; and (b) fast-forwards whole
    # stretches of cycles analytically when rates are provably constant,
    # applying k cycles of delivery in one batched pass bounded by the
    # next event (flow completion, job arrival, failure event, background
    # change-point). False reverts to the fixed-tick loop — kept as the
    # in-tree baseline for the event-engine benchmark and the determinism
    # A/B tests; results are bit-identical either way.
    event_engine: bool = True
    # Per-cycle CycleStats collection. Day-scale horizons (10^6+ cycles)
    # do not want a ~500-byte record per cycle; turning this off keeps
    # only the aggregate counters and completion metrics. Implies no
    # per-cycle link stats.
    record_cycle_stats: bool = True

    def __post_init__(self) -> None:
        check_positive("cycle_seconds", self.cycle_seconds)
        check_positive("max_cycles", self.max_cycles)
        check_fraction("safety_threshold", self.safety_threshold)
        if self.control_overhead_seconds < 0:
            raise ValueError("control_overhead_seconds must be >= 0")
        if self.flow_setup_seconds < 0:
            raise ValueError("flow_setup_seconds must be >= 0")
        if self.control_overhead_seconds >= self.cycle_seconds:
            raise ValueError(
                "control_overhead_seconds must be < cycle_seconds "
                "(the cycle would have no transfer window)"
            )
        if self.record_link_stats and not self.record_cycle_stats:
            raise ValueError(
                "record_link_stats requires record_cycle_stats "
                "(link stats live on the per-cycle records)"
            )


@dataclass
class CycleStats:
    """Aggregates recorded at the end of each simulated cycle.

    The ``time_*`` fields are the per-stage wall-clock breakdown of the
    cycle's control loop (seconds): building the cluster view, the
    strategy's scheduling and routing steps (when the strategy reports
    them — BDS does; decentralized baselines land entirely in
    ``time_schedule``), resolving flow rates against capacities, and
    progressing/delivering flows. ``time_decide`` is the whole strategy
    call and contains schedule + route plus any strategy-private work.
    """

    cycle: int
    time: float
    blocks_delivered: int
    bytes_transferred: float
    active_flows: int
    controller_available: bool
    link_bulk_usage: Dict[ResourceKey, float] = field(default_factory=dict)
    link_online_usage: Dict[ResourceKey, float] = field(default_factory=dict)
    max_delay_inflation: float = 1.0
    # Per-stage wall-clock timing breakdown (seconds).
    time_view_build: float = 0.0
    time_decide: float = 0.0
    time_schedule: float = 0.0
    time_route: float = 0.0
    time_rate_resolve: float = 0.0
    time_deliver: float = 0.0
    # Portion of time_deliver spent applying completed deliveries to the
    # possession store and completion bookkeeping (batched or per-pair);
    # the remainder of time_deliver is budget-loop simulator overhead.
    time_deliver_apply: float = 0.0
    # Progressive-filling iterations this cycle that terminated without
    # freezing any flow (numerical stalemate — see repro.net.flow).
    rate_stalemates: int = 0
    # Routing-solver telemetry, forwarded from the strategy's decision
    # record when it reports one (the FPTAS backend; zero/empty for
    # greedy/LP and for decentralized baselines).
    routing_iterations: int = 0
    routing_phases: int = 0
    routing_warm_start: str = ""
    # Event-engine provenance (diagnostics, never fingerprinted): the
    # cycle replayed the previous decision under an unchanged validity
    # key / was applied analytically inside a fast-forwarded stretch.
    decision_reused: bool = False
    fast_forwarded: bool = False
    # Sharded control-plane telemetry, forwarded from the strategy's
    # decision record (zeros on the single-controller path and for
    # decentralized baselines): configured shard count, max/mean
    # per-shard schedule+route wall over the shards that decided fresh
    # this cycle, and the outer WAN-reconciliation wall.
    shard_count: int = 0
    time_shard_max: float = 0.0
    time_shard_mean: float = 0.0
    time_reconcile: float = 0.0
    # Shard-local state telemetry, forwarded from the strategy's
    # decision record (zeros on the single-controller path and for
    # decentralized baselines): the effective
    # decide stride this cycle (tracks the adaptive stride under
    # shard_stride="auto"), max per-shard possession-array and
    # candidate-table bytes over the shards that decided fresh, and the
    # summed structural size of the mirror delta payloads.
    shard_stride: int = 0
    shard_state_bytes: int = 0
    shard_candidate_bytes: int = 0
    shard_payload_bytes: int = 0


@dataclass
class SimResult:
    """Everything the experiments need from one simulation run."""

    cycles_run: int
    sim_time: float
    wall_time: float
    job_completion: Dict[str, float]
    dc_completion: Dict[Tuple[str, str], float]
    server_completion: Dict[Tuple[str, str], float]
    cycle_stats: List[CycleStats]
    store: PossessionIndex
    all_complete: bool
    # Control-plane feedback-loop samples (one per cycle) when the
    # simulation ran with an AgentMonitor attached.
    feedback_samples: List = field(default_factory=list)
    # Event-engine accounting (diagnostics, never fingerprinted): cycles
    # that replayed the previous decision, and cycles applied inside
    # analytic fast-forward stretches. Both zero under the tick loop.
    cycles_decision_reused: int = 0
    cycles_fast_forwarded: int = 0

    def completion_time(self, job_id: str) -> float:
        """Completion time of a job; raises if it never completed."""
        try:
            return self.job_completion[job_id]
        except KeyError:
            raise KeyError(f"job {job_id!r} did not complete") from None

    def server_completion_times(self, job_id: str) -> List[float]:
        """Per-destination-server completion times (the Fig. 5/9a CDF data)."""
        return [
            t for (jid, _server), t in self.server_completion.items() if jid == job_id
        ]

    def blocks_per_cycle(self) -> List[int]:
        """Delivered-block counts per cycle (the Fig. 12a series)."""
        return [s.blocks_delivered for s in self.cycle_stats]

    def stage_time_totals(self) -> Dict[str, float]:
        """Summed per-stage wall-clock seconds across all cycles: where
        the control loop spent its time (view-build / decide / schedule /
        route / rate-resolve / deliver / reconcile).
        """
        totals = {
            "view_build": 0.0,
            "decide": 0.0,
            "schedule": 0.0,
            "route": 0.0,
            "rate_resolve": 0.0,
            "deliver": 0.0,
            "deliver_apply": 0.0,
            "reconcile": 0.0,
        }
        for s in self.cycle_stats:
            totals["view_build"] += s.time_view_build
            totals["decide"] += s.time_decide
            totals["schedule"] += s.time_schedule
            totals["route"] += s.time_route
            totals["rate_resolve"] += s.time_rate_resolve
            totals["deliver"] += s.time_deliver
            totals["deliver_apply"] += s.time_deliver_apply
            totals["reconcile"] += s.time_reconcile
        return totals

    def total_rate_stalemates(self) -> int:
        """Waterfill stalemate iterations across the run (diagnostic)."""
        return sum(s.rate_stalemates for s in self.cycle_stats)

    def total_bytes_transferred(self) -> float:
        """Bytes moved across all flows over the whole run."""
        return sum(s.bytes_transferred for s in self.cycle_stats)

    def fingerprint(self) -> str:
        """Stable digest of the run's *deterministic* outputs.

        Covers completion metrics, per-cycle delivery counts, and bytes
        moved — everything that must be bit-identical across reruns of the
        same (topology, jobs, strategy, config, seed), but none of the
        wall-clock timing fields. Two runs with equal fingerprints are
        interchangeable for every analysis consumer; the serial/parallel
        parity tests and ``benchmarks/bench_parallel_suite.py`` compare
        runs through this. Survives the export round-trip
        (:mod:`repro.analysis.export`), cache restores included.
        """
        import hashlib
        import json

        canonical = json.dumps(
            {
                "cycles_run": self.cycles_run,
                "all_complete": self.all_complete,
                "job_completion": sorted(self.job_completion.items()),
                "dc_completion": sorted(
                    (list(k), v) for k, v in self.dc_completion.items()
                ),
                "server_completion": sorted(
                    (list(k), v) for k, v in self.server_completion.items()
                ),
                "blocks_per_cycle": self.blocks_per_cycle(),
                "bytes_per_cycle": [
                    s.bytes_transferred for s in self.cycle_stats
                ],
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def summary(self) -> str:
        """A short human-readable report of the run."""
        lines = [
            f"cycles run      : {self.cycles_run}",
            f"simulated time  : {self.sim_time:.1f}s",
            f"wall time       : {self.wall_time:.2f}s",
            f"jobs completed  : {len(self.job_completion)}",
            f"all complete    : {self.all_complete}",
            f"bytes moved     : {self.total_bytes_transferred():.3g}",
        ]
        for job_id in sorted(self.job_completion):
            lines.append(
                f"  {job_id}: done at {self.job_completion[job_id]:.1f}s"
            )
        return "\n".join(lines)


class ClusterView:
    """Read-only snapshot handed to strategies each cycle.

    This is the "global view" a centralized controller enjoys; decentralized
    baselines deliberately use only slices of it (their local views).

    **Ownership**: the view borrows the simulator's live structures —
    ``bulk_capacities``, the partial-bytes map and the candidate table
    are *not* copied. A view is valid for the cycle it was built for;
    strategies must not mutate these mappings or hold a view across
    cycles (the next cycle reuses and mutates them in place).

    The simulator also threads in its persistent :class:`CycleCache`, so
    the source/path queries are memoized, and its
    :class:`~repro.net.candidates.CandidateTable`, the static (block,
    assigned server) arrays that ``pending_deliveries`` and the
    scheduler gather against the store's possession matrix. A view
    built without either gets a fresh cache, and a table over its
    store's live matrix on first use (:meth:`candidate_table`).
    """

    def __init__(
        self,
        topology: Topology,
        store: PossessionIndex,
        jobs: Sequence[MulticastJob],
        cycle: int,
        time: float,
        cycle_seconds: float,
        bulk_capacities: Mapping[ResourceKey, float],
        failed_agents: Set[str],
        controller_available: bool,
        partial_bytes: Mapping[Tuple[BlockId, str], float],
        failed_links: frozenset = frozenset(),
        cache: Optional[CycleCache] = None,
        candidates: Optional[CandidateTable] = None,
    ) -> None:
        self.topology = topology
        self.store = store
        self.jobs = list(jobs)
        self.cycle = cycle
        self.time = time
        self.cycle_seconds = cycle_seconds
        self.bulk_capacities = bulk_capacities
        self.failed_agents = set(failed_agents)
        self.controller_available = controller_available
        self.failed_links = frozenset(failed_links)
        self._partial = partial_bytes
        self._cache = cache if cache is not None else CycleCache()
        self._failed_frozen = frozenset(self.failed_agents)
        self._candidates = candidates

    def agent_is_up(self, server_id: str) -> bool:
        return server_id not in self.failed_agents

    def with_extra_failed_agents(self, extra: Iterable[str]) -> "ClusterView":
        """A copy of this view treating ``extra`` servers as failed.

        Used by the controller's partition handling (§5.3): servers in DCs
        cut off from the controller cannot receive commands, so the
        centralized logic must not schedule them as sources or sinks.

        The clone shares this view's :class:`CycleCache`; its different
        failed-agent set flushes the source memos via the cache's
        validity key while the path memos stay warm.
        """
        clone = ClusterView(
            topology=self.topology,
            store=self.store,
            jobs=self.jobs,
            cycle=self.cycle,
            time=self.time,
            cycle_seconds=self.cycle_seconds,
            bulk_capacities=self.bulk_capacities,
            failed_agents=self.failed_agents | set(extra),
            controller_available=self.controller_available,
            partial_bytes=self._partial,
            failed_links=self.failed_links,
            cache=self._cache,
            candidates=self.candidate_table(),
        )
        return clone

    def flow_resources(
        self, src_server: str, dst_server: str
    ) -> Optional[Tuple[ResourceKey, ...]]:
        """Failure-aware flow resources, or ``None`` when partitioned off.

        Strategies should use this instead of ``topology.flow_resources``
        so their paths detour around failed WAN links (§5.3). Memoized
        per (src, dst) pair while topology and failed links are unchanged.
        """
        cache = self._cache
        table = cache.validate_paths(self.topology.epoch, self.failed_links)
        key = (src_server, dst_server)
        try:
            result = table[key]
            cache.hits += 1
            return result
        except KeyError:
            cache.misses += 1
        try:
            result = self.topology.flow_resources(
                src_server, dst_server, self.failed_links
            )
        except ValueError:
            result = None
        table[key] = result
        return result

    def received_bytes(self, block_id: BlockId, dst_server: str) -> float:
        """Bytes of ``block_id`` already buffered at ``dst_server``."""
        return self._partial.get((block_id, dst_server), 0.0)

    def received_bytes_many(
        self, space, gids: np.ndarray, sids: np.ndarray
    ) -> np.ndarray:
        """:meth:`received_bytes` for parallel (block, server) id arrays
        of ``space`` (see :func:`buffered_bytes`)."""
        return buffered_bytes(self._partial, space, gids, sids)

    def candidate_table(self) -> CandidateTable:
        """The static candidate arrays this view's deliveries are read from.

        The simulator and the shard mirrors hand in their own table; any
        other view (or one whose table belongs to another matrix) builds
        one over its store's live matrix on first use. A speculation
        overlay shares the live matrix's id space, so its view reads the
        live matrix's table. Jobs enter the table on first use
        (:meth:`CandidateTable.groups`).
        """
        table = self._candidates
        matrix = self.store.matrix.base
        if table is None or table.matrix is not matrix:
            table = self._candidates = CandidateTable((), matrix)
        return table

    def pending_deliveries(
        self, job: MulticastJob
    ) -> List[Tuple[Block, str, str]]:
        """Undelivered (block, dst_dc, assigned dst server) triples.

        One possession gather per destination DC over the candidate
        table's rows, in ``job.dst_dcs`` order and ascending block index.
        Rows the scheduler compacted away are delivered already; the
        rest are re-tested here, against this view's store (the live
        matrix or a speculation overlay of it).
        """
        matrix = self.store.matrix
        names = matrix.server_names
        blocks = job.blocks
        pending: List[Tuple[Block, str, str]] = []
        for group in self.candidate_table().groups(job):
            if group.is_relay:
                continue
            rows = group.alive
            sids = group.dst_sids[rows]
            missing = ~matrix.test_many(sids, group.gids[rows])
            dc = group.dc
            for index, sid in zip(
                group.indices[rows[missing]].tolist(), sids[missing].tolist()
            ):
                pending.append((blocks[index], dc, names[sid]))
        return pending

    def eligible_sources(self, block_id: BlockId) -> List[str]:
        """Healthy servers currently holding the block.

        Memoized per block id while the store and failed-agent set are
        unchanged — the scheduler and router both ask for every pending
        block, so the second and later queries are dict hits.
        """
        cache = self._cache
        cache.validate_sources(self.store.epoch, self._failed_frozen)
        try:
            result = cache.sources[block_id]
            cache.hits += 1
            return result
        except KeyError:
            cache.misses += 1
        failed = self.failed_agents
        holders = self.store.holders(block_id)
        if failed:
            result = [s for s in holders if s not in failed]
        else:
            result = list(holders)
        cache.sources[block_id] = result
        return result


class Simulation:
    """Owns the cycle loop, resource accounting, and metric collection."""

    def __init__(
        self,
        topology: Topology,
        jobs: Sequence[MulticastJob],
        strategy: "OverlayStrategyLike",
        config: Optional[SimConfig] = None,
        background: Optional[BackgroundTraffic] = None,
        failures: Optional[FailureSchedule] = None,
        seed: SeedLike = None,
        pre_seeded: Optional[Mapping[str, Sequence[Block]]] = None,
        replica_set: Optional["ControllerReplicaSetLike"] = None,
        agent_monitor: Optional["AgentMonitorLike"] = None,
    ) -> None:
        """``pre_seeded`` places extra block copies on servers before the
        run (e.g. partially replicated states for the appendix experiment);
        copies landing on a destination's assigned server count as already
        delivered.

        ``replica_set`` (a :class:`repro.core.fault.ControllerReplicaSet`)
        makes controller availability follow leader elections: the failure
        schedule's ``replica_fail``/``replica_recover`` events hit
        individual replicas, and the controller is available while a
        leader exists (plus any blanket ``controller_fail`` still applies).

        ``agent_monitor`` (a :class:`repro.overlay.monitor.AgentMonitor`)
        samples the control-plane feedback loop each cycle; samples land in
        ``SimResult.feedback_samples`` (the live Fig. 11c measurement).
        """
        self.topology = topology
        self.jobs = list(jobs)
        self.strategy = strategy
        self.config = config or SimConfig()
        self.background = background
        self.failures = failures
        self.replica_set = replica_set
        self.agent_monitor = agent_monitor
        self.rng = make_rng(seed)
        self._agents: List = []
        if agent_monitor is not None:
            from repro.overlay.agent import ServerAgent

            self._agents = [
                ServerAgent(s) for s in topology.servers.values()
            ]

        if not self.jobs:
            raise ValueError("need at least one job")
        # Job lookup for the delivery bookkeeping; completion is tracked
        # per job id, so ids must be unique.
        self._jobs_by_id: Dict[str, MulticastJob] = {}
        for job in self.jobs:
            if job.job_id in self._jobs_by_id:
                raise ValueError(f"duplicate job id {job.job_id!r}")
            self._jobs_by_id[job.job_id] = job
        server_dc = {s.server_id: s.dc for s in topology.servers.values()}
        self.store = PossessionIndex(server_dc)
        for job in self.jobs:
            if not job.is_bound():
                job.bind(topology)
            for server, blocks in job.initial_placement().items():
                self.store.seed(server, blocks)
        if pre_seeded:
            for server, blocks in pre_seeded.items():
                self.store.seed(server, blocks)

        # (block_id, dst_server) -> bytes buffered so far.
        self._partial: Dict[Tuple[BlockId, str], float] = {}
        self._blocks_by_id: Dict[BlockId, Block] = {}
        # Block size per column id of the store's matrix, grown lazily by
        # _block_sizes as the matrix interns blocks.
        self._gid_sizes = np.empty(0)
        for job in self.jobs:
            for block in job.blocks:
                self._blocks_by_id[block.block_id] = block

        # Static candidate arrays: every (block, destination/relay DC)
        # pair of every job, with its assigned server, as parallel int
        # arrays (see repro.net.candidates). Built once, after seeding;
        # the scheduler and pending_deliveries gather possession through
        # it, and shard mirrors build their own.
        self._cand_table = CandidateTable(self.jobs, self.store.matrix)
        # Completion counters: assigned deliveries still missing per
        # (job, destination DC) and per (job, destination server), one
        # possession gather per destination group. Pre-seeded copies on
        # an assigned server count as delivered. The server keys follow
        # each DC's shard order (job.destination_servers).
        self._dc_missing: Dict[Tuple[str, str], int] = {}
        self._server_missing: Dict[Tuple[str, str], int] = {}
        matrix = self.store.matrix
        names = matrix.server_names
        for job in self.jobs:
            for group in self._cand_table.groups(job):
                if group.is_relay:
                    continue
                sids = group.dst_sids
                missing = ~matrix.test_many(sids, group.gids)
                self._dc_missing[(job.job_id, group.dc)] = int(
                    np.count_nonzero(missing)
                )
                left = np.bincount(sids[missing], minlength=matrix.num_servers)
                for sid in dict.fromkeys(sids.tolist()):
                    self._server_missing[(job.job_id, names[sid])] = int(
                        left[sid]
                    )

        # The persistent per-cycle query cache and the memoized capacity
        # maps (see _bulk_capacities).
        self._cycle_cache = CycleCache()
        self._wan_keys: Tuple[ResourceKey, ...] = tuple(topology.links)
        self._bulk_cache: Dict[float, Dict[ResourceKey, float]] = {}
        self._caps_ref: Optional[Dict[ResourceKey, float]] = None

        # Partial-bytes *membership* epoch: bumped whenever a (block, dst)
        # key appears in or vanishes from self._partial. Routing reads
        # partial membership (the partial-first reorder) but never the
        # byte values, so this epoch — not the values — belongs in the
        # event engine's decision validity key.
        self._partial_epoch = 0

        # Integer arrival grid (event engine + O(changes) job filtering):
        # per-job first active cycle, exact on the c*dt float grid so
        # "arrived by cycle c" matches the legacy arrival_time <= c*dt
        # predicate bit-for-bit, plus a stable arrival-sorted index. Jobs
        # requesting a coarser per-job cadence (MulticastJob.cycle_seconds,
        # a positive multiple of ΔT) have their arrival quantized up to
        # their own cadence boundary.
        dt = self.config.cycle_seconds
        self._arrival_cycle_by_idx: List[int] = []
        for job in self.jobs:
            arrival = first_cycle_at_or_after(job.arrival_time, dt)
            period = getattr(job, "cycle_seconds", None)
            if period is not None:
                multiple = int(round(period / dt))
                if multiple < 1 or multiple * dt != period:
                    raise ValueError(
                        f"job {job.job_id!r} cycle_seconds ({period}) must "
                        f"be a positive integer multiple of the simulation "
                        f"cycle_seconds ({dt})"
                    )
                if multiple > 1 and arrival % multiple:
                    arrival = (arrival // multiple + 1) * multiple
            self._arrival_cycle_by_idx.append(arrival)
        self._arrival_order: List[int] = sorted(
            range(len(self.jobs)),
            key=self._arrival_cycle_by_idx.__getitem__,
        )

    # -- per-cycle resource budgets ------------------------------------------

    def _bulk_capacities(self, now: float, respect_threshold: bool) -> Tuple[
        Dict[ResourceKey, float], Dict[ResourceKey, float]
    ]:
        """(bulk capacity, online usage) per resource for this cycle.

        The static part (server NICs, WAN capacity × threshold) is built
        once per threshold and reused; only WAN entries are rewritten per
        cycle, and only when background traffic or failures can change
        them. The returned dicts are owned by the simulator and reused
        across cycles — consumers must not mutate or retain them.
        """
        caps = self.topology.resource_capacities()
        if caps is not self._caps_ref:
            self._bulk_cache.clear()
            self._caps_ref = caps
            self._wan_keys = tuple(self.topology.links)
        threshold = self.config.safety_threshold if respect_threshold else 1.0
        bulk = self._bulk_cache.get(threshold)
        if bulk is None:
            bulk = {
                key: threshold * cap if key[0] == "wan" else cap
                for key, cap in caps.items()
            }
            self._bulk_cache[threshold] = bulk
        if self.background is None and self.failures is None:
            # Steady state: WAN entries are exactly threshold × capacity
            # every cycle; nothing to recompute.
            return bulk, {}
        online: Dict[ResourceKey, float] = {}
        for key in self._wan_keys:
            cap = caps[key]
            used = (
                self.background.usage(key, now, cap) if self.background else 0.0
            )
            online[key] = used
            usable = max(0.0, threshold * cap - used)
            if self.failures and not self.failures.link_is_up(key[1], key[2]):
                usable = 0.0
            bulk[key] = usable
        return bulk, online

    # -- directive validation ----------------------------------------------------

    def _valid_directives(
        self, directives: Iterable[TransferDirective], failed: Set[str]
    ) -> DirectiveBatch:
        """Drop directives that violate physics or reference failed agents.

        Every strategy's output goes through here as a
        :class:`DirectiveBatch` in the store's id space (a router batch
        already is one; baseline lists are packed once). Per directive, in
        order: one touching a failed agent is dropped, then an unknown
        source or destination server raises ``KeyError``. Per block: blocks
        the source lacks or the destination already holds are filtered
        (never-interned block ids are lacked by everyone), keeping order,
        and a directive left without blocks is dropped.
        """
        matrix = self.store.matrix
        batch = DirectiveBatch.of(directives, matrix)
        servers = self.topology.servers
        rows: List[int] = []
        for i, (s, t) in enumerate(batch.endpoints()):
            if s in failed or t in failed:
                continue
            if s not in servers:
                raise KeyError(f"unknown source server {s!r}")
            if t not in servers:
                raise KeyError(f"unknown destination server {t!r}")
            rows.append(i)
        batch = batch.take(rows)
        counts = batch.counts
        gids = batch.gids
        src_rows = np.repeat(batch.src, counts)
        dst_rows = np.repeat(batch.dst, counts)
        # Ids the matrix never interned (-1) hold nothing; a server it does
        # not know (added to the topology mid-run) can neither send nor
        # receive. Unknown ids gather at id 0, then mask out.
        known = (gids >= 0) & (src_rows >= 0) & (dst_rows >= 0)
        gids = gids * known
        useful = (
            known
            & matrix.test_many(src_rows * known, gids)
            & ~matrix.test_many(dst_rows * known, gids)
        )
        return batch.keep_blocks(useful)

    def _remaining_bytes(self, batch: DirectiveBatch) -> List[float]:
        """Bytes each directive still has to move, from the live partials."""
        gids = batch.gids
        sizes = self._block_sizes(batch.space)[gids]
        unknown = np.isnan(sizes)
        if unknown.any():
            raise KeyError(batch.space.block_names[gids[unknown][0]])
        buffered = buffered_bytes(
            self._partial,
            batch.space,
            gids,
            np.repeat(batch.dst, batch.counts),
        )
        return remaining_bytes(sizes, buffered, batch.offsets)

    def _block_sizes(self, space) -> np.ndarray:
        """Block size per id of ``space`` (memoized for the store's matrix).

        Ids of blocks no job owns map to NaN; :meth:`_remaining_bytes`
        rejects them like the ``_blocks_by_id`` lookup it replaces.
        """
        names = space.block_names
        own = space is self.store.matrix
        table = self._gid_sizes if own else np.empty(0)
        start = len(table)
        if start < len(names):
            blocks = self._blocks_by_id
            fresh = np.fromiter(
                (
                    blocks[bid].size if bid in blocks else np.nan
                    for bid in names[start:]
                ),
                dtype=np.float64,
                count=len(names) - start,
            )
            table = np.concatenate([table, fresh])
            if own:
                self._gid_sizes = table
        return table

    def snapshot_view(self, cycle: int = 0) -> ClusterView:
        """A :class:`ClusterView` of the current state without simulating.

        Used by the controller micro-benchmarks (Fig. 11a, Fig. 13a) to time
        a single decision over a state of a given size.
        """
        respects = getattr(self.strategy, "respects_safety_threshold", False)
        bulk_caps, _online = self._bulk_capacities(cycle * self.config.cycle_seconds, respects)
        return ClusterView(
            topology=self.topology,
            store=self.store,
            jobs=[
                j
                for i, j in enumerate(self.jobs)
                if self._arrival_cycle_by_idx[i] <= cycle
            ],
            cycle=cycle,
            time=cycle * self.config.cycle_seconds,
            cycle_seconds=self.config.cycle_seconds,
            bulk_capacities=bulk_caps,
            failed_agents=set(self.failures.failed_agents) if self.failures else set(),
            controller_available=True,
            partial_bytes=self._partial,
            failed_links=frozenset(self.failures.failed_links)
            if self.failures
            else frozenset(),
            cache=self._cycle_cache,
            candidates=self._cand_table,
        )

    # -- main loop -------------------------------------------------------------

    def run(self) -> SimResult:
        """Run until all jobs complete or ``max_cycles`` elapse.

        Two engines share this loop. The fixed-tick engine
        (``event_engine=False``) executes every stage of every cycle. The
        event engine adds two provably-exact shortcuts on top of the same
        stage code:

        * **decision reuse** — while the validity key (epochs, failure
          sets, controller availability, active-job signature, background
          token) and the strategy's certified reuse horizon both hold,
          the previous decision's validated directives are replayed and
          the view/decide/validate stages are skipped. Rates are still
          resolved fresh each cycle (they are in the tick loop too), so
          replayed cycles are bit-identical by construction.
        * **analytic fast-forward** — after a replayable cycle that
          delivered nothing and changed no partial membership, the next
          k cycles are applied in one pass when rates are certifiably
          constant: k is bounded by the earliest flow completion
          (remaining/rate), the next job arrival, the next failure event,
          the next background change-point, the reuse horizon, and
          ``max_cycles``. Per-flow byte accumulation uses the same
          left-fold float additions the tick loop performs (numpy cumsum
          is a sequential fold), so the skipped cycles' partial bytes,
          per-cycle transferred totals, and eventual completion times are
          bit-identical to ticking through them.
        """
        cfg = self.config
        dt = cfg.cycle_seconds
        job_completion: Dict[str, float] = {}
        dc_completion: Dict[Tuple[str, str], float] = {}
        server_completion: Dict[Tuple[str, str], float] = {}
        cycle_stats: List[CycleStats] = []
        feedback_samples: List = []
        started = _time.perf_counter()

        # Pre-seeded copies may have satisfied shards before the run starts.
        for key, missing in self._server_missing.items():
            if missing == 0:
                server_completion[key] = 0.0
        for key, missing in self._dc_missing.items():
            if missing == 0:
                dc_completion[key] = 0.0
        for job in self.jobs:
            if all((job.job_id, dc) in dc_completion for dc in job.dst_dcs):
                job_completion[job.job_id] = 0.0

        uses_rates = getattr(self.strategy, "uses_controller_rates", False)
        respects = getattr(self.strategy, "respects_safety_threshold", False)

        # (src, dst) pairs with an active flow last cycle: reused pairs skip
        # the TCP re-establishment cost.
        prev_pairs: Set[Tuple[str, str]] = set()
        record_stats = cfg.record_cycle_stats

        # Event-engine gates. Reuse needs a strategy that certifies its
        # decide as a pure function of the validity key, and no per-cycle
        # observers that a skipped decide would starve (monitor, hook).
        # Fast-forward additionally requires nothing that must run every
        # cycle: replica elections tick per cycle, and link stats sample
        # per cycle.
        can_reuse = (
            cfg.event_engine
            and getattr(self.strategy, "decisions_reusable", False)
            and self.agent_monitor is None
            and getattr(self.strategy, "on_cycle_complete", None) is None
        )
        can_ffwd = (
            can_reuse
            and self.replica_set is None
            and not cfg.record_link_stats
        )
        reuse = DecisionReuseState()
        cycles_reused = 0
        cycles_ffwd = 0
        cycles_done = 0
        last_decision_fn = getattr(self.strategy, "last_decision", None)
        if not callable(last_decision_fn):
            last_decision_fn = None

        # O(changes) active-job maintenance: a pointer over the
        # arrival-sorted index plus a completion-count watermark; the
        # (jobs-ordered) active list is rebuilt only when either moves.
        arr_order = self._arrival_order
        arr_cycles = [self._arrival_cycle_by_idx[i] for i in arr_order]
        num_arrivals = len(arr_cycles)
        arrival_ptr = 0
        arrived: List[int] = []
        active_jobs: List[MulticastJob] = []
        last_completed = -1

        cycle = 0
        while cycle < cfg.max_cycles:
            now = cycle * dt
            # All timestamps derive from integer cycle counts: the cycle's
            # end is (cycle+1)*dt, never now + dt, so fast-forwarding to
            # cycle c and ticking to cycle c produce the same floats.
            cycle_end = (cycle + 1) * dt
            stage_started = _time.perf_counter()
            if self.failures:
                applied = self.failures.advance_to(cycle)
                failed = set(self.failures.failed_agents)
                controller_ok = not self.failures.controller_down
                failed_links = frozenset(self.failures.failed_links)
                if self.replica_set is not None:
                    for event in applied:
                        if event.kind == "replica_fail":
                            self.replica_set.fail(str(event.target))
                        elif event.kind == "replica_recover":
                            self.replica_set.recover(str(event.target))
            else:
                failed = set()
                controller_ok = True
                failed_links = frozenset()
            if self.replica_set is not None:
                self.replica_set.tick()
                controller_ok = controller_ok and self.replica_set.has_leader()

            bulk_caps, online = self._bulk_capacities(now, respects)

            moved = False
            while (
                arrival_ptr < num_arrivals
                and arr_cycles[arrival_ptr] <= cycle
            ):
                arrived.append(arr_order[arrival_ptr])
                arrival_ptr += 1
                moved = True
            if moved or len(job_completion) != last_completed:
                arrived.sort()
                active_jobs = [
                    self.jobs[i]
                    for i in arrived
                    if self.jobs[i].job_id not in job_completion
                ]
                last_completed = len(job_completion)

            vkey = None
            if can_reuse:
                bg = self.background
                vkey = (
                    self.topology.epoch,
                    self.store.epoch,
                    self._partial_epoch,
                    frozenset(failed),
                    failed_links,
                    controller_ok,
                    arrival_ptr,
                    len(job_completion),
                    -1 if bg is None else bg.state_token(cycle, dt),
                    # Sharded control plane: decisions cached under one
                    # shard layout must not replay under another. The
                    # signature sits at the END — earlier entries are
                    # indexed positionally (vkey[0..2]) by the
                    # fast-forward gate below.
                    getattr(self.strategy, "shard_signature", None),
                )

            reused = vkey is not None and reuse.valid_for(cycle, vkey)
            if reused:
                # Replay path: the stored directives were validated under
                # this exact key (same possession, failures, topology), so
                # re-validating and re-probing paths would reproduce them
                # verbatim. Only the flows' demands have moved — rebuild
                # those from the live partial bytes, exactly as the tick
                # loop would.
                view = None
                time_view_build = 0.0
                decide_runtime = 0.0
                directives = reuse.directives
                flow_resources = reuse.resources
                rate_started = _time.perf_counter()
                flows = [
                    Flow(
                        flow_id=i,
                        resources=flow_resources[i],
                        rate_cap=cap,
                        demand=remaining / dt,
                    )
                    for i, (cap, remaining) in enumerate(
                        zip(directives.rate_caps, self._remaining_bytes(directives))
                    )
                ]
                reuse.reuses += 1
                cycles_reused += 1
            else:
                view = ClusterView(
                    topology=self.topology,
                    store=self.store,
                    jobs=active_jobs,
                    cycle=cycle,
                    time=now,
                    cycle_seconds=dt,
                    bulk_capacities=bulk_caps,
                    failed_agents=failed,
                    controller_available=controller_ok,
                    partial_bytes=self._partial,
                    failed_links=failed_links,
                    cache=self._cycle_cache,
                    candidates=self._cand_table,
                )
                decide_started = _time.perf_counter()
                time_view_build = decide_started - stage_started
                raw_directives = self.strategy.decide(view)
                decide_runtime = _time.perf_counter() - decide_started
                directives = self._valid_directives(raw_directives, failed)

                if self.agent_monitor is not None and controller_ok:
                    for agent in self._agents:
                        agent.healthy = agent.server_id not in failed
                    _snapshots, sample = self.agent_monitor.feedback_loop(
                        self._agents, {}, decide_runtime
                    )
                    feedback_samples.append(sample)

                rate_started = _time.perf_counter()
                routed: List[int] = []
                flow_resources = []
                names = directives.space.server_names
                for i, (s, t) in enumerate(
                    zip(directives.src.tolist(), directives.dst.tolist())
                ):
                    resources = view.flow_resources(names[s], names[t])
                    if resources is None:
                        continue  # destination partitioned off this cycle
                    routed.append(i)
                    flow_resources.append(resources)
                directives = directives.take(routed)
                flows = [
                    Flow(
                        flow_id=i,
                        resources=resources,
                        rate_cap=cap,
                        demand=remaining / dt,
                    )
                    for i, (resources, cap, remaining) in enumerate(
                        zip(
                            flow_resources,
                            directives.rate_caps,
                            self._remaining_bytes(directives),
                        )
                    )
                ]
                if vkey is not None:
                    # Certify this decide for reuse. The strategy's own
                    # per-decision horizon governs (0 when it declined or
                    # when the fallback decided — last_decision().cycle
                    # then misses); strategies with no decision log are
                    # pure view functions, unbounded under the key.
                    horizon: Optional[int] = None
                    if last_decision_fn is not None:
                        decision = last_decision_fn()
                        if decision is not None and decision.cycle == cycle:
                            horizon = getattr(decision, "reuse_horizon", 0)
                        else:
                            horizon = 0
                    reuse.store_decision(
                        vkey, cycle, horizon, directives, flow_resources
                    )

            kernel_stats = FlowKernelStats()
            if uses_rates and controller_ok:
                requested = {
                    f.flow_id: min(f.effective_cap(), float("inf")) for f in flows
                }
                # Replace inf (no cap given) with the demand bound.
                for f in flows:
                    if requested[f.flow_id] == float("inf"):
                        requested[f.flow_id] = f.demand or 0.0
                rates = clip_rates_to_capacity(flows, requested, bulk_caps)
            else:
                rates = max_min_fair_rates(flows, bulk_caps, stats=kernel_stats)
            deliver_started = _time.perf_counter()
            time_rate_resolve = deliver_started - rate_started

            delivered = 0
            transferred = 0.0
            apply_seconds = 0.0
            # Completed transfers queue up during the budget loop and land
            # on the store/bookkeeping in one grouped pass afterwards. The
            # budget loop never reads anything that pass mutates (store,
            # completion counters and dicts), so deferring the
            # application is order-equivalent.
            events: List[Tuple[str, Block, str, str, float]] = []
            current_pairs: Set[Tuple[str, str]] = set()
            names = directives.space.server_names
            block_names = directives.space.block_names
            bounds = directives.offsets.tolist()
            gids = directives.gids.tolist()
            srcs = directives.src.tolist()
            dsts = directives.dst.tolist()
            for i, job_id in enumerate(directives.job_ids):
                rate = rates.get(i, 0.0)
                if rate <= 0:
                    continue
                src = names[srcs[i]]
                dst = names[dsts[i]]
                pair = (src, dst)
                window = dt - cfg.control_overhead_seconds
                if pair not in prev_pairs:
                    window = max(0.0, window - cfg.flow_setup_seconds)
                current_pairs.add(pair)
                if window <= 0:
                    continue
                budget = rate * window
                used = 0.0
                for gid in gids[bounds[i] : bounds[i + 1]]:
                    if budget <= 1e-12:
                        break
                    bid = block_names[gid]
                    block = self._blocks_by_id[bid]
                    key = (bid, dst)
                    have = self._partial.get(key, 0.0)
                    need = block.size - have
                    take = min(need, budget)
                    budget -= take
                    used += take
                    # A microbyte of slack absorbs floating-point dust from
                    # rate multiplications; without it a block can hover at
                    # size - 1e-9 bytes forever (the router will not
                    # schedule sub-nanobyte demands).
                    if take >= need - 1e-6:
                        if have > 0.0:
                            # A stored partial vanished: membership change.
                            self._partial_epoch += 1
                        self._partial.pop(key, None)
                        setup = dt - window
                        finish = now + setup + (used / rate if rate > 0 else dt)
                        when = min(finish, cycle_end)
                        events.append((job_id, block, src, dst, when))
                        delivered += 1
                    else:
                        if have == 0.0:
                            # First bytes of a new partial: membership change.
                            self._partial_epoch += 1
                        self._partial[key] = have + take
                transferred += used

            if events:
                apply_started = _time.perf_counter()
                self._apply_deliveries(
                    events, job_completion, dc_completion, server_completion
                )
                apply_seconds = _time.perf_counter() - apply_started

            if record_stats:
                time_schedule = decide_runtime
                time_route = 0.0
                routing_iterations = 0
                routing_phases = 0
                routing_warm_start = ""
                shard_count = 0
                time_shard_max = 0.0
                time_shard_mean = 0.0
                time_reconcile = 0.0
                shard_stride = 0
                shard_state_bytes = 0
                shard_candidate_bytes = 0
                shard_payload_bytes = 0
                if not reused and last_decision_fn is not None:
                    decision = last_decision_fn()
                    if decision is not None and decision.cycle == cycle:
                        time_schedule = decision.schedule_runtime
                        time_route = decision.routing_runtime
                        routing_iterations = getattr(
                            decision, "routing_iterations", 0
                        )
                        routing_phases = getattr(decision, "routing_phases", 0)
                        routing_warm_start = getattr(
                            decision, "routing_warm_start", ""
                        )
                        shard_count = getattr(decision, "shard_count", 0)
                        time_shard_max = getattr(
                            decision, "shard_wall_max", 0.0
                        )
                        time_shard_mean = getattr(
                            decision, "shard_wall_mean", 0.0
                        )
                        time_reconcile = getattr(
                            decision, "reconcile_runtime", 0.0
                        )
                        shard_stride = getattr(decision, "shard_stride", 0)
                        shard_state_bytes = getattr(
                            decision, "shard_state_bytes", 0
                        )
                        shard_candidate_bytes = getattr(
                            decision, "shard_candidate_bytes", 0
                        )
                        shard_payload_bytes = getattr(
                            decision, "shard_payload_bytes", 0
                        )
                stats = CycleStats(
                    cycle=cycle,
                    time=now,
                    blocks_delivered=delivered,
                    bytes_transferred=transferred,
                    active_flows=len(directives),
                    controller_available=controller_ok,
                    time_view_build=time_view_build,
                    time_decide=decide_runtime,
                    time_schedule=time_schedule,
                    time_route=time_route,
                    time_rate_resolve=time_rate_resolve,
                    time_deliver=_time.perf_counter() - deliver_started,
                    time_deliver_apply=apply_seconds,
                    rate_stalemates=kernel_stats.stalemates,
                    routing_iterations=routing_iterations,
                    routing_phases=routing_phases,
                    routing_warm_start=routing_warm_start,
                    decision_reused=reused,
                    shard_count=shard_count,
                    time_shard_max=time_shard_max,
                    time_shard_mean=time_shard_mean,
                    time_reconcile=time_reconcile,
                    shard_stride=shard_stride,
                    shard_state_bytes=shard_state_bytes,
                    shard_candidate_bytes=shard_candidate_bytes,
                    shard_payload_bytes=shard_payload_bytes,
                )
                if cfg.record_link_stats:
                    usage: Dict[ResourceKey, float] = {}
                    for i in range(len(directives)):
                        rate = rates.get(i, 0.0)
                        for res in flow_resources[i]:
                            usage[res] = usage.get(res, 0.0) + rate
                    keys = cfg.links_of_interest or tuple(self.topology.links)
                    caps = self.topology.resource_capacities()
                    worst = 1.0
                    for key in keys:
                        stats.link_bulk_usage[key] = usage.get(key, 0.0)
                        stats.link_online_usage[key] = online.get(key, 0.0)
                        total = (
                            stats.link_bulk_usage[key]
                            + stats.link_online_usage[key]
                        )
                        worst = max(
                            worst,
                            delay_inflation(
                                total / caps[key], cfg.safety_threshold
                            ),
                        )
                    stats.max_delay_inflation = worst
                cycle_stats.append(stats)

            cycles_done += 1
            prev_pairs = current_pairs

            if not reused:
                hook = getattr(self.strategy, "on_cycle_complete", None)
                if hook is not None:
                    hook(view, delivered)

            if cfg.stop_when_complete and len(job_completion) == len(self.jobs):
                cycle += 1
                break

            skipped = 0
            if (
                can_ffwd
                and delivered == 0
                and vkey is not None
                and reuse.key == vkey
                and self.topology.epoch == vkey[0]
                and self.store.epoch == vkey[1]
                and self._partial_epoch == vkey[2]
            ):
                next_arrival = (
                    arr_cycles[arrival_ptr]
                    if arrival_ptr < num_arrivals
                    else None
                )
                skipped = self._attempt_fast_forward(
                    cycle,
                    reuse,
                    next_arrival,
                    directives,
                    rates,
                    uses_rates,
                    controller_ok,
                    cycle_stats,
                    record_stats,
                )
                cycles_ffwd += skipped
                cycles_done += skipped
            cycle += 1 + skipped
        else:
            cycle = cfg.max_cycles

        return SimResult(
            cycles_run=cycle if cycles_done else 0,
            sim_time=cycles_done * dt,
            wall_time=_time.perf_counter() - started,
            job_completion=job_completion,
            dc_completion=dc_completion,
            server_completion=server_completion,
            cycle_stats=cycle_stats,
            store=self.store,
            all_complete=len(job_completion) == len(self.jobs),
            feedback_samples=feedback_samples,
            cycles_decision_reused=cycles_reused,
            cycles_fast_forwarded=cycles_ffwd,
        )

    def _attempt_fast_forward(
        self,
        cycle: int,
        reuse: DecisionReuseState,
        next_arrival: Optional[int],
        directives: DirectiveBatch,
        rates: Mapping[int, float],
        uses_rates: bool,
        controller_ok: bool,
        cycle_stats: List[CycleStats],
        record_stats: bool,
    ) -> int:
        """Skip k cycles analytically after a steady executed cycle.

        Called only when cycle ``cycle`` executed with a reusable decision,
        delivered nothing, and changed no epoch — so cycles
        ``cycle+1 .. cycle+k`` would replay the same directives at the same
        rates as long as nothing external changes and no flow completes a
        block. k is the largest count certified on every axis:

        * **external events** — next job arrival, next failure-schedule
          event, next background-traffic change-point, the strategy's
          reuse horizon, and ``max_cycles`` each cap k so the first cycle
          they affect is executed normally;
        * **rate constancy** — per draining flow, demand must stay above
          the level at which it would start binding in the rate kernel
          (its ``rate_cap`` under the clip kernel, the max-min level
          otherwise) with a float-dust margin, since a binding demand
          would change the resolved rates;
        * **no completion** — a cumsum over the flow's per-cycle budget
          replays the tick loop's exact completion predicate
          (``take >= need - 1e-6``); k stops short of the first hit so
          the completing cycle runs through the real delivery path.

        Byte application is the tick loop's own arithmetic: each skipped
        cycle deposits the full budget into the directive's first block
        (``budget -= take`` is exactly ``0.0`` when ``take == budget``),
        and ``np.cumsum`` is the same sequential left-fold of float adds,
        so the partial bytes after the pass are bit-identical to ticking.
        Returns the number of cycles skipped (0 = no certification).
        """
        cfg = self.config
        dt = cfg.cycle_seconds
        k = _FF_CHUNK
        if reuse.horizon is not None:
            k = min(k, reuse.decided_cycle + reuse.horizon - cycle)
        k = min(k, cfg.max_cycles - 1 - cycle)
        if next_arrival is not None:
            k = min(k, next_arrival - 1 - cycle)
        if self.failures is not None:
            nxt = self.failures.next_change_after(cycle)
            if nxt is not None:
                k = min(k, nxt - 1 - cycle)
        if self.background is not None:
            nxt = self.background.next_change_after(cycle, dt)
            if nxt is not None:
                k = min(k, nxt - 1 - cycle)
        if k <= 0:
            return 0

        # All pairs were active last cycle, so no flow pays setup again.
        window = dt - cfg.control_overhead_seconds
        mm_level = max(rates.values(), default=0.0)
        plan: List[Tuple[Tuple[BlockId, str], float, float, float]] = []
        seen_keys: Set[Tuple[BlockId, str]] = set()
        total = 0.0
        names = directives.space.server_names
        block_names = directives.space.block_names
        lead = directives.gids[directives.offsets[:-1]].tolist()
        dsts = directives.dst.tolist()
        for i, remaining in enumerate(self._remaining_bytes(directives)):
            rate = rates.get(i, 0.0)
            if rate <= 0 or window <= 0:
                continue
            budget = rate * window
            if budget <= 1e-12:
                continue
            if uses_rates and controller_ok:
                # Clip kernel: requested = min(rate_cap, demand); constant
                # only while the cap, not the demand, is the requested rate.
                bound = directives.rate_caps[i]
                if bound is None:
                    return 0
            else:
                # Max-min kernel: demands interact only through
                # effective_cap clamps; all clamps resolve identically
                # while every demand clears the highest fair-share level.
                bound = mm_level
            margin = 1e-6 * bound + 1e-3
            headroom = remaining - (bound + margin) * dt
            if headroom <= 0:
                return 0
            k = min(k, int(headroom / budget))
            if k <= 0:
                return 0
            lead_bid = block_names[lead[i]]
            key0 = (lead_bid, names[dsts[i]])
            if key0 in seen_keys:
                return 0  # two flows feeding one partial: order-coupled
            seen_keys.add(key0)
            have = self._partial.get(key0, 0.0)
            if have == 0.0:
                return 0  # not draining into its lead block: bail out
            plan.append((key0, have, budget, self._blocks_by_id[lead_bid].size))
            total += budget

        # First-completion scan: stop before any lead block would finish.
        for _key0, have, budget, size in plan:
            steps = np.empty(k + 1)
            steps[0] = have
            steps[1:] = budget
            acc = np.cumsum(steps)
            comp = budget >= (size - acc[:k]) - 1e-6
            if bool(comp.any()):
                k = int(np.argmax(comp))
                if k <= 0:
                    return 0

        for key0, have, budget, size in plan:
            steps = np.empty(k + 1)
            steps[0] = have
            steps[1:] = budget
            acc = np.cumsum(steps)
            self._partial[key0] = float(acc[k])

        if record_stats:
            n_flows = len(directives)
            for s in range(1, k + 1):
                cycle_stats.append(
                    CycleStats(
                        cycle=cycle + s,
                        time=(cycle + s) * dt,
                        blocks_delivered=0,
                        bytes_transferred=total,
                        active_flows=n_flows,
                        controller_available=controller_ok,
                        decision_reused=True,
                        fast_forwarded=True,
                    )
                )
        if self.failures is not None:
            # No events fall inside the window (k was capped before the
            # next one); advance the watermark so later queries agree.
            self.failures.advance_to(cycle + k)
        return k

    # -- delivery bookkeeping -----------------------------------------------------

    def _apply_deliveries(
        self,
        events: List[Tuple[str, Block, str, str, float]],
        job_completion: Dict[str, float],
        dc_completion: Dict[Tuple[str, str], float],
        server_completion: Dict[Tuple[str, str], float],
    ) -> None:
        """Apply one cycle's completed transfers as a grouped pass.

        Two steps: (a) one batched possession and provenance update via
        ``store.record_deliveries``, and (b) the completion counters,
        replayed per event in delivery order. An event counts only when
        it placed a new copy (a fresh record: duplicates and repeats
        within the batch come back ``None``) on the block's assigned
        server in one of the job's destination DCs; possession is
        monotone during a run, so each assigned delivery counts once.
        """
        jobs_by_id = self._jobs_by_id
        records = self.store.record_deliveries(
            [
                (block, src, dst, when, jobs_by_id[job_id].src_dc)
                for job_id, block, src, dst, when in events
            ]
        )
        dc_of = self.store.dc_of
        dc_missing = self._dc_missing
        server_missing = self._server_missing
        for (job_id, block, _src, dst, when), record in zip(events, records):
            if record is None:
                continue  # the destination already held the block
            dst_dc = dc_of(dst)
            dkey = (job_id, dst_dc)
            left = dc_missing.get(dkey)
            if left is None:
                continue  # not a destination DC: not completion-tracked
            job = jobs_by_id[job_id]
            if job.assigned_server(dst_dc, block.block_id) != dst:
                continue  # landed on a non-assigned server of a dest DC
            skey = (job_id, dst)
            remaining = server_missing[skey] - 1
            server_missing[skey] = remaining
            if remaining == 0:
                server_completion[skey] = when
            dc_missing[dkey] = left - 1
            if left == 1:
                dc_completion[dkey] = when
                if all((job_id, dc) in dc_completion for dc in job.dst_dcs):
                    job_completion[job_id] = max(
                        dc_completion[(job_id, dc)] for dc in job.dst_dcs
                    )


class OverlayStrategyLike:
    """Typing helper documenting the strategy duck-type the simulator uses.

    Real strategies subclass :class:`repro.baselines.base.OverlayStrategy`.
    """

    uses_controller_rates: bool = False
    respects_safety_threshold: bool = False

    def decide(self, view: ClusterView) -> List[TransferDirective]:
        raise NotImplementedError


class ControllerReplicaSetLike:
    """Duck-type of :class:`repro.core.fault.ControllerReplicaSet`."""

    def fail(self, name: str) -> None:
        raise NotImplementedError

    def recover(self, name: str) -> None:
        raise NotImplementedError

    def tick(self) -> None:
        raise NotImplementedError

    def has_leader(self) -> bool:
        raise NotImplementedError


class AgentMonitorLike:
    """Duck-type of :class:`repro.overlay.monitor.AgentMonitor`."""

    def feedback_loop(self, agents, blocks_by_server, algorithm_runtime):
        raise NotImplementedError
