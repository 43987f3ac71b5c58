"""The routing step: path selection and bandwidth allocation (§4.4, §5.1).

Given the scheduling step's block selections, the router:

1. picks up to ``max_sources_per_group`` candidate source servers per block
   (spread across DCs for Type I/II path diversity);
2. **merges blocks** sharing (destination server, candidate source set) into
   one commodity — the §5.1 blocks-merging optimization that collapses
   10^5 blocks into a few hundred subtasks;
3. solves the max-throughput multi-commodity flow (Eq. 5 objective under
   the Eq. 1–3 capacity/volume constraints) with one of three backends:

   * ``greedy``  — rarity-ordered water-filling (fastest; the default);
   * ``fptas``   — Garg–Könemann ε-approximation (the paper's choice);
   * ``lp``      — exact LP via scipy/HiGHS (slowest; optimality yardstick);

4. converts per-path rates into rate-capped single-hop transfer orders,
   splitting each merged group's blocks across its sources in proportion
   to the allocated rates, and returns them as one
   :class:`~repro.net.simulator.DirectiveBatch` — parallel arrays of job,
   source and destination server ids, rate caps, and a CSR of block ids
   per directive, in the interned id space the router worked in. The
   simulator validates and builds flows on those arrays; every other
   consumer reads the batch as a ``Sequence[TransferDirective]``.

Steps 1, 2 and the block order of step 4 run as array kernels over the
possession matrix's interned ids (one rows × servers holder gather,
per-(row, DC) runs for the picks, one sort for the merge, one argsort
for the rotation and partial-first order); Python work is per commodity
(the solver) and per block only in the rate-proportional deal.
"""

from __future__ import annotations

import time as _time
import zlib
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.decisions import ScheduledBlock, SelectionBatch
from repro.lp.fptas import max_multicommodity_flow
from repro.lp.incidence import PathIncidence
from repro.lp.mcf import Commodity, solve_lp_incidence
from repro.net.cycle_cache import RoutingWarmStore
from repro.net.simulator import ClusterView, DirectiveBatch, remaining_bytes
from repro.net.topology import ResourceKey
from repro.utils.validation import check_positive

BlockId = Tuple[str, int]
GroupKey = Tuple[str, str, Tuple[str, ...]]  # (job, dst_server, sources)

#: (iterations, phases, warm_start) triple the solver backends report;
#: greedy/lp have no iteration structure so they report the zero triple.
SolverStats = Tuple[int, int, str]
_NO_SOLVER_STATS: SolverStats = (0, 0, "")


@dataclass
class RoutingDiagnostics:
    """Routing-step telemetry for the scalability figures (11a, 13a).

    ``iterations``/``phases``/``warm_start`` describe the FPTAS solve
    (zero/empty for the greedy and LP backends): flow-push count, Fleischer
    phase count, and how the solve started — ``"cold"``, ``"warm"``,
    ``"reuse"``, or ``"cold-fallback"`` (see
    :class:`repro.lp.fptas.FPTASResult`).

    ``reuse_horizon`` is the demand-independence certificate consumed by
    the event engine (see :attr:`repro.core.decisions.ControlDecision.
    reuse_horizon`): cycles past the decide this routing output stays
    bit-identical while demands drain, ``None`` = unbounded, ``0`` =
    never reuse.
    """

    backend: str
    num_selections: int
    num_commodities: int
    objective: float  # total allocated bytes/second
    runtime: float
    iterations: int = 0
    phases: int = 0
    warm_start: str = ""
    reuse_horizon: Optional[int] = 0


class BDSRouter:
    """Implements the routing half of BDS's decoupled control logic."""

    def __init__(
        self,
        backend: str = "greedy",
        epsilon: float = 0.1,
        max_sources_per_group: int = 3,
        merge_blocks: bool = True,
    ) -> None:
        if backend not in ("greedy", "fptas", "lp"):
            raise ValueError(f"unknown routing backend {backend!r}")
        check_positive("epsilon", epsilon)
        check_positive("max_sources_per_group", max_sources_per_group)
        self.backend = backend
        self.epsilon = epsilon
        self.max_sources_per_group = max_sources_per_group
        self.merge_blocks = merge_blocks
        # Cross-cycle FPTAS warm-start state. Owned by the router (not the
        # per-cycle CycleCache) so it survives speculation overlays, which
        # rebuild their caches every cycle.
        self._warm = RoutingWarmStore()
        # Block size per block id of the last matrix routed over (NaN
        # until first seen), so row sizes are one gather.
        self._sizes = _SizeTable()

    # -- public API -------------------------------------------------------

    def route(
        self,
        view: ClusterView,
        selections: Sequence[ScheduledBlock],
        batch: Optional[SelectionBatch] = None,
    ) -> Tuple[DirectiveBatch, RoutingDiagnostics]:
        """Allocate paths and rates for the scheduled blocks.

        ``batch`` is the scheduler's integer companion of ``selections``
        (its ``last_batch``); without it the rows are interned here from
        the selections, with identical groups, commodities and
        directives. The directives come back as a
        :class:`~repro.net.simulator.DirectiveBatch` in the id space of
        the live possession matrix.
        """
        started = _time.perf_counter()
        if not selections:
            # Nothing scheduled: the (empty) output reads no draining
            # quantity, so it stays exact for as long as the validity key
            # holds — unbounded reuse horizon.
            return DirectiveBatch.empty(view.store.matrix.base), RoutingDiagnostics(
                backend=self.backend,
                num_selections=0,
                num_commodities=0,
                objective=0.0,
                runtime=_time.perf_counter() - started,
                reuse_horizon=None,
            )

        groups = self._build_groups(view, selections, batch)
        commodities, kept = self._build_commodities(view, groups)
        if not commodities:
            return DirectiveBatch.empty(groups.rows.space), RoutingDiagnostics(
                backend=self.backend,
                num_selections=len(selections),
                num_commodities=0,
                objective=0.0,
                runtime=_time.perf_counter() - started,
                reuse_horizon=None,
            )

        rates, solver = self._solve(view, commodities, view.bulk_capacities)
        directives = self._to_directives(commodities, groups, kept, rates)
        objective = sum(rates.values())
        return directives, RoutingDiagnostics(
            backend=self.backend,
            num_selections=len(selections),
            num_commodities=len(commodities),
            objective=objective,
            runtime=_time.perf_counter() - started,
            iterations=solver[0],
            phases=solver[1],
            warm_start=solver[2],
            reuse_horizon=self._certify_reuse_horizon(commodities, rates),
        )

    # -- step 1 & 2: source candidates and merging -------------------------------

    def _build_groups(
        self,
        view: ClusterView,
        selections: Sequence[ScheduledBlock],
        batch: Optional[SelectionBatch] = None,
    ) -> "_Groups":
        """Pick sources per selection and merge by (job, destination,
        source set) — §5.1 — as array kernels over interned ids.

        **Source picks.** Per row, up to ``max_sources_per_group`` usable
        holders: a holder in the destination's own DC (cheap intra-DC
        copy), then holders round-robin over the other DCs in ascending DC
        order, starting at a block-index-dependent DC; within a DC the
        block index picks among its holders in ascending server order
        (rotation spreads blocks over holders — Type II path diversity).
        A holder is *usable* when it is healthy, is not the destination,
        and has a failure-aware path to it (§5.3). The whole selection is
        one list of (row, holder) pairs — a rows × servers possession
        gather, filtered by the cached (src, dst) reachability table and
        ``src != dst`` — sorted so each (row, DC) is one run; run lengths
        and starts locate every pick (:func:`_pick_sources`).

        **Merge.** One stable sort over a packed (job slot, destination,
        picked sources) key labels the groups in first-hit order (the
        rarity order the solver consumes), members in selection order.
        With merging disabled every row is its own group, which is what
        the merging ablation benchmark exercises.
        """
        rows = _selection_rows(view, selections, batch, self._sizes)
        space = rows.space
        num_servers = len(space.server_names)
        picks, count = _pick_sources(
            _usable_pairs(view, rows), rows, self.max_sources_per_group
        )
        keep = (count > 0).nonzero()[0]
        if not self.merge_blocks:
            members = heads = keep
            offsets = np.arange(len(keep) + 1, dtype=np.int64)
        else:
            cols = [rows.slot[keep], rows.dst[keep]]
            cols.extend(picks[keep, c] + 1 for c in range(picks.shape[1]))
            radix = num_servers + 1
            if len(rows.job_ids) * radix ** len(cols) < 1 << 62:
                key = cols[0]
                for col in cols[1:]:
                    key = key * radix + col
            else:  # pragma: no cover - needs a huge cluster or fan-out
                _u, key = np.unique(
                    np.stack(cols, axis=1), axis=0, return_inverse=True
                )
                key = key.reshape(-1)
            label, first = _first_hit_labels(key)
            members = keep[label.argsort(kind="stable")]
            heads = keep[first]
            offsets = np.zeros(len(heads) + 1, dtype=np.int64)
            np.bincount(label, minlength=len(heads)).cumsum(out=offsets[1:])

        names = space.server_names
        job_ids = rows.job_ids
        slots = rows.slot[heads].tolist()
        dsts = rows.dst[heads].tolist()
        counts = count[heads].tolist()
        pick_rows = picks[heads].tolist()
        keys: List[GroupKey] = []
        sources: List[Tuple[int, ...]] = []
        for g, head in enumerate(heads.tolist()):
            picked = tuple(pick_rows[g][: counts[g]])
            dst_name = names[dsts[g]]
            label_ = dst_name if self.merge_blocks else f"{dst_name}#{head}"
            keys.append(
                (job_ids[slots[g]], label_, tuple(names[s] for s in picked))
            )
            sources.append(picked)
        return _Groups(
            rows=rows,
            keys=keys,
            dst=dsts,
            sources=sources,
            offsets=offsets,
            members=members,
        )

    # -- step 3: commodity construction and solving -------------------------------

    def _build_commodities(
        self, view: ClusterView, groups: "_Groups"
    ) -> Tuple[List[Commodity], List[int]]:
        """One commodity per group with bytes left to move.

        Demand is the group's remaining bytes over ΔT; returns the
        commodities and, aligned with them, their group indices.
        """
        rows = groups.rows
        members = groups.members
        remaining = remaining_bytes(
            rows.sizes[members], rows.buffered[members], groups.offsets
        )
        width = len(rows.space.server_names)
        memo = rows.paths
        commodities: List[Commodity] = []
        kept: List[int] = []
        dt = view.cycle_seconds
        for g, key in enumerate(groups.keys):
            if remaining[g] <= 0:
                continue
            dst = groups.dst[g]
            # Sources were picked for reachability, so every one has a
            # probed failure-aware path here.
            paths = tuple(memo[src * width + dst] for src in groups.sources[g])
            commodities.append(
                Commodity(name=key, paths=paths, demand=remaining[g] / dt)
            )
            kept.append(g)
        return commodities, kept

    def _solve(
        self,
        view: ClusterView,
        commodities: List[Commodity],
        capacities: Mapping[ResourceKey, float],
    ) -> Tuple[Dict[Tuple[GroupKey, int], float], SolverStats]:
        """Dispatch to the configured backend; returns per-path rates.

        All three backends solve over one shared
        :class:`~repro.lp.incidence.PathIncidence` compiled here. Lenient
        mode reproduces the historical greedy semantics: a resource missing
        from the capacity map counts as zero capacity, which simply makes
        the paths crossing it unusable (e.g. a link that failed between
        grouping and routing).
        """
        incidence = PathIncidence.build(commodities, capacities, strict=False)
        if self.backend == "greedy":
            rates = self._solve_greedy(commodities, capacities, incidence=incidence)
            return rates, _NO_SOLVER_STATS
        if self.backend == "lp":
            result = solve_lp_incidence(incidence)
            return dict(result.path_flows), _NO_SOLVER_STATS
        # FPTAS with cross-cycle warm start: offer last cycle's solver
        # state while (topology epoch, failure set) is unchanged. The
        # solver re-verifies capacities/ε itself and certifies the warm
        # solve against its dual bound, so this can only help, never hurt.
        warm = self._warm.validate(view.topology.epoch, view.failed_links)
        result = max_multicommodity_flow(
            commodities,
            capacities,
            epsilon=self.epsilon,
            warm=warm,
            incidence=incidence,
        )
        if result.warm_state is not None:
            self._warm.store(
                view.topology.epoch, view.failed_links, result.warm_state
            )
        return dict(result.path_flows), (
            result.iterations,
            result.phases,
            result.warm_start,
        )

    def _certify_reuse_horizon(
        self,
        commodities: List[Commodity],
        rates: Mapping[Tuple[GroupKey, int], float],
    ) -> Optional[int]:
        """Demand-independence certificate for the greedy backend.

        The only routing input that changes while the validity key holds
        is each commodity's demand (``remaining / dt``), which drains by
        at most the pushed rate per cycle. The greedy water-fill's trace —
        and therefore its directives, byte-for-byte — is unchanged as
        long as every commodity's demand stays strictly above what was
        pushed for it, because every ``min(demand, room)`` step keeps
        resolving to the room term:

        * commodities with **zero pushed rate** do not drain, so they
          never constrain the horizon;
        * a **capacity-limited** commodity (pushed ``p`` < demand ``d``,
          slack ``d - p``) tolerates ``j`` reused cycles while
          ``d - j*p > p + margin``, i.e. ``j < (slack - margin) / p``,
          with ``margin = 1e-6*d + 1e-3`` absorbing the solver's own
          ``1e-9`` epsilons and float drift; the drain bound ``p`` per
          cycle is itself conservative (real drain is ``p * window`` /
          ``dt`` < ``p``);
        * a **demand-limited** commodity (slack ≈ 0) would push less the
          very next cycle, so it forces horizon 0.

        The FPTAS solver is ε-approximate with warm-start state that
        advances per solve, and the LP backend's vertex selection is not
        certified against demand perturbations — both report 0 (never
        reuse). ``None`` (unbounded) is returned when no commodity
        constrains the horizon.
        """
        if self.backend != "greedy":
            return 0
        pushed: Dict[int, float] = {}
        names = {c.name: i for i, c in enumerate(commodities)}
        for (name, _path), rate in rates.items():
            i = names[name]
            pushed[i] = pushed.get(i, 0.0) + rate
        horizon: Optional[int] = None
        for i, commodity in enumerate(commodities):
            p = pushed.get(i, 0.0)
            if p <= 0.0:
                continue
            demand = commodity.demand
            if demand is None:
                continue
            margin = 1e-6 * demand + 1e-3
            slack = demand - p
            if slack <= margin:
                return 0
            h = int((slack - margin) / p) - 1
            if h <= 0:
                return 0
            if horizon is None or h < horizon:
                horizon = h
        return horizon

    @staticmethod
    def _solve_greedy(
        commodities: List[Commodity],
        capacities: Mapping[ResourceKey, float],
        fair_rounds: int = 3,
        incidence: Optional[PathIncidence] = None,
    ) -> Dict[Tuple[GroupKey, int], float]:
        """Round-robin water-filling in commodity order (rarity order).

        Pure first-come-first-served greedy lets the first commodity drain
        a shared uplink and starves every destination behind it, so the
        allocation happens in two phases:

        1. ``fair_rounds`` round-robin passes where each commodity pushes at
           most ``room / remaining_commodities`` on its best residual path —
           an approximation of max-min sharing;
        2. a final pass in rarity order that hands out whatever is left.

        The per-path residual room (a min over the path's resources) is
        the inner-loop cost. It is precomputed from the shared incidence
        arrays into per-commodity *(original path index, resource index
        list)* pairs over a dense residual vector — unusable paths are
        pre-dropped, only touched resources are materialized (no full
        capacity-map copy per solve), and the min runs over plain integer
        indices. Router commodities have at most ``max_sources_per_group``
        short paths, so these tiny reductions stay in pure Python — a
        vectorized ``reduceat`` per commodity measures ~2× *slower* at
        this shape (per-call overhead dominates 9-element segments). The
        result is bit-identical to the historical dict-walking loop: min
        is exact over the same floats, ties break on the first maximum
        (lowest path index), and residual updates subtract once per
        resource *occurrence*.
        """
        inc = incidence
        if inc is None:
            inc = PathIncidence.build(commodities, capacities, strict=False)
        residual: List[float] = inc.caps.tolist()
        rates: Dict[Tuple[GroupKey, int], float] = {}
        remaining: Dict[int, float] = {
            i: (c.demand if c.demand is not None else float("inf"))
            for i, c in enumerate(commodities)
        }

        # Per-commodity usable paths as (orig path index, resource index
        # list) pairs, unpacked from the incidence arrays once.
        starts = inc.path_starts.tolist()
        lens = inc.path_lens.tolist()
        flat = inc.flat_res.tolist()
        orig = inc.path_orig_index.tolist()
        paths_of: List[List[Tuple[int, List[int]]]] = []
        for ci in range(inc.num_commodities):
            lo, hi = inc.commodity_path_range[ci]
            paths_of.append(
                [
                    (orig[p], flat[starts[p] : starts[p] + lens[p]])
                    for p in range(lo, hi)
                ]
            )

        def push_flow(index: int, limit_fraction: float) -> None:
            plist = paths_of[index]
            if not plist:
                return
            demand = remaining[index]
            while demand > 1e-9:
                best_pi, best_room, best_idxs = -1, 0.0, None
                for pi, idxs in plist:
                    room = min(residual[i] for i in idxs)
                    if room > best_room:
                        best_room = room
                        best_pi = pi
                        best_idxs = idxs
                if best_pi < 0 or best_room <= 1e-9:
                    break
                push = min(demand, best_room * limit_fraction)
                if push <= 1e-9:
                    break
                key = (commodities[index].name, best_pi)
                rates[key] = rates.get(key, 0.0) + push
                for i in best_idxs:
                    residual[i] -= push
                demand -= push
                if limit_fraction < 1.0:
                    break  # one quantum per fair-round visit
            remaining[index] = demand

        active = [i for i, d in remaining.items() if d > 1e-9]
        for _round in range(fair_rounds):
            if not active:
                break
            share = 1.0 / max(len(active), 1)
            for i in active:
                push_flow(i, share)
            active = [i for i in active if remaining[i] > 1e-9]
        for i in range(len(commodities)):
            if remaining[i] > 1e-9:
                push_flow(i, 1.0)
        return rates

    # -- step 4: rates -> directives ----------------------------------------------

    @staticmethod
    def _to_directives(
        commodities: List[Commodity],
        groups: "_Groups",
        kept: List[int],
        rates: Mapping[Tuple[GroupKey, int], float],
    ) -> DirectiveBatch:
        """Split each merged group's blocks across its allocated sources.

        Block order per group: the members rotated by a destination-keyed
        offset (Fig. 1's circled send order: different destinations start
        at different offsets, so they accumulate *disjoint* prefixes and
        can then serve each other over bottleneck-disjoint paths), with
        half-received blocks moved to the front so their buffered bytes
        are not stranded by the rotation. Both reorders run for all groups
        as one argsort. Blocks are then dealt to sources by descending
        byte deficit — each source's budget is its share of the group's
        total rate times the group's bytes — preserving that order within
        each source; ties go to the first source.
        """
        rows = groups.rows
        space = rows.space
        names = space.server_names
        offsets = groups.offsets
        lengths = offsets[1:] - offsets[:-1]
        starts = offsets[:-1].repeat(lengths)
        shift = np.array(
            [
                zlib.crc32(names[d].encode()) % m
                for d, m in zip(groups.dst, lengths.tolist())
            ],
            dtype=np.int64,
        ).repeat(lengths)
        span = lengths.repeat(lengths)
        position = (
            np.arange(len(groups.members), dtype=np.int64) - starts - shift
        ) % span
        fresh = rows.buffered[groups.members] <= 0
        order = groups.members[(2 * starts + fresh * span + position).argsort()]
        sizes = rows.sizes[order].tolist()
        gids = rows.gids[order].tolist()
        bounds = offsets.tolist()

        job_ids: List[str] = []
        src_ids: List[int] = []
        dst_ids: List[int] = []
        caps: List[float] = []
        ends: List[int] = []
        flat: List[int] = []
        for commodity, g in zip(commodities, kept):
            key: GroupKey = commodity.name  # type: ignore[assignment]
            per_source: List[Tuple[int, float]] = []
            for pi, src in enumerate(groups.sources[g]):
                rate = rates.get((key, pi), 0.0)
                if rate > 1e-9:
                    per_source.append((src, rate))
            if not per_source:
                continue
            lo, hi = bounds[g], bounds[g + 1]
            block_sizes = sizes[lo:hi]
            block_gids = gids[lo:hi]
            total_rate = sum(rate for _s, rate in per_source)
            if len(per_source) == 1:
                assigned = [block_gids]
            else:
                total_bytes = sum(block_sizes)
                budgets = [
                    rate / total_rate * total_bytes for _s, rate in per_source
                ]
                assigned = [[] for _ in per_source]
                last = len(budgets)
                for size, gid in zip(block_sizes, block_gids):
                    j = 0
                    best = budgets[0]
                    for t in range(1, last):
                        if budgets[t] > best:
                            best = budgets[t]
                            j = t
                    assigned[j].append(gid)
                    budgets[j] -= size
            # A group with fewer blocks than flowing paths leaves some
            # sources empty; hand their rate to the sources that did get
            # blocks, or small block remainders drain geometrically and
            # never finish. The simulator re-clips to capacity, so the
            # reshuffled rate cannot oversubscribe any link.
            used_rate = sum(
                rate for (_s, rate), got in zip(per_source, assigned) if got
            )
            spare = total_rate - used_rate
            for (src, rate), got in zip(per_source, assigned):
                if not got:
                    continue
                share = rate + (spare * rate / used_rate if used_rate > 0 else 0.0)
                job_ids.append(key[0])
                src_ids.append(src)
                dst_ids.append(groups.dst[g])
                caps.append(share)
                flat.extend(got)
                ends.append(len(flat))
        csr = np.zeros(len(ends) + 1, dtype=np.int64)
        csr[1:] = ends
        return DirectiveBatch(
            space,
            job_ids,
            np.asarray(src_ids, dtype=np.int64),
            np.asarray(dst_ids, dtype=np.int64),
            caps,
            csr,
            np.asarray(flat, dtype=np.int64),
        )


@dataclass
class _Rows:
    """The selection as parallel arrays in one interned id space.

    Row ``i`` describes ``selections[i]``: its job slot, block id, block
    index, destination server and DC ids, block size, and bytes already
    buffered at the destination. ``pair_row``/``pair_src`` list every
    (row, healthy holder) pair, sorted by row, then DC-major (by DC id,
    then server id).
    """

    space: object
    job_ids: List[str]
    server_dc: np.ndarray
    num_dcs: int
    slot: np.ndarray
    gids: np.ndarray
    index: np.ndarray
    dst: np.ndarray
    dst_dc: np.ndarray
    sizes: np.ndarray
    buffered: np.ndarray
    pair_row: np.ndarray
    pair_src: np.ndarray
    #: reach[d, s]: 1/0 when server s does/does not have a path to server
    #: d, -1 while unprobed; ``paths`` memoizes the probed resource tuples
    #: by ``s * num_servers + d``.
    reach: np.ndarray
    paths: Dict[int, Optional[Tuple[ResourceKey, ...]]]


@dataclass
class _Groups:
    """Merged commodity groups over the selection rows.

    Group ``g`` has key ``keys[g]`` (string names, first-hit order),
    destination id ``dst[g]``, picked source ids ``sources[g]``, and
    member rows ``members[offsets[g]:offsets[g + 1]]`` in selection order.
    """

    rows: _Rows
    keys: List[GroupKey]
    dst: List[int]
    sources: List[Tuple[int, ...]]
    offsets: np.ndarray
    members: np.ndarray


class _SizeTable:
    """Block sizes by block id of one possession matrix, filled lazily."""

    __slots__ = ("space", "table")

    def __init__(self) -> None:
        self.space = None
        self.table = np.empty(0)

    def gather(self, space, batch: SelectionBatch) -> np.ndarray:
        """Per-row block sizes of ``batch``, whose ids index ``space``."""
        if self.space is not space:
            self.space = space
            self.table = np.empty(0)
        table = self.table
        if len(table) < space.num_blocks:
            table = self.table = np.concatenate(
                [table, np.full(space.num_blocks - len(table), np.nan)]
            )
        gids = batch.gids
        sizes = table[gids]
        missing = np.isnan(sizes).nonzero()[0]
        if len(missing):
            jobs = batch.jobs
            for i in missing.tolist():
                job = jobs[batch.job_slots[i]]
                table[gids[i]] = job.blocks[batch.indices[i]].size
            sizes = table[gids]
        return sizes


def _first_hit_labels(key: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Label equal keys 0, 1, ... in order of first appearance.

    Returns the per-element labels and, per label, the index of the
    key's first occurrence — ``np.unique(..., return_index=True,
    return_inverse=True)`` relabelled to first-hit order, in method calls
    cheap enough for the small selections of a quiet cycle.
    """
    order = key.argsort(kind="stable")
    ordered = key[order]
    new = np.empty(len(key), dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    first = order[new]
    by_first = first.argsort()
    rank = np.empty(len(first), dtype=np.int64)
    rank[by_first] = np.arange(len(first))
    label = np.empty(len(key), dtype=np.int64)
    label[order] = rank[new.cumsum() - 1]
    return label, first[by_first]


#: Bit masks by bit position within a byte.
_BIT = np.array([1 << b for b in range(8)], dtype=np.uint8)


def _selection_rows(
    view: ClusterView,
    selections: Sequence[ScheduledBlock],
    batch: Optional[SelectionBatch],
    sizes: _SizeTable,
) -> _Rows:
    """Lay the selection out as :class:`_Rows`.

    The columns are the scheduler's :class:`SelectionBatch` ids (a batch
    is interned here when the caller has none), and the holder pairs come
    from one rows × servers gather against the store's possession matrix
    — the live one or a speculation overlay — with failed agents masked
    out. The rows are tagged with the live matrix (``base``), whose id
    space an overlay shares, so the simulator validates the routed batch
    without re-packing it.
    """
    matrix = view.store.matrix
    if batch is None or len(batch.gids) != len(selections):
        batch = _batch_of(view, selections)
    space = matrix.base
    dc_major = space.server_dc_major
    num_servers = len(dc_major)
    gids = batch.gids
    # Byte-wise view of the bit rows (block g is bit g & 7 of byte
    # g >> 3 in little-endian word order), columns in DC-major order.
    cells = (
        matrix.bits.astype("<u8", copy=False).view(np.uint8).T[gids >> 3][
            :, dc_major
        ]
        & _BIT[gids & 7][:, None]
    )
    if view.failed_agents:
        down = np.zeros(num_servers, dtype=bool)
        down[
            [space.server_ids[s] for s in view.failed_agents if s in space.server_ids]
        ] = True
        cells[:, down[dc_major]] = 0
    flat = cells.reshape(-1).nonzero()[0]
    dst = batch.dst_sids
    reach, paths = _reach_memo(view, space.server_names)
    return _Rows(
        space=space,
        job_ids=[job.job_id for job in batch.jobs],
        server_dc=space.server_dc_ids,
        num_dcs=len(space.dc_names),
        slot=batch.job_slots,
        gids=gids,
        index=batch.indices,
        dst=dst,
        dst_dc=batch.dc_gids,
        sizes=sizes.gather(space, batch),
        buffered=view.received_bytes_many(space, gids, dst),
        pair_row=flat // num_servers,
        pair_src=dc_major[flat % num_servers],
        reach=reach,
        paths=paths,
    )


def _batch_of(
    view: ClusterView, selections: Sequence[ScheduledBlock]
) -> SelectionBatch:
    """The :class:`SelectionBatch` of ``selections`` in the store's ids."""
    matrix = view.store.matrix
    jobs_by_id = {job.job_id: job for job in view.jobs}
    jobs: List = []
    slot_of: Dict[str, int] = {}
    for entry in selections:
        if entry.job_id not in slot_of:
            slot_of[entry.job_id] = len(jobs)
            jobs.append(jobs_by_id[entry.job_id])
    n = len(selections)

    def column(values) -> np.ndarray:
        return np.fromiter(values, dtype=np.int64, count=n)

    return SelectionBatch(
        jobs=jobs,
        gids=column(matrix.block_gids[e.block.block_id] for e in selections),
        indices=column(e.block.index for e in selections),
        dst_sids=column(matrix.server_ids[e.dst_server] for e in selections),
        dc_gids=column(matrix.dc_ids[e.dst_dc] for e in selections),
        job_slots=column(slot_of[e.job_id] for e in selections),
    )


def _reach_memo(
    view: ClusterView, names: List[str]
) -> Tuple[np.ndarray, Dict[int, Optional[Tuple[ResourceKey, ...]]]]:
    """The view's cached reachability table and path memo over ``names``."""
    return view._cache.reach_table(view.topology.epoch, view.failed_links, names)


def _usable_pairs(view: ClusterView, rows: _Rows) -> Tuple[np.ndarray, np.ndarray]:
    """The (row, holder) pairs whose holder can serve the row.

    A holder is usable when it is not the row's destination and has a
    failure-aware path to it. Reachability comes from the cycle cache's
    tri-state table; only the (holder, destination) pairs the selection
    actually needs are probed through ``view.flow_resources``, once per
    path-validity epoch. Order is preserved.
    """
    pair_row = rows.pair_row
    pair_src = rows.pair_src
    pair_dst = rows.dst[pair_row]
    table = rows.reach
    state = table[pair_dst, pair_src]
    unknown = (state < 0).nonzero()[0]
    if len(unknown):
        names = rows.space.server_names
        num_servers = len(names)
        paths = rows.paths
        for pair in set(
            (pair_src[unknown] * num_servers + pair_dst[unknown]).tolist()
        ):
            src, d = divmod(pair, num_servers)
            path = None
            if src != d:
                path = paths[pair] = view.flow_resources(names[src], names[d])
            table[d, src] = 0 if path is None else 1
        state = table[pair_dst, pair_src]
    ok = (state > 0) & (pair_src != pair_dst)
    return pair_row[ok], pair_src[ok]


def _pick_sources(
    pairs: Tuple[np.ndarray, np.ndarray], rows: _Rows, max_sources: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Per row, the picked source ids (rows × ``max_sources``, ``-1``
    padded) and how many were picked; see :meth:`BDSRouter._build_groups`.

    The usable pairs are sorted by row, then DC-major, so each (row, DC)
    cell's holders are one contiguous run: a bincount over cells gives
    the run lengths and their cumulative sum the run starts, and the k-th
    holder of a cell is pair ``start + k``. A row's other DCs are its
    nonempty cells except the destination's, in ascending DC order; pick
    m takes the one at position (block index + m) mod their count.
    """
    pair_row, pair_src = pairs
    n = len(rows.index)
    if not len(pair_row):
        return np.full((n, max_sources), -1, dtype=np.int64), np.zeros(
            n, dtype=np.int64
        )
    index = rows.index
    num_dcs = rows.num_dcs
    size = np.bincount(
        pair_row * num_dcs + rows.server_dc[pair_src], minlength=n * num_dcs
    )
    start = size.cumsum() - size
    local = np.arange(n, dtype=np.int64) * num_dcs + rows.dst_dc
    local_size = size[local]
    has_local = (local_size > 0).astype(np.int64)
    last = len(pair_src) - 1
    # Column 0: the local pick; columns 1..: the rotated other-DC picks.
    cand = np.empty((n, max_sources + 1), dtype=np.int64)
    cand[:, 0] = pair_src[
        np.minimum(start[local] + index % np.maximum(local_size, 1), last)
    ]
    other = size > 0
    other[local] = False
    cells = other.nonzero()[0]
    num_other = other.reshape(n, num_dcs).sum(axis=1)
    if len(cells):
        wrap = np.maximum(num_other, 1)[:, None]
        turn = ((index % wrap[:, 0])[:, None] + np.arange(max_sources)) % wrap
        cell = cells[
            np.minimum((num_other.cumsum() - num_other)[:, None] + turn, len(cells) - 1)
        ]
        cand[:, 1:] = pair_src[start[cell] + index[:, None] % size[cell]]
    count = has_local + np.minimum(num_other, max_sources - has_local)
    picks = np.where(
        has_local[:, None] > 0, cand[:, :max_sources], cand[:, 1:]
    )
    picks[np.arange(max_sources) >= count[:, None]] = -1
    return picks, count
