"""The scheduling step: generalized rarest-first block selection (§4.3).

Each cycle BDS picks *which* blocks to transfer before deciding *how*.
Inspired by BitTorrent's rarest-first, the scheduler selects the subset of
pending (block, destination server) deliveries whose blocks currently have
the fewest copies cluster-wide, balancing block availability so that the
greedy per-cycle routing step rarely starves any block (§4.4's discussion).

The selection is what shrinks the routing step's search space: only the
selected deliveries become LP commodities.

Candidate (block, destination) pairs live in the static per-(job, DC)
int arrays of a :class:`~repro.net.candidates.CandidateTable`;
pending-ness, rarity and the health filters are numpy gathers against the
possession matrix, and the rarity order is one stable integer sort. The
matrix may be the live one or a speculation overlay of it
(:meth:`~repro.overlay.store.PossessionMatrix.overlay`), which shares the
table's id space. Every selection comes with a
:class:`~repro.core.decisions.SelectionBatch` so the router keeps working
in interned-id space.
"""

from __future__ import annotations

import time as _time
from typing import List, Optional, Tuple

import numpy as np

from repro.core.decisions import ScheduledBlock, SelectionBatch
from repro.net.simulator import ClusterView
from repro.overlay.blocks import Block


def _make_scheduled(
    job_id: str,
    block: Block,
    dst_dc: str,
    dst_server: str,
    duplicates: int,
    is_relay: bool,
) -> ScheduledBlock:
    """Construct a ScheduledBlock without the frozen-dataclass __init__.

    The kernel builds one per selected row; at 10^5-selection cold cycles
    the dataclass ``__init__`` (five guarded ``object.__setattr__`` calls)
    is the single largest remaining cost. Writing the ``__dict__`` directly
    yields an instance indistinguishable from the constructor's (same
    fields, eq, hash, repr) at roughly a third of the cost.
    """
    sb = ScheduledBlock.__new__(ScheduledBlock)
    sb.__dict__.update(
        job_id=job_id,
        block=block,
        dst_dc=dst_dc,
        dst_server=dst_server,
        duplicates=duplicates,
        is_relay=is_relay,
    )
    return sb


class RarestFirstScheduler:
    """Selects pending deliveries in ascending order of block duplicates."""

    def __init__(
        self, max_blocks_per_cycle: int = 0, use_relays: bool = True
    ) -> None:
        """``max_blocks_per_cycle``: cap on selections per cycle (0 = all).

        A finite cap bounds the routing problem size for enormous jobs; the
        paper instead bounds work through the per-cycle volume constraint
        (Eq. 3), which the router's demand caps implement — both are
        supported. ``use_relays`` additionally schedules block placements
        onto a job's relay DCs (at lower priority than real deliveries).
        """
        if max_blocks_per_cycle < 0:
            raise ValueError("max_blocks_per_cycle must be >= 0")
        self.max_blocks_per_cycle = max_blocks_per_cycle
        self.use_relays = use_relays
        # Integer companion of the last selection; the router picks it
        # up for its batched build.
        self.last_batch: Optional[SelectionBatch] = None

    def select(self, view: ClusterView) -> List[ScheduledBlock]:
        """The cycle's ``w`` assignments, rarest blocks first.

        Only deliveries with at least one healthy source and a healthy
        destination are selected (a failed agent drops out of the decision
        space, §5.3). Relay placements sort after all real deliveries.
        """
        started = _time.perf_counter()
        return self._select_vectorized(
            view, view.candidate_table(), view.store.matrix, started
        )

    # -- vectorized kernel -------------------------------------------------

    def _select_vectorized(
        self, view: ClusterView, table, matrix, started: float
    ) -> List[ScheduledBlock]:
        """Array-native selection over the static candidate table.

        Per candidate group: one possession gather decides pending-ness
        (matrix bit test for deliveries, DC copy-count for relays), one
        ``dup`` gather supplies rarity, boolean masks apply the failure
        filters, and the surviving rows of all groups are ordered by a
        single stable sort on a packed integer key equal to the tuple
        key ``(is_relay, -priority, duplicates, block index)`` —
        stability supplies the insertion-order tie-break, and the group
        concatenation order (jobs in view order, then each job's
        destination and relay DCs) is the enumeration order.

        Groups compact their ``alive`` rows when a gather of the table's
        own matrix finds them >50% possession-dead; possession is monotone
        during a run, so dead rows never resurrect (see
        :mod:`repro.net.candidates`). A speculation overlay never
        compacts: its extra copies are guesses, and the rows they kill
        must stay alive for the next real cycle.
        """
        failed = view.failed_agents
        failed_sids: List[int] = []
        failed_lut = None
        if failed:
            server_ids = matrix.server_ids
            failed_sids = sorted(
                server_ids[s] for s in failed if s in server_ids
            )
            if failed_sids:
                failed_lut = np.zeros(matrix.num_servers, dtype=bool)
                failed_lut[failed_sids] = True
        dup_all = matrix.dup
        dc_counts = matrix.dc_counts
        use_relays = self.use_relays
        compact = matrix is table.matrix

        # Per-surviving-row columns, one array per group, concatenated
        # once. ``row`` is the candidate's original row in its group, the
        # index into the group's ScheduledBlock cache. Fields that are
        # constant within a group (slot, relay flag, priority, DC gid,
        # job slot) are never materialized as columns: the sort key folds
        # them in as scalars, and the capped winners recover their group
        # slot by a searchsorted over the group offsets — at 10^7
        # candidate rows those five constant columns and their
        # concatenations were the largest memory-traffic term of a cold
        # cycle.
        row_cols: List[np.ndarray] = []
        idx_cols: List[np.ndarray] = []
        dst_cols: List[np.ndarray] = []
        dup_cols: List[np.ndarray] = []
        gid_cols: List[np.ndarray] = []
        grp_relay: List[int] = []
        grp_prio: List[int] = []
        grp_dup_max: List[int] = []
        grp_idx_max: List[int] = []
        group_refs: List[Tuple] = []  # (job, group, job_slot)

        for job_slot, job in enumerate(view.jobs):
            neg_priority = -getattr(job, "priority", 0)
            for group in table.groups(job):
                if group.is_relay and not use_relays:
                    continue
                rows = group.alive
                n = rows.size
                if n == 0:
                    continue
                # ``alive`` only ever shrinks, so a full-size row set is
                # the identity permutation — use the group's arrays
                # directly instead of gathering copies (the common case on
                # a cold cycle; downstream only reads them).
                full = n == group.gids.size
                gids = group.gids if full else group.gids[rows]
                if group.is_relay:
                    dead = dc_counts[group.dc_gid, gids] > 0
                else:
                    dead = matrix.test_many(
                        group.dst_sids if full else group.dst_sids[rows], gids
                    )
                ndead = int(np.count_nonzero(dead))
                if ndead:
                    keep = ~dead
                    rows = rows[keep]
                    gids = gids[keep]
                    full = False
                    if compact and ndead * 2 > n:
                        group.alive = rows
                    if rows.size == 0:
                        continue
                dst = group.dst_sids if full else group.dst_sids[rows]
                idx = group.indices if full else group.indices[rows]
                dup = dup_all[gids]
                if failed_lut is not None:
                    # Eligible sources = holders minus failed agents; the
                    # destination cannot be a holder of a pending block,
                    # so the count never double-discounts it.
                    held_by_failed = np.zeros(gids.size, dtype=np.int64)
                    for fsid in failed_sids:
                        held_by_failed += matrix.test_row_many(fsid, gids)
                    ok = ~failed_lut[dst] & (dup - held_by_failed > 0)
                else:
                    ok = dup > 0
                if not ok.all():
                    dst = dst[ok]
                    if dst.size == 0:
                        continue
                    rows = rows[ok]
                    idx = idx[ok]
                    dup = dup[ok]
                    gids = gids[ok]
                group_refs.append((job, group, job_slot))
                row_cols.append(rows)
                idx_cols.append(idx)
                dst_cols.append(dst)
                dup_cols.append(dup)
                gid_cols.append(gids)
                grp_relay.append(1 if group.is_relay else 0)
                grp_prio.append(neg_priority)
                grp_dup_max.append(int(dup.max()))
                grp_idx_max.append(int(idx.max()))

        if not group_refs:
            empty = np.empty(0, dtype=np.int64)
            self.last_batch = SelectionBatch(
                jobs=list(view.jobs),
                gids=empty,
                indices=empty,
                dst_sids=empty,
                dc_gids=empty,
                job_slots=empty,
            )
            self.last_runtime = _time.perf_counter() - started
            return []

        row_col = np.concatenate(row_cols)
        idx_col = np.concatenate(idx_cols)
        dst_col = np.concatenate(dst_cols)
        dup_col = np.concatenate(dup_cols)
        gid_col = np.concatenate(gid_cols)
        sizes = np.fromiter(
            (a.size for a in row_cols), dtype=np.int64, count=len(row_cols)
        )
        ends = np.cumsum(sizes)

        # One stable sort on a packed integer key ≡ an ascending
        # tuple sort (relay, -priority, duplicates, block index) with
        # insertion order breaking ties. The (relay, priority) fields are
        # constant within a group, so each group's key is built in place
        # as ``dup * idx_range + idx`` plus one scalar prefix. Field
        # widths are data-dependent; if the packed key cannot fit 62
        # bits, fall back to a (stable) lexsort over the separate
        # columns.
        pmin = min(grp_prio)
        prio_range = max(grp_prio) - pmin + 1
        dup_range = max(grp_dup_max) + 1
        idx_range = max(grp_idx_max) + 1
        if 2 * prio_range * dup_range * idx_range < (1 << 62):
            key_cols: List[np.ndarray] = []
            for g in range(len(group_refs)):
                prefix = (
                    (grp_relay[g] * prio_range + (grp_prio[g] - pmin))
                    * dup_range
                    * idx_range
                )
                key = dup_cols[g] * idx_range
                key += idx_cols[g]
                if prefix:
                    key += prefix
                key_cols.append(key)
            order = np.argsort(np.concatenate(key_cols), kind="stable")
        else:  # pragma: no cover - needs ~2^62 distinct key values
            relay_col = np.repeat(
                np.asarray(grp_relay, dtype=np.int64), sizes
            )
            prio_col = np.repeat(np.asarray(grp_prio, dtype=np.int64), sizes)
            order = np.lexsort((idx_col, dup_col, prio_col, relay_col))
        if self.max_blocks_per_cycle:
            order = order[: self.max_blocks_per_cycle]

        # Winners recover their group slot from the offsets; the per-slot
        # constants are then two tiny gathers instead of full columns.
        slot_arr = np.searchsorted(ends, order, side="right")
        dcgid_per_slot = np.fromiter(
            (group.dc_gid for (_job, group, _js) in group_refs),
            dtype=np.int64,
            count=len(group_refs),
        )
        jslot_per_slot = np.fromiter(
            (js for (_job, _group, js) in group_refs),
            dtype=np.int64,
            count=len(group_refs),
        )
        sel_idx_arr = idx_col[order]
        sel_dst_arr = dst_col[order]
        sel_slot = slot_arr.tolist()
        sel_row = row_col[order].tolist()
        sel_idx = sel_idx_arr.tolist()
        sel_dst = sel_dst_arr.tolist()
        sel_dup = dup_col[order].tolist()
        names = matrix.server_names
        make = _make_scheduled
        selected: List[ScheduledBlock] = []
        append = selected.append
        # ScheduledBlock construction only for the final slice, and only
        # for rows whose cached object is missing or carries a stale
        # ``duplicates`` — every other field of a candidate row is static,
        # so steady-state cycles mostly reuse last cycle's objects.
        for slot, row, idx, dst, dup in zip(
            sel_slot, sel_row, sel_idx, sel_dst, sel_dup
        ):
            job, group, _job_slot = group_refs[slot]
            obj = group.objs[row]
            if obj is None or group.objs_dup[row] != dup:
                obj = make(
                    job.job_id,
                    job.blocks[idx],
                    group.dc,
                    names[dst],
                    dup,
                    group.is_relay,
                )
                group.objs[row] = obj
                group.objs_dup[row] = dup
            append(obj)
        self.last_batch = SelectionBatch(
            jobs=list(view.jobs),
            gids=gid_col[order],
            indices=sel_idx_arr,
            dst_sids=sel_dst_arr,
            dc_gids=dcgid_per_slot[slot_arr],
            job_slots=jslot_per_slot[slot_arr],
        )
        self.last_runtime = _time.perf_counter() - started
        return selected
