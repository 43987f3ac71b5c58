"""Decision records produced by the controller each cycle.

The paper's output per cycle is the 2-tuple ⟨w, f⟩: ``w_b,s`` (is server s
the destination of block b this cycle) and ``f_b,p`` (bandwidth allocated
to b on path p). :class:`ScheduledBlock` captures a ``w`` entry;
:class:`ControlDecision` carries the final directives (each encodes its
``f`` as a rate cap) plus timing diagnostics used by the scalability
benchmarks (Fig. 11a, 13a).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.net.simulator import TransferDirective
from repro.overlay.blocks import Block
from repro.overlay.job import MulticastJob

BlockId = Tuple[str, int]


@dataclass(frozen=True)
class ScheduledBlock:
    """One scheduling-step selection: deliver ``block`` to ``dst_server``.

    ``is_relay`` marks placements onto relay DCs (§2.2 Type I path
    diversity); relays never count toward job completion and are scheduled
    at lower priority than real deliveries.
    """

    job_id: str
    block: Block
    dst_dc: str
    dst_server: str
    duplicates: int  # cluster-wide copy count when selected (rarity)
    is_relay: bool = False


@dataclass
class SelectionBatch:
    """Integer companion of a scheduler selection list.

    Produced by the vectorized scheduling kernel alongside its
    :class:`ScheduledBlock` list: row ``i`` of these parallel int64
    columns describes ``selections[i]`` in the possession matrix's
    interned id space (see :class:`repro.overlay.store.PossessionMatrix`).
    The router consumes it to pick sources and merge commodity groups as
    array kernels without re-hashing string ids; names are materialized
    once per final group.
    """

    #: The view's job list; ``job_slots`` indexes into it.
    jobs: List[MulticastJob]
    #: Per-row interned block column id.
    gids: np.ndarray
    #: Per-row block index within its job.
    indices: np.ndarray
    #: Per-row destination server id.
    dst_sids: np.ndarray
    #: Per-row destination DC id.
    dc_gids: np.ndarray
    #: Per-row index into ``jobs``.
    job_slots: np.ndarray


@dataclass
class ControlDecision:
    """The controller's output for one cycle."""

    cycle: int
    directives: Sequence[TransferDirective] = field(default_factory=list)
    scheduled_blocks: int = 0
    num_commodities: int = 0
    schedule_runtime: float = 0.0
    routing_runtime: float = 0.0
    objective: float = 0.0  # total allocated bytes/s (Eq. 5 value)
    # Routing-solver telemetry (FPTAS backend; zero/empty otherwise):
    # flow pushes, Fleischer phases, and how the solve started ("cold",
    # "warm", "reuse", "cold-fallback").
    routing_iterations: int = 0
    routing_phases: int = 0
    routing_warm_start: str = ""
    #: Demand-independence certificate for the event engine's decision
    #: reuse (§5.2: decisions stay valid until state changes): how many
    #: cycles past ``cycle`` this decision's directives are guaranteed to
    #: be re-derivable bit-identically under an unchanged validity key,
    #: accounting for commodity demands draining as bytes flow. ``None``
    #: means unbounded (no output depends on a draining quantity); ``0``
    #: means never reuse (e.g. approximate solver backends, partition
    #: fallback directives).
    reuse_horizon: Optional[int] = 0
    # Sharded control plane telemetry (BDSConfig.shards > 1; zeros on
    # the single-controller path). shard_count is the configured shard
    # count; the walls are the max/mean per-shard schedule+route
    # wall-clock this cycle over the shards that decided fresh (replayed
    # shards cost ~nothing and are excluded); reconcile_runtime is the
    # outer WAN-capacity waterfill over all shards' directives; and
    # reconciled_directives counts directives whose rate cap the
    # reconciliation pass actually lowered.
    shard_count: int = 0
    shard_wall_max: float = 0.0
    shard_wall_mean: float = 0.0
    reconcile_runtime: float = 0.0
    reconciled_directives: int = 0
    # Shard-local state telemetry (zeros on the single-controller path):
    # the effective decide stride this cycle (the adaptive stride's current
    # value under shard_stride="auto", the static knob otherwise), the
    # max per-shard possession-array and candidate-table bytes over the
    # shards that decided fresh, and the summed structural size of the
    # delta payloads that fed them.
    shard_stride: int = 0
    shard_state_bytes: int = 0
    shard_candidate_bytes: int = 0
    shard_payload_bytes: int = 0

    @property
    def total_runtime(self) -> float:
        """Controller algorithm running time (the Fig. 11a metric).

        Includes the sharded reconciliation pass (zero when unsharded):
        it is on the decide critical path just like schedule and route.
        """
        return self.schedule_runtime + self.routing_runtime + self.reconcile_runtime
