"""Configuration for the BDS controller.

Defaults follow §5.4: 2 MB blocks, 3-second update cycles, 80 % safety
threshold (20 % of every link reserved for latency-sensitive traffic).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.overlay.blocks import DEFAULT_BLOCK_SIZE
from repro.utils.validation import check_fraction, check_positive

ROUTING_BACKENDS = ("fptas", "lp", "greedy")
SHARD_MODES = ("inprocess", "process")
SHARD_PARTITIONS = ("hash", "affinity")
#: Sentinel value of ``shard_stride`` selecting the adaptive controller.
SHARD_STRIDE_AUTO = "auto"


@dataclass
class BDSConfig:
    """Tunable parameters of the centralized control loop.

    ``cycle_seconds`` is the §5.2 ΔT the whole decide→deliver loop must
    fit inside for centralized control to be feasible; the end-to-end
    benchmark (``perfbench/``) reports the per-decide wall times this
    budget bounds. The per-directive rates the controller
    assigns are enforced downstream by the shared rate kernel
    (:func:`repro.net.flow.clip_rates_to_capacity`), which proportionally
    scales any resource the (possibly stale, §5.1) allocation
    oversubscribed — the controller itself never needs to re-check
    physics.

    Under the event-driven simulator core (``SimConfig.event_engine``,
    see :mod:`repro.net.simulator`) the loop is not re-run every ΔT:
    §5.2's observation that decisions stay valid until state changes is
    made operational through a validity key plus the router's
    :attr:`~repro.core.routing.RoutingDiagnostics.reuse_horizon`
    certificate, and jobs may request a coarser per-job cadence via
    :attr:`repro.overlay.job.MulticastJob.cycle_seconds` (a multiple of
    this ΔT).
    """

    block_size: float = DEFAULT_BLOCK_SIZE
    cycle_seconds: float = 3.0
    safety_threshold: float = 0.8
    routing_backend: str = "greedy"
    epsilon: float = 0.1
    max_blocks_per_cycle: int = 0  # 0 = unlimited
    max_sources_per_group: int = 3
    merge_blocks: bool = True
    # §5.1 non-blocking update: feed the algorithm a delivery state that
    # speculates the completion of in-flight transfers over this horizon
    # (seconds). 0 disables speculation.
    speculation_horizon: float = 0.0
    # Schedule placements onto jobs' relay DCs (Type I path diversity
    # through non-destination DCs).
    use_relays: bool = True
    # Sharded control plane (ROADMAP "sharded multi-controller
    # scale-out"): partition the job set across this many controller
    # shards by a platform-stable seeded hash of job id
    # (repro.core.sharding). Each shard runs the full vectorized
    # schedule+route pipeline against a partition-scoped mirror — its
    # own PossessionIndex, CandidateTable, CycleCache and FPTAS warm
    # store, fed by delivery-log watermark replay, so per-shard memory
    # and cold-build work are O(pairs/shards); the shared link budgets are
    # reconciled by one outer max-min waterfill over all shards'
    # directives (repro.net.flow.max_min_fair_rates, the data plane's
    # own allocator). 1 keeps the single-controller path, bit-identical
    # to before the shards knob existed.
    shards: int = 1
    # Seed of the job→shard hash (re-spreads a colliding workload
    # without renaming jobs).
    shard_seed: int = 0
    # Shard decide cadence: shard s re-runs schedule+route only on
    # cycles with cycle % stride == s % stride and replays its cached
    # directives (demands refreshed by the simulator) in between. 1 =
    # every shard decides every cycle (no staleness). Strides > 1 cap
    # the per-cycle controller wall at roughly ceil(shards/stride)
    # shards' worth of work — the knob that fits 10⁷ pairs inside ΔT on
    # one core — at the cost of newly pending work waiting up to
    # stride-1 cycles for its shard's turn. The string "auto" hands the
    # knob to the controller's adaptive stride: it starts at 1 and
    # widens only when the EWMA of the measured per-shard wall
    # (time_shard_max) projects the per-cycle controller wall past
    # shard_stride_target × cycle_seconds, narrowing back (with
    # hysteresis) when slack returns.
    shard_stride: Union[int, str] = 1
    # Fraction of cycle_seconds the adaptive stride keeps the projected
    # per-cycle controller wall under (only read when
    # shard_stride == "auto").
    shard_stride_target: float = 0.5
    # Shard execution: "inprocess" loops over shards in index order;
    # "process" fans decides over one persistent single-worker process
    # per shard (pickle-pure payloads, deterministic shard-order
    # gather). Results are identical either way.
    shard_mode: str = "inprocess"
    # Job→shard partitioning policy: "hash" is the platform-stable
    # seeded hash of job id (PR 7 behaviour, the default); "affinity"
    # co-locates jobs sharing a source DC onto the same shard (greedy,
    # balanced by pair-count weight, hash tie-breaks — see
    # repro.core.sharding.AffinityAssigner) so shards contend less on
    # the same WAN links and the outer reconciliation clips fewer
    # directives.
    shard_partition: str = "hash"

    def __post_init__(self) -> None:
        if self.speculation_horizon < 0:
            raise ValueError("speculation_horizon must be >= 0")
        check_positive("block_size", self.block_size)
        check_positive("cycle_seconds", self.cycle_seconds)
        check_fraction("safety_threshold", self.safety_threshold)
        check_positive("epsilon", self.epsilon)
        check_positive("max_sources_per_group", self.max_sources_per_group)
        if self.max_blocks_per_cycle < 0:
            raise ValueError("max_blocks_per_cycle must be >= 0 (0 = unlimited)")
        if self.routing_backend not in ROUTING_BACKENDS:
            raise ValueError(
                f"routing_backend must be one of {ROUTING_BACKENDS}, "
                f"got {self.routing_backend!r}"
            )
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if isinstance(self.shard_stride, str):
            if self.shard_stride != SHARD_STRIDE_AUTO:
                raise ValueError(
                    f"shard_stride must be an int >= 1 or "
                    f"{SHARD_STRIDE_AUTO!r}, got {self.shard_stride!r}"
                )
        elif self.shard_stride < 1:
            raise ValueError("shard_stride must be >= 1")
        check_positive("shard_stride_target", self.shard_stride_target)
        check_fraction("shard_stride_target", self.shard_stride_target)
        if self.shard_mode not in SHARD_MODES:
            raise ValueError(
                f"shard_mode must be one of {SHARD_MODES}, "
                f"got {self.shard_mode!r}"
            )
        if self.shard_partition not in SHARD_PARTITIONS:
            raise ValueError(
                f"shard_partition must be one of {SHARD_PARTITIONS}, "
                f"got {self.shard_partition!r}"
            )
