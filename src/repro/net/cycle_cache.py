"""Per-cycle memoization for the controller/simulator hot path.

The centralized control loop issues the same read-only queries many times
per cycle: strategies ask for the eligible sources of a block once per
pending *(block, destination)* pair, and the router re-derives the WAN
path once per *(holder, destination)* candidate. At 10^5 outstanding
blocks those duplicates dominate the cycle (§5.1's scalability argument
only holds if per-tick cost tracks the delta in state, not its size).

:class:`CycleCache` memoizes two query families, each guarded by an
explicit validity key so stale answers are structurally impossible:

* **paths** — ``flow_resources(src, dst)`` results, valid while
  ``(topology.epoch, failed_links)`` is unchanged. In a failure-free run
  this cache survives across *all* cycles. The router's reachability
  table and its int-keyed twin of the path memo (:meth:`CycleCache.
  reach_table`) share this validity key.
* **sources** — eligible-source lists per block, valid while
  ``(store.epoch, failed_agents)`` is unchanged. Any possession mutation
  (delivery, seed, drop) bumps the store epoch and flushes it.

Ownership: the :class:`~repro.net.simulator.Simulation` owns one
instance and threads it into each cycle's
:class:`~repro.net.simulator.ClusterView`; each
:class:`~repro.core.shardexec.ShardMirror` additionally owns its *own*
persistent instance scoped to that shard's partition, so memo tables
(and their flush churn) are O(pairs/k) per shard rather than cluster
wide. Speculation views must *not* share any of these because their
store differs — they get a fresh instance; partition clones share the
view's instance, and their different failed-agent set flushes the source
memo.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from repro.net.topology import ResourceKey

BlockId = Tuple[str, int]
PathKey = Tuple[int, FrozenSet]
SourceKey = Tuple[int, FrozenSet]


def first_cycle_at_or_after(time_s: float, dt: float) -> int:
    """Smallest cycle index ``c >= 0`` with ``c * dt >= time_s``, exactly.

    All event-engine timestamps derive from integer cycle counts through
    this helper so fast-forward never compounds ``now += k*dt`` rounding:
    the comparison is performed on ``c * dt`` itself (the same float the
    tick loop computes for cycle ``c``), so membership tests like
    "has this job arrived by cycle c" are bit-identical between a loop
    that tests every cycle and a jump that lands directly on ``c``.
    """
    if time_s <= 0.0:
        return 0
    c = int(time_s / dt)
    while c * dt < time_s:
        c += 1
    while c > 0 and (c - 1) * dt >= time_s:
        c -= 1
    return c


@dataclass
class DecisionReuseState:
    """The previous decide's output plus the validity key certifying it.

    The event-driven simulator core (``SimConfig.event_engine``) skips the
    decide → validate → path-lookup stages of a cycle when the decision of
    an earlier cycle is provably still exact. "Provably" is the
    conjunction of two certificates:

    * the **validity key** — a tuple of every piece of simulator state a
      reusable strategy's decision may depend on: topology epoch, store
      (possession) epoch, the partial-bytes *membership* epoch (which
      blocks have buffered bytes, not how many — the router's
      partial-first reordering reads membership only), failed agent and
      link sets, controller availability, the active-job signature
      (arrival pointer + completion count), and the background-traffic
      state token. If the key at cycle ``c`` equals the key at decide
      time, every input the strategy read is unchanged.
    * the **reuse horizon** — decisions that read continuously-draining
      quantities (the BDS router's commodity demands) are only
      input-independent while those quantities stay inside a certified
      slack band; the strategy reports how many cycles that band is
      guaranteed to last (:attr:`repro.core.decisions.ControlDecision.
      reuse_horizon`). ``None`` means unbounded (the decision reads no
      draining quantity), ``0`` means never reuse.

    Both must hold; either failing simply re-runs the decide, so a
    conservative key or horizon can cost speed but never correctness.
    """

    key: Optional[tuple] = None
    decided_cycle: int = -1
    #: Cycles after ``decided_cycle`` the decision stays exact for under
    #: an unchanged key (None = unbounded, 0 = this cycle only).
    horizon: Optional[int] = None
    directives: List = field(default_factory=list)
    resources: List = field(default_factory=list)
    # Telemetry consumed by the event-engine benchmark.
    reuses: int = 0

    def valid_for(self, cycle: int, key: tuple) -> bool:
        """True when the cached decision is exact for ``cycle``."""
        if self.key is None or key != self.key:
            return False
        if self.horizon is None:
            return True
        return cycle - self.decided_cycle <= self.horizon

    def store_decision(
        self,
        key: tuple,
        cycle: int,
        horizon: Optional[int],
        directives: List,
        resources: List,
    ) -> None:
        """Record a fresh decide's validated output under its key."""
        self.key = key
        self.decided_cycle = cycle
        self.horizon = horizon
        self.directives = directives
        self.resources = resources


class CycleCache:
    """Epoch-guarded memo tables for the per-cycle read queries."""

    __slots__ = (
        "_path_key",
        "paths",
        "reach",
        "_reach_names",
        "paths_ids",
        "_source_key",
        "sources",
        "hits",
        "misses",
        "flushes",
    )

    def __init__(self) -> None:
        self._path_key: Optional[PathKey] = None
        # (src_server, dst_server) -> resource tuple, or None when the
        # destination is unreachable (partitioned off).
        self.paths: Dict[
            Tuple[str, str], Optional[Tuple[ResourceKey, ...]]
        ] = {}
        # Source reachability for the router's pick kernel, same validity
        # key as ``paths``: reach[d, s] is 1 when server id s has a
        # failure-aware path to server id d, 0 when it has none, -1 while
        # unprobed. Ids index the server-name list the table was built
        # for (``_reach_names``).
        self.reach: Optional[np.ndarray] = None
        self._reach_names: List[str] = []
        # Integer twin of ``paths`` over the same ids and validity:
        # src_id * num_servers + dst_id -> resource tuple or None.
        self.paths_ids: Dict[int, Optional[Tuple[ResourceKey, ...]]] = {}
        self._source_key: Optional[SourceKey] = None
        self.sources: Dict[BlockId, List[str]] = {}
        # Telemetry (coarse; bumped by ClusterView's cached accessors).
        self.hits: int = 0
        self.misses: int = 0
        self.flushes: int = 0

    # -- validity gates ----------------------------------------------------

    def validate_paths(
        self, topology_epoch: int, failed_links: FrozenSet
    ) -> Dict[Tuple[str, str], Optional[Tuple[ResourceKey, ...]]]:
        """The path memo table, flushed if topology/failures changed."""
        key = (topology_epoch, failed_links)
        if key != self._path_key:
            self._path_key = key
            self.reach = None
            if self.paths:
                self.paths = {}
                self.flushes += 1
        return self.paths

    def reach_table(
        self, topology_epoch: int, failed_links: FrozenSet, server_names: List[str]
    ) -> Tuple[np.ndarray, Dict[int, Optional[Tuple[ResourceKey, ...]]]]:
        """The reachability table and int-keyed path memo for
        ``server_names``, both flushed with the path memo."""
        self.validate_paths(topology_epoch, failed_links)
        table = self.reach
        if table is None or (
            self._reach_names is not server_names
            and self._reach_names != server_names
        ):
            n = len(server_names)
            table = self.reach = np.full((n, n), -1, dtype=np.int8)
            self._reach_names = server_names
            self.paths_ids = {}
        return table, self.paths_ids

    def validate_sources(
        self, store_epoch: int, failed_agents: FrozenSet
    ) -> None:
        """Flush the source memo if possession or failures changed."""
        key = (store_epoch, failed_agents)
        if key != self._source_key:
            self._source_key = key
            if self.sources:
                self.sources = {}
                self.flushes += 1

    def stats(self) -> Dict[str, int]:
        """Hit/miss/flush counters."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "flushes": self.flushes,
        }


class RoutingWarmStore:
    """Epoch-guarded holder for the router's FPTAS warm-start state.

    Same validity discipline as the path memo above: the carried solver
    state (final resource lengths + raw path flows of the previous
    cycle's solve — see :class:`repro.lp.fptas.FPTASWarmState`) is only
    offered back to the solver while ``(topology.epoch, failed_links)``
    is unchanged. A topology edit or failure-set change alters the
    resource universe, so the next solve must start cold.

    The guard here is intentionally coarse; the solver independently
    re-verifies the fine-grained compatibility conditions (ε, resource
    interning order, per-resource capacities) and certifies every warm
    solve against its own dual bound, so a stale store can degrade a
    solve to cold but never corrupt it. The store is owned by the
    :class:`~repro.core.routing.BDSRouter` — not by :class:`CycleCache`
    instances — because speculation overlays build *fresh* caches per
    cycle while warm starts must survive across cycles.
    """

    __slots__ = ("_key", "state", "invalidations", "stores")

    def __init__(self) -> None:
        self._key: Optional[PathKey] = None
        self.state = None
        # Telemetry: how often topology/failure churn dropped the state.
        self.invalidations: int = 0
        self.stores: int = 0

    def validate(self, topology_epoch: int, failed_links: FrozenSet):
        """Return the carried state, or ``None`` if the guard key moved."""
        key = (topology_epoch, failed_links)
        if key != self._key:
            self._key = key
            if self.state is not None:
                self.state = None
                self.invalidations += 1
        return self.state

    def store(self, topology_epoch: int, failed_links: FrozenSet, state) -> None:
        """Record the state a just-finished solve produced under ``key``."""
        self._key = (topology_epoch, failed_links)
        self.state = state
        self.stores += 1
