"""Non-blocking updates via speculated delivery status (§5.1).

While the controller computes a new decision, the previous cycle's
transfers keep running (agents are never blocked on the controller). The
controller therefore feeds its algorithm not the *reported* delivery state
but a *speculated* one: for every in-flight transfer it assumes the bytes
that will land during the decision window have landed.

:class:`DeliverySpeculator` consumes the previous cycle's directives and
produces the set of block deliveries expected to complete within a given
horizon; :class:`SpeculatedView` is a
:class:`~repro.net.simulator.ClusterView` over an overlay of the possession
index that also holds them (:meth:`~repro.overlay.store.PossessionIndex.
overlay`), so the controller decides on the speculated state through its
one vectorized path without mutating the real index. A sharded controller
hands each shard its own speculated deliveries instead, and the shard
mirror decides on an overlay of its own index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Mapping, Sequence, Tuple

from repro.net.simulator import ClusterView, TransferDirective
from repro.utils.validation import check_non_negative

BlockId = Tuple[str, int]


@dataclass(frozen=True)
class SpeculatedDelivery:
    """One block expected to finish arriving within the horizon."""

    block_id: BlockId
    dst_server: str
    src_server: str


class DeliverySpeculator:
    """Predicts deliveries completing while the controller is thinking.

    The prediction is conservative and purely local: for each directive of
    the previous cycle, bytes land in block order at the directive's rate;
    blocks whose remaining bytes fit within ``horizon_seconds × rate`` are
    speculated as delivered.
    """

    def __init__(self, horizon_seconds: float) -> None:
        check_non_negative("horizon_seconds", horizon_seconds)
        self.horizon_seconds = horizon_seconds

    def speculate(
        self,
        view: ClusterView,
        previous_directives: Sequence[TransferDirective],
        block_sizes: Mapping[BlockId, float],
    ) -> List[SpeculatedDelivery]:
        """Deliveries expected to complete within the horizon.

        Directives without a rate cap are skipped — without a controller-
        assigned rate there is no honest local estimate of their progress.
        """
        speculated: List[SpeculatedDelivery] = []
        for directive in previous_directives:
            if not directive.rate_cap or directive.rate_cap <= 0:
                continue
            budget = directive.rate_cap * self.horizon_seconds
            for block_id in directive.block_ids:
                if budget <= 0:
                    break
                if view.store.has(directive.dst_server, block_id):
                    continue  # already arrived for real
                size = block_sizes.get(block_id)
                if size is None:
                    continue
                remaining = size - view.received_bytes(
                    block_id, directive.dst_server
                )
                if remaining <= budget:
                    speculated.append(
                        SpeculatedDelivery(
                            block_id=block_id,
                            dst_server=directive.dst_server,
                            src_server=directive.src_server,
                        )
                    )
                budget -= min(remaining, budget)
        return speculated


class SpeculatedView(ClusterView):
    """A :class:`ClusterView` over the speculated delivery state.

    The store is :meth:`PossessionIndex.overlay` of the base view's store
    with the speculated copies added, so the scheduler's kernel and the
    router's matrix gather read the speculated state straight from the
    overlay's possession matrix. The view keeps the base view's candidate
    table (the overlay shares its id space) and gets a fresh
    :class:`CycleCache`: the base cache's memos answer for the real store.
    ``pending_deliveries`` gathers the same table against the overlay, so
    speculated copies read as delivered.
    """

    def __init__(
        self, base: ClusterView, deliveries: Iterable[SpeculatedDelivery]
    ) -> None:
        super().__init__(
            topology=base.topology,
            store=base.store.overlay(
                (d.block_id, d.dst_server) for d in deliveries
            ),
            jobs=base.jobs,
            cycle=base.cycle,
            time=base.time,
            cycle_seconds=base.cycle_seconds,
            bulk_capacities=base.bulk_capacities,
            failed_agents=base.failed_agents,
            controller_available=base.controller_available,
            partial_bytes=base._partial,
            failed_links=base.failed_links,
            candidates=base.candidate_table(),
        )
