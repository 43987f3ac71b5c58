"""Outside-in span tracing of the program's layers.

The benchmark wraps the public entry point of each layer for the length
of one traced run and records nested spans (name, start, end, parent) in
memory. A span's self time is its duration minus the part of it that its
child spans cover, so the self times of all spans add up to the root
span: that sum is the per-layer split of the traced wall.

The split is measured from outside because the program's own stage
timers do not separate the layers: its ``rate_resolve`` stage includes
flow construction, and directive validation has no stage counter at all.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: A recorded span: [name, start, end, parent index or -1].
Span = List


class Tracer:
    """Nested spans and counters, kept in memory until written out."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        #: (end time, directive count) of the last decide the simulator
        #: made, until the rate call that follows it closes its
        #: validation span.
        self.pending_validate: Optional[Tuple[float, int]] = None

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> float:
        if not self._stack or self._stack[-1] != idx:
            raise RuntimeError(f"span {self.spans[idx][0]!r} closed out of order")
        self._stack.pop()
        now = self.clock()
        self.spans[idx][2] = now
        return now

    def add(self, name: str, start: float, end: float) -> None:
        """A closed span under the currently open one."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent])

    def parent_name(self, idx: int) -> Optional[str]:
        parent = self.spans[idx][3]
        return self.spans[parent][0] if parent >= 0 else None

    def chrome_trace(self) -> dict:
        """The spans as Chrome trace-event JSON (opens in Perfetto)."""
        origin = min((s[1] for s in self.spans), default=0.0)
        return {
            "traceEvents": [
                {
                    "name": name,
                    "ph": "X",
                    "ts": (start - origin) * 1e6,
                    "dur": (end - start) * 1e6,
                    "pid": 1,
                    "tid": 1,
                }
                for name, start, end, _parent in self.spans
            ],
            "displayTimeUnit": "ms",
        }


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if end is None:
            raise ValueError(f"span {name!r} was never closed")
        if parent >= 0:
            children[parent].append((start, end))
    out: List[float] = []
    for idx, (_name, start, end, _parent) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start = max(c_start, cursor)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


def aggregate(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, summed duration and summed self time."""
    totals: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for (name, start, end, _parent), own in zip(spans, self_times(spans)):
        entry = totals[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += own
    return dict(totals)


class Instrumentation:
    """Installs span wrappers around each layer's entry point, and removes them.

    ``sims`` and ``mirrors`` collect the Simulation and ShardMirror
    objects a traced run creates, so their cycle caches can be read
    after the run.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.sims: List[object] = []
        self.mirrors: Dict[int, object] = {}
        self._saved: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "Instrumentation":
        from repro.baselines.gingko import GingkoStrategy
        from repro.core.controller import BDSController
        from repro.core.routing import BDSRouter
        from repro.core.scheduling import RarestFirstScheduler
        from repro.core.shardexec import ShardFeed, ShardMirror
        from repro.net import simulator
        from repro.overlay.store import PossessionIndex

        tracer = self.tracer
        counters = tracer.counters

        def decided(idx, args, out):
            # Only the simulator's own decide call opens a validation
            # interval; a decide nested in another (the controller's
            # fallback) is part of its parent.
            if tracer.parent_name(idx) == "simulator.run":
                tracer.pending_validate = (tracer.spans[idx][2], len(out))

        def before_rate(args, kwargs):
            flows = args[0] if args else kwargs["flows"]
            counters["flow.flows"] += len(flows)
            pending = tracer.pending_validate
            if pending is not None:
                tracer.pending_validate = None
                tracer.add("simulator.validate", pending[0], tracer.clock())
                counters["validate.directives"] += pending[1]
                counters["validate.flows"] += len(flows)

        def selected(idx, args, out):
            counters["scheduling.blocks_selected"] += len(out)

        def routed(idx, args, out):
            counters["routing.directives"] += len(out[0])

        def mirror_decided(idx, args, out):
            self.mirrors[id(args[0])] = args[0]
            counters["shardexec.payload_bytes"] += out.payload_bytes

        def recorded(idx, args, out):
            counters["store.deliveries"] += len(out)

        def sim_built(idx, args, out):
            self.sims.append(args[0])

        self._wrap(BDSController, "decide", "controller.decide", after=decided)
        self._wrap(GingkoStrategy, "decide", "baselines.decide", after=decided)
        self._wrap(RarestFirstScheduler, "select", "scheduling.select", after=selected)
        self._wrap(BDSRouter, "route", "routing.route", after=routed)
        self._wrap(ShardFeed, "payload", "shardexec.feed")
        self._wrap(ShardMirror, "apply", "shardexec.apply")
        self._wrap(ShardMirror, "decide", "shardexec.decide", after=mirror_decided)
        for fn in ("clip_rates_to_capacity", "max_min_fair_rates"):
            self._wrap(simulator, fn, "flow.rate", before=before_rate)
        self._wrap(PossessionIndex, "record_deliveries", "store.record", after=recorded)
        self._wrap(simulator.Simulation, "__init__", "setup.sim_init", after=sim_built)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, owner, attr: str, span: str, before=None, after=None) -> None:
        original = vars(owner)[attr]
        tracer = self.tracer

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = tracer.begin(span)
            try:
                out = original(*args, **kwargs)
            finally:
                tracer.end(idx)
            if after is not None:
                after(idx, args, out)
            return out

        wrapper.__wrapped__ = original
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)


#: Span name -> the per-layer metric its self time is reported as. The
#: self times of these spans add up to the traced wall.
SELF_METRICS = {
    "wall": "trace.residual_s",
    "setup": "setup.build_s",
    "setup.sim_init": "setup.sim_init_s",
    "simulator.run": "simulator.self_s",
    "simulator.validate": "simulator.validate_s",
    "controller.decide": "controller.decide_self_s",
    "baselines.decide": "baselines.decide_self_s",
    "scheduling.select": "scheduling.select_s",
    "routing.route": "routing.route_s",
    "shardexec.feed": "shardexec.feed_s",
    "shardexec.apply": "shardexec.apply_s",
    "shardexec.decide": "shardexec.decide_self_s",
    "flow.rate": "flow.rate_s",
    "store.record": "store.record_s",
}

#: Program stage (``SimResult.stage_time_totals``) -> the spans that time
#: the same work from outside. Stages without a matching span are left out.
CROSSCHECK = {
    "decide": ("controller.decide", "baselines.decide"),
    # Decentralized baselines report their whole decide as the schedule
    # stage.
    "schedule": ("scheduling.select", "baselines.decide"),
    "route": ("routing.route",),
    "rate_resolve": ("flow.rate",),
    "deliver_apply": ("store.record",),
}

#: A stage disagrees with its spans beyond this share of the larger of
#: the two, or beyond the absolute floor, whichever is larger.
CROSSCHECK_REL_TOL = 0.10
CROSSCHECK_ABS_TOL_S = 0.005


def crosscheck(
    stage_totals: Dict[str, float], agg: Dict[str, Dict[str, float]]
) -> List[dict]:
    """The program's stage timers beside the outside-in spans."""
    rows = []
    for stage, names in CROSSCHECK.items():
        present = [n for n in names if n in agg]
        if not present:
            continue
        spans_s = sum(agg[n]["total_s"] for n in present)
        program_s = stage_totals.get(stage, 0.0)
        tolerance = max(
            CROSSCHECK_REL_TOL * max(program_s, spans_s), CROSSCHECK_ABS_TOL_S
        )
        rows.append(
            {
                "stage": stage,
                "program_s": program_s,
                "spans": present,
                "spans_s": spans_s,
                "agree": abs(program_s - spans_s) <= tolerance,
            }
        )
    return rows


def write_chrome_trace(tracer: Tracer, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tracer.chrome_trace(), fh)
