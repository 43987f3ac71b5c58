"""Strategy factory and simulation runner shared by experiments and benches."""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Sequence

from repro.baselines import (
    AkamaiStrategy,
    BulletStrategy,
    ChainStrategy,
    DirectStrategy,
    GingkoStrategy,
    OverlayStrategy,
)
from repro.core import BDSConfig, BDSController
from repro.core.formulation import StandardLPRouter
from repro.net.background import BackgroundTraffic
from repro.net.failures import FailureSchedule
from repro.net.simulator import SimConfig, SimResult, Simulation
from repro.net.topology import Topology
from repro.overlay.job import MulticastJob
from repro.utils.rng import SeedLike

STRATEGY_NAMES = (
    "bds",
    "bds-fptas",
    "bds-lp",
    "bds-standard-lp",
    "gingko",
    "bullet",
    "akamai",
    "chain",
    "direct",
)


def make_strategy(
    name: str, seed: SeedLike = None, config: Optional[BDSConfig] = None
) -> OverlayStrategy:
    """Build a fresh strategy by name.

    ``bds`` uses the fast greedy routing backend; ``bds-fptas`` / ``bds-lp``
    select the Garg–Könemann and exact-LP backends (set onto a copy of
    ``config`` when one is given); ``bds-standard-lp`` swaps in the
    non-decoupled joint LP router (the Fig. 13 baseline).
    """
    if name == "bds":
        return BDSController(config=config or BDSConfig(), seed=seed)
    if name in ("bds-fptas", "bds-lp"):
        cfg = dataclasses.replace(
            config or BDSConfig(), routing_backend=name[len("bds-"):]
        )
        return BDSController(config=cfg, seed=seed)
    if name == "bds-standard-lp":
        controller = BDSController(config=config or BDSConfig(), seed=seed)
        controller.router = StandardLPRouter()
        return controller
    if name == "gingko":
        return GingkoStrategy(seed=seed)
    if name == "bullet":
        return BulletStrategy(seed=seed)
    if name == "akamai":
        return AkamaiStrategy()
    if name == "chain":
        return ChainStrategy()
    if name == "direct":
        return DirectStrategy()
    raise ValueError(f"unknown strategy {name!r}; choose from {STRATEGY_NAMES}")


def run_simulation(
    topology: Topology,
    jobs: Sequence[MulticastJob],
    strategy_name: str,
    cycle_seconds: float = 3.0,
    max_cycles: int = 100_000,
    seed: SeedLike = None,
    background: Optional[BackgroundTraffic] = None,
    failures: Optional[FailureSchedule] = None,
    record_link_stats: bool = False,
    config: Optional[BDSConfig] = None,
    safety_threshold: float = 0.8,
    control_overhead_seconds: float = 0.0,
    flow_setup_seconds: float = 0.0,
    stop_when_complete: bool = True,
    links_of_interest: tuple = (),
    event_engine: bool = True,
    record_cycle_stats: bool = True,
) -> SimResult:
    """Run one strategy over the given jobs and return the result.

    Exposes every :class:`SimConfig` knob — including the
    ``event_engine`` switch and the Fig. 12c overhead model — so sweeps
    and the parallel engine can exercise both engines without
    hand-building a :class:`Simulation`. ``record_cycle_stats=False``
    drops the per-cycle records for day-scale horizons where the stats
    list would dominate memory. ``config`` configures the BDS strategies,
    the sharded control plane included (see :class:`BDSConfig`).
    """
    strategy = make_strategy(strategy_name, seed=seed, config=config)
    sim = Simulation(
        topology=topology,
        jobs=list(jobs),
        strategy=strategy,
        config=SimConfig(
            cycle_seconds=cycle_seconds,
            max_cycles=max_cycles,
            record_link_stats=record_link_stats,
            safety_threshold=safety_threshold,
            control_overhead_seconds=control_overhead_seconds,
            flow_setup_seconds=flow_setup_seconds,
            stop_when_complete=stop_when_complete,
            links_of_interest=tuple(links_of_interest),
            event_engine=event_engine,
            record_cycle_stats=record_cycle_stats,
        ),
        background=background,
        failures=failures,
        seed=seed,
    )
    try:
        return sim.run()
    finally:
        # Release any process fan-out workers the strategy holds
        # (sharded controller in shard_mode="process"; no-op otherwise).
        shutdown = getattr(strategy, "shutdown", None)
        if shutdown is not None:
            shutdown()


def compare_strategies(
    topology_factory: Callable[[], Topology],
    jobs_factory: Callable[[Topology], List[MulticastJob]],
    strategy_names: Sequence[str],
    cycle_seconds: float = 3.0,
    max_cycles: int = 100_000,
    seed: SeedLike = 7,
    workers: int = 1,
    cache=None,
    progress: bool = False,
) -> Dict[str, SimResult]:
    """Run several strategies over *fresh* identical topologies and jobs.

    Factories are invoked per strategy so that no simulation state (job
    binding, strategy caches) leaks between runs. ``workers>1`` fans the
    per-strategy runs out over a process pool
    (:func:`repro.analysis.parallel.run_many`) with results bit-identical
    to ``workers=1``; ``cache`` (a
    :class:`repro.analysis.runcache.RunCache`) skips runs whose inputs
    are already cached.
    """
    from repro.analysis.parallel import RunSpec, run_many

    def scenario() -> tuple:
        topology = topology_factory()
        return topology, jobs_factory(topology)

    specs = [
        RunSpec(
            strategy=name,
            seed=seed,
            scenario=scenario,
            label=name,
            cycle_seconds=cycle_seconds,
            max_cycles=max_cycles,
        )
        for name in strategy_names
    ]
    outcomes = run_many(specs, workers=workers, cache=cache, progress=progress)
    results: Dict[str, SimResult] = {}
    for name, outcome in zip(strategy_names, outcomes):
        if not outcome.ok:
            raise RuntimeError(
                f"strategy {name!r} failed: {outcome.error}"
            )
        results[name] = outcome.result
    return results
