"""Seeded scenario generators for the four benchmark workloads.

Each workload turns a seed into a topology, a job list and (for the
diurnal day) background traffic; the program under test only ever sees
those generated inputs. Why each workload exists is in README.md.

The fixed-size bursts use a *balanced rotation*: a seeded permutation of
the ten DCs, where job ``i`` of a round is sourced at DC ``perm[i]`` and
sent to the DCs ``perm[i + o]`` for three seeded offsets ``o``. Every DC
therefore sources one job and receives three per round. The seed changes
which DCs pair up (and so which metro links carry the load), while the
load on each DC stays fixed; purely random placement made the simulated
completion times swing by 30% between seeds, too wide to gate on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.baselines.gingko import GingkoStrategy
from repro.core.config import BDSConfig
from repro.core.controller import BDSController
from repro.net.background import BackgroundTraffic
from repro.net.presets import baidu_like
from repro.net.simulator import SimConfig, Simulation
from repro.net.topology import Topology
from repro.overlay.job import MulticastJob
from repro.utils.units import GB, MB
from repro.workload.distributions import transfer_size_cdf
from repro.workload.generator import WorkloadGenerator

#: The diurnal day: 24 h at the paper's ΔT = 3 s.
DAY_CYCLES = 28_800


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a seeded input generator plus the strategy."""

    name: str
    #: seed -> (topology, jobs, background)
    inputs: Callable[[int], Tuple[Topology, List[MulticastJob], Optional[BackgroundTraffic]]]
    #: seed -> strategy under test
    strategy: Callable[[int], object]
    sim_config: Callable[[], SimConfig]
    #: Independent scenarios drawn from one benchmark seed. Metrics pool
    #: or average over them, so one seed's luck moves a figure less.
    instances: int


def _balanced_jobs(
    topology: Topology,
    seed: int,
    rounds: int,
    size_bytes: float,
    block_size: float,
) -> List[MulticastJob]:
    """``rounds`` balanced rotations of one job per source DC."""
    rng = np.random.default_rng(seed)
    dcs = topology.dc_names()
    n = len(dcs)
    perm = rng.permutation(n)
    jobs: List[MulticastJob] = []
    for r in range(rounds):
        offsets = rng.choice(np.arange(1, n), size=3, replace=False)
        for i in range(n):
            job = MulticastJob(
                job_id=f"job{r * n + i:03d}",
                src_dc=dcs[perm[i]],
                dst_dcs=tuple(sorted(dcs[perm[(i + int(o)) % n]] for o in offsets)),
                total_bytes=size_bytes,
                block_size=block_size,
            )
            job.bind(topology)
            jobs.append(job)
    return jobs


def _burst_inputs(seed: int):
    topology = baidu_like(servers_per_dc=8)
    return topology, _balanced_jobs(topology, seed, 1, 1 * GB, 2 * MB), None


def _sharded_inputs(seed: int):
    topology = baidu_like(servers_per_dc=8)
    return topology, _balanced_jobs(topology, seed, 3, 256 * MB, 2 * MB), None


def _gingko_inputs(seed: int):
    topology = baidu_like(servers_per_dc=4)
    return topology, _balanced_jobs(topology, seed, 1, 512 * MB, 2 * MB), None


#: Requests of one diurnal day: the flash crowd plus a seeded subset of
#: the day's other multicast arrivals.
DIURNAL_JOBS = 30
FLASH_CROWD_SIZE = 8


def _diurnal_inputs(seed: int):
    topology = baidu_like(servers_per_dc=4)
    horizon_s = DAY_CYCLES * 3.0
    # ~45 requests over the day leave ~38 multicasts, comfortably more
    # than the subset kept below.
    generator = WorkloadGenerator(
        topology.dc_names(), seed=seed, mean_interarrival_s=86_400.0 / 45
    )
    flash_at = 0.55 * 0.9 * horizon_s
    requests = generator.generate_diurnal(
        duration_s=0.9 * horizon_s,
        diurnal_amplitude=0.6,
        flash_crowd_at=0.55,
        flash_crowd_size=FLASH_CROWD_SIZE,
    )
    # A fixed request count per day: Poisson arrivals alone moved the
    # day's work by +-20% between seeds. Keep the flash crowd whole and a
    # seeded subset of the other multicasts.
    multicasts = [r for r in requests if r.is_multicast]
    flash = [r for r in multicasts if flash_at <= r.arrival_time < flash_at + FLASH_CROWD_SIZE]
    rest = [r for r in multicasts if r not in flash]
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    keep = DIURNAL_JOBS - len(flash)
    if len(rest) > keep:
        picked = set(rng.choice(len(rest), size=keep, replace=False).tolist())
        rest = [r for i, r in enumerate(rest) if i in picked]
    # Sizes are the trace CDF's stratified quantiles, dealt out by a
    # seeded permutation within the flash crowd and within the rest:
    # every day has the same size mix in both (scaled by 1e-4, at least
    # one block, clamped at 512 MB so one tail job cannot stretch the
    # day), and the seed decides which request gets which size.
    cdf = transfer_size_cdf()
    sizes: Dict[str, float] = {}
    for group in (flash, rest):
        n = len(group)
        for request, k in zip(group, rng.permutation(n)):
            quantile = cdf.quantile((k + 0.5) / n)
            sizes[request.request_id] = min(512 * MB, max(16 * MB, 1e-4 * quantile))
    jobs: List[MulticastJob] = []
    for request in sorted(rest + flash, key=lambda r: r.arrival_time):
        job = MulticastJob(
            job_id=request.request_id,
            src_dc=request.src_dc,
            dst_dcs=request.dst_dcs,
            total_bytes=sizes[request.request_id],
            block_size=16 * MB,
            arrival_time=request.arrival_time,
        )
        job.bind(topology)
        jobs.append(job)
    background = BackgroundTraffic(
        base_fraction=0.25,
        diurnal_fraction=0.2,
        noise_fraction=0.03,
        seed=seed,
        step_seconds=1800.0,
    )
    return topology, jobs, background


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="burst-uncapped",
            inputs=_burst_inputs,
            strategy=lambda seed: BDSController(BDSConfig(), seed=seed),
            sim_config=SimConfig,
            instances=3,
        ),
        Workload(
            name="diurnal-day",
            inputs=_diurnal_inputs,
            strategy=lambda seed: BDSController(BDSConfig(), seed=seed),
            sim_config=lambda: SimConfig(max_cycles=DAY_CYCLES),
            instances=6,
        ),
        Workload(
            name="sharded-affinity",
            inputs=_sharded_inputs,
            strategy=lambda seed: BDSController(
                BDSConfig(shards=4, shard_partition="affinity"), seed=seed
            ),
            sim_config=SimConfig,
            instances=2,
        ),
        Workload(
            name="gingko-baseline",
            inputs=_gingko_inputs,
            strategy=lambda seed: GingkoStrategy(seed=seed),
            sim_config=SimConfig,
            instances=8,
        ),
    )
}


def instance_seeds(name: str, seed: int) -> List[int]:
    """The scenario seeds one benchmark seed expands to."""
    count = WORKLOADS[name].instances
    return [int(np.random.SeedSequence([seed, k]).generate_state(1)[0]) for k in range(count)]


def build_simulation(name: str, seed: int) -> Simulation:
    """The set-up step the benchmark times: inputs, strategy, Simulation."""
    workload = WORKLOADS[name]
    topology, jobs, background = workload.inputs(seed)
    return Simulation(
        topology=topology,
        jobs=jobs,
        strategy=workload.strategy(seed),
        config=workload.sim_config(),
        background=background,
        seed=seed,
    )


def pair_count(jobs: List[MulticastJob]) -> int:
    """(block, destination server) pairs the jobs require."""
    return sum(len(j.blocks) * len(j.dst_dcs) for j in jobs)
