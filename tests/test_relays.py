"""Relay-DC support: Type I overlay paths through non-destination DCs."""


from repro.core import BDSConfig, BDSController
from repro.core.scheduling import RarestFirstScheduler
from repro.net.simulator import SimConfig, Simulation
from repro.net.topology import Topology
from repro.overlay.job import MulticastJob
from repro.utils.units import MB, MBps


def relay_topology():
    """Thin direct A->C link; fat two-leg route through B."""
    topo = Topology()
    for name in ("A", "B", "C"):
        topo.add_dc(name)
        for j in range(2):
            topo.add_server(f"{name}-s{j}", name, uplink=50 * MBps, downlink=50 * MBps)
    topo.add_bidirectional_link("A", "B", 100 * MBps)
    topo.add_bidirectional_link("B", "C", 100 * MBps)
    topo.add_bidirectional_link("A", "C", 5 * MBps)
    return topo


def relay_job(with_relay: bool) -> MulticastJob:
    return MulticastJob(
        job_id="j",
        src_dc="A",
        dst_dcs=("C",),
        total_bytes=120 * MB,
        block_size=4 * MB,
        relay_dcs=("B",) if with_relay else (),
    )


class TestRelayScheduling:
    def test_relay_placements_listed(self):
        topo = relay_topology()
        job = relay_job(True)
        job.bind(topo)
        sim = Simulation(topo, [job], BDSController(seed=0), SimConfig())
        view = sim.snapshot_view()
        placements = [
            s for s in RarestFirstScheduler().select(view) if s.is_relay
        ]
        assert len(placements) == job.num_blocks
        assert all(s.dst_dc == "B" for s in placements)
        assert all(
            s.dst_server == job.assigned_server("B", s.block.block_id)
            for s in placements
        )

    def test_relay_selections_sorted_last(self):
        topo = relay_topology()
        job = relay_job(True)
        job.bind(topo)
        sim = Simulation(topo, [job], BDSController(seed=0), SimConfig())
        view = sim.snapshot_view()
        selections = RarestFirstScheduler(use_relays=True).select(view)
        flags = [s.is_relay for s in selections]
        # All real deliveries come before any relay placement.
        assert flags == sorted(flags)
        assert any(flags) and not all(flags)

    def test_use_relays_false_skips_placements(self):
        topo = relay_topology()
        job = relay_job(True)
        job.bind(topo)
        sim = Simulation(topo, [job], BDSController(seed=0), SimConfig())
        view = sim.snapshot_view()
        selections = RarestFirstScheduler(use_relays=False).select(view)
        assert not any(s.is_relay for s in selections)

    def test_relay_dc_fills_without_counting_completion(self):
        topo = relay_topology()
        job = relay_job(True)
        job.bind(topo)
        result = Simulation(
            topo,
            [job],
            BDSController(seed=0),
            SimConfig(max_cycles=3000),
            seed=0,
        ).run()
        assert result.all_complete
        # Relay copies exist but the relay DC is not in dc_completion.
        assert ("j", "B") not in result.dc_completion
        relayed = sum(
            1
            for block in job.blocks
            if result.store.dc_has_block("B", block.block_id)
        )
        assert relayed > 0


class TestRelayBenefit:
    def test_relays_speed_up_thin_direct_route(self):
        """The Fig. 1 effect: store-and-forward through a relay DC beats
        the thin network-layer route by a large factor."""
        times = {}
        for with_relay in (False, True):
            topo = relay_topology()
            job = relay_job(with_relay)
            job.bind(topo)
            config = BDSConfig(use_relays=with_relay)
            result = Simulation(
                topo,
                [job],
                BDSController(config=config, seed=0),
                SimConfig(max_cycles=3000),
                seed=0,
            ).run()
            times[with_relay] = result.completion_time("j")
        assert times[True] < times[False] / 2
