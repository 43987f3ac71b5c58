"""The vectorized Fleischer FPTAS: incidence compilation, the (1−ε)³
guarantee against the exact LP on randomized instances, cross-cycle warm
starts, and the greedy backend's incidence rewrite."""

import random

import numpy as np
import pytest

from repro.core.routing import BDSRouter
from repro.lp.fptas import max_multicommodity_flow
from repro.lp.incidence import PathIncidence, build_incidence
from repro.lp.mcf import Commodity, PathMCF
from repro.net.cycle_cache import RoutingWarmStore


def commodity(name, *paths, demand=None):
    return Commodity(name=name, paths=tuple(tuple(p) for p in paths), demand=demand)


def random_instance(seed, n_commodities=None, allow_zero_caps=True):
    """A random explicit-path MCF instance, deterministic per seed."""
    rng = random.Random(seed)
    n_res = rng.randint(4, 30)
    caps = {}
    for i in range(n_res):
        if allow_zero_caps and rng.random() < 0.15:
            caps[f"r{i}"] = 0.0
        else:
            caps[f"r{i}"] = rng.uniform(0.5, 100.0)
    names = sorted(caps)
    commodities = []
    for ci in range(n_commodities or rng.randint(1, 15)):
        paths = [
            tuple(rng.sample(names, rng.randint(1, 4)))
            for _ in range(rng.randint(1, 4))
        ]
        if rng.random() < 0.25:
            paths.append(paths[0])  # duplicate candidate path
        demand = rng.choice([None, rng.uniform(0.1, 60.0)])
        commodities.append(
            Commodity(name=f"c{ci}", paths=tuple(paths), demand=demand)
        )
    return commodities, caps


def usage_of(commodities, path_flows):
    by_name = {c.name: c for c in commodities}
    usage = {}
    for (name, pi), rate in path_flows.items():
        for res in by_name[name].paths[pi]:
            usage[res] = usage.get(res, 0.0) + rate
    return usage


class TestPathIncidence:
    def test_basic_layout(self):
        inc = PathIncidence.build(
            [commodity("a", ["x", "y"], ["z"]), commodity("b", ["y"], demand=2)],
            {"x": 1.0, "y": 2.0, "z": 3.0},
        )
        assert inc.num_paths == 3
        assert inc.num_commodities == 2
        assert inc.res_keys == ["x", "y", "z"]
        assert list(inc.path_commodity) == [0, 0, 1]
        assert list(inc.path_orig_index) == [0, 1, 0]
        assert inc.commodity_path_range == [(0, 2), (2, 3)]
        assert list(inc.path_min_cap) == [1.0, 3.0, 2.0]
        assert np.isinf(inc.demands[0]) and inc.demands[1] == 2.0

    def test_duplicate_paths_keep_distinct_indices(self):
        # Regression for the list.index aliasing bug: duplicates must not
        # collapse onto the first occurrence's index.
        inc = PathIncidence.build(
            [commodity("c", ["l"], ["l"], ["l"])], {"l": 5.0}
        )
        assert list(inc.path_orig_index) == [0, 1, 2]

    def test_zero_capacity_drops_path(self):
        inc = PathIncidence.build(
            [commodity("c", ["dead"], ["live"])], {"dead": 0.0, "live": 4.0}
        )
        assert inc.num_paths == 1
        assert list(inc.path_orig_index) == [1]

    def test_zero_demand_drops_commodity_paths(self):
        inc = PathIncidence.build(
            [commodity("c", ["l"], demand=0.0)], {"l": 5.0}
        )
        assert inc.num_paths == 0
        assert inc.commodity_path_range == [(0, 0)]

    def test_strict_rejects_unknown_resource(self):
        with pytest.raises(KeyError):
            PathIncidence.build([commodity("c", ["ghost"])], {"l": 1.0})

    def test_lenient_treats_unknown_as_zero_capacity(self):
        inc = PathIncidence.build(
            [commodity("c", ["ghost"], ["l"])], {"l": 1.0}, strict=False
        )
        assert inc.num_paths == 1
        assert inc.caps[inc.res_index["ghost"]] == 0.0

    def test_vectorized_reductions_match_python(self):
        commodities, caps = random_instance(7, allow_zero_caps=False)
        inc = PathIncidence.build(commodities, caps)
        per_res = np.arange(1.0, inc.num_resources + 1)
        sums = inc.path_sums(per_res)
        mins = inc.path_mins(per_res)
        for pid in range(inc.num_paths):
            idxs = inc.path_resources(pid)
            assert sums[pid] == pytest.approx(sum(per_res[i] for i in idxs))
            assert mins[pid] == min(per_res[i] for i in idxs)

    def test_flows_to_path_map_accumulates_and_scales(self):
        inc = PathIncidence.build([commodity("c", ["l"], ["l"])], {"l": 5.0})
        flows = np.array([1.0, 2.0])
        out = inc.flows_to_path_map(flows, scale=2.0)
        assert out == {("c", 0): 2.0, ("c", 1): 4.0}

    def test_build_incidence_empty(self):
        assert build_incidence([], {}) is None


class TestFPTASGuarantee:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("epsilon", [0.05, 0.1, 0.3])
    def test_objective_within_guarantee_and_feasible(self, seed, epsilon):
        commodities, caps = random_instance(seed)
        result = max_multicommodity_flow(commodities, caps, epsilon=epsilon)
        # Feasibility is exact (post re-clip).
        for res, used in usage_of(commodities, result.path_flows).items():
            assert used <= caps[res] * (1 + 1e-9) + 1e-9
        # (1−ε)³-optimality against the exact LP.
        lp = PathMCF(commodities, caps).solve_lp()
        assert result.objective >= (1 - epsilon) ** 3 * lp.objective - 1e-9
        assert result.objective <= lp.objective * (1 + 1e-6) + 1e-6
        # The self-reported dual certificate brackets the optimum too.
        assert result.dual_bound >= lp.objective * (1 - 1e-6) - 1e-9

    def test_duplicate_paths_route_independently(self):
        # Both duplicates may carry flow; together they fill the link.
        result = max_multicommodity_flow(
            [commodity("c", ["l"], ["l"])], {"l": 10.0}, epsilon=0.05
        )
        assert result.objective == pytest.approx(10.0, rel=0.2)
        assert all(name == "c" for (name, _pi) in result.path_flows)

    def test_telemetry_populated(self):
        commodities, caps = random_instance(3)
        result = max_multicommodity_flow(commodities, caps, epsilon=0.1)
        if result.objective > 0:
            assert result.iterations > 0
            assert result.phases > 0
        assert result.warm_start == "cold"

    @pytest.mark.parametrize("seed", range(8))
    def test_six_commodity_instances_within_lp_floor(self, seed):
        commodities, caps = random_instance(seed, n_commodities=6)
        result = max_multicommodity_flow(commodities, caps, epsilon=0.1)
        lp = PathMCF(commodities, caps).solve_lp()
        assert result.objective >= (1 - 0.1) ** 3 * lp.objective - 1e-9
        assert result.objective <= lp.objective * (1 + 1e-6) + 1e-6

    def test_golden_instance_saturates_bottleneck(self):
        caps = {"shared": 6.0, "pa": 10.0, "pb": 10.0}
        commodities = [
            commodity("a", ["shared", "pa"]),
            commodity("b", ["shared", "pb"]),
        ]
        result = max_multicommodity_flow(commodities, caps, epsilon=0.05)
        assert result.objective == pytest.approx(6.0, rel=0.05)


class TestWarmStart:
    def test_identical_input_reuses_bit_identically(self):
        commodities, caps = random_instance(11)
        cold = max_multicommodity_flow(commodities, caps, epsilon=0.1)
        again = max_multicommodity_flow(
            commodities, caps, epsilon=0.1, warm=cold.warm_state
        )
        assert again.warm_start == "reuse"
        assert again.path_flows == cold.path_flows  # bit-identical rates
        assert again.objective == cold.objective
        assert again.iterations == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_warm_solve_keeps_guarantee_under_demand_drift(self, seed):
        commodities, caps = random_instance(seed, allow_zero_caps=False)
        prev = max_multicommodity_flow(commodities, caps, epsilon=0.1)
        moved = [
            Commodity(
                name=c.name,
                paths=c.paths,
                demand=None if c.demand is None else c.demand * 0.8,
            )
            for c in commodities
        ]
        warm = max_multicommodity_flow(
            moved, caps, epsilon=0.1, warm=prev.warm_state
        )
        assert warm.warm_start in ("warm", "cold-fallback", "reuse")
        lp = PathMCF(moved, caps).solve_lp()
        assert warm.objective >= (1 - 0.1) ** 3 * lp.objective - 1e-9
        for res, used in usage_of(moved, warm.path_flows).items():
            assert used <= caps[res] * (1 + 1e-9) + 1e-9

    def test_capacity_change_goes_cold(self):
        commodities, caps = random_instance(13, allow_zero_caps=False)
        prev = max_multicommodity_flow(commodities, caps, epsilon=0.1)
        assert prev.warm_state is not None
        bumped = {k: v * 1.5 for k, v in caps.items()}
        result = max_multicommodity_flow(
            commodities, bumped, epsilon=0.1, warm=prev.warm_state
        )
        assert result.warm_start == "cold"

    def test_epsilon_change_goes_cold(self):
        commodities, caps = random_instance(14, allow_zero_caps=False)
        prev = max_multicommodity_flow(commodities, caps, epsilon=0.1)
        result = max_multicommodity_flow(
            commodities, caps, epsilon=0.2, warm=prev.warm_state
        )
        assert result.warm_start == "cold"

    def test_duplicate_commodity_names_skip_warm_state(self):
        commodities = [commodity("c", ["l"]), commodity("c", ["l"])]
        result = max_multicommodity_flow(commodities, {"l": 4.0}, epsilon=0.1)
        assert result.warm_state is None


class TestRoutingWarmStore:
    def test_round_trip_same_key(self):
        store = RoutingWarmStore()
        assert store.validate(1, frozenset()) is None
        sentinel = object()
        store.store(1, frozenset(), sentinel)
        assert store.validate(1, frozenset()) is sentinel
        assert store.invalidations == 0

    def test_epoch_change_invalidates(self):
        store = RoutingWarmStore()
        store.store(1, frozenset(), object())
        assert store.validate(2, frozenset()) is None
        assert store.invalidations == 1

    def test_failure_set_change_invalidates(self):
        store = RoutingWarmStore()
        store.store(1, frozenset(), object())
        assert store.validate(1, frozenset({("A", "B")})) is None
        assert store.invalidations == 1


class TestGreedyIncidenceRewrite:
    @pytest.mark.parametrize("seed", range(40))
    def test_bit_identical_to_reference_loop(self, seed):
        """The vectorized greedy must reproduce the historical dict-walking
        loop exactly — it feeds the golden determinism fingerprints."""
        rng = random.Random(seed)
        n_res = rng.randint(3, 25)
        caps = {
            f"r{i}": rng.choice([0.0, rng.uniform(0.5, 80.0)])
            for i in range(n_res)
        }
        names = sorted(caps) + ["unknown-a", "unknown-b"]
        commodities = []
        for ci in range(rng.randint(1, 20)):
            paths = [
                tuple(rng.choice(names) for _ in range(rng.randint(1, 5)))
                for _ in range(rng.randint(1, 4))
            ]
            if rng.random() < 0.2:
                paths.append(paths[0])
            demand = rng.choice([None, 0.0, rng.uniform(0.1, 60.0)])
            commodities.append(
                Commodity(name=f"c{ci}", paths=tuple(paths), demand=demand)
            )
        expected = _reference_greedy(commodities, caps)
        actual = BDSRouter._solve_greedy(commodities, caps)
        assert actual == expected  # exact float equality, key for key


def _reference_greedy(commodities, capacities, fair_rounds=3):
    """Verbatim copy of the pre-incidence greedy loop (the yardstick)."""
    residual = dict(capacities)
    rates = {}
    remaining = {
        i: (c.demand if c.demand is not None else float("inf"))
        for i, c in enumerate(commodities)
    }

    def push_flow(index, limit_fraction):
        commodity = commodities[index]
        demand = remaining[index]
        while demand > 1e-9:
            best_pi, best_room = -1, 0.0
            for pi, path in enumerate(commodity.paths):
                room = min(residual.get(r, 0.0) for r in path)
                if room > best_room:
                    best_room = room
                    best_pi = pi
            if best_pi < 0 or best_room <= 1e-9:
                break
            push = min(demand, best_room * limit_fraction)
            if push <= 1e-9:
                break
            key = (commodity.name, best_pi)
            rates[key] = rates.get(key, 0.0) + push
            for res in commodity.paths[best_pi]:
                residual[res] = residual.get(res, 0.0) - push
            demand -= push
            if limit_fraction < 1.0:
                break
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
