"""Exhaustive oracle: agreement with naive enumeration, budget guards, and
pruning transparency."""

import numpy as np
import pytest

from minmaxtsp import (DEPOT, EXACT, Instance, OracleBudget, OracleBudgetError,
                       Point, Vehicle, exact_minmax, oracle_feasible,
                       request_for, solve, solve_tsp, validate_solution)

from conftest import brute_minmax_objective, line_instance, random_instance


class TestAgreement:
    def test_single_vehicle_is_plain_optimal_tour(self):
        rng = np.random.default_rng(21)
        inst = random_instance(rng, n=7, k=1)
        plan = exact_minmax(inst)
        tour = solve_tsp(request_for(inst, 1, range(7), mode=EXACT))
        assert plan.objective == pytest.approx(tour.duration, abs=1e-9)

    def test_facing_vehicles_split_the_line(self):
        plan = exact_minmax(line_instance())
        assert plan.objective == pytest.approx(4.0)
        assert plan.targets_of(1) == frozenset({0, 1})
        assert plan.targets_of(2) == frozenset({2, 3})

    def test_matches_naive_partition_enumeration(self):
        rng = np.random.default_rng(22)
        memo = {}
        for trial in range(10):
            inst = random_instance(rng, n=int(rng.integers(4, 7)), k=2,
                                   assign_fraction=float(rng.uniform(0, 0.3)))
            plan = exact_minmax(inst)
            want = brute_minmax_objective(inst, memo)
            assert plan.objective == pytest.approx(want, abs=1e-9), f"trial {trial}"
            memo.clear()

    def test_vehicle_without_targets_parks(self):
        # Every target pinned to vehicle 1 leaves vehicle 2 an empty table.
        inst = Instance((Point(1, 2), Point(3, 4)),
                        (Vehicle(1, 1.0, Point(0, 0)), Vehicle(2, 1.0, Point(5, 5))),
                        {1: [0, 1]})
        plan = exact_minmax(inst)
        assert plan.tour_for(2).sequence == (DEPOT, DEPOT)
        assert plan.tour_for(2).duration == 0.0
        assert plan.targets_of(1) == frozenset({0, 1})

    def test_never_above_the_heuristic(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            inst = random_instance(rng, n=9, k=3, assign_fraction=0.2)
            heur, _ = solve(inst, rng=1)
            plan = exact_minmax(inst)
            assert plan.objective <= heur.objective + 1e-9

    def test_plans_are_feasible_and_pin_required_targets(self):
        rng = np.random.default_rng(24)
        for _ in range(5):
            inst = random_instance(rng, n=8, k=2, assign_fraction=0.4)
            plan = exact_minmax(inst)
            assert validate_solution(inst, plan) == []
            for vid, req in inst.required.items():
                assert req <= plan.targets_of(vid)

    def test_pruning_changes_nothing(self):
        rng = np.random.default_rng(25)
        for _ in range(8):
            inst = random_instance(rng, n=8, k=3)
            fast = exact_minmax(inst, prune=True)
            slow = exact_minmax(inst, prune=False)
            assert fast.objective == slow.objective
            assert [t.sequence for t in fast.tours] == [t.sequence for t in slow.tours]

    def test_repeat_calls_are_identical(self):
        rng = np.random.default_rng(26)
        inst = random_instance(rng, n=7, k=2)
        a = exact_minmax(inst)
        b = exact_minmax(inst)
        assert a == b


class TestBudget:
    def _fleet(self, k, n, required=None):
        targets = tuple(Point(float(i), float(i % 3)) for i in range(n))
        vehicles = tuple(Vehicle(j + 1, 1.0, Point(-1.0 - j, 0.0)) for j in range(k))
        return Instance(targets, vehicles, required)

    def test_partition_count_boundary(self):
        assert oracle_feasible(self._fleet(3, 13))        # 3^13 = 1,594,323
        assert not oracle_feasible(self._fleet(3, 14))    # 3^14 = 4,782,969

    def test_subset_size_boundary(self):
        ok = self._fleet(2, 16, {1: list(range(6))})      # 10 free + 6 required
        assert oracle_feasible(ok)
        toobig = self._fleet(2, 17, {1: list(range(7))})  # 10 free + 7 required
        assert not oracle_feasible(toobig)

    def test_custom_budget_is_honored(self):
        inst = self._fleet(2, 5)
        tight = OracleBudget(max_partitions=10)
        assert not oracle_feasible(inst, tight)
        with pytest.raises(OracleBudgetError):
            exact_minmax(inst, tight)
