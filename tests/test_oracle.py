"""Exact oracle: agreement with naive enumeration and with the partition
odometer it replaced, its tie rule, and the budget guards."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minmaxtsp import (DEPOT, EXACT, Instance, OracleBudgetError, Point, Solution, Vehicle,
                       exact_minmax, oracle_feasible, solve, validate_solution)
from minmaxtsp.tsp import TourRequest, solve_tsp
from minmaxtsp.oracle import _duration_tables

from conftest import brute_minmax_objective, line_instance, random_instance


def _odometer_reference(inst: Instance) -> Solution:
    """Every partition of the free targets in mixed-radix counter order (one
    digit per free target, vehicle index as digit value); the first partition
    with the least tabulated makespan is the plan."""
    free = inst.free_targets()
    nf = len(free)
    k = inst.k
    tables = _duration_tables(inst, free)
    digits = [0] * nf
    masks = [0] * k
    masks[0] = (1 << nf) - 1
    best_obj = np.inf
    best_masks = list(masks)
    while True:
        worst = max(float(tables[j][masks[j]]) for j in range(k))
        if worst < best_obj:
            best_obj = worst
            best_masks = list(masks)
        p = 0
        while p < nf and digits[p] == k - 1:
            masks[k - 1] ^= 1 << p
            masks[0] |= 1 << p
            digits[p] = 0
            p += 1
        if p == nf:
            break
        masks[digits[p]] ^= 1 << p
        digits[p] += 1
        masks[digits[p]] |= 1 << p
    tours = []
    for j, v in enumerate(inst.vehicles):
        ids = {free[p] for p in range(nf) if best_masks[j] >> p & 1}
        ids |= inst.required_for(v.id)
        tours.append(solve_tsp(TourRequest(inst, v.id, ids, EXACT)))
    return Solution(tuple(tours))


@st.composite
def _oracle_instances(draw):
    """1-4 vehicles and 1-8 targets, 0-100% of them pinned, some depots shared:
    uniform coordinates and speeds, or a 4 x 4 integer grid with unit speeds
    (most tours then tie)."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        xy = rng.integers(0, 4, size=(n + k, 2)).astype(float)
        speeds = [1.0] * k
    else:
        xy = rng.uniform(0.0, 100.0, size=(n + k, 2))
        speeds = rng.uniform(0.5, 2.5, size=k).tolist()
    depots = [Point(float(x), float(y)) for x, y in xy[n:]]
    for j in range(1, k):
        if draw(st.booleans()):
            depots[j] = depots[0]
    required = {}
    n_pinned = draw(st.integers(0, n))
    for t in rng.choice(n, size=n_pinned, replace=False):
        required.setdefault(int(rng.integers(1, k + 1)), []).append(int(t))
    targets = tuple(Point(float(x), float(y)) for x, y in xy[:n])
    vehicles = tuple(Vehicle(j + 1, float(speeds[j]), depots[j]) for j in range(k))
    return Instance(targets, vehicles, required)


class TestAgreement:
    def test_single_vehicle_is_plain_optimal_tour(self):
        rng = np.random.default_rng(21)
        inst = random_instance(rng, n=7, k=1)
        plan = exact_minmax(inst)
        tour = solve_tsp(TourRequest(inst, 1, range(7), mode=EXACT))
        assert plan.objective == pytest.approx(tour.duration, abs=1e-9)

    def test_facing_vehicles_split_the_line(self):
        plan = exact_minmax(line_instance())
        assert plan.objective == pytest.approx(4.0)
        assert frozenset(plan.tour_for(1).targets()) == frozenset({0, 1})
        assert frozenset(plan.tour_for(2).targets()) == frozenset({2, 3})

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
        assert frozenset(plan.tour_for(1).targets()) == frozenset({0, 1})

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
                assert req <= frozenset(plan.tour_for(vid).targets())

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_oracle_instances())
    def test_objective_equals_the_odometer(self, inst):
        assert exact_minmax(inst).objective == _odometer_reference(inst).objective

    def test_ties_go_to_the_lowest_mask_from_the_last_vehicle_down(self):
        # Three unit-speed vehicles on one depot, three targets at distance 1:
        # every one-target-each split has makespan 2.  Vehicle 3 takes the
        # lowest-mask share, target 0; vehicle 2 the lowest of what is left.
        inst = Instance((Point(1, 0), Point(-1, 0), Point(0, 1)),
                        tuple(Vehicle(j, 1.0, Point(0, 0)) for j in (1, 2, 3)))
        plan = exact_minmax(inst)
        assert plan.objective == 2.0
        assert [frozenset(plan.tour_for(j).targets()) for j in (1, 2, 3)] == [{2}, {1}, {0}]

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

    def test_the_refusal_names_the_rule_that_refused(self):
        # The Held-Karp refusal once reported "1^17 partitions, cap 2000000".
        with pytest.raises(OracleBudgetError, match=r"\(3\^14 partitions, cap 2000000\)"):
            exact_minmax(self._fleet(3, 14))
        with pytest.raises(OracleBudgetError,
                           match=r"\(vehicle 1 may get 17 targets, Held-Karp cap 16\)"):
            exact_minmax(self._fleet(1, 17))
        with pytest.raises(OracleBudgetError, match="vehicle 1 may get 17 targets"):
            exact_minmax(self._fleet(2, 17, {1: list(range(7))}))  # 10 free + 7

    def test_custom_budget_is_honored(self):
        inst = self._fleet(3, 14)                         # 3^14 > MAX_PARTITIONS
        assert not oracle_feasible(inst)
        with pytest.raises(OracleBudgetError):
            exact_minmax(inst)
