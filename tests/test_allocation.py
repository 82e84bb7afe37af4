"""Load-balancing initialization: share bounds, depot spreading, and the
min-cost assignment against brute-force enumeration and against scipy's
``linear_sum_assignment``, which the in-package solver ports."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from minmaxtsp import (DEPOT, InfeasibleAllocationError, Instance, Point,
                       Vehicle, allocation, build_initial_solution,
                       min_target_counts, perturb_colocated_depots,
                       solve_load_balancing, validate_solution)
from minmaxtsp.allocation import COLOCATION_RADIUS, _min_cost_assignment

from conftest import (FixedAngleRng, allocation_cost, brute_allocation_cost,
                      brute_minmax_objective, line_instance, random_instance)


def _grid_targets(n, spread=10.0):
    return tuple(Point(spread * (i % 6), spread * (i // 6)) for i in range(n))


class TestMinTargetCounts:
    def test_speed_proportional_shares(self):
        targets = _grid_targets(30)
        vehicles = (Vehicle(1, 1.0, Point(0, 0)), Vehicle(2, 1.5, Point(1, 0)),
                    Vehicle(3, 2.0, Point(2, 0)))
        counts = min_target_counts(Instance(targets, vehicles))
        assert counts == {1: 6, 2: 10, 3: 13}
        assert sum(counts.values()) == 29

    def test_required_load_is_subtracted_and_clamped(self):
        targets = _grid_targets(30)
        vehicles = (Vehicle(1, 1.0, Point(0, 0)), Vehicle(2, 1.5, Point(1, 0)),
                    Vehicle(3, 2.0, Point(2, 0)))
        inst = Instance(targets, vehicles, {3: list(range(20))})
        assert min_target_counts(inst) == {1: 6, 2: 10, 3: 0}

    def test_single_vehicle_owes_every_free_target(self):
        targets = _grid_targets(9)
        inst = Instance(targets, (Vehicle(1, 1.0, Point(0, 0)),), {1: [2, 5]})
        assert min_target_counts(inst) == {1: len(inst.free_targets())}


class TestDepotSpreading:
    def test_colocated_pair_lands_on_opposite_sides(self):
        targets = (Point(50, 50),)
        vehicles = (Vehicle(1, 1.0, Point(3, 4)), Vehicle(2, 1.0, Point(3, 4)))
        eff = perturb_colocated_depots(Instance(targets, vehicles),
                                       FixedAngleRng(0.0))
        assert eff[1] == Point(3 + 0.1, 4)
        assert eff[2].x == pytest.approx(3 - 0.1)
        assert eff[2].y == pytest.approx(4, abs=1e-12)

    def test_triple_spreads_at_equal_angles(self):
        targets = (Point(50, 50),)
        depot = Point(0, 0)
        vehicles = tuple(Vehicle(i, 1.0, depot) for i in (1, 2, 3))
        eff = perturb_colocated_depots(Instance(targets, vehicles),
                                       np.random.default_rng(0))
        pts = [eff[i] for i in (1, 2, 3)]
        for p in pts:
            assert math.hypot(p.x, p.y) == pytest.approx(COLOCATION_RADIUS)
        gaps = {round(math.hypot(p.x - q.x, p.y - q.y), 12)
                for p, q in zip(pts, pts[1:] + pts[:1])}
        assert len(gaps) == 1  # equilateral: all pairwise gaps equal

    def test_distinct_depots_are_untouched(self):
        inst = line_instance()
        eff = perturb_colocated_depots(inst, np.random.default_rng(0))
        assert eff == {1: inst.vehicle(1).depot, 2: inst.vehicle(2).depot}

    def test_groups_draw_in_lowest_id_order(self):
        targets = (Point(50, 50),)
        vehicles = (Vehicle(1, 1.0, Point(0, 0)), Vehicle(2, 1.0, Point(5, 5)),
                    Vehicle(3, 1.0, Point(0, 0)), Vehicle(4, 1.0, Point(5, 5)))
        eff = perturb_colocated_depots(Instance(targets, vehicles),
                                       FixedAngleRng(0.0, math.pi / 2))
        assert eff[1].x == pytest.approx(0.1)   # first draw: group of 1 and 3
        assert eff[3].x == pytest.approx(-0.1)
        assert eff[2].y == pytest.approx(5.1)   # second draw: group of 2 and 4
        assert eff[4].y == pytest.approx(4.9)


class TestAssignment:
    def test_facing_vehicles_split_the_line(self):
        inst = line_instance()
        eff = perturb_colocated_depots(inst, np.random.default_rng(0))
        assert min_target_counts(inst) == {1: 2, 2: 2}
        alloc = solve_load_balancing(inst, eff)
        assert alloc == {1: frozenset({0, 1}), 2: frozenset({2, 3})}
        assert allocation_cost(inst, eff, alloc) == pytest.approx(6.0)

    def test_wildcard_tie_goes_to_lowest_vehicle_id(self):
        targets = (Point(5, 0),)
        vehicles = (Vehicle(1, 1.0, Point(0, 0)), Vehicle(2, 1.0, Point(10, 0)))
        inst = Instance(targets, vehicles)
        assert min_target_counts(inst) == {1: 0, 2: 0}
        eff = perturb_colocated_depots(inst, np.random.default_rng(0))
        alloc = solve_load_balancing(inst, eff)
        assert alloc == {1: frozenset({0}), 2: frozenset()}

    def test_matches_brute_force_cost(self):
        rng = np.random.default_rng(55)
        checked = 0
        for trial in range(30):
            n = int(rng.integers(5, 8))
            k = int(rng.integers(2, 4))
            inst = random_instance(rng, n=n, k=k,
                                   assign_fraction=float(rng.uniform(0, 0.35)),
                                   colocate_first_two=bool(trial % 3 == 0))
            eff = perturb_colocated_depots(inst, rng)
            try:
                alloc = solve_load_balancing(inst, eff)
            except InfeasibleAllocationError:
                continue
            got = allocation_cost(inst, eff, alloc)
            want = brute_allocation_cost(inst, eff, min_target_counts(inst))
            assert got == pytest.approx(want, abs=1e-9), f"trial {trial}"
            checked += 1
        assert checked >= 20

    def test_partition_and_lower_bounds_hold(self):
        rng = np.random.default_rng(56)
        for _ in range(10):
            inst = random_instance(rng, n=12, k=3, assign_fraction=0.2)
            eff = perturb_colocated_depots(inst, rng)
            counts = min_target_counts(inst)
            alloc = solve_load_balancing(inst, eff)
            assert list(alloc) == [v.id for v in inst.vehicles]
            union = set()
            for v in inst.vehicles:
                mine = alloc[v.id]
                assert len(mine) >= counts[v.id]
                assert not union & mine
                union |= mine
            assert union == set(inst.free_targets())

    def test_swapping_vehicle_labels_keeps_the_cost(self):
        rng = np.random.default_rng(58)
        inst = random_instance(rng, n=9, k=2, speeds=(1.0, 2.0))
        v1, v2 = inst.vehicles
        twin = Instance(inst.targets,
                        (Vehicle(1, v2.speed, v2.depot), Vehicle(2, v1.speed, v1.depot)))
        costs = []
        for case in (inst, twin):
            eff = perturb_colocated_depots(case, np.random.default_rng(0))
            alloc = solve_load_balancing(case, eff)
            costs.append(allocation_cost(case, eff, alloc))
        assert costs[0] == pytest.approx(costs[1], abs=1e-9)

    def test_single_vehicle_gets_what_the_assignment_gives(self):
        rng = np.random.default_rng(59)
        inst = random_instance(rng, n=12, k=1, assign_fraction=0.25)
        free = inst.free_targets()
        eff = perturb_colocated_depots(inst, np.random.default_rng(0))
        assert min_target_counts(inst) == {1: len(free)}
        with mock.patch.object(allocation, "_min_cost_assignment",
                               wraps=allocation._min_cost_assignment) as solver:
            assert solve_load_balancing(inst, eff) == {1: frozenset(free)}
        solver.assert_called_once()

    def test_infeasible_lower_bounds_raise(self):
        targets = _grid_targets(4)
        vehicles = (Vehicle(1, 1.0, Point(0, 0)), Vehicle(2, 1.0, Point(1, 1)))
        inst = Instance(targets, vehicles, {1: [0, 1, 2]})
        assert min_target_counts(inst) == {1: 0, 2: 2}
        eff = perturb_colocated_depots(inst, np.random.default_rng(0))
        with pytest.raises(InfeasibleAllocationError):
            solve_load_balancing(inst, eff)


def _scipy_assignment(cost):
    return linear_sum_assignment(np.array(cost))[1].tolist()


@st.composite
def _square_costs(draw):
    """Square cost matrix of size 1..64: uniform floats, small integers full of
    ties, a constant, or slots built as ``solve_load_balancing`` builds them
    (each vehicle's cost column repeated lower_j times, then the row
    minimum)."""
    n = draw(st.integers(1, 64))
    kind = draw(st.sampled_from(["uniform", "ties", "constant", "slots"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "uniform":
        return rng.uniform(0.0, 100.0, size=(n, n))
    if kind == "ties":
        return rng.integers(0, 4, size=(n, n)).astype(float)
    if kind == "constant":
        return np.full((n, n), float(rng.integers(0, 5)))
    k = draw(st.integers(1, 8))
    c = (rng.integers(0, 4, size=(n, k)).astype(float) if draw(st.booleans())
         else rng.uniform(0.0, 10.0, size=(n, k)))
    lowers = np.bincount(rng.integers(0, k, size=draw(st.integers(0, n))), minlength=k)
    cols = [c[:, j] for j in range(k) for _ in range(lowers[j])]
    cols += [c.min(axis=1)] * (n - len(cols))
    return np.column_stack(cols)


_GRID4 = st.builds(Point, st.integers(0, 3).map(float), st.integers(0, 3).map(float))


@st.composite
def _grid_fleets(draw):
    """Instance on a 4 x 4 grid (most targets share a spot, so most costs tie)
    with k = 2, 3 or 8 vehicles, sometimes all parked on one depot, and 0-30%
    of the targets pinned."""
    n = draw(st.integers(1, 30))
    k = draw(st.sampled_from([2, 3, 8]))
    targets = tuple(draw(st.lists(_GRID4, min_size=n, max_size=n)))
    depots = draw(st.lists(_GRID4, min_size=k, max_size=k))
    if draw(st.booleans()):
        depots = [depots[0]] * k
    speeds = draw(st.lists(st.sampled_from([1.0, 1.5, 2.0]), min_size=k, max_size=k))
    pinned = draw(st.lists(st.integers(0, n - 1), max_size=math.floor(0.3 * n),
                           unique=True))
    required = {}
    for t in pinned:
        required.setdefault(draw(st.integers(1, k)), []).append(t)
    vehicles = tuple(Vehicle(i + 1, speeds[i], depots[i]) for i in range(k))
    return Instance(targets, vehicles, required), draw(st.integers(0, 2**32 - 1))


def _balance(inst, seed):
    eff = perturb_colocated_depots(inst, np.random.default_rng(seed))
    try:
        return solve_load_balancing(inst, eff)
    except InfeasibleAllocationError as exc:
        return type(exc)


class TestAssignmentSolver:
    """The in-package solver returns scipy's column for every row."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_square_costs())
    def test_columns_equal_scipys(self, cost):
        assert _min_cost_assignment(cost.tolist()) == _scipy_assignment(cost)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_grid_fleets())
    def test_allocation_equals_a_scipy_backed_one(self, case):
        inst, seed = case
        got = _balance(inst, seed)
        with mock.patch.object(allocation, "_min_cost_assignment", _scipy_assignment):
            want = _balance(inst, seed)
        assert got == want

    def test_no_finite_path_raises_the_typed_error(self):
        with pytest.raises(InfeasibleAllocationError):
            _min_cost_assignment([[math.inf]])
        with pytest.raises(InfeasibleAllocationError):
            _min_cost_assignment([[1.0, math.inf], [2.0, math.inf]])


class TestBuildInitial:
    def test_unassigned_vehicle_parks_at_its_depot(self):
        inst = line_instance()
        alloc = {1: frozenset({0, 1, 2, 3}), 2: frozenset()}
        sol = build_initial_solution(inst, alloc)
        assert sol.tour_for(2).sequence == (DEPOT, DEPOT)
        assert sol.tour_for(2).duration == 0.0

    def test_line_split_gives_balanced_tours(self):
        inst = line_instance()
        eff = perturb_colocated_depots(inst, np.random.default_rng(0))
        sol = build_initial_solution(inst, solve_load_balancing(inst, eff))
        assert validate_solution(inst, sol) == []
        assert sol.objective == pytest.approx(4.0)
        assert brute_minmax_objective(inst) == pytest.approx(4.0)

    def test_required_targets_ride_with_their_vehicle(self):
        rng = np.random.default_rng(59)
        inst = random_instance(rng, n=10, k=2, assign_fraction=0.3)
        eff = perturb_colocated_depots(inst, rng)
        sol = build_initial_solution(inst, solve_load_balancing(inst, eff))
        assert validate_solution(inst, sol) == []
        for vid, req in inst.required.items():
            assert req <= sol.targets_of(vid)
