"""Load-balancing initialization: share bounds against exact rational
floors, depot spreading, the successive-shortest-path allocation against
brute-force enumeration and against a reference that poses stage 1 as one
n x n assignment, each vehicle's cost column once per target it owes, solved
by scipy's ``linear_sum_assignment``, its move graph against a per-vehicle
scan, and each tour's first order by nearest neighbour against a scan."""

import itertools
import math
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from minmaxtsp import (DEPOT, EXACT, HEURISTIC, InfeasibleAllocationError, Instance, Point,
                       SolverConfig, Vehicle, generate_instance, scenario1, scenario2, solve,
                       validate_solution)
from minmaxtsp.allocation import (COLOCATION_RADIUS, _cheapest_moves, _cost_matrix,
                                  _nearest_neighbor, build_initial_solution, min_target_counts,
                                  perturb_colocated_depots, solve_load_balancing)
from minmaxtsp.bench import ExperimentConfig
from minmaxtsp.model import SPEED_MIN, distances
from minmaxtsp.tsp import TourRequest, solve_tsp

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

    def test_a_share_does_not_follow_how_the_speed_sum_rounds(self):
        # Python 3.12's compensated sum() put vehicle 3's float quotient at 14.
        speeds = (2.86, 1.64, 2.4, 2.7)
        inst = Instance(_grid_targets(56), tuple(
            Vehicle(vid, s, Point(0, 0)) for vid, s in enumerate(speeds, start=1)))
        assert min_target_counts(inst) == {1: 16, 2: 9, 3: 13, 4: 15}

    @settings(max_examples=200, deadline=None)
    @given(speeds=st.lists(st.floats(SPEED_MIN, sys.float_info.max) | st.integers(1, 10**6),
                           min_size=1, max_size=6),
           n=st.integers(1, 400))
    def test_shares_equal_exact_rational_floors(self, speeds, n):
        inst = Instance(_grid_targets(n), tuple(
            Vehicle(vid, s, Point(0, 0)) for vid, s in enumerate(speeds, start=1)))
        total = sum(Fraction(s) for s in speeds)
        assert min_target_counts(inst) == {
            vid: math.floor(n * Fraction(s) / total) for vid, s in enumerate(speeds, start=1)}

    @pytest.mark.parametrize("mode", [EXACT, HEURISTIC])
    @pytest.mark.parametrize("speeds", [(1e308, 1), (1e308, 1e308)], ids=["one", "both"])
    def test_speeds_near_the_float_max_get_a_feasible_plan(self, speeds, mode):
        # The float quotient n * v / sum(v) overflowed to inf, or to NaN.
        inst = Instance((Point(0, 0), Point(5, 5), Point(9, 1)),
                        (Vehicle(1, speeds[0], Point(0, 0)), Vehicle(2, speeds[1], Point(9, 9))))
        sol, _ = solve(inst, SolverConfig(tour_mode=mode), rng=0)
        assert validate_solution(inst, sol) == []


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

    def test_unbound_tie_goes_to_lowest_vehicle_id(self):
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
        assert solve_load_balancing(inst, eff) == {1: frozenset(free)}

    def test_infeasible_lower_bounds_raise(self):
        targets = _grid_targets(4)
        vehicles = (Vehicle(1, 1.0, Point(0, 0)), Vehicle(2, 1.0, Point(1, 1)))
        inst = Instance(targets, vehicles, {1: [0, 1, 2]})
        assert min_target_counts(inst) == {1: 0, 2: 2}
        eff = perturb_colocated_depots(inst, np.random.default_rng(0))
        with pytest.raises(InfeasibleAllocationError):
            solve_load_balancing(inst, eff)


def _slot_reference(inst, eff):
    """Stage 1 as one square assignment of free targets (rows) to slots:
    vehicle j's cost column repeated lower_j times, then wildcard slots
    priced at each target's cheapest vehicle.  A target won by a dedicated
    slot goes to that slot's vehicle, one won by a wildcard slot to its
    cheapest vehicle (lowest id on ties)."""
    free = inst.free_targets()
    lowers = list(min_target_counts(inst).values())
    if sum(lowers) > len(free):
        raise InfeasibleAllocationError(f"bounds {lowers} exceed {len(free)} free targets")
    c = _cost_matrix(inst, eff, free)
    owner = np.repeat(np.arange(inst.k), lowers)
    wildcards = np.repeat(c.min(axis=1, keepdims=True), len(free) - len(owner), axis=1)
    cols = linear_sum_assignment(np.hstack([c[:, owner], wildcards]))[1]
    alloc = {v.id: set() for v in inst.vehicles}
    for row, col in enumerate(cols):
        j = owner[col] if col < len(owner) else c[row].argmin()
        alloc[int(j) + 1].add(free[row])
    return {vid: frozenset(ids) for vid, ids in alloc.items()}


_GRID4 = st.builds(Point, st.integers(0, 3).map(float), st.integers(0, 3).map(float))


@st.composite
def _grid_fleets(draw, max_n=30):
    """Instance on a 4 x 4 grid (most targets share a spot, so most costs tie)
    with 1..max_n targets, k = 2, 3 or 8 vehicles, sometimes all parked on one
    depot, and 0-30% of the targets pinned; plus a seed for the spreading."""
    n = draw(st.integers(1, max_n))
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


def _balance(solver, inst, eff):
    try:
        return solver(inst, eff)
    except InfeasibleAllocationError as exc:
        return type(exc)


# Relative slack between the costs of two allocations that are both optimal
# on a tie-heavy grid.  A cost is a sum of at most 30 nonnegative terms, each a
# distance over a speed rounded within 2 ulps, and the sum adds at most 29
# more relative roundings of 2**-53 each, so two float sums of equal exact
# value differ by under 1e-14 relatively; the solvers' path and dual updates
# round like sums of the same size.  1e-12 leaves a hundredfold margin over
# that.
TIE_SLACK = 1e-12

# Generated instances on which the allocation must equal the reference's.
_CONFIGS = {
    "s1_n10": scenario1(n_targets=10),
    "s1_n30": scenario1(n_targets=30),
    "s1_n120": scenario1(n_targets=120),
    "s2_n30_pin20": scenario2(n_targets=30, assign_fraction=0.2),
    "k2_n30": ExperimentConfig(n_targets=30, speeds=(1.0, 1.0)),
    "fleet8_n64_pin10": ExperimentConfig(n_targets=64,
                                         speeds=(1.0, 1.0, 1.5, 1.5, 2.0, 2.0, 1.0, 2.0),
                                         colocated=((1, 2), (3, 4)), assign_fraction=0.1),
}


class TestAgainstTheSlotReference:
    """The allocation equals the slot-matrix reference wherever the optimum is
    unique, and costs the same where exact ties allow several optima."""

    @pytest.mark.parametrize("name", _CONFIGS)
    def test_allocation_equals_a_scipy_backed_one(self, name):
        for seed in range(4):
            cfg = replace(_CONFIGS[name], seed=seed)
            for index in range(40):
                inst = generate_instance(cfg, index)
                eff = perturb_colocated_depots(inst, np.random.default_rng(index))
                got = _balance(solve_load_balancing, inst, eff)
                assert got == _balance(_slot_reference, inst, eff), (seed, index)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_grid_fleets())
    def test_grid_fleets_cost_what_the_reference_costs(self, case):
        inst, seed = case
        eff = perturb_colocated_depots(inst, np.random.default_rng(seed))
        got = _balance(solve_load_balancing, inst, eff)
        want = _balance(_slot_reference, inst, eff)
        if want is InfeasibleAllocationError:
            assert got is want
            return
        counts = min_target_counts(inst)
        assert all(len(got[v.id]) >= counts[v.id] for v in inst.vehicles)
        assert sorted(t for ids in got.values() for t in ids) == list(inst.free_targets())
        assert allocation_cost(inst, eff, got) == pytest.approx(
            allocation_cost(inst, eff, want), rel=TIE_SLACK, abs=0.0)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_grid_fleets(max_n=7))
    def test_small_grid_fleets_meet_brute_force(self, case):
        inst, seed = case
        eff = perturb_colocated_depots(inst, np.random.default_rng(seed))
        counts = min_target_counts(inst)
        want = brute_allocation_cost(inst, eff, counts)
        got = _balance(solve_load_balancing, inst, eff)
        if want == math.inf:
            assert got is InfeasibleAllocationError
        else:
            assert allocation_cost(inst, eff, got) == pytest.approx(
                want, rel=TIE_SLACK, abs=0.0)


def _cheapest_moves_scan(c, owner, sources, goal):
    """The move graph built vehicle by vehicle: edge a -> b moves the first of
    a's targets, in row order, whose ``c[t, b] - c[t, a]`` is least, and a
    vehicle holding no target has no edge out.  Bellman-Ford as in
    ``_cheapest_moves``."""
    k = c.shape[1]
    delta = c - c[np.arange(len(c)), owner][:, None]
    pick = [None] * k
    weight = [[math.inf] * k for _ in range(k)]
    for a in range(k):
        rows = np.flatnonzero(owner == a)
        if rows.size:
            pick[a] = rows[delta[rows].argmin(axis=0)]
            weight[a] = delta[pick[a], np.arange(k)].tolist()
    dist = [0.0 if s else math.inf for s in sources]
    paths = [(a,) for a in range(k)]
    for _ in range(k - 1):
        changed = False
        for a in range(k):
            for b in range(k):
                d = dist[a] + weight[a][b]
                if d < dist[b] and b not in paths[a]:
                    dist[b], paths[b] = d, paths[a] + (b,)
                    changed = True
        if not changed:
            break
    path = paths[goal]
    return [(int(pick[a][b]), b) for a, b in zip(path, path[1:])]


@st.composite
def _move_graphs(draw):
    """Costs in 0..3 for 1..12 targets and 1..5 vehicles, so most edge prices
    tie, and any owner per target, so some vehicles often hold nothing."""
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, 5))
    cost = st.integers(0, 3).map(float)
    c = np.array(draw(st.lists(st.lists(cost, min_size=k, max_size=k),
                               min_size=n, max_size=n)))
    owner = np.array(draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    return c, owner


class TestMoveGraph:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_move_graphs())
    def test_moves_match_the_per_vehicle_scan(self, graph):
        c, owner = graph
        k = c.shape[1]
        for sources in itertools.product([False, True], repeat=k):
            for goal in range(k):
                got = [(int(t), b) for t, b in _cheapest_moves(c, owner, list(sources), goal)]
                assert got == _cheapest_moves_scan(c, owner, list(sources), goal)


class TestBuildInitial:
    def test_unassigned_vehicle_parks_at_its_depot(self):
        inst = line_instance()
        alloc = {1: frozenset({0, 1, 2, 3}), 2: frozenset()}
        sol = build_initial_solution(inst, alloc, HEURISTIC)
        assert sol.tour_for(2).sequence == (DEPOT, DEPOT)
        assert sol.tour_for(2).duration == 0.0

    def test_line_split_gives_balanced_tours(self):
        inst = line_instance()
        eff = perturb_colocated_depots(inst, np.random.default_rng(0))
        sol = build_initial_solution(inst, solve_load_balancing(inst, eff), HEURISTIC)
        assert validate_solution(inst, sol) == []
        assert sol.objective == pytest.approx(4.0)
        assert brute_minmax_objective(inst) == pytest.approx(4.0)

    def test_required_targets_ride_with_their_vehicle(self):
        rng = np.random.default_rng(59)
        inst = random_instance(rng, n=10, k=2, assign_fraction=0.3)
        eff = perturb_colocated_depots(inst, rng)
        sol = build_initial_solution(inst, solve_load_balancing(inst, eff), HEURISTIC)
        assert validate_solution(inst, sol) == []
        for vid, req in inst.required.items():
            assert req <= frozenset(sol.tour_for(vid).targets())

    @pytest.mark.parametrize("mode", [HEURISTIC, EXACT])
    def test_each_tour_starts_from_nearest_neighbour_in_id_order(self, mode):
        for index in range(3):
            inst = generate_instance(scenario2(n_targets=12, seed=5), index)
            alloc = solve_load_balancing(inst, perturb_colocated_depots(
                inst, np.random.default_rng(index)))
            sol = build_initial_solution(inst, alloc, mode)
            for v in inst.vehicles:
                ids = sorted(inst.required_for(v.id) | alloc[v.id])
                start = [ids[p] for p in _nearest_neighbor_scan(inst.distance_block(v.id, ids))]
                assert sol.tour_for(v.id) == solve_tsp(TourRequest(inst, v.id, start, mode))


def _nearest_neighbor_scan(dist):
    """Nearest neighbour as a scan over the remaining targets by (distance, index)."""
    m = dist.shape[0] - 1
    remaining = list(range(m))
    order = []
    cur = m
    while remaining:
        cur = min(remaining, key=lambda j: (dist[cur, j], j))
        order.append(cur)
        remaining.remove(cur)
    return order


@st.composite
def _grid_matrices(draw):
    """Distance matrix for 1..40 targets on a 4 x 4 grid, so most targets
    have duplicates and most steps tie; sometimes the depot sits on a target."""
    m = draw(st.integers(1, 40))
    grid = st.integers(0, 3).map(float)
    xy = np.array(draw(st.lists(st.tuples(grid, grid), min_size=m + 1, max_size=m + 1)))
    if draw(st.booleans()):
        xy[m] = xy[draw(st.integers(0, m - 1))]
    return distances(xy, xy)


class TestNearestNeighbor:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_grid_matrices())
    def test_matches_the_scan_with_ties_to_the_lowest_index(self, dist):
        assert _nearest_neighbor(dist) == _nearest_neighbor_scan(dist)
