"""Core model: metric, tours, instances, and the solution validator."""

import copy
import dataclasses
import math
import pickle
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minmaxtsp import (DEPOT, Instance, InvalidInstanceError, Point, Solution,
                       SolverConfig, Tour, Vehicle, generate_instance, scenario1, solve,
                       tour_duration, validate_solution)
from minmaxtsp.allocation import _cost_matrix, perturb_colocated_depots
from minmaxtsp.model import COORD_LIMIT, SPEED_MIN

from conftest import line_instance, memo_size


def v(speed, depot=Point(0, 0), vid=1):
    return Vehicle(vid, speed, depot)


def _times(points, speed):
    """Instance.time_matrix for targets ``points`` and one vehicle of the given
    speed parked at the origin (its row/col comes last)."""
    return Instance(tuple(points), (v(speed),)).time_matrix(1)


class TestTravelTime:
    def test_identity_is_zero(self):
        assert _times([Point(0, 0)], 3.0)[0, 1] == 0.0

    def test_three_four_five(self):
        assert _times([Point(3, 4)], 1.0)[1, 0] == 5.0

    def test_speed_divides(self):
        assert _times([Point(3, 4)], 2.0)[1, 0] == 2.5

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            _times([Point(float("nan"), 0), Point(1, 1)], 1.0)
        with pytest.raises(ValueError):
            _times([Point(0, 0), Point(math.inf, 1)], 1.0)

    def test_metric_properties(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            t = _times([Point(*rng.uniform(-50, 50, 2)) for _ in range(3)], 1.7)
            assert t[0, 1] == t[1, 0]
            assert t[0, 2] <= t[0, 1] + t[1, 2] + 1e-9

    def test_doubling_speed_halves_exactly(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            points = [Point(*rng.uniform(0, 100, 2)) for _ in range(2)]
            assert _times(points, 2.6)[0, 1] == _times(points, 1.3)[0, 1] / 2.0


def _old_block(points, depot):
    """The (m+1, m+1) distance builder tours used before the shared kernel."""
    pts = np.vstack([points, [depot.x, depot.y]])
    diff = pts[:, None, :] - pts[None, :, :]
    return np.hypot(diff[..., 0], diff[..., 1])


def _old_cost_matrix(inst, eff, free):
    """The per-column allocation cost builder used before the shared kernel."""
    xy = inst.target_xy()[list(free)]
    return np.column_stack([
        np.hypot(xy[:, 0] - eff[u.id].x, xy[:, 1] - eff[u.id].y) / u.speed
        for u in inst.vehicles])


def _kernel_instances():
    rng = np.random.default_rng(2026)
    fleet = (Vehicle(1, 1.0, Point(3.5, 7.25)), Vehicle(2, 1.7, Point(81.0, 12.0)),
             Vehicle(3, 0.3, Point(40.0, 40.0)))
    uniform = Instance(tuple(Point(*p) for p in rng.uniform(0, 100, (12, 2))), fleet)
    # 4 x 4 grid: duplicate targets, a depot on a target, two co-located depots.
    grid_xy = rng.integers(0, 4, (20, 2)).astype(float)
    on_target = Point(*grid_xy[5])
    grid = Instance(tuple(Point(*p) for p in grid_xy),
                    (Vehicle(1, 1.0, on_target), Vehicle(2, 3.0, on_target),
                     Vehicle(3, 1.0, Point(0.0, 3.0))))
    c = COORD_LIMIT
    edge = Instance(tuple(Point(sx * c, sy * c) for sx in (-1, 1) for sy in (-1, 1))
                    + (Point(0.0, c), Point(-c, 0.5 * c)),
                    (Vehicle(1, 1.0, Point(c, -c)), Vehicle(2, 2.5, Point(-c, c))))
    moved = edge.with_depots({2: Point(-3.0 * c, 2.0 * c)})
    return {"uniform": uniform, "grid": grid, "limit": edge, "moved_past_limit": moved}


class TestDistanceKernel:
    @pytest.mark.parametrize("case", ["uniform", "grid", "limit", "moved_past_limit"])
    def test_every_matrix_keeps_the_old_bits(self, case):
        inst = _kernel_instances()[case]
        rng = np.random.default_rng(7)
        n = inst.n_targets
        subsets = [range(n), [], [n - 1]] + [
            rng.choice(n, size=int(rng.integers(1, n)), replace=False) for _ in range(6)]
        for veh in inst.vehicles:
            tm = inst.time_matrix(veh.id)
            assert np.array_equal(tm, inst.distance_matrix(veh.id) / veh.speed)
            assert np.array_equal(tm, _old_block(inst.target_xy(), veh.depot) / veh.speed)
            for ids in subsets:
                ids = sorted(int(t) for t in ids)
                got = inst.distance_block(veh.id, ids)
                want = _old_block(inst.target_xy()[ids] if ids else np.empty((0, 2)),
                                  veh.depot)
                assert np.array_equal(got, want), (veh.id, ids)
        eff = perturb_colocated_depots(inst, np.random.default_rng(3))
        free = inst.free_targets()
        assert np.array_equal(_cost_matrix(inst, eff, free),
                              _old_cost_matrix(inst, eff, free))


@st.composite
def _symmetry_cases(draw):
    """(instance, moved depots): 1-12 targets and 1-3 vehicles, coordinates
    uniform, on a 4 x 4 grid (ties, duplicate points, depots on targets) or
    within a factor two of +-COORD_LIMIT; speeds down to SPEED_MIN; moved
    depots up to three times past the limit, as stage 3 may put them."""
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["uniform", "grid", "limit"]))
    size = (n + 2 * k, 2)
    if kind == "uniform":
        xy = rng.uniform(-100.0, 100.0, size=size)
    elif kind == "grid":
        xy = rng.integers(0, 4, size=size).astype(float)
    else:
        xy = rng.choice([-1.0, 1.0], size=size) * rng.uniform(0.5, 1.0, size=size) * COORD_LIMIT
    speeds = draw(st.lists(st.sampled_from([1.0, 0.3, 7.0, 1e-30, 3.7 * SPEED_MIN, SPEED_MIN]),
                           min_size=k, max_size=k))
    inst = Instance(tuple(Point(*p) for p in xy[:n]),
                    tuple(Vehicle(i + 1, speeds[i], Point(*xy[n + i])) for i in range(k)))
    moved = {i + 1: Point(*(3.0 * xy[n + k + i])) for i in range(k) if draw(st.booleans())}
    return inst, moved


class TestMatrixSymmetry:
    """Stage 2 reads tm[a, t] for tm[t, a], so every matrix must equal its
    transpose bit for bit, on the instance and on its displaced copies."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_symmetry_cases())
    def test_distance_and_time_matrices_equal_their_transposes(self, case):
        inst, moved = case
        for copy_ in (inst, inst.with_depots(moved)):
            for veh in copy_.vehicles:
                for mat in (copy_.distance_matrix(veh.id), copy_.time_matrix(veh.id)):
                    assert np.all(np.isfinite(mat))
                    assert np.array_equal(mat, mat.T)


class TestTourDuration:
    def test_depot_only(self):
        inst = line_instance()
        assert tour_duration(inst, Tour(1, (DEPOT, DEPOT), 0.0)) == 0.0

    def test_out_and_back(self):
        inst = Instance((Point(3, 4),), (v(1.0),))
        assert tour_duration(inst, Tour(1, (DEPOT, 0, DEPOT), 10.0)) == 10.0

    def test_unit_square_perimeter(self):
        inst = Instance((Point(1, 0), Point(1, 1), Point(0, 1)), (v(1.0),))
        assert tour_duration(inst, Tour(1, (DEPOT, 0, 1, 2, DEPOT), 4.0)) == pytest.approx(4.0)

    def test_open_sequence_rejected(self):
        inst = line_instance()
        with pytest.raises(ValueError):
            tour_duration(inst, Tour(1, (DEPOT, 0), 1.0))
        with pytest.raises(ValueError):
            tour_duration(inst, Tour(1, (0, 1), 1.0))

    @pytest.mark.parametrize("tour", [None, "tour", (DEPOT, 0, DEPOT)],
                             ids=["none", "str", "tuple"])
    def test_anything_but_a_tour_raises_invalid_instance(self, tour):
        with pytest.raises(InvalidInstanceError, match="must be a Tour"):
            tour_duration(_two_targets(), tour)

    @pytest.mark.parametrize("seq", [
        (), (DEPOT,), (DEPOT, 0), (0, 1), (-1.0, 0, DEPOT), (DEPOT, 0, -1.0),
        (True, 0, DEPOT), ("-1", 0, DEPOT),
    ], ids=["empty", "depot", "open", "no-depot", "float-start", "float-end", "bool-start",
            "str-start"])
    def test_a_bad_depot_frame_raises_invalid_instance(self, seq):
        with pytest.raises(InvalidInstanceError, match="start and end at the vehicle's depot"):
            tour_duration(_two_targets(), Tour(1, seq, 0.0))

    @pytest.mark.parametrize("vertex", [-2, DEPOT, 2, 7, True, False, 1.0, 0.5, "1", None],
                             ids=["-2", "depot", "n", "7", "True", "False", "1.0", "0.5",
                                  "str", "none"])
    def test_a_vertex_outside_the_targets_raises_invalid_instance(self, vertex):
        # -2 once wrapped to target 1 (20.0), True gave an ndarray, and 7,
        # 0.5 and "1" raised IndexError.
        with pytest.raises(InvalidInstanceError, match="not a target index in 0..1"):
            tour_duration(_two_targets(), Tour(1, (DEPOT, 0, vertex, DEPOT), 0.0))

    def test_numpy_integer_vertices_pass(self):
        seq = (np.int64(DEPOT), np.int64(1), np.intp(0), np.int32(DEPOT))
        assert tour_duration(_two_targets(), Tour(1, seq, 0.0)) == 20.0


class TestInstanceValidation:
    def test_needs_targets_and_vehicles(self):
        with pytest.raises(InvalidInstanceError):
            Instance((), (v(1.0),))
        with pytest.raises(InvalidInstanceError):
            Instance((Point(0, 0),), ())

    def test_vehicle_ids_must_be_consecutive(self):
        with pytest.raises(InvalidInstanceError):
            Instance((Point(0, 0),), (Vehicle(2, 1.0, Point(0, 0)),))

    def test_speed_must_be_positive(self):
        with pytest.raises(InvalidInstanceError):
            Instance((Point(0, 0),), (v(0.0),))

    def test_non_finite_coordinates_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Instance((Point(math.nan, 0),), (v(1.0),))

    def test_overflowing_coordinates_rejected_by_name(self):
        fleet = (v(1.0), Vehicle(2, 1.0, Point(5, 5)))
        with pytest.raises(InvalidInstanceError, match="target 1 "):
            Instance((Point(0, 1), Point(1e308, 0)), fleet)
        with pytest.raises(InvalidInstanceError, match="vehicle 2 depot"):
            Instance((Point(0, 1),), (v(1.0), Vehicle(2, 1.0, Point(0, -1e200))))

    def test_speed_below_the_minimum_rejected_by_name(self):
        fleet = (v(1.0), Vehicle(2, SPEED_MIN / 10, Point(5, 5)))
        with pytest.raises(InvalidInstanceError, match="vehicle 2 speed"):
            Instance((Point(0, 1),), fleet)

    @pytest.mark.parametrize("speed", [0.5, SPEED_MIN])
    def test_coordinates_at_the_limit_solve_to_a_finite_plan(self, speed):
        lim = COORD_LIMIT
        targets = (Point(lim, 0), Point(-lim, lim), Point(0, -lim), Point(1, 1),
                   Point(lim, lim))
        inst = Instance(targets, (v(2 * speed), Vehicle(2, speed, Point(-lim, -lim))))
        with np.errstate(over="raise", invalid="raise"):
            sol, _ = solve(inst, rng=3)
        assert math.isfinite(sol.objective)
        assert validate_solution(inst, sol) == []

    def test_required_disjoint_and_in_range(self):
        targets = (Point(0, 0), Point(1, 1))
        fleet = (v(1.0, vid=1), Vehicle(2, 1.0, Point(5, 5)))
        with pytest.raises(InvalidInstanceError):
            Instance(targets, fleet, {1: [0], 2: [0]})
        with pytest.raises(InvalidInstanceError):
            Instance(targets, fleet, {1: [7]})
        with pytest.raises(InvalidInstanceError):
            Instance(targets, fleet, {3: [0]})
        # Keys and indices must be integers, not values int() would coerce.
        for bad in ({1: [0.7]}, {1: [1.0]}, {1: ["1"]}, {1: [True]},
                    {1: [np.bool_(True)]}, {"2": [1]}, {1.0: [1]}, {True: [1]}):
            with pytest.raises(InvalidInstanceError, match="not an integer"):
                Instance(targets, fleet, bad)
        inst = Instance(targets, fleet, {np.int64(2): [np.int32(1)]})
        assert inst.required == {2: frozenset({1})}
        assert [type(x) for x in (*inst.required, *inst.required[2])] == [int, int]

    @pytest.mark.parametrize("targets,fleet,required", [
        pytest.param((Point(0, 0),), (v(1.0),), {1: 5}, id="required set not iterable"),
        pytest.param((Point(0, 0),), (v(1.0),), [(1, [0])], id="required not a mapping"),
        pytest.param(((0, 0),), (v(1.0),), None, id="tuple target"),
        pytest.param((Point(0, 0),), (v(1.0, (0, 0)),), None, id="tuple depot"),
        pytest.param((Point("1", 1),), (v(1.0),), None, id="string coordinate"),
        pytest.param((Point(True, 1),), (v(1.0),), None, id="bool coordinate"),
        pytest.param((Point(0, 0),), (v(1.0, Point(0, "0")),), None, id="string depot"),
        pytest.param((Point(0, 0),), (v("1"),), None, id="string speed"),
        pytest.param((Point(0, 0),), (v(True),), None, id="bool speed"),
        pytest.param((Point(0, 0),), (v(1.0, vid=True),), None, id="bool vehicle id"),
        pytest.param((Point(0, 0),), (v(1.0, vid=1.0),), None, id="float vehicle id"),
        pytest.param((Point(0, 0),), ((1, 1.0, Point(0, 0)),), None, id="tuple vehicle"),
        pytest.param(5, (v(1.0),), None, id="targets not iterable"),
        pytest.param((Point(0, 0),), 5, None, id="vehicles not iterable"),
        pytest.param((Point(0, 0),), (v(10 ** 400),), None, id="int speed too big for a float"),
        pytest.param((Point(0, 0),), (v(math.nan),), None, id="nan speed"),
    ])
    def test_wrong_types_are_rejected_not_coerced(self, targets, fleet, required):
        with pytest.raises(InvalidInstanceError):
            Instance(targets, fleet, required)

    def test_free_targets_and_required_for(self):
        inst = Instance((Point(0, 0), Point(1, 1), Point(2, 2)),
                        (v(1.0, vid=1), Vehicle(2, 1.0, Point(5, 5))),
                        {2: [1]})
        assert inst.free_targets() == (0, 2)
        assert inst.required_for(2) == frozenset({1})
        assert inst.required_for(1) == frozenset()

    def test_with_depots_replaces_only_named(self):
        inst = line_instance()
        moved = inst.with_depots({2: Point(10, 5)})
        assert moved.vehicle(1).depot == Point(0, 0)
        assert moved.vehicle(2).depot == Point(10, 5)
        assert moved.targets == inst.targets

    @pytest.mark.parametrize("depots", [
        pytest.param({1: (3, 4)}, id="tuple depot"),
        pytest.param({1: Point("1", 2)}, id="string coordinate"),
        pytest.param({1: Point(10 ** 400, 0)}, id="int too big for a float"),
        pytest.param({1: Point(0, math.inf)}, id="infinite coordinate"),
        pytest.param({1: Point(math.nan, 0)}, id="nan coordinate"),
        pytest.param({7: Point(1, 0)}, id="unknown vehicle"),
        pytest.param({True: Point(1, 0)}, id="bool vehicle id"),
        pytest.param([(1, Point(1, 0))], id="not a mapping"),
    ])
    def test_with_depots_rejects_what_is_not_a_finite_point_of_the_fleet(self, depots):
        inst = Instance((Point(3, 4),), (v(1.0),))
        with pytest.raises(InvalidInstanceError):
            inst.with_depots(depots)
        # Stage 3 may move a depot past COORD_LIMIT; only finiteness is required.
        far = inst.with_depots({1: Point(-10 * COORD_LIMIT, 1e300)})
        assert far.vehicle(1).depot == Point(-10 * COORD_LIMIT, 1e300)

    def test_with_depots_keeps_numpy_scalars_as_python_numbers(self):
        inst = Instance((Point(3, 4),), (v(1.0),))
        depot = inst.with_depots({1: Point(np.float32(0.5), np.float16(2.0))}).vehicle(1).depot
        assert depot == Point(0.5, 2.0)
        assert type(depot.x) is float and type(depot.y) is float

    def test_integer_coordinates_and_speeds_solve_like_their_floats(self):
        # Ints past int64 must not turn the matrices into object arrays.
        big = 10 ** 20
        ints = Instance((Point(big, 3), Point(-big, 4), Point(5, big), Point(1, 1)),
                        (v(2, Point(big, 0)), Vehicle(2, 3, Point(big, 0)),
                         Vehicle(3, 10 ** 30, Point(-big, -big))))
        floats = Instance(
            tuple(Point(float(p.x), float(p.y)) for p in ints.targets),
            tuple(Vehicle(u.id, float(u.speed), Point(float(u.depot.x), float(u.depot.y)))
                  for u in ints.vehicles))
        (sol_i, _), (sol_f, _) = solve(ints, rng=1), solve(floats, rng=1)
        assert validate_solution(ints, sol_i) == []
        assert sol_i == sol_f and repr(sol_i.objective) == repr(sol_f.objective)

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.int64])
    def test_numpy_scalars_solve_like_their_python_numbers(self, dtype):
        # In float32 a tour's duration would lose half its digits and fail
        # the stage check against the double-precision time matrix.
        xy = [(3, 1), (6, 2), (2, 7), (9, 9), (5, 4), (1, 8), (8, 3)]
        fleet = [(1.5, (0, 0)), (2, (5, 5)), (2, (5, 5))]

        def build(num):
            return Instance(tuple(Point(num(x), num(y)) for x, y in xy),
                            tuple(Vehicle(vid, num(speed), Point(num(x), num(y)))
                                  for vid, (speed, (x, y)) in enumerate(fleet, start=1)),
                            {1: [0]})

        narrow = build(dtype)
        plain = build(lambda value: dtype(value).item())
        assert narrow == plain and type(narrow.vehicle(1).speed) is type(plain.vehicle(1).speed)
        (sol_n, _), (sol_p, _) = solve(narrow, rng=1), solve(plain, rng=1)
        assert validate_solution(narrow, sol_n) == []
        assert sol_n == sol_p and repr(sol_n.objective) == repr(sol_p.objective)

    def test_fields_are_frozen_and_with_depots_gets_a_fresh_cache(self):
        inst = Instance((Point(3, 4),), (v(1.0),))
        assert inst.time_matrix(1)[0, 1] == 5.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            inst.vehicles = (v(1.0, Point(30, 40)),)
        moved = inst.with_depots({1: Point(30, 40)})
        assert moved.time_matrix(1)[0, 1] == 45.0
        assert inst.time_matrix(1)[0, 1] == 5.0

    def test_required_is_read_only(self):
        inst = Instance((Point(1, 2), Point(3, 4)),
                        (v(1.0, vid=1), Vehicle(2, 1.0, Point(5, 5))), {1: [0]})
        with pytest.raises(TypeError):
            inst.required[2] = frozenset({0})
        assert inst.required == {1: frozenset({0})}
        sol, _ = solve(inst, rng=0)
        assert validate_solution(inst, sol) == []

    @pytest.mark.parametrize("clone", [
        lambda inst: pickle.loads(pickle.dumps(inst)),
        copy.copy,
        copy.deepcopy,
        lambda inst: inst.with_depots({1: Point(7, 7)}),
    ], ids=["pickle", "copy", "deepcopy", "with_depots"])
    def test_required_survives_pickle_and_copies(self, clone):
        inst = Instance((Point(1, 2), Point(3, 4), Point(5, 6)),
                        (v(1.0, vid=1), Vehicle(2, 1.0, Point(5, 5))), {2: [2, 0]})
        twin = clone(inst)
        assert list(twin.required.items()) == [(2, frozenset({0, 2}))]
        assert all(type(vid) is int and type(ids) is frozenset
                   for vid, ids in twin.required.items())
        assert twin.required == inst.required
        assert type(twin.required) is MappingProxyType
        with pytest.raises(TypeError):
            twin.required[1] = frozenset({1})

    def test_equal_instances_hash_equal(self):
        # The read-only required mapping had no hash, so hash(inst) raised TypeError.
        def build():
            return Instance((Point(1, 2), Point(3, 4), Point(5, 6)),
                            (v(1.0, vid=1), Vehicle(2, 1.0, Point(5, 5))), {2: [2, 0]})
        inst = build()
        twin = pickle.loads(pickle.dumps(inst))
        assert build() == inst == twin
        assert hash(build()) == hash(inst) == hash(twin)
        assert len({inst, build(), twin, Instance(inst.targets, inst.vehicles)}) == 2

    def test_a_solved_instance_pickles_and_copies_without_its_caches(self):
        inst = generate_instance(scenario1(n_targets=10, seed=11 << 20), 0)
        fresh = pickle.dumps(inst)
        solve(inst, SolverConfig(tour_mode="exact"), rng=0)
        assert memo_size(inst) > 0 and inst._cache
        assert len(pickle.dumps(inst)) == len(fresh)
        for twin in (pickle.loads(pickle.dumps(inst)), copy.copy(inst), copy.deepcopy(inst)):
            assert twin == inst
            assert memo_size(twin) == 0 and not twin._cache


def _two_targets():
    """One unit-speed vehicle at the origin; targets 0 and 1 at 5 and 10 away."""
    return Instance((Point(3, 4), Point(6, 8)), (v(1.0),))


def balanced_line_solution(inst):
    t1 = Tour(1, (DEPOT, 0, 1, DEPOT), tour_duration(inst, Tour(1, (DEPOT, 0, 1, DEPOT), 0)))
    t2 = Tour(2, (DEPOT, 3, 2, DEPOT), tour_duration(inst, Tour(2, (DEPOT, 3, 2, DEPOT), 0)))
    return Solution((t1, t2))


class TestValidateSolution:
    def test_feasible_solution_is_clean(self):
        inst = line_instance()
        assert validate_solution(inst, balanced_line_solution(inst)) == []

    def test_missing_target_reported(self):
        inst = line_instance()
        sol = balanced_line_solution(inst)
        short = Tour(1, (DEPOT, 0, DEPOT), 2.0)
        problems = validate_solution(inst, sol.replace(short))
        assert any("not visited" in p for p in problems)

    def test_duplicate_target_reported(self):
        inst = line_instance()
        sol = balanced_line_solution(inst)
        dup = Tour(2, (DEPOT, 3, 2, 1, DEPOT),
                   tour_duration(inst, Tour(2, (DEPOT, 3, 2, 1, DEPOT), 0)))
        problems = validate_solution(inst, sol.replace(dup))
        assert any("vehicle 1 and vehicle 2" in p for p in problems)

    def test_required_misplacement_reported(self):
        targets = (Point(1, 0), Point(9, 0))
        fleet = (Vehicle(1, 1.0, Point(0, 0)), Vehicle(2, 1.0, Point(10, 0)))
        inst = Instance(targets, fleet, {2: [0]})
        t1 = Tour(1, (DEPOT, 0, DEPOT), 2.0)
        t2 = Tour(2, (DEPOT, 1, DEPOT), 2.0)
        problems = validate_solution(inst, Solution((t1, t2)))
        assert any("required target 0" in p for p in problems)

    def test_duration_mismatch_reported(self):
        inst = line_instance()
        sol = balanced_line_solution(inst)
        lying = Tour(1, (DEPOT, 0, 1, DEPOT), 999.0)
        problems = validate_solution(inst, sol.replace(lying))
        assert any("duration" in p for p in problems)

    def test_total_on_malformed_data(self):
        inst = line_instance()
        junk = Solution((Tour(1, (DEPOT, 77, DEPOT), 1.0), Tour(2, (0,), 0.0)))
        problems = validate_solution(inst, junk)
        assert problems  # reported, not raised

    @pytest.mark.parametrize("vertex", [True, 1.0, "1"], ids=["True", "1.0", "str"])
    def test_a_vertex_that_is_no_integer_is_an_unknown_target(self, vertex):
        # Each once raised a bare TypeError or IndexError.
        inst = _two_targets()
        for seq in ((DEPOT, 0, vertex, DEPOT), (DEPOT, vertex, DEPOT)):
            problems = validate_solution(inst, Solution((Tour(1, seq, 20.0),)))
            assert f"tour 1 references unknown target {vertex!r}" in problems
            assert "target 1 is not visited" in problems

    def test_numpy_integer_vertices_pass(self):
        inst = _two_targets()
        seq = (np.int64(DEPOT), np.int64(0), np.intp(1), np.int32(DEPOT))
        assert validate_solution(inst, Solution((Tour(1, seq, 20.0),))) == []

    @pytest.mark.parametrize("duration", [None, "20.0", True], ids=["none", "str", "True"])
    def test_a_duration_that_is_no_number_is_reported(self, duration):
        # None and "20.0" once raised a bare TypeError.
        sol = Solution((Tour(1, (DEPOT, 0, 1, DEPOT), duration),))
        problems = validate_solution(_two_targets(), sol)
        assert problems == [f"tour 1 duration {duration!r} != recomputed 20.0"]

    def test_wrong_fleet_shape_reported(self):
        inst = line_instance()
        one = Solution((Tour(1, (DEPOT, 0, 1, 2, 3, DEPOT), 18.0),))
        assert validate_solution(inst, one)


class TestSolution:
    def test_objective_is_max(self):
        inst = line_instance()
        sol = balanced_line_solution(inst)
        assert sol.objective == max(t.duration for t in sol.tours)

    def test_maximal_vehicle_tie_lowest_id(self):
        sol = Solution((Tour(1, (DEPOT, DEPOT), 5.0), Tour(2, (DEPOT, DEPOT), 5.0)))
        assert sol.maximal_vehicle() == 1

    def test_replace_keeps_order(self):
        sol = Solution((Tour(2, (DEPOT, DEPOT), 1.0), Tour(1, (DEPOT, DEPOT), 2.0)))
        assert [t.vehicle_id for t in sol.tours] == [1, 2]
        swapped = sol.replace(Tour(2, (DEPOT, DEPOT), 9.0))
        assert swapped.tour_for(2).duration == 9.0
        assert swapped.tour_for(1).duration == 2.0


RECORDS = {
    "Point": (Point(1.5, -2), "x"),
    "Vehicle": (Vehicle(1, 2.0, Point(0, 0)), "speed"),
    "Tour": (Tour(1, (DEPOT, 0, DEPOT), 10.0), "duration"),
    "Solution": (Solution((Tour(1, (DEPOT, DEPOT), 0.0),)), "tours"),
}


@pytest.mark.parametrize("name", RECORDS)
class TestRecords:
    """The records held per target, vehicle and tour are slotted: no per-object
    dict, and they still freeze, pickle and copy as before."""

    def test_has_no_instance_dict(self, name):
        record, _ = RECORDS[name]
        assert not hasattr(record, "__dict__")

    def test_a_field_is_frozen(self, name):
        record, field = RECORDS[name]
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field, getattr(record, field))

    def test_a_name_that_is_no_field_cannot_be_set(self, name):
        # CPython's frozen __setattr__ on a slotted dataclass raises TypeError
        # for a name that is no field, where a fix may give AttributeError.
        record, _ = RECORDS[name]
        with pytest.raises((TypeError, AttributeError)):
            record.note = "extra"
        assert not hasattr(record, "note")

    @pytest.mark.parametrize("clone", [
        lambda record: pickle.loads(pickle.dumps(record)),
        copy.copy,
        copy.deepcopy,
    ], ids=["pickle", "copy", "deepcopy"])
    def test_pickles_and_copies_to_an_equal_record(self, name, clone):
        record, _ = RECORDS[name]
        twin = clone(record)
        assert type(twin) is type(record) and twin == record
        assert hash(twin) == hash(record)
