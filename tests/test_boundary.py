"""Input boundary: any JSON-like value in any one field of an instance either
builds a valid instance or raises InvalidInstanceError, never another error;
numbers other than ints, floats and NumPy scalars, anything passed as an
instance or a solution that is not one, vehicle ids outside the fleet and a
plan of another instance raise it too.  A stage function also rejects a
config of the wrong type with InvalidConfigError, and a per-vehicle mapping
that misses a vehicle with InvalidInstanceError."""

import copy
import json
import math
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minmaxtsp import (DEPOT, Instance, InvalidConfigError, InvalidInstanceError, Point,
                       Solution, SolverConfig, Tour, TourRequest, Vehicle, best_insertion,
                       build_initial_solution, compute_savings, exact_minmax,
                       generate_instance, instance_from_json, instance_to_json, local_search,
                       min_target_counts, oracle_feasible, perturb_colocated_depots,
                       perturbation_loop, perturbation_radius, render_tours, save_instance,
                       scenario1, solve, solve_load_balancing, tour_duration,
                       validate_solution)
from minmaxtsp.model import COORD_LIMIT, SPEED_MIN
from minmaxtsp.svgplot import render_solution_svg

SPECIAL = (10 ** 400, -10 ** 400, 10 ** 309, 2 ** 64, 10 ** 20, 0, -1,
           math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-60, 1e151)
SCALARS = st.one_of(st.sampled_from(SPECIAL), st.integers(), st.floats(),
                    st.booleans(), st.text(max_size=3), st.none())
VALUES = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=2), inner, max_size=2)),
    max_leaves=6)


NUMPY_SCALARS = [
    pytest.param(dtype(value), id=f"{dtype.__name__}-{label}")
    for dtype, top in ((np.float16, np.finfo(np.float16).max),
                       (np.float32, np.finfo(np.float32).max),
                       (np.float64, np.finfo(np.float64).max),
                       (np.int64, np.iinfo(np.int64).max))
    for label, value in (("0", 0), ("half_speed_min", SPEED_MIN / 2), ("1", 1),
                         ("max", top))
]


def _instance_with(field, x):
    """A valid two-vehicle instance with one field (or argument) set to ``x``."""
    targets = [Point(0, 0), Point(3, 4)]
    fleet = [Vehicle(1, 1.0, Point(1, 1)), Vehicle(2, 2, Point(5, 5))]
    required = {1: [0]}
    moved = None
    if field == "targets":
        targets = x
    elif field == "target":
        targets[1] = x
    elif field == "target x":
        targets[1] = Point(x, 4)
    elif field == "target y":
        targets[1] = Point(3, x)
    elif field == "vehicles":
        fleet = x
    elif field == "vehicle":
        fleet[1] = x
    elif field == "vehicle id":
        fleet[1] = Vehicle(x, 2, Point(5, 5))
    elif field == "speed":
        fleet[1] = Vehicle(2, x, Point(5, 5))
    elif field == "depot":
        fleet[1] = Vehicle(2, 2, x)
    elif field == "depot x":
        fleet[1] = Vehicle(2, 2, Point(x, 5))
    elif field == "required":
        required = x
    elif field == "required set":
        required = {1: x}
    elif field == "required index":
        required = {1: [x]}
    elif field == "moved depots":
        moved = x
    elif field == "moved depot":
        moved = {2: x}
    inst = Instance(targets, fleet, required)
    return inst if moved is None else inst.with_depots(moved)


@pytest.mark.parametrize("field", [
    "targets", "target", "target x", "target y", "vehicles", "vehicle", "vehicle id",
    "speed", "depot", "depot x", "required", "required set", "required index",
    "moved depots", "moved depot",
])
@settings(max_examples=50, deadline=None, derandomize=True)
@given(x=VALUES)
def test_instance_fields_accept_or_raise_invalid_instance(field, x):
    try:
        _instance_with(field, x)
    except InvalidInstanceError:
        pass


@pytest.mark.parametrize("field", ["target x", "target y", "speed", "depot x"])
@pytest.mark.parametrize("x", NUMPY_SCALARS)
def test_numpy_scalars_are_judged_as_python_numbers(field, x):
    # Compared in its own dtype, float32 would take 1e-50 as 0 and the float
    # max as inf (with a warning), and so accept a zero speed.
    if field == "speed":
        valid = SPEED_MIN <= x.item()
    else:
        valid = abs(x.item()) <= COORD_LIMIT
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if valid:
            _instance_with(field, x)
        else:
            with pytest.raises(InvalidInstanceError):
                _instance_with(field, x)


@pytest.mark.parametrize("field", ["target x", "target y", "speed", "depot x"])
@pytest.mark.parametrize("x", [Fraction(3, 2), Fraction(2), Decimal("1.5")],
                         ids=["fraction", "whole-fraction", "decimal"])
def test_other_number_types_are_rejected(field, x):
    # They would plan, but a saved instance could not hold them.
    with pytest.raises(InvalidInstanceError):
        _instance_with(field, x)


_PARKED = Tour(1, (DEPOT, DEPOT), 0.0)
_VALID = _instance_with(None, None)


@pytest.mark.parametrize("call", [
    solve, exact_minmax, oracle_feasible, instance_to_json,
    pytest.param(lambda x: save_instance(x, "inst.json"), id="save_instance"),
    pytest.param(lambda x: validate_solution(x, Solution((_PARKED,))), id="validate_solution"),
    pytest.param(lambda x: tour_duration(x, _PARKED), id="tour_duration"),
    # The TourRequest cases keep the id "request_for", the name of the builder
    # it replaced, so their test ids read the same from one version to the next.
    pytest.param(lambda x: TourRequest(x, 1, (0,)), id="request_for"),
    pytest.param(lambda x: render_solution_svg(x, Solution((_PARKED,))),
                 id="render_solution_svg"),
    pytest.param(lambda x: render_tours(x, [("plan", Solution((_PARKED,)))], "tours"),
                 id="render_tours"),
    # The same values where a Solution, or a Tour inside one, belongs.
    pytest.param(lambda x: Solution((x,)), id="Solution"),
    pytest.param(lambda x: validate_solution(_VALID, x), id="validate_solution-sol"),
    pytest.param(lambda x: render_solution_svg(_VALID, x), id="render_solution_svg-sol"),
    pytest.param(lambda x: render_tours(_VALID, [("plan", x)], "tours"), id="render_tours-sol"),
])
@pytest.mark.parametrize("x", [None, "x", 3, {"targets": [[0, 0]]}],
                         ids=["none", "str", "int", "dict"])
def test_anything_but_an_instance_raises_invalid_instance(call, x, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(InvalidInstanceError, match="must be an? (Instance|Solution|Tour)"):
        call(x)
    assert not any(tmp_path.iterdir())  # no file was opened


@pytest.mark.parametrize("vid", ["a", None, True], ids=["str", "none", "True"])
def test_tours_without_an_integer_vehicle_id_raise_invalid_instance(vid):
    # Sorted by id, True would pass as vehicle 1, and "a" or None cannot be ordered.
    with pytest.raises(InvalidInstanceError, match="must be a Tour with an integer vehicle id"):
        Solution((Tour(vid, (DEPOT, DEPOT), 0.0),))


def _tour_of(vid):
    return Tour(vid, (DEPOT, 0, DEPOT), 1.0)


_PLAN = Solution((_tour_of(1), Tour(2, (DEPOT, 1, DEPOT), 1.0)))


@pytest.mark.parametrize("call", [
    pytest.param(lambda inst, vid: inst.vehicle(vid), id="vehicle"),
    pytest.param(lambda inst, vid: inst.required_for(vid), id="required_for"),
    pytest.param(lambda inst, vid: Instance(inst.targets, inst.vehicles, {vid: [0]}),
                 id="required"),
    pytest.param(lambda inst, vid: inst.distance_matrix(vid), id="distance_matrix"),
    pytest.param(lambda inst, vid: inst.time_matrix(vid), id="time_matrix"),
    pytest.param(lambda inst, vid: TourRequest(inst, vid, (0,)), id="request_for"),  # see above
    pytest.param(lambda inst, vid: tour_duration(inst, _tour_of(vid)), id="tour_duration"),
    pytest.param(lambda inst, vid: render_solution_svg(inst, Solution((_tour_of(vid),))),
                 id="render_solution_svg"),
    pytest.param(lambda inst, vid: _PLAN.tour_for(vid), id="Solution.tour_for"),
    pytest.param(lambda inst, vid: _PLAN.targets_of(vid), id="Solution.targets_of"),
])
@pytest.mark.parametrize("vid", [0, -1, 3, True, 1.0], ids=["0", "-1", "k+1", "True", "1.0"])
def test_vehicle_ids_outside_the_fleet_raise_invalid_instance(call, vid):
    # Indexed as vehicles[vid - 1], 0 and -1 picked another vehicle and True
    # the first; and True and 1.0 once hit vehicle 1's cached matrices.  So
    # every call runs on a fresh instance and on one with those matrices cached.
    warm = _instance_with(None, None)
    warm.time_matrix(1)
    for inst in (_instance_with(None, None), warm):
        with pytest.raises(InvalidInstanceError, match="vehicle id"):
            call(inst, vid)


@pytest.mark.parametrize("call", [
    pytest.param(lambda inst, sol: local_search(inst, sol, SolverConfig()), id="local_search"),
    pytest.param(lambda inst, sol: perturbation_loop(inst, sol, np.random.default_rng(0),
                                                     SolverConfig()), id="perturbation_loop"),
    pytest.param(lambda inst, sol: compute_savings(sol, inst, sol.maximal_vehicle()),
                 id="compute_savings"),
    pytest.param(lambda inst, sol: best_insertion(0, sol, inst, sol.maximal_vehicle()),
                 id="best_insertion"),
])
def test_a_plan_of_another_instance_raises_invalid_instance(call):
    # Same fleet, twice the targets: the plan's tours visit targets 5..9,
    # past the end of the smaller instance's matrices.
    plan, _ = solve(generate_instance(scenario1(n_targets=10, seed=1), 0), rng=0)
    other = generate_instance(scenario1(n_targets=5, seed=1), 0)
    with pytest.raises(InvalidInstanceError, match="tour vertex"):
        call(other, plan)


_NO_INST, _NO_SOL = (InvalidInstanceError, "must be an Instance"), (
    InvalidInstanceError, "must be a Solution")
_NO_CFG = (InvalidConfigError, "must be a SolverConfig")
_NO_EFF = (InvalidInstanceError, "eff must map every vehicle id")
_NO_ALLOC = (InvalidInstanceError, "alloc must map every vehicle id")
_CFG, _EFF = SolverConfig(), {1: Point(1, 1), 2: Point(5, 5)}


@pytest.mark.parametrize("call, error, match", [
    pytest.param(lambda plan: local_search(_VALID, "x", _CFG), *_NO_SOL, id="local_search-sol"),
    pytest.param(lambda plan: local_search(None, plan, _CFG), *_NO_INST,
                 id="local_search-inst"),
    pytest.param(lambda plan: local_search(_VALID, plan, None), *_NO_CFG, id="local_search-cfg"),
    pytest.param(lambda plan: perturbation_loop(_VALID, plan, np.random.default_rng(0), None),
                 *_NO_CFG, id="perturbation_loop-cfg"),
    pytest.param(lambda plan: perturbation_loop(_VALID, None, np.random.default_rng(0), _CFG),
                 *_NO_SOL, id="perturbation_loop-sol"),
    pytest.param(lambda plan: perturbation_radius(None, _VALID, 1), *_NO_SOL,
                 id="perturbation_radius"),
    pytest.param(lambda plan: compute_savings(plan, None, 1), *_NO_INST, id="compute_savings"),
    pytest.param(lambda plan: best_insertion(0, None, _VALID, 1), *_NO_SOL, id="best_insertion"),
    pytest.param(lambda plan: min_target_counts(None), *_NO_INST, id="min_target_counts"),
    pytest.param(lambda plan: perturb_colocated_depots(None, np.random.default_rng(0)),
                 *_NO_INST, id="perturb_colocated_depots-inst"),
    pytest.param(lambda plan: solve_load_balancing(_VALID, {}), *_NO_EFF,
                 id="solve_load_balancing-empty"),
    pytest.param(lambda plan: solve_load_balancing(_VALID, {1: Point(1, 1)}), *_NO_EFF,
                 id="solve_load_balancing-missing"),
    pytest.param(lambda plan: solve_load_balancing(_VALID, {1: None, 2: None}), *_NO_EFF,
                 id="solve_load_balancing-none"),
    pytest.param(lambda plan: solve_load_balancing(_VALID, list(_EFF.values())), *_NO_EFF,
                 id="solve_load_balancing-list"),
    pytest.param(lambda plan: solve_load_balancing(None, _EFF), *_NO_INST,
                 id="solve_load_balancing-inst"),
    pytest.param(lambda plan: build_initial_solution(_VALID, {}), *_NO_ALLOC,
                 id="build_initial_solution-empty"),
    pytest.param(lambda plan: build_initial_solution(_VALID, {1: 5, 2: 5}), *_NO_ALLOC,
                 id="build_initial_solution-int"),
    pytest.param(lambda plan: build_initial_solution(None, {1: (), 2: ()}), *_NO_INST,
                 id="build_initial_solution-inst"),
])
def test_a_stage_function_checks_its_arguments(call, error, match):
    # Unchecked, each of these raised a bare AttributeError, KeyError or
    # TypeError from deep inside the stage.
    plan, _ = solve(_VALID, rng=0)
    with pytest.raises(error, match=match):
        call(plan)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(key=SCALARS)
def test_required_keys_accept_or_raise_invalid_instance(key):
    try:
        Instance((Point(0, 0),), (Vehicle(1, 1.0, Point(0, 0)),), {key: [0]})
    except InvalidInstanceError:
        pass


DOC = {"targets": [[0, 0], [3, 4.5]],
       "vehicles": [{"speed": 1.0, "depot": [1, 1]}, {"speed": 2, "depot": [5, 5]}],
       "required": {"1": [0]}}


@pytest.mark.parametrize("path", [
    (), ("targets",), ("targets", 1), ("targets", 1, 0), ("vehicles",), ("vehicles", 1),
    ("vehicles", 1, "speed"), ("vehicles", 1, "depot"), ("vehicles", 1, "depot", 1),
    ("required",), ("required", "1"), ("required", "1", 0),
], ids=lambda path: "/".join(map(str, path)) or "document")
@settings(max_examples=50, deadline=None, derandomize=True)
@given(x=VALUES)
def test_document_fields_accept_or_raise_invalid_instance(path, x):
    if path:
        doc = copy.deepcopy(DOC)
        *parents, last = path
        node = doc
        for step in parents:
            node = node[step]
        node[last] = x
    else:
        doc = x
    try:
        instance_from_json(json.dumps(doc))
    except InvalidInstanceError:
        pass


@settings(max_examples=50, deadline=None, derandomize=True)
@given(key=st.text(max_size=4))
def test_document_required_keys_accept_or_raise_invalid_instance(key):
    doc = {**DOC, "required": {key: [1]}}
    try:
        instance_from_json(json.dumps(doc))
    except InvalidInstanceError:
        pass
