"""Input boundary: any JSON-like value in any one field of an instance either
builds a valid instance or raises InvalidInstanceError, never another error;
numbers other than ints, floats and NumPy scalars, anything passed as an
instance or a solution that is not one and vehicle ids outside the fleet
raise it too.  Every exported function rejects a wrong object with a
SolverError before it writes a file, and every path argument that is no path
(a file descriptor included) with InvalidConfigError before it opens one; the
functions behind them are internal and not checked here."""

import copy
import json
import math
import os
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minmaxtsp
from minmaxtsp import (DEPOT, EXACT, ExperimentConfig, ExperimentReport, Instance,
                       InvalidConfigError, InvalidInstanceError, Point, Solution, SolverConfig,
                       SolverError, Tour, Vehicle, exact_minmax, generate_instance,
                       instance_from_json, instance_to_json, load_instance, oracle_feasible,
                       render_tours, run_experiment, save_instance, scenario1, scenario2, solve,
                       tour_duration, validate_solution, write_report)
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
    pytest.param(lambda inst, vid: tour_duration(inst, _tour_of(vid)), id="tour_duration"),
    pytest.param(lambda inst, vid: render_solution_svg(inst, Solution((_tour_of(vid),))),
                 id="render_solution_svg"),
    pytest.param(lambda inst, vid: _PLAN.tour_for(vid), id="Solution.tour_for"),
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


def test_a_solution_needs_a_tour():
    # Built empty, its objective raised a bare ValueError and
    # maximal_vehicle() an IndexError.
    for tours in ((), [], iter(())):
        with pytest.raises(InvalidInstanceError, match="at least one tour"):
            Solution(tours)


@pytest.mark.parametrize("seq", [None, 5, np.array([DEPOT, 0, DEPOT])],
                         ids=["none", "int", "ndarray"])
def test_a_tour_sequence_that_is_no_tuple_or_list_is_refused(seq, tmp_path, monkeypatch):
    # None and 5 once ended in a bare TypeError from len() in all three calls.
    monkeypatch.chdir(tmp_path)
    bad = Tour(1, seq, 1.0)
    sol = Solution((bad, Tour(2, (DEPOT, 1, DEPOT), 1.0)))
    assert validate_solution(_VALID, sol)[0] == "tour 1 does not start and end at its depot"
    for call in (lambda: tour_duration(_VALID, bad),
                 lambda: render_tours(_VALID, [("plan", sol)], "tours")):
        with pytest.raises(InvalidInstanceError, match="start and end at the vehicle's depot"):
            call()
    assert not any(tmp_path.iterdir())  # no file was written


_BAD = "x"

# One call per exported function, each passing _BAD where an instance,
# solution, config, report or plan list belongs; "doc.json" holds _BAD as a
# JSON document.  The classes that check themselves are called the same way.
_CALLS = {
    "ExperimentConfig": lambda: ExperimentConfig(speeds=_BAD),
    "Instance": lambda: Instance(_BAD, (Vehicle(1, 1.0, Point(0, 0)),)),
    "Solution": lambda: Solution(_BAD),
    "SolverConfig": lambda: SolverConfig(tour_mode=_BAD),
    "exact_minmax": lambda: exact_minmax(_BAD),
    "generate_instance": lambda: generate_instance(_BAD, 0),
    "instance_from_json": lambda: instance_from_json(json.dumps(_BAD)),
    "instance_to_json": lambda: instance_to_json(_BAD),
    "load_instance": lambda: load_instance("doc.json"),
    "oracle_feasible": lambda: oracle_feasible(_BAD),
    "render_tours": lambda: render_tours(_VALID, _BAD, "tours"),
    "run_experiment": lambda: run_experiment(_BAD),
    "save_instance": lambda: save_instance(_BAD, "inst.json"),
    "scenario1": lambda: scenario1(speeds=_BAD),
    "scenario2": lambda: scenario2(colocated=_BAD),
    "solve": lambda: solve(_VALID, _BAD),
    "tour_duration": lambda: tour_duration(_VALID, _BAD),
    "validate_solution": lambda: validate_solution(_VALID, _BAD),
    "write_report": lambda: write_report(_BAD, "report.csv"),
}
# Exports that only hold data, and constants: nothing to check.
_DATA = {"Point", "Vehicle", "Tour", "StageTrace", "ReportRow", "ExperimentReport"}
_CONSTANTS = {"DEPOT", "EXACT", "HEURISTIC"}


@pytest.mark.parametrize("name", sorted(set(minmaxtsp.__all__) | set(_CALLS) | _DATA
                                        | _CONSTANTS))
def test_every_export_rejects_a_wrong_object_with_a_solver_error(name, tmp_path, monkeypatch):
    assert name in minmaxtsp.__all__, f"{name} is listed here but not exported"
    obj = getattr(minmaxtsp, name)
    if isinstance(obj, type) and issubclass(obj, Exception):
        assert issubclass(obj, SolverError)
        return
    if name in _DATA | _CONSTANTS:
        return
    assert name in _CALLS, f"export {name} has no row: add one, or list it as data"
    monkeypatch.chdir(tmp_path)
    (tmp_path / "doc.json").write_text(json.dumps(_BAD))
    with pytest.raises(SolverError):
        _CALLS[name]()
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]  # no file was written


# One call per exported function that takes a path, with valid objects elsewhere.
_PATH_CALLS = {
    "load_instance": load_instance,
    "render_tours": lambda path: render_tours(_VALID, [("plan", Solution((_PARKED,)))], path),
    "save_instance": lambda path: save_instance(_VALID, path),
    "write_report": lambda path: write_report(ExperimentReport([]), path),
}


@pytest.mark.parametrize("name", sorted(_PATH_CALLS))
@pytest.mark.parametrize("path", [None, True, 1.5, "pipe"], ids=["none", "True", "float", "fd"])
def test_every_path_argument_rejects_what_is_no_path(name, path, tmp_path, monkeypatch):
    # open() takes an integer as a file descriptor and closes it when done, so
    # a descriptor must be refused before open() sees it.
    assert name in minmaxtsp.__all__, f"{name} is listed here but not exported"
    monkeypatch.chdir(tmp_path)
    read_end, write_end = os.pipe()
    try:
        with pytest.raises(InvalidConfigError, match="path"):
            _PATH_CALLS[name](write_end if path == "pipe" else path)
        os.fstat(write_end)  # still open, else OSError
        os.set_blocking(read_end, False)
        with pytest.raises(BlockingIOError):  # nothing written, and not closed
            os.read(read_end, 1)
    finally:
        os.close(read_end)
        os.close(write_end)
    assert not any(tmp_path.iterdir())  # no file was written


@pytest.mark.parametrize("make", [scenario1, scenario2])
def test_plans_hold_python_ints_and_survive_json(make):
    inst = generate_instance(make(n_targets=8, seed=3), 0)
    plans = [solve(inst, cfg, rng=0)[0] for cfg in (SolverConfig(), SolverConfig(tour_mode=EXACT))]
    for sol in plans + [exact_minmax(inst)]:
        for tour in sol.tours:
            assert {type(v) for v in tour.sequence} == {int}
            json.dumps([tour.vehicle_id, tour.sequence, tour.duration])


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
