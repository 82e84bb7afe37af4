"""Input boundary: any JSON-like value in any one field of an instance either
builds a valid instance or raises InvalidInstanceError, never another error."""

import copy
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minmaxtsp import Instance, InvalidInstanceError, Point, Vehicle, instance_from_json

SPECIAL = (10 ** 400, -10 ** 400, 10 ** 309, 2 ** 64, 10 ** 20, 0, -1,
           math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-60, 1e151)
SCALARS = st.one_of(st.sampled_from(SPECIAL), st.integers(), st.floats(),
                    st.booleans(), st.text(max_size=3), st.none())
VALUES = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=2), inner, max_size=2)),
    max_leaves=6)


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
