"""Instance file format: round-trip stability and malformed-input handling."""

import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import minmaxtsp.io
from minmaxtsp.cli import main as cli_main
from minmaxtsp import (Instance, InvalidInstanceError, Point, Vehicle, instance_from_json,
                       instance_to_json, load_instance, save_instance)

from conftest import random_instance


def test_round_trip_exact():
    rng = np.random.default_rng(3)
    inst = random_instance(rng, n=12, k=3, assign_fraction=0.25)
    again = instance_from_json(instance_to_json(inst))
    assert again == inst


def test_canonical_form_is_stable():
    rng = np.random.default_rng(4)
    inst = random_instance(rng, n=7, k=2, assign_fraction=0.3)
    text = instance_to_json(inst)
    assert instance_to_json(instance_from_json(text)) == text


def test_file_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    inst = random_instance(rng, n=9, k=2, colocate_first_two=True)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    assert load_instance(path) == inst


def test_numpy_scalars_round_trip(tmp_path):
    inst = Instance((Point(np.int64(1), 2.0), Point(np.float32(0.1), np.float16(3))),
                    (Vehicle(np.int64(1), np.float32(1.5), Point(np.int64(0), 0)),
                     Vehicle(2, np.int64(2), Point(5, np.float64(5.5)))),
                    {np.int64(1): [np.int64(0)]})
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    again = load_instance(path)
    assert again == inst
    assert type(again.targets[0].x) is int and type(again.vehicle(2).speed) is int
    assert type(again.targets[1].x) is float and again.targets[1].x == np.float32(0.1)


def test_failed_save_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "inst.json"
    path.write_text("old contents\n")

    def fail(inst):
        raise TypeError("cannot serialise")

    monkeypatch.setattr(minmaxtsp.io, "instance_to_json", fail)
    with pytest.raises(TypeError):
        save_instance(random_instance(np.random.default_rng(6), n=4, k=2), path)
    assert path.read_bytes() == b"old contents\n"


def test_required_key_optional():
    inst = instance_from_json(
        '{"targets": [[0, 0], [1, 1]],'
        ' "vehicles": [{"speed": 1.0, "depot": [5, 5]}]}')
    assert inst.required == {}


def _doc(target="[0, 0]", speed="1.0", depot="[0, 0]", required="{}"):
    return (f'{{"targets": [{target}], "vehicles": [{{"speed": {speed}, "depot": {depot}}}],'
            f' "required": {required}}}')


# A misspelt key, top level and in a vehicle: each would otherwise load as
# another problem, with nothing pinned or with the speed 3 ignored.
_MISSPELT = {
    "requried": _doc(required='{"1": [0]}').replace('"required"', '"requried"'),
    "sped": _doc(depot='[0, 0], "sped": 3'),
}


@pytest.mark.parametrize("text", [
    "not json at all",
    '{"targets": [[0, 0]]}',
    '{"targets": [[0, 0]], "vehicles": [{"speed": "fast", "depot": [0, 0]}]}',
    '{"targets": [[0, 0]], "vehicles": [{"depot": [0, 0]}]}',
    pytest.param(_doc(required="null"), id="required null"),
    pytest.param(_doc(required="[]"), id="required list"),
    pytest.param(_doc(depot="[0]"), id="depot one value"),
    pytest.param(_doc(depot="[0, 0, 7]"), id="depot three values"),
    pytest.param(_doc(target="[1" + "0" * 309 + ", 0]"), id="coordinate too big for a float"),
    pytest.param(_doc(speed="1" + "0" * 309), id="speed too big for a float"),
    pytest.param(_doc(target='["1e3", 0]'), id="coordinate string"),
    pytest.param(_doc(target="[true, 0]"), id="coordinate bool"),
    pytest.param(_doc(depot='[0, "1e3"]'), id="depot string"),
    pytest.param(_doc(speed='"1e3"'), id="speed string"),
    pytest.param(_doc(speed="true"), id="speed bool"),
    pytest.param("[" * 100_000 + "]" * 100_000, id="nested too deep"),
    pytest.param(_doc(target="[0, 0], [1, 1]", required='{"1": [0], "01": [1]}'),
                 id="vehicle key leading zero"),
    pytest.param(_doc(required='{"01": [0]}'), id="vehicle key only with leading zero"),
    pytest.param(_doc(target="[0, 0], [1, 1]", required='{"1": [0], "1": [1]}'),
                 id="duplicate vehicle key"),
    pytest.param('{"targets": [[0, 0]], "targets": [[1, 1]],'
                 ' "vehicles": [{"speed": 1.0, "depot": [0, 0]}]}', id="duplicate targets"),
    pytest.param(_doc(depot='[0, 0], "depot": [1, 1]'), id="duplicate key in a vehicle"),
    *(pytest.param(text, id=f"unknown key {key}") for key, text in _MISSPELT.items()),
])
def test_malformed_documents_rejected(text):
    with pytest.raises(InvalidInstanceError):
        instance_from_json(text)


@pytest.mark.parametrize("key, text", _MISSPELT.items())
def test_an_unknown_key_is_named(key, text):
    with pytest.raises(InvalidInstanceError, match=f"unknown key '{key}'"):
        instance_from_json(text)


@pytest.mark.parametrize("text, part", [
    pytest.param("[]", "the document", id="document list"),
    pytest.param('"x"', "the document", id="document string"),
    pytest.param('{"targets": [[0, 0]], "vehicles": [[1.0, [0, 0]]]}', "vehicle 1",
                 id="vehicle list"),
    pytest.param('{"targets": [[0, 0]], "vehicles": [{"speed": 1.0, "depot": [0, 0]},'
                 ' [1.0, [0, 0]]]}', "vehicle 2", id="second vehicle list"),
    pytest.param(_doc(required="[]"), "required", id="required list"),
])
def test_a_part_that_is_not_an_object_is_named(text, part):
    with pytest.raises(InvalidInstanceError, match=f": {part} must be a JSON object, got "):
        instance_from_json(text)


@pytest.mark.parametrize("text, part", [
    pytest.param('{"targets": "ab", "vehicles": []}', "targets", id="targets string"),
    pytest.param('{"targets": null, "vehicles": []}', "targets", id="targets null"),
    pytest.param(_doc(target="[0, 0], [1, 1], [2, 2], [0, 0, 0]"), "target 3",
                 id="target three values"),
    pytest.param(_doc(target='{"x": 0, "y": 0}'), "target 0", id="target object"),
    pytest.param('{"targets": [[0, 0]], "vehicles": {"speed": 1.0, "depot": [0, 0]}}',
                 "vehicles", id="vehicles object"),
    pytest.param('{"targets": [[0, 0]], "vehicles": [{"speed": 1.0, "depot": [0, 0]},'
                 ' {"speed": 1.0, "depot": "ab"}]}', "vehicle 2 depot", id="depot string"),
    pytest.param(_doc(depot="[0]"), "vehicle 1 depot", id="depot one value"),
    pytest.param(_doc(required='{"1": null}'), 'required["1"]', id="required set null"),
])
def test_a_part_that_is_not_an_array_is_named(text, part):
    with pytest.raises(InvalidInstanceError, match=f": {re.escape(part)} must be a JSON array"):
        instance_from_json(text)


@pytest.mark.parametrize("text, message", [
    pytest.param('{"vehicles": [{"speed": 1.0, "depot": [0, 0]}]}',
                 "the document lacks 'targets'", id="no targets"),
    pytest.param('{"targets": [[0, 0]]}', "the document lacks 'vehicles'", id="no vehicles"),
    pytest.param('{"targets": [[0, 0]], "vehicles": [{"speed": 1.0, "depot": [0, 0]},'
                 ' {"depot": [1, 1]}]}', "vehicle 2 lacks 'speed'", id="second vehicle speed"),
    pytest.param('{"targets": [[0, 0]], "vehicles": [{"speed": 1.0}]}',
                 "vehicle 1 lacks 'depot'", id="no depot"),
])
def test_a_missing_key_is_named(text, message):
    with pytest.raises(InvalidInstanceError, match=f": {re.escape(message)}$"):
        instance_from_json(text)


def test_a_file_that_is_not_utf8_is_refused(tmp_path):
    path = tmp_path / "inst.json"
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(InvalidInstanceError, match="not UTF-8 text"):
        load_instance(path)


def test_malformed_rows_start_from_a_valid_document():
    assert instance_from_json(_doc()).targets == (Point(0.0, 0.0),)


def test_numbers_pass_as_parsed_and_round_trip_exactly():
    inst = instance_from_json(_doc(target="[3, 4.5]", speed="2", depot="[0, 1e3]"))
    assert inst.targets == (Point(3, 4.5),) and inst.vehicle(1).speed == 2
    assert type(inst.targets[0].x) is int and type(inst.vehicle(1).speed) is int
    text = instance_to_json(inst)
    again = instance_from_json(text)
    assert again == inst and instance_to_json(again) == text
    assert type(again.vehicle(1).speed) is int


def test_structural_violations_rejected():
    with pytest.raises(InvalidInstanceError):
        instance_from_json('{"targets": [[0, 0]],'
                           ' "vehicles": [{"speed": 1.0, "depot": [0, 0]}],'
                           ' "required": {"1": [4]}}')


@pytest.mark.parametrize("required", [
    '{"1": [0.7]}',
    '{"1": [1.0]}',
    '{"1": [true]}',
    '{"1": ["0"]}',
    '{"1.5": [0]}',
    '{"0_1": [0]}',
])
def test_non_integral_indices_rejected(required):
    with pytest.raises(InvalidInstanceError):
        instance_from_json('{"targets": [[0, 0], [1, 1]],'
                           ' "vehicles": [{"speed": 1.0, "depot": [0, 0]}],'
                           f' "required": {required}}}')



# Words that name a part of an instance document: every refusal says which
# part is wrong, in the reader's terms or in Instance's.
_PARTS = ("document", "target", "vehicle", "required", "speed", "depot")
# What a message looks like when Python's own error leaks through instead.
_PYTHON_WORDS = ("positional argument", "__init__", "()", "NoneType", "not iterable",
                 "indices must be", "object is not")

_KEYS = st.sampled_from(["targets", "vehicles", "required", "speed", "depot", "1", "a"])
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(-1e3, 1e3),
                     st.sampled_from([10 ** 400, 1e-300, 1e200]), st.text("ab1", max_size=2))
_JSON = st.recursive(_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(_KEYS, inner, max_size=3)), max_leaves=10)


_JSON_TYPES = {type(None): "null", bool: "boolean", int: "number", float: "number",
               str: "string", list: "array", dict: "object"}


@st.composite
def _documents(draw):
    """A valid document of one to four targets and one to three vehicles."""
    coord = st.integers(-50, 50) | st.floats(-50, 50)
    n, k = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    owners = draw(st.lists(st.integers(0, k), min_size=n, max_size=n))
    return {
        "targets": [[draw(coord), draw(coord)] for _ in range(n)],
        "vehicles": [{"speed": draw(st.integers(1, 3) | st.floats(0.5, 3)),
                      "depot": [draw(coord), draw(coord)]} for _ in range(k)],
        "required": {str(vid): [t for t, owner in enumerate(owners) if owner == vid]
                     for vid in sorted(set(owners) - {0})},
    }


def _parts(value, path=()):
    """The path of every part of a parsed document, the document itself first."""
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from _parts(item, (*path, key))


@st.composite
def _mutated_documents(draw):
    """A valid document with one part below the top replaced by a value of
    another JSON type."""
    doc = draw(_documents())
    *above, last = draw(st.sampled_from(list(_parts(doc))[1:]))
    parent = doc
    for key in above:
        parent = parent[key]
    kind = _JSON_TYPES[type(parent[last])]
    parent[last] = draw(_JSON.filter(lambda v: _JSON_TYPES[type(v)] != kind))
    return doc


def _read(text):
    """The instance the reader builds from ``text``, or None when it refuses
    the text by naming a part; anything else fails the test."""
    try:
        inst = instance_from_json(text)
    except InvalidInstanceError as exc:
        message = str(exc)
        assert any(part in message for part in _PARTS), message
        assert not any(word in message for word in _PYTHON_WORDS), message
        return None
    assert instance_from_json(instance_to_json(inst)) == inst
    return inst


@st.composite
def _documents_lacking_a_key(draw):
    """A valid document without one of the keys it needs: ``targets``,
    ``vehicles``, or one vehicle's ``speed`` or ``depot``."""
    doc = draw(_documents())
    parent = draw(st.sampled_from([doc, *doc["vehicles"]]))
    del parent[draw(st.sampled_from([key for key in parent if key != "required"]))]
    return doc


_DOCS = {"any JSON value": _JSON, "valid": _documents(),
         "one part retyped": _mutated_documents(), "one key dropped": _documents_lacking_a_key()}


@pytest.mark.parametrize("docs", _DOCS.values(), ids=_DOCS.keys())
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_document_loads_or_is_refused_by_name(docs, data):
    doc = data.draw(docs)
    text = json.dumps(doc)
    inst = _read(text)
    if docs is _DOCS["valid"]:
        assert inst is not None
    if docs is _DOCS["one key dropped"]:
        with pytest.raises(InvalidInstanceError,
                           match=r": (the document|vehicle \d+) lacks '[a-z]+'$"):
            instance_from_json(text)


@pytest.mark.parametrize("docs", _DOCS.values(), ids=_DOCS.keys())
@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_solve_exits_0_or_1_on_every_document(docs, data, tmp_path):
    # An exception other than the typed ones would escape cli_main and fail
    # the test.  A document that loads may still exit 1: stage 1 can refuse
    # a valid instance whose pinned targets outweigh its bounds.
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(data.draw(docs)))
    code = cli_main(["solve", "--instance", str(path)])
    assert code == 1 if _read(path.read_text()) is None else code in (0, 1)
