"""Instance file format: round-trip stability and malformed-input handling."""

import numpy as np
import pytest

from minmaxtsp import (InvalidInstanceError, Point, instance_from_json,
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


def test_required_key_optional():
    inst = instance_from_json(
        '{"targets": [[0, 0], [1, 1]],'
        ' "vehicles": [{"speed": 1.0, "depot": [5, 5]}]}')
    assert inst.required == {}


def _doc(target="[0, 0]", speed="1.0", depot="[0, 0]", required="{}"):
    return (f'{{"targets": [{target}], "vehicles": [{{"speed": {speed}, "depot": {depot}}}],'
            f' "required": {required}}}')


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
])
def test_malformed_documents_rejected(text):
    with pytest.raises(InvalidInstanceError):
        instance_from_json(text)


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


def test_integral_float_index_accepted():
    inst = instance_from_json('{"targets": [[0, 0], [1, 1]],'
                              ' "vehicles": [{"speed": 1.0, "depot": [0, 0]}],'
                              ' "required": {"1": [1.0]}}')
    assert inst.required == {1: frozenset({1})}
