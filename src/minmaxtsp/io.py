"""Instance serialization: a small JSON document, stable under round-trips.

Layout::

    {
      "targets":  [[x, y], ...],
      "vehicles": [{"speed": s, "depot": [x, y]}, ...],
      "required": {"1": [3, 5], ...}
    }

Vehicle ids are implicit list positions (1-based), written in ``required``
as decimal keys without leading zeros.  The reader checks only the
document's shape: it refuses by name a file that is not UTF-8 text, a
document, vehicle or ``required`` that is not an object, an object that
repeats a key, holds one the layout does not name or lacks one it needs
(only ``required`` may be left out), and a ``targets``, ``vehicles`` or
``required`` list that is not an array, or a point that is not an array of
two.  Every value in that shape (coordinates, speeds, target indices) is
passed to ``Instance`` as parsed (JSON integers stay ints) and checked there
alone.  Floats are written with ``repr`` precision and ints as ints, so
load(dump(inst)) reproduces the instance exactly.
"""

import json
import re

from .model import (Instance, InvalidInstanceError, Point, Vehicle, check_instance, read_text,
                    write_text)


def instance_to_json(inst: Instance) -> str:
    check_instance(inst)
    doc = {
        "targets": [[t.x, t.y] for t in inst.targets],
        "vehicles": [{"speed": v.speed, "depot": [v.depot.x, v.depot.y]}
                     for v in inst.vehicles],
        "required": {str(vid): sorted(ids)
                     for vid, ids in sorted(inst.required.items())},
    }
    return json.dumps(doc, indent=2) + "\n"


def instance_from_json(text: str) -> Instance:
    """Parse an instance document; any malformed part raises InvalidInstanceError."""
    try:
        doc = _object(json.loads(text, object_pairs_hook=_unique_keys), "the document",
                      ("targets", "vehicles", "required"), optional=("required",))
        targets = tuple(Point(*_array(xy, f"target {i}", 2))
                        for i, xy in enumerate(_array(doc["targets"], "targets")))
        specs = [_object(v, f"vehicle {i}", ("speed", "depot"))
                 for i, v in enumerate(_array(doc["vehicles"], "vehicles"), start=1)]
        vehicles = tuple(
            Vehicle(i, v["speed"], Point(*_array(v["depot"], f"vehicle {i} depot", 2)))
            for i, v in enumerate(specs, start=1))
        required = {_vehicle_key(vid): _array(ids, f"required[{json.dumps(vid)}]")
                    for vid, ids in _object(doc.get("required", {}), "required").items()}
    except (TypeError, ValueError, RecursionError) as exc:
        raise InvalidInstanceError(f"malformed instance document: {exc}") from exc
    return Instance(targets, vehicles, required)


def _unique_keys(pairs) -> dict:
    # json.loads alone would keep the last of two equal keys and drop the rest.
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"duplicate key {key!r}")
        doc[key] = value
    return doc


def _object(value, part: str, keys: tuple = (), optional: tuple = ()) -> dict:
    # A JSON object, holding only ``keys`` when they are given, and each of
    # them but the ``optional`` ones: reading only the named keys would pass
    # over a misspelt one unseen, and a missing one would be named only by
    # Python's KeyError.
    if not isinstance(value, dict):
        raise ValueError(f"{part} must be a JSON object, got {value!r}")
    for key in value if keys else ():
        if key not in keys:
            raise ValueError(f"unknown key {key!r} in {part}; expected {', '.join(keys)}")
    for key in keys:
        if key not in value and key not in optional:
            raise ValueError(f"{part} lacks {key!r}")
    return value


def _array(value, part: str, length: int | None = None) -> list:
    # A JSON array, of ``length`` items when it is given: Point(*value) would
    # take a string's characters or an object's keys as coordinates.
    if not isinstance(value, list) or length is not None and len(value) != length:
        shape = "a JSON array" + ("" if length is None else f" of {length} values")
        raise ValueError(f"{part} must be {shape}, got {value!r}")
    return value


def _vehicle_key(key: str) -> int:
    # int() alone would also take " 1", "+1", "0_1" and "01", and "01" would
    # name the same vehicle as "1".
    if not re.fullmatch(r"0|-?[1-9][0-9]*", key):
        raise ValueError(f"vehicle key {key!r} is not an integer")
    return int(key)


def save_instance(inst: Instance, path) -> None:
    write_text(path, instance_to_json(inst))


def load_instance(path) -> Instance:
    try:
        text = read_text(path)
    except UnicodeDecodeError as exc:
        raise InvalidInstanceError(f"instance file is not UTF-8 text: {exc}") from exc
    return instance_from_json(text)
