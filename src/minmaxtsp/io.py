"""Instance serialization: a small JSON document, stable under round-trips.

Layout::

    {
      "targets":  [[x, y], ...],
      "vehicles": [{"speed": s, "depot": [x, y]}, ...],
      "required": {"1": [3, 5], ...}
    }

Vehicle ids are implicit list positions (1-based).  The reader checks only
the document's shape; coordinates and speeds are passed to ``Instance`` as
parsed (JSON integers stay ints) and checked there, by ``is_point`` and
``is_speed``.  Floats are written with ``repr`` precision and ints as ints,
so load(dump(inst)) reproduces the instance exactly.
"""

import json
import re

from .model import Instance, InvalidInstanceError, Point, Vehicle, is_integer


def instance_to_json(inst: Instance) -> str:
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
        doc = json.loads(text)
        targets = tuple(Point(*xy) for xy in doc["targets"])
        vehicles = tuple(Vehicle(i, v["speed"], Point(*v["depot"]))
                         for i, v in enumerate(doc["vehicles"], start=1))
        pins = doc.get("required", {})
        if not isinstance(pins, dict):
            raise ValueError(f"required must be an object, got {pins!r}")
        required = {_vehicle_key(vid): [_target_index(t) for t in ids]
                    for vid, ids in pins.items()}
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise InvalidInstanceError(f"malformed instance document: {exc}") from exc
    return Instance(targets, vehicles, required)


def _vehicle_key(key: str) -> int:
    # int() alone would also take " 1", "+1" and "0_1".
    if not re.fullmatch(r"-?[0-9]+", key):
        raise ValueError(f"vehicle key {key!r} is not an integer")
    return int(key)


def _target_index(value) -> int:
    # int() alone would truncate 0.7 to 0 and take true as 1.
    if is_integer(value) or isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"target index {value!r} is not an integer")


def save_instance(inst: Instance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(instance_to_json(inst))


def load_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_json(fh.read())
