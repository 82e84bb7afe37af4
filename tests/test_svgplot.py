"""SVG rendering: well-formed documents with one closed polyline per busy tour,
all rendered before any file is written."""

import xml.etree.ElementTree as ET

import pytest

from minmaxtsp import (DEPOT, InvalidConfigError, InvalidInstanceError, Solution, Tour,
                       render_tours, tour_duration)
from minmaxtsp.svgplot import PALETTE, render_solution_svg

from conftest import line_instance


def _tour(inst, vid, seq):
    return Tour(vid, seq, tour_duration(inst, Tour(vid, seq, 0.0)))


def _line_solution(inst):
    return Solution((_tour(inst, 1, (DEPOT, 0, 1, DEPOT)),
                     _tour(inst, 2, (DEPOT, 3, 2, DEPOT))))


def test_document_structure():
    inst = line_instance()
    root = ET.fromstring(render_solution_svg(inst, _line_solution(inst)))
    assert root.tag.endswith("svg")
    polylines = root.findall(".//{*}polyline")
    assert len(polylines) == 2
    assert len(root.findall(".//{*}circle")) == inst.n_targets
    # one background plus one square per depot
    assert len(root.findall(".//{*}rect")) == 1 + inst.k


def test_polylines_are_closed():
    inst = line_instance()
    root = ET.fromstring(render_solution_svg(inst, _line_solution(inst)))
    for line in root.findall(".//{*}polyline"):
        pts = line.get("points").split()
        assert pts[0] == pts[-1]


def test_parked_vehicle_draws_no_polyline():
    inst = line_instance()
    sol = Solution((_tour(inst, 1, (DEPOT, 0, 1, 2, 3, DEPOT)),
                    _tour(inst, 2, (DEPOT, DEPOT))))
    root = ET.fromstring(render_solution_svg(inst, sol))
    lines = root.findall(".//{*}polyline")
    assert len(lines) == 1
    assert root.find(".//{*}g[@id='vehicle-1']") is not None
    assert root.find(".//{*}g[@id='vehicle-2']") is None


def test_required_targets_wear_their_owners_color():
    inst = line_instance()
    pinned = type(inst)(inst.targets, inst.vehicles, {2: [3]})
    root = ET.fromstring(render_solution_svg(pinned, _line_solution(pinned)))
    fills = [c.get("fill") for c in root.findall(".//{*}circle")]
    assert fills[3] == PALETTE[1]
    assert fills[:3] == ["white"] * 3


def test_render_tours_names_files_by_label(tmp_path):
    inst = line_instance()
    sol = _line_solution(inst)
    prefix = tmp_path / "plan"
    paths = render_tours(inst, [("before", sol), ("after", sol)], prefix)
    assert paths == [f"{prefix}_before.svg", f"{prefix}_after.svg"]
    for p in paths:
        ET.parse(p)  # well-formed XML


@pytest.mark.parametrize("broken", ["instance", "second_solution"])
def test_failed_render_leaves_existing_files_alone(tmp_path, broken):
    inst = line_instance()
    sol = _line_solution(inst)
    stray = Solution((_tour(inst, 1, (DEPOT, 0, 1, DEPOT)), Tour(2, (DEPOT, 99, DEPOT), 1.0)))
    labeled = [("before", sol), ("after", sol if broken == "instance" else stray)]
    old = {label: f"old {label}\n".encode() for label, _ in labeled}
    for label, data in old.items():
        (tmp_path / f"plan_{label}.svg").write_bytes(data)
    with pytest.raises(InvalidInstanceError):
        render_tours(None if broken == "instance" else inst, labeled, tmp_path / "plan")
    for label, data in old.items():
        assert (tmp_path / f"plan_{label}.svg").read_bytes() == data


@pytest.mark.parametrize("vertex", [99, 4, -2, True, 1.0], ids=["99", "n", "-2", "True", "1.0"])
def test_a_tour_vertex_that_is_no_target_raises(vertex):
    # A vertex past the end raised a bare IndexError, and -2 drew target n - 2.
    inst = line_instance()
    sol = Solution((Tour(1, (DEPOT, 0, vertex, DEPOT), 1.0), Tour(2, (DEPOT, DEPOT), 0.0)))
    with pytest.raises(InvalidInstanceError, match="tour vertex"):
        render_solution_svg(inst, sol)


def test_a_plan_of_another_instance_raises(tmp_path):
    inst = line_instance()
    bigger = type(inst)(inst.targets * 2, inst.vehicles)
    plan = Solution((_tour(bigger, 1, (DEPOT, 0, 7, DEPOT)), _tour(bigger, 2, (DEPOT, DEPOT))))
    with pytest.raises(InvalidInstanceError, match="tour vertex"):
        render_tours(inst, [("p", plan)], tmp_path / "x")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("labeled", [None, "ab", ["ab"], [("a", "b", "c")]],
                         ids=["none", "str", "label-alone", "triple"])
def test_labeled_must_hold_label_solution_pairs(labeled, tmp_path):
    with pytest.raises(InvalidInstanceError, match="labeled must be a list"):
        render_tours(line_instance(), labeled, tmp_path / "x")
    assert not any(tmp_path.iterdir())


def test_the_prefix_must_be_a_str_path(tmp_path, monkeypatch):
    # The prefix goes into file names: bytes would write "b'x'_plan.svg".
    monkeypatch.chdir(tmp_path)
    inst = line_instance()
    with pytest.raises(InvalidConfigError, match="prefix must be a str path"):
        render_tours(inst, [("plan", _line_solution(inst))], b"x")
    assert not any(tmp_path.iterdir())


def test_a_bare_solution_is_not_a_pair(tmp_path):
    inst = line_instance()
    with pytest.raises(InvalidInstanceError, match="labeled must be a list"):
        render_tours(inst, [_line_solution(inst)], tmp_path / "x")
    with pytest.raises(InvalidInstanceError, match="must be a Solution"):
        render_tours(inst, [("plan", "not a plan")], tmp_path / "x")
    assert not any(tmp_path.iterdir())


def test_output_is_deterministic():
    inst = line_instance()
    sol = _line_solution(inst)
    assert render_solution_svg(inst, sol) == render_solution_svg(inst, sol)
