"""Min-max routing for heterogeneous multi-depot fleets.

A fleet of vehicles with individual speeds and depots must jointly visit a
set of planar targets, some of which may be pinned to specific vehicles, so
that the longest tour time (the makespan) is as small as possible.  The
package provides a three-stage heuristic, an exact oracle for desk-sized
instances, and a benchmark protocol with CSV reports and SVG tour drawings.

``__all__`` is the public interface; the stage functions and the tour
solver behind ``solve`` are internal and trust their callers.
"""

from .bench import (ExperimentConfig, ExperimentReport, ReportRow,
                    generate_instance, run_experiment, scenario1, scenario2,
                    write_report)
from .heuristic import SolverConfig, StageTrace, solve
from .io import (instance_from_json, instance_to_json, load_instance,
                 save_instance)
from .model import (DEPOT, InfeasibleAllocationError, Instance,
                    InvalidConfigError, InvalidInstanceError,
                    OracleBudgetError, Point, Solution, SolverError,
                    StageCheckError, Tour, Vehicle, tour_duration,
                    validate_solution)
from .oracle import exact_minmax, oracle_feasible
from .svgplot import render_tours
from .tsp import EXACT, HEURISTIC

__version__ = "0.1.0"

__all__ = [
    "DEPOT", "EXACT", "ExperimentConfig", "ExperimentReport",
    "HEURISTIC", "InfeasibleAllocationError", "Instance",
    "InvalidConfigError", "InvalidInstanceError", "OracleBudgetError",
    "Point", "ReportRow", "Solution", "SolverConfig", "SolverError",
    "StageCheckError", "StageTrace", "Tour", "Vehicle", "exact_minmax",
    "generate_instance", "instance_from_json", "instance_to_json",
    "load_instance", "oracle_feasible", "render_tours", "run_experiment",
    "save_instance", "scenario1", "scenario2", "solve", "tour_duration",
    "validate_solution", "write_report",
]
