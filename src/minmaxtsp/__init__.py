"""Min-max routing for heterogeneous multi-depot fleets.

A fleet of vehicles with individual speeds and depots must jointly visit a
set of planar targets, some of which may be pinned to specific vehicles, so
that the longest tour time (the makespan) is as small as possible.  The
package provides a three-stage heuristic, an exact oracle for desk-sized
instances, and a benchmark protocol with CSV reports and SVG tour drawings.
"""

from .allocation import (build_initial_solution, min_target_counts,
                         perturb_colocated_depots, solve_load_balancing)
from .bench import (ExperimentConfig, ExperimentReport, ReportRow,
                    generate_instance, run_experiment, scenario1, scenario2,
                    write_report)
from .heuristic import (InsertionQuote, SavingsEntry, SolverConfig, StageTrace,
                        best_insertion, compute_savings, local_search,
                        perturbation_loop, perturbation_radius, solve)
from .io import (instance_from_json, instance_to_json, load_instance,
                 save_instance)
from .model import (DEPOT, InfeasibleAllocationError, Instance,
                    InvalidConfigError, InvalidInstanceError,
                    NoInsertionCandidateError, OracleBudgetError, Point,
                    Solution, SolverError, StageCheckError, Tour, Vehicle,
                    distances, tour_duration, validate_solution)
from .oracle import exact_minmax, oracle_feasible
from .svgplot import render_tours
from .tsp import EXACT, HEURISTIC, TourRequest, solve_tsp

__version__ = "0.1.0"

__all__ = [
    "DEPOT", "EXACT", "ExperimentConfig", "ExperimentReport",
    "HEURISTIC", "InfeasibleAllocationError", "InsertionQuote", "Instance",
    "InvalidConfigError", "InvalidInstanceError", "NoInsertionCandidateError",
    "OracleBudgetError", "Point", "ReportRow", "SavingsEntry", "Solution",
    "SolverConfig", "SolverError", "StageCheckError", "StageTrace", "Tour",
    "TourRequest", "Vehicle", "best_insertion", "build_initial_solution",
    "compute_savings", "distances", "exact_minmax",
    "generate_instance", "instance_from_json", "instance_to_json",
    "load_instance", "local_search", "min_target_counts", "oracle_feasible",
    "perturb_colocated_depots", "perturbation_loop", "perturbation_radius",
    "render_tours", "run_experiment", "save_instance",
    "scenario1", "scenario2", "solve", "solve_load_balancing", "solve_tsp",
    "tour_duration", "validate_solution", "write_report",
]
