"""Benchmark protocol: instance generation, experiment runs, CSV reports.

Targets are drawn i.i.d. uniform on a square grid; depots are drawn the same
way, with co-located fleets sharing one draw per group.  A fraction of the
targets is pre-assigned to uniformly random vehicles.  Instance i of a run
seeds its own generator with ``seed XOR i`` (PCG64 underneath), split into a
generation substream and a solver substream, so any instance of a run can be
reproduced in isolation.
"""

import csv
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import heuristic
from .model import (SPEED_MIN, Instance, InvalidConfigError, Point, Vehicle, is_integer,
                    is_real)
from .oracle import exact_minmax, oracle_feasible
from .tsp import HEURISTIC

REPORT_COLUMNS = ("instance", "init_obj", "ls_obj", "final_obj", "oracle_obj",
                  "gap_init_pct", "gap_ls_pct", "gap_final_pct",
                  "t_heuristic_s", "t_oracle_s")


@dataclass(frozen=True)
class ExperimentConfig:
    """Experiment settings, checked on construction (``InvalidConfigError``)
    and frozen; ``dataclasses.replace`` derives a variant and checks it again."""

    n_targets: int = 30
    speeds: tuple = (1.0, 1.5, 2.0)
    colocated: tuple = ()          # tuples of vehicle ids sharing one depot draw
    assign_fraction: float = 0.0
    n_instances: int = 20
    seed: int = 0
    grid: float = 200.0
    oracle: bool = False
    tour_mode: str = HEURISTIC

    def __post_init__(self):
        if not (is_real(self.assign_fraction) and 0.0 <= self.assign_fraction <= 1.0):
            raise InvalidConfigError(
                f"assign_fraction must be a number in [0, 1], got {self.assign_fraction!r}")
        for name, least in (("n_targets", 1), ("n_instances", 1), ("seed", 0)):
            value = getattr(self, name)
            if not (is_integer(value) and value >= least):
                raise InvalidConfigError(
                    f"{name} must be an integer >= {least}, got {value!r}")
        if not (is_real(self.grid) and 0 < self.grid <= sys.float_info.max):
            raise InvalidConfigError(f"grid must be a finite number > 0, got {self.grid!r}")
        if not (isinstance(self.speeds, tuple) and self.speeds and all(
                is_real(s) and SPEED_MIN <= s <= sys.float_info.max for s in self.speeds)):
            raise InvalidConfigError(f"speeds must be a non-empty tuple of finite numbers"
                                     f" >= {SPEED_MIN:g}, got {self.speeds!r}")
        heuristic.SolverConfig(tour_mode=self.tour_mode)  # rejects an unknown tour_mode
        if not (isinstance(self.colocated, tuple)
                and all(isinstance(group, tuple) for group in self.colocated)):
            raise InvalidConfigError(f"colocated must be a tuple of tuples of vehicle ids,"
                                     f" got {self.colocated!r}")
        seen = set()
        for group in self.colocated:
            for vid in group:
                if not (is_integer(vid) and 1 <= vid <= self.k) or vid in seen:
                    raise InvalidConfigError(f"bad co-location group member {vid!r}")
                seen.add(vid)

    @property
    def k(self) -> int:
        return len(self.speeds)


def scenario1(**overrides) -> ExperimentConfig:
    """Three vehicles with speeds 1, 1.5, 2 and three independent depots."""
    return ExperimentConfig(**{"speeds": (1.0, 1.5, 2.0), **overrides})


def scenario2(**overrides) -> ExperimentConfig:
    """Speeds 1, 1, 2 with the two slow vehicles sharing a depot."""
    return ExperimentConfig(**{"speeds": (1.0, 1.0, 2.0),
                               "colocated": ((1, 2),), **overrides})


def _substream(seed: int, index: int, lane: int) -> np.random.Generator:
    """Independent generator for one instance: lane 0 generates, lane 1 solves."""
    root = np.random.SeedSequence(entropy=seed ^ index, spawn_key=(lane,))
    return np.random.default_rng(root)


def generate_instance(cfg: ExperimentConfig, index: int) -> Instance:
    """Instance ``index`` of a run; deterministic in (cfg.seed, index)."""
    rng = _substream(cfg.seed, index, lane=0)
    xy = rng.uniform(0.0, cfg.grid, size=(cfg.n_targets, 2))
    targets = tuple(Point(float(x), float(y)) for x, y in xy)

    group_of = {}
    for group in cfg.colocated:
        head = min(group)
        for vid in group:
            group_of[vid] = head
    depots = {}
    vehicles = []
    for vid, speed in enumerate(cfg.speeds, start=1):
        head = group_of.get(vid, vid)
        if head not in depots:
            depots[head] = Point(float(rng.uniform(0.0, cfg.grid)),
                                 float(rng.uniform(0.0, cfg.grid)))
        vehicles.append(Vehicle(vid, float(speed), depots[head]))

    n_assigned = math.floor(cfg.assign_fraction * cfg.n_targets)
    required = {}
    if n_assigned:
        chosen = rng.choice(cfg.n_targets, size=n_assigned, replace=False)
        owners = rng.integers(1, cfg.k + 1, size=n_assigned)
        for t, vid in zip(chosen, owners):
            required.setdefault(int(vid), []).append(int(t))
    return Instance(targets, tuple(vehicles), required)


@dataclass
class ReportRow:
    instance: int
    init_obj: float
    ls_obj: float
    final_obj: float
    oracle_obj: float | None
    gap_init_pct: float | None
    gap_ls_pct: float | None
    gap_final_pct: float | None
    t_heuristic_s: float
    t_oracle_s: float | None


@dataclass
class ExperimentReport:
    rows: list

    def _gap_rows(self):
        return [r for r in self.rows if r.oracle_obj is not None]

    def mean_gap(self, stage: str) -> float | None:
        rows = self._gap_rows()
        if not rows:
            return None
        return sum(getattr(r, f"gap_{stage}_pct") for r in rows) / len(rows)

    def max_gap_final(self) -> float | None:
        rows = self._gap_rows()
        return max(r.gap_final_pct for r in rows) if rows else None

    def mean_time_heuristic(self) -> float | None:
        if not self.rows:
            return None
        return sum(r.t_heuristic_s for r in self.rows) / len(self.rows)

    def mean_time_oracle(self) -> float | None:
        rows = self._gap_rows()
        if not rows:
            return None
        return sum(r.t_oracle_s for r in rows) / len(rows)

    def rows_without_oracle(self) -> int:
        return sum(1 for r in self.rows if r.oracle_obj is None)


def _gap_pct(value: float, reference: float) -> float:
    return 100.0 * (value - reference) / reference


def run_experiment(cfg: ExperimentConfig, on_instance=None) -> ExperimentReport:
    """Generate, solve, and (optionally) oracle-check every instance of a run.

    ``on_instance(index, instance, solution, trace)`` is invoked per instance
    when given; the trace carries the per-stage solutions.
    """
    rows = []
    for index in range(cfg.n_instances):
        inst = generate_instance(cfg, index)
        solver_cfg = heuristic.SolverConfig(tour_mode=cfg.tour_mode)
        t0 = time.perf_counter()
        sol, trace = heuristic.solve(inst, solver_cfg, rng=_substream(cfg.seed, index, lane=1))
        t_heur = round(time.perf_counter() - t0, 3)

        oracle_obj = None
        t_oracle = None
        gaps = (None, None, None)
        if cfg.oracle and oracle_feasible(inst):
            t0 = time.perf_counter()
            oracle_obj = exact_minmax(inst).objective
            t_oracle = round(time.perf_counter() - t0, 3)
            gaps = (_gap_pct(trace.after_init, oracle_obj),
                    _gap_pct(trace.after_local_search, oracle_obj),
                    _gap_pct(trace.after_perturbation, oracle_obj))
        if on_instance is not None:
            on_instance(index, inst, sol, trace)
        rows.append(ReportRow(index, trace.after_init, trace.after_local_search,
                              trace.after_perturbation, oracle_obj,
                              gaps[0], gaps[1], gaps[2], t_heur, t_oracle))
    return ExperimentReport(rows)


def _fmt(value, digits: int) -> str:
    return "NA" if value is None else f"{value:.{digits}f}"


def write_report(report: ExperimentReport, path) -> None:
    """CSV with one row per instance and aggregate lines prefixed by '#'."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for r in report.rows:
            writer.writerow([r.instance, _fmt(r.init_obj, 9), _fmt(r.ls_obj, 9),
                             _fmt(r.final_obj, 9), _fmt(r.oracle_obj, 9),
                             _fmt(r.gap_init_pct, 9), _fmt(r.gap_ls_pct, 9),
                             _fmt(r.gap_final_pct, 9), _fmt(r.t_heuristic_s, 3),
                             _fmt(r.t_oracle_s, 3)])
        fh.write(f"# mean_gap_init_pct={_fmt(report.mean_gap('init'), 9)}\n")
        fh.write(f"# mean_gap_ls_pct={_fmt(report.mean_gap('ls'), 9)}\n")
        fh.write(f"# mean_gap_final_pct={_fmt(report.mean_gap('final'), 9)}\n")
        fh.write(f"# max_gap_final_pct={_fmt(report.max_gap_final(), 9)}\n")
        fh.write(f"# mean_t_heuristic_s={_fmt(report.mean_time_heuristic(), 3)}\n")
        fh.write(f"# mean_t_oracle_s={_fmt(report.mean_time_oracle(), 3)}\n")
        fh.write(f"# rows_without_oracle={report.rows_without_oracle()}\n")
