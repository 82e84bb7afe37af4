"""Benchmark protocol: instance generation, experiment runs, CSV reports.

Targets are drawn i.i.d. uniform on the square [0, GRID]^2; depots are drawn
the same way, with co-located fleets sharing one draw per group.  A fraction
of the targets is pre-assigned to uniformly random vehicles.  Instance i of a
run seeds its own generator with ``seed XOR i`` (PCG64 underneath), split into
a generation substream and a solver substream, so any instance of a run can be
reproduced in isolation.
"""

import io
import math
import sys
import time
from dataclasses import dataclass, fields

import numpy as np

from . import heuristic
from .model import (SPEED_MIN, Instance, InvalidConfigError, Point, SolverError, Vehicle,
                    is_integer, is_real, is_speed, plain, write_text)
from .oracle import exact_minmax, oracle_feasible

GRID = 200.0  # side of the square that targets and depots are drawn on


@dataclass(frozen=True)
class ExperimentConfig:
    """Experiment settings, checked on construction (``InvalidConfigError``)
    and frozen; ``dataclasses.replace`` derives a variant and checks it again.
    Numpy scalars are kept as the Python numbers they hold (``model.plain``)."""

    n_targets: int = 30
    speeds: tuple = (1.0, 1.5, 2.0)
    colocated: tuple = ()          # tuples of vehicle ids sharing one depot draw
    assign_fraction: float = 0.0
    n_instances: int = 20
    seed: int = 0
    oracle: bool = False

    def __post_init__(self):
        for field in fields(self):
            object.__setattr__(self, field.name, plain(getattr(self, field.name)))
        if not (is_real(self.assign_fraction) and 0.0 <= self.assign_fraction <= 1.0):
            raise InvalidConfigError(
                f"assign_fraction must be a number in [0, 1], got {self.assign_fraction!r}")
        for name, least in (("n_targets", 1), ("n_instances", 1), ("seed", 0)):
            value = getattr(self, name)
            if not (is_integer(value) and value >= least):
                raise InvalidConfigError(
                    f"{name} must be an integer >= {least}, got {value!r}")
        if not (isinstance(self.speeds, tuple) and self.speeds
                and all(is_speed(s) for s in self.speeds)):
            raise InvalidConfigError(f"speeds must be a non-empty tuple of finite numbers"
                                     f" >= {SPEED_MIN:g}, got {self.speeds!r}")
        if not (isinstance(self.colocated, tuple)
                and all(isinstance(group, tuple) and group for group in self.colocated)):
            raise InvalidConfigError(f"colocated must be a tuple of non-empty tuples of"
                                     f" vehicle ids, got {self.colocated!r}")
        if type(self.oracle) is not bool:
            raise InvalidConfigError(f"oracle must be a bool, got {self.oracle!r}")
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


def _check_config(cfg) -> None:
    if not isinstance(cfg, ExperimentConfig):
        raise InvalidConfigError(f"cfg must be an ExperimentConfig, got {cfg!r}")


def _substream(seed: int, index: int, lane: int) -> np.random.Generator:
    """Independent generator for one instance: lane 0 generates, lane 1 solves."""
    root = np.random.SeedSequence(entropy=int(seed) ^ int(index), spawn_key=(lane,))
    return np.random.default_rng(root)


def generate_instance(cfg: ExperimentConfig, index: int) -> Instance:
    """Instance ``index`` (an integer >= 0) of a run; deterministic in (cfg.seed, index).
    ``cfg`` must be an ExperimentConfig (else InvalidConfigError)."""
    _check_config(cfg)
    if not (is_integer(index) and index >= 0):
        raise InvalidConfigError(f"index must be an integer >= 0, got {index!r}")
    rng = _substream(cfg.seed, index, lane=0)
    xy = rng.uniform(0.0, GRID, size=(cfg.n_targets, 2))
    targets = tuple(Point(x, y) for x, y in xy.tolist())

    depots = {}
    vehicles = []
    for vid, speed in enumerate(cfg.speeds, start=1):
        group = next((g for g in cfg.colocated if vid in g), (vid,))
        if group not in depots:
            depots[group] = Point(rng.uniform(0.0, GRID), rng.uniform(0.0, GRID))
        vehicles.append(Vehicle(vid, float(speed), depots[group]))

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
    """One instance's measurements: the objective after each stage, the
    oracle's objective and the wall times.  The oracle's time is present
    exactly when its objective is.  The gaps are derived from the objectives,
    never stored, so a row cannot disagree with itself.  A failed row names
    the SolverError class that ``solve`` raised and holds no objective or time."""

    instance: int
    init_obj: float
    ls_obj: float
    final_obj: float
    oracle_obj: float | None
    t_heuristic_s: float
    t_oracle_s: float | None
    error: str | None = None

    def _gap(self, obj) -> float | None:
        # In Python floats: a numpy scalar would compute in its own dtype
        # (float32's digits, int64's wrap-around).
        if self.oracle_obj is None:
            return None
        opt = float(self.oracle_obj)
        return 100.0 * (float(obj) - opt) / opt

    @property
    def gap_init_pct(self) -> float | None:
        return self._gap(self.init_obj)

    @property
    def gap_ls_pct(self) -> float | None:
        return self._gap(self.ls_obj)

    @property
    def gap_final_pct(self) -> float | None:
        return self._gap(self.final_obj)


REPORT_COLUMNS = ("instance", "init_obj", "ls_obj", "final_obj", "oracle_obj", "gap_init_pct",
                  "gap_ls_pct", "gap_final_pct", "t_heuristic_s", "t_oracle_s", "error")


@dataclass
class ExperimentReport:
    rows: list

    def summary(self) -> dict:
        """The aggregates by name, in the order the CSV writes them.  Failed
        rows count in ``rows_failed`` alone, gap and oracle-time aggregates
        cover oracle rows only; over no rows, None.

        This is the report's one check (else InvalidConfigError), made before
        any gap is derived: ``rows`` is a list or tuple of ReportRows; each
        field is a number (``is_real``) within +-float max, ``instance`` an
        integer >= 0; ``oracle_obj`` and ``t_oracle_s`` may be None, but only
        together, and ``oracle_obj`` is otherwise above 0; or, in a failed
        row, every field but ``instance`` None and ``error`` an identifier.
        """
        rows = self.rows
        if not (isinstance(rows, (list, tuple)) and all(isinstance(r, ReportRow) for r in rows)):
            raise InvalidConfigError(
                f"report must be an ExperimentReport of ReportRows, got {self!r}")
        for row in rows:
            # A failed row holds its instance, the error's class name and no field between.
            failed = row.error is not None
            if failed and not (isinstance(row.error, str) and row.error.isidentifier() and all(
                    getattr(row, field.name) is None for field in fields(ReportRow)[1:-1])):
                raise InvalidConfigError(f"a failed report row holds an error class name and"
                                         f" no objective or time, got {row!r}")
            for field in fields(ReportRow)[:-1]:
                value = getattr(row, field.name)
                if value is None and (failed or field.name in ("oracle_obj", "t_oracle_s")):
                    continue
                # Beside a float32, the float max would overflow to inf.
                if not (is_real(value) and abs(plain(value)) <= sys.float_info.max):
                    raise InvalidConfigError(
                        f"report row field {field.name} must be a finite number, got {value!r}")
            if not (is_integer(row.instance) and row.instance >= 0):
                raise InvalidConfigError(
                    f"report row field instance must be an integer >= 0, got {row.instance!r}")
            if (row.oracle_obj is None) != (row.t_oracle_s is None) or (
                    row.oracle_obj is not None and not row.oracle_obj > 0):
                raise InvalidConfigError(
                    f"report row fields oracle_obj and t_oracle_s must both be None, or"
                    f" oracle_obj above 0 and t_oracle_s a number; got {row.oracle_obj!r}"
                    f" and {row.t_oracle_s!r}")
        solved = [r for r in rows if r.error is None]
        checked = [r for r in solved if r.oracle_obj is not None]

        def mean(rows, name):
            # Added left to right, as a loop: the builtin sum() compensates
            # float rounding from Python 3.12 on, so its last bits would
            # depend on the Python version.
            if not rows:
                return None
            total = 0
            for r in rows:
                total += getattr(r, name)
            return total / len(rows)

        return {
            "mean_gap_init_pct": mean(checked, "gap_init_pct"),
            "mean_gap_ls_pct": mean(checked, "gap_ls_pct"),
            "mean_gap_final_pct": mean(checked, "gap_final_pct"),
            "max_gap_final_pct": max((r.gap_final_pct for r in checked), default=None),
            "mean_t_heuristic_s": mean(solved, "t_heuristic_s"),
            "mean_t_oracle_s": mean(checked, "t_oracle_s"),
            "rows_without_oracle": len(solved) - len(checked),
            "rows_failed": len(rows) - len(solved),
        }


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Generate, solve, and (optionally) oracle-check every instance of a run;
    one that ``solve`` refuses with a SolverError gives a failed row.  ``cfg``
    must be an ExperimentConfig (else InvalidConfigError)."""
    _check_config(cfg)
    rows = []
    for index in range(cfg.n_instances):
        inst = generate_instance(cfg, index)
        t0 = time.perf_counter()
        try:
            _, trace = heuristic.solve(inst, rng=_substream(cfg.seed, index, lane=1))
        except SolverError as exc:
            rows.append(ReportRow(index, *[None] * 6, type(exc).__name__))
            continue
        t_heur = round(time.perf_counter() - t0, 3)

        objectives = (trace.after_init, trace.after_local_search, trace.after_perturbation)
        oracle_obj = t_oracle = None
        if cfg.oracle and oracle_feasible(inst):
            t0 = time.perf_counter()
            oracle_obj = exact_minmax(inst).objective
            t_oracle = round(time.perf_counter() - t0, 3)
        rows.append(ReportRow(index, *objectives, oracle_obj, t_heur, t_oracle))
    return ExperimentReport(rows)


def _fmt(name: str, value) -> str:
    """One CSV cell, formatted by its column: NA for None, ``error`` as is,
    ``instance`` and row counts as integers, ``*_s`` times to 3 decimals, else 9."""
    if value is None:
        return "NA"
    if name == "error":
        return value
    if name in ("instance", "rows_without_oracle", "rows_failed"):
        return f"{value:d}"
    return f"{value:.{3 if name.endswith('_s') else 9}f}"


def write_report(report: ExperimentReport, path) -> None:
    """CSV with one row per instance and aggregate lines prefixed by '#'.
    ``report`` must be an ExperimentReport that passes ``summary``'s check,
    and ``path`` pass ``check_path`` (else InvalidConfigError, before the
    file is opened)."""
    if not isinstance(report, ExperimentReport):
        raise InvalidConfigError(f"report must be an ExperimentReport, got {report!r}")
    # Imported here, not at module level: csv adds about 0.07 MB of resident
    # memory (measured on CPython 3.11) to every process that imports the
    # package, and only writing a report uses it.
    import csv

    summary = report.summary()
    text = io.StringIO()
    csv.writer(text).writerows([REPORT_COLUMNS] + [
        [_fmt(name, getattr(row, name)) for name in REPORT_COLUMNS] for row in report.rows])
    text.writelines(f"# {name}={_fmt(name, value)}\n" for name, value in summary.items())
    write_text(path, text.getvalue())
