"""Self-tests of the benchmark.  Run from the repository root:

    python -m pytest perfbench -q

Runs are tiny (about one second of solving each), so only the shape and the
deterministic parts of a result are checked, never a timing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
import run  # noqa: E402
from minmaxtsp import heuristic, tsp  # noqa: E402
from minmaxtsp.tsp import EXACT  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY = 1.0

# Metrics that are exact functions of (workload, seed, seconds).
DETERMINISTIC_E2E = {"makespan_mean"}
DETERMINISTIC_LAYER = {name for name in PER_LAYER
                       if name.endswith(".calls") or name in {
                           "gap_final_pct_mean", "gap_final_pct_max", "failed_frac",
                           "tsp.cache.hit_frac", "heuristic.ls.accept_frac",
                           "tsp.request.targets_mean", "tsp.request.long_frac",
                           "heuristic.perturbation.iterations", "oracle.partitions"}}


def tiny_run(name, seed, trace):
    return harness.run(name, seed, TINY, trace, setup_repeats=1)


@pytest.fixture(scope="module")
def runs():
    """{(workload, seed, trace): report} for two seeds, one of them twice."""
    out = {}
    for name in WORKLOADS:
        for trace in (False, True):
            out[name, 5, trace] = tiny_run(name, 5, trace)
            out[name, 6, trace] = tiny_run(name, 6, trace)
            out[name, 5, trace, "again"] = tiny_run(name, 5, trace)
    return out


def test_spec_matches_harness_workloads():
    assert WORKLOADS == list(harness.WORKLOADS)
    assert len(END_TO_END) == len(SPEC["end_to_end"])
    assert not END_TO_END & PER_LAYER


@pytest.mark.parametrize("name", WORKLOADS)
def test_each_run_reports_every_declared_metric_and_passes_its_checks(runs, name):
    untraced, traced = runs[name, 5, False], runs[name, 5, True]
    assert set(untraced["values"]) == END_TO_END
    assert set(traced["values"]) == PER_LAYER
    for report in (untraced, traced):
        assert report["problems"] == []
        assert report["failed"] == 0
        assert report["attempted"] >= 1
    assert all(untraced["values"][m] > 0 for m in END_TO_END)


@pytest.mark.parametrize("name", WORKLOADS)
def test_seed_changes_instances_but_not_metric_names(runs, name):
    for trace in (False, True):
        a, b = runs[name, 5, trace], runs[name, 6, trace]
        assert a["provenance"]["instances_sha256"] != b["provenance"]["instances_sha256"]
        assert set(a["values"]) == set(b["values"])


@pytest.mark.parametrize("name", WORKLOADS)
def test_deterministic_metrics_repeat_exactly(runs, name):
    for trace, names in ((False, DETERMINISTIC_E2E), (True, DETERMINISTIC_LAYER)):
        first, again = runs[name, 5, trace], runs[name, 5, trace, "again"]
        assert first["provenance"]["instances_sha256"] == again["provenance"]["instances_sha256"]
        for metric in names:
            assert first["values"][metric] == again["values"][metric], metric


def test_oracle_workload_compares_against_the_oracle(runs):
    values = runs["s1_exact_oracle_n10", 5, True]["values"]
    assert values["oracle_s_p50"] > 0
    assert values["oracle.partitions"] > 0
    assert values["gap_final_pct_max"] >= values["gap_final_pct_mean"] >= 0
    assert values["tsp.held_karp_order.calls"] > 0


def test_tracing_leaves_the_solver_as_it_found_it(runs):
    assert heuristic.solve_tsp is tsp.solve_tsp
    assert harness.oracle.exact_minmax.__module__ == "minmaxtsp.oracle"
    assert tsp.TspCache.get.__qualname__ == "TspCache.get"


def test_known_allocation_defect_is_counted_and_the_run_finishes():
    # Every target pinned: min_target_counts does not cap its bounds at the
    # free-target count, so solve raises InfeasibleAllocationError on most
    # instances (ROADMAP item 3).  The run must count these and go on.
    pinned = harness.Workload("s1_exact_pinned_all_n10",
                              dict(n_targets=10, speeds=(1.0, 1.5, 2.0), assign_fraction=1.0),
                              dict(tour_mode=EXACT), oracle=True, rate=20.0)
    report = harness.run(pinned.name, 2026, TINY, False, workload=pinned, setup_repeats=1)
    assert report["extra"]["failed_frac"] > 0
    assert report["failed"] == len(report["errors"]) > 0
    assert {error for _, error in report["errors"]} == {"InfeasibleAllocationError"}
    assert report["attempted"] == pinned.plan(TINY).instances
    assert report["problems"] == []


def test_failed_check_makes_the_command_exit_nonzero(monkeypatch, capsys):
    monkeypatch.setattr(harness, "SETUP_REPEATS", 1)
    monkeypatch.setattr(harness, "validate_solution", lambda inst, sol: ["forced problem"])
    args = run.parse_args(["--workload", "s1_exact_oracle_n10", "--seed", "1",
                           "--seconds", "0.2", "--trace", "0"])
    assert harness.main(args) == 1
    lines = capsys.readouterr().out.strip().splitlines()
    assert any(line.startswith("CHECK FAILED") for line in lines)
    result = json.loads(lines[-1])
    assert result["correct"] is False and result["failed"] == result["attempted"]


def test_command_prints_one_json_result_last(capsys, monkeypatch):
    monkeypatch.setattr(harness, "SETUP_REPEATS", 1)
    args = run.parse_args(["--workload", "k2_heur_stop1_n30", "--seed", "1",
                           "--seconds", "0.2", "--trace", "1"])
    assert harness.main(args) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == PER_LAYER
    assert all(set(m) == {"value", "unit"} and m["unit"] for m in result["metrics"].values())


def test_without_the_package_source_the_command_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_design_notes_cover_every_workload_and_metric():
    design = (HERE / "DESIGN.md").read_text(encoding="utf-8")
    for name in WORKLOADS + sorted(END_TO_END) + sorted(PER_LAYER):
        assert f"`{name}`" in design, name
