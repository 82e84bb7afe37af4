"""``tools/ab_plans.py``: a tree against itself gives equal plan hashes and
exit 0; a tree whose plans, stage plans or stage tour durations differ
gives exit 1; an unknown config, or one with no instance count, exit 2;
``--out`` writes one record per cell."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "ab_plans.py"


def _run(old, new, config="k2_heur_stop1_n30", *extra, instances=("--instances", "2")):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, str(TOOL), str(old), str(new), "--config", config,
                           *instances, "--seeds", "1,2", *extra],
                          env=env, capture_output=True, text=True, timeout=300)


def test_the_checkout_against_itself_has_equal_plans():
    done = _run(ROOT, ROOT)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 2 and all(line.endswith(" same, mean makespan +0.000%")
                                   for line in lines), done.stdout


def test_a_tree_with_other_plans_exits_1(tmp_path):
    other = tmp_path / "other"
    shutil.copytree(ROOT / "src", other / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    bench = other / "src" / "minmaxtsp" / "bench.py"
    text = bench.read_text(encoding="utf-8")
    assert "GRID = 200.0" in text
    bench.write_text(text.replace("GRID = 200.0", "GRID = 100.0"),
                     encoding="utf-8")
    out = tmp_path / "ab.json"
    done = _run(ROOT, other, "s1_n60", "--out", str(out))
    assert done.returncode == 1, done.stdout + done.stderr
    assert "DIFFER" in done.stdout
    # Targets on half the grid: every tour is half as long, and the change in
    # mean makespan says so on each line and in each record.
    for line, record in zip(done.stdout.splitlines(), json.loads(out.read_text(encoding="utf-8"))):
        change = record["makespan_change_pct"]
        assert change == 100.0 * (record["new"]["makespan_mean"]
                                  / record["old"]["makespan_mean"] - 1.0)
        assert -60.0 < change < -40.0
        assert line.endswith(f" DIFFER, mean makespan {change:+.3f}%")


def test_a_tree_with_other_short_tour_durations_exits_1(tmp_path):
    # The final plans, every stage plan's sequences and every stage objective
    # agree, but the stage-2 plan records another duration on each tour that
    # is not the longest.
    other = tmp_path / "other"
    shutil.copytree(ROOT / "src", other / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    heuristic = other / "src" / "minmaxtsp" / "heuristic.py"
    text = heuristic.read_text(encoding="utf-8")
    stage_plan = "STAGE_LOCAL_SEARCH: improved,"
    assert text.count(stage_plan) == 1
    shortened = ("STAGE_LOCAL_SEARCH: Solution(tuple(Tour(t.vehicle_id, t.sequence,"
                 " t.duration if t.duration == improved.objective else t.duration / 2)"
                 " for t in improved.tours)),")
    heuristic.write_text(text.replace(stage_plan, shortened), encoding="utf-8")
    done = _run(ROOT, other)
    assert done.returncode == 1, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 2 and all(line.endswith(" DIFFER, mean makespan +0.000%")
                                   for line in lines), done.stdout


def test_a_tree_with_other_stage_plans_exits_1(tmp_path):
    # The final plans and every stage objective agree, but the StageTrace
    # records a stage-2 plan whose tours run the other way round.
    other = tmp_path / "other"
    shutil.copytree(ROOT / "src", other / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    heuristic = other / "src" / "minmaxtsp" / "heuristic.py"
    text = heuristic.read_text(encoding="utf-8")
    stage_plan = "STAGE_LOCAL_SEARCH: improved,"
    assert text.count(stage_plan) == 1
    reversed_plan = ("STAGE_LOCAL_SEARCH: Solution(tuple(Tour(t.vehicle_id, t.sequence[::-1],"
                     " t.duration) for t in improved.tours)),")
    heuristic.write_text(text.replace(stage_plan, reversed_plan), encoding="utf-8")
    done = _run(ROOT, other)
    assert done.returncode == 1, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 2 and all(line.endswith(" DIFFER, mean makespan +0.000%")
                                   for line in lines), done.stdout


def test_an_unknown_config_exits_2():
    done = _run(ROOT, ROOT, config="no_such_config")
    assert done.returncode == 2
    assert "unknown config" in done.stderr


def test_a_config_without_its_own_count_needs_instances():
    done = _run(ROOT, ROOT, instances=())
    assert done.returncode == 2
    assert "needs --instances" in done.stderr


def test_out_writes_one_record_per_cell_and_seed(tmp_path):
    out = tmp_path / "sizes.json"
    done = _run(ROOT, ROOT, "s1_n10", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    records = json.loads(out.read_text(encoding="utf-8"))
    assert [(r["config"], r["seed"], r["instances"]) for r in records] == [
        ("s1_n10", 1, 2), ("s1_n10", 2, 2)]
    for record in records:
        assert set(record) == {"config", "seed", "instances", "ratio", "same_plans",
                               "makespan_change_pct", "old", "new"}
        assert record["same_plans"] and record["ratio"] > 0
        assert record["makespan_change_pct"] == 0.0
        for tree in (record["old"], record["new"]):
            assert set(tree) == {"solve_s_p50", "solve_s_p90", "makespan_mean",
                                 "plan_sha256", "stage_s_mean"}
            assert set(tree["stage_s_mean"]) == {"init", "local_search", "perturbation"}
            assert 0 < tree["solve_s_p50"] <= tree["solve_s_p90"]
        assert record["old"]["plan_sha256"] == record["new"]["plan_sha256"]
