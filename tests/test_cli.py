"""Command-line interface: the gen / solve / bench round trip and exit codes."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from minmaxtsp import generate_instance, load_instance, scenario1, validate_solution
from minmaxtsp import heuristic
from minmaxtsp.cli import main

from conftest import report_records


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "inst.json"
    code = main(["gen", "--scenario", "1", "--n-targets", "8",
                 "--seed", "3", "--out", str(path)])
    assert code == 0
    return path


class TestGen:
    def test_writes_a_loadable_instance(self, instance_file):
        inst = load_instance(instance_file)
        assert inst.n_targets == 8
        assert inst.k == 3
        assert inst == generate_instance(scenario1(n_targets=8, seed=3), 0)

    def test_index_selects_within_the_run(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["gen", "--scenario", "2", "--n-targets", "6",
                     "--seed", "1", "--out", str(a)]) == 0
        assert main(["gen", "--scenario", "2", "--n-targets", "6",
                     "--seed", "1", "--index", "1", "--out", str(b)]) == 0
        assert load_instance(a) != load_instance(b)


class TestSolve:
    def test_prints_objective_and_tours(self, instance_file, capsys):
        assert main(["solve", "--instance", str(instance_file)]) == 0
        out = capsys.readouterr().out
        assert "objective:" in out
        assert "after_local_search:" in out
        assert "vehicle 3:" in out

    def test_same_seed_prints_the_same_plan(self, instance_file, capsys):
        main(["solve", "--instance", str(instance_file), "--seed", "9"])
        first = capsys.readouterr().out
        main(["solve", "--instance", str(instance_file), "--seed", "9"])
        assert capsys.readouterr().out == first

    def test_trace_file(self, instance_file, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        assert main(["solve", "--instance", str(instance_file),
                     "--trace", str(trace)]) == 0
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "stage,objective,wall_time_s,iterations"
        assert len(lines) == 4
        assert lines[1].startswith("init,")
        assert lines[3].startswith("perturbation,")

    def test_svg_files_per_stage(self, instance_file, tmp_path, capsys):
        prefix = tmp_path / "tours"
        assert main(["solve", "--instance", str(instance_file),
                     "--svg", str(prefix)]) == 0
        for stage in ("init", "local_search", "perturbation"):
            doc = ET.parse(f"{prefix}_{stage}.svg")
            assert doc.getroot().tag.endswith("svg")
        assert "wrote" in capsys.readouterr().out

    def test_forty_targets_get_a_valid_plan(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        assert main(["gen", "--scenario", "1", "--n-targets", "40",
                     "--seed", "7", "--out", str(path)]) == 0
        assert main(["solve", "--instance", str(path)]) == 0
        inst = load_instance(path)
        sol, _ = heuristic.solve(inst, rng=np.random.default_rng(0))
        assert validate_solution(inst, sol) == []
        out = capsys.readouterr().out
        assert f"objective: {sol.objective:.9f}" in out


class TestBench:
    def test_writes_report(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = main(["bench", "--scenario", "1", "--n-targets", "8",
                     "--instances", "2", "--seed", "4", "--oracle",
                     "--out", str(out)])
        assert code == 0
        rows = report_records(out)
        assert len(rows) == 2
        assert all(r["oracle_obj"] != "NA" for r in rows)
        stdout = capsys.readouterr().out
        assert "mean final gap" in stdout

    def test_without_oracle_prints_times_only(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        assert main(["bench", "--scenario", "2", "--n-targets", "8",
                     "--instances", "2", "--seed", "4", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "mean heuristic time" in stdout
        assert "mean final gap" not in stdout

    def test_refused_instances_are_counted_and_the_run_finishes(self, tmp_path, capsys):
        # Stage 1 refuses 10 of these 20 pinned instances; the first refusal
        # once ended the command with exit 1 and no report.
        out = tmp_path / "report.csv"
        assert main(["bench", "--scenario", "1", "--n-targets", "10", "--instances", "20",
                     "--assign-frac", "0.8", "--seed", "3", "--oracle", "--out", str(out)]) == 0
        assert "# rows_failed=10\n" in out.read_text()
        assert "(20 instances, 10 failed)" in capsys.readouterr().out
        # Instance 0 of seed 0 is refused: a run of it alone has no mean to print.
        assert main(["bench", "--scenario", "1", "--n-targets", "10", "--instances", "1",
                     "--assign-frac", "0.8", "--seed", "0", "--out", str(out)]) == 0
        assert [r["error"] for r in report_records(out)] == ["InfeasibleAllocationError"]
        stdout = capsys.readouterr().out
        assert "(1 instances, 1 failed)" in stdout and "mean heuristic time" not in stdout


class TestExitCodes:
    def test_malformed_instance_is_invalid_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        assert main(["solve", "--instance", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_a_document_that_is_a_list_is_named(self, tmp_path, capsys):
        bad = tmp_path / "list.json"
        bad.write_text("[]")
        assert main(["solve", "--instance", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "the document must be a JSON object" in err and "Traceback" not in err

    @pytest.mark.parametrize("content, message", [
        pytest.param(b'{"targets": [[0, 0]], "vehicles": [{"speed": 1.0, "depot": [0, 0]},'
                     b' {"depot": [1, 1]}]}', "vehicle 2 lacks 'speed'", id="no speed"),
        pytest.param(b"\xff\xfe{}", "instance file is not UTF-8 text", id="not UTF-8"),
    ])
    def test_an_unreadable_document_is_one_error_line(self, content, message, tmp_path,
                                                      capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        assert main(["solve", "--instance", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert message in captured.err and "Traceback" not in captured.err

    def test_a_bug_is_not_reported_as_invalid_input(self, instance_file, monkeypatch):
        # Only the package's typed errors are invalid input; a ValueError
        # from a programming error escapes with its traceback.
        def broken(*args, **kwargs):
            raise ValueError("not an input error")

        monkeypatch.setattr(heuristic, "solve", broken)
        with pytest.raises(ValueError, match="not an input error"):
            main(["solve", "--instance", str(instance_file)])

    def test_missing_file_is_io_failure(self, tmp_path, capsys):
        assert main(["solve", "--instance", str(tmp_path / "nope.json")]) == 2
        assert "i/o error:" in capsys.readouterr().err

    def test_unwritable_report_is_io_failure(self, tmp_path, capsys):
        out = tmp_path / "missing-dir" / "report.csv"
        assert main(["bench", "--scenario", "1", "--n-targets", "6",
                     "--instances", "1", "--out", str(out)]) == 2

    def test_zero_instances_is_invalid_input(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        assert main(["bench", "--scenario", "1", "--instances", "0",
                     "--out", str(out)]) == 1
        assert "error: n_instances" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen", "bench"])
    def test_grid_is_no_option(self, command, tmp_path, capsys):
        # Instances are drawn on the fixed square of bench.GRID, not a flag.
        out = tmp_path / "out"
        args = [command, "--scenario", "1", "--n-targets", "6", "--out", str(out)]
        assert main(args + ["--grid", "100"]) == 1
        captured = capsys.readouterr()
        assert "unrecognized arguments: --grid" in captured.err
        assert captured.out == "" and not out.exists()

    def test_negative_seed_is_invalid_input(self, instance_file, capsys):
        assert main(["solve", "--instance", str(instance_file), "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert "error: rng must be" in captured.err
        assert captured.out == ""

    def test_negative_index_is_invalid_input(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        assert main(["gen", "--scenario", "1", "--index", "-1", "--out", str(out)]) == 1
        assert "error: index must be an integer >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_stage_check_is_an_error_not_a_traceback(
            self, instance_file, monkeypatch, capsys):
        monkeypatch.setattr(heuristic, "validate_solution", lambda inst, sol: ["forced"])
        assert main(["solve", "--instance", str(instance_file)]) == 1
        err = capsys.readouterr().err
        assert "error: stage init produced an infeasible plan" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["solve", "bench"])
    def test_tour_mode_is_no_option(self, command, instance_file, tmp_path, capsys):
        # Exact tours are a library setting (SolverConfig.tour_mode), not a flag.
        out = tmp_path / "report.csv"
        args = (["solve", "--instance", str(instance_file)] if command == "solve" else
                ["bench", "--scenario", "1", "--n-targets", "6", "--instances", "1",
                 "--out", str(out)])
        assert main(args + ["--tour-mode", "exact"]) == 1
        captured = capsys.readouterr()
        assert "unrecognized arguments: --tour-mode exact" in captured.err
        assert captured.out == "" and not out.exists()

    def test_usage_errors(self, capsys):
        assert main([]) == 1
        assert main(["solve"]) == 1
        assert main(["bench", "--scenario", "9", "--out", "x.csv"]) == 1
        capsys.readouterr()
