"""Benchmark protocol: seeded generation, experiment runs, and CSV reports."""

import csv
import dataclasses
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minmaxtsp import (ExperimentConfig, ExperimentReport, InfeasibleAllocationError,
                       InvalidConfigError, generate_instance, run_experiment, scenario1,
                       scenario2, solve, write_report)
from minmaxtsp.bench import GRID, REPORT_COLUMNS, ReportRow, _fmt, _substream
from minmaxtsp.model import SPEED_MIN

from conftest import report_records


class TestGeneration:
    def test_same_seed_and_index_reproduce_the_instance(self):
        cfg = scenario1(n_targets=12, seed=77)
        assert generate_instance(cfg, 4) == generate_instance(cfg, 4)

    def test_indices_give_distinct_instances(self):
        cfg = scenario1(n_targets=12, seed=77)
        a, b = generate_instance(cfg, 0), generate_instance(cfg, 1)
        assert a.targets != b.targets

    def test_instance_identity_is_seed_xor_index(self):
        a = generate_instance(scenario1(n_targets=10, seed=3), 5)
        b = generate_instance(scenario1(n_targets=10, seed=5), 3)
        assert a == b  # 3 ^ 5 == 5 ^ 3; repetition seeds must differ widely

    def test_assigned_fraction_is_floored(self):
        cfg = scenario1(n_targets=14, assign_fraction=0.2, seed=1)
        inst = generate_instance(cfg, 0)
        assert sum(len(ids) for ids in inst.required.values()) == 2

    def test_index_is_a_non_negative_integer(self):
        cfg = scenario1(n_targets=6, seed=2 ** 70)
        assert generate_instance(cfg, np.int64(3)) == generate_instance(cfg, 3)
        for bad in (True, 2.5, -1, np.int64(-1), "1", None):
            with pytest.raises(InvalidConfigError, match="index"):
                generate_instance(cfg, bad)

    @pytest.mark.parametrize("cfg", [{"n_targets": 5}, None, "scenario1"],
                             ids=["dict", "none", "str"])
    def test_anything_but_a_config_raises_invalid_config(self, cfg):
        with pytest.raises(InvalidConfigError, match="must be an ExperimentConfig"):
            generate_instance(cfg, 0)

    def test_zero_fraction_pins_nothing(self):
        inst = generate_instance(scenario1(n_targets=10, seed=1), 0)
        assert inst.required == {}

    def test_scenario_presets(self):
        c1, c2 = scenario1(), scenario2()
        assert c1.speeds == (1.0, 1.5, 2.0) and c1.colocated == ()
        assert c2.speeds == (1.0, 1.0, 2.0) and c2.colocated == ((1, 2),)
        inst = generate_instance(scenario2(n_targets=8, seed=5), 0)
        assert inst.vehicle(1).depot == inst.vehicle(2).depot
        assert inst.vehicle(3).depot != inst.vehicle(1).depot

    def test_grid_bounds_are_respected(self):
        inst = generate_instance(ExperimentConfig(), 0)
        for p in inst.targets + tuple(v.depot for v in inst.vehicles):
            assert 0.0 <= p.x <= GRID and 0.0 <= p.y <= GRID

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(assign_fraction=1.5)
        with pytest.raises(ValueError):
            ExperimentConfig(speeds=(1.0, 2.0), colocated=((1, 5),))
        with pytest.raises(ValueError):
            ExperimentConfig(speeds=(1.0, 2.0, 3.0), colocated=((1, 2), (2, 3)))
        for bad in (0, 2.5, True, "3"):
            with pytest.raises(ValueError, match="n_instances"):
                ExperimentConfig(n_instances=bad)
        for bad in (0, -3, 2.5, "10", True, np.float64(10.0)):
            with pytest.raises(InvalidConfigError, match="n_targets"):
                ExperimentConfig(n_targets=bad)
        for bad in (-1, 1.5, True, "7", None):
            with pytest.raises(InvalidConfigError, match="seed"):
                ExperimentConfig(seed=bad)
        for bad in (1.5, True, 2.0):
            with pytest.raises(InvalidConfigError, match="co-location"):
                ExperimentConfig(speeds=(1.0, 2.0), colocated=((bad, 2),))
        for bad in ([[1, 2]], ([1, 2],), (1, 2), 5, ((),), ((1, 2), ())):
            with pytest.raises(InvalidConfigError, match="colocated"):
                ExperimentConfig(speeds=(1.0, 2.0), colocated=bad)
        for bad in ("0.2", True, None, float("nan"), -0.1, Fraction(1, 5)):
            with pytest.raises(InvalidConfigError, match="assign_fraction"):
                ExperimentConfig(assign_fraction=bad)
        for bad in ((), (1.0, -2.0), (1.0, 0.0), (float("nan"),), (float("inf"),),
                    (1e-60,), (10 ** 400,), (True,), ("1",), [1.0, 2.0], 2.0,
                    (Fraction(3, 2),)):
            with pytest.raises(InvalidConfigError, match="speeds"):
                ExperimentConfig(speeds=bad)
        for bad in ("no", 1, None):
            with pytest.raises(InvalidConfigError, match="oracle"):
                ExperimentConfig(oracle=bad)
        assert ExperimentConfig(oracle=np.True_).oracle
        cfg = ExperimentConfig(speeds=(np.float64(1.5), 2, SPEED_MIN),
                               assign_fraction=np.float64(0.5),
                               colocated=((np.int64(1), 3),))
        inst = generate_instance(cfg, 0)
        assert inst.k == 3 and inst.vehicle(1).depot == inst.vehicle(3).depot
        assert ExperimentConfig(n_targets=np.int64(5), seed=np.uint32(7)).n_targets == 5
        # compared as Python numbers: in float32 the float max would overflow
        narrow = ExperimentConfig(speeds=(np.float32(1.5), np.float16(2.0)))
        assert generate_instance(narrow, 0).vehicle(1).speed == 1.5
        for bad in ((np.float32(SPEED_MIN / 2),), (np.float64(0.0),)):
            with pytest.raises(InvalidConfigError, match="speeds"):
                ExperimentConfig(speeds=bad)

    def test_numpy_scalars_are_kept_as_the_python_numbers_they_hold(self):
        # In float32, 0.7 * 10 rounds up to 7.0; the Python float it holds,
        # 0.699999988..., times 10 floors to 6.
        cfg = ExperimentConfig(n_targets=np.int64(10), assign_fraction=np.float32(0.7),
                               speeds=(np.float32(1.5), 2), colocated=((np.int64(1), 2),),
                               oracle=np.True_)
        held = ExperimentConfig(n_targets=10, assign_fraction=float(np.float32(0.7)),
                                speeds=(1.5, 2), colocated=((1, 2),), oracle=True)
        assert cfg == held and repr(cfg) == repr(held)
        assert "np." not in repr(cfg)
        inst = generate_instance(cfg, 0)
        assert inst == generate_instance(held, 0)
        assert sum(len(ids) for ids in inst.required.values()) == 6

    @pytest.mark.parametrize("seed", [0, 1, 7, 2 ** 40])
    def test_groups_listed_out_of_id_order_give_the_same_instance(self, seed):
        speeds = (1.0, 1.25, 1.5, 1.75, 2.0)
        shuffled = generate_instance(
            ExperimentConfig(n_targets=6, speeds=speeds, colocated=((5, 2), (4, 1, 3)),
                             seed=seed), 0)
        for groups in (((2, 5), (1, 3, 4)), ((1, 3, 4), (2, 5))):
            assert shuffled == generate_instance(
                ExperimentConfig(n_targets=6, speeds=speeds, colocated=groups, seed=seed), 0)
        depots = [v.depot for v in shuffled.vehicles]
        assert depots[0] == depots[2] == depots[3] != depots[1] == depots[4]

    def test_settings_cannot_be_changed_after_the_check(self):
        cfg = ExperimentConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.n_targets = -3
        assert cfg.n_targets == 30
        with pytest.raises(InvalidConfigError, match="n_targets"):
            dataclasses.replace(cfg, n_targets=-3)
        assert dataclasses.replace(cfg, n_targets=12).n_targets == 12


class TestRunExperiment:
    def _small(self, **kw):
        return scenario1(n_targets=8, n_instances=3, seed=4, oracle=True, **kw)

    def test_stage_objectives_and_gaps(self):
        report = run_experiment(self._small())
        assert len(report.rows) == 3
        summary = report.summary()
        assert summary["rows_without_oracle"] == 0
        for r in report.rows:
            assert r.init_obj >= r.ls_obj >= r.final_obj
            assert r.final_obj >= r.oracle_obj - 1e-9
            for gap in (r.gap_init_pct, r.gap_ls_pct, r.gap_final_pct):
                assert gap >= -1e-6
        want_mean = sum(r.gap_final_pct for r in report.rows) / 3
        assert summary["mean_gap_final_pct"] == pytest.approx(want_mean)
        assert summary["max_gap_final_pct"] == max(r.gap_final_pct for r in report.rows)

    def test_objective_columns_are_deterministic(self):
        a = run_experiment(self._small())
        b = run_experiment(self._small())
        for ra, rb in zip(a.rows, b.rows):
            assert (ra.init_obj, ra.ls_obj, ra.final_obj) == (rb.init_obj, rb.ls_obj, rb.final_obj)
            assert ra.oracle_obj == rb.oracle_obj

    def test_oracle_skipped_when_over_budget(self):
        cfg = scenario1(n_targets=14, n_instances=3, seed=4, oracle=True)  # 3^14 partitions
        report = run_experiment(cfg)
        summary = report.summary()
        assert summary["rows_without_oracle"] == 3
        assert summary["mean_gap_final_pct"] is None
        assert summary["mean_t_oracle_s"] is None
        assert all(r.oracle_obj is None for r in report.rows)

    @pytest.mark.parametrize("cfg", [{"n_targets": 5}, None, "scenario1"],
                             ids=["dict", "none", "str"])
    def test_anything_but_a_config_raises_invalid_config(self, cfg):
        with pytest.raises(InvalidConfigError, match="must be an ExperimentConfig"):
            run_experiment(cfg)

    def test_a_refused_instance_is_a_failed_row_and_the_run_goes_on(self):
        # With 80% of 10 targets pinned, stage 1 refuses 10 of these 20
        # instances ("lower bounds demand 4 free targets, instance has 2");
        # the first refusal once ended the run with no report.
        cfg = scenario1(n_targets=10, n_instances=20, assign_fraction=0.8, seed=3, oracle=True)
        report = run_experiment(cfg)
        refused = []
        for row in report.rows:
            try:
                solve(generate_instance(cfg, row.instance),
                      rng=_substream(cfg.seed, row.instance, lane=1))
            except InfeasibleAllocationError:
                refused.append(row.instance)
                assert row.error == "InfeasibleAllocationError"
                assert {getattr(row, f.name) for f in dataclasses.fields(row)[1:-1]} == {None}
            else:
                assert row.error is None and row.oracle_obj is not None
        assert [r.instance for r in report.rows] == list(range(20))
        assert refused == [3, 4, 7, 8, 10, 11, 12, 13, 14, 17]
        summary = report.summary()
        assert (summary["rows_failed"], summary["rows_without_oracle"]) == (10, 0)
        solved = [r for r in report.rows if r.error is None]
        assert summary["max_gap_final_pct"] == max(r.gap_final_pct for r in solved)
        assert summary["mean_t_heuristic_s"] == pytest.approx(
            sum(r.t_heuristic_s for r in solved) / 10)


class TestReportFile:
    @pytest.mark.parametrize("report", [None, [], "report"], ids=["none", "list", "str"])
    def test_anything_but_a_report_raises_before_the_file_opens(self, report, tmp_path):
        # Unchecked, write_report(None, path) created the file, then raised AttributeError.
        path = tmp_path / "report.csv"
        with pytest.raises(InvalidConfigError, match="must be an ExperimentReport"):
            write_report(report, path)
        assert not path.exists()

    def test_a_row_that_is_no_report_row_leaves_the_file_alone(self, tmp_path):
        # write_report(ExperimentReport([None]), path) once cut an existing
        # report to its header line, then raised a bare AttributeError.
        path = tmp_path / "report.csv"
        path.write_bytes(b"old report\r\n")
        for rows in ([None], (None,), None):
            with pytest.raises(InvalidConfigError, match="ExperimentReport of ReportRows"):
                write_report(ExperimentReport(rows), path)
        assert path.read_bytes() == b"old report\r\n"

    @pytest.mark.parametrize("field, value", [("init_obj", "x"), ("instance", [0]),
                                              ("t_oracle_s", Fraction(1, 3)),
                                              ("final_obj", True), ("ls_obj", float("nan")),
                                              ("oracle_obj", float("inf")),
                                              ("init_obj", 10 ** 400)],
                             ids=["str", "list", "fraction", "bool", "nan", "inf", "huge_int"])
    def test_a_field_that_is_no_number_leaves_the_file_alone(self, field, value, tmp_path):
        # A row with init_obj="x" once ended in a bare ValueError from the
        # cell formatter; one of 10 ** 400 would end in an OverflowError.
        path = tmp_path / "report.csv"
        path.write_bytes(b"old report\r\n")
        good = ReportRow(0, 12.5, 11.25, 10.0, 9.5, 0.004, 0.012)
        row = dataclasses.replace(good, **{field: value})
        with pytest.raises(InvalidConfigError, match=f"field {field} must be a finite number"):
            write_report(ExperimentReport([good, row]), path)
        assert path.read_bytes() == b"old report\r\n"

    @pytest.mark.parametrize("row, match", [
        (ReportRow(0, 1.0, 1.0, 1.0, None, 0.1, 0.2), "oracle_obj and t_oracle_s"),
        (ReportRow(0, 1.0, 1.0, 1.0, 1.0, 0.1, None), "oracle_obj and t_oracle_s"),
        (ReportRow(0, 1.0, 1.0, 1.0, 0.0, 0.1, 0.2), "oracle_obj above 0"),
        (ReportRow(0, 1.0, 1.0, 1.0, -2.0, 0.1, 0.2), "oracle_obj above 0"),
        (ReportRow(0, 1.0, 1.0, 1.0, None, None, None), "field t_heuristic_s must be a finite"),
        (ReportRow(None, 1.0, 1.0, 1.0, None, 0.1, None), "field instance must be a finite"),
        (ReportRow(2.5, 1.0, 1.0, 1.0, None, 0.1, None), "instance must be an integer >= 0"),
        (ReportRow(-2, 1.0, 1.0, 1.0, None, 0.1, None), "instance must be an integer >= 0"),
        (ReportRow(np.int64(-1), 1.0, 1.0, 1.0, None, 0.1, None),
         "instance must be an integer >= 0"),
    ], ids=["time_without_oracle", "oracle_row_without_time", "zero_optimum", "negative_optimum",
            "row_without_time", "no_instance", "fractional_instance", "negative_instance",
            "negative_numpy_instance"])
    def test_a_row_that_contradicts_itself_leaves_the_file_alone(self, row, match, tmp_path):
        # A row with an oracle time but no oracle objective was once written
        # with that time while mean_t_oracle_s read NA; a zero optimum would
        # end in a bare ZeroDivisionError from the derived gap.
        path = tmp_path / "report.csv"
        path.write_bytes(b"old report\r\n")
        with pytest.raises(InvalidConfigError, match=match):
            write_report(ExperimentReport([row]), path)
        assert path.read_bytes() == b"old report\r\n"

    @pytest.mark.parametrize("row", [
        ReportRow(0, 1.0, None, None, None, None, None, "InfeasibleAllocationError"),
        ReportRow(0, None, None, None, None, 0.1, None, "InfeasibleAllocationError"),
        ReportRow(0, None, None, None, 2.0, None, 0.2, "InfeasibleAllocationError"),
        ReportRow(0, 1.0, 1.0, 1.0, 2.0, 0.1, 0.2, "InfeasibleAllocationError"),
        ReportRow(0, *[None] * 6, ""),
        ReportRow(0, *[None] * 6, "no such error"),
        ReportRow(0, *[None] * 6, 3),
        ReportRow(0, *[None] * 6, InfeasibleAllocationError),
    ], ids=["objective", "time", "oracle", "whole_row", "empty_name", "spaces", "int", "class"])
    def test_a_failed_row_names_its_error_and_holds_nothing_else(self, row, tmp_path):
        path = tmp_path / "report.csv"
        path.write_bytes(b"old report\r\n")
        with pytest.raises(InvalidConfigError, match="a failed report row"):
            write_report(ExperimentReport([row]), path)
        assert path.read_bytes() == b"old report\r\n"
        failed = ReportRow(np.int64(7), *[None] * 6, "StageCheckError")
        assert ExperimentReport([failed]).summary() == {
            "mean_gap_init_pct": None, "mean_gap_ls_pct": None, "mean_gap_final_pct": None,
            "max_gap_final_pct": None, "mean_t_heuristic_s": None, "mean_t_oracle_s": None,
            "rows_without_oracle": 0, "rows_failed": 1}
        with pytest.raises(InvalidConfigError, match="instance must be an integer >= 0"):
            ExperimentReport([dataclasses.replace(failed, instance=None)]).summary()

    def test_summary_is_the_reports_one_check(self):
        # ExperimentReport(None).summary() once ended in a bare TypeError.
        for rows in (None, [None], "rows"):
            with pytest.raises(InvalidConfigError, match="ExperimentReport of ReportRows"):
                ExperimentReport(rows).summary()
        bad = ReportRow(0, "x", 1.0, 1.0, None, 0.1, None)
        with pytest.raises(InvalidConfigError, match="field init_obj must be a finite number"):
            ExperimentReport([bad]).summary()

    def test_means_add_left_to_right_on_every_python(self):
        # Python 3.12's sum() compensates rounding: it gives 1e16 + 1 - 1e16
        # as 1.0, where 3.10, 3.11 and a left-to-right loop give 0.0.
        rows = [ReportRow(i, 1.0, 1.0, 1.0, None, t, None)
                for i, t in enumerate((1e16, 1.0, -1e16))]
        assert ExperimentReport(rows).summary()["mean_t_heuristic_s"] == 0.0

    def test_a_row_stores_only_what_was_measured(self):
        assert [f.name for f in dataclasses.fields(ReportRow)] == [
            "instance", "init_obj", "ls_obj", "final_obj", "oracle_obj",
            "t_heuristic_s", "t_oracle_s", "error"]
        # Stored gaps once let a row say 7% where its objectives gave -50%.
        with pytest.raises(TypeError):
            ReportRow(0, 1.0, 1.0, 1.0, 2.0, -50.0, 7.0, 9.0, 0.1, 0.2)
        row = ReportRow(0, 1.0, 1.0, 1.0, 2.0, 0.1, 0.2)
        assert (row.gap_init_pct, row.gap_ls_pct, row.gap_final_pct) == (-50.0,) * 3
        with pytest.raises(AttributeError):
            row.gap_final_pct = 7.0
        no_oracle = ReportRow(0, 1.0, 1.0, 1.0, None, 0.1, None)
        assert (no_oracle.gap_init_pct, no_oracle.gap_ls_pct, no_oracle.gap_final_pct) == (
            None, None, None)

    def test_each_column_has_one_format(self, tmp_path):
        # The format once followed the value's type: a numpy instance index
        # was written 3.000000000, an int objective 12, and an all-int row's
        # max_gap_final_pct=25 beside mean_gap_final_pct=25.000000000.
        path = tmp_path / "report.csv"
        write_report(ExperimentReport([ReportRow(np.int64(3), 1.0, 1.0, 1.0, None, 0.1, None)]),
                     path)
        assert path.read_text().splitlines()[1] == "3,1.000000000,1.000000000,1.000000000," \
                                                   "NA,NA,NA,NA,0.100,NA,NA"
        write_report(ExperimentReport([ReportRow(0, 12, 11, 10, 8, 1, 2)]), path)
        lines = path.read_text().splitlines()
        assert lines[1] == ("0,12.000000000,11.000000000,10.000000000,8.000000000,"
                            "50.000000000,37.500000000,25.000000000,1.000,2.000,NA")
        assert "# mean_gap_final_pct=25.000000000" in lines
        assert "# max_gap_final_pct=25.000000000" in lines
        assert "# mean_t_oracle_s=2.000" in lines
        assert "# rows_without_oracle=0" in lines
        assert "# rows_failed=0" in lines

    def test_round_trip(self, tmp_path):
        report = run_experiment(scenario1(n_targets=8, n_instances=3, seed=4, oracle=True))
        path = tmp_path / "report.csv"
        write_report(report, path)
        back = report_records(path)
        assert len(back) == len(report.rows)
        for ra, rb in zip(report.rows, back):
            assert tuple(rb) == REPORT_COLUMNS
            assert int(rb["instance"]) == ra.instance
            for col in ("init_obj", "ls_obj", "final_obj", "oracle_obj",
                        "gap_init_pct", "gap_ls_pct", "gap_final_pct"):
                assert float(rb[col]) == pytest.approx(getattr(ra, col), abs=5e-9)
            # wall times are rounded to milliseconds up front, so these are exact
            assert float(rb["t_heuristic_s"]) == ra.t_heuristic_s
            assert float(rb["t_oracle_s"]) == ra.t_oracle_s

    def test_missing_oracle_written_as_na(self, tmp_path):
        cfg = scenario1(n_targets=8, n_instances=2, seed=4, oracle=False)
        path = tmp_path / "report.csv"
        write_report(run_experiment(cfg), path)
        text = path.read_text()
        assert ",NA," in text
        assert "# rows_without_oracle=2" in text
        back = report_records(path)
        assert len(back) == 2
        assert all(r["oracle_obj"] == "NA" for r in back)

    def test_aggregate_lines_present(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report(run_experiment(scenario1(n_targets=8, n_instances=2, seed=4)), path)
        text = path.read_text()
        for key in ("mean_gap_init_pct", "mean_gap_ls_pct", "mean_gap_final_pct",
                    "max_gap_final_pct", "mean_t_heuristic_s", "mean_t_oracle_s",
                    "rows_without_oracle", "rows_failed"):
            assert f"# {key}=" in text

    def test_empty_report_has_no_means(self, tmp_path):
        empty = ExperimentReport([])
        assert empty.summary()["mean_t_heuristic_s"] is None
        path = tmp_path / "report.csv"
        write_report(empty, path)
        assert "# mean_t_heuristic_s=NA" in path.read_text()

    def test_exact_text(self, tmp_path):
        oracle, na = (ReportRow(0, 12.5, 11.25, 10.0, 9.5, 0.012, 0.345),
                      ReportRow(1, 20.0, 19.0, 18.123456789, None, 0.004, None))
        failed = ReportRow(2, *[None] * 6, "InfeasibleAllocationError")
        header = ",".join(REPORT_COLUMNS) + "\r\n"
        fixed = (header
                 + "0,12.500000000,11.250000000,10.000000000,9.500000000,"
                   "31.578947368,18.421052632,5.263157895,0.012,0.345,NA\r\n"
                 + "1,20.000000000,19.000000000,18.123456789,NA,NA,NA,NA,0.004,NA,NA\r\n")
        summary = ("# mean_gap_init_pct=31.578947368\n# mean_gap_ls_pct=18.421052632\n"
                   "# mean_gap_final_pct=5.263157895\n# max_gap_final_pct=5.263157895\n"
                   "# mean_t_heuristic_s=0.008\n# mean_t_oracle_s=0.345\n"
                   "# rows_without_oracle=1\n")
        want = {
            "fixed": fixed + summary + "# rows_failed=0\n",
            # A failed row changes no aggregate but its own count.
            "failed": (fixed + "2,NA,NA,NA,NA,NA,NA,NA,NA,NA,InfeasibleAllocationError\r\n"
                       + summary + "# rows_failed=1\n"),
            "empty": (header
                      + "# mean_gap_init_pct=NA\n# mean_gap_ls_pct=NA\n"
                        "# mean_gap_final_pct=NA\n# max_gap_final_pct=NA\n"
                        "# mean_t_heuristic_s=NA\n# mean_t_oracle_s=NA\n"
                        "# rows_without_oracle=0\n# rows_failed=0\n"),
        }
        for name, rows in (("fixed", [oracle, na]), ("failed", [oracle, na, failed]),
                           ("empty", [])):
            path = tmp_path / f"{name}.csv"
            write_report(ExperimentReport(rows), path)
            assert path.read_bytes().decode("utf-8") == want[name]


def _numbers(low, high):
    """Python and numpy numbers in [low, high]."""
    floats = st.floats(low, high, allow_nan=False)
    ints = st.integers(int(np.ceil(low)), int(high))
    return st.one_of(floats, floats.map(np.float64), floats.map(np.float32),
                     ints, ints.map(np.int64), ints.map(np.int32))


@st.composite
def _rows(draw):
    instance = draw(st.integers(0, 10 ** 6).flatmap(
        lambda i: st.sampled_from([i, np.int64(i), np.uint32(i)])))
    objectives = [draw(_numbers(-1e6, 1e6)) for _ in range(3)]
    oracle = draw(st.booleans())
    oracle_obj = draw(_numbers(1e-3, 1e6)) if oracle else None
    t_oracle = draw(_numbers(0, 100)) if oracle else None
    if draw(st.integers(0, 4)) == 0:
        return ReportRow(instance, *[None] * 6, draw(st.sampled_from(
            ["InfeasibleAllocationError", "StageCheckError"])))
    return ReportRow(instance, *objectives, oracle_obj, draw(_numbers(0, 100)), t_oracle)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rows=st.lists(_rows(), max_size=6))
def test_a_written_report_agrees_with_itself(rows):
    # A row once stored its gaps beside the objectives they came from, so a
    # file could write gaps that its own objectives and '#' lines contradict.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.csv"
        write_report(ExperimentReport(rows), path)
        with open(path, encoding="utf-8", newline="") as fh:
            lines = fh.read().splitlines()
    table = list(csv.reader(line for line in lines if not line.startswith("#")))
    assert tuple(table[0]) == REPORT_COLUMNS
    checked = []
    solved = [row for row in rows if row.error is None]
    for row, cells in zip(rows, table[1:], strict=True):
        cells = dict(zip(REPORT_COLUMNS, cells, strict=True))
        if row.error is not None:
            assert list(cells.values())[1:] == ["NA"] * 9 + [row.error]
            continue
        assert cells["error"] == "NA"
        if row.oracle_obj is None:
            assert [cells[c] for c in ("oracle_obj", "gap_init_pct", "gap_ls_pct",
                                       "gap_final_pct", "t_oracle_s")] == ["NA"] * 5
            continue
        opt = float(row.oracle_obj)
        gaps = {f"gap_{stage}_pct": 100.0 * (float(getattr(row, f"{stage}_obj")) - opt) / opt
                for stage in ("init", "ls", "final")}
        assert {c: cells[c] for c in gaps} == {c: _fmt(c, g) for c, g in gaps.items()}
        assert cells["t_oracle_s"] != "NA"
        checked.append((gaps, row.t_oracle_s))

    def mean(values):
        # Left to right, as the report adds: sum() compensates from 3.12 on.
        values = list(values)
        total = 0
        for value in values:
            total += value
        return total / len(values) if values else None

    want = {
        "mean_gap_init_pct": mean(g["gap_init_pct"] for g, _ in checked),
        "mean_gap_ls_pct": mean(g["gap_ls_pct"] for g, _ in checked),
        "mean_gap_final_pct": mean(g["gap_final_pct"] for g, _ in checked),
        "max_gap_final_pct": max((g["gap_final_pct"] for g, _ in checked), default=None),
        "mean_t_heuristic_s": mean(r.t_heuristic_s for r in solved),
        "mean_t_oracle_s": mean(t for _, t in checked),
        "rows_without_oracle": len(solved) - len(checked),
        "rows_failed": len(rows) - len(solved),
    }
    got = [line[2:].split("=", 1) for line in lines if line.startswith("#")]
    assert got == [[name, _fmt(name, value)] for name, value in want.items()]
