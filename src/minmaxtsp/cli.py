"""Command-line entry points: solve an instance file, run a benchmark, or
generate an instance.  Exit codes: 0 success, 1 invalid input, 2 I/O failure."""

import argparse
import sys

from . import bench, heuristic, io as instance_io, svgplot
from .model import SolverError, write_text


class _Parser(argparse.ArgumentParser):
    # Usage mistakes are invalid input, so exit 1 rather than argparse's 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="minmaxtsp",
                     description="Min-max routing for heterogeneous multi-depot fleets")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one instance file")
    p_solve.add_argument("--instance", required=True, help="instance JSON file")
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--trace", metavar="OUT.csv", help="write per-stage trace CSV")
    p_solve.add_argument("--svg", metavar="OUT_PREFIX",
                         help="write per-stage tour drawings OUT_PREFIX_<stage>.svg")

    experiment = argparse.ArgumentParser(add_help=False)
    experiment.add_argument("--scenario", type=int, choices=(1, 2), required=True)
    experiment.add_argument("--n-targets", type=int, default=30)
    experiment.add_argument("--assign-frac", type=float, default=0.0)
    experiment.add_argument("--seed", type=int, default=0)
    experiment.add_argument("--out", required=True)

    p_bench = sub.add_parser("bench", parents=[experiment],
                             help="run a benchmark and write a report CSV")
    p_bench.add_argument("--instances", type=int, default=20)
    p_bench.add_argument("--oracle", action="store_true")

    p_gen = sub.add_parser("gen", parents=[experiment],
                           help="generate one benchmark instance file")
    p_gen.add_argument("--index", type=int, default=0,
                       help="instance index within the seeded run")
    return parser


def _experiment_config(args, n_instances: int = 1,
                       oracle: bool = False) -> bench.ExperimentConfig:
    preset = bench.scenario1 if args.scenario == 1 else bench.scenario2
    return preset(n_targets=args.n_targets, assign_fraction=args.assign_frac,
                  seed=args.seed, n_instances=n_instances, oracle=oracle)


def _cmd_solve(args) -> int:
    inst = instance_io.load_instance(args.instance)
    sol, trace = heuristic.solve(inst, rng=args.seed)
    print(f"objective: {sol.objective:.9f}")
    for stage, staged in trace.stage_solutions.items():
        print(f"after_{stage}: {staged.objective:.9f}")
    print(f"perturbation_iterations: {trace.iterations}")
    for vid in range(1, inst.k + 1):
        tour = sol.tour_for(vid)
        inner = " ".join(str(t) for t in tour.targets())
        print(f"vehicle {vid}: duration={tour.duration:.9f} tour=[depot {inner} depot]")
    if args.trace:
        _write_trace(args.trace, trace)
    if args.svg:
        for path in svgplot.render_tours(inst, list(trace.stage_solutions.items()),
                                         args.svg):
            print(f"wrote {path}")
    return 0


def _write_trace(path, trace) -> None:
    rows = [f"{stage},{sol.objective:.9f},{trace.wall_times[stage]:.3f},"
            f"{trace.iterations if stage == heuristic.STAGE_PERTURBATION else 0}\n"
            for stage, sol in trace.stage_solutions.items()]
    write_text(path, "stage,objective,wall_time_s,iterations\n" + "".join(rows))


def _cmd_bench(args) -> int:
    cfg = _experiment_config(args, n_instances=args.instances, oracle=args.oracle)
    report = bench.run_experiment(cfg)
    bench.write_report(report, args.out)
    summary = report.summary()
    print(f"wrote {args.out} ({len(report.rows)} instances, {summary['rows_failed']} failed)")
    if summary["mean_gap_final_pct"] is not None:
        print(f"mean final gap: {summary['mean_gap_final_pct']:.3f}%  "
              f"(max {summary['max_gap_final_pct']:.3f}%, "
              f"{summary['rows_without_oracle']} rows without oracle)")
    if summary["mean_t_heuristic_s"] is not None:
        print(f"mean heuristic time: {summary['mean_t_heuristic_s']:.3f}s")
    return 0


def _cmd_gen(args) -> int:
    cfg = _experiment_config(args)
    inst = bench.generate_instance(cfg, args.index)
    instance_io.save_instance(inst, args.out)
    print(f"wrote {args.out} ({inst.n_targets} targets, {inst.k} vehicles)")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "bench":
            return _cmd_bench(args)
        return _cmd_gen(args)
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
