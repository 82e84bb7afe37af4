"""Paired A/B of two source trees: solve speed and plan identity.

    python tools/ab_plans.py OLD_TREE NEW_TREE --config C[,C...] --seeds S,...
        [--instances N] [--out FILE]

Each tree is a checkout holding ``src/minmaxtsp``.  Its package is copied
into a temporary directory under its own name (``ab_old``, ``ab_new``; the
package imports itself only relatively), so both load side by side in one
process.  For every seed, instance i is generated by each tree's own
``bench.generate_instance`` and solved by each tree's ``heuristic.solve``
with ``rng = default_rng((seed, i))``, the two trees alternating which goes
first from one instance to the next; only the solves are timed.  Plans are
hashed per tree with SHA-256 over, for each stage plan in order
(``StageTrace.stage_solutions``), every tour's sequence and the ``repr`` of
its duration, plus the perturbation iteration count.  The final plan is the
perturbation stage's plan, and every stage objective is the largest of its
plan's durations, so a change that moves any stage's tours or durations
differs, even when the final plan and every objective stay.  Records written
under another hash recipe carry other ``plan_sha256`` values for the same
plans; compare hashes only within one run of this script.

Configs: the workloads of ``perfbench/harness.py`` (``WORKLOADS``, read from
the checkout this script sits in; instance i of seed s is bench instance i
under bench seed ``s << SEED_SHIFT``, the oracle is not run), plus
``fleet8_n64_pin10`` (8 vehicles, two co-located pairs, 64 targets, 10%
pinned) with the default solver settings, ``s2_exact_n10`` (scenario 2:
speeds 1, 1, 2, vehicles 1 and 2 co-located, 10 targets) with exact tours,
where two vehicles share memoized exact tours at one depot, and the size
table: ``s1_n10`` ... ``s2_n120``, scenarios 1 and 2 at n = 10, 30, 60 and
120, and ``k5_n30``, five vehicles of speeds 1, 1.25, 1.5, 1.75 and 2 on
separate depots at n = 30, all with the default solver settings.
``--config sizes`` names those nine cells.  A size cell solves its own instance count when ``--instances`` is
not given, about 2 s of solving per tree; every other config needs it.

Prints, per config and seed, the solves/s of each tree, their ratio (new
over old), both plan hashes and the change in mean makespan (new over old,
in %), so a change that moves plans shows its quality cost on the same line.
``--out FILE`` also writes a JSON list with one record per config and seed:
per tree the median and p90 solve time, the mean makespan, the plan hash and
the mean wall time of each stage (``StageTrace.wall_times``); per cell the
instance count, the paired speed ratio, whether the plans agree and the mean
makespan change in % (``makespan_change_pct``).  Exit status: 0 when every hash pair
agrees, 1 when any differ, 2 for bad usage.
"""

import argparse
import hashlib
import importlib
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

# As in perfbench/run.py: one BLAS/OpenMP thread, set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

SCENARIOS = {1: dict(speeds=(1.0, 1.5, 2.0)),
             2: dict(speeds=(1.0, 1.0, 2.0), colocated=((1, 2),))}
# Instances per size cell, scenario -> counts at n = 10, 30, 60, 120: about 2 s
# of solving per tree at the mean solve times of a 2-core x86 host.
SIZE_INSTANCES = {1: (500, 200, 60, 14), 2: (400, 120, 45, 18)}
SIZE_CELLS = {f"s{scenario}_n{n}": (dict(n_targets=n, **SCENARIOS[scenario]), {}, count)
              for scenario, counts in SIZE_INSTANCES.items()
              for n, count in zip((10, 30, 60, 120), counts)}
# A fleet beyond three vehicles: five speeds on separate depots.
SIZE_CELLS["k5_n30"] = (dict(n_targets=30, speeds=(1.0, 1.25, 1.5, 1.75, 2.0)), {}, 200)

# name -> (ExperimentConfig fields, SolverConfig fields, default instance count)
# beside perfbench's workloads.
EXTRA_CONFIGS = {
    "fleet8_n64_pin10": (dict(n_targets=64, speeds=(1.0, 1.0, 1.5, 1.5, 2.0, 2.0, 1.0, 2.0),
                              colocated=((1, 2), (3, 4)), assign_fraction=0.1), {}, None),
    "s2_exact_n10": (dict(n_targets=10, **SCENARIOS[2]), dict(tour_mode="exact"), None),
    **SIZE_CELLS,
}


def configs() -> tuple:
    """(every config by name, the seed shift), perfbench's workloads included."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import harness
    table = {name: (wl.experiment, wl.solver, None) for name, wl in harness.WORKLOADS.items()}
    return {**table, **EXTRA_CONFIGS}, harness.SEED_SHIFT


def load_tree(tree: Path, name: str, into: Path):
    """The tree's ``src/minmaxtsp`` imported as package ``name``."""
    src = tree / "src" / "minmaxtsp"
    if not (src / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {src}")
    shutil.copytree(src, into / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


class Side:
    """One tree's solves of one config: its solve times, makespans, stage
    times and plan hash."""

    def __init__(self, pkg):
        self.pkg = pkg

    def start(self, experiment: dict, solver: dict, bench_seed: int) -> None:
        self.cfg = self.pkg.bench.ExperimentConfig(seed=bench_seed, **experiment)
        self.solver = self.pkg.heuristic.SolverConfig(**solver)
        self.times, self.makespans, self.stages = [], [], {}
        self.digest = hashlib.sha256()

    def solve(self, seed: int, index: int) -> None:
        inst = self.pkg.bench.generate_instance(self.cfg, index)
        rng = np.random.default_rng((seed, index))
        t0 = time.perf_counter()
        sol, trace = self.pkg.heuristic.solve(inst, self.solver, rng=rng)
        self.times.append(time.perf_counter() - t0)
        self.makespans.append(sol.objective)
        for stage, seconds in trace.wall_times.items():
            self.stages[stage] = self.stages.get(stage, 0.0) + seconds
        plan = ([[(list(t.sequence), repr(t.duration)) for t in stage.tours]
                 for stage in trace.stage_solutions.values()], trace.iterations)
        self.digest.update(repr(plan).encode())

    def rate(self) -> float:
        return len(self.times) / sum(self.times)

    def record(self) -> dict:
        n = len(self.times)
        return {"solve_s_p50": float(np.median(self.times)),
                "solve_s_p90": float(np.percentile(self.times, 90)),
                "makespan_mean": sum(self.makespans) / n,
                "plan_sha256": self.digest.hexdigest(),
                "stage_s_mean": {stage: seconds / n for stage, seconds in self.stages.items()}}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--config", required=True,
                        help="comma-separated config names; 'sizes' names the size cells")
    parser.add_argument("--instances", type=int,
                        help="instances per seed; a size cell's own count when omitted")
    parser.add_argument("--seeds", required=True, help="comma-separated integers >= 0")
    parser.add_argument("--out", type=Path, help="write one JSON record per config and seed")
    args = parser.parse_args(argv)
    try:
        args.seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError:
        parser.error(f"--seeds must be comma-separated integers, got {args.seeds!r}")
    if min(args.seeds) < 0 or (args.instances is not None and args.instances < 1):
        parser.error("seeds must be >= 0 and --instances >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    table, shift = configs()
    names = [n for name in args.config.split(",")
             for n in (SIZE_CELLS if name == "sizes" else [name])]
    for name in names:
        if name not in table:
            print(f"error: unknown config {name!r}; known: sizes, {', '.join(table)}",
                  file=sys.stderr)
            return 2
        if args.instances is None and table[name][2] is None:
            print(f"error: config {name!r} needs --instances", file=sys.stderr)
            return 2
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        old = Side(load_tree(args.old, "ab_old", Path(tmp)))
        new = Side(load_tree(args.new, "ab_new", Path(tmp)))
        for name in names:
            experiment, solver, default = table[name]
            instances = args.instances or default
            for seed in args.seeds:
                old.start(experiment, solver, seed << shift)
                new.start(experiment, solver, seed << shift)
                for i in range(instances):
                    for side in ((old, new) if i % 2 == 0 else (new, old)):
                        side.solve(seed, i)
                old_rec, new_rec = old.record(), new.record()
                old_sha, new_sha = old_rec["plan_sha256"], new_rec["plan_sha256"]
                ratio = new.rate() / old.rate()
                change = 100.0 * (new_rec["makespan_mean"] / old_rec["makespan_mean"] - 1.0)
                records.append({"config": name, "seed": seed, "instances": instances,
                                "ratio": ratio, "same_plans": old_sha == new_sha,
                                "makespan_change_pct": change, "old": old_rec, "new": new_rec})
                print(f"{name} seed {seed}, {instances} instances: "
                      f"old {old.rate():.2f} solves/s, new {new.rate():.2f} solves/s, "
                      f"ratio {ratio:.3f}; plans old {old_sha[:16]} "
                      f"new {new_sha[:16]} {'same' if old_sha == new_sha else 'DIFFER'}, "
                      f"mean makespan {change:+.3f}%", flush=True)
    if args.out is not None:
        args.out.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    return 0 if all(r["same_plans"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
