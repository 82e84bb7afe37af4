"""Paired A/B of two source trees: solve speed and plan identity.

    python tools/ab_plans.py OLD_TREE NEW_TREE --config C --instances N --seeds S,...

Each tree is a checkout holding ``src/minmaxtsp``.  Its package is copied
into a temporary directory under its own name (``ab_old``, ``ab_new``; the
package imports itself only relatively), so both load side by side in one
process.  For every seed, instance i is generated by each tree's own
``bench.generate_instance`` and solved by each tree's ``heuristic.solve``
with ``rng = default_rng((seed, i))``, the two trees alternating which goes
first from one instance to the next; only the solves are timed.  Plans are
hashed per tree with SHA-256 over every plan's tour sequences, the ``repr``
of its objective and its perturbation iteration count.

Configs: the workloads of ``perfbench/harness.py`` (``WORKLOADS``, read from
the checkout this script sits in; instance i of seed s is bench instance i
under bench seed ``s << SEED_SHIFT``, the oracle is not run), plus
``fleet8_n64_pin10`` (8 vehicles, two co-located pairs, 64 targets, 10%
pinned), ``s1_n60`` and ``s1_n120`` (scenario 1), all with the default solver
settings, and ``s2_exact_n10`` (scenario 2: speeds 1, 1, 2, vehicles 1 and 2
co-located, 10 targets) with exact tours, where two vehicles share memoized
exact tours at one depot.

Prints, per seed, the solves/s of each tree, their ratio (new over old) and
both plan hashes.  Exit status: 0 when every seed's hashes agree, 1 when any
differ, 2 for bad usage.
"""

import argparse
import hashlib
import importlib
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

# name -> (ExperimentConfig fields, SolverConfig fields) beside perfbench's workloads.
EXTRA_CONFIGS = {
    "fleet8_n64_pin10": (dict(n_targets=64, speeds=(1.0, 1.0, 1.5, 1.5, 2.0, 2.0, 1.0, 2.0),
                              colocated=((1, 2), (3, 4)), assign_fraction=0.1), {}),
    "s1_n60": (dict(n_targets=60, speeds=(1.0, 1.5, 2.0)), {}),
    "s1_n120": (dict(n_targets=120, speeds=(1.0, 1.5, 2.0)), {}),
    "s2_exact_n10": (dict(n_targets=10, speeds=(1.0, 1.0, 2.0), colocated=((1, 2),)),
                     dict(tour_mode="exact")),
}


def configs() -> tuple:
    """(every config by name, the seed shift), perfbench's workloads included."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import harness
    table = {name: (wl.experiment, wl.solver) for name, wl in harness.WORKLOADS.items()}
    return {**table, **EXTRA_CONFIGS}, harness.SEED_SHIFT


def load_tree(tree: Path, name: str, into: Path):
    """The tree's ``src/minmaxtsp`` imported as package ``name``."""
    src = tree / "src" / "minmaxtsp"
    if not (src / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {src}")
    shutil.copytree(src, into / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


class Side:
    """One tree's solves of one config: its timer and its plan hash."""

    def __init__(self, pkg, experiment: dict, solver: dict):
        self.pkg = pkg
        self.experiment = experiment
        self.solver = pkg.heuristic.SolverConfig(**solver)

    def start(self, bench_seed: int) -> None:
        self.cfg = self.pkg.bench.ExperimentConfig(seed=bench_seed, **self.experiment)
        self.seconds = 0.0
        self.digest = hashlib.sha256()

    def solve(self, seed: int, index: int) -> None:
        inst = self.pkg.bench.generate_instance(self.cfg, index)
        rng = np.random.default_rng((seed, index))
        t0 = time.perf_counter()
        sol, trace = self.pkg.heuristic.solve(inst, self.solver, rng=rng)
        self.seconds += time.perf_counter() - t0
        plan = ([list(t.sequence) for t in sol.tours], repr(sol.objective), trace.iterations)
        self.digest.update(repr(plan).encode())


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--config", required=True)
    parser.add_argument("--instances", type=int, required=True)
    parser.add_argument("--seeds", required=True, help="comma-separated integers >= 0")
    args = parser.parse_args(argv)
    try:
        args.seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError:
        parser.error(f"--seeds must be comma-separated integers, got {args.seeds!r}")
    if min(args.seeds) < 0 or args.instances < 1:
        parser.error("seeds must be >= 0 and --instances >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    table, shift = configs()
    if args.config not in table:
        print(f"error: unknown config {args.config!r}; known: {', '.join(table)}",
              file=sys.stderr)
        return 2
    experiment, solver = table[args.config]
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        old = Side(load_tree(args.old, "ab_old", Path(tmp)), experiment, solver)
        new = Side(load_tree(args.new, "ab_new", Path(tmp)), experiment, solver)
        same = True
        for seed in args.seeds:
            old.start(seed << shift)
            new.start(seed << shift)
            for i in range(args.instances):
                for side in ((old, new) if i % 2 == 0 else (new, old)):
                    side.solve(seed, i)
            old_rate, new_rate = args.instances / old.seconds, args.instances / new.seconds
            old_sha, new_sha = old.digest.hexdigest(), new.digest.hexdigest()
            same &= old_sha == new_sha
            print(f"{args.config} seed {seed}, {args.instances} instances: "
                  f"old {old_rate:.2f} solves/s, new {new_rate:.2f} solves/s, "
                  f"ratio {new_rate / old_rate:.3f}; plans old {old_sha[:16]} "
                  f"new {new_sha[:16]} {'same' if old_sha == new_sha else 'DIFFER'}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
