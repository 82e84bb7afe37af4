"""Watch the three solver stages work on one benchmark instance.

Generates an instance from the co-located-depot scenario, solves it while
keeping the intermediate plans, prints what each stage contributed, and drops
one SVG drawing per stage next to this script (or under --out-dir).
"""

import argparse
import pathlib

from minmaxtsp import SolverConfig, generate_instance, render_tours, scenario2, solve


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--n-targets", type=int, default=16)
    ap.add_argument("--out-dir", default=str(pathlib.Path(__file__).parent))
    args = ap.parse_args()

    cfg = scenario2(n_targets=args.n_targets, seed=args.seed)
    inst = generate_instance(cfg, 0)
    print(f"instance: {inst.n_targets} targets, {inst.k} vehicles "
          f"(vehicles 1 and 2 share a depot, vehicle 3 is twice as fast)")

    solution, trace = solve(inst, SolverConfig(), rng=args.seed)

    previous = None
    for stage, plan in trace.stage_solutions.items():
        obj = plan.objective
        note = "" if previous is None else f"  (saved {previous - obj:+.3f} over the last stage)"
        print(f"  {stage:13s} makespan {obj:9.3f}{note}")
        previous = obj
    print(f"perturbation ran {trace.iterations} iterations before giving up")

    prefix = pathlib.Path(args.out_dir) / "walkthrough"
    for path in render_tours(inst, list(trace.stage_solutions.items()), prefix):
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
