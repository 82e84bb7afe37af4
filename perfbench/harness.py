"""Seeded closed-loop benchmark of ``minmaxtsp.solve``.

One caller in one process and thread: each solve starts when the previous one
has returned.  Instances come from ``minmaxtsp.bench.generate_instance``; the
solver sees only the generated instances.  Every plan is checked outside the
timed region.

An untraced run (``trace=0``) gives the end-to-end metrics from one pass over
the run's instances, each solved once.  On a shared 2-core host the speed of
the same Python loop drifts by 10-30% over tens of seconds, so a run is
steadiest when it spends its time on as many distinct instances as possible:
repeating solves of fewer instances (and keeping the fastest) measured a
wider run-to-run spread (see DESIGN.md).  A traced run (``trace=1``) solves
the first half of those instances twice, in one plain pass and one with every
layer wrapped (see ``layertrace``); the two passes must return identical
plans.  It gives the per-layer metrics.

Metric names, units and directions are read from ``BENCHMARK.json`` at the
repository root; a run that computes a different set of names fails.
"""

import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import minmaxtsp
from minmaxtsp import bench, heuristic, oracle
from minmaxtsp.model import SolverError, validate_solution
from minmaxtsp.tsp import EXACT, HEURISTIC

from layertrace import LayerTracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_FILE = ROOT / "BENCHMARK.json"

# Instance i of a run is bench instance i under bench seed (seed << SEED_SHIFT).
# generate_instance seeds with (seed XOR index), so unshifted seeds 2 and 3
# would share 30 of their first 32 instances; shifted, no two (seed, index)
# pairs with index < 2**SEED_SHIFT collide.
SEED_SHIFT = 20

# A heuristic plan more than this far below the oracle's optimum is wrong.
ORACLE_TOLERANCE = 1e-9

# Fresh-process set-ups per untraced run; setup_s is their median.
SETUP_REPEATS = 8

# Targets in the warm-up instance solved during set-up.
WARMUP_TARGETS = 8

# solve_s_tail is the highest of the usual reporting percentiles that leaves
# at least TAIL_BEYOND instances above it.  It depends on (workload, seconds)
# only, so every run of a workload reports the same percentile.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Plan:
    instances: int
    tail_pct: float


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: dict      # ExperimentConfig fields
    solver: dict          # SolverConfig fields
    oracle: bool
    rate: float           # instances per second of an untraced run on a 2-core x86 VM

    def config(self, seed: int, **overrides) -> bench.ExperimentConfig:
        return bench.ExperimentConfig(seed=seed << SEED_SHIFT,
                                      **{**self.experiment, **overrides})

    def solver_config(self) -> heuristic.SolverConfig:
        return heuristic.SolverConfig(**self.solver)

    def plan(self, seconds: float) -> Plan:
        """Instance count sized from ``rate`` to take about ``seconds`` untraced.

        It depends on (workload, seconds) only, never on measured speed, so
        plan-quality metrics and counts are exact functions of the seed.
        """
        n = max(1, math.floor(self.rate * seconds))
        tail_pct = next((p for p in TAIL_PERCENTILES
                         if n - math.ceil(p / 100.0 * n) >= TAIL_BEYOND), 50.0)
        return Plan(instances=n, tail_pct=tail_pct)


# Why each workload exists, and what it replaced, is in DESIGN.md.
WORKLOADS = {w.name: w for w in (
    Workload("k2_heur_stop1_n30",
             dict(n_targets=30, speeds=(1.0, 1.0)),
             dict(tour_mode=HEURISTIC, no_improve_stop=1), oracle=False, rate=5.5),
    Workload("s1_exact_oracle_n10",
             dict(n_targets=10, speeds=(1.0, 1.5, 2.0)),
             dict(tour_mode=EXACT), oracle=True, rate=4.75),
)}


@dataclass
class Outcome:
    """One solve of one instance, with its checks."""

    index: int
    solve_s: float
    error: str | None = None            # exception type when solve raised
    problems: list = field(default_factory=list)
    objective: float | None = None
    sequences: tuple = ()
    after_local_search: float | None = None
    iterations: int = 0
    stage_s: dict = field(default_factory=dict)
    oracle_objective: float | None = None
    oracle_s: float | None = None
    partitions: int = 0

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems)

    @property
    def gap_pct(self) -> float | None:
        if self.objective is None or self.oracle_objective is None:
            return None
        return 100.0 * (self.objective - self.oracle_objective) / self.oracle_objective


def generate(wl: Workload, seed: int, count: int):
    """The run's instances, lazily.  Each pass regenerates them, so no pass
    inherits another's cached time matrices."""
    cfg = wl.config(seed)
    return (bench.generate_instance(cfg, i) for i in range(count))


def solver_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng((seed, index))


def warm_up(wl: Workload, seed: int) -> None:
    """Solve one small instance of the workload, untimed and unchecked.

    A solver error here is ignored: the measured solves account for it.
    """
    warm = bench.generate_instance(wl.config(seed, n_targets=WARMUP_TARGETS), 0)
    with contextlib.suppress(SolverError, AssertionError):
        heuristic.solve(warm, wl.solver_config(), rng=seed)


def prepare(wl: Workload, seed: int, seconds: float) -> list:
    """Set-up as a user pays it: generate the run's instances, solve one warm-up."""
    pool = list(generate(wl, seed, wl.plan(seconds).instances))
    warm_up(wl, seed)
    return pool


def solve_one(wl: Workload, inst, seed: int, index: int, tracer=None,
              with_oracle: bool = True) -> Outcome:
    """Solve (timed), then validate and, on oracle workloads, compare (untimed)."""
    recording = tracer.root if tracer is not None else (lambda _: contextlib.nullcontext())
    cfg = wl.solver_config()
    rng = solver_rng(seed, index)
    t0 = time.perf_counter()
    try:
        with recording("solve"):
            sol, trace = heuristic.solve(inst, cfg, rng=rng)
    except (SolverError, AssertionError) as exc:
        return Outcome(index, time.perf_counter() - t0, error=type(exc).__name__)
    out = Outcome(index, time.perf_counter() - t0,
                  problems=validate_solution(inst, sol),
                  objective=sol.objective,
                  sequences=tuple(t.sequence for t in sol.tours),
                  after_local_search=trace.after_local_search,
                  iterations=trace.iterations, stage_s=dict(trace.wall_times))
    if wl.oracle and with_oracle:
        t0 = time.perf_counter()
        with recording("oracle"):
            best = oracle.exact_minmax(inst)
        out.oracle_s = time.perf_counter() - t0
        out.oracle_objective = best.objective
        out.partitions = inst.k ** len(inst.free_targets())
        if sol.objective < best.objective * (1.0 - ORACLE_TOLERANCE):
            out.problems.append(f"heuristic objective {sol.objective!r} is below "
                                f"the oracle optimum {best.objective!r}")
    return out


def run_untraced(wl: Workload, seed: int, seconds: float, setup_repeats: int):
    """(one outcome per instance, set-up times).

    The fresh-process set-ups are spread evenly over the pass, so that they
    sample the host's speed across the whole run, as the solves do.  A
    solved instance is dropped from the pool, so instances with cached time
    matrices do not pile up and skew peak_rss_mb.
    """
    pool = prepare(wl, seed, seconds)
    every = math.ceil(len(pool) / setup_repeats)
    outcomes, setups = [], []
    for index in range(len(pool)):
        if index % every == 0:
            setups += time_setups(wl, seed, seconds, 1)
        inst, pool[index] = pool[index], None
        outcomes.append(solve_one(wl, inst, seed, index))
    setups += time_setups(wl, seed, seconds, setup_repeats - len(setups))
    return outcomes, setups


def traced_count(plan: Plan) -> int:
    """Instances of a traced run: half, as it solves each of them twice."""
    return max(1, plan.instances // 2)


def run_traced(wl: Workload, seed: int, count: int):
    """(plain pass, traced pass, tracer); the oracle runs in the traced pass."""
    warm_up(wl, seed)
    plain = [solve_one(wl, inst, seed, i, with_oracle=False)
             for i, inst in enumerate(generate(wl, seed, count))]
    with LayerTracer() as tracer:
        traced = [solve_one(wl, inst, seed, i, tracer)
                  for i, inst in enumerate(generate(wl, seed, count))]
    return plain, traced, tracer


# -- set-up, memory and provenance -----------------------------------------

_SETUP_CHILD = """
import time
t0 = time.perf_counter()
import sys
sys.path[:0] = [{src!r}, {here!r}]
import harness
from harness import Workload
harness.prepare({workload!r}, {seed!r}, {seconds!r})
print(time.perf_counter() - t0)
"""


def time_setups(wl: Workload, seed: int, seconds: float, repeats: int) -> list:
    """Wall time of ``repeats`` fresh-process set-ups, import included."""
    code = _SETUP_CHILD.format(src=str(ROOT / "src"), here=str(HERE), workload=wl,
                               seed=seed, seconds=seconds)
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git(*args):
    # The ceiling keeps git from finding a repository above the checkout.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                          timeout=30, env=env)
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(wl: Workload, seed: int, seconds: float, count: int) -> dict:
    """Where a result came from; the digest covers the run's first ``count`` instances."""
    rev = dirty = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            rev = _git("rev-parse", "HEAD")
            status = _git("status", "--porcelain")
            dirty = None if status is None else bool(status)
    digest = hashlib.sha256()
    for inst in generate(wl, seed, count):
        digest.update(repr((inst.targets, inst.vehicles, sorted(inst.required.items()))).encode())
    return {
        "workload": wl.name, "seed": seed, "seconds": seconds,
        "bench_seed": seed << SEED_SHIFT, "experiment": wl.experiment,
        "solver": wl.solver, "oracle": wl.oracle, "plan": vars(wl.plan(seconds)),
        "instances_sha256": digest.hexdigest(),
        "git_rev": rev, "git_dirty": dirty,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "minmaxtsp": minmaxtsp.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "threads_env": {v: os.environ.get(v) for v in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# -- metrics ---------------------------------------------------------------

def percentile(times: list, p: float):
    """(nearest-rank p-th percentile, number of samples above it)."""
    ordered = sorted(times)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end_metrics(outcomes: list, plan: Plan, setups: list):
    """(values, notes) for the untraced run."""
    done = [o for o in outcomes if o.error is None]
    times = [o.solve_s for o in done]
    tail_s, beyond = percentile(times, plan.tail_pct)
    values = {
        "setup_s": statistics.median(setups),
        "solve_s_p50": statistics.median(times),
        "solve_s_tail": tail_s,
        "solves_per_s": _ratio(len(done), sum(times)),
        "makespan_mean": _mean(o.objective for o in done),
        "peak_rss_mb": peak_rss_mb(),
    }
    per = f"{len(times)} instances, each solved once"
    notes = {
        "setup_s": f"median of {len(setups)} fresh-process set-ups spread over the run",
        "solve_s_p50": per,
        "solve_s_tail": f"p{plan.tail_pct:g}, {beyond} instances beyond it; {per}",
        "solves_per_s": f"{len(done)} completed solves over their summed solve time",
        "makespan_mean": f"{len(done)} instances",
    }
    return values, notes


def quality_metrics(outcomes: list):
    """Failure share and oracle comparison; zero where no oracle ran."""
    gaps = [o.gap_pct for o in outcomes if o.gap_pct is not None]
    oracle_times = [o.oracle_s for o in outcomes if o.oracle_s is not None]
    values = {
        "failed_frac": _ratio(sum(o.failed for o in outcomes), len(outcomes)),
        "oracle_s_p50": statistics.median(oracle_times) if oracle_times else 0.0,
        "gap_final_pct_mean": _mean(gaps),
        "gap_final_pct_max": max(gaps) if gaps else 0.0,
    }
    notes = {
        "failed_frac": f"{sum(o.failed for o in outcomes)} of {len(outcomes)} solves",
        "oracle_s_p50": f"{len(oracle_times)} oracle solves" if oracle_times else "no oracle",
        "gap_final_pct_mean": f"{len(gaps)} instances" if gaps else "no oracle",
        "gap_final_pct_max": f"{len(gaps)} instances" if gaps else "no oracle",
    }
    return values, notes


def layer_metrics(plain: list, traced: list, tracer: LayerTracer):
    """(values, notes) for the traced run; times are sums over the traced pass."""
    def stat(name, root="solve"):
        return tracer.stat(root, name)

    def count(name, root="solve"):
        return tracer.count(root, name)

    done = [o for o in traced if o.error is None]
    requests = count("tsp.request.count")
    cache_get = stat("tsp.TspCache.get").calls
    savings = stat("heuristic.compute_savings").calls
    searches = stat("heuristic.local_search").calls
    quotes = stat("heuristic.best_insertion").calls
    hk = stat("tsp.held_karp_order")
    wall_plain = sum(o.solve_s for o in plain)
    wall_traced = sum(o.solve_s for o in traced)
    em = stat("oracle.exact_minmax", "oracle")
    values = {
        "tsp.solve_tsp.calls": stat("tsp.solve_tsp").calls,
        "tsp.solve_tsp.self_s": stat("tsp.solve_tsp").self_s,
        "tsp.held_karp_order.calls": hk.calls,
        "tsp.held_karp_order.s": hk.incl_s,
        "tsp.cache.hit_frac": _ratio(count("tsp.cache.hits"), cache_get),
        "tsp.request.targets_mean": _ratio(count("tsp.request.targets"), requests),
        "tsp.request.long_frac": _ratio(count("tsp.request.long"), requests),
        "heuristic.local_search.calls": searches,
        "heuristic.local_search.self_s": stat("heuristic.local_search").self_s,
        "heuristic.best_insertion.calls": quotes,
        "heuristic.best_insertion.s": stat("heuristic.best_insertion").incl_s,
        "heuristic.compute_savings.calls": savings,
        "heuristic.compute_savings.s": stat("heuristic.compute_savings").incl_s,
        "heuristic.ls.accept_frac": _ratio(savings - searches, quotes),
        "heuristic.perturbation_loop.s": stat("heuristic.perturbation_loop").incl_s,
        "heuristic.perturbation.iterations": sum(o.iterations for o in done),
        "heuristic.perturbation.improved_frac": _ratio(
            sum(o.objective < o.after_local_search for o in done), len(done)),
        "heuristic.stage.init_s": sum(o.stage_s["init"] for o in done),
        "heuristic.stage.local_search_s": sum(o.stage_s["local_search"] for o in done),
        "heuristic.stage.perturbation_s": sum(o.stage_s["perturbation"] for o in done),
        "allocation.solve_load_balancing.s": stat("allocation.solve_load_balancing").incl_s,
        "allocation.perturb_colocated_depots.s":
            stat("allocation.perturb_colocated_depots").incl_s,
        "allocation.build_initial_solution.s": stat("allocation.build_initial_solution").incl_s,
        "model.Instance.time_matrix.calls": stat("model.Instance.time_matrix").calls,
        "model.Instance.time_matrix.s": stat("model.Instance.time_matrix").incl_s,
        "model.Instance.with_depots.calls": stat("model.Instance.with_depots").calls,
        "model.validate_solution.s": stat("model.validate_solution").incl_s,
        "oracle.exact_minmax.s": em.incl_s,
        "oracle.best_cycle_lengths.s": stat("oracle.best_cycle_lengths", "oracle").incl_s,
        "oracle.enumeration.self_s": em.self_s,
        "oracle.partitions": sum(o.partitions for o in traced),
        "trace.overhead_frac": _ratio(wall_traced, wall_plain) - 1.0,
    }
    notes = {
        "tsp.cache.hit_frac": f"{count('tsp.cache.hits')} hits of {cache_get} lookups",
        "tsp.request.long_frac": f"{count('tsp.request.long')} of {requests} requests",
        "heuristic.ls.accept_frac": f"{savings - searches} accepted of {quotes} tried",
        "heuristic.perturbation.improved_frac": f"of {len(done)} solves",
        "oracle.partitions": "computed: sum of k**free_targets",
        "trace.overhead_frac": f"traced {wall_traced:.3f} s vs plain {wall_plain:.3f} s",
    }
    return values, notes


def compare_passes(passes: list) -> list:
    """Problems where a later pass did not reproduce the first pass's plans."""
    out = []
    for later in passes[1:]:
        for a, b in zip(passes[0], later):
            if (a.error, a.objective, a.sequences) != (b.error, b.objective, b.sequences):
                out.append(f"instance {a.index}: a repeated solve returned a different plan "
                           f"({b.objective!r} vs {a.objective!r})")
    return out


# -- entry point -----------------------------------------------------------

def run(name: str, seed: int, seconds: float, trace: bool,
        workload: Workload | None = None, setup_repeats: int | None = None) -> dict:
    """One benchmark run; returns its report (see ``main`` for the printed form).

    ``workload`` overrides the named workload (the self-tests use it for cases
    that are not benchmark workloads).
    """
    wl = workload or WORKLOADS[name]
    plan = wl.plan(seconds)
    if trace:
        count = traced_count(plan)
        plain, traced, tracer = run_traced(wl, seed, count)
        passes = [plain, traced]
        values, notes = layer_metrics(plain, traced, tracer)
        q_values, q_notes = quality_metrics(traced)
        values.update(q_values)
        notes.update(q_notes)
        extra = {}
    else:
        count = plan.instances
        outcomes, setups = run_untraced(wl, seed, seconds, setup_repeats or SETUP_REPEATS)
        passes = [outcomes]
        values, notes = end_to_end_metrics(passes[0], plan, setups)
        extra, q_notes = quality_metrics(passes[0])
        notes.update(q_notes)
    problems = compare_passes(passes)
    outcomes = [o for solves in passes for o in solves]
    for o in outcomes:
        problems.extend(f"instance {o.index}: {p}" for p in o.problems)
    return {
        "values": values, "extra": extra, "notes": notes, "problems": problems,
        "errors": [(o.index, o.error) for o in outcomes if o.error is not None],
        "attempted": len(outcomes), "failed": sum(o.failed for o in outcomes),
        "provenance": provenance(wl, seed, seconds, count),
    }


def main(args) -> int:
    if Path(minmaxtsp.__file__).resolve().parent != ROOT / "src" / "minmaxtsp":
        print(f"error: imported minmaxtsp from {minmaxtsp.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC_FILE.read_text(encoding="utf-8"))
    reported = {m["name"]: m for m in spec["per_layer" if args.trace else "end_to_end"]}
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    mismatch = set(report["values"]) ^ set(reported)
    if mismatch:
        print(f"error: metrics {sorted(mismatch)} are computed but not declared in "
              f"{SPEC_FILE.name}, or declared but not computed", file=sys.stderr)
        return 2

    print(f"provenance: {json.dumps(report['provenance'], sort_keys=True)}")
    for index, error in report["errors"]:
        print(f"failed solve: instance {index} raised {error}")
    for problem in report["problems"]:
        print(f"CHECK FAILED: {problem}")
    # Quality metrics of an untraced run are printed too, but reported in the
    # JSON line only by the traced run, where BENCHMARK.json lists them.
    for name, value in {**report["values"], **report["extra"]}.items():
        meta = declared[name]
        note = report["notes"].get(name)
        print(f"{name} = {value!r} {meta['unit']} ({meta['better']} is better)"
              + (f"; {note}" if note else ""))
    correct = not report["problems"]
    result = {
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": declared[name]["unit"]}
                    for name, value in report["values"].items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1
