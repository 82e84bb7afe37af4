"""How close does the heuristic get, and does pre-assignment help?

Runs the distinct-depot scenario at desk scale against the exact oracle
for three pre-assignment fractions and prints a small table: mean/max final
gap and how many instances land within 2% of optimal.  Mirrors the benchmark
protocol, so a full report CSV is written per fraction as well.  An instance
the solver refuses is a failed row of its report (``rows_failed``) and is left
out of the table.
"""

from minmaxtsp import run_experiment, scenario1, write_report

N_TARGETS = 10
N_INSTANCES = 12
SEED = 42

print(f"scenario 1, {N_TARGETS} targets, {N_INSTANCES} instances per row, seed {SEED}")
print(f"{'fraction':>9} {'mean gap':>9} {'max gap':>9} {'<=2% opt':>9} {'oracle s':>9}")
for fraction in (0.0, 0.10, 0.20):
    cfg = scenario1(n_targets=N_TARGETS, n_instances=N_INSTANCES, seed=SEED,
                    assign_fraction=fraction, oracle=True)
    report = run_experiment(cfg)
    summary = report.summary()
    solved = [r for r in report.rows if r.error is None]  # a refused instance has no gap
    tight = sum(1 for r in solved if r.gap_final_pct <= 2.0)
    print(f"{fraction:>9.2f} {summary['mean_gap_final_pct']:>8.2f}% "
          f"{summary['max_gap_final_pct']:>8.2f}% {tight:>6d}/{len(solved)} "
          f"{summary['mean_t_oracle_s']:>9.3f}")
    out = f"gap_study_frac{int(round(100 * fraction)):02d}.csv"
    write_report(report, out)
    print(f"          full report -> {out}")
