"""Frozen plans: ``solve`` output on fixed seeds, recorded once and compared
exactly.

A change that claims to keep plans bit-identical (a faster tour polish, a
refactor) must pass this file without re-recording it: every tour sequence,
the ``repr`` of every objective and every perturbation iteration count must
match ``frozen_plans.json``.  Re-record only in a change that moves plans on
purpose, and say so in that change; the recorder prints each row that
moved against the fixture it overwrites:

    PYTHONPATH=src python tests/test_frozen_plans.py
"""

import json
from pathlib import Path

import pytest

from minmaxtsp import (EXACT, SolverConfig, generate_instance, scenario1,
                       scenario2, solve)
from minmaxtsp.bench import ExperimentConfig

FIXTURE = Path(__file__).with_name("frozen_plans.json")

SEED = 2026

# name -> (experiment config, solver config, instance indices).  The
# heuristic-tour cases let the 2-opt/Or-opt polish decide the plan, from a few
# targets per tour (s1_n10) up to long tours (s1_n60, the two-vehicle fleet).
# s1_n10_exact routes with Held-Karp, and k2_n22_exact_stop1 does so on tours
# of up to 13 targets; s2_n30_pin20 has co-located depots and pinned targets;
# fleet8_n64_pin10 quotes insertions over seven receivers, where vehicles
# other than the donor can tie at the makespan.  The k1 cases route a single
# vehicle through the same three-stage pipeline as any fleet, with pinned
# targets and with Held-Karp tours.  s2_n30_pin20_exact_stop1 routes the pinned
# co-located case in exact mode, where the fast vehicle's tour grows past
# EXACT_CAP targets and is polished from then on.
CASES = {
    "s1_n10": (scenario1(n_targets=10, seed=SEED), SolverConfig(), range(4)),
    "s1_n30": (scenario1(n_targets=30, seed=SEED), SolverConfig(), range(3)),
    "s1_n60": (scenario1(n_targets=60, seed=SEED), SolverConfig(), range(2)),
    "k2_n30_stop1": (ExperimentConfig(n_targets=30, speeds=(1.0, 1.0), seed=SEED),
                     SolverConfig(no_improve_stop=1), range(4)),
    "s1_n10_exact": (scenario1(n_targets=10, seed=SEED), SolverConfig(tour_mode=EXACT),
                     range(3)),
    "k2_n22_exact_stop1": (ExperimentConfig(n_targets=22, speeds=(1.0, 1.0), seed=SEED),
                           SolverConfig(tour_mode=EXACT, no_improve_stop=1), range(2)),
    "s2_n30_pin20": (scenario2(n_targets=30, assign_fraction=0.2, seed=SEED),
                     SolverConfig(), range(4)),
    "s2_n30_pin20_exact_stop1": (scenario2(n_targets=30, assign_fraction=0.2, seed=SEED),
                                 SolverConfig(tour_mode=EXACT, no_improve_stop=1),
                                 range(3)),
    "fleet8_n64_pin10": (ExperimentConfig(n_targets=64,
                                          speeds=(1.0, 1.0, 1.5, 1.5, 2.0, 2.0, 1.0, 2.0),
                                          colocated=((1, 2), (3, 4)),
                                          assign_fraction=0.1, seed=SEED),
                         SolverConfig(), range(4)),
    "k1_n30_pin30": (ExperimentConfig(n_targets=30, speeds=(1.0,), assign_fraction=0.3,
                                      seed=SEED),
                     SolverConfig(), range(3)),
    "k1_n12_exact": (ExperimentConfig(n_targets=12, speeds=(1.0,), seed=SEED),
                     SolverConfig(tour_mode=EXACT), range(2)),
}


def _record(name: str, index: int) -> dict:
    exp, cfg, _ = CASES[name]
    sol, trace = solve(generate_instance(exp, index), cfg, rng=index)
    return {"case": name, "index": index,
            "sequences": [list(t.sequence) for t in sol.tours],
            "objective": repr(sol.objective),
            "iterations": trace.iterations}


def _frozen() -> dict:
    rows = json.loads(FIXTURE.read_text(encoding="utf-8"))
    return {(e["case"], e["index"]): e for e in rows}


_KEYS = [(name, i) for name, (_, _, idx) in CASES.items() for i in idx]


@pytest.mark.parametrize("name,index", _KEYS, ids=[f"{n}-{i}" for n, i in _KEYS])
def test_plan_matches_the_recorded_plan(name, index):
    assert _record(name, index) == _frozen()[name, index]


def test_fixture_holds_exactly_the_cases():
    assert sorted(_frozen()) == sorted(_KEYS)


if __name__ == "__main__":
    old = _frozen() if FIXTURE.exists() else {}
    rows = [_record(name, i) for name, i in _KEYS]
    for r in rows:
        if old.get((r["case"], r["index"])) != r:
            print(f"moved: {r['case']}-{r['index']}")
    FIXTURE.write_text("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n",
                       encoding="utf-8")
    print(f"wrote {FIXTURE} ({len(rows)} plans)")
