"""Shared test helpers: independent brute-force oracles and instance builders.

The oracles here deliberately avoid the package's distance matrices and DP
code paths; they enumerate permutations and partitions directly over raw
coordinates so that agreement with the library is meaningful evidence.
"""

import csv
import itertools
import math

import numpy as np

from minmaxtsp import Instance, Point, Vehicle
from minmaxtsp.tsp import TspCache


def euclid(a, b):
    return math.hypot(a[0] - b[0], a[1] - b[1])


def brute_cycle_length(depot, pts):
    """Shortest depot-to-depot cycle through all points, by full enumeration."""
    if not pts:
        return 0.0
    best = math.inf
    for perm in itertools.permutations(range(len(pts))):
        length = euclid(depot, pts[perm[0]])
        for i, j in zip(perm, perm[1:]):
            length += euclid(pts[i], pts[j])
        length += euclid(pts[perm[-1]], depot)
        if length < best:
            best = length
    return best


def brute_minmax_objective(inst, cache=None):
    """Naive permutation-and-partition enumeration of the fleet optimum.

    ``cache`` (optional dict) memoizes per-(vehicle, subset) cycle lengths so
    repeated subsets are not re-enumerated; the per-subset computation itself
    stays pure permutation enumeration.
    """
    free = inst.free_targets()
    depot_of = {v.id: (v.depot.x, v.depot.y) for v in inst.vehicles}
    best = math.inf
    for owners in itertools.product(range(inst.k), repeat=len(free)):
        worst = 0.0
        for v in inst.vehicles:
            mine = tuple(sorted(
                [free[p] for p, o in enumerate(owners) if o == v.id - 1]
                + list(inst.required_for(v.id))))
            key = (v.id, mine)
            length = cache.get(key) if cache is not None else None
            if length is None:
                pts = [(inst.targets[t].x, inst.targets[t].y) for t in mine]
                length = brute_cycle_length(depot_of[v.id], pts)
                if cache is not None:
                    cache[key] = length
            worst = max(worst, length / v.speed)
            if worst >= best:
                break
        if worst < best:
            best = worst
    return best


def allocation_cost(inst, eff, alloc):
    """Total depot-to-target time of an allocation under effective depots.

    ``eff`` maps vehicle id to effective depot and ``alloc`` vehicle id to
    its free targets, as ``solve_load_balancing`` returns them."""
    total = 0.0
    for v in inst.vehicles:
        d = eff[v.id]
        for t in alloc[v.id]:
            p = inst.targets[t]
            total += euclid((d.x, d.y), (p.x, p.y)) / v.speed
    return total


def brute_allocation_cost(inst, eff, counts):
    """Minimum allocation cost over all assignments meeting the lower bounds.

    ``eff`` maps vehicle id to effective depot and ``counts`` vehicle id to
    lower bound, as ``perturb_colocated_depots`` and ``min_target_counts``
    return them.  All k^m placements of the m free targets are enumerated at
    once, one per column of an (m, k^m) owner array (8^7 columns take about
    15 MB)."""
    free = inst.free_targets()
    m = len(free)
    cost = np.array([[euclid((eff[v.id].x, eff[v.id].y),
                             (inst.targets[t].x, inst.targets[t].y)) / v.speed
                      for v in inst.vehicles] for t in free]).reshape(m, inst.k)
    owners = np.indices((inst.k,) * m, dtype=np.int8).reshape(m, inst.k ** m)
    total = np.zeros(inst.k ** m)
    for p in range(m):
        total += cost[p, owners[p]]
    feasible = np.ones(inst.k ** m, dtype=bool)
    for v in inst.vehicles:
        feasible &= np.count_nonzero(owners == v.id - 1, axis=0) >= counts.get(v.id, 0)
    return total[feasible].min() if feasible.any() else math.inf


def random_instance(rng, n, k, grid=100.0, speeds=None, assign_fraction=0.0,
                    colocate_first_two=False):
    """Small random instance built directly from raw draws (no bench code)."""
    xy = rng.uniform(0.0, grid, size=(n, 2))
    targets = tuple(Point(float(x), float(y)) for x, y in xy)
    speeds = speeds or tuple(float(s) for s in rng.uniform(0.5, 2.5, size=k))
    depots = [Point(float(rng.uniform(0, grid)), float(rng.uniform(0, grid)))
              for _ in range(k)]
    if colocate_first_two and k >= 2:
        depots[1] = depots[0]
    vehicles = tuple(Vehicle(i + 1, speeds[i], depots[i]) for i in range(k))
    required = {}
    n_req = math.floor(assign_fraction * n)
    if n_req:
        chosen = rng.choice(n, size=n_req, replace=False)
        for t in chosen:
            vid = int(rng.integers(1, k + 1))
            required.setdefault(vid, []).append(int(t))
    return Instance(targets, vehicles, required)


class FixedAngleRng:
    """Stand-in generator whose uniform() draws are scripted."""

    def __init__(self, *values):
        self.values = list(values)

    def uniform(self, low=0.0, high=1.0):
        return self.values.pop(0) if self.values else low


def memo_size(inst):
    """Held-Karp tours in the instance's exact-tour memo, 0 before there is one."""
    return len(inst._cache.get(TspCache, ()))


def line_instance():
    """Two unit-speed vehicles facing each other across four line targets."""
    targets = (Point(1, 0), Point(2, 0), Point(8, 0), Point(9, 0))
    vehicles = (Vehicle(1, 1.0, Point(0, 0)), Vehicle(2, 1.0, Point(10, 0)))
    return Instance(targets, vehicles)


def report_records(path):
    """Per-instance rows of a report CSV as dicts of column name to raw string;
    the '#' aggregate lines are skipped."""
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))
