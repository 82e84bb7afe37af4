"""Load-balancing initialization.

Stage 1 is three calls on plain per-vehicle mappings keyed by vehicle id:
``perturb_colocated_depots`` gives each vehicle's effective depot (a Point),
``solve_load_balancing`` gives each vehicle's free targets (a frozenset), and
``build_initial_solution`` routes each vehicle through those plus its
required targets.

Free targets are distributed over the fleet by a minimum-cost assignment in
which every vehicle must receive at least a speed-proportional share of the
work, and the cost of giving target t to vehicle j is the depot-to-target
travel time.  The assignment is solved exactly by the shortest augmenting
path method of Crouse (2016, "On implementing 2D rectangular assignment
algorithms", IEEE TAES 52(4)), the algorithm behind scipy's
``linear_sum_assignment``, with the same float expressions and tie rule, so
both give the same column for every row.  Vehicles parked on the same spot
would see identical cost columns, so co-located depots are first teased apart
on a small circle; the effective positions exist only inside the cost matrix
and tours are always built from the true depots.
"""

import math

import numpy as np

from .model import InfeasibleAllocationError, Instance, Point, Solution, distances
from .tsp import HEURISTIC, TspCache, request_for, solve_tsp

# Radius of the circle on which co-located depots are spread apart.
COLOCATION_RADIUS = 0.1


def min_target_counts(inst: Instance) -> dict:
    """Lower bound per vehicle id on the free targets it must receive.

    Vehicle j must serve at least floor(n * v_j / sum(v)) targets; whatever
    its required set already covers is subtracted and the result is clamped
    at zero.  Note the clamp can push the summed bounds past the number of
    free targets when one vehicle's required load far exceeds its share;
    solve_load_balancing then raises InfeasibleAllocationError.
    """
    total_speed = sum(v.speed for v in inst.vehicles)
    n = inst.n_targets
    lower = {}
    for v in inst.vehicles:
        share = math.floor(n * v.speed / total_speed)
        lower[v.id] = max(0, share - len(inst.required_for(v.id)))
    return lower


def perturb_colocated_depots(inst: Instance, rng) -> dict:
    """Effective depot position per vehicle id, for allocation costs only.

    A vehicle alone on its depot keeps it.  Each group of m >= 2 vehicles
    sharing an exact depot position gets one random base angle; member i (in
    vehicle-id order) lands at base + i*2pi/m on a circle of radius
    COLOCATION_RADIUS around the shared point.  Groups are processed in order
    of their lowest vehicle id, so draws are reproducible for a seeded
    generator.
    """
    groups = {}
    for v in inst.vehicles:
        groups.setdefault((v.depot.x, v.depot.y), []).append(v.id)
    pos = {v.id: v.depot for v in inst.vehicles}
    for (cx, cy), members in sorted(groups.items(), key=lambda kv: kv[1][0]):
        if len(members) < 2:
            continue
        base = rng.uniform(0.0, 2.0 * math.pi)
        for i, vid in enumerate(sorted(members)):
            theta = base + 2.0 * math.pi * i / len(members)
            pos[vid] = Point(cx + COLOCATION_RADIUS * math.cos(theta),
                             cy + COLOCATION_RADIUS * math.sin(theta))
    return pos


def _cost_matrix(inst: Instance, eff: dict, free) -> np.ndarray:
    """(|free|, k) matrix: time from vehicle j's effective depot to target t."""
    depots = np.array([[eff[v.id].x, eff[v.id].y] for v in inst.vehicles], dtype=float)
    speeds = np.array([v.speed for v in inst.vehicles], dtype=float)
    return distances(inst.target_xy()[list(free)], depots) / speeds


def solve_load_balancing(inst: Instance, eff: dict) -> dict:
    """Free targets per vehicle id at minimum total cost, as frozensets.

    ``eff`` maps each vehicle id to its effective depot (see
    ``perturb_colocated_depots``); the lower bounds come from
    ``min_target_counts``.  Every vehicle gets an entry; required targets are
    not listed.  The problem is solved exactly: vehicle j contributes lower_j
    dedicated slots priced by its own cost column, targets beyond the bounds
    fill wildcard slots priced at each target's cheapest vehicle, and one
    square assignment over the slots settles everything.  A target won by a
    wildcard slot goes to its cheapest vehicle (ties: lowest id).

    The square assignment is Crouse's shortest augmenting path method, run
    row by row.  When several columns tie for the cheapest path at a step, it
    takes the last one scanned that has no row yet, and otherwise the first
    one scanned: scipy's ``linear_sum_assignment`` rule.  A single vehicle
    owes every free target, so all its slots are dedicated and it gets them
    all.  Raises InfeasibleAllocationError when the bounds demand more
    targets than are free.
    """
    free = inst.free_targets()
    lowers = list(min_target_counts(inst).values())
    if sum(lowers) > len(free):
        raise InfeasibleAllocationError(
            f"lower bounds demand {sum(lowers)} free targets, instance has {len(free)}")
    assign = {v.id: set() for v in inst.vehicles}
    if free:
        _assign_exact(_cost_matrix(inst, eff, free), lowers, free, assign)
    return {vid: frozenset(ids) for vid, ids in assign.items()}


def _assign_exact(c: np.ndarray, lowers, free, assign) -> None:
    nf, k = c.shape
    owner = []
    cols = []
    for j in range(k):
        for _ in range(lowers[j]):
            owner.append(j)
            cols.append(c[:, j])
    cheapest = c.min(axis=1)
    for _ in range(nf - len(owner)):
        owner.append(-1)
        cols.append(cheapest)
    col_of_row = _min_cost_assignment(np.column_stack(cols).tolist())
    for row, col in enumerate(col_of_row):
        j = owner[col]
        if j < 0:
            j = int(np.argmin(c[row]))
        assign[j + 1].add(free[row])


def _min_cost_assignment(cost: list) -> list:
    """Column of each row in a minimum-cost assignment of a square matrix.

    ``cost`` is a list of n rows of n floats.  A port of scipy's
    ``linear_sum_assignment`` (Crouse 2016), square case: each row in turn
    grows a shortest augmenting path by Dijkstra steps over reduced costs
    ``min_val + cost[i][j] - u[i] - v[j]``, evaluated left to right.  The
    unreached columns start in reverse order (n - 1 .. 0), are scanned in list
    order, and leave it by swapping with the last entry.  A column becomes the
    step's pick when its path cost is strictly lower, or equal and the column
    has no row yet, so the last free tie wins and otherwise the first minimum.
    Every path has a finite cost while the costs are finite, which COORD_LIMIT
    and SPEED_MIN guarantee on a valid instance; if none has, the function
    raises InfeasibleAllocationError.
    """
    n = len(cost)
    inf = math.inf
    u = [0.0] * n
    v = [0.0] * n
    path = [-1] * n
    col4row = [-1] * n
    row4col = [-1] * n
    for cur in range(n):
        spc = [inf] * n
        remaining = list(range(n - 1, -1, -1))
        rows_reached, cols_reached = [], []
        min_val = 0.0
        i = cur
        while True:
            rows_reached.append(i)
            row, ui = cost[i], u[i]
            lowest, j = inf, -1
            for col in remaining:
                s = spc[col]
                r = min_val + row[col] - ui - v[col]
                if r < s:
                    path[col] = i
                    spc[col] = s = r
                if s <= lowest and (s < lowest or row4col[col] < 0):
                    lowest, j = s, col
            min_val = lowest
            if min_val == inf:
                raise InfeasibleAllocationError("no finite-cost augmenting path")
            cols_reached.append(j)
            index = remaining.index(j)
            remaining[index] = remaining[-1]
            remaining.pop()
            if row4col[j] < 0:
                break
            i = row4col[j]
        u[cur] += min_val
        for r in rows_reached[1:]:
            u[r] += min_val - spc[col4row[r]]
        for col in cols_reached:
            v[col] -= min_val - spc[col]
        # Augment: flip the path back from the unassigned column j it reached.
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def build_initial_solution(inst: Instance, alloc: dict, mode: str = HEURISTIC,
                           cache: TspCache | None = None) -> Solution:
    """Route every vehicle through its allocated plus required targets.

    ``alloc`` maps every vehicle id to its free targets, as
    ``solve_load_balancing`` returns.  Tours always depart from the true
    depots; the effective positions used for allocation costs play no role
    here.
    """
    tours = []
    for v in inst.vehicles:
        ids = alloc[v.id] | inst.required_for(v.id)
        tours.append(solve_tsp(request_for(inst, v.id, ids, mode), cache))
    return Solution(tuple(tours))
