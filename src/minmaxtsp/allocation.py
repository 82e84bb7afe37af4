"""Load-balancing initialization.

Stage 1 is three calls on plain per-vehicle mappings keyed by vehicle id:
``perturb_colocated_depots`` gives each vehicle's effective depot (a Point),
``solve_load_balancing`` gives each vehicle's free targets (a frozenset) at
minimum total depot-to-target travel time, every vehicle receiving at least
its share (``min_target_counts``), and ``build_initial_solution`` routes each
vehicle through those plus its required targets, from a first order it
builds by nearest neighbour (``_nearest_neighbor``).  Each function's
docstring states its rule.  They are internal: ``heuristic.solve`` checks
the instance and the generator once and passes them on.
"""

import math

import numpy as np

from .model import InfeasibleAllocationError, Instance, Point, Solution, distances
from .tsp import TourRequest, solve_tsp

# Radius of the circle on which co-located depots are spread apart.
COLOCATION_RADIUS = 0.1


def min_target_counts(inst: Instance) -> dict:
    """Lower bound per vehicle id on the free targets it must receive.

    Vehicle j must serve at least floor(n * v_j / sum(v)) targets; whatever
    its required set already covers is subtracted and the result is clamped
    at zero.  The floor is exact for every speed ``is_speed`` admits: each
    speed is an integer over a power of two (``as_integer_ratio``), so over
    the largest of those denominators every speed is an integer and the
    share is integer division, which neither overflows nor depends on how
    a Python version rounds a float sum.  Note the clamp can push the summed
    bounds past the number of free targets when one vehicle's required load
    far exceeds its share; solve_load_balancing then raises
    InfeasibleAllocationError.
    """
    ratios = [v.speed.as_integer_ratio() for v in inst.vehicles]
    scale = max(q for _, q in ratios)
    weights = [p * (scale // q) for p, q in ratios]
    total = sum(weights)
    n = inst.n_targets
    return {v.id: max(0, n * w // total - len(inst.required_for(v.id)))
            for v, w in zip(inst.vehicles, weights)}


def perturb_colocated_depots(inst: Instance, rng) -> dict:
    """Effective depot position per vehicle id, for allocation costs only:
    vehicles parked on one spot would see identical cost columns.

    A vehicle alone on its depot keeps it.  Each group of m >= 2 vehicles
    sharing an exact depot position gets one random base angle; member i (in
    vehicle-id order) lands at base + i*2pi/m on a circle of radius
    COLOCATION_RADIUS around the shared point.  Groups are processed in order
    of their lowest vehicle id, so draws are reproducible for a seeded
    generator: the vehicles come in id order, so a group is first seen at
    its lowest id and lists its members in id order.
    """
    groups = {}
    for v in inst.vehicles:
        groups.setdefault((v.depot.x, v.depot.y), []).append(v.id)
    pos = {v.id: v.depot for v in inst.vehicles}
    for (cx, cy), members in groups.items():
        if len(members) < 2:
            continue
        base = rng.uniform(0.0, 2.0 * math.pi)
        for i, vid in enumerate(members):
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
    not listed.  Raises InfeasibleAllocationError when the bounds demand more
    targets than are free.

    A transportation problem with k sinks, solved by successive shortest
    paths (Ahuja, Magnanti & Orlin 1993, *Network Flows*, ch. 9): every free
    target starts at its cheapest vehicle, which is optimal while no bound
    binds.  Then, while some vehicle holds fewer free targets than its bound,
    the lowest-id such vehicle receives one along a cheapest path from a
    vehicle above its bound (``_cheapest_moves``); the first vehicle loses
    one and stays at or above its bound, the vehicles in between keep their
    counts, so the loop ends after at most sum(lower_j) moves.  A single
    vehicle owes every free target and keeps them all.

    Tie rule: a target starts at the lowest-id cheapest vehicle, each edge
    moves the lowest-index target among its cheapest, and of equally cheap
    paths the first one Bellman-Ford finds stands.  Among allocations of
    equal cost this need not be the one an n x n assignment solver picks.
    """
    free = inst.free_targets()
    lowers = np.array(list(min_target_counts(inst).values()))
    if lowers.sum() > len(free):
        raise InfeasibleAllocationError(
            f"lower bounds demand {lowers.sum()} free targets, instance has {len(free)}")
    c = _cost_matrix(inst, eff, free)
    owner = c.argmin(axis=1)
    while True:
        held = np.bincount(owner, minlength=inst.k)
        short = np.flatnonzero(held < lowers)
        if not short.size:
            break
        for t, b in _cheapest_moves(c, owner, (held > lowers).tolist(), short[0]):
            owner[t] = b
    return {v.id: frozenset(free[t] for t in np.flatnonzero(owner == v.id - 1))
            for v in inst.vehicles}


def _cheapest_moves(c: np.ndarray, owner: np.ndarray, sources: list, goal: int) -> list:
    """Moves (target row, new vehicle) along a cheapest path that passes one
    free target to vehicle ``goal`` from a vehicle flagged in ``sources``.

    Edge a -> b passes one free target from vehicle a to vehicle b and costs
    the least ``c[t, b] - c[t, a]`` over the targets t that ``owner`` puts at
    a; it moves the lowest-index target among those cheapest.  Entry
    ``[t, a, b]`` of one masked table is that price for target t, or inf
    unless a holds t, so a vehicle holding no free target has no edge out.
    Bellman-Ford from every source at once, scanning edges from lower to
    higher vehicle ids and keeping a path only when it is strictly cheaper.
    Each vehicle carries its whole path, and a path is never extended to a
    vehicle it already holds: the current allocation is optimal for its
    counts, so cycles cost at least zero, but on exact ties rounding can tip
    one below and a predecessor walk-back would then never end.  A source
    holds a target, so its direct edge reaches ``goal``.
    """
    k = c.shape[1]
    delta = c - c[np.arange(len(c)), owner][:, None]
    table = np.where(owner[:, None, None] == np.arange(k)[:, None], delta[:, None, :], np.inf)
    pick, weight = table.argmin(0), table.min(0).tolist()
    dist = [0.0 if s else math.inf for s in sources]
    paths = [(a,) for a in range(k)]
    for _ in range(k - 1):
        changed = False
        for a in range(k):
            for b in range(k):
                d = dist[a] + weight[a][b]
                if d < dist[b] and b not in paths[a]:
                    dist[b], paths[b] = d, paths[a] + (b,)
                    changed = True
        if not changed:
            break
    path = paths[goal]
    return [(pick[a][b], b) for a, b in zip(path, path[1:])]


def _nearest_neighbor(dist: np.ndarray) -> list:
    """Greedy order starting at the depot; ties go to the lowest index.

    Each step is an argmin over the current vertex's row of a copy of the
    target columns, in which visited targets are set to infinity; argmin
    returns the first minimum, so ties resolve as in a scan by (distance,
    index).
    """
    m = dist.shape[0] - 1
    free = dist[:, :m].copy()
    order = []
    cur = m
    for _ in range(m):
        cur = int(free[cur].argmin())
        order.append(cur)
        free[:, cur] = np.inf
    return order


def build_initial_solution(inst: Instance, alloc: dict, mode: str) -> Solution:
    """Route every vehicle through its allocated plus required targets.

    ``alloc`` maps every vehicle id to its free targets, as
    ``solve_load_balancing`` returns.  Each tour starts from the
    nearest-neighbour order over its targets in id order and is routed in
    ``mode`` by ``solve_tsp``.  Tours always depart from the true depots;
    the effective positions used for allocation costs play no role here.
    """
    tours = []
    for v in inst.vehicles:
        ids = sorted(inst.required_for(v.id).union(alloc[v.id]))
        order = [ids[p] for p in _nearest_neighbor(inst.distance_block(v.id, ids))]
        tours.append(solve_tsp(TourRequest(inst, v.id, order, mode)))
    return Solution(tuple(tours))
