"""Three-stage min-max routing heuristic.

Stage 1 (``allocation``) builds a starting plan by load-balanced allocation
plus per-vehicle tours.  Stage 2, ``local_search``, offloads targets from the
longest tour one at a time, reading every tour, the donor's too, once per
pass (``_TourRead``); ``compute_savings`` and ``best_insertion`` tell how it
prices them, and ``local_search`` which receivers it routes.  Stage 3,
``perturbation_loop``, escapes local optima by displacing depots and searching
again on the displaced geometry.  Every tour comes from ``tsp.solve_tsp``.
Stages 2 and 3 price with the instance's matrices, indexed by tour sequences
as they stand (``DEPOT`` is the last row and column).

``solve`` is the entry point and checks its instance, config and generator
once.  The stage functions are internal: they trust what ``solve`` hands them
and check nothing themselves.
"""

import math
import time
from dataclasses import dataclass, fields

import numpy as np

from .allocation import (build_initial_solution, perturb_colocated_depots,
                         solve_load_balancing)
from .model import (DEPOT, Instance, InvalidConfigError, Point, Solution, StageCheckError,
                    Tour, check_instance, is_integer, plain, validate_solution)
from .tsp import EXACT, HEURISTIC, TourRequest, held_karp_routes, solve_tsp

# The displacement angle steps 144 degrees, so the schedule repeats after
# PERTURBATION_PERIOD steps; no_improve_stop may not exceed it.
PERTURBATION_PERIOD = 5
PERTURBATION_STEP = 4.0 * math.pi / PERTURBATION_PERIOD

STAGE_INIT = "init"
STAGE_LOCAL_SEARCH = "local_search"
STAGE_PERTURBATION = "perturbation"


@dataclass(frozen=True)
class SolverConfig:
    """Solver settings, checked on construction (``InvalidConfigError``).

    Frozen, so a checked config stays checked; derive a variant with
    ``dataclasses.replace``, which checks it again.  Numpy scalars are kept
    as the Python values they hold (``model.plain``).
    """

    tour_mode: str = HEURISTIC
    no_improve_stop: int = 5

    def __post_init__(self):
        for field in fields(self):
            object.__setattr__(self, field.name, plain(getattr(self, field.name)))
        if self.tour_mode not in (HEURISTIC, EXACT):
            raise InvalidConfigError(
                f"tour_mode must be {HEURISTIC!r} or {EXACT!r}, got {self.tour_mode!r}")
        if not (is_integer(self.no_improve_stop)
                and 0 <= self.no_improve_stop <= PERTURBATION_PERIOD):
            raise InvalidConfigError(
                f"no_improve_stop must be an integer in [0, {PERTURBATION_PERIOD}],"
                f" got {self.no_improve_stop!r}")


@dataclass
class StageTrace:
    """Plan and wall time per pipeline stage, plus the perturbation iteration
    count.

    The stage plans are the solutions ``solve`` built, not copies, keyed in
    the order the stages ran.  A stage's objective is read from its plan.
    """

    stage_solutions: dict
    wall_times: dict
    iterations: int

    @property
    def after_init(self) -> float:
        return self.stage_solutions[STAGE_INIT].objective

    @property
    def after_local_search(self) -> float:
        return self.stage_solutions[STAGE_LOCAL_SEARCH].objective

    @property
    def after_perturbation(self) -> float:
        return self.stage_solutions[STAGE_PERTURBATION].objective


class _TourRead:
    """One tour as stage 2 prices it, read from the vehicle's time matrix tm
    once per pass, whether it gives or takes, so numpy's fixed cost per call
    is paid once per tour and pass, not once per offer.

    ``seq`` is the closed tour as a vertex array and ``hops`` its edge times
    tm[seq[p], seq[p + 1]] as Python floats.  ``row(t)`` lists tm[t, v] for
    every vertex v of ``seq``, which is tm[v, t] too: the matrix is exactly
    symmetric (``model.distances``).
    """

    __slots__ = ("tour", "tm", "seq", "hops")

    def __init__(self, inst: Instance, tour: Tour):
        self.tour = tour
        self.tm = inst.time_matrix(tour.vehicle_id)
        self.seq = np.array(tour.sequence)
        self.hops = self.tm[self.seq[:-1], self.seq[1:]].tolist()

    def row(self, target: int) -> list:
        return self.tm[target][self.seq].tolist()


def compute_savings(read: _TourRead, inst: Instance) -> list:
    """Time saved on the read tour by splicing out each removable target, as
    (target, value) pairs, from the read's ``hops`` and one gather of skip edges.

    Pre-assigned targets are never candidates.  Pairs come back sorted by
    decreasing value, ties by ascending target index.
    """
    hops, seq = read.hops, read.seq
    values = [a + b - s for a, b, s in zip(hops, hops[1:], read.tm[seq[:-2], seq[2:]].tolist())]
    pinned = inst.required_for(read.tour.vehicle_id)
    # Negation is exact, so -(-value) has the bits of value.
    ranked = sorted([(-v, t) for t, v in zip(read.tour.targets(), values) if t not in pinned])
    return [(t, -neg) for neg, t in ranked]


def best_insertion(target: int, reads: list) -> tuple:
    """Cheapest splice of ``target`` into any of the read tours (at least one,
    in vehicle-id order), as (read, edge position, delta).

    Every consecutive vertex pair (a, b) of every read tour is priced as
    tm[a, t] + tm[t, b] - tm[a, b] in Python, with the float expression and
    tie rules a numpy array of the same prices would give: ties break toward
    the earlier read, then the lower edge position.
    """
    best = None
    for read in reads:
        row = read.row(target)
        deltas = [a + b - ab for a, b, ab in zip(row, row[1:], read.hops)]
        delta = min(deltas)
        if best is None or delta < best[2]:
            best = (read, deltas.index(delta), delta)
    return best


# A receiver whose insertion bound reaches the makespan times _BOUND_SLACK is
# rejected unrouted.  For a new tour of m targets, the bound and the Held-Karp
# duration are sums over the m + 1 edges of one tour and the three of one
# triangle a t b, each term no longer than the tour (which passes a, t and b,
# so is at least the triangle's perimeter), with one rounding per addition and
# one per division by the speed.  Barring travel times that underflow (below
# 2**-1022 and not zero), the computed bound exceeds the computed duration by
# under (2 m + 9) 2**-53 relative, below 2**-47 for m up to 27, past the
# Held-Karp cap; the slack 2**-40 covers that a hundred times over, so a
# receiver the bound rejects would also have been rejected by its Held-Karp
# tour.
_BOUND_SLACK = 1.0 + 2.0 ** -40

# A receiver whose new tour is polished, not a Held-Karp tour, is routed only
# when its spliced tour (its tour with the target at the quoted edge, duration
# + delta) stays below the makespan times 1 + _SPLICE_MARGIN.  This is a
# screen, not a bound: a polish can shorten the spliced tour by more than the
# margin, so the screen may move plans.  Without the screen, of about 47,000
# polished receivers at n = 30-120 (two vehicles, scenarios 1 and 2, an
# 8-vehicle fleet) only 5 accepted moves began from a spliced tour 10% or
# more over the makespan, the largest at 1.12 times it; of 34,416 more at
# another seed, 2 did, at 1.13 and 1.16 times it.  A margin of 0 sped the
# search 1.6-2.7x for up to +0.62% mean makespan, 0.05 up to +0.06%; 0.1
# kept plans identical or within +0.03% at 1.3-1.5x.
_SPLICE_MARGIN = 0.1


def _insertion_lower_bound(target: int, read: _TourRead) -> float:
    """Least duration of an optimal tour of ``read.tour``'s targets plus
    ``target``, given that ``read.tour`` is optimal for its own targets.

    Cutting ``target`` out of the longer optimal tour and joining its two
    neighbours a and b leaves a tour of the old targets, so the longer tour
    costs at least the old tour's duration plus tm[a, t] + tm[t, b] - tm[a, b]
    minimised over a, b in the depot and the old targets.  Allowing a = b
    only lowers the minimum, needs no triangle inequality and covers the
    empty tour, where it gives the exact round trip.  Stage 2 applies it to
    a receiver whose current and new tours Held-Karp both routes.  The pairs
    (a, b) include every edge of the tour, priced with ``best_insertion``'s
    float expression, so the bound is never above the spliced tour.
    """
    ends = read.seq[:-1]
    to_target = read.row(target)[:-1]
    pairs = read.tm.take(ends, 0).take(ends, 1).tolist()
    return read.tour.duration + min([a + b - ab for a, row in zip(to_target, pairs)
                                     for b, ab in zip(to_target, row)])


def _rebuild(inst: Instance, vid: int, order: tuple, cfg: SolverConfig):
    """Vehicle vid's tour through ``order``'s targets, from that order."""
    return solve_tsp(TourRequest(inst, vid, order, cfg.tour_mode))


def _reroute(inst: Instance, plan: Solution, cfg: SolverConfig) -> Solution:
    """Every tour of ``plan`` rebuilt on ``inst``'s geometry from its order."""
    return Solution(tuple(_rebuild(inst, t.vehicle_id, t.targets(), cfg) for t in plan.tours))


def local_search(inst: Instance, sol: Solution, cfg: SolverConfig) -> Solution:
    """Offload the longest tour until no candidate transfer improves the plan.

    Each pass reads every tour once and takes the maximal vehicle's read out
    as the donor, the rest as receivers.  It takes the donor's savings list
    in order, quotes the best receiver for the candidate, re-routes the
    receiver, and accepts the first move that strictly lowers the makespan.
    A receiver is routed only when it may help, judged by its spliced tour
    (duration + delta, see ``_SPLICE_MARGIN``).  When Held-Karp routes its
    new tour, a spliced tour below the makespan passes and one at or above
    it is judged by ``_insertion_lower_bound``; otherwise the screen of
    ``_SPLICE_MARGIN`` judges it.  The makespan after a move is at least the
    receiver's new tour, so the donor is re-routed only when that tour stays
    below the current makespan.  The search stops when every candidate on
    the maximal tour fails; a fleet of one vehicle has no receiver, so its
    plan comes back as given.

    Precondition with exact tours: every tour of ``sol`` that Held-Karp
    routes is one on ``inst``'s geometry, as ``solve_tsp`` builds it.
    """
    if inst.k < 2:
        return sol
    current = sol
    while True:
        receivers = [_TourRead(inst, tour) for tour in current.tours]
        donor = receivers.pop(current.maximal_vehicle() - 1)
        donor_id, donor_order = donor.tour.vehicle_id, donor.tour.targets()
        objective = current.objective
        hopeless = objective * _BOUND_SLACK
        screen = objective * (1.0 + _SPLICE_MARGIN)
        for target, _ in compute_savings(donor, inst):
            read, p, delta = best_insertion(target, receivers)
            receiver = read.tour.vehicle_id
            order = read.tour.targets()
            spliced = read.tour.duration + delta
            if held_karp_routes(cfg.tour_mode, len(order) + 1):
                if spliced >= objective and _insertion_lower_bound(target, read) >= hopeless:
                    continue
            elif spliced >= screen:
                continue
            receiver_tour = _rebuild(inst, receiver, order[:p] + (target,) + order[p:], cfg)
            if receiver_tour.duration >= objective:
                continue
            donor_tour = _rebuild(inst, donor_id, tuple(t for t in donor_order if t != target), cfg)
            candidate = current.replace(donor_tour, receiver_tour)
            if candidate.objective < objective:
                current = candidate
                break
        else:
            return current


def perturbation_radius(sol: Solution, inst: Instance, vid: int) -> float:
    """Half the summed travel times of a tour's two depot edges, read from
    the depot row (index DEPOT) of the vehicle's ``distance_matrix``.

    An empty tour reads the depot's distance to itself twice, +0.0, so its
    depot moves by a signed zero, which changes no distance bit.
    """
    seq = sol.tour_for(vid).sequence
    row = inst.distance_matrix(vid)[DEPOT]
    return float(row[seq[1]] + row[seq[-2]]) / (2.0 * inst.vehicle(vid).speed)


def perturbation_angle(base: float, iteration: int) -> float:
    """Displacement angle for a 0-based iteration of the escape loop."""
    return (base + iteration * PERTURBATION_STEP) % (2.0 * math.pi)


def perturbation_loop(inst: Instance, sol: Solution, rng, cfg: SolverConfig):
    """Depot-displacement escape loop.  Returns (best solution, iterations).

    Each iteration displaces every depot by that vehicle's current radius at
    the scheduled angle, re-routes the incumbent's tours on the displaced
    geometry, runs the local search there, then re-routes the resulting plan
    at the true depots.  Only a strict makespan improvement is kept;
    ``cfg.no_improve_stop`` consecutive rejections end the loop.  Base angles
    are drawn once per vehicle, in id order, and advance PERTURBATION_STEP
    per iteration.  The radius, a travel time, is applied directly as a
    displacement length.  The displaced instances are ``with_depots``
    copies.  A fleet of one vehicle has no receiver, so its plan comes back
    after no iteration and no draw from ``rng``.
    """
    if inst.k < 2:
        return sol, 0
    base = {v.id: rng.uniform(0.0, 2.0 * math.pi) for v in inst.vehicles}
    best = sol
    iteration = 0
    rejects = 0
    while rejects < cfg.no_improve_stop:
        moved = {}
        for v in inst.vehicles:
            radius = perturbation_radius(best, inst, v.id)
            theta = perturbation_angle(base[v.id], iteration)
            moved[v.id] = Point(v.depot.x + radius * math.cos(theta),
                                v.depot.y + radius * math.sin(theta))
        displaced = inst.with_depots(moved)
        shaken = local_search(displaced, _reroute(displaced, best, cfg), cfg)
        candidate = _reroute(inst, shaken, cfg)
        if candidate.objective < best.objective:
            best = candidate
            rejects = 0
        else:
            rejects += 1
        iteration += 1
    return best, iteration


def _checked(inst: Instance, sol: Solution, stage: str) -> Solution:
    problems = validate_solution(inst, sol)
    if problems:
        raise StageCheckError(f"stage {stage} produced an infeasible plan: {problems}")
    return sol


def solve(inst: Instance, cfg: SolverConfig | None = None, rng=0):
    """Run the full pipeline on an instance.  Returns (Solution, StageTrace).

    ``inst`` must be an Instance (else InvalidInstanceError).  ``cfg`` is a
    SolverConfig or None (the defaults); ``rng`` a numpy Generator, an integer
    seed >= 0 (not a bool) or None (fresh entropy); anything else raises
    InvalidConfigError.  A given (instance, config, seed) triple always
    reproduces the same plan.  One vehicle takes the same three stages as a
    fleet: its allocation is forced, and stages 2 and 3 return at once.
    """
    check_instance(inst)
    cfg = SolverConfig() if cfg is None else cfg
    if not isinstance(cfg, SolverConfig):
        raise InvalidConfigError(f"cfg must be a SolverConfig, got {cfg!r}")
    if not isinstance(rng, np.random.Generator):
        if not (rng is None or is_integer(rng) and rng >= 0):
            raise InvalidConfigError(f"rng must be a numpy Generator, an integer >= 0"
                                     f" or None, got {rng!r}")
        rng = np.random.default_rng(rng)

    t0 = time.perf_counter()
    effective = perturb_colocated_depots(inst, rng)
    alloc = solve_load_balancing(inst, effective)
    initial = _checked(inst, build_initial_solution(inst, alloc, cfg.tour_mode), STAGE_INIT)
    t1 = time.perf_counter()

    improved = _checked(inst, local_search(inst, initial, cfg), STAGE_LOCAL_SEARCH)
    t2 = time.perf_counter()

    final, iterations = perturbation_loop(inst, improved, rng, cfg)
    _checked(inst, final, STAGE_PERTURBATION)
    t3 = time.perf_counter()

    return final, StageTrace({STAGE_INIT: initial, STAGE_LOCAL_SEARCH: improved,
                              STAGE_PERTURBATION: final},
                             {STAGE_INIT: t1 - t0, STAGE_LOCAL_SEARCH: t2 - t1,
                              STAGE_PERTURBATION: t3 - t2},
                             iterations)
