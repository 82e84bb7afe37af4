"""Three-stage min-max routing heuristic.

Stage 1 builds a starting plan by load-balanced allocation plus per-vehicle
tours.  Stage 2 repeatedly offloads targets from the longest tour: candidates
are ranked by the time saved on the donor, each is quoted a cheapest insertion
over the other vehicles, the receiver is re-routed and, only if its new tour
stays below the makespan, so is the donor; the move sticks only if the fleet
makespan strictly drops.  With heuristic tours the receiver is polished from
its incumbent order with the target spliced in at the quoted edge, and the
donor from its incumbent order with the target spliced out; an exact tour
past ``EXACT_CAP`` targets is polished from the same orders.  With exact
tours a receiver of fewer than ``EXACT_CAP`` targets is not re-routed when a
lower bound on its new tour (its optimal tour plus the cheapest detour
through the target between any two of its vertices) already reaches the
makespan.  Every other receiver, whose new tour is polished, is re-routed
only when its spliced tour (its duration plus the quoted delta) stays below
the makespan times 1 + ``_SPLICE_MARGIN`` (0.1): a screen, not a bound, so
it may move plans.  Stage 3 escapes local optima by displacing depots
(radially, by half the sum of each tour's two depot-edge times) and
re-optimizing on the displaced geometry; heuristic tours there are polished
from the incumbent's orders, and the plan rebuilt at the true depots from
the displaced plan's orders.  That plan is accepted only when strictly
better, and the loop gives up after ``SolverConfig.no_improve_stop``
straight rejections (5 by default).  Displacement angles march around the
circle in 144-degree steps from a random start; five steps revisit the
starting angle, so ``no_improve_stop`` is at most five.  Stages 2 and 3
price with the instance's matrices, indexed by tour sequences as they stand
(``DEPOT`` is the last row and column).  Stage 2 reads every receiver's
tour once per pass (``_TourRead``); a quote then gathers one matrix row per
receiver, which the exact symmetry of the matrices makes serve as both
tm[a, t] and tm[t, b], and prices the edges in Python with the float
expression and tie rules a numpy array of the same prices would give.

``solve`` is the entry point and checks its instance, config and generator
once.  The stage functions are internal: they trust what ``solve`` hands them
and check nothing themselves.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .allocation import (build_initial_solution, perturb_colocated_depots,
                         solve_load_balancing)
from .model import (DEPOT, Instance, InvalidConfigError, Point, Solution, StageCheckError,
                    Tour, check_instance, is_integer, validate_solution)
from .tsp import EXACT, EXACT_CAP, HEURISTIC, TourRequest, solve_tsp

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
    ``dataclasses.replace``, which checks it again.
    """

    tour_mode: str = HEURISTIC
    no_improve_stop: int = 5

    def __post_init__(self):
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
    """Objectives, iteration count, wall times and plans per pipeline stage.

    The stage plans are the solutions ``solve`` built, not copies, keyed in
    the order the stages ran.
    """

    after_init: float
    after_local_search: float
    after_perturbation: float
    iterations: int
    wall_times: dict
    stage_solutions: dict


def compute_savings(sol: Solution, inst: Instance, vid: int) -> list:
    """Time saved on vehicle vid's tour by splicing out each removable target,
    as (target, value) pairs.

    Pre-assigned targets are never candidates.  Pairs come back sorted by
    decreasing value, ties by ascending target index.
    """
    tm = inst.time_matrix(vid)
    pinned = inst.required_for(vid)
    seq = sol.tour_for(vid).sequence
    ix = np.array(seq)
    hops = tm[ix[:-1], ix[1:]]
    values = (hops[:-1] + hops[1:] - tm[ix[:-2], ix[2:]]).tolist()
    # Negation is exact, so -(-value) has the bits of value.
    ranked = sorted([(-value, t) for t, value in zip(seq[1:-1], values) if t not in pinned])
    return [(t, -neg) for neg, t in ranked]


class _TourRead:
    """One tour as stage 2 prices insertions into it, read from the vehicle's
    time matrix tm once and reused by every quote of a pass.

    ``seq`` is the closed tour as a vertex array and ``hops`` its edge times
    tm[seq[p], seq[p + 1]] as Python floats.  ``row(t)`` lists tm[t, v] for
    every vertex v of ``seq``, once per target; the matrix is exactly
    symmetric (``model.distances``), so the same row gives tm[v, t].
    ``pairs()`` lists tm[a, b] over every pair of the tour's vertices but
    the closing depot, once, on first use.
    """

    __slots__ = ("tour", "tm", "seq", "hops", "_rows", "_pairs")

    def __init__(self, inst: Instance, tour: Tour):
        self.tour = tour
        self.tm = inst.time_matrix(tour.vehicle_id)
        self.seq = np.array(tour.sequence)
        self.hops = self.tm[self.seq[:-1], self.seq[1:]].tolist()
        self._rows = {}
        self._pairs = None

    def row(self, target: int) -> list:
        row = self._rows.get(target)
        if row is None:
            row = self._rows[target] = self.tm[target][self.seq].tolist()
        return row

    def pairs(self) -> list:
        if self._pairs is None:
            ends = self.seq[:-1]
            self._pairs = self.tm.take(ends, 0).take(ends, 1).tolist()
        return self._pairs


def _read_tours(sol: Solution, inst: Instance, exclude: int) -> list:
    """A ``_TourRead`` of every tour but the excluded vehicle's, in id order."""
    return [_TourRead(inst, sol.tour_for(v.id)) for v in inst.vehicles if v.id != exclude]


def best_insertion(target: int, reads: list) -> tuple:
    """Cheapest splice of ``target`` into any of the read tours, as
    (vehicle id, edge position, delta).

    ``reads`` is ``_read_tours(sol, inst, exclude)``, at least one tour,
    which a caller pricing many targets against one plan reads once and
    passes to every call.  Every consecutive vertex pair (a, b) of every read
    tour is priced as tm[a, t] + tm[t, b] - tm[a, b], from one row of the
    matrix per tour; ties break toward the lower vehicle id, then the lower
    edge position.
    """
    best = None
    for read in reads:
        row = read.row(target)
        deltas = [a + b - ab for a, b, ab in zip(row, row[1:], read.hops)]
        delta = min(deltas)
        if best is None or delta < best[2]:
            best = (read.tour.vehicle_id, deltas.index(delta), delta)
    return best


# A receiver whose insertion bound reaches the makespan times _BOUND_SLACK is
# rejected unrouted.  For a new tour of m targets, the bound and the Held-Karp
# duration are sums over the m + 1 edges of one tour and the three of one
# triangle a t b, each term no longer than the tour (which passes a, t and b,
# so is at least the triangle's perimeter), with one rounding per addition and
# one per division by the speed.  Barring travel times that underflow (below
# 2**-1022 and not zero), the computed bound exceeds the computed duration by
# under (2 m + 9) 2**-53 relative, below 2**-47 for m up to EXACT_CAP; the
# slack 2**-40 covers that a hundred times over, so a receiver the bound
# rejects would also have been rejected by its Held-Karp tour.
_BOUND_SLACK = 1.0 + 2.0 ** -40

# A receiver whose tour is polished is routed only when its spliced tour (its
# tour with the target at the quoted edge, duration + delta) stays below the
# makespan times 1 + _SPLICE_MARGIN.  This is a screen, not a bound: a polish
# can shorten the spliced tour by more than the margin, so the screen may move
# plans.  Without the screen, of about 47,000 polished receivers at n = 30-120
# (two vehicles, scenarios 1 and 2, an 8-vehicle fleet) only 5 accepted moves
# began from a spliced tour 10% or more over the makespan, the largest at 1.12
# times it; of 34,416 more at another seed, 2 did, at 1.13 and 1.16 times it.
# A margin of 0 sped the search 1.6-2.7x for up to +0.62% mean makespan, 0.05
# up to +0.06%; 0.1 kept plans identical or within +0.03% at 1.3-1.5x.
_SPLICE_MARGIN = 0.1


def _insertion_lower_bound(target: int, read: _TourRead) -> float:
    """Least duration of an optimal tour of ``read.tour``'s targets plus
    ``target``, given that ``read.tour`` is optimal for its own targets.

    Cutting ``target`` out of the longer optimal tour and joining its two
    neighbours a and b leaves a tour of the old targets, so the longer tour
    costs at least the old tour's duration plus tm[a, t] + tm[t, b] - tm[a, b]
    minimised over a, b in the depot and the old targets.  Allowing a = b
    only lowers the minimum, needs no triangle inequality and covers the
    empty tour, where it gives the exact round trip.  ``local_search``
    shares ``read`` with the quotes of its pass.
    """
    to_target = read.row(target)[:-1]
    return read.tour.duration + min([a + b - ab for a, row in zip(to_target, read.pairs())
                                     for b, ab in zip(to_target, row)])


def _rebuild(inst: Instance, vid: int, order: tuple, cfg: SolverConfig):
    """Vehicle vid's tour through ``order``'s targets: a warm request,
    polished from ``order`` unless it is a Held-Karp tour."""
    return solve_tsp(TourRequest(inst, vid, order, cfg.tour_mode, warm=True))


def local_search(inst: Instance, sol: Solution, cfg: SolverConfig) -> Solution:
    """Offload the longest tour until no candidate transfer improves the plan.

    Each pass takes the maximal vehicle's savings list in order, quotes the
    best receiver for the candidate, re-routes the receiver, and accepts the
    first move that strictly lowers the makespan.  Heuristic tours are
    polished from the incumbent orders: the receiver's with the target
    spliced in at the quoted edge, the donor's with it spliced out.  The
    makespan after a move is at least the receiver's new tour, so the donor
    is re-routed only when that tour stays below the current makespan.  With
    exact tours a receiver of fewer than ``EXACT_CAP`` targets is not even
    re-routed when ``_insertion_lower_bound`` already reaches the makespan;
    every other receiver, whose new tour is polished, is re-routed only when
    its spliced tour, duration plus the quoted delta, stays below the
    makespan times 1 + ``_SPLICE_MARGIN``.  That screen is not a bound: a
    polish may bring a screened receiver below the makespan, so it can move
    plans, which the bound never does.  The displaced searches of stage 3
    run through this function, so the screen holds there too.
    Savings are recomputed from the new plan after every accepted move; the
    search stops when every candidate on the maximal tour fails.  A fleet of
    one vehicle has no receiver, so its plan comes back as given.

    Precondition with ``cfg.tour_mode == EXACT``: every tour of ``sol`` of
    fewer than ``EXACT_CAP`` targets is an optimal (Held-Karp) tour on
    ``inst``'s geometry, as ``solve_tsp`` builds it.  Only such a receiver is
    bounded, and the bound rests on its new tour being one too.
    """
    if inst.k < 2:
        return sol
    exact = cfg.tour_mode == EXACT
    current = sol
    while True:
        donor = current.maximal_vehicle()
        entries = compute_savings(current, inst, donor)
        donor_order = current.tour_for(donor).targets()
        objective = current.objective
        hopeless = objective * _BOUND_SLACK
        screen = objective * (1.0 + _SPLICE_MARGIN)
        reads = _read_tours(current, inst, donor)
        read_of = {read.tour.vehicle_id: read for read in reads}
        accepted = False
        for target, _ in entries:
            receiver, p, delta = best_insertion(target, reads)
            read = read_of[receiver]
            order = read.tour.targets()
            if exact and len(order) < EXACT_CAP:
                if _insertion_lower_bound(target, read) >= hopeless:
                    continue
            elif read.tour.duration + delta >= screen:
                continue
            receiver_tour = _rebuild(inst, receiver, order[:p] + (target,) + order[p:], cfg)
            if receiver_tour.duration >= objective:
                continue
            donor_tour = _rebuild(inst, donor, tuple(t for t in donor_order if t != target), cfg)
            candidate = current.replace(donor_tour, receiver_tour)
            if candidate.objective < objective:
                current = candidate
                accepted = True
                break
        if not accepted:
            return current


def perturbation_radius(sol: Solution, inst: Instance, vid: int) -> float:
    """Half the summed travel times of a tour's two depot edges, read from
    the depot row (index DEPOT) of the vehicle's ``distance_matrix``.

    An empty tour pins its depot in place (radius zero).
    """
    seq = sol.tour_for(vid).sequence
    if len(seq) < 3:
        return 0.0
    row = inst.distance_matrix(vid)[DEPOT]
    return float(row[seq[1]] + row[seq[-2]]) / (2.0 * inst.vehicle(vid).speed)


def perturbation_angle(base: float, iteration: int) -> float:
    """Displacement angle for a 0-based iteration of the escape loop."""
    return (base + iteration * PERTURBATION_STEP) % (2.0 * math.pi)


def perturbation_loop(inst: Instance, sol: Solution, rng, cfg: SolverConfig):
    """Depot-displacement escape loop.  Returns (best solution, iterations).

    Each iteration displaces every depot by that vehicle's current radius at
    the scheduled angle, rebuilds the incumbent assignment's tours on the
    displaced geometry from its tour orders, runs the local search there,
    then re-routes the resulting plan from the true depots, again from its
    tour orders.  Only a strict makespan improvement is kept;
    ``cfg.no_improve_stop`` consecutive rejections end the loop.  Base angles
    are drawn once per vehicle, in id order.  The radius, a travel time, is
    applied directly as a displacement length.  The displaced instances are
    ``with_depots`` copies.  A fleet of one vehicle has no receiver, so its
    plan comes back after no iteration and no draw from ``rng``.
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
            if radius > 0.0:
                theta = perturbation_angle(base[v.id], iteration)
                moved[v.id] = Point(v.depot.x + radius * math.cos(theta),
                                    v.depot.y + radius * math.sin(theta))
        displaced = inst.with_depots(moved)
        shaken = Solution(tuple(
            _rebuild(displaced, v.id, best.tour_for(v.id).targets(), cfg)
            for v in inst.vehicles))
        shaken = local_search(displaced, shaken, cfg)
        candidate = Solution(tuple(
            _rebuild(inst, v.id, shaken.tour_for(v.id).targets(), cfg)
            for v in inst.vehicles))
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

    return final, StageTrace(initial.objective, improved.objective, final.objective,
                             iterations,
                             {STAGE_INIT: t1 - t0, STAGE_LOCAL_SEARCH: t2 - t1,
                              STAGE_PERTURBATION: t3 - t2},
                             {STAGE_INIT: initial, STAGE_LOCAL_SEARCH: improved,
                              STAGE_PERTURBATION: final})
