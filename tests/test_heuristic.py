"""Three-stage heuristic: savings and insertion pricing, the offloading
search, the depot-displacement escape loop, and the full pipeline."""

import dataclasses
import math
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from minmaxtsp import (DEPOT, EXACT, HEURISTIC, ExperimentConfig, InfeasibleAllocationError,
                       Instance, InvalidConfigError, Point, Solution, SolverConfig, SolverError,
                       Tour, Vehicle, exact_minmax, generate_instance, scenario1, scenario2,
                       solve, tour_duration, validate_solution)
from minmaxtsp import allocation, heuristic, tsp
from minmaxtsp.allocation import perturb_colocated_depots, solve_load_balancing
from minmaxtsp.tsp import EXACT_CAP, TourRequest, solve_tsp
from minmaxtsp.heuristic import (PERTURBATION_PERIOD, PERTURBATION_STEP, STAGE_INIT,
                                 STAGE_LOCAL_SEARCH, STAGE_PERTURBATION, _rebuild,
                                 best_insertion, compute_savings, local_search,
                                 perturbation_angle, perturbation_loop, perturbation_radius)

from conftest import line_instance, memo_size, random_instance


def _tour(inst, vid, seq):
    return Tour(vid, seq, tour_duration(inst, Tour(vid, seq, 0.0)))


def _two_target_line():
    """One loaded vehicle at the origin, one idle vehicle across the line."""
    targets = (Point(1, 0), Point(9, 0))
    vehicles = (Vehicle(1, 1.0, Point(0, 0)), Vehicle(2, 1.0, Point(10, 0)))
    inst = Instance(targets, vehicles)
    sol = Solution((_tour(inst, 1, (DEPOT, 0, 1, DEPOT)), _tour(inst, 2, (DEPOT, DEPOT))))
    return inst, sol


def _savings(sol, inst, vid):
    """``compute_savings`` of a fresh read of vehicle vid's tour."""
    return compute_savings(heuristic._TourRead(inst, sol.tour_for(vid)), inst)


class TestComputeSavings:
    def test_values_and_ordering(self):
        targets = (Point(3, 4), Point(6, 0))
        inst = Instance(targets, (Vehicle(1, 2.0, Point(0, 0)),
                                  Vehicle(2, 1.0, Point(20, 0))))
        sol = Solution((_tour(inst, 1, (DEPOT, 0, 1, DEPOT)), _tour(inst, 2, (DEPOT, DEPOT))))
        (first, first_value), (second, second_value) = _savings(sol, inst, 1)
        assert (first, second) == (1, 0)
        assert second_value == pytest.approx(2.0)       # (5 + 5 - 6) / 2
        assert first_value == pytest.approx(3.0)        # (5 + 6 - 5) / 2

    def test_pinned_targets_are_not_offered(self):
        targets = (Point(3, 4), Point(6, 0))
        inst = Instance(targets, (Vehicle(1, 2.0, Point(0, 0)),
                                  Vehicle(2, 1.0, Point(20, 0))), {1: [0]})
        sol = Solution((_tour(inst, 1, (DEPOT, 0, 1, DEPOT)), _tour(inst, 2, (DEPOT, DEPOT))))
        assert [t for t, _ in _savings(sol, inst, 1)] == [1]

    def test_fully_pinned_tour_offers_nothing(self):
        targets = (Point(3, 4), Point(6, 0))
        inst = Instance(targets, (Vehicle(1, 2.0, Point(0, 0)),
                                  Vehicle(2, 1.0, Point(20, 0))), {1: [0, 1]})
        sol = Solution((_tour(inst, 1, (DEPOT, 0, 1, DEPOT)), _tour(inst, 2, (DEPOT, DEPOT))))
        assert _savings(sol, inst, 1) == []

    def test_value_equals_actual_splice_gain(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            inst = random_instance(rng, n=8, k=2)
            tour = solve_tsp(TourRequest(inst, 1, range(8)))
            sol = Solution((tour, _tour(inst, 2, (DEPOT, DEPOT))))
            for target, value in _savings(sol, inst, 1):
                seq = list(tour.sequence)
                seq.remove(target)
                shorter = tour_duration(inst, Tour(1, tuple(seq), 0.0))
                assert value == pytest.approx(tour.duration - shorter, abs=1e-9)
                assert value >= -1e-9


def _reads(sol, inst, donor):
    """A pass's reads as ``local_search`` takes them: every tour's, in
    vehicle-id order, the donor's taken out.  Returns (donor read, receivers)."""
    receivers = [heuristic._TourRead(inst, tour) for tour in sol.tours]
    return receivers.pop(donor - 1), receivers


def _quote(target, sol, inst, exclude):
    """``best_insertion`` priced from a fresh read of every tour but the
    excluded one, as (vehicle id, edge position, delta)."""
    read, position, delta = best_insertion(target, _reads(sol, inst, exclude)[1])
    return read.tour.vehicle_id, position, delta


class TestBestInsertion:
    def _setup(self):
        targets = (Point(2, 0), Point(1, 0), Point(1, 1))
        vehicles = (Vehicle(1, 1.0, Point(5, 5)), Vehicle(2, 1.0, Point(0, 0)))
        inst = Instance(targets, vehicles)
        sol = Solution((_tour(inst, 1, (DEPOT, 1, 2, DEPOT)),
                        _tour(inst, 2, (DEPOT, 0, DEPOT))))
        return inst, sol

    def test_on_edge_target_costs_nothing(self):
        inst, sol = self._setup()
        vid, _, delta = _quote(1, sol, inst, exclude=1)
        assert vid == 2
        assert delta == pytest.approx(0.0)

    def test_off_edge_detour_is_priced(self):
        inst, sol = self._setup()
        _, _, delta = _quote(2, sol, inst, exclude=1)
        assert delta == pytest.approx(2 * math.sqrt(2) - 2)

    def test_parked_vehicle_on_the_spot_wins(self):
        targets = (Point(7, 7),)
        vehicles = (Vehicle(1, 1.0, Point(0, 0)), Vehicle(2, 1.0, Point(3, 0)),
                    Vehicle(3, 1.0, Point(7, 7)))
        inst = Instance(targets, vehicles)
        sol = Solution((_tour(inst, 1, (DEPOT, 0, DEPOT)),
                        _tour(inst, 2, (DEPOT, DEPOT)),
                        _tour(inst, 3, (DEPOT, DEPOT))))
        vid, _, delta = _quote(0, sol, inst, exclude=1)
        assert vid == 3
        assert delta == pytest.approx(0.0)

    def test_delta_equals_actual_splice_cost(self):
        rng = np.random.default_rng(72)
        for _ in range(20):
            inst = random_instance(rng, n=9, k=3)
            tours = [solve_tsp(TourRequest(inst, 1, range(6)))]
            tours.append(solve_tsp(TourRequest(inst, 2, (6, 7))))
            tours.append(solve_tsp(TourRequest(inst, 3, (8,))))
            sol = Solution(tuple(tours))
            for t in (0, 3, 5):
                vid, position, delta = _quote(t, sol, inst, exclude=1)
                host = sol.tour_for(vid)
                seq = list(host.sequence)
                seq.insert(position + 1, t)
                longer = tour_duration(inst, Tour(vid, tuple(seq), 0.0))
                assert delta == pytest.approx(longer - host.duration, abs=1e-9)


def _scalar_best_insertion(target, sol, inst, exclude):
    """``best_insertion`` as a scalar loop over every edge of every tour."""
    best = None
    for v in inst.vehicles:
        if v.id == exclude:
            continue
        tm = inst.time_matrix(v.id)
        seq = sol.tour_for(v.id).sequence
        for pos in range(len(seq) - 1):
            a, b = seq[pos], seq[pos + 1]
            delta = float(tm[a, target] + tm[target, b] - tm[a, b])
            if best is None or delta < best[2]:
                best = (v.id, pos, delta)
    return best


_GRID = st.integers(0, 3).map(float)


@st.composite
def _insertions(draw):
    """(instance, plan, target, donor) on a 4 x 4 grid, where edges tie often;
    sometimes two vehicles share depot and speed, so whole tours can tie."""
    n = draw(st.integers(1, 14))
    k = draw(st.integers(2, 4))
    xy = draw(st.lists(st.tuples(_GRID, _GRID), min_size=n + k, max_size=n + k))
    speeds = draw(st.lists(st.sampled_from([1.0, 2.0]), min_size=k, max_size=k))
    if draw(st.booleans()):
        xy[n + 1], speeds[1] = xy[n], speeds[0]
    vehicles = tuple(Vehicle(i + 1, speeds[i], Point(*xy[n + i])) for i in range(k))
    inst = Instance(tuple(Point(*p) for p in xy[:n]), vehicles)
    owner = draw(st.lists(st.integers(1, k), min_size=n, max_size=n))
    order = draw(st.permutations(range(n)))
    sol = Solution(tuple(Tour(v.id, (DEPOT, *(t for t in order if owner[t] == v.id), DEPOT),
                              0.0) for v in vehicles))
    target = draw(st.integers(0, n - 1))
    return inst, sol, target, owner[target]


class TestBestInsertionMatchesScalarLoop:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_insertions())
    def test_same_quote_as_the_scalar_loop(self, case):
        inst, sol, target, donor = case
        assert (_quote(target, sol, inst, exclude=donor)
                == _scalar_best_insertion(target, sol, inst, exclude=donor))


def _scalar_savings(sol, inst, vid):
    """``compute_savings`` as a scalar loop over the tour's numpy elements."""
    tm = inst.time_matrix(vid)
    seq = sol.tour_for(vid).sequence
    pairs = [(t, float(tm[a, t] + tm[t, b] - tm[a, b]))
             for a, t, b in zip(seq, seq[1:], seq[2:]) if t not in inst.required_for(vid)]
    return sorted(pairs, key=lambda pair: (-pair[1], pair[0]))


def _scalar_duration(inst, tour):
    """``tour_duration`` as a left-to-right sum of the tour's numpy elements."""
    tm = inst.time_matrix(tour.vehicle_id)
    total = 0.0
    for a, b in zip(tour.sequence, tour.sequence[1:]):
        total += tm[a, b]
    return total


class TestEdgeGathersMatchScalarLoops:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_insertions())
    def test_savings_and_durations_equal_the_scalar_loops(self, case):
        inst, sol, _, _ = case
        for tour in sol.tours:
            got = _savings(sol, inst, tour.vehicle_id)
            assert got == _scalar_savings(sol, inst, tour.vehicle_id)
            assert [v.hex() for _, v in got] == [
                v.hex() for _, v in _scalar_savings(sol, inst, tour.vehicle_id)]
            assert all(type(v) is float for _, v in got)
            duration = tour_duration(inst, tour)
            assert type(duration) is float
            assert duration == _scalar_duration(inst, tour)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_insertions())
    def test_one_read_per_pass_quotes_and_bounds_as_calls_alone(self, case):
        # local_search reads every tour once per pass, the donor included, and
        # prices the donor's savings and every quote from those reads.
        inst, sol, _, donor = case
        donor_read, receivers = _reads(sol, inst, donor)
        assert compute_savings(donor_read, inst) == _scalar_savings(sol, inst, donor)
        for t in sol.tour_for(donor).targets():
            read, position, delta = best_insertion(t, receivers)
            quote = (read.tour.vehicle_id, position, delta)
            assert quote == _quote(t, sol, inst, donor)
            assert quote == _scalar_best_insertion(t, sol, inst, donor)
            for read in receivers:
                bound = heuristic._insertion_lower_bound(t, read)
                assert bound == _scalar_insertion_bound(t, read.tour, inst)
                # never above the spliced tour, which local_search relies on
                assert bound <= read.tour.duration + best_insertion(t, [read])[2]


def _scalar_insertion_bound(target, tour, inst):
    """The exact-mode receiver bound as a scalar loop over every pair of the
    tour's vertices, a = b included."""
    tm = inst.time_matrix(tour.vehicle_id)
    ends = tour.sequence[:-1]
    return tour.duration + min(float(tm[a, target] + tm[target, b] - tm[a, b])
                               for a in ends for b in ends)


@st.composite
def _bound_cases(draw):
    """(one-vehicle instance, receiver targets S, new target t): S may be
    empty; coordinates on a 4 x 4 grid (ties, duplicate points) or in
    millionths, at scales 1e-3 to 1e6; sometimes t repeats a point of S and
    the depot sits on a target."""
    m = draw(st.integers(0, 10))
    grid = draw(st.booleans())
    coord = st.integers(0, 3) if grid else st.integers(0, 10 ** 6).map(lambda i: i / 10 ** 6)
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3, 1e6]))
    xy = [(x * scale, y * scale)
          for x, y in draw(st.lists(st.tuples(coord, coord), min_size=m + 2, max_size=m + 2))]
    if m and draw(st.booleans()):
        xy[m] = xy[draw(st.integers(0, m - 1))]
    if draw(st.booleans()):
        xy[m + 1] = xy[draw(st.integers(0, m))]
    speed = draw(st.sampled_from([1.0, 0.3, 2.5, 7.0]))
    inst = Instance(tuple(Point(*p) for p in xy[:m + 1]),
                    (Vehicle(1, speed, Point(*xy[m + 1])),))
    return inst, set(range(m)), m


class TestInsertionLowerBound:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_bound_cases())
    def test_never_exceeds_the_held_karp_tour(self, case):
        inst, receiver, target = case
        tour = solve_tsp(TourRequest(inst, 1, receiver, EXACT))
        bound = heuristic._insertion_lower_bound(target, heuristic._TourRead(inst, tour))
        assert bound == _scalar_insertion_bound(target, tour, inst)
        longer = solve_tsp(TourRequest(inst, 1, receiver | {target}, EXACT))
        assert bound <= longer.duration * (1 + 2 ** -40)

    def test_a_read_keeps_no_pair_table(self):
        assert heuristic._TourRead.__slots__ == ("tour", "tm", "seq", "hops")

    @pytest.mark.parametrize("depot_x, bounded, requests", [
        (25, [], [2, 1, 2, 1]),   # spliced tours 10 and 30, below the makespan 40
        (40, [1, 0], [2]),        # 40 and 60: the bound lets target 1 through
        (100, [1, 0], []),        # 160 and 180: the bound turns both away
    ])
    def test_the_bound_is_asked_only_when_the_spliced_tour_reaches_the_makespan(
            self, depot_x, bounded, requests, monkeypatch):
        # Vehicles 1 and 3 tie at the makespan 40, so no move can lower it;
        # vehicle 2, idle on the line of vehicle 1's targets, quotes every
        # target, and Held-Karp routes its new tour.
        targets = (Point(10, 0), Point(20, 0), Point(0, 1020))
        inst = Instance(targets, (Vehicle(1, 1.0, Point(0, 0)),
                                  Vehicle(2, 1.0, Point(depot_x, 0)),
                                  Vehicle(3, 1.0, Point(0, 1000))))
        sol = Solution((_tour(inst, 1, (DEPOT, 0, 1, DEPOT)), _tour(inst, 2, (DEPOT, DEPOT)),
                        _tour(inst, 3, (DEPOT, 2, DEPOT))))
        assert [t.duration for t in sol.tours] == [40.0, 0.0, 40.0]
        bounds, routed = [], []
        real_bound, real_solve = heuristic._insertion_lower_bound, heuristic.solve_tsp
        monkeypatch.setattr(heuristic, "_insertion_lower_bound",
                            lambda t, read: bounds.append(t) or real_bound(t, read))
        monkeypatch.setattr(heuristic, "solve_tsp",
                            lambda req: routed.append(req.vehicle_id) or real_solve(req))
        assert local_search(inst, sol, SolverConfig(tour_mode=EXACT)) is sol
        assert (bounds, routed) == (bounded, requests)


class TestLocalSearch:
    def test_offloads_far_target_to_idle_vehicle(self):
        inst, sol = _two_target_line()
        assert sol.objective == pytest.approx(18.0)
        out = local_search(inst, sol, SolverConfig())
        assert out.objective == pytest.approx(2.0)
        assert frozenset(out.tour_for(1).targets()) == frozenset({0})
        assert frozenset(out.tour_for(2).targets()) == frozenset({1})
        assert validate_solution(inst, out) == []

    def test_never_worsens_and_stays_feasible(self):
        rng = np.random.default_rng(73)
        cfg = SolverConfig()
        for _ in range(10):
            inst = random_instance(rng, n=10, k=3, assign_fraction=0.2)
            tours = []
            free = list(inst.free_targets())
            for v in inst.vehicles:
                mine = set(inst.required_for(v.id)) | (set(free) if v.id == 1 else set())
                tours.append(solve_tsp(TourRequest(inst, v.id, mine)))
            sol = Solution(tuple(tours))
            out = local_search(inst, sol, cfg)
            assert out.objective <= sol.objective + 1e-9
            assert validate_solution(inst, out) == []

    def test_result_is_a_fixpoint(self):
        inst, sol = _two_target_line()
        cfg = SolverConfig()
        once = local_search(inst, sol, cfg)
        again = local_search(inst, once, cfg)
        assert again.objective == once.objective
        assert [t.sequence for t in again.tours] == [t.sequence for t in once.tours]

    def test_single_vehicle_is_returned_untouched(self):
        inst = Instance((Point(1, 1),), (Vehicle(1, 1.0, Point(0, 0)),))
        sol = Solution((_tour(inst, 1, (DEPOT, 0, DEPOT)),))
        assert local_search(inst, sol, SolverConfig()) is sol


class _Candidate(NamedTuple):
    """One candidate of ``_eager_local_search``: its donor and quoted receiver,
    whether the receiver's new tour stayed below the makespan, whether the
    reference bound certified the receiver hopeless (exact mode, receivers of
    fewer than EXACT_CAP targets), whether the splice screen drops it (every
    other receiver: its spliced tour reaches the makespan times
    1 + _SPLICE_MARGIN), and whether the move was accepted."""

    donor: int
    receiver: int
    below: bool
    certified: bool
    screened: bool
    accepted: bool


def _eager_local_search(inst, sol, cfg, candidates):
    """``local_search`` routing donor and receiver for every candidate, each
    polished from the same splice: the donor's tour without the target, the
    receiver's with the target at the quoted edge.

    Appends a ``_Candidate`` per candidate to ``candidates``.
    """
    current = sol
    while True:
        donor = current.maximal_vehicle()
        objective = current.objective
        accepted = False
        for target, _ in _savings(current, inst, donor):
            receiver, position, delta = _quote(target, current, inst, exclude=donor)
            host = current.tour_for(receiver)
            receiver_order = list(host.targets())
            bounded = cfg.tour_mode == EXACT and len(receiver_order) < EXACT_CAP
            certified = bounded and _scalar_insertion_bound(
                target, host, inst) >= objective * (1 + 2 ** -40)
            screened = not bounded and (host.duration + delta
                                        >= objective * (1 + heuristic._SPLICE_MARGIN))
            donor_order = [t for t in current.tour_for(donor).targets() if t != target]
            receiver_order.insert(position, target)
            donor_tour = _rebuild(inst, donor, tuple(donor_order), cfg)
            receiver_tour = _rebuild(inst, receiver, tuple(receiver_order), cfg)
            candidate = current.replace(donor_tour, receiver_tour)
            accepted = candidate.objective < objective
            candidates.append(_Candidate(donor, receiver, receiver_tour.duration < objective,
                                         certified, screened, accepted))
            if accepted:
                current = candidate
                break
        if not accepted:
            return current


_FLEET8 = (1.0, 1.0, 1.5, 1.5, 2.0, 2.0, 1.0, 2.0)
_SEARCH_CASES = {
    "k2": (ExperimentConfig(n_targets=30, speeds=(1.0, 1.0), seed=5), SolverConfig()),
    "k3": (scenario1(n_targets=20, assign_fraction=0.1, seed=5), SolverConfig()),
    "k3_exact": (scenario1(n_targets=10, seed=5), SolverConfig(tour_mode=EXACT)),
    "k8": (ExperimentConfig(n_targets=40, speeds=_FLEET8, colocated=((1, 2), (3, 4)),
                            assign_fraction=0.1, seed=5), SolverConfig()),
}


def _starts(inst, cfg, index):
    """The pipeline's stage-1 plan, and one with every free target on vehicle 1."""
    _, trace = solve(inst, cfg, rng=index)
    free = set(inst.free_targets())
    loaded = Solution(tuple(
        solve_tsp(TourRequest(inst, v.id, set(inst.required_for(v.id))
                              | (free if v.id == 1 else set()), cfg.tour_mode))
        for v in inst.vehicles))
    return trace.stage_solutions[STAGE_INIT], loaded


def _eager_runs(name, calls):
    """(instance, start, eager plan, candidates, tour requests of the eager
    search) for both starts of the first three instances of a search case."""
    exp, cfg = _SEARCH_CASES[name]
    for index in range(3):
        inst = generate_instance(exp, index)
        for start in _starts(inst, cfg, index):
            candidates = []
            calls.clear()
            eager = _eager_local_search(inst, start, cfg, candidates)
            yield inst, start, eager, candidates, len(calls)


class TestOneReadPerTourPerPass:
    """Each pass of ``local_search`` reads every tour once, the donor
    included, then prices its savings once; nothing else in the pass asks for
    a time matrix."""

    @pytest.mark.parametrize("mode", [HEURISTIC, EXACT])
    @pytest.mark.parametrize("speeds, colocated", [
        ((1.0, 1.0), ()), ((1.0, 1.5, 2.0), ()), (_FLEET8, ((1, 2), (3, 4)))])
    def test_each_pass_builds_k_reads_and_prices_savings_once(self, speeds, colocated, mode,
                                                              monkeypatch):
        events = []
        real_read, real_savings = heuristic._TourRead, heuristic.compute_savings
        real_matrix = Instance.time_matrix

        def read(inst, tour):
            events.append("read")
            return real_read(inst, tour)

        def savings(donor, inst):
            events.append("savings")
            return real_savings(donor, inst)

        def time_matrix(inst, vid):
            events.append("matrix")
            return real_matrix(inst, vid)

        monkeypatch.setattr(heuristic, "_TourRead", read)
        monkeypatch.setattr(heuristic, "compute_savings", savings)
        monkeypatch.setattr(Instance, "time_matrix", time_matrix)
        cfg = SolverConfig(tour_mode=mode)
        exp = ExperimentConfig(n_targets=20, speeds=speeds, colocated=colocated,
                               assign_fraction=0.1, seed=11)
        k = len(speeds)
        moves = 0
        for index in range(2):
            inst = generate_instance(exp, index)
            for start in _starts(inst, cfg, index):
                events.clear()
                out = local_search(inst, start, cfg)
                passes = events.count("savings")
                assert events == (["read", "matrix"] * k + ["savings"]) * passes
                assert passes >= 1 and (passes > 1 or out == start)
                moves += passes - 1
        assert moves > 0


class TestReceiverFirstSearch:
    """Routing the receiver first skips donors that cannot change the verdict;
    with exact tours the insertion bound skips receivers that cannot, and
    every other receiver is screened by its spliced tour."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """The vehicle id of every tour request ``heuristic`` makes."""
        calls = []
        real = heuristic.solve_tsp

        def counted(req):
            calls.append(req.vehicle_id)
            return real(req)

        monkeypatch.setattr(heuristic, "solve_tsp", counted)
        return calls

    @pytest.mark.parametrize("name", sorted(_SEARCH_CASES))
    def test_same_plan_as_the_eager_search_with_fewer_tour_solves(self, name, calls):
        cfg = _SEARCH_CASES[name][1]
        eager_total = lazy_total = skips = screens = 0
        verdicts = set()
        for inst, start, eager, candidates, eager_calls in _eager_runs(name, calls):
            assert eager_calls == 2 * len(candidates)
            eager_total += eager_calls
            calls.clear()
            assert local_search(inst, start, cfg) == eager
            assert not any(c.below and c.certified for c in candidates)
            # Neither a certified nor a screened receiver gets a tour request.
            expected = [vid for c in candidates if not (c.certified or c.screened)
                        for vid in ((c.receiver, c.donor) if c.below else (c.receiver,))]
            assert calls == expected
            lazy_total += len(calls)
            skips += sum(c.certified for c in candidates)
            screens += sum(c.screened for c in candidates)
            verdicts.update(c.below for c in candidates)
        assert verdicts == {True, False}
        assert lazy_total < eager_total
        assert (skips > 0) == (cfg.tour_mode == EXACT)
        assert (screens > 0) == (cfg.tour_mode != EXACT)

    @pytest.mark.parametrize("name", sorted(_SEARCH_CASES))
    def test_the_eager_search_rejects_every_screened_candidate(self, name, calls):
        dropped = [c for *_, candidates, _ in _eager_runs(name, calls)
                   for c in candidates if c.screened]
        assert not any(c.accepted for c in dropped)

    @pytest.mark.parametrize("gap, expected", [(10.5, [2]), (11.5, [])])
    def test_a_spliced_tour_past_the_margin_gets_no_tour_request(self, gap, expected, calls):
        # Vehicle 1 holds one target 10 out; vehicle 2 waits gap beyond it, so
        # the spliced tour is 2 * gap against a makespan of 20: 1.05 times it
        # is routed and rejected, 1.15 times it is not routed at all.
        inst = Instance((Point(10, 0),), (Vehicle(1, 1.0, Point(0, 0)),
                                          Vehicle(2, 1.0, Point(10 + gap, 0))))
        sol = Solution((_tour(inst, 1, (DEPOT, 0, DEPOT)), _tour(inst, 2, (DEPOT, DEPOT))))
        assert local_search(inst, sol, SolverConfig()) == sol
        assert calls == expected


class TestWarmStartedTours:
    """Stages 2 and 3 polish the incumbent orders: a heuristic tour is never
    memoized, so the instance's memo never changes a plan, and only stage 1
    builds a tour by nearest neighbour."""

    @pytest.mark.parametrize("name", sorted(n for n, (_, cfg) in _SEARCH_CASES.items()
                                            if cfg.tour_mode != EXACT))
    def test_cache_does_not_change_the_plan(self, name):
        exp, cfg = _SEARCH_CASES[name]
        for index in range(2):
            inst = generate_instance(exp, index)
            for start in _starts(inst, cfg, index):
                assert local_search(inst, start, cfg) == local_search(
                    generate_instance(exp, index), start, cfg)
            assert solve(inst, cfg, rng=index)[0] == solve(
                generate_instance(exp, index), cfg, rng=index)[0]
            assert memo_size(inst) == 0

    def test_only_stage_1_builds_by_nearest_neighbour(self, monkeypatch):
        stage = []
        built = []
        real_nn, real_init = allocation._nearest_neighbor, heuristic.build_initial_solution

        def nearest_neighbor(dist):
            built.append(stage == [STAGE_INIT])
            return real_nn(dist)

        def build_initial_solution(*args):
            stage.append(STAGE_INIT)
            try:
                return real_init(*args)
            finally:
                stage.pop()

        monkeypatch.setattr(allocation, "_nearest_neighbor", nearest_neighbor)
        monkeypatch.setattr(heuristic, "build_initial_solution", build_initial_solution)
        for name in ("k2", "k8"):
            exp, cfg = _SEARCH_CASES[name]
            for index in range(2):
                inst = generate_instance(exp, index)
                built.clear()
                solve(inst, cfg, rng=index)
                assert len(built) == inst.k and all(built)


class TestExactTourMemo:
    """Exact tours are memoized in the instance, so a second solve of one
    instance reuses them and returns the same plan."""

    @pytest.mark.parametrize("make", [scenario1, scenario2])
    def test_a_second_exact_solve_builds_fewer_tables(self, make, monkeypatch):
        tables = []
        real = tsp.held_karp_order

        def counted(dist):
            tables.append(dist.shape[0] - 1)
            return real(dist)

        monkeypatch.setattr(tsp, "held_karp_order", counted)
        cfg = SolverConfig(tour_mode=EXACT)
        exp = make(n_targets=10, seed=11)
        for index in range(3):
            inst = generate_instance(exp, index)
            tables.clear()
            first, first_trace = solve(inst, cfg, rng=index)
            cold = len(tables)
            assert cold > 0 and memo_size(inst) > 0
            tables.clear()
            second, second_trace = solve(inst, cfg, rng=index)
            assert len(tables) < cold
            assert second == first == solve(generate_instance(exp, index), cfg, rng=index)[0]
            assert second_trace.iterations == first_trace.iterations
            assert repr(second.objective) == repr(first.objective)


@st.composite
def _capped_fleets(draw):
    """(cap, instance, seed): k = 2-4 vehicles and up to 3 * cap targets on a
    100 x 100 square, up to 30% of them pinned, sometimes with the first two
    or all depots on one spot."""
    cap = draw(st.integers(4, 6))
    k = draw(st.integers(2, 4))
    n = draw(st.integers(1, 3 * cap))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    targets = tuple(Point(float(x), float(y)) for x, y in rng.uniform(0, 100, size=(n, 2)))
    depots = [Point(float(x), float(y)) for x, y in rng.uniform(0, 100, size=(k, 2))]
    shared = draw(st.sampled_from([1, 2, k]))
    depots[:shared] = [depots[0]] * shared
    speeds = draw(st.lists(st.sampled_from([1.0, 1.5, 2.0]), min_size=k, max_size=k))
    pinned = draw(st.lists(st.integers(0, n - 1), max_size=math.floor(0.3 * n), unique=True))
    required = {}
    for t in pinned:
        required.setdefault(draw(st.integers(1, k)), []).append(t)
    vehicles = tuple(Vehicle(i + 1, speeds[i], depots[i]) for i in range(k))
    return cap, Instance(targets, vehicles, required), draw(st.integers(0, 2**32 - 1))


class TestExactCap:
    """With exact tours, a tour of at most EXACT_CAP targets is a Held-Karp
    tour and a longer one is polished from its order, so every instance gets
    a plan however long its tours grow."""

    @pytest.mark.parametrize("index", range(3))
    def test_pinned_paper_size_instance_gets_a_plan(self, index):
        inst = generate_instance(scenario2(n_targets=30, assign_fraction=0.2, seed=2026),
                                 index)
        sol, _ = solve(inst, SolverConfig(tour_mode=EXACT, no_improve_stop=1), rng=index)
        assert validate_solution(inst, sol) == []

    def test_a_share_past_the_cap_gets_a_plan(self):
        # From n = 39 the fastest vehicle's share bound alone passes the cap,
        # where stage 1 used to raise on every instance.
        inst = generate_instance(scenario1(n_targets=40, seed=(23 << 20) + 40), 0)
        sol, _ = solve(inst, SolverConfig(tour_mode=EXACT, no_improve_stop=1), rng=0)
        assert validate_solution(inst, sol) == []
        assert max(len(t.targets()) for t in sol.tours) > EXACT_CAP

    @pytest.mark.parametrize("m, bounded", [(EXACT_CAP - 1, True), (EXACT_CAP, False)])
    def test_the_cap_splits_the_insertion_bound_from_the_splice_screen(self, m, bounded,
                                                                      monkeypatch):
        # The receiver's targets lie on a ray from its depot, so its tour out
        # and back is optimal; either donor target would add about 2,800 to it.
        targets = (Point(1000, 1010), Point(1010, 1000),
                   *(Point(0.1 * (i + 1), 0) for i in range(m)))
        inst = Instance(targets, (Vehicle(1, 1.0, Point(1000, 1000)),
                                  Vehicle(2, 1.0, Point(0, 0))))
        sol = Solution((_tour(inst, 1, (DEPOT, 0, 1, DEPOT)),
                        _tour(inst, 2, (DEPOT, *range(2, m + 2), DEPOT))))
        bounds, requests = [], []
        real_bound, real_solve = heuristic._insertion_lower_bound, heuristic.solve_tsp
        monkeypatch.setattr(heuristic, "_insertion_lower_bound",
                            lambda t, read: bounds.append(t) or real_bound(t, read))
        monkeypatch.setattr(heuristic, "solve_tsp",
                            lambda req: requests.append(req.vehicle_id) or real_solve(req))
        cfg = SolverConfig(tour_mode=EXACT)
        assert local_search(inst, sol, cfg) is sol
        assert (len(bounds), requests) == (2 if bounded else 0, [])
        # With the screen wide open, only the receiver the bound does not
        # judge is routed, once per donor target.
        monkeypatch.setattr(heuristic, "_SPLICE_MARGIN", 1e9)
        bounds.clear()
        assert local_search(inst, sol, cfg) is sol
        assert (len(bounds), requests) == ((2, []) if bounded else (0, [2, 2]))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_capped_fleets())
    def test_every_plan_past_stage_1_routes_short_tours_exactly(self, case):
        cap, inst, seed = case
        with mock.patch.object(tsp, "EXACT_CAP", cap):
            try:
                solve_load_balancing(
                    inst, perturb_colocated_depots(inst, np.random.default_rng(seed)))
            except InfeasibleAllocationError:
                assume(False)
            sol, _ = solve(inst, SolverConfig(tour_mode=EXACT), rng=seed)
            fresh = Instance(inst.targets, inst.vehicles, inst.required)
            for tour in sol.tours:
                order = tour.targets()
                if len(order) <= cap:
                    again = solve_tsp(TourRequest(fresh, tour.vehicle_id, order, EXACT))
                else:
                    again = solve_tsp(TourRequest(inst, tour.vehicle_id, order, HEURISTIC))
                assert again == tour
        assert validate_solution(inst, sol) == []


class TestPerturbationGeometry:
    def test_radius_averages_the_depot_edges(self):
        targets = (Point(2, 0), Point(0, 4))
        inst = Instance(targets, (Vehicle(1, 2.0, Point(0, 0)),
                                  Vehicle(2, 1.0, Point(9, 9))))
        sol = Solution((_tour(inst, 1, (DEPOT, 0, 1, DEPOT)), _tour(inst, 2, (DEPOT, DEPOT))))
        assert perturbation_radius(sol, inst, 1) == pytest.approx(1.5)

    def test_single_target_tour_radius_is_its_distance(self):
        inst = Instance((Point(5, 0),), (Vehicle(1, 1.0, Point(0, 0)),
                                         Vehicle(2, 1.0, Point(9, 9))))
        sol = Solution((_tour(inst, 1, (DEPOT, 0, DEPOT)), _tour(inst, 2, (DEPOT, DEPOT))))
        assert perturbation_radius(sol, inst, 1) == pytest.approx(5.0)

    def test_empty_tour_radius_is_zero(self):
        inst = Instance((Point(5, 0),), (Vehicle(1, 1.0, Point(0, 0)),
                                         Vehicle(2, 1.0, Point(9, 9))))
        sol = Solution((_tour(inst, 1, (DEPOT, 0, DEPOT)), _tour(inst, 2, (DEPOT, DEPOT))))
        assert perturbation_radius(sol, inst, 2) == 0.0

    def test_angle_schedule_repeats_every_five_steps(self):
        for base in (0.0, 1.0, 4.5):
            assert perturbation_angle(base, 6) == pytest.approx(
                perturbation_angle(base, 1), abs=1e-9)
            assert perturbation_angle(base, 5) == pytest.approx(
                perturbation_angle(base, 0), abs=1e-9)
        assert PERTURBATION_STEP == pytest.approx(math.radians(144.0))
        assert PERTURBATION_PERIOD * PERTURBATION_STEP == pytest.approx(4.0 * math.pi)

    def test_loop_stops_after_five_straight_rejections(self):
        inst = line_instance()
        opt = Solution((_tour(inst, 1, (DEPOT, 0, 1, DEPOT)),
                        _tour(inst, 2, (DEPOT, 3, 2, DEPOT))))
        assert opt.objective == pytest.approx(4.0)  # already optimal
        best, iterations = perturbation_loop(inst, opt, np.random.default_rng(0),
                                             SolverConfig(no_improve_stop=5))
        assert best.objective == pytest.approx(4.0)
        assert iterations == 5


class TestSolvePipeline:
    def test_single_vehicle_skips_later_stages(self):
        rng = np.random.default_rng(74)
        inst = random_instance(rng, n=8, k=1)
        sol, trace = solve(inst)
        assert trace.after_init == trace.after_local_search == trace.after_perturbation
        assert trace.stage_solutions[STAGE_INIT] is sol
        assert trace.iterations == 0
        assert sol.objective == trace.after_init
        assert validate_solution(inst, sol) == []

    def test_stage_objectives_never_increase(self):
        rng = np.random.default_rng(75)
        for _ in range(5):
            inst = random_instance(rng, n=12, k=3)
            _, trace = solve(inst, rng=11)
            assert trace.after_local_search <= trace.after_init + 1e-9
            assert trace.after_perturbation <= trace.after_local_search + 1e-9

    def test_same_seed_reproduces_the_plan(self):
        rng = np.random.default_rng(76)
        inst = random_instance(rng, n=14, k=3, assign_fraction=0.2)
        a, ta = solve(inst, rng=5)
        b, tb = solve(inst, rng=5)
        assert [t.sequence for t in a.tours] == [t.sequence for t in b.tours]
        assert ta.after_init == tb.after_init
        assert ta.iterations == tb.iterations

    def test_seed_and_generator_agree(self):
        rng = np.random.default_rng(77)
        inst = random_instance(rng, n=10, k=2)
        a, _ = solve(inst, rng=9)
        b, _ = solve(inst, rng=np.random.default_rng(9))
        assert [t.sequence for t in a.tours] == [t.sequence for t in b.tours]

    def test_required_targets_stay_pinned(self):
        rng = np.random.default_rng(78)
        for _ in range(5):
            inst = random_instance(rng, n=12, k=3, assign_fraction=0.3)
            sol, _ = solve(inst, rng=3)
            assert validate_solution(inst, sol) == []
            for vid, req in inst.required.items():
                assert req <= frozenset(sol.tour_for(vid).targets())

    def test_keep_stage_solutions(self):
        rng = np.random.default_rng(79)
        inst = random_instance(rng, n=9, k=2)
        sol, trace = solve(inst, rng=2)
        stages = trace.stage_solutions
        assert set(stages) == {STAGE_INIT, STAGE_LOCAL_SEARCH, STAGE_PERTURBATION}
        assert stages[STAGE_PERTURBATION] is sol
        assert stages[STAGE_INIT].objective == trace.after_init
        # The trace stores each stage once: its objectives are read from the plans.
        assert [f.name for f in dataclasses.fields(heuristic.StageTrace)] == [
            "stage_solutions", "wall_times", "iterations"]
        for k in (1, 3):
            _, trace = solve(random_instance(rng, n=9, k=k), rng=2)
            stages = trace.stage_solutions
            assert trace.after_init == stages[STAGE_INIT].objective
            assert trace.after_local_search == stages[STAGE_LOCAL_SEARCH].objective
            assert trace.after_perturbation == stages[STAGE_PERTURBATION].objective
        with pytest.raises(AttributeError):
            trace.after_init = 0.0

    def test_early_stages_scale_even_without_the_flag(self):
        rng = np.random.default_rng(81)
        xy = rng.uniform(0, 100, size=(10, 2))
        targets = tuple(Point(*p) for p in xy)
        slow = Instance(targets, (Vehicle(1, 1.0, Point(10, 10)),
                                  Vehicle(2, 1.5, Point(90, 90))))
        fast = Instance(targets, (Vehicle(1, 2.0, Point(10, 10)),
                                  Vehicle(2, 3.0, Point(90, 90))))
        _, ta = solve(slow, rng=4)
        _, tb = solve(fast, rng=4)
        assert ta.after_init == pytest.approx(2.0 * tb.after_init, rel=1e-12)
        assert ta.after_local_search == pytest.approx(2.0 * tb.after_local_search, rel=1e-12)

    def test_split_clusters_reach_the_optimum(self):
        offs = ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0))
        targets = tuple(Point(-5.0 - dx, dy) for dx, dy in offs)
        targets += tuple(Point(5.0 + dx, dy) for dx, dy in offs)
        vehicles = (Vehicle(1, 1.0, Point(0, 0)), Vehicle(2, 1.0, Point(0, 0)))
        inst = Instance(targets, vehicles)
        sol, _ = solve(inst, rng=0)
        opt = exact_minmax(inst)
        assert sol.objective == pytest.approx(opt.objective, abs=1e-9)
        left, right = frozenset(sol.tour_for(1).targets()), frozenset(sol.tour_for(2).targets())
        assert {frozenset(left), frozenset(right)} == {frozenset(range(4)),
                                                       frozenset(range(4, 8))}


class TestSolverConfig:
    @pytest.mark.parametrize("field,value", [
        ("tour_mode", "exakt"), ("tour_mode", None),
        ("no_improve_stop", -1), ("no_improve_stop", 2.5), ("no_improve_stop", True),
        ("no_improve_stop", "5"), ("no_improve_stop", 6), ("no_improve_stop", 25),
    ])
    def test_bad_value_is_rejected_by_name(self, field, value):
        with pytest.raises(InvalidConfigError, match=field) as err:
            SolverConfig(**{field: value})
        assert isinstance(err.value, SolverError) and isinstance(err.value, ValueError)

    @pytest.mark.parametrize("kwargs", [
        {}, {"tour_mode": EXACT}, {"tour_mode": EXACT, "no_improve_stop": 1},
        {"no_improve_stop": 0}, {"no_improve_stop": np.int64(3)},
    ])
    def test_valid_values_are_kept(self, kwargs):
        cfg = SolverConfig(**kwargs)
        for field, value in kwargs.items():
            assert getattr(cfg, field) == value

    @pytest.mark.parametrize("field,value", [
        ("tour_mode", np.str_(EXACT)), ("no_improve_stop", np.int64(3)),
        ("no_improve_stop", np.uint8(0)),
    ])
    def test_a_numpy_scalar_is_kept_as_the_python_value_it_holds(self, field, value):
        kept = getattr(SolverConfig(**{field: value}), field)
        assert type(kept) is type(value.item()) and kept == value

    @pytest.mark.parametrize("field,value", [
        ("cfg", "exact"), ("cfg", {"tour_mode": EXACT}), ("rng", 1.5), ("rng", "a"),
        ("rng", -1), ("rng", True), ("rng", np.int64(-1)),
    ])
    def test_solve_rejects_a_bad_config_or_seed(self, field, value):
        with pytest.raises(InvalidConfigError, match=field):
            solve(line_instance(), **{field: value})

    def test_solve_takes_none_a_seed_or_a_generator(self):
        inst = line_instance()
        seeded, _ = solve(inst, None, rng=np.uint8(7))
        assert seeded == solve(inst, SolverConfig(), rng=np.random.default_rng(7))[0]
        fresh, _ = solve(inst, rng=None)
        assert validate_solution(inst, fresh) == []

    def test_settings_cannot_be_changed_after_the_check(self):
        cfg = SolverConfig(no_improve_stop=5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.no_improve_stop = -1
        assert cfg.no_improve_stop == 5
        with pytest.raises(InvalidConfigError, match="no_improve_stop"):
            dataclasses.replace(cfg, no_improve_stop=-1)
