"""Single-vehicle tour solver: the frozen request, exact DP vs.
permutation enumeration, the layered DP and its tour read-back against the
per-mask loop and its parent table, the memory its tables and the oracle's
cycle lengths take, the one byte-bounded cache of index tables, heuristic
quality, 2-opt behavior, the numpy polish loop against the scans, and the
instance's exact-tour memo."""

import dataclasses
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import minmaxtsp.tsp
from minmaxtsp import (DEPOT, EXACT, HEURISTIC, Instance, Point, SolverConfig, Tour,
                       Vehicle, generate_instance, scenario1, scenario2, solve,
                       tour_duration)
from minmaxtsp.allocation import _nearest_neighbor
from minmaxtsp.model import COORD_LIMIT, distances
from minmaxtsp.tsp import (EXACT_CAP, TourRequest, TspCache,
                           _gain_tolerance, _improve, _move_tables, _subset_dp,
                           _subset_dp_table, best_cycle_lengths, held_karp_order,
                           held_karp_routes, solve_tsp)

from conftest import brute_cycle_length, euclid, memo_size


def _dist_matrix(depot, pts):
    """Distance table built the slow way, independent of the library's."""
    all_pts = list(pts) + [depot]
    m = len(all_pts)
    return np.array([[euclid(all_pts[i], all_pts[j]) for j in range(m)]
                     for i in range(m)])


def _square_instance():
    targets = (Point(1, 0), Point(1, 1), Point(0, 1))
    return Instance(targets, (Vehicle(1, 1.0, Point(0, 0)),))


class TestSolveBasics:
    def test_empty_target_set_yields_parked_tour(self):
        inst = _square_instance()
        for mode in (HEURISTIC, EXACT):
            tour = solve_tsp(TourRequest(inst, 1, (), mode=mode))
            assert tour == Tour(1, (DEPOT, DEPOT), 0.0)
            assert type(tour.sequence[0]) is int
            assert math.copysign(1.0, tour.duration) == 1.0  # +0.0, not -0.0

    def test_single_target_is_out_and_back(self):
        inst = Instance((Point(3, 4),), (Vehicle(1, 1.0, Point(0, 0)),))
        tour = solve_tsp(TourRequest(inst, 1, (0,)))
        assert tour.sequence == (DEPOT, 0, DEPOT)
        assert tour.duration == pytest.approx(10.0)

    def test_single_target_duration_scales_with_speed(self):
        inst = Instance((Point(3, 4),), (Vehicle(1, 2.0, Point(0, 0)),))
        tour = solve_tsp(TourRequest(inst, 1, (0,)))
        assert tour.duration == pytest.approx(5.0)

    def test_unit_square_perimeter(self):
        inst = _square_instance()
        for mode in (HEURISTIC, EXACT):
            tour = solve_tsp(TourRequest(inst, 1, (0, 1, 2), mode=mode))
            assert tour.duration == pytest.approx(4.0)

    def test_collinear_targets(self):
        depot = (0.0, 0.0)
        pts = [(1.0, 0.0), (2.0, 0.0), (3.0, 0.0), (4.0, 0.0)]
        order, length = held_karp_order(_dist_matrix(depot, pts))
        assert length == pytest.approx(8.0)
        assert order in ([0, 1, 2, 3], [3, 2, 1, 0])

    def test_result_is_a_valid_closed_tour(self):
        rng = np.random.default_rng(11)
        xy = rng.uniform(0, 50, size=(8, 2))
        inst = Instance(tuple(Point(*p) for p in xy),
                        (Vehicle(1, 1.3, Point(25, 25)),))
        tour = solve_tsp(TourRequest(inst, 1, range(8)))
        assert tour.sequence[0] == DEPOT and tour.sequence[-1] == DEPOT
        assert sorted(tour.targets()) == list(range(8))
        assert tour_duration(inst, tour) == pytest.approx(tour.duration)

    @pytest.mark.parametrize("scale", [1e4, 1e8, 1e149])
    def test_large_coordinates_terminate(self, scale):
        # With a fixed 1e-12 gain margin, rounding noise on distances of a few
        # thousand passed for a gain, and 2-opt reversed two targets forever.
        rng = np.random.default_rng(21)
        for m in range(2, 9):
            for _ in range(10):
                xy = rng.uniform(0, scale, size=(m, 2))
                depot = Point(*rng.uniform(0, scale, size=2))
                inst = Instance(tuple(Point(*p) for p in xy), (Vehicle(1, 1.0, depot),))
                tour = solve_tsp(TourRequest(inst, 1, range(m)))
                assert sorted(tour.targets()) == list(range(m))


def _ten_targets():
    return generate_instance(scenario1(n_targets=10, seed=1), 0)


class TestRequestBoundary:
    """A TourRequest is frozen and keeps its targets in the caller's order;
    the memo keys them sorted."""

    def test_a_built_request_is_frozen(self):
        req = TourRequest(_ten_targets(), 1, (3, 1), HEURISTIC)
        assert (req.targets, req.mode) == ((3, 1), HEURISTIC)
        for field, value in (("targets", (99,)), ("mode", EXACT), ("vehicle_id", 0)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(req, field, value)

    def test_target_order_does_not_split_the_memo(self):
        inst = _ten_targets()
        tours = {solve_tsp(TourRequest(inst, 1, order, EXACT)) for order in ((3, 1), (1, 3))}
        assert memo_size(inst) == 1
        assert len(tours) == 1


class TestHeldKarp:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7])
    def test_matches_permutation_enumeration(self, m):
        rng = np.random.default_rng(100 + m)
        pts = [tuple(p) for p in rng.uniform(0, 10, size=(m, 2))]
        depot = (5.0, 5.0)
        _, length = held_karp_order(_dist_matrix(depot, pts))
        assert length == pytest.approx(brute_cycle_length(depot, pts), abs=1e-9)

    def test_subset_table_matches_enumeration(self):
        rng = np.random.default_rng(42)
        pts = [tuple(p) for p in rng.uniform(0, 10, size=(5, 2))]
        depot = (0.0, 0.0)
        table = best_cycle_lengths(_dist_matrix(depot, pts))
        for mask in range(1 << 5):
            subset = [pts[i] for i in range(5) if mask >> i & 1]
            assert table[mask] == pytest.approx(
                brute_cycle_length(depot, subset), abs=1e-9), f"mask {mask}"

    def test_no_targets_is_the_empty_cycle(self, monkeypatch):
        assert best_cycle_lengths(np.zeros((1, 1))).tolist() == [0.0]
        # held_karp_order takes at least one target: an empty exact request
        # is polished, and no Held-Karp table is built or stored for it.
        assert not held_karp_routes(EXACT, 0)
        inst = _square_instance()
        monkeypatch.setattr(minmaxtsp.tsp, "held_karp_order", None)
        tour = solve_tsp(TourRequest(inst, 1, (), EXACT))
        assert (tour.sequence, tour.duration) == ((DEPOT, DEPOT), 0.0)
        assert memo_size(inst) == 0

    def test_past_the_cap_an_exact_request_is_polished(self):
        rng = np.random.default_rng(7)
        xy = rng.uniform(0, 10, size=(EXACT_CAP + 1, 2))
        inst = Instance(tuple(Point(*p) for p in xy),
                        (Vehicle(1, 1.0, Point(0, 0)),))
        order = tuple(rng.permutation(EXACT_CAP + 1).tolist())
        for targets in (range(EXACT_CAP + 1), order):
            exact = solve_tsp(TourRequest(inst, 1, targets, EXACT))
            polished = solve_tsp(TourRequest(inst, 1, targets, HEURISTIC))
            assert exact == polished
            assert repr(exact.duration) == repr(polished.duration)
        assert memo_size(inst) == 0

    def test_held_karp_ignores_mode_flag(self):
        inst = _square_instance()
        req = TourRequest(inst, 1, (0, 1, 2), mode=EXACT)
        assert solve_tsp(req).duration == pytest.approx(4.0)


def _subset_dp_reference(dist: np.ndarray):
    """The Held-Karp table filled one mask at a time, in mask order."""
    m = dist.shape[0] - 1
    full = 1 << m
    C = dist[:m, :m]
    dp = np.full((full, m), np.inf)
    parent = np.full((full, m), -1, dtype=np.int8)
    dp[1 << np.arange(m), np.arange(m)] = dist[m, :m]
    idx = np.arange(m)
    for mask in range(1, full):
        outside = (mask >> idx) & 1 == 0
        if not outside.any():
            continue
        cand = dp[mask][:, None] + C
        best_last = np.argmin(cand, axis=0)
        best_val = cand[best_last, idx]
        nxt = idx[outside]
        dp[mask + (1 << nxt), nxt] = best_val[nxt]
        parent[mask + (1 << nxt), nxt] = best_last[nxt]
    return dp, parent


@st.composite
def _dp_matrices(draw):
    """Distance matrix for 1..12 targets: uniform floats, a 4 x 4 grid (most
    targets duplicated, so most argmins tie) or coordinates near
    +-COORD_LIMIT; sometimes the depot sits on a target."""
    m = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["uniform", "grid", "limit"]))
    if kind == "uniform":
        xy = rng.uniform(0.0, 100.0, size=(m + 1, 2))
    elif kind == "grid":
        xy = rng.integers(0, 4, size=(m + 1, 2)).astype(float)
    else:
        xy = rng.choice([-1.0, 1.0], size=(m + 1, 2)) * rng.uniform(0.5, 1.0, size=(m + 1, 2))
        xy *= COORD_LIMIT
    if draw(st.booleans()):
        xy[m] = xy[draw(st.integers(0, m - 1))]
    return distances(xy, xy)


def _walk_parents(dist, dp, parent):
    """The optimal cycle backtracked through the reference's parent table."""
    m = dist.shape[0] - 1
    mask = (1 << m) - 1
    closing = dp[mask] + dist[:m, m]
    last = int(np.argmin(closing))
    length = float(closing[last])
    order = []
    while last >= 0:
        order.append(last)
        mask, last = mask ^ (1 << last), int(parent[mask, last])
    return order[::-1], length


def _assert_same_table(dist):
    dp_ref, parent_ref = _subset_dp_reference(dist)
    assert np.array_equal(_subset_dp(dist), dp_ref)
    assert held_karp_order(dist) == _walk_parents(dist, dp_ref, parent_ref)


def _traced(fn, *args):
    """``fn(*args)`` and the peak of the bytes tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def empty_table_cache(monkeypatch):
    """An empty index-table cache for one test; the module's own comes back after."""
    monkeypatch.setattr(minmaxtsp.tsp, "_tables", {})


def _arrays_of(tables) -> list:
    if isinstance(tables, np.ndarray):
        return [tables]
    return [arr for part in tables for arr in _arrays_of(part)]


def _kept():
    """Per kept entry, oldest build first: (builder name, m, nbytes), the
    bytes summed from the arrays themselves."""
    return [(build.__name__, m, sum(arr.nbytes for arr in _arrays_of(tables)))
            for (build, m), (tables, _) in minmaxtsp.tsp._tables.items()]


@pytest.mark.usefixtures("empty_table_cache")
class TestTableCache:
    """Both builders' index tables share one cache bounded in bytes."""

    @pytest.mark.parametrize("budget", [0, 1 << 20, 4 << 20])
    def test_kept_tables_stay_within_the_budget(self, budget, monkeypatch):
        # Polish tables take about 134 m^2 bytes (0.48 MB at m = 60) and the
        # Held-Karp ones 8.5 MiB at 16 targets, alone above the two smaller
        # budgets: then that one entry is kept and nothing else.
        monkeypatch.setattr(minmaxtsp.tsp, "_TABLE_BUDGET", budget)
        calls = [(_move_tables, m) for m in range(3, 61)]
        calls += [(_subset_dp_table, m) for m in (10, 16, 4)] + [(_move_tables, 5)]
        for build, m in calls:
            build(m)
            kept = _kept()
            total = sum(nbytes for _, _, nbytes in kept)
            assert kept[-1][:2] == (build.__name__, m)
            assert total <= budget or (len(kept) == 1 and total > budget)
        assert ("_subset_dp_table", 16) not in [(name, m) for name, m, _ in kept]

    def test_a_hit_leaves_the_cache_as_it_was(self, monkeypatch):
        # A hit only reads the published dict, and lengths drop oldest build
        # first: a hit on m = 3 keeps it first, so a new length drops 3.
        for m in (3, 4, 5):
            _move_tables(m)
        published = minmaxtsp.tsp._tables
        first = _move_tables(3)
        assert first is published[_move_tables.__wrapped__, 3][0]
        assert _move_tables(3) is first and minmaxtsp.tsp._tables is published
        assert [m for _, m, _ in _kept()] == [3, 4, 5]
        sizes = {m: nbytes for _, m, nbytes in _kept()}
        six = sum(arr.nbytes for arr in _arrays_of(_move_tables.__wrapped__(6)))
        monkeypatch.setattr(minmaxtsp.tsp, "_TABLE_BUDGET", sizes[4] + sizes[5] + six)
        _move_tables(6)
        assert [m for _, m, _ in _kept()] == [4, 5, 6]
        assert [m for _, m in published] == [3, 4, 5]  # the old dict stays as it was
        assert _move_tables(3) is not first

    @pytest.mark.parametrize("build, m", [(_move_tables, 3), (_move_tables, 40),
                                          (_subset_dp_table, 1), (_subset_dp_table, 12)])
    def test_a_table_rebuilt_after_eviction_equals_the_first(self, build, m, monkeypatch):
        monkeypatch.setattr(minmaxtsp.tsp, "_TABLE_BUDGET", 0)
        first = build(m)
        build(m + 1)  # drops m
        again = build(m)
        assert again is not first
        for old, new in zip(_arrays_of(first), _arrays_of(again), strict=True):
            assert new.dtype == old.dtype and np.array_equal(new, old)
            assert not new.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                new[...] = 0

    def test_threads_leave_true_tables_within_the_budget(self, monkeypatch):
        # No lock: each miss publishes a new dict and no published dict is
        # changed, so interleaved threads may lose a build but never leave an
        # entry whose bytes or arrays are wrong, nor a cache over the budget.
        monkeypatch.setattr(minmaxtsp.tsp, "_TABLE_BUDGET", 200_000)
        errors = []

        def work(seed):
            rng = np.random.default_rng(seed)
            try:
                for m in rng.integers(3, 30, size=150):
                    _move_tables(int(m))
            except Exception as exc:  # reported below, with the thread's seed
                errors.append((seed, exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and errors == []
        kept = minmaxtsp.tsp._tables
        assert sum(nbytes for _, nbytes in kept.values()) <= 200_000
        for (build, m), (tables, nbytes) in kept.items():
            assert build is _move_tables.__wrapped__
            arrays = _arrays_of(tables)
            assert nbytes == sum(arr.nbytes for arr in arrays)
            fresh = _arrays_of(_move_tables.__wrapped__(m))
            for old, new in zip(arrays, fresh, strict=True):
                assert new.dtype == old.dtype and np.array_equal(new, old)

    @pytest.mark.parametrize("scenario, n, mode", [(scenario1, 60, HEURISTIC),
                                                   (scenario2, 12, EXACT)])
    def test_stage_plans_do_not_depend_on_the_budget(self, scenario, n, mode, monkeypatch):
        # The tables are pure functions of m, so a cache that keeps one
        # length at a time routes every tour as the default budget does.
        cfg = scenario(n_targets=n, seed=5 << 20)

        def plans():
            out = []
            for i in range(2):
                _, trace = solve(generate_instance(cfg, i), SolverConfig(tour_mode=mode), rng=i)
                out.append(repr([(stage, [(t.sequence, t.duration) for t in sol.tours])
                                 for stage, sol in trace.stage_solutions.items()]))
            return out

        default = plans()
        assert len(_kept()) > 1
        monkeypatch.setattr(minmaxtsp.tsp, "_tables", {})
        monkeypatch.setattr(minmaxtsp.tsp, "_TABLE_BUDGET", 1)
        assert plans() == default
        assert len(_kept()) == 1


class TestLayeredSubsetDp:
    """The layer-at-a-time table must equal the per-mask loop's bit for bit,
    and the tour read back from it must be the one its parent table gives."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_dp_matrices())
    def test_matches_the_per_mask_loop(self, dist):
        _assert_same_table(dist)

    def test_sixteen_targets_match_the_per_mask_loop(self):
        # Layers of more than _DP_CHUNK cells take several steps.
        xy = np.random.default_rng(16).integers(0, 6, size=(17, 2)).astype(float)
        _assert_same_table(distances(xy, xy))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_dp_matrices())
    def test_cycle_lengths_are_the_row_minimum_of_the_full_sum(self, dist):
        # The running minimum over columns against np.min over the (2^m, m)
        # block it replaced, bit for bit; small grids make most entries tie.
        m = dist.shape[0] - 1
        full = np.min(_subset_dp(dist) + dist[:m, m][None, :], axis=1)
        full[0] = 0.0
        assert best_cycle_lengths(dist).tobytes() == full.tobytes()

    @pytest.mark.usefixtures("empty_table_cache")
    def test_cycle_lengths_at_sixteen_targets_need_no_full_width_sum(self):
        # dp takes 8 MiB and the index tables 8.5 MiB, kept here since the
        # cache starts empty; a (2^m, m) sum of dp and the closing edges once
        # added 8 MiB more (25.0 MiB in all).
        xy = np.random.default_rng(6).uniform(0.0, 100.0, size=(17, 2))
        dist = distances(xy, xy)
        assert _traced(best_cycle_lengths, dist)[1] < 22 * 2**20

    def test_ten_targets_take_about_twice_the_table(self):
        # The oracle's size in the benchmark.  Blocks of a whole layer (1,260
        # cells) and a third one for their sum once made the peak 4.7 times
        # the 80 KB table; two blocks of _DP_CHUNK cells make it 2.1 times.
        xy = np.random.default_rng(10).uniform(0.0, 100.0, size=(11, 2))
        dist = distances(xy, xy)
        best_cycle_lengths(dist)
        assert _traced(best_cycle_lengths, dist)[1] < 2.5 * (8 * 10 << 10)

    def test_memory_stays_within_the_chunk_bound(self):
        # dp takes 8 MiB at 16 targets; an unchunked layer adds 26.
        xy = np.random.default_rng(5).uniform(0.0, 100.0, size=(17, 2))
        dist = distances(xy, xy)
        held_karp_order(dist)
        assert _traced(held_karp_order, dist)[1] < 24 * 2**20


class TestSubsetDpTable:
    @pytest.mark.usefixtures("empty_table_cache")
    def test_building_the_tables_needs_little_beyond_them(self):
        # At 16 targets a (2^m, m) mask-bit matrix and its sums once took
        # 2.9 MiB beside the 8.5 MiB kept; subset sizes by doubling and each
        # layer's bits from its own masks keep the build near the tables.
        ((starts,), *steps), peak = _traced(_subset_dp_table, 16)
        kept = starts.nbytes + sum(arr.nbytes for step in steps for arr in step)
        assert peak <= kept + 2.5 * 2**20

    def test_index_tables_stay_within_their_bound(self):
        # src and cell take 8 bytes per cell and j one (int8): 8.5 MiB at 16
        # targets, where an intp j would take 12 MiB.
        (starts,), *steps = _subset_dp_table(16)
        assert all(j.dtype == np.int8 for _, j, _ in steps)
        used = starts.nbytes + sum(arr.nbytes for step in steps for arr in step)
        assert used <= 8.5 * 2**20

    def test_each_step_fills_new_cells_from_earlier_layers(self):
        for m in (1, 2, 5, 9):
            (starts,), *steps = _subset_dp_table(m)
            filled = {int(c) for c in starts}
            for src, j, cell in steps:
                src, j = src.astype(int), j.astype(int)
                assert not filled & set(cell.tolist())
                assert np.all(src & (1 << j) == 0)
                assert np.array_equal(cell, (j << m) | src | (1 << j))
                assert {int(k) << m | int(s) for s in src for k in range(m)
                        if s >> k & 1} <= filled
                filled |= set(cell.tolist())
            assert len(filled) == m << (m - 1)


class TestHeuristicQuality:
    @pytest.mark.parametrize("m", [4, 5, 6, 7])
    def test_never_beats_exact_and_stays_close(self, m):
        rng = np.random.default_rng(200 + m)
        xy = rng.uniform(0, 100, size=(m, 2))
        inst = Instance(tuple(Point(*p) for p in xy),
                        (Vehicle(1, 1.0, Point(50, 50)),))
        heur = solve_tsp(TourRequest(inst, 1, range(m)))
        exact = solve_tsp(TourRequest(inst, 1, range(m), mode=EXACT))
        assert heur.duration >= exact.duration - 1e-9

    def test_same_request_twice_is_identical(self):
        rng = np.random.default_rng(9)
        xy = rng.uniform(0, 100, size=(10, 2))
        inst = Instance(tuple(Point(*p) for p in xy),
                        (Vehicle(1, 1.0, Point(0, 0)),))
        a = solve_tsp(TourRequest(inst, 1, range(10)))
        b = solve_tsp(TourRequest(inst, 1, range(10)))
        assert a == b

    def test_route_choice_is_speed_invariant(self):
        rng = np.random.default_rng(12)
        xy = rng.uniform(0, 100, size=(8, 2))
        targets = tuple(Point(*p) for p in xy)
        slow = Instance(targets, (Vehicle(1, 1.0, Point(0, 0)),))
        fast = Instance(targets, (Vehicle(1, 2.0, Point(0, 0)),))
        for mode in (HEURISTIC, EXACT):
            a = solve_tsp(TourRequest(slow, 1, range(8), mode=mode))
            b = solve_tsp(TourRequest(fast, 1, range(8), mode=mode))
            assert a.sequence == b.sequence
            assert a.duration == 2.0 * b.duration


def _cycle_length(order, dist) -> float:
    """Length of the cycle depot -> order -> depot, summed edge by edge along
    the tour: the reference for the length ``_improve`` returns."""
    total = dist[DEPOT, order[0]]
    for a, b in zip(order, order[1:]):
        total += dist[a, b]
    return float(total + dist[order[-1], DEPOT])


def _two_opt(order: list, dist: np.ndarray, tol: float) -> list:
    """First-improvement 2-opt to a fixpoint, scanning i ascending then j:
    the reference for the 2-opt moves of ``_improve``."""
    m = len(order)
    dm = dist.shape[0] - 1
    improved = True
    while improved:
        improved = False
        for i in range(m - 1):
            a = dm if i == 0 else order[i - 1]
            b = order[i]
            for j in range(i + 1, m):
                c = order[j]
                d = dm if j == m - 1 else order[j + 1]
                delta = dist[a, c] + dist[b, d] - dist[a, b] - dist[c, d]
                if delta < -tol:
                    order[i:j + 1] = reversed(order[i:j + 1])
                    improved = True
                    break
            if improved:
                break
    return order


def _or_opt_once(order: list, dist: np.ndarray, tol: float):
    """Relocate one segment (length 1..3, both orientations) if it helps.

    Returns (order, True) after the first improving move, (order, False) if
    the tour is Or-opt clean: the reference for the Or-opt moves of ``_improve``.
    """
    m = len(order)
    dm = dist.shape[0] - 1
    for L in (1, 2, 3):
        if L >= m:
            break
        for s in range(m - L + 1):
            seg = order[s:s + L]
            rest = order[:s] + order[s + L:]
            prev_s = dm if s == 0 else order[s - 1]
            next_s = dm if s + L == m else order[s + L]
            removal = (dist[prev_s, seg[0]] + dist[seg[-1], next_s]
                       - dist[prev_s, next_s])
            for q in range(len(rest) + 1):
                if q == s:
                    continue  # same slot, forward orientation is a no-op
                a = dm if q == 0 else rest[q - 1]
                b = dm if q == len(rest) else rest[q]
                for piece in (seg, seg[::-1]):
                    add = dist[a, piece[0]] + dist[piece[-1], b] - dist[a, b]
                    if add - removal < -tol:
                        return rest[:q] + piece + rest[q:], True
    return order, False


def _two_opt_improve(inst, tour):
    """Polish an existing tour with the 2-opt scan alone, to its fixpoint."""
    ids = tour.targets()
    if len(ids) < 2:
        return tour
    dist = inst.distance_block(tour.vehicle_id, ids)
    order = _two_opt(list(range(len(ids))), dist, _gain_tolerance(dist))
    seq = (DEPOT,) + tuple(ids[p] for p in order) + (DEPOT,)
    return Tour(tour.vehicle_id, seq,
                _cycle_length(order, dist) / inst.vehicle(tour.vehicle_id).speed)


class TestTwoOptImprove:
    def test_uncrosses_square(self):
        inst = _square_instance()
        crossed = Tour(1, (DEPOT, 1, 0, 2, DEPOT), 2 + 2 * math.sqrt(2))
        assert tour_duration(inst, crossed) == pytest.approx(crossed.duration)
        fixed = _two_opt_improve(inst, crossed)
        assert fixed.duration == pytest.approx(4.0)

    def test_never_worsens_and_reaches_fixpoint(self):
        rng = np.random.default_rng(13)
        xy = rng.uniform(0, 100, size=(9, 2))
        inst = Instance(tuple(Point(*p) for p in xy),
                        (Vehicle(1, 1.0, Point(10, 90)),))
        seq = (DEPOT,) + tuple(range(9)) + (DEPOT,)
        raw = Tour(1, seq, 0.0)
        raw = Tour(1, seq, tour_duration(inst, raw))
        once = _two_opt_improve(inst, raw)
        assert once.duration <= raw.duration + 1e-9
        twice = _two_opt_improve(inst, once)
        assert twice.sequence == once.sequence
        assert twice.duration == pytest.approx(once.duration)

    def test_short_tours_pass_through(self):
        inst = Instance((Point(3, 4),), (Vehicle(1, 1.0, Point(0, 0)),))
        tour = Tour(1, (DEPOT, 0, DEPOT), 10.0)
        assert _two_opt_improve(inst, tour) == tour


class TestCache:
    """Each instance keeps one exact-tour memo in its cache, used by every
    request built from it; a ``with_depots`` copy starts its own."""

    def test_hit_reproduces_the_solution(self):
        rng = np.random.default_rng(14)
        xy = rng.uniform(0, 100, size=(8, 2))
        inst = Instance(tuple(Point(*p) for p in xy),
                        (Vehicle(1, 1.0, Point(0, 0)),))
        first = solve_tsp(TourRequest(inst, 1, range(8), EXACT))
        assert memo_size(inst) == 1
        second = solve_tsp(TourRequest(inst, 1, range(8), EXACT))
        assert memo_size(inst) == 1
        fresh = Instance(inst.targets, inst.vehicles)
        assert second == first == solve_tsp(TourRequest(fresh, 1, range(8), EXACT))

    def test_cache_is_shared_across_speeds(self):
        targets = tuple(Point(*p) for p in ((1, 0), (2, 3), (5, 1)))
        inst = Instance(targets, (Vehicle(1, 1.0, Point(0, 0)), Vehicle(2, 4.0, Point(0, 0))))
        a = solve_tsp(TourRequest(inst, 1, range(3), EXACT))
        b = solve_tsp(TourRequest(inst, 2, range(3), EXACT))
        assert memo_size(inst) == 1
        assert a.sequence == b.sequence
        assert a.duration == 4.0 * b.duration

    def test_depot_is_part_of_the_key(self):
        targets = tuple(Point(*p) for p in ((1, 0), (2, 3), (5, 1)))
        inst = Instance(targets, (Vehicle(1, 1.0, Point(0, 0)), Vehicle(2, 1.0, Point(9, 9))))
        solve_tsp(TourRequest(inst, 1, range(3), EXACT))
        solve_tsp(TourRequest(inst, 2, range(3), EXACT))
        assert memo_size(inst) == 2

    def test_exact_starts_share_one_entry(self):
        inst = _square_instance()
        tours = set()
        for order in ((0, 1, 2), (2, 0, 1), (1, 0, 2)):
            tours.add(solve_tsp(TourRequest(inst, 1, order, EXACT)))
        assert memo_size(inst) == 1
        assert len(tours) == 1

    def test_a_heuristic_request_leaves_the_cache_empty(self):
        rng = np.random.default_rng(15)
        xy = rng.uniform(0, 100, size=(9, 2))
        inst = Instance(tuple(Point(*p) for p in xy), (Vehicle(1, 1.0, Point(0, 0)),))
        requests = [TourRequest(inst, 1, range(9))] + [
            TourRequest(inst, 1, tuple(rng.permutation(9).tolist())) for _ in range(4)]
        for req in requests + requests:
            assert solve_tsp(req) == solve_tsp(req)
        assert memo_size(inst) == 0

    def test_every_memo_lookup_goes_through_get(self, monkeypatch):
        # The benchmark's tracer counts lookups by swapping TspCache.get, so
        # an exact solve must look tours up by that name and no other: each
        # memo, the instance's and its with_depots copies', stores one tour
        # per lookup that missed.
        looked = []
        lookup = TspCache.get

        def counted(memo, key):
            looked.append((memo, lookup(memo, key)))
            return looked[-1][1]

        monkeypatch.setattr(TspCache, "get", counted)
        inst = generate_instance(scenario1(n_targets=8, seed=3), 0)
        cfg = SolverConfig(tour_mode=EXACT)
        solve(inst, cfg, rng=1)
        own = inst._cache[TspCache]
        memos = {id(memo): memo for memo, _ in looked}
        assert id(own) in memos and len(memos) > 1
        for memo in memos.values():
            assert sum(m is memo and hit is None for m, hit in looked) == len(memo) > 0
        assert any(hit is not None for _, hit in looked)
        stored = len(own)
        del looked[:]
        solve(inst, cfg, rng=1)
        again = [hit for memo, hit in looked if memo is own]
        assert again and None not in again
        assert len(own) == stored

    def test_instances_with_the_same_ids_keep_their_own_tours(self):
        # Same depot, same target ids, other coordinates: a memo shared by the
        # two would hand the second the first one's tour and duration.
        depot = Vehicle(1, 1.0, Point(0, 0))
        near = Instance((Point(10, 0), Point(10, 10)), (depot,))
        far = Instance((Point(50, 0), Point(50, 50)), (depot,))
        for inst in (near, far, near):
            tour = solve_tsp(TourRequest(inst, 1, (0, 1), EXACT))
            assert tour.duration == pytest.approx(tour_duration(inst, tour))
            assert tour == solve_tsp(TourRequest(Instance(inst.targets, inst.vehicles),
                                                 1, (0, 1), EXACT))

    def test_a_with_depots_copy_starts_its_own_memo(self):
        rng = np.random.default_rng(16)
        xy = rng.uniform(0, 100, size=(7, 2))
        inst = Instance(tuple(Point(*p) for p in xy),
                        (Vehicle(1, 1.0, Point(0, 0)), Vehicle(2, 2.0, Point(50, 50))))
        solve_tsp(TourRequest(inst, 1, range(7), EXACT))
        moved = inst.with_depots({1: Point(30, 70)})
        again = moved.with_depots({2: Point(0, 0)})
        assert (memo_size(inst), memo_size(moved), memo_size(again)) == (1, 0, 0)
        stored = solve_tsp(TourRequest(moved, 1, range(7), EXACT))
        # ``again`` keeps vehicle 1 where ``moved`` put it, yet solves it anew.
        solved = solve_tsp(TourRequest(again, 1, range(7), EXACT))
        assert (memo_size(inst), memo_size(moved), memo_size(again)) == (1, 1, 1)
        fresh = Instance(again.targets, again.vehicles)
        assert solved == stored == solve_tsp(TourRequest(fresh, 1, range(7), EXACT))


# Small integer grids make duplicate points and equal-length moves common, so
# the first-improvement tie order is exercised; drawn floats add repeated
# values, and seeded uniform draws the generic case of distinct points, at a
# scale where the gain margin is _EPS and at one where it grows with distance.
_GRID = st.integers(0, 3).map(float)
_REAL = st.floats(0.0, 100.0)


@st.composite
def _tours(draw):
    """(start order, distance matrix) for 2..40 targets, sometimes with the
    depot on a target and sometimes starting from nearest neighbour, as
    stage 1 does."""
    m = draw(st.integers(2, 40))
    kind = draw(st.sampled_from(["grid", "floats", "uniform"]))
    if kind == "uniform":
        seed = draw(st.integers(0, 2**32 - 1))
        scale = draw(st.sampled_from([100.0, 1e6]))
        xy = np.random.default_rng(seed).uniform(0.0, scale, size=(m + 1, 2))
    else:
        coord = _GRID if kind == "grid" else _REAL
        xy = np.array(draw(st.lists(st.tuples(coord, coord),
                                    min_size=m + 1, max_size=m + 1)))
    if draw(st.booleans()):
        xy[m] = xy[draw(st.integers(0, m - 1))]
    dist = distances(xy, xy)
    if draw(st.booleans()):
        return _nearest_neighbor(dist), dist
    return list(draw(st.permutations(range(m)))), dist


def _polish(two_opt, or_opt_once, order, dist):
    tol = _gain_tolerance(dist)
    while True:
        order = two_opt(order, dist, tol)
        order, moved = or_opt_once(order, dist, tol)
        if not moved:
            return order


def _kernel(order, dist):
    """``_improve`` on the tour [DEPOT, *order, DEPOT]: (its order, its length).

    A block with the depot last is a valid vehicle matrix, its targets' ids
    being their positions 0..m-1."""
    ext = np.array([DEPOT, *order, DEPOT])
    length = _improve(ext, dist)
    assert ext[0] == ext[-1] == DEPOT
    return ext[1:-1].tolist(), length


def _scans(order, dist):
    """The reference polish: (order, length) from the scans and ``_cycle_length``."""
    order = _polish(_two_opt, _or_opt_once, list(order), dist)
    return order, _cycle_length(order, dist)


class TestVectorizedPolish:
    """The numpy polish loop must make exactly the moves the scans make."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_tours())
    def test_fixpoint_matches_the_scans(self, tour):
        # The lengths compare with ==: the same float fold, bit for bit.
        order, dist = tour
        assert _kernel(order, dist) == _scans(order, dist)

    @pytest.mark.parametrize("kind", ["grid", "uniform"])
    def test_tours_above_forty_targets_match_the_scans(self, kind):
        # Seeded rather than drawn: the scans are slow on long tours.
        rng = np.random.default_rng(41)
        for m in (41, 53, 70):
            if kind == "grid":
                xy = rng.integers(0, 4, size=(m + 1, 2)).astype(float)
            else:
                xy = rng.uniform(0.0, 100.0, size=(m + 1, 2))
            dist = distances(xy, xy)
            for order in (rng.permutation(m).tolist(), _nearest_neighbor(dist)):
                assert _kernel(order, dist) == _scans(order, dist)

    def test_a_tour_through_part_of_the_matrix_matches_the_scans_on_its_block(self):
        # The gain tolerance is the tour's own: a target off the tour at 1e15
        # would raise it to about 3.5, which rejects most moves among points
        # within 100 of each other.
        rng = np.random.default_rng(43)
        for _ in range(30):
            xy = np.vstack([rng.uniform(0.0, 100.0, size=(24, 2)), [1e15, 0.0],
                            rng.uniform(0.0, 100.0, size=(1, 2))])
            matrix = distances(xy, xy)
            ids = sorted(rng.choice(24, size=int(rng.integers(3, 24)), replace=False).tolist())
            start = rng.permutation(ids).tolist()
            ix = [*ids, DEPOT]
            block = matrix.take(ix, 0).take(ix, 1)
            order, length = _scans([ids.index(t) for t in start], block)
            assert _kernel(start, matrix) == ([ids[p] for p in order], length)

    @pytest.mark.parametrize("scale", [1.0, 100.0, 1e6, 1e150])
    def test_tours_of_one_or_two_targets_need_no_polish(self, scale):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m = int(rng.integers(1, 3))
            xy = rng.uniform(-scale, scale, size=(m + 1, 2))
            dist = distances(xy, xy)
            for order in ([[0]] if m == 1 else [[0, 1], [1, 0]]):
                assert _polish(_two_opt, _or_opt_once, list(order), dist) == order
                assert _kernel(order, dist) == (order, _cycle_length(order, dist))


@st.composite
def _started_requests(draw):
    """(instance, order): a one-vehicle instance of 1..14 uniform or 4 x 4
    grid points, the depot sometimes on a target, and 0..12 of its targets in
    any order."""
    n = draw(st.integers(1, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        xy = rng.uniform(0.0, 100.0, size=(n + 1, 2))
    else:
        xy = rng.integers(0, 4, size=(n + 1, 2)).astype(float)
    if draw(st.booleans()):
        xy[n] = xy[draw(st.integers(0, n - 1))]
    speed = draw(st.sampled_from([1.0, 1.5]))
    inst = Instance(tuple(Point(*p) for p in xy[:n]), (Vehicle(1, speed, Point(*xy[n])),))
    order = draw(st.permutations(range(n)))[:draw(st.integers(0, min(n, 12)))]
    return inst, tuple(order)


class TestStartOrder:
    """A heuristic request polishes the order of its targets; an exact one of
    at most EXACT_CAP targets needs no order."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_started_requests())
    def test_heuristic_tour_is_a_clean_order_of_the_targets(self, case):
        inst, order = case
        targets = sorted(order)
        tour = solve_tsp(TourRequest(inst, 1, order))
        assert tour.sequence[0] == DEPOT and tour.sequence[-1] == DEPOT
        assert sorted(tour.targets()) == targets
        assert tour_duration(inst, tour) == pytest.approx(tour.duration, rel=1e-12, abs=1e-12)
        dist = inst.distance_block(1, targets)
        order = [targets.index(t) for t in tour.targets()]
        tol = _gain_tolerance(dist)
        assert _two_opt(list(order), dist, tol) == order
        assert _or_opt_once(list(order), dist, tol) == (order, False)
        again = solve_tsp(TourRequest(inst, 1, tour.targets()))
        assert again == tour

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_started_requests())
    def test_exact_tour_does_not_depend_on_the_start(self, case):
        inst, order = case
        req = TourRequest(inst, 1, order, EXACT)
        assert solve_tsp(req) == solve_tsp(TourRequest(inst, 1, sorted(order), EXACT))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_started_requests())
    def test_a_heuristic_tour_is_the_polish_of_its_order(self, case):
        inst, order = case
        assume(order)
        tour = solve_tsp(TourRequest(inst, 1, order))
        block = inst.distance_block(1, order)
        positions, length = _kernel(range(len(order)), block)
        assert tour.targets() == tuple(order[p] for p in positions)
        assert tour.duration == length / inst.vehicles[0].speed

    def test_start_is_polished_not_rebuilt(self):
        # A clean start that nearest neighbour would not build is kept.
        rng = np.random.default_rng(16)
        xy = rng.uniform(0, 100, size=(12, 2))
        inst = Instance(tuple(Point(*p) for p in xy), (Vehicle(1, 1.0, Point(50, 50)),))
        start = _nearest_neighbor(inst.distance_block(1, range(12)))
        built = solve_tsp(TourRequest(inst, 1, start))
        for _ in range(20):
            order = tuple(rng.permutation(12).tolist())
            tour = solve_tsp(TourRequest(inst, 1, order))
            if tour.sequence not in (built.sequence, built.sequence[::-1]):
                break
        else:
            pytest.fail("every start polished to the nearest-neighbour tour")
        assert solve_tsp(TourRequest(inst, 1, tour.targets())) == tour
