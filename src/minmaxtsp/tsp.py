"""Single-vehicle tour sub-solver.

``solve_tsp`` routes one vehicle of an instance through the targets of a
``TourRequest`` from the order they are given in.  ``held_karp_routes``
decides which requests get a Held-Karp tour (``held_karp_order``, memoized
per instance by ``TspCache``); every other request is polished by 2-opt and
Or-opt (``_improve``) from its order.  Stage 1 builds the first order of each
tour itself (``allocation.build_initial_solution``).  Both are internal: the
stages and the oracle build requests from data that ``solve`` or
``exact_minmax`` has checked.

All route decisions are made on raw distances; the vehicle speed only divides
the final length, so the chosen order is invariant under speed scaling.
"""

import functools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .model import DEPOT, Instance, Tour

HEURISTIC = "heuristic"
EXACT = "exact"
EXACT_CAP = 16

# Least gain an improvement move must show; _gain_tolerance raises it for
# tours long enough that rounding noise exceeds it.
_EPS = 1e-12


@dataclass(frozen=True, slots=True)
class TourRequest:
    """Route one vehicle of an instance through the targets, in the order given.

    A request holds the instance and what the caller chose, nothing the
    instance already owns, and is not checked: ``vehicle_id`` is one of the
    instance's vehicles, ``targets`` distinct target ids as Python ints in
    the order to start from and ``mode`` HEURISTIC or EXACT.
    """

    inst: Instance
    vehicle_id: int
    targets: Sequence
    mode: str = HEURISTIC


class TspCache(dict):
    """Memo for Held-Karp tours, keyed by what they depend on: the depot
    position and the sorted target ids, ``(x, y, targets)``, each mapped to
    ``(sequence, length)``.

    ``solve_tsp`` keeps one in the ``_cache`` of the request's instance, so
    it lives as long as that instance: a second solve, or the oracle run on
    it, reuses its tours, and since an instance never changes, a hit always
    equals a recompute.  Pickles, copies and ``with_depots`` copies start
    with an empty cache.  Polished tours, which depend on an order that
    stages 2 and 3 rarely repeat, are not memoized.
    """

    # Defined here, not inherited, so a tracer that swaps ``TspCache.get``
    # finds it in the class under its own name and sees every lookup.
    def get(self, key: tuple):
        return dict.get(self, key)


def held_karp_routes(mode: str, m: int) -> bool:
    """Whether a request of m targets in ``mode`` gets its Held-Karp tour:
    exact mode and at most EXACT_CAP targets.  A longer exact request is
    polished as a heuristic one is, so exact mode plans every instance."""
    return mode == EXACT and m <= EXACT_CAP


def _gain_tolerance(dist: np.ndarray) -> float:
    """Least gain a 2-opt or Or-opt move must show on a tour with these distances.

    Pricing a move rounds at most five sums no larger than 3 D, where D is
    the largest distance, so the computed delta is within 11 D 2**-53 (below
    D 2**-49.5) of the exact one.  The margin is _EPS up to D = 281 and
    D 2**-48 beyond, so every move taken shortens the tour and the polish
    ends; with _EPS alone, tours whose distances reach a few thousand could
    reverse a pair of targets back and forth forever.
    """
    return max(_EPS, float(dist.max()) * 2.0 ** -48)


# Both builders below return tuples of tuples of arrays, kept read-only in one
# cache keyed by (builder, m).  No cache dict changes once published: a miss
# copies it with the new entry last, drops the oldest builds but that one while
# the arrays exceed _TABLE_BUDGET bytes, and rebinds _tables.  So threads need
# no lock (two misses at once cost one rebuild at most), and the cache holds at
# most the larger of the budget and the entry just built.  All 16 Held-Karp
# lengths take 15.9 MiB, k2's polish lengths 9-23 0.49 MB and two scenario-1
# solves' 31 lengths at n = 240 28.5 MB: no benchmark or size cell evicts.
_TABLE_BUDGET = 64 << 20
_tables = {}  # (builder, m) -> (tables, their nbytes), oldest build first


def _table_cache(build):
    @functools.wraps(build)
    def tables(m: int) -> tuple:
        global _tables
        entry = _tables.get((build, m))
        if entry is None:
            built = build(m)
            arrays = [arr for part in built for arr in part]
            for arr in arrays:
                arr.flags.writeable = False
            entry = built, sum(arr.nbytes for arr in arrays)
            kept = {key: old for key, old in _tables.items() if key != (build, m)}
            kept[build, m] = entry
            while len(kept) > 1 and sum(n for _, n in kept.values()) > _TABLE_BUDGET:
                del kept[next(iter(kept))]
            _tables = kept
        return entry[0]
    return tables


@_table_cache
def _move_tables(m: int) -> tuple:
    """The 2-opt and Or-opt index tables for a tour of m targets.

    2-opt, per move (i, j) in scan order: the flat indices of the edges
    (a, c), (b, d), (a, b), (c, d) in the (m+2)^2 tour block.

    Or-opt, moves in scan order L -> s -> q -> (forward, reversed), for the
    segment lengths L < m up to 3.  Per (L, s): the flat indices of the
    removal edges (prev, first), (last, next), (prev, next), and the count
    of its moves, which are contiguous.  Per move: the indices of the
    insertion edges (e, head), (tail, e+1), (e, e+1).  Removing ext
    positions s+1..s+L leaves gap q between rest[q-1] and rest[q], the tour
    edge (e, e+1) with e = q below s and q + L above.  A segment of one
    target has only its forward move: the reversed one has the same three
    edges and comes right after it, so it is never the first hit.
    """
    w = m + 2
    i, j = np.triu_indices(m, k=1)
    two_opt = (i * w + j + 1, (i + 1) * w + j + 2, i * w + i + 1, (j + 1) * w + j + 2)
    parts = []
    for L in range(1, min(3, m - 1) + 1):
        n = m - L + 1
        r = np.arange(n)
        removal = (r * w + r + 1, (r + L) * w + r + L + 1, r * w + r + L + 1)
        s, q = np.divmod(np.arange(n * n), n)
        keep = s != q  # same slot: the scan skips both orientations
        sides = [False] if L == 1 else [False, True]
        s, q = np.repeat(s[keep], len(sides)), np.repeat(q[keep], len(sides))
        rev = np.tile(sides, s.size // len(sides))
        e = np.where(q < s, q, q + L)
        head = np.where(rev, s + L, s + 1)
        tail = np.where(rev, s + 1, s + L)
        parts.append((*removal, np.full(n, len(sides) * (n - 1)),
                      e * w + head, tail * w + e + 1, e * w + e + 1))
    or_opt = [np.concatenate(c) for c in zip(*parts)]
    return tuple(tuple(np.asarray(c, dtype=np.intp) for c in t) for t in (two_opt, or_opt))


def _gather(ext: np.ndarray, dist: np.ndarray) -> np.ndarray:
    # The tour's distance block, raveled: tour position p is row p.
    return dist.take(ext, 0).take(ext, 1).ravel()


def _step(ext: np.ndarray, block: np.ndarray, tables: tuple, tol: float) -> bool:
    """Apply the scan's first improving move to ``ext`` in place; False if none.

    2-opt reverses ext positions a+1..c when dist[a, c] + dist[b, d] -
    dist[a, b] - dist[c, d] < -tol; only if no 2-opt move improves is an
    Or-opt move taken, when its insertion price minus its removal price is
    below -tol.  A hit is decoded from the flat index u w + v of an edge it
    was priced with, which names the ext positions u and v of the edge's
    ends, so the tables alone know the scan order.
    """
    w = ext.size
    (ac, bd, ab, cd), (ps, sn, pn, runs, eh, te, ee) = tables
    hits = block[ac] + block[bd] - block[ab] - block[cd] < -tol
    k = hits.argmax()
    if hits[k]:
        a, c = divmod(int(ac[k]), w)  # ext positions of targets a and c
        ext[a + 1:c + 1] = ext[a + 1:c + 1][::-1].copy()
        return True
    removal = (block[ps] + block[sn] - block[pn]).repeat(runs)
    hits = block[eh] + block[te] - block[ee] - removal < -tol
    k = hits.argmax()
    if not hits[k]:
        return False
    e, head = divmod(int(eh[k]), w)
    tail = int(te[k]) // w
    step = 1 if head <= tail else -1
    seg = ext[head:tail + step:step]  # ext positions lo..hi, as inserted
    lo, hi = min(head, tail), max(head, tail)
    if e < lo:  # the segment goes in right after ext[e]
        ext[e + 1:hi + 1] = np.concatenate((seg, ext[e + 1:lo]))
    else:
        ext[lo:e + 1] = np.concatenate((ext[hi + 1:e + 1], seg))
    return True


def _improve(ext: np.ndarray, dist: np.ndarray) -> float:
    """2-opt and Or-opt, first improvement, until neither move improves the
    cycle ``ext``.  Polishes ``ext`` in place and returns its length.

    ``ext`` is the closed tour [DEPOT, *targets, DEPOT] as ids of ``dist``, a
    vehicle's distance matrix with its depot in row/col DEPOT (any block
    with the depot last is one too).  Each step gathers the tour's block and
    takes one move (``_step``): the move sequence of 2-opt to a fixpoint,
    then one Or-opt move, repeated, with the scans' float expressions.  The
    gain tolerance comes from the first block, which holds the same vertex
    pairs as the targets' block and so the same maximum.  The length is the
    left-to-right sum of the last block's superdiagonal, the tour's edges in
    order: the float fold of a plain loop along the tour.

    Every move on a tour of one or two targets yields the same cycle or its
    reverse, which gains nothing, so those are left as given.
    """
    w = ext.size
    block = _gather(ext, dist)
    if w > 4:
        tables = _move_tables(w - 2)
        tol = _gain_tolerance(block)
        while _step(ext, block, tables, tol):
            block = _gather(ext, dist)
    return float(np.add.accumulate(block[1::w + 1])[-1])


# Held-Karp fills its table one layer of same-size target subsets at a time,
# one cell per (mask, j outside mask) pair.  A step's (m, chunk) candidate
# block takes 8 m bytes per cell: chunks of at most _DP_CHUNK cells keep it at
# 64 KiB for m = 16, where the largest layer (102,960 cells) would take
# 12.6 MiB at once, and at 40 KB for m = 10, below its 80 KB table.  Blocks
# this small stay in cache: from m = 12 up a step runs no slower per cell than
# one of 2^14 cells, and at m = 10 the extra steps cost 10-15%.  The index
# tables of a tour of m targets take 17 bytes per cell, m 2^(m-1) cells
# (8.5 MiB at m = 16), and are kept in the one table cache.
_DP_CHUNK = 1 << 9


@_table_cache
def _subset_dp_table(m: int) -> tuple:
    """The subset DP's index tables for m targets, as flat indices into the
    (m, 2^m) table T[j, mask] = dp[mask, j]: a tuple holding the one-target
    cells j 2^m + (1 << j) in j order, then the steps in layer order, subset
    sizes 1 to m - 1, at most _DP_CHUNK cells per step.

    Per step, one entry per (mask, j) with target j outside the mask, masks
    ascending within a size and j ascending within a mask: the mask (the
    column of T that the cell is priced from), j as int8 and the flat index
    j 2^m + (mask | 1 << j) of the cell it fills.
    """
    idx = np.arange(m)
    size = np.zeros(1 << m, dtype=np.int8)  # targets in each mask
    for b in range(m):  # mask 2^b + x holds the targets of x and b
        size[1 << b:2 << b] = size[:1 << b] + 1
    steps = []
    for c in range(1, m):
        layer = np.flatnonzero(size == c)
        rows, js = np.nonzero(layer[:, None] & (1 << idx) == 0)
        src = layer[rows]
        cells = js << m | src | 1 << js
        for lo in range(0, src.size, _DP_CHUNK):
            part = slice(lo, lo + _DP_CHUNK)
            steps.append((src[part], js[part].astype(np.int8), cells[part]))
    return (idx << m | 1 << idx,), *steps


def _subset_dp(dist: np.ndarray) -> np.ndarray:
    """Held-Karp table over target subsets.

    dp[mask, j] is the shortest depot-start path visiting exactly the targets
    in ``mask`` and ending at target j (inf when j is outside ``mask``).  The
    table fills one subset size at a time.  One numpy step takes a chunk of
    cells (mask | 1 << j, j) of one size and writes to each the minimum over
    ``last`` of dp[mask, last] + C[last, j]: its one predecessor, the
    entries of dp[mask], plus column j of C, summed as an (m, chunk) block
    and reduced across its m rows.  The table is stored transposed, as
    T[j, mask], and returned as the (2^m, m) view T.T: the block is then two
    column gathers and the reduction an elementwise minimum of m rows, where
    (chunk, m) rows reduced one by one cost numpy a fixed price per row.

    This gives the same table, bit for bit, as one step per mask in mask
    order: each cell has the unique predecessor ``mask``, one target smaller,
    so it is written once, from a row that is already final, with the same
    float sums.  Distances are never -0.0 or NaN, so the minimum has the bits
    of the first-argmin candidate that a loop keeping parents would write.
    """
    m = dist.shape[0] - 1
    C = dist[:m, :m]
    (starts,), *steps = _subset_dp_table(m)
    table = np.full((m, 1 << m), np.inf)
    flat = table.reshape(-1)
    flat[starts] = dist[m, :m]
    for src, j, cell in steps:
        block = table.take(src, 1)
        block += C.take(j, 1)  # in place: no third block for the sum
        flat[cell] = np.minimum.reduce(block, 0)
    return table.T


def held_karp_order(dist: np.ndarray):
    """Optimal cycle (depot -> all targets -> depot) through at least one
    target. Returns (order, length).

    The tour is read back from the table alone: the target before j on the
    path through ``mask`` is the first argmin over ``last`` of
    dp[mask ^ 1 << j, last] + dist[last, j], the float sum that filled the cell.
    """
    m = dist.shape[0] - 1
    dp = _subset_dp(dist)
    mask = (1 << m) - 1
    closing = dp[mask] + dist[:m, m]
    j = int(closing.argmin())
    length = float(closing[j])
    order = [j]
    while mask != 1 << j:
        mask ^= 1 << j
        j = int((dp[mask] + dist[:m, j]).argmin())
        order.append(j)
    order.reverse()
    return order, length


def best_cycle_lengths(dist: np.ndarray) -> np.ndarray:
    """Optimal cycle length for every target subset at once.

    Entry ``mask`` is the shortest closed route through the depot and exactly
    the targets in ``mask`` (0.0 for the empty subset).  Used by the oracle.
    """
    m = dist.shape[0] - 1
    if m == 0:
        return np.zeros(1)
    dp = _subset_dp(dist)
    back = dist[:m, m]
    # The row minimum of dp + back, one column at a time: min is exact, so
    # this has the bits of np.min over the (2^m, m) sum without building it.
    out = dp[:, 0] + back[0]
    for j in range(1, m):
        np.minimum(out, dp[:, j] + back[j], out=out)
    out[0] = 0.0
    return out


def solve_tsp(req: TourRequest) -> Tour:
    """Route one vehicle through its targets per the request's mode.

    A Held-Karp request is keyed once and looked up in the instance's memo
    before any block is gathered, and stored there once solved; the memo key
    and the Held-Karp block take the targets sorted, so their order does not
    matter there.  Any other request is polished from the order given:
    stage 1 passes a nearest-neighbor order, stages 2 and 3 an incumbent
    tour, whole or with one target spliced in or out.  The vehicle is read
    here for its depot, speed and polish matrix; ``Instance.distance_block``
    reads it again, through the checked accessor, for the Held-Karp block.
    """
    inst, vid, targets = req.inst, req.vehicle_id, req.targets
    vehicle = inst.vehicles[vid - 1]
    if not targets:
        return Tour(vid, (DEPOT, DEPOT), 0.0)
    if held_karp_routes(req.mode, len(targets)):
        ids = tuple(sorted(targets))
        key = (vehicle.depot.x, vehicle.depot.y, ids)
        memo = inst._cache.get(TspCache)
        if memo is None:
            memo = inst._cache[TspCache] = TspCache()
        hit = memo.get(key)
        if hit is None:
            order, length = held_karp_order(inst.distance_block(vid, ids))
            hit = ((DEPOT, *(ids[p] for p in order), DEPOT), length)
            memo[key] = hit
        sequence, length = hit
    else:
        ext = np.array([DEPOT, *targets, DEPOT])
        length = _improve(ext, inst._matrices(vehicle)[0])
        sequence = tuple(ext.tolist())
    return Tour(vid, sequence, float(length) / vehicle.speed)
