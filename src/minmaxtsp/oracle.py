"""Exact min-max oracle for desk-sized instances.

Per vehicle, optimal subtour durations for all subsets of the free targets are
tabulated up front by the Held-Karp subset DP with the vehicle's required
targets folded in; a vehicle's subsets, free plus required targets, are held
to the Held-Karp cap ``EXACT_CAP``.  A subset-split DP (Held & Karp 1962) then
shares the free targets out over the fleet.  With t_j vehicle j's table,

    G_1 = t_1,    G_j(S) = min over T subset of S of max(G_{j-1}(S \\ T), t_j(T)),

and the optimum makespan is G_k of the full free set, the only entry of the
last level that is needed.  Max and min do no arithmetic, so the optimum is
exactly the best partition's tabulated makespan.

Tie rule: free target p is bit p of a subset mask.  The plan is read back from
vehicle k down to vehicle 2; each takes, of the free targets not yet given
out, the lowest-mask subset that attains the best makespan for itself and the
vehicles with lower ids, and vehicle 1 takes what is left.

An instance is admitted while the split DP's element steps for k vehicles and
n free targets, max(k - 2, 0) 4^n + (k - 1) 2^n, stay within ``MAX_SPLIT_STEPS``:
each of the k - 2 middle levels scans 2^n masks for each of 2^n subsets, and
the read-back scans 2^n masks for each of k - 1 shares.
"""

import numpy as np

from .model import Instance, OracleBudgetError, Solution, check_instance
from .tsp import EXACT, EXACT_CAP, TourRequest, best_cycle_lengths, solve_tsp

# The steps of k = 3 at n = 13, 4^13 + 2 * 2^13, the largest instance that the
# earlier cap of 2,000,000 partitions (k^n) admitted.  exact_minmax takes about
# 0.1 s there, as at k = 5, n = 12 and k = 8, n = 11, on a 2-core x86-64 host.
# Every (k, n) that cap admitted stays admitted; k = 4-5 reach n = 12 and
# k = 6-10 n = 11.
MAX_SPLIT_STEPS = 67_125_248


def _refusal(inst: Instance):
    # Which budget rule refuses the instance, or None when it fits.
    check_instance(inst)
    k, n = inst.k, len(inst.free_targets())
    steps = max(k - 2, 0) * 4 ** n + (k - 1) * 2 ** n
    if steps > MAX_SPLIT_STEPS:
        return (f"{steps} split steps for {k} vehicles and {n} free targets,"
                f" budget {MAX_SPLIT_STEPS}")
    for v in inst.vehicles:
        m = n + len(inst.required_for(v.id))
        if m > EXACT_CAP:
            return f"vehicle {v.id} may get {m} targets, Held-Karp cap {EXACT_CAP}"
    return None


def oracle_feasible(inst: Instance) -> bool:
    """True when the instance fits the split-step budget and the Held-Karp cap;
    anything but an Instance raises InvalidInstanceError."""
    return _refusal(inst) is None


def _duration_tables(inst: Instance, free) -> list:
    """Per vehicle: optimal tour duration for every subset of free targets.

    Free targets occupy the low DP bits and the vehicle's required targets the
    high bits, so the durations with the full required set folded in form one
    contiguous slice of the all-subsets table.
    """
    nf = len(free)
    tables = []
    for v in inst.vehicles:
        req = sorted(inst.required_for(v.id))
        lengths = best_cycle_lengths(inst.distance_block(v.id, [*free, *req]))
        offset = ((1 << len(req)) - 1) << nf
        tables.append(lengths[offset:offset + (1 << nf)] / v.speed)
    return tables


def _best_split(before, last, subset: int, every):
    """Split ``subset`` between the vehicles tabulated by ``before`` and one
    more vehicle tabulated by ``last``: the lowest mask T within ``subset``
    that minimises max(before[subset ^ T], last[T]), and that minimum."""
    sub = every[(every & ~subset) == 0]
    vals = np.maximum(before[subset ^ sub], last[sub])
    i = int(vals.argmin())
    return int(sub[i]), vals[i]


def exact_minmax(inst: Instance) -> Solution:
    """Optimal min-max plan by the subset-split DP over the duration tables;
    an instance past the budget raises OracleBudgetError naming the rule."""
    reason = _refusal(inst)
    if reason is not None:
        raise OracleBudgetError(f"instance exceeds the oracle budget ({reason})")
    free = inst.free_targets()
    tables = _duration_tables(inst, free)
    every = np.arange(1 << len(free))

    # levels[j][S]: best makespan of vehicles 1..j+1 sharing the free subset S.
    levels = [tables[0]]
    for last in tables[1:-1]:
        levels.append(np.fromiter(
            (_best_split(levels[-1], last, s, every)[1] for s in range(every.size)),
            dtype=float, count=every.size))

    shares = [0] * inst.k
    rest = every.size - 1
    for j in range(inst.k - 1, 0, -1):
        shares[j], _ = _best_split(levels[j - 1], tables[j], rest, every)
        rest ^= shares[j]
    shares[0] = rest

    tours = []
    for share, v in zip(shares, inst.vehicles):
        ids = inst.required_for(v.id).union(t for p, t in enumerate(free) if share >> p & 1)
        tours.append(solve_tsp(TourRequest(inst, v.id, tuple(sorted(ids)), EXACT)))
    return Solution(tuple(tours))
