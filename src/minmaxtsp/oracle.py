"""Exhaustive min-max oracle for desk-sized instances.

Every way of splitting the free targets over the fleet is enumerated with a
mixed-radix counter (one digit per free target, vehicle ids as digit values).
Per vehicle, optimal subtour lengths for all free subsets are tabulated up
front by the Held-Karp subset DP with the vehicle's required targets folded
in, so scoring a partition is k table lookups.  A vehicle's subsets, free
plus required targets, are held to the Held-Karp cap ``EXACT_CAP``.  The
first partition achieving the minimum makespan (in counter order) defines the
reported plan, making the oracle deterministic even under ties.
"""

from dataclasses import dataclass

import numpy as np

from .model import Instance, OracleBudgetError, Solution
from .tsp import EXACT, EXACT_CAP, best_cycle_lengths, request_for, solve_tsp


@dataclass(frozen=True)
class OracleBudget:
    """Hard limit keeping the enumeration tractable."""

    max_partitions: int = 2_000_000


def oracle_feasible(inst: Instance, budget: OracleBudget = OracleBudget()) -> bool:
    """True when the instance fits the partition budget and the Held-Karp cap."""
    free = inst.free_targets()
    if inst.k ** len(free) > budget.max_partitions:
        return False
    return all(len(free) + len(inst.required_for(v.id)) <= EXACT_CAP
               for v in inst.vehicles)


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
        ix = [*free, *req, inst.n_targets]
        lengths = best_cycle_lengths(inst.distance_matrix(v.id).take(ix, 0).take(ix, 1))
        offset = ((1 << len(req)) - 1) << nf
        tables.append(lengths[offset:offset + (1 << nf)] / v.speed)
    return tables


def exact_minmax(inst: Instance, budget: OracleBudget | None = None,
                 prune: bool = True) -> Solution:
    """Optimal min-max plan by full partition enumeration.

    With ``prune`` set, a partition is abandoned as soon as one vehicle's
    tabulated duration already exceeds the incumbent; pruning only skips
    work and never changes the reported plan.
    """
    budget = budget or OracleBudget()
    if not oracle_feasible(inst, budget):
        raise OracleBudgetError(
            f"instance exceeds the oracle budget "
            f"({inst.k}^{len(inst.free_targets())} partitions, cap {budget.max_partitions})")
    free = inst.free_targets()
    nf = len(free)
    k = inst.k
    tables = _duration_tables(inst, free)

    # Mixed-radix scan: digit p names the vehicle (0-based) owning free[p].
    # masks[j] mirrors the digits as a bitmask per vehicle for table lookups.
    digits = [0] * nf
    masks = [0] * k
    masks[0] = (1 << nf) - 1
    best_obj = np.inf
    best_masks = list(masks)
    while True:
        worst = 0.0
        for j in range(k):
            d = float(tables[j][masks[j]])
            if prune and d > best_obj:
                worst = np.inf
                break
            if d > worst:
                worst = d
        if worst < best_obj:
            best_obj = worst
            best_masks = list(masks)
        # odometer increment
        p = 0
        while p < nf and digits[p] == k - 1:
            masks[k - 1] ^= 1 << p
            masks[0] |= 1 << p
            digits[p] = 0
            p += 1
        if p == nf:
            break
        masks[digits[p]] ^= 1 << p
        digits[p] += 1
        masks[digits[p]] |= 1 << p

    tours = []
    for j, v in enumerate(inst.vehicles):
        ids = {free[p] for p in range(nf) if best_masks[j] >> p & 1}
        ids |= inst.required_for(v.id)
        tours.append(solve_tsp(request_for(inst, v.id, ids, EXACT)))
    return Solution(tuple(tours))
