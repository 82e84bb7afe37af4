"""Problem data model: instances, tours, solutions, and the travel-time metric.

A fleet of vehicles with individual speeds and depots must jointly visit a set
of planar targets.  Some targets may be pre-assigned to a specific vehicle;
the rest are free.  Travel time between two points is Euclidean distance
divided by the vehicle's speed, so the metric is symmetric and satisfies the
triangle inequality for every vehicle.
"""

import math
import os
import sys
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

# Sentinel vertex id marking a vehicle's own depot inside a tour sequence.
# Target identity is always an index into Instance.targets; depots are a
# separate vertex kind and never alias a target index.  Every per-vehicle
# matrix keeps the depot in its last row and column, which DEPOT = -1 indexes,
# so a tour sequence indexes the matrices as it stands.
DEPOT = -1


class SolverError(Exception):
    """Base class for solver failures."""


class InvalidInstanceError(SolverError, ValueError):
    """Instance data violates a structural invariant."""


class InfeasibleAllocationError(SolverError):
    """Load-balancing lower bounds cannot be met by the available free targets."""


class OracleBudgetError(SolverError):
    """Instance is too large for the exact oracle's budget."""


class StageCheckError(SolverError):
    """A pipeline stage produced a plan that fails ``validate_solution``."""


class InvalidConfigError(SolverError, ValueError):
    """A solver setting names an unknown mode or lies outside its range."""


@dataclass(frozen=True, slots=True)
class Point:
    x: float
    y: float


@dataclass(frozen=True, slots=True)
class Vehicle:
    """A vehicle with a 1-based id, a positive speed, and a home depot."""

    id: int
    speed: float
    depot: Point


# Largest accepted coordinate magnitude C and least accepted vehicle speed S.
# Every distance is then below 3 C, and stage 3 moves a depot by at most half
# its tour's two depot edges over the speed, below 3 C / S.  Distances on the
# displaced geometry stay below 9 C / S, and a tour of n targets there takes
# below 9 (n + 1) C / S**2 = 9e250 (n + 1) time, far below float overflow
# (about 1.8e308).
COORD_LIMIT = 1e150
SPEED_MIN = 1e-50


def distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) Euclidean distances between two (., 2) point arrays.

    The package's one distance kernel: travel times, tour distance blocks,
    displacement radii and allocation costs are all computed by it, so equal
    inputs give equal bits in every stage.  ``distances(p, p)`` is exactly
    symmetric: IEEE subtraction is antisymmetric (y - x == -(x - y)) and
    hypot(-x, -y) == hypot(x, y), so entry (j, i) has the bits of entry
    (i, j), and so has every travel-time matrix divided from it.  Stage 2
    relies on this: it reads tm[a, t] for tm[t, a].
    """
    diff = a[:, None, :] - b[None, :, :]
    return np.hypot(diff[..., 0], diff[..., 1])


def is_integer(value) -> bool:
    """True for an int that is not a bool, or a numpy integer scalar."""
    return type(value) is int or isinstance(value, np.integer)


def is_real(value) -> bool:
    """True for an int that is not a bool, a float, or a numpy integer or
    floating scalar; any other number (a Fraction, a Decimal) fails."""
    return type(value) in (int, float) or isinstance(value, (np.integer, np.floating))


def plain(value):
    """``value`` with each numpy scalar in it, also in a Point, Vehicle or tuple, as
    the Python number it holds.  Beside a Python number, a numpy scalar computes in
    its own dtype: in float32, SPEED_MIN rounds to 0, the float max overflows and
    tour durations lose half their digits."""
    if isinstance(value, Point):
        x, y = plain(value.x), plain(value.y)
        return value if x is value.x and y is value.y else Point(x, y)
    if isinstance(value, Vehicle):
        return Vehicle(plain(value.id), plain(value.speed), plain(value.depot))
    if isinstance(value, tuple):
        return tuple(plain(item) for item in value)
    return value.item() if isinstance(value, np.generic) else value


def is_point(p, limit=COORD_LIMIT) -> bool:
    """True for a Point whose coordinates pass ``is_real`` with magnitude at most
    ``limit``; NaN fails the comparison, and a huge int compares exactly, never
    overflowing."""
    return (isinstance(p, Point) and is_real(p.x) and is_real(p.y)
            and abs(plain(p.x)) <= limit and abs(plain(p.y)) <= limit)


def is_speed(s) -> bool:
    """True for a speed that passes ``is_real`` and lies in [SPEED_MIN, float max]
    (NaN and huge ints fail)."""
    return is_real(s) and SPEED_MIN <= plain(s) <= sys.float_info.max


@dataclass(frozen=True)
class Instance:
    """An immutable routing instance.

    targets:  planar target Points; a target is referred to by its index.
              Every target and depot passes ``is_point``: coordinates that
              pass ``is_real`` (ints, floats and numpy scalars; not bools,
              Fractions or strings) within +-COORD_LIMIT.
    vehicles: fleet of Vehicles ordered by id (integer ids exactly 1..k),
              each with a speed that passes ``is_speed``.
    required: a mapping of vehicle id to an iterable of target indices,
              pairwise disjoint; kept as a ``types.MappingProxyType`` from
              vehicle id to a frozenset, which takes no part in the hash
              (equal instances still hash equal).  Keys must be integers in
              1..k and indices in 0..n-1 (numpy integers pass; bools,
              strings and floats, 1.0 too, do not).

    Numpy scalars in targets, vehicles and moved depots are kept as Python numbers.
    Instances are validated on construction and frozen, since what is derived
    from them is cached lazily in one ``_cache`` and shared by all solver
    stages; ``with_depots`` makes a changed copy whose moved depots need only
    be finite points of fleet vehicles.  Bad input raises InvalidInstanceError.
    Pickling and copying rebuild an instance from its targets, vehicles and
    required sets, so the copy is validated again; every copy starts with an
    empty cache.
    """

    targets: tuple
    vehicles: tuple
    required: dict | None = field(default=None, hash=False)

    def __post_init__(self):
        raw = {} if self.required is None else self.required
        if not isinstance(raw, Mapping):
            raise InvalidInstanceError(
                f"required must map vehicle ids to target indices, got {raw!r}")
        for name, value in (("targets", self.targets), ("vehicles", self.vehicles)):
            if not isinstance(value, Iterable):
                raise InvalidInstanceError(f"{name} must be an iterable, got {value!r}")
            object.__setattr__(self, name, tuple(plain(item) for item in value))
        if len(self.targets) < 1:
            raise InvalidInstanceError("instance needs at least one target")
        if len(self.vehicles) < 1:
            raise InvalidInstanceError("instance needs at least one vehicle")
        for i, t in enumerate(self.targets):
            if not is_point(t):
                raise InvalidInstanceError(
                    f"target {i} {t!r} is not a Point with finite int or float coordinates"
                    f" of magnitude at most {COORD_LIMIT:g}")
        for pos, v in enumerate(self.vehicles, start=1):
            if not (isinstance(v, Vehicle) and is_integer(v.id) and v.id == pos):
                raise InvalidInstanceError(
                    f"vehicle {pos} is {v!r}: vehicles must be Vehicles with ids"
                    f" exactly 1..k in order")
            if not is_speed(v.speed):
                raise InvalidInstanceError(
                    f"vehicle {v.id} speed {v.speed!r} is not an int or float from"
                    f" {SPEED_MIN:g} to {sys.float_info.max:g}")
            if not is_point(v.depot):
                raise InvalidInstanceError(
                    f"vehicle {v.id} depot {v.depot!r} is not a Point with finite int or float"
                    f" coordinates of magnitude at most {COORD_LIMIT:g}")
        required, owner = {}, {}
        for vid, ids in raw.items():
            self._check_vid(vid)
            if not isinstance(ids, Iterable):
                raise InvalidInstanceError(
                    f"required set of vehicle {vid} is {ids!r}, not an iterable")
            ids = tuple(ids)
            for t in ids:
                if not (is_integer(t) and 0 <= t < self.n_targets):
                    raise InvalidInstanceError(
                        f"required target index {t!r} is not an integer in 0..{self.n_targets - 1}")
                if owner.setdefault(int(t), vid) != vid:
                    raise InvalidInstanceError(f"target {t} appears in two required sets")
            if ids:
                required[int(vid)] = frozenset(int(t) for t in ids)
        object.__setattr__(self, "required", MappingProxyType(required))
        object.__setattr__(self, "_cache", {})

    def __reduce__(self):
        return Instance, (self.targets, self.vehicles, dict(self.required))

    # -- accessors ---------------------------------------------------------

    @property
    def n_targets(self) -> int:
        return len(self.targets)

    @property
    def k(self) -> int:
        return len(self.vehicles)

    def _check_vid(self, vid) -> None:
        if not (is_integer(vid) and 1 <= vid <= self.k):
            raise InvalidInstanceError(f"vehicle id {vid!r} is not an integer in 1..{self.k}")

    def vehicle(self, vid: int) -> Vehicle:
        self._check_vid(vid)
        return self.vehicles[vid - 1]

    def required_for(self, vid: int) -> frozenset:
        self._check_vid(vid)
        return self.required.get(vid, frozenset())

    def free_targets(self) -> tuple:
        """Indices of targets not pre-assigned to any vehicle, ascending."""
        taken = set().union(*self.required.values())
        return tuple(t for t in range(self.n_targets) if t not in taken)

    def target_xy(self) -> np.ndarray:
        """(n, 2) array of target coordinates, cached."""
        xy = self._cache.get("xy")
        if xy is None:
            xy = np.array([[t.x, t.y] for t in self.targets], dtype=float)
            self._cache["xy"] = xy
        return xy

    def _matrices(self, v: Vehicle) -> tuple:
        # (distances, travel times) of a vehicle of this fleet, cached under its id.
        mats = self._cache.get(v.id)
        if mats is None:
            pts = np.vstack([self.target_xy(), [float(v.depot.x), float(v.depot.y)]])
            dm = distances(pts, pts)
            mats = self._cache[v.id] = (dm, dm / v.speed)
        return mats

    def distance_matrix(self, vid: int) -> np.ndarray:
        """(n+1, n+1) distances for one vehicle, cached; row/col DEPOT is its depot."""
        return self._matrices(self.vehicle(vid))[0]

    def time_matrix(self, vid: int) -> np.ndarray:
        """(n+1, n+1) travel times for one vehicle, cached: its
        ``distance_matrix`` divided by its speed; row/col DEPOT is its depot."""
        return self._matrices(self.vehicle(vid))[1]

    def distance_block(self, vid: int, targets) -> np.ndarray:
        """(m+1, m+1) block of ``distance_matrix``: the given targets in the
        given order, then the depot (last row/col)."""
        ix = [*targets, DEPOT]
        return self.distance_matrix(vid).take(ix, 0).take(ix, 1)

    def with_depots(self, depots: Mapping) -> "Instance":
        """Copy of this instance with some vehicle depots replaced.

        ``depots`` must map fleet vehicle ids to Points that pass
        ``is_point(p, sys.float_info.max)``: COORD_LIMIT bounds the input so
        that stage 3, which may move a depot past the limit, stays finite.
        """
        if not isinstance(depots, Mapping):
            raise InvalidInstanceError(f"depots must map vehicle ids to Points, got {depots!r}")
        for vid, p in depots.items():
            self._check_vid(vid)
            if not is_point(p, sys.float_info.max):
                raise InvalidInstanceError(f"depot {p!r} of vehicle {vid} is not a finite Point")
        # Not built through __init__, which would check the depots against COORD_LIMIT.
        moved = object.__new__(Instance)
        moved.__dict__.update(self.__dict__, _cache={}, vehicles=tuple(
            Vehicle(v.id, v.speed, plain(depots.get(v.id, v.depot))) for v in self.vehicles))
        return moved


@dataclass(frozen=True, slots=True)
class Tour:
    """One vehicle's closed route: (DEPOT, t_1, ..., t_m, DEPOT)."""

    vehicle_id: int
    sequence: tuple
    duration: float

    def targets(self) -> tuple:
        """The visited targets in order, ``sequence[1:-1]``; whether a
        sequence is well formed is judged by ``validate_solution``."""
        return self.sequence[1:-1]


@dataclass(frozen=True, slots=True)
class Solution:
    """A complete plan, one tour per vehicle, ordered by vehicle id."""

    tours: tuple

    def __post_init__(self):
        tours = tuple(self.tours) if isinstance(self.tours, Iterable) else None
        if tours is None or not all(isinstance(t, Tour) and is_integer(t.vehicle_id)
                                    for t in tours):
            raise InvalidInstanceError("every tour of a Solution must be a Tour with an"
                                       f" integer vehicle id, got {self.tours!r}")
        if not tours:
            raise InvalidInstanceError("a Solution needs at least one tour")
        object.__setattr__(self, "tours", tuple(sorted(tours, key=lambda t: t.vehicle_id)))

    @property
    def objective(self) -> float:
        """Makespan: the maximum tour duration across the fleet."""
        return max(t.duration for t in self.tours)

    def tour_for(self, vid: int) -> Tour:
        """The tour of vehicle ``vid``, which must sit at position ``vid``."""
        tours = self.tours
        if is_integer(vid) and 1 <= vid <= len(tours) and tours[vid - 1].vehicle_id == vid:
            return tours[vid - 1]
        raise InvalidInstanceError(f"vehicle id {vid!r} names no tour of this solution")

    def replace(self, *new_tours: Tour) -> "Solution":
        """New solution with the given vehicles' tours swapped in."""
        table = {t.vehicle_id: t for t in self.tours}
        for t in new_tours:
            table[t.vehicle_id] = t
        return Solution(tuple(table.values()))

    def maximal_vehicle(self) -> int:
        """Id of a vehicle with maximum tour duration (ties: lowest id)."""
        return max(self.tours, key=lambda t: t.duration).vehicle_id


def check_instance(inst) -> None:
    """Raise InvalidInstanceError unless ``inst`` is an Instance."""
    if not isinstance(inst, Instance):
        raise InvalidInstanceError(f"inst must be an Instance, got {inst!r}")


def check_solution(sol) -> None:
    """Raise InvalidInstanceError unless ``sol`` is a Solution."""
    if not isinstance(sol, Solution):
        raise InvalidInstanceError(f"sol must be a Solution, got {sol!r}")


def check_path(path):
    """``os.fspath(path)`` for a str, bytes or os.PathLike; anything else, a
    file descriptor included, raises InvalidConfigError."""
    try:
        return os.fspath(path)
    except TypeError:
        raise InvalidConfigError(f"path must be a str, bytes or os.PathLike,"
                                 f" got {path!r}") from None


def read_text(path) -> str:
    """The text of the UTF-8 file at a path that passes ``check_path``."""
    with open(check_path(path), encoding="utf-8") as fh:
        return fh.read()


def write_text(path, text: str) -> None:
    """Write ``text`` as the whole UTF-8 file at a path that passes ``check_path``."""
    with open(check_path(path), "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _is_depot(v) -> bool:
    return is_integer(v) and v == DEPOT


def _walk(inst: Instance, tour: Tour):
    # The one judge of a tour's sequence: None unless it is a tuple or list
    # framed by DEPOT, else per inner vertex, in order, whether it is a target
    # index of inst (an integer in 0..n-1).
    seq = tour.sequence
    if not (isinstance(seq, (tuple, list)) and len(seq) >= 2
            and _is_depot(seq[0]) and _is_depot(seq[-1])):
        return None
    n = inst.n_targets
    return [is_integer(v) and 0 <= v < n for v in seq[1:-1]]


def check_tour(inst: Instance, tour) -> None:
    """Raise InvalidInstanceError unless ``tour`` is a Tour whose sequence
    (a tuple or list) starts and ends at DEPOT and in between holds only
    target indices of ``inst``, each an integer (numpy integers pass; bools,
    floats and strings do not) in 0..n-1."""
    if not isinstance(tour, Tour):
        raise InvalidInstanceError(f"tour must be a Tour, got {tour!r}")
    is_target = _walk(inst, tour)
    if is_target is None:
        raise InvalidInstanceError("tour sequence must start and end at the vehicle's depot")
    if not all(is_target):
        t = tour.sequence[1 + is_target.index(False)]
        raise InvalidInstanceError(
            f"tour vertex {t!r} is not a target index in 0..{inst.n_targets - 1}")


def tour_duration(inst: Instance, tour: Tour) -> float:
    """Recompute a tour's duration by summing edge travel times along it, as a
    Python float: the edges are gathered in one step and added left to right.

    ``tour`` must be a Tour of a fleet vehicle that passes ``check_tour``;
    anything else raises InvalidInstanceError, which is a ValueError.
    """
    check_instance(inst)
    check_tour(inst, tour)
    return _summed_hops(inst, tour)


def _summed_hops(inst: Instance, tour: Tour) -> float:
    # tour_duration's sum, for a tour of a fleet vehicle that _walk has passed.
    ix = np.array(tour.sequence)
    total = 0.0
    for hop in inst.time_matrix(tour.vehicle_id)[ix[:-1], ix[1:]].tolist():
        total += hop
    return total


def validate_solution(inst: Instance, sol: Solution) -> list:
    """Check a solution against an instance and return violation messages.

    Total over type-correct input: malformed data yields violation entries,
    never an exception (a tour vertex that is not an integer, such as True,
    1.0 or "1", is an unknown target; a sequence that is no tuple or list has
    no depot frame); an ``inst`` that is not an Instance, or a ``sol`` that is
    not a Solution, raises InvalidInstanceError.  An empty list means the
    solution is feasible.
    """
    check_instance(inst)
    check_solution(sol)
    out = []
    ids = sorted(t.vehicle_id for t in sol.tours)
    if ids != list(range(1, inst.k + 1)):
        out.append(f"solution must carry exactly one tour per vehicle 1..{inst.k}, got ids {ids}")
        return out

    seen = {}
    for tour in sol.tours:
        is_target = _walk(inst, tour)
        if is_target is None:
            out.append(f"tour {tour.vehicle_id} does not start and end at its depot")
            continue
        for v, ok in zip(tour.sequence[1:-1], is_target):
            if not ok:
                out.append(f"tour {tour.vehicle_id} visits a depot mid-sequence" if _is_depot(v)
                           else f"tour {tour.vehicle_id} references unknown target {v!r}")
            elif v in seen:
                out.append(f"target {v} visited by vehicle {seen[v]} and vehicle {tour.vehicle_id}")
            else:
                seen[v] = tour.vehicle_id
        if not all(is_target):
            continue  # duration is meaningless once the sequence itself is bad
        real = _summed_hops(inst, tour)
        if not (is_real(tour.duration)
                and math.isclose(real, tour.duration, rel_tol=1e-9, abs_tol=1e-12)):
            out.append(f"tour {tour.vehicle_id} duration {tour.duration!r} != recomputed {real}")

    for t in range(inst.n_targets):
        if t not in seen:
            out.append(f"target {t} is not visited")
    for vid, req in sorted(inst.required.items()):
        for t in sorted(req):
            owner = seen.get(t)
            if owner is not None and owner != vid:
                out.append(f"required target {t} rides with vehicle {owner}, must be {vid}")
    return out
