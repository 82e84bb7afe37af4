"""Problem data model: instances, tours, solutions, and the travel-time metric.

A fleet of vehicles with individual speeds and depots must jointly visit a set
of planar targets.  Some targets may be pre-assigned to a specific vehicle;
the rest are free.  Travel time between two points is Euclidean distance
divided by the vehicle's speed, so the metric is symmetric and satisfies the
triangle inequality for every vehicle.
"""

import copy
import math
import sys
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

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


class CapacityError(SolverError):
    """Exact tour solve requested for more targets than the subset cap allows."""


class InfeasibleAllocationError(SolverError):
    """Load-balancing lower bounds cannot be met by the available free targets."""


class OracleBudgetError(SolverError):
    """Instance is too large for the exact oracle's budget."""


class NoInsertionCandidateError(SolverError):
    """No receiving vehicle exists for a transfer (single-vehicle fleet)."""


class StageCheckError(SolverError):
    """A pipeline stage produced a plan that fails ``validate_solution``."""


class InvalidConfigError(SolverError, ValueError):
    """A solver setting names an unknown mode or lies outside its range."""


@dataclass(frozen=True)
class Point:
    x: float
    y: float


@dataclass(frozen=True)
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
    inputs give equal bits in every stage.
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


def _plain(value):
    # Numpy scalars, also in a Point or Vehicle, as the Python numbers they hold: beside a
    # Python float, a numpy scalar casts the float to its own dtype (in float32, SPEED_MIN
    # rounds to 0, the float max overflows and tour durations lose half their digits).
    if isinstance(value, Point):
        x, y = _plain(value.x), _plain(value.y)
        return value if x is value.x and y is value.y else Point(x, y)
    if isinstance(value, Vehicle):
        return Vehicle(_plain(value.id), _plain(value.speed), _plain(value.depot))
    return value.item() if isinstance(value, np.generic) else value


def is_point(p, limit=COORD_LIMIT) -> bool:
    """True for a Point whose coordinates pass ``is_real`` with magnitude at most
    ``limit``; NaN fails the comparison, and a huge int compares exactly, never
    overflowing."""
    return (isinstance(p, Point) and is_real(p.x) and is_real(p.y)
            and abs(_plain(p.x)) <= limit and abs(_plain(p.y)) <= limit)


def is_speed(s) -> bool:
    """True for a speed that passes ``is_real`` and lies in [SPEED_MIN, float max]
    (NaN and huge ints fail)."""
    return is_real(s) and SPEED_MIN <= _plain(s) <= sys.float_info.max


class _ReadOnlyDict(Mapping):
    """A dict that cannot be changed after construction; pickles and copies."""

    __slots__ = ("_data",)

    def __init__(self, data):
        self._data = dict(data)

    def __getitem__(self, key):
        return self._data[key]

    def __iter__(self):
        return iter(self._data)

    def __len__(self):
        return len(self._data)

    def __repr__(self):
        return repr(self._data)

    def __reduce__(self):
        return _ReadOnlyDict, (self._data,)


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
              pairwise disjoint; kept as a read-only mapping from vehicle id
              to a frozenset.  Keys must be integers in 1..k and indices in
              0..n-1 (numpy integers pass, bools and floats do not).

    Numpy scalars in targets, vehicles and moved depots are kept as Python numbers.
    Instances are validated on construction and frozen, since distance data is
    cached lazily and shared by all solver stages; ``with_depots`` makes a
    changed copy with its own cache, whose moved depots need only be finite
    points of fleet vehicles.  Bad input raises InvalidInstanceError.
    """

    targets: tuple
    vehicles: tuple
    required: dict | None = None

    def __post_init__(self):
        raw = {} if self.required is None else self.required
        if not isinstance(raw, Mapping):
            raise InvalidInstanceError(
                f"required must map vehicle ids to target indices, got {raw!r}")
        for name, value in (("targets", self.targets), ("vehicles", self.vehicles)):
            if not isinstance(value, Iterable):
                raise InvalidInstanceError(f"{name} must be an iterable, got {value!r}")
            object.__setattr__(self, name, tuple(_plain(item) for item in value))
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
        object.__setattr__(self, "required", _ReadOnlyDict(required))
        object.__setattr__(self, "_cache", {})

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
        taken = set().union(*self.required.values()) if self.required else set()
        return tuple(t for t in range(self.n_targets) if t not in taken)

    def target_xy(self) -> np.ndarray:
        """(n, 2) array of target coordinates, cached."""
        xy = self._cache.get("xy")
        if xy is None:
            xy = np.array([[t.x, t.y] for t in self.targets], dtype=float)
            self._cache["xy"] = xy
        return xy

    def _matrices(self, vid: int) -> tuple:
        # (distances, travel times) of one vehicle, cached under its checked id.
        v = self.vehicle(vid)
        mats = self._cache.get(v.id)
        if mats is None:
            pts = np.vstack([self.target_xy(), [float(v.depot.x), float(v.depot.y)]])
            dm = distances(pts, pts)
            mats = self._cache[v.id] = (dm, dm / v.speed)
        return mats

    def distance_matrix(self, vid: int) -> np.ndarray:
        """(n+1, n+1) distances for one vehicle, cached; row/col DEPOT is its depot."""
        return self._matrices(vid)[0]

    def time_matrix(self, vid: int) -> np.ndarray:
        """(n+1, n+1) travel times for one vehicle, cached: its
        ``distance_matrix`` divided by its speed; row/col DEPOT is its depot."""
        return self._matrices(vid)[1]

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
        moved = copy.copy(self)
        object.__setattr__(moved, "vehicles", tuple(
            Vehicle(v.id, v.speed, _plain(depots.get(v.id, v.depot))) for v in self.vehicles
        ))
        object.__setattr__(moved, "_cache", {})
        return moved


@dataclass(frozen=True)
class Tour:
    """One vehicle's closed route: (DEPOT, t_1, ..., t_m, DEPOT)."""

    vehicle_id: int
    sequence: tuple
    duration: float

    def targets(self) -> tuple:
        return tuple(v for v in self.sequence if v != DEPOT)


@dataclass(frozen=True)
class Solution:
    """A complete plan, one tour per vehicle, ordered by vehicle id."""

    tours: tuple

    def __post_init__(self):
        tours = tuple(self.tours) if isinstance(self.tours, Iterable) else None
        if tours is None or not all(isinstance(t, Tour) and is_integer(t.vehicle_id)
                                    for t in tours):
            raise InvalidInstanceError("every tour of a Solution must be a Tour with an"
                                       f" integer vehicle id, got {self.tours!r}")
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

    def targets_of(self, vid: int) -> frozenset:
        return frozenset(self.tour_for(vid).targets())

    def replace(self, *new_tours: Tour) -> "Solution":
        """New solution with the given vehicles' tours swapped in."""
        table = {t.vehicle_id: t for t in self.tours}
        for t in new_tours:
            table[t.vehicle_id] = t
        return Solution(tuple(table.values()))

    def maximal_vehicle(self) -> int:
        """Id of a vehicle with maximum tour duration (ties: lowest id)."""
        best = self.tours[0]
        for t in self.tours[1:]:
            if t.duration > best.duration:
                best = t
        return best.vehicle_id


def check_instance(inst) -> None:
    """Raise InvalidInstanceError unless ``inst`` is an Instance."""
    if not isinstance(inst, Instance):
        raise InvalidInstanceError(f"inst must be an Instance, got {inst!r}")


def check_solution(sol) -> None:
    """Raise InvalidInstanceError unless ``sol`` is a Solution."""
    if not isinstance(sol, Solution):
        raise InvalidInstanceError(f"sol must be a Solution, got {sol!r}")


def tour_duration(inst: Instance, tour: Tour) -> float:
    """Recompute a tour's duration by summing edge travel times along it."""
    check_instance(inst)
    seq = tour.sequence
    if len(seq) < 2 or seq[0] != DEPOT or seq[-1] != DEPOT:
        raise ValueError("tour sequence must start and end at the vehicle's depot")
    tm = inst.time_matrix(tour.vehicle_id)
    total = 0.0
    for a, b in zip(seq, seq[1:]):
        total += tm[a, b]
    return total


def validate_solution(inst: Instance, sol: Solution) -> list:
    """Check a solution against an instance and return violation messages.

    Total over type-correct input: malformed data yields violation entries,
    never an exception; an ``inst`` that is not an Instance raises
    InvalidInstanceError, as does an ``sol`` that is not a Solution.  An empty
    list means the solution is feasible.
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
        seq = tour.sequence
        if len(seq) < 2 or seq[0] != DEPOT or seq[-1] != DEPOT:
            out.append(f"tour {tour.vehicle_id} does not start and end at its depot")
            continue
        broken = False
        for v in seq[1:-1]:
            if v == DEPOT:
                out.append(f"tour {tour.vehicle_id} visits a depot mid-sequence")
                broken = True
            elif not 0 <= v < inst.n_targets:
                out.append(f"tour {tour.vehicle_id} references unknown target {v}")
                broken = True
            elif v in seen:
                out.append(f"target {v} visited by vehicle {seen[v]} and vehicle {tour.vehicle_id}")
            else:
                seen[v] = tour.vehicle_id
        if broken:
            continue  # duration is meaningless once the sequence itself is bad
        real = tour_duration(inst, tour)
        if not math.isclose(real, tour.duration, rel_tol=1e-9, abs_tol=1e-12):
            out.append(f"tour {tour.vehicle_id} duration {tour.duration} != recomputed {real}")

    for t in range(inst.n_targets):
        if t not in seen:
            out.append(f"target {t} is not visited")
    for vid, req in sorted(inst.required.items()):
        for t in sorted(req):
            owner = seen.get(t)
            if owner is not None and owner != vid:
                out.append(f"required target {t} rides with vehicle {owner}, must be {vid}")
    return out
