"""Exhaustive search for the best joint schedule of two routes.

The search walks every combination of candidate route pair, per-path
spacing, and per-path traversal count, evaluates the closed-form joint
rate for each, and materializes the winning schedule. Candidates whose
spacing is not reachable on its chain are skipped but kept in the log,
so a run documents the whole grid it covered.

Route candidates either come fixed from the caller or are enumerated as
simple paths through a connectivity graph with known vertex positions.
Each route's own interference, reachable spacings and phase subsets are
worked out once, as bitmasks over its senders; each candidate pair adds
only the disk-model conflicts between its two routes, so routes that bend
closer to each other genuinely pay for it. Only the winning pair is built
as a PathPair; its masks and each route's come from `model._disk_masks`.

A grid point's tiled sizes depend only on its joint core (see
`matching._core`), and they follow from the core's hull covers, which no
traversal cap enters. The process keeps the covers of the
`_COVER_CACHE_SIZE` (1,024) cores it used last, keyed by the core, so a
core that recurs across searches is searched and certified once.
Each `beatsched` CLI call is a new process and starts with none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, NamedTuple, Sequence

from .analysis import _best_clique
from .errors import ConfigurationError, ConsistencyError, DomainError
from .matching import _core, _cover_table, _hull_covers
from .model import (
    PathPair,
    PrimaryPath,
    _Ends,
    _check_counts,
    _check_half_duplex,
    _check_radius,
    _disk_masks,
    _disk_row,
    _point,
    _union,
)
from .periods import _first_bad, _joint_rows, _local_phases
from .scheduler import Schedule, schedule_pair_unequal


# cores whose covers a process keeps; an entry is O(rows + columns) ints,
# about 1 KB on grid-graph routes, whose searches meet a few hundred cores
_COVER_CACHE_SIZE = 1024

# a failed certificate raises, and lru_cache keeps nothing of the call
_covers = lru_cache(maxsize=_COVER_CACHE_SIZE)(_hull_covers)


class _PointError(ConfigurationError):
    """A route's refusal of one of its points: the point's 0-based `index`
    and the `problem` as `_point` words it, so a caller can name the point
    its own way."""

    def __init__(self, index: int, problem: str, label: str):
        super().__init__(f"position of node {index + 1} of route {label!r} {problem}")
        self.index, self.problem = index, problem


@dataclass(frozen=True)
class RouteCandidate:
    """Sender positions of one route plus the final receiver position.

    points[k] is where the (k+1)-th sender stands; the last entry is the
    destination. A route with m points therefore has m-1 senders. Points
    are given as for GeometricTopology and converted on construction to
    (x, y) pairs by `model._point`; a bad point is refused with a
    `_PointError` that names the route's label and the point's 1-based
    position.
    """

    points: tuple[tuple[float, float], ...]
    label: str = ""

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise DomainError(
                "a route needs at least one sender and a destination, "
                f"got {len(self.points)} points"
            )
        points = []
        try:
            for point in self.points:
                points.append(_point(point))
        except ConfigurationError as exc:
            raise _PointError(len(points), str(exc), self.label) from None
        object.__setattr__(self, "points", tuple(points))

    @property
    def n_senders(self) -> int:
        return len(self.points) - 1


def _simple_paths(
    graph: Mapping[str, Iterable[str]], source: str, destination: str, max_hops: int
) -> list[tuple[str, ...]]:
    """Every simple path from source to a different destination with at most
    max_hops hops, by depth-first search over an explicit stack of neighbour
    iterators. A path grows only while one more hop still fits."""
    found = []
    path = [source]
    stack = [iter(graph[source])]
    while stack:
        vertex = next(stack[-1], None)
        if vertex is None:
            stack.pop()
            path.pop()
        elif vertex == destination:
            found.append((*path, vertex))
        elif vertex not in path and len(path) < max_hops:
            path.append(vertex)
            stack.append(iter(graph[vertex]))
    return found


def routes_from_graph(
    adjacency: Mapping[str, Iterable[str]],
    positions: Mapping[str, Sequence[float]],
    source: str,
    destination: str,
    max_hops: int,
) -> tuple[RouteCandidate, ...]:
    """All simple source-to-destination paths with at most max_hops hops.

    Vertices are positioned points; each enumerated path becomes a route
    whose senders are every vertex except the final one. The result is
    sorted by hop count then vertex names, so enumeration order never
    depends on dict ordering.
    """
    _check_counts(f"max_hops must be >= 1, got {max_hops}", max_hops=max_hops)
    graph: dict[str, set[str]] = {vertex: set() for vertex in adjacency}
    for vertex, neighbors in adjacency.items():
        for other in neighbors:
            graph[vertex].add(other)
            graph.setdefault(other, set()).add(vertex)
    for vertex in (source, destination):
        if vertex not in graph:
            raise DomainError(f"vertex {vertex!r} is not in the graph")
    if source == destination:
        found = [(source,)]  # a route without senders, which RouteCandidate rejects
    else:
        found = _simple_paths(graph, source, destination, max_hops)
    found.sort(key=lambda p: (len(p), p))
    routes = []
    for path in found:
        for vertex in path:
            if vertex not in positions:
                raise DomainError(f"vertex {vertex!r} has no position")
        routes.append(RouteCandidate(points=tuple(positions[vertex] for vertex in path), label="-".join(path)))
    return tuple(routes)


@dataclass(frozen=True)
class DiskScenario:
    """Interference context shared by all candidate route pairs; the radius
    and duplex mode are checked on construction, as GeometricTopology
    checks its own."""

    interference_radius: float
    half_duplex: bool = True

    def __post_init__(self) -> None:
        _check_radius(self.interference_radius)
        _check_half_duplex(self.half_duplex)


@dataclass(frozen=True)
class SearchSpace:
    """The finite grid the optimizer walks exhaustively.

    Period ranges are optional; when absent each route pair uses the
    full range from its interference intensity up to its sender count.
    A given range must be a pair of ints (lo, hi) with 1 <= lo <= hi, and
    is stored as a tuple. It is clamped into that window, since nothing
    below the intensity is reachable and nothing above the sender count
    names a valid spacing.
    """

    routes1: tuple[RouteCandidate, ...]
    routes2: tuple[RouteCandidate, ...]
    period_range1: tuple[int, int] | None = None
    period_range2: tuple[int, int] | None = None
    max_traversals: int = 4

    def __post_init__(self) -> None:
        _check_counts(f"max_traversals must be >= 1, got {self.max_traversals}", max_traversals=self.max_traversals)
        for name in ("period_range1", "period_range2"):
            given = getattr(self, name)
            if given is None:
                continue
            pair = isinstance(given, (tuple, list)) and len(given) == 2 and all(type(v) is int for v in given)
            if not (pair and 1 <= given[0] <= given[1]):
                raise DomainError(f"{name} must be a pair of ints (lo, hi) with 1 <= lo <= hi, got {given!r}")
            object.__setattr__(self, name, tuple(given))


class LoggedCandidate(NamedTuple):
    """One grid point: either an evaluated rate or the reason it was skipped."""

    route1: int
    route2: int
    period1: int
    period2: int
    traversals1: int
    traversals2: int
    support_size: int | None
    period: int | None
    throughput: Fraction | None
    note: str


# builds a LoggedCandidate from a tuple of its fields in C, without the
# NamedTuple's Python-level __new__, for the grid's inner loop
_new_entry = tuple.__new__


@dataclass
class OptimizationResult:
    best_routes: tuple[RouteCandidate, RouteCandidate]
    best_route_indices: tuple[int, int]
    best_period1: int
    best_period2: int
    best_traversals1: int
    best_traversals2: int
    best_support_size: int
    best_throughput: Fraction
    schedule: Schedule
    pair: PathPair
    search_log: list[LoggedCandidate] = field(default_factory=list)


class _RouteProfile(NamedTuple):
    """What the search needs of one route, whatever it is paired with.

    `ends` holds each sender's position and its receiver's; the disk model
    relates two senders of one route through that route's points only.
    `phases` maps each spacing of the clamped range to its route-local
    phase masks, or to None when the spacing is not reachable.
    """

    ends: list[_Ends]
    intensity: int
    phases: dict[int, list[int] | None]


def _route_masks(scenario: DiskScenario, route: RouteCandidate) -> tuple[list[_Ends], list[int]]:
    """A route's sender ends and route-local conflict masks: conflicts[k] is
    the mask of the senders that interfere with sender k+1."""
    points = route.points
    return list(zip(points, points[1:])), _disk_masks((points,), scenario.interference_radius, scenario.half_duplex)


def _cross_masks(radius: float, ends1: Sequence[_Ends], ends2: Sequence[_Ends]) -> list[int]:
    """cross[i] is the route-2-local mask of the senders that interfere with
    route-1 sender i+1; half-duplex links never cross routes."""
    return [_disk_row(tx, rx, ends2, radius) for tx, rx in ends1]


def materialize_pair(
    scenario: DiskScenario, route1: RouteCandidate, route2: RouteCandidate
) -> PathPair:
    """Concrete chain pair for one candidate route combination, related by
    the disk model as derive_relation relates a topology of both routes."""
    conflicts = _disk_masks((route1.points, route2.points), scenario.interference_radius, scenario.half_duplex)
    return PathPair._from_conflicts(PrimaryPath(1, route1.n_senders), PrimaryPath(2, route2.n_senders), conflicts)


def _clamped_range(
    given: tuple[int, int] | None, intensity: int, n_senders: int
) -> tuple[int, int]:
    lo, hi = given if given is not None else (intensity, n_senders)
    return max(lo, intensity), min(hi, n_senders)


def _route_profile(scenario: DiskScenario, route: RouteCandidate, given: tuple[int, int] | None) -> _RouteProfile:
    ends, conflicts = _route_masks(scenario, route)
    n = len(ends)
    intensity = _best_clique(conflicts, (1 << n) - 1).bit_count()
    lo, hi = _clamped_range(given, intensity, n)
    phases: dict[int, list[int] | None] = {}
    for spacing in range(lo, hi + 1):
        masks = _local_phases(n, spacing)
        phases[spacing] = masks if _first_bad(conflicts, masks) is None else None
    return _RouteProfile(ends, intensity, phases)


def optimize(scenario: DiskScenario, space: SearchSpace) -> OptimizationResult:
    """Walk the whole grid and return the best candidate, fully logged.

    Rate ties fall to the shorter period, then to the lexicographically
    smallest (route indices, spacings, traversal counts), so reruns pick
    the same winner.

    Each route is profiled once (see _RouteProfile). A route pair adds only
    its cross masks: a path-1 phase conflicts with the OR of its members'
    cross masks, and joint rows are column masks over path 2's phase
    masks. Grid points whose joint matrices have the same core (see
    matching._core) share one tiled-size table, built from the core's hull
    covers. The covers come from a process-wide cache keyed by the core and
    bounded by _COVER_CACHE_SIZE (1,024 cores), so only a core new to the
    process costs flows; a CLI call starts with the cache empty. Log entries
    with the same rate share one Fraction. Only the winner becomes a
    PathPair, built by materialize_pair.
    """
    if not space.routes1 or not space.routes2:
        raise DomainError("search space has no route candidates")
    cap = space.max_traversals
    log: list[LoggedCandidate] = []
    profiles1 = [_route_profile(scenario, route, space.period_range1) for route in space.routes1]
    profiles2 = [_route_profile(scenario, route, space.period_range2) for route in space.routes2]
    # (rate numerator, rate denominator = period, log entry). The grid is
    # walked in ascending (indices, spacings, traversals) order, so a later
    # point wins only on a higher rate, compared by cross-multiplying, or on
    # an equal rate with a shorter period.
    best: tuple[int, int, LoggedCandidate] | None = None
    tables: dict[tuple[int, ...], tuple[tuple[int, ...], ...]] = {}
    rates: dict[tuple[int, int], Fraction] = {}  # (blocks, period) -> blocks / period

    for index1, profile1 in enumerate(profiles1):
        for index2, profile2 in enumerate(profiles2):
            cross = _cross_masks(scenario.interference_radius, profile1.ends, profile2.ends)
            for period1, masks1 in profile1.phases.items():
                conflicts1 = None if masks1 is None else [_union(cross, mask) for mask in masks1]
                for period2, masks2 in profile2.phases.items():
                    if conflicts1 is None or masks2 is None:
                        which, spacing = (1, period1) if conflicts1 is None else (2, period2)
                        note = f"skipped: spacing {spacing} not reachable on path {which}"
                        log.append(LoggedCandidate(index1, index2, period1, period2, 0, 0, None, None, None, note))
                        continue
                    core, width = _core(_joint_rows(conflicts1, masks2))
                    sizes = tables.get(core)
                    if sizes is None:
                        sizes = tables[core] = _cover_table(_covers(core, width), cap)
                    for traversals1, line in enumerate(sizes, start=1):
                        length1 = traversals1 * period1
                        for traversals2, support_size in enumerate(line, start=1):
                            period = length1 + traversals2 * period2 - support_size
                            blocks = traversals1 + traversals2
                            rate = rates.get((blocks, period))
                            if rate is None:
                                rate = rates[blocks, period] = Fraction(blocks, period)
                            entry = _new_entry(LoggedCandidate, (
                                index1, index2, period1, period2, traversals1, traversals2,
                                support_size, period, rate, "evaluated",
                            ))
                            log.append(entry)
                            ahead = 1 if best is None else blocks * best[1] - best[0] * period
                            if ahead > 0 or (ahead == 0 and period < best[1]):
                                best = (blocks, period, entry)
    if best is None:
        raise DomainError("no candidate in the search space has reachable spacings on both paths")
    entry = best[2]
    best_routes = (space.routes1[entry.route1], space.routes2[entry.route2])
    pair = materialize_pair(scenario, *best_routes)
    schedule = schedule_pair_unequal(pair, entry.period1, entry.period2, entry.traversals1, entry.traversals2)
    if schedule.period != entry.period:
        raise ConsistencyError("winning schedule's period disagrees with the evaluated grid point")
    return OptimizationResult(
        best_routes=best_routes,
        best_route_indices=(entry.route1, entry.route2),
        best_period1=entry.period1,
        best_period2=entry.period2,
        best_traversals1=entry.traversals1,
        best_traversals2=entry.traversals2,
        best_support_size=entry.support_size,
        best_throughput=entry.throughput,
        schedule=schedule,
        pair=pair,
        search_log=log,
    )
