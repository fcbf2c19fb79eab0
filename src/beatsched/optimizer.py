"""Exhaustive search for the best joint schedule of two routes.

The search walks every combination of candidate route pair, per-path
spacing, and per-path traversal count, evaluates the closed-form joint
rate for each, and materializes the winning schedule. Candidates whose
spacing is not reachable on its chain are skipped but kept in the log,
so a run documents the whole grid it covered.

Route candidates either come fixed from the caller or are enumerated as
simple paths through a connectivity graph with known vertex positions.
Every candidate pair gets its own disk-model interference relation, so
routes that bend closer to each other genuinely pay for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .analysis import interference_intensity
from .errors import ConsistencyError, DomainError
from .matching import tiled_support_sizes
from .model import (
    GeometricTopology,
    InterferenceRelation,
    PathPair,
    PrimaryPath,
    _as_point,
    derive_relation,
)
from .periods import build_matrix, is_reachable_period
from .scheduler import Schedule, schedule_pair_unequal


@dataclass(frozen=True)
class RouteCandidate:
    """Sender positions of one route plus the final receiver position.

    points[k] is where the (k+1)-th sender stands; the last entry is the
    destination. A route with m points therefore has m-1 senders.
    """

    points: tuple[tuple[float, float], ...]
    label: str = ""

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise DomainError(
                "a route needs at least one sender and a destination, "
                f"got {len(self.points)} points"
            )

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
    if max_hops < 1:
        raise DomainError(f"max_hops must be >= 1, got {max_hops}")
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
        pts = []
        for vertex in path:
            if vertex not in positions:
                raise DomainError(f"vertex {vertex!r} has no position")
            pts.append(_as_point(positions[vertex], vertex))
        routes.append(RouteCandidate(points=tuple(pts), label="-".join(path)))
    return tuple(routes)


@dataclass(frozen=True)
class DiskScenario:
    """Interference context shared by all candidate route pairs."""

    interference_radius: float
    half_duplex: bool = True


@dataclass(frozen=True)
class SearchSpace:
    """The finite grid the optimizer walks exhaustively.

    Period ranges are optional; when absent each route pair uses the
    full range from its interference intensity up to its sender count.
    Explicit ranges are clamped into that window, since nothing below
    the intensity is reachable and nothing above the sender count names
    a valid spacing.
    """

    routes1: tuple[RouteCandidate, ...]
    routes2: tuple[RouteCandidate, ...]
    period_range1: tuple[int, int] | None = None
    period_range2: tuple[int, int] | None = None
    max_traversals: int = 4

    def __post_init__(self) -> None:
        if self.max_traversals < 1:
            raise DomainError(
                f"max_traversals must be >= 1, got {self.max_traversals}"
            )
        for given in (self.period_range1, self.period_range2):
            if given is not None and given[0] > given[1]:
                raise DomainError(f"empty period range {given}")


@dataclass(frozen=True)
class LoggedCandidate:
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


def materialize_pair(
    scenario: DiskScenario, route1: RouteCandidate, route2: RouteCandidate
) -> PathPair:
    """Concrete chain pair for one candidate route combination."""
    positions: dict[tuple[int, int], tuple[float, float]] = {}
    for seq, point in enumerate(route1.points, start=1):
        positions[(1, seq)] = point
    for seq, point in enumerate(route2.points, start=1):
        positions[(2, seq)] = point
    topology = GeometricTopology(
        positions,
        interference_radius=scenario.interference_radius,
        half_duplex=scenario.half_duplex,
    )
    path1 = PrimaryPath(id=1, n_senders=route1.n_senders)
    path2 = PrimaryPath(id=2, n_senders=route2.n_senders)
    skeleton = PathPair(path1=path1, path2=path2, relation=InterferenceRelation())
    return PathPair(
        path1=path1,
        path2=path2,
        relation=derive_relation(topology, skeleton),
    )


def _clamped_range(
    given: tuple[int, int] | None, intensity: int, n_senders: int
) -> tuple[int, int]:
    lo, hi = given if given is not None else (intensity, n_senders)
    return max(lo, intensity), min(hi, n_senders)


def optimize(scenario: DiskScenario, space: SearchSpace) -> OptimizationResult:
    """Walk the whole grid and return the best candidate, fully logged.

    Rate ties fall to the shorter period, then to the lexicographically
    smallest (route indices, spacings, traversal counts), so reruns pick
    the same winner.
    """
    if not space.routes1 or not space.routes2:
        raise DomainError("search space has no route candidates")
    log: list[LoggedCandidate] = []
    best: tuple | None = None  # (key, log entry, pair, route1, route2)

    for index1, route1 in enumerate(space.routes1):
        for index2, route2 in enumerate(space.routes2):
            pair = materialize_pair(scenario, route1, route2)
            istar1, _ = interference_intensity(pair, pair.path_nodes(1))
            istar2, _ = interference_intensity(pair, pair.path_nodes(2))
            lo1, hi1 = _clamped_range(space.period_range1, istar1, route1.n_senders)
            lo2, hi2 = _clamped_range(space.period_range2, istar2, route2.n_senders)
            reachable2 = {
                period2: is_reachable_period(pair, 2, period2)
                for period2 in range(lo2, hi2 + 1)
            }
            for period1 in range(lo1, hi1 + 1):
                reachable1 = is_reachable_period(pair, 1, period1)
                for period2 in range(lo2, hi2 + 1):
                    if not reachable1 or not reachable2[period2]:
                        which = 1 if not reachable1 else 2
                        spacing = period1 if which == 1 else period2
                        log.append(
                            LoggedCandidate(
                                route1=index1,
                                route2=index2,
                                period1=period1,
                                period2=period2,
                                traversals1=0,
                                traversals2=0,
                                support_size=None,
                                period=None,
                                throughput=None,
                                note=(
                                    f"skipped: spacing {spacing} not reachable "
                                    f"on path {which}"
                                ),
                            )
                        )
                        continue
                    matrix = build_matrix(pair, period1, period2)
                    sizes = tiled_support_sizes(matrix.rows, space.max_traversals)
                    for traversals1 in range(1, space.max_traversals + 1):
                        for traversals2 in range(1, space.max_traversals + 1):
                            support_size = sizes[traversals1 - 1][traversals2 - 1]
                            period = (
                                traversals1 * period1
                                + traversals2 * period2
                                - support_size
                            )
                            rate = Fraction(traversals1 + traversals2, period)
                            entry = LoggedCandidate(
                                route1=index1,
                                route2=index2,
                                period1=period1,
                                period2=period2,
                                traversals1=traversals1,
                                traversals2=traversals2,
                                support_size=support_size,
                                period=period,
                                throughput=rate,
                                note="evaluated",
                            )
                            log.append(entry)
                            key = (
                                -rate,
                                period,
                                index1,
                                index2,
                                period1,
                                period2,
                                traversals1,
                                traversals2,
                            )
                            if best is None or key < best[0]:
                                best = (key, entry, pair, route1, route2)
    if best is None:
        raise DomainError(
            "no candidate in the search space has reachable spacings on "
            "both paths"
        )
    _, entry, pair, route1, route2 = best
    schedule = schedule_pair_unequal(
        pair, entry.period1, entry.period2, entry.traversals1, entry.traversals2
    )
    if schedule.period != entry.period:
        raise ConsistencyError(
            "winning schedule's period disagrees with the evaluated grid point"
        )
    return OptimizationResult(
        best_routes=(route1, route2),
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
