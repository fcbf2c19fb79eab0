"""Exhaustive grid search over routes, spacings, and traversal counts."""

import hashlib
import itertools
import math
import random
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import networkx as nx
import pytest

import beatsched
from beatsched import matching, optimizer
from beatsched.analysis import interference_intensity
from beatsched.errors import ConfigurationError, DomainError
from beatsched.matching import max_support_set
from beatsched.model import (
    GeometricTopology,
    InterferenceRelation,
    NodeRef,
    PathPair,
    PrimaryPath,
    _as_point,
    derive_relation,
)
from beatsched.optimizer import (
    DiskScenario,
    LoggedCandidate,
    RouteCandidate,
    SearchSpace,
    _cross_masks,
    _route_masks,
    _route_profile,
    materialize_pair,
    optimize,
    routes_from_graph,
)
from beatsched.periods import build_matrix, continuation, is_reachable_period, subset_members
from beatsched.scheduler import schedule_pair_unequal
from beatsched.simulator import run


def straight_route(n_senders: int, y: float, gap: float = 1.0) -> RouteCandidate:
    return RouteCandidate(
        points=tuple((gap * k, y) for k in range(n_senders + 1)),
        label=f"line{n_senders}@{y}",
    )


@pytest.fixture(scope="module")
def far_space():
    return SearchSpace(
        routes1=(straight_route(6, 0.0),),
        routes2=(straight_route(4, 50.0),),
        max_traversals=2,
    )


class TestSearchBasics:
    def test_distant_routes_reach_two_thirds(self, far_space):
        result = optimize(DiskScenario(interference_radius=1.0), far_space)
        assert result.best_throughput == Fraction(2, 3)
        assert (result.best_period1, result.best_period2) == (3, 3)
        assert result.schedule.period == 3
        assert result.best_route_indices == (0, 0)

    def test_result_schedule_simulates_to_its_claim(self, far_space):
        result = optimize(DiskScenario(interference_radius=1.0), far_space)
        report = run(result.pair, result.schedule, n_periods=4)
        assert report.ok
        assert report.measured_throughput == result.best_throughput

    def test_search_log_covers_the_whole_grid(self, far_space):
        result = optimize(DiskScenario(interference_radius=1.0), far_space)
        # one route pair, spacings 3..6 x 3..4, traversals 1..2 squared
        assert len(result.search_log) == 4 * 2 * 2 * 2
        assert all(c.note == "evaluated" for c in result.search_log)

    def test_interleaving_beats_serialization_under_full_interference(self):
        # Two chains sharing one line: every cross subset clashes, three
        # phases against two. More traversals of the shorter chain win:
        # rate (l1+l2)/(3*l1+2*l2) maximizes at the traversal cap.
        scenario = DiskScenario(interference_radius=50.0)
        space = SearchSpace(
            routes1=(straight_route(3, 0.0),),
            routes2=(straight_route(2, 0.4),),
            max_traversals=2,
        )
        result = optimize(scenario, space)
        grid = [
            Fraction(l1 + l2, 3 * l1 + 2 * l2)
            for l1 in (1, 2)
            for l2 in (1, 2)
        ]
        assert result.best_throughput == max(grid) == Fraction(3, 7)
        assert (result.best_traversals1, result.best_traversals2) == (1, 2)
        assert result.schedule.period == 7

    def test_tight_traversal_cap_changes_the_answer(self):
        scenario = DiskScenario(interference_radius=50.0)
        space = SearchSpace(
            routes1=(straight_route(3, 0.0),),
            routes2=(straight_route(2, 0.4),),
            max_traversals=1,
        )
        result = optimize(scenario, space)
        assert result.best_throughput == Fraction(2, 5)

    def test_rate_never_drops_when_the_cap_grows(self):
        scenario = DiskScenario(interference_radius=50.0)
        rates = []
        for cap in (1, 2, 3):
            space = SearchSpace(
                routes1=(straight_route(3, 0.0),),
                routes2=(straight_route(2, 0.4),),
                max_traversals=cap,
            )
            rates.append(optimize(scenario, space).best_throughput)
        assert rates == sorted(rates)

    def test_route_choice_avoids_interference(self):
        # A crossing route and a detour route for the second chain: the
        # detour keeps full concurrency and must win.
        scenario = DiskScenario(interference_radius=1.0)
        crossing = RouteCandidate(
            points=((0.5, -1.5), (1.5, -0.5), (2.5, 0.5), (3.5, 1.5)),
            label="crossing",
        )
        detour = RouteCandidate(
            points=((0.5, 1.5), (1.5, 1.5), (2.5, 1.5), (3.5, 1.5)),
            label="detour",
        )
        space = SearchSpace(
            routes1=(straight_route(4, 0.0),),
            routes2=(crossing, detour),
            max_traversals=2,
        )
        result = optimize(scenario, space)
        assert result.best_routes[1].label == "detour"
        assert result.best_throughput == Fraction(2, 3)

    def test_rate_ceiling_from_the_spacings(self, far_space):
        result = optimize(DiskScenario(interference_radius=1.0), far_space)
        ceiling = Fraction(1, result.best_period1) + Fraction(1, result.best_period2)
        assert result.best_throughput <= ceiling


class TestDegenerateAndInvalid:
    def test_single_candidate_equals_direct_construction(self):
        scenario = DiskScenario(interference_radius=1.0)
        space = SearchSpace(
            routes1=(straight_route(6, 0.0),),
            routes2=(straight_route(4, 50.0),),
            period_range1=(3, 3),
            period_range2=(3, 3),
            max_traversals=1,
        )
        result = optimize(scenario, space)
        pair = materialize_pair(
            scenario, straight_route(6, 0.0), straight_route(4, 50.0)
        )
        direct = schedule_pair_unequal(pair, 3, 3, 1, 1)
        assert result.schedule.beats == direct.beats

    def test_empty_routes_rejected(self):
        scenario = DiskScenario(interference_radius=1.0)
        space = SearchSpace(routes1=(), routes2=(straight_route(2, 0.0),))
        with pytest.raises(DomainError, match="no route candidates"):
            optimize(scenario, space)

    def test_impossible_period_range_has_no_candidates(self, far_space):
        scenario = DiskScenario(interference_radius=1.0)
        space = SearchSpace(
            routes1=far_space.routes1,
            routes2=far_space.routes2,
            period_range1=(1, 2),  # below the chain's intrinsic spacing 3
            period_range2=(3, 3),
            max_traversals=1,
        )
        with pytest.raises(DomainError, match="no.*candidate"):
            optimize(scenario, space)

    def test_route_needs_two_points(self):
        with pytest.raises(DomainError):
            RouteCandidate(points=((0.0, 0.0),))

    def test_max_traversals_validated(self):
        with pytest.raises(DomainError):
            SearchSpace(
                routes1=(straight_route(2, 0.0),),
                routes2=(straight_route(2, 5.0),),
                max_traversals=0,
            )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_traversals", 2.5),
            ("max_traversals", True),
            ("max_traversals", "2"),
            ("period_range1", (1,)),
            ("period_range1", (1, 2, 3)),
            ("period_range1", (1.5, 3)),
            ("period_range1", (True, 2)),
            ("period_range2", (1, False)),
            ("period_range2", 3),
            ("period_range2", (4, 3)),
        ],
    )
    def test_malformed_search_space_names_its_field(self, field, value):
        with pytest.raises(DomainError, match=field):
            SearchSpace(
                routes1=(straight_route(2, 0.0),),
                routes2=(straight_route(2, 5.0),),
                **{field: value},
            )


class TestSearchLog:
    # Six senders around most of a circle: the last sender comes back next
    # to the first, so spacing 5 puts two interfering senders in one phase
    # while spacings 3, 4 and 6 stay reachable.
    LOOP = RouteCandidate(
        points=(
            (1.5, 0.0), (0.9, 1.2), (-0.5, 1.4), (-1.4, 0.4),
            (-1.2, -0.9), (0.1, -1.5), (1.3, -0.8),
        ),
        label="loop",
    )

    def expected_log(self, scenario, space):
        """The grid walked point by point, every support size taken from a
        maximum matching of the tiled joint matrix."""
        log = []
        for index1, route1 in enumerate(space.routes1):
            for index2, route2 in enumerate(space.routes2):
                pair = materialize_pair(scenario, route1, route2)
                istar1, _ = interference_intensity(pair, pair.path_nodes(1))
                istar2, _ = interference_intensity(pair, pair.path_nodes(2))
                for period1 in range(istar1, route1.n_senders + 1):
                    for period2 in range(istar2, route2.n_senders + 1):
                        point = (index1, index2, period1, period2)
                        for path_id, spacing in ((1, period1), (2, period2)):
                            if not is_reachable_period(pair, path_id, spacing):
                                note = f"skipped: spacing {spacing} not reachable on path {path_id}"
                                log.append((*point, None, note))
                                break
                        else:
                            matrix = build_matrix(pair, period1, period2)
                            log.extend(self.evaluated(point, matrix, space.max_traversals))
        return log

    @staticmethod
    def evaluated(point, matrix, max_traversals):
        period1, period2 = point[2:]
        for l1 in range(1, max_traversals + 1):
            for l2 in range(1, max_traversals + 1):
                _, size = max_support_set(continuation(matrix, l1, l2))
                period = l1 * period1 + l2 * period2 - size
                yield (*point, (l1, l2, size, period), "evaluated")

    def test_log_matches_the_tiled_matching_point_by_point(self):
        scenario = DiskScenario(interference_radius=1.5)
        line = straight_route(4, 20.0)
        space = SearchSpace(routes1=(self.LOOP, line), routes2=(line, self.LOOP), max_traversals=3)
        result = optimize(scenario, space)
        actual = []
        for c in result.search_log:
            point = (c.route1, c.route2, c.period1, c.period2)
            if c.note == "evaluated":
                assert c.throughput == Fraction(c.traversals1 + c.traversals2, c.period)
                grid = (c.traversals1, c.traversals2, c.support_size, c.period)
                actual.append((*point, grid, c.note))
            else:
                assert (c.traversals1, c.traversals2, c.support_size) == (0, 0, None)
                actual.append((*point, None, c.note))
        assert actual == self.expected_log(scenario, space)
        notes = {c.note for c in result.search_log}
        assert "skipped: spacing 5 not reachable on path 1" in notes
        assert "skipped: spacing 5 not reachable on path 2" in notes


def bent_route(rng: random.Random, n_senders: int, origin: tuple[float, float], label: str) -> RouteCandidate:
    """A route of unit hops whose heading turns by up to 2 rad per hop, so
    some routes fold back and leave spacings unreachable."""
    x, y = origin
    heading = rng.uniform(-0.4, 0.4)
    points = [(x, y)]
    for _ in range(n_senders):
        heading += rng.uniform(-2.0, 2.0)
        x, y = round(x + math.cos(heading), 3), round(y + math.sin(heading), 3)
        points.append((x, y))
    return RouteCandidate(points=tuple(points), label=label)


def reference_search(scenario, space):
    """The grid walked point by point from the public functions: every
    intensity, reachability test and joint matrix taken on its own route
    pair, and every support size from a maximum matching of the tiled
    joint matrix. Returns the log as tuples and the winning tuple."""
    log = []
    best = None
    for index1, route1 in enumerate(space.routes1):
        for index2, route2 in enumerate(space.routes2):
            pair = materialize_pair(scenario, route1, route2)
            spans = []
            for path_id, route, given in (
                (1, route1, space.period_range1),
                (2, route2, space.period_range2),
            ):
                istar, _ = interference_intensity(pair, pair.path_nodes(path_id))
                lo, hi = given or (istar, route.n_senders)
                spans.append(range(max(lo, istar), min(hi, route.n_senders) + 1))
            for period1 in spans[0]:
                for period2 in spans[1]:
                    point = (index1, index2, period1, period2)
                    for path_id, spacing in ((1, period1), (2, period2)):
                        if not is_reachable_period(pair, path_id, spacing):
                            note = f"skipped: spacing {spacing} not reachable on path {path_id}"
                            log.append((*point, 0, 0, None, None, None, note))
                            break
                    else:
                        matrix = build_matrix(pair, period1, period2)
                        for l1 in range(1, space.max_traversals + 1):
                            for l2 in range(1, space.max_traversals + 1):
                                _, size = max_support_set(continuation(matrix, l1, l2))
                                period = l1 * period1 + l2 * period2 - size
                                rate = Fraction(l1 + l2, period)
                                entry = (*point, l1, l2, size, period, rate, "evaluated")
                                log.append(entry)
                                key = (-rate, period, *point, l1, l2)
                                if best is None or key < best[0]:
                                    best = (key, entry)
    return log, best[1]


class TestSeededSearchLogs:
    """Multi-route searches against reference_search, entry by entry."""

    @staticmethod
    def searches():
        rng = random.Random("optimizer/seeded-logs")
        for case in range(12):
            routes1 = tuple(
                bent_route(rng, rng.randint(2, 6), (0.0, 0.0), f"a{k}")
                for k in range(rng.randint(2, 3))
            )
            if case % 3 == 0:
                routes2 = routes1  # both chains choose among the same routes
            else:
                routes2 = tuple(
                    bent_route(rng, rng.randint(2, 6), (rng.uniform(-1, 1), rng.uniform(1, 2.5)), f"b{k}")
                    for k in range(rng.randint(2, 3))
                )
            ranges = [None, None]
            if case % 2 == 1:
                for side in (0, 1):
                    lo = rng.randint(1, 3)
                    ranges[side] = (lo, lo + rng.randint(1, 3))
            space = SearchSpace(
                routes1=routes1,
                routes2=routes2,
                period_range1=ranges[0],
                period_range2=ranges[1],
                max_traversals=1 + case % 4,
            )
            yield DiskScenario(interference_radius=rng.uniform(0.8, 1.6)), space

    def test_every_log_entry_and_the_winner_match_the_reference(self):
        skipped_paths = set()
        for scenario, space in self.searches():
            log, best = reference_search(scenario, space)
            result = optimize(scenario, space)
            assert {type(c) for c in result.search_log} == {LoggedCandidate}
            # an entry equals the plain tuple of its values
            assert result.search_log == log
            winner = (
                *result.best_route_indices,
                result.best_period1,
                result.best_period2,
                result.best_traversals1,
                result.best_traversals2,
                result.best_support_size,
                result.schedule.period,
                result.best_throughput,
                "evaluated",
            )
            assert winner == best
            skipped_paths |= {c.note[-1] for c in result.search_log if c.note != "evaluated"}
        assert skipped_paths == {"1", "2"}

    def test_log_entries_are_the_entries_the_constructor_builds(self):
        names = (
            "route1", "route2", "period1", "period2", "traversals1", "traversals2",
            "support_size", "period", "throughput", "note",
        )
        assert LoggedCandidate._fields == names
        for scenario, space in self.searches():
            log = optimize(scenario, space).search_log
            for entry in log:
                built = LoggedCandidate(**entry._asdict())
                assert type(entry) is type(built) is LoggedCandidate
                assert entry == built == tuple(built) and hash(entry) == hash(built)
                assert repr(entry) == repr(built)
                assert tuple(entry._asdict()) == names
            for name in ("note", "throughput"):
                with pytest.raises(AttributeError):
                    setattr(log[-1], name, None)
            with pytest.raises(TypeError):
                log[-1][-1] = None

    def test_winner_pair_equals_its_materialized_pair(self):
        for scenario, space in self.searches():
            result = optimize(scenario, space)
            assert result.pair == materialize_pair(scenario, *result.best_routes)

    def test_route_profiles_do_not_depend_on_the_other_route(self):
        for scenario, space in self.searches():
            profiles1 = [_route_profile(scenario, r, space.period_range1) for r in space.routes1]
            profiles2 = [_route_profile(scenario, r, space.period_range2) for r in space.routes2]
            for index1, route1 in enumerate(space.routes1):
                for index2, route2 in enumerate(space.routes2):
                    pair = materialize_pair(scenario, route1, route2)
                    for path_id, profile in ((1, profiles1[index1]), (2, profiles2[index2])):
                        assert profile.intensity == interference_intensity(pair, pair.path_nodes(path_id))[0]
                        assert {t: masks is not None for t, masks in profile.phases.items()} == {
                            t: is_reachable_period(pair, path_id, t) for t in profile.phases
                        }
                        offset = pair.offset(path_id)
                        for t, masks in profile.phases.items():
                            if masks is not None:
                                assert [mask << offset for mask in masks] == [
                                    pair.mask_of(subset_members(pair.path(path_id), phase, t))
                                    for phase in range(1, t + 1)
                                ]


def disk_reference(scenario, route1, route2):
    """Interfering sender pairs of two routes, from the disk model's
    definition pair by pair."""
    senders = [
        (NodeRef(path_id, seq), route.points[seq - 1], route.points[seq])
        for path_id, route in ((1, route1), (2, route2))
        for seq in range(1, route.n_senders + 1)
    ]
    r = scenario.interference_radius
    pairs = set()
    for (a, tx_a, rx_a), (b, tx_b, rx_b) in itertools.combinations(senders, 2):
        near = math.dist(tx_a, rx_b) <= r or math.dist(tx_b, rx_a) <= r
        linked = scenario.half_duplex and a.path_id == b.path_id and abs(a.seq - b.seq) == 1
        if near or linked:
            pairs.add(frozenset((a, b)))
    return pairs


def mask_bits(mask):
    return [j for j in range(mask.bit_length()) if mask >> j & 1]


class TestRouteMasks:
    # Sender 2.1 stands exactly 1.5 from receiver 1.2 (the point (2, 0)) and
    # further than that from every other receiver.
    TIE1 = RouteCandidate(points=((0.0, 0.0), (1.0, 0.0), (2.0, 0.0)), label="tie1")
    TIE2 = RouteCandidate(points=((2.0, 1.5), (4.0, 3.0)), label="tie2")

    def cases(self):
        rng = random.Random("optimizer/route-masks")
        for case in range(40):
            route1 = bent_route(rng, rng.randint(1, 7), (0.0, 0.0), "a")
            route2 = bent_route(rng, rng.randint(1, 7), (rng.uniform(-1, 1), rng.uniform(0.5, 2.5)), "b")
            scenario = DiskScenario(interference_radius=rng.uniform(0.6, 1.8), half_duplex=case % 4 != 3)
            yield scenario, route1, route2
        yield DiskScenario(interference_radius=1.5), self.TIE1, self.TIE2

    def test_route_and_cross_masks_equal_the_disk_model(self):
        for scenario, route1, route2 in self.cases():
            expected = disk_reference(scenario, route1, route2)
            ends1, local1 = _route_masks(scenario, route1)
            ends2, local2 = _route_masks(scenario, route2)
            cross = _cross_masks(scenario.interference_radius, ends1, ends2)
            found = set()
            for path_id, local in ((1, local1), (2, local2)):
                for i, mask in enumerate(local):
                    assert all(local[j] >> i & 1 for j in mask_bits(mask))
                    found |= {frozenset((NodeRef(path_id, i + 1), NodeRef(path_id, j + 1))) for j in mask_bits(mask)}
            for i, mask in enumerate(cross):
                found |= {frozenset((NodeRef(1, i + 1), NodeRef(2, j + 1))) for j in mask_bits(mask)}
            assert found == expected
            assert materialize_pair(scenario, route1, route2).relation.pairs == expected
            positions = {
                (path_id, seq): point
                for path_id, route in ((1, route1), (2, route2))
                for seq, point in enumerate(route.points, start=1)
            }
            topology = GeometricTopology(positions, scenario.interference_radius, scenario.half_duplex)
            skeleton = PathPair(
                path1=PrimaryPath(id=1, n_senders=route1.n_senders),
                path2=PrimaryPath(id=2, n_senders=route2.n_senders),
                relation=InterferenceRelation(),
            )
            assert derive_relation(topology, skeleton).pairs == expected

    def test_a_sender_exactly_one_radius_from_a_receiver_interferes(self):
        at = materialize_pair(DiskScenario(interference_radius=1.5), self.TIE1, self.TIE2)
        assert at.relation.interferes(NodeRef(1, 2), NodeRef(2, 1))
        below = materialize_pair(DiskScenario(interference_radius=math.nextafter(1.5, 0.0)), self.TIE1, self.TIE2)
        assert not below.relation.interferes(NodeRef(1, 2), NodeRef(2, 1))

    def test_bad_routes_are_rejected_on_construction(self):
        # a route reports its first bad point, by label and 1-based position
        with pytest.raises(ConfigurationError, match=r"^position of node 2 of route '' must be finite, got \(1\.0, nan\)$"):
            RouteCandidate(points=((0.0, 0.0), (1.0, math.nan), (1.0, 5.0, 9.0)))
        with pytest.raises(ConfigurationError, match=r"^position of node 3 of route 'b0' must have 1 or 2 coordinates, got 3$"):
            RouteCandidate(points=((0.0, 5.0), [1.0], (1.0, 5.0, 9.0)), label="b0")
        with pytest.raises(DomainError, match=r"^interference_radius must be >= 0, got -1\.0$"):
            DiskScenario(interference_radius=-1.0)
        with pytest.raises(ConfigurationError, match=r"^interference_radius must be finite, got inf$"):
            DiskScenario(interference_radius=math.inf, half_duplex=False)

    def test_boolean_radius_and_points_are_rejected(self):
        with pytest.raises(ConfigurationError, match="^interference_radius must be a number, got True$"):
            DiskScenario(interference_radius=True)
        with pytest.raises(ConfigurationError, match=r"^position of node 2 of route 'flagged' must be a number or an \(x, y\) pair$"):
            RouteCandidate(points=((0.0, 0.0), (True, 5.0)), label="flagged")
        with pytest.raises(ConfigurationError, match=r"^position of node 1 of route 'flagged' must be a number or an \(x, y\) pair$"):
            RouteCandidate(points=(False, 1.0), label="flagged")

    @pytest.mark.parametrize("radius", ["1", None, [1]])
    def test_radius_that_is_no_number_is_rejected(self, radius):
        with pytest.raises(ConfigurationError, match=f"^interference_radius must be a number, got {re.escape(repr(radius))}$"):
            DiskScenario(interference_radius=radius)

    @pytest.mark.parametrize("point", ["10", b"10", ("1", 0.0)])
    def test_text_points_are_rejected(self, point):
        message = r"^position of node 2 of route 'texty' must be a number or an \(x, y\) pair$"
        with pytest.raises(ConfigurationError, match=message):
            RouteCandidate(points=((0.0, 5.0), point), label="texty")

    NUMBER = "must be a number or an (x, y) pair"
    POINTS = [
        # (position, the point, or the problem after "position of node K ")
        (0, (0.0, 0.0)),
        (-2, (-2.0, 0.0)),
        (10**400, "must be finite, got (inf,)"),
        (1.5, (1.5, 0.0)),
        (-0.0, (-0.0, 0.0)),
        (Fraction(5, 2), (2.5, 0.0)),
        (Decimal("2.5"), (2.5, 0.0)),
        (True, NUMBER),
        (False, NUMBER),
        ("12", NUMBER),
        (b"1", NUMBER),
        (None, NUMBER),
        (math.nan, "must be finite, got (nan,)"),
        (math.inf, "must be finite, got (inf,)"),
        (-math.inf, "must be finite, got (-inf,)"),
        ((), "must have 1 or 2 coordinates, got 0"),
        ((1,), (1.0, 0.0)),
        ((1.5,), (1.5, 0.0)),
        ((1, 2), (1.0, 2.0)),
        ((1.5, 2.5), (1.5, 2.5)),
        ((Fraction(1, 4), Decimal("0.5")), (0.25, 0.5)),
        ((True, 1.0), NUMBER),
        (("1", 0.0), NUMBER),
        ((math.nan, 0.0), "must be finite, got (nan, 0.0)"),
        ((0.0, math.inf), "must be finite, got (0.0, inf)"),
        ((1.0, 2.0, 3.0), "must have 1 or 2 coordinates, got 3"),
        ((1, 2, 3), "must have 1 or 2 coordinates, got 3"),
        ([], "must have 1 or 2 coordinates, got 0"),
        ([1], (1.0, 0.0)),
        ([1.5, 2.0], (1.5, 2.0)),
        ([2, 3], (2.0, 3.0)),
        ([1.0, math.nan], "must be finite, got (1.0, nan)"),
        ([1, 2, 3], "must have 1 or 2 coordinates, got 3"),
        ([[1], 2], NUMBER),
    ]

    @pytest.mark.parametrize("position, expected", POINTS, ids=lambda v: repr(v)[:24])
    def test_points_convert_as_the_table_says(self, position, expected):
        # a tuple of two finite floats comes back as it is; everything else
        # converts, or fails with the same texts, for a node and for a route
        if type(expected) is str:
            with pytest.raises(ConfigurationError, match=f"^position of node k {re.escape(expected)}$"):
                _as_point(position, "k")
            with pytest.raises(ConfigurationError, match=f"^position of node 2 of route 'r' {re.escape(expected)}$"):
                RouteCandidate(points=((0.0, 0.0), position, (9.0, 0.0)), label="r")
            return
        point = _as_point(position, "k")
        assert point == expected and all(type(c) is float for c in point)
        assert math.copysign(1, point[0]) == math.copysign(1, expected[0])
        plain = type(position) is tuple and len(position) == 2 and all(type(c) is float for c in position)
        assert (point is position) == plain
        assert RouteCandidate(points=(position, (9.0, 0.0))).points[0] == expected

    def test_points_are_converted_once_on_construction(self, monkeypatch):
        calls = []
        convert = optimizer._point

        def counted(value):
            calls.append(value)
            return convert(value)

        monkeypatch.setattr(optimizer, "_point", counted)
        route = RouteCandidate(points=[0, [1.5], (Fraction(5, 2), 1)], label="mixed")
        assert route.points == ((0.0, 0.0), (1.5, 0.0), (2.5, 1.0))
        assert all(type(c) is float for point in route.points for c in point)
        assert calls == [0, [1.5], (Fraction(5, 2), 1)]
        adjacency = {"s": ["a", "b"], "a": ["d"], "b": ["c"], "c": ["d"]}
        positions = {"s": 0, "a": (1, 1), "b": (1, -1), "c": (2, -1), "d": [3]}
        calls.clear()
        routes = routes_from_graph(adjacency, positions, "s", "d", 3)
        assert len(calls) == sum(len(r.points) for r in routes) == 7
        scenario = DiskScenario(interference_radius=1.0)
        space = SearchSpace(routes1=routes, routes2=(straight_route(3, 9.0), straight_route(2, 8.0)))
        calls.clear()
        result = optimize(scenario, space)
        materialize_pair(scenario, *result.best_routes)
        assert calls == []


class TestTieBreaks:
    def test_prefers_shorter_period_at_equal_rate(self):
        # Distant chains: every traversal multiple gives rate 2/3; the
        # reported best must be the single-traversal period-3 schedule.
        scenario = DiskScenario(interference_radius=1.0)
        space = SearchSpace(
            routes1=(straight_route(3, 0.0),),
            routes2=(straight_route(3, 50.0),),
            max_traversals=3,
        )
        result = optimize(scenario, space)
        assert result.best_throughput == Fraction(2, 3)
        assert result.schedule.period == 3
        assert (result.best_traversals1, result.best_traversals2) == (1, 1)

    def test_deterministic_across_runs(self, far_space):
        scenario = DiskScenario(interference_radius=1.0)
        first = optimize(scenario, far_space)
        second = optimize(scenario, far_space)
        assert first.best_throughput == second.best_throughput
        assert first.schedule.beats == second.schedule.beats
        assert [c.note for c in first.search_log] == [
            c.note for c in second.search_log
        ]


class TestGraphRoutes:
    ADJACENCY = {
        "s": ["a", "b"],
        "a": ["s", "d"],
        "b": ["s", "c"],
        "c": ["b", "d"],
        "d": ["a", "c"],
    }
    POSITIONS = {
        "s": (0.0, 0.0),
        "a": (1.0, 1.0),
        "b": (1.0, -1.0),
        "c": (2.0, -1.0),
        "d": (3.0, 0.0),
    }

    def test_enumerates_simple_paths_sorted(self):
        routes = routes_from_graph(self.ADJACENCY, self.POSITIONS, "s", "d", 4)
        assert [r.label for r in routes] == ["s-a-d", "s-b-c-d"]
        assert routes[0].n_senders == 2
        assert routes[1].n_senders == 3

    def test_hop_limit_prunes(self):
        routes = routes_from_graph(self.ADJACENCY, self.POSITIONS, "s", "d", 2)
        assert [r.label for r in routes] == ["s-a-d"]

    @pytest.mark.parametrize("max_hops", [0, -1])
    def test_hop_limit_below_one_is_rejected(self, max_hops):
        with pytest.raises(DomainError, match=f"^max_hops must be >= 1, got {max_hops}$"):
            routes_from_graph(self.ADJACENCY, self.POSITIONS, "s", "d", max_hops)

    @pytest.mark.parametrize("max_hops", [1.5, True, 2.0, "3"])
    def test_hop_limit_must_be_an_int(self, max_hops):
        with pytest.raises(DomainError, match=f"^max_hops must be an int, got {re.escape(repr(max_hops))}$"):
            routes_from_graph(self.ADJACENCY, self.POSITIONS, "s", "d", max_hops)

    def test_no_route_within_limit(self):
        routes = routes_from_graph(self.ADJACENCY, self.POSITIONS, "s", "d", 1)
        assert routes == ()

    def test_one_dimensional_positions_padded(self):
        routes = routes_from_graph(
            {"s": ["d"], "d": ["s"]}, {"s": [0.0], "d": [1.0]}, "s", "d", 3
        )
        assert routes[0].points == ((0.0, 0.0), (1.0, 0.0))

    def test_scalar_positions_lie_on_the_x_axis(self):
        routes = routes_from_graph({"s": ["d"]}, {"s": 0, "d": 2.5}, "s", "d", 1)
        assert routes[0].points == ((0.0, 0.0), (2.5, 0.0))

    @pytest.mark.parametrize(
        "position, message",
        [
            ([0, 0, 9], "must have 1 or 2 coordinates, got 3"),
            ([], "must have 1 or 2 coordinates, got 0"),
            ("far", "must be a number or an"),
            ([0, float("nan")], "must be finite"),
            (True, "must be a number or an"),
            ([True, 0], "must be a number or an"),
            ("10", "must be a number or an"),
            (b"10", "must be a number or an"),
            (["1", "0"], "must be a number or an"),
        ],
    )
    def test_malformed_positions_rejected(self, position, message):
        with pytest.raises(ConfigurationError, match=message):
            routes_from_graph({"s": ["d"]}, {"s": [0.0], "d": position}, "s", "d", 1)


class TestRouteEnumerationOracle:
    def test_matches_networkx_simple_paths(self):
        for seed in range(150):
            rng = random.Random(f"routes/{seed}")
            names = [f"v{i}" for i in range(rng.randint(2, 8))]
            density = rng.uniform(0.1, 0.6)
            # one-directional adjacency lists: edges are undirected anyway
            adjacency = {a: [b for b in names if rng.random() < density] for a in names}
            positions = {v: (rng.random(), rng.random()) for v in names}
            source, destination = rng.sample(names, 2)
            max_hops = rng.randint(1, 7)
            graph = nx.Graph()
            graph.add_nodes_from(adjacency)
            graph.add_edges_from((a, b) for a, nbrs in adjacency.items() for b in nbrs)
            expected = sorted(
                (tuple(p) for p in nx.all_simple_paths(graph, source, destination, cutoff=max_hops)),
                key=lambda p: (len(p), p),
            )
            routes = routes_from_graph(adjacency, positions, source, destination, max_hops)
            assert [r.label for r in routes] == ["-".join(p) for p in expected], seed

    def test_neighbour_only_vertex_counts_as_known(self):
        routes = routes_from_graph({"s": ["d"]}, {"s": [0.0], "d": [1.0]}, "s", "d", 1)
        assert [r.label for r in routes] == ["s-d"]

    def test_source_equal_to_destination_is_no_route(self):
        with pytest.raises(DomainError, match="needs at least one sender"):
            routes_from_graph({"s": ["d"]}, {"s": [0.0], "d": [1.0]}, "s", "s", 3)

    def test_unknown_vertices_rejected(self):
        with pytest.raises(DomainError, match="'x' is not in the graph"):
            routes_from_graph({"s": ["d"]}, {"s": [0.0], "d": [1.0]}, "s", "x", 3)
        with pytest.raises(DomainError, match="'d' has no position"):
            routes_from_graph({"s": ["d"]}, {"s": [0.0]}, "s", "d", 3)


class TestKernelWork:
    """The hull kernel's work on grid-graph route searches, pinned by count
    and digest rather than by wall time, so a change that adds flows fails
    on any host. The figures were recorded before the kernel's fixed cost
    per table was cut, which changed no flow."""

    TABLES = 840
    SEARCHES = 1199
    FAILED = 188
    DIGEST = "674fa95f04e6652324aa72dba998f0cd38002d7b0761052b1f47bb538e34e0b3"

    @staticmethod
    def jittered_grid(rng, width, height):
        """A width x height grid of vertices, each moved by up to 0.15 on
        both axes, with an edge to its right and its upper neighbour."""
        adjacency, positions = {}, {}
        for x in range(width):
            for y in range(height):
                name = f"v{x}.{y}"
                positions[name] = (x + rng.uniform(-0.15, 0.15), y + rng.uniform(-0.15, 0.15))
                adjacency[name] = [
                    f"v{x + dx}.{y + dy}" for dx, dy in ((1, 0), (0, 1)) if x + dx < width and y + dy < height
                ]
        return adjacency, positions

    def test_tables_and_searches_are_pinned(self, monkeypatch):
        tables, searches = [], []
        tiled, saturate = optimizer._tiled_sizes, matching._saturate

        def counted_table(core, width, cap):
            tables.append(core)
            return tiled(core, width, cap)

        def recorded_search(ones, width, cap_row, cap_col, bound):
            result = saturate(ones, width, cap_row, cap_col, bound)
            searches.append((cap_row, cap_col, bound, result[-1] is not None))
            return result

        monkeypatch.setattr(optimizer, "_tiled_sizes", counted_table)
        monkeypatch.setattr(matching, "_saturate", recorded_search)
        rng = random.Random("optimizer/kernel-work")
        for width, height in ((3, 2), (3, 3), (4, 3), (5, 2)):
            for cap in (1, 2, 3):
                for max_hops in (4, 5):
                    adjacency, positions = self.jittered_grid(rng, width, height)
                    top = height - 1
                    space = SearchSpace(
                        routes1=routes_from_graph(adjacency, positions, "v0.0", f"v{width - 1}.0", max_hops),
                        routes2=routes_from_graph(adjacency, positions, f"v0.{top}", f"v{width - 1}.{top}", max_hops),
                        max_traversals=cap,
                    )
                    optimize(DiskScenario(interference_radius=rng.uniform(0.6, 1.6)), space)
        failed = sum(fails for *_, fails in searches)
        digest = hashlib.sha256(repr(searches).encode()).hexdigest()
        assert (len(tables), len(searches), failed, digest) == (self.TABLES, self.SEARCHES, self.FAILED, self.DIGEST)

def test_import_leaves_networkx_out():
    src = Path(beatsched.__file__).resolve().parent.parent
    code = "import sys, beatsched, beatsched.cli; print('networkx' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(src)},
        timeout=60,
        check=True,
    )
    assert result.stdout.strip() == "False"
