"""Node identities, chains, relations, geometry, and the chain rules."""

import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest

from beatsched.errors import ConfigurationError, DomainError
from beatsched.model import (
    GeometricTopology,
    InterferenceRelation,
    NodeRef,
    PathPair,
    PrimaryPath,
    derive_relation,
    is_concurrency_subset,
    validate_path_rules,
)
from helpers import line_pair, n, relation_pair, two_line_pair


class TestNodeRef:
    def test_str_form(self):
        assert str(NodeRef(1, 3)) == "n1.3"
        assert str(NodeRef(2, 12)) == "n2.12"

    def test_ordering_is_path_then_seq(self):
        refs = [NodeRef(2, 1), NodeRef(1, 10), NodeRef(1, 2)]
        assert sorted(refs) == [NodeRef(1, 2), NodeRef(1, 10), NodeRef(2, 1)]

    @pytest.mark.parametrize("path_id,seq", [(0, 1), (3, 1), (1, 0), (1, -2)])
    def test_rejects_bad_identity(self, path_id, seq):
        with pytest.raises(DomainError):
            NodeRef(path_id, seq)

    @pytest.mark.parametrize(
        "path_id, seq, message",
        [
            (1, 1.5, "seq must be an int, got 1.5"),
            (1, True, "seq must be an int, got True"),
            (True, 1, "path_id must be an int, got True"),
            (2.0, 1, "path_id must be an int, got 2.0"),
        ],
    )
    def test_identity_must_be_ints(self, path_id, seq, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            NodeRef(path_id, seq)


class TestPrimaryPath:
    def test_senders_enumerate_in_order(self):
        path = PrimaryPath(id=1, n_senders=4)
        assert path.senders == (n(1, 1), n(1, 2), n(1, 3), n(1, 4))
        assert path.node(3) == n(1, 3)

    def test_node_bounds(self):
        path = PrimaryPath(id=2, n_senders=2)
        with pytest.raises(DomainError):
            path.node(3)
        with pytest.raises(DomainError):
            path.node(0)

    def test_rejects_empty_chain(self):
        with pytest.raises(DomainError):
            PrimaryPath(id=1, n_senders=0)

    def test_rejects_a_third_path(self):
        with pytest.raises(DomainError, match="^path id must be 1 or 2, got 3$"):
            PrimaryPath(id=3, n_senders=2)

    @pytest.mark.parametrize(
        "path_id, n_senders, message",
        [
            (1, 2.5, "n_senders must be an int, got 2.5"),
            (1, True, "n_senders must be an int, got True"),
            (True, 2, "id must be an int, got True"),
            (1.0, 2, "id must be an int, got 1.0"),
        ],
    )
    def test_id_and_sender_count_must_be_ints(self, path_id, n_senders, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            PrimaryPath(id=path_id, n_senders=n_senders)


class TestInterferenceRelation:
    def test_symmetric_and_irreflexive(self):
        rel = InterferenceRelation([(n(1, 1), n(1, 2))])
        assert rel.interferes(n(1, 1), n(1, 2))
        assert rel.interferes(n(1, 2), n(1, 1))
        assert not rel.interferes(n(1, 1), n(1, 1))
        assert rel.concurrent(n(1, 1), n(1, 3))

    def test_self_pair_rejected(self):
        with pytest.raises(DomainError):
            InterferenceRelation([(n(1, 1), n(1, 1))])

    def test_from_matrix_round_trip(self):
        order = [n(1, 1), n(1, 2), n(2, 1)]
        rel = InterferenceRelation.from_matrix(
            order, [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
        )
        assert rel == InterferenceRelation(
            [(n(1, 1), n(1, 2)), (n(1, 2), n(2, 1))]
        )

    def test_from_matrix_rejects_asymmetry(self):
        order = [n(1, 1), n(1, 2)]
        with pytest.raises(DomainError, match="symmetric"):
            InterferenceRelation.from_matrix(order, [[0, 1], [0, 0]])

    def test_from_matrix_rejects_nonzero_diagonal(self):
        order = [n(1, 1), n(1, 2)]
        with pytest.raises(DomainError, match="diagonal"):
            InterferenceRelation.from_matrix(order, [[1, 0], [0, 0]])

    def test_from_matrix_rejects_wrong_shape(self):
        with pytest.raises(DomainError, match="2x2"):
            InterferenceRelation.from_matrix([n(1, 1), n(1, 2)], [[0, 1]])

    @pytest.mark.parametrize("entry", [2, "x", -1, 0.5])
    def test_from_matrix_rejects_entries_other_than_0_or_1(self, entry):
        with pytest.raises(DomainError, match=f"^matrix entries must be 0 or 1, got {re.escape(repr(entry))}$"):
            InterferenceRelation.from_matrix([n(1, 1), n(1, 2)], [[0, entry], [entry, 0]])

    def test_from_matrix_rejects_a_node_named_twice(self):
        with pytest.raises(DomainError, match="^relation matrix node order names a node twice$"):
            InterferenceRelation.from_matrix([n(1, 1), n(1, 2), n(1, 1)], [[0, 1, 0], [1, 0, 0], [0, 0, 0]])

    def test_from_matrix_reports_the_first_offending_cell(self):
        # row-major over the upper triangle, each row's diagonal cell first
        rng = random.Random("model/from-matrix")
        order = [n(1, seq) for seq in range(1, 6)] + [n(2, 1)]
        for _ in range(300):
            rows = [[int(rng.random() < 0.3) for _ in order] for _ in order]
            expected = None
            for i in range(len(order)):
                if rows[i][i]:
                    expected = f"relation matrix diagonal must be zero (node {order[i]})"
                    break
                bad = [j for j in range(i + 1, len(order)) if rows[i][j] != rows[j][i]]
                if bad:
                    expected = f"relation matrix must be symmetric, differs at {order[i]}/{order[bad[0]]}"
                    break
            if expected is None:
                relation = InterferenceRelation.from_matrix(order, rows)
                assert relation.pairs == {
                    frozenset((a, b)) for i, a in enumerate(order) for j, b in enumerate(order) if rows[i][j]
                }
            else:
                with pytest.raises(DomainError, match=f"^{re.escape(expected)}$"):
                    InterferenceRelation.from_matrix(order, rows)

    def test_pairs_are_built_on_first_read_and_repr_counts_the_masks(self):
        relation = InterferenceRelation([(n(1, 2), n(1, 1)), (n(1, 1), n(2, 1)), (n(1, 2), n(1, 1))])
        assert repr(relation) == "InterferenceRelation(2 interfering pairs)"
        assert "_pairs" not in vars(relation)
        assert relation.pairs == {frozenset((n(1, 1), n(1, 2))), frozenset((n(1, 1), n(2, 1)))}
        assert repr(InterferenceRelation()) == "InterferenceRelation(0 interfering pairs)"


class TestPathPair:
    def test_single_path_surface(self):
        pair = line_pair(4)
        assert pair.paths == (pair.path1,)
        assert not pair.has_pair()
        assert pair.total_senders == 4
        assert pair.nodes == pair.path_nodes(1)
        with pytest.raises(DomainError):
            pair.require_pair()
        with pytest.raises(DomainError):
            pair.path(2)

    def test_pair_surface(self):
        pair = two_line_pair(3, 2, dy=50.0)
        assert pair.has_pair()
        assert pair.total_senders == 5
        assert pair.path_nodes(2) == (n(2, 1), n(2, 2))

    def test_paths_must_sit_in_their_slots(self):
        with pytest.raises(DomainError, match="^path1 must have id 1$"):
            PathPair(PrimaryPath(id=2, n_senders=2), None, InterferenceRelation())
        with pytest.raises(DomainError, match="^path2 must have id 2$"):
            PathPair(PrimaryPath(id=1, n_senders=2), PrimaryPath(id=1, n_senders=2), InterferenceRelation())

    def test_relation_may_name_senders_only(self):
        relation = InterferenceRelation([(n(1, 1), n(1, 3))])
        with pytest.raises(DomainError, match=r"^relation mentions n1\.3, which is not a sender of this pair$"):
            PathPair(PrimaryPath(id=1, n_senders=2), None, relation)

    def test_mask_of_and_seq_mask_reject_what_names_no_sender(self):
        pair = line_pair(3)
        assert pair.mask_of([n(1, 3)]) == 0b100 and pair.nodes[2] == n(1, 3)
        with pytest.raises(DomainError, match=r"^n2\.1 is not a sender of this pair$"):
            pair.mask_of([n(2, 1)])
        # a position past the chain's end names no sender and adds nothing
        assert pair.seq_mask(1, [1, 4]) == 0b1
        with pytest.raises(DomainError, match="^seq must be >= 1, got 0$"):
            pair.seq_mask(1, [1, 0])

    @pytest.mark.parametrize("seq", [1.5, True, "1"])
    def test_seq_mask_rejects_a_seq_that_is_not_an_int(self, seq):
        with pytest.raises(DomainError, match=rf"^seq must be an int, got {re.escape(repr(seq))}$"):
            line_pair(3).seq_mask(1, [1, seq])

    def test_mask_of_rejects_foreign_and_empty_and_nodes_of_sorts(self):
        pair = line_pair(3)
        with pytest.raises(DomainError, match="^node set is empty$"):
            pair.mask_of([])
        with pytest.raises(DomainError, match=r"^n2\.1 is not a sender of this pair$"):
            pair.mask_of([n(2, 1)])
        assert pair.nodes_of(pair.mask_of([n(1, 3), n(1, 1)])) == (n(1, 1), n(1, 3))


class TestGeometry:
    def test_unit_line_radius_one_interferes_within_two_hops(self):
        # Senders sit at 0..5, receivers one step downstream. A sender
        # reaches the receivers of the two chain positions behind it,
        # and half duplex ties each sender to its own receiver.
        pair = line_pair(6)
        expected = {
            frozenset((n(1, j), n(1, k)))
            for j in range(1, 7)
            for k in range(1, 7)
            if j < k and k - j <= 2
        }
        assert pair.relation.pairs == expected

    def test_adjacent_senders_always_interfere(self):
        # The next sender along a chain IS the previous one's receiver,
        # so adjacency interference holds at any radius (a relay cannot
        # receive while it transmits). At radius 0 nothing else is left.
        for half_duplex in (True, False):
            pair = line_pair(4, gap=2.0, radius=0.0, half_duplex=half_duplex)
            assert pair.relation.pairs == {
                frozenset((n(1, 1), n(1, 2))),
                frozenset((n(1, 2), n(1, 3))),
                frozenset((n(1, 3), n(1, 4))),
            }

    def test_distant_chains_do_not_interact(self):
        pair = two_line_pair(4, 3, dy=50.0)
        cross = [
            p
            for p in pair.relation.pairs
            if len({ref.path_id for ref in p}) == 2
        ]
        assert cross == []

    def test_missing_position_is_rejected(self):
        path = PrimaryPath(id=1, n_senders=2)
        topology = GeometricTopology(
            {(1, 1): (0.0, 0.0), (1, 2): (1.0, 0.0)}, interference_radius=1.0
        )
        skeleton = PathPair(path1=path, path2=None, relation=InterferenceRelation())
        with pytest.raises(ConfigurationError, match="no position"):
            derive_relation(topology, skeleton)

    def test_negative_radius_rejected(self):
        with pytest.raises(DomainError):
            GeometricTopology({(1, 1): (0.0, 0.0)}, interference_radius=-1.0)

    @pytest.mark.parametrize(
        "radius",
        # as for a position, a number too large for a float is an infinity of its sign
        [float("nan"), float("inf"), float("-inf"), Decimal("NaN"), Decimal("Infinity"), Decimal("-Infinity"),
         Decimal("1e400"), pytest.param(10**400, id="huge-int"), pytest.param(-(10**400), id="huge-negative-int"),
         pytest.param(10**5000, id="int-past-the-str-limit")],
    )
    def test_non_finite_radius_rejected(self, radius):
        with pytest.raises(ConfigurationError, match="interference_radius must be finite"):
            GeometricTopology({(1, 1): (0.0, 0.0)}, interference_radius=radius)

    @pytest.mark.parametrize(
        "point",
        [float("nan"), float("inf"), (0.0, float("-inf")), [float("nan")], pytest.param(10**400, id="huge-int")],
    )
    def test_non_finite_position_rejected(self, point):
        with pytest.raises(ConfigurationError, match=r"position of node \(1, 2\)"):
            GeometricTopology({(1, 1): 0.0, (1, 2): point}, interference_radius=1.0)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_huge_int_position_is_an_infinity(self, sign):
        # an int too large for a float is an infinity of its sign, as in the CLI
        shown = "inf" if sign > 0 else "-inf"
        message = rf"^position of node \(1, 2\) must be finite, got \({shown},\)$"
        with pytest.raises(ConfigurationError, match=message):
            GeometricTopology({(1, 1): 0.0, (1, 2): sign * 10**400}, interference_radius=1.0)
        with pytest.raises(ConfigurationError, match=rf"^position of node \(1, 2\) must be finite, got \(0\.0, {shown}\)$"):
            GeometricTopology({(1, 1): 0.0, (1, 2): [0, sign * 10**400]}, interference_radius=1.0)

    @pytest.mark.parametrize("point", [True, [True, False], (0.0, False), [1, True]])
    def test_boolean_position_rejected(self, point):
        with pytest.raises(ConfigurationError, match=r"position of node \(1, 2\) must be a number or an \(x, y\) pair"):
            GeometricTopology({(1, 1): 0.0, (1, 2): point}, interference_radius=1.0)

    @pytest.mark.parametrize("radius", [True, False])
    def test_boolean_radius_rejected(self, radius):
        with pytest.raises(ConfigurationError, match=f"^interference_radius must be a number, got {radius}$"):
            GeometricTopology({(1, 1): 0.0}, interference_radius=radius)

    @pytest.mark.parametrize("point", ["12", b"12", bytearray(b"12"), ("1", 2), [0, b"2"], "7"])
    def test_text_position_rejected(self, point):
        with pytest.raises(ConfigurationError, match=r"position of node \(1, 2\) must be a number or an \(x, y\) pair"):
            GeometricTopology({(1, 1): 0.0, (1, 2): point}, interference_radius=1.0)

    @pytest.mark.parametrize(
        "radius, shown",
        [("1", "'1'"), (None, "None"), ([1], r"\[1\]"), (b"1", "b'1'"), (Decimal("sNaN"), r"Decimal\('sNaN'\)")],
    )
    def test_radius_that_is_no_number_rejected(self, radius, shown):
        with pytest.raises(ConfigurationError, match=f"^interference_radius must be a number, got {shown}$"):
            GeometricTopology({(1, 1): 0.0}, interference_radius=radius)

    @pytest.mark.parametrize("radius", [Decimal("-1.5"), Fraction(-1, 10**400), Decimal("-1e-400")])
    def test_negative_exact_radius_rejected(self, radius):
        # below 0 even where its float is -0.0: the disk test compares distances with the radius as given
        with pytest.raises(DomainError, match=f"^interference_radius must be >= 0, got {radius}$"):
            GeometricTopology({(1, 1): 0.0}, interference_radius=radius)

    def test_negative_radius_too_long_to_print_is_named_by_its_type(self):
        # str() of this Fraction passes the int str digit limit
        message = "interference_radius must be >= 0, got a Fraction too long to print"
        with pytest.raises(DomainError, match=f"^{message}$"):
            GeometricTopology({(1, 1): 0.0}, interference_radius=Fraction(-1, 10**5000))

    @pytest.mark.parametrize("radius", [Decimal("1.5"), Fraction(1, 3), 2, 0])
    def test_exact_radius_is_kept_as_given(self, radius):
        topology = GeometricTopology({(1, 1): 0.0}, interference_radius=radius)
        assert topology.interference_radius is radius

    def test_exact_numbers_keep_their_coordinates(self):
        topology = GeometricTopology(
            {(1, 1): (Fraction(1, 2),), (1, 2): (Decimal("1.5"), Fraction(3, 4))},
            interference_radius=Fraction(1, 3),
        )
        assert topology.position(1, 1) == (0.5, 0.0)
        assert topology.position(1, 2) == (1.5, 0.75)
        # a scalar is a point on the line, whatever kind of number it is
        scalars = GeometricTopology({(1, 1): Fraction(1, 2), (1, 2): Decimal("1.5")}, interference_radius=1.0)
        assert scalars.position(1, 1) == (0.5, 0.0)
        assert scalars.position(1, 2) == (1.5, 0.0)

    def test_scalar_positions_mean_a_line(self):
        topology = GeometricTopology(
            {(1, 1): 0, (1, 2): 3}, interference_radius=1.0
        )
        assert topology.position(1, 2) == (3.0, 0.0)

    def test_radius_boundary_is_inclusive(self):
        # A cross-chain sender sitting exactly at the radius from a
        # foreign receiver interferes; a hair farther and it does not.
        def build(radius: float):
            positions = {
                (1, 1): (0.0, 0.0),
                (1, 2): (1.0, 0.0),
                (1, 3): (2.0, 0.0),
                (2, 1): (1.0, 1.0),
                (2, 2): (9.0, 9.0),
            }
            path1 = PrimaryPath(id=1, n_senders=2)
            path2 = PrimaryPath(id=2, n_senders=1)
            skeleton = PathPair(path1=path1, path2=path2, relation=InterferenceRelation())
            topology = GeometricTopology(positions, interference_radius=radius)
            return derive_relation(topology, skeleton)

        # n2.1 is at distance exactly 1.0 from n1.1's receiver (1, 0)
        assert build(1.0).interferes(n(1, 1), n(2, 1))
        assert build(0.999).concurrent(n(1, 1), n(2, 1))


class TestConcurrencySubset:
    def test_accepts_pairwise_concurrent(self):
        pair = line_pair(6)
        assert is_concurrency_subset(pair, [n(1, 1), n(1, 4)])
        assert is_concurrency_subset(pair, [n(1, 2)])

    def test_rejects_any_interfering_pair(self):
        pair = line_pair(6)
        assert not is_concurrency_subset(pair, [n(1, 1), n(1, 3)])
        assert not is_concurrency_subset(pair, [n(1, 1), n(1, 4), n(1, 5)])

    def test_rejects_empty(self):
        pair = line_pair(3)
        with pytest.raises(DomainError):
            is_concurrency_subset(pair, [])


class TestChainRules:
    def test_uniform_line_satisfies_both_rules(self):
        for gap, radius in [(1.0, 1.0), (1.0, 2.5), (0.7, 1.3)]:
            report = validate_path_rules(line_pair(8, gap=gap, radius=radius), 1)
            assert report.ok, (gap, radius, report)

    def test_violation_is_reported_with_positions(self):
        # 1 and 3 concurrent but 1 and 4 interfering breaks the rule that
        # concurrency persists as the far node moves downstream.
        pair = relation_pair(4, 0, [("1.1", "1.2"), ("1.1", "1.4")])
        report = validate_path_rules(pair, 1)
        assert not report.ok
        assert (1, 3) in report.rule_down_violations

    def test_empty_relation_is_fine(self):
        report = validate_path_rules(relation_pair(5, 0, []), 1)
        assert report.ok
