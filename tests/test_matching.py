"""Support sets of binary matrices: validation, maximum search, oracle."""

import random
import re
import sys
from fractions import Fraction
from math import gcd

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beatsched import matching
from beatsched.errors import ConsistencyError, DomainError
from beatsched.matching import (
    _check_cover,
    _check_flow,
    _core,
    _hull_covers,
    _tiled_sizes,
    brute_force_max_support,
    max_support_set,
    tiled_support_sizes,
    validate_support_set,
)
from beatsched.periods import build_matrix, continuation
from beatsched.verify import pair_corpus
from helpers import MALFORMED_MATRICES, reference_violations

matrices = st.integers(1, 5).flatmap(
    lambda rows: st.integers(1, 6).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(0, 1), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
)


class TestValidate:
    def test_all_three_conditions_fire(self):
        matrix = [[1, 1], [0, 1]]
        ok, problems = validate_support_set(matrix, [(2, 1)])
        assert not ok
        assert any("condition 1" in p for p in problems)  # (2,1) is a 0
        ok, problems = validate_support_set(matrix, [(1, 1), (1, 2)])
        assert not ok
        assert any("condition 3" in p for p in problems)  # row reuse
        ok, problems = validate_support_set(matrix, [(1, 1)])
        assert not ok
        assert any("condition 2" in p for p in problems)  # (2,2) uncovered

    def test_zero_matrix_supports_only_the_empty_set(self):
        ok, problems = validate_support_set([[0, 0], [0, 0]], [])
        assert ok and not problems

    def test_column_reuse_detected(self):
        ok, problems = validate_support_set([[1], [1]], [(1, 1), (2, 1)])
        assert not ok
        assert any("column 1" in p for p in problems)

    def test_out_of_range_element_is_a_domain_error(self):
        with pytest.raises(DomainError):
            validate_support_set([[1]], [(2, 1)])

    @pytest.mark.parametrize("element", [(1.7, 1), (1, 1.0), ("1", 1), (1, "x"), (True, 1)])
    def test_a_position_that_is_not_an_int_is_a_domain_error(self, element):
        with pytest.raises(DomainError, match=r"has a position that is not an int$"):
            validate_support_set([[1]], [element])

    @pytest.mark.parametrize("element", [(1,), (1, 1, 1), 5])
    def test_an_element_that_is_not_a_pair_is_a_domain_error(self, element):
        with pytest.raises(DomainError, match=f"^element {re.escape(repr(element))} is not a \\(row, column\\) pair$"):
            validate_support_set([[1]], [element])

    def test_ragged_matrix_rejected(self):
        with pytest.raises(DomainError, match="^matrix rows have unequal lengths$"):
            validate_support_set([[1, 0], [1]], [])

    def test_non_binary_entry_rejected(self):
        with pytest.raises(DomainError, match="^matrix entries must be 0 or 1, got 2$"):
            validate_support_set([[2]], [])

    def test_violations_match_the_cell_by_cell_reference(self):
        # random elements hit 0-entries, share rows and columns, repeat,
        # and now and then fall outside the matrix
        rng = random.Random("matching/violations")
        outside = 0
        for _ in range(3000):
            matrix = random_matrix(rng, 6, 6)
            n, o = len(matrix), len(matrix[0])
            elements = [
                (rng.randint(0, n + 1), rng.randint(0, o + 1)) if rng.random() < 0.03
                else (rng.randint(1, n), rng.randint(1, o))
                for _ in range(rng.randint(0, 6))
            ]
            try:
                expected = reference_violations(matrix, elements)
            except DomainError as error:
                outside += 1
                with pytest.raises(DomainError, match=f"^{re.escape(str(error))}$"):
                    validate_support_set(matrix, elements)
                continue
            assert validate_support_set(matrix, elements) == (not expected, expected), (matrix, elements)
        assert outside > 100


ENTRY_POINTS = {
    "max_support_set": max_support_set,
    "validate_support_set": lambda matrix: validate_support_set(matrix, []),
    "tiled_support_sizes": lambda matrix: tiled_support_sizes(matrix, 2),
    "brute_force_max_support": brute_force_max_support,
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize(
    "matrix, message",
    [
        ([[1, 0], [1]], "matrix rows have unequal lengths"),
        ([[1, 2]], "matrix entries must be 0 or 1, got 2"),
        ([[0, "1"]], "matrix entries must be 0 or 1, got '1'"),
        # rows are checked in order, each for its length before its entries
        ([[2], [1, 0]], "matrix entries must be 0 or 1, got 2"),
        ([[1], [1, 0], [2]], "matrix rows have unequal lengths"),
        *MALFORMED_MATRICES,
        # a set of rows has no order to read
        ({(1, 0), (0, 1)}, "a matrix must be a list or tuple of rows, got set"),
    ],
)
def test_malformed_matrix_texts(entry, matrix, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        ENTRY_POINTS[entry](matrix)


class TestMaxSupport:
    def test_frozen_examples(self):
        # Middle column shared by all rows: row 2 must take it, leaving
        # rows 1 and 3 their private columns. The matching is unique.
        witness, size = max_support_set([[1, 1, 0], [0, 1, 0], [0, 1, 1]])
        assert size == 3
        assert witness == ((1, 1), (2, 2), (3, 3))

    def test_zero_and_identity(self):
        assert max_support_set([[0, 0], [0, 0]]) == ((), 0)
        assert max_support_set([[1, 0], [0, 1]]) == (((1, 1), (2, 2)), 2)

    def test_all_ones_pairs_diagonally(self):
        witness, size = max_support_set([[1] * 4 for _ in range(4)])
        assert size == 4
        assert witness == ((1, 1), (2, 2), (3, 3), (4, 4))

    def test_single_column(self):
        witness, size = max_support_set([[0, 1], [0, 1]])
        assert size == 1
        assert witness == ((1, 2),)

    def test_wide_and_tall(self):
        assert max_support_set([[1, 1, 1, 1, 1]])[1] == 1
        assert max_support_set([[1]] * 5)[1] == 1

    def test_witness_always_validates(self):
        matrix = [[1, 0, 1], [1, 1, 0], [0, 1, 1]]
        witness, _ = max_support_set(matrix)
        ok, problems = validate_support_set(matrix, witness)
        assert ok and not problems

    def test_deterministic_across_calls(self):
        matrix = [[1, 1, 0, 1], [1, 0, 1, 0], [0, 1, 1, 1]]
        assert max_support_set(matrix) == max_support_set(matrix)

    @given(matrix=matrices)
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force_oracle(self, matrix):
        witness, size = max_support_set(matrix)
        assert size == brute_force_max_support(matrix)
        ok, problems = validate_support_set(matrix, witness)
        assert ok and not problems

    @given(matrix=matrices)
    @settings(max_examples=150, deadline=None)
    def test_matches_networkx_bipartite_matching(self, matrix):
        graph = nx.Graph()
        rows, cols = len(matrix), len(matrix[0])
        graph.add_nodes_from(f"r{i}" for i in range(rows))
        graph.add_nodes_from(f"c{j}" for j in range(cols))
        for i, row in enumerate(matrix):
            for j, v in enumerate(row):
                if v:
                    graph.add_edge(f"r{i}", f"c{j}")
        expected = len(
            nx.bipartite.maximum_matching(
                graph, top_nodes=[f"r{i}" for i in range(rows)]
            )
        ) // 2
        assert max_support_set(matrix)[1] == expected


def recursive_max_support_set(matrix):
    """The recursive augmenting search with the same exchange pass, kept as
    the reference whose witnesses the iterative search must reproduce."""
    rows = [list(r) for r in matrix]
    n, o = len(rows), len(rows[0]) if rows else 0
    match_col = [None] * o

    def augment(r, seen):
        for c in range(o):
            if rows[r][c] == 1 and c not in seen:
                seen.add(c)
                if match_col[c] is None or augment(match_col[c], seen):
                    match_col[c] = r
                    return True
        return False

    for r in range(n):
        augment(r, set())
    elems = sorted((match_col[c] + 1, c + 1) for c in range(o) if match_col[c] is not None)
    changed = True
    while changed:
        changed = False
        for a in range(len(elems)):
            r1, c1 = elems[a]
            for b in range(a + 1, len(elems)):
                r2, c2 = elems[b]
                if c1 > c2 and rows[r1 - 1][c2 - 1] == 1 and rows[r2 - 1][c1 - 1] == 1:
                    elems[a], elems[b] = (r1, c2), (r2, c1)
                    c1 = c2
                    changed = True
    return tuple(elems), len(elems)


def random_matrix(rng, max_rows, max_cols):
    n, o = rng.randint(1, max_rows), rng.randint(1, max_cols)
    density = rng.random()
    return [[int(rng.random() < density) for _ in range(o)] for _ in range(n)]


class TestIterativeSearch:
    def test_long_augmenting_paths_need_no_recursion(self):
        # Row r holds 1s at columns r-1 and r: row r first tries column r-1
        # and pushes the search back through every earlier row, a path r
        # rows long, before it settles on column r.
        n = 300
        matrix = [[int(c in (r - 1, r)) for c in range(n)] for r in range(n)]
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(250)
        try:
            witness, size = max_support_set(matrix)
        finally:
            sys.setrecursionlimit(limit)
        assert size == n
        assert witness == tuple((r, r) for r in range(1, n + 1))

    def test_witnesses_match_the_recursive_search(self):
        rng = random.Random("matching/iterative")
        for case in range(600):
            matrix = random_matrix(rng, 8, 8)
            assert max_support_set(matrix) == recursive_max_support_set(matrix), (case, matrix)

    def test_witnesses_match_the_recursive_search_up_to_nine_square(self):
        rng = random.Random("matching/iterative-9x9")
        for case in range(3000):
            matrix = random_matrix(rng, 9, 9)
            assert max_support_set(matrix) == recursive_max_support_set(matrix), (case, matrix)

    @pytest.mark.parametrize("matrix", [[[1, 0], [1]], [[1, 2]], [[1, -1]], *(m for m, _ in MALFORMED_MATRICES)])
    def test_malformed_input_is_a_domain_error(self, matrix):
        with pytest.raises(DomainError):
            max_support_set(matrix)


class TestTiledSupportSizes:
    @staticmethod
    def tiled_reference(matrix, max_traversals):
        return tuple(
            tuple(
                max_support_set(continuation(matrix, l1, l2))[1]
                for l2 in range(1, max_traversals + 1)
            )
            for l1 in range(1, max_traversals + 1)
        )

    def test_matches_the_tiled_matching_and_brute_force(self):
        rng = random.Random("matching/tiled")
        special = [
            [[0] * 4 for _ in range(3)],
            [[1] * 5 for _ in range(4)],
            [[1, 0, 1, 1, 0, 1, 0]],
            [[1], [0], [1], [1], [0], [1], [1]],
            [[1] * 7 for _ in range(7)],
        ]
        cases = [(m, cap) for m in special for cap in range(1, 5)]
        cases += [(random_matrix(rng, 7, 7), rng.randint(1, 4)) for _ in range(400)]
        brute_forced = 0
        for matrix, cap in cases:
            sizes = tiled_support_sizes(matrix, cap)
            assert sizes == self.tiled_reference(matrix, cap), (matrix, cap)
            for l1 in range(1, cap + 1):
                for l2 in range(1, cap + 1):
                    tiled = continuation(matrix, l1, l2)
                    if len(tiled) * len(tiled[0]) <= 30:
                        assert sizes[l1 - 1][l2 - 1] == brute_force_max_support(tiled)
                        brute_forced += 1
        assert brute_forced > 300

    def test_frozen_values(self):
        # three phases against two, all clashing: nothing pairs
        assert tiled_support_sizes([[0, 0], [0, 0], [0, 0]], 2) == ((0, 0), (0, 0))
        # all ones: min(l1 * rows, l2 * cols)
        assert tiled_support_sizes([[1, 1], [1, 1], [1, 1]], 3) == (
            (2, 3, 3),
            (2, 4, 6),
            (2, 4, 6),
        )
        # one shared column: its l2 copies bound every tiling
        assert tiled_support_sizes([[1], [1]], 2) == ((1, 2), (1, 2))

    def test_empty_matrix_has_no_support(self):
        assert tiled_support_sizes([], 2) == ((0, 0), (0, 0))

    @pytest.mark.parametrize("cap", [0, -1])
    def test_traversal_cap_must_be_positive(self, cap):
        with pytest.raises(DomainError, match="max_traversals"):
            tiled_support_sizes([[1]], cap)

    @pytest.mark.parametrize("cap", [2.5, True, "2"])
    def test_traversal_cap_must_be_an_int(self, cap):
        with pytest.raises(DomainError, match="max_traversals"):
            tiled_support_sizes([[1]], cap)

    @pytest.mark.parametrize("matrix", [[[1, 0], [1]], [[2]], *(m for m, _ in MALFORMED_MATRICES)])
    def test_malformed_input_is_a_domain_error(self, matrix):
        with pytest.raises(DomainError):
            tiled_support_sizes(matrix, 2)

    def test_certificate_rejects_a_flow_that_is_not_maximum(self):
        # an empty flow on [[1]]: the search reached row 1 but not column 1,
        # so the cover misses entry (1, 1) and the flow is not proved maximum
        with pytest.raises(ConsistencyError, match="outside the cover"):
            _check_cover([0b1], unreached_rows=0, reached_cols=0)

    def test_certificate_rejects_an_infeasible_flow(self):
        # one unit on the 0-entry (1, 2), with loads and size that agree
        with pytest.raises(ConsistencyError, match="off its 1-entries"):
            _check_flow([0b01], (1, 1), [[0, 1]], [1], [0, 1], 1)


def row_masks(matrix):
    return [int("".join(str(v) for v in reversed(row)), 2) for row in matrix]


class TestMaskKernel:
    """_tiled_sizes on row masks, against tiled_support_sizes on lists, the
    tiled matching and brute force, and its certificate under forged
    searches."""

    @staticmethod
    def count_searches(monkeypatch):
        """Record (cap_row, cap_col, failed) for every search, failed when it
        ended without a path rather than at its bound."""
        calls = []
        search = matching._saturate

        def counted(ones, width, cap_row, cap_col, bound):
            result = search(ones, width, cap_row, cap_col, bound)
            calls.append((cap_row, cap_col, result[-1] is not None))
            return result

        monkeypatch.setattr(matching, "_saturate", counted)
        return calls

    def test_matches_the_list_entry_point_and_the_oracles(self):
        rng = random.Random("matching/mask-kernel")
        cases = [([[1] * o for _ in range(n)], cap) for n, o in ((1, 4), (3, 2), (4, 4), (2, 5)) for cap in (2, 4)]
        for _ in range(300):
            matrix = random_matrix(rng, 6, 6)
            if rng.random() < 0.3:
                # an all-ones block of rows on top of a random matrix
                block = rng.randint(1, len(matrix))
                matrix[:block] = [[1] * len(matrix[0]) for _ in range(block)]
            cases.append((matrix, rng.randint(1, 4)))
        brute_forced = 0
        for matrix, cap in cases:
            sizes = _tiled_sizes(row_masks(matrix), len(matrix[0]), cap)
            assert sizes == tiled_support_sizes(matrix, cap), (matrix, cap)
            assert sizes == TestTiledSupportSizes.tiled_reference(matrix, cap), (matrix, cap)
            for l1 in range(1, cap + 1):
                for l2 in range(1, cap + 1):
                    tiled = continuation(matrix, l1, l2)
                    if len(tiled) * len(tiled[0]) <= 30:
                        assert sizes[l1 - 1][l2 - 1] == brute_force_max_support(tiled)
                        brute_forced += 1
        assert brute_forced > 600

    def test_searches_stay_within_the_hull_bound_at_any_cap(self, monkeypatch):
        # Disjoint all-ones blocks of 1 x 2, 3 x 1 and 1 x 1 put four covers
        # on the hull: (5, 0), (2, 1), (1, 2) and (0, 4) rows and columns.
        # From the two covers every matrix has, the search makes two probes
        # that fall short, each leaving a new hull cover, and three that
        # confirm an edge, whatever the cap.
        calls = self.count_searches(monkeypatch)
        matrix = [
            [1, 1, 0, 0],
            [0, 0, 1, 0],
            [0, 0, 1, 0],
            [0, 0, 1, 0],
            [0, 0, 0, 1],
        ]
        searched = {}
        oracles = {4: TestTiledSupportSizes.tiled_reference, 300: TestCoverOracle.lightest_cover_weights}
        for cap, oracle in oracles.items():
            calls.clear()
            assert _tiled_sizes(row_masks(matrix), 4, cap) == oracle(matrix, cap), cap
            searched[cap] = calls[:]
        assert searched[4] == searched[300]
        assert len(searched[4]) == 5 <= 2 * min(len(matrix), len(matrix[0])) + 1
        assert _hull_covers(row_masks(matrix), 4) == ((0, 4), (1, 2), (2, 1), (5, 0))
        assert [fails for _, _, fails in searched[4]] == [True, True, False, False, False]

    def test_searches_do_not_depend_on_the_cap(self, monkeypatch):
        # random matrices, zero rows and columns included: the same searches
        # at caps 1 and 40, at most 2 * min(rows, cols) + 1 of them
        calls = self.count_searches(monkeypatch)
        rng = random.Random("matching/hull-searches")
        for _ in range(300):
            matrix = random_matrix(rng, 8, 8)
            searched = []
            for cap in (1, 40):
                calls.clear()
                _tiled_sizes(row_masks(matrix), len(matrix[0]), cap)
                searched.append(calls[:])
            assert searched[0] == searched[1], matrix
            assert len(searched[0]) <= 2 * min(len(matrix), len(matrix[0])) + 1, matrix

    def test_a_search_stopped_at_its_bound_confirms_a_hull_edge(self, monkeypatch):
        # All ones, 2 x 3: the all-rows and the all-columns covers weigh the
        # same at (3, 2), and the flow there reaches their weight, 6. That
        # search stops at its bound and confirms the edge between them, which
        # proves every entry at any cap, with no failed search.
        calls = self.count_searches(monkeypatch)
        assert _tiled_sizes([0b111, 0b111], 3, 4) == (
            (2, 2, 2, 2),
            (3, 4, 4, 4),
            (3, 6, 6, 6),
            (3, 6, 8, 8),
        )
        assert calls == [(3, 2, False)]
        for cap in (1, 300):
            calls.clear()
            _tiled_sizes([0b111, 0b111], 3, cap)
            assert calls == [(3, 2, False)], cap

    def test_a_forged_cover_is_rejected(self, monkeypatch):
        # the search claims the empty cover, which misses entry (1, 1)
        monkeypatch.setattr(matching, "_saturate", lambda ones, width, r, c, bound: ([[0]], [0], [0], 0, (0, 0)))
        with pytest.raises(ConsistencyError, match="outside the cover"):
            _tiled_sizes([0b1], 1, 1)

    def test_a_cover_heavier_than_the_flow_is_rejected(self, monkeypatch):
        # a true cover (row 1), but the search stopped at the empty flow
        monkeypatch.setattr(matching, "_saturate", lambda ones, width, r, c, bound: ([[0]], [0], [0], 0, (0b1, 0)))
        with pytest.raises(ConsistencyError, match="cover weight 1 differs from flow 0"):
            _tiled_sizes([0b1], 1, 1)

    ALL_FOUR = [
        "flow [[-1, 1]] has units off its 1-entries or below 0",
        "row loads [2] are wrong or exceed 2",
        "column loads [0, 3] are wrong or exceed 1",
        "row loads [2] do not sum to the flow's size 5",
    ]

    @pytest.mark.parametrize(
        "flow, row_load, col_load, total, message",
        [
            ([[0, 1]], [1], [0, 1], 1, "off its 1-entries"),
            ([[2, 0]], [2], [2, 0], 2, "exceed 1"),
            ([[-1, 0]], [-1], [-1, 0], -1, "below 0"),
            # one unit below 0 and one off the 1-entries, with row loads,
            # column loads and a size that all disagree: every check fails,
            # and the message lists all four problems in order
            ([[-1, 1]], [2], [0, 3], 5, f"^{re.escape(f'capacitated flow failed its certificate: {ALL_FOUR}')}$"),
        ],
    )
    def test_a_forged_flow_is_rejected(self, monkeypatch, flow, row_load, col_load, total, message):
        # the first search on [[1, 0]] is at (row cap, column cap) = (2, 1)
        monkeypatch.setattr(
            matching, "_saturate", lambda ones, width, cap_row, cap_col, bound: (flow, row_load, col_load, total, (0, 0b11))
        )
        with pytest.raises(ConsistencyError, match=message):
            _tiled_sizes([0b01], 2, 1)


class TestCoverOracle:
    """_tiled_sizes at caps far beyond the tiled matching, against every
    cover found by enumeration, and its homogeneity."""

    @staticmethod
    def cover_sizes(matrix):
        """The sizes (|U|, |C|) of every pair (U, C) of row and column
        subsets that covers every 1-entry, found by enumerating all pairs:
        columns outside C must have no 1-entry outside the rows of U."""
        n, o = len(matrix), len(matrix[0])
        sizes = set()
        for rows in range(1 << n):
            needed = 0
            for r in range(n):
                if not rows >> r & 1:
                    needed |= sum(1 << c for c in range(o) if matrix[r][c])
            for cols in range(1 << o):
                if cols & needed == needed:
                    sizes.add((bin(rows).count("1"), bin(cols).count("1")))
        return sizes

    @classmethod
    def lightest_cover_weights(cls, matrix, cap):
        """Every entry as the lightest l1 * |U| + l2 * |C| over the pairs
        (U, C) of row and column subsets that cover every 1-entry."""
        sizes = cls.cover_sizes(matrix)
        steps = range(1, cap + 1)
        return tuple(tuple(min(l1 * a + l2 * c for a, c in sizes) for l2 in steps) for l1 in steps)

    def test_matches_the_cover_enumeration_up_to_cap_50(self):
        rng = random.Random("matching/cover-oracle")
        cases = [([[1] * 6 for _ in range(6)], 50), ([[0] * 3 for _ in range(2)], 7)]
        cases += [(random_matrix(rng, 6, 6), rng.randint(1, 50)) for _ in range(150)]
        for matrix, cap in cases:
            sizes = tiled_support_sizes(matrix, cap)
            assert sizes == self.lightest_cover_weights(matrix, cap), (matrix, cap)

    def test_sizes_are_homogeneous(self):
        # size(k * l1, k * l2) = k * size(l1, l2), which generalizes the
        # paper's criterion 9 (equal traversals, l1 = l2)
        rng = random.Random("matching/homogeneous")
        for _ in range(60):
            matrix = random_matrix(rng, 6, 6)
            cap = rng.randint(2, 50)
            sizes = tiled_support_sizes(matrix, cap)
            for l1 in range(1, cap + 1):
                for l2 in range(1, cap + 1):
                    for k in range(2, cap // max(l1, l2) + 1):
                        assert sizes[k * l1 - 1][k * l2 - 1] == k * sizes[l1 - 1][l2 - 1], (matrix, l1, l2, k)


class TestRateBound:
    """The joint rate of l1 x l2 traversals, R(l1, l2) = (l1 + l2) /
    (l1 * t1 + l2 * t2 - S(l1, l2)) for a t1 x t2 joint matrix, depends only
    on l1 : l2 and is monotone in it on each hull piece. So no grid point
    beats the best rate over the hull's breakpoint rays and the two limits,
    1 / t1 and 1 / t2, and that bound stays below the paper's 1/t1 + 1/t2."""

    @staticmethod
    def breakpoint_rays(sizes):
        """(l1, l2, P) for each ray (c_Q - c_P, a_P - a_Q) where adjacent
        covers P and Q of the lower hull of the cover sizes (a, c) weigh the
        same, P being the one with more rows."""
        hull = []
        for a, c in sorted(sizes):
            if hull and c >= hull[-1][1]:
                continue  # another cover has no more rows and no more columns
            while len(hull) > 1 and (
                (hull[-1][0] - hull[-2][0]) * (c - hull[-2][1]) - (hull[-1][1] - hull[-2][1]) * (a - hull[-2][0]) <= 0
            ):
                hull.pop()
            hull.append((a, c))
        return [(q[1] - p[1], p[0] - q[0], p) for q, p in zip(hull, hull[1:])]

    @staticmethod
    def rate(t1, t2, l1, l2, size):
        return Fraction(l1 + l2, l1 * t1 + l2 * t2 - size)

    def cases(self):
        rng = random.Random("matching/rate-bound")
        cases = [[[1] * 4 for _ in range(3)], [[0] * 3 for _ in range(2)], [[1, 0], [0, 0]]]
        cases += [random_matrix(rng, 6, 6) for _ in range(200)]
        for seed in (1, 2):
            cases += [build_matrix(case.pair, case.period1, case.period2).rows for case in pair_corpus(seed, 40)]
        return cases

    def test_no_grid_point_beats_the_best_breakpoint_rate(self):
        reached = 0
        for matrix in self.cases():
            t1, t2 = len(matrix), len(matrix[0])
            rays = self.breakpoint_rays(TestCoverOracle.cover_sizes(matrix))
            at_rays = {(l1, l2): self.rate(t1, t2, l1, l2, l1 * a + l2 * c) for l1, l2, (a, c) in rays}
            bound = max([Fraction(1, t1), Fraction(1, t2), *at_rays.values()])
            sizes = tiled_support_sizes(matrix, 12)
            best = max(
                self.rate(t1, t2, l1, l2, sizes[l1 - 1][l2 - 1]) for l1 in range(1, 13) for l2 in range(1, 13)
            )
            assert best <= bound <= Fraction(1, t1) + Fraction(1, t2), matrix
            if any(rate == bound and max(l1, l2) // gcd(l1, l2) <= 12 for (l1, l2), rate in at_rays.items()):
                assert best == bound, matrix
                reached += 1
        assert reached > 100


class TestCore:
    """_tiled_sizes on the core, with all-zero rows and columns dropped,
    against the whole matrix."""

    @staticmethod
    def with_zero_lines(rng, matrix):
        """The matrix with all-zero rows and columns inserted at random places."""
        rows = [row[:] for row in matrix]
        for _ in range(rng.randint(0, 3)):
            at = rng.randint(0, len(rows[0]))
            rows = [row[:at] + [0] + row[at:] for row in rows]
        for _ in range(rng.randint(0, 3)):
            rows.insert(rng.randint(0, len(rows)), [0] * len(rows[0]))
        return rows

    @staticmethod
    def stripped(matrix):
        """The core as lists: the nonzero rows, restricted to the nonzero columns."""
        used = [j for j in range(len(matrix[0])) if any(row[j] for row in matrix)]
        return [[row[j] for j in used] for row in matrix if any(row)]

    def cases(self):
        rng = random.Random("matching/core")
        special = [
            [[0] * 4 for _ in range(3)],
            [[0]],
            [[0, 1, 0, 0, 1, 1, 0]],
            [[0], [1], [1], [0], [1]],
            [[1, 0, 1], [0, 0, 0], [1, 0, 0]],
        ]
        return special + [self.with_zero_lines(rng, random_matrix(rng, 5, 5)) for _ in range(150)]

    def test_core_drops_zero_rows_and_columns(self):
        for matrix in self.cases():
            core, width = _core(row_masks(matrix))
            expected = self.stripped(matrix)
            assert width == (len(expected[0]) if expected else 0)
            assert list(core) == row_masks(expected), matrix

    def test_core_table_equals_the_whole_matrix_and_brute_force(self):
        brute_forced = 0
        for matrix in self.cases():
            core, width = _core(row_masks(matrix))
            for cap in range(1, 5):
                sizes = _tiled_sizes(core, width, cap)
                assert sizes == tiled_support_sizes(matrix, cap), (matrix, cap)
                for l1 in range(1, cap + 1):
                    for l2 in range(1, cap + 1):
                        tiled = continuation(matrix, l1, l2)
                        if len(tiled) * len(tiled[0]) <= 30:
                            assert sizes[l1 - 1][l2 - 1] == brute_force_max_support(tiled)
                            brute_forced += 1
        assert brute_forced > 200

    def test_an_all_zero_matrix_has_an_empty_core(self):
        assert _core([0, 0, 0]) == ((), 0)
        assert _tiled_sizes((), 0, 3) == ((0, 0, 0),) * 3


class TestBruteForce:
    def test_agrees_on_small_frozen_cases(self):
        assert brute_force_max_support([[1, 1, 0], [0, 1, 0], [0, 1, 1]]) == 3
        assert brute_force_max_support([[0]]) == 0
        assert brute_force_max_support([[1]]) == 1

    def test_cell_limit_guard(self):
        big = [[1] * 8 for _ in range(4)]  # 32 cells
        with pytest.raises(DomainError, match="30 cells"):
            brute_force_max_support(big)
