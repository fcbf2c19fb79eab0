"""Phase subsets, reachable spacings, and the joint concurrency matrix."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beatsched.analysis import interference_intensity
from beatsched.errors import DomainError
from beatsched.model import is_concurrency_subset
from beatsched.periods import (
    ConcurrencyMatrix,
    build_matrix,
    continuation,
    intrinsic_period,
    is_reachable_period,
    subset_members,
)
from helpers import MALFORMED_MATRICES, line_pair, n, two_line_pair


@pytest.fixture(scope="module")
def chain6():
    return line_pair(6)


class TestSubsetMembers:
    def test_members_step_by_the_spacing(self, chain6):
        path = chain6.path(1)
        assert subset_members(path, 1, 3) == (n(1, 1), n(1, 4))
        assert subset_members(path, 2, 3) == (n(1, 2), n(1, 5))
        assert subset_members(path, 3, 3) == (n(1, 3), n(1, 6))
        assert subset_members(path, 1, 4) == (n(1, 1), n(1, 5))
        assert subset_members(path, 6, 6) == (n(1, 6),)

    def test_phase_must_fit_the_spacing(self, chain6):
        path = chain6.path(1)
        with pytest.raises(DomainError):
            subset_members(path, 4, 3)
        with pytest.raises(DomainError):
            subset_members(path, 0, 3)
        with pytest.raises(DomainError):
            subset_members(path, 1, 7)

    @pytest.mark.parametrize(
        "phase, spacing, message",
        [
            (1, 2.0, "spacing must be in 1..6, got 2.0"),
            (1, True, "spacing must be in 1..6, got True"),
            (1.0, 2, "phase must be in 1..2, got 1.0"),
            (True, 2, "phase must be in 1..2, got True"),
        ],
    )
    def test_spacing_and_phase_must_be_ints(self, chain6, phase, spacing, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            subset_members(chain6.path(1), phase, spacing)

    def test_every_sender_lands_in_exactly_one_phase(self, chain6):
        path = chain6.path(1)
        for spacing in range(1, 7):
            seen = []
            for phase in range(1, spacing + 1):
                seen.extend(subset_members(path, phase, spacing))
            assert sorted(seen) == list(path.senders)


class TestReachability:
    def test_unit_chain_window(self, chain6):
        # Spacings below the interference intensity put two interfering
        # senders in one phase subset; everything from 3 up to the chain
        # length works.
        reachable = [
            s for s in range(1, 7) if is_reachable_period(chain6, 1, s)
        ]
        assert reachable == [3, 4, 5, 6]

    def test_sparse_chain_bottoms_out_at_two(self):
        # Adjacency always interferes (a relay cannot send and receive
        # in one beat), so spacing 1 is out for every multi-sender chain;
        # a spread-out chain settles at 2.
        pair = line_pair(4, gap=10.0, radius=0.5)
        assert not is_reachable_period(pair, 1, 1)
        assert is_reachable_period(pair, 1, 2)
        assert intrinsic_period(pair, 1) == 2

    def test_intrinsic_equals_smallest_reachable(self, chain6):
        assert intrinsic_period(chain6, 1) == 3

    def test_reachable_spacings_yield_concurrency_subsets(self, chain6):
        for spacing in range(3, 7):
            for phase in range(1, spacing + 1):
                members = subset_members(chain6.path(1), phase, spacing)
                assert is_concurrency_subset(chain6, members)

    def test_intrinsic_matches_intensity_on_lines(self):
        # On rule-compliant chains the ascending scan bottoms out exactly
        # at the size of the largest pairwise-interfering set.
        for size in range(1, 11):
            for gap, radius in [(1.0, 1.0), (1.0, 2.2), (0.8, 2.0)]:
                pair = line_pair(size, gap=gap, radius=radius)
                istar, _ = interference_intensity(pair)
                assert intrinsic_period(pair, 1) == istar


class TestJointMatrix:
    def test_distant_pair_is_all_ones(self):
        pair = two_line_pair(6, 4, dy=50.0)
        matrix = build_matrix(pair, 3, 3)
        assert matrix.as_lists() == [[1, 1, 1], [1, 1, 1], [1, 1, 1]]

    def test_coincident_pair_is_all_zeros(self):
        # Both chains on the same line: every cross subset clashes.
        pair = two_line_pair(4, 4, dy=0.0)
        matrix = build_matrix(pair, 3, 3)
        assert matrix.as_lists() == [[0, 0, 0], [0, 0, 0], [0, 0, 0]]

    def test_entries_mirror_subset_concurrency(self):
        pair = two_line_pair(5, 4, dy=1.5)
        matrix = build_matrix(pair, 3, 3)
        for i in range(1, 4):
            for j in range(1, 4):
                union = subset_members(pair.path(1), i, 3) + subset_members(
                    pair.path(2), j, 3
                )
                assert matrix.entry(i, j) == int(
                    is_concurrency_subset(pair, union)
                )

    @pytest.mark.parametrize("phase1, phase2", [(0, 1), (1, 0), (3, 1), (1, 4)])
    def test_entry_outside_the_matrix_is_rejected(self, phase1, phase2):
        matrix = ConcurrencyMatrix(t1=2, t2=3, rows=((1, 0, 1), (0, 1, 0)))
        assert matrix.entry(2, 3) == 0 and matrix.entry(1, 3) == 1
        with pytest.raises(DomainError, match=rf"^phase \({phase1}, {phase2}\) outside 2x3 matrix$"):
            matrix.entry(phase1, phase2)

    @pytest.mark.parametrize("phase1, phase2", [(1.5, 1), (True, 1), (1, "2")])
    def test_entry_rejects_a_phase_that_is_not_an_int(self, phase1, phase2):
        matrix = ConcurrencyMatrix(t1=2, t2=3, rows=((1, 0, 1), (0, 1, 0)))
        with pytest.raises(DomainError, match=rf"^phases must be ints, got \({re.escape(repr(phase1))}, "):
            matrix.entry(phase1, phase2)

    def test_unreachable_spacing_is_rejected(self):
        pair = two_line_pair(6, 4, dy=50.0)
        with pytest.raises(DomainError):
            build_matrix(pair, 2, 3)

    def test_needs_two_paths(self, chain6):
        with pytest.raises(DomainError):
            build_matrix(chain6, 3, 3)

    def test_spacing_below_one_is_rejected(self):
        # a spacing of 0 has no phases; it must not pass as an empty matrix
        pair = two_line_pair(6, 4, dy=50.0)
        with pytest.raises(DomainError, match=r"spacing must be in 1\.\.6, got 0"):
            build_matrix(pair, 0, 3)
        with pytest.raises(DomainError, match=r"spacing must be in 1\.\.4, got 0"):
            build_matrix(pair, 3, 0)
        with pytest.raises(DomainError, match=r"spacing must be in 1\.\.6, got -1"):
            is_reachable_period(pair, 1, -1)


class TestContinuation:
    def test_dimensions_and_indexing(self):
        base = ConcurrencyMatrix(t1=2, t2=3, rows=((1, 0, 1), (0, 1, 0)))
        tiled = continuation(base, 2, 3)
        assert len(tiled) == 4
        assert all(len(row) == 9 for row in tiled)
        for i in range(1, 5):
            for j in range(1, 10):
                assert tiled[i - 1][j - 1] == base.entry(
                    ((i - 1) % 2) + 1, ((j - 1) % 3) + 1
                )

    def test_identity_tiling_is_the_matrix_itself(self):
        base = ConcurrencyMatrix(t1=2, t2=2, rows=((1, 0), (0, 1)))
        assert continuation(base, 1, 1) == base.rows

    @given(
        rows=st.integers(1, 4),
        cols=st.integers(1, 4),
        l1=st.integers(1, 3),
        l2=st.integers(1, 3),
        bits=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_tiling_is_periodic_in_both_axes(self, rows, cols, l1, l2, bits):
        base = tuple(
            tuple(bits.draw(st.integers(0, 1)) for _ in range(cols))
            for _ in range(rows)
        )
        tiled = continuation(base, l1, l2)
        assert len(tiled) == rows * l1
        assert all(len(r) == cols * l2 for r in tiled)
        for i in range(rows * l1):
            for j in range(cols * l2):
                assert tiled[i][j] == base[i % rows][j % cols]

    @pytest.mark.parametrize(
        "matrix, message",
        [
            ([[1], [1, 0]], "matrix rows have unequal lengths"),
            ([[1, 0], [1]], "matrix rows have unequal lengths"),
            ([[2, 0], [0, 1]], "matrix entries must be 0 or 1, got 2"),
            ([["1"]], "matrix entries must be 0 or 1, got '1'"),
            *MALFORMED_MATRICES,
        ],
    )
    def test_rejects_malformed_sequences(self, matrix, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            continuation(matrix, 1, 2)

    @pytest.mark.parametrize("matrix", [[], [[]]])
    def test_rejects_an_empty_matrix(self, matrix):
        with pytest.raises(DomainError, match="^cannot tile an empty matrix$"):
            continuation(matrix, 1, 1)

    def test_rejects_non_positive_counts(self):
        base = ConcurrencyMatrix(t1=1, t2=1, rows=((1,),))
        with pytest.raises(DomainError):
            continuation(base, 0, 1)
        with pytest.raises(DomainError):
            continuation(base, 1, -1)

    @pytest.mark.parametrize(
        "l1, l2, message",
        [
            (2.0, 1, "l1 must be an int, got 2.0"),
            (1, True, "l2 must be an int, got True"),
            (0, 1, "traversal counts must be >= 1, got (0, 1)"),
        ],
    )
    def test_counts_must_be_ints_of_at_least_one(self, l1, l2, message):
        for matrix in (ConcurrencyMatrix(t1=1, t2=1, rows=((1,),)), [[1]]):
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                continuation(matrix, l1, l2)
