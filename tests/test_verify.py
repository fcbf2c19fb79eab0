"""The property-check suite itself: corpora, realization, reporting."""

import hashlib
import inspect
import random

import pytest

from beatsched.analysis import interference_intensity
from beatsched.errors import DomainError
from beatsched.model import validate_path_rules
from beatsched.periods import build_matrix, intrinsic_period
from beatsched.verify import (
    CRITERIA,
    DEFAULT_SEED,
    CriterionResult,
    line_corpus,
    pair_corpus,
    pair_from_joint_matrix,
    random_binary_matrix,
    run_criteria,
)


class TestCorpora:
    def test_corpora_are_pinned(self):
        # each pair's paths and conflict masks, and each case's spacings and
        # traversal counts, at the seed `beatsched verify` uses by default
        def shape(pair):
            return (tuple((p.id, p.n_senders) for p in pair.paths), pair._conflicts)

        digest = hashlib.sha256()
        for pair in line_corpus(42, 200):
            digest.update(repr(shape(pair)).encode())
        for case in pair_corpus(42, 100):
            fields = (case.period1, case.period2, case.traversals_equal, case.traversals1, case.traversals2)
            digest.update(repr((shape(case.pair), *fields)).encode())
        assert digest.hexdigest() == "0955b6c0942b5aaf0d646f681b5864e01fbce32890b92185e48bd06ea4fdb3ae"

    def test_line_corpus_is_seed_deterministic(self):
        first = line_corpus(7, 20)
        second = line_corpus(7, 20)
        assert [p.relation for p in first] == [p.relation for p in second]
        assert [p.path(1).n_senders for p in first] == [
            p.path(1).n_senders for p in second
        ]

    def test_line_corpus_chains_obey_the_rules(self):
        for pair in line_corpus(3, 60):
            assert validate_path_rules(pair, 1).ok

    def test_pair_corpus_spacings_are_always_usable(self):
        for case in pair_corpus(9, 40):
            assert case.period1 >= intrinsic_period(case.pair, 1)
            assert case.period1 <= case.pair.path(1).n_senders
            assert case.period2 >= intrinsic_period(case.pair, 2)
            assert case.period2 <= case.pair.path(2).n_senders
            # both chains individually rule-compliant even when crossing
            assert validate_path_rules(case.pair, 1).ok
            assert validate_path_rules(case.pair, 2).ok

    def test_random_matrices_are_binary_and_bounded(self):
        rng = random.Random(0)
        for _ in range(100):
            matrix = random_binary_matrix(rng)
            assert 1 <= len(matrix) <= 5
            assert 1 <= len(matrix[0]) <= 6
            assert all(v in (0, 1) for row in matrix for v in row)


class TestJointMatrixRealization:
    def test_any_requested_matrix_is_realized_exactly(self):
        rng = random.Random(123)
        for _ in range(100):
            wanted = random_binary_matrix(rng, max_rows=4, max_cols=4)
            pair = pair_from_joint_matrix(wanted)
            t1, t2 = len(wanted), len(wanted[0])
            assert intrinsic_period(pair, 1) == t1
            assert intrinsic_period(pair, 2) == t2
            assert build_matrix(pair, t1, t2).as_lists() == wanted

    def test_full_internal_interference(self):
        pair = pair_from_joint_matrix([[1, 1], [1, 1]])
        istar, _ = interference_intensity(pair, pair.path_nodes(1))
        assert istar == 2

    @pytest.mark.parametrize("matrix", [[], [[]], [[], []]])
    def test_empty_matrix_is_rejected(self, matrix):
        with pytest.raises(DomainError, match="^joint matrix needs at least one row and one column$"):
            pair_from_joint_matrix(matrix)

    def test_ragged_matrix_is_rejected(self):
        with pytest.raises(DomainError, match="^matrix rows have unequal lengths$"):
            pair_from_joint_matrix([[1, 0], [1]])

    @pytest.mark.parametrize("entry", [2, "x", None])
    def test_entries_other_than_0_or_1_are_rejected(self, entry):
        with pytest.raises(DomainError, match=f"^matrix entries must be 0 or 1, got {entry!r}$"):
            pair_from_joint_matrix([[entry, 0]])


class TestReporting:
    def test_result_line_format(self):
        result = CriterionResult(
            number=3, title="sample check", passed=True,
            details="10 instances", seconds=0.1234,
        )
        assert result.line() == (
            "PASS  criterion  3  sample check (10 instances, 0.12s)"
        )
        result.passed = False
        assert result.line().startswith("FAIL  criterion  3")

    def test_ten_checks_registered(self):
        assert len(CRITERIA) == 10

    def test_subset_selection_preserves_numbering(self):
        results = run_criteria(seed=DEFAULT_SEED, numbers=[5, 9])
        assert [r.number for r in results] == [5, 9]
        assert all(r.passed for r in results)

    def test_checks_are_numbered_one_to_ten(self):
        assert [check.number for check in CRITERIA] == list(range(1, 11))

    def test_corpus_floors_are_the_instances_defaults(self):
        # run_criteria never scales a randomized corpus below these
        floors = {
            check.number: inspect.signature(check).parameters["instances"].default
            for check in CRITERIA
            if "instances" in inspect.signature(check).parameters
        }
        assert floors == {1: 200, 2: 200, 3: 200, 4: 200, 5: 500, 6: 100, 8: 100, 9: 100}

    @pytest.mark.parametrize("numbers, unknown", [([99], "99"), ([3, 99], "99"), ([11, 0, 4], "0, 11")])
    def test_unknown_numbers_are_an_error(self, numbers, unknown):
        with pytest.raises(DomainError, match=f"^no check is numbered {unknown}; checks are numbered 1..10$"):
            run_criteria(seed=DEFAULT_SEED, numbers=numbers)

    def test_instances_never_drop_below_contract(self):
        result = run_criteria(seed=DEFAULT_SEED, numbers=[5], instances=10)[0]
        assert "500 random matrices" in result.details

    def test_subset_results_match_full_run(self):
        # Each check owns its rng stream, so running one alone gives the
        # same verdict and details as running all ten.
        alone = run_criteria(seed=DEFAULT_SEED, numbers=[8])[0]
        # criterion 8 is cheap; compare against a fresh full-list call
        within = run_criteria(seed=DEFAULT_SEED, numbers=[8, 9])[0]
        assert alone.passed == within.passed
        assert alone.details == within.details
