"""Schedule synthesis, the validity audit, and serialized round trips."""

from fractions import Fraction

import pytest

from beatsched.errors import ConsistencyError, DomainError
from beatsched.scheduler import (
    CATEGORY_JOINT,
    CATEGORY_PATH1,
    CATEGORY_PATH2,
    Beat,
    Schedule,
    SubsetActivation,
    audit_schedule,
    predicted_throughput,
    schedule_from_dict,
    schedule_pair_equal,
    schedule_pair_unequal,
    schedule_primary,
)
from beatsched.verify import pair_corpus, pair_from_joint_matrix
from helpers import OBSTRUCTION_C, line_pair, two_line_pair


@pytest.fixture(scope="module")
def chain6():
    return line_pair(6)


@pytest.fixture(scope="module")
def far_pair():
    return two_line_pair(6, 4, dy=50.0)


class TestPrimary:
    def test_unit_chain_golden_cycle(self, chain6):
        schedule = schedule_primary(chain6, 1)
        assert schedule.kind == "primary"
        assert schedule.period == 3
        assert schedule.path_periods == {1: 3}
        assert schedule.activation_counts == {1: 1}
        got = [
            (b.category, b.activations[0].phase, b.activations[0].members)
            for b in schedule.beats
        ]
        assert got == [
            (CATEGORY_PATH1, 1, (1, 4)),
            (CATEGORY_PATH1, 2, (2, 5)),
            (CATEGORY_PATH1, 3, (3, 6)),
        ]
        assert predicted_throughput(schedule) == Fraction(1, 3)

    def test_explicit_longer_spacing(self, chain6):
        schedule = schedule_primary(chain6, 1, period=5)
        assert schedule.period == 5
        assert [b.activations[0].members for b in schedule.beats] == [
            (1, 6), (2,), (3,), (4,), (5,),
        ]

    def test_rejects_unreachable_spacing(self, chain6):
        with pytest.raises(DomainError, match="not reachable"):
            schedule_primary(chain6, 1, period=2)

    def test_rejects_out_of_range_spacing(self, chain6):
        with pytest.raises(DomainError, match="out of range"):
            schedule_primary(chain6, 1, period=7)
        with pytest.raises(DomainError, match="out of range"):
            schedule_primary(chain6, 1, period=0)

    def test_second_path_of_a_pair(self, far_pair):
        schedule = schedule_primary(far_pair, 2)
        assert schedule.path_periods == {2: 3}
        assert schedule.beats[0].activations[0].members == (1, 4)

    def test_single_sender_chain(self):
        pair = line_pair(1)
        schedule = schedule_primary(pair, 1)
        assert schedule.period == 1
        assert predicted_throughput(schedule) == 1


class TestPairEqual:
    def test_distant_pair_fully_joint(self, far_pair):
        schedule = schedule_pair_equal(far_pair, 3, 3, 1)
        assert schedule.kind == "pair-equal"
        assert schedule.period == 3
        assert all(b.category == CATEGORY_JOINT for b in schedule.beats)
        # both phase sequences ascend together
        assert [
            (b.activation_for(1).phase, b.activation_for(2).phase)
            for b in schedule.beats
        ] == [(1, 1), (2, 2), (3, 3)]
        assert predicted_throughput(schedule) == Fraction(2, 3)

    def test_repeating_the_traversal_scales_the_period(self, far_pair):
        schedule = schedule_pair_equal(far_pair, 3, 3, 3)
        assert schedule.period == 9
        assert schedule.activation_counts == {1: 3, 2: 3}
        assert predicted_throughput(schedule) == Fraction(2, 3)
        # the cycle is the one-traversal cycle stated three times
        one = schedule_pair_equal(far_pair, 3, 3, 1)
        assert schedule.beats == one.beats * 3

    def test_no_joint_concurrency_serializes(self):
        pair = two_line_pair(4, 4, dy=0.0)  # same line: nothing pairs
        schedule = schedule_pair_equal(pair, 3, 3, 1)
        assert schedule.period == 6
        categories = [b.category for b in schedule.beats]
        assert categories == [CATEGORY_PATH1] * 3 + [CATEGORY_PATH2] * 3
        assert predicted_throughput(schedule) == Fraction(2, 6)

    def test_partial_pairing_orders_joint_then_leftovers(self):
        pair = pair_from_joint_matrix([[1, 0], [0, 0]])
        schedule = schedule_pair_equal(pair, 2, 2, 1)
        assert [b.category for b in schedule.beats] == [
            CATEGORY_JOINT,
            CATEGORY_PATH1,
            CATEGORY_PATH2,
        ]
        assert schedule.period == 3
        joint = schedule.beats[0]
        assert joint.activation_for(1).phase == 1
        assert joint.activation_for(2).phase == 1

    def test_rejects_bad_traversals(self, far_pair):
        with pytest.raises(DomainError):
            schedule_pair_equal(far_pair, 3, 3, 0)

    def test_needs_two_paths(self, chain6):
        with pytest.raises(DomainError):
            schedule_pair_equal(chain6, 3, 3, 1)


class TestPairUnequal:
    def test_distant_pair_lopsided(self, far_pair):
        schedule = schedule_pair_unequal(far_pair, 3, 3, 2, 1)
        assert schedule.kind == "pair-unequal"
        # 2*3 + 1*3 - 3 paired beats
        assert schedule.period == 6
        assert schedule.activation_counts == {1: 2, 2: 1}
        assert predicted_throughput(schedule) == Fraction(3, 6)
        joint = [b for b in schedule.beats if b.category == CATEGORY_JOINT]
        solo1 = [b for b in schedule.beats if b.category == CATEGORY_PATH1]
        assert len(joint) == 3 and len(solo1) == 3
        # leftover traversal keeps ascending phase order
        assert [b.activations[0].phase for b in solo1] == [1, 2, 3]

    def test_queueing_keeps_full_rate_on_the_hard_matrix(self):
        pair = pair_from_joint_matrix(OBSTRUCTION_C)
        schedule = schedule_pair_unequal(pair, 2, 3, 3, 2)
        assert schedule.period == 3 * 2 + 2 * 3 - 6
        assert predicted_throughput(schedule) == Fraction(5, 6)

    def test_collapses_to_equal_when_counts_match(self, far_pair):
        lhs = schedule_pair_unequal(far_pair, 3, 3, 1, 1)
        rhs = schedule_pair_equal(far_pair, 3, 3, 1)
        assert lhs.beats == rhs.beats
        assert lhs.period == rhs.period

    def test_rejects_bad_counts(self, far_pair):
        with pytest.raises(DomainError):
            schedule_pair_unequal(far_pair, 3, 3, 0, 1)
        with pytest.raises(DomainError):
            schedule_pair_unequal(far_pair, 3, 3, 1, -1)


class TestOneCycleBuilder:
    def test_equal_repeats_the_one_traversal_unequal_cycle(self):
        for case in pair_corpus(7, 80):
            pair, t1, t2 = case.pair, case.period1, case.period2
            k = case.traversals_equal
            equal = schedule_pair_equal(pair, t1, t2, k)
            assert equal.beats == schedule_pair_unequal(pair, t1, t2, 1, 1).beats * k

    def test_zero_spacing_is_rejected_in_both_modes(self, far_pair):
        # a spacing of 0 names no phases, so no pair cycle can be built on it
        for build in (
            lambda t1, t2: schedule_pair_equal(far_pair, t1, t2, 1),
            lambda t1, t2: schedule_pair_unequal(far_pair, t1, t2, 1, 1),
        ):
            with pytest.raises(DomainError, match="spacing must be in 1..6, got 0"):
                build(0, 3)
            with pytest.raises(DomainError, match="spacing must be in 1..4, got 0"):
                build(3, 0)


class TestScheduleType:
    def test_period_must_match_beat_count(self):
        beat = Beat(
            category=CATEGORY_PATH1,
            activations=(
                SubsetActivation(path_id=1, spacing=1, phase=1, members=(1,)),
            ),
        )
        with pytest.raises(ConsistencyError, match="disagrees"):
            Schedule(
                period=2,
                beats=(beat,),
                path_periods={1: 1},
                activation_counts={1: 1},
                kind="primary",
            )

    def test_beat_lookup_wraps(self, chain6):
        schedule = schedule_primary(chain6, 1)
        assert schedule.beat(1) == schedule.beats[0]
        assert schedule.beat(4) == schedule.beats[0]
        assert schedule.beat(3) == schedule.beats[2]

    def test_dict_round_trip(self, far_pair):
        for schedule in (
            schedule_primary(far_pair, 1),
            schedule_pair_equal(far_pair, 3, 3, 2),
            schedule_pair_unequal(far_pair, 3, 3, 2, 1),
        ):
            assert schedule_from_dict(schedule.to_dict()) == schedule


class TestAudit:
    def _solo_beat(self, phase: int, members: tuple[int, ...]) -> Beat:
        return Beat(
            category=CATEGORY_PATH1,
            activations=(
                SubsetActivation(
                    path_id=1, spacing=3, phase=phase, members=members
                ),
            ),
        )

    def test_constructed_schedules_audit_clean(self, far_pair):
        for schedule in (
            schedule_primary(far_pair, 1),
            schedule_pair_equal(far_pair, 3, 3, 1),
            schedule_pair_unequal(far_pair, 3, 3, 1, 2),
        ):
            report = audit_schedule(far_pair, schedule)
            assert report.ok and not report.problems

    def test_interfering_union_is_flagged(self, chain6):
        bad = Schedule(
            period=1,
            beats=(self._solo_beat(1, (1, 4)),),
            path_periods={1: 3},
            activation_counts={1: 1},
            kind="primary",
        )
        # tamper: claim spacing 3 but pack interfering members
        worse = Schedule(
            period=1,
            beats=(
                Beat(
                    category=CATEGORY_PATH1,
                    activations=(
                        SubsetActivation(
                            path_id=1, spacing=1, phase=1,
                            members=(1, 2, 3, 4, 5, 6),
                        ),
                    ),
                ),
            ),
            path_periods={1: 1},
            activation_counts={1: 1},
            kind="primary",
        )
        report = audit_schedule(chain6, worse)
        assert not report.concurrency_ok
        assert any("interfere" in p for p in report.problems)
        # and the single correct phase out of three breaks ergodicity
        report = audit_schedule(chain6, bad)
        assert not report.ergodicity_ok

    def test_empty_beat_is_flagged(self, chain6):
        schedule = Schedule(
            period=1,
            beats=(Beat(category=CATEGORY_PATH1, activations=()),),
            path_periods={1: 3},
            activation_counts={1: 1},
            kind="primary",
        )
        report = audit_schedule(chain6, schedule)
        assert not report.non_empty_ok

    def test_double_activation_of_one_path_is_flagged(self, chain6):
        act1 = SubsetActivation(path_id=1, spacing=3, phase=1, members=(1, 4))
        act2 = SubsetActivation(path_id=1, spacing=3, phase=2, members=(2, 5))
        schedule = Schedule(
            period=1,
            beats=(Beat(category=CATEGORY_PATH1, activations=(act1, act2)),),
            path_periods={1: 3},
            activation_counts={1: 1},
            kind="primary",
        )
        report = audit_schedule(chain6, schedule)
        assert not report.uniqueness_ok
        assert any("twice" in p for p in report.problems)

    def test_members_must_match_the_phase_subset(self, chain6):
        schedule = Schedule(
            period=3,
            beats=(
                self._solo_beat(1, (1,)),  # should be (1, 4)
                self._solo_beat(2, (2, 5)),
                self._solo_beat(3, (3, 6)),
            ),
            path_periods={1: 3},
            activation_counts={1: 1},
            kind="primary",
        )
        report = audit_schedule(chain6, schedule)
        assert not report.uniqueness_ok
        assert any("do not match" in p for p in report.problems)

    def test_uneven_phase_counts_are_flagged(self, chain6):
        schedule = Schedule(
            period=3,
            beats=(
                self._solo_beat(1, (1, 4)),
                self._solo_beat(1, (1, 4)),
                self._solo_beat(3, (3, 6)),
            ),
            path_periods={1: 3},
            activation_counts={1: 1},
            kind="primary",
        )
        report = audit_schedule(chain6, schedule)
        assert not report.ergodicity_ok

    def test_declared_spacing_must_match(self, chain6):
        schedule = Schedule(
            period=1,
            beats=(
                Beat(
                    category=CATEGORY_PATH1,
                    activations=(
                        SubsetActivation(
                            path_id=1, spacing=4, phase=1, members=(1, 5)
                        ),
                    ),
                ),
            ),
            path_periods={1: 3},
            activation_counts={1: 1},
            kind="primary",
        )
        report = audit_schedule(chain6, schedule)
        assert not report.uniqueness_ok
        assert any("declares" in p for p in report.problems)
