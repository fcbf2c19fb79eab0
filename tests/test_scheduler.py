"""Schedule synthesis, the validity audit, and serialized round trips."""

import copy
import dataclasses
import operator
import random
import re
from fractions import Fraction

import pytest

from beatsched import scheduler
from beatsched.errors import ConsistencyError, DomainError
from beatsched.model import PathPair
from beatsched.scheduler import (
    CATEGORY_JOINT,
    CATEGORY_PATH1,
    CATEGORY_PATH2,
    AuditReport,
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
from beatsched.simulator import measure_delay, run
from beatsched.verify import line_corpus, pair_corpus, pair_from_joint_matrix
from helpers import OBSTRUCTION_C, line_pair, reference_audit, two_line_pair


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

    @pytest.mark.parametrize("period", [3.0, True])
    def test_rejects_a_period_that_is_no_int(self, chain6, period):
        with pytest.raises(DomainError, match=f"^spacing must be in 1..6, got {period}$"):
            schedule_primary(chain6, 1, period)

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
        with pytest.raises(DomainError, match="^traversal count must be >= 1, got 0$"):
            schedule_pair_equal(far_pair, 3, 3, 0)

    @pytest.mark.parametrize("traversals", [2.0, True])
    def test_rejects_traversals_that_are_no_int(self, far_pair, traversals):
        with pytest.raises(DomainError, match=f"^traversals must be an int, got {traversals}$"):
            schedule_pair_equal(far_pair, 3, 3, traversals)

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
        with pytest.raises(DomainError, match="^traversal counts must be >= 1, got 0 and 1$"):
            schedule_pair_unequal(far_pair, 3, 3, 0, 1)
        with pytest.raises(DomainError, match="^traversal counts must be >= 1, got 1 and -1$"):
            schedule_pair_unequal(far_pair, 3, 3, 1, -1)

    def test_rejects_counts_that_are_no_int(self, far_pair):
        with pytest.raises(DomainError, match="^traversals1 must be an int, got 2.0$"):
            schedule_pair_unequal(far_pair, 3, 3, 2.0, 1)
        with pytest.raises(DomainError, match="^traversals2 must be an int, got True$"):
            schedule_pair_unequal(far_pair, 3, 3, 1, True)


class TestOneCycleBuilder:
    def test_equal_repeats_the_one_traversal_unequal_cycle(self):
        for case in pair_corpus(7, 80):
            pair, t1, t2 = case.pair, case.period1, case.period2
            k = case.traversals_equal
            equal = schedule_pair_equal(pair, t1, t2, k)
            assert equal.beats == schedule_pair_unequal(pair, t1, t2, 1, 1).beats * k

    def test_both_modes_reach_the_three_spanned_stages(self, far_pair, monkeypatch):
        # perfbench times build_matrix, continuation and max_support_set by
        # replacing these scheduler attributes; a pair builder that skips one
        # would leave its span reading 0
        calls = {}
        for name in ("build_matrix", "continuation", "max_support_set"):
            def counted(*args, _name=name, _inner=getattr(scheduler, name)):
                calls[_name] = calls.get(_name, 0) + 1
                return _inner(*args)

            monkeypatch.setattr(scheduler, name, counted)
        for build in (
            lambda: schedule_pair_equal(far_pair, 3, 3, 2),
            lambda: schedule_pair_unequal(far_pair, 3, 3, 2, 1),
        ):
            calls.clear()
            build()
            assert calls == {"build_matrix": 1, "continuation": 1, "max_support_set": 1}

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

    @pytest.mark.parametrize(
        "change, field, value",
        [
            (lambda d: d["beats"][0]["activations"][0].update(phase=1.5), "beats[0].activations[0].phase", "1.5"),
            (lambda d: d["beats"][1]["activations"][0].update(path=True), "beats[1].activations[0].path", "True"),
            (lambda d: d["beats"][2]["activations"][0]["members"].__setitem__(1, 2.0),
             "beats[2].activations[0].members[1]", "2.0"),
            (lambda d: d.update(period=3.0), "period", "3.0"),
            (lambda d: d["path_periods"].update({"1": "3"}), "path_periods['1']", "'3'"),
            (lambda d: d.update(activation_counts={True: 1}), "activation_counts key", "True"),
            (lambda d: d.update(activation_counts={"01": 1}), "activation_counts key", "'01'"),
        ],
    )
    def test_dict_fields_must_be_ints(self, chain6, change, field, value):
        # to_dict writes mapping keys as decimal strings; every other
        # number must be an int, so 1.5 no longer loads as phase 1
        data = schedule_primary(chain6, 1).to_dict()
        change(data)
        with pytest.raises(DomainError, match=f"^schedule field {re.escape(field)} must be an int, got {re.escape(value)}$"):
            schedule_from_dict(data)

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda d: d.pop("kind"), "schedule field kind is missing"),
            (lambda d: d.pop("beats"), "schedule field beats is missing"),
            (lambda d: d.pop("path_periods"), "schedule field path_periods is missing"),
            (lambda d: d["beats"][0].pop("category"), "schedule field beats[0].category is missing"),
            (lambda d: d["beats"][1].pop("activations"), "schedule field beats[1].activations is missing"),
            (lambda d: d["beats"][0]["activations"][0].pop("phase"),
             "schedule field beats[0].activations[0].phase is missing"),
            (lambda d: d["beats"][0]["activations"][0].update(members=5),
             "schedule field beats[0].activations[0].members must be a list, got 5"),
            (lambda d: d.update(beats=5), "schedule field beats must be a list, got 5"),
            (lambda d: d["beats"].__setitem__(2, [1]), "schedule field beats[2] must be a dict, got [1]"),
            (lambda d: d["beats"][0].update(activations={}), "schedule field beats[0].activations must be a list, got {}"),
            (lambda d: d["beats"][0]["activations"].__setitem__(0, 3),
             "schedule field beats[0].activations[0] must be a dict, got 3"),
            (lambda d: d.update(activation_counts=[1]), "schedule field activation_counts must be a dict, got [1]"),
            (lambda d: d.update(kind=None), "schedule field kind must be a str, got None"),
        ],
    )
    def test_missing_or_misshapen_fields_are_named(self, chain6, change, message):
        data = schedule_primary(chain6, 1).to_dict()
        change(data)
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            schedule_from_dict(data)

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"period": 0, "beats": ()}, "schedule field period must be >= 1, got 0"),
            ({"path_periods": {1: 3, 2: 3}},
             "schedule path_periods has paths [1, 2] but activation_counts has [1]"),
            ({"activation_counts": {2: 1}}, "schedule path_periods has paths [1] but activation_counts has [2]"),
            ({"activation_counts": {1: 0}}, "schedule field activation_counts[1] must be >= 1, got 0"),
            ({"path_periods": {1: -3}}, "schedule field path_periods[1] must be >= 1, got -3"),
        ],
    )
    def test_bookkeeping_is_checked_when_a_schedule_is_built(self, chain6, changes, message):
        # a schedule with no beats, a path missing from one mapping, or a
        # count below 1 would otherwise fail later in run, measure_delay or
        # predicted_throughput; built directly and from a dict alike
        schedule = schedule_primary(chain6, 1)
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(schedule, **changes)
        # to_dict writes beats as a list; int mapping keys load as they are
        data = schedule.to_dict() | {key: list(v) if key == "beats" else v for key, v in changes.items()}
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            schedule_from_dict(data)

    @pytest.mark.parametrize(
        "changes, message",
        [({"period": True}, "period must be an int, got True"),
         ({"activation_counts": {1: 1.0}}, "activation_counts[1] must be an int, got 1.0")],
    )
    def test_a_count_that_is_no_int_is_rejected_when_a_schedule_is_built(self, chain6, changes, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(schedule_primary(chain6, 1), **changes)

    def test_a_schedule_that_is_no_dict_is_rejected(self, chain6):
        data = schedule_primary(chain6, 1).to_dict()
        for wrong, kind in (([data], "list"), ("schedule", "str"), (None, "NoneType")):
            with pytest.raises(DomainError, match=f"^a schedule must be a dict, got {kind}$"):
                schedule_from_dict(wrong)

    def test_dict_keys_may_be_ints_or_their_decimal_strings(self, far_pair):
        schedule = schedule_pair_equal(far_pair, 3, 3, 2)
        data = schedule.to_dict()
        data["path_periods"] = {1: 3, "2": 3}
        assert schedule_from_dict(data) == schedule

    def test_the_callers_mappings_cannot_change_a_built_schedule(self):
        # the mappings are copied when the schedule is built, so changing the
        # caller's dicts afterwards changes neither the predicted rate nor the
        # audit, repr, equality or to_dict
        pair = line_pair(4)
        built = schedule_primary(pair, 1, 3)
        periods, counts = {1: 3}, {1: 1}
        schedule = Schedule(built.period, built.beats, periods, counts, built.kind)
        before = (repr(schedule), schedule.to_dict())
        assert schedule == built and predicted_throughput(schedule) == Fraction(1, 3)
        counts[1] = 3
        periods[1] = 1
        periods[2] = 3
        assert predicted_throughput(schedule) == Fraction(1, 3)
        assert audit_schedule(pair, schedule).ok
        assert (repr(schedule), schedule.to_dict()) == before
        assert schedule == built
        assert repr(schedule).count("path_periods={1: 3}, activation_counts={1: 1}") == 1

    @pytest.mark.parametrize("name", ["path_periods", "activation_counts"])
    @pytest.mark.parametrize(
        "change",
        [
            lambda m: m.__setitem__(1, 3),
            lambda m: m.__delitem__(1),
            lambda m: m.update({1: 3}),
            lambda m: m.pop(1),
            lambda m: m.popitem(),
            lambda m: m.clear(),
            lambda m: m.setdefault(2, 3),
            lambda m: operator.ior(m, {1: 3}),
        ],
        ids=["setitem", "delitem", "update", "pop", "popitem", "clear", "setdefault", "ior"],
    )
    def test_a_built_schedules_mappings_refuse_every_change(self, name, change):
        # changing activation_counts[1] to 3 used to turn the predicted rate
        # from 1/3 into 1 and make the audit report phase 1 as firing once
        pair = line_pair(4)
        schedule = schedule_primary(pair, 1, 3)
        mapping = getattr(schedule, name)
        with pytest.raises(TypeError, match="^a schedule's mappings cannot change$"):
            change(mapping)
        assert mapping == {1: 3 if name == "path_periods" else 1}
        assert predicted_throughput(schedule) == Fraction(1, 3)
        assert audit_schedule(pair, schedule) == audit_schedule(pair, schedule_primary(pair, 1, 3))
        assert audit_schedule(pair, schedule).ok

    def test_read_only_mappings_print_compare_and_copy_as_dicts(self, far_pair):
        built = schedule_pair_unequal(far_pair, 3, 3, 2, 1)
        schedule = dataclasses.replace(built, path_periods={2: 3, 1: 3}, activation_counts={2: 1, 1: 2})
        assert repr(schedule.activation_counts) == "{2: 1, 1: 2}" and list(schedule.path_periods) == [2, 1]
        assert schedule.activation_counts == {1: 2, 2: 1} and schedule == built
        assert schedule.to_dict()["activation_counts"] == {"2": 1, "1": 2}
        for twin in (dataclasses.replace(schedule), copy.copy(schedule), copy.deepcopy(schedule)):
            assert twin == schedule and repr(twin) == repr(schedule)
            assert twin.to_dict() == schedule.to_dict()
            with pytest.raises(TypeError):
                twin.activation_counts[1] = 3


class TestActivationFields:
    """An activation checks that its path id, spacing, phase and members
    are ints when it is built."""

    @pytest.mark.parametrize("value", [3.0, True])
    @pytest.mark.parametrize("name", ["path_id", "spacing", "phase", "members"])
    def test_a_float_or_a_bool_is_rejected_when_built(self, chain6, name, value):
        first = schedule_primary(chain6, 1).beats[0].activations[0]
        if name in ("path_id", "spacing"):
            change, message = value, f"activation {name} must be an int, got {value!r}"
        elif name == "phase":
            change, message = value, f"phase {value!r} and members (1, 4)"
        else:
            change, message = (1, value), f"phase 1 and members (1, {value!r})"
        if name in ("phase", "members"):
            message = f"path 1: phase and members must be ints, got {message}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(first, **{name: change})

    @staticmethod
    def with_first_activation(schedule: Schedule, **changes) -> Schedule:
        first = schedule.beats[0]
        act = dataclasses.replace(first.activations[0], **changes)
        return dataclasses.replace(schedule, beats=(Beat(first.category, (act,)), *schedule.beats[1:]))

    def test_a_float_member_is_a_domain_error_before_the_simulator_runs(self, chain6):
        # the simulator once shifted by member 4.0 and raised a bare TypeError
        schedule = schedule_primary(chain6, 1)
        message = r"^path 1: phase and members must be ints, got phase 1 and members \(1, 4\.0\)$"
        for simulate in (lambda s: run(chain6, s, n_periods=2), lambda s: measure_delay(chain6, s, 3)):
            with pytest.raises(DomainError, match=message):
                simulate(self.with_first_activation(schedule, members=(1, 4.0)))

    def test_a_bool_path_and_a_float_spacing_cannot_pass_the_audit(self, chain6):
        # True == 1 and 3.0 == 3, so the audit once found nothing wrong
        schedule = schedule_primary(chain6, 1)
        with pytest.raises(DomainError, match="^activation path_id must be an int, got True$"):
            audit_schedule(chain6, self.with_first_activation(schedule, path_id=True, spacing=3.0))


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

    def test_a_reused_activation_is_reported_in_every_beat_that_uses_it(self, chain6):
        # one activation object with wrong members in beats 1 and 3
        bad = SubsetActivation(path_id=1, spacing=3, phase=1, members=(1, 2))
        schedule = Schedule(
            period=4,
            beats=(
                Beat(CATEGORY_PATH1, (bad,)),
                self._solo_beat(2, (2, 5)),
                Beat(CATEGORY_PATH1, (bad,)),
                self._solo_beat(3, (3, 6)),
            ),
            path_periods={1: 3},
            activation_counts={1: 1},
            kind="primary",
        )
        report = audit_schedule(chain6, schedule)
        assert report.problems == [
            "beat 1 path 1 phase 1 members (1, 2) do not match the phase subset",
            "beat 1: n1.1 and n1.2 interfere",
            "beat 3 path 1 phase 1 members (1, 2) do not match the phase subset",
            "beat 3: n1.1 and n1.2 interfere",
            "path 1 phase 1 fires 2 times per cycle, expected 1",
        ]

    def test_members_given_as_a_list_are_kept_as_a_tuple(self, chain6):
        # a list naming the right senders is the phase subset
        act = SubsetActivation(path_id=1, spacing=3, phase=1, members=[1, 4])
        beat = Beat(CATEGORY_PATH1, [act])
        assert act.members == (1, 4) and beat.activations == (act,)
        assert act == SubsetActivation(path_id=1, spacing=3, phase=1, members=(1, 4))
        schedule = schedule_primary(chain6, 1)
        listed = dataclasses.replace(schedule, beats=[beat, *schedule.beats[1:]])
        assert listed == schedule
        report = audit_schedule(chain6, listed)
        assert report.ok and not report.problems

    @staticmethod
    def _with_extra_beat(phase: int, members: list[int]) -> Schedule:
        beats = [
            {"category": CATEGORY_PATH1, "activations": [
                {"path": 1, "spacing": 3, "phase": p, "members": m}
            ]}
            for p, m in ((1, [1, 4]), (2, [2, 5]), (3, [3, 6]), (phase, members))
        ]
        return schedule_from_dict({
            "kind": "primary", "period": 4, "beats": beats,
            "path_periods": {"1": 3}, "activation_counts": {"1": 1},
        })

    def test_phase_above_the_spacing_is_a_problem(self, chain6):
        report = audit_schedule(chain6, self._with_extra_beat(5, [5]))
        assert report.uniqueness_ok and report.concurrency_ok
        assert report.problems == ["path 1 fires phases [5] outside 1..3"]

    def test_phase_zero_is_a_problem(self, chain6):
        report = audit_schedule(chain6, self._with_extra_beat(0, [3, 6]))
        assert report.problems == [
            "beat 4 path 1 phase 0 members (3, 6) do not match the phase subset",
            "path 1 fires phases [0] outside 1..3",
        ]

    def test_member_below_one_is_a_problem(self, chain6):
        report = audit_schedule(chain6, self._with_extra_beat(1, [0, 1]))
        assert not report.uniqueness_ok and report.concurrency_ok
        assert report.problems == [
            "beat 4 path 1 phase 1 members (0, 1) do not match the phase subset",
            "beat 4 path 1 phase 1 has member 0 below 1",
            "path 1 phase 1 fires 2 times per cycle, expected 1",
        ]

    @pytest.mark.parametrize(
        "phase, members, text",
        [
            (1.0, (1, 4), "phase 1.0 and members (1, 4)"),
            (True, (1, 4), "phase True and members (1, 4)"),
            (1, (1, 4.0), "phase 1 and members (1, 4.0)"),
            (7.5, (1,), "phase 7.5 and members (1,)"),
        ],
    )
    def test_phase_and_members_must_be_ints(self, chain6, phase, members, text):
        # an activation checks its own fields when it is built, so no audit
        # meets a float or a bool
        first = schedule_primary(chain6, 1).beats[0].activations[0]
        message = f"^path 1: phase and members must be ints, got {re.escape(text)}$"
        with pytest.raises(DomainError, match=message):
            dataclasses.replace(first, phase=phase, members=members)

    def test_member_below_one_in_a_matching_phase_is_a_problem(self, chain6):
        # phase 0 at spacing 3 spans (0, 3, 6), so only the member check sees 0
        report = audit_schedule(chain6, self._with_extra_beat(0, [0, 3, 6]))
        assert report.problems == [
            "beat 4 path 1 phase 0 has member 0 below 1",
            "path 1 fires phases [0] outside 1..3",
        ]


def builder_schedules(seed: int, instances: int) -> list[tuple[PathPair, Schedule]]:
    """Every builder's schedules on `line_corpus` and `pair_corpus` at a seed."""
    out = [(pair, schedule_primary(pair, 1)) for pair in line_corpus(seed, instances)]
    for case in pair_corpus(seed, instances):
        out.append((case.pair, schedule_pair_equal(case.pair, case.period1, case.period2, case.traversals_equal)))
        out.append((case.pair, schedule_pair_unequal(
            case.pair, case.period1, case.period2, case.traversals1, case.traversals2
        )))
    return out


def bad_member(rng: random.Random, pair: PathPair, act: SubsetActivation) -> SubsetActivation:
    """The activation with one more member: a stray sender of its path, a
    position past the chain's end, or one below 1, at a random place."""
    n = pair.path(act.path_id).n_senders
    member = rng.choice((rng.randint(1, n), n + rng.randint(1, 2), rng.randint(-1, 0)))
    members = list(act.members)
    members.insert(rng.randint(0, len(members)), member)
    return dataclasses.replace(act, members=tuple(members))


def mutate(rng: random.Random, pair: PathPair, beats: list[Beat], how: str) -> None:
    """Apply one mutation to a random beat of `beats`, in place."""
    i = rng.randrange(len(beats))
    beat = beats[i]
    if not beat.activations:
        return
    acts = list(beat.activations)
    j = rng.randrange(len(acts))
    act = acts[j]
    n = pair.path(act.path_id).n_senders
    if how == "member":
        acts[j] = bad_member(rng, pair, act)
    elif how in ("phase 0", "phase above"):
        phase = rng.randint(-1, 0) if how == "phase 0" else act.spacing + rng.randint(1, 2)
        # either the old members or those the phase spans
        members = rng.choice((act.members, tuple(range(phase, n + 1, act.spacing))))
        acts[j] = dataclasses.replace(act, phase=phase, members=members)
    elif how == "spacing":
        acts[j] = dataclasses.replace(act, spacing=act.spacing + rng.choice((-1, 1)))
    elif how == "empty":
        acts = []
    elif how == "twice":
        # the same object, or another activation of the path from anywhere
        others = [a for b in beats for a in b.activations if a.path_id == act.path_id]
        acts.insert(rng.randint(0, len(acts)), rng.choice((act, rng.choice(others))))
    elif how == "reused":
        # one bad object here and added to up to three other beats
        acts[j] = bad_member(rng, pair, act)
        for k in rng.sample(range(len(beats)), min(3, len(beats))):
            if k != i:
                beats[k] = Beat(beats[k].category, (*beats[k].activations, acts[j]))
    elif how == "copied":
        for k in rng.sample(range(len(beats)), min(2, len(beats))):
            beats[k] = beat
        return
    beats[i] = Beat(beat.category, tuple(acts))


MUTATIONS = ("member", "phase 0", "phase above", "spacing", "empty", "twice", "reused", "copied")
PROBLEM_KINDS = (
    "activates nothing", "twice", "declares", "do not match", "below 1", "interfere", "fires", "outside"
)


class TestAuditAgainstReference:
    """`audit_schedule` checks each path's phase subsets once per call; the
    one-loop reference audit checks every activation on its own. Both give
    the same flags and the same problems in the same order."""

    @staticmethod
    def reports(pair: PathPair, schedule: Schedule) -> tuple[AuditReport, AuditReport]:
        return audit_schedule(pair, schedule), reference_audit(pair, schedule)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_mutated_builder_schedules_get_the_reference_report(self, seed):
        rng = random.Random(f"audit-reference/{seed}")
        compared, seen = 0, set()
        for pair, schedule in builder_schedules(seed, 30):
            audit, reference = self.reports(pair, schedule)
            assert audit == reference and audit.ok
            # each mutation on its own, then two or three of them at once
            for plan in [(how,) for how in MUTATIONS] + [tuple(rng.sample(MUTATIONS, rng.randint(2, 3)))]:
                beats = list(schedule.beats)
                for how in plan:
                    mutate(rng, pair, beats, how)
                mutated = dataclasses.replace(schedule, beats=beats)
                audit, reference = self.reports(pair, mutated)
                assert audit == reference, (plan, mutated)
                compared += 1
                seen |= {kind for kind in PROBLEM_KINDS for text in audit.problems if kind in text}
        # 30 line and 60 pair schedules, nine mutated copies each, reach
        # every kind of problem the audit reports
        assert compared == 90 * 9
        assert seen == set(PROBLEM_KINDS)

    def test_audit_work_is_one_mask_per_phase_subset(self, monkeypatch):
        # one seq_mask call per phase subset of each declared spacing, however
        # often the traversals repeat a phase
        cases = builder_schedules(1, 60)[60:]
        calls = []
        seq_mask = PathPair.seq_mask
        monkeypatch.setattr(PathPair, "seq_mask", lambda self, *args: calls.append(1) or seq_mask(self, *args))
        repeats = 0
        for pair, schedule in cases:
            calls.clear()
            assert audit_schedule(pair, schedule).ok
            assert len(calls) == sum(schedule.path_periods.values())
            repeats += schedule.period > sum(schedule.path_periods.values())
        assert len(cases) == 120 and repeats > 60
