"""What a pair and a schedule derive once and keep.

A `PathPair` keeps each path's phase masks per spacing, the joint matrix
per pair of spacings, each path's phase activations per spacing, the
interference witness per member mask, the slot program per beat's
activations and the proven cold run per schedule's slot programs; a
`Schedule` keeps nothing. These tests pin three things:
the lazy attributes behave as the plain values they stand for, an
argument that only equals a kept key (3.0 == 3, True == 1) is still
rejected with its own error, and the work of one benchmark-style pair
instance is done once, counted with monkeypatch rather than timed.
"""

import copy
import dataclasses
import pickle
import re
import sys
import threading

import pytest

from beatsched import analysis, periods, simulator
from beatsched.analysis import analyze
from beatsched.errors import DomainError
from beatsched.model import InterferenceRelation, PathPair, PrimaryPath, _lazy
from beatsched.periods import build_matrix, intrinsic_period, is_reachable_period
from beatsched.scheduler import schedule_pair_equal, schedule_pair_unequal, schedule_primary
from beatsched.simulator import measure_delay, run
from beatsched.verify import pair_corpus
from helpers import line_pair, n, two_line_pair
from test_simulator import reference_delays, reference_run


def fresh(pair: PathPair) -> PathPair:
    """A new pair object over the same paths and relation, with nothing kept."""
    return PathPair(pair.path1, pair.path2, pair.relation)


class TestLazyAttributes:
    def test_every_lazy_attribute_is_a_non_data_descriptor(self):
        for owner, name in (
            (PrimaryPath, "senders"),
            (InterferenceRelation, "_pairs"),
            (PathPair, "relation"),
            (PathPair, "_index"),
            (PathPair, "nodes"),
        ):
            descriptor = owner.__dict__[name]
            assert type(descriptor) is _lazy
            assert not hasattr(descriptor, "__set__") and not hasattr(descriptor, "__delete__")

    def test_a_first_read_is_kept_in_the_instance(self):
        path = PrimaryPath(1, 3)
        assert "senders" not in path.__dict__
        senders = path.senders
        assert senders == (n(1, 1), n(1, 2), n(1, 3)) and path.__dict__["senders"] is senders
        assert path.senders is senders

    def test_a_given_relation_is_kept_as_it_is(self):
        relation = InterferenceRelation([(n(1, 1), n(1, 2))])
        pair = PathPair(PrimaryPath(1, 2), None, relation)
        assert pair.relation is relation and relation._pairs == frozenset({frozenset((n(1, 1), n(1, 2)))})
        # a pair's own relation is a view of its masks, and hands them over
        chain = line_pair(3)
        assert "relation" not in chain.__dict__
        again = PathPair(chain.path1, None, chain.relation)
        assert again._conflicts is chain._conflicts and again.relation is chain.relation

    @pytest.mark.parametrize("round_trip", [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))])
    def test_copies_compare_and_print_as_before(self, round_trip):
        pair = two_line_pair(4, 3, dy=0.5)
        text = repr(pair)
        schedule = schedule_pair_equal(pair, 3, 3, 1)  # fills the pair's lazy attributes and memo
        run(pair, schedule, 2)
        twin = round_trip(pair)
        assert twin == pair and hash(twin) == hash(pair) and repr(twin) == repr(pair) == text
        assert twin.relation == pair.relation and twin.nodes == pair.nodes
        assert build_matrix(twin, 3, 3) == build_matrix(pair, 3, 3)
        assert round_trip(schedule) == schedule and repr(round_trip(schedule)) == repr(schedule)
        relation = InterferenceRelation([(n(1, 1), n(2, 1))])
        assert round_trip(relation) == relation and repr(round_trip(relation)) == repr(relation)

    def test_the_memo_takes_no_part_in_equality(self):
        pair = line_pair(6)
        other = fresh(pair)
        intrinsic_period(pair, 1)
        assert pair._memo and not other._memo
        assert pair == other and hash(pair) == hash(other) and repr(pair) == repr(other)


class TestThreads:
    def test_racing_first_reads_agree(self):
        # the lazy attributes and the memo take no lock: racing threads may
        # derive a value twice, but every reader must see the same answer
        cases = pair_corpus(2, 12)

        def derive(pair, case):
            equal = schedule_pair_equal(pair, case.period1, case.period2, 1)
            unequal = schedule_pair_unequal(pair, case.period1, case.period2, case.traversals1, case.traversals2)
            return pair.nodes, build_matrix(pair, case.period1, case.period2), equal, unequal

        def simulate(pair, schedules, reference=False):
            # the pair's schedules share slot programs, compiled by whichever thread asks first
            if reference:
                return [(reference_run(pair, s, 3), reference_delays(pair, s, 2)) for s in schedules]
            return [(dataclasses.replace(run(pair, s, 3), steady_state_after=None), measure_delay(pair, s, 2))
                    for s in schedules]

        expected = []
        for case in cases:
            derived = derive(case.pair, case)
            expected.append((derived, simulate(case.pair, derived[2:], reference=True)))
        shared = [fresh(c.pair) for c in cases]
        failures = []

        def read():
            try:
                for pair, case, want in zip(shared, cases, expected):
                    derived = derive(pair, case)
                    if (derived, simulate(pair, derived[2:])) != want:
                        failures.append(case)
            except Exception as error:  # reported below: a thread cannot fail the test itself
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []


class TestMemoKeys:
    """A spacing of 3.0 or True equals a kept int key; it must still fail,
    with the text a fresh pair gives, and leave nothing behind."""

    @pytest.fixture
    def pair(self):
        return two_line_pair(6, 6, dy=3.0)

    def assert_rejected(self, pair, call, message):
        before = dict(pair._memo)
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            call(pair)
        assert pair._memo == before
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            call(fresh(pair))

    @pytest.mark.parametrize("spacing", [3.0, True])
    def test_reachability_and_the_scan(self, pair, spacing):
        assert intrinsic_period(pair, 1) == 3  # keeps spacings 1 to 3
        assert is_reachable_period(pair, 1, 4) and is_reachable_period(pair, 2, 1) is False
        self.assert_rejected(pair, lambda p: is_reachable_period(p, 1, spacing), f"spacing must be in 1..6, got {spacing!r}")
        self.assert_rejected(pair, lambda p: is_reachable_period(p, 2, spacing), f"spacing must be in 1..6, got {spacing!r}")

    def test_the_scan_takes_a_path_id_equal_to_an_int_as_before(self, pair):
        assert intrinsic_period(pair, 1) == 3
        assert intrinsic_period(pair, True) == 3 == intrinsic_period(fresh(pair), True)
        assert is_reachable_period(pair, 1.0, 2) is False and is_reachable_period(pair, 1.0, 3) is True

    @pytest.mark.parametrize("spacing", [3.0, True])
    def test_the_joint_matrix_on_either_spacing(self, pair, spacing):
        build_matrix(pair, 3, 3)
        build_matrix(pair, 4, 4)
        message = f"spacing must be in 1..6, got {spacing!r}"
        self.assert_rejected(pair, lambda p: build_matrix(p, spacing, 3), message)
        self.assert_rejected(pair, lambda p: build_matrix(p, 4, spacing), message)

    def test_an_unreachable_spacing_keeps_only_its_phases(self, pair):
        message = "spacing 2 is not reachable on path 2: phase 1 subset is not a concurrency subset"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            build_matrix(pair, 3, 2)
        assert set(pair._memo) == {("phases", 1, 3), ("phases", 2, 2)}
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            build_matrix(pair, 3, 2)

    @pytest.mark.parametrize("spacing", [3.0, True])
    def test_schedule_builders(self, pair, spacing):
        schedule_primary(pair, 1, 3)
        schedule_primary(pair, 1, 4)
        schedule_pair_equal(pair, 3, 3, 1)
        schedule_pair_unequal(pair, 4, 4, 1, 2)
        message = f"spacing must be in 1..6, got {spacing!r}"
        self.assert_rejected(pair, lambda p: schedule_primary(p, 1, spacing), message)
        self.assert_rejected(pair, lambda p: schedule_pair_equal(p, spacing, 3, 1), message)
        self.assert_rejected(pair, lambda p: schedule_pair_equal(p, 3, spacing, 1), message)
        self.assert_rejected(pair, lambda p: schedule_pair_unequal(p, spacing, 4, 1, 2), message)
        self.assert_rejected(pair, lambda p: schedule_pair_unequal(p, 4, spacing, 1, 2), message)

    @pytest.mark.parametrize("path_id", [True, 1.0])
    def test_a_path_id_equal_to_an_int_still_fails_as_an_activation(self, pair, path_id):
        schedule_primary(pair, 1)
        self.assert_rejected(
            pair, lambda p: schedule_primary(p, path_id), f"activation path_id must be an int, got {path_id!r}"
        )

    def test_a_pair_without_a_second_path_is_refused_before_any_lookup(self):
        chain = line_pair(6)
        intrinsic_period(chain, 1)
        self.assert_rejected(chain, lambda p: build_matrix(p, 2, 2), "operation needs two paths, scenario declares only one")


class TestWorkPerPairInstance:
    """One pair instance as the benchmark's pairs workload runs it: both
    paths analyzed, both period scans, the reachable spacings, both pair
    schedules, and a run and a delay measurement of each."""

    @pytest.fixture(scope="class")
    def cases(self):
        return pair_corpus(1, 40)

    @staticmethod
    def run_instance(case):
        pair = fresh(case.pair)
        for pid in (1, 2):
            analyze(pair, pair.path_nodes(pid))
        for pid, spacing in ((1, case.period1), (2, case.period2)):
            lowest = intrinsic_period(pair, pid)
            reachable = [s for s in range(lowest, pair.path(pid).n_senders + 1) if is_reachable_period(pair, pid, s)]
            assert spacing in reachable
        # the scans up to and from the lowest spacing ask every spacing of both paths
        asked = pair.path1.n_senders + pair.path2.n_senders
        equal = schedule_pair_equal(pair, case.period1, case.period2, case.traversals_equal)
        unequal = schedule_pair_unequal(pair, case.period1, case.period2, case.traversals1, case.traversals2)
        for schedule in (equal, unequal):
            run(pair, schedule, 4)
            measure_delay(pair, schedule, 3)
        return pair, asked, (equal, unequal)

    def count(self, monkeypatch, module, name, record):
        original = getattr(module, name)

        def counting(*args):
            result = original(*args)
            record(args, result)
            return result

        monkeypatch.setattr(module, name, counting)

    def test_each_phase_derivation_runs_once(self, cases, monkeypatch):
        derived = []
        self.count(monkeypatch, periods, "_first_bad", lambda args, result: derived.append(tuple(args[1])))
        for case in cases:
            derived.clear()
            pair, asked, _ = self.run_instance(case)
            # each (path, spacing) has its own masks: the spacing sets their count, the path their offset
            assert len(derived) == len(set(derived)) == asked

    def test_each_joint_matrix_is_built_once(self, cases, monkeypatch):
        built = []
        self.count(monkeypatch, periods, "_joint_rows", lambda args, result: built.append(args))
        for case in cases:
            built.clear()
            self.run_instance(case)
            assert len(built) == 1

    def test_each_interference_witness_comes_from_one_clique_search(self, cases, monkeypatch):
        searches = []
        self.count(monkeypatch, analysis, "_best_clique", lambda args, result: searches.append(args))
        for case in cases:
            searches.clear()
            pair, _, _ = self.run_instance(case)
            paths = {pair.mask_of(pair.path_nodes(pid)) for pid in (1, 2)}
            # analyze searches each path's interference and concurrency witness;
            # the scans' consistency checks read the kept interference witness
            assert len(searches) == 4
            assert {key[1] for key in pair._memo if key[0] == "witness"} == paths

    def test_each_beat_compiles_once_across_both_schedules(self, cases, monkeypatch):
        compiled = []
        self.count(monkeypatch, simulator, "_compile_slot", lambda args, result: compiled.append(args))
        for case in cases:
            compiled.clear()
            pair, _, schedules = self.run_instance(case)
            beats = {beat.activations for schedule in schedules for beat in schedule.beats}
            assert [owner for owner, _ in compiled] == [pair] * len(beats)
            assert {beat.activations for _, beat in compiled} == beats
            assert {key[1] for key in pair._memo if key[0] == "slot"} == beats
