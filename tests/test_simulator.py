"""Exact beat-by-beat execution: rates, delays, ordering, violations."""

import copy
import dataclasses
import itertools
import pickle
import random
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from beatsched import simulator
from beatsched.cli import load_scenario
from beatsched.errors import ConsistencyError, DomainError
from beatsched.model import NodeRef, PathPair, is_concurrency_subset
from beatsched.scheduler import (
    CATEGORY_PATH1,
    Beat,
    Schedule,
    SubsetActivation,
    predicted_throughput,
    schedule_from_dict,
    schedule_pair_equal,
    schedule_pair_unequal,
    schedule_primary,
)
from beatsched.simulator import SimReport, default_warmup_periods, measure_delay, run
from beatsched.verify import line_corpus, pair_corpus, pair_from_joint_matrix
from helpers import OBSTRUCTION_C, line_pair, two_line_pair

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


class ReferenceChains:
    """FIFO buffers keyed by `NodeRef`, stepped with every departure of a
    beat collected from the state at the start of the beat before any
    arrival lands; the loop `run` used before it compiled slot programs."""

    def __init__(self, pair):
        self.pair = pair
        self.buffers = {ref: [] for ref in pair.nodes}
        self.injected = {path.id: 0 for path in pair.paths}
        self.delivered_log = {path.id: [] for path in pair.paths}
        self.max_depth = 0

    def step(self, beat_index, refs):
        """Advance one beat; returns its block movement records."""
        departures = []
        for ref in refs:
            if ref.seq == 1:
                self.injected[ref.path_id] += 1
                departures.append((ref, (self.injected[ref.path_id], beat_index)))
            elif self.buffers[ref]:
                departures.append((ref, self.buffers[ref].pop(0)))
        moves = []
        for ref, block in departures:
            if ref.seq == self.pair.path(ref.path_id).n_senders:
                self.delivered_log[ref.path_id].append((*block, beat_index))
                target = f"dest{ref.path_id}"
            else:
                head = NodeRef(ref.path_id, ref.seq + 1)
                self.buffers[head].append(block)
                target = str(head)
            moves.append({"block": f"p{ref.path_id}b{block[0]}", "from": str(ref), "to": target})
        self.max_depth = max(self.max_depth, *map(len, self.buffers.values()))
        return moves


def reference_beats(pair, schedule):
    """A cold run stepped beat after beat without end: yields each beat's
    index, its schedule slot, its moves and the state after it."""
    activated_refs = [beat.nodes() for beat in schedule.beats]
    state = ReferenceChains(pair)
    for beat_index in itertools.count(1):
        slot = (beat_index - 1) % schedule.period
        moves = state.step(beat_index, activated_refs[slot])
        yield beat_index, slot, moves, state


def reference_run(pair, schedule, n_periods, warmup_periods=None, collect_trace=False):
    """Step every beat of the run and measure the window; the loop `run`
    used before it learned to stop at a proven steady state."""
    if warmup_periods is None:
        warmup_periods = default_warmup_periods(pair, schedule)
    period = schedule.period
    window_start = warmup_periods * period + 1
    total_beats = (warmup_periods + n_periods) * period
    activated_refs = [beat.nodes() for beat in schedule.beats]
    legal = [not refs or is_concurrency_subset(pair, refs) for refs in activated_refs]
    violations = 0
    violation_examples = []
    trace = [] if collect_trace else None
    delivered_before = {}
    for beat_index, slot, moves, state in itertools.islice(reference_beats(pair, schedule), total_beats):
        if beat_index == window_start - 1:
            delivered_before = {pid: len(log) for pid, log in state.delivered_log.items()}
        if not legal[slot]:
            violations += 1
            if len(violation_examples) < 5:
                names = ", ".join(str(ref) for ref in activated_refs[slot])
                violation_examples.append(
                    f"beat {beat_index}: activated set {{{names}}} is not "
                    "a concurrency subset"
                )
        if trace is not None:
            trace.append(
                {
                    "beat": beat_index,
                    "category": schedule.beats[slot].category,
                    "activated": [str(ref) for ref in activated_refs[slot]],
                    "moves": moves,
                }
            )
    for path_id, log in state.delivered_log.items():
        simulator._check_order(path_id, [serial for serial, _, _ in log])
    window_beats = n_periods * period
    delivered, delays = {}, {}
    for path_id, log in state.delivered_log.items():
        tail = log[delivered_before.get(path_id, 0):]
        delivered[path_id] = len(tail)
        delays[path_id] = [arrived - injected + 1 for _, injected, arrived in tail]
    return SimReport(
        window_start=window_start,
        window_beats=window_beats,
        periods_measured=n_periods,
        delivered=delivered,
        per_path_throughput={pid: Fraction(c, window_beats) for pid, c in delivered.items()},
        measured_throughput=Fraction(sum(delivered.values()), window_beats),
        delays=delays,
        violations=violations,
        violation_examples=violation_examples,
        max_buffer_depth=state.max_depth,
        trace=trace,
    )


def reference_delays(pair, schedule, block_count):
    """The delays of the first block_count deliveries on each scheduled
    path of a cold stepped run, stepped until every path has them."""
    path_ids = sorted(schedule.path_periods)
    for beat_index, _, _, state in reference_beats(pair, schedule):
        logs = [state.delivered_log[pid] for pid in path_ids]
        if min(map(len, logs)) >= block_count:
            return {
                pid: [arrived - injected + 1 for _, injected, arrived in log[:block_count]]
                for pid, log in zip(path_ids, logs)
            }
        assert beat_index < 10_000, "the reference run stalled"


def assert_matches_reference(pair, schedule, n_periods, warmup_periods=None, collect_trace=False):
    """Every field but `steady_state_after` equals the stepped reference;
    returns the report."""
    report = run(pair, schedule, n_periods, warmup_periods, collect_trace)
    expected = reference_run(pair, schedule, n_periods, warmup_periods, collect_trace)
    assert dataclasses.replace(report, steady_state_after=None) == expected
    return report


def all_at_once_schedule() -> Schedule:
    """A one-beat cycle that fires all six senders of a chain at once."""
    return Schedule(
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


# (n_periods, warmup_periods): the default window, no warmup, one period
RUN_SHAPES = [(3, None), (1, 0), (5, 2), (2, 0), (1, None)]


def corpus_schedules(seed=11):
    """Seeded single-chain, equal and unequal (multi-traversal) schedules."""
    cases = []
    for pair in line_corpus(seed, 25):
        cases.append((pair, schedule_primary(pair, 1)))
    for case in pair_corpus(seed, 25):
        t1, t2 = case.period1, case.period2
        cases.append((case.pair, schedule_pair_equal(case.pair, t1, t2, case.traversals_equal)))
        cases.append((
            case.pair,
            schedule_pair_unequal(case.pair, t1, t2, case.traversals1, case.traversals2),
        ))
    return cases


@pytest.fixture(scope="module")
def corpus():
    return corpus_schedules()


@pytest.fixture(scope="module")
def chain6():
    return line_pair(6)


@pytest.fixture(scope="module")
def far_pair():
    return two_line_pair(6, 4, dy=50.0)


class TestSinglePathRates:
    def test_unit_chain_exact_third(self, chain6):
        schedule = schedule_primary(chain6, 1)
        report = run(chain6, schedule, n_periods=5)
        assert report.ok
        assert report.measured_throughput == Fraction(1, 3)
        assert report.delivered == {1: 5}
        assert report.violations == 0
        assert report.max_buffer_depth == 1

    def test_longer_spacing_slows_exactly(self, chain6):
        schedule = schedule_primary(chain6, 1, period=5)
        report = run(chain6, schedule, n_periods=4)
        assert report.measured_throughput == Fraction(1, 5)

    def test_single_sender_full_rate(self):
        pair = line_pair(1)
        report = run(pair, schedule_primary(pair, 1), n_periods=6)
        assert report.measured_throughput == 1
        assert report.delays[1] == [1] * 6

    def test_measured_equals_predicted_across_spacings(self, chain6):
        for spacing in (3, 4, 5, 6):
            schedule = schedule_primary(chain6, 1, period=spacing)
            report = run(chain6, schedule, n_periods=3)
            assert report.measured_throughput == predicted_throughput(schedule)


class TestPairRates:
    def test_distant_pair_two_thirds(self, far_pair):
        schedule = schedule_pair_equal(far_pair, 3, 3, 1)
        report = run(far_pair, schedule, n_periods=5)
        assert report.ok
        assert report.measured_throughput == Fraction(2, 3)
        assert report.per_path_throughput == {
            1: Fraction(1, 3),
            2: Fraction(1, 3),
        }

    def test_lopsided_pair_half(self, far_pair):
        schedule = schedule_pair_unequal(far_pair, 3, 3, 2, 1)
        report = run(far_pair, schedule, n_periods=5)
        assert report.measured_throughput == Fraction(1, 2)
        assert report.per_path_throughput == {
            1: Fraction(2, 6),
            2: Fraction(1, 6),
        }

    def test_hard_matrix_sustains_five_sixths_with_queueing(self):
        # The tiled pairing admits no stall-free single-slot execution at
        # these counts; FIFO relay queues absorb the mismatch at depth 2
        # and the steady rate still hits the period formula exactly.
        pair = pair_from_joint_matrix(OBSTRUCTION_C)
        schedule = schedule_pair_unequal(pair, 2, 3, 3, 2)
        report = run(pair, schedule, n_periods=6)
        assert report.ok
        assert report.measured_throughput == Fraction(5, 6)
        assert report.per_path_throughput == {
            1: Fraction(3, 6),
            2: Fraction(2, 6),
        }
        assert report.max_buffer_depth == 2

    def test_fully_joint_traversals_stay_exact(self, far_pair):
        schedule = schedule_pair_equal(far_pair, 3, 3, 3)
        report = run(far_pair, schedule, n_periods=4)
        assert report.measured_throughput == Fraction(2, 3)


class TestDelays:
    def test_first_block_crosses_in_chain_length_beats(self, chain6):
        delays = measure_delay(chain6, schedule_primary(chain6, 1), 3)
        assert delays == {1: [6, 6, 6]}

    def test_delay_counts_injection_and_arrival(self):
        pair = line_pair(1)
        assert measure_delay(pair, schedule_primary(pair, 1), 1) == {1: [1]}

    def test_pair_delays_follow_the_phase_order(self, far_pair):
        schedule = schedule_pair_equal(far_pair, 3, 3, 1)
        delays = measure_delay(far_pair, schedule, 2)
        assert delays == {1: [6, 6], 2: [4, 4]}

    def test_block_count_validated(self, chain6):
        schedule = schedule_primary(chain6, 1)
        for block_count, message in (
            (0, "block count must be >= 1, got 0"),
            (1.5, "block_count must be an int, got 1.5"),
            (True, "block_count must be an int, got True"),
        ):
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                measure_delay(chain6, schedule, block_count)

    def test_delays_equal_the_stepped_reference(self, corpus):
        obstruction = pair_from_joint_matrix(OBSTRUCTION_C)
        queueing = schedule_pair_unequal(obstruction, 2, 3, 3, 2)  # parks 2 blocks at a relay
        rng = random.Random(18)
        for pair, schedule in corpus + [(obstruction, queueing)]:
            block_count = rng.randint(1, 6)
            expected = reference_delays(pair, schedule, block_count)
            assert measure_delay(pair, schedule, block_count) == expected

    def test_chain_length_delay_across_sizes(self):
        # Ascending phase order hands a fresh block one hop per beat, so
        # the cold-start delay equals the sender count.
        for size in range(1, 9):
            pair = line_pair(size)
            delays = measure_delay(pair, schedule_primary(pair, 1), 1)
            assert delays[1] == [size]


class TestIntegrityChecks:
    """Each consistency check fires on a forged state or schedule."""

    def stepped_state(self, pair, schedule, beats):
        state = simulator._ChainState(pair)
        programs = simulator._slot_programs(pair, schedule)
        for beat_index in range(1, beats + 1):
            state.step(beat_index, programs[(beat_index - 1) % schedule.period])
        return state, programs

    def test_a_lost_block_unbalances_the_books(self, chain6):
        state, programs = self.stepped_state(chain6, schedule_primary(chain6, 1), 1)
        state.buffers[1].clear()  # block 1 vanishes from n1.2's buffer
        message = "path 1: injected 1, in flight 0, delivered 0 do not balance"
        with pytest.raises(ConsistencyError, match=f"^{re.escape(message)}$"):
            state.step(2, programs[1])

    def test_an_overtaking_block_breaks_fifo(self, chain6):
        schedule = schedule_primary(chain6, 1)
        state, programs = self.stepped_state(chain6, schedule, 4)
        # block 1 waits at n1.5 and block 2 at n1.2: swap them
        state.buffers[1][0], state.buffers[4][0] = state.buffers[4][0], state.buffers[1][0]
        for beat_index in range(5, 13):
            state.step(beat_index, programs[(beat_index - 1) % 3])
        message = "path 1 deliveries left injection order: [2, 1, 3]"
        with pytest.raises(ConsistencyError, match=f"^{re.escape(message)}$"):
            simulator._prove(state, [state.mark()], None, None, 3)

    def test_a_schedule_slower_than_its_counts_runs_out_of_beats(self):
        # three traversals claimed per period, one made: the budget of
        # 3 * (6 + ceil(10 / 3)) = 30 beats sees blocks land at beats 6, 9, .., 30
        legal = schedule_primary(line_pair(6), 1)
        forged = dataclasses.replace(legal, activation_counts={1: 3})
        proven = line_pair(6)
        run(proven, legal, 3)  # the proof of the beats both schedules share
        message = "path 1 delivered only 9 of 10 blocks within 30 beats"
        for pair in (line_pair(6), proven):  # stepped, then read from the proof
            with pytest.raises(ConsistencyError, match=f"^{re.escape(message)}$"):
                measure_delay(pair, forged, 10)

    def test_a_cycle_that_overtakes_its_next_copy_breaks_fifo(self, far_pair, monkeypatch):
        # path 1 delivers twice per cycle; its last delivery, raised by one
        # cycle of injections, still follows the log but not its next copy
        prove = simulator._prove

        def overtaking(state, marks, first, last, period):
            log = state.delivered_log[1]
            serial, injected, arrived = log[-1]
            log[-1] = (serial + marks[last][0][0] - marks[first][0][0], injected, arrived)
            return prove(state, marks, first, last, period)

        monkeypatch.setattr(simulator, "_prove", overtaking)
        pair = fresh(far_pair)
        with pytest.raises(ConsistencyError, match=r"^path 1 deliveries left injection order: \["):
            run(pair, schedule_pair_unequal(pair, 3, 3, 2, 1), 3)


class TestReportShape:
    def test_window_accounting(self, chain6):
        schedule = schedule_primary(chain6, 1)
        report = run(chain6, schedule, n_periods=4, warmup_periods=2)
        assert report.window_start == 7
        assert report.window_beats == 12
        assert report.periods_measured == 4

    def test_default_warmup_covers_the_longest_chain(self, far_pair):
        schedule = schedule_pair_equal(far_pair, 3, 3, 1)
        assert default_warmup_periods(far_pair, schedule) == 8

    def test_trace_collection_is_opt_in(self, chain6):
        schedule = schedule_primary(chain6, 1)
        assert run(chain6, schedule, n_periods=1).trace is None
        report = run(chain6, schedule, n_periods=1, warmup_periods=0, collect_trace=True)
        assert len(report.trace) == 3
        first = report.trace[0]
        assert first["beat"] == 1
        assert first["activated"] == ["n1.1", "n1.4"]
        assert first["moves"] == [
            {"block": "p1b1", "from": "n1.1", "to": "n1.2"}
        ]

    def test_bad_run_lengths_rejected(self, chain6):
        schedule = schedule_primary(chain6, 1)
        for counts, message in (
            ({"n_periods": 0}, "need at least one measured period, got 0"),
            ({"n_periods": 1.5}, "n_periods must be an int, got 1.5"),
            ({"n_periods": True}, "n_periods must be an int, got True"),
            ({"n_periods": 1, "warmup_periods": -1}, "warmup must be >= 0, got -1"),
            ({"n_periods": 1, "warmup_periods": 1.5}, "warmup_periods must be an int, got 1.5"),
            ({"n_periods": 1, "warmup_periods": 0.0}, "warmup_periods must be an int, got 0.0"),
            ({"n_periods": 1, "warmup_periods": False}, "warmup_periods must be an int, got False"),
        ):
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                run(chain6, schedule, **counts)


class TestViolationHandling:
    def test_interfering_schedule_is_reported_not_aborted(self, chain6):
        # Hand-build a cycle that packs everything into one beat: the
        # run must flag every beat yet still push blocks through.
        all_at_once = Schedule(
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
        report = run(chain6, all_at_once, n_periods=4, warmup_periods=8)
        assert not report.ok
        assert report.violations == 12
        assert report.violation_examples  # capped sample retained
        assert len(report.violation_examples) <= 5
        # with every sender firing every beat the pipeline still flows
        assert report.measured_throughput == 1

    def test_delivery_order_matches_injection_order(self, far_pair):
        # FIFO relays must never reorder; exercised via a long mixed run.
        schedule = schedule_pair_unequal(far_pair, 3, 3, 2, 1)
        report = run(far_pair, schedule, n_periods=10, collect_trace=True)
        serials = [
            int(move["block"].split("b")[1])
            for event in report.trace
            for move in event["moves"]
            if move["to"] == "dest1" and move["block"].startswith("p1")
        ]
        assert serials == sorted(serials)


class TestProvenSteadyState:
    def test_corpus_reports_equal_the_stepped_reference(self, corpus):
        for pair, schedule in corpus:
            for n_periods, warmup in RUN_SHAPES:
                assert_matches_reference(pair, schedule, n_periods, warmup)

    def test_traced_runs_equal_the_stepped_reference(self, corpus):
        for pair, schedule in corpus[::5]:
            report = assert_matches_reference(pair, schedule, 2, 1, collect_trace=True)
            assert report.steady_state_after == run(pair, schedule, 2, 1).steady_state_after

    def test_steady_state_comes_within_the_default_warmup(self, corpus):
        for pair, schedule in corpus:
            report = run(pair, schedule, n_periods=3)
            assert report.steady_state_after is not None
            assert report.steady_state_after <= default_warmup_periods(pair, schedule)

    def test_queueing_schedule_matches_the_reference(self):
        pair = pair_from_joint_matrix(OBSTRUCTION_C)
        schedule = schedule_pair_unequal(pair, 2, 3, 3, 2)
        for n_periods, warmup in RUN_SHAPES:
            report = assert_matches_reference(pair, schedule, n_periods, warmup)
        assert report.max_buffer_depth == 2

    def test_illegal_schedule_matches_the_reference(self, chain6):
        schedule = all_at_once_schedule()
        for n_periods, warmup in RUN_SHAPES + [(4, 8)]:
            report = assert_matches_reference(chain6, schedule, n_periods, warmup)
            assert report.violations == (n_periods + (warmup if warmup is not None else 8))
        assert report.violation_examples == [
            f"beat {b}: activated set {{n1.1, n1.2, n1.3, n1.4, n1.5, n1.6}} "
            "is not a concurrency subset"
            for b in range(1, 6)
        ]

    def test_partly_illegal_schedule_numbers_its_examples_by_beat(self, chain6):
        legal = schedule_primary(chain6, 1)
        packed = all_at_once_schedule().beats[0]
        schedule = dataclasses.replace(
            legal, period=4, beats=(legal.beats[0], packed, legal.beats[1], legal.beats[2])
        )
        report = assert_matches_reference(chain6, schedule, 3, 0)
        assert report.violations == 3
        assert [text.split(":")[0] for text in report.violation_examples] == [
            "beat 2", "beat 6", "beat 10"
        ]

    def test_senders_listed_twice_or_out_of_order_match_the_reference(self, far_pair):
        # relays listed twice and upstream of each other, path 2 listed first
        beats = (
            Beat(CATEGORY_PATH1, (
                SubsetActivation(path_id=2, spacing=1, phase=1, members=(2, 1, 3)),
                SubsetActivation(path_id=1, spacing=1, phase=1, members=(2, 1, 1)),
            )),
            Beat(CATEGORY_PATH1, (
                SubsetActivation(path_id=1, spacing=1, phase=1, members=(4, 3, 3, 5, 6, 2)),
                SubsetActivation(path_id=2, spacing=1, phase=1, members=(4, 3, 4)),
            )),
        )
        schedule = Schedule(2, beats, {1: 1, 2: 1}, {1: 1, 2: 1}, kind="pair-unequal")
        for n_periods, warmup in RUN_SHAPES:
            assert_matches_reference(far_pair, schedule, n_periods, warmup, collect_trace=True)
        assert measure_delay(far_pair, schedule, 3) == reference_delays(far_pair, schedule, 3)

    def test_run_stops_stepping_once_periodic(self, monkeypatch):
        # a fresh pair: the module's chain6 may already keep the proof
        chain6 = line_pair(6)
        stepped = []
        step = simulator._ChainState.step

        def counting(state, beat_index, program, moves=None):
            stepped.append(beat_index)
            return step(state, beat_index, program, moves)

        monkeypatch.setattr(simulator._ChainState, "step", counting)
        schedule = schedule_primary(chain6, 1)
        report = run(chain6, schedule, n_periods=50)
        assert report.delivered == {1: 50}
        # the boundary after period 2 repeats the one after period 1
        assert report.steady_state_after == 1
        assert stepped == list(range(1, 7))
        stepped.clear()
        run(chain6, schedule, n_periods=50, collect_trace=True)
        assert len(stepped) == 58 * 3

    def test_long_warmups_equal_the_stepped_reference(self, corpus):
        # the cycles before the window are counted, not logged
        for pair, schedule in corpus[::7]:
            for warmup in (3, 6, 11, 17):
                assert_matches_reference(pair, schedule, 2, warmup)

    def test_long_warmup_logs_only_the_window(self, far_pair):
        schedule = schedule_pair_equal(far_pair, 3, 3, 1)
        expected = dataclasses.asdict(run(far_pair, schedule, n_periods=5))
        tracemalloc.start()
        try:
            report = run(far_pair, schedule, n_periods=5, warmup_periods=10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.window_start == 3 * 10**6 + 1
        got = dataclasses.asdict(report)
        del got["window_start"], expected["window_start"]
        assert got == expected
        assert peak < 20 * 2**20

    def test_single_sender_is_periodic_from_the_start(self):
        pair = line_pair(1)
        report = run(pair, schedule_primary(pair, 1), n_periods=4)
        assert report.steady_state_after == 0

    def test_short_run_without_a_repeat_reports_none(self, chain6):
        report = run(chain6, schedule_primary(chain6, 1), n_periods=1, warmup_periods=0)
        assert report.steady_state_after is None

    def test_member_outside_its_path_is_a_domain_error(self, chain6):
        schedule = schedule_primary(chain6, 1)
        stranger = SubsetActivation(path_id=1, spacing=3, phase=1, members=(1, 7))
        broken = dataclasses.replace(
            schedule, beats=(Beat(CATEGORY_PATH1, (stranger,)),) + schedule.beats[1:]
        )
        for call in (lambda: run(chain6, broken, 2), lambda: measure_delay(chain6, broken, 1)):
            with pytest.raises(DomainError, match=r"^n1\.7 is not a sender of this pair$"):
                call()

    def test_second_path_on_a_single_chain_is_a_domain_error(self, chain6):
        schedule = schedule_primary(chain6, 1)
        stranger = SubsetActivation(path_id=2, spacing=1, phase=1, members=(1,))
        broken = dataclasses.replace(
            schedule, beats=(Beat(CATEGORY_PATH1, (stranger,)),) + schedule.beats[1:]
        )
        for call in (lambda: run(chain6, broken, 2), lambda: measure_delay(chain6, broken, 1)):
            with pytest.raises(DomainError, match=r"^n2\.1 is not a sender of this pair$"):
                call()


def fresh(pair: PathPair) -> PathPair:
    """A new pair object over the same paths and relation, keeping nothing."""
    return PathPair._from_conflicts(pair.path1, pair.path2, pair._conflicts)


def kept_proof(pair: PathPair, schedule: Schedule):
    return pair._memo.get(("trajectory", *simulator._slot_programs(pair, schedule)))


@pytest.fixture
def stepped(monkeypatch):
    """The beat indices `_ChainState.step` is called with, in order."""
    beats = []
    step = simulator._ChainState.step

    def counting(state, beat_index, program, moves=None):
        beats.append(beat_index)
        return step(state, beat_index, program, moves)

    monkeypatch.setattr(simulator._ChainState, "step", counting)
    return beats


def interfering_everywhere(pair: PathPair) -> PathPair:
    """A pair over the same paths in which every two senders interfere."""
    everyone = (1 << pair.total_senders) - 1
    return PathPair._from_conflicts(pair.path1, pair.path2, [everyone ^ 1 << i for i in range(pair.total_senders)])


class TestCompileOnce:
    """A pair compiles each distinct beat once, whichever of its schedules
    and calls asks first, and keeps it; a schedule keeps nothing."""

    @pytest.fixture
    def compiles(self, monkeypatch):
        calls = []
        compile_slot = simulator._compile_slot

        def counting(pair, beat):
            calls.append((pair, beat.activations))
            return compile_slot(pair, beat)

        monkeypatch.setattr(simulator, "_compile_slot", counting)
        return calls

    @staticmethod
    def simulate(pair, schedule):
        return run(pair, schedule, 3), run(pair, schedule, 3, collect_trace=True), measure_delay(pair, schedule, 2)

    def test_each_beat_compiles_once_per_pair_object(self, far_pair, compiles):
        pair, twin = (PathPair._from_conflicts(far_pair.path1, far_pair.path2, far_pair._conflicts) for _ in range(2))
        schedules = (schedule_pair_equal(pair, 3, 3, 1), schedule_pair_unequal(pair, 3, 3, 2, 1))
        beats = {beat.activations for schedule in schedules for beat in schedule.beats}
        # the two schedules share beats
        assert len(beats) < sum(len(set(schedule.beats)) for schedule in schedules)
        results = [self.simulate(pair, schedule) for schedule in schedules]
        assert [owner for owner, _ in compiles] == [pair] * len(beats)
        assert {acts for _, acts in compiles} == beats
        # an equal but distinct pair object compiles its own beats, once
        compiles.clear()
        assert twin == pair and twin is not pair
        assert [self.simulate(twin, schedule) for schedule in schedules] == results
        assert [self.simulate(twin, schedule) for schedule in schedules] == results
        assert [owner for owner, _ in compiles] == [twin] * len(beats)
        # switching back to the first pair compiles nothing
        compiles.clear()
        assert [self.simulate(pair, schedule) for schedule in schedules] == results
        assert compiles == []

    @pytest.mark.parametrize("pair, build", [
        (line_pair(6), lambda pair: schedule_primary(pair, 1)),
        (two_line_pair(6, 4, dy=50.0), lambda pair: schedule_pair_equal(pair, 3, 3, 1)),
        (two_line_pair(6, 4, dy=50.0), lambda pair: schedule_pair_unequal(pair, 3, 3, 2, 1)),
    ], ids=["primary", "equal", "unequal"])
    def test_a_schedule_pickles_and_copies_the_same_after_it_runs(self, pair, build):
        schedule = build(pair)
        before = pickle.dumps(schedule), pickle.dumps(copy.deepcopy(schedule))
        fields = set(schedule.__dict__)
        self.simulate(pair, schedule)
        assert set(schedule.__dict__) == fields
        assert (pickle.dumps(schedule), pickle.dumps(copy.deepcopy(schedule))) == before

    def test_the_compile_stays_out_of_equality_and_repr(self, far_pair):
        schedule = schedule_pair_equal(far_pair, 3, 3, 1)
        fresh = dataclasses.replace(schedule)
        text = repr(schedule)
        run(far_pair, schedule, 2)
        assert schedule == fresh and repr(schedule) == repr(fresh) == text
        assert schedule_from_dict(schedule.to_dict()) == schedule

    def test_alternating_pairs_equal_the_stepped_reference(self, corpus):
        # each schedule alternates between its own pair and a pair over the
        # same paths where it is illegal in every beat with two senders
        for pair, schedule in corpus[::3]:
            jammed = interfering_everywhere(pair)
            for target in (pair, jammed, pair, jammed):
                assert_matches_reference(target, schedule, 3)
                assert measure_delay(target, schedule, 2) == reference_delays(target, schedule, 2)

    def test_an_illegal_beat_reports_the_same_violations_on_a_reused_compile(self, compiles):
        chain6 = line_pair(6)
        schedule = all_at_once_schedule()
        first = assert_matches_reference(chain6, schedule, 4, 8)
        assert measure_delay(chain6, schedule, 2) == reference_delays(chain6, schedule, 2)
        # a schedule built again has equal activations: the pair's compile serves it
        again = assert_matches_reference(chain6, all_at_once_schedule(), 4, 8)
        assert again == first and again.violations == 12
        assert first.violation_examples == [
            f"beat {b}: activated set {{n1.1, n1.2, n1.3, n1.4, n1.5, n1.6}} is not a concurrency subset"
            for b in range(1, 6)
        ]
        assert compiles == [(chain6, schedule.beats[0].activations)]

    def test_a_list_of_beats_is_copied_when_the_schedule_is_built(self):
        # mutating the caller's list after a run must not change the schedule
        pair = line_pair(4)
        beats = list(schedule_primary(pair, 1).beats)
        schedule = Schedule(period=3, beats=beats, path_periods={1: 3}, activation_counts={1: 1}, kind="primary")
        assert type(schedule.beats) is tuple
        assert run(pair, schedule, 3).measured_throughput == Fraction(1, 3)
        beats[0] = beats[1]
        assert run(pair, schedule, 3).measured_throughput == Fraction(1, 3)
        assert run(pair, dataclasses.replace(schedule, beats=beats), 3).measured_throughput == 0


class TestSharedTrajectory:
    """A pair proves each schedule's cold run once, and `run` and
    `measure_delay` read what it proved, in either order."""

    def test_delays_after_and_before_a_run_equal_the_stepped_reference(self, corpus):
        rng = random.Random(25)
        for pair, schedule in corpus:
            block_count = rng.randint(1, 40)
            delays = reference_delays(pair, schedule, block_count)
            report = reference_run(pair, schedule, 3)
            run_first, delay_first = fresh(pair), fresh(pair)
            sim = run(run_first, schedule, 3)
            got = [(sim, measure_delay(run_first, schedule, block_count))]
            measured = measure_delay(delay_first, schedule, block_count)
            got.append((run(delay_first, schedule, 3), measured))
            for sim, measured in got:
                assert dataclasses.replace(sim, steady_state_after=None) == report
                assert measured == delays

    def test_a_proof_reads_the_stepped_log_at_every_beat(self, corpus):
        rng = random.Random(26)
        for pair, schedule in corpus:
            target = fresh(pair)
            run(target, schedule, 3)
            proof = kept_proof(target, schedule)
            # three cycles past the proof, cut at every beat
            horizon = (4 * proof.last - 3 * proof.first) * schedule.period
            for beat_index, _, _, state in itertools.islice(reference_beats(pair, schedule), horizon):
                for pid, log in state.delivered_log.items():
                    assert proof.delivered_by(pid, beat_index) == len(log)
            for pid, log in state.delivered_log.items():
                delays = [arrived - injected + 1 for _, injected, arrived in log]
                start = rng.randint(0, len(delays))
                stop = rng.randint(start, len(delays))
                assert proof.delays_of(pid, start, stop) == delays[start:stop]
                assert proof.delays_of(pid, 0, len(delays)) == delays

    def test_an_equal_schedule_on_the_same_pair_steps_no_beat(self, corpus, stepped):
        for pair, schedule in corpus[::2]:
            target = fresh(pair)
            first = run(target, schedule, 3)
            assert stepped and first.steady_state_after is not None
            proof = kept_proof(target, schedule)
            hash(proof)  # immutable all through
            stepped.clear()
            again = schedule_from_dict(schedule.to_dict())  # equal values, new objects
            assert again == schedule and again.beats[0] is not schedule.beats[0]
            assert run(target, again, 3) == first
            for n_periods, warmup in ((7, None), (2, 30), (1, proof.last)):
                report = assert_matches_reference(target, again, n_periods, warmup)
                assert report.steady_state_after == proof.first
            assert measure_delay(target, again, 30) == reference_delays(target, again, 30)
            assert stepped == []
            assert kept_proof(target, again) is proof

    def test_a_run_shorter_than_the_proof_steps_its_own_periods(self, corpus, stepped):
        # seed 1's unequal schedules include one whose first period stays
        # shallower than the proven run
        unequal = [
            (c.pair, schedule_pair_unequal(c.pair, c.period1, c.period2, c.traversals1, c.traversals2))
            for c in pair_corpus(1, 25)
        ]
        shallower = 0
        for pair, schedule in corpus + unequal:
            target = fresh(pair)
            deep = run(target, schedule, 3).max_buffer_depth
            proof = kept_proof(target, schedule)
            for periods in range(1, proof.last):
                stepped.clear()
                short = assert_matches_reference(target, schedule, periods, 0)
                assert short.steady_state_after is None
                assert stepped == list(range(1, periods * schedule.period + 1))
                shallower += short.max_buffer_depth < deep
            assert kept_proof(target, schedule) is proof
        assert shallower  # some short run stays shallower than the proven run

    def test_many_blocks_step_no_further_than_the_proof(self, stepped):
        pair = load_scenario(str(SCENARIOS / "crossing_pair.json")).pair
        schedule = schedule_pair_equal(pair, 3, 2, 1)
        delays = measure_delay(pair, schedule, 10**5)
        proof = kept_proof(pair, schedule)
        assert 0 < len(stepped) <= proof.last * schedule.period
        assert [len(d) for d in delays.values()] == [10**5, 10**5]
        expected = reference_delays(pair, schedule, 2000)
        assert {pid: d[:2000] for pid, d in delays.items()} == expected
        # proven by a run on another pair object, the read is the same
        twin = fresh(pair)
        run(twin, schedule, 3)
        stepped.clear()
        assert measure_delay(twin, schedule, 10**5) == delays
        assert stepped == []


def budget_sweep():
    """Seeded corpora at three seeds in both pair modes, and crossing_pair's
    unequal schedules at 1..30 traversals on path 1 against 1, as many
    and 30 on path 2 (1 x 1 and 30 x 30 come twice)."""
    cases = [case for seed in (11, 12, 13) for case in corpus_schedules(seed)]
    crossing = load_scenario(str(SCENARIOS / "crossing_pair.json")).pair
    for t1 in range(1, 31):
        cases += [(crossing, schedule_pair_unequal(crossing, 3, 2, t1, t2)) for t2 in (1, t1, 30)]
    return cases


class TestDelayBudget:
    """The budget period x (senders + ceil(blocks / count)) holds for every
    schedule the builders make, including a tiled unequal schedule whose
    first crossing takes longer than the old budget's few periods."""

    def test_the_budget_covers_every_built_schedule(self):
        checks = 0
        for pair, schedule in budget_sweep():
            expected = reference_delays(pair, schedule, 60)
            for block_count in (1, 10, 60):
                # stepped on a fresh pair, then read from the proof a run keeps
                proven = fresh(pair)
                run(proven, schedule, 1)
                for target in (fresh(pair), proven):
                    got = measure_delay(target, schedule, block_count)
                    assert got == {pid: delays[:block_count] for pid, delays in expected.items()}
                checks += len(expected)
        assert checks == 1665

    def test_the_first_crossing_of_a_tiled_schedule_fits(self):
        # the old budget, period / count x (blocks + both paths' senders +
        # 8), gave 30 / 10 x 19 = 57 beats; path 1's first block lands at 62
        pair = load_scenario(str(SCENARIOS / "crossing_pair.json")).pair
        schedule = schedule_pair_unequal(pair, 3, 2, 10, 10)
        assert schedule.period == 30
        assert measure_delay(pair, schedule, 1) == reference_delays(pair, schedule, 1) == {1: [42], 2: [4]}


class TestTracedRun:
    """A traced run steps the cold run once, through the same routine as
    an untraced one, and reads its report the same way."""

    def test_traced_and_untraced_reports_agree_in_either_order(self):
        for pair, schedule in (case for seed in (11, 12, 13) for case in corpus_schedules(seed)):
            for n_periods, warmup in RUN_SHAPES:
                traced_first, untraced_first = fresh(pair), fresh(pair)
                traced = run(traced_first, schedule, n_periods, warmup, collect_trace=True)
                untraced = run(untraced_first, schedule, n_periods, warmup)
                assert traced.trace is not None and untraced.trace is None
                assert dataclasses.replace(traced, trace=None) == untraced
                assert run(traced_first, schedule, n_periods, warmup) == untraced
                assert run(untraced_first, schedule, n_periods, warmup, collect_trace=True) == traced
                assert kept_proof(traced_first, schedule) == kept_proof(untraced_first, schedule)

    def test_a_fresh_traced_run_steps_each_beat_once(self, stepped):
        chain6 = line_pair(6)
        schedule = schedule_primary(chain6, 1)
        report = run(chain6, schedule, n_periods=50, collect_trace=True)
        assert stepped == list(range(1, 58 * 3 + 1))
        assert report.steady_state_after == 1 and len(report.trace) == 58 * 3
        # the repeat it found is kept, as an untraced run keeps it, and
        # nothing untraced steps again
        proof = kept_proof(chain6, schedule)
        twin = line_pair(6)
        run(twin, schedule, n_periods=50)
        assert proof == kept_proof(twin, schedule)
        stepped.clear()
        assert run(chain6, schedule, n_periods=50) == dataclasses.replace(report, trace=None)
        assert measure_delay(chain6, schedule, 100) == {1: [6] * 100}
        assert stepped == []
        # traced again, it steps every beat, keys no boundary and leaves the proof
        assert run(chain6, schedule, n_periods=50, collect_trace=True) == report
        assert stepped == list(range(1, 58 * 3 + 1))
        assert kept_proof(chain6, schedule) is proof

    def test_a_traced_run_shorter_than_the_kept_proof_finds_no_repeat(self, far_pair, stepped):
        pair = fresh(far_pair)
        schedule = schedule_pair_unequal(pair, 3, 3, 2, 1)
        run(pair, schedule, 3)
        proof = kept_proof(pair, schedule)
        assert proof.last > 1
        stepped.clear()
        short = run(pair, schedule, 1, 0, collect_trace=True)
        assert short.steady_state_after is None
        assert stepped == list(range(1, schedule.period + 1))
        assert dataclasses.replace(short, trace=None) == run(fresh(pair), schedule, 1, 0)
        assert kept_proof(pair, schedule) is proof
