"""Beat-exact execution of schedules on saturated transmission chains.

Each sender owns a FIFO buffer of blocks waiting to move one hop
downstream. When a beat activates a node, the node forwards the oldest
buffered block to its downstream neighbor (the next sender, or the
destination for the last one). An activated source always has traffic,
so it mints a fresh block and sends it in the same beat. An activated
relay with nothing buffered stays silent for that beat.

All departures within a beat are decided from the state at the start of
the beat and arrivals land afterwards, so a block advances at most one
hop per beat no matter how many nodes fire together.

For schedules whose phase activations alternate cleanly (single-path
cycles, repeated-traversal pair schedules) a buffer never holds more
than one block. Schedules built from a tiled support set can briefly
park a few blocks at one relay; the bound is the per-path traversal
count. Throughput accounting is exact integers and rationals throughout.

A pair compiles each distinct beat once into a slot program
(`_compile_slot`) and keeps it in its memo under the beat's activations;
the schedule keeps nothing. Each run and delay measurement lists its
beats' programs with one lookup per beat (`_slot_programs`), so every
schedule of the pair and every call steps the same programs. A program
names its senders by dense index only and holds no buffer, so each call
steps them on its own buffers: `_ChainState.step` looks up each sender's
move in its state.
The steps run downstream first, so each relay forwards what it held at
the start of the beat before its upstream neighbor's block lands. A
buffer grows only when a block lands, after the buffer's own departure
of the beat, so its depth on arrival is its depth at the end of the
beat, and the largest depth seen at arrivals is the largest at any
beat's end.

A run does not have to step every beat it covers. The whole state that
decides the future is the buffer contents, because the schedule repeats
with its period. At each period boundary the buffers are keyed relative
to the boundary: each block by how many blocks its path injected after
it and by its age in beats. When a key recurs, boundary j first and
boundary k now, the run is proven periodic from j on, and the rest of
the delivery log is the j..k deliveries repeated with shifted serials
and beats (see `run`). Warmup periods only place the measured window;
the periodic regime is proven, not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .errors import ConsistencyError
from .model import PathPair, _check_counts
from .scheduler import Beat, Schedule


@dataclass
class SimReport:
    """Measured outcome of one simulation run.

    `steady_state_after` is the period boundary at which the run was
    proven periodic (the first of two boundaries with equal buffer
    states), or None when no boundary state repeated within the run.
    """

    window_start: int
    window_beats: int
    periods_measured: int
    delivered: dict[int, int]
    per_path_throughput: dict[int, Fraction]
    measured_throughput: Fraction
    delays: dict[int, list[int]]
    violations: int
    violation_examples: list[str] = field(default_factory=list)
    max_buffer_depth: int = 0
    trace: list[dict] | None = None
    steady_state_after: int | None = None

    @property
    def ok(self) -> bool:
        return self.violations == 0


# What a period boundary leaves behind: per-path injections, per-path
# deliveries, and per-path blocks in flight.
_Mark = tuple[dict[int, int], dict[int, int], dict[int, int]]


class _Slot(NamedTuple):
    """One schedule beat compiled for one pair: its senders in activation
    and member order, the same senders downstream first, and whether they
    form a concurrency subset."""

    senders: tuple[int, ...]
    downstream: tuple[int, ...]
    legal: bool


class _ChainState:
    """Mutable per-run state for both chains and their destinations.

    Senders are addressed by the pair's dense index. A buffered block is
    (serial, injected beat); its path is the path of the buffer.
    """

    def __init__(self, pair: PathPair) -> None:
        self.buffers: list[list[tuple[int, int]]] = [[] for _ in range(pair.total_senders)]
        self.injected: dict[int, int] = {}
        self.delivered_log: dict[int, list[tuple[int, int, int]]] = {}
        # deliveries that the books count but the log skips (see _repeat_cycle)
        self.unlogged: dict[int, int] = {}
        self.books: list[tuple[int, list[list], list]] = []  # (path id, buffers, log)
        # sender i's move: (path id, its buffer or None for a source, the
        # next buffer or the path's delivery log, whether that is the log)
        self.sends: list[tuple] = []
        for path in pair.paths:
            pid, start, n = path.id, pair.offset(path.id), path.n_senders
            queues = self.buffers[start:start + n]
            log = self.delivered_log[pid] = []
            self.injected[pid] = self.unlogged[pid] = 0
            self.books.append((pid, queues, log))
            self.sends += [
                (pid, queue if seq > 1 else None, log if seq == n else queues[seq], seq == n)
                for seq, queue in enumerate(queues, 1)
            ]
        self.max_depth = 0

    def check_conservation(self, in_flight: dict[int, int] | None = None) -> None:
        """Balance each path's books from the buffers' real depths, or from
        the blocks in flight that a mark recorded."""
        for path_id, queues, log in self.books:
            flying = sum(map(len, queues)) if in_flight is None else in_flight[path_id]
            delivered = self.unlogged[path_id] + len(log)
            if self.injected[path_id] - flying != delivered:
                raise ConsistencyError(f"path {path_id}: injected {self.injected[path_id]}, "
                                       f"in flight {flying}, delivered {delivered} do not balance")

    def boundary_key(self, beat: int) -> tuple[int, ...]:
        """The buffers as seen from the end of `beat`: every buffered block,
        in buffer and queue order, as its buffer's index, the blocks its
        path injected after it, and the beats since it was injected."""
        key: list[int] = []
        for i, queue in enumerate(self.buffers):
            for serial, born in queue:
                key += (i, self.injected[self.sends[i][0]] - serial, beat - born)
        return tuple(key)

    def mark(self) -> _Mark:
        in_flight = {pid: sum(map(len, queues)) for pid, queues, _ in self.books}
        return dict(self.injected), {pid: len(log) for pid, _, log in self.books}, in_flight

    def step(self, beat: int, program: _Slot, moved: dict[int, list[int]] | None = None) -> bool:
        """Advance one beat by its slot program, then balance the books.
        Returns whether a block reached a destination; with `moved`, lists
        each moved block's serial under its sender, in step order."""
        delivered = False
        sends = self.sends
        for i in program.downstream:
            path_id, queue, target, delivers = sends[i]
            if queue is None:
                serial = self.injected[path_id] = self.injected[path_id] + 1
                block = (serial, beat)
            elif queue:
                block = queue.pop(0)
            else:
                continue
            if delivers:
                target.append((*block, beat))
                delivered = True
            else:
                target.append(block)
                if len(target) > self.max_depth:
                    self.max_depth = len(target)
            if moved is not None:
                moved.setdefault(i, []).append(block[0])
        self.check_conservation()
        return delivered


def _check_fifo(state: _ChainState) -> None:
    for path_id, log in state.delivered_log.items():
        serials = [serial for serial, _, _ in log]
        if serials != sorted(serials):
            raise ConsistencyError(f"path {path_id} deliveries left injection order: {serials}")


def _compile_slot(pair: PathPair, beat: Beat) -> _Slot:
    """The beat's slot program on `pair`, kept in the pair's memo under the
    beat's activations. Those are ints all through (see
    `SubsetActivation`), so a key of 1.0 or True never finds what 1 made."""
    first = {path.id: (pair.offset(path.id) - 1, path.n_senders) for path in pair.paths}
    senders: list[int] = []
    mask = 0
    for act in beat.activations:
        base, n = first.get(act.path_id, (0, 0))
        for seq in act.members:
            if not 0 < seq <= n:
                # a member that is no sender: the node-level check names it
                pair.mask_of(beat.nodes())
            senders.append(base + seq)
            mask |= 1 << (base + seq)
    slot = pair._memo[("slot", beat.activations)] = _Slot(
        tuple(senders), tuple(sorted(senders, reverse=True)), pair.is_concurrent_mask(mask)
    )
    return slot


def _slot_programs(pair: PathPair, schedule: Schedule) -> list[_Slot]:
    """Each schedule beat's slot program on `pair`: one memo lookup per
    beat, and a compile for a beat the pair has not seen."""
    memo = pair._memo
    return [memo.get(("slot", beat.activations)) or _compile_slot(pair, beat) for beat in schedule.beats]


def _repeat_cycle(
    state: _ChainState, marks: list[_Mark], first: int, last: int,
    period: int, total_periods: int, window_start: int,
) -> None:
    """Extend every delivery log to the end of the run by repeating the
    deliveries between boundaries `first` and `last`, whose keys are
    equal, then balance the books of the run's last beat. Copies of the
    cycle that end before `window_start` are counted, not logged."""
    cycle_periods = last - first
    cycle_beats = cycle_periods * period
    total_beats = total_periods * period
    # copy c of the cycle ends with beat last * period + c * cycle_beats, so
    # the first `skipped` copies end before the window
    skipped = max(0, -(-(window_start - last * period) // cycle_beats) - 1)
    injected_first, delivered_first, _ = marks[first]
    # the run's last boundary repeats boundary `rest`, `repeats` cycles on
    rest = first + (total_periods - first) % cycle_periods
    repeats = (total_periods - rest) // cycle_periods
    injected_rest, _, in_flight_rest = marks[rest]
    injected_end: dict[int, int] = {}
    for path_id, log in state.delivered_log.items():
        gain = state.injected[path_id] - injected_first[path_id]
        cycle = log[delivered_first[path_id]:]
        state.unlogged[path_id] += skipped * len(cycle)
        for c in range(1 + skipped, -(-(total_periods - first) // cycle_periods)):
            serials, beats = c * gain, c * cycle_beats
            log.extend(
                (serial + serials, injected + beats, arrived + beats)
                for serial, injected, arrived in cycle
                if arrived + beats <= total_beats
            )
        injected_end[path_id] = injected_rest[path_id] + repeats * gain
    state.injected = injected_end
    state.check_conservation(in_flight_rest)


def default_warmup_periods(pair: PathPair, schedule: Schedule) -> int:
    """Periods to run before the measured window opens.

    The warmup only places the window: `run` proves the regime periodic
    from `steady_state_after` on. The pipeline fills within one hop per
    phase activation, so the longest involved chain plus two periods puts
    the window inside the periodic regime; the tests check
    `steady_state_after` against this bound on seeded corpora.
    """
    return max(pair.path(pid).n_senders for pid in schedule.path_periods) + 2


def run(
    pair: PathPair,
    schedule: Schedule,
    n_periods: int,
    warmup_periods: int | None = None,
    collect_trace: bool = False,
) -> SimReport:
    """Execute warmup plus n_periods full periods and measure the tail.

    Each schedule beat's activation union is checked against the
    interference relation once per run, and every simulated beat that
    repeats a failing one is recorded as a violation. The transmissions
    still happen, so a broken schedule can be inspected end to end
    rather than aborting on first contact.

    The run steps beats only until a period boundary's buffer key (see
    `_ChainState.boundary_key`) repeats one seen at an earlier boundary,
    then extends the delivery log to the end of the run, logging only the
    cycles that reach the measured window. That is exact:
    - Every choice a beat makes (which senders fire, whether a relay's
      queue is empty, which block leaves) reads only the buffers and the
      beat's slot, and each boundary starts the same slots. Equal keys
      at boundaries j < k therefore give, by induction over the beats,
      a run after k that is the run after j with each block's serial
      raised by its path's injections over the cycle and each beat
      raised by (k - j) periods. The deliveries after k are the j..k
      deliveries shifted cycle by cycle, which is how the log grows.
    - Each skipped beat's state equals a stepped beat's state up to that
      shift, so it has the same depths (the maximum depth is already
      seen) and balances its books whenever the stepped one did: equal
      depths at j and k mean a path injects exactly as many blocks as it
      delivers over the cycle. `_repeat_cycle` checks the balance once
      more on the extended totals of the last beat.
    - Every period simulates the same illegal slots, so the violation
      count is the number of periods times the illegal slots.
    With `collect_trace` the run steps every beat anyway, because the
    trace lists every beat's moves; it still reports the first repeat.
    """
    _check_counts(f"need at least one measured period, got {n_periods}", n_periods=n_periods)
    if warmup_periods is None:
        warmup_periods = default_warmup_periods(pair, schedule)
    elif type(warmup_periods) is not int or warmup_periods:  # a warmup of 0 is fine
        _check_counts(f"warmup must be >= 0, got {warmup_periods}", warmup_periods=warmup_periods)

    state = _ChainState(pair)
    period = schedule.period
    total_periods = warmup_periods + n_periods
    window_start = warmup_periods * period + 1
    programs = _slot_programs(pair, schedule)
    trace: list[dict] | None = None
    if collect_trace:
        trace, labels = [], [str(ref) for ref in pair.nodes]
        heads = [f"dest{pid}" if delivers else labels[i + 1] for i, (pid, _, _, delivers) in enumerate(state.sends)]

    seen: dict[tuple[int, ...], int] = {}
    marks: list[_Mark] = []
    steady_state_after: int | None = None
    for boundary in range(total_periods + 1):
        if steady_state_after is None:
            first = seen.setdefault(state.boundary_key(boundary * period), boundary)
            marks.append(state.mark())
            if first < boundary:
                steady_state_after = first
                if trace is None:
                    _repeat_cycle(state, marks, first, boundary, period, total_periods, window_start)
                    break
        if boundary == total_periods:
            break
        for beat_index, (program, beat) in enumerate(zip(programs, schedule.beats), boundary * period + 1):
            moved = None if trace is None else {}
            state.step(beat_index, program, moved)
            if moved is not None:
                # a sender listed twice steps twice in a row: serials in listing order
                trace.append({
                    "beat": beat_index,
                    "category": beat.category,
                    "activated": [labels[i] for i in program.senders],
                    "moves": [
                        {"block": f"p{state.sends[i][0]}b{moved[i].pop(0)}", "from": labels[i], "to": heads[i]}
                        for i in program.senders if moved.get(i)
                    ],
                })
    _check_fifo(state)

    illegal = [slot for slot, program in enumerate(programs) if not program.legal]
    violations = total_periods * len(illegal)
    violation_examples: list[str] = []
    for count in range(min(violations, 5)):
        periods_before, position = divmod(count, len(illegal))
        slot = illegal[position]
        names = ", ".join(map(str, schedule.beats[slot].nodes()))
        violation_examples.append(
            f"beat {periods_before * period + slot + 1}: activated set "
            f"{{{names}}} is not a concurrency subset"
        )

    window_beats = n_periods * period
    delivered: dict[int, int] = {}
    delays: dict[int, list[int]] = {}
    for path_id, log in state.delivered_log.items():
        tail = [record for record in log if record[2] >= window_start]
        delivered[path_id] = len(tail)
        delays[path_id] = [arrived - injected + 1 for _, injected, arrived in tail]
    per_path = {pid: Fraction(count, window_beats) for pid, count in delivered.items()}
    measured = Fraction(sum(delivered.values()), window_beats)

    return SimReport(
        window_start=window_start,
        window_beats=window_beats,
        periods_measured=n_periods,
        delivered=delivered,
        per_path_throughput=per_path,
        measured_throughput=measured,
        delays=delays,
        violations=violations,
        violation_examples=violation_examples,
        max_buffer_depth=state.max_depth,
        trace=trace,
        steady_state_after=steady_state_after,
    )


def measure_delay(pair: PathPair, schedule: Schedule, block_count: int) -> dict[int, list[int]]:
    """End-to-end delays of the first block_count blocks on each path.

    Runs cold (no warmup) so the very first block's delay reflects the
    raw pipeline traversal. Delay counts both the injection beat and the
    arrival beat, so a single-sender path has delay 1. The beat budget is
    the slowest path's period / activation count times (block_count +
    senders + 8), rounded up.
    """
    _check_counts(f"block count must be >= 1, got {block_count}", block_count=block_count)
    path_ids = sorted(schedule.path_periods)
    blocks = block_count + sum(pair.path(pid).n_senders for pid in path_ids) + 8
    beat_budget = max(-(-schedule.period * blocks // schedule.activation_counts[pid]) for pid in path_ids)
    state = _ChainState(pair)
    logs = [state.delivered_log[pid] for pid in path_ids]
    programs = _slot_programs(pair, schedule)
    for beat_index in range(1, beat_budget + 1):
        if state.step(beat_index, programs[(beat_index - 1) % schedule.period]):
            if min(map(len, logs)) >= block_count:
                break
    _check_fifo(state)
    result: dict[int, list[int]] = {}
    for pid, log in zip(path_ids, logs):
        if len(log) < block_count:
            raise ConsistencyError(f"path {pid} delivered only {len(log)} of {block_count} "
                                   f"blocks within {beat_budget} beats")
        result[pid] = [arrived - injected + 1 for _, injected, arrived in log[:block_count]]
    return result
