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

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ConsistencyError
from .model import PathPair, _check_counts
from .scheduler import Schedule


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
# deliveries, and every buffer's depth.
_Mark = tuple[dict[int, int], dict[int, int], list[int]]


class _ChainState:
    """Mutable per-run state for both chains and their destinations.

    Senders are addressed by the pair's dense index. A buffered block is
    (serial, injected beat); its path is the path of the buffer.
    """

    def __init__(self, pair: PathPair) -> None:
        senders = pair.nodes
        self.labels = [str(ref) for ref in senders]
        self.path_of = [ref.path_id for ref in senders]
        self.is_source = [ref.seq == 1 for ref in senders]
        self.is_last = [ref.seq == pair.path(ref.path_id).n_senders for ref in senders]
        self.buffers: list[list[tuple[int, int]]] = [[] for _ in senders]
        self.spans: dict[int, slice] = {}
        self.injected: dict[int, int] = {}
        self.delivered_log: dict[int, list[tuple[int, int, int]]] = {}
        # deliveries that the books count but the log skips (see _repeat_cycle)
        self.unlogged: dict[int, int] = {}
        for path in pair.paths:
            start = pair.offset(path.id)
            self.spans[path.id] = slice(start, start + path.n_senders)
            self.injected[path.id] = 0
            self.delivered_log[path.id] = []
            self.unlogged[path.id] = 0
        self.max_depth = 0

    def check_conservation(self, depths: list[int]) -> None:
        """Balance each path's books from the buffers' real depths."""
        for path_id, span in self.spans.items():
            in_flight = sum(depths[span])
            balance = self.injected[path_id] - in_flight
            delivered = self.unlogged[path_id] + len(self.delivered_log[path_id])
            if balance != delivered:
                raise ConsistencyError(
                    f"path {path_id}: injected {self.injected[path_id]}, "
                    f"in flight {in_flight}, delivered {delivered} do not balance"
                )

    def boundary_key(self, beat: int) -> tuple[int, ...]:
        """The buffers as seen from the end of `beat`: every buffered block,
        in buffer and queue order, as its buffer's index, the blocks its
        path injected after it, and the beats since it was injected."""
        key: list[int] = []
        for i, queue in enumerate(self.buffers):
            for serial, born in queue:
                key += (i, self.injected[self.path_of[i]] - serial, beat - born)
        return tuple(key)

    def mark(self) -> _Mark:
        return (
            dict(self.injected),
            {pid: len(log) for pid, log in self.delivered_log.items()},
            list(map(len, self.buffers)),
        )

    def step(
        self, beat_index: int, activated: tuple[int, ...], record: bool = False
    ) -> list[dict] | None:
        """Advance one beat; with `record`, return block movement records."""
        departures: list[tuple[int, tuple[int, int]]] = []
        for i in activated:
            if self.is_source[i]:
                path_id = self.path_of[i]
                self.injected[path_id] += 1
                departures.append((i, (self.injected[path_id], beat_index)))
            else:
                queue = self.buffers[i]
                if queue:
                    departures.append((i, queue.pop(0)))
        moves: list[dict] | None = [] if record else None
        for i, block in departures:
            path_id = self.path_of[i]
            if self.is_last[i]:
                self.delivered_log[path_id].append((*block, beat_index))
                target = f"dest{path_id}"
            else:
                self.buffers[i + 1].append(block)
                target = self.labels[i + 1]
            if moves is not None:
                moves.append(
                    {
                        "block": f"p{path_id}b{block[0]}",
                        "from": self.labels[i],
                        "to": target,
                    }
                )
        depths = list(map(len, self.buffers))
        self.max_depth = max(self.max_depth, *depths)
        self.check_conservation(depths)
        return moves


def _check_fifo(state: _ChainState) -> None:
    for path_id, log in state.delivered_log.items():
        serials = [serial for serial, _, _ in log]
        if serials != sorted(serials):
            raise ConsistencyError(
                f"path {path_id} deliveries left injection order: {serials}"
            )


def _dense_beats(
    pair: PathPair, schedule: Schedule
) -> tuple[list[tuple[int, ...]], list[bool]]:
    """Each schedule beat's senders as dense indices, in activation and
    member order, and whether together they form a concurrency subset."""
    first = {path.id: (pair.offset(path.id), path.n_senders) for path in pair.paths}
    dense: list[tuple[int, ...]] = []
    legal: list[bool] = []
    for beat in schedule.beats:
        indices: list[int] = []
        for act in beat.activations:
            start, n = first.get(act.path_id, (0, 0))
            if not all(1 <= seq <= n for seq in act.members):
                # a member that is no sender: the node-level check names it
                pair.mask_of(beat.nodes())
            indices.extend(start - 1 + seq for seq in act.members)
        mask = 0
        for i in indices:
            mask |= 1 << i
        dense.append(tuple(indices))
        legal.append(pair.is_concurrent_mask(mask))
    return dense, legal


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
    injected_rest, _, depths_rest = marks[rest]
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
    state.check_conservation(depths_rest)


def default_warmup_periods(pair: PathPair, schedule: Schedule) -> int:
    """Periods to run before the measured window opens.

    The warmup only places the window: `run` proves the regime periodic
    from `steady_state_after` on. The pipeline fills within one hop per
    phase activation, so the longest involved chain plus two periods puts
    the window inside the periodic regime; the tests check
    `steady_state_after` against this bound on seeded corpora.
    """
    longest = max(
        pair.path(pid).n_senders for pid in schedule.path_periods
    )
    return longest + 2


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
    dense, legal = _dense_beats(pair, schedule)
    trace: list[dict] | None = [] if collect_trace else None

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
        for slot in range(period):
            beat_index = boundary * period + slot + 1
            moves = state.step(beat_index, dense[slot], record=trace is not None)
            if trace is not None:
                trace.append(
                    {
                        "beat": beat_index,
                        "category": schedule.beats[slot].category,
                        "activated": [state.labels[i] for i in dense[slot]],
                        "moves": moves,
                    }
                )
    _check_fifo(state)

    illegal = [slot for slot, ok in enumerate(legal) if not ok]
    violations = total_periods * len(illegal)
    violation_examples: list[str] = []
    for count in range(min(violations, 5)):
        periods_before, position = divmod(count, len(illegal))
        slot = illegal[position]
        names = ", ".join(state.labels[i] for i in dense[slot])
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
        delays[path_id] = [
            arrived - injected + 1 for _, injected, arrived in tail
        ]
    per_path = {
        pid: Fraction(count, window_beats) for pid, count in delivered.items()
    }
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


def measure_delay(
    pair: PathPair, schedule: Schedule, block_count: int
) -> dict[int, list[int]]:
    """End-to-end delays of the first block_count blocks on each path.

    Runs cold (no warmup) so the very first block's delay reflects the
    raw pipeline traversal. Delay counts both the injection beat and the
    arrival beat, so a single-sender path has delay 1.
    """
    _check_counts(f"block count must be >= 1, got {block_count}", block_count=block_count)
    path_ids = sorted(schedule.path_periods)
    state = _ChainState(pair)
    total_senders = sum(pair.path(pid).n_senders for pid in path_ids)
    slowest = max(
        Fraction(schedule.period, schedule.activation_counts[pid])
        for pid in path_ids
    )
    beat_budget = math.ceil(slowest * (block_count + total_senders + 8))
    dense, _ = _dense_beats(pair, schedule)
    for beat_index in range(1, beat_budget + 1):
        state.step(beat_index, dense[(beat_index - 1) % schedule.period])
        if all(
            len(state.delivered_log[pid]) >= block_count for pid in path_ids
        ):
            break
    _check_fifo(state)
    result: dict[int, list[int]] = {}
    for pid in path_ids:
        log = state.delivered_log[pid][:block_count]
        if len(log) < block_count:
            raise ConsistencyError(
                f"path {pid} delivered only {len(log)} of {block_count} "
                f"blocks within {beat_budget} beats"
            )
        result[pid] = [arrived - injected + 1 for _, injected, arrived in log]
    return result
