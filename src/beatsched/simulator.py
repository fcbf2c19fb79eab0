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
boundary k now, the cold run is proven periodic from j on, and every
later delivery is one of the j..k deliveries with its serial and beats
shifted by whole cycles (see `run`). Warmup periods only place the
measured window; the periodic regime is proven, not assumed.

The cold run of a schedule depends only on the pair and the beats' slot
programs, so a pair proves it once (`_trajectory`) and keeps the proof
in its memo under those programs (`_Proof`): the boundaries j and k,
the deliveries and the books of every boundary up to k, and the
largest buffer depth. A later `run` whose periods reach k, and any
later `measure_delay`, read the proof; untraced, they step no beat.
Other calls step the cold run, traced or not, through that one routine
until the first repeat, which they keep, or until they have what they
need; a prefix without a repeat is read the same way, as a proof with
no cycle.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import cycle, islice
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


# What a period boundary leaves behind, per path in pair order: blocks
# injected, blocks delivered and blocks in flight.
_Mark = tuple[tuple[int, int, int], ...]


class _Slot(NamedTuple):
    """One schedule beat compiled for one pair: its senders in activation
    and member order, the same senders downstream first, and whether they
    form a concurrency subset."""

    senders: tuple[int, ...]
    downstream: tuple[int, ...]
    legal: bool


def _balance(path_id: int, injected: int, in_flight: int, delivered: int) -> None:
    if injected - in_flight != delivered:
        raise ConsistencyError(f"path {path_id}: injected {injected}, "
                               f"in flight {in_flight}, delivered {delivered} do not balance")


class _ChainState:
    """Mutable per-run state for both chains and their destinations.

    Senders are addressed by the pair's dense index. A buffered block is
    (serial, injected beat); its path is the path of the buffer.
    """

    def __init__(self, pair: PathPair) -> None:
        self.buffers: list[list[tuple[int, int]]] = [[] for _ in range(pair.total_senders)]
        self.injected: dict[int, int] = {}
        self.delivered_log: dict[int, list[tuple[int, int, int]]] = {}
        self.books: list[tuple[int, list[list], list]] = []  # (path id, buffers, log)
        # sender i's move: (path id, its buffer or None for a source, the
        # next buffer or the path's delivery log, whether that is the log)
        self.sends: list[tuple] = []
        for path in pair.paths:
            pid, start, n = path.id, pair.offset(path.id), path.n_senders
            queues = self.buffers[start:start + n]
            log = self.delivered_log[pid] = []
            self.injected[pid] = 0
            self.books.append((pid, queues, log))
            self.sends += [
                (pid, queue if seq > 1 else None, log if seq == n else queues[seq], seq == n)
                for seq, queue in enumerate(queues, 1)
            ]
        self.max_depth = 0

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
        return tuple((self.injected[pid], len(log), sum(map(len, queues))) for pid, queues, log in self.books)

    def step(self, beat: int, program: _Slot, moves: list[dict[int, list[int]]] | None = None) -> bool:
        """Advance one beat by its slot program, then balance the books.
        Returns whether a block reached a destination; with `moves`, appends
        the beat's moved serials listed under their senders, in step order."""
        delivered = False
        moved = None if moves is None else {}
        sends = self.sends
        injected = self.injected
        for i in program.downstream:
            path_id, queue, target, delivers = sends[i]
            if queue is None:
                serial = injected[path_id] = injected[path_id] + 1
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
        for path_id, queues, log in self.books:  # from the buffers' real depths
            if injected[path_id] - len(log) != sum(map(len, queues)):
                _balance(path_id, injected[path_id], sum(map(len, queues)), len(log))
        if moves is not None:
            moves.append(moved)
        return delivered


def _check_order(path_id: int, serials: list[int]) -> None:
    if serials != sorted(serials):
        raise ConsistencyError(f"path {path_id} deliveries left injection order: {serials}")


class _Proof(NamedTuple):
    """A cold run stepped until the buffer key of boundary `last` repeated
    boundary `first`'s, as a pair keeps it; or, with both None, a cold
    run that stopped before a repeat, read only within its stepped beats.

    Per path, indexed by path id - 1: the arrival beat and the delay of
    each block delivered by boundary `last`, in delivery order. `marks`
    holds the books of boundaries 0..last, and `max_depth` the largest
    buffer depth, which no later beat exceeds. The endless cold run's
    delivery i is the prefix's delivery i until the cycle (the deliveries
    after boundary `first`) has been listed once; after that each copy of
    the cycle comes shifted by one more cycle of beats and injections,
    which moves arrival and injection alike and keeps every delay.
    """

    period: int
    first: int | None
    last: int | None
    arrivals: tuple[tuple[int, ...], ...]
    delays: tuple[tuple[int, ...], ...]
    marks: tuple[_Mark, ...]
    max_depth: int

    def delivered_by(self, path_id: int, beat: int) -> int:
        """How many blocks the path has delivered by the end of `beat`."""
        arrivals = self.arrivals[path_id - 1]
        if self.first is None:
            return bisect_right(arrivals, beat)
        cycle_beats = (self.last - self.first) * self.period
        # move `beat` back by whole cycles into the prefix's own cycle
        shifts = max(0, -(-(beat - self.last * self.period) // cycle_beats))
        per_cycle = len(arrivals) - self.marks[self.first][path_id - 1][1]
        return bisect_right(arrivals, beat - shifts * cycle_beats) + shifts * per_cycle

    def delays_of(self, path_id: int, start: int, stop: int) -> list[int]:
        """The delays of the path's deliveries start..stop-1, counted from 0."""
        delays = self.delays[path_id - 1]
        # deliveries before the cycle: all of them without one
        head = len(delays) if self.first is None else self.marks[self.first][path_id - 1][1]
        return [*delays[start:min(stop, head)],
                *islice(cycle(delays[head:]), max(start - head, 0), max(stop - head, 0))]

    def check_books(self, periods: int) -> None:
        """Balance every path's books at boundary `periods` >= `last`: the
        injections and blocks in flight of the boundary it repeats, the
        injections of the cycles in between, and the deliveries read."""
        if self.first is None:  # every stepped beat balanced its books
            return
        cycle_periods = self.last - self.first
        rest = self.first + (periods - self.first) % cycle_periods
        repeats = (periods - rest) // cycle_periods
        marks = zip(self.marks[self.first], self.marks[self.last], self.marks[rest])
        for path_id, (at_first, at_last, at_rest) in enumerate(marks, 1):
            injected = at_rest[0] + repeats * (at_last[0] - at_first[0])
            _balance(path_id, injected, at_rest[2], self.delivered_by(path_id, periods * self.period))


def _prove(state: _ChainState, marks: list[_Mark], first: int | None, last: int | None, period: int) -> _Proof:
    """The proof of the cold run in `state`, stepped to boundary `last`, or
    as far as it went when `first` and `last` are None. Each path's log is
    checked in injection order, with one more copy of its cycle appended
    when there is one: each copy joins the next as the prefix joins that
    copy, so every delivery list read from the proof is in order too."""
    arrivals, delays = [], []
    for k, (path_id, _, log) in enumerate(state.books):
        serials = [serial for serial, _, _ in log]
        if first is not None:
            gain = marks[last][k][0] - marks[first][k][0]
            serials += [serial + gain for serial in serials[marks[first][k][1]:]]
        _check_order(path_id, serials)
        arrivals.append(tuple(arrived for _, _, arrived in log))
        delays.append(tuple(arrived - injected + 1 for _, injected, arrived in log))
    return _Proof(period, first, last, tuple(arrivals), tuple(delays), tuple(marks), state.max_depth)


def _trajectory(
    pair: PathPair, programs: list[_Slot], beats: int, block_count: int = 0, path_ids: list[int] | tuple = (),
    moves: list[dict[int, list[int]]] | None = None,
) -> _Proof:
    """The cold run of the beats compiled to `programs`, within `beats` beats.

    A proof the pair keeps serves without a step: a delay measurement
    (`block_count` >= 1) reads any, and a run one that ends within its
    beats. Otherwise the run is stepped from empty buffers, period by
    period, keying each boundary, until a key repeats (the proof is kept
    in the pair's memo and returned), `beats` beats have run, or every
    path in `path_ids` has delivered `block_count` blocks; the last two
    return the stepped prefix as a proof with no cycle. A `moves` sink
    gets each beat's `{sender: [serials]}` (see `_ChainState.step`), so
    with one all `beats` are stepped, and boundaries are keyed only until
    the repeat, or not at all when the pair keeps a proof. Racing callers
    store equal proofs under equal keys.
    """
    key = ("trajectory", *programs)
    period = len(programs)
    proof = pair._memo.get(key)
    if proof is not None and moves is None and (block_count or proof.last * period <= beats):
        return proof
    state = _ChainState(pair)
    logs = [state.delivered_log[pid] for pid in path_ids]
    seen: dict[tuple[int, ...], int] | None = {} if proof is None else None
    marks: list[_Mark] = []
    for boundary in range(beats // period + 1):
        start = boundary * period
        if seen is not None:
            marks.append(state.mark())
            first = seen.setdefault(state.boundary_key(start), boundary)
            if first < boundary:
                proof = pair._memo[key] = _prove(state, marks, first, boundary, period)
                if moves is None:
                    return proof
                seen = None
        for beat_index, program in zip(range(start + 1, beats + 1), programs):
            if state.step(beat_index, program, moves) and logs and min(map(len, logs)) >= block_count:
                return _prove(state, marks, None, None, period)
    return proof if proof is not None and proof.last * period <= beats else _prove(state, marks, None, None, period)


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

    The window's deliveries are read from the cold run's proof (see
    `_trajectory`): the stepped ones, then the cycle between the two
    boundaries, shifted cycle by cycle. A run shorter than the pair's
    proof steps its own periods and reports no steady state. Deliveries
    before the window are counted, not listed, so a long warmup costs no
    more than a short one. That is exact:
    - Every choice a beat makes (which senders fire, whether a relay's
      queue is empty, which block leaves) reads only the buffers and the
      beat's slot, and each boundary starts the same slots. Equal keys
      at boundaries j < k therefore give, by induction over the beats,
      a run after k that is the run after j with each block's serial
      raised by its path's injections over the cycle and each beat
      raised by (k - j) periods. The deliveries after k are the j..k
      deliveries shifted cycle by cycle.
    - Each beat not stepped has a stepped beat's state up to that shift,
      so it has the same depths (the maximum depth is already seen) and
      balances its books whenever the stepped one did: equal depths at
      j and k mean a path injects exactly as many blocks as it delivers
      over the cycle. `_Proof.check_books` checks the balance once more
      on the totals of the run's last beat.
    - Every period simulates the same illegal slots, so the violation
      count is the number of periods times the illegal slots.
    With `collect_trace` the run steps every beat once, for the trace's
    moves, and its report equals the untraced one apart from `trace`.
    """
    _check_counts(f"need at least one measured period, got {n_periods}", n_periods=n_periods)
    if warmup_periods is None:
        warmup_periods = default_warmup_periods(pair, schedule)
    elif type(warmup_periods) is not int or warmup_periods:  # a warmup of 0 is fine
        _check_counts(f"warmup must be >= 0, got {warmup_periods}", warmup_periods=warmup_periods)

    period = schedule.period
    total_periods = warmup_periods + n_periods
    total_beats = total_periods * period
    window_start = warmup_periods * period + 1
    programs = _slot_programs(pair, schedule)
    moves: list[dict[int, list[int]]] | None = [] if collect_trace else None
    proof = _trajectory(pair, programs, total_beats, moves=moves)
    proof.check_books(total_periods)
    delays: dict[int, list[int]] = {}
    for path_id in range(1, len(proof.delays) + 1):
        start, stop = proof.delivered_by(path_id, window_start - 1), proof.delivered_by(path_id, total_beats)
        delays[path_id] = proof.delays_of(path_id, start, stop)
    trace: list[dict] | None = None
    if moves is not None:
        nodes = pair.nodes
        labels = [str(ref) for ref in nodes]
        heads = [labels[i + 1] if ref.seq < pair.path(ref.path_id).n_senders else f"dest{ref.path_id}"
                 for i, ref in enumerate(nodes)]
        # a sender listed twice steps twice in a row: serials in listing order
        trace = [{
            "beat": beat_index,
            "category": beat.category,
            "activated": [labels[i] for i in program.senders],
            "moves": [
                {"block": f"p{nodes[i].path_id}b{moved[i].pop(0)}", "from": labels[i], "to": heads[i]}
                for i in program.senders if moved.get(i)
            ],
        } for beat_index, (moved, program, beat) in enumerate(zip(moves, cycle(programs), cycle(schedule.beats)), 1)]

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
    delivered = {path_id: len(tail) for path_id, tail in delays.items()}
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
        max_buffer_depth=proof.max_depth,
        trace=trace,
        steady_state_after=proof.first,
    )


def measure_delay(pair: PathPair, schedule: Schedule, block_count: int) -> dict[int, list[int]]:
    """End-to-end delays of the first block_count blocks on each path.

    Runs cold (no warmup) so the very first block's delay reflects the
    raw pipeline traversal. Delay counts both the injection beat and the
    arrival beat, so a single-sender path has delay 1.

    The beat budget is the largest over the scheduled paths of period x
    (senders + ceil(block_count / count)), count being the path's
    activation count; a path short of its blocks by then is a
    ConsistencyError. An audited schedule fires each sender `count` times
    in any `period` beats, so its k-th firing after beat t comes by t +
    period x ceil(k / count). Block b leaves the source by period x
    ceil(b / count), and a later sender by the arrival of the block b' <=
    b that found its buffer empty plus period x ceil((b - b' + 1) /
    count), as it moves a block at every firing in between. By induction,
    as ceil(b' / count) + ceil((b - b' + 1) / count) <= ceil(b / count) +
    1, each sender adds at most a period: block b lands a period early.

    With the pair's proof of the schedule's cold run (see `run`), the
    delays are read from it and no beat is stepped, however many blocks
    are asked for. Without one, the cold run is stepped until every path
    has its blocks, the budget is spent, or a boundary repeats; a repeat
    is kept as the pair's proof. No call steps past the first repeat.
    """
    _check_counts(f"block count must be >= 1, got {block_count}", block_count=block_count)
    path_ids = sorted(schedule.path_periods)
    counts = schedule.activation_counts
    beat_budget = schedule.period * max(pair.path(pid).n_senders - (-block_count // counts[pid]) for pid in path_ids)
    proof = _trajectory(pair, _slot_programs(pair, schedule), beat_budget, block_count, path_ids)
    for pid in path_ids:
        delivered = proof.delivered_by(pid, beat_budget)
        if delivered < block_count:
            raise ConsistencyError(f"path {pid} delivered only {delivered} of {block_count} "
                                   f"blocks within {beat_budget} beats")
    return {pid: proof.delays_of(pid, 0, block_count) for pid in path_ids}
