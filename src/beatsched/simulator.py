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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ConsistencyError, DomainError
from .model import NodeRef, PathPair, is_concurrency_subset
from .scheduler import Schedule


@dataclass
class SimReport:
    """Measured outcome of one simulation run."""

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

    @property
    def ok(self) -> bool:
        return self.violations == 0


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
        for path in pair.paths:
            start = pair.offset(path.id)
            self.spans[path.id] = slice(start, start + path.n_senders)
            self.injected[path.id] = 0
            self.delivered_log[path.id] = []
        self.max_depth = 0

    def check_conservation(self, depths: list[int]) -> None:
        """Balance each path's books from the buffers' real depths."""
        for path_id, span in self.spans.items():
            in_flight = sum(depths[span])
            balance = self.injected[path_id] - in_flight
            if balance != len(self.delivered_log[path_id]):
                raise ConsistencyError(
                    f"path {path_id}: injected {self.injected[path_id]}, "
                    f"in flight {in_flight}, delivered "
                    f"{len(self.delivered_log[path_id])} do not balance"
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


def default_warmup_periods(pair: PathPair, schedule: Schedule) -> int:
    """Periods to run before measuring.

    The pipeline fills within one hop per phase activation and the
    buffers settle into an exactly periodic regime within about one
    period per hop, so the longest involved chain plus two periods is
    always on the safe side.
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
    """
    if n_periods < 1:
        raise DomainError(f"need at least one measured period, got {n_periods}")
    if warmup_periods is None:
        warmup_periods = default_warmup_periods(pair, schedule)
    if warmup_periods < 0:
        raise DomainError(f"warmup must be >= 0, got {warmup_periods}")

    state = _ChainState(pair)
    period = schedule.period
    window_start = warmup_periods * period + 1
    total_beats = (warmup_periods + n_periods) * period

    # A schedule and its beats are immutable, so each beat's legality is
    # decided once; violations are still counted per simulated beat.
    activated_refs: list[tuple[NodeRef, ...]] = []
    legal: list[bool] = []
    for beat in schedule.beats:
        refs = beat.nodes()
        legal.append(not refs or is_concurrency_subset(pair, refs))
        activated_refs.append(refs)
    dense = [tuple(map(pair.index_of, refs)) for refs in activated_refs]

    violations = 0
    violation_examples: list[str] = []
    trace: list[dict] | None = [] if collect_trace else None
    delivered_before: dict[int, int] = {}

    for beat_index in range(1, total_beats + 1):
        if beat_index == window_start:
            delivered_before = {
                pid: len(log) for pid, log in state.delivered_log.items()
            }
        slot = (beat_index - 1) % period
        if not legal[slot]:
            violations += 1
            if len(violation_examples) < 5:
                names = ", ".join(str(ref) for ref in activated_refs[slot])
                violation_examples.append(
                    f"beat {beat_index}: activated set {{{names}}} is not "
                    "a concurrency subset"
                )
        moves = state.step(beat_index, dense[slot], record=trace is not None)
        if trace is not None:
            trace.append(
                {
                    "beat": beat_index,
                    "category": schedule.beats[slot].category,
                    "activated": [str(ref) for ref in activated_refs[slot]],
                    "moves": moves,
                }
            )

    _check_fifo(state)
    if not delivered_before:
        delivered_before = {pid: 0 for pid in state.delivered_log}

    window_beats = n_periods * period
    delivered: dict[int, int] = {}
    delays: dict[int, list[int]] = {}
    for path_id, log in state.delivered_log.items():
        tail = log[delivered_before.get(path_id, 0):]
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
    )


def measure_delay(
    pair: PathPair, schedule: Schedule, block_count: int
) -> dict[int, list[int]]:
    """End-to-end delays of the first block_count blocks on each path.

    Runs cold (no warmup) so the very first block's delay reflects the
    raw pipeline traversal. Delay counts both the injection beat and the
    arrival beat, so a single-sender path has delay 1.
    """
    if block_count < 1:
        raise DomainError(f"block count must be >= 1, got {block_count}")
    path_ids = sorted(schedule.path_periods)
    state = _ChainState(pair)
    total_senders = sum(pair.path(pid).n_senders for pid in path_ids)
    slowest = max(
        Fraction(schedule.period, schedule.activation_counts[pid])
        for pid in path_ids
    )
    beat_budget = math.ceil(slowest * (block_count + total_senders + 8))
    dense = [tuple(map(pair.index_of, beat.nodes())) for beat in schedule.beats]
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
