"""Periodic beat schedule synthesis for one path or a pair of paths.

A schedule is a closed cycle of beats. Each beat activates at most one
equally spaced phase subset per path, and the union of everything
activated in a beat must be a concurrency subset. Single-path schedules
cycle through all phases of the intrinsic period. Pair schedules
interleave joint beats (both paths active, paired through the joint
concurrency matrix) with leftover single-path beats, which is what makes
the short joint periods possible. One builder makes every pair cycle from
a maximum support set of the tiled joint matrix; an equal-opportunity
schedule is its cycle with one traversal per path, repeated.

Beat ordering convention: within one cycle the joint beats come first,
then the unmatched path-1 phases in ascending order, then the unmatched
path-2 phases in ascending order. Any order that keeps the per-beat
unions valid would give the same throughput; tests pin this one so
schedules are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .errors import ConsistencyError, DomainError
from .matching import max_support_set
from .model import NodeRef, PathPair
from .periods import (
    build_matrix,
    continuation,
    intrinsic_period,
    is_reachable_period,
    subset_members,
)

CATEGORY_JOINT = "joint"
CATEGORY_PATH1 = "path1-only"
CATEGORY_PATH2 = "path2-only"


@dataclass(frozen=True)
class SubsetActivation:
    """One equally spaced phase subset switched on for one beat."""

    path_id: int
    spacing: int
    phase: int
    members: tuple[int, ...]

    def nodes(self) -> tuple[NodeRef, ...]:
        return tuple(NodeRef(self.path_id, seq) for seq in self.members)

    def to_dict(self) -> dict:
        return {
            "path": self.path_id,
            "spacing": self.spacing,
            "phase": self.phase,
            "members": list(self.members),
        }


@dataclass(frozen=True)
class Beat:
    """All activations of a single beat, tagged by category."""

    category: str
    activations: tuple[SubsetActivation, ...]

    def activation_for(self, path_id: int) -> SubsetActivation | None:
        for act in self.activations:
            if act.path_id == path_id:
                return act
        return None

    def nodes(self) -> tuple[NodeRef, ...]:
        out: list[NodeRef] = []
        for act in self.activations:
            out.extend(act.nodes())
        return tuple(out)

    def to_dict(self) -> dict:
        return {
            "category": self.category,
            "activations": [act.to_dict() for act in self.activations],
        }


@dataclass(frozen=True)
class Schedule:
    """A closed cycle of beats plus the bookkeeping the simulator needs.

    path_periods maps path id to the phase spacing used on that path and
    activation_counts maps path id to how many times each phase fires per
    cycle. period == len(beats) always.
    """

    period: int
    beats: tuple[Beat, ...]
    path_periods: Mapping[int, int]
    activation_counts: Mapping[int, int]
    kind: str

    def __post_init__(self) -> None:
        if self.period != len(self.beats):
            raise ConsistencyError(
                f"schedule period {self.period} disagrees with "
                f"{len(self.beats)} beats"
            )

    def beat(self, index: int) -> Beat:
        """Beat at a 1-based index, wrapping modulo the period."""
        return self.beats[(index - 1) % self.period]

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "period": self.period,
            "path_periods": {str(k): v for k, v in self.path_periods.items()},
            "activation_counts": {
                str(k): v for k, v in self.activation_counts.items()
            },
            "beats": [b.to_dict() for b in self.beats],
        }


def schedule_from_dict(data: dict) -> Schedule:
    """Rebuild a schedule from its to_dict form (CLI round trips)."""
    beats = []
    for raw_beat in data["beats"]:
        acts = tuple(
            SubsetActivation(
                path_id=int(a["path"]),
                spacing=int(a["spacing"]),
                phase=int(a["phase"]),
                members=tuple(int(m) for m in a["members"]),
            )
            for a in raw_beat["activations"]
        )
        beats.append(Beat(category=raw_beat["category"], activations=acts))
    return Schedule(
        period=int(data["period"]),
        beats=tuple(beats),
        path_periods={int(k): int(v) for k, v in data["path_periods"].items()},
        activation_counts={
            int(k): int(v) for k, v in data["activation_counts"].items()
        },
        kind=data["kind"],
    )


def _phase_activation(pair: PathPair, path_id: int, spacing: int, phase: int) -> SubsetActivation:
    path = pair.path(path_id)
    members = tuple(ref.seq for ref in subset_members(path, phase, spacing))
    return SubsetActivation(path_id=path_id, spacing=spacing, phase=phase, members=members)


def schedule_primary(
    pair: PathPair, path_id: int, period: int | None = None
) -> Schedule:
    """Single-path schedule: beat k activates phase k of the cycle.

    Without an explicit period the intrinsic (smallest reachable) one is
    used. An explicit period must be reachable on the path.
    """
    path = pair.path(path_id)
    if period is None:
        period = intrinsic_period(pair, path_id)
    else:
        if period < 1 or period > path.n_senders:
            raise DomainError(
                f"period {period} out of range 1..{path.n_senders} "
                f"for path {path_id}"
            )
        if not is_reachable_period(pair, path_id, period):
            raise DomainError(
                f"period {period} is not reachable on path {path_id}"
            )
    beats = tuple(
        Beat(
            category=CATEGORY_PATH1 if path_id == 1 else CATEGORY_PATH2,
            activations=(_phase_activation(pair, path_id, period, k),),
        )
        for k in range(1, period + 1)
    )
    schedule = Schedule(
        period=period,
        beats=beats,
        path_periods={path_id: period},
        activation_counts={path_id: 1},
        kind="primary",
    )
    _audit_or_raise(pair, schedule)
    return schedule


def _pair_cycle(
    pair: PathPair, period1: int, period2: int, l1: int, l2: int
) -> tuple[tuple[Beat, ...], int]:
    """Beats and support size of one cycle in which path 1 makes l1
    traversals and path 2 makes l2.

    Joint beats come from a maximum support set of the l1 x l2 tiling of
    the joint matrix. Row i of the tiling stands for phase
    ((i-1) mod period1)+1 and column j for phase ((j-1) mod period2)+1;
    rows and columns the support set leaves free become single-path beats.
    """
    tiled = continuation(build_matrix(pair, period1, period2), l1, l2)
    support, support_size = max_support_set(tiled)
    matched_rows = {i for i, _ in support}
    matched_cols = {j for _, j in support}

    def act(path_id: int, period: int, index: int) -> SubsetActivation:
        return _phase_activation(pair, path_id, period, (index - 1) % period + 1)

    beats = [
        Beat(CATEGORY_JOINT, (act(1, period1, i), act(2, period2, j)))
        for i, j in support
    ]
    beats += [
        Beat(CATEGORY_PATH1, (act(1, period1, i),))
        for i in range(1, l1 * period1 + 1)
        if i not in matched_rows
    ]
    beats += [
        Beat(CATEGORY_PATH2, (act(2, period2, j),))
        for j in range(1, l2 * period2 + 1)
        if j not in matched_cols
    ]
    return tuple(beats), support_size


def schedule_pair_equal(
    pair: PathPair, period1: int, period2: int, traversals: int
) -> Schedule:
    """Equal-opportunity pair schedule: one traversal repeated.

    A traversal is the unequal cycle with one traversal per path: it pairs
    a maximum support set of the joint concurrency matrix into joint
    beats, then runs the unmatched phases of each path one beat each.
    Both paths complete `traversals` cycles per period.
    """
    if traversals < 1:
        raise DomainError(f"traversal count must be >= 1, got {traversals}")
    traversal, support_size = _pair_cycle(pair, period1, period2, 1, 1)
    schedule = Schedule(
        period=traversals * (period1 + period2 - support_size),
        beats=traversal * traversals,
        path_periods={1: period1, 2: period2},
        activation_counts={1: traversals, 2: traversals},
        kind="pair-equal",
    )
    _audit_or_raise(pair, schedule)
    return schedule


def schedule_pair_unequal(
    pair: PathPair,
    period1: int,
    period2: int,
    traversals1: int,
    traversals2: int,
) -> Schedule:
    """Pair schedule with independent per-path traversal counts.

    Joint beats come from a maximum support set of the tiled joint
    matrix, so each path-1 phase appears traversals1 times over the
    cycle and each path-2 phase traversals2 times.
    """
    if traversals1 < 1 or traversals2 < 1:
        raise DomainError(
            f"traversal counts must be >= 1, got {traversals1} and {traversals2}"
        )
    beats, support_size = _pair_cycle(pair, period1, period2, traversals1, traversals2)
    schedule = Schedule(
        period=traversals1 * period1 + traversals2 * period2 - support_size,
        beats=beats,
        path_periods={1: period1, 2: period2},
        activation_counts={1: traversals1, 2: traversals2},
        kind="pair-unequal",
    )
    _audit_or_raise(pair, schedule)
    return schedule


def predicted_throughput(schedule: Schedule) -> Fraction:
    """Blocks per beat the schedule should deliver once warmed up.

    Every path completes activation_counts[path] full pipeline cycles
    per period and each completed cycle moves one block end to end, so
    the rate is the summed cycle count over the period.
    """
    total = sum(schedule.activation_counts.values())
    return Fraction(total, schedule.period)


@dataclass
class AuditReport:
    """Independent re-check of the four schedule validity conditions."""

    non_empty_ok: bool
    concurrency_ok: bool
    uniqueness_ok: bool
    ergodicity_ok: bool
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.non_empty_ok
            and self.concurrency_ok
            and self.uniqueness_ok
            and self.ergodicity_ok
        )


def audit_schedule(pair: PathPair, schedule: Schedule) -> AuditReport:
    """Check a schedule against the validity conditions from scratch.

    Deliberately ignores how the schedule was built: every beat must be
    non-empty, every beat's union must be a concurrency subset, no beat
    may activate two subsets of one path, and over the whole cycle each
    path must fire every phase of its spacing the same number of times.
    """
    report = AuditReport(True, True, True, True)

    def problem(flag: str, text: str) -> None:
        setattr(report, flag, False)
        report.problems.append(text)

    phase_counts: dict[int, dict[int, int]] = {
        pid: {} for pid in schedule.path_periods
    }
    for index, beat in enumerate(schedule.beats, start=1):
        if not beat.activations:
            problem("non_empty_ok", f"beat {index} activates nothing")
            continue
        seen_paths: set[int] = set()
        counted: list[SubsetActivation] = []
        for act in beat.activations:
            if act.path_id in seen_paths:
                problem(
                    "uniqueness_ok",
                    f"beat {index} activates path {act.path_id} twice",
                )
            seen_paths.add(act.path_id)
            spacing = schedule.path_periods.get(act.path_id)
            if spacing is None or act.spacing != spacing:
                problem(
                    "uniqueness_ok",
                    f"beat {index} uses spacing {act.spacing} on path "
                    f"{act.path_id}, schedule declares {spacing}",
                )
                continue
            path = pair.path(act.path_id)
            expected = tuple(
                ref.seq for ref in subset_members(path, act.phase, act.spacing)
            )
            if act.members != expected:
                problem(
                    "uniqueness_ok",
                    f"beat {index} path {act.path_id} phase {act.phase} "
                    f"members {act.members} do not match the phase subset",
                )
            counts = phase_counts[act.path_id]
            counts[act.phase] = counts.get(act.phase, 0) + 1
            counted.append(act)
        union = 0
        for act in counted:
            union |= pair.seq_mask(act.path_id, act.members)
        if pair.is_concurrent_mask(union):
            continue
        # list every interfering pair, in activation and member order
        members = [node for act in counted for node in act.nodes()]
        relation = pair.relation
        for a_pos in range(len(members)):
            for b_pos in range(a_pos + 1, len(members)):
                if relation.interferes(members[a_pos], members[b_pos]):
                    problem(
                        "concurrency_ok",
                        f"beat {index}: {members[a_pos]} and "
                        f"{members[b_pos]} interfere",
                    )
    for path_id, spacing in schedule.path_periods.items():
        counts = phase_counts[path_id]
        expected_count = schedule.activation_counts[path_id]
        for phase in range(1, spacing + 1):
            got = counts.get(phase, 0)
            if got != expected_count:
                problem(
                    "ergodicity_ok",
                    f"path {path_id} phase {phase} fires {got} times per "
                    f"cycle, expected {expected_count}",
                )
        stray = sorted(set(counts) - set(range(1, spacing + 1)))
        if stray:
            problem(
                "ergodicity_ok",
                f"path {path_id} fires phases {stray} outside 1..{spacing}",
            )
    return report


def _audit_or_raise(pair: PathPair, schedule: Schedule) -> None:
    report = audit_schedule(pair, schedule)
    if not report.ok:
        raise ConsistencyError(
            "constructed schedule failed its own validity audit: "
            + "; ".join(report.problems[:4])
        )
