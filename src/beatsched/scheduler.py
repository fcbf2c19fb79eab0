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
from .model import NodeRef, PathPair, _check_counts
from .periods import _check_phase, build_matrix, continuation, intrinsic_period, is_reachable_period

CATEGORY_JOINT = "joint"
CATEGORY_PATH1 = "path1-only"
CATEGORY_PATH2 = "path2-only"


@dataclass(frozen=True)
class SubsetActivation:
    """One equally spaced phase subset switched on for one beat. Members
    given as another iterable are kept as a tuple. The path id, spacing,
    phase and every member must be ints, not bools; whether they name a
    valid phase subset is for `audit_schedule` to report."""

    path_id: int
    spacing: int
    phase: int
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        _freeze(self, "members")
        for name in ("path_id", "spacing"):
            if type(getattr(self, name)) is not int:
                raise DomainError(f"activation {name} must be an int, got {getattr(self, name)!r}")
        if type(self.phase) is not int or [m for m in self.members if type(m) is not int]:
            raise DomainError(
                f"path {self.path_id}: phase and members must be ints, "
                f"got phase {self.phase!r} and members {self.members!r}"
            )

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
    """All activations of a single beat, tagged by category. Activations
    given as another iterable are kept as a tuple."""

    category: str
    activations: tuple[SubsetActivation, ...]

    def __post_init__(self) -> None:
        _freeze(self, "activations")

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
    activation_counts maps the same path ids to how many times each phase
    fires per cycle. The period, every spacing and every count is an int
    >= 1, and period == len(beats) always; a schedule is checked for both
    when it is built. Beats given as another iterable are kept as a tuple,
    and both mappings are kept as read-only copies, so a schedule, its
    beats and their activations cannot change after it is built. A
    schedule is a plain value and keeps nothing else: a pair it runs on
    keeps the compiled beats (see `simulator._compile_slot`).
    """

    period: int
    beats: tuple[Beat, ...]
    path_periods: Mapping[int, int]
    activation_counts: Mapping[int, int]
    kind: str

    def __post_init__(self) -> None:
        _freeze(self, "beats")
        _check_counts(f"schedule field period must be >= 1, got {self.period}", period=self.period)
        if self.period != len(self.beats):
            raise ConsistencyError(
                f"schedule period {self.period} disagrees with "
                f"{len(self.beats)} beats"
            )
        if self.path_periods.keys() != self.activation_counts.keys():
            raise DomainError(
                f"schedule path_periods has paths {list(self.path_periods)} "
                f"but activation_counts has {list(self.activation_counts)}"
            )
        for name in ("path_periods", "activation_counts"):
            for path_id, count in getattr(self, name).items():
                field_name = f"{name}[{path_id!r}]"
                _check_counts(f"schedule field {field_name} must be >= 1, got {count}", **{field_name: count})
            object.__setattr__(self, name, _ReadOnlyDict(getattr(self, name)))

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


class _ReadOnlyDict(dict):
    """A dict that refuses every change once built; it prints, compares
    and iterates as the dict it copies."""

    def __setitem__(self, *args, **kwargs):
        raise TypeError("a schedule's mappings cannot change")

    __delitem__ = __ior__ = update = pop = popitem = clear = setdefault = __setitem__

    def __reduce__(self):
        # copy and deepcopy would otherwise refill the copy item by item
        return type(self), (dict(self),)


def _freeze(record, name: str) -> None:
    """Store the frozen dataclass field `name` as a tuple, copying it only
    when it is something else."""
    value = getattr(record, name)
    if type(value) is not tuple:
        object.__setattr__(record, name, tuple(value))


def schedule_from_dict(data: dict) -> Schedule:
    """Rebuild a schedule from its to_dict form.

    Every number must be an int, not a bool; mapping keys may also be the
    decimal strings to_dict writes. A field that is missing or of the wrong
    kind raises DomainError naming it."""
    if not isinstance(data, dict):
        raise DomainError(f"a schedule must be a dict, got {type(data).__name__}")
    beats = []
    for i, beat in enumerate(_entry(data, "beats", kind=list)):
        where = f"beats[{i}]"
        _typed(beat, dict, where)
        acts = []
        for j, a in enumerate(_entry(beat, "activations", where, list)):
            name = f"{where}.activations[{j}]"
            _typed(a, dict, name)
            acts.append(SubsetActivation(
                path_id=_entry(a, "path", name),
                spacing=_entry(a, "spacing", name),
                phase=_entry(a, "phase", name),
                members=tuple(
                    _int_field(m, f"{name}.members[{k}]") for k, m in enumerate(_entry(a, "members", name, list))
                ),
            ))
        beats.append(Beat(category=_entry(beat, "category", where, str), activations=tuple(acts)))
    counts = {
        name: {
            _int_field(k, f"{name} key", keys=True): _int_field(v, f"{name}[{k!r}]")
            for k, v in _entry(data, name, kind=dict).items()
        }
        for name in ("path_periods", "activation_counts")
    }
    return Schedule(period=_entry(data, "period"), beats=tuple(beats), **counts, kind=_entry(data, "kind", kind=str))


def _entry(data: dict, key: str, where: str = "", kind: type = int):
    """data[key], the field `where.key`, which must be present and of `kind`."""
    name = f"{where}.{key}" if where else key
    if key not in data:
        raise DomainError(f"schedule field {name} is missing")
    return _int_field(data[key], name) if kind is int else _typed(data[key], kind, name)


def _typed(value, kind: type, name: str):
    if not isinstance(value, kind):
        raise DomainError(f"schedule field {name} must be a {kind.__name__}, got {value!r}")
    return value


def _int_field(value, name: str, keys: bool = False) -> int:
    """value if it is an int (a bool is not), or with `keys` also an int's
    decimal string as to_dict writes it."""
    if keys and isinstance(value, str) and value.removeprefix("-").isdecimal() and str(int(value)) == value:
        return int(value)
    if type(value) is not int:
        raise DomainError(f"schedule field {name} must be an int, got {value!r}")
    return value


def _phase_activations(pair: PathPair, path_id: int, spacing: int) -> tuple[SubsetActivation, ...]:
    """The activations of phases 1..spacing of a path; phase k at index k-1.
    They are kept on the pair, so every schedule of a pair shares them."""
    path = pair.path(path_id)
    _check_phase(path, 1, spacing)
    if type(path_id) is not int:
        # True and 1.0 would find path 1's kept activations; the activation's own text
        raise DomainError(f"activation path_id must be an int, got {path_id!r}")
    key = ("activations", path_id, spacing)
    acts = pair._memo.get(key)
    if acts is None:
        acts = pair._memo[key] = tuple([
            SubsetActivation(path_id, spacing, phase, tuple(range(phase, path.n_senders + 1, spacing)))
            for phase in range(1, spacing + 1)
        ])
    return acts


def _audited(pair: PathPair, schedule: Schedule) -> Schedule:
    """The schedule, once it passes its own validity audit."""
    report = audit_schedule(pair, schedule)
    if not report.ok:
        raise ConsistencyError(
            "constructed schedule failed its own validity audit: "
            + "; ".join(report.problems[:4])
        )
    return schedule


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
    category = CATEGORY_PATH1 if path_id == 1 else CATEGORY_PATH2
    beats = tuple(Beat(category, (act,)) for act in _phase_activations(pair, path_id, period))
    return _audited(pair, Schedule(
        period=period,
        beats=beats,
        path_periods={path_id: period},
        activation_counts={path_id: 1},
        kind="primary",
    ))


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
    acts1 = _phase_activations(pair, 1, period1)
    acts2 = _phase_activations(pair, 2, period2)
    beats = [
        Beat(CATEGORY_JOINT, (acts1[(i - 1) % period1], acts2[(j - 1) % period2]))
        for i, j in support
    ]
    for category, acts, count, matched in (
        (CATEGORY_PATH1, acts1, l1, {i for i, _ in support}),
        (CATEGORY_PATH2, acts2, l2, {j for _, j in support}),
    ):
        beats += [
            Beat(category, (acts[(index - 1) % len(acts)],))
            for index in range(1, count * len(acts) + 1)
            if index not in matched
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
    _check_counts(f"traversal count must be >= 1, got {traversals}", traversals=traversals)
    traversal, support_size = _pair_cycle(pair, period1, period2, 1, 1)
    return _audited(pair, Schedule(
        period=traversals * (period1 + period2 - support_size),
        beats=traversal * traversals,
        path_periods={1: period1, 2: period2},
        activation_counts={1: traversals, 2: traversals},
        kind="pair-equal",
    ))


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
    _check_counts(
        f"traversal counts must be >= 1, got {traversals1} and {traversals2}",
        traversals1=traversals1,
        traversals2=traversals2,
    )
    beats, support_size = _pair_cycle(pair, period1, period2, traversals1, traversals2)
    return _audited(pair, Schedule(
        period=traversals1 * period1 + traversals2 * period2 - support_size,
        beats=beats,
        path_periods={1: period1, 2: period2},
        activation_counts={1: traversals1, 2: traversals2},
        kind="pair-unequal",
    ))


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
    # each path's phase subsets by phase, as (members, mask, conflicts),
    # built at the path's first activation of its declared spacing
    subsets: dict[int, dict[int, tuple[tuple[int, ...], int, int]]] = {}
    for index, beat in enumerate(schedule.beats, start=1):
        if not beat.activations:
            problem("non_empty_ok", f"beat {index} activates nothing")
            continue
        seen_paths: set[int] = set()
        counted: list[SubsetActivation] = []
        union = conflicts = 0
        for act in beat.activations:
            if act.path_id in seen_paths:
                problem(
                    "uniqueness_ok",
                    f"beat {index} activates path {act.path_id} twice",
                )
            seen_paths.add(act.path_id)
            spacing = schedule.path_periods.get(act.path_id)
            if spacing is None or act.spacing != spacing:
                text = f"uses spacing {act.spacing} on path {act.path_id}, schedule declares {spacing}"
                problem("uniqueness_ok", f"beat {index} {text}")
                continue
            phases = subsets.get(act.path_id)
            if phases is None:
                # only the spacing is checked here; a phase outside 1..spacing
                # is reported with the phase counts
                path = pair.path(act.path_id)
                _check_phase(path, 1, spacing)
                phases = subsets[act.path_id] = {}
                for phase in range(1, spacing + 1):
                    seqs = tuple(range(phase, path.n_senders + 1, spacing))
                    mask = pair.seq_mask(act.path_id, seqs)
                    phases[phase] = seqs, mask, pair.conflicts_of(mask)
            counts = phase_counts[act.path_id]
            counts[act.phase] = counts.get(act.phase, 0) + 1
            subset = phases.get(act.phase)
            if subset is not None and subset[0] == act.members:
                _, mask, reach = subset
            else:
                where = f"beat {index} path {act.path_id} phase {act.phase}"
                matches = act.members == tuple(range(act.phase, pair.path(act.path_id).n_senders + 1, spacing))
                if not matches:
                    problem("uniqueness_ok", f"{where} members {act.members} do not match the phase subset")
                # a phase subset from phase 1 on names senders only; a member
                # below 1 names none, so it stays out of the union test
                if (not matches or act.phase < 1) and min(act.members, default=1) < 1:
                    problem("uniqueness_ok", f"{where} has member {min(act.members)} below 1")
                    continue
                mask = pair.seq_mask(act.path_id, act.members)
                reach = pair.conflicts_of(mask)
            counted.append(act)
            union |= mask
            conflicts |= reach
        # the union is a concurrency subset when no member's conflicts meet it
        if not conflicts & union:
            continue
        # list every interfering pair of the union, in activation and member
        # order; a position past a chain's end names no sender, so its mask is 0
        members = [
            (node, pair.seq_mask(node.path_id, (node.seq,)))
            for act in counted for node in act.nodes()
        ]
        for a_pos, (a, bit) in enumerate(members):
            reach = pair.conflicts_of(bit)
            for b, other in members[a_pos + 1:]:
                if reach & other:
                    problem("concurrency_ok", f"beat {index}: {a} and {b} interfere")
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

