"""Shared builders for the test suite.

Everything here constructs scenarios from first principles (explicit
coordinates or explicit relation matrices) so tests do not lean on the
code they are checking any more than necessary.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from beatsched.errors import DomainError
from beatsched.model import (
    GeometricTopology,
    InterferenceRelation,
    NodeRef,
    PathPair,
    PrimaryPath,
    _bits,
    _derive_pair,
)
from beatsched.periods import _check_phase
from beatsched.scheduler import AuditReport, Schedule, SubsetActivation

# A joint concurrency matrix with no stall-free single-buffer schedule at
# three and two traversals; the queueing relay keeps it at full rate with
# buffer depth two. Frozen from an exhaustive search over period-6
# arrangements of its tiled matching.
OBSTRUCTION_C = [[1, 0, 1], [1, 1, 0]]


def line_pair(
    n: int, gap: float = 1.0, radius: float = 1.0, half_duplex: bool = True
) -> PathPair:
    """Single chain of n senders on a straight line with uniform gaps."""
    path = PrimaryPath(id=1, n_senders=n)
    positions = {(1, seq): (gap * (seq - 1), 0.0) for seq in range(1, n + 2)}
    topology = GeometricTopology(
        positions, interference_radius=radius, half_duplex=half_duplex
    )
    return _derive_pair(topology, path)


def two_line_pair(
    n1: int,
    n2: int,
    dy: float,
    gap: float = 1.0,
    radius: float = 1.0,
) -> PathPair:
    """Two parallel chains, the second offset vertically by dy."""
    path1 = PrimaryPath(id=1, n_senders=n1)
    path2 = PrimaryPath(id=2, n_senders=n2)
    positions: dict[tuple[int, int], tuple[float, float]] = {}
    for seq in range(1, n1 + 2):
        positions[(1, seq)] = (gap * (seq - 1), 0.0)
    for seq in range(1, n2 + 2):
        positions[(2, seq)] = (gap * (seq - 1), dy)
    topology = GeometricTopology(positions, interference_radius=radius)
    return _derive_pair(topology, path1, path2)


def relation_pair(n1: int, n2: int, interfering: list[tuple[str, str]]) -> PathPair:
    """Pair over an explicit relation; nodes named like "1.3" (path.seq)."""

    def ref(name: str) -> NodeRef:
        pid, seq = name.split(".")
        return NodeRef(int(pid), int(seq))

    relation = InterferenceRelation([(ref(a), ref(b)) for a, b in interfering])
    return PathPair(
        path1=PrimaryPath(id=1, n_senders=n1),
        path2=PrimaryPath(id=2, n_senders=n2) if n2 else None,
        relation=relation,
    )


def n(path_id: int, seq: int) -> NodeRef:
    return NodeRef(path_id, seq)


def maximal_cliques(adj: Mapping[int, int], members: int) -> Iterator[int]:
    """Yield all maximal cliques as masks (Bron-Kerbosch with pivoting), deterministically.

    The reference oracle for analysis._best_clique, kept from the enumerator
    that search replaced. The search runs over an explicit stack, so a clique
    may be longer than the interpreter's recursion limit. A frame is
    [clique, candidates, excluded, branches left]; the branches are the
    candidates outside the pivot's neighbourhood, tried in ascending order.
    """

    def branches(candidates: int, excluded: int) -> int:
        pivot = max(_bits(candidates | excluded), key=lambda u: (candidates & adj[u]).bit_count())
        return candidates & ~adj[pivot]

    if not members:
        yield 0
        return
    stack = [[0, members, 0, branches(members, 0)]]
    while stack:
        frame = stack[-1]
        clique, candidates, excluded, left = frame
        if not left:
            stack.pop()
            continue
        low = left & -left
        v = low.bit_length() - 1
        frame[1:] = candidates & ~low, excluded | low, left ^ low
        inner, outer = candidates & adj[v], excluded & adj[v]
        if inner:
            stack.append([clique | low, inner, outer, branches(inner, outer)])
        elif not outer:
            yield clique | low


def reference_best_clique(adj: Mapping[int, int], members: int) -> int:
    """Maximum clique; ties go to the lexicographically smallest member tuple.
    Enumerates every maximal clique and keeps the best."""
    best = 0
    for clique in maximal_cliques(adj, members):
        size, best_size = clique.bit_count(), best.bit_count()
        # between equal-sized sets, the smaller tuple owns the lowest differing index
        differ = clique ^ best
        if size > best_size or (size == best_size and differ & -differ & clique):
            best = clique
    return best


def reference_violations(rows: list[list[int]], elements: Iterable[tuple[int, int]]) -> list[str]:
    """The support-set conditions checked cell by cell on a list-of-lists
    matrix: the reference for matching's checks on row masks."""
    n, o = len(rows), len(rows[0]) if rows else 0
    chosen = sorted(set((int(r), int(c)) for r, c in elements))
    for r, c in chosen:
        if not (1 <= r <= n and 1 <= c <= o):
            raise DomainError(f"element ({r}, {c}) outside a {n}x{o} matrix")
    violations = []
    for r, c in chosen:
        if rows[r - 1][c - 1] != 1:
            violations.append(f"condition 1: element ({r}, {c}) is not a 1-entry")
    used_rows = set()
    used_cols = set()
    for r, c in chosen:
        if r in used_rows:
            violations.append(f"condition 3: row {r} used by more than one element")
        if c in used_cols:
            violations.append(f"condition 3: column {c} used by more than one element")
        used_rows.add(r)
        used_cols.add(c)
    for i in range(n):
        for j in range(o):
            if rows[i][j] == 1 and (i + 1) not in used_rows and (j + 1) not in used_cols:
                violations.append(
                    f"condition 2: 1-entry ({i + 1}, {j + 1}) shares no row or column "
                    "with any element"
                )
    return violations


def reference_audit(pair: PathPair, schedule: Schedule) -> AuditReport:
    """The validity audit as one loop that checks every activation of every
    beat on its own, caching nothing between activations: the reference
    for `scheduler.audit_schedule`.

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
            # only the spacing is checked here; a phase outside 1..spacing
            # is reported with the phase counts
            _check_phase(path, 1, spacing)
            if type(act.phase) is not int or [m for m in act.members if type(m) is not int]:
                raise DomainError(
                    f"beat {index} path {act.path_id}: phase and members must be ints, "
                    f"got phase {act.phase!r} and members {act.members!r}"
                )
            n = path.n_senders
            expected = tuple(range(act.phase, n + 1, spacing))
            matches = act.members == expected
            if not matches:
                problem(
                    "uniqueness_ok",
                    f"beat {index} path {act.path_id} phase {act.phase} "
                    f"members {act.members} do not match the phase subset",
                )
            counts = phase_counts[act.path_id]
            counts[act.phase] = counts.get(act.phase, 0) + 1
            # a phase subset from phase 1 on names senders only; a member
            # below 1 names none, so it stays out of the union test
            if (not matches or act.phase < 1) and min(act.members, default=1) < 1:
                problem(
                    "uniqueness_ok",
                    f"beat {index} path {act.path_id} phase {act.phase} "
                    f"has member {min(act.members)} below 1",
                )
                continue
            counted.append(act)
        union = 0
        for act in counted:
            union |= pair.seq_mask(act.path_id, act.members)
        if pair.is_concurrent_mask(union):
            continue
        # list every interfering pair, in activation and member order; a
        # position past a chain's end names no sender, so its mask is 0
        members = [(node, pair.seq_mask(node.path_id, (node.seq,))) for act in counted for node in act.nodes()]
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
