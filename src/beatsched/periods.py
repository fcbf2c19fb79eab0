"""Periodic activation structure of a chain.

With spacing T, phase theta (1 <= theta <= T) names the subset of senders
{theta, theta+T, theta+2T, ...}. A spacing is reachable when every one of its
phase subsets is a concurrency subset, so the chain can cycle through the T
phases beat by beat without internal interference. The smallest reachable
spacing is the chain's intrinsic period; under the chain monotonicity rules it
always equals the interference intensity, and the scan asserts that.

For two chains, the joint concurrency matrix records which phase subsets of
path 1 can share a beat with which phase subsets of path 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .analysis import _kept_witness
from .errors import ConsistencyError, DomainError
from .model import NodeRef, PathPair, PrimaryPath, _check_counts, _row_masks, _union, validate_path_rules

__all__ = [
    "ConcurrencyMatrix",
    "subset_members",
    "is_reachable_period",
    "intrinsic_period",
    "build_matrix",
    "continuation",
]


def _check_phase(path: PrimaryPath, phase: int, spacing: int) -> None:
    if type(spacing) is not int or not 1 <= spacing <= path.n_senders:
        raise DomainError(f"spacing must be in 1..{path.n_senders}, got {spacing!r}")
    if type(phase) is not int or not 1 <= phase <= spacing:
        raise DomainError(f"phase must be in 1..{spacing}, got {phase!r}")


def subset_members(path: PrimaryPath, phase: int, spacing: int) -> tuple[NodeRef, ...]:
    """Senders phase, phase+spacing, ... up to the end of the chain."""
    _check_phase(path, phase, spacing)
    return tuple(NodeRef(path.id, j) for j in range(phase, path.n_senders + 1, spacing))


def _local_phases(n_senders: int, spacing: int) -> list[int]:
    """Masks of the phase subsets 1..spacing of a chain of n_senders, bit
    k standing for sender k+1."""
    chain = (1 << n_senders) - 1
    # phase 1 sets every spacing-th bit: a repunit in base 2**spacing
    first = ((1 << spacing * -(-n_senders // spacing)) - 1) // ((1 << spacing) - 1)
    # phase p's subset is phase 1's moved p-1 senders downstream
    return [(first << shift) & chain for shift in range(spacing)]


def _phases(pair: PathPair, path_id: int, spacing: int) -> tuple[tuple[int, ...], int | None]:
    """Dense masks of the phase subsets 1..spacing of a path, and the
    1-based position of the first that is no concurrency subset, or None;
    kept on the pair."""
    path = pair.path(path_id)
    _check_phase(path, 1, spacing)
    key = ("phases", path.id, spacing)
    found = pair._memo.get(key)
    if found is None:
        offset = pair.offset(path.id)
        masks = tuple([mask << offset for mask in _local_phases(path.n_senders, spacing)])
        found = pair._memo[key] = masks, _first_bad(pair._conflicts, masks)
    return found


def _first_bad(conflicts: Sequence[int], masks: Sequence[int]) -> int | None:
    """1-based position of the first mask that is not a concurrency subset
    under these conflict masks, or None."""
    for position, mask in enumerate(masks, start=1):
        if _union(conflicts, mask) & mask:
            return position
    return None


def is_reachable_period(pair: PathPair, path_id: int, spacing: int) -> bool:
    """True when every phase subset at this spacing is a concurrency subset."""
    return _phases(pair, path_id, spacing)[1] is None


def intrinsic_period(pair: PathPair, path_id: int) -> int:
    """Smallest reachable spacing, found by ascending scan.

    The scan always terminates: at spacing n_senders every phase subset is a
    singleton. When the chain satisfies the monotonicity rules the result must
    equal the chain's interference intensity; a mismatch is an internal error.
    """
    path = pair.path(path_id)
    tstar = None
    for spacing in range(1, path.n_senders + 1):
        if is_reachable_period(pair, path_id, spacing):
            tstar = spacing
            break
    assert tstar is not None
    if validate_path_rules(pair, path_id).ok:
        members = ((1 << path.n_senders) - 1) << pair.offset(path_id)
        istar = _kept_witness(pair, members).bit_count()
        if tstar != istar:
            raise ConsistencyError(
                f"period scan found {tstar} but interference intensity is {istar} "
                f"on path {path_id}, which satisfies the monotonicity rules"
            )
    return tstar


@dataclass(frozen=True)
class ConcurrencyMatrix:
    """Joint concurrency of phase subsets: rows are path-1 phases at spacing
    t1, columns path-2 phases at spacing t2, entry 1 iff the union of the two
    subsets is a concurrency subset."""

    t1: int
    t2: int
    rows: tuple[tuple[int, ...], ...]

    def entry(self, phase1: int, phase2: int) -> int:
        if type(phase1) is not int or type(phase2) is not int:
            raise DomainError(f"phases must be ints, got ({phase1!r}, {phase2!r})")
        if not (1 <= phase1 <= self.t1 and 1 <= phase2 <= self.t2):
            raise DomainError(f"phase ({phase1}, {phase2}) outside {self.t1}x{self.t2} matrix")
        return self.rows[phase1 - 1][phase2 - 1]

    def as_lists(self) -> list[list[int]]:
        return [list(r) for r in self.rows]


def build_matrix(pair: PathPair, t1: int, t2: int) -> ConcurrencyMatrix:
    """Joint concurrency matrix for spacings (t1, t2); both must be reachable."""
    pair.require_pair()
    masks = []
    for path_id, spacing in ((1, t1), (2, t2)):
        path_masks, bad = _phases(pair, path_id, spacing)
        if bad is not None:
            raise DomainError(
                f"spacing {spacing} is not reachable on path {path_id}: "
                f"phase {bad} subset is not a concurrency subset"
            )
        masks.append(path_masks)
    key = ("matrix", t1, t2)
    matrix = pair._memo.get(key)
    if matrix is None:
        rows = _joint_rows([pair.conflicts_of(mask1) for mask1 in masks[0]], masks[1])
        matrix = pair._memo[key] = ConcurrencyMatrix(t1, t2, _unpack(rows, t2))
    return matrix


def _unpack(ones: Sequence[int], width: int) -> tuple[tuple[int, ...], ...]:
    """Row masks as rows of 0/1 entries over `width` columns."""
    return tuple([tuple([row >> j & 1 for j in range(width)]) for row in ones])


def _joint_rows(conflicts1: Sequence[int], masks2: Sequence[int]) -> tuple[int, ...]:
    """Joint matrix rows as column masks, from the conflict masks of path 1's
    phase subsets and the masks of path 2's: bit j of row i is set iff
    conflicts1[i] misses masks2[j].

    Each phase subset of a reachable spacing is a concurrency subset on its
    own, so a union is one exactly when no path-1 member interferes with a
    path-2 member.
    """
    rows = []
    for conflicts in conflicts1:
        row = 0
        bit = 1
        for mask2 in masks2:
            if not conflicts & mask2:
                row |= bit
            bit <<= 1
        rows.append(row)
    return tuple(rows)


def continuation(matrix: ConcurrencyMatrix | Sequence[Sequence[int]], l1: int, l2: int) -> tuple[tuple[int, ...], ...]:
    """Tile a matrix l2 times horizontally and l1 times vertically.

    Entry (i, j) of the result equals the source entry at (i mod rows,
    j mod cols), 1-based. This is the pattern a schedule sees when path 1
    makes l1 traversals while path 2 makes l2.
    """
    _check_counts(f"traversal counts must be >= 1, got ({l1}, {l2})", l1=l1, l2=l2)
    rows = matrix.rows if isinstance(matrix, ConcurrencyMatrix) else _unpack(*_row_masks(matrix))
    if not rows or not rows[0]:
        raise DomainError("cannot tile an empty matrix")
    return tuple(row * l2 for row in rows) * l1
