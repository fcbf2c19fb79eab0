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

from .analysis import interference_intensity
from .errors import ConsistencyError, DomainError
from .model import NodeRef, PathPair, PrimaryPath, validate_path_rules

__all__ = [
    "ConcurrencyMatrix",
    "subset_members",
    "is_reachable_period",
    "intrinsic_period",
    "build_matrix",
    "continuation",
]


def _check_phase(path: PrimaryPath, phase: int, spacing: int) -> None:
    if not 1 <= spacing <= path.n_senders:
        raise DomainError(f"spacing must be in 1..{path.n_senders}, got {spacing}")
    if not 1 <= phase <= spacing:
        raise DomainError(f"phase must be in 1..{spacing}, got {phase}")


def subset_members(path: PrimaryPath, phase: int, spacing: int) -> tuple[NodeRef, ...]:
    """Senders phase, phase+spacing, ... up to the end of the chain."""
    _check_phase(path, phase, spacing)
    return tuple(NodeRef(path.id, j) for j in range(phase, path.n_senders + 1, spacing))


def _phase_masks(pair: PathPair, path_id: int, spacing: int) -> list[int]:
    """Dense masks of the phase subsets 1..spacing at this spacing."""
    path = pair.path(path_id)
    _check_phase(path, 1, spacing)
    chain = pair.seq_mask(path_id, range(1, path.n_senders + 1))
    first = pair.seq_mask(path_id, range(1, path.n_senders + 1, spacing))
    # phase p's subset is phase 1's moved p-1 senders downstream
    return [(first << shift) & chain for shift in range(spacing)]


def _first_bad_phase(pair: PathPair, path_id: int, spacing: int) -> int | None:
    """First phase whose subset is not a concurrency subset, or None."""
    for phase, mask in enumerate(_phase_masks(pair, path_id, spacing), start=1):
        if not pair.is_concurrent_mask(mask):
            return phase
    return None


def is_reachable_period(pair: PathPair, path_id: int, spacing: int) -> bool:
    """True when every phase subset at this spacing is a concurrency subset."""
    return _first_bad_phase(pair, path_id, spacing) is None


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
        istar, _ = interference_intensity(pair, pair.path_nodes(path_id))
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
        if not (1 <= phase1 <= self.t1 and 1 <= phase2 <= self.t2):
            raise DomainError(f"phase ({phase1}, {phase2}) outside {self.t1}x{self.t2} matrix")
        return self.rows[phase1 - 1][phase2 - 1]

    def as_lists(self) -> list[list[int]]:
        return [list(r) for r in self.rows]


def build_matrix(pair: PathPair, t1: int, t2: int) -> ConcurrencyMatrix:
    """Joint concurrency matrix for spacings (t1, t2); both must be reachable."""
    pair.require_pair()
    for path_id, spacing in ((1, t1), (2, t2)):
        bad = _first_bad_phase(pair, path_id, spacing)
        if bad is not None:
            raise DomainError(
                f"spacing {spacing} is not reachable on path {path_id}: "
                f"phase {bad} subset is not a concurrency subset"
            )
    # Each phase subset is a concurrency subset on its own, so a union is
    # one exactly when no path-1 member interferes with a path-2 member.
    masks2 = _phase_masks(pair, 2, t2)
    rows = []
    for mask1 in _phase_masks(pair, 1, t1):
        reach1 = pair.conflicts_of(mask1)
        rows.append(tuple(0 if reach1 & mask2 else 1 for mask2 in masks2))
    return ConcurrencyMatrix(t1, t2, tuple(rows))


def continuation(matrix: ConcurrencyMatrix | Sequence[Sequence[int]], l1: int, l2: int) -> tuple[tuple[int, ...], ...]:
    """Tile a matrix l2 times horizontally and l1 times vertically.

    Entry (i, j) of the result equals the source entry at (i mod rows,
    j mod cols), 1-based. This is the pattern a schedule sees when path 1
    makes l1 traversals while path 2 makes l2.
    """
    if l1 < 1 or l2 < 1:
        raise DomainError(f"traversal counts must be >= 1, got ({l1}, {l2})")
    rows = matrix.rows if isinstance(matrix, ConcurrencyMatrix) else tuple(tuple(r) for r in matrix)
    if not rows or not rows[0]:
        raise DomainError("cannot tile an empty matrix")
    n, o = len(rows), len(rows[0])
    return tuple(
        tuple(rows[i % n][j % o] for j in range(o * l2))
        for i in range(n * l1)
    )
