"""Interference structure analysis over a set of sending nodes.

Two quantities drive everything downstream: the interference intensity
(largest set of pairwise-interfering senders, i.e. a maximum clique of the
interference graph) and the concurrency intensity (largest set of senders
that can share one beat, i.e. a maximum independent set). Both come exactly
from one branch-and-bound search, exponential in the worst case. The clique
search is linear on banded chains (the tests run it at 3,000 and 6,000
senders); the independent-set search on a chain still is not.

Everything works on the pair's dense sender index: a node set is an integer
mask, and the search reads each sender's neighbour mask by index, from the
pair's conflict masks or from their complements, with no adjacency built per
call. Node references appear only in the returned values.

Witnesses are deterministic: among all maximum sets the lexicographically
smallest by (path_id, seq) is returned, which is ascending dense-index order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import ConsistencyError, DomainError
from .model import NodeRef, PathPair, _bits, validate_path_rules

__all__ = [
    "DegreeReport",
    "IntensityReport",
    "interference_intensity",
    "concurrency_intensity",
    "connection_degrees",
    "is_dominant",
    "split_dominant",
    "check_continuity",
    "analyze",
]


def _members(pair: PathPair, nodes: Iterable[NodeRef] | None) -> int:
    return (1 << pair.total_senders) - 1 if nodes is None else pair.mask_of(nodes)


def _degrees(conflicts: Sequence[int], members: int) -> list[int]:
    """Each member's count of interfering partners inside the set, in
    ascending member order."""
    return [(conflicts[i] & members).bit_count() for i in _bits(members)]


def _best_clique(neighbours: Sequence[int], members: int) -> int:
    """Maximum clique among `members`; ties go to the lexicographically
    smallest member tuple.

    `neighbours[i]` is sender i's neighbour mask over the whole index and
    may reach outside `members`: the candidates never do, so
    `candidates & neighbours[i]` is the neighbourhood inside the set. The
    conflict masks give the interference graph, and their complements
    `~(conflicts[i] | 1 << i)` give the concurrency graph.

    Depth-first branch and bound (Carraghan & Pardalos 1990) over an explicit
    stack of (clique, size, candidates), so a clique may be longer than the
    interpreter's recursion limit. Each frame branches on its lowest
    candidate, and "include it" runs before "exclude it". A frame whose
    candidates cannot lift it above the best size found is dropped, and a
    frame with no candidates left is a new best.

    Cliques are met in lexicographic order. Take two cliques and let d be the
    lowest index in one of them only. Both search paths agree below d, d is
    adjacent to every member chosen before it, so it is a candidate there,
    and its include branch runs first. The smallest maximum clique is
    therefore met before every other maximum clique and is never pruned.
    """
    best, best_size = 0, 0
    stack = [(0, 0, members)]
    while stack:
        clique, size, candidates = stack.pop()
        if size + candidates.bit_count() <= best_size:
            continue
        if not candidates:
            best, best_size = clique, size
            continue
        low = candidates & -candidates
        stack.append((clique, size, candidates ^ low))
        stack.append((clique | low, size + 1, candidates & neighbours[low.bit_length() - 1]))
    return best


def _kept_witness(pair: PathPair, members: int) -> int:
    """interference_intensity's witness over `members`, kept on the pair."""
    key = ("witness", members)
    witness = pair._memo.get(key)
    if witness is None:
        witness = pair._memo[key] = _best_clique(pair._conflicts, members)
    return witness


def _concurrency_witness(conflicts: Sequence[int], members: int) -> int:
    """concurrency_intensity's witness: a maximum clique of the complement."""
    return _best_clique([~(row | 1 << i) for i, row in enumerate(conflicts)], members)


def interference_intensity(pair: PathPair, nodes: Iterable[NodeRef] | None = None) -> tuple[int, tuple[NodeRef, ...]]:
    """Size of a maximum set of pairwise-interfering senders, with a witness.

    1 with a singleton witness when no pair in the set interferes.
    """
    witness = pair.nodes_of(_kept_witness(pair, _members(pair, nodes)))
    return len(witness), witness


def concurrency_intensity(pair: PathPair, nodes: Iterable[NodeRef] | None = None) -> tuple[int, tuple[NodeRef, ...]]:
    """Size of a maximum concurrency subset (independent set of the
    interference graph), with a witness; 1 when every pair interferes."""
    witness = pair.nodes_of(_concurrency_witness(pair._conflicts, _members(pair, nodes)))
    return len(witness), witness


@dataclass(frozen=True)
class DegreeReport:
    """Per-node partner counts within one node set, and their maxima."""

    concurrency: Mapping[NodeRef, int]
    interference: Mapping[NodeRef, int]
    intrinsic_concurrency_degree: int
    intrinsic_interference_degree: int


def connection_degrees(pair: PathPair, nodes: Iterable[NodeRef] | None = None) -> DegreeReport:
    """Count, for each member, its concurrent and interfering partners inside
    the set (the node itself excluded). The intrinsic degrees are the maxima."""
    members = _members(pair, nodes)
    interference = dict(zip(pair.nodes_of(members), _degrees(pair._conflicts, members)))
    concurrency = {node: len(interference) - 1 - count for node, count in interference.items()}
    return DegreeReport(
        concurrency=concurrency,
        interference=interference,
        intrinsic_concurrency_degree=max(concurrency.values()),
        intrinsic_interference_degree=max(interference.values()),
    )


def is_dominant(pair: PathPair, nodes: Iterable[NodeRef] | None = None) -> bool:
    """A set is dominant when its worst interference degree is still below the
    interference intensity; dominant sets split cleanly (see split_dominant)."""
    members = _members(pair, nodes)
    return max(_degrees(pair._conflicts, members)) < _kept_witness(pair, members).bit_count()


def split_dominant(pair: PathPair, nodes: Iterable[NodeRef] | None = None) -> list[tuple[NodeRef, ...]]:
    """Partition a dominant set into exactly `interference intensity` disjoint
    concurrency subsets.

    Construction: seed one group per member of the maximum interference
    witness, then place every remaining node (ascending) into the first group
    it does not conflict with. Dominance guarantees a group always accepts:
    a node interferes with fewer members than there are groups.
    """
    members = _members(pair, nodes)
    conflicts = pair._conflicts
    witness = _kept_witness(pair, members)
    istar, degree = witness.bit_count(), max(_degrees(conflicts, members))
    if degree >= istar:
        raise DomainError(
            f"set is not dominant: max interference degree {degree} >= intensity {istar}"
        )
    groups = [1 << seed for seed in _bits(witness)]
    for i in _bits(members & ~witness):
        for k, group in enumerate(groups):
            if not conflicts[i] & group:
                groups[k] |= 1 << i
                break
        else:
            raise ConsistencyError(f"dominant set split failed to place {pair.nodes[i]}")
    return [pair.nodes_of(group) for group in groups]


def check_continuity(pair: PathPair, path_id: int) -> bool:
    """True when every maximum interference set of the chain occupies
    consecutive positions, which the chain monotonicity rules guarantee; a
    chain that breaks the rules raises DomainError.

    Lemma: under the rules, a sender's interfering partners on its chain,
    together with the sender itself, are one run of consecutive positions.
    In contrapositive the rules say that if j < k - 1 interfere, then so do
    j and k - 1, and so do j + 1 and k. So an interfering pair j < k forces
    the whole stretch j..k to interfere pairwise, and a maximal clique, which
    holds its lowest and highest members, holds every position between
    them: every maximal clique is a run. The rules check is the whole check.
    """
    if not validate_path_rules(pair, path_id).ok:
        raise DomainError(
            f"path {path_id} violates the chain monotonicity rules; "
            "continuity of maximum interference sets is only meaningful under them"
        )
    return True


@dataclass(frozen=True)
class IntensityReport:
    """Bundle of the intensity and degree quantities for one node set."""

    n_nodes: int
    interference_intensity: int
    interference_witness: tuple[NodeRef, ...]
    concurrency_intensity: int
    concurrency_witness: tuple[NodeRef, ...]
    intrinsic_interference_degree: int
    intrinsic_concurrency_degree: int
    dominant: bool


def analyze(pair: PathPair, nodes: Iterable[NodeRef] | None = None) -> IntensityReport:
    members = _members(pair, nodes)
    iwit = pair.nodes_of(_kept_witness(pair, members))
    cwit = pair.nodes_of(_concurrency_witness(pair._conflicts, members))
    degrees = _degrees(pair._conflicts, members)
    degree = max(degrees)
    return IntensityReport(
        n_nodes=len(degrees),
        interference_intensity=len(iwit),
        interference_witness=iwit,
        concurrency_intensity=len(cwit),
        concurrency_witness=cwit,
        intrinsic_interference_degree=degree,
        intrinsic_concurrency_degree=len(degrees) - 1 - min(degrees),
        dominant=degree < len(iwit),
    )
