"""Interference structure analysis over a set of sending nodes.

Two quantities drive everything downstream: the interference intensity
(largest set of pairwise-interfering senders, i.e. a maximum clique of the
interference graph) and the concurrency intensity (largest set of senders
that can share one beat, i.e. a maximum independent set). Both are computed
exactly; instances here are desk scale, a couple dozen nodes at most.

The graphs are built on the pair's dense sender index: a node set is an
integer mask, and a member's neighbours are its conflict mask cut down to
the set. Node references appear only in the returned values.

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
    return pair.mask_of(pair.nodes if nodes is None else nodes)


def _interference_adjacency(conflicts: Sequence[int], members: int) -> dict[int, int]:
    """Each member's interfering partners inside the set, from the conflict
    masks of every index."""
    return {i: conflicts[i] & members for i in _bits(members)}


def _complement(adj: Mapping[int, int], members: int) -> dict[int, int]:
    return {i: members & ~(neighbours | 1 << i) for i, neighbours in adj.items()}


def _max_degree(adj: Mapping[int, int]) -> int:
    return max(neighbours.bit_count() for neighbours in adj.values())


def _best_clique(adj: Mapping[int, int], members: int) -> int:
    """Maximum clique; ties go to the lexicographically smallest member tuple.

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
        stack.append((clique | low, size + 1, candidates & adj[low.bit_length() - 1]))
    return best


def _interference_witness(conflicts: Sequence[int], members: int) -> int:
    """interference_intensity's witness as a mask, on conflict masks alone,
    for callers that hold masks but no PathPair."""
    return _best_clique(_interference_adjacency(conflicts, members), members)


def _kept_witness(pair: PathPair, members: int, adj: Mapping[int, int] | None = None) -> int:
    """interference_intensity's witness over `members`, kept on the pair;
    `adj` is the members' interference adjacency when the caller has it."""
    key = ("witness", members)
    witness = pair._memo.get(key)
    if witness is None:
        witness = _interference_witness(pair._conflicts, members) if adj is None else _best_clique(adj, members)
        pair._memo[key] = witness
    return witness


def interference_intensity(pair: PathPair, nodes: Iterable[NodeRef] | None = None) -> tuple[int, tuple[NodeRef, ...]]:
    """Size of a maximum set of pairwise-interfering senders, with a witness.

    1 with a singleton witness when no pair in the set interferes.
    """
    witness = pair.nodes_of(_kept_witness(pair, _members(pair, nodes)))
    return len(witness), witness


def concurrency_intensity(pair: PathPair, nodes: Iterable[NodeRef] | None = None) -> tuple[int, tuple[NodeRef, ...]]:
    """Size of a maximum concurrency subset (independent set of the
    interference graph), with a witness; 1 when every pair interferes."""
    members = _members(pair, nodes)
    adj = _complement(_interference_adjacency(pair._conflicts, members), members)
    witness = pair.nodes_of(_best_clique(adj, members))
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
    adj = _interference_adjacency(pair._conflicts, _members(pair, nodes))
    senders = pair.nodes
    interference = {senders[i]: neighbours.bit_count() for i, neighbours in adj.items()}
    concurrency = {node: len(adj) - 1 - count for node, count in interference.items()}
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
    adj = _interference_adjacency(pair._conflicts, members)
    return _max_degree(adj) < _kept_witness(pair, members, adj).bit_count()


def split_dominant(pair: PathPair, nodes: Iterable[NodeRef] | None = None) -> list[tuple[NodeRef, ...]]:
    """Partition a dominant set into exactly `interference intensity` disjoint
    concurrency subsets.

    Construction: seed one group per member of the maximum interference
    witness, then place every remaining node (ascending) into the first group
    it does not conflict with. Dominance guarantees a group always accepts:
    a node interferes with fewer members than there are groups.
    """
    members = _members(pair, nodes)
    adj = _interference_adjacency(pair._conflicts, members)
    witness = _kept_witness(pair, members, adj)
    istar, degree = witness.bit_count(), _max_degree(adj)
    if degree >= istar:
        raise DomainError(
            f"set is not dominant: max interference degree {degree} >= intensity {istar}"
        )
    groups = [1 << seed for seed in _bits(witness)]
    for i in _bits(members & ~witness):
        for k, group in enumerate(groups):
            if not adj[i] & group:
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
    adj = _interference_adjacency(pair._conflicts, members)
    iwit = pair.nodes_of(_kept_witness(pair, members, adj))
    cwit = pair.nodes_of(_best_clique(_complement(adj, members), members))
    degree = _max_degree(adj)
    return IntensityReport(
        n_nodes=members.bit_count(),
        interference_intensity=len(iwit),
        interference_witness=iwit,
        concurrency_intensity=len(cwit),
        concurrency_witness=cwit,
        intrinsic_interference_degree=degree,
        intrinsic_concurrency_degree=len(adj) - 1 - min(neighbours.bit_count() for neighbours in adj.values()),
        dominant=degree < len(iwit),
    )
