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
from typing import Iterable, Iterator, Mapping

from .errors import ConsistencyError, DomainError
from .model import NodeRef, PathPair, validate_path_rules

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


def _bits(mask: int) -> Iterator[int]:
    """Dense indices of a mask's members, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _members(pair: PathPair, nodes: Iterable[NodeRef] | None) -> int:
    return pair.mask_of(pair.nodes if nodes is None else nodes)


def _interference_adjacency(pair: PathPair, members: int) -> dict[int, int]:
    """Each member's interfering partners inside the set, by dense index."""
    return {i: pair.conflicts_of(1 << i) & members for i in _bits(members)}


def _complement(adj: Mapping[int, int], members: int) -> dict[int, int]:
    return {i: members & ~(neighbours | 1 << i) for i, neighbours in adj.items()}


def _max_degree(adj: Mapping[int, int]) -> int:
    return max(neighbours.bit_count() for neighbours in adj.values())


def _maximal_cliques(adj: Mapping[int, int], members: int) -> Iterator[int]:
    """Yield all maximal cliques as masks (Bron-Kerbosch with pivoting), deterministically."""

    def expand(clique: int, candidates: int, excluded: int):
        if not candidates and not excluded:
            yield clique
            return
        pivot = max(_bits(candidates | excluded), key=lambda u: (candidates & adj[u]).bit_count())
        for v in _bits(candidates & ~adj[pivot]):
            yield from expand(clique | 1 << v, candidates & adj[v], excluded & adj[v])
            candidates &= ~(1 << v)
            excluded |= 1 << v

    yield from expand(0, members, 0)


def _best_clique(adj: Mapping[int, int], members: int) -> int:
    """Maximum clique; ties go to the lexicographically smallest member tuple."""
    best = 0
    for clique in _maximal_cliques(adj, members):
        size, best_size = clique.bit_count(), best.bit_count()
        # between equal-sized sets, the smaller tuple owns the lowest differing index
        differ = clique ^ best
        if size > best_size or (size == best_size and differ & -differ & clique):
            best = clique
    return best


def interference_intensity(pair: PathPair, nodes: Iterable[NodeRef] | None = None) -> tuple[int, tuple[NodeRef, ...]]:
    """Size of a maximum set of pairwise-interfering senders, with a witness.

    1 with a singleton witness when no pair in the set interferes.
    """
    members = _members(pair, nodes)
    witness = pair.nodes_of(_best_clique(_interference_adjacency(pair, members), members))
    return len(witness), witness


def concurrency_intensity(pair: PathPair, nodes: Iterable[NodeRef] | None = None) -> tuple[int, tuple[NodeRef, ...]]:
    """Size of a maximum concurrency subset (independent set of the
    interference graph), with a witness; 1 when every pair interferes."""
    members = _members(pair, nodes)
    adj = _complement(_interference_adjacency(pair, members), members)
    witness = pair.nodes_of(_best_clique(adj, members))
    return len(witness), witness


@dataclass(frozen=True)
class DegreeReport:
    """Per-node partner counts within one node set, and their maxima."""

    concurrency: Mapping[NodeRef, int]
    interference: Mapping[NodeRef, int]
    intrinsic_concurrency_degree: int
    intrinsic_interference_degree: int


def _degree_report(pair: PathPair, adj: Mapping[int, int]) -> DegreeReport:
    senders = pair.nodes
    interference = {senders[i]: neighbours.bit_count() for i, neighbours in adj.items()}
    concurrency = {node: len(adj) - 1 - count for node, count in interference.items()}
    return DegreeReport(
        concurrency=concurrency,
        interference=interference,
        intrinsic_concurrency_degree=max(concurrency.values()),
        intrinsic_interference_degree=max(interference.values()),
    )


def connection_degrees(pair: PathPair, nodes: Iterable[NodeRef] | None = None) -> DegreeReport:
    """Count, for each member, its concurrent and interfering partners inside
    the set (the node itself excluded). The intrinsic degrees are the maxima."""
    return _degree_report(pair, _interference_adjacency(pair, _members(pair, nodes)))


def is_dominant(pair: PathPair, nodes: Iterable[NodeRef] | None = None) -> bool:
    """A set is dominant when its worst interference degree is still below the
    interference intensity; dominant sets split cleanly (see split_dominant)."""
    members = _members(pair, nodes)
    adj = _interference_adjacency(pair, members)
    return _max_degree(adj) < _best_clique(adj, members).bit_count()


def split_dominant(pair: PathPair, nodes: Iterable[NodeRef] | None = None) -> list[tuple[NodeRef, ...]]:
    """Partition a dominant set into exactly `interference intensity` disjoint
    concurrency subsets.

    Construction: seed one group per member of the maximum interference
    witness, then place every remaining node (ascending) into the first group
    it does not conflict with. Dominance guarantees a group always accepts:
    a node interferes with fewer members than there are groups.
    """
    members = _members(pair, nodes)
    adj = _interference_adjacency(pair, members)
    witness = _best_clique(adj, members)
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
    consecutive positions. Requires the chain monotonicity rules to hold;
    vacuously true when nothing on the chain interferes."""
    report = validate_path_rules(pair, path_id)
    if not report.ok:
        raise DomainError(
            f"path {path_id} violates the chain monotonicity rules; "
            "continuity of maximum interference sets is only meaningful under them"
        )
    members = pair.seq_mask(path_id, range(1, pair.path(path_id).n_senders + 1))
    adj = _interference_adjacency(pair, members)
    istar = _best_clique(adj, members).bit_count()
    for clique in _maximal_cliques(adj, members):
        # a chain's senders have consecutive dense indices, so consecutive
        # positions are one run of set bits
        run = clique // (clique & -clique)
        if clique.bit_count() == istar and run & (run + 1):
            return False
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
    adj = _interference_adjacency(pair, members)
    iwit = pair.nodes_of(_best_clique(adj, members))
    cwit = pair.nodes_of(_best_clique(_complement(adj, members), members))
    degrees = _degree_report(pair, adj)
    return IntensityReport(
        n_nodes=members.bit_count(),
        interference_intensity=len(iwit),
        interference_witness=iwit,
        concurrency_intensity=len(cwit),
        concurrency_witness=cwit,
        intrinsic_interference_degree=degrees.intrinsic_interference_degree,
        intrinsic_concurrency_degree=degrees.intrinsic_concurrency_degree,
        dominant=degrees.intrinsic_interference_degree < len(iwit),
    )
