"""Interference structure analysis over a set of sending nodes.

Two quantities drive everything downstream: the interference intensity
(largest set of pairwise-interfering senders, i.e. a maximum clique of the
interference graph) and the concurrency intensity (largest set of senders
that can share one beat, i.e. a maximum independent set). Both are computed
exactly; instances here are desk scale, a couple dozen nodes at most.

Witnesses are deterministic: among all maximum sets the lexicographically
smallest by (path_id, seq) is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import ConsistencyError, DomainError
from .model import NodeRef, PathPair

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


def _interference_adjacency(pair: PathPair, nodes: tuple[NodeRef, ...]) -> dict[NodeRef, set[NodeRef]]:
    bits = [1 << pair.index_of(n) for n in nodes]
    adj: dict[NodeRef, set[NodeRef]] = {}
    for a, bit in zip(nodes, bits):
        conflicts = pair.conflicts_of(bit)
        adj[a] = {b for b, other in zip(nodes, bits) if conflicts & other}
    return adj


def _complement(adj: Mapping[NodeRef, set[NodeRef]]) -> dict[NodeRef, set[NodeRef]]:
    nodes = list(adj)
    return {
        a: {b for b in nodes if b != a and b not in adj[a]}
        for a in nodes
    }


def _maximal_cliques(adj: Mapping[NodeRef, set[NodeRef]]):
    """Yield all maximal cliques (Bron-Kerbosch with pivoting), deterministically."""

    def expand(clique: set, candidates: set, excluded: set):
        if not candidates and not excluded:
            yield frozenset(clique)
            return
        pivot = max(sorted(candidates | excluded), key=lambda u: len(candidates & adj[u]))
        for v in sorted(candidates - adj[pivot]):
            yield from expand(clique | {v}, candidates & adj[v], excluded & adj[v])
            candidates = candidates - {v}
            excluded = excluded | {v}

    yield from expand(set(), set(adj), set())


def _best_clique(adj: Mapping[NodeRef, set[NodeRef]]) -> tuple[NodeRef, ...]:
    """Maximum clique; ties broken by lexicographically smallest sorted member tuple."""
    best: tuple[NodeRef, ...] | None = None
    for clique in _maximal_cliques(adj):
        cand = tuple(sorted(clique))
        if best is None or len(cand) > len(best) or (len(cand) == len(best) and cand < best):
            best = cand
    if best is None:  # empty node set is rejected upstream
        raise DomainError("node set is empty")
    return best


def _resolve(pair: PathPair, nodes: Iterable[NodeRef] | None) -> tuple[NodeRef, ...]:
    return pair.validate_nodes(pair.nodes if nodes is None else nodes)


def interference_intensity(pair: PathPair, nodes: Iterable[NodeRef] | None = None) -> tuple[int, tuple[NodeRef, ...]]:
    """Size of a maximum set of pairwise-interfering senders, with a witness.

    1 with a singleton witness when no pair in the set interferes.
    """
    members = _resolve(pair, nodes)
    witness = _best_clique(_interference_adjacency(pair, members))
    return len(witness), witness


def concurrency_intensity(pair: PathPair, nodes: Iterable[NodeRef] | None = None) -> tuple[int, tuple[NodeRef, ...]]:
    """Size of a maximum concurrency subset (independent set of the
    interference graph), with a witness; 1 when every pair interferes."""
    members = _resolve(pair, nodes)
    witness = _best_clique(_complement(_interference_adjacency(pair, members)))
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
    members = _resolve(pair, nodes)
    adj = _interference_adjacency(pair, members)
    interference = {n: len(adj[n]) for n in members}
    concurrency = {n: len(members) - 1 - len(adj[n]) for n in members}
    return DegreeReport(
        concurrency=concurrency,
        interference=interference,
        intrinsic_concurrency_degree=max(concurrency.values()),
        intrinsic_interference_degree=max(interference.values()),
    )


def is_dominant(pair: PathPair, nodes: Iterable[NodeRef] | None = None) -> bool:
    """A set is dominant when its worst interference degree is still below the
    interference intensity; dominant sets split cleanly (see split_dominant)."""
    members = _resolve(pair, nodes)
    istar, _ = interference_intensity(pair, members)
    return connection_degrees(pair, members).intrinsic_interference_degree < istar


def split_dominant(pair: PathPair, nodes: Iterable[NodeRef] | None = None) -> list[tuple[NodeRef, ...]]:
    """Partition a dominant set into exactly `interference intensity` disjoint
    concurrency subsets.

    Construction: seed one group per member of the maximum interference
    witness, then place every remaining node (ascending) into the first group
    it does not conflict with. Dominance guarantees a group always accepts:
    a node interferes with fewer members than there are groups.
    """
    members = _resolve(pair, nodes)
    istar, witness = interference_intensity(pair, members)
    degrees = connection_degrees(pair, members)
    if degrees.intrinsic_interference_degree >= istar:
        raise DomainError(
            "set is not dominant: max interference degree "
            f"{degrees.intrinsic_interference_degree} >= intensity {istar}"
        )
    groups: list[list[NodeRef]] = [[seed] for seed in witness]
    for node in members:
        if node in set(witness):
            continue
        for group in groups:
            if all(pair.relation.concurrent(node, member) for member in group):
                group.append(node)
                break
        else:
            raise ConsistencyError(f"dominant set split failed to place {node}")
    return [tuple(sorted(g)) for g in groups]


def check_continuity(pair: PathPair, path_id: int) -> bool:
    """True when every maximum interference set of the chain occupies
    consecutive positions. Requires the chain monotonicity rules to hold;
    vacuously true when nothing on the chain interferes."""
    from .model import validate_path_rules

    report = validate_path_rules(pair, path_id)
    if not report.ok:
        raise DomainError(
            f"path {path_id} violates the chain monotonicity rules; "
            "continuity of maximum interference sets is only meaningful under them"
        )
    members = pair.path_nodes(path_id)
    adj = _interference_adjacency(pair, members)
    istar = len(_best_clique(adj))
    if istar == 1:
        return True
    for clique in _maximal_cliques(adj):
        if len(clique) != istar:
            continue
        seqs = sorted(n.seq for n in clique)
        if seqs[-1] - seqs[0] + 1 != len(seqs):
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
    members = _resolve(pair, nodes)
    istar, iwit = interference_intensity(pair, members)
    cstar, cwit = concurrency_intensity(pair, members)
    degrees = connection_degrees(pair, members)
    return IntensityReport(
        n_nodes=len(members),
        interference_intensity=istar,
        interference_witness=iwit,
        concurrency_intensity=cstar,
        concurrency_witness=cwit,
        intrinsic_interference_degree=degrees.intrinsic_interference_degree,
        intrinsic_concurrency_degree=degrees.intrinsic_concurrency_degree,
        dominant=degrees.intrinsic_interference_degree < istar,
    )
