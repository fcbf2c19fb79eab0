"""The dense sender index and conflict masks against a pairwise oracle.

Every concurrency question goes through `PathPair`'s masks. These seeded
cases build random relations on one and two paths and compare each
mask-based answer with a direct pairwise `relation.interferes` check.
"""

from __future__ import annotations

import math
import random
import time

import pytest

import beatsched.analysis
import beatsched.verify
from beatsched.errors import DomainError
from beatsched.model import (
    GeometricTopology,
    InterferenceRelation,
    NodeRef,
    PathPair,
    PrimaryPath,
    _derive_pair,
    _disk_masks,
    derive_relation,
    is_concurrency_subset,
    validate_path_rules,
)
from beatsched.periods import build_matrix, intrinsic_period, is_reachable_period
from beatsched.scheduler import Beat, Schedule, SubsetActivation, audit_schedule, schedule_primary
from beatsched.simulator import run
from beatsched.verify import line_corpus, pair_corpus
from helpers import line_pair

SEEDS = range(60)


def random_pair(rng: random.Random, two_paths: bool) -> PathPair:
    path1 = PrimaryPath(id=1, n_senders=rng.randint(1, 9))
    path2 = PrimaryPath(id=2, n_senders=rng.randint(1, 7)) if two_paths else None
    nodes = [ref for p in (path1, path2) if p is not None for ref in p.senders]
    density = rng.random()
    pairs = [
        (a, b)
        for i, a in enumerate(nodes)
        for b in nodes[i + 1:]
        if rng.random() < density
    ]
    return PathPair(path1=path1, path2=path2, relation=InterferenceRelation(pairs))


def pairwise_concurrent(pair: PathPair, nodes) -> bool:
    members = sorted(set(nodes))
    return not any(
        pair.relation.interferes(a, b)
        for i, a in enumerate(members)
        for b in members[i + 1:]
    )


def phase_subset(pair: PathPair, path_id: int, phase: int, spacing: int):
    n = pair.path(path_id).n_senders
    return [NodeRef(path_id, j) for j in range(phase, n + 1, spacing)]


def cases():
    for seed in SEEDS:
        rng = random.Random(f"masks/{seed}")
        yield rng, random_pair(rng, two_paths=seed % 2 == 1)


class TestConcurrencySubset:
    def test_agrees_with_pairwise_oracle(self):
        for rng, pair in cases():
            nodes = pair.nodes
            for _ in range(40):
                # sampling with replacement gives duplicates and singletons
                chosen = [rng.choice(nodes) for _ in range(rng.randint(1, 2 * len(nodes)))]
                assert is_concurrency_subset(pair, chosen) == pairwise_concurrent(pair, chosen)
                assert pair.nodes_of(pair.mask_of(chosen)) == tuple(sorted(set(chosen)))
            for node in nodes:
                assert is_concurrency_subset(pair, [node])
                assert is_concurrency_subset(pair, [node, node])

    def test_empty_set_is_rejected(self):
        for _, pair in cases():
            with pytest.raises(DomainError, match="^node set is empty$"):
                is_concurrency_subset(pair, [])
            with pytest.raises(DomainError, match="^node set is empty$"):
                pair.mask_of(iter(()))

    def test_stranger_is_rejected_by_name(self):
        for _, pair in cases():
            past_end = NodeRef(1, pair.path1.n_senders + 1)
            with pytest.raises(DomainError, match=f"^{past_end} is not a sender of this pair$"):
                is_concurrency_subset(pair, [pair.nodes[0], past_end])
            if pair.path2 is None:
                # the smallest stranger is the one reported
                with pytest.raises(DomainError, match=f"^{past_end} is not a sender"):
                    pair.mask_of([NodeRef(2, 1), past_end, pair.nodes[0]])

    def test_iterators_are_consumed_once(self):
        for _, pair in cases():
            assert pair.nodes_of(pair.mask_of(iter(pair.nodes))) == pair.nodes


class TestPeriods:
    def test_reachable_periods_agree_with_oracle(self):
        for _, pair in cases():
            for path in pair.paths:
                for spacing in range(1, path.n_senders + 1):
                    expected = all(
                        pairwise_concurrent(pair, phase_subset(pair, path.id, phase, spacing))
                        for phase in range(1, spacing + 1)
                    )
                    assert is_reachable_period(pair, path.id, spacing) == expected

    def test_matrix_agrees_with_oracle(self):
        for _, pair in cases():
            if pair.path2 is None:
                continue
            n1, n2 = pair.path1.n_senders, pair.path2.n_senders
            for t1 in range(1, n1 + 1):
                for t2 in range(1, n2 + 1):
                    reachable = is_reachable_period(pair, 1, t1) and is_reachable_period(pair, 2, t2)
                    if not reachable:
                        with pytest.raises(DomainError, match="is not reachable on path"):
                            build_matrix(pair, t1, t2)
                        continue
                    matrix = build_matrix(pair, t1, t2)
                    for p1 in range(1, t1 + 1):
                        for p2 in range(1, t2 + 1):
                            union = phase_subset(pair, 1, p1, t1) + phase_subset(pair, 2, p2, t2)
                            assert matrix.entry(p1, p2) == int(pairwise_concurrent(pair, union))

    def test_path_rules_agree_with_oracle(self):
        # random relations break the rules; chains on a line and the
        # verify corpora keep them, at lengths up to 300 senders
        pairs = [pair for _, pair in cases()]
        pairs += [line_pair(n, radius=radius / 2) for n in (50, 300) for radius in range(1, 8)]
        for seed in (1, 2, 3):
            pairs += line_corpus(seed, 200)
            pairs += [case.pair for case in pair_corpus(seed, 100)]
        for pair in pairs:
            rel = pair.relation
            for path in pair.paths:
                size = path.n_senders
                node = path.node
                down, up = [], []
                for j in range(1, size + 1):
                    for k in range(j + 1, size + 1):
                        if rel.interferes(node(j), node(k)):
                            continue
                        if k < size and rel.interferes(node(j), node(k + 1)):
                            down.append((j, k))
                        if j > 1 and rel.interferes(node(j - 1), node(k)):
                            up.append((j, k))
                report = validate_path_rules(pair, path.id)
                assert report.rule_down_violations == tuple(down)
                assert report.rule_up_violations == tuple(up)

    def test_long_chain_rules_period_and_schedule_are_fast(self):
        # three mask operations per sender: a pairwise loop over the
        # 3,000 senders takes seconds for each of the three calls
        pair = line_pair(3000, radius=1.5)
        start = time.perf_counter()
        assert validate_path_rules(pair, 1).ok
        assert intrinsic_period(pair, 1) == 3
        assert schedule_primary(pair, 1).period == 3
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("n", [3000, 6000])
    def test_long_chain_clique_search_reads_each_sender_once(self, n, monkeypatch):
        # the work behind the wall bound above, on any host: the clique
        # search of intrinsic_period's cross-check reads n - 1 neighbour
        # masks, linear in the chain. The chain is line_pair(n, radius=1.5),
        # whose senders interfere within two positions, built from its band
        # of masks without the quadratic disk tests.
        def band(size: int) -> PathPair:
            masks = [(0b11011 << i >> 2) & (1 << size) - 1 for i in range(size)]
            return PathPair._from_conflicts(PrimaryPath(id=1, n_senders=size), None, masks)

        class CountingMasks(tuple):
            def __getitem__(self, key):
                reads.append(key)
                return super().__getitem__(key)

        assert band(40) == line_pair(40, radius=1.5)
        reads = []
        search = beatsched.analysis._best_clique
        monkeypatch.setattr(
            beatsched.analysis, "_best_clique", lambda neighbours, members: search(CountingMasks(neighbours), members)
        )
        assert intrinsic_period(band(n), 1) == 3
        assert len(reads) == n - 1


def random_schedule(rng: random.Random, pair: PathPair, beats: int, past_end: bool) -> Schedule:
    """Spacing-1 activations with arbitrary member sets; with `past_end`,
    members may name the position after a chain's last sender."""
    out = []
    for _ in range(beats):
        acts = []
        for path in pair.paths:
            if rng.random() < 0.7:
                positions = range(1, path.n_senders + 1 + past_end)
                members = tuple(sorted(rng.sample(positions, rng.randint(1, path.n_senders))))
                acts.append(SubsetActivation(path_id=path.id, spacing=1, phase=1, members=members))
        out.append(Beat(category="joint", activations=tuple(acts)))
    return Schedule(
        period=beats,
        beats=tuple(out),
        path_periods={p.id: 1 for p in pair.paths},
        activation_counts={p.id: beats for p in pair.paths},
        kind="tampered",
    )


class TestScheduleChecks:
    def test_audit_lists_the_same_interfering_pairs(self):
        for rng, pair in cases():
            schedule = random_schedule(rng, pair, rng.randint(1, 6), past_end=True)
            expected = []
            for index, beat in enumerate(schedule.beats, start=1):
                members = [NodeRef(a.path_id, s) for a in beat.activations for s in a.members]
                for i, a in enumerate(members):
                    for b in members[i + 1:]:
                        if pair.relation.interferes(a, b):
                            expected.append(f"beat {index}: {a} and {b} interfere")
            report = audit_schedule(pair, schedule)
            assert [p for p in report.problems if p.endswith(" interfere")] == expected
            assert report.concurrency_ok == (not expected)

    def test_simulator_counts_every_simulated_violation(self):
        for rng, pair in cases():
            # a member past a chain's end is a stranger the simulator rejects
            schedule = random_schedule(rng, pair, rng.randint(1, 4), past_end=False)
            warmup, periods = rng.randint(0, 3), rng.randint(1, 3)
            report = run(pair, schedule, n_periods=periods, warmup_periods=warmup)
            expected = []
            for beat_index in range(1, (warmup + periods) * schedule.period + 1):
                nodes = schedule.beat(beat_index).nodes()
                if nodes and not pairwise_concurrent(pair, nodes):
                    names = ", ".join(str(ref) for ref in nodes)
                    expected.append(f"beat {beat_index}: activated set {{{names}}} is not a concurrency subset")
            assert report.violations == len(expected)
            assert report.violation_examples == expected[:5]


class TestPathPairIdentity:
    def test_cached_index_stays_out_of_equality_hash_and_repr(self):
        for rng, pair in cases():
            twin = PathPair(
                path1=PrimaryPath(id=1, n_senders=pair.path1.n_senders),
                path2=pair.path2,
                relation=InterferenceRelation(tuple(p) for p in pair.relation.pairs),
            )
            assert twin == pair and hash(twin) == hash(pair)
            assert repr(twin) == repr(pair)
            assert repr(pair) == (
                f"PathPair(path1={pair.path1!r}, path2={pair.path2!r}, relation={pair.relation!r})"
            )
            if pair.relation.pairs:
                fewer = PathPair(
                    path1=pair.path1,
                    path2=pair.path2,
                    relation=InterferenceRelation(tuple(p) for p in list(pair.relation.pairs)[1:]),
                )
                assert fewer != pair
            assert {pair, twin} == {pair}

    def test_dense_order_is_path_then_seq(self):
        for _, pair in cases():
            assert list(pair.nodes) == sorted(pair.nodes)
            assert [pair.mask_of([ref]) for ref in pair.nodes] == [1 << i for i in range(pair.total_senders)]
            for path in pair.paths:
                assert pair.path_nodes(path.id) == path.senders


def masks_of(pair: PathPair) -> list[int]:
    """Conflict masks of a pair's relation, worked out pair by pair."""
    index = {ref: i for i, ref in enumerate(ref for p in pair.paths for ref in p.senders)}
    masks = [0] * len(index)
    for a, b in (tuple(p) for p in pair.relation.pairs):
        masks[index[a]] |= 1 << index[b]
        masks[index[b]] |= 1 << index[a]
    return masks


class TestMaskConstructor:
    def test_a_pair_from_masks_equals_the_pair_from_its_relation(self):
        for _, pair in cases():
            twin = PathPair._from_conflicts(pair.path1, pair.path2, masks_of(pair))
            assert twin == pair and hash(twin) == hash(pair)
            assert repr(twin) == repr(pair)
            assert twin.relation == pair.relation

    def test_the_given_relation_is_the_view(self):
        for _, pair in cases():
            relation = InterferenceRelation(tuple(p) for p in pair.relation.pairs)
            assert PathPair(pair.path1, pair.path2, relation).relation is relation

    @pytest.mark.parametrize(
        "masks, message",
        [
            # the first offending cell of the upper triangle, as from_matrix names it
            ([0b010, 0b000, 0b000], "^relation matrix must be symmetric, differs at n1.1/n1.2$"),
            ([0b000, 0b001, 0b000], "^relation matrix must be symmetric, differs at n1.1/n1.2$"),
            ([0b001, 0b000, 0b000], "^relation matrix diagonal must be zero \\(node n1.1\\)$"),
            ([0b000, 0b000, 0b1000], "^relation matrix must be 3x3, node n1.3 names a sender past the last one$"),
            ([0b000, 0b1000, 0b010], "^relation matrix must be symmetric, differs at n1.2/n1.3$"),
            ([0b000, 0b000], "^relation matrix must be 3x3 to match the node order$"),
        ],
    )
    def test_malformed_masks_are_rejected(self, masks, message):
        with pytest.raises(DomainError, match=message):
            PathPair._from_conflicts(PrimaryPath(id=1, n_senders=3), None, masks)

    def test_masks_cover_both_paths(self):
        path1, path2 = PrimaryPath(id=1, n_senders=1), PrimaryPath(id=2, n_senders=1)
        pair = PathPair._from_conflicts(path1, path2, [0b10, 0b01])
        assert pair.relation.interferes(NodeRef(1, 1), NodeRef(2, 1))
        with pytest.raises(DomainError, match="^relation matrix must be symmetric, differs at n1.1/n2.1$"):
            PathPair._from_conflicts(path1, path2, [0b10, 0b00])

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_public_derive_relation_equals_the_core(self, seed, monkeypatch):
        # the corpora hand their point lists to the disk builder; the public
        # derive_relation on a topology of the same points agrees with it
        for topology, pair in corpus_topologies(seed, monkeypatch):
            bare = PathPair._from_conflicts(pair.path1, pair.path2, [0] * pair.total_senders)
            assert derive_relation(topology, bare) == pair.relation
            assert PathPair(pair.path1, pair.path2, derive_relation(topology, bare)) == pair


def corpus_topologies(seed: int, monkeypatch) -> list[tuple[GeometricTopology, PathPair]]:
    """The pairs of `line_corpus(seed, 60)` and `pair_corpus(seed, 40)`, each
    with a topology of the points the corpus handed to the disk builder."""
    calls = []

    def recording(routes, radius, half_duplex):
        calls.append((routes, radius, half_duplex))
        return _disk_masks(routes, radius, half_duplex)

    monkeypatch.setattr(beatsched.verify, "_disk_masks", recording)
    pairs = line_corpus(seed, 60) + [case.pair for case in pair_corpus(seed, 40)]
    assert len(calls) == len(pairs) == 100
    out = []
    for (routes, radius, half_duplex), pair in zip(calls, pairs):
        positions = {
            (path_id, seq): point
            for path_id, points in enumerate(routes, start=1)
            for seq, point in enumerate(points, start=1)
        }
        out.append((GeometricTopology(positions, radius, half_duplex), pair))
    return out


class TestRelationHandOff:
    """`PathPair.relation` is a view of the pair's masks, and a pair over
    the same senders takes those masks instead of re-indexing node pairs."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_a_pair_from_derive_relation_equals_the_core_pair(self, seed, monkeypatch):
        for topology, pair in corpus_topologies(seed, monkeypatch):
            skeleton = PathPair(pair.path1, pair.path2, InterferenceRelation())
            view = derive_relation(topology, skeleton)
            handed = PathPair(pair.path1, pair.path2, view)
            core = _derive_pair(topology, pair.path1, pair.path2)
            assert handed == core and hash(handed) == hash(core)
            assert repr(handed) == repr(core)
            assert handed._conflicts == core._conflicts == pair._conflicts
            assert handed.relation.pairs == core.relation.pairs
            # the masks were handed over, not rebuilt from the node pairs
            assert handed.relation is view and handed._conflicts is view._conflicts

    def test_a_view_equals_the_eager_relation(self):
        for _, pair in cases():
            view = PathPair._from_conflicts(pair.path1, pair.path2, pair._conflicts).relation
            # a pair over equal but distinct paths adopts the masks unread
            path2 = pair.path2 and PrimaryPath(id=2, n_senders=pair.path2.n_senders)
            twin = PathPair(PrimaryPath(id=1, n_senders=pair.path1.n_senders), path2, view)
            assert twin == pair and twin._conflicts is view._conflicts
            assert "_pairs" not in vars(view)  # built on first read
            eager = InterferenceRelation(tuple(p) for p in view.pairs)
            assert view == eager and eager == view and hash(view) == hash(eager)
            assert repr(view) == repr(eager) == repr(pair.relation)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_a_pair_from_shuffled_node_pairs_equals_the_pair_from_masks(self, seed):
        # nodes enter the relation in first-seen order, not dense order
        rng = random.Random(f"masks/shuffled/{seed}")
        for pair in line_corpus(seed, 60) + [case.pair for case in pair_corpus(seed, 40)]:
            pairs = [tuple(p) for p in pair.relation.pairs]
            rng.shuffle(pairs)
            relation = InterferenceRelation(pairs)
            built = PathPair(pair.path1, pair.path2, relation)
            core = PathPair._from_conflicts(pair.path1, pair.path2, pair._conflicts)
            assert built == core and built._conflicts == core._conflicts and hash(built) == hash(core)
            assert built.relation is relation and relation == core.relation

    def test_a_view_over_wider_paths_without_extra_conflicts_is_taken(self):
        # n1.3 and n2.3 have no conflicts, so the narrower pair holds every one
        wide = PathPair._from_conflicts(PrimaryPath(id=1, n_senders=3), PrimaryPath(id=2, n_senders=3),
                                        [0b001000, 0, 0, 0b000001, 0, 0])
        narrow = PathPair(PrimaryPath(id=1, n_senders=2), PrimaryPath(id=2, n_senders=2), wide.relation)
        assert narrow._conflicts == (0b0100, 0, 0b0001, 0)
        assert narrow.relation.interferes(NodeRef(1, 1), NodeRef(2, 1))

    def test_a_view_over_other_paths_goes_through_the_checked_path(self):
        # n1.3 interferes with n1.2 on three and two senders; two and three
        # senders have no n1.3
        wide = PathPair._from_conflicts(PrimaryPath(id=1, n_senders=3), PrimaryPath(id=2, n_senders=2),
                                        [0, 0b00100, 0b00010, 0, 0])
        with pytest.raises(DomainError, match="^relation mentions n1.3, which is not a sender of this pair$"):
            PathPair(PrimaryPath(id=1, n_senders=2), PrimaryPath(id=2, n_senders=3), wide.relation)


class TestDiskMasks:
    @staticmethod
    def oracle(routes, radius: float, half_duplex: bool) -> list[int]:
        """Pairwise disk test over every sender pair, plus half-duplex adjacency."""
        senders = [
            (which, k, points[k], points[k + 1])
            for which, points in enumerate(routes)
            for k in range(len(points) - 1)
        ]
        masks = [0] * len(senders)
        for i, (route_a, k_a, tx_a, rx_a) in enumerate(senders):
            for j, (route_b, k_b, tx_b, rx_b) in enumerate(senders):
                if i == j:
                    continue
                disk = math.dist(tx_a, rx_b) <= radius or math.dist(tx_b, rx_a) <= radius
                adjacent = half_duplex and route_a == route_b and abs(k_a - k_b) == 1
                if disk or adjacent:
                    masks[i] |= 1 << j
        return masks

    @pytest.mark.parametrize("seed", range(40))
    def test_masks_equal_the_pairwise_oracle(self, seed):
        rng = random.Random(f"disk-masks/{seed}")
        for n_routes in (1, 2):
            for half_duplex in (True, False):
                # one-sender routes come up often: two points are one sender
                routes = [
                    [(rng.uniform(0, 6), rng.uniform(0, 3)) for _ in range(rng.choice((2, 2, rng.randint(3, 9))))]
                    for _ in range(n_routes)
                ]
                radius = rng.uniform(0.0, 3.0)
                assert _disk_masks(routes, radius, half_duplex) == self.oracle(routes, radius, half_duplex)
