"""Intensities, degrees, dominance, and continuity of interference sets."""

import random

import networkx as nx
import pytest

from beatsched.analysis import (
    analyze,
    check_continuity,
    concurrency_intensity,
    connection_degrees,
    interference_intensity,
    is_dominant,
    split_dominant,
)
from beatsched.errors import DomainError
from beatsched.model import is_concurrency_subset, validate_path_rules
from beatsched.verify import line_corpus, pair_corpus
from helpers import line_pair, n, relation_pair


def random_two_path_pair(rng: random.Random):
    """Two chains over a random explicit relation, with a random density."""
    n1, n2 = rng.randint(1, 6), rng.randint(1, 6)
    names = [f"1.{s}" for s in range(1, n1 + 1)] + [f"2.{s}" for s in range(1, n2 + 1)]
    density = rng.uniform(0.1, 0.9)
    edges = [
        (a, b)
        for i, a in enumerate(names)
        for b in names[i + 1:]
        if rng.random() < density
    ]
    return relation_pair(n1, n2, edges)


def node_sets(pair, rng: random.Random):
    """Each path, the joint set, and one random non-empty subset."""
    sets = [pair.path_nodes(p.id) for p in pair.paths] + [pair.nodes]
    sets.append(tuple(rng.sample(pair.nodes, rng.randint(1, len(pair.nodes)))))
    return sets


def cliques_by_pairs(pair, nodes):
    """Every pairwise-interfering subset of `nodes`, empty set included, as
    ascending tuples; built from relation.interferes alone."""
    out = [()]
    for node in sorted(nodes):
        out += [c + (node,) for c in out if all(pair.relation.interferes(node, m) for m in c)]
    return out


@pytest.fixture(scope="module")
def chain6():
    return line_pair(6)


class TestIntensities:
    def test_unit_chain_frozen_values(self, chain6):
        # Oracle: senders interfere within two chain positions, so the
        # largest pairwise-interfering set is any three consecutive
        # senders and the earliest wins the tie-break.
        istar, iwit = interference_intensity(chain6)
        assert istar == 3
        assert iwit == (n(1, 1), n(1, 2), n(1, 3))
        cstar, cwit = concurrency_intensity(chain6)
        assert cstar == 2
        assert cwit == (n(1, 1), n(1, 4))

    def test_witness_is_lexicographically_least(self):
        # Two disjoint interfering triples; the one containing n1.1 wins.
        pair = relation_pair(
            6,
            0,
            [
                ("1.1", "1.2"), ("1.1", "1.3"), ("1.2", "1.3"),
                ("1.4", "1.5"), ("1.4", "1.6"), ("1.5", "1.6"),
            ],
        )
        _, witness = interference_intensity(pair)
        assert witness == (n(1, 1), n(1, 2), n(1, 3))

    def test_no_interference_gives_intensity_one(self):
        pair = relation_pair(4, 0, [])
        istar, iwit = interference_intensity(pair)
        assert (istar, iwit) == (1, (n(1, 1),))
        cstar, _ = concurrency_intensity(pair)
        assert cstar == 4

    def test_full_interference_gives_concurrency_one(self):
        pair = relation_pair(
            3, 0, [("1.1", "1.2"), ("1.1", "1.3"), ("1.2", "1.3")]
        )
        assert interference_intensity(pair)[0] == 3
        assert concurrency_intensity(pair) == (1, (n(1, 1),))

    def test_subset_argument_restricts_the_graph(self, chain6):
        istar, _ = interference_intensity(chain6, [n(1, 1), n(1, 4)])
        assert istar == 1
        cstar, _ = concurrency_intensity(chain6, [n(1, 1), n(1, 2), n(1, 3)])
        assert cstar == 1

    def test_concurrency_witness_is_a_concurrency_subset(self, chain6):
        _, witness = concurrency_intensity(chain6)
        assert is_concurrency_subset(chain6, witness)

    def test_against_networkx_clique_oracle(self):
        rng = random.Random(2024)
        for _ in range(150):
            size = rng.randint(2, 9)
            names = [f"1.{s}" for s in range(1, size + 1)]
            edges = [
                (a, b)
                for i, a in enumerate(names)
                for b in names[i + 1:]
                if rng.random() < 0.45
            ]
            pair = relation_pair(size, 0, edges)
            graph = nx.Graph()
            graph.add_nodes_from(names)
            graph.add_edges_from(edges)
            expected_istar = max(len(c) for c in nx.find_cliques(graph))
            expected_cstar = max(
                len(c) for c in nx.find_cliques(nx.complement(graph))
            )
            assert interference_intensity(pair)[0] == expected_istar
            assert concurrency_intensity(pair)[0] == expected_cstar

    def test_two_path_witnesses_against_networkx(self):
        # per-path and joint sets of random two-chain relations: sizes and
        # the lexicographically smallest maximum set, for cliques of the
        # interference graph and of its complement
        rng = random.Random(4242)
        for _ in range(150):
            pair = random_two_path_pair(rng)
            for nodes in node_sets(pair, rng):
                graph = nx.Graph()
                graph.add_nodes_from(nodes)
                graph.add_edges_from(
                    (a, b) for a in nodes for b in nodes if pair.relation.interferes(a, b)
                )
                for found, oracle in (
                    (interference_intensity(pair, nodes), graph),
                    (concurrency_intensity(pair, nodes), nx.complement(graph)),
                ):
                    cliques = [tuple(sorted(c)) for c in nx.find_cliques(oracle)]
                    size = max(map(len, cliques))
                    assert found == (size, min(c for c in cliques if len(c) == size))

    def test_joint_tie_break_crosses_paths(self):
        # two maximum triples, one per path; (path_id, seq) order picks path 1's
        pair = relation_pair(
            3,
            3,
            [
                ("1.1", "1.2"), ("1.1", "1.3"), ("1.2", "1.3"),
                ("2.1", "2.2"), ("2.1", "2.3"), ("2.2", "2.3"),
            ],
        )
        assert interference_intensity(pair) == (3, (n(1, 1), n(1, 2), n(1, 3)))
        assert interference_intensity(pair, pair.path_nodes(2)) == (3, (n(2, 1), n(2, 2), n(2, 3)))
        assert concurrency_intensity(pair) == (2, (n(1, 1), n(2, 1)))


class TestDegrees:
    def test_unit_chain_degree_profile(self, chain6):
        report = connection_degrees(chain6)
        # Interior senders see four interfering partners (two on each
        # side); the outermost see two. Concurrency degrees complement.
        assert report.interference[n(1, 1)] == 2
        assert report.interference[n(1, 3)] == 4
        assert report.intrinsic_interference_degree == 4
        assert report.concurrency[n(1, 1)] == 3
        assert report.intrinsic_concurrency_degree == 3

    def test_degrees_sum_to_set_size_minus_one(self, chain6):
        report = connection_degrees(chain6)
        for node in chain6.nodes:
            assert report.interference[node] + report.concurrency[node] == 5

    def test_against_pairwise_oracle(self):
        rng = random.Random(31)
        for _ in range(120):
            pair = random_two_path_pair(rng)
            for nodes in node_sets(pair, rng):
                interference = {
                    a: sum(pair.relation.interferes(a, b) for b in nodes) for a in nodes
                }
                report = connection_degrees(pair, nodes)
                assert report.interference == interference
                assert report.concurrency == {
                    a: len(nodes) - 1 - count for a, count in interference.items()
                }
                assert report.intrinsic_interference_degree == max(interference.values())
                assert report.intrinsic_concurrency_degree == len(nodes) - 1 - min(
                    interference.values()
                )


class TestDominance:
    def test_unit_chain_is_not_dominant(self, chain6):
        # Max degree 4 is not below intensity 3.
        assert not is_dominant(chain6)
        with pytest.raises(DomainError, match="not dominant"):
            split_dominant(chain6)

    def test_three_chain_is_dominant_and_splits(self):
        pair = line_pair(3)
        assert is_dominant(pair)
        groups = split_dominant(pair)
        assert sorted(len(g) for g in groups) == [1, 1, 1]
        assert sorted(sum(groups, ())) == list(pair.nodes)

    def test_split_groups_are_concurrency_subsets(self):
        rng = random.Random(5)
        found = 0
        for _ in range(200):
            size = rng.randint(2, 8)
            names = [f"1.{s}" for s in range(1, size + 1)]
            edges = [
                (a, b)
                for i, a in enumerate(names)
                for b in names[i + 1:]
                if rng.random() < 0.3
            ]
            pair = relation_pair(size, 0, edges)
            if not is_dominant(pair):
                continue
            found += 1
            groups = split_dominant(pair)
            istar, _ = interference_intensity(pair)
            assert len(groups) == istar
            assert sorted(sum(groups, ())) == sorted(pair.nodes)
            for group in groups:
                assert is_concurrency_subset(pair, group)
        assert found >= 20  # the corpus really exercised the property

    def test_split_against_pairwise_oracle(self):
        # the documented construction restated on relation.interferes:
        # seed with the smallest maximum witness, place the rest first-fit
        rng = random.Random(17)
        dominant = 0
        for _ in range(200):
            pair = random_two_path_pair(rng)
            for nodes in node_sets(pair, rng):
                witness = min(cliques_by_pairs(pair, nodes), key=lambda c: (-len(c), c))
                degree = max(
                    sum(pair.relation.interferes(a, b) for b in nodes) for a in nodes
                )
                assert is_dominant(pair, nodes) == (degree < len(witness))
                if degree >= len(witness):
                    with pytest.raises(DomainError, match="not dominant"):
                        split_dominant(pair, nodes)
                    continue
                dominant += 1
                groups = [[seed] for seed in witness]
                for node in sorted(nodes):
                    if node in witness:
                        continue
                    next(
                        g for g in groups
                        if not any(pair.relation.interferes(node, m) for m in g)
                    ).append(node)
                assert split_dominant(pair, nodes) == [tuple(sorted(g)) for g in groups]
        assert dominant >= 100


class TestContinuity:
    def test_uniform_lines_have_consecutive_witnesses(self):
        for size in range(2, 10):
            assert check_continuity(line_pair(size), 1)

    def test_requires_the_chain_rules(self):
        pair = relation_pair(4, 0, [("1.1", "1.2"), ("1.1", "1.4")])
        with pytest.raises(DomainError, match="monotonicity"):
            check_continuity(pair, 1)

    def test_rule_compliant_interference_is_interval_shaped(self):
        # An interfering pair (j, k) under the chain rules forces the
        # whole stretch j..k to interfere pairwise (walk the rules step
        # by step toward (j, k) for the contradiction), so a gap in a
        # maximum set cannot occur. Window relations of every width are
        # rule-compliant, so sweep those.
        rng = random.Random(11)
        for _ in range(100):
            size = rng.randint(2, 9)
            width = rng.randint(0, size - 1)
            edges = [
                (f"1.{j}", f"1.{k}")
                for j in range(1, size + 1)
                for k in range(j + 1, min(j + width, size) + 1)
            ]
            pair = relation_pair(size, 0, edges)
            assert validate_path_rules(pair, 1).ok
            assert check_continuity(pair, 1)

    def test_against_pairwise_oracle(self):
        # every maximum pairwise-interfering set of a chain, enumerated from
        # relation.interferes, spans consecutive positions; chains on random
        # lines and both chains of random pairs, all rule-compliant
        chains = [(pair, 1) for pair in line_corpus(9, 80)]
        chains += [(c.pair, p) for c in pair_corpus(9, 40) for p in (1, 2)]
        for pair, path_id in chains:
            assert validate_path_rules(pair, path_id).ok
            cliques = cliques_by_pairs(pair, pair.path_nodes(path_id))
            size = max(map(len, cliques))
            for clique in cliques:
                if len(clique) == size:
                    assert clique[-1].seq - clique[0].seq + 1 == size
            assert check_continuity(pair, path_id)


class TestAnalyzeBundle:
    def test_bundle_matches_parts(self, chain6):
        report = analyze(chain6)
        assert report.n_nodes == 6
        assert report.interference_intensity == 3
        assert report.concurrency_intensity == 2
        assert report.intrinsic_interference_degree == 4
        assert report.intrinsic_concurrency_degree == 3
        assert report.dominant is False
