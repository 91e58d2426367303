import csv
import io
import random
from datetime import timedelta

import pytest

from trendguard.core import LEXICON, SINGLE_ENGAGEMENT
from trendguard.graph import (
    DELETED_LEXICON,
    BipartiteGraph,
    EmptyGraph,
    IncompleteAssignment,
    TREND,
    UNDELETED,
    USER,
    build_graph,
    community_summary,
    k_core,
    louvain,
    modularity,
    network_overlap,
    single_attack_filter,
    write_edge_csv,
    write_partition_csv,
)

from conftest import DAY, DAY_NOON, make_instance, make_tweet
import oracles

LEX = "yarım gün #tag"


def bipartite(edges, nodes=()):
    """Build a user-trend graph from (user_int, trend_str, weight) triples."""
    return BipartiteGraph.from_edges(edges, nodes)


def neighbors(graph, label):
    """A node's neighbors by label, with the edge weights."""
    u = graph.labels.index(label)
    span = slice(graph.offsets[u], graph.offsets[u + 1])
    return {graph.labels[v]: w for v, w in zip(graph.targets[span], graph.weights[span])}


def edge_list(graph):
    """Each edge once as (u, v, weight) labels, u numbered before v, in
    node order: the oracle Graph.edges() order."""
    return [(graph.labels[u], graph.labels[v], w)
            for u in range(graph.n_nodes)
            for v, w in zip(graph.targets[graph.offsets[u]:graph.offsets[u + 1]],
                            graph.weights[graph.offsets[u]:graph.offsets[u + 1]])
            if v > u]


def by_number(graph, assignment):
    """A label-keyed assignment as the list of communities by node number."""
    return [assignment[label] for label in graph.labels]


def peel_oracle(graph, k):
    """Fixed-point re-evaluation: delete low-degree nodes until stable."""
    keep = set(graph.nodes())
    while True:
        degrees = {}
        for node in keep:
            degrees[node] = sum(1 for nbr in graph.neighbors(node) if nbr in keep)
        drop = {node for node in keep if degrees[node] < k}
        if not drop:
            return keep
        keep -= drop


def modularity_oracle(graph, assignment):
    """Direct double sum over node pairs of [A_ij - k_i k_j / 2m] delta."""
    nodes = graph.nodes()
    m2 = 2.0 * graph.total_weight()
    if m2 == 0:
        return 0.0
    q = 0.0
    for u in nodes:
        for v in nodes:
            a = graph.neighbors(u).get(v, 0)
            k_u = sum(graph.neighbors(u).values())
            k_v = sum(graph.neighbors(v).values())
            expected = k_u * k_v / m2
            if assignment[u] == assignment[v]:
                q += a - expected
    return q / m2


def random_bipartite(rng, n_users=25, n_trends=25, p=0.08):
    """The library graph and the oracle graph of the same random edges,
    every user and trend a node."""
    nodes = [(USER, u) for u in range(n_users)] + [(TREND, f"t{t}") for t in range(n_trends)]
    edges = [(u, f"t{t}", rng.randint(1, 3))
             for u in range(n_users) for t in range(n_trends) if rng.random() < p]
    return bipartite(edges, nodes), oracles.graph_from_edges(edges, nodes)


class TestGraphBasics:
    def test_weight_accumulates(self):
        g = bipartite([(1, "a", 1), (1, "a", 1)])
        assert g.n_edges == 1
        assert neighbors(g, (USER, 1))[(TREND, "a")] == 2

    def test_bipartite_enforced(self):
        # An edge always joins a trend (numbered first) to a user.
        g = bipartite([(1, "a", 1), (2, "a", 1), (2, "b", 1)])
        for u in range(g.n_nodes):
            for v in g.targets[g.offsets[u]:g.offsets[u + 1]]:
                assert (u < g.n_trends) != (v < g.n_trends)

    def test_no_self_loops(self):
        # The same id as a user and as a trend names two nodes.
        g = bipartite([("x", "x", 1)])
        assert g.labels == ((TREND, "x"), (USER, "x"))
        assert list(g.targets) == [1, 0]

    def test_weight_must_be_positive(self):
        with pytest.raises(ValueError):
            bipartite([(1, "a", 0)])

    def test_isolated_nodes_are_kept(self):
        g = bipartite([(1, "a", 1)], [(USER, 2), (TREND, "b"), (USER, 1)])
        assert g.labels == ((TREND, "a"), (TREND, "b"), (USER, 1), (USER, 2))
        assert (g.n_nodes, g.n_edges, g.n_trends) == (4, 1, 2)


class TestBuildGraph:
    def _instances(self):
        tweets_a = [
            make_tweet(1, 1, LEX, DAY_NOON, hashtags=["tag"]),
            make_tweet(2, 1, LEX, DAY_NOON + 5, hashtags=["tag"]),
            make_tweet(3, 2, "Organik görüş! #tag", DAY_NOON + 9, hashtags=["tag"]),
        ]
        a = make_instance("#tag", tweets_a, {1: DAY_NOON + 60, 2: DAY_NOON + 61})
        tweets_b = [make_tweet(11, 2, "Başka görüş! #b", DAY_NOON + 20, hashtags=["b"])]
        b = make_instance("#b", tweets_b, {})
        return {(DAY, "tag"): a, (DAY, "b"): b}

    def test_undeleted_graph(self):
        instances = self._instances()
        g = build_graph(instances, UNDELETED)
        assert (USER, 2) in g.labels
        assert (USER, 1) not in g.labels  # user 1's tweets are all deleted
        assert len(neighbors(g, (USER, 2))) == 2

    def test_deleted_lexicon_graph_weights(self):
        instances = self._instances()
        g = build_graph(instances, DELETED_LEXICON)
        assert (USER, 1) in g.labels
        assert (USER, 2) not in g.labels
        assert neighbors(g, (USER, 1))[(TREND, f"tag@{DAY.isoformat()}")] == 2

    def test_order_independence(self):
        instances = self._instances()
        g1 = build_graph(instances, UNDELETED)
        g2 = build_graph(dict(reversed(list(instances.items()))), UNDELETED)
        assert edge_list(g1) == edge_list(g2)


def test_nodes_sort_trends_first_then_users_as_strings():
    """Node order is str order: user "10" before "100" before "9"."""
    instances = {
        (DAY, tag): make_instance(f"#{tag}", [
            make_tweet(base + user, user, f"Görüş! #{tag}", DAY_NOON + user, hashtags=[tag])
            for user in (100, 9, 10)
        ], {})
        for base, tag in ((0, "b"), (1000, "a"))
    }
    graph = build_graph(instances, UNDELETED)
    edges = io.StringIO()
    write_edge_csv(edges, graph)
    rows = [row[:2] for row in csv.reader(io.StringIO(edges.getvalue()))][1:]
    day = DAY.isoformat()
    assert rows == [[f"{tag}@{day}", user] for tag in "ab" for user in ("10", "100", "9")]
    partition = io.StringIO()
    write_partition_csv(partition, louvain(graph, seed=0))
    nodes = [row[0] for row in csv.reader(io.StringIO(partition.getvalue()))][1:]
    assert nodes == [f"trend:a@{day}", f"trend:b@{day}", "user:10", "user:100", "user:9"]


class TestKCore:
    def test_star_empties_at_k2(self):
        g = bipartite([(1, "a", 1), (2, "a", 1), (3, "a", 1)])
        core = k_core(g, 2)
        assert core.n_nodes == 0

    def test_biclique_with_pendant(self):
        edges = [(u, t, 1) for u in (1, 2, 3) for t in ("a", "b", "c")]
        edges.append((9, "a", 1))  # pendant user
        g = bipartite(edges)
        core = k_core(g, 3)
        assert (USER, 9) not in core.labels
        assert core.n_nodes == 6
        assert all(len(neighbors(core, n)) >= 3 for n in core.labels)

    def test_matches_peel_oracle_random(self):
        rng = random.Random(71)
        for _ in range(100):
            g, oracle = random_bipartite(rng)
            for k in (2, 3, 4):
                assert set(k_core(g, k).labels) == peel_oracle(oracle, k)

    def test_maximality_on_small_graphs(self):
        rng = random.Random(72)
        for _ in range(20):
            g, oracle = random_bipartite(rng, n_users=8, n_trends=8, p=0.3)
            core = k_core(g, 2)
            survivors = set(core.labels)
            for node in oracle.nodes():
                if node in survivors:
                    continue
                candidate = survivors | {node}
                degree = sum(1 for nbr in oracle.neighbors(node) if nbr in candidate)
                within = all(
                    sum(1 for nbr in oracle.neighbors(m) if nbr in candidate) >= 2
                    for m in candidate
                )
                assert not within or degree < 2


class TestSingleAttackFilter:
    def test_degree_one_user_removed(self):
        g = bipartite([(1, "a", 5), (2, "a", 1), (2, "b", 1)])
        filtered = single_attack_filter(g)
        assert (USER, 1) not in filtered.labels
        assert (USER, 2) in filtered.labels

    def test_isolated_trend_removed(self):
        g = bipartite([(1, "a", 1), (2, "b", 1), (2, "c", 1)])
        filtered = single_attack_filter(g)
        assert (TREND, "a") not in filtered.labels
        assert (TREND, "b") in filtered.labels

    def test_weight_does_not_save_single_trend_user(self):
        g = bipartite([(1, "a", 99)])
        assert single_attack_filter(g).n_nodes == 0


def clique_pair():
    """Two bipartite 'cliques' (3 users x 3 trends, fully connected) joined
    by a single bridge edge."""
    edges = [(u, f"t{t}", 1) for u in range(3) for t in range(3)]
    edges += [(u, f"t{t}", 1) for u in range(3, 6) for t in range(3, 6)]
    edges.append((0, "t3", 1))
    return bipartite(edges)


class TestModularity:
    def test_singletons_nonpositive(self):
        g = clique_pair()
        assert modularity(g, range(g.n_nodes)) <= 0.0

    def test_one_community_is_zero(self):
        g = clique_pair()
        assert modularity(g, [0] * g.n_nodes) == pytest.approx(0.0, abs=1e-12)

    def test_three_edge_hand_value(self):
        # Path: u1 - a - u2 - b. m=3 with weights 1,1,1? Use: u1-a, u2-a, u2-b.
        g = bipartite([(1, "a", 1), (2, "a", 1), (2, "b", 1)])
        # Communities: {u1, a} vs {u2, b}.
        assignment = {
            (USER, 1): 0, (TREND, "a"): 0,
            (USER, 2): 1, (TREND, "b"): 1,
        }
        # intra: edge u1-a in c0 (1), edge u2-b in c1 (1); m=3
        # deg sums: c0 = 1+2=3, c1 = 2+1=3
        # Q = (1/3 - (3/6)^2) + (1/3 - (3/6)^2) = 2/3 - 1/2 = 1/6
        assert modularity(g, by_number(g, assignment)) == pytest.approx(1 / 6, abs=1e-12)

    def test_matches_pair_sum_oracle(self):
        rng = random.Random(73)
        for _ in range(25):
            g, oracle = random_bipartite(rng, n_users=10, n_trends=10, p=0.2)
            assert g.total_weight == sum(w for *_, w in edge_list(g))
            if g.total_weight == 0:
                continue
            assignment = {node: rng.randint(0, 3) for node in oracle.nodes()}
            assert modularity(g, by_number(g, assignment)) == pytest.approx(
                modularity_oracle(oracle, assignment), abs=1e-9
            )

    def test_incomplete_assignment(self):
        g = bipartite([(1, "a", 1)])
        with pytest.raises(IncompleteAssignment):
            modularity(g, [0])


class TestLouvain:
    def test_recovers_clique_pair(self):
        g = clique_pair()
        partition = louvain(g, seed=0)
        left = {partition.assignment[(USER, u)] for u in range(3)}
        left |= {partition.assignment[(TREND, f"t{t}")] for t in range(3)}
        right = {partition.assignment[(USER, u)] for u in range(3, 6)}
        right |= {partition.assignment[(TREND, f"t{t}")] for t in range(3, 6)}
        assert len(left) == 1 and len(right) == 1
        assert left != right
        assert partition.modularity > 0.35

    def test_reported_modularity_matches_formula(self):
        rng = random.Random(74)
        for seed in range(10):
            g, _ = random_bipartite(rng, n_users=15, n_trends=15, p=0.12)
            if g.total_weight == 0:
                continue
            partition = louvain(g, seed=seed)
            assert partition.modularity == pytest.approx(
                modularity(g, partition.communities), abs=1e-9
            )

    def test_single_edge_grouped(self):
        g = bipartite([(1, "a", 1)])
        partition = louvain(g, seed=3)
        assert partition.assignment[(USER, 1)] == partition.assignment[(TREND, "a")]
        assert partition.modularity == pytest.approx(0.0, abs=1e-12)

    def test_never_below_singletons(self):
        rng = random.Random(75)
        for seed in range(20):
            g, _ = random_bipartite(rng, n_users=12, n_trends=12, p=0.15)
            if g.total_weight == 0:
                continue
            singleton_q = modularity(g, range(g.n_nodes))
            assert louvain(g, seed=seed).modularity >= singleton_q - 1e-12

    def test_deterministic_given_seed(self):
        rng = random.Random(76)
        g, _ = random_bipartite(rng, n_users=20, n_trends=20, p=0.1)
        a = louvain(g, seed=9)
        b = louvain(g, seed=9)
        assert a.assignment == b.assignment
        assert a.modularity == b.modularity

    def test_empty_graph_raises(self):
        with pytest.raises(EmptyGraph):
            louvain(bipartite([]), seed=0)


class TestCommunitySummary:
    def test_sizes_and_dormancy(self):
        """The attack tweets are the flagged join's deleted lexicon rows:
        user 1's on a trend-day a year before their kept tweet, user 2's
        ten days before theirs. User 2's later deleted tweet is no attack,
        as it is not lexicon."""
        g = bipartite([(1, "a", 1), (2, "a", 1)])
        partition = louvain(g, seed=0)
        year = 365 * 86400
        long_ago, lately = DAY_NOON - 370 * 86400, DAY_NOON - 10 * 86400

        kept = make_instance("#a", [
            make_tweet(1, 1, "Kalıcı görüş burada! #a", DAY_NOON),
            make_tweet(2, 2, "Sohbet devam ediyor! #a", DAY_NOON),
        ], {})
        old = make_instance("#b", [make_tweet(3, 1, "yarım gün #b", long_ago)],
                            {3: long_ago + 60}, day=DAY - timedelta(days=370))
        recent = make_instance("#c", [make_tweet(4, 2, "yarım gün #c", lately),
                                      make_tweet(5, 2, "Sohbet bitti! #c", lately + 3600)],
                               {4: lately + 60, 5: lately + 4000}, day=DAY - timedelta(days=10))
        assert list(old.flags) == [LEXICON | SINGLE_ENGAGEMENT]
        assert [flags & LEXICON for flags in recent.flags] == [LEXICON, 0]
        instances = {(instance.trend.date, instance.keyword.normalized): instance
                     for instance in (old, recent, kept)}
        summaries = community_summary(partition, instances, dormancy_s=year)
        assert len(summaries) == 1
        summary = summaries[0]
        assert summary.n_users == 2 and summary.n_trends == 1
        assert summary.first_seen_ms == long_ago * 1000
        assert summary.last_seen_ms == lately * 1000
        gaps = dict(summary.dormancy_gaps)
        assert gaps[1] == 370 * 86400
        assert summary.dormant_users == [1]


class TestOverlap:
    def test_user_intersection(self):
        a = bipartite([(1, "x", 1), (2, "x", 1)])
        b = bipartite([(2, "y", 1), (3, "y", 1)])
        assert network_overlap(a, b) == 1
