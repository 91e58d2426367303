"""The CSR graph and its Louvain against the dict-of-dicts graph and the
dict-keyed Louvain they replaced (tests/oracles.py), and a bound on the
working memory Louvain allocates.

Built from the same labels and triples, the two graphs must agree
exactly: the same edge list, k-cores and single-attack filter, the same
assignment dict, item order included, and the same modularity floats.
Every degree, link and loop sum is a multiple of 0.5, so the array
version may sum in another order and still reach the same bits.
"""

import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from trendguard.classify import flags_for_instance
from trendguard.core import DELETED_LEXICON, LEXICON, UNDELETED, normalize_keyword
from trendguard.graph import (
    TREND,
    USER,
    BipartiteGraph,
    build_graph,
    community_summary,
    k_core,
    louvain,
    modularity,
    single_attack_filter,
)
from trendguard.ingest import TrendDay, TrendInstance, _instance, build_trend_instances
from trendguard.simulator import SCENARIO_LOCALE, ScenarioConfig, build_stream

import oracles
from conftest import DAY, DAY_NOON
from test_graph import edge_list


def both(edges, nodes=()):
    """The library graph and the oracle graph of the same labels and triples."""
    return BipartiteGraph.from_edges(edges, nodes), oracles.graph_from_edges(edges, nodes)


def assert_same_graph(graph, oracle_graph):
    assert list(graph.labels) == oracle_graph.nodes()
    assert edge_list(graph) == oracle_graph.edges()


def assert_same_partition(graph, oracle_graph, seed):
    new = louvain(graph, seed=seed)
    old = oracles.louvain(oracle_graph, seed=seed)
    assert list(new.assignment.items()) == list(old.assignment.items())
    assert new.modularity == old.modularity


@st.composite
def bipartite_graphs(draw):
    """Both graphs of the same random labels and triples: users mostly of
    degree 1, edge weights 1-5, some (user, trend) pairs repeated, trends
    split into groups that users never cross (so several components), and
    isolated users and trends."""
    n_trends = draw(st.integers(1, 12))
    n_groups = draw(st.integers(1, 4))
    nodes = [(TREND, f"t{t}") for t in range(n_trends)]
    edges = []
    for u in range(draw(st.integers(0, 60))):
        nodes.append((USER, u))
        group = draw(st.integers(0, n_groups - 1))
        trends = [t for t in range(n_trends) if t % n_groups == group]
        degree = min(len(trends), draw(st.sampled_from([0, 1, 1, 1, 1, 1, 2, 3, 4])))
        for t in draw(st.permutations(trends))[:degree]:
            for _ in range(draw(st.sampled_from([1, 1, 1, 2]))):
                edges.append((u, f"t{t}", draw(st.integers(1, 5))))
    return both(edges, draw(st.permutations(nodes)))


@settings(max_examples=300, deadline=None)
@given(graphs=bipartite_graphs(), seed=st.integers(0, 2**16), data=st.data())
def test_random_bipartite_graphs_match_the_oracle(graphs, seed, data):
    graph, oracle_graph = graphs
    assert_same_graph(graph, oracle_graph)
    for k in range(1, 5):
        assert_same_graph(k_core(graph, k), oracles.k_core(oracle_graph, k))
    assert_same_graph(single_attack_filter(graph), oracles.single_attack_filter(oracle_graph))
    assert_same_partition(graph, oracle_graph, seed)
    communities = data.draw(st.lists(st.integers(0, 3), min_size=graph.n_nodes,
                                     max_size=graph.n_nodes))
    assert modularity(graph, communities) == oracles.modularity(
        oracle_graph, dict(zip(graph.labels, communities)))


def test_graph_without_edges_matches_the_oracle():
    g, oracle_graph = both([], [(USER, 3), (USER, 12), (TREND, "a@2019-06-18"),
                                (TREND, "b@2019-06-18")])
    assert_same_partition(g, oracle_graph, 0)
    assert louvain(g).modularity == 0.0


@pytest.fixture(scope="module", params=[0, 3, 9])
def simulator_join(request):
    """The seed's scenario joined, with every tweet's flags."""
    config = ScenarioConfig(n_days=1, organic_per_day=3, attacked_per_day=2,
                            attacks_per_day=6, background_per_day=300,
                            sample_rate=1.0, seed=request.param)
    labeled = build_stream(config)
    events = list(labeled.events())
    instances = build_trend_instances(labeled.trend_days(), events, SCENARIO_LOCALE,
                                      config.tz_offset, flags_for_instance(SCENARIO_LOCALE))
    # The same trend-days joined and flagged the way they were before the
    # join flagged them: whole Tweets and a TweetFlags dict per trend-day.
    joined = {}
    for trend in labeled.trend_days():
        instance = oracles.build_trend_instance(trend, events, SCENARIO_LOCALE, config.tz_offset)
        joined[trend.date, trend.keyword.normalized] = (
            instance, oracles.flags_for_instance(instance, SCENARIO_LOCALE))
    return request.param, instances, joined


@pytest.mark.parametrize("predicate", [UNDELETED, DELETED_LEXICON])
def test_simulator_graph_matches_the_oracle(simulator_join, predicate):
    # The seed picks both the scenario and Louvain's visiting order.
    seed, instances, joined = simulator_join
    graph = build_graph(instances, predicate)
    assert graph.n_edges > 0
    # The oracle graph adds one edge of weight 1 per qualifying tweet.
    edges = []
    for instance, flags in joined.values():
        trend = f"{instance.trend.keyword.normalized}@{instance.trend.date.isoformat()}"
        for tweet in instance.tweets:
            if predicate == UNDELETED:
                qualifies = tweet.id not in instance.deletions
            else:
                qualifies = tweet.id in instance.deletions and flags[tweet.id].is_lexicon
            if qualifies:
                edges.append((tweet.user_id, trend, 1))
    oracle_graph = oracles.graph_from_edges(edges)
    assert_same_graph(graph, oracle_graph)
    assert_same_partition(graph, oracle_graph, seed)


def test_working_memory_stays_below_the_graphs_own_size():
    """40 trends and 3,000 users, 90 % of them of degree 1: the peak that
    Louvain allocates above the graph stays within the graph's traced size
    (the dict-keyed oracle allocated about twice the graph)."""
    rng = random.Random(1)
    tracemalloc.start()
    try:
        trends = [f"t{t}" for t in range(40)]
        nodes = [(TREND, trend) for trend in trends]
        edges = []
        for u in range(3000):
            nodes.append((USER, u))
            degree = 1 if rng.random() < 0.9 else rng.randint(2, 5)
            for trend in rng.sample(trends, degree):
                edges.append((u, trend, rng.randint(1, 3)))
        g = BipartiteGraph.from_edges(edges, nodes)
        del trends, nodes, edges
        graph_size = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        louvain(g, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - graph_size <= 1.0 * graph_size


def test_from_edges_peak_stays_within_one_and_a_half_graphs():
    """20,000 users with large int ids over 40 trends, about one edge each,
    some pairs repeated: the peak that from_edges allocates above the
    finished graph stays within 1.5 times the graph (a pair dict and twice
    sorted triples took about 3 times)."""
    rng = random.Random(2)
    trends = [f"t{t}@2019-06-18" for t in range(40)]
    edges = []
    for _ in range(20000):
        user = 2**62 + rng.getrandbits(62)
        for _ in range(1 if rng.random() < 0.95 else 2):
            edges.append((user, rng.choice(trends), rng.randint(1, 3)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        g = BipartiteGraph.from_edges(edges)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.n_nodes == 20040
    assert peak - after <= 1.5 * (after - before)


@settings(max_examples=100, deadline=None)
@given(graphs=bipartite_graphs(), data=st.data())
def test_from_edges_ignores_the_order_of_its_edges(graphs, data):
    """Each edge split into weight-1 edges and shuffled: users interleave
    and every pair of weight above 1 repeats."""
    graph, oracle_graph = graphs
    split = [(user, trend, 1)
             for kind, user in graph.labels if kind == USER
             for (_, trend), weight in oracle_graph.neighbors((USER, user)).items()
             for _ in range(weight)]
    shuffled = data.draw(st.permutations(split))
    assert_same_graph(BipartiteGraph.from_edges(shuffled, graph.labels), oracle_graph)


def generated_instances(n_users, n_trends, seed):
    """Flagged hashtag-days of n_users users with large int ids: 90 % of
    them tweet into one trend, the rest into 2-4, and one in ten also
    posts a deleted lexicon tweet into each of their trends."""
    rng = random.Random(seed)
    instances = [TrendInstance(TrendDay(DAY, normalize_keyword(f"#t{t}", "tr")),
                               flags=bytearray()) for t in range(n_trends)]
    deletions = {}
    tweet_id = 0
    for _ in range(n_users):
        user = 2**62 + rng.getrandbits(61)
        attacker = rng.random() < 0.1
        for t in rng.sample(range(n_trends), 1 if rng.random() < 0.9 else rng.randint(2, 4)):
            for deleted in (False, True) if attacker else (False,):
                tweet_id += 1
                created_ms = (DAY_NOON + rng.randrange(-40000, 40000)) * 1000
                instances[t].ids.append(tweet_id)
                instances[t].users.append(user)
                instances[t].created_ms.append(created_ms)
                instances[t].flags.append(LEXICON)
                if deleted:
                    deletions[tweet_id] = created_ms + rng.randrange(1, 10**6)
    for instance in instances:
        _instance(instance, deletions)
    return {(DAY, instance.keyword.normalized): instance for instance in instances}


def test_build_graph_keeps_at_most_80_bytes_a_node():
    """20,000 users over 40 trends: the graph that build_graph keeps holds
    each node's id and offset and its share of the edges, 80 B a node at
    most (a label tuple a node took about 150 B)."""
    instances = generated_instances(20000, 40, seed=3)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        graph = build_graph(instances, UNDELETED)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert graph.n_nodes == 20040
    assert graph.n_edges > 22000
    assert after - before <= 80 * graph.n_nodes


def test_community_summary_peak_stays_below_the_graphs_own_size():
    """On the same graph, one user in ten an attacker: the peak that
    community_summary allocates above the partition stays within the
    graph's traced size (about 0.6 times; ordering the nodes by community
    with a sorted list took about 1.2 times)."""
    instances = generated_instances(20000, 40, seed=3)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        graph = build_graph(instances, UNDELETED)
        graph_size = tracemalloc.get_traced_memory()[0] - before
        partition = louvain(graph, seed=0)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        summaries = community_summary(partition, instances)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(len(s.dormancy_gaps) for s in summaries) > 1500
    assert peak - held <= 1.0 * graph_size
