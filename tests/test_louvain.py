"""Louvain over flat int arrays against the dict-keyed oracle it replaced
(tests/oracles.py), and a bound on the working memory it allocates.

The two must agree exactly: the same assignment dict, item order
included, and the same modularity float. Every degree, link and loop sum
is a multiple of 0.5, so the array version may sum in another order and
still reach the same bits.
"""

import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from trendguard.classify import flags_for_instance
from trendguard.core import DELETED_LEXICON, UNDELETED
from trendguard.graph import TREND, USER, Graph, build_graph, louvain
from trendguard.ingest import build_trend_instances
from trendguard.simulator import SCENARIO_LOCALE, ScenarioConfig, build_stream

import oracles


def assert_same_partition(graph, seed):
    new = louvain(graph, seed=seed)
    old = oracles.louvain(graph, seed=seed)
    assert list(new.assignment.items()) == list(old.assignment.items())
    assert new.modularity == old.modularity


@st.composite
def bipartite_graphs(draw):
    """Users mostly of degree 1, edge weights 1-5, trends split into
    groups that users never cross (so several components), and isolated
    users and trends."""
    n_trends = draw(st.integers(1, 12))
    n_groups = draw(st.integers(1, 4))
    g = Graph()
    for t in range(n_trends):
        g.add_node((TREND, f"t{t}"))
    for u in range(draw(st.integers(0, 60))):
        user = (USER, u)
        g.add_node(user)
        group = draw(st.integers(0, n_groups - 1))
        trends = [t for t in range(n_trends) if t % n_groups == group]
        degree = min(len(trends), draw(st.sampled_from([0, 1, 1, 1, 1, 1, 2, 3, 4])))
        for t in draw(st.permutations(trends))[:degree]:
            g.add_edge(user, (TREND, f"t{t}"), draw(st.integers(1, 5)))
    return g


@settings(max_examples=300, deadline=None)
@given(graph=bipartite_graphs(), seed=st.integers(0, 2**16))
def test_random_bipartite_graphs_match_the_oracle(graph, seed):
    assert_same_partition(graph, seed)


def test_graph_without_edges_matches_the_oracle():
    g = Graph()
    for node in [(USER, 3), (USER, 12), (TREND, "a@2019-06-18"), (TREND, "b@2019-06-18")]:
        g.add_node(node)
    assert_same_partition(g, 0)
    assert louvain(g).modularity == 0.0


@pytest.fixture(scope="module", params=[0, 3, 9])
def simulator_join(request):
    """The seed's scenario joined, with every tweet's flags."""
    config = ScenarioConfig(n_days=1, organic_per_day=3, attacked_per_day=2,
                            attacks_per_day=6, background_per_day=300,
                            sample_rate=1.0, seed=request.param)
    labeled = build_stream(config)
    instances = build_trend_instances(labeled.trend_days(), labeled.events(),
                                      SCENARIO_LOCALE, config.tz_offset)
    flags = {key: flags_for_instance(instance, SCENARIO_LOCALE)
             for key, instance in instances.items()}
    return request.param, instances, flags


@pytest.mark.parametrize("predicate", [UNDELETED, DELETED_LEXICON])
def test_simulator_graph_matches_the_oracle(simulator_join, predicate):
    # The seed picks both the scenario and Louvain's visiting order.
    seed, instances, flags = simulator_join
    graph = build_graph(instances, predicate, flags)
    assert graph.n_edges > 0
    assert_same_partition(graph, seed)


def test_working_memory_stays_below_the_graphs_own_size():
    """40 trends and 3,000 users, 90 % of them of degree 1: the peak that
    Louvain allocates above the graph stays within the graph's traced size
    (the dict-keyed oracle allocated about twice the graph)."""
    rng = random.Random(1)
    tracemalloc.start()
    try:
        g = Graph()
        trends = [(TREND, f"t{t}") for t in range(40)]
        for trend in trends:
            g.add_node(trend)
        for u in range(3000):
            user = (USER, u)
            g.add_node(user)
            degree = 1 if rng.random() < 0.9 else rng.randint(2, 5)
            for trend in rng.sample(trends, degree):
                g.add_edge(user, trend, rng.randint(1, 3))
        graph_size = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        louvain(g, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - graph_size <= 1.0 * graph_size
