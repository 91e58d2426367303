"""
Bipartite user-trend network construction and structure analysis: k-core
filtering, single-attack noise removal, weighted Newman modularity, and a
deterministic two-phase Louvain community detection.

Nodes are ("user", id) or ("trend", "keyword@date") tuples; an edge's weight
counts the qualifying tweets the user posted into the trend.
"""

from __future__ import annotations

import csv
import random
from array import array
from dataclasses import dataclass
from datetime import date
from itertools import groupby
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .core import DELETED_LEXICON, EDGE_PREDICATES, UNDELETED, TrendGuardError, span_s
from .ingest import TrendInstance
from .classify import TweetFlags

Node = tuple[str, object]  # ("user", int) | ("trend", str)

USER = "user"
TREND = "trend"


class EmptyGraph(TrendGuardError):
    """Louvain was asked to partition a graph with no nodes."""


class IncompleteAssignment(TrendGuardError):
    """A modularity computation found nodes without a community."""


def _node_sort_key(node: Node) -> tuple[str, str]:
    return (node[0], str(node[1]))


class Graph:
    """Undirected bipartite graph with positive integer edge weights; a
    node's kind (USER or TREND) is its first element."""

    def __init__(self):
        self._adj: dict[Node, dict[Node, int]] = {}

    def add_node(self, node: Node) -> None:
        self._adj.setdefault(node, {})

    def add_edge(self, u: Node, v: Node, weight: int = 1) -> None:
        if u == v:
            raise ValueError(f"self-loop on {u}")
        if u not in self._adj or v not in self._adj:
            raise ValueError("add nodes before edges")
        if u[0] == v[0]:
            raise ValueError(f"edge within partition {u[0]}: {u} -- {v}")
        if weight < 1:
            raise ValueError("edge weight must be positive")
        self._adj[u][v] = self._adj[u].get(v, 0) + weight
        self._adj[v][u] = self._adj[v].get(u, 0) + weight

    @property
    def n_nodes(self) -> int:
        return len(self._adj)

    @property
    def n_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def nodes(self) -> list[Node]:
        return sorted(self._adj, key=_node_sort_key)

    def count_kind(self, kind: str) -> int:
        return sum(1 for node in self._adj if node[0] == kind)

    def has_node(self, node: Node) -> bool:
        return node in self._adj

    def degree(self, node: Node) -> int:
        return len(self._adj[node])

    def neighbors(self, node: Node) -> dict[Node, int]:
        return self._adj[node]

    def edges(self) -> list[tuple[Node, Node, int]]:
        """Each edge once, as (u, v, weight) with u before v, in node order."""
        return list(self._iter_edges())

    def _iter_edges(self) -> Iterator[tuple[Node, Node, int]]:
        for u in self.nodes():
            ku = _node_sort_key(u)
            later = [(kv, v, w) for v, w in self._adj[u].items()
                     if ku < (kv := _node_sort_key(v))]
            later.sort(key=itemgetter(0))
            for _, v, w in later:
                yield u, v, w

    def total_weight(self) -> int:
        # Every edge is counted once from each end.
        return sum(sum(nbrs.values()) for nbrs in self._adj.values()) // 2

    def subgraph(self, keep: set[Node]) -> "Graph":
        sub = Graph()
        sub._adj = {u: {v: w for v, w in self._adj[u].items() if v in keep} for u in keep}
        return sub


def user_node(user_id: int) -> Node:
    return (USER, user_id)


def trend_node(instance: TrendInstance) -> Node:
    trend = instance.trend
    return (TREND, f"{trend.keyword.normalized}@{trend.date.isoformat()}")


def build_graph(
    instances: Mapping[tuple[date, str], TrendInstance],
    edge_predicate: str = UNDELETED,
    flags: Optional[Mapping[tuple[date, str], Mapping[int, TweetFlags]]] = None,
) -> Graph:
    """One edge per (user, trend) pair with a qualifying tweet; weight counts them.

    The "undeleted" predicate builds the interest-group network; the
    "deleted-lexicon" predicate builds the astrobot network and requires
    per-tweet flags.
    """
    if edge_predicate not in EDGE_PREDICATES:
        raise ValueError(f"unknown edge predicate: {edge_predicate!r}")
    if edge_predicate == DELETED_LEXICON and flags is None:
        raise ValueError("deleted-lexicon predicate requires tweet flags")

    graph = Graph()
    for key in sorted(instances):
        instance = instances[key]
        tnode = trend_node(instance)
        for tweet in instance.tweets:
            deleted = tweet.id in instance.deletions
            if edge_predicate == UNDELETED:
                qualifies = not deleted
            else:
                qualifies = deleted and flags[key][tweet.id].is_lexicon
            if not qualifies:
                continue
            unode = user_node(tweet.user_id)
            graph.add_node(unode)
            graph.add_node(tnode)
            graph.add_edge(unode, tnode, 1)
    return graph


def k_core(graph: Graph, k: int) -> Graph:
    """Maximal subgraph where every node has degree >= k, by iterative peeling."""
    if k < 1:
        raise ValueError("k must be at least 1")
    degrees = {node: graph.degree(node) for node in graph.nodes()}
    removed: set[Node] = set()
    stack = [node for node, deg in degrees.items() if deg < k]
    while stack:
        node = stack.pop()
        if node in removed:
            continue
        removed.add(node)
        for neighbor in graph.neighbors(node):
            if neighbor in removed:
                continue
            degrees[neighbor] -= 1
            if degrees[neighbor] < k:
                stack.append(neighbor)
    keep = {node for node in degrees if node not in removed}
    return graph.subgraph(keep)


def single_attack_filter(graph: Graph) -> Graph:
    """Drop users linked to a single trend, then trends left isolated."""
    keep = {
        node
        for node in graph.nodes()
        if node[0] != USER or graph.degree(node) >= 2
    }
    trimmed = graph.subgraph(keep)
    keep = {
        node
        for node in trimmed.nodes()
        if node[0] != TREND or trimmed.degree(node) >= 1
    }
    return trimmed.subgraph(keep)


# ---------------------------------------------------------------------------
# Modularity and Louvain
# ---------------------------------------------------------------------------

@dataclass
class Partition:
    assignment: dict[Node, int]  # in Graph.nodes() order
    modularity: float


def modularity(graph: Graph, assignment: Mapping[Node, int]) -> float:
    """Weighted Newman modularity of a complete node-to-community assignment."""
    for node in graph._adj:
        if node not in assignment:
            raise IncompleteAssignment(f"node {node} has no community")
    m = float(graph.total_weight())
    if m == 0.0:
        return 0.0
    # Integer weights: the sums are exact in any order of the adjacency.
    intra: dict[int, int] = {}  # twice the intra-community weight
    degree_sum: dict[int, int] = {}
    for u, nbrs in graph._adj.items():
        c = assignment[u]
        degree_sum[c] = degree_sum.get(c, 0) + sum(nbrs.values())
        for v, w in nbrs.items():
            if assignment[v] == c:
                intra[c] = intra.get(c, 0) + w
    q = 0.0
    for c in sorted(degree_sum):
        q += intra.get(c, 0) / (2.0 * m) - (degree_sum[c] / (2.0 * m)) ** 2
    return q


def _csr(graph: Graph, nodes: list[Node]) -> tuple[array, array, array]:
    """The graph as flat arrays over node numbers (positions in ``nodes``):
    node u's neighbors are targets[offsets[u]:offsets[u + 1]], with the
    same slice of weights."""
    index = {node: i for i, node in enumerate(nodes)}
    offsets = array("q", [0])
    targets = array("q")
    weights = array("d")
    for u in nodes:
        nbrs = graph.neighbors(u)
        targets.extend(map(index.__getitem__, nbrs))
        weights.extend(nbrs.values())
        offsets.append(len(targets))
    return offsets, targets, weights


def _one_level(
    offsets: array, targets: array, weights: array, loops: list[float], m: float,
    rng: random.Random,
) -> tuple[list[int], bool]:
    """Local-move phase: greedily move nodes to the neighbor community with
    the best modularity gain until no move improves. Ties between equally
    good moves go to the lowest community id; ties with staying put stay.
    """
    com = list(range(len(loops)))
    order = com[:]
    rng.shuffle(order)
    degree = [sum(weights[offsets[u]:offsets[u + 1]]) + 2.0 * loops[u] for u in com]
    tot = degree[:]
    moved_any = False
    while True:
        moves = 0
        for u in order:
            cu = com[u]
            ku = degree[u]
            links: dict[int, float] = {}
            for i in range(offsets[u], offsets[u + 1]):
                cv = com[targets[i]]
                links[cv] = links.get(cv, 0.0) + weights[i]
            tot[cu] -= ku
            best_c = cu
            best_gain = links.get(cu, 0.0) - tot[cu] * ku / (2.0 * m)
            for c in sorted(links):
                if c == cu:
                    continue
                gain = links[c] - tot[c] * ku / (2.0 * m)
                if gain > best_gain:
                    best_gain = gain
                    best_c = c
            tot[best_c] += ku
            com[u] = best_c
            if best_c != cu:
                moves += 1
        if moves == 0:
            break
        moved_any = True
    return com, moved_any


def _aggregate(
    offsets: array, targets: array, weights: array, loops: list[float], com: list[int],
) -> tuple[array, array, array, list[float], list[int]]:
    """One node per community, numbered by first appearance over the node
    numbers. Returns the new graph's arrays and loops, and each old node's
    new number."""
    relabel: dict[int, int] = {}
    mapping = [relabel.setdefault(c, len(relabel)) for c in com]
    new_offsets = array("q", [0])
    new_targets = array("q")
    new_weights = array("d")
    new_loops = []
    members = sorted(range(len(com)), key=mapping.__getitem__)
    for cu, group in groupby(members, key=mapping.__getitem__):
        loop = 0.0
        links: dict[int, float] = {}
        for u in group:
            loop += loops[u]
            for i in range(offsets[u], offsets[u + 1]):
                cv = mapping[targets[i]]
                if cv == cu:
                    # Each undirected edge is seen from both endpoints.
                    loop += weights[i] / 2.0
                else:
                    links[cv] = links.get(cv, 0.0) + weights[i]
        new_loops.append(loop)
        new_targets.extend(links)
        new_weights.extend(links.values())
        new_offsets.append(len(new_targets))
    return new_offsets, new_targets, new_weights, new_loops, mapping


def _internal_modularity(offsets: array, weights: array, loops: list[float], m: float) -> float:
    q = 0.0
    for u, loop in enumerate(loops):
        ku = sum(weights[offsets[u]:offsets[u + 1]]) + 2.0 * loop
        q += loop / m - (ku / (2.0 * m)) ** 2
    return q


def louvain(graph: Graph, seed: int = 0) -> Partition:
    """Two-phase Louvain over the weighted graph, deterministic given a seed.

    The seed only fixes the node visiting order. Both phases run on flat
    arrays over node numbers (Graph.nodes() order); node tuples come back
    only in the returned Partition. Every degree, link and loop sum is a
    multiple of 0.5, so it is exact in any order. The reported modularity
    is cross-checked against modularity() on every run.
    """
    nodes = graph.nodes()
    if not nodes:
        raise EmptyGraph("cannot partition an empty graph")

    offsets, targets, weights = _csr(graph, nodes)
    loops = [0.0] * len(nodes)
    m = float(graph.total_weight())

    chain: Sequence[int] = range(len(nodes))  # each node's community at the current level
    if m > 0.0:
        rng = random.Random(seed)
        while True:
            com, moved = _one_level(offsets, targets, weights, loops, m, rng)
            if not moved:
                break
            offsets, targets, weights, loops, mapping = _aggregate(
                offsets, targets, weights, loops, com
            )
            chain = [mapping[c] for c in chain]
            if len(loops) == 1:
                break

    # Canonical community ids: first appearance over stable node order.
    relabel: dict[int, int] = {}
    assignment = {node: relabel.setdefault(c, len(relabel)) for node, c in zip(nodes, chain)}

    q = modularity(graph, assignment)
    if m > 0.0:
        internal = _internal_modularity(offsets, weights, loops, m)
        if abs(internal - q) > 1e-9:
            raise AssertionError(
                f"louvain bookkeeping drifted from modularity(): {internal} vs {q}"
            )
    return Partition(assignment=assignment, modularity=q)


def network_overlap(a: Graph, b: Graph) -> int:
    """Number of user nodes present in both graphs."""
    users_a = {node for node in a.nodes() if node[0] == USER}
    users_b = {node for node in b.nodes() if node[0] == USER}
    return len(users_a & users_b)


# ---------------------------------------------------------------------------
# Community summaries
# ---------------------------------------------------------------------------

@dataclass
class CommunitySummary:
    community: int
    n_users: int
    n_trends: int
    first_seen_ms: Optional[int]
    last_seen_ms: Optional[int]
    dormancy_gaps: list[tuple[int, int]]  # (user, seconds)
    dormant_users: list[int]


def community_summary(
    partition: Partition,
    instances: Mapping[tuple[date, str], TrendInstance],
    attack_times: Mapping[int, Iterable[int]],
    dormancy_s: int = 365 * 86400,
) -> list[CommunitySummary]:
    """Sizes, first/last attack participation, and per-user dormancy gaps.

    ``attack_times`` maps a user to the ms times of their attack tweets. A
    user's dormancy gap is the absolute span between their last attack and
    their last undeleted tweet anywhere in the corpus; gaps above
    ``dormancy_s`` seconds flag the user as dormant.
    """
    last_undeleted: dict[int, int] = {}
    for instance in instances.values():
        for tweet in instance.tweets:
            if tweet.id in instance.deletions:
                continue
            prior = last_undeleted.get(tweet.user_id)
            if prior is None or tweet.created_ms > prior:
                last_undeleted[tweet.user_id] = tweet.created_ms

    members: dict[int, list[Node]] = {}
    for node, community in partition.assignment.items():
        members.setdefault(community, []).append(node)

    summaries = []
    for community in sorted(members):
        nodes = members[community]
        users = [node[1] for node in nodes if node[0] == USER]
        n_trends = sum(1 for node in nodes if node[0] == TREND)
        first_seen: Optional[int] = None
        last_seen: Optional[int] = None
        last_attack: dict[int, int] = {}
        for user in users:
            for ts in attack_times.get(user, ()):
                if first_seen is None or ts < first_seen:
                    first_seen = ts
                if last_seen is None or ts > last_seen:
                    last_seen = ts
                prior = last_attack.get(user)
                if prior is None or ts > prior:
                    last_attack[user] = ts
        gaps = []
        dormant = []
        for user in sorted(last_attack):
            undeleted_at = last_undeleted.get(user)
            if undeleted_at is None:
                continue
            gap = abs(span_s(undeleted_at, last_attack[user]))
            gaps.append((user, gap))
            if gap > dormancy_s:
                dormant.append(user)
        summaries.append(
            CommunitySummary(
                community=community,
                n_users=len(users),
                n_trends=n_trends,
                first_seen_ms=first_seen,
                last_seen_ms=last_seen,
                dormancy_gaps=gaps,
                dormant_users=dormant,
            )
        )
    return summaries


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

def _render_node(node: Node) -> str:
    return str(node[1])


def write_edge_csv(handle, graph: Graph) -> None:
    writer = csv.writer(handle)
    writer.writerow(["source", "target", "weight", "source_kind", "target_kind"])
    for u, v, w in graph._iter_edges():
        writer.writerow([_render_node(u), _render_node(v), w, u[0], v[0]])


def write_partition_csv(handle, partition: Partition) -> None:
    writer = csv.writer(handle)
    writer.writerow(["node", "community"])
    for node, community in partition.assignment.items():
        writer.writerow([f"{node[0]}:{node[1]}", community])
