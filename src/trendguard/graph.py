"""
Bipartite user-trend network construction and structure analysis: k-core
filtering, single-attack noise removal, weighted Newman modularity, and a
deterministic two-phase Louvain community detection.

A graph is one immutable CSR structure, `BipartiteGraph`. A node's label is
("user", id) or ("trend", "keyword@date"), and the nodes are numbered once,
by sorting their labels on (kind, str(id)): every trend comes before every
user, and user "10" before "100" before "9". Node u's neighbors are
targets[offsets[u]:offsets[u + 1]] in ascending number, with the same slice
of weights; an edge's weight counts the qualifying tweets the user posted
into the trend. The functions below work on node numbers and map them to
labels only when they write or return.
"""

from __future__ import annotations

import csv
import random
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from datetime import date
from itertools import accumulate, chain, compress, groupby
from operator import itemgetter
from typing import Iterable, Mapping, Optional, Sequence

from .core import DELETED_LEXICON, EDGE_PREDICATES, LEXICON, UNDELETED, TrendGuardError, span_s
from .ingest import NOT_DELETED, TrendInstance

Node = tuple[str, object]  # ("user", int) | ("trend", str)

USER = "user"
TREND = "trend"


class EmptyGraph(TrendGuardError):
    """Louvain was asked to partition a graph with no nodes."""


class IncompleteAssignment(TrendGuardError):
    """A modularity computation found nodes without a community."""


@dataclass(frozen=True)
class BipartiteGraph:
    """Undirected bipartite user-trend graph with positive integer edge
    weights, as flat arrays over node numbers (see the module docstring)."""

    labels: tuple[Node, ...]
    offsets: array
    targets: array
    weights: array

    @classmethod
    def from_edges(
        cls, edges: Iterable[tuple[object, str, int]], nodes: Iterable[Node] = ()
    ) -> "BipartiteGraph":
        """The graph of (user id, trend id, weight) edges, with repeated
        pairs merged and their weights summed; ``nodes`` adds labels that
        may have no edge.

        The edges are read once into int columns, each edge linked to the
        user's edge before it. The users are then visited in node order:
        each user's edges are merged into its neighbor list and appended,
        user ascending, to the lists of its trends."""
        trends: dict[object, int] = {}  # trend id -> first-seen index
        last: dict[object, int] = {}  # user id -> index of its last edge, or -1
        edge_trend, edge_weight, prior = array("q"), array("q"), array("q")
        for user, trend, weight in edges:
            if weight < 1:
                raise ValueError("edge weight must be positive")
            prior.append(last.get(user, -1))
            last[user] = len(edge_trend)
            edge_trend.append(trends.setdefault(trend, len(trends)))
            edge_weight.append(weight)
        for kind, ident in nodes:
            if kind == TREND:
                trends.setdefault(ident, len(trends))
            elif kind == USER:
                last.setdefault(ident, -1)
            else:
                raise ValueError(f"unknown node kind: {kind!r}")

        # The trends, then the users, each by str(id): the labels'
        # (kind, str(id)) order, sorted per kind to save a key tuple a node.
        trend_ids = sorted(trends, key=str)
        trend_number = array("q", bytes(8 * len(trends)))
        for t, ident in enumerate(trend_ids):
            trend_number[trends[ident]] = t
        del trends
        user_ids = sorted(last, key=str)
        n_trends = len(trend_ids)
        n = n_trends + len(user_ids)

        offsets = array("q", bytes(8 * (n + 1)))
        user_trend, user_weight = array("q"), array("q")
        trend_users = [array("q") for _ in trend_ids]
        trend_weights = [array("q") for _ in trend_ids]
        for u, user in enumerate(user_ids, n_trends):
            pairs = []
            e = last[user]
            while e >= 0:
                pairs.append((trend_number[edge_trend[e]], edge_weight[e]))
                e = prior[e]
            if len(pairs) > 1:
                pairs.sort()
                pairs = [(t, sum(w for _, w in group))
                         for t, group in groupby(pairs, key=itemgetter(0))]
            for t, w in pairs:
                user_trend.append(t)
                user_weight.append(w)
                trend_users[t].append(u)
                trend_weights[t].append(w)
            offsets[u + 1] = len(user_trend)
        del last, edge_trend, edge_weight, prior

        # Every trend is numbered before every user, so the trends' lists
        # come first and the users' start after them.
        n_edges = len(user_trend)
        for t in range(n_trends):
            offsets[t + 1] = offsets[t] + len(trend_users[t])
        for u in range(n_trends + 1, n + 1):
            offsets[u] += n_edges
        targets, weights = array("q"), array("q")
        for t in range(n_trends):
            targets += trend_users[t]
            weights += trend_weights[t]
        targets += user_trend
        weights += user_weight
        labels = tuple(chain(((TREND, ident) for ident in trend_ids),
                             ((USER, ident) for ident in user_ids)))
        return cls(labels, offsets, targets, weights)

    @property
    def n_nodes(self) -> int:
        return len(self.labels)

    @property
    def n_edges(self) -> int:
        return len(self.targets) // 2

    @property
    def n_trends(self) -> int:
        """The trends are nodes 0 .. n_trends - 1; the users follow."""
        return bisect_left(self.labels, USER, key=itemgetter(0))

    @property
    def total_weight(self) -> int:
        # Every edge is stored once from each end.
        return sum(self.weights) // 2


def build_graph(
    instances: Mapping[tuple[date, str], TrendInstance],
    edge_predicate: str = UNDELETED,
) -> BipartiteGraph:
    """One edge per (user, trend) pair with a qualifying tweet; weight counts them.

    The "undeleted" predicate builds the interest-group network; the
    "deleted-lexicon" predicate builds the astrobot network and requires
    flagged instances.
    """
    if edge_predicate not in EDGE_PREDICATES:
        raise ValueError(f"unknown edge predicate: {edge_predicate!r}")
    lexicon = edge_predicate == DELETED_LEXICON

    def qualifying():
        for instance in instances.values():
            trend = instance.trend
            trend_id = f"{trend.keyword.normalized}@{trend.date.isoformat()}"
            if lexicon:
                rows = zip(instance.users, instance.deleted_ms, instance.flag_bytes())
                users = [user for user, deleted_ms, flags in rows
                         if deleted_ms != NOT_DELETED and flags & LEXICON]
            else:
                users = [user for user, deleted_ms in zip(instance.users, instance.deleted_ms)
                         if deleted_ms == NOT_DELETED]
            for user in users:
                yield user, trend_id, 1

    return BipartiteGraph.from_edges(qualifying())


def _keep(graph: BipartiteGraph, keep: Sequence[bool]) -> BipartiteGraph:
    """The subgraph induced by the nodes u with keep[u], renumbered in the
    same order, so each neighbor list stays ascending."""
    number = list(accumulate(keep, initial=0))  # u's number among the kept nodes
    offsets, targets, weights = graph.offsets, graph.targets, graph.weights
    new_offsets = array("q", [0])
    new_targets = array("q")
    new_weights = array("q")
    for u in compress(range(graph.n_nodes), keep):
        for i in range(offsets[u], offsets[u + 1]):
            v = targets[i]
            if keep[v]:
                new_targets.append(number[v])
                new_weights.append(weights[i])
        new_offsets.append(len(new_targets))
    return BipartiteGraph(tuple(compress(graph.labels, keep)), new_offsets, new_targets,
                          new_weights)


def k_core(graph: BipartiteGraph, k: int) -> BipartiteGraph:
    """Maximal subgraph where every node has degree >= k, by iterative peeling."""
    if k < 1:
        raise ValueError("k must be at least 1")
    offsets, targets = graph.offsets, graph.targets
    degree = [offsets[u + 1] - offsets[u] for u in range(graph.n_nodes)]
    keep = [True] * graph.n_nodes
    stack = [u for u, deg in enumerate(degree) if deg < k]
    while stack:
        u = stack.pop()
        if not keep[u]:
            continue
        keep[u] = False
        for v in targets[offsets[u]:offsets[u + 1]]:
            if keep[v]:
                degree[v] -= 1
                if degree[v] < k:
                    stack.append(v)
    return _keep(graph, keep)


def single_attack_filter(graph: BipartiteGraph) -> BipartiteGraph:
    """Drop users linked to a single trend, then trends left isolated: one
    mask keeps the users of two trends or more and the trends they link."""
    offsets, targets = graph.offsets, graph.targets
    linked = [offsets[u + 1] - offsets[u] >= 2 for u in range(graph.n_nodes)]
    n_trends = graph.n_trends
    trends = [any(linked[v] for v in targets[offsets[t]:offsets[t + 1]])
              for t in range(n_trends)]
    return _keep(graph, trends + linked[n_trends:])


# ---------------------------------------------------------------------------
# Modularity and Louvain
# ---------------------------------------------------------------------------

@dataclass
class Partition:
    labels: Sequence[Node]  # the partitioned graph's
    communities: array  # communities[u] is node u's community
    modularity: float

    @property
    def assignment(self) -> dict[Node, int]:
        """Each node's community by label, in node order."""
        return dict(zip(self.labels, self.communities))


def modularity(graph: BipartiteGraph, communities: Sequence[int]) -> float:
    """Weighted Newman modularity; ``communities[u]`` is node u's community."""
    if len(communities) != graph.n_nodes:
        raise IncompleteAssignment(
            f"{len(communities)} communities given for {graph.n_nodes} nodes"
        )
    m = float(graph.total_weight)
    if m == 0.0:
        return 0.0
    offsets, targets, weights = graph.offsets, graph.targets, graph.weights
    # Integer weights: the sums are exact in any order of the adjacency.
    intra: dict[int, int] = {}  # twice the intra-community weight
    degree_sum: dict[int, int] = {}
    for u, c in enumerate(communities):
        degree_sum[c] = degree_sum.get(c, 0) + sum(weights[offsets[u]:offsets[u + 1]])
        for i in range(offsets[u], offsets[u + 1]):
            if communities[targets[i]] == c:
                intra[c] = intra.get(c, 0) + weights[i]
    q = 0.0
    for c in sorted(degree_sum):
        q += intra.get(c, 0) / (2.0 * m) - (degree_sum[c] / (2.0 * m)) ** 2
    return q


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


def louvain(graph: BipartiteGraph, seed: int = 0) -> Partition:
    """Two-phase Louvain over the weighted graph, deterministic given a seed.

    The seed only fixes the node visiting order. The first level runs on
    the graph's own arrays. Every degree, link and loop sum is a multiple
    of 0.5, so it is exact in any order. The reported modularity is
    cross-checked against modularity() on every run.
    """
    if not graph.n_nodes:
        raise EmptyGraph("cannot partition an empty graph")

    offsets, targets, weights = graph.offsets, graph.targets, graph.weights
    loops = [0.0] * graph.n_nodes
    m = float(graph.total_weight)

    chain: Sequence[int] = range(graph.n_nodes)  # each node's community at the current level
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

    # Canonical community ids: first appearance over node numbers.
    relabel: dict[int, int] = {}
    communities = array("q", [relabel.setdefault(c, len(relabel)) for c in chain])

    q = modularity(graph, communities)
    if m > 0.0:
        internal = _internal_modularity(offsets, weights, loops, m)
        if abs(internal - q) > 1e-9:
            raise AssertionError(
                f"louvain bookkeeping drifted from modularity(): {internal} vs {q}"
            )
    return Partition(labels=graph.labels, communities=communities, modularity=q)


def network_overlap(a: BipartiteGraph, b: BipartiteGraph) -> int:
    """Number of user nodes present in both graphs."""
    return len(set(a.labels[a.n_trends:]).intersection(b.labels[b.n_trends:]))


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
    dormancy_s: int = 365 * 86400,
) -> list[CommunitySummary]:
    """Sizes, first/last attack participation, and per-user dormancy gaps.

    A user's attack tweets are their deleted lexicon tweets: the rows of
    ``instances`` with a deletion and the core.LEXICON flag, so the join
    needs a flagger. A community is first and last seen at the earliest
    and latest creation of its users' attack tweets. A user's dormancy gap
    is the absolute span between their last attack and their last
    undeleted tweet anywhere in the corpus; gaps above ``dormancy_s``
    seconds flag the user as dormant.
    """
    first_attack: dict[int, int] = {}
    last_attack: dict[int, int] = {}
    for instance in instances.values():
        for user, created_ms, deleted_ms, flags in zip(instance.users, instance.created_ms,
                                                       instance.deleted_ms, instance.flag_bytes()):
            if deleted_ms != NOT_DELETED and flags & LEXICON:
                first_attack[user] = min(created_ms, first_attack.get(user, created_ms))
                last_attack[user] = max(created_ms, last_attack.get(user, created_ms))
    labels = partition.labels
    # A last undeleted tweet is read only for the partition's attackers.
    attackers = {ident for kind, ident in labels if kind == USER and ident in last_attack}
    last_undeleted: dict[int, int] = {}
    for instance in instances.values():
        for user, created_ms, deleted_ms in zip(instance.users, instance.created_ms,
                                                instance.deleted_ms):
            if user in attackers and deleted_ms == NOT_DELETED:
                last_undeleted[user] = max(created_ms, last_undeleted.get(user, created_ms))

    communities = partition.communities
    members = sorted(range(len(communities)), key=communities.__getitem__)
    summaries = []
    for community, group in groupby(members, key=communities.__getitem__):
        n_users = n_trends = 0
        own = []
        for u in group:
            kind, user = labels[u]
            if kind == TREND:
                n_trends += 1
                continue
            n_users += 1
            if user in attackers:
                own.append(user)
        own.sort()
        gaps = []
        dormant = []
        for user in own:
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
                n_users=n_users,
                n_trends=n_trends,
                first_seen_ms=min(map(first_attack.__getitem__, own), default=None),
                last_seen_ms=max(map(last_attack.__getitem__, own), default=None),
                dormancy_gaps=gaps,
                dormant_users=dormant,
            )
        )
    return summaries


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

def write_edge_csv(handle, graph: BipartiteGraph) -> None:
    """Each edge once: every node's neighbors with a higher number."""
    writer = csv.writer(handle)
    writer.writerow(["source", "target", "weight", "source_kind", "target_kind"])
    labels, offsets, targets, weights = graph.labels, graph.offsets, graph.targets, graph.weights
    for u, (kind, ident) in enumerate(labels):
        for i in range(offsets[u], offsets[u + 1]):
            v = targets[i]
            if v > u:
                writer.writerow([ident, labels[v][1], weights[i], kind, labels[v][0]])


def write_partition_csv(handle, partition: Partition) -> None:
    writer = csv.writer(handle)
    writer.writerow(["node", "community"])
    for (kind, ident), community in zip(partition.labels, partition.communities):
        writer.writerow([f"{kind}:{ident}", community])
