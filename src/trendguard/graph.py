"""
Bipartite user-trend network construction and structure analysis: k-core
filtering, single-attack noise removal, weighted Newman modularity, and a
deterministic two-phase Louvain community detection.

A graph is one immutable CSR structure, `BipartiteGraph`. A node's label is
("user", id) or ("trend", "keyword@date"), and the nodes are numbered once,
in the order of their labels on (kind, str(id)): every trend comes before
every user, and user "10" before "100" before "9". The graph keeps the ids
as two columns, trend_ids and user_ids (an int64 array when every user id
is an int), so node t < n_trends is trend_ids[t] and node u >= n_trends is
user_ids[u - n_trends]. Node u's neighbors are
targets[offsets[u]:offsets[u + 1]] in ascending number, with the same slice
of weights; an edge's weight counts the qualifying tweets the user posted
into the trend. The functions below work on node numbers, hold their
per-node state in arrays, and read the id columns only when they write or
return.
"""

from __future__ import annotations

import csv
import heapq
import random
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from datetime import date
from itertools import accumulate, chain, compress, groupby, islice, repeat
from operator import itemgetter
from typing import Iterable, Mapping, Optional, Sequence

from .core import DELETED_LEXICON, EDGE_PREDICATES, LEXICON, UNDELETED, TrendGuardError, span_s
from .ingest import NOT_DELETED, TrendInstance

Node = tuple[str, object]  # ("user", int) | ("trend", str)

USER = "user"
TREND = "trend"

_INT64 = range(-2**63, 2**63)


class EmptyGraph(TrendGuardError):
    """Louvain was asked to partition a graph with no nodes."""


class IncompleteAssignment(TrendGuardError):
    """A modularity computation found nodes without a community."""


@dataclass(frozen=True)
class BipartiteGraph:
    """Undirected bipartite user-trend graph with positive integer edge
    weights, as flat arrays over node numbers (see the module docstring)."""

    trend_ids: tuple
    user_ids: Sequence  # array("q") of int ids, else a tuple
    offsets: array
    targets: array
    weights: array

    @classmethod
    def from_edges(
        cls, edges: Iterable[tuple[object, str, int]], nodes: Iterable[Node] = ()
    ) -> "BipartiteGraph":
        """The graph of (user id, trend id, weight) edges, with repeated
        pairs merged and their weights summed; ``nodes`` adds labels that
        may have no edge. Distinct user ids must print apart (a ValueError
        names two that do not); distinct ints and distinct strs always do.

        The edges are read once into one user list and one weight column
        per trend; `_build` numbers the nodes from them."""
        trends: dict[object, tuple[list, array]] = {}  # in first-seen order
        for user, trend, weight in edges:
            if weight < 1:
                raise ValueError("edge weight must be positive")
            users, weights = trends.get(trend) or trends.setdefault(trend, ([], array("q")))
            users.append(user)
            weights.append(weight)
        isolated = []
        for kind, ident in nodes:
            if kind == TREND:
                trends.setdefault(ident, ([], array("q")))
            elif kind == USER:
                isolated.append(ident)
            else:
                raise ValueError(f"unknown node kind: {kind!r}")
        return _build(list(trends), [users for users, _ in trends.values()],
                      [weights for _, weights in trends.values()], isolated)

    @property
    def n_nodes(self) -> int:
        return len(self.trend_ids) + len(self.user_ids)

    @property
    def n_edges(self) -> int:
        return len(self.targets) // 2

    @property
    def n_trends(self) -> int:
        """The trends are nodes 0 .. n_trends - 1; the users follow."""
        return len(self.trend_ids)

    @property
    def labels(self) -> tuple[Node, ...]:
        """Each node's label, in node order, built anew on each access for
        callers that want labels; no stage of the pipeline reads it."""
        return tuple(chain(((TREND, ident) for ident in self.trend_ids),
                           ((USER, ident) for ident in self.user_ids)))

    @property
    def total_weight(self) -> int:
        # Every edge is stored once from each end.
        return sum(self.weights) // 2


def _append_id(column, ident):
    """``column`` with ``ident`` appended: an int64 array while every id is
    an int that fits one, else a list holding the ids themselves."""
    if type(column) is array:
        if type(ident) is int and ident in _INT64:
            column.append(ident)
            return column
        column = list(column)
    column.append(ident)
    return column


def _str_of_first(item: tuple) -> str:
    return str(item[0])


def _build(trend_ids: list, users: list, weights: Optional[list[array]],
           isolated: Sequence = ()) -> BipartiteGraph:
    """The graph that links trend_ids[t] to each user in the column
    users[t], with the weight at the same position of weights[t] (1 each
    when ``weights`` is None); a user listed twice under one trend gets one
    edge of the summed weight. ``isolated`` adds users that may have no
    edge. The columns are consumed: each is dropped once it is read.

    No dict or str is held per user. Each trend's column is sorted on
    str(user) and merged into distinct users, one trend at a time; the
    trends are then merged on str(user) by heapq.merge, so the users come
    in node order and each user's trends in ascending number. Each user is
    numbered as the merge meets it, and its edges are written into
    preallocated arrays: the trends' lists first, then the users'."""
    order = sorted(range(len(trend_ids)), key=lambda t: str(trend_ids[t]))
    n_trends = len(order)
    distinct: list = []  # each trend's users once, in str order
    summed: list[array] = []  # and the sum of each one's weights
    for t in order:
        column = users[t]
        pairs = sorted(zip(column, repeat(1) if weights is None else weights[t]),
                       key=_str_of_first)
        users[t] = None
        if weights is not None:
            weights[t] = None
        column = array("q") if type(column) is array else []
        total = array("q")
        for user, group in groupby(pairs, key=itemgetter(0)):
            column.append(user)
            total.append(sum(map(itemgetter(1), group)))
        del pairs
        distinct.append(column)
        summed.append(total)

    offsets = array("q", accumulate(map(len, distinct), initial=0))
    n_edges = offsets[-1]
    targets = array("q", bytes(16 * n_edges))
    edge_weights = array("q", bytes(16 * n_edges))
    fill = offsets[:-1]  # the next free slot of each trend's list
    streams = [zip(column, repeat(t), total)
               for t, (column, total) in enumerate(zip(distinct, summed))]
    if isolated:
        streams.append(zip(sorted(isolated, key=str), repeat(-1), repeat(0)))
    user_ids = array("q")
    last, last_name = object(), None  # no user yet
    k = n_edges  # the next free slot of the users' lists
    for user, t, w in heapq.merge(*streams, key=_str_of_first):
        if user != last:
            # Node order is str order, so a user's rows meet only if no
            # other user prints as it does.
            name = str(user)
            if name == last_name:
                raise ValueError(f"user ids {last!r} and {user!r} print alike")
            last_name = name
            if user_ids:
                offsets.append(k)
            user_ids = _append_id(user_ids, user)
            u = n_trends + len(user_ids) - 1
            last = user
        if t >= 0:
            i = fill[t]
            fill[t] = i + 1
            targets[i] = u
            edge_weights[i] = w
            targets[k] = t
            edge_weights[k] = w
            k += 1
    if user_ids:
        offsets.append(k)
    return BipartiteGraph(tuple(trend_ids[t] for t in order),
                          user_ids if type(user_ids) is array else tuple(user_ids),
                          offsets, targets, edge_weights)


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
    trend_ids, users = [], []
    for instance in instances.values():
        if lexicon:
            qualifies = (deleted_ms != NOT_DELETED and flags & LEXICON
                         for deleted_ms, flags in zip(instance.deleted_ms, instance.flag_bytes()))
        else:
            qualifies = map(NOT_DELETED.__eq__, instance.deleted_ms)
        column = array("q", compress(instance.users, qualifies))
        if column:
            trend = instance.trend
            trend_ids.append(f"{trend.keyword.normalized}@{trend.date.isoformat()}")
            users.append(column)
    return _build(trend_ids, users, None)


def _keep(graph: BipartiteGraph, keep: Sequence[int]) -> BipartiteGraph:
    """The subgraph induced by the nodes u with keep[u], renumbered in the
    same order, so each neighbor list stays ascending."""
    number = array("q", accumulate(keep, initial=0))  # u's number among the kept nodes
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
    n_trends = graph.n_trends
    users = compress(graph.user_ids, islice(keep, n_trends, None))
    return BipartiteGraph(tuple(compress(graph.trend_ids, keep)),
                          array("q", users) if type(graph.user_ids) is array else tuple(users),
                          new_offsets, new_targets, new_weights)


def k_core(graph: BipartiteGraph, k: int) -> BipartiteGraph:
    """Maximal subgraph where every node has degree >= k, by iterative peeling."""
    if k < 1:
        raise ValueError("k must be at least 1")
    offsets, targets = graph.offsets, graph.targets
    degree = array("q", (offsets[u + 1] - offsets[u] for u in range(graph.n_nodes)))
    keep = bytearray(b"\x01") * graph.n_nodes
    stack = array("q", (u for u, deg in enumerate(degree) if deg < k))
    while stack:
        u = stack.pop()
        if not keep[u]:
            continue
        keep[u] = 0
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
    keep = bytearray(offsets[u + 1] - offsets[u] >= 2 for u in range(graph.n_nodes))
    for t in range(graph.n_trends):
        keep[t] = any(keep[v] for v in targets[offsets[t]:offsets[t + 1]])
    return _keep(graph, keep)


# ---------------------------------------------------------------------------
# Modularity and Louvain
# ---------------------------------------------------------------------------

@dataclass
class Partition:
    graph: BipartiteGraph  # the partitioned graph
    communities: array  # communities[u] is node u's community
    modularity: float

    @property
    def assignment(self) -> dict[Node, int]:
        """Each node's community by label, in node order."""
        return dict(zip(self.graph.labels, self.communities))


def _grouped(communities: Sequence[int], count: int) -> tuple[array, array]:
    """The indices grouped by community, ascending within each: community
    c, in [0, count), holds order[starts[c]:starts[c + 1]]. A counting
    pass, so it equals a stable sort of the indices by community."""
    starts = array("q", bytes(8 * (count + 1)))
    for c in communities:
        starts[c + 1] += 1
    for c in range(count):
        starts[c + 1] += starts[c]
    fill = starts[:-1]
    order = array("q", bytes(8 * len(communities)))
    for u, c in enumerate(communities):
        order[fill[c]] = u
        fill[c] += 1
    return order, starts


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
    offsets: array, targets: array, weights: array, loops: array, m: float,
    rng: random.Random,
) -> tuple[array, bool]:
    """Local-move phase: greedily move nodes to the neighbor community with
    the best modularity gain until no move improves. Ties between equally
    good moves go to the lowest community id; ties with staying put stay.
    """
    n = len(loops)
    com = array("q", range(n))
    order = array("q", com)
    rng.shuffle(order)
    degree = array("d", (sum(weights[offsets[u]:offsets[u + 1]]) + 2.0 * loops[u]
                         for u in range(n)))
    tot = array("d", degree)
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
    offsets: array, targets: array, weights: array, loops: array, com: array,
) -> tuple[array, array, array, array, array]:
    """One node per community, numbered by first appearance over the node
    numbers. Returns the new graph's arrays and loops, and each old node's
    new number."""
    relabel: dict[int, int] = {}
    mapping = array("q", (relabel.setdefault(c, len(relabel)) for c in com))
    new_offsets = array("q", [0])
    new_targets = array("q")
    new_weights = array("d")
    new_loops = array("d")
    members, starts = _grouped(mapping, len(relabel))
    for cu in range(len(relabel)):
        loop = 0.0
        links: dict[int, float] = {}
        for u in members[starts[cu]:starts[cu + 1]]:
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


def _internal_modularity(offsets: array, weights: array, loops: array, m: float) -> float:
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
    loops = array("d", bytes(8 * graph.n_nodes))
    m = float(graph.total_weight)

    # Each node's community at the current level.
    chain = array("q", range(graph.n_nodes))
    if m > 0.0:
        rng = random.Random(seed)
        while True:
            com, moved = _one_level(offsets, targets, weights, loops, m, rng)
            if not moved:
                break
            offsets, targets, weights, loops, mapping = _aggregate(
                offsets, targets, weights, loops, com
            )
            for u, c in enumerate(chain):
                chain[u] = mapping[c]
            if len(loops) == 1:
                break

    # Canonical community ids: first appearance over node numbers.
    relabel = {}
    communities = array("q", (relabel.setdefault(c, len(relabel)) for c in chain))

    q = modularity(graph, communities)
    if m > 0.0:
        internal = _internal_modularity(offsets, weights, loops, m)
        if abs(internal - q) > 1e-9:
            raise AssertionError(
                f"louvain bookkeeping drifted from modularity(): {internal} vs {q}"
            )
    return Partition(graph=graph, communities=communities, modularity=q)


def network_overlap(a: BipartiteGraph, b: BipartiteGraph) -> int:
    """Number of user nodes present in both graphs."""
    return len(set(a.user_ids).intersection(b.user_ids))


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
    # Each attacker's number, and by it the first and last creation of
    # their attack tweets and of their last undeleted tweet (NOT_DELETED,
    # the least int64, when they have none).
    attacker: dict[int, int] = {}
    first_attack, last_attack, last_undeleted = array("q"), array("q"), array("q")
    for instance in instances.values():
        for user, created_ms, deleted_ms, flags in zip(instance.users, instance.created_ms,
                                                       instance.deleted_ms, instance.flag_bytes()):
            if deleted_ms != NOT_DELETED and flags & LEXICON:
                a = attacker.setdefault(user, len(attacker))
                if a == len(first_attack):
                    first_attack.append(created_ms)
                    last_attack.append(created_ms)
                    last_undeleted.append(NOT_DELETED)
                elif created_ms < first_attack[a]:
                    first_attack[a] = created_ms
                elif created_ms > last_attack[a]:
                    last_attack[a] = created_ms
    for instance in instances.values():
        for user, created_ms, deleted_ms in zip(instance.users, instance.created_ms,
                                                instance.deleted_ms):
            if deleted_ms == NOT_DELETED:
                a = attacker.get(user)
                if a is not None and created_ms > last_undeleted[a]:
                    last_undeleted[a] = created_ms

    graph = partition.graph
    communities = partition.communities
    members, starts = _grouped(communities, max(communities, default=-1) + 1)
    n_trends, user_ids = graph.n_trends, graph.user_ids
    summaries = []
    for community in range(len(starts) - 1):
        group = members[starts[community]:starts[community + 1]]
        if not group:
            continue
        # The members ascend, and the trends are the nodes below n_trends.
        n_trends_in = bisect_left(group, n_trends)
        own = sorted(filter(attacker.__contains__,
                            (user_ids[u - n_trends] for u in group[n_trends_in:])))
        gaps = []
        dormant = []
        for user in own:
            a = attacker[user]
            if last_undeleted[a] == NOT_DELETED:
                continue
            gap = abs(span_s(last_undeleted[a], last_attack[a]))
            gaps.append((user, gap))
            if gap > dormancy_s:
                dormant.append(user)
        summaries.append(
            CommunitySummary(
                community=community,
                n_users=len(group) - n_trends_in,
                n_trends=n_trends_in,
                first_seen_ms=min((first_attack[attacker[user]] for user in own), default=None),
                last_seen_ms=max((last_attack[attacker[user]] for user in own), default=None),
                dormancy_gaps=gaps,
                dormant_users=dormant,
            )
        )
    return summaries


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

def write_edge_csv(handle, graph: BipartiteGraph) -> None:
    """Each edge once, from its trend: every trend's neighbors are users."""
    writer = csv.writer(handle)
    writer.writerow(["source", "target", "weight", "source_kind", "target_kind"])
    user_ids, n_trends = graph.user_ids, graph.n_trends
    offsets, targets, weights = graph.offsets, graph.targets, graph.weights
    for t, trend in enumerate(graph.trend_ids):
        writer.writerows([trend, user_ids[targets[i] - n_trends], weights[i], TREND, USER]
                         for i in range(offsets[t], offsets[t + 1]))


def write_partition_csv(handle, partition: Partition) -> None:
    writer = csv.writer(handle)
    writer.writerow(["node", "community"])
    graph, communities = partition.graph, partition.communities
    writer.writerows([f"{TREND}:{ident}", community]
                     for ident, community in zip(graph.trend_ids, communities))
    writer.writerows([f"{USER}:{ident}", community]
                     for ident, community in zip(graph.user_ids,
                                                 islice(communities, graph.n_trends, None)))
