"""Reference oracles for the trend-day join: one keyword tested against one
text at a time, and one trend-day joined against an event collection; for
`scan`: the hashtag-days of an event collection grouped and scored in one
loop; for the simulator's archive lines: one event built as its archive
record; for the parser's ids and instants: the int64 a field value
spells, by one regular expression; for the graph: a dict of dicts keyed
by node tuples (`Graph`),
its k-core and single-attack filters, modularity over a node-keyed
assignment, and Louvain's two phases over dicts keyed by node; for the
attack windows: the sweep that keeps every run as a frozenset and tests
maximality by subset; for the lexicon classifier: the keyword and emoji
stripping that folds each token on its own, and the lexicon rule that
always strips first; for the success metrics: a trend-day's lifecycle
found by reading every epoch from the start of its day; for the stages
after the join: the Tweet-and-dict path, where an instance holds whole
Tweets (`TweetInstance`) and a TweetFlags dict by id is computed after the
join, with the features, attack candidates and astrobot labels that read
them; for the file join's raw-line test: the deletion test and the
creation test as separate calls; for the parser and the flags: a line
parsed into a frozen Tweet or Deletion through one call per layer and
field, read_stream counting as it goes, and a tweet's flag byte worked out
per call; and for the toy trend oracle: the grouping that keeps each
keyword's matched events whole, and the ranking that splits them again
into (second, user) pairs and deletion seconds.

The library joins every trend-day in one pass through a keyword index
(`trendguard.ingest.build_trend_instances`), finds `scan`'s hashtag-days
through the same file join (`build_instances_from_files` with no trend
list), writes archive lines from a fixed template
(`trendguard.simulator.write_stream_jsonl`), keeps the graph as flat
arrays over node numbers (`trendguard.graph.BipartiteGraph`), on which it
filters and runs Louvain, keeps each run of the window sweep as a few
ints and decides maximality on their bounds
(`trendguard.detector.detect_attack_windows`), and folds a tweet's text
once (`trendguard.classify._stripper`), rejects a hashtag keyword's
non-lexicon text on one character-class search
(`trendguard.classify._lexicon_test`), looks for a trend-day's entry
among its day's epochs only (`trendguard.metrics.trend_day_lifecycles`),
flags each tweet as the join files it and keeps a trend-day as int
columns (`trendguard.ingest.TrendInstance`), tests each raw line in one
call (`trendguard.ingest._Join.keep`), decodes each kept line once into
the Tweet the join files (`trendguard.ingest.parse_stream_line`) and flags
it with one function per keyword (`trendguard.classify.flags_for_instance`),
and files each keyword's share of a simulated stream as int columns that
the toy oracle ranks (`trendguard.simulator.KeywordStream`);
the tests check each
against these direct definitions. The join oracles keep their own instance
builder and deletion dict (`_InstanceBuilder`, `_note_deletion`), so they
share no join code with the library.
"""

from __future__ import annotations

import io
import json
import random
import re
import statistics
from array import array
from bisect import bisect_left, bisect_right
from contextlib import ExitStack
from dataclasses import dataclass, field
from datetime import date
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from trendguard.core import (
    DEFAULT_LOCALE,
    DEFAULT_TZ_OFFSET,
    HASHTAG,
    Keyword,
    fold_case,
    local_day,
)
from trendguard import classify
from trendguard.classify import _EMOJI_RE, _LEXICON_CHARS
from trendguard.core import LEXICON, RETWEET, SINGLE_ENGAGEMENT, span_s
from trendguard.detector import (
    AttackEvent,
    AttackParams,
    DetectorConfig,
    Verdict,
    classify_trend,
)
from trendguard.features import FeatureVector, _ratio, minute_entropy
from trendguard.graph import EmptyGraph, IncompleteAssignment, TREND, USER
from trendguard.ingest import (
    NOT_DELETED,
    BadTimestamp,
    Deletion,
    JoinedTweet,
    MalformedLine,
    ParseStats,
    TrendDay,
    TrendEpoch,
    Tweet,
    TweetEvent,
    _ESCAPED_BYTE_RE,
    _clean_token,
    _escape_sensitive,
    _int64,
    _keyword_index,
    _open_source,
    _parse_created_at,
    day_number_to_date,
    extract_hashtags,
    text_tokens,
)
from trendguard.metrics import NeverTrended, TrendLifecycle
from trendguard.simulator import (
    ORACLE_PENALTY_WEIGHT,
    ORACLE_TOP_K,
    ORACLE_WINDOW_S,
    GeoTweet,
    format_created_at,
)


@dataclass
class TweetInstance:
    """A trend-day joined with its whole Tweets and a deletion dict, as the
    library kept it before its instances became int columns."""

    trend: TrendDay
    tweets: list[Tweet] = field(default_factory=list)
    deletions: dict[int, int] = field(default_factory=dict)
    invalid_deletions: int = 0

    @property
    def keyword(self) -> Keyword:
        return self.trend.keyword


class _InstanceBuilder:
    """Accumulates matched tweets for one trend-day."""

    def __init__(self, trend: TrendDay):
        self.trend = trend
        self.day_number = trend.day_number()
        self.tweets: dict[int, Tweet] = {}

    def offer_tweet(self, tweet: Tweet) -> None:
        self.tweets.setdefault(tweet.id, tweet)

    def build(self, deletions: dict[int, int]) -> TweetInstance:
        instance = TweetInstance(trend=self.trend)
        instance.tweets = sorted(self.tweets.values(), key=lambda t: (t.created_ms, t.id))
        for tweet in instance.tweets:
            when = deletions.get(tweet.id)
            if when is None:
                continue
            if when < tweet.created_ms:
                instance.invalid_deletions += 1
                continue
            instance.deletions[tweet.id] = when
        return instance


def _note_deletion(pending: dict[int, int], tweet_id: int, when: int) -> None:
    prior = pending.get(tweet_id)
    if prior is None or when < prior:
        pending[tweet_id] = when


def _ngram_occurs(tokens: Sequence[str], ngram: Sequence[str]) -> bool:
    n = len(ngram)
    if n == 0 or n > len(tokens):
        return False
    first = ngram[0]
    for i in range(len(tokens) - n + 1):
        if tokens[i] == first and list(tokens[i : i + n]) == list(ngram):
            return True
    return False


def match_keyword(text: str, keyword: Keyword, locale: str = DEFAULT_LOCALE) -> bool:
    """True when the tweet text contains the keyword.

    Hashtag keywords match only the exact hashtag token (case-folded), so
    '#tag' does not match '#tagging'. N-gram keywords match at token
    boundaries, never as substrings; the keyword's tokens are cleaned as
    the text's are, so one with no token left matches nothing.
    """
    if keyword.kind == HASHTAG:
        return keyword.normalized in extract_hashtags(text, locale)
    return _ngram_occurs(text_tokens(text, locale), text_tokens(keyword.normalized, locale))


def _tweet_in_day_window(tweet: Tweet, trend_day_number: int, tz_offset: int) -> bool:
    day = local_day(tweet.created_ms, tz_offset)
    return day == trend_day_number or day == trend_day_number - 1


def build_trend_instance(
    trend: TrendDay,
    events: Iterable[TweetEvent],
    locale: str = DEFAULT_LOCALE,
    tz_offset: int = DEFAULT_TZ_OFFSET,
) -> TweetInstance:
    """Join one trend-day against an event collection.

    The result is a pure function of the event *set*: shuffling the input
    yields an identical instance. Tweets qualify when their text matches the
    keyword and they fall on the trend's local day or the day before;
    deletion notices attach by tweet id wherever they occur in the input.
    """
    builder = _InstanceBuilder(trend)
    keyword = trend.keyword
    pending: dict[int, int] = {}
    for event in events:
        if isinstance(event, Tweet):
            if _tweet_in_day_window(event, builder.day_number, tz_offset) and match_keyword(
                event.text, keyword, locale
            ):
                builder.offer_tweet(event)
        elif isinstance(event, Deletion):
            _note_deletion(pending, event.tweet_id, event.time_ms)
    return builder.build(pending)


def scan_candidates(
    events: Iterable[TweetEvent],
    known_trends: set[tuple[date, str]],
    config: DetectorConfig,
    locale: str = DEFAULT_LOCALE,
    min_tweets: int = 4,
    tz_offset: int = DEFAULT_TZ_OFFSET,
) -> list[Verdict]:
    """Classify hashtag-days that never made the trends list.

    Hashtags are grouped per local day; groups with at least ``min_tweets``
    tweets that were not trending that day or the next are run through the
    feature pipeline. Positive verdicts are unsuccessful attacks.
    """
    builders: dict[tuple[int, str], _InstanceBuilder] = {}
    deletions: dict[int, int] = {}
    for event in events:
        if isinstance(event, Tweet):
            day = local_day(event.created_ms, tz_offset)
            for tag in extract_hashtags(event.text, locale):
                builder = builders.get((day, tag))
                if builder is None:
                    trend = TrendDay(date=day_number_to_date(day),
                                     keyword=Keyword("#" + tag, tag, HASHTAG))
                    builder = builders[(day, tag)] = _InstanceBuilder(trend)
                builder.offer_tweet(event)
        elif isinstance(event, Deletion):
            _note_deletion(deletions, event.tweet_id, event.time_ms)

    verdicts = []
    for (day, tag), builder in sorted(builders.items()):
        if len(builder.tweets) < min_tweets:
            continue
        trend = builder.trend
        next_date = day_number_to_date(day + 1)
        if (trend.date, tag) in known_trends or (next_date, tag) in known_trends:
            continue
        verdicts.append(score_instance(builder.build(deletions), config, locale))
    return verdicts


def event_to_record(event: TweetEvent) -> dict:
    if isinstance(event, Deletion):
        return {
            "delete": {
                "status": {
                    "id": event.tweet_id,
                    "id_str": str(event.tweet_id),
                    "user_id": event.user_id,
                    "user_id_str": str(event.user_id),
                },
                "timestamp_ms": str(event.time_ms),
            }
        }
    record = {
        "created_at": format_created_at(event.created_ms),
        "id": event.id,
        "id_str": str(event.id),
        "text": event.text,
        "user": {"id": event.user_id, "id_str": str(event.user_id)},
        "entities": {
            "hashtags": [{"text": tag} for tag in event.hashtags],
            "user_mentions": [{"id": m, "id_str": str(m)} for m in event.mentions],
            "urls": [{"url": f"https://t.co/x{i}"} for i in range(event.urls)],
        },
        "timestamp_ms": str(event.created_ms),
        "lang": "tr",
        "source": '<a href="https://twitter.com/download">Twitter for Android</a>',
    }
    if event.is_retweet and not event.text.startswith("RT @"):
        record["retweeted_status"] = {"id": event.id - 1}
    if event.is_reply:
        record["in_reply_to_status_id"] = event.id - 1
    if isinstance(event, GeoTweet):
        record["geo"] = {"type": "Point", "coordinates": list(event.geo)}
    return record


def int64_field(value) -> Optional[int]:
    """The id or instant a status's or notice's field holds: the int of a
    JSON integer or of an optional '-' and ASCII digits, when it lies
    strictly inside int64's range; None for any other value."""
    if isinstance(value, str) and re.fullmatch("-?[0-9]+", value):
        value = int(value)
    if isinstance(value, int) and not isinstance(value, bool) and -2**63 < value < 2**63:
        return value
    return None


Node = tuple[str, object]  # ("user", int) | ("trend", str)


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


def graph_from_edges(edges, nodes=()) -> Graph:
    """The graph of (user id, trend id, weight) edges plus the ``nodes``
    labels, built node by node and edge by edge."""
    graph = Graph()
    for node in nodes:
        graph.add_node(node)
    for user, trend, weight in edges:
        graph.add_node((USER, user))
        graph.add_node((TREND, trend))
        graph.add_edge((USER, user), (TREND, trend), weight)
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


def _one_level(
    adj: dict[int, dict[int, float]],
    loops: dict[int, float],
    m: float,
    rng: random.Random,
) -> tuple[dict[int, int], bool]:
    """Local-move phase: greedily move nodes to the neighbor community with
    the best modularity gain until no move improves. Ties between equally
    good moves go to the lowest community id; ties with staying put stay.
    """
    order = sorted(adj)
    rng.shuffle(order)
    degree = {u: sum(adj[u].values()) + 2.0 * loops.get(u, 0.0) for u in adj}
    com = {u: u for u in adj}
    tot = {u: degree[u] for u in adj}
    moved_any = False
    while True:
        moves = 0
        for u in order:
            cu = com[u]
            ku = degree[u]
            links: dict[int, float] = {}
            for v, w in adj[u].items():
                cv = com[v]
                links[cv] = links.get(cv, 0.0) + w
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
    adj: dict[int, dict[int, float]],
    loops: dict[int, float],
    com: Mapping[int, int],
) -> tuple[dict[int, dict[int, float]], dict[int, float], dict[int, int]]:
    relabel: dict[int, int] = {}
    for u in sorted(adj):
        c = com[u]
        if c not in relabel:
            relabel[c] = len(relabel)
    new_adj: dict[int, dict[int, float]] = {relabel[c]: {} for c in relabel}
    new_loops: dict[int, float] = {relabel[c]: 0.0 for c in relabel}
    for u, nbrs in adj.items():
        cu = relabel[com[u]]
        new_loops[cu] += loops.get(u, 0.0)
        for v, w in nbrs.items():
            cv = relabel[com[v]]
            if cu == cv:
                # Each undirected edge is seen from both endpoints.
                new_loops[cu] += w / 2.0
            else:
                new_adj[cu][cv] = new_adj[cu].get(cv, 0.0) + w
    mapping = {u: relabel[com[u]] for u in adj}
    return new_adj, new_loops, mapping


def _internal_modularity(
    adj: dict[int, dict[int, float]], loops: dict[int, float], m: float
) -> float:
    q = 0.0
    for u in adj:
        ku = sum(adj[u].values()) + 2.0 * loops.get(u, 0.0)
        q += loops.get(u, 0.0) / m - (ku / (2.0 * m)) ** 2
    return q


def louvain(graph: Graph, seed: int = 0) -> Partition:
    """Two-phase Louvain over the weighted graph, deterministic given a seed.

    The seed only fixes the node visiting order. The reported modularity is
    cross-checked against modularity() on every run.
    """
    nodes = graph.nodes()
    if not nodes:
        raise EmptyGraph("cannot partition an empty graph")

    index = {node: i for i, node in enumerate(nodes)}
    adj = {
        index[u]: {index[v]: float(w) for v, w in graph.neighbors(u).items()} for u in nodes
    }
    loops: dict[int, float] = {}
    m = float(graph.total_weight())

    assignment_chain = {i: i for i in range(len(nodes))}
    if m > 0.0:
        rng = random.Random(seed)
        while True:
            com, moved = _one_level(adj, loops, m, rng)
            if not moved:
                break
            adj, loops, mapping = _aggregate(adj, loops, com)
            assignment_chain = {u: mapping[c] for u, c in assignment_chain.items()}
            if len(adj) == 1:
                break

    # Canonical community ids: first appearance over stable node order.
    relabel: dict[int, int] = {}
    assignment: dict[Node, int] = {}
    for node in nodes:
        c = assignment_chain[index[node]]
        if c not in relabel:
            relabel[c] = len(relabel)
        assignment[node] = relabel[c]

    q = modularity(graph, assignment)
    if m > 0.0:
        internal = _internal_modularity(adj, loops, m)
        if abs(internal - q) > 1e-9:
            raise AssertionError(
                f"louvain bookkeeping drifted from modularity(): {internal} vs {q}"
            )
    return Partition(assignment=assignment, modularity=q)


def detect_attack_windows(
    instance,
    flags: Mapping[int, TweetFlags],
    params: AttackParams,
    merge_overlapping: bool = False,
) -> list[AttackEvent]:
    """Find every maximal attack cluster in a trend instance.

    A cluster is a candidate subset with at least kappa tweets whose
    creation span fits alpha_p and deletion span fits alpha_d; maximal means
    no eligible tweet can be added without breaking a window. Spans are in
    whole seconds; ties within a second are ordered by milliseconds, then id.

    The enumeration is an integer sweep. Candidates are ranked once by
    (deleted milliseconds, id). For each distinct creation second s, in
    ascending order, the creation window holds the candidates created in
    [s, s + alpha_p], sorted by rank; for each distinct deletion second t in
    it, ascending, the run of window positions [a, b) deleted in
    [t, t + alpha_d] is a cluster when it has at least kappa tweets and is
    canonical: it holds a tweet created in second s itself (else the same run,
    possibly larger, is met under its true earliest creation second). The
    test is one bisect into the ranks of the tweets created in second s. A
    deletion anchor whose right end b does not pass the previous anchor's is
    skipped: its run is a subset of the previous run, or a duplicate of it.
    The runs, longest first and, among equal lengths, in enumeration order,
    are then kept unless they are a subset of a run kept before them.

    Events are sorted by (start, smallest tweet id). That key can tie (two
    clusters sharing their earliest tweet); tied events keep the order of
    the maximal list: longer first, then first enumerated.

    Back-to-back bursts produce families of pairwise-overlapping maximal
    clusters (a window can straddle the tail of one burst and the head of
    the next). With merge_overlapping, each family of clusters sharing
    tweets collapses into one summary event whose tweet set is the union;
    a merged event's spans describe the whole burst region and may exceed
    alpha_p/alpha_d, unlike the per-cluster guarantees of the default mode.
    """
    cands = attack_candidates(instance, flags, params)
    n = len(cands)
    kappa = params.kappa
    if n < kappa:
        return []
    alpha_p = params.alpha_p
    alpha_d = params.alpha_d

    # Candidate index j is creation order; rank r is deletion order. p and d
    # hold whole seconds, so their differences are spans (core.span_s).
    p = [t.created_ms // 1000 for t, _ in cands]
    by_rank = sorted(range(n), key=lambda j: (cands[j][1], cands[j][0].id))
    rank = [0] * n
    for r, j in enumerate(by_rank):
        rank[j] = r
    d = [cands[j][1] // 1000 for j in by_rank]
    # past[r]: the first rank deleted after second d[r] + alpha_d.
    past = [bisect_right(d, t + alpha_d) for t in d]

    raw: list[frozenset[int]] = []
    lo = 0
    while lo < n:
        mid = bisect_right(p, p[lo], lo)
        hi = bisect_right(p, p[lo] + alpha_p, mid)
        window = sorted(rank[lo:hi])
        anchored = sorted(rank[lo:mid])
        prev_t = None
        prev_b = -1
        for a in range(len(window) - kappa + 1):
            r = window[a]
            if d[r] == prev_t:
                continue
            prev_t = d[r]
            b = bisect_left(window, past[r], a)
            if b <= prev_b:  # a subset or duplicate of the previous run
                continue
            prev_b = b
            if b - a < kappa:
                continue
            # Canonical iff a tweet created in second p[lo] ranks in [r, window[b - 1]].
            k = bisect_left(anchored, r)
            if k < len(anchored) and anchored[k] <= window[b - 1]:
                raw.append(frozenset(window[a:b]))
        lo = mid

    raw.sort(key=len, reverse=True)
    maximal: list[frozenset[int]] = []
    for cluster in raw:
        if not any(cluster <= kept for kept in maximal):
            maximal.append(cluster)

    if merge_overlapping:
        maximal = _merge_components(maximal)

    events = []
    for cluster in maximal:
        members = [by_rank[r] for r in cluster]
        first, last = min(members), max(members)
        low, high = min(cluster), max(cluster)
        events.append(
            AttackEvent(
                tweet_ids=array("q", sorted({cands[j][0].id for j in members})),
                users=array("q", sorted({cands[j][0].user_id for j in members})),
                start_ms=cands[first][0].created_ms,
                end_ms=cands[by_rank[high]][1],
                creation_window_s=p[last] - p[first],
                deletion_window_s=d[high] - d[low],
                max_lifetime_s=max(d[r] - p[by_rank[r]] for r in cluster),
            )
        )
    events.sort(key=lambda e: (e.start_ms, min(e.tweet_ids)))
    return events


def _merge_components(clusters: list[frozenset[int]]) -> list[frozenset[int]]:
    """Union clusters that share at least one member, via union-find."""
    parent = list(range(len(clusters)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    owner: dict[int, int] = {}
    for idx, cluster in enumerate(clusters):
        for member in cluster:
            if member in owner:
                a, b = find(owner[member]), find(idx)
                if a != b:
                    parent[b] = a
            else:
                owner[member] = idx
    merged: dict[int, set[int]] = {}
    for idx, cluster in enumerate(clusters):
        merged.setdefault(find(idx), set()).update(cluster)
    return [frozenset(members) for members in merged.values()]


def strip_keyword_and_emoji(
    text: str, keyword: Optional[Keyword] = None, locale: str = DEFAULT_LOCALE
) -> str:
    """Remove all emoji and every occurrence of the keyword that the join
    matches; collapse whitespace. A hashtag goes after the emoji, as the
    join reads '#foo' followed by an emoji as '#foo'; an n-gram goes before
    them, as the join reads 'foo', an emoji and 'bar' written together as
    one token: it goes as a run of the text's whitespace tokens, cleaned as
    text_tokens cleans them, with any punctuation-only tokens inside."""
    if keyword is None or keyword.kind == HASHTAG:
        tokens = _EMOJI_RE.sub(" ", text).split()
        if keyword is None:
            return " ".join(tokens)
        forms = {keyword.normalized, "#" + keyword.normalized}
        kept = [t for t in tokens if fold_case(t, locale) not in forms]
        return " ".join(kept)

    tokens = text.split()
    ngram = text_tokens(keyword.normalized, locale)
    n = len(ngram)
    words = [(i, w) for i, t in enumerate(tokens) if (w := _clean_token(fold_case(t, locale)))]
    dropped: set[int] = set()
    k = 0
    while n and k + n <= len(words):
        if [w for _, w in words[k : k + n]] == ngram:
            dropped.update(range(words[k][0], words[k + n - 1][0] + 1))
            k += n
        else:
            k += 1
    kept = " ".join(t for i, t in enumerate(tokens) if i not in dropped)
    return " ".join(_EMOJI_RE.sub(" ", kept).split())


def lifecycle(keyword: Keyword, epochs: Sequence[TrendEpoch]) -> TrendLifecycle:
    """First entry/exit and ranks for a keyword over time-ordered epochs.

    Exit time is the capture time of the first epoch missing the keyword
    after its entry (an upper bound within one snapshot interval). A keyword
    still listed in the final epoch uses that epoch's capture time. Only the
    first listing span is considered; re-entries start new lifecycles and
    are ignored here.
    """
    normalized = keyword.normalized
    first_entry = None
    initial_rank = None
    best_rank = None
    first_exit = None
    last_seen = None
    for epoch in epochs:
        rank = epoch.rank_of(normalized)
        if first_entry is None:
            if rank is not None:
                first_entry = epoch.captured_ms
                initial_rank = rank
                best_rank = rank
                last_seen = epoch.captured_ms
        else:
            if rank is None:
                first_exit = epoch.captured_ms
                break
            best_rank = min(best_rank, rank)
            last_seen = epoch.captured_ms
    if first_entry is None:
        raise NeverTrended(f"{keyword.raw!r} never appears in the epochs")
    if first_exit is None:
        first_exit = last_seen
    return TrendLifecycle(
        keyword=keyword,
        first_entry_ms=first_entry,
        first_exit_ms=first_exit,
        initial_rank=initial_rank,
        best_rank=best_rank,
    )


def trend_day_lifecycles(
    trends: Iterable[TrendDay],
    epochs: Sequence[TrendEpoch],
    tz_offset: int = DEFAULT_TZ_OFFSET,
) -> dict[tuple[date, str], TrendLifecycle]:
    """Each trend-day's lifecycle, keyed by (date, normalized keyword).

    It is the first listing span of the keyword that enters on the trend's
    local day, and it may run past midnight; a span still listed from the
    day before does not enter on the day. Trend-days with no entry on their
    day get no lifecycle.
    """
    first_of_day: dict[int, int] = {}
    for i, epoch in enumerate(epochs):
        first_of_day.setdefault(local_day(epoch.captured_ms, tz_offset), i)
    cycles = {}
    for trend in trends:
        day, normalized = trend.day_number(), trend.keyword.normalized
        start = first_of_day.get(day, len(epochs))
        while 0 < start < len(epochs) and epochs[start - 1].rank_of(normalized) is not None:
            start += 1
        try:
            cycle = lifecycle(trend.keyword, epochs[start:])
        except NeverTrended:
            continue
        if local_day(cycle.first_entry_ms, tz_offset) == day:
            cycles[(trend.date, normalized)] = cycle
    return cycles


# ---------------------------------------------------------------------------
# The Tweet-and-dict path: flags as one TweetFlags per tweet id, computed
# after the join, and the stages that read them with whole Tweets. They take
# a TweetInstance or anything with the same `tweets` (rows with id, user_id
# and created_ms) and `deletions`, such as a library instance's views.
# ---------------------------------------------------------------------------

def is_lexicon_tweet(
    text: str, keyword: Optional[Keyword] = None, locale: str = DEFAULT_LOCALE
) -> bool:
    """True when the text, keyword and emoji removed, looks generated:

    every character alphabetic (or space / parenthesis), first character not
    uppercase, and 2-9 whitespace tokens.
    """
    stripped = " ".join(classify._stripper(keyword, locale)(text))
    return (2 <= len(stripped.split()) <= 9 and not stripped[0].isupper()
            and _LEXICON_CHARS.issuperset(stripped))


@dataclass(frozen=True, slots=True)
class TweetFlags:
    """Deterministic per-tweet classification flags for a given keyword."""

    is_lexicon: bool
    is_single_engagement: bool


# The four flag values, built once and shared by every tweet that has them.
_FLAGS = {(lexicon, single): TweetFlags(lexicon, single)
          for lexicon in (False, True) for single in (False, True)}


def compute_flags(tweet: Tweet, keyword: Keyword, locale: str = DEFAULT_LOCALE) -> TweetFlags:
    return _FLAGS[is_lexicon_tweet(tweet.text, keyword, locale),
                  is_single_engagement(tweet, keyword, locale)]


def flags_for_instance(
    instance: TweetInstance,
    locale: str = DEFAULT_LOCALE,
    tweets: Optional[Iterable[Tweet]] = None,
) -> dict[int, TweetFlags]:
    """Flags keyed by tweet id for ``tweets`` of the instance (default: all of them)."""
    keyword = instance.keyword
    if tweets is None:
        tweets = instance.tweets
    return {t.id: compute_flags(t, keyword, locale) for t in tweets}


def flag_byte(flags: TweetFlags, is_retweet: bool) -> int:
    """The library's flag byte of a tweet with these flags."""
    return ((LEXICON if flags.is_lexicon else 0)
            | (SINGLE_ENGAGEMENT if flags.is_single_engagement else 0)
            | (RETWEET if is_retweet else 0))


def joined_rows(instance: TweetInstance, flags: Optional[Mapping[int, TweetFlags]]) -> list:
    """The rows a library instance of the same join holds (its `tweets`)."""
    return [JoinedTweet(t.id, t.user_id, t.created_ms, instance.deletions.get(t.id, NOT_DELETED),
                        None if flags is None else flag_byte(flags[t.id], t.is_retweet))
            for t in instance.tweets]


def initial_deletions(instance, flags: Mapping[int, TweetFlags]) -> int:
    count = 0
    for tweet in instance.tweets:
        flag = flags[tweet.id]
        if flag.is_single_engagement and tweet.id in instance.deletions:
            count += 1
        else:
            break
    return count


def lifetime_stats(instance) -> tuple[Optional[float], Optional[float]]:
    lifetimes = [span_s(instance.deletions[t.id], t.created_ms)
                 for t in instance.tweets if t.id in instance.deletions]
    if not lifetimes:
        return None, None
    return float(statistics.median(lifetimes)), sum(lifetimes) / len(lifetimes)


def _candidate_subset(instance, flags: Mapping[int, TweetFlags]) -> list:
    deleted = [t for t in instance.tweets if t.id in instance.deletions]
    lexicon = [t for t in deleted if flags[t.id].is_lexicon]
    if lexicon:
        return lexicon
    return [t for t in deleted if flags[t.id].is_single_engagement]


def attack_windows(instance, flags: Mapping[int, TweetFlags]) -> tuple[int, int]:
    subset = _candidate_subset(instance, flags)
    if not subset:
        return 0, 0
    creations = [t.created_ms for t in subset]
    deletions = [instance.deletions[t.id] for t in subset]
    return (
        span_s(max(creations), min(creations)),
        span_s(max(deletions), min(deletions)),
    )


def count_features(instance: TweetInstance, flags: Mapping[int, TweetFlags]) -> FeatureVector:
    """All counts, ratios, windows, and entropies for one trend instance."""
    n_tweets = len(instance.tweets)
    n_deleted = n_nonretweet = n_deleted_nonretweet = 0
    n_set = n_deleted_set = n_lexicon = n_deleted_lexicon = 0
    for tweet in instance.tweets:
        flag = flags[tweet.id]
        deleted = tweet.id in instance.deletions
        n_deleted += deleted
        if not tweet.is_retweet:
            n_nonretweet += 1
            n_deleted_nonretweet += deleted
        if flag.is_single_engagement:
            n_set += 1
            n_deleted_set += deleted
        if flag.is_lexicon:
            n_lexicon += 1
            n_deleted_lexicon += deleted

    creation_window_s, deletion_window_s = attack_windows(instance, flags)
    lifetime_median_s, lifetime_mean_s = lifetime_stats(instance)

    return FeatureVector(
        n_tweets=n_tweets,
        n_deleted=n_deleted,
        n_nonretweet=n_nonretweet,
        n_deleted_nonretweet=n_deleted_nonretweet,
        n_set=n_set,
        n_deleted_set=n_deleted_set,
        n_lexicon=n_lexicon,
        n_deleted_lexicon=n_deleted_lexicon,
        deletion_ratio=_ratio(n_deleted, n_tweets),
        nonretweet_deletion_ratio=_ratio(n_deleted_nonretweet, n_nonretweet),
        set_deletion_ratio=_ratio(n_deleted_set, n_set),
        lexicon_deletion_ratio=_ratio(n_deleted_lexicon, n_lexicon),
        initial_deletions=initial_deletions(instance, flags),
        creation_window_s=creation_window_s,
        deletion_window_s=deletion_window_s,
        lifetime_median_s=lifetime_median_s,
        lifetime_mean_s=lifetime_mean_s,
        entropy_create=minute_entropy(t.created_ms for t in instance.tweets),
        entropy_delete=minute_entropy(instance.deletions.values()),
    )


def score_instance(instance: TweetInstance, config: DetectorConfig, locale: str) -> Verdict:
    flags = flags_for_instance(instance, locale)
    return classify_trend(count_features(instance, flags), config, trend=instance.trend)


def attack_candidates(instance, flags: Mapping[int, TweetFlags], params: AttackParams) -> list:
    """(tweet, deletion ms) of the deleted single-engagement tweets eligible
    for clustering, in creation order."""
    per_user: dict = {}
    for tweet in instance.tweets:
        deleted_at = instance.deletions.get(tweet.id)
        if deleted_at is None or tweet.user_id in per_user:
            continue
        if not flags[tweet.id].is_single_engagement:
            continue
        if span_s(deleted_at, tweet.created_ms) > params.theta:
            continue
        per_user[tweet.user_id] = (tweet, deleted_at)
    return list(per_user.values())


def label_astrobots(attacked, tz_offset: int = DEFAULT_TZ_OFFSET) -> set[int]:
    """Users who posted a same-day-deleted lexicon tweet into an attacked
    trend; ``attacked`` holds (instance, flags by tweet id) pairs."""
    bots: set[int] = set()
    for instance, flags in attacked:
        for tweet in instance.tweets:
            deleted_at = instance.deletions.get(tweet.id)
            if deleted_at is None:
                continue
            if not flags[tweet.id].is_lexicon:
                continue
            if local_day(deleted_at, tz_offset) == local_day(tweet.created_ms, tz_offset):
                bots.add(tweet.user_id)
    return bots


# ---------------------------------------------------------------------------
# The file join's raw-line test as three calls: the deletion test, then the
# creation test.
# ---------------------------------------------------------------------------

def creation_filter(trends: Optional[Sequence[TrendDay]], locale: str):
    """Keeps every line whose tweet can match one of ``trends``, or hold a
    hashtag when ``trends`` is None."""
    hashtags = trends is None or any(trend.keyword.kind == HASHTAG for trend in trends)
    ngrams = {tokens for trend in trends or () if trend.keyword.kind != HASHTAG
              if (tokens := tuple(text_tokens(trend.keyword.normalized, locale)))}
    escape = "\\" if any(_escape_sensitive(t) for ngram in ngrams for t in ngram) else "\\u"

    def keep(line: str) -> bool:
        if hashtags and ("#" in line or "\\u0023" in line):
            return True
        if not ngrams:
            return False
        if escape in line:
            return True
        folded = fold_case(line, locale)
        for ngram in ngrams:
            for token in ngram:
                if token not in folded:
                    break
            else:
                return True
        return False

    return keep


def may_hold_deletion(line: str) -> bool:
    """Keeps every deletion notice."""
    return '"delete"' in line or "\\u006" in line or "\\u007" in line


def line_filter(trends: Optional[Sequence[TrendDay]], locale: str):
    may_match = creation_filter(trends, locale)

    def keep(line: str) -> bool:
        return may_hold_deletion(line) or may_match(line)

    return keep


# ---------------------------------------------------------------------------
# The parser and the flag functions as the library wrote them before one
# decoder and one per-keyword flag function replaced them: a line parsed
# through parse_stream_line, _parse_status, _event_ms and _int64 into a
# frozen Tweet or Deletion, read_stream counting each line as it goes, and
# a tweet's flags worked out per call (tweet_flags takes this module's
# is_lexicon_tweet, the rule that always strips first). The discovery join
# files a creation as scan_candidates does, under no hashtag-day when no
# datetime.date holds its local day.
# ---------------------------------------------------------------------------

def _event_ms(obj: dict) -> int:
    ms = obj.get("timestamp_ms")
    if ms is not None:
        return _int64(ms)
    created = obj.get("created_at")
    if created is None:
        raise BadTimestamp("record has neither timestamp_ms nor created_at")
    return _parse_created_at(created) * 1000


# A byte of an archive that is not UTF-8, as read_stream decodes it.
_ESCAPED_BYTE_RE = re.compile("[\udc80-\udcff]")


def _holds_escaped_byte(text: str) -> bool:
    try:
        text.encode()  # fast for the common case: no lone surrogate at all
    except UnicodeEncodeError:
        return _ESCAPED_BYTE_RE.search(text) is not None
    return False


def _parse_status(obj: dict) -> Tweet:
    tweet_id = _int64(obj["id"])
    user = obj.get("user")
    if isinstance(user, dict) and "id" in user:
        user_id = _int64(user["id"])
    elif "user_id" in obj:
        user_id = _int64(obj["user_id"])
    else:
        raise MalformedLine(f"status {tweet_id} has no user id")

    extended = obj.get("extended_tweet")
    if isinstance(extended, dict) and extended.get("full_text"):
        text = extended["full_text"]
        entities = extended.get("entities") or obj.get("entities") or {}
    else:
        text = obj.get("text")
        entities = obj.get("entities") or {}
    if not isinstance(text, str):
        raise MalformedLine(f"status {tweet_id} has no text")

    try:
        created_ms = _event_ms(obj)
    except BadTimestamp as exc:
        raise MalformedLine(str(exc)) from exc

    hashtags = tuple(
        h["text"]
        for h in entities.get("hashtags", ())
        if isinstance(h, dict) and isinstance(h.get("text"), str)
    )
    mentions = tuple(
        int(m["id"])
        for m in entities.get("user_mentions", ())
        if isinstance(m, dict) and m.get("id") is not None
    )
    urls = len(entities.get("urls", ()) or ())
    if _holds_escaped_byte(text) or any(map(_holds_escaped_byte, hashtags)):
        raise MalformedLine(f"status {tweet_id} holds a byte that is not UTF-8")

    return Tweet(
        id=tweet_id,
        user_id=user_id,
        text=text,
        created_ms=created_ms,
        hashtags=hashtags,
        mentions=mentions,
        urls=urls,
        is_retweet="retweeted_status" in obj or text.startswith("RT @"),
        is_reply=obj.get("in_reply_to_status_id") is not None
        or obj.get("in_reply_to_user_id") is not None,
    )


def _parse_delete(obj: dict) -> Deletion:
    delete = obj["delete"]
    status = delete["status"]
    tweet_id = _int64(status["id"])
    user_raw = status.get("user_id", status.get("user_id_str", 0))
    try:
        user_id = int(user_raw)
    except (TypeError, ValueError, OverflowError):
        user_id = 0
    ms = delete.get("timestamp_ms", obj.get("timestamp_ms"))
    if ms is None:
        raise MalformedLine(f"delete notice for {tweet_id} lacks timestamp_ms")
    return Deletion(tweet_id=tweet_id, user_id=user_id, time_ms=_int64(ms))


# What the record parsers raise on a field of the wrong JSON type or value:
# a missing key, a value _int64 rejects, int() of null, a list or infinity,
# .get on a non-object, iterating a number, indexing a string by key.
_SCHEMA_ERRORS = (KeyError, TypeError, ValueError, AttributeError, OverflowError)


def parse_stream_line(line: str) -> Optional[TweetEvent]:
    """Parse one archive line into a Tweet or Deletion; None for a blank
    line or a record of another kind (limit notices, ...).

    A status's id, user id and timestamp_ms, and a notice's status id and
    timestamp_ms, are read by _int64, so every one lies in (-2**63, 2**63).
    Raises MalformedLine on broken syntax, on any record whose fields do
    not fit the schema, and on a status whose text or a hashtag holds an
    escaped byte (see _open_source); callers are expected to count these
    rather than abort. No other exception escapes for any input string.
    """
    stripped = line.strip()
    if not stripped:
        return None
    try:
        obj = json.loads(stripped)
    except (ValueError, RecursionError) as exc:  # bad syntax, over-long int, deep nesting
        raise MalformedLine(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise MalformedLine("line is not a JSON object")
    try:
        if "delete" in obj:
            return _parse_delete(obj)
        if "id" in obj and ("text" in obj or "extended_tweet" in obj):
            return _parse_status(obj)
    except _SCHEMA_ERRORS as exc:
        raise MalformedLine(f"record does not fit the schema: {exc!r}") from exc
    return None



def read_stream(
    source,
    *,
    stats: Optional[ParseStats] = None,
    keep: Optional[Callable[[str], bool]] = None,
) -> Iterator[TweetEvent]:
    """Stream TweetEvents from a path or binary stream, one pass, bounded memory.

    Malformed lines are counted in ``stats`` and skipped. A compressed file
    that is cut or corrupt after its first block ends its read there, and
    the rest counts as one malformed line; one cut inside its first block
    is one malformed line. ``keep``, when given, is tested on each raw line
    first: a line it rejects is counted in ``stats.prefiltered`` and never
    decoded, so it must keep every line the caller could use. The stats
    object is complete once the iterator is exhausted. A line whose ids or
    instants are not int64 (see _int64) counts as malformed.
    """
    if stats is None:
        stats = ParseStats()
    # A path is opened once, so a pipe loses nothing to the codec probe, and
    # closed here; a stream the caller gave stays open.
    is_path = isinstance(source, (str, bytes))
    with ExitStack() as stack:
        binary = stack.enter_context(open(source, "rb")) if is_path else source
        handle, codec_errors = _open_source(binary, stack)
        if handle is None:
            stats.lines_read += 1
            stats.malformed_skipped += 1
            return
        try:
            for line in handle:
                stats.lines_read += 1
                if keep is not None and not keep(line):
                    stats.prefiltered += 1
                    continue
                try:
                    event = parse_stream_line(line)
                except MalformedLine:
                    stats.malformed_skipped += 1
                    continue
                if event is None:
                    stats.other_skipped += 1
                    continue
                if isinstance(event, Tweet):
                    stats.creations += 1
                else:
                    stats.deletions += 1
                yield event
        except codec_errors:
            stats.lines_read += 1
            stats.malformed_skipped += 1



def is_single_engagement(tweet: Tweet, keyword: Keyword, locale: str = DEFAULT_LOCALE) -> bool:
    """True when the tweet engages nothing but the target keyword.

    No retweet, no reply, no mentions, no urls, and no hashtag other than
    the target (n-gram targets admit no hashtags at all).
    """
    if tweet.is_retweet or tweet.is_reply or tweet.mentions or tweet.urls:
        return False
    tags = {fold_case(tag, locale) for tag in tweet.hashtags}
    if keyword.kind == HASHTAG:
        return tags <= {keyword.normalized}
    return not tags


def tweet_flags(tweet: Tweet, keyword: Keyword, locale: str = DEFAULT_LOCALE) -> int:
    """The flag byte of a tweet joined to a trend-day of ``keyword``: the
    core.LEXICON, SINGLE_ENGAGEMENT and RETWEET bits."""
    return ((LEXICON if is_lexicon_tweet(tweet.text, keyword, locale) else 0)
            | (SINGLE_ENGAGEMENT if is_single_engagement(tweet, keyword, locale) else 0)
            | (RETWEET if tweet.is_retweet else 0))



_DATED_DAYS = range(date.min.toordinal() - date(1970, 1, 1).toordinal(),
                    date.max.toordinal() - date(1970, 1, 1).toordinal() + 1)


def discover_instances(
    events: Iterable[TweetEvent],
    locale: str = DEFAULT_LOCALE,
    tz_offset: int = DEFAULT_TZ_OFFSET,
) -> dict[tuple[date, str], TweetInstance]:
    """Each (local date, tag) hashtag-day of the creations' own days, joined
    with its creations and their deletions."""
    builders: dict[tuple[date, str], _InstanceBuilder] = {}
    deletions: dict[int, int] = {}
    for event in events:
        if isinstance(event, Tweet):
            day = local_day(event.created_ms, tz_offset)
            if day not in _DATED_DAYS:
                continue
            for tag in sorted(extract_hashtags(event.text, locale)):
                key = (day_number_to_date(day), tag)
                if key not in builders:
                    trend = TrendDay(key[0], Keyword("#" + tag, tag, HASHTAG))
                    builders[key] = _InstanceBuilder(trend)
                builders[key].offer_tweet(event)
        elif isinstance(event, Deletion):
            _note_deletion(deletions, event.tweet_id, event.time_ms)
    return {key: builder.build(deletions) for key, builder in builders.items()}


def group_stream_by_keyword(
    events: Iterable[TweetEvent],
    keywords: Iterable[Keyword],
    locale: str = DEFAULT_LOCALE,
) -> dict[str, list[TweetEvent]]:
    """Split a stream into per-keyword event lists keyed by normalized form.

    A tweet joins the list of every keyword its text contains, matched as
    the trend-day join matches them (keywords that share a normalized form
    share one list); deletions follow their tweet.
    """
    streams: dict[str, list[TweetEvent]] = {}
    for _ in tee_by_keyword(events, keywords, streams, locale):
        pass
    return streams


def tee_by_keyword(
    events: Iterable[TweetEvent],
    keywords: Iterable[Keyword],
    streams: dict[str, list[TweetEvent]],
    locale: str = DEFAULT_LOCALE,
) -> Iterator[TweetEvent]:
    """Yield ``events`` unchanged while filing them into ``streams`` as
    group_stream_by_keyword does, so the pass that writes a stream can
    group it too.
    """
    keywords = list(keywords)
    contained = _keyword_index(keywords, locale)
    streams.update((k.normalized, []) for k in keywords)
    # Each tweet's keys, one tuple shared by every tweet with the same keys.
    owner: dict[int, tuple[tuple[str, str], ...]] = {}
    shared: dict[tuple[tuple[str, str], ...], tuple[tuple[str, str], ...]] = {}
    for event in events:
        if isinstance(event, Tweet):
            keys = tuple(contained(event.text))
            if keys:
                owner[event.id] = shared.setdefault(keys, keys)
        else:
            keys = owner.get(event.tweet_id, ())
        for _, name in keys:
            stream = streams[name]
            # A key can repeat, and keywords can share a list: add once.
            if not stream or stream[-1] is not event:
                stream.append(event)
        yield event


def trend_oracle(
    streams: Mapping[str, Sequence[TweetEvent]],
    mitigation: bool = False,
    epoch_seconds: int = 300,
) -> list[tuple[int, list[str]]]:
    """Rank keywords every epoch by distinct posting users in a trailing
    window of ORACLE_WINDOW_S seconds.

    With mitigation on, each deletion in the window subtracts
    ORACLE_PENALTY_WEIGHT from the score, so a mass-deleted burst scores
    itself out of the list. Returns (epoch time ms, top ORACLE_TOP_K
    keywords best first) pairs.
    """
    per_keyword: dict[str, tuple[list[tuple[int, int]], list[int]]] = {}
    bounds: list[int] = []  # each keyword's first and last event time
    for key, events in streams.items():
        creations: list[tuple[int, int]] = []
        deletions: list[int] = []
        for event in events:
            if isinstance(event, Tweet):
                creations.append((event.created_ms // 1000, event.user_id))
            else:
                deletions.append(event.time_ms // 1000)
        creations.sort()
        deletions.sort()
        if creations:
            bounds += (creations[0][0], creations[-1][0])
        bounds += deletions[:1] + deletions[-1:]
        per_keyword[key] = (creations, deletions)
    if not bounds:
        return []

    first_epoch = (min(bounds) // epoch_seconds + 1) * epoch_seconds
    last_epoch = (max(bounds) // epoch_seconds + 1) * epoch_seconds
    epochs = range(first_epoch, last_epoch + 1, epoch_seconds)
    w = ORACLE_WINDOW_S

    scored: list[list[tuple[float, str]]] = [[] for _ in epochs]
    for key, (creations, deletions) in per_keyword.items():
        users: dict[int, int] = {}  # posts per user in the window
        lo = hi = 0  # the window's creations are creations[lo:hi]
        for t, ranked in zip(epochs, scored):
            while hi < len(creations) and creations[hi][0] <= t:
                user = creations[hi][1]
                users[user] = users.get(user, 0) + 1
                hi += 1
            while lo < hi and creations[lo][0] <= t - w:
                user = creations[lo][1]
                users[user] -= 1
                if users[user] == 0:
                    del users[user]
                lo += 1
            score = float(len(users))
            if mitigation:
                score -= ORACLE_PENALTY_WEIGHT * (
                    bisect_right(deletions, t) - bisect_right(deletions, t - w)
                )
            if score > 0:
                ranked.append((-score, key))
    return [(t * 1000, [key for _, key in sorted(ranked)[:ORACLE_TOP_K]])
            for t, ranked in zip(epochs, scored)]
