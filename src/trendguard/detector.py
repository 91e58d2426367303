"""
Trend-level attack classification and tweet-level attack-window detection.

Classification applies configurable rule presets (count and ratio thresholds
over FeatureVector fields) as small decision formulas in disjunctive normal
form. Window detection finds maximal clusters of deleted single-engagement
tweets whose creation span, deletion span, and per-tweet lifetimes all fit
the configured attack parameters, with at most one tweet per user.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass, field
from datetime import date, timedelta
from operator import itemgetter
from typing import Iterable, Mapping, Optional

from .core import (
    DEFAULT_TZ_OFFSET,
    LEXICON,
    PRESETS,
    SINGLE_ENGAGEMENT,
    TrendGuardError,
    local_day,
    span_s,
)
from .ingest import NOT_DELETED, TrendDay, TrendInstance
from .features import FeatureVector, count_features


class UnknownRule(TrendGuardError):
    """An unknown preset, or a threshold override for a rule its preset lacks."""


@dataclass(frozen=True, slots=True)
class AttackParams:
    """Quantitative attack-model parameters; all CLI-overridable. The three
    windows are whole seconds.

    Defaults suit 1%-sampled data: clusters of at least 4 tweets created and
    deleted within five-minute windows, every tweet gone within ten minutes.
    """

    kappa: int = 4
    alpha_p: int = 300
    alpha_d: int = 300
    theta: int = 600

    def __post_init__(self):
        if self.kappa < 1:
            raise ValueError("kappa must be at least 1")
        if min(self.alpha_p, self.alpha_d, self.theta) < 0:
            raise ValueError("window durations must be non-negative")


# The nine threshold rules; each maps to one FeatureVector field.
RULE_FEATURES: dict[str, str] = {
    "1": "n_deleted",
    "2": "deletion_ratio",
    "3": "n_deleted_nonretweet",
    "4": "nonretweet_deletion_ratio",
    "5": "n_deleted_set",
    "6": "set_deletion_ratio",
    "7": "initial_deletions",
    "8": "n_deleted_lexicon",
    "9": "lexicon_deletion_ratio",
}

GE = ">="
GT = ">"


@dataclass(frozen=True, slots=True)
class RuleCheck:
    """One conjunct of a preset clause: feature(rule_id) op threshold."""

    rule_id: str
    threshold: float
    op: str = GE


# Formulas are OR-of-ANDs over rule checks. The default lexicon tree wants
# at least 4 deleted lexicon tweets with strictly more than 45% of lexicon
# tweets deleted; the strict variant raises the ratio cut to 68% for extra
# precision headroom. The lexicon-agnostic tree's strong branch needs many
# deleted single-engagement tweets at a high deletion share, and its second
# branch admits smaller bursts whose initial-deletion prefix is long.
LEXICON_TREE, LEXICON_TREE_STRICT, LEXICON_AGNOSTIC_TREE, RATIO_ONLY = PRESETS
PRESET_FORMULAS: dict[str, tuple[tuple[RuleCheck, ...], ...]] = {
    LEXICON_TREE: ((RuleCheck("8", 4), RuleCheck("9", 0.45, GT)),),
    LEXICON_TREE_STRICT: ((RuleCheck("8", 4), RuleCheck("9", 0.68)),),
    LEXICON_AGNOSTIC_TREE: (
        (RuleCheck("5", 10), RuleCheck("6", 0.50)),
        (RuleCheck("5", 4), RuleCheck("7", 4)),
    ),
    RATIO_ONLY: ((RuleCheck("1", 17), RuleCheck("2", 0.25)),),
}


@dataclass
class DetectorConfig:
    """A preset name plus optional per-rule threshold overrides.

    Overrides apply to every occurrence of the rule id in the preset's
    clauses; an override for a rule the preset does not use is an error,
    because it would change nothing.
    """

    preset: str = LEXICON_TREE
    thresholds: dict[str, float] = field(default_factory=dict)

    def resolved_formula(self) -> tuple[tuple[RuleCheck, ...], ...]:
        try:
            clauses = PRESET_FORMULAS[self.preset]
        except KeyError:
            raise UnknownRule(f"unknown preset: {self.preset!r}") from None
        used = {check.rule_id for clause in clauses for check in clause}
        for rule_id in self.thresholds:
            if rule_id not in RULE_FEATURES:
                raise UnknownRule(f"undefined rule id: {rule_id!r}")
            if rule_id not in used:
                raise UnknownRule(f"rule {rule_id} is not in preset {self.preset!r}")
        return tuple(
            tuple(RuleCheck(check.rule_id, self.thresholds.get(check.rule_id, check.threshold),
                            check.op) for check in clause)
            for clause in clauses
        )


@dataclass(frozen=True, slots=True)
class RuleResult:
    rule_id: str
    value: float
    threshold: float
    op: str
    passed: bool


@dataclass
class Verdict:
    trend: Optional[TrendDay]
    attacked: bool
    fired_rules: list[RuleResult]
    features: FeatureVector
    preset: str


def classify_trend(
    features: FeatureVector, config: DetectorConfig, trend: Optional[TrendDay] = None
) -> Verdict:
    """Evaluate the preset's clauses over a feature vector.

    The verdict is attacked exactly when some clause has every rule passing.
    """
    clauses = config.resolved_formula()
    results: list[RuleResult] = []
    attacked = False
    for clause in clauses:
        clause_ok = True
        for check in clause:
            value = float(getattr(features, RULE_FEATURES[check.rule_id]))
            passed = value > check.threshold if check.op == GT else value >= check.threshold
            results.append(RuleResult(check.rule_id, value, check.threshold, check.op, passed))
            clause_ok = clause_ok and passed
        attacked = attacked or clause_ok
    return Verdict(
        trend=trend,
        attacked=attacked,
        fired_rules=results,
        features=features,
        preset=config.preset,
    )


def score_instance(instance: TrendInstance, config: DetectorConfig) -> Verdict:
    """The preset's verdict on one flagged trend-day instance: its
    features, then the rules."""
    return classify_trend(count_features(instance), config, trend=instance.trend)


# ---------------------------------------------------------------------------
# Attack-window detection
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class AttackEvent:
    """A concrete tweet cluster satisfying all attack-model conditions: from
    its first creation to its last deletion, with its spans in seconds."""

    tweet_ids: frozenset[int]
    users: frozenset[int]
    start_ms: int
    end_ms: int
    creation_window_s: int
    deletion_window_s: int
    max_lifetime_s: int


def attack_candidates(instance: TrendInstance, params: AttackParams) -> list[int]:
    """The rows of the deleted single-engagement tweets eligible for
    clustering, in creation order.

    Tweets whose lifetime exceeds theta can belong to no cluster and are
    dropped here. A user contributes at most their earliest eligible tweet,
    so every cluster automatically has one tweet per user. The order is the
    instance's: (created milliseconds, tweet id).
    """
    created, deleted, flags = instance.created_ms, instance.deleted_ms, instance.flag_bytes()
    per_user: dict[int, int] = {}
    for i, user in enumerate(instance.users):
        deleted_at = deleted[i]
        if deleted_at == NOT_DELETED or user in per_user or not flags[i] & SINGLE_ENGAGEMENT:
            continue
        if span_s(deleted_at, created[i]) > params.theta:
            continue
        per_user[user] = i
    # Insertion order is the creation order of each user's earliest tweet.
    return list(per_user.values())


def detect_attack_windows(
    instance: TrendInstance,
    params: AttackParams,
    merge_overlapping: bool = False,
) -> list[AttackEvent]:
    """Find every maximal attack cluster in a flagged trend instance.

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

    Maximality is decided as the sweep meets each run: it is kept unless a
    kept run of an earlier window holds it. Only such a run can: the run
    holds a tweet created in its own second s, which no later window holds,
    and the runs of one window cannot contain each other, as both a and b
    grow. A run inside a dropped run is inside the kept run that holds it.

    No run is stored as a set. A run is exactly the candidates inside a box:
    creation index in [lo, hi), the candidates created in [s, s + alpha_p],
    and rank in [window[a], window[b - 1]]. So run A is a subset of run B
    iff A's tight bounds lie inside B's box: its first creation index is at
    or after B's lo (A is canonical, so its first creation second is its s,
    which is at least B's s), its last creation index is before B's hi, and
    its first and last ranks lie in B's rank range. If the bounds lie inside
    the box, every member of A does and so belongs to B; if A is a subset of
    B, the members that attain A's bounds lie in B's box. A kept run is
    (lo, first rank, last rank, hi), and its members are listed one run at
    a time.

    Events are sorted by (start, smallest tweet id, longer first). Only
    clusters that share their earliest tweet tie on the first two; among
    equal lengths they keep the sweep's order.

    Back-to-back bursts produce families of pairwise-overlapping maximal
    clusters (a window can straddle the tail of one burst and the head of
    the next). With merge_overlapping, each family of clusters sharing
    tweets collapses into one summary event whose tweet set is the union;
    a merged event's spans describe the whole burst region and may exceed
    alpha_p/alpha_d, unlike the per-cluster guarantees of the default mode.
    """
    cands = attack_candidates(instance, params)
    n = len(cands)
    kappa = params.kappa
    if n < kappa:
        return []
    alpha_p = params.alpha_p
    alpha_d = params.alpha_d

    # Candidate index j is creation order; rank r is deletion order. p and d
    # hold whole seconds, so their differences are spans (core.span_s).
    ids, users = instance.ids, instance.users
    created = [instance.created_ms[i] for i in cands]
    deleted = [instance.deleted_ms[i] for i in cands]
    p = [ms // 1000 for ms in created]
    by_rank = sorted(range(n), key=lambda j: (deleted[j], ids[cands[j]]))
    rank = [0] * n
    for r, j in enumerate(by_rank):
        rank[j] = r
    d = [deleted[j] // 1000 for j in by_rank]
    # past[r]: the first rank deleted after second d[r] + alpha_d.
    past = [bisect_right(d, t + alpha_d) for t in d]

    # The kept runs, in sweep order, so their lo is sorted.
    maximal: list[tuple[int, int, int, int]] = []
    lo = 0
    while lo < n:
        mid = bisect_right(p, p[lo], lo)
        hi = bisect_right(p, p[lo] + alpha_p, mid)
        window = sorted(rank[lo:hi])
        anchored = sorted(rank[lo:mid])
        earlier = len(maximal)  # the runs of earlier windows
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
            high = window[b - 1]
            # Canonical iff a tweet created in second p[lo] ranks in [r, high].
            k = bisect_left(anchored, r)
            if k < len(anchored) and anchored[k] <= high:
                last = max(map(by_rank.__getitem__, window[a:b]))
                # Only a box whose p[lo] + alpha_p reaches p[last] can hold the run.
                start = bisect_left(maximal, bisect_left(p, p[last] - alpha_p), 0, earlier,
                                    key=itemgetter(0))
                if not any(box_low <= r and high <= box_high
                           for _, box_low, box_high, _ in maximal[start:earlier]):
                    maximal.append((lo, r, high, hi))
        lo = mid

    def members(run: tuple[int, int, int, int]) -> list[int]:
        """The ranks of the candidates inside a run's box."""
        run_lo, low, high, run_hi = run
        if run_hi - run_lo <= high - low:
            return [r for r in rank[run_lo:run_hi] if low <= r <= high]
        return [r for r in range(low, high + 1) if run_lo <= by_rank[r] < run_hi]

    clusters: Iterable[Iterable[int]] = map(members, maximal)
    if merge_overlapping:
        clusters = _merge_components(clusters)

    events = []
    for cluster in clusters:
        indices = [by_rank[r] for r in cluster]
        first, last = min(indices), max(indices)
        low, high = min(cluster), max(cluster)
        events.append(
            AttackEvent(
                tweet_ids=frozenset(ids[cands[j]] for j in indices),
                users=frozenset(users[cands[j]] for j in indices),
                start_ms=created[first],
                end_ms=deleted[by_rank[high]],
                creation_window_s=p[last] - p[first],
                deletion_window_s=d[high] - d[low],
                max_lifetime_s=max(d[r] - p[by_rank[r]] for r in cluster),
            )
        )
    events.sort(key=lambda e: (e.start_ms, min(e.tweet_ids), -len(e.tweet_ids)))
    return events


def _merge_components(clusters: Iterable[Iterable[int]]) -> list[frozenset[int]]:
    """Union clusters that share at least one member, via union-find, in one
    pass over the clusters: each member's first cluster owns it."""
    parent: list[int] = []

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    owner: dict[int, int] = {}
    for idx, cluster in enumerate(clusters):
        parent.append(idx)
        root = idx  # the root of idx's set, kept current through its unions
        for member in cluster:
            other = owner.setdefault(member, idx)
            if other != idx:
                other = find(other)
                if other != root:
                    parent[root] = other
                    root = other
    merged: dict[int, set[int]] = {}
    for member, idx in owner.items():
        merged.setdefault(find(idx), set()).add(member)
    return [frozenset(members) for members in merged.values()]


# ---------------------------------------------------------------------------
# Astrobot labeling and non-trending candidate scan
# ---------------------------------------------------------------------------

def label_astrobots(
    attacked: Iterable[TrendInstance],
    tz_offset: int = DEFAULT_TZ_OFFSET,
) -> set[int]:
    """Users who posted a same-day-deleted lexicon tweet into an attacked trend.

    ``attacked`` holds the flagged instances of the attacked trend-days
    only; the caller, which holds the verdicts, picks them.
    """
    bots: set[int] = set()
    for instance in attacked:
        for user, created_ms, deleted_ms, flags in zip(
                instance.users, instance.created_ms, instance.deleted_ms, instance.flag_bytes()):
            if deleted_ms == NOT_DELETED or not flags & LEXICON:
                continue
            if local_day(deleted_ms, tz_offset) == local_day(created_ms, tz_offset):
                bots.add(user)
    return bots


def scan_candidates(
    instances: Mapping[tuple[date, str], TrendInstance],
    known_trends: set[tuple[date, str]],
    config: DetectorConfig,
    min_tweets: int = 4,
) -> list[Verdict]:
    """Classify hashtag-days that never made the trends list.

    ``instances`` are the flagged hashtag-days the join discovers (trends
    None).
    Those with at least ``min_tweets`` tweets that were not trending that
    day or the next are scored, in key order. Positive verdicts are
    unsuccessful attacks.
    """
    verdicts = []
    for day, tag in sorted(instances):
        instance = instances[day, tag]
        if len(instance.ids) < min_tweets:
            continue
        if (day, tag) in known_trends or (
                day < date.max and (day + timedelta(days=1), tag) in known_trends):
            continue
        verdicts.append(score_instance(instance, config))
    return verdicts


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def verdict_record(verdict: Verdict) -> dict:
    record = {
        "attacked": verdict.attacked,
        "preset": verdict.preset,
        "fired_rules": [
            {
                "rule": r.rule_id,
                "value": r.value,
                "threshold": r.threshold,
                "op": r.op,
                "passed": r.passed,
            }
            for r in verdict.fired_rules
        ],
        "features": asdict(verdict.features),
    }
    if verdict.trend is not None:
        record["date"] = verdict.trend.date.isoformat()
        record["keyword"] = verdict.trend.keyword.normalized
        record["kind"] = verdict.trend.keyword.kind
    return record


def write_verdicts_jsonl(handle, verdicts: Iterable[Verdict]) -> None:
    for verdict in verdicts:
        handle.write(json.dumps(verdict_record(verdict), sort_keys=True) + "\n")


def write_astrobots(handle, user_ids: Iterable[int]) -> None:
    for user_id in sorted(user_ids):
        handle.write(f"{user_id}\n")
