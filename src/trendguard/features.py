"""
Per-trend behavioral features consumed by the detectors: deletion counts
and ratios over several tweet subsets, the initial-deletion prefix, creation
and deletion windows over attack-candidate tweets, lifetimes, and the
per-minute burst entropy of creations and deletions.
"""

from __future__ import annotations

import csv
import math
import statistics
from collections import Counter
from dataclasses import astuple, dataclass, fields
from typing import Iterable, Optional

from .core import LEXICON, RETWEET, SINGLE_ENGAGEMENT, span_s
from .ingest import NOT_DELETED, TrendInstance


@dataclass(frozen=True, slots=True)
class FeatureVector:
    n_tweets: int
    n_deleted: int
    n_nonretweet: int
    n_deleted_nonretweet: int
    n_set: int
    n_deleted_set: int
    n_lexicon: int
    n_deleted_lexicon: int
    deletion_ratio: float
    nonretweet_deletion_ratio: float
    set_deletion_ratio: float
    lexicon_deletion_ratio: float
    initial_deletions: int
    creation_window_s: int
    deletion_window_s: int
    lifetime_median_s: Optional[float]
    lifetime_mean_s: Optional[float]
    entropy_create: float  # bits
    entropy_delete: float  # bits


# The CSV and JSON columns are the fields, in order.
FEATURE_COLUMNS = tuple(f.name for f in fields(FeatureVector))


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def pairwise_sum(values: list[float]) -> float:
    """The sum in float64 ``np.sum``'s pairwise order, equal to it bit for bit:
    8 strided accumulators in blocks of up to 128 terms, halves split at a
    multiple of 8 above. Explicit ``+=``: builtin sum() compensates on 3.12+."""
    n = len(values)
    if n > 128:
        half = n // 2 - (n // 2) % 8
        return pairwise_sum(values[:half]) + pairwise_sum(values[half:])
    total, tail = 0.0, 0
    if n >= 8:
        acc = values[:8]
        tail = n - n % 8
        for i in range(8, tail, 8):
            for j in range(8):
                acc[j] += values[i + j]
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
    for value in values[tail:]:
        total += value
    return total


def minute_entropy(times_ms: Iterable[int]) -> float:
    """Shannon entropy (bits) of event counts per absolute epoch minute.

    Bins align to epoch minutes, so the value is independent of input order
    and of which event happens to come first. An empty input has entropy 0.
    """
    counts = Counter(ms // 60_000 for ms in times_ms)
    if not counts:
        return 0.0
    # Summation in canonical bin order keeps the value exactly
    # permutation-invariant despite floating-point non-associativity.
    total = sum(counts.values())
    probs = [counts[b] / total for b in sorted(counts)]
    return -pairwise_sum([p * math.log2(p) for p in probs])


def initial_deletions(instance: TrendInstance) -> int:
    """Length of the creation-ordered prefix of deleted single-engagement tweets.

    Ties in creation time break by ascending tweet id. The count stops at
    the first tweet that is kept or engages anything beyond the keyword.
    """
    count = 0
    for deleted_ms, flags in zip(instance.deleted_ms, instance.flag_bytes()):
        if flags & SINGLE_ENGAGEMENT and deleted_ms != NOT_DELETED:
            count += 1
        else:
            break
    return count


def lifetime_stats(instance: TrendInstance) -> tuple[Optional[float], Optional[float]]:
    """Median and mean deletion-minus-creation lifetime (seconds) over the
    deleted tweets; (None, None) when nothing was deleted."""
    lifetimes = [span_s(deleted_ms, created_ms)
                 for created_ms, deleted_ms in zip(instance.created_ms, instance.deleted_ms)
                 if deleted_ms != NOT_DELETED]
    if not lifetimes:
        return None, None
    return float(statistics.median(lifetimes)), sum(lifetimes) / len(lifetimes)


def _candidate_subset(instance: TrendInstance) -> list[int]:
    """The rows of the deleted lexicon tweets if any exist, else of the
    deleted single-engagement tweets."""
    deleted = [i for i, deleted_ms in enumerate(instance.deleted_ms) if deleted_ms != NOT_DELETED]
    flags = instance.flag_bytes()
    return ([i for i in deleted if flags[i] & LEXICON]
            or [i for i in deleted if flags[i] & SINGLE_ENGAGEMENT])


def attack_windows(instance: TrendInstance) -> tuple[int, int]:
    """Creation and deletion spans (seconds) over the attack-candidate tweet
    subset; (0, 0) when no deleted lexicon or single-engagement tweet exists.
    """
    subset = _candidate_subset(instance)
    if not subset:
        return 0, 0
    creations = [instance.created_ms[i] for i in subset]
    deletions = [instance.deleted_ms[i] for i in subset]
    return (
        span_s(max(creations), min(creations)),
        span_s(max(deletions), min(deletions)),
    )


def count_features(instance: TrendInstance) -> FeatureVector:
    """All counts, ratios, windows, and entropies for one trend instance,
    which the join flagged."""
    n_tweets = len(instance.ids)
    n_deleted = n_nonretweet = n_deleted_nonretweet = 0
    n_set = n_deleted_set = n_lexicon = n_deleted_lexicon = 0
    for deleted_ms, flags in zip(instance.deleted_ms, instance.flag_bytes()):
        deleted = deleted_ms != NOT_DELETED
        n_deleted += deleted
        if not flags & RETWEET:
            n_nonretweet += 1
            n_deleted_nonretweet += deleted
        if flags & SINGLE_ENGAGEMENT:
            n_set += 1
            n_deleted_set += deleted
        if flags & LEXICON:
            n_lexicon += 1
            n_deleted_lexicon += deleted

    creation_window_s, deletion_window_s = attack_windows(instance)
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
        initial_deletions=initial_deletions(instance),
        creation_window_s=creation_window_s,
        deletion_window_s=deletion_window_s,
        lifetime_median_s=lifetime_median_s,
        lifetime_mean_s=lifetime_mean_s,
        entropy_create=minute_entropy(instance.created_ms),
        entropy_delete=minute_entropy(ms for ms in instance.deleted_ms if ms != NOT_DELETED),
    )


def write_feature_csv(handle, rows: Iterable[tuple[TrendInstance, FeatureVector]]) -> None:
    """One row per trend instance, fixed column order."""
    writer = csv.writer(handle)
    writer.writerow(("date", "keyword") + FEATURE_COLUMNS)
    for instance, vector in rows:
        writer.writerow(
            [instance.trend.date.isoformat(), instance.keyword.normalized, *astuple(vector)]
        )
