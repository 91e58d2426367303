"""
Attack-success measurements over real-time trend snapshots: trend
lifecycles (entry/exit/rank), speed from pre-entry tweet activity, deletion
ratios before entry, daily prevalence of attacked trends in the top-K,
entry-hour histograms, and the undeleted-volume comparison between
attacked and other trends.

Attack verdicts arrive as a mapping from (date, normalized keyword) to
whether that trend-day was attacked.
"""

from __future__ import annotations

import csv
import statistics
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from datetime import date
from typing import Iterable, Mapping, Optional, Sequence

from .core import (
    DEFAULT_TZ_OFFSET,
    Keyword,
    TrendGuardError,
    local_day,
    local_hour,
    span_s,
)
from .ingest import NOT_DELETED, TrendDay, TrendEpoch, TrendInstance, day_number_to_date


class NeverTrended(TrendGuardError):
    """The keyword appears in no trend epoch."""


class NoPriorTweets(TrendGuardError):
    """No tweets precede the trend's first list entry."""


@dataclass(frozen=True, slots=True)
class TrendLifecycle:
    keyword: Keyword
    first_entry_ms: int
    first_exit_ms: int
    initial_rank: int
    best_rank: int

    @property
    def listed_for_s(self) -> int:
        return span_s(self.first_exit_ms, self.first_entry_ms)


def lifecycle(keyword: Keyword, epochs: Iterable[TrendEpoch]) -> TrendLifecycle:
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
    day get no lifecycle. The entry is looked for among the day's epochs
    only, and ``lifecycle`` reads from the entry epoch through the span.
    """
    days = [local_day(epoch.captured_ms, tz_offset) for epoch in epochs]
    cycles = {}
    for trend in trends:
        day, normalized = trend.day_number(), trend.keyword.normalized
        start = bisect_left(days, day)
        # Listed in the epoch before the day's first: a span from the day before.
        listed = start > 0 and epochs[start - 1].rank_of(normalized) is not None
        for i in range(start, bisect_right(days, day, start)):
            if epochs[i].rank_of(normalized) is None:
                listed = False
            elif not listed:
                from_entry = map(epochs.__getitem__, range(i, len(epochs)))
                cycles[(trend.date, normalized)] = lifecycle(trend.keyword, from_entry)
                break
    return cycles


def trend_speed(instance: TrendInstance, cycle: TrendLifecycle) -> int:
    """Seconds from the median creation second of the pre-entry tweets to
    the entry second, rounded; never negative, as every pre-entry second is
    at most the entry second."""
    entry_ms = cycle.first_entry_ms
    pre_entry = [ms // 1000 for ms in instance.created_ms if ms < entry_ms]
    if not pre_entry:
        raise NoPriorTweets(f"no tweets precede entry of {cycle.keyword.raw!r}")
    return round(entry_ms // 1000 - statistics.median(pre_entry))


def pre_entry_deletion_ratio(instance: TrendInstance, cycle: TrendLifecycle) -> float:
    """Among pre-entry tweets, the fraction already deleted before entry."""
    entry_ms = cycle.first_entry_ms
    total = 0
    deleted = 0
    for created_ms, deleted_ms in zip(instance.created_ms, instance.deleted_ms):
        if created_ms >= entry_ms:
            continue
        total += 1
        if deleted_ms != NOT_DELETED and deleted_ms < entry_ms:
            deleted += 1
    return deleted / total if total else 0.0


VerdictMap = Mapping[tuple[date, str], bool]


def prevalence(
    verdicts: VerdictMap,
    epochs: Sequence[TrendEpoch],
    k: int = 10,
    tz_offset: int = DEFAULT_TZ_OFFSET,
) -> dict[date, float]:
    """Per-day fraction of unique top-k entrants classified as attacked.

    A keyword counts once per local day it appears at rank <= k. Days with
    no entrants are omitted. The daily average of the returned fractions is
    the headline prevalence number.
    """
    entrants: dict[int, set[str]] = {}
    for epoch in epochs:
        day = local_day(epoch.captured_ms, tz_offset)
        for rank, keyword, _ in epoch.entries:
            if rank <= k:
                entrants.setdefault(day, set()).add(keyword.normalized)
    result = {}
    for day, keywords in sorted(entrants.items()):
        day_date = day_number_to_date(day)
        attacked = sum(1 for kw in keywords if verdicts.get((day_date, kw), False))
        result[day_date] = attacked / len(keywords)
    return result


def daily_average(per_day: Mapping[date, float]) -> float:
    return sum(per_day.values()) / len(per_day) if per_day else 0.0


def entry_hour_histogram(
    lifecycles: Iterable[TrendLifecycle], tz_offset: int = DEFAULT_TZ_OFFSET
) -> list[int]:
    """Counts of first-entry hour of day (24 bins, reporting timezone)."""
    bins = [0] * 24
    for cycle in lifecycles:
        bins[local_hour(cycle.first_entry_ms, tz_offset)] += 1
    return bins


@dataclass(frozen=True, slots=True)
class VolumeRow:
    label: str
    n_trends: int
    median_undeleted: Optional[float]
    median_volume: Optional[float]


def volume_report(
    instances: Mapping[tuple[date, str], TrendInstance],
    verdicts: VerdictMap,
    epochs: Sequence[TrendEpoch],
    tz_offset: int = DEFAULT_TZ_OFFSET,
) -> list[VolumeRow]:
    """Median undeleted tweet count and reported volume, attacked vs other.

    A trend's volume is the largest value the snapshots report for its
    keyword on its local day; trends whose snapshots never report a volume
    contribute nothing to the volume median.
    """
    volume_index: dict[tuple[int, str], int] = {}
    for epoch in epochs:
        day = local_day(epoch.captured_ms, tz_offset)
        for _, keyword, volume in epoch.entries:
            if volume is None:
                continue
            key = (day, keyword.normalized)
            volume_index[key] = max(volume, volume_index.get(key, 0))

    undeleted: dict[str, list[int]] = {"attacked": [], "other": []}
    volumes: dict[str, list[int]] = {"attacked": [], "other": []}
    for key, instance in instances.items():
        label = "attacked" if verdicts.get(key, False) else "other"
        undeleted[label].append(instance.deleted_ms.count(NOT_DELETED))
        volume = volume_index.get((instance.trend.day_number(), key[1]))
        if volume is not None:
            volumes[label].append(volume)

    rows = []
    for label in ("attacked", "other"):
        counts = undeleted[label]
        vols = volumes[label]
        rows.append(
            VolumeRow(
                label=label,
                n_trends=len(counts),
                median_undeleted=float(statistics.median(counts)) if counts else None,
                median_volume=float(statistics.median(vols)) if vols else None,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# CSV writers
# ---------------------------------------------------------------------------

def write_lifecycles_csv(handle, lifecycles: Iterable[TrendLifecycle]) -> None:
    writer = csv.writer(handle)
    writer.writerow(["keyword", "first_entry_s", "first_exit_s", "initial_rank", "best_rank"])
    for cycle in lifecycles:
        writer.writerow(
            [
                cycle.keyword.normalized,
                cycle.first_entry_ms // 1000,
                cycle.first_exit_ms // 1000,
                cycle.initial_rank,
                cycle.best_rank,
            ]
        )


def write_prevalence_csv(handle, per_day: Mapping[date, float]) -> None:
    writer = csv.writer(handle)
    writer.writerow(["date", "attacked_fraction"])
    for day in sorted(per_day):
        writer.writerow([day.isoformat(), per_day[day]])


def write_histogram_csv(handle, bins: Sequence[int]) -> None:
    writer = csv.writer(handle)
    writer.writerow(["hour", "count"])
    for hour, count in enumerate(bins):
        writer.writerow([hour, count])


def write_volume_csv(handle, rows: Iterable[VolumeRow]) -> None:
    writer = csv.writer(handle)
    writer.writerow(["class", "n_trends", "median_undeleted", "median_volume"])
    for row in rows:
        writer.writerow(
            [
                row.label,
                row.n_trends,
                "" if row.median_undeleted is None else row.median_undeleted,
                "" if row.median_volume is None else row.median_volume,
            ]
        )
