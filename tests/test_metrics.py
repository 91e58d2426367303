import io
from datetime import date, datetime, timedelta, timezone

import pytest
from hypothesis import given, settings, strategies as st

from trendguard.core import normalize_keyword
from trendguard.ingest import TrendDay, TrendEpoch, load_trend_epochs
from trendguard.metrics import (
    NeverTrended,
    NoPriorTweets,
    daily_average,
    entry_hour_histogram,
    lifecycle,
    pre_entry_deletion_ratio,
    prevalence,
    trend_day_lifecycles,
    trend_speed,
    volume_report,
)

import oracles
from conftest import DAY, DAY_NOON, make_instance, make_tweet


def epochs_csv(rows):
    out = ["captured_at,location,rank,keyword,volume"]
    out += rows
    return load_trend_epochs(io.StringIO("\n".join(out) + "\n"))


def epoch_rows(keyword, start_min, end_min, rank=3, others=("#x", "#y")):
    """Epochs every 5 minutes; keyword listed in [start, end] minutes."""
    rows = []
    for minute in range(0, end_min + 10, 5):
        t = f"2019-06-18T12:{minute:02d}:00Z" if minute < 60 else \
            f"2019-06-18T13:{minute - 60:02d}:00Z"
        entries = []
        listed = start_min <= minute <= end_min
        slot = 1
        for other in others:
            if slot == rank and listed:
                entries.append((rank, keyword))
                slot += 1
            entries.append((slot, other))
            slot += 1
        if listed and rank >= slot:
            entries.append((slot, keyword))
        for r, kw in entries:
            rows.append(f"{t},tr,{r},{kw},")
    return rows


class TestLifecycle:
    def test_entry_exit_and_rank(self):
        kw = normalize_keyword("#konu", "tr")
        epochs = epochs_csv(epoch_rows("#konu", 0, 30))
        cycle = lifecycle(kw, epochs)
        assert cycle.initial_rank == 3
        assert cycle.best_rank == 3
        # Entry at 12:00, first epoch lacking it at 12:35.
        assert cycle.listed_for_s == 35 * 60

    def test_single_epoch(self):
        kw = normalize_keyword("#konu", "tr")
        epochs = epochs_csv(epoch_rows("#konu", 5, 5))
        cycle = lifecycle(kw, epochs)
        assert cycle.listed_for_s == 5 * 60

    def test_never_trended(self):
        kw = normalize_keyword("#yok", "tr")
        epochs = epochs_csv(epoch_rows("#konu", 0, 10))
        with pytest.raises(NeverTrended):
            lifecycle(kw, epochs)

    def test_best_rank_improves(self):
        kw = normalize_keyword("#konu", "tr")
        rows = epoch_rows("#konu", 0, 10, rank=3)
        # Re-listed later at rank 1 is a re-entry; only the first span counts.
        epochs = epochs_csv(rows)
        cycle = lifecycle(kw, epochs)
        assert cycle.best_rank == 3


def listed_epochs(snapshots):
    """(ISO time, listed keywords) pairs; '#baska' holds rank 1 throughout."""
    rows = []
    for when, keywords in snapshots:
        for rank, keyword in enumerate(("#baska",) + tuple(keywords), start=1):
            rows.append(f"{when},tr,{rank},{keyword},")
    return epochs_csv(rows)


def konu_day(iso):
    return TrendDay(date=date.fromisoformat(iso), keyword=normalize_keyword("#konu", "tr"))


# Local midnight (UTC+3) starting 2019-06-19 is 2019-06-18T21:00Z.
TWO_DAYS = [
    ("2019-06-18T11:55:00Z", ()),
    ("2019-06-18T12:00:00Z", ("#konu",)),
    ("2019-06-18T12:05:00Z", ("#konu",)),
    ("2019-06-18T12:10:00Z", ()),
    ("2019-06-19T08:55:00Z", ()),
    ("2019-06-19T09:00:00Z", ("#konu",)),
    ("2019-06-19T09:05:00Z", ()),
]


class TestTrendDayLifecycles:
    def test_each_day_gets_its_own_entry(self):
        cycles = trend_day_lifecycles(
            [konu_day("2019-06-18"), konu_day("2019-06-19")], listed_epochs(TWO_DAYS)
        )
        first = cycles[(date(2019, 6, 18), "konu")]
        second = cycles[(date(2019, 6, 19), "konu")]
        assert (first.first_entry_ms, first.first_exit_ms) == (
            1560859200 * 1000, 1560859800 * 1000)
        assert (second.first_entry_ms, second.first_exit_ms) == (
            1560934800 * 1000, 1560935100 * 1000)
        # The plain lifecycle sees only the first listing span.
        assert lifecycle(normalize_keyword("#konu", "tr"), listed_epochs(TWO_DAYS)) == first

    def test_span_runs_past_midnight(self):
        epochs = listed_epochs([
            ("2019-06-18T20:50:00Z", ("#konu",)),
            ("2019-06-18T21:05:00Z", ("#konu",)),
            ("2019-06-18T21:10:00Z", ()),
        ])
        cycles = trend_day_lifecycles([konu_day("2019-06-18"), konu_day("2019-06-19")], epochs)
        # The span entered on the 18th; the 19th has no entry of its own.
        assert list(cycles) == [(date(2019, 6, 18), "konu")]
        assert cycles[(date(2019, 6, 18), "konu")].first_exit_ms == 1560892200 * 1000

    def test_span_from_the_day_before_is_not_an_entry(self):
        epochs = listed_epochs([
            ("2019-06-18T20:55:00Z", ("#konu",)),
            ("2019-06-18T21:00:00Z", ("#konu",)),
            ("2019-06-18T21:05:00Z", ()),
            ("2019-06-19T06:00:00Z", ("#konu",)),
        ])
        cycles = trend_day_lifecycles([konu_day("2019-06-19")], epochs)
        assert cycles[(date(2019, 6, 19), "konu")].first_entry_ms == 1560924000 * 1000

    def test_no_entry_on_the_day_gets_no_lifecycle(self):
        epochs = listed_epochs(TWO_DAYS)
        # Listed on the 18th and 19th only: nothing for the 17th (which has
        # no epochs) or for a trend-day whose keyword enters only later.
        assert trend_day_lifecycles([konu_day("2019-06-17")], epochs) == {}
        later = listed_epochs([("2019-06-18T12:00:00Z", ()),
                               ("2019-06-19T09:00:00Z", ("#konu",))])
        assert trend_day_lifecycles([konu_day("2019-06-18")], later) == {}

    def test_reads_only_its_day_when_the_keyword_enters_later(self, monkeypatch):
        """Hourly epochs over 30 days; #konu enters only 29 days after the
        trend-day. The trend-day asks for its rank in its own day's epochs
        alone, not in every epoch up to the entry."""
        start = datetime(2019, 6, 18, tzinfo=timezone.utc)
        entry = start + timedelta(days=29, hours=12)
        epochs = listed_epochs([
            ((start + timedelta(hours=h)).strftime("%Y-%m-%dT%H:%M:%SZ"),
             ("#konu",) if start + timedelta(hours=h) == entry else ())
            for h in range(30 * 24)
        ])
        calls = []
        rank_of = TrendEpoch.rank_of

        def counted(epoch, normalized):
            calls.append(epoch)
            return rank_of(epoch, normalized)

        monkeypatch.setattr(TrendEpoch, "rank_of", counted)
        assert trend_day_lifecycles([konu_day("2019-06-18")], epochs) == {}
        # Local 2019-06-18 (UTC+3) holds the epochs from 00:00Z to 20:00Z.
        assert len(calls) == 21
        cycles = trend_day_lifecycles([konu_day("2019-07-17")], epochs)
        assert cycles[(date(2019, 7, 17), "konu")].first_entry_ms == entry.timestamp() * 1000


LIFECYCLE_KEYWORDS = [normalize_keyword(raw, "tr") for raw in ("#konu", "#baska", "yeni gün")]
HALF_HOUR_MS = 1800 * 1000
JUNE_18_MS = 1560816000 * 1000  # 2019-06-18T00:00Z


@st.composite
def epoch_series(draw):
    """Half-hourly epochs over about three days, each listing a subset of
    three keywords in some rank order."""
    slots = sorted(draw(st.lists(st.integers(0, 160), unique=True, max_size=60)))
    epochs = []
    for slot in slots:
        listed = draw(st.lists(st.sampled_from(LIFECYCLE_KEYWORDS), unique=True))
        epochs.append(TrendEpoch(
            captured_ms=JUNE_18_MS + slot * HALF_HOUR_MS, location="tr",
            entries=tuple((rank, keyword, None) for rank, keyword in enumerate(listed, 1)),
        ))
    return epochs


@settings(max_examples=300, deadline=None)
@given(
    epochs=epoch_series(),
    trends=st.lists(st.builds(TrendDay,
                              date=st.dates(date(2019, 6, 16), date(2019, 6, 22)),
                              keyword=st.sampled_from(LIFECYCLE_KEYWORDS))),
    tz_offset=st.sampled_from([0, 10800, -18000, 19800]),
)
def test_trend_day_lifecycles_match_the_full_scan(epochs, trends, tz_offset):
    """Reading the day's epochs, then the span from the entry, finds what
    reading on from the day's first epoch finds."""
    assert trend_day_lifecycles(trends, epochs, tz_offset) == \
        oracles.trend_day_lifecycles(trends, epochs, tz_offset)


def entry_at(seconds):
    kw = normalize_keyword("#konu", "tr")
    from trendguard.metrics import TrendLifecycle

    return TrendLifecycle(
        keyword=kw,
        first_entry_ms=seconds * 1000,
        first_exit_ms=(seconds + 1800) * 1000,
        initial_rank=1,
        best_rank=1,
    )


class TestSpeedAndPreEntry:
    def test_uniform_five_minutes(self):
        cycle = entry_at(DAY_NOON)
        tweets = [make_tweet(i, i, "a #konu", DAY_NOON - 300, hashtags=["konu"])
                  for i in range(1, 6)]
        instance = make_instance("#konu", tweets, {})
        assert trend_speed(instance, cycle) == 300

    def test_median_by_hand(self):
        cycle = entry_at(DAY_NOON)
        offsets = (-600, -1200, -1800)
        tweets = [make_tweet(i + 1, i + 1, "a #konu", DAY_NOON + off, hashtags=["konu"])
                  for i, off in enumerate(offsets)]
        instance = make_instance("#konu", tweets, {})
        assert trend_speed(instance, cycle) == 1200

    def test_no_prior_tweets(self):
        cycle = entry_at(DAY_NOON)
        tweets = [make_tweet(1, 1, "a #konu", DAY_NOON + 60, hashtags=["konu"])]
        instance = make_instance("#konu", tweets, {})
        with pytest.raises(NoPriorTweets):
            trend_speed(instance, cycle)

    def test_speed_never_negative(self):
        cycle = entry_at(DAY_NOON)
        tweets = [make_tweet(1, 1, "a #konu", DAY_NOON - 10, hashtags=["konu"])]
        instance = make_instance("#konu", tweets, {})
        assert trend_speed(instance, cycle) >= 0

    def test_pre_entry_deletion_ratio(self):
        cycle = entry_at(DAY_NOON)
        tweets = [make_tweet(i, i, "a #konu", DAY_NOON - 900 + i, hashtags=["konu"])
                  for i in range(1, 11)]
        deletions = {i: DAY_NOON - 300 for i in range(1, 6)}       # before entry
        deletions.update({i: DAY_NOON + 300 for i in range(6, 9)})  # after entry
        instance = make_instance("#konu", tweets, deletions)
        assert pre_entry_deletion_ratio(instance, cycle) == pytest.approx(0.5)

    def test_pre_entry_all_deleted(self):
        cycle = entry_at(DAY_NOON)
        tweets = [make_tweet(i, i, "a #konu", DAY_NOON - 900, hashtags=["konu"])
                  for i in range(1, 11)]
        instance = make_instance("#konu", tweets, {i: DAY_NOON - 100 for i in range(1, 11)})
        assert pre_entry_deletion_ratio(instance, cycle) == 1.0

    def test_pre_entry_zero_over_zero(self):
        cycle = entry_at(DAY_NOON)
        instance = make_instance("#konu", [], {})
        assert pre_entry_deletion_ratio(instance, cycle) == 0.0


class TestPrevalence:
    def test_two_of_ten(self):
        rows = []
        for r, kw in enumerate([f"#k{i}" for i in range(10)], start=1):
            rows.append(f"2019-06-18T12:00:00Z,tr,{r},{kw},")
        epochs = epochs_csv(rows)
        verdicts = {(DAY, "k0"): True, (DAY, "k5"): True}
        per_day = prevalence(verdicts, epochs, k=10)
        assert per_day == {DAY: pytest.approx(0.2)}

    def test_rank_above_k_ignored(self):
        rows = [
            "2019-06-18T12:00:00Z,tr,1,#a,",
            "2019-06-18T12:00:00Z,tr,2,#b,",
        ]
        epochs = epochs_csv(rows)
        per_day = prevalence({(DAY, "b"): True}, epochs, k=1)
        assert per_day == {DAY: 0.0}

    def test_empty_day_omitted(self):
        epochs = epochs_csv(["2019-06-18T12:00:00Z,tr,1,#a,"])
        per_day = prevalence({}, epochs, k=10)
        assert DAY in per_day
        assert date(2019, 6, 19) not in per_day

    def test_daily_average(self):
        assert daily_average({DAY: 0.2, date(2019, 6, 19): 0.4}) == pytest.approx(0.3)

    def test_unique_entrant_counted_once(self):
        rows = [
            "2019-06-18T12:00:00Z,tr,1,#a,",
            "2019-06-18T12:05:00Z,tr,1,#a,",
            "2019-06-18T12:05:00Z,tr,2,#b,",
        ]
        epochs = epochs_csv(rows)
        per_day = prevalence({(DAY, "a"): True}, epochs, k=10)
        assert per_day[DAY] == pytest.approx(0.5)


class TestEntryHours:
    def _cycles(self, seconds_list):
        return [entry_at(s) for s in seconds_list]

    def test_all_midnight(self):
        day_start = DAY_NOON - 12 * 3600
        bins = entry_hour_histogram(self._cycles([day_start + 60] * 7))
        assert bins[0] == 7
        assert sum(bins) == 7

    def test_uniform(self):
        day_start = DAY_NOON - 12 * 3600
        cycles = self._cycles([day_start + h * 3600 for h in range(24)])
        assert entry_hour_histogram(cycles) == [1] * 24

    def test_hand_counts(self):
        day_start = DAY_NOON - 12 * 3600
        cycles = self._cycles([day_start + 2 * 3600, day_start + 2 * 3600 + 120,
                               day_start + 23 * 3600])
        bins = entry_hour_histogram(cycles)
        assert bins[2] == 2 and bins[23] == 1


class TestVolumeReport:
    def test_fixture_medians(self):
        instances = {}
        verdicts = {}
        rows = []
        # Three attacked trends with 10/20/30 kept tweets; two other trends with 5/7.
        for i, kept in enumerate((10, 20, 30)):
            kw = f"#atk{i}"
            tweets = [make_tweet(100 * i + j, j, f"a {kw}", DAY_NOON + j,
                                 hashtags=[kw[1:]]) for j in range(kept)]
            instances[(DAY, kw[1:])] = make_instance(kw, tweets, {})
            verdicts[(DAY, kw[1:])] = True
            rows.append(f"2019-06-18T12:00:00Z,tr,{i + 1},{kw},{18000 + i * 1000}")
        for i, kept in enumerate((5, 7)):
            kw = f"#org{i}"
            tweets = [make_tweet(1000 + 100 * i + j, j, f"a {kw}", DAY_NOON + j,
                                 hashtags=[kw[1:]]) for j in range(kept)]
            instances[(DAY, kw[1:])] = make_instance(kw, tweets, {})
            verdicts[(DAY, kw[1:])] = False
            rows.append(f"2019-06-18T12:00:00Z,tr,{i + 4},{kw},{27000 + i * 1000}")
        epochs = epochs_csv(rows)
        report = {r.label: r for r in volume_report(instances, verdicts, epochs)}
        assert report["attacked"].median_undeleted == 20
        assert report["attacked"].median_volume == 19000
        assert report["other"].median_undeleted == 6
        assert report["other"].median_volume == 27500

    def test_absent_volumes_left_empty(self):
        kw = "#solo"
        tweets = [make_tweet(j, j, f"a {kw}", DAY_NOON + j, hashtags=["solo"])
                  for j in range(4)]
        instances = {(DAY, "solo"): make_instance(kw, tweets, {})}
        epochs = epochs_csv(["2019-06-18T12:00:00Z,tr,1,#solo,"])
        report = {r.label: r for r in volume_report(instances, {(DAY, "solo"): False}, epochs)}
        assert report["other"].median_volume is None
        assert report["other"].median_undeleted == 4
        assert report["attacked"].n_trends == 0
