"""The simulator's writers: each `stream.jsonl` line equals `json.dumps` of
the event's archive record (the oracle in `tests/oracles.py`), and the CSV
sidecars read back through the loaders whatever a keyword holds."""

import io
import json
from types import SimpleNamespace

import pytest

from trendguard.core import normalize_keyword
from trendguard.ingest import (
    Deletion,
    Tweet,
    load_trend_days,
    load_trend_epochs,
)
from trendguard.simulator import (
    GeoTweet,
    ScenarioConfig,
    build_stream,
    load_truth_csv,
    write_epochs_csv,
    write_stream_jsonl,
    write_trends_csv,
    write_truth_csv,
)

from conftest import DAY, DAY_NOON, make_tweet, read_all
from oracles import event_to_record


def oracle_line(event) -> str:
    return json.dumps(event_to_record(event), sort_keys=True, ensure_ascii=False) + "\n"


def assert_writes_match_oracle(events) -> list:
    """Run the writer over ``events``, checking that it issues exactly one
    write per event, equal to the oracle line; returns the events seen."""
    writes: list[str] = []
    seen = []

    def checked():
        for event in events:
            yield event
            # The writer asks for the next event only after writing this one.
            assert writes == [oracle_line(event)]
            writes.clear()
            seen.append(event)

    write_stream_jsonl(SimpleNamespace(write=writes.append), checked())
    assert writes == []
    return seen


@pytest.mark.parametrize("seed", [1, 7, 1234])
def test_two_day_stream_equals_the_oracle(seed):
    kinds = {"geo": 0, "reply": 0, "mentions": 0, "deletion": 0}

    def counted(events):
        for event in events:
            if isinstance(event, Deletion):
                kinds["deletion"] += 1
            else:
                kinds["geo"] += isinstance(event, GeoTweet)
                kinds["reply"] += event.is_reply
                kinds["mentions"] += bool(event.mentions)
            yield event

    labeled = build_stream(ScenarioConfig(n_days=2, seed=seed))
    assert_writes_match_oracle(counted(labeled.events()))
    # The optional slots the simulator fills were exercised (its retweets all
    # start with "RT @", so `retweeted_status` is left to the edge events).
    assert min(kinds.values()) > 0, kinds


T = DAY_NOON * 1000


def creation(tweet_id=1, text="x", ms=T, user_id=2, geo=None, **fields):
    tweet = make_tweet(tweet_id, user_id, text, 0, **fields)._replace(created_ms=ms)
    return tweet if geo is None else GeoTweet(geo=geo, **tweet._asdict())


EDGE_EVENTS = {
    "escapes": creation(text='q"b\\s/ c\x00\x01\x1f\x7f \n\r\t\b\f l\u2028p\u2029 e\U0001F600 ş'),
    "quoted hashtag": creation(text="#a", hashtags=('a"b', "c\\d", "ı\U0001F600")),
    "retweet without RT prefix": creation(text="plain text", is_retweet=True),
    "retweet with RT prefix": creation(text="RT @someone: x", is_retweet=True),
    "reply, urls and mentions": creation(text="@a @b @c", is_reply=True, urls=3,
                                         mentions=(5, 2**63, 7)),
    "negative geo": creation(geo=(-33.868820119999995, -151.20929999999998)),
    "long mantissa geo": creation(geo=(0.1 + 0.2, 1e-7)),
    "large geo": creation(geo=(1e22, -0.0)),
    "id at 2**63": creation(tweet_id=2**63, user_id=2**63 - 1),
    "id above 2**63": creation(tweet_id=2**64 + 5, user_id=2**70, is_reply=True, is_retweet=True),
    "deletion above 2**63": Deletion(tweet_id=2**63, user_id=2**64 + 1, time_ms=T),
    "deletion": Deletion(tweet_id=3, user_id=4, time_ms=T + 1),
}


@pytest.mark.parametrize("name", EDGE_EVENTS)
def test_edge_event_equals_the_oracle(name):
    assert assert_writes_match_oracle([EDGE_EVENTS[name]]) == [EDGE_EVENTS[name]]


def test_created_at_follows_each_second():
    # Same second twice, across a boundary, back in time, and before 1970.
    times = [T, T + 999, T + 1000, T + 1001, T + 61_000, T - 1, T, -1, -1000, 0]
    events = [creation(tweet_id=i, ms=ms) for i, ms in enumerate(times)]
    assert len(assert_writes_match_oracle(events)) == len(times)
    buffer = io.StringIO()
    write_stream_jsonl(buffer, events)
    stamps = [json.loads(line)["created_at"] for line in buffer.getvalue().split("\n")[:-1]]
    assert stamps[:3] == ["Tue Jun 18 09:00:00 +0000 2019", "Tue Jun 18 09:00:00 +0000 2019",
                          "Tue Jun 18 09:00:01 +0000 2019"]
    assert stamps[-3:] == ["Wed Dec 31 23:59:59 +0000 1969"] * 2 + ["Thu Jan 01 00:00:00 +0000 1970"]


# ---------------------------------------------------------------------------
# Writer to parser: the pipeline reads back every event the simulator wrote
# ---------------------------------------------------------------------------

def pipeline_view(event):
    """An event as the pipeline sees it: a deletion whole, a tweet by the
    fields of `Tweet` (a GeoTweet's point is written, never read)."""
    if isinstance(event, Deletion):
        return event
    return tuple(getattr(event, name) for name in Tweet._fields)


def assert_reads_back(events, path):
    events = list(events)
    with open(path, "w", encoding="utf-8") as handle:
        write_stream_jsonl(handle, events)
    parsed, stats = read_all(str(path))
    assert (stats.malformed_skipped, stats.lines_read) == (0, len(events))
    assert list(map(pipeline_view, parsed)) == list(map(pipeline_view, events))


# Edge events whose id lies outside int64: the parser counts each as malformed.
OUTSIDE_INT64 = ["id at 2**63", "id above 2**63", "deletion above 2**63"]


def test_parser_reads_back_every_edge_event(tmp_path):
    assert_reads_back([event for name, event in EDGE_EVENTS.items() if name not in OUTSIDE_INT64],
                      tmp_path / "stream.jsonl")
    for name in OUTSIDE_INT64:
        path = tmp_path / "outside.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            write_stream_jsonl(handle, [EDGE_EVENTS[name]])
        parsed, stats = read_all(str(path))
        assert parsed == [] and (stats.malformed_skipped, stats.lines_read) == (1, 1), name


def test_parser_reads_back_a_two_day_stream(tmp_path):
    labeled = build_stream(ScenarioConfig(n_days=2, seed=7))
    assert_reads_back(labeled.events(), tmp_path / "stream.jsonl")


# ---------------------------------------------------------------------------
# CSV sidecars
# ---------------------------------------------------------------------------

def test_sidecars_round_trip_keywords_with_commas_and_quotes(tmp_path):
    keywords = {k.normalized: k for k in map(normalize_keyword, ["a, b", 'say "hi"', "#plain"])}
    stub = SimpleNamespace(
        truth={(DAY, k): attacked for k, attacked in zip(keywords, (True, False, True))},
        keywords=keywords,
    )
    truth = tmp_path / "truth.csv"
    trends = tmp_path / "trends.csv"
    with open(truth, "w", encoding="utf-8", newline="") as handle:
        write_truth_csv(handle, stub)
    with open(trends, "w", encoding="utf-8", newline="") as handle:
        write_trends_csv(handle, stub)
    assert load_truth_csv(str(truth)) == stub.truth
    assert {(t.date, t.keyword) for t in load_trend_days(str(trends))} == {
        (DAY, k) for k in keywords.values()}
    assert trends.read_text(encoding="utf-8") == (
        'date,keyword\n2019-06-18,"a, b"\n2019-06-18,#plain\n2019-06-18,"say ""hi"""\n')

    epochs = io.StringIO()
    write_epochs_csv(epochs, [(T, []), (T, list(keywords) + ["unlisted, raw"])], keywords)
    epochs.seek(0)
    (epoch,) = load_trend_epochs(epochs)
    assert epoch.captured_ms == T and epoch.location == "simulated"
    assert [(rank, k.raw, volume) for rank, k, volume in epoch.entries] == [
        (1, "a, b", None), (2, 'say "hi"', None), (3, "#plain", None), (4, "unlisted, raw", None)]
