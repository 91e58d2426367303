"""The join owns the TrendInstance invariants that features, windows and
metrics trust without checking: tweets strictly ascending by (created_ms,
id), deletions only for the instance's tweets and never before their
creation, and the documented attach rule (the earliest notice for an id
decides; one before the creation attaches nothing and is counted in
invalid_deletions). Both joins are checked, on shuffled streams, with the
trend-day given and as the hashtag-day the join discovers."""

import io
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from trendguard.core import normalize_keyword
from trendguard.ingest import (
    Creation,
    Deletion,
    TrendDay,
    TrendInstance,
    Tweet,
    build_instances_from_files,
    build_trend_instances,
)
from trendguard.simulator import write_stream_jsonl

from conftest import DAY, DAY_NOON

TREND = TrendDay(DAY, normalize_keyword("#tag"))
KEY = (TREND.date, TREND.keyword.normalized)
# Matching and non-matching texts; creations share three seconds at a few
# distinct milliseconds.
TEXTS = [("bir #tag", ("tag",)), ("iki #baska", ("baska",))]
MILLIS = [0, 1, 250, 999]


@st.composite
def shuffled_streams(draw):
    """Tweets tied in their second, repeated creations, and repeated,
    pre-creation and orphan deletion notices, in a random order."""
    events = []
    for tweet_id in draw(st.lists(st.integers(1, 40), min_size=1, max_size=15, unique=True)):
        created = (DAY_NOON + draw(st.integers(0, 2))) * 1000 + draw(st.sampled_from(MILLIS))
        text, hashtags = draw(st.sampled_from(TEXTS))
        tweet = Tweet(id=tweet_id, user_id=tweet_id + 100, text=text, created_ms=created,
                      hashtags=hashtags)
        events += [Creation(tweet)] * draw(st.integers(1, 2))
        for offset in draw(st.lists(st.integers(-1500, 3000), max_size=3)):
            events.append(Deletion(tweet_id=tweet_id, user_id=tweet_id + 100,
                                   time_ms=created + offset))
    for orphan in draw(st.lists(st.integers(41, 45), max_size=2)):
        events.append(Deletion(tweet_id=orphan, user_id=0, time_ms=DAY_NOON * 1000))
    return draw(st.permutations(events))


def assert_join_invariants(instance, events):
    keys = [(t.created_ms, t.id) for t in instance.tweets]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    matched = {e.tweet.id for e in events if isinstance(e, Creation) and "#tag" in e.tweet.text}
    assert {t.id for t in instance.tweets} == matched
    created = {t.id: t.created_ms for t in instance.tweets}
    assert instance.deletions.keys() <= created.keys()
    assert all(when >= created[tid] for tid, when in instance.deletions.items())

    earliest = {}
    for event in events:
        if isinstance(event, Deletion) and event.tweet_id in created:
            earliest[event.tweet_id] = min(event.time_ms,
                                           earliest.get(event.tweet_id, event.time_ms))
    assert instance.deletions == {tid: when for tid, when in earliest.items()
                                  if when >= created[tid]}
    assert instance.invalid_deletions == sum(when < created[tid]
                                             for tid, when in earliest.items())


def discovered(instances):
    """The discovered hashtag-day (DAY, "tag"), empty when no tweet has it."""
    instance = instances.get(KEY, TrendInstance(TREND))
    assert instance.keyword == TREND.keyword
    return instance


@settings(max_examples=300, deadline=None)
@given(events=shuffled_streams())
def test_one_pass_join_invariants(events):
    assert_join_invariants(build_trend_instances([TREND], events)[KEY], events)
    assert_join_invariants(discovered(build_trend_instances(None, events)), events)


@settings(max_examples=150, deadline=None)
@given(events=shuffled_streams(), split=st.integers(0, 60))
def test_file_join_invariants(events, split):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for index, part in enumerate((events[:split], events[split:])):
            buffer = io.StringIO()
            write_stream_jsonl(buffer, part)
            path = Path(tmp) / f"shard{index}.jsonl"
            path.write_text(buffer.getvalue(), encoding="utf-8")
            paths.append(str(path))
        instance = build_instances_from_files([TREND], paths)[KEY]
        found = discovered(build_instances_from_files(None, paths))
    assert_join_invariants(instance, events)
    assert_join_invariants(found, events)
