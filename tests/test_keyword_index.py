"""The keyword matching of build_trend_instances (a hashtag looked up by
keyword and day, an n-gram through the keyword index) and of
group_stream_by_keyword (the keyword index) assigns a tweet exactly the
keywords that the reference match_keyword accepts; the toy trend oracle
ranks the grouping's int columns as the event-list oracle ranks its
events."""

from datetime import timedelta

from hypothesis import given, settings, strategies as st

from trendguard.core import normalize_keyword
from trendguard.ingest import (
    Deletion,
    TrendDay,
    Tweet,
    _Join,
    build_trend_instances,
)
from trendguard.simulator import group_stream_by_keyword, trend_oracle

import oracles
from conftest import DAY, DAY_NOON, make_tweet
from oracles import build_trend_instance, match_keyword

# Turkish dotted/dotless I in every case, edge punctuation, hashtags that
# extend a keyword, and bare '#'.
WORDS = (
    "galatasaray", "Galatasaray", "GALATASARAY", "galatasaray,", "(galatasaray)",
    "#galatasaray", "#Galatasaray!", "#galatasarayli", "İstanbul", "ISTANBUL",
    "ıstanbul", "istanbul", "#İstanbul", "#ISTANBUL", "#ıstanbul", "derbi", "Derbi.",
    "fener", "FENER", "bahçe", "BAHÇE", "İ", "I", "ı", "i", "#ı", "#I", "...", "#", "gol",
)

# Day offsets from DAY. "#galatasaray" and "galatasaray" share a normalized
# form on different days; "galatasaray" and "ıstanbul" are one-word n-grams;
# "(galatasaray), derbi!" has edge punctuation and "..." no token at all.
TRENDS = (
    ("#galatasaray", 0),
    ("galatasaray", 1),
    ("#İstanbul", 0),
    ("ISTANBUL derbi", 1),
    ("ıstanbul", 0),
    ("fener bahçe", 0),
    ("#ı", 1),
    ("İ", 2),
    ("(galatasaray), derbi!", 0),
    ("...", 1),
)

texts = st.lists(st.sampled_from(WORDS), min_size=1, max_size=7).map(" ".join)


def columns(events):
    """The KeywordStream columns that hold an event list, as lists."""
    tweets = [e for e in events if isinstance(e, Tweet)]
    return [[t.created_ms for t in tweets], [t.user_id for t in tweets],
            [e.time_ms for e in events if isinstance(e, Deletion)]]


def as_lists(grouped):
    """group_stream_by_keyword's columns as lists, by name."""
    return {name: [list(column) for column in stream] for name, stream in grouped.items()}


@st.composite
def streams(draw):
    """Creations from the day before DAY to two days after, then deletion
    notices for some of them."""
    tweets = [
        make_tweet(i, 100 + i, draw(texts), DAY_NOON + draw(st.integers(-86400, 2 * 86400)))
        for i in range(draw(st.integers(1, 30)))
    ]
    events = list(tweets)
    for tweet in tweets:
        if draw(st.booleans()):
            events.append(Deletion(tweet.id, tweet.user_id, (tweet.created_ms // 1000 + 60) * 1000))
    return events


@settings(max_examples=300, deadline=None)
@given(events=streams(), locale=st.sampled_from(["tr", "en"]))
def test_build_trend_instances_matches_reference(events, locale):
    trends = [
        TrendDay(date=DAY + timedelta(days=offset), keyword=normalize_keyword(raw, locale))
        for raw, offset in TRENDS
    ]
    instances = build_trend_instances(trends, events, locale)
    for trend in trends:
        expected = build_trend_instance(trend, events, locale)
        got = instances[(trend.date, trend.keyword.normalized)]
        assert [t.id for t in got.tweets] == [t.id for t in expected.tweets]
        assert got.deletions == expected.deletions


@settings(max_examples=300, deadline=None)
@given(events=streams(), locale=st.sampled_from(["tr", "en"]))
def test_group_stream_by_keyword_matches_reference(events, locale):
    keywords = [normalize_keyword(raw, locale) for raw, _ in TRENDS]
    streams_by_name = as_lists(group_stream_by_keyword(events, keywords, locale))
    assert sorted(streams_by_name) == sorted({k.normalized for k in keywords})
    for name, got in streams_by_name.items():
        matched = {
            e.id for e in events
            if isinstance(e, Tweet) and any(
                match_keyword(e.text, k, locale) for k in keywords if k.normalized == name
            )
        }
        expected = [
            e for e in events
            if (e.id if isinstance(e, Tweet) else e.tweet_id) in matched
        ]
        assert got == columns(expected)


@settings(max_examples=150, deadline=None)
@given(events=streams(), locale=st.sampled_from(["tr", "en"]), data=st.data())
def test_trend_oracle_ranks_the_columns_as_the_event_oracle(events, locale, data):
    """In stream order and shuffled, where a deletion notice can come before
    its tweet and then follows none. Each event's time moves by up to a
    second either way, some first onto an epoch's edge (a multiple of 300 s)."""
    def moved(ms):
        if data.draw(st.booleans()):
            ms = ms // 300_000 * 300_000
        return ms + data.draw(st.integers(-999, 999))

    keywords = [normalize_keyword(raw, locale) for raw, _ in TRENDS]
    events = [e._replace(created_ms=moved(e.created_ms)) if isinstance(e, Tweet)
              else e._replace(time_ms=moved(e.time_ms)) for e in events]
    for stream in (events, data.draw(st.permutations(events))):
        grouped = group_stream_by_keyword(stream, keywords, locale)
        expected = oracles.group_stream_by_keyword(stream, keywords, locale)
        assert as_lists(grouped) == {name: columns(held) for name, held in expected.items()}
        for mitigation in (False, True):
            for epoch_seconds in (300, 900):
                assert trend_oracle(grouped, mitigation, epoch_seconds) == \
                    oracles.trend_oracle(expected, mitigation, epoch_seconds)


def test_one_word_ngram_matches_the_bare_word():
    keyword = normalize_keyword("galatasaray")
    events = [make_tweet(1, 1, "Galatasaray kazandı", DAY_NOON)]
    assert match_keyword("Galatasaray kazandı", keyword)
    assert as_lists(group_stream_by_keyword(events, [keyword])) == {"galatasaray": columns(events)}


def test_ngram_keyword_tokens_are_cleaned_like_text_tokens():
    trends = [TrendDay(DAY, normalize_keyword("foo, bar")), TrendDay(DAY, normalize_keyword("!!!"))]
    texts = ["foo, bar baz", "foo bar baz", "!!! foo"]
    events = [make_tweet(i, i, text, DAY_NOON) for i, text in enumerate(texts)]
    instances = build_trend_instances(trends, events)
    assert [t.id for t in instances[(DAY, "foo, bar")].tweets] == [0, 1]
    assert instances[(DAY, "!!!")].tweets == []
    assert [match_keyword(text, trends[0].keyword) for text in texts] == [True, True, False]
    assert not any(match_keyword(text, trends[1].keyword) for text in texts)
    keep = _Join(trends, "tr").keep
    assert [keep(f'{{"id":1,"text":"{text}"}}') for text in texts] == [True, True, False]
