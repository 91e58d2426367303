"""The file join decodes each kept line once into a Tweet or Deletion, files
it through the one filing loop and flags it with one function per keyword. Over
generated archive lines it must equal the join of the oracles: the parser
and flag functions as they were before (a frozen Tweet per status, flags
worked out per call) and the per-trend-day and discovery joins of
oracles.py. Instances, flag bytes and ParseStats are compared, for trend
lists and discovery, flagged and unflagged, serial and on a process pool."""

import json
import multiprocessing
import tempfile
from concurrent.futures import ProcessPoolExecutor
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from trendguard.classify import flags_for_instance
from trendguard.core import DEFAULT_TZ_OFFSET, normalize_keyword
from trendguard.ingest import (
    NOT_DELETED,
    Deletion,
    JoinedTweet,
    MalformedLine,
    ParseStats,
    TrendDay,
    Tweet,
    build_instances_from_files,
    build_trend_instances,
    parse_stream_line,
    read_stream,
)
from trendguard.simulator import format_created_at

import oracles
from conftest import DAY, DAY_NOON

MIDNIGHT_MS = (DAY_NOON - 12 * 3600) * 1000
# Instants on the local days before, of and after DAY, a second from each
# local midnight, and two no datetime.date holds.
INSTANTS = [MIDNIGHT_MS + shift for shift in (-86_400_000, -1000, 0, 999, 43_200_000,
                                              86_399_000, 86_400_000, 90_000_000)]
FAR_INSTANTS = [2**63 - 1, -2**63 + 1]

# Words of the generated texts: the keywords' forms in Turkish and default
# case, '#' runs, emoji (also glued to a tag), _FOREIGN_ASCII characters, an
# n-gram's words with edge punctuation, and a lone high surrogate.
WORDS = ["#konu", "#KONU", "#Konu!", "#konu\U0001F525", "#konular", "#İstanbul", "#ıstanbul",
         "#ISTANBUL", "istanbul", "İstanbul", "foo", "Foo", "bar,", "(foo", "yarım", "gün",
         "kelime", "Iyi", "ışık", "\U0001F525", "❤️", "a-b", "x@y", "5", "#", "##konu",
         "RT", "@kişi", "\ud83d"]
# Words that make lexicon texts more often.
LEXICON_WORDS = ["yarım", "gün", "kelime", "ışık", "Iyi", "#konu", "#KONU", "#İstanbul",
                 "istanbul", "foo", "bar", "\U0001F525", "(foo)"]
# Entity hashtags; the reader skips one that is no string.
TAGS = ["konu", "KONU", "İstanbul", "ıstanbul", "başka", 5, None]
# Mention ids the reader takes (int() of each, or skipped when null).
MENTION_IDS = [7, "8", 1.5, None]
KEYWORDS = ["#konu", "#İstanbul", "#ISTANBUL", "foo bar", "istanbul", "foo", "#a-b"]
# Stands for a raw 0xFF byte in a line, which no UTF-8 text holds.
RAW_BYTE = "¤"
# What makes a status line malformed, one at a time.
FAULTS = ["bad created_at", "no time", "no user", "entities list", "entities string",
          "entities number", "an entity list null", "raw byte in the text",
          "escaped byte in the text", "raw byte in a hashtag", "escaped byte in a hashtag",
          "mention id no int", "text no string"]


@st.composite
def statuses(draw) -> dict:
    """A status, valid or with one fault; its fields in every form the
    reader takes."""
    fault = draw(st.sampled_from(FAULTS)) if draw(st.integers(0, 3)) == 0 else None
    words = draw(st.lists(st.sampled_from(draw(st.sampled_from([WORDS, LEXICON_WORDS]))),
                          max_size=8))
    if fault == "raw byte in the text":
        words.append(RAW_BYTE)
    elif fault == "escaped byte in the text":
        words.append("\udcff")
    text = draw(st.sampled_from(["", "", "", "RT @kişi: "])) + " ".join(words)
    hashtags = [{"text": tag} for tag in draw(st.lists(st.sampled_from(TAGS), max_size=2))]
    if fault in ("raw byte in a hashtag", "escaped byte in a hashtag"):
        hashtags.append({"text": "konu" + (RAW_BYTE if fault.startswith("raw") else "\udc80")})
    mentions = [{"id": m} for m in draw(st.lists(st.sampled_from(MENTION_IDS), max_size=1))]
    if fault == "mention id no int":
        mentions.append({"id": draw(st.sampled_from(["abc", [1], "1.5"]))})
    entities = {"hashtags": hashtags, "user_mentions": mentions,
                "urls": [{"url": "https://t.co/x"}] * draw(st.integers(0, 1))}
    if draw(st.integers(0, 5)) == 0:
        entities = None
    if fault is not None and fault.startswith("entities "):
        entities = {"entities list": [], "entities string": "x", "entities number": 5}[fault]
    elif fault == "an entity list null":
        entities = {draw(st.sampled_from(["hashtags", "user_mentions"])): None}
    if fault == "text no string":
        text = draw(st.sampled_from([5, None, ["#konu"]]))

    record = {"id": draw(st.integers(1, 9) | st.integers(1, 9).map(str))}
    ms = draw(st.sampled_from(INSTANTS * 4 + FAR_INSTANTS))
    time_form = draw(st.sampled_from(["int", "str", "created_at"]))
    if fault == "bad created_at":
        record["created_at"] = draw(st.sampled_from(["Tue Feb 31 10:00:00 +0000 2019", "dün", 5]))
    elif fault != "no time":
        if time_form == "created_at" and ms in INSTANTS:
            record["created_at"] = format_created_at(ms // 1000 * 1000)
        else:
            record["timestamp_ms"] = ms if time_form == "int" else str(ms)
    user = draw(st.sampled_from(["user", "user_id", "both"]))
    if fault == "no user":
        record["user"] = {"name": "x"}
    if user in ("user", "both") and fault != "no user":
        record["user"] = {"id": draw(st.integers(1, 4))}
    if user in ("user_id", "both") and fault != "no user":
        record["user_id"] = draw(st.integers(1, 4))
    # The text and entities at the top level, or in an extended_tweet that
    # holds the entities or leaves them to the top level; one without a
    # full_text leaves both there.
    where = draw(st.sampled_from(["top", "extended", "extended text", "no full_text"]))
    if where in ("extended", "extended text"):
        record["extended_tweet"] = {"full_text": text}
        record["text"] = "kısa #kısa"
        if where == "extended":
            record["extended_tweet"]["entities"] = entities
        else:
            record["entities"] = entities
    else:
        if where == "no full_text":
            record["extended_tweet"] = {"full_text": "", "entities": {"hashtags": [{"text": "x"}]}}
        record["text"] = text
        record["entities"] = entities
    if draw(st.integers(0, 3)) == 0:
        record["retweeted_status"] = {"id": 1}
    reply = draw(st.sampled_from([None, None, "in_reply_to_status_id", "in_reply_to_user_id"]))
    if reply is not None:
        record[reply] = 3
    return record


@st.composite
def notices(draw) -> dict:
    status = {"id": draw(st.integers(1, 9) | st.integers(1, 9).map(str)),
              "user_id": draw(st.sampled_from([1, "2", "abc", None]))}
    ms = draw(st.sampled_from(INSTANTS)) + draw(st.sampled_from([-1000, 0, 500, 86_400_000]))
    where = draw(st.sampled_from(["delete", "outside", "both", "neither"]))
    record = {"delete": {"status": status}}
    if where in ("delete", "both"):
        record["delete"]["timestamp_ms"] = str(ms)
    if where in ("outside", "both"):
        record["timestamp_ms"] = str(ms - 1000)
    return record


OTHER_LINES = ["", "   ", '{"limit": {"track": 5}}', "{not json", "[1, 2]", '"just text"',
               '{"id": 1, "text": 5, "user": {"id": 1}, "timestamp_ms": 1}', "{}{}"]


@st.composite
def archive_lines(draw) -> bytes:
    kind = draw(st.sampled_from(["status"] * 5 + ["notice"] * 2 + ["other"]))
    if kind == "other":
        return draw(st.sampled_from(OTHER_LINES)).encode()
    record = draw(statuses() if kind == "status" else notices())
    line = json.dumps(record, ensure_ascii=draw(st.booleans()))
    return line.encode("utf-8", "surrogatepass").replace(RAW_BYTE.encode(), b"\xff")


@st.composite
def trend_lists(draw) -> tuple:
    """A locale and trend-days on DAY and the day after, one per (date,
    keyword) key."""
    locale = draw(st.sampled_from(["tr", "en"]))
    chosen = draw(st.lists(st.tuples(st.sampled_from(KEYWORDS), st.integers(0, 1)), max_size=4))
    trends = {}
    for raw, offset in chosen:
        trend = TrendDay(DAY + timedelta(days=offset), normalize_keyword(raw, locale))
        trends.setdefault((trend.date, trend.keyword.normalized), trend)
    return locale, list(trends.values())


@pytest.fixture(scope="module")
def pool():
    """Two workers that start from a fresh import, so each job's flagger
    arrives pickled and makes its flag functions anew."""
    with ProcessPoolExecutor(max_workers=2, mp_context=multiprocessing.get_context("spawn")) \
            as executor:
        yield executor


def write_shards(directory, lines, split):
    paths = []
    for index, part in enumerate((lines[:split], lines[split:])):
        path = Path(directory) / f"shard{index}.jsonl"
        path.write_bytes(b"".join(line + b"\n" for line in part))
        paths.append(str(path))
    return paths


def oracle_join(paths, trends, locale, flagged):
    """The instances as rows, and the ParseStats, of the oracles' join."""
    stats = ParseStats()
    keep = oracles.line_filter(trends, locale)
    events = [event for path in paths
              for event in oracles.read_stream(path, stats=stats, keep=keep)]
    if trends is None:
        instances = oracles.discover_instances(events, locale, DEFAULT_TZ_OFFSET)
    else:
        instances = {(trend.date, trend.keyword.normalized):
                     oracles.build_trend_instance(trend, events, locale, DEFAULT_TZ_OFFSET)
                     for trend in trends}

    def row(tweet, instance):
        flags = oracles.tweet_flags(tweet, instance.keyword, locale) if flagged else None
        return JoinedTweet(tweet.id, tweet.user_id, tweet.created_ms,
                           instance.deletions.get(tweet.id, NOT_DELETED), flags)

    rows = {key: ([row(tweet, instance) for tweet in instance.tweets],
                  instance.invalid_deletions)
            for key, instance in instances.items()}
    return rows, stats


def library_rows(instances):
    return {key: (instance.tweets, instance.invalid_deletions)
            for key, instance in instances.items()}


@settings(max_examples=150, deadline=None)
@given(lines=st.lists(archive_lines(), max_size=14), trend_list=trend_lists(),
       discover=st.booleans(), flagged=st.booleans(), split=st.integers(0, 14))
def test_the_file_join_equals_the_oracle_join(pool, lines, trend_list, discover, flagged, split):
    locale, trends = trend_list
    if discover:
        trends = None
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_shards(tmp, lines, split)
        expected, expected_stats = oracle_join(paths, trends, locale, flagged)
        for map_fn in (map, pool.map):
            stats = ParseStats()
            flagger = flags_for_instance(locale) if flagged else None
            joined = build_instances_from_files(trends, paths, locale, DEFAULT_TZ_OFFSET,
                                                stats=stats, map_fn=map_fn, flagger=flagger)
            assert library_rows(joined) == expected
            assert list(joined) == list(expected)
            assert stats == expected_stats and stats.consistent


@settings(max_examples=150, deadline=None)
@given(lines=st.lists(archive_lines(), max_size=10))
def test_reads_and_line_parses_equal_the_oracle_parser(lines):
    for line in lines:
        text = line.decode("utf-8", "surrogateescape")
        try:
            expected = oracles.parse_stream_line(text)
        except MalformedLine:
            with pytest.raises(MalformedLine):
                parse_stream_line(text)
            continue
        assert parse_stream_line(text) == expected
    with tempfile.TemporaryDirectory() as tmp:
        path = write_shards(tmp, lines, len(lines))[0]
        expected_stats, stats = ParseStats(), ParseStats()
        expected = list(oracles.read_stream(path, stats=expected_stats))
        assert list(read_stream(path, stats=stats)) == expected
        assert stats == expected_stats


FLAG_TAGS = ["konu", "KONU", "İstanbul", "ISTANBUL", "ıstanbul", "başka", "a-b"]


@settings(max_examples=400, deadline=None)
@given(words=st.lists(st.sampled_from(WORDS), max_size=10),
       separator=st.sampled_from([" ", "  ", "\n", " \U0001F525 "]),
       raw_keyword=st.sampled_from(KEYWORDS), locale=st.sampled_from(["tr", "en"]),
       hashtags=st.lists(st.sampled_from(FLAG_TAGS), max_size=2),
       mentions=st.lists(st.integers(1, 3), max_size=1), urls=st.integers(0, 1),
       is_retweet=st.booleans(), is_reply=st.booleans())
def test_a_keywords_flag_function_equals_the_oracle_flags(words, separator, raw_keyword, locale,
                                                          hashtags, mentions, urls, is_retweet,
                                                          is_reply):
    keyword = normalize_keyword(raw_keyword, locale)
    fields = (1, 2, separator.join(words), 0, tuple(hashtags), tuple(mentions), urls,
              is_retweet, is_reply)
    tweet = Tweet(*fields)
    expected = oracles.tweet_flags(tweet, keyword, locale)
    flag = flags_for_instance(locale)[keyword]
    assert flag(tweet) == expected


@pytest.mark.parametrize("ms", ["9223372036854775807", "-9223372036854775807"])
def test_discovery_files_a_day_no_date_holds_under_nothing(ms):
    """Such a creation still counts, and joins a trend list's trend-day of no
    day; discovery makes it no hashtag-day."""
    line = '{"id": 1, "user": {"id": 2}, "text": "#a b", "timestamp_ms": "%s"}' % ms
    tweet = parse_stream_line(line)
    assert tweet.created_ms == int(ms)
    assert build_trend_instances(None, [tweet]) == {}
    flagger = flags_for_instance()
    assert build_trend_instances(None, [tweet, Deletion(1, 2, 0)], flagger=flagger) == {}
