"""Reference oracles for the trend-day join: one keyword tested against one
text at a time, and one trend-day joined against an event collection; for
`scan`: the hashtag-days of an event collection grouped and scored in one
loop; and for the simulator's archive lines: one event built as its archive
record.

The library joins every trend-day in one pass through a keyword index
(`trendguard.ingest.build_trend_instances`), finds `scan`'s hashtag-days
through the same file join (`build_instances_from_files` with no trend
list), and writes archive lines from a fixed template
(`trendguard.simulator.write_stream_jsonl`); the tests check each against
these direct definitions.
"""

from __future__ import annotations

from datetime import date
from typing import Iterable, Sequence

from trendguard.core import DEFAULT_LOCALE, DEFAULT_TZ_OFFSET, HASHTAG, Keyword, local_day
from trendguard.detector import DetectorConfig, Verdict, score_instance
from trendguard.ingest import (
    Creation,
    Deletion,
    TrendDay,
    TrendInstance,
    Tweet,
    TweetEvent,
    _InstanceBuilder,
    _note_deletion,
    day_number_to_date,
    extract_hashtags,
    text_tokens,
)
from trendguard.simulator import GeoTweet, format_created_at


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
) -> TrendInstance:
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
        if isinstance(event, Creation):
            tweet = event.tweet
            if _tweet_in_day_window(tweet, builder.day_number, tz_offset) and match_keyword(
                tweet.text, keyword, locale
            ):
                builder.offer_tweet(tweet)
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
        if isinstance(event, Creation):
            tweet = event.tweet
            day = local_day(tweet.created_ms, tz_offset)
            for tag in extract_hashtags(tweet.text, locale):
                builder = builders.get((day, tag))
                if builder is None:
                    trend = TrendDay(date=day_number_to_date(day),
                                     keyword=Keyword("#" + tag, tag, HASHTAG))
                    builder = builders[(day, tag)] = _InstanceBuilder(trend)
                builder.offer_tweet(tweet)
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
    tweet = event.tweet
    record = {
        "created_at": format_created_at(tweet.created_ms),
        "id": tweet.id,
        "id_str": str(tweet.id),
        "text": tweet.text,
        "user": {"id": tweet.user_id, "id_str": str(tweet.user_id)},
        "entities": {
            "hashtags": [{"text": tag} for tag in tweet.hashtags],
            "user_mentions": [{"id": m, "id_str": str(m)} for m in tweet.mentions],
            "urls": [{"url": f"https://t.co/x{i}"} for i in range(tweet.urls)],
        },
        "timestamp_ms": str(tweet.created_ms),
        "lang": "tr",
        "source": '<a href="https://twitter.com/download">Twitter for Android</a>',
    }
    if tweet.is_retweet and not tweet.text.startswith("RT @"):
        record["retweeted_status"] = {"id": tweet.id - 1}
    if tweet.is_reply:
        record["in_reply_to_status_id"] = tweet.id - 1
    if isinstance(tweet, GeoTweet):
        record["geo"] = {"type": "Point", "coordinates": list(tweet.geo)}
    return record
