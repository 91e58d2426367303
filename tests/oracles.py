"""Reference oracles for the trend-day join: one keyword tested against one
text at a time, and one trend-day joined against an event collection.

The library joins every trend-day in one pass through a keyword index
(`trendguard.ingest.build_trend_instances`); the tests check that join
against these direct definitions.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from trendguard.core import DEFAULT_LOCALE, DEFAULT_TZ_OFFSET, HASHTAG, Keyword, local_day
from trendguard.ingest import (
    Creation,
    Deletion,
    TrendDay,
    TrendInstance,
    Tweet,
    TweetEvent,
    _InstanceBuilder,
    _note_deletion,
    extract_hashtags,
    text_tokens,
)


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
