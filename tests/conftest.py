from __future__ import annotations

from datetime import date

import pytest

from trendguard.core import normalize_keyword
from trendguard.ingest import (
    ParseStats,
    TrendDay,
    TrendInstance,
    Tweet,
    _InstanceBuilder,
    read_stream,
)

# Local noon on 2019-06-18 (UTC+3).
DAY = date(2019, 6, 18)
DAY_NOON = (DAY.toordinal() - date(1970, 1, 1).toordinal()) * 86400 - 10800 + 12 * 3600


def make_tweet(
    tweet_id: int,
    user_id: int,
    text: str,
    seconds: int,
    hashtags=None,
    mentions=(),
    urls=0,
    is_retweet=False,
    is_reply=False,
) -> Tweet:
    if hashtags is None:
        hashtags = tuple(tag.lstrip("#") for tag in text.split() if tag.startswith("#"))
    return Tweet(
        id=tweet_id,
        user_id=user_id,
        text=text,
        created_ms=seconds * 1000,
        hashtags=tuple(hashtags),
        mentions=tuple(mentions),
        urls=urls,
        is_retweet=is_retweet,
        is_reply=is_reply,
    )


def read_all(source):
    """Every event of a stream, with the read's counters."""
    stats = ParseStats()
    return list(read_stream(source, stats=stats)), stats


def join_instance(keyword_raw: str, tweets, deletions_ms, day: date = DAY) -> TrendInstance:
    """The instance the join builds from these tweets and the earliest
    deletion notice (ms) of each tweet id."""
    builder = _InstanceBuilder(TrendDay(date=day, keyword=normalize_keyword(keyword_raw, "tr")))
    for tweet in tweets:
        builder.offer_tweet(tweet)
    return builder.build(deletions_ms)


def make_instance(keyword_raw: str, tweets, deletions, day: date = DAY) -> TrendInstance:
    """join_instance with deletion notices given in whole seconds."""
    return join_instance(keyword_raw, tweets,
                         {tid: seconds * 1000 for tid, seconds in deletions.items()}, day)


@pytest.fixture
def tag_keyword():
    return normalize_keyword("#tag", "tr")
