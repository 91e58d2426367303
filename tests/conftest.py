from __future__ import annotations

import os
import random
import threading
from contextlib import contextmanager
from datetime import date

import pytest

from trendguard.classify import flags_for_instance
from trendguard.core import normalize_keyword
from trendguard.ingest import (
    ParseStats,
    TrendDay,
    TrendInstance,
    Tweet,
    _instance,
    read_stream,
)

from oracles import flag_byte

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


@contextmanager
def fifo_of(directory, data: bytes):
    """The path of a named pipe that a thread fills with ``data``.

    A spare reader holds the pipe open meanwhile, so a reader that closes
    the pipe and opens it again finds the writer still writing, not a
    broken pipe; ``data`` must exceed the pipe's 64 kB buffer for that.
    """
    path = os.path.join(directory, "stream.fifo")
    os.mkfifo(path)
    spare = os.open(path, os.O_RDONLY | os.O_NONBLOCK)

    def write():
        with open(path, "wb") as pipe:
            pipe.write(data)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        yield path
    finally:
        os.close(spare)
        writer.join(timeout=10)
    assert not writer.is_alive()


def pipe_payload(lines: int = 4000) -> bytes:
    """Status and deletion lines whose random text keeps them large once
    gzipped: 4,000 lines are about 0.9 MB, and 0.3 MB gzipped."""
    rng = random.Random(lines)
    out = []
    for i in range(lines):
        if i % 5 == 4:
            out.append(f'{{"delete": {{"status": {{"id": {i - 1}, "user_id": {i - 1}}}, '
                       f'"timestamp_ms": "{1560848400000 + i}"}}}}')
        else:
            text = " ".join(f"{rng.getrandbits(64):x}" for _ in range(8)) + " #tag"
            out.append(f'{{"id": {i}, "user": {{"id": {i}}}, "text": "{text}", '
                       f'"timestamp_ms": "{1560848400000 + i}", '
                       f'"entities": {{"hashtags": [{{"text": "tag"}}]}}}}')
    return ("\n".join(out) + "\n").encode()


def join_instance(keyword_raw: str, tweets, deletions_ms, day: date = DAY,
                  flags=None) -> TrendInstance:
    """The instance the join builds from these tweets and the earliest
    deletion notice (ms) of each tweet id, each tweet flagged as the join's
    flagger flags it, or as ``flags`` (oracles.TweetFlags by id) says."""
    trend = TrendDay(date=day, keyword=normalize_keyword(keyword_raw, "tr"))
    if flags is None:
        flag = flags_for_instance("tr")[trend.keyword]
    else:
        def flag(tweet: Tweet) -> int:
            return flag_byte(flags[tweet.id], tweet.is_retweet)
    instance = TrendInstance(trend, flags=bytearray())
    for tweet in tweets:
        instance.ids.append(tweet.id)
        instance.users.append(tweet.user_id)
        instance.created_ms.append(tweet.created_ms)
        instance.flags.append(flag(tweet))
    _instance(instance, deletions_ms)
    return instance


def make_instance(keyword_raw: str, tweets, deletions, day: date = DAY) -> TrendInstance:
    """join_instance with deletion notices given in whole seconds."""
    return join_instance(keyword_raw, tweets,
                         {tid: seconds * 1000 for tid, seconds in deletions.items()}, day)


@pytest.fixture
def tag_keyword():
    return normalize_keyword("#tag", "tr")
