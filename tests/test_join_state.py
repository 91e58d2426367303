"""The join builds its per-trend state once (the trend index, the n-gram
index and the raw-line test) and opens a trend-day's instance when its
first tweet joins it. So a file's read costs what its lines cost, not what
the trend list costs, and the serial, pooled and in-memory joins agree on
every trend-day, empty ones included."""

import bz2
import gzip
import json
import multiprocessing
import os
import random
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from datetime import timedelta
from pathlib import Path

import pytest

from trendguard import ingest
from trendguard.classify import flags_for_instance
from trendguard.core import DEFAULT_TZ_OFFSET, normalize_keyword
from trendguard.ingest import (
    ParseStats,
    TrendDay,
    _Join,
    build_instances_from_files,
    build_trend_instances,
    read_stream,
)

from conftest import DAY, DAY_NOON


def _trend(raw, days=0):
    return TrendDay(DAY + timedelta(days=days), normalize_keyword(raw))


# Trend-days a tweet can join: hashtags and n-grams, a key given twice
# (first occurrence wins), and the day after DAY, which takes DAY's tweets.
LIVE = [_trend("#konu"), _trend("#gundem"), _trend("tepel sobar"), _trend("#KONU"),
        _trend("Tepel Sobar"), _trend("#konu", 1), _trend("devam etmiyor")]


def _trend_list(n_empty):
    """LIVE among ``n_empty`` trend-days of earlier dates that no tweet joins."""
    empty = [_trend(f"#bos{i}" if i % 5 else f"yok kelime{i}", -10 - i) for i in range(n_empty)]
    return empty[: n_empty // 2] + LIVE + empty[n_empty // 2:]


def _status(tweet_id, user_id, text, seconds, *, retweet=False):
    record = {"id": tweet_id, "user": {"id": user_id}, "text": text,
              "timestamp_ms": str(seconds * 1000),
              "entities": {"hashtags": [{"text": tag[1:]} for tag in text.split()
                                        if tag.startswith("#")]}}
    if retweet:
        record["retweeted_status"] = {"id": 1}
    return json.dumps(record, ensure_ascii=False)


def _notice(tweet_id, seconds):
    return json.dumps({"delete": {"status": {"id": tweet_id, "user_id": 1},
                                  "timestamp_ms": str(seconds * 1000)}})


TEXTS = ["tepel sobar #konu", "bir #gundem iki", "TEPEL, sobar!", "#Konu #gundem", "sade metin",
         "#baska etiket", "#konu", "devam edecek", "kelime yok #bos3"]


def _archive_lines(rng, n, first_id):
    """Statuses on DAY and its neighbours, repeated ids, deletion notices
    (some before their tweet's creation), limit notices and broken lines."""
    lines = []
    for i in range(n):
        tweet_id = first_id + i
        seconds = DAY_NOON + rng.randrange(-36 * 3600, 36 * 3600)
        lines.append(_status(tweet_id, rng.randrange(1, 40), rng.choice(TEXTS), seconds,
                             retweet=rng.random() < 0.2))
        roll = rng.random()
        if roll < 0.3:
            lines.append(_notice(tweet_id, seconds + rng.randrange(-60, 900)))
        elif roll < 0.35:
            lines.append(lines[-1])
        elif roll < 0.38:
            lines.append(rng.choice(['{"limit":{"track":1}}', "{broken", ""]))
    return lines


def _write_archives(directory, n_files, seed=3):
    """Many small files, plain, gzip and bzip2 in turn."""
    rng = random.Random(seed)
    paths = []
    for index in range(n_files):
        data = "".join(line + "\n" for line in _archive_lines(rng, 12, 1000 * index)).encode()
        suffix, data = [(".jsonl", data), (".jsonl.gz", gzip.compress(data)),
                        (".jsonl.bz2", bz2.compress(data))][index % 3]
        path = Path(directory) / f"part{index:03d}{suffix}"
        path.write_bytes(data)
        paths.append(str(path))
    return paths


class _RecordingFlagger(dict):
    """A flagger that records each keyword whose function it makes."""

    def __init__(self):
        super().__init__()
        self.made = []
        self.flags = flags_for_instance()

    def __missing__(self, keyword):
        self.made.append(keyword.normalized)
        flag = self[keyword] = self.flags[keyword]
        return flag


def test_a_files_read_opens_only_the_trend_days_its_tweets_join(tmp_path, monkeypatch):
    opened = []

    class RecordingInstance(ingest.TrendInstance):
        def __init__(self, trend, **kwargs):
            opened.append((trend.date, trend.keyword.normalized))
            super().__init__(trend, **kwargs)

    monkeypatch.setattr(ingest, "TrendInstance", RecordingInstance)
    path = tmp_path / "part.jsonl"
    path.write_text("\n".join([_status(1, 2, "bir #gundem iki", DAY_NOON),
                               _status(2, 3, "#gundem yine", DAY_NOON + 60),
                               _notice(1, DAY_NOON + 90),
                               _status(3, 4, "#bos7 dun", DAY_NOON)]) + "\n")
    flagger = _RecordingFlagger()
    join = _Join(_trend_list(400), "tr", DEFAULT_TZ_OFFSET, flagger)

    groups, notices, stats = join.scan(str(path))
    assert opened == [(DAY, "gundem")]
    assert flagger.made == ["gundem"]
    assert list(groups) == [(DAY, "gundem")]
    assert list(groups[DAY, "gundem"].ids) == [1, 2]
    assert list(notices.ids) == [1]
    assert (stats.lines_read, stats.creations, stats.deletions) == (4, 3, 1)

    instances = join.settle(groups, notices)
    assert len(instances) == len(join.trends) == 405
    assert sum(len(instance.ids) for instance in instances.values()) == 2


def test_a_serial_join_builds_its_state_once(tmp_path, monkeypatch):
    calls = {"_keyword_index": 0, "_line_test": 0}
    for name in calls:
        real = getattr(ingest, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(ingest, name, counted)
    paths = _write_archives(tmp_path, 4)
    stats = ParseStats()
    instances = build_instances_from_files(_trend_list(50), paths, "tr", stats=stats,
                                           flagger=flags_for_instance("tr"))
    assert calls == {"_keyword_index": 1, "_line_test": 1}
    assert stats.lines_read > 40 and len(instances) == 55


@pytest.fixture(scope="module")
def pool():
    with ProcessPoolExecutor(max_workers=2, mp_context=multiprocessing.get_context("spawn")) \
            as executor:
        yield executor


def _rows(instances):
    return [(key, instance.trend, list(instance.ids), list(instance.users),
             list(instance.created_ms), list(instance.deleted_ms),
             None if instance.flags is None else bytes(instance.flags),
             instance.invalid_deletions)
            for key, instance in instances.items()]


@pytest.mark.parametrize("discover", [False, True])
@pytest.mark.parametrize("flagged", [False, True])
def test_serial_pooled_and_in_memory_joins_agree(tmp_path, pool, discover, flagged):
    trends = None if discover else _trend_list(600)
    paths = _write_archives(tmp_path, 30)

    def flagger():
        return flags_for_instance("tr") if flagged else None

    serial_stats, pooled_stats = ParseStats(), ParseStats()
    serial = build_instances_from_files(trends, paths, "tr", stats=serial_stats, flagger=flagger())
    pooled = build_instances_from_files(trends, paths, "tr", stats=pooled_stats,
                                        map_fn=pool.map, flagger=flagger())
    events = [event for path in paths for event in read_stream(path)]
    in_memory = build_trend_instances(trends, events, "tr", flagger=flagger())

    assert _rows(serial) == _rows(pooled) == _rows(in_memory)
    assert serial_stats == pooled_stats and serial_stats.consistent
    assert serial_stats.prefiltered > 0
    filled = [key for key, instance in serial.items() if instance.ids]
    if discover:
        assert len(filled) == len(serial) > 3
    else:
        assert list(serial) == list(dict.fromkeys((t.date, t.keyword.normalized) for t in trends))
        assert filled == [(DAY, "konu"), (DAY, "gundem"), (DAY, "tepel sobar"),
                          (DAY + timedelta(days=1), "konu")]
        assert any(instance.invalid_deletions for instance in serial.values())


_DISCOVER = """
from trendguard.ingest import Tweet, build_trend_instances
print([tag for _, tag in build_trend_instances(None, [Tweet(1, 1, "#gama #alfa #beta", 1560852000000)])])
"""


def test_discovery_order_holds_under_every_hash_seed():
    """One tweet's hashtag-days are discovered in tag order, not in the
    order of a set of strings, which the interpreter's hash seed sets."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    orders = set()
    for seed in range(1, 7):
        env = dict(os.environ, PYTHONHASHSEED=str(seed),
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        orders.add(subprocess.run([sys.executable, "-c", _DISCOVER], env=env, capture_output=True,
                                  text=True, check=True, timeout=60).stdout)
    assert orders == {"['alfa', 'beta', 'gama']\n"}


def test_pooled_and_serial_discovery_find_one_key_order(tmp_path, pool):
    """Each file starts with a tweet of four tags new to the join, which a
    spawned worker, under its own hash seed, files as the serial join does."""
    paths = []
    for index in range(4):
        tags = [f"#{name}{index}" for name in ("dort", "bir", "uc", "iki")]
        path = tmp_path / f"part{index}.jsonl"
        path.write_text(_status(index * 10, 1, " ".join(tags), DAY_NOON) + "\n"
                        + _status(index * 10 + 1, 2, tags[0] + " yine", DAY_NOON + 60) + "\n")
        paths.append(str(path))
    serial = build_instances_from_files(None, paths, "tr")
    pooled = build_instances_from_files(None, paths, "tr", map_fn=pool.map)
    assert _rows(serial) == _rows(pooled)
    assert list(serial) == [(DAY, f"{name}{index}") for index in range(4)
                            for name in ("bir", "dort", "iki", "uc")]
