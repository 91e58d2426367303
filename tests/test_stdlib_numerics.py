"""Differential test of the standard-library numerics against numpy.

`features` and `metrics` once computed the burst entropy, the lifetime
median and mean and the volume medians with numpy. They now use `math`,
`statistics` and a pairwise float sum; numpy (a dev-only dependency) is the
reference here. Sums, medians and means must match it exactly. Entropy must
match exactly on every trend-day of the golden scenario and of the
acceptance-7 corpus; on random count vectors `math.log2` may differ from
`np.log2` in the last bit, so a gap of at most one ulp is allowed there.
"""

import io
import math
import random
from collections import Counter

import pytest

from trendguard.cli import main
from trendguard.core import normalize_keyword
from trendguard.features import lifetime_stats, minute_entropy, pairwise_sum
from trendguard.ingest import TrendEpoch, build_instances_from_files, load_trend_days
from trendguard.metrics import volume_report

from conftest import DAY, DAY_NOON, make_instance, make_tweet
from test_acceptance import _write_big_archive
from test_golden import SCENARIO

np = pytest.importorskip("numpy")


def numpy_entropy(times_ms) -> float:
    """The expression `minute_entropy` computed with numpy."""
    counts = Counter(ms // 60_000 for ms in times_ms)
    if not counts:
        return 0.0
    values = np.array([counts[b] for b in sorted(counts)], dtype=np.float64)
    probs = values / values.sum()
    return float(-(probs * np.log2(probs)).sum())


def assert_entropy_exact(instances) -> None:
    assert instances
    for key, instance in instances.items():
        created = [t.created_ms for t in instance.tweets]
        deleted = list(instance.deletions.values())
        for times in (created, deleted):
            # hex() tells -0.0 from 0.0, as the CSV and JSON outputs do.
            assert minute_entropy(times).hex() == numpy_entropy(times).hex(), key


# ---------------------------------------------------------------------------
# Pairwise sum
# ---------------------------------------------------------------------------

SUM_LENGTHS = sorted(
    set(range(0, 40)) | {63, 64, 65, 127, 128, 129, 255, 256, 257, 1023, 1440, 1500}
    | set(random.Random(7).sample(range(40, 1501), 60))
)


@pytest.mark.parametrize("n", SUM_LENGTHS)
def test_pairwise_sum_equals_numpy_sum(n):
    rng = random.Random(n)
    for _ in range(5):
        # Mixed signs and magnitudes make every summation order visible.
        values = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-8, 8) for _ in range(n)]
        expected = float(np.sum(np.array(values, dtype=np.float64)))
        assert pairwise_sum(values).hex() == expected.hex()


# ---------------------------------------------------------------------------
# Entropy
# ---------------------------------------------------------------------------

def test_entropy_exact_on_golden_scenario(tmp_path):
    config = tmp_path / "scenario.cfg"
    config.write_text(SCENARIO)
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", str(config), "--out", str(sim)]) == 0
    trends = load_trend_days(str(sim / "trends.csv"))
    assert_entropy_exact(build_instances_from_files(trends, [str(sim / "stream.jsonl")]))


def test_entropy_exact_on_acceptance_7_corpus(tmp_path):
    keywords = [f"konu{i}" for i in range(5)]
    archive = tmp_path / "big.jsonl"
    _write_big_archive(archive, 1_000_000, keywords, 18065 * 86400 - 10800)
    trends = load_trend_days(io.StringIO(
        "date,keyword\n" + "".join(f"2019-06-18,#{kw}\n" for kw in keywords)))
    instances = build_instances_from_files(trends, [str(archive)])
    assert len(instances) == 5
    assert_entropy_exact(instances)


def test_entropy_within_one_ulp_on_random_counts():
    rng = random.Random(2019)
    differ = 0
    n_vectors = 3000
    for _ in range(n_vectors):
        n_bins = rng.choice((rng.randint(1, 20), rng.randint(1, 200), rng.randint(1, 1440)))
        minutes = rng.sample(range(1440), n_bins)
        times = [m * 60_000 for m in minutes for _ in range(rng.randint(1, 9))]
        ours, theirs = minute_entropy(times), numpy_entropy(times)
        if ours != theirs:
            differ += 1
            assert ours in (math.nextafter(theirs, math.inf), math.nextafter(theirs, -math.inf))
    print(f"\n[stdlib numerics] entropy differs from numpy by 1 ulp on "
          f"{differ} of {n_vectors} random count vectors")


# ---------------------------------------------------------------------------
# Medians and the mean
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 4, 9, 10, 101, 1000])
def test_lifetime_median_and_mean_equal_numpy(n):
    rng = random.Random(n)
    for _ in range(20):
        spans = [rng.randint(0, 10 ** rng.randint(1, 7)) for _ in range(n)]
        tweets = [make_tweet(i, i, "a #tag", DAY_NOON + i) for i in range(n)]
        # One deletion notice before its tweet is excluded from both.
        deletions = {i: DAY_NOON + i + span for i, span in enumerate(spans)}
        deletions[n] = DAY_NOON
        tweets.append(make_tweet(n, n, "a #tag", DAY_NOON + 5))
        instance = make_instance("#tag", tweets, deletions)
        median, mean = lifetime_stats(instance)
        arr = np.array(spans, dtype=np.int64)
        assert instance.invalid_deletions == 1
        assert median.hex() == float(np.median(arr)).hex()
        assert mean.hex() == float(arr.mean()).hex()


@pytest.mark.parametrize("n", [1, 2, 5, 8, 31, 64])
def test_volume_medians_equal_numpy(n):
    rng = random.Random(n)
    for _ in range(10):
        instances, verdicts, entries = {}, {}, []
        kept = {"attacked": [], "other": []}
        volumes = {"attacked": [], "other": []}
        for i in range(n):
            keyword = normalize_keyword(f"#k{i}", "tr")
            tweets = [make_tweet(1000 * i + j, j, f"a #k{i}", DAY_NOON + j)
                      for j in range(rng.randint(0, 30))]
            deleted = {t.id: DAY_NOON + 60 for t in tweets if rng.random() < 0.3}
            instances[(DAY, keyword.normalized)] = make_instance(f"#k{i}", tweets, deleted)
            label = rng.choice(("attacked", "other"))
            verdicts[(DAY, keyword.normalized)] = label == "attacked"
            kept[label].append(len(tweets) - len(deleted))
            volume = rng.choice((None, rng.randint(10_000, 10 ** 9)))
            entries.append((i + 1, keyword, volume))
            if volume is not None:
                volumes[label].append(volume)
        epochs = [TrendEpoch(captured_ms=DAY_NOON * 1000, location="tr",
                             entries=tuple(entries))]
        for row in volume_report(instances, verdicts, epochs):
            for got, values in ((row.median_undeleted, kept[row.label]),
                                (row.median_volume, volumes[row.label])):
                if values:
                    assert got.hex() == float(np.median(values)).hex()
                else:
                    assert got is None
