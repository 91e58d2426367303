import math
import random
from collections import Counter

import pytest

from trendguard.core import SINGLE_ENGAGEMENT
from trendguard.features import (
    attack_windows,
    count_features,
    initial_deletions,
    lifetime_stats,
    minute_entropy,
)

from conftest import make_instance, make_tweet

LEX = "yarım gün #tag"
ORGANIC = "Organik bir cümle! #tag"


def entropy_oracle(times_ms):
    """Direct -sum(p log2 p) over per-minute counts."""
    counts = Counter(ms // 1000 // 60 for ms in times_ms)
    total = sum(counts.values())
    if not total:
        return 0.0
    return -sum((c / total) * math.log2(c / total) for c in counts.values())


def prefix_oracle(instance):
    """Walk the creation-ordered list and count the deleted-SET prefix."""
    ordered = sorted(instance.tweets, key=lambda t: (t.created_ms, t.id))
    deletions = instance.deletions  # a view, built on each access
    count = 0
    for tweet in ordered:
        if tweet.flags & SINGLE_ENGAGEMENT and tweet.id in deletions:
            count += 1
        else:
            return count
    return count


def random_instance(rng, n=None):
    return make_instance("#tag", *random_tweets(rng, n))


def random_tweets(rng, n=None):
    """Up to 20 lexicon, organic and engaging tweets, and the deletion
    seconds of some, by id."""
    n = rng.randint(0, 20) if n is None else n
    tweets = []
    deletions = {}
    for i in range(1, n + 1):
        style = rng.random()
        if style < 0.5:
            text, tags = LEX, ["tag"]
            mentions, urls = (), 0
        elif style < 0.75:
            text, tags = ORGANIC, ["tag"]
            mentions, urls = (), 0
        else:
            text, tags = LEX, ["tag"]
            mentions, urls = ((rng.randint(1, 9),), 1)
        created = rng.randint(0, 3600)
        tweets.append(make_tweet(i, rng.randint(1, n + 5), text, created,
                                 hashtags=tags, mentions=mentions, urls=urls))
        if rng.random() < 0.6:
            deletions[i] = created + rng.randint(1, 1200)
    return tweets, deletions


class TestMinuteEntropy:
    def test_single_minute_burst_is_zero(self):
        stamps = [(1200 + i) * 1000 for i in range(50)]
        assert minute_entropy(stamps) == 0.0

    def test_uniform_four_minutes(self):
        stamps = [m * 60 * 1000 for m in range(4)]
        assert minute_entropy(stamps) == pytest.approx(2.0)

    def test_empty_is_zero(self):
        assert minute_entropy([]) == 0.0

    def test_matches_oracle_random(self):
        rng = random.Random(13)
        for _ in range(200):
            stamps = [rng.randint(0, 600) * 1000 for _ in range(rng.randint(0, 100))]
            assert minute_entropy(stamps) == pytest.approx(entropy_oracle(stamps), abs=1e-9)

    def test_permutation_invariant(self):
        rng = random.Random(14)
        stamps = [rng.randint(0, 1000) * 1000 for _ in range(60)]
        shuffled = stamps[:]
        rng.shuffle(shuffled)
        assert minute_entropy(stamps) == minute_entropy(shuffled)

    def test_bounded_by_log_bins(self):
        rng = random.Random(15)
        for _ in range(100):
            stamps = [rng.randint(0, 1800) * 1000 for _ in range(rng.randint(1, 80))]
            bins = len({ms // 1000 // 60 for ms in stamps})
            h = minute_entropy(stamps)
            assert -1e-12 <= h <= math.log2(bins) + 1e-12


class TestInitialDeletions:
    def test_prefix_stops_at_kept(self):
        tweets = [make_tweet(i, i, LEX, i * 10, hashtags=["tag"]) for i in range(1, 5)]
        instance = make_instance("#tag", tweets, {1: 100, 2: 100, 4: 100})
        assert initial_deletions(instance) == 2

    def test_first_element_breaks_prefix(self):
        tweets = [
            make_tweet(1, 1, LEX, 0, hashtags=["tag"], is_reply=True),
            make_tweet(2, 2, LEX, 10, hashtags=["tag"]),
            make_tweet(3, 3, LEX, 20, hashtags=["tag"]),
        ]
        instance = make_instance("#tag", tweets, {1: 100, 2: 100, 3: 100})
        assert initial_deletions(instance) == 0

    def test_matches_bruteforce_random(self):
        rng = random.Random(21)
        for _ in range(300):
            instance = random_instance(rng)
            assert initial_deletions(instance) == prefix_oracle(instance)

    def test_never_exceeds_deleted_set_count(self):
        rng = random.Random(22)
        for _ in range(100):
            instance = random_instance(rng)
            vector = count_features(instance)
            assert vector.initial_deletions <= vector.n_deleted_set


class TestLifetimeStats:
    def test_simple_lifetime(self):
        instance = make_instance(
            "#tag", [make_tweet(1, 1, LEX, 0, hashtags=["tag"])], {1: 600}
        )
        assert lifetime_stats(instance) == (600, 600)

    def test_no_deletions_absent(self):
        instance = make_instance("#tag", [make_tweet(1, 1, LEX, 0, hashtags=["tag"])], {})
        assert lifetime_stats(instance) == (None, None)

    def test_hand_computed(self):
        tweets = [make_tweet(i, i, LEX, 0, hashtags=["tag"]) for i in (1, 2, 3)]
        instance = make_instance("#tag", tweets, {1: 60, 2: 120, 3: 600})
        median, mean = lifetime_stats(instance)
        assert median == 120
        assert mean == pytest.approx(260.0)


class TestAttackWindows:
    def test_spans(self):
        tweets = [make_tweet(i, i, LEX, i * 10, hashtags=["tag"]) for i in range(6)]
        deletions = {i: 1000 + i * 15 for i in range(6)}
        instance = make_instance("#tag", tweets, deletions)
        cw, dw = attack_windows(instance)
        assert cw == 50
        assert dw == 75

    def test_single_candidate_zero_windows(self):
        instance = make_instance("#tag", [make_tweet(1, 1, LEX, 5, hashtags=["tag"])], {1: 80})
        assert attack_windows(instance) == (0, 0)

    def test_no_candidates_zero_windows(self):
        instance = make_instance("#tag", [make_tweet(1, 1, LEX, 5, hashtags=["tag"])], {})
        assert attack_windows(instance) == (0, 0)

    def test_set_fallback_when_no_lexicon(self):
        # Deleted SET tweets that are not lexicon (organic text) still give windows.
        tweets = [make_tweet(i, i, ORGANIC, i * 10, hashtags=["tag"]) for i in range(1, 4)]
        instance = make_instance("#tag", tweets, {1: 100, 2: 110, 3: 140})
        cw, dw = attack_windows(instance)
        assert cw == 20
        assert dw == 40


class TestCountFeatures:
    def test_basic_ratio(self):
        tweets = [make_tweet(i, i, ORGANIC, i, hashtags=["tag"]) for i in range(1, 11)]
        instance = make_instance("#tag", tweets, {i: 5000 for i in range(1, 6)})
        vector = count_features(instance)
        assert vector.n_tweets == 10
        assert vector.n_deleted == 5
        assert vector.deletion_ratio == pytest.approx(0.5)

    def test_empty_instance_all_zero(self):
        instance = make_instance("#tag", [], {})
        vector = count_features(instance)
        assert vector.n_tweets == 0
        assert vector.deletion_ratio == 0.0
        assert vector.lexicon_deletion_ratio == 0.0
        assert vector.creation_window_s == 0
        assert vector.lifetime_median_s is None

    def test_lexicon_fixture_ratios(self):
        tweets = [make_tweet(i, i, LEX, i, hashtags=["tag"]) for i in range(1, 9)]
        tweets += [make_tweet(i, i, ORGANIC, i, hashtags=["tag"]) for i in (9, 10)]
        instance = make_instance("#tag", tweets, {i: 900 for i in range(1, 9)})
        vector = count_features(instance)
        assert vector.lexicon_deletion_ratio == pytest.approx(1.0)
        assert vector.deletion_ratio == pytest.approx(0.8)
        assert vector.n_deleted_lexicon == 8

    def test_scale_consistency_under_duplication(self):
        rng = random.Random(31)
        tweets, deletions = random_tweets(rng, n=12)
        before = count_features(make_instance("#tag", tweets, deletions))

        clones = []
        extra_deletions = {}
        for tweet in tweets:
            clone = make_tweet(tweet.id + 1000, tweet.user_id + 1000, tweet.text,
                               tweet.created_ms // 1000, hashtags=tweet.hashtags,
                               mentions=tweet.mentions, urls=tweet.urls,
                               is_retweet=tweet.is_retweet, is_reply=tweet.is_reply)
            clones.append(clone)
            if tweet.id in deletions:
                extra_deletions[clone.id] = deletions[tweet.id]
        doubled = make_instance("#tag", tweets + clones, deletions | extra_deletions)
        after = count_features(doubled)
        assert after.n_tweets == 2 * before.n_tweets
        assert after.n_deleted == 2 * before.n_deleted
        assert after.n_deleted_lexicon == 2 * before.n_deleted_lexicon
        assert after.deletion_ratio == pytest.approx(before.deletion_ratio)
        assert after.set_deletion_ratio == pytest.approx(before.set_deletion_ratio)
        assert after.lexicon_deletion_ratio == pytest.approx(before.lexicon_deletion_ratio)
