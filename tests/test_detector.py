import random
from datetime import date
from itertools import combinations

from trendguard import detector, simulator
from trendguard.core import LEXICON, PRESETS, SINGLE_ENGAGEMENT
from trendguard.ingest import Deletion, Tweet, build_trend_instances
from trendguard.classify import flags_for_instance
from trendguard.features import FeatureVector, count_features
from trendguard.detector import (
    AttackParams,
    DetectorConfig,
    classify_trend,
    detect_attack_windows,
    label_astrobots,
    scan_candidates,
)
from trendguard.simulator import ScenarioConfig, build_stream, evaluate

from conftest import DAY, DAY_NOON, make_instance, make_tweet

LEX = "yarım gün #tag"


def fv(**overrides) -> FeatureVector:
    base = dict(
        n_tweets=0, n_deleted=0, n_nonretweet=0, n_deleted_nonretweet=0,
        n_set=0, n_deleted_set=0, n_lexicon=0, n_deleted_lexicon=0,
        deletion_ratio=0.0, nonretweet_deletion_ratio=0.0,
        set_deletion_ratio=0.0, lexicon_deletion_ratio=0.0,
        initial_deletions=0, creation_window_s=0, deletion_window_s=0,
        lifetime_median_s=None, lifetime_mean_s=None, entropy_create=0.0, entropy_delete=0.0,
    )
    base.update(overrides)
    return FeatureVector(**base)


def test_presets_are_the_names_the_cli_offers():
    assert tuple(detector.PRESET_FORMULAS) == PRESETS


class TestClassifyTrend:
    def test_lexicon_tree_positive(self):
        verdict = classify_trend(fv(n_deleted_lexicon=4, lexicon_deletion_ratio=0.9),
                                 DetectorConfig())
        assert verdict.attacked

    def test_three_lexicon_tweets_miss(self):
        verdict = classify_trend(fv(n_deleted_lexicon=3, lexicon_deletion_ratio=1.0),
                                 DetectorConfig())
        assert not verdict.attacked

    def test_ratio_strictly_above_45(self):
        assert not classify_trend(fv(n_deleted_lexicon=9, lexicon_deletion_ratio=0.45),
                                  DetectorConfig()).attacked
        assert classify_trend(fv(n_deleted_lexicon=9, lexicon_deletion_ratio=0.4500001),
                              DetectorConfig()).attacked

    def test_all_zero_negative_under_every_preset(self):
        for preset in ("lexicon-tree", "lexicon-tree-strict", "lexicon-agnostic-tree",
                       "ratio-only"):
            assert not classify_trend(fv(), DetectorConfig(preset=preset)).attacked

    def test_strict_preset_uses_68(self):
        features = fv(n_deleted_lexicon=5, lexicon_deletion_ratio=0.5)
        assert classify_trend(features, DetectorConfig()).attacked
        assert not classify_trend(features, DetectorConfig(preset="lexicon-tree-strict")).attacked
        assert classify_trend(fv(n_deleted_lexicon=5, lexicon_deletion_ratio=0.68),
                              DetectorConfig(preset="lexicon-tree-strict")).attacked

    def test_threshold_override(self):
        config = DetectorConfig(thresholds={"9": 0.68})
        assert not classify_trend(fv(n_deleted_lexicon=5, lexicon_deletion_ratio=0.5),
                                  config).attacked

    def test_lexicon_agnostic_branches(self):
        config = DetectorConfig(preset="lexicon-agnostic-tree")
        strong = fv(n_deleted_set=10, set_deletion_ratio=0.5)
        burst = fv(n_deleted_set=4, initial_deletions=4)
        weak = fv(n_deleted_set=9, set_deletion_ratio=0.9, initial_deletions=3)
        assert classify_trend(strong, config).attacked
        assert classify_trend(burst, config).attacked
        assert not classify_trend(weak, config).attacked

    def test_ratio_only(self):
        config = DetectorConfig(preset="ratio-only")
        assert classify_trend(fv(n_deleted=17, deletion_ratio=0.25), config).attacked
        assert not classify_trend(fv(n_deleted=16, deletion_ratio=0.9), config).attacked

    def test_pure_function(self):
        features = fv(n_deleted_lexicon=4, lexicon_deletion_ratio=0.5)
        config = DetectorConfig()
        a = classify_trend(features, config)
        b = classify_trend(features, config)
        assert a.attacked == b.attacked
        assert a.fired_rules == b.fired_rules

    def test_monotone_in_deleted_lexicon(self):
        rng = random.Random(41)
        config = DetectorConfig()
        for _ in range(200):
            n_lex = rng.randint(0, 20)
            n_del_lex = rng.randint(0, n_lex)
            ratio = n_del_lex / n_lex if n_lex else 0.0
            before = classify_trend(fv(n_lexicon=n_lex, n_deleted_lexicon=n_del_lex,
                                       lexicon_deletion_ratio=ratio), config)
            n_lex2, n_del2 = n_lex + 1, n_del_lex + 1
            after = classify_trend(fv(n_lexicon=n_lex2, n_deleted_lexicon=n_del2,
                                      lexicon_deletion_ratio=n_del2 / n_lex2), config)
            if before.attacked:
                assert after.attacked


def bot_tweets(n_bots, create_base=DAY_NOON, create_step=10, delete_base=None,
               delete_step=15, skip_delete=(), first_id=1, first_user=100):
    """n_bots users, one lexicon SET tweet each, tight windows: the tweets
    and their deletion seconds by id."""
    delete_base = delete_base if delete_base is not None else create_base + 120
    tweets = []
    deletions = {}
    for i in range(n_bots):
        tweets.append(make_tweet(first_id + i, first_user + i, LEX,
                                 create_base + i * create_step, hashtags=["tag"]))
        if first_id + i not in skip_delete:
            deletions[first_id + i] = delete_base + i * delete_step
    return tweets, deletions


def bot_instance(n_bots, **kwargs):
    return make_instance("#tag", *bot_tweets(n_bots, **kwargs))


def oracle_clusters(instance, params, require_lexicon=False):
    """Exhaustive subset search, independent of the detector internals."""
    eligible = []
    deletions = instance.deletions  # a view, built on each access
    for tweet in instance.tweets:
        deleted_at = deletions.get(tweet.id)
        if deleted_at is None:
            continue
        if not tweet.flags & SINGLE_ENGAGEMENT:
            continue
        if require_lexicon and not tweet.flags & LEXICON:
            continue
        life = deleted_at // 1000 - tweet.created_ms // 1000
        if life < 0 or life > params.theta:
            continue
        eligible.append((tweet, deleted_at))

    # One tweet per user: keep the earliest eligible tweet of each user.
    eligible.sort(key=lambda td: (td[0].created_ms, td[0].id))
    chosen = {}
    for tweet, deleted_at in eligible:
        chosen.setdefault(tweet.user_id, (tweet, deleted_at))
    cands = list(chosen.values())

    valid = []
    for size in range(len(cands), params.kappa - 1, -1):
        for combo in combinations(cands, size):
            p = [t.created_ms // 1000 for t, _ in combo]
            d = [ts // 1000 for _, ts in combo]
            if max(p) - min(p) > params.alpha_p:
                continue
            if max(d) - min(d) > params.alpha_d:
                continue
            ids = frozenset(t.id for t, _ in combo)
            if not any(ids < kept for kept in valid):
                valid.append(ids)
    return set(valid)


class TestDetectAttackWindows:
    PARAMS = AttackParams(kappa=4, alpha_p=300, alpha_d=300, theta=600)

    def test_five_bots_one_event(self):
        instance = bot_instance(5)
        events = detect_attack_windows(instance, self.PARAMS)
        assert len(events) == 1
        event = events[0]
        assert event.tweet_ids == frozenset(range(1, 6))
        assert len(event.users) == 5
        assert event.creation_window_s <= self.PARAMS.alpha_p
        assert event.deletion_window_s <= self.PARAMS.alpha_d
        assert event.max_lifetime_s <= self.PARAMS.theta

    def test_missed_deletion_shrinks_cluster(self):
        instance = bot_instance(5, skip_delete={3})
        events = detect_attack_windows(instance, self.PARAMS)
        assert len(events) == 1
        assert events[0].tweet_ids == frozenset({1, 2, 4, 5})

    def test_below_kappa_no_event(self):
        instance = bot_instance(3)
        assert detect_attack_windows(instance, self.PARAMS) == []

    def test_long_lifetime_tweet_excluded(self):
        tweets, deletions = bot_tweets(5)
        deletions[5] = DAY_NOON + 3 * 3600
        instance = make_instance("#tag", tweets, deletions)
        events = detect_attack_windows(instance, self.PARAMS)
        assert len(events) == 1
        assert 5 not in events[0].tweet_ids

    def test_one_tweet_per_user_keeps_earliest(self):
        tweets, deletions = bot_tweets(5)
        tweets.append(make_tweet(99, 100, LEX, DAY_NOON + 5, hashtags=["tag"]))  # user 100 again
        deletions[99] = DAY_NOON + 130
        instance = make_instance("#tag", tweets, deletions)
        events = detect_attack_windows(instance, self.PARAMS)
        assert len(events) == 1
        assert 1 in events[0].tweet_ids and 99 not in events[0].tweet_ids
        assert len(events[0].users) == len(events[0].tweet_ids)

    def test_two_separated_bursts(self):
        tweets, deletions = bot_tweets(4)
        second, second_deletions = bot_tweets(4, create_base=DAY_NOON + 7200,
                                              delete_base=DAY_NOON + 7300,
                                              first_id=50, first_user=500)
        instance = make_instance("#tag", tweets + second, {**deletions, **second_deletions})
        events = detect_attack_windows(instance, self.PARAMS)
        assert len(events) == 2

    def test_every_event_satisfies_conditions(self):
        rng = random.Random(55)
        params = self.PARAMS
        for _ in range(300):
            instance = _random_detector_instance(rng)
            for event in detect_attack_windows(instance, params):
                assert len(event.tweet_ids) >= params.kappa
                assert event.creation_window_s <= params.alpha_p
                assert event.deletion_window_s <= params.alpha_d
                assert event.max_lifetime_s <= params.theta
                assert len(event.users) == len(event.tweet_ids)

    def test_merge_overlapping_collapses_chained_bursts(self):
        # Two bursts 300s apart: windows straddle both, yielding a family of
        # overlapping maximal clusters that merges into one summary event.
        tweets = []
        deletions = {}
        for i in range(8):
            base = DAY_NOON + (0 if i < 4 else 300)
            tweets.append(make_tweet(i + 1, 100 + i, LEX, base + (i % 4) * 15,
                                     hashtags=["tag"]))
            deletions[i + 1] = base + 120 + (i % 4) * 10
        instance = make_instance("#tag", tweets, deletions)
        unmerged = detect_attack_windows(instance, self.PARAMS)
        merged = detect_attack_windows(instance, self.PARAMS,
                                       merge_overlapping=True)
        assert len(unmerged) > 1
        assert len(merged) == 1
        assert merged[0].tweet_ids == frozenset(range(1, 9))
        assert len(merged[0].users) == 8
        assert merged[0].max_lifetime_s <= self.PARAMS.theta

    def test_merge_keeps_separated_bursts_apart(self):
        tweets, deletions = bot_tweets(4)
        far, far_deletions = bot_tweets(4, create_base=DAY_NOON + 7200,
                                        delete_base=DAY_NOON + 7300,
                                        first_id=70, first_user=700)
        combined = make_instance("#tag", tweets + far, {**deletions, **far_deletions})
        merged = detect_attack_windows(combined, self.PARAMS,
                                       merge_overlapping=True)
        assert len(merged) == 2

    def test_matches_exhaustive_oracle(self):
        rng = random.Random(56)
        params = self.PARAMS
        checked = 0
        for _ in range(300):
            instance = _random_detector_instance(rng, max_tweets=12)
            got = {e.tweet_ids for e in detect_attack_windows(instance, params)}
            expected = oracle_clusters(instance, params)
            assert got == expected
            checked += 1
        assert checked == 300


def _random_detector_instance(rng, max_tweets=20):
    n = rng.randint(0, max_tweets)
    tweets = []
    deletions = {}
    # Mix tight bursts with scattered activity so clusters sometimes form.
    burst_base = DAY_NOON + rng.randint(0, 1000)
    for i in range(1, n + 1):
        if rng.random() < 0.6:
            created = burst_base + rng.randint(0, 240)
        else:
            created = DAY_NOON + rng.randint(0, 7200)
        user = rng.randint(100, 100 + max(1, n // 2))
        kind = rng.random()
        if kind < 0.75:
            tweet = make_tweet(i, user, LEX, created, hashtags=["tag"])
        elif kind < 0.9:
            tweet = make_tweet(i, user, LEX, created, hashtags=["tag"], mentions=(5,))
        else:
            tweet = make_tweet(i, user, "Organik cümle burada. #tag", created, hashtags=["tag"])
        tweets.append(tweet)
        if rng.random() < 0.8:
            if rng.random() < 0.7:
                deletions[i] = created + rng.randint(1, 500)
            else:
                deletions[i] = created + rng.randint(500, 4000)
    return make_instance("#tag", tweets, deletions)


class TestLabelAstrobots:
    def _fixture(self):
        kw = "#tag"
        noon = DAY_NOON
        # Trend A (attacked): users 1, 2 post deleted lexicon tweets; user 3 organic kept.
        a_tweets = [
            make_tweet(1, 1, LEX, noon, hashtags=["tag"]),
            make_tweet(2, 2, LEX, noon + 5, hashtags=["tag"]),
            make_tweet(3, 3, "Organik görüş burada! #tag", noon + 10, hashtags=["tag"]),
        ]
        a = make_instance(kw, a_tweets, {1: noon + 60, 2: noon + 65})
        # Trend B (attacked, next day): user 2 again and user 4.
        day_b = date(2019, 6, 19)
        noon_b = noon + 86400
        b_tweets = [
            make_tweet(11, 2, "yarım gün #öteki", noon_b, hashtags=["öteki"]),
            make_tweet(12, 4, "yarım gün #öteki", noon_b + 4, hashtags=["öteki"]),
        ]
        b = make_instance("#öteki", b_tweets, {11: noon_b + 30, 12: noon_b + 33}, day=day_b)
        # Trend C (not attacked): user 5 deleted lexicon tweet, must not be labeled.
        c_tweets = [make_tweet(21, 5, "yarım gün #sakin", noon + 20, hashtags=["sakin"])]
        c = make_instance("#sakin", c_tweets, {21: noon + 90})
        return [a, b, c]

    def test_expected_set(self):
        instances = self._fixture()
        # Rule 9 holds for all three trends (ratios 1.0, 1.0, 1.0); rule 8
        # separates them.
        config = DetectorConfig(thresholds={"8": 2})
        verdicts = []
        for instance in instances:
            vector = count_features(instance)
            verdicts.append(classify_trend(vector, config, trend=instance.trend))
        assert [v.attacked for v in verdicts] == [True, True, False]
        # The caller passes the attacked trend-days only: user 5 of C is out.
        attacked = [instance for instance, verdict in zip(instances, verdicts) if verdict.attacked]
        bots = label_astrobots(attacked)
        assert bots == {1, 2, 4}

    def test_cross_midnight_deletion_not_same_day(self):
        # Created 23:59 local, deleted 00:05 next local day: not an astrobot signal.
        day_start = (DAY.toordinal() - date(1970, 1, 1).toordinal()) * 86400 - 10800
        late = day_start + 86400 - 60
        tweets = [
            make_tweet(i, i, LEX, late - 600 + i, hashtags=["tag"]) for i in range(1, 5)
        ] + [make_tweet(9, 9, LEX, late, hashtags=["tag"])]
        deletions = {i: late - 500 + i for i in range(1, 5)}
        deletions[9] = day_start + 86400 + 300
        instance = make_instance("#tag", tweets, deletions)
        verdict = classify_trend(count_features(instance), DetectorConfig(), trend=instance.trend)
        assert verdict.attacked
        bots = label_astrobots([instance])
        assert 9 not in bots
        assert bots == {1, 2, 3, 4}


class TestScanCandidates:
    def _discovered(self, keyword_body, day_noon, n=6, deleted=True):
        """The hashtag-days the join discovers in n tweets of one hashtag."""
        events = []
        for i in range(n):
            tweet = make_tweet(1000 + i, 2000 + i, f"yarım gün #{keyword_body}", day_noon + i * 7,
                               hashtags=[keyword_body])
            events.append(tweet)
            if deleted:
                events.append(Deletion(tweet_id=tweet.id, user_id=tweet.user_id,
                                       time_ms=(day_noon + 120 + i * 5) * 1000))
        return build_trend_instances(None, events, flagger=flags_for_instance())

    def test_unsuccessful_attack_flagged(self):
        instances = self._discovered("gizli", DAY_NOON)
        verdicts = scan_candidates(instances, set(), DetectorConfig())
        assert len(verdicts) == 1
        assert verdicts[0].attacked
        assert verdicts[0].trend.keyword.normalized == "gizli"

    def test_trending_next_day_excluded(self):
        instances = self._discovered("gizli", DAY_NOON)
        known = {(date(2019, 6, 19), "gizli")}
        assert scan_candidates(instances, known, DetectorConfig()) == []

    def test_trending_same_day_excluded(self):
        instances = self._discovered("gizli", DAY_NOON)
        known = {(DAY, "gizli")}
        assert scan_candidates(instances, known, DetectorConfig()) == []

    def test_organic_burst_negative(self):
        instances = self._discovered("masum", DAY_NOON, deleted=False)
        verdicts = scan_candidates(instances, set(), DetectorConfig())
        assert len(verdicts) == 1
        assert not verdicts[0].attacked

    def test_below_min_tweets_skipped(self):
        instances = self._discovered("ufak", DAY_NOON, n=3)
        assert scan_candidates(instances, set(), DetectorConfig()) == []

    def test_scan_and_evaluate_reach_the_stages_through_detector(self, monkeypatch):
        """Both scorers look their stages up as module globals, which is
        where the benchmark tracer rebinds them: the two scoring stages in
        detector, and evaluate's flagger in simulator."""
        calls = []

        def counted(module, name):
            stage = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return stage(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        stages = ["count_features", "classify_trend"]
        for name in stages:
            counted(detector, name)
        counted(simulator, "flags_for_instance")
        scan_candidates(self._discovered("gizli", DAY_NOON), set(), DetectorConfig())
        assert calls == stages
        calls.clear()
        config = ScenarioConfig(n_days=1, organic_per_day=1, attacked_per_day=1,
                                attacks_per_day=1, background_per_day=0, sample_rate=1.0,
                                organic_tweets_min=20, organic_tweets_max=30,
                                adoption_tweets_min=5, adoption_tweets_max=10)
        evaluate(DetectorConfig(), build_stream(config))
        assert calls == ["flags_for_instance"] + stages * 2
