import copy
import io
import pickle
import random
import tracemalloc
from collections import Counter
from datetime import date, timedelta

import pytest

from trendguard.core import normalize_keyword
from trendguard.ingest import BadRow, Deletion, Tweet
from trendguard.classify import _lexicon_test
from trendguard.detector import AttackParams, DetectorConfig, detect_attack_windows
from trendguard.features import count_features
from trendguard.simulator import (
    GeoTweet,
    InfeasibleParams,
    SCENARIO_LOCALE,
    ScenarioConfig,
    WordlistTooSmall,
    build_stream,
    evaluate,
    gen_attack,
    gen_lexicon_text,
    gen_organic_trend,
    group_stream_by_keyword,
    id_sampler,
    load_scenario,
    load_truth_csv,
    load_wordlist,
    sample_stream,
    save_scenario,
    trend_oracle,
    write_stream_jsonl,
)

from conftest import make_instance, make_tweet, read_all

WORDLIST = load_wordlist()


class TestLexiconText:
    def test_deterministic(self):
        assert gen_lexicon_text(WORDLIST, random.Random(4)) == gen_lexicon_text(
            WORDLIST, random.Random(4)
        )

    def test_round_trip_classification(self):
        rng = random.Random(8)
        is_lexicon = _lexicon_test(None, "tr")
        for _ in range(1000):
            assert is_lexicon(gen_lexicon_text(WORDLIST, rng))

    def test_token_counts_in_band(self):
        rng = random.Random(9)
        counts = {len(gen_lexicon_text(WORDLIST, rng).split()) for _ in range(2000)}
        assert counts <= set(range(2, 10))
        assert {2, 9} <= counts

    def test_small_wordlist_rejected(self):
        with pytest.raises(WordlistTooSmall):
            gen_lexicon_text(["bir", "iki"], random.Random(0))
        with pytest.raises(WordlistTooSmall):
            gen_lexicon_text(WORDLIST[:9], random.Random(0))


class TestGenAttack:
    KW = normalize_keyword("#hedef", "tr")
    PARAMS = AttackParams()

    def test_respects_windows(self):
        rng = random.Random(5)
        cluster = gen_attack(self.KW, self.PARAMS, 400, 10_000, rng, WORDLIST,
                             creation_span=60)
        creations = [e.created_ms // 1000 for e in cluster
                     if isinstance(e, Tweet)]
        deletions = {e.tweet_id: e.time_ms // 1000 for e in cluster
                     if isinstance(e, Deletion)}
        assert max(creations) - min(creations) < 60 or max(creations) - min(creations) == 60
        assert len(deletions) == 400
        assert max(deletions.values()) - min(deletions.values()) <= self.PARAMS.alpha_d

    def test_single_bot(self):
        cluster = gen_attack(self.KW, self.PARAMS, 1, 0, random.Random(1), WORDLIST)
        assert len(cluster) == 2

    def test_one_tweet_per_user(self):
        cluster = gen_attack(self.KW, self.PARAMS, 50, 0, random.Random(2), WORDLIST)
        assert len({e.user_id for e in cluster if isinstance(e, Tweet)}) == 50

    def test_detector_round_trip(self):
        rng = random.Random(6)
        cluster = gen_attack(self.KW, self.PARAMS, 12, 50_000, rng, WORDLIST)
        tweets = [e for e in cluster if isinstance(e, Tweet)]
        deletions = {e.tweet_id: e.time_ms // 1000 for e in cluster
                     if isinstance(e, Deletion)}
        instance = make_instance("#hedef", tweets, deletions)
        events = detect_attack_windows(instance, self.PARAMS)
        assert len(events) == 1
        assert list(events[0].tweet_ids) == sorted(t.id for t in tweets)

    def test_infeasible_theta(self):
        params = AttackParams(theta=1)
        with pytest.raises(InfeasibleParams):
            gen_attack(self.KW, params, 5, 0, random.Random(0), WORDLIST)

    def test_tight_theta_still_feasible(self):
        params = AttackParams(theta=3)
        cluster = gen_attack(self.KW, params, 20, 0, random.Random(0), WORDLIST)
        for event in cluster:
            if isinstance(event, Deletion):
                continue
        creations = {e.id: e.created_ms // 1000 for e in cluster
                     if isinstance(e, Tweet)}
        for event in cluster:
            if isinstance(event, Deletion):
                life = event.time_ms // 1000 - creations[event.tweet_id]
                assert 0 < life <= 3


class TestGenOrganic:
    KW = normalize_keyword("#sohbet", "tr")

    def test_span_coverage(self):
        rng = random.Random(11)
        cluster = gen_organic_trend(self.KW, 100, 7200, rng, WORDLIST, t0=1000)
        creations = [e.created_ms // 1000 for e in cluster
                     if isinstance(e, Tweet)]
        assert min(creations) >= 1000
        assert max(creations) <= 1000 + 7200
        assert max(creations) - min(creations) > 0.8 * 7200

    def test_deletion_rate_binomial(self):
        rng = random.Random(12)
        cluster = gen_organic_trend(self.KW, 10_000, 7200, rng, WORDLIST,
                                    deletion_rate=0.023)
        deletions = sum(1 for e in cluster if isinstance(e, Deletion))
        assert deletions / 10_000 == pytest.approx(0.023, abs=0.01)

    def test_verdict_negative_under_default_presets(self):
        rng = random.Random(13)
        cluster = gen_organic_trend(self.KW, 3000, 7200, rng, WORDLIST, t0=500_000)
        tweets = [e for e in cluster if isinstance(e, Tweet)]
        deletions = {e.tweet_id: e.time_ms // 1000 for e in cluster
                     if isinstance(e, Deletion)}
        instance = make_instance("#sohbet", tweets, deletions)
        vector = count_features(instance)
        for preset in ("lexicon-tree", "lexicon-agnostic-tree", "ratio-only"):
            from trendguard.detector import classify_trend

            assert not classify_trend(vector, DetectorConfig(preset=preset)).attacked

    def test_engagement_mix_produces_variety(self):
        rng = random.Random(14)
        cluster = gen_organic_trend(self.KW, 500, 3600, rng, WORDLIST)
        tweets = [e for e in cluster if isinstance(e, Tweet)]
        assert any(t.is_retweet for t in tweets)
        assert any(t.mentions for t in tweets)
        assert any(t.urls for t in tweets)
        assert any(len(t.hashtags) > 1 for t in tweets)


class TestSampleStream:
    def _stream(self, n):
        kw = normalize_keyword("#veri", "tr")
        rng = random.Random(15)
        return gen_organic_trend(kw, n, 7200, rng, WORDLIST, deletion_rate=0.2)

    def test_rate_one_is_identity(self):
        events = self._stream(500)
        sampled = list(sample_stream(events, 1.0, 0))
        assert sampled == events

    def test_binomial_bounds(self):
        events = self._stream(40_000)
        sampled = list(sample_stream(events, 0.01, 1))
        kept = sum(1 for e in sampled if isinstance(e, Tweet))
        # 3 sigma around np = 400
        assert abs(kept - 400) <= 3 * (40_000 * 0.01 * 0.99) ** 0.5

    def test_no_orphan_deletions(self):
        events = self._stream(5000)
        sampled = list(sample_stream(events, 0.05, 2))
        created = {e.id for e in sampled if isinstance(e, Tweet)}
        for event in sampled:
            if isinstance(event, Deletion):
                assert event.tweet_id in created

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            list(sample_stream([], 0.0, 0))

    def test_kept_by_id_in_any_order(self):
        events = self._stream(5000)
        sampled = list(sample_stream(events, 0.05, 3))
        shuffled = list(events)
        random.Random(4).shuffle(shuffled)
        assert sorted(sample_stream(shuffled, 0.05, 3), key=repr) == sorted(sampled, key=repr)
        kept = id_sampler(0.05, 3)
        assert sampled == [e for e in events
                           if kept(e.id if isinstance(e, Tweet) else e.tweet_id)]

    def test_deletion_before_its_creation_is_kept(self):
        kept = id_sampler(0.05, 3)
        tweet_id = next(i for i in range(10**6) if kept(i))
        creation = make_tweet(tweet_id, 9, "bir iki", 1000)
        deletion = Deletion(tweet_id=tweet_id, user_id=9, time_ms=2_000_000)
        assert list(sample_stream([deletion, creation], 0.05, 3)) == [deletion, creation]

    @pytest.mark.parametrize("seed", [0, 7, -1, 2**64 + 7])
    def test_rule_is_splitmix64_of_the_id(self, seed):
        def mix64(z):  # the published splitmix64 finalizer
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
            return z ^ (z >> 31)

        kept = id_sampler(0.3, seed)
        for tweet_id in [0, 1, 2**63 - 1, -5, 2**64 + 3, *range(100, 400)]:
            expected = mix64((tweet_id ^ mix64(seed % 2**64)) % 2**64) < int(0.3 * 2**64)
            assert kept(tweet_id) == expected
        assert all(map(id_sampler(1.0, seed), [0, 2**64 - 1, -1]))


GEO_TWEET = GeoTweet(1, 2, "x #a", 3, hashtags=("a",), geo=(41.0, 29.0))


class TestEventRecords:
    """Events are read-only tuples; a GeoTweet is a Tweet that keeps its point."""

    @pytest.mark.parametrize("event", [make_tweet(1, 2, "x", 0), Deletion(1, 2, 3), GEO_TWEET])
    def test_no_field_can_be_assigned(self, event):
        names = event._fields + (("geo",) if isinstance(event, GeoTweet) else ())
        for name in names + ("other",):
            with pytest.raises(AttributeError):
                setattr(event, name, None)

    @pytest.mark.parametrize("clone", [
        *(lambda event, protocol=protocol: pickle.loads(pickle.dumps(event, protocol))
          for protocol in range(pickle.HIGHEST_PROTOCOL + 1)),
        copy.copy, copy.deepcopy,
    ])
    def test_a_geo_tweet_keeps_its_point(self, clone):
        cloned = clone(GEO_TWEET)
        assert type(cloned) is GeoTweet and isinstance(cloned, Tweet)
        assert cloned == GEO_TWEET and cloned.geo == (41.0, 29.0)

    def test_replace_keeps_the_point(self):
        moved = GEO_TWEET._replace(text="y")
        assert (moved.text, moved.geo) == ("y", (41.0, 29.0))

    def test_a_geo_tweet_needs_its_point(self):
        with pytest.raises(TypeError):
            GeoTweet(1, 2, "x", 3)

    def test_make_cannot_drop_the_point(self):
        with pytest.raises(TypeError, match="geo"):
            GeoTweet._make(tuple(GEO_TWEET))


class TestLabeledStream:
    def test_deterministic_serialization(self):
        config = ScenarioConfig(n_days=1, organic_per_day=2,
                                attacked_per_day=1, attacks_per_day=2, background_per_day=100,
                                organic_tweets_min=50, organic_tweets_max=80,
                                adoption_tweets_min=20, adoption_tweets_max=40)
        first = io.StringIO()
        write_stream_jsonl(first, build_stream(config).events())
        second = io.StringIO()
        write_stream_jsonl(second, build_stream(config).events())
        assert first.getvalue() == second.getvalue()
        assert first.getvalue()

    def test_a_drained_stream_holds_about_one_day(self):
        """events() lets each day go once it is yielded, so draining three
        days peaks well under the stream held as a list."""
        config = ScenarioConfig(n_days=3, organic_per_day=0, attacked_per_day=0,
                                attacks_per_day=0, background_per_day=1500)
        labeled = build_stream(config)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            for _ in labeled.events():
                pass
            drained = tracemalloc.get_traced_memory()[1] - before
            before = tracemalloc.get_traced_memory()[0]
            events = list(labeled.events())
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(events) > 4000
        assert drained < 0.6 * held

    def test_events_time_ordered(self):
        config = ScenarioConfig(n_days=2, organic_per_day=2,
                                attacked_per_day=1, attacks_per_day=2, background_per_day=50,
                                organic_tweets_min=30, organic_tweets_max=60,
                                adoption_tweets_min=10, adoption_tweets_max=20)
        labeled = build_stream(config)
        last = None
        for event in labeled.events():
            when = event.created_ms if isinstance(event, Tweet) else event.time_ms
            if last is not None:
                assert when >= last
            last = when

    def test_truth_shape(self):
        config = ScenarioConfig(n_days=2, organic_per_day=3,
                                attacked_per_day=2, attacks_per_day=4, background_per_day=0,
                                organic_tweets_min=30, organic_tweets_max=60,
                                adoption_tweets_min=10, adoption_tweets_max=20)
        labeled = build_stream(config)
        assert len(labeled.truth) == 10
        assert sum(labeled.truth.values()) == 4
        assert labeled.truth_bots
        assert len(labeled.truth_attacks) == 8  # 4 waves/day x 2 days

    @pytest.mark.parametrize("attacks, attacked, waves", [(5, 2, [3, 2]), (1, 3, [1, 1, 1])])
    def test_waves_dealt_round_robin(self, attacks, attacked, waves):
        config = ScenarioConfig(n_days=2, organic_per_day=1, attacked_per_day=attacked,
                                attacks_per_day=attacks, background_per_day=0)
        labeled = build_stream(config)
        for day in (config.start_date, config.start_date + timedelta(days=1)):
            per_trend = Counter(r.keyword for r in labeled.truth_attacks if r.day == day)
            assert list(per_trend.values()) == waves

    def test_ids_distinct_and_bots_post_once_and_delete(self):
        config = ScenarioConfig(n_days=2, organic_per_day=2, attacked_per_day=2,
                                attacks_per_day=3, failed_attacks_per_day=1,
                                background_per_day=100, bots_min=20, bots_max=40,
                                organic_tweets_min=30, organic_tweets_max=60,
                                adoption_tweets_min=10, adoption_tweets_max=20)
        labeled = build_stream(config)
        events = list(labeled.events())
        tweets = [e for e in events if isinstance(e, Tweet)]
        deleted = {e.tweet_id for e in events if isinstance(e, Deletion)}
        assert len({t.id for t in tweets}) == len(tweets)
        assert len({t.user_id for t in tweets}) == len(tweets)
        bots = labeled.truth_bots
        assert len(bots) == sum(r.n_bots for r in labeled.truth_attacks)
        assert not all(r.succeeded for r in labeled.truth_attacks)  # failed waves included
        bot_tweets = [t for t in tweets if t.user_id in bots]
        assert len(bot_tweets) == len(bots)
        assert all(t.id in deleted for t in bot_tweets)

    def test_generated_attacks_satisfy_model(self):
        config = ScenarioConfig(n_days=1, organic_per_day=0,
                                attacked_per_day=1, attacks_per_day=1, background_per_day=0,
                                adoption_tweets_min=0, adoption_tweets_max=0)
        labeled = build_stream(config)
        params = config.params
        creations = {}
        deletions = {}
        for event in labeled.events():
            if isinstance(event, Tweet):
                creations[event.id] = event
            else:
                deletions[event.tweet_id] = event.time_ms
        bots = labeled.truth_bots
        bot_tweets = [t for t in creations.values() if t.user_id in bots]
        assert len(bot_tweets) >= params.kappa
        p = [t.created_ms // 1000 for t in bot_tweets]
        d = [deletions[t.id] // 1000 for t in bot_tweets]
        assert max(p) - min(p) <= params.alpha_p
        assert max(d) - min(d) <= params.alpha_d
        assert all(0 < dt - pt <= params.theta for pt, dt in zip(p, d))

    def test_round_trip_through_archive_format(self):
        config = ScenarioConfig(n_days=1, organic_per_day=1,
                                attacked_per_day=1, attacks_per_day=1, background_per_day=20,
                                organic_tweets_min=20, organic_tweets_max=30,
                                adoption_tweets_min=5, adoption_tweets_max=10)
        labeled = build_stream(config)
        buffer = io.StringIO()
        write_stream_jsonl(buffer, labeled.events())
        parsed, stats = read_all(io.BytesIO(buffer.getvalue().encode()))
        assert stats.malformed_skipped == 0
        original = list(labeled.events())
        assert len(parsed) == len(original)
        for a, b in zip(original, parsed):
            if isinstance(a, Tweet):
                assert isinstance(b, Tweet)
                assert a.id == b.id
                assert a.text == b.text
                assert a.created_ms == b.created_ms
                assert a.hashtags == b.hashtags
                assert a.mentions == b.mentions
                assert a.urls == b.urls
                assert a.is_retweet == b.is_retweet
                assert a.is_reply == b.is_reply
            else:
                assert isinstance(b, Deletion)
                assert (a.tweet_id, a.user_id, a.time_ms) == (b.tweet_id, b.user_id, b.time_ms)


class TestEvaluate:
    def test_all_negative_detector_zero_recall(self):
        config = ScenarioConfig(n_days=1, organic_per_day=2,
                                attacked_per_day=1, attacks_per_day=2, background_per_day=100,
                                organic_tweets_min=50, organic_tweets_max=80,
                                adoption_tweets_min=20, adoption_tweets_max=40,
                                sample_rate=1.0)
        labeled = build_stream(config)
        never = DetectorConfig(thresholds={"8": 10 ** 9})
        report = evaluate(never, labeled)
        assert report.recall == 0.0
        assert report.tp == 0
        assert report.tp + report.fp + report.tn + report.fn == len(labeled.truth)

    def test_f1_is_harmonic_mean(self):
        config = ScenarioConfig(n_days=2, organic_per_day=3,
                                attacked_per_day=2, attacks_per_day=4, background_per_day=100,
                                organic_tweets_min=50, organic_tweets_max=80,
                                adoption_tweets_min=20, adoption_tweets_max=40)
        report = evaluate(DetectorConfig(), build_stream(config))
        if report.precision + report.recall:
            expected = 2 * report.precision * report.recall / (report.precision + report.recall)
            assert report.f1 == pytest.approx(expected)


class TestTrendOracle:
    def test_attack_enters_without_mitigation(self):
        kw = normalize_keyword("#saldiri", "tr")
        rng = random.Random(21)
        cluster = gen_attack(kw, AttackParams(), 400, 10_020, rng, WORDLIST,
                             creation_span=55, deletion_span=55, deletion_lag=5)
        streams = group_stream_by_keyword(cluster, [kw], "tr")
        epochs = trend_oracle(streams, mitigation=False)
        assert any("saldiri" in top for _, top in epochs)

    def test_attack_excluded_with_mitigation(self):
        kw = normalize_keyword("#saldiri", "tr")
        rng = random.Random(21)
        cluster = gen_attack(kw, AttackParams(), 400, 10_020, rng, WORDLIST,
                             creation_span=55, deletion_span=55, deletion_lag=5)
        streams = group_stream_by_keyword(cluster, [kw], "tr")
        epochs = trend_oracle(streams, mitigation=True)
        assert not any("saldiri" in top for _, top in epochs)

    def test_organic_unaffected_within_noise(self):
        kw = normalize_keyword("#dogal", "tr")
        rng = random.Random(22)
        cluster = gen_organic_trend(kw, 2000, 4 * 3600, rng, WORDLIST, t0=9000,
                                    deletion_rate=0.023)
        streams = group_stream_by_keyword(cluster, [kw], "tr")
        off = trend_oracle(streams, mitigation=False)
        on = trend_oracle(streams, mitigation=True)
        entered_off = {ts // 1000 for ts, top in off if "dogal" in top}
        entered_on = {ts // 1000 for ts, top in on if "dogal" in top}
        assert entered_off
        assert len(entered_on) >= 0.9 * len(entered_off)

    def test_the_grouping_holds_ints_not_events(self):
        # The bench's smoke scenario: once the grouping returns, each matched
        # creation costs its columns' ints, not a kept Tweet and its text.
        config = ScenarioConfig(n_days=1, organic_per_day=3, attacked_per_day=1,
                                attacks_per_day=4, background_per_day=400)
        labeled = build_stream(config)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            streams = group_stream_by_keyword(labeled.events(), labeled.keywords.values(),
                                              SCENARIO_LOCALE)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        matched = sum(len(stream.created_ms) for stream in streams.values())
        assert matched > 5000
        assert held <= 96 * matched


class TestPlantedPrevalence:
    def test_daily_average_tracks_planted_rate(self):
        # 5 attacked of 20 trends per day: prevalence over toy top-10
        # entrants should recover the planted 25% rate.
        from trendguard.ingest import load_trend_epochs
        from trendguard.metrics import daily_average, prevalence
        from trendguard.simulator import group_stream_by_keyword, write_epochs_csv

        config = ScenarioConfig(seed=33, n_days=3, background_per_day=300)
        labeled = build_stream(config)
        streams = group_stream_by_keyword(labeled.events(), labeled.keywords.values())
        ranked = trend_oracle(streams, mitigation=False)

        buffer = io.StringIO()
        write_epochs_csv(buffer, ranked, labeled.keywords)
        buffer.seek(0)
        epochs = load_trend_epochs(buffer)
        per_day = prevalence(labeled.truth, epochs, k=10)
        assert len(per_day) == 3
        assert daily_average(per_day) == pytest.approx(0.25, abs=0.05)


class TestScenarioFiles:
    def test_truth_csv_with_a_byte_order_mark(self, tmp_path):
        rows = "date,keyword,attacked\n2019-06-18,#Tag,1\n"
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_bytes(rows.encode())
        bom.write_bytes(b"\xef\xbb\xbf" + rows.encode())
        assert load_truth_csv(str(bom)) == load_truth_csv(str(plain)) == {
            (date(2019, 6, 18), "tag"): True}

    def test_save_load_round_trip(self, tmp_path):
        config = ScenarioConfig(seed=99, bots_min=150,
                                sample_rate=0.02, params=AttackParams(kappa=5))
        path = tmp_path / "scenario.cfg"
        with open(path, "w", encoding="utf-8") as handle:
            save_scenario(config, handle)
        loaded = load_scenario(str(path))
        assert loaded == config

    def test_scenario_file_with_a_byte_order_mark(self, tmp_path):
        config = ScenarioConfig(seed=99, n_days=3, params=AttackParams(kappa=5))
        handle = io.StringIO()
        save_scenario(config, handle)
        plain, bom = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
        plain.write_bytes(handle.getvalue().encode())
        bom.write_bytes(b"\xef\xbb\xbf" + handle.getvalue().encode())
        assert load_scenario(str(bom)) == load_scenario(str(plain)) == config

    @pytest.mark.parametrize("wordlist_path", ['/x/say "hi" #1/words.txt', "/x/it's #1/words.txt"])
    def test_wordlist_path_round_trip(self, tmp_path, wordlist_path):
        config = ScenarioConfig(wordlist_path=wordlist_path)
        path = tmp_path / "scenario.cfg"
        with open(path, "w", encoding="utf-8") as handle:
            save_scenario(config, handle)
        assert load_scenario(str(path)) == config

    def test_wordlist_path_with_both_quotes_rejected(self):
        wordlist_path = """/x/"a" 'b'/words.txt"""
        handle = io.StringIO()
        with pytest.raises(ValueError) as raised:
            save_scenario(ScenarioConfig(wordlist_path=wordlist_path), handle)
        assert wordlist_path in str(raised.value)
        assert handle.getvalue() == ""

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("mystery_knob = 5\n")
        with pytest.raises(ValueError):
            load_scenario(str(path))

    @pytest.mark.parametrize("text, prefix", [
        ("n_days = 2\nseed = abc\n", ":2: "),
        ("start_date = 2019-02-30\n", ":1: "),
        ("sample_rate = 2\n", ": sample_rate"),
        ("kappa = 0\n", ": kappa"),
        ("start_date = 20190618\n", ":1: not a YYYY-MM-DD date"),
        ("epoch_seconds = 0\n", ": epoch_seconds"),
        ("epoch_seconds = -300\n", ": epoch_seconds"),
        ("bots_min = 700\n", ": bots_min"),
        ("bots_min = 0\n", ": bots_min"),
        ("organic_tweets_min = -1\n", ": organic_tweets_min"),
        ("adoption_tweets_min = 50\nadoption_tweets_max = 40\n", ": adoption_tweets_min"),
        ("attack_creation_span = -5\n", ": attack_creation_span"),
        ("attack_deletion_span = -1\n", ": attack_deletion_span"),
    ], ids=["seed", "start_date", "sample_rate", "kappa", "start_date_basic_form",
            "epoch_seconds_0", "epoch_seconds_negative", "bots_min_above_max", "bots_min_0",
            "organic_tweets_min_negative", "adoption_tweets_min_above_max",
            "attack_creation_span_negative", "attack_deletion_span_negative"])
    def test_bad_value_names_file_and_line(self, tmp_path, text, prefix):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(ValueError) as raised:
            load_scenario(str(path))
        assert str(raised.value).startswith(f"{path}{prefix}")

    def test_a_truth_date_is_yyyy_mm_dd(self, tmp_path):
        path = tmp_path / "truth.csv"
        path.write_text("date,keyword,attacked\n2019-W25-3,#Tag,1\n")
        with pytest.raises(BadRow) as raised:
            load_truth_csv(str(path))
        assert str(raised.value) == f"{path}:2: not a YYYY-MM-DD date: '2019-W25-3'"

    @pytest.mark.parametrize("attacked", ["-1", "2", "1_0", "01", "true", "٠", ""])
    def test_a_truth_label_is_0_or_1(self, tmp_path, attacked):
        path = tmp_path / "truth.csv"
        path.write_text(f"date,keyword,attacked\n2019-06-18,#Tag,1\n2019-06-18,#b,{attacked}\n",
                        encoding="utf-8")
        with pytest.raises(BadRow) as raised:
            load_truth_csv(str(path))
        assert str(raised.value) == f"{path}:3: attacked must be 0 or 1, got {attacked!r}"

    def test_truth_labels_read_back(self, tmp_path):
        path = tmp_path / "truth.csv"
        path.write_text("date,keyword,attacked\n2019-06-18,#Tag,1\n2019-06-18,#b, 0\n")
        assert load_truth_csv(str(path)) == {(date(2019, 6, 18), "tag"): True,
                                             (date(2019, 6, 18), "b"): False}

    def test_quoted_value_keeps_a_hash(self, tmp_path):
        wordlist = tmp_path / 'wl#1 "x"' / "words.txt"
        wordlist.parent.mkdir()
        wordlist.write_text("\n".join(WORDLIST) + "\n", encoding="utf-8")
        config = ScenarioConfig(n_days=1, wordlist_path=str(wordlist))
        path = tmp_path / "scenario.cfg"
        with open(path, "w", encoding="utf-8") as handle:
            save_scenario(config, handle)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('seed = 8  # "quoted" in a comment\n')
        loaded = load_scenario(str(path))
        assert loaded == ScenarioConfig(n_days=1, seed=8, wordlist_path=str(wordlist))
        assert build_stream(loaded).wordlist == tuple(WORDLIST)

    @pytest.mark.parametrize("line", ['wordlist_path = "a#b', 'wordlist_path = "a" b'])
    def test_broken_quoted_value_names_its_line(self, tmp_path, line):
        path = tmp_path / "bad.cfg"
        path.write_text(f"seed = 1\n{line}\n")
        with pytest.raises(ValueError) as raised:
            load_scenario(str(path))
        assert str(raised.value).startswith(f"{path}:2: ")

    def test_comments_and_quotes(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text("# comment\nseed = 3\nsample_rate = 0.5  # inline\n")
        config = load_scenario(str(path))
        assert config.seed == 3
        assert config.sample_rate == 0.5
