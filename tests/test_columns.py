"""The join's int columns and flag bytes against the Tweet-and-dict path
they replaced (tests/oracles.py): the same trend-days joined both ways give
the same rows, features, attack windows and astrobots. And a bound on what
the joined trend-days hold.
"""

import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from trendguard.classify import flags_for_instance
from trendguard.core import normalize_keyword
from trendguard.detector import (
    AttackParams,
    attack_candidates,
    detect_attack_windows,
    label_astrobots,
)
from trendguard.features import attack_windows, count_features, initial_deletions
from trendguard.graph import (
    DELETED_LEXICON,
    UNDELETED,
    BipartiteGraph,
    build_graph,
    community_summary,
    louvain,
)
from trendguard.ingest import Deletion, TrendDay, Tweet, build_trend_instances
from trendguard.simulator import SCENARIO_LOCALE, ScenarioConfig, build_stream

import oracles
from conftest import DAY, DAY_NOON

TRENDS = [TrendDay(DAY, normalize_keyword("#tag")), TrendDay(DAY, normalize_keyword("tepel sobar"))]
# Lexicon words, and words that break the lexicon rule or single engagement
# (another hashtag, or any hashtag beside an n-gram).
WORDS = ["yarım", "gün", "ılık", "çok", "(iki)"]
SPOILERS = ["#tag", "#TAG", "tepel", "Tepel", "SOBAR", "#öteki", "x2", "a.b", "Organik!",
            "\U0001F600"]


@st.composite
def streams(draw):
    """Tweets in two bursts of a few minutes, by a few users: lexicon or
    not, retweets, replies, mentions, urls, foreign hashtags, repeated ids;
    deletion notices soon after, late, before the creation, or none."""
    events = []
    bursts = [DAY_NOON + draw(st.integers(0, 3000)) for _ in range(2)]
    for tweet_id in draw(st.lists(st.integers(1, 60), min_size=8, max_size=40)):
        words = draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=5))
        for extra in [draw(st.sampled_from(["#tag", "tepel sobar"]))] + draw(
                st.lists(st.sampled_from(SPOILERS), max_size=1)):
            words.insert(draw(st.integers(0, len(words))), extra)
        text = " ".join(words)
        retweet = draw(st.integers(0, 9)) == 0
        if retweet:
            text = "RT @a: " + text
        created = (draw(st.sampled_from(bursts)) + draw(st.integers(0, 100))) * 1000 \
            + draw(st.integers(0, 999))
        events.append(Tweet(
            id=tweet_id, user_id=draw(st.integers(1, 15)), text=text, created_ms=created,
            hashtags=tuple(w[1:] for w in words if w.startswith("#")),
            mentions=(7,) if draw(st.integers(0, 7)) == 0 else (),
            urls=int(draw(st.integers(0, 7)) == 0), is_retweet=retweet,
            is_reply=draw(st.integers(0, 9)) == 0))
        for offset in draw(st.lists(st.sampled_from([-2000, 30_000, 90_000, 200_000, 900_000]),
                                    max_size=2)):
            events.append(Deletion(tweet_id=tweet_id, user_id=0,
                                   time_ms=created + offset + draw(st.integers(0, 999))))
    return draw(st.permutations(events))


@settings(max_examples=200, deadline=None)
@given(events=streams(), kappa=st.integers(1, 5), merge=st.booleans())
def test_columns_equal_the_tweet_and_dict_path(events, kappa, merge):
    instances = build_trend_instances(TRENDS, events, flagger=flags_for_instance())
    params = AttackParams(kappa=kappa, alpha_p=120, alpha_d=120, theta=600)
    pairs = []
    for trend in TRENDS:
        instance = instances[trend.date, trend.keyword.normalized]
        old = oracles.build_trend_instance(trend, events)
        flags = oracles.flags_for_instance(old)
        pairs.append((old, flags))
        assert instance.tweets == oracles.joined_rows(old, flags)
        assert instance.invalid_deletions == old.invalid_deletions
        assert count_features(instance) == oracles.count_features(old, flags)
        assert detect_attack_windows(instance, params, merge) == \
            oracles.detect_attack_windows(old, flags, params, merge)
    assert label_astrobots(instances.values()) == oracles.label_astrobots(pairs)


def test_joined_heap_per_tweet():
    """On the golden scenario (tests/test_golden.py), what the join's result
    holds, flags included, is at most 64 bytes a joined tweet: four int64
    columns and a flag byte, where whole Tweets and flag dicts took about
    400."""
    config = ScenarioConfig(n_days=1, organic_per_day=3, attacked_per_day=2,
                            attacks_per_day=6, background_per_day=300, seed=5)
    labeled = build_stream(config)
    events = list(labeled.events())
    trends = labeled.trend_days()
    flagger = flags_for_instance(SCENARIO_LOCALE)
    build_trend_instances(trends, events[:100], SCENARIO_LOCALE, config.tz_offset, flagger)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        instances = build_trend_instances(trends, events, SCENARIO_LOCALE, config.tz_offset,
                                          flagger)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    joined = sum(len(instance.ids) for instance in instances.values())
    assert joined > 1000
    assert held <= 64 * joined


@pytest.mark.parametrize("stage", [
    count_features, initial_deletions, attack_windows,
    lambda instance: attack_candidates(instance, AttackParams()),
    lambda instance: detect_attack_windows(instance, AttackParams()),
    lambda instance: label_astrobots([instance]),
    lambda instance: build_graph({(DAY, "tag"): instance}, DELETED_LEXICON),
    lambda instance: community_summary(
        louvain(BipartiteGraph.from_edges([(2, "tag", 1)]), seed=0), {(DAY, "tag"): instance}),
], ids=["count_features", "initial_deletions", "attack_windows", "attack_candidates",
        "detect_attack_windows", "label_astrobots", "build_graph", "community_summary"])
def test_a_stage_that_reads_flags_names_an_unflagged_join(stage):
    """A join without a flagger leaves flags None; each stage that reads
    them says so instead of failing on None."""
    events = [Tweet(id=1, user_id=2, text="yarım gün #tag", created_ms=DAY_NOON * 1000,
                    hashtags=("tag",)),
              Deletion(tweet_id=1, user_id=2, time_ms=DAY_NOON * 1000 + 60_000)]
    instance = build_trend_instances(TRENDS[:1], events)[DAY, "tag"]
    assert instance.flags is None
    with pytest.raises(ValueError, match="joined without a flagger"):
        stage(instance)
    assert build_graph({(DAY, "tag"): instance}, UNDELETED).n_edges == 0


def test_a_tweet_holding_an_ngram_twice_is_filed_and_flagged_once():
    flagged = []

    class CountingFlagger(dict):
        def __missing__(self, keyword):
            def flag(tweet):
                flagged.append(tweet.id)
                return 0
            self[keyword] = flag
            return flag

    events = [Tweet(id=1, user_id=2, text="tepel sobar, yine Tepel Sobar",
                    created_ms=DAY_NOON * 1000)]
    instance = build_trend_instances(TRENDS[1:], events, flagger=CountingFlagger())
    assert list(instance[DAY, "tepel sobar"].ids) == [1]
    assert flagged == [1]
