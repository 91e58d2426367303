"""Ordered differential tests of the sweep-line window detection.

`reference_windows` is the enumeration detect_attack_windows used before
the sweep: one creation window per distinct creation second, one deletion
window per distinct deletion second inside it, a canonical-anchor check by
minimum, and a quadratic maximal-subset filter. `oracles.detect_attack_windows`
is the sweep as it was before its runs became boxes: it keeps every run as
a frozenset and tests maximality by subset. The library must return the
very same event list as both, order included: events sort by (start,
smallest id), which can tie, and tied events keep the maximal list's order.
"""

import random
import tracemalloc
from array import array
from bisect import bisect_left, bisect_right

import pytest
from hypothesis import given, settings, strategies as st

from trendguard.detector import (
    AttackEvent,
    AttackParams,
    _merge_components,
    detect_attack_windows,
)
from trendguard.ingest import Tweet

import oracles
from conftest import DAY_NOON, join_instance
from oracles import TweetFlags


def reference_candidates(instance, flags, params, require_lexicon=False):
    eligible = []
    deletions = instance.deletions  # a view, built on each access
    for tweet in instance.tweets:
        deleted_at = deletions.get(tweet.id)
        if deleted_at is None:
            continue
        flag = flags[tweet.id]
        if not flag.is_single_engagement:
            continue
        if require_lexicon and not flag.is_lexicon:
            continue
        lifetime = deleted_at // 1000 - tweet.created_ms // 1000
        if lifetime < 0 or lifetime > params.theta:
            continue
        eligible.append((tweet, deleted_at))
    eligible.sort(key=lambda td: (td[0].created_ms, td[0].id))
    per_user = {}
    for tweet, deleted_at in eligible:
        if tweet.user_id not in per_user:
            per_user[tweet.user_id] = (tweet, deleted_at)
    return sorted(per_user.values(), key=lambda td: (td[0].created_ms, td[0].id))


def reference_windows(instance, flags, params, require_lexicon=False,
                      merge_overlapping=False):
    cands = reference_candidates(instance, flags, params, require_lexicon)
    n = len(cands)
    if n < params.kappa:
        return []

    p = [t.created_ms // 1000 for t, _ in cands]
    alpha_p = params.alpha_p
    alpha_d = params.alpha_d

    raw = []
    seen_anchor = set()
    for i in range(n):
        if p[i] in seen_anchor:
            continue
        seen_anchor.add(p[i])
        lo = bisect_left(p, p[i])
        hi = bisect_right(p, p[i] + alpha_p)
        window = sorted(range(lo, hi), key=lambda j: (cands[j][1], cands[j][0].id))
        dvals = [cands[j][1] // 1000 for j in window]
        seen_d = set()
        for a in range(len(window)):
            if dvals[a] in seen_d:
                continue
            seen_d.add(dvals[a])
            b = bisect_right(dvals, dvals[a] + alpha_d)
            members = window[a:b]
            if len(members) < params.kappa:
                continue
            # Canonical anchor only: the run is regenerated (possibly larger)
            # at the window anchored on its actual earliest creation.
            if min(p[j] for j in members) != p[i]:
                continue
            raw.append(frozenset(members))

    raw.sort(key=len, reverse=True)
    maximal = []
    for cluster in raw:
        if any(cluster < kept or cluster == kept for kept in maximal):
            continue
        maximal.append(cluster)

    if merge_overlapping:
        maximal = _merge_components(maximal)

    events = []
    for cluster in maximal:
        members = [cands[j] for j in sorted(cluster)]
        creations = [t.created_ms // 1000 for t, _ in members]
        deletions = [d // 1000 for _, d in members]
        events.append(
            AttackEvent(
                tweet_ids=array("q", sorted({t.id for t, _ in members})),
                users=array("q", sorted({t.user_id for t, _ in members})),
                start_ms=min((t.created_ms for t, _ in members)),
                end_ms=max((d for _, d in members)),
                creation_window_s=max(creations) - min(creations),
                deletion_window_s=max(deletions) - min(deletions),
                max_lifetime_s=max(d // 1000 - t.created_ms // 1000 for t, d in members),
            )
        )
    events.sort(key=lambda e: (e.start_ms, min(e.tweet_ids)))
    return events


def _bursty_instance(rng):
    """50-300 tweets in a few bursts: shared creation seconds with distinct
    (and some equal) milliseconds, deletion waves that share seconds, some
    users posting twice, and some over-long lifetimes; the join rejects the
    notices drawn before their tweet."""
    n = rng.randint(50, 300)
    n_bursts = rng.randint(1, 4)
    bursts = [(DAY_NOON + rng.randint(0, 1500), rng.randint(0, 240), rng.randint(0, 400),
               rng.randint(0, 120)) for _ in range(n_bursts)]
    millis = [0, 0, 1, 250, 500, 999]
    tweets = []
    deletions = {}
    flags = {}
    for tweet_id in rng.sample(range(1, 10 * n), n):
        start, spread, delay, wave = rng.choice(bursts)
        created = (start + rng.randint(0, spread)) * 1000 + rng.choice(millis)
        tweets.append(Tweet(
            id=tweet_id, user_id=rng.randint(1, n - n // 8), text="",
            created_ms=created, hashtags=("tag",), mentions=(), urls=0,
            is_retweet=False, is_reply=False,
        ))
        flags[tweet_id] = TweetFlags(is_lexicon=rng.random() < 0.8,
                                     is_single_engagement=rng.random() < 0.9)
        roll = rng.random()
        if roll < 0.75:
            deleted = start + spread // 2 + delay + rng.randint(0, wave)
        elif roll < 0.85:
            deleted = created // 1000 + rng.randint(-30, 900)
        else:
            continue
        deletions[tweet_id] = deleted * 1000 + rng.choice(millis)
    return join_instance("#tag", tweets, deletions, flags=flags), flags


def _random_params(rng):
    return AttackParams(kappa=rng.randint(1, 8), alpha_p=rng.randint(0, 600),
                        alpha_d=rng.randint(0, 600),
                        theta=rng.randint(300, 900))


def _has_tie(events):
    keys = [(e.start_ms, min(e.tweet_ids)) for e in events]
    return len(set(keys)) < len(keys)


@pytest.mark.parametrize("seed", range(6))
def test_sweep_equals_reference_in_order(seed):
    rng = random.Random(seed)
    ties = 0
    for _ in range(6):
        instance, flags = _bursty_instance(rng)
        params = _random_params(rng)
        for merge in (False, True):
            got = detect_attack_windows(instance, params, merge_overlapping=merge)
            want = reference_windows(instance, flags, params, merge_overlapping=merge)
            assert got == want
            assert got == oracles.detect_attack_windows(instance, flags, params,
                                                        merge_overlapping=merge)
            ties += _has_tie(want)
    assert ties, "no tied (start, min id) pair: the tie order went untested"


def test_extreme_windows_equal_reference():
    """alpha_p and alpha_d at 0 (one-second windows) and at 600, kappa 1 and 8."""
    rng = random.Random(99)
    for _ in range(4):
        instance, flags = _bursty_instance(rng)
        for kappa in (1, 8):
            for alpha in (0, 600):
                params = AttackParams(kappa=kappa, alpha_p=alpha,
                                      alpha_d=600 - alpha, theta=900)
                assert detect_attack_windows(instance, params) == \
                    reference_windows(instance, flags, params)


def test_same_second_creations_keep_millisecond_order():
    """Three tweets in one creation second, one deleted in the same second as
    another: ranks by (deleted ms, id) and spans come from the right tweets."""
    flags = {i: TweetFlags(True, True) for i in (1, 2, 3, 4)}
    created = {1: DAY_NOON * 1000 + 900, 2: DAY_NOON * 1000 + 5,
               3: DAY_NOON * 1000 + 400, 4: (DAY_NOON + 1) * 1000}
    tweets = [Tweet(id=i, user_id=10 + i, text="", created_ms=created[i], hashtags=("tag",),
                    mentions=(), urls=0, is_retweet=False, is_reply=False)
              for i in created]
    instance = join_instance("#tag", tweets, {
        1: (DAY_NOON + 60) * 1000 + 10, 2: (DAY_NOON + 60) * 1000 + 700,
        3: (DAY_NOON + 61) * 1000, 4: (DAY_NOON + 60) * 1000 + 10}, flags=flags)
    params = AttackParams(kappa=2, alpha_p=0, alpha_d=0)
    got = detect_attack_windows(instance, params)
    assert got == reference_windows(instance, flags, params)
    assert [sorted(e.tweet_ids) for e in got] == [[1, 2]]
    first = got[0]
    assert first.start_ms == DAY_NOON * 1000 + 5
    assert first.end_ms == (DAY_NOON + 60) * 1000 + 700


def _back_to_back_bursts(rng, n_bursts, size, gap, spread, delay, jitter):
    """Bursts every ``gap`` seconds: ``size`` bots each post once within
    ``spread`` seconds of the burst's start and delete within ``jitter``
    seconds of one wave ``delay`` seconds after it, with distinct large ids.
    Windows straddle neighbouring bursts, so a few hundred tweets yield
    hundreds of overlapping maximal clusters."""
    tweets, deletions, flags = [], {}, {}
    tweet_id = 10**18
    for burst in range(n_bursts):
        start = DAY_NOON + burst * gap
        for _ in range(size):
            tweet_id += rng.randint(1, 9)
            created = (start + rng.randint(0, spread)) * 1000 + rng.randint(0, 999)
            tweets.append(Tweet(id=tweet_id, user_id=tweet_id - 10**17, text="",
                                created_ms=created, hashtags=("tag",)))
            deletions[tweet_id] = (start + delay + rng.randint(0, jitter)) * 1000 \
                + rng.randint(0, 999)
            flags[tweet_id] = TweetFlags(is_lexicon=True, is_single_engagement=True)
    return join_instance("#tag", tweets, deletions, flags=flags), flags


@st.composite
def _window_inputs(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        instance, flags = _bursty_instance(rng)
    else:
        instance, flags = _back_to_back_bursts(
            rng, draw(st.integers(1, 8)), draw(st.integers(1, 30)), draw(st.integers(0, 120)),
            draw(st.integers(0, 90)), draw(st.integers(0, 300)), draw(st.integers(0, 150)))
    params = AttackParams(kappa=draw(st.integers(1, 8)), alpha_p=draw(st.integers(0, 600)),
                          alpha_d=draw(st.integers(0, 600)), theta=draw(st.integers(300, 900)))
    return instance, flags, params


@settings(max_examples=300, deadline=None)
@given(inputs=_window_inputs(), merge=st.booleans())
def test_boxes_equal_the_frozenset_sweep(inputs, merge):
    instance, flags, params = inputs
    assert detect_attack_windows(instance, params, merge_overlapping=merge) == \
        oracles.detect_attack_windows(instance, flags, params, merge_overlapping=merge)


def _burst_day():
    """The shape of a heavy attacked trend-day: 360 tweets in 12 bursts
    90 s apart, each tweet deleted 200-320 s after its burst began."""
    return _back_to_back_bursts(random.Random(0), 12, 30, 90, 60, 200, 120)


def test_burst_day_has_hundreds_of_overlapping_clusters():
    instance, flags = _burst_day()
    params = AttackParams()
    events = detect_attack_windows(instance, params)
    assert len(events) > 300
    assert sum(len(e.tweet_ids) for e in events) > 30 * len(instance.tweets)
    for merge in (False, True):
        assert detect_attack_windows(instance, params, merge_overlapping=merge) == \
            oracles.detect_attack_windows(instance, flags, params, merge_overlapping=merge)


def test_working_memory_stays_a_quarter_of_the_returned_clusters():
    """On the burst day, the peak that detect_attack_windows allocates above
    the list it returns stays within a quarter of that list (a frozenset
    per raw run took about 1.5 times the list)."""
    instance, flags = _burst_day()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        events = detect_attack_windows(instance, AttackParams())
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(events) > 300
    returned = after - before
    assert peak - after <= 0.25 * returned


def test_returned_clusters_hold_at_most_40_bytes_a_member():
    """On the burst day, the returned list holds each cluster's tweet ids
    and users as int64 columns: at most 40 B per (event, member) pair,
    the event's own fields included (two frozensets took about 256 B)."""
    instance, flags = _burst_day()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        events = detect_attack_windows(instance, AttackParams())
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    pairs = sum(len(event.tweet_ids) for event in events)
    assert pairs > 30 * len(instance.ids)
    assert after - before <= 40 * pairs
