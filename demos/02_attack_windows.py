"""Anatomy of one attack: tweet clusters, windows, lifetimes, entropy.

Builds a single trend instance containing a coordinated post-and-delete
burst buried in organic discussion, then shows how the cluster detector
isolates exactly the burst and how the per-trend features expose it.
"""

import random
from datetime import date

from trendguard.classify import flags_for_instance
from trendguard.core import normalize_keyword
from trendguard.detector import AttackParams, detect_attack_windows
from trendguard.features import count_features
from trendguard.ingest import TrendDay, Tweet, build_trend_instances
from trendguard.simulator import gen_attack, gen_organic_trend, load_wordlist

keyword = normalize_keyword("#SahteGundem", "tr")
wordlist = load_wordlist()
rng = random.Random(7)
params = AttackParams()  # kappa=4, 300s windows, 600s lifetime cap

day_start = 18065 * 86400 - 10800  # 2019-06-18 local midnight (UTC+3)
attack_t0 = day_start + 14 * 3600 + 20
attack = gen_attack(keyword, params, n_bots=40, t0=attack_t0,
                    rng=rng, wordlist=wordlist, creation_span=50, deletion_span=50,
                    deletion_lag=5, tweet_id_start=1, user_id_start=1)
# Adoption follows the attack, as it does for real astroturfed trends.
organic = gen_organic_trend(keyword, n_users=120, span=6 * 3600, rng=rng,
                            wordlist=wordlist, t0=attack_t0 + 900,
                            tweet_id_start=10_000, user_id_start=10_000)

events = attack + organic
trend = TrendDay(date=date(2019, 6, 18), keyword=keyword)
instance = build_trend_instances([trend], events, flagger=flags_for_instance())[
    (trend.date, keyword.normalized)]

sample = next(e.text for e in attack if isinstance(e, Tweet))
planted_bots = {e.user_id for e in attack if isinstance(e, Tweet)}
print(f"a generated attack tweet: {sample!r}")
print(f"instance: {len(instance.ids)} tweets, {len(instance.deletions)} deleted\n")

clusters = detect_attack_windows(instance, params)
print(f"detected {len(clusters)} attack cluster(s):")
for event in clusters:
    print(f"  {len(event.tweet_ids)} tweets by {len(event.users)} users | "
          f"creation span {event.creation_window_s}s | "
          f"deletion span {event.deletion_window_s}s | "
          f"max lifetime {event.max_lifetime_s}s")
    planted = set(event.users) & planted_bots
    print(f"  -> {len(planted)}/{len(event.users)} members are the planted bots")

vector = count_features(instance)
print("\nper-trend features the classifiers consume:")
print(f"  deleted lexicon tweets : {vector.n_deleted_lexicon} "
      f"(ratio {vector.lexicon_deletion_ratio:.2f})")
print(f"  deleted SET tweets     : {vector.n_deleted_set} "
      f"(ratio {vector.set_deletion_ratio:.2f})")
print(f"  initial deletions      : {vector.initial_deletions}")
print(f"  creation/deletion spans: {vector.creation_window_s}s / "
      f"{vector.deletion_window_s}s (whole deleted-lexicon subset; a "
      f"stray organically-deleted lookalike widens what the cluster search "
      f"pinpointed above)")
print(f"  median lifetime        : {vector.lifetime_median_s:.0f}s")
print(f"  deletion entropy       : {vector.entropy_delete:.2f} bits over "
      f"{vector.n_deleted} deletions (coordinated deletions collapse into "
      f"a couple of minutes)")
print(f"  creation entropy       : {vector.entropy_create:.2f} bits over "
      f"{vector.n_tweets} tweets (organic adoption keeps this one high)")
