"""Interest-group and astrobot networks on a constructed campaign corpus.

Two client campaigns each have a loyal audience that posts (and keeps)
tweets across the campaign's trends, while a shared pool of bots seeds every
trend with deleted lexicon tweets. The undeleted bipartite graph recovers
the two audiences as communities; the deleted-lexicon graph exposes the bot
pool; the two networks barely overlap.
"""

import random
from datetime import date

from trendguard.classify import flags_for_instance
from trendguard.core import normalize_keyword
from trendguard.graph import (
    DELETED_LEXICON,
    UNDELETED,
    USER,
    build_graph,
    community_summary,
    k_core,
    louvain,
    network_overlap,
    single_attack_filter,
)
from trendguard.ingest import Deletion, TrendDay, Tweet, build_trend_instances

rng = random.Random(3)
DAY_START = 18065 * 86400 - 10800

CAMPAIGNS = {
    "jobs": [f"#issizlik{i}" for i in range(5)],     # audience 100..139
    "bets": [f"#bahis{i}" for i in range(5)],        # audience 200..239
}
AUDIENCES = {"jobs": range(100, 140), "bets": range(200, 240)}
BOTS = range(900, 930)  # shared astrobot pool; each bot hits many trends

trends = []
events = []
tweet_id = 1
for day_offset, (campaign, keywords) in enumerate(CAMPAIGNS.items()):
    audience = list(AUDIENCES[campaign])
    for j, raw in enumerate(keywords):
        day = date(2019, 6, 18 + day_offset)
        trends.append(TrendDay(date=day, keyword=normalize_keyword(raw, "tr")))
        base = DAY_START + day_offset * 86400 + 10 * 3600 + j * 1800

        # Bots: one deleted lexicon tweet each, a subset per trend.
        for bot in rng.sample(list(BOTS), 18):
            events.append(Tweet(
                id=tweet_id, user_id=bot, text=f"yarım gün oyalanma {raw}",
                created_ms=(base + rng.randint(0, 50)) * 1000,
                hashtags=(raw[1:],),
            ))
            events.append(Deletion(tweet_id=tweet_id, user_id=bot,
                                   time_ms=(base + 90 + rng.randint(0, 40)) * 1000))
            tweet_id += 1
        # Audience: kept tweets from a consistent interest group.
        for member in rng.sample(audience, 25):
            events.append(Tweet(
                id=tweet_id, user_id=member,
                text=f"Kampanyaya destek olalım! {raw}",
                created_ms=(base + 600 + rng.randint(0, 7200)) * 1000,
                hashtags=(raw[1:],),
            ))
            tweet_id += 1

instances = build_trend_instances(trends, events)

flags = {key: flags_for_instance(inst) for key, inst in instances.items()}

print("== interest-group network (undeleted tweets) ==")
interest = build_graph(instances, UNDELETED)
print(f"raw: {interest.n_nodes} nodes / {interest.n_edges} edges")
core = k_core(interest, 4)
print(f"4-core: {core.n_nodes} nodes / {core.n_edges} edges")
partition = louvain(core, seed=0)
n_comm = len(set(partition.assignment.values()))
print(f"louvain: {n_comm} communities, modularity {partition.modularity:.3f}")

for name, audience in AUDIENCES.items():
    labels = {partition.assignment[(USER, u)] for u in audience
              if core.has_node((USER, u))}
    print(f"  {name} audience maps to community ids {sorted(labels)}")

print("\n== astrobot network (deleted lexicon tweets) ==")
astro = build_graph(instances, DELETED_LEXICON, flags)
print(f"raw: {astro.n_nodes} nodes / {astro.n_edges} edges")
filtered = single_attack_filter(astro)
print(f"after dropping one-attack users: {filtered.n_nodes} nodes")
bot_partition = louvain(filtered, seed=0)
print(f"louvain: {len(set(bot_partition.assignment.values()))} communities, "
      f"modularity {bot_partition.modularity:.3f}")

print(f"\nuser overlap between the two networks: "
      f"{network_overlap(core, filtered)} accounts "
      f"(bots push trends, audiences talk; the roles barely mix)")

# Dormancy: bots whose last visible tweet long predates their last attack.
attack_times = {}
for key, instance in instances.items():
    for tweet in instance.tweets:
        if tweet.id in instance.deletions and flags[key][tweet.id].is_lexicon:
            attack_times.setdefault(tweet.user_id, []).append(tweet.created_ms)
summaries = community_summary(bot_partition, instances, attack_times,
                              dormancy_s=365 * 86400)
for summary in summaries:
    print(f"community {summary.community}: {summary.n_users} bots over "
          f"{summary.n_trends} trends, {len(summary.dormant_users)} dormant")
