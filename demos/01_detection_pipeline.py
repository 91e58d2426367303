"""End-to-end detection walkthrough on a synthetic archive.

Generates a week of labeled activity (organic trends, background chatter,
and coordinated post-and-delete attacks), thins it to a 1% sample the way a
public archive would, then runs the full pipeline: join tweets to
trend-days, flag lexicon / single-engagement tweets, aggregate features,
classify each trend, and label the participating bot accounts.
"""

from trendguard.classify import flags_for_instance
from trendguard.detector import DetectorConfig, classify_trend, label_astrobots
from trendguard.features import count_features
from trendguard.ingest import build_trend_instances
from trendguard.simulator import ScenarioConfig, build_stream, sample_stream

scenario = ScenarioConfig(
    seed=42,
    n_days=7,
    organic_per_day=8,
    attacked_per_day=3,
    attacks_per_day=12,
    background_per_day=800,
)
labeled = build_stream(scenario)
n_trends = len(labeled.truth)
n_attacked = sum(labeled.truth.values())
print(f"scenario: {n_trends} trend-days over {scenario.n_days} days "
      f"({n_attacked} attacked), {len(labeled.truth_bots)} bot accounts")

# The archive only ever shows a 1% sample, keyed by tweet id; deletions
# survive only when the tweet they refer to does.
events = sample_stream(labeled.events(), scenario.sample_rate, scenario.seed)

# The join flags each tweet for its trend-day as it files it.
instances = build_trend_instances(labeled.trend_days(), events, flagger=flags_for_instance())
print(f"sampled corpus joined into {len(instances)} trend instances")

config = DetectorConfig(preset="lexicon-tree")
attacked = []
hits = misses = false_alarms = 0
for key in sorted(instances):
    instance = instances[key]
    vector = count_features(instance)
    verdict = classify_trend(vector, config, trend=instance.trend)
    if verdict.attacked:
        attacked.append(instance)
    truth = labeled.truth[key]
    if verdict.attacked and truth:
        hits += 1
    elif verdict.attacked:
        false_alarms += 1
    elif truth:
        misses += 1

print(f"\nlexicon-tree verdicts: {hits} hits, {misses} misses, "
      f"{false_alarms} false alarms")

print("\nthe separation the classifier exploits (deleted lexicon tweets per trend):")
for key in sorted(instances)[:8]:
    instance = instances[key]
    vector = count_features(instance)
    marker = "ATTACKED" if labeled.truth[key] else "organic "
    print(f"  {marker} {key[1]:<16} n_deleted_lexicon={vector.n_deleted_lexicon:>3} "
          f"lexicon_deletion_ratio={vector.lexicon_deletion_ratio:.2f}")

bots = label_astrobots(attacked)
known = bots & labeled.truth_bots
print(f"\nastrobot labeling: {len(bots)} accounts flagged, "
      f"{len(known)} of them planted bots "
      f"({len(known) / len(bots):.0%} of flags are confirmed)")
