"""How successful are the attacks? Rank, speed, prevalence, and volume.

Feeds the toy trending oracle's snapshots back into the success metrics:
attacked trends enter high and fast (their pre-entry activity is the burst
minutes before), their tweets are gone before the keyword ever lists, and
a large share of top-10 entrants are attack-driven.
"""

import io

from trendguard.classify import flags_for_instance
from trendguard.detector import DetectorConfig, classify_trend
from trendguard.features import count_features
from trendguard.ingest import build_trend_instances, load_trend_epochs
from trendguard.metrics import (
    NeverTrended,
    NoPriorTweets,
    daily_average,
    entry_hour_histogram,
    lifecycle,
    pre_entry_deletion_ratio,
    prevalence,
    trend_speed,
    volume_report,
)
from trendguard.simulator import (
    ScenarioConfig,
    build_stream,
    group_stream_by_keyword,
    trend_oracle,
    write_epochs_csv,
)

scenario = ScenarioConfig(
    seed=19,
    n_days=3,
    organic_per_day=10,
    attacked_per_day=3,
    attacks_per_day=9,
    background_per_day=300,
)
labeled = build_stream(scenario)

# Trend-list snapshots come from the toy oracle (mitigation off: today's
# platform), serialized and re-read through the epoch CSV format.
streams = group_stream_by_keyword(labeled.events(), labeled.keywords.values())
ranked = trend_oracle(streams, mitigation=False)
buffer = io.StringIO()
write_epochs_csv(buffer, ranked, labeled.keywords)
buffer.seek(0)
epochs = load_trend_epochs(buffer)
print(f"{len(epochs)} trend-list snapshots, 5 minutes apart")

instances = build_trend_instances(labeled.trend_days(), labeled.events(),
                                  flagger=flags_for_instance())
verdicts = {}
for key, instance in instances.items():
    verdicts[key] = classify_trend(count_features(instance), DetectorConfig()).attacked

rows = []
for key, instance in sorted(instances.items()):
    try:
        cycle = lifecycle(instance.keyword, epochs)
    except NeverTrended:
        continue
    try:
        speed = trend_speed(instance, cycle)
    except NoPriorTweets:
        speed = None
    rows.append((
        "ATTACKED" if verdicts[key] else "organic ",
        instance.keyword.normalized,
        cycle.initial_rank,
        cycle.listed_for_s // 60,
        speed,
        pre_entry_deletion_ratio(instance, cycle),
    ))

print("\nclass     keyword            entry  listed  speed     gone-before-entry")
for label, kw, rank, minutes, speed, ratio in rows[:12]:
    speed_txt = f"{speed // 60:>3} min" if speed is not None else "      -"
    print(f"{label}  {kw:<18} #{rank:<4} {minutes:>4} min {speed_txt}   "
          f"{ratio:>5.0%} of pre-entry tweets deleted")

attacked_speeds = [r[4] for r in rows if r[0].startswith("ATT") and r[4] is not None]
if attacked_speeds:
    import statistics

    print(f"\nattacked trends reach the list {statistics.median(attacked_speeds) / 60:.0f} "
          f"minutes after their burst's median tweet: one list refresh, no "
          f"discussion history. (The toy's organic trends also enter quickly "
          f"because their tweet rate is uniform rather than slowly building.)")

per_day = prevalence(verdicts, epochs, k=10)
print(f"\ndaily share of top-10 entrants that are attacked: "
      f"{daily_average(per_day):.0%} "
      f"({', '.join(f'{d}: {v:.0%}' for d, v in sorted(per_day.items()))})")

cycles = []
for key, instance in instances.items():
    try:
        cycles.append((verdicts[key], lifecycle(instance.keyword, epochs)))
    except NeverTrended:
        pass
attacked_bins = entry_hour_histogram(c for flag, c in cycles if flag)
busiest = max(range(24), key=lambda h: attacked_bins[h])
print(f"attacked trends most often enter the list around {busiest:02d}:00 local")

report = volume_report(instances, verdicts, epochs)
for row in report:
    print(f"{row.label:>8}: {row.n_trends} trends, median undeleted tweets "
          f"{row.median_undeleted}")
