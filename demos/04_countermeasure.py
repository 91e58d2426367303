"""The deletion-penalty countermeasure against a toy trending algorithm.

The toy oracle ranks keywords every five minutes by distinct posting users
in a trailing window; that is exactly what a post-and-delete burst games.
Penalizing each deletion inside the window (weight 2) makes the burst score
itself out of the list the moment the deletions land, while organic trends,
whose deletions are rare and scattered, keep their slots.
"""

from trendguard.simulator import (
    ScenarioConfig,
    build_stream,
    group_stream_by_keyword,
    trend_oracle,
)

scenario = ScenarioConfig(
    seed=5,
    n_days=3,
    organic_per_day=10,
    attacked_per_day=3,
    attacks_per_day=9,
    background_per_day=500,
)
labeled = build_stream(scenario)
streams = group_stream_by_keyword(labeled.events(), labeled.keywords.values())

epochs_off = trend_oracle(streams, mitigation=False)
epochs_on = trend_oracle(streams, mitigation=True)


def attack_entered(epochs, wave, horizon=600):
    t0 = wave.t0_ms // 1000
    return any(t0 < ms // 1000 <= t0 + horizon and wave.keyword in top
               for ms, top in epochs)


waves = labeled.truth_attacks
off = sum(attack_entered(epochs_off, w) for w in waves)
on = sum(attack_entered(epochs_on, w) for w in waves)
print(f"{len(waves)} attack waves against the toy trending algorithm")
print(f"  without mitigation: {off}/{len(waves)} reach the top 10 "
      f"within two refreshes")
print(f"  with mitigation   : {on}/{len(waves)} do")

organic = sorted(kw for (day, kw), attacked in labeled.truth.items() if not attacked)
off_entered = {kw for kw in organic if any(kw in top for _, top in epochs_off)}
on_entered = {kw for kw in off_entered if any(kw in top for _, top in epochs_on)}
print(f"\norganic trends reaching the top 10: {len(off_entered)} without "
      f"mitigation, {len(on_entered)} of those still there with it")

# A closer look at one attacked keyword's score trajectory.
wave = waves[0]
print(f"\nscore trajectory for {wave.keyword!r} (wave at t0={wave.t0_ms // 1000}):")
for (ms_off, top_off), (_, top_on) in zip(epochs_off, epochs_on):
    delta = (ms_off - wave.t0_ms) // 1000
    if -300 <= delta <= 1200:
        place_off = top_off.index(wave.keyword) + 1 if wave.keyword in top_off else "-"
        place_on = top_on.index(wave.keyword) + 1 if wave.keyword in top_on else "-"
        print(f"  t0{delta:+5d}s  rank without mitigation: {place_off:>2}   "
              f"with: {place_on:>2}")
