"""
trendguard: detection and analysis of ephemeral astroturfing attacks on
trending-topic systems.

The pipeline: parse archived tweet streams (`ingest`), flag generated and
single-engagement tweets (`classify`), aggregate per-trend behavior
(`features`), decide which trends were attacked and by which tweet clusters
(`detector`), quantify attack success against trend snapshots (`metrics`),
analyze the attacker/client networks (`graph`), and validate everything
against labeled synthetic streams (`simulator`).
"""

from .core import (
    DEFAULT_LOCALE,
    DEFAULT_TZ_OFFSET,
    GeoPoint,
    Keyword,
    TrendGuardError,
    haversine_km,
    normalize_keyword,
)
from .ingest import (
    Creation,
    Deletion,
    ParseStats,
    Skip,
    TrendDay,
    TrendEpoch,
    TrendInstance,
    Tweet,
    build_trend_instance,
    build_trend_instances,
    load_trend_days,
    load_trend_epochs,
    match_keyword,
    parse_stream_line,
    read_stream,
)
from .classify import (
    TweetFlags,
    compute_flags,
    flags_for_instance,
    is_lexicon_tweet,
    is_single_engagement,
    lexicon_stats,
    strip_keyword_and_emoji,
)
from .features import (
    FeatureVector,
    attack_windows,
    count_features,
    initial_deletions,
    lifetime_stats,
    minute_entropy,
)
from .detector import (
    AttackEvent,
    AttackParams,
    DetectorConfig,
    Verdict,
    classify_trend,
    detect_attack_windows,
    label_astrobots,
    scan_candidates,
)
from .metrics import (
    TrendLifecycle,
    entry_hour_histogram,
    lifecycle,
    pre_entry_deletion_ratio,
    prevalence,
    trend_speed,
    user_travel_distance,
    volume_report,
)
from .graph import (
    Graph,
    Partition,
    build_graph,
    community_summary,
    k_core,
    louvain,
    modularity,
    single_attack_filter,
)
from .simulator import (
    EvalReport,
    LabeledStream,
    ScenarioConfig,
    build_stream,
    default_scenario,
    evaluate,
    gen_attack,
    gen_lexicon_text,
    gen_organic_trend,
    load_wordlist,
    sample_stream,
    trend_oracle,
)

__version__ = "0.1.0"
