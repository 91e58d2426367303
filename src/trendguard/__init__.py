"""
trendguard: detection and analysis of ephemeral astroturfing attacks on
trending-topic systems.

The pipeline: parse archived tweet streams (`ingest`), flag generated and
single-engagement tweets (`classify`), aggregate per-trend behavior
(`features`), decide which trends were attacked and by which tweet clusters
(`detector`), quantify attack success against trend snapshots (`metrics`),
analyze the attacker/client networks (`graph`), and validate everything
against labeled synthetic streams (`simulator`).

The package root re-exports nothing: import from the modules, for example
``from trendguard.detector import DetectorConfig``.
"""
