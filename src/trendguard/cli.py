"""
Command-line surface binding the pipeline stages.

Subcommands: ingest, features, detect, scan, metrics, graph, simulate,
evaluate. Outputs are files (or --stdout where offered); identical inputs
and flags produce byte-identical outputs. Exit codes: 0 success, 1 runtime
error (partial outputs removed), 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import importlib.util
import io
import json
# argparse's gettext imports locale on the first message it translates;
# importing it here pays that once with the other imports, not inside main
# (whose time bench/trace.py splits into spans).
import locale  # noqa: F401
import os
import sys
from contextlib import ExitStack, contextmanager
from dataclasses import asdict, replace
from datetime import date
from pathlib import Path
from typing import Callable, Optional, Sequence

from .core import (
    DEFAULT_LOCALE,
    DEFAULT_TZ_OFFSET,
    DELETED_LEXICON,
    EDGE_PREDICATES,
    PRESETS,
    UNDELETED,
    TrendGuardError,
)
from .ingest import (
    BadRow,
    ParseStats,
    _text_input,
    build_instances_from_files,
    id_line_filter,
    load_trend_days,
    load_trend_epochs,
    parse_date,
    read_stream,
)


def _lazy(name: str):
    """trendguard.<name>, registered in sys.modules but executed only when
    one of its attributes is first read, so a command runs only the layers
    it uses."""
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


classify = _lazy("classify")
features = _lazy("features")
detector = _lazy("detector")
metrics_mod = _lazy("metrics")
graph_mod = _lazy("graph")
sim_mod = _lazy("simulator")


def _int_at_least(minimum: int) -> Callable[[str], int]:
    """An argparse type for an integer of at least ``minimum``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be {minimum} or more, got {value}")
        return value

    return parse


def _add_locale_and_offset(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--locale", default=os.environ.get("TRENDGUARD_LOCALE", DEFAULT_LOCALE),
                        help="locale for case folding (default: tr, env TRENDGUARD_LOCALE)")
    parser.add_argument("--tz-offset", type=int, default=DEFAULT_TZ_OFFSET,
                        help="reporting timezone offset in seconds (default 10800, UTC+3)")


def _add_jobs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=_int_at_least(1), default=os.cpu_count() or 1,
                        help="worker processes for multi-file inputs (results identical)")


def _add_common(parser: argparse.ArgumentParser) -> None:
    _add_locale_and_offset(parser)
    _add_jobs(parser)


def _add_sink(parser: argparse.ArgumentParser, what: str) -> None:
    sink = parser.add_mutually_exclusive_group(required=True)
    sink.add_argument("--out", help=f"{what} path")
    sink.add_argument("--stdout", action="store_true", help=f"print the {what} instead")


def _add_preset(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--preset", default="lexicon-tree", choices=PRESETS)
    parser.add_argument("--threshold", action="append", metavar="RULE=VALUE",
                        help="override a rule threshold, e.g. 9=0.68 (repeatable)")


def _add_params(parser: argparse.ArgumentParser) -> None:
    seconds = _int_at_least(0)
    parser.add_argument("--kappa", type=_int_at_least(1), default=4, help="minimum cluster size")
    parser.add_argument("--alpha-p", type=seconds, default=300, help="creation window seconds")
    parser.add_argument("--alpha-d", type=seconds, default=300, help="deletion window seconds")
    parser.add_argument("--theta", type=seconds, default=600, help="maximum lifetime seconds")


def _params_from(args) -> detector.AttackParams:
    return detector.AttackParams(
        kappa=args.kappa, alpha_p=args.alpha_p, alpha_d=args.alpha_d, theta=args.theta
    )


def _config_from(args) -> detector.DetectorConfig:
    thresholds = {}
    for item in args.threshold or ():
        rule, _, value = item.partition("=")
        if not value:
            raise TrendGuardError(f"--threshold expects RULE=VALUE, got {item!r}")
        thresholds[rule.strip()] = float(value)
    config = detector.DetectorConfig(preset=args.preset, thresholds=thresholds)
    config.resolved_formula()  # rejects an override that would change nothing
    return config


# ---------------------------------------------------------------------------
# One-pass instance building, across files in a process pool with --jobs
# ---------------------------------------------------------------------------

@contextmanager
def _map_fn(jobs: int, n_tasks: int):
    """A process pool's map with min(jobs, tasks, CPUs) workers, or builtin map for one."""
    workers = min(jobs, n_tasks, os.cpu_count() or 1)
    if workers <= 1:
        yield map
    else:
        from concurrent.futures import ProcessPoolExecutor  # not paid by serial runs
        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield pool.map


def _build_instances(paths, trends, locale, tz_offset, jobs, flagged=True):
    """The join of the trend-days, its tweets flagged unless ``flagged`` is False."""
    flagger = classify.flags_for_instance(locale) if flagged else None
    with _map_fn(jobs, len(paths)) as map_fn:
        return build_instances_from_files(trends, paths, locale, tz_offset, map_fn=map_fn,
                                          flagger=flagger)


def _stats_worker(path):
    """The ParseStats of one file, drained from read_stream."""
    stats = ParseStats()
    for _ in read_stream(path, stats=stats):
        pass
    return stats


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

class _Outputs:
    """Tracks files written so a failing run can remove partial outputs."""

    def __init__(self):
        self.paths: list[Path] = []

    def open(self, path, mode="w"):
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        self.paths.append(path)
        if mode == "wb":
            return open(path, "wb")
        return open(path, mode, encoding="utf-8", newline="")

    @contextmanager
    def sink(self, args):
        """stdout under --stdout, else the tracked file --out: UTF-8 text
        with newlines untranslated either way, whatever stdout's encoding."""
        if args.stdout:
            sys.stdout.flush()
            handle = io.TextIOWrapper(sys.stdout.buffer, encoding="utf-8", newline="")
            try:
                yield handle
            finally:
                handle.detach()  # flushed, and stdout left open
        else:
            with self.open(args.out) as handle:
                yield handle

    def cleanup(self):
        for path in self.paths:
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass


def _cmd_ingest(args, out: _Outputs) -> int:
    with _map_fn(args.jobs, len(args.stream)) as map_fn:
        parts = list(map_fn(_stats_worker, args.stream))
    total = ParseStats()
    for part in parts:
        total.add(part)
    record = {
        "files": len(args.stream),
        "lines_read": total.lines_read,
        "creations": total.creations,
        "deletions": total.deletions,
        "malformed_skipped": total.malformed_skipped,
        "other_skipped": total.other_skipped,
        "consistent": total.consistent,
    }
    with out.sink(args) as handle:
        handle.write(json.dumps(record, sort_keys=True, indent=2) + "\n")
    return 0


def _instances_features(args):
    trends = load_trend_days(args.trends, args.locale)
    instances = _build_instances(args.stream, trends, args.locale, args.tz_offset, args.jobs)
    return [(instances[key], features.count_features(instances[key])) for key in sorted(instances)]


def _cmd_features(args, out: _Outputs) -> int:
    rows = _instances_features(args)
    with out.sink(args) as handle:
        features.write_feature_csv(handle, rows)
    return 0


def _cmd_detect(args, out: _Outputs) -> int:
    config = _config_from(args)
    params = _params_from(args)
    rows = _instances_features(args)
    verdicts = []
    attacked = []
    for instance, vector in rows:
        verdict = detector.classify_trend(vector, config, trend=instance.trend)
        verdicts.append(verdict)
        if verdict.attacked:
            attacked.append(instance)
    with out.sink(args) as handle:
        detector.write_verdicts_jsonl(handle, verdicts)

    if args.bots_out:
        bots = detector.label_astrobots(attacked, args.tz_offset)
        with out.open(args.bots_out) as handle:
            detector.write_astrobots(handle, bots)

    if args.events_out:
        with out.open(args.events_out) as handle:
            for instance, _ in rows:
                for event in detector.detect_attack_windows(
                        instance, params, merge_overlapping=args.merge_events):
                    handle.write(json.dumps({
                        "date": instance.trend.date.isoformat(),
                        "keyword": instance.keyword.normalized,
                        "tweet_ids": list(event.tweet_ids),
                        "users": list(event.users),
                        "start_s": event.start_ms // 1000,
                        "end_s": event.end_ms // 1000,
                        "creation_window_s": event.creation_window_s,
                        "deletion_window_s": event.deletion_window_s,
                        "max_lifetime_s": event.max_lifetime_s,
                    }, sort_keys=True) + "\n")
    return 0


def _cmd_scan(args, out: _Outputs) -> int:
    config = _config_from(args)
    known = set()
    if args.trends:
        for trend in load_trend_days(args.trends, args.locale):
            known.add((trend.date, trend.keyword.normalized))
    instances = build_instances_from_files(None, args.stream, args.locale, args.tz_offset,
                                           flagger=classify.flags_for_instance(args.locale))
    verdicts = detector.scan_candidates(instances, known, config, args.min_tweets)
    with out.sink(args) as handle:
        detector.write_verdicts_jsonl(handle, verdicts)
    return 0


def _load_verdict_map(path) -> dict[tuple[date, str], bool]:
    """Whether each (date, keyword) was attacked in a detect verdicts file,
    OR-merged over the records that share the key."""
    mapping: dict[tuple[date, str], bool] = {}
    with _text_input(path) as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, dict) or not {"date", "keyword", "attacked"} <= record.keys():
                    raise ValueError("a verdict record needs date, keyword and attacked")
                if not isinstance(record["keyword"], str) or not isinstance(record["attacked"], bool):
                    raise ValueError("a verdict's keyword must be a string and attacked a boolean")
                key = (parse_date(record["date"]), record["keyword"])
                mapping[key] = mapping.get(key, False) or record["attacked"]
            except (TypeError, ValueError) as exc:
                raise BadRow(f"{path}:{lineno}: {exc}") from exc
    return mapping


def _cmd_metrics(args, out: _Outputs) -> int:
    epochs = load_trend_epochs(args.epochs, args.locale)
    # Lifecycles read one time series: another location's list would read as an exit.
    locations = sorted({epoch.location for epoch in epochs})
    if len(locations) > 1:
        raise TrendGuardError(f"{args.epochs} holds the locations "
                              f"{', '.join(map(repr, locations))}; an epochs file must hold one")
    verdict_map = _load_verdict_map(args.verdicts)
    trends = load_trend_days(args.trends, args.locale)
    instances = _build_instances(args.stream, trends, args.locale, args.tz_offset, args.jobs,
                                 flagged=False)

    out_dir = Path(args.out)
    lifecycles = metrics_mod.trend_day_lifecycles(
        (instance.trend for instance in instances.values()), epochs, args.tz_offset
    )

    with out.open(out_dir / "lifecycles.csv") as handle:
        metrics_mod.write_lifecycles_csv(handle, [lifecycles[k] for k in sorted(lifecycles)])

    with out.open(out_dir / "speed.csv") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["date", "keyword", "speed_s", "pre_entry_deletion_ratio"])
        for key in sorted(lifecycles):
            instance = instances[key]
            cycle = lifecycles[key]
            try:
                speed = metrics_mod.trend_speed(instance, cycle)
            except metrics_mod.NoPriorTweets:
                speed = ""
            ratio = metrics_mod.pre_entry_deletion_ratio(instance, cycle)
            writer.writerow([key[0].isoformat(), key[1], speed, ratio])

    per_day = metrics_mod.prevalence(verdict_map, epochs, k=args.top_k, tz_offset=args.tz_offset)
    with out.open(out_dir / "prevalence.csv") as handle:
        metrics_mod.write_prevalence_csv(handle, per_day)

    bins = metrics_mod.entry_hour_histogram(lifecycles.values(), args.tz_offset)
    with out.open(out_dir / "entry_hours.csv") as handle:
        metrics_mod.write_histogram_csv(handle, bins)

    rows = metrics_mod.volume_report(instances, verdict_map, epochs, args.tz_offset)
    with out.open(out_dir / "volume.csv") as handle:
        metrics_mod.write_volume_csv(handle, rows)
    return 0


def _cmd_graph(args, out: _Outputs) -> int:
    trends = load_trend_days(args.trends, args.locale)
    instances = _build_instances(args.stream, trends, args.locale, args.tz_offset, args.jobs,
                                 flagged=args.louvain or args.predicate == DELETED_LEXICON)
    graph = graph_mod.build_graph(instances, args.predicate)
    if args.single_attack:
        graph = graph_mod.single_attack_filter(graph)
    if args.kcore:
        graph = graph_mod.k_core(graph, args.kcore)

    out_dir = Path(args.out)
    with out.open(out_dir / "edges.csv") as handle:
        graph_mod.write_edge_csv(handle, graph)

    summary = {
        "n_nodes": graph.n_nodes,
        "n_edges": graph.n_edges,
        "n_users": graph.n_nodes - graph.n_trends,
        "n_trends": graph.n_trends,
    }

    if args.louvain and graph.n_nodes:
        partition = graph_mod.louvain(graph, seed=args.seed)
        with out.open(out_dir / "partition.csv") as handle:
            graph_mod.write_partition_csv(handle, partition)
        summary["modularity"] = partition.modularity
        summary["n_communities"] = len(set(partition.communities))

        summaries = graph_mod.community_summary(
            partition, instances, dormancy_s=args.dormancy_days * 86400
        )
        with out.open(out_dir / "communities.csv") as handle:
            handle.write("community,n_users,n_trends,first_seen_s,last_seen_s,n_dormant\n")
            for s in summaries:
                first = "" if s.first_seen_ms is None else s.first_seen_ms // 1000
                last = "" if s.last_seen_ms is None else s.last_seen_ms // 1000
                handle.write(
                    f"{s.community},{s.n_users},{s.n_trends},{first},{last},{len(s.dormant_users)}\n"
                )

    with out.open(out_dir / "summary.json") as handle:
        handle.write(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return 0


def _cmd_simulate(args, out: _Outputs) -> int:
    config = sim_mod.load_scenario(args.config) if args.config else sim_mod.ScenarioConfig()
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    labeled = sim_mod.build_stream(config)

    out_dir = Path(args.out)
    events = labeled.events()
    streams: dict = {}
    if args.epochs:
        # The one generation pass also files each event by keyword.
        events = sim_mod.tee_by_keyword(events, labeled.keywords.values(), streams,
                                        sim_mod.SCENARIO_LOCALE)
    with ExitStack() as stack:
        if args.gzip:
            import gzip  # not paid by plain output
            # mtime pinned so repeated runs are byte-identical; the header
            # names the file without its .gz suffix.
            raw = stack.enter_context(out.open(out_dir / "stream.jsonl.gz", "wb"))
            packed = stack.enter_context(gzip.GzipFile(fileobj=raw, mode="wb", mtime=0))
            handle = stack.enter_context(io.TextIOWrapper(packed, encoding="utf-8"))
        else:
            handle = stack.enter_context(out.open(out_dir / "stream.jsonl"))
        sim_mod.write_stream_jsonl(handle, events)

    with out.open(out_dir / "truth.csv") as handle:
        sim_mod.write_truth_csv(handle, labeled)
    with out.open(out_dir / "trends.csv") as handle:
        sim_mod.write_trends_csv(handle, labeled)
    with out.open(out_dir / "bots.txt") as handle:
        sim_mod.write_bots(handle, labeled)
    with out.open(out_dir / "scenario.cfg") as handle:
        sim_mod.save_scenario(config, handle)
    if args.epochs:
        ranked = sim_mod.trend_oracle(
            streams, epoch_seconds=config.epoch_seconds, mitigation=False
        )
        with out.open(out_dir / "epochs.csv") as handle:
            sim_mod.write_epochs_csv(handle, ranked, labeled.keywords)
    return 0


def _cmd_evaluate(args, out: _Outputs) -> int:
    config = _config_from(args)
    if args.sim is not None:
        report = _evaluate_sim_dir(args, config)
    else:
        scenario = sim_mod.load_scenario(args.config)
        labeled = sim_mod.build_stream(scenario)
        report = sim_mod.evaluate(config, labeled)
    payload = json.dumps(asdict(report), sort_keys=True, indent=2) + "\n"
    sys.stdout.write(payload)
    if args.out:
        with out.open(args.out) as handle:
            handle.write(payload)
    return 0


def _evaluate_sim_dir(args, config: detector.DetectorConfig) -> sim_mod.EvalReport:
    sim_dir = Path(args.sim)
    stream_path = sim_dir / "stream.jsonl"
    if not stream_path.exists():
        stream_path = sim_dir / "stream.jsonl.gz"
    scenario = sim_mod.load_scenario(str(sim_dir / "scenario.cfg"))
    keep = id_line_filter(sim_mod.id_sampler(scenario.sample_rate, scenario.seed))
    return sim_mod.score_stream(
        config,
        scenario,
        read_stream(str(stream_path), keep=keep),
        load_trend_days(str(sim_dir / "trends.csv"), sim_mod.SCENARIO_LOCALE),
        sim_mod.load_truth_csv(str(sim_dir / "truth.csv"), sim_mod.SCENARIO_LOCALE),
    )


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trendguard",
        description="Detect and analyze ephemeral astroturfing attacks on trending topics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse archive files and report stream statistics")
    p.add_argument("--stream", nargs="+", required=True, help="archive file(s), .gz/.bz2 ok")
    _add_sink(p, "stats JSON")
    _add_jobs(p)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("features", help="per-trend feature vectors as CSV")
    p.add_argument("--stream", nargs="+", required=True)
    p.add_argument("--trends", required=True, help="date,keyword CSV")
    _add_sink(p, "features CSV")
    _add_common(p)
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("detect", help="classify trends and optionally label astrobots")
    p.add_argument("--stream", nargs="+", required=True)
    p.add_argument("--trends", required=True)
    _add_preset(p)
    _add_sink(p, "verdicts JSONL")
    p.add_argument("--bots-out", help="write astrobot user ids here")
    p.add_argument("--events-out", help="write per-trend attack events here")
    p.add_argument("--merge-events", action="store_true",
                   help="collapse overlapping clusters into one event per burst "
                        "(merged spans may exceed the per-cluster windows)")
    _add_params(p)
    _add_common(p)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("scan", help="classify non-trending hashtag-days (unsuccessful attacks)")
    p.add_argument("--stream", nargs="+", required=True)
    p.add_argument("--trends", help="known trend-days CSV; candidates trending that day or next are skipped")
    _add_preset(p)
    p.add_argument("--min-tweets", type=_int_at_least(0), default=4)
    _add_sink(p, "verdicts JSONL")
    _add_locale_and_offset(p)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("metrics", help="success metrics against real-time trend epochs")
    p.add_argument("--stream", nargs="+", required=True)
    p.add_argument("--trends", required=True)
    p.add_argument("--epochs", required=True, help="captured_at,location,rank,keyword,volume CSV")
    p.add_argument("--verdicts", required=True, help="verdicts JSONL from detect")
    p.add_argument("--top-k", type=_int_at_least(1), default=10)
    p.add_argument("--out", required=True, help="output directory")
    _add_common(p)
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("graph", help="build and partition the user-trend network")
    p.add_argument("--stream", nargs="+", required=True)
    p.add_argument("--trends", required=True)
    p.add_argument("--predicate", default=UNDELETED, choices=EDGE_PREDICATES)
    p.add_argument("--kcore", type=_int_at_least(0), default=0,
                   help="apply k-core filtering (0: off)")
    p.add_argument("--single-attack", action="store_true",
                   help="drop users linked to a single trend")
    p.add_argument("--louvain", action="store_true", help="run community detection")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dormancy-days", type=_int_at_least(0), default=365)
    p.add_argument("--out", required=True, help="output directory")
    _add_common(p)
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("simulate", help="generate a labeled synthetic archive")
    p.add_argument("--config", help="flat key=value scenario file (default scenario if omitted)")
    p.add_argument("--seed", type=int, help="override the scenario seed")
    p.add_argument("--gzip", action="store_true", help="gzip the stream file")
    p.add_argument("--epochs", action="store_true",
                   help="also write toy trend-list snapshots as epochs.csv")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("evaluate", help="score a detector preset against simulator truth")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--sim", help="directory written by simulate")
    source.add_argument("--config", help="scenario file to regenerate in memory instead of --sim")
    _add_preset(p)
    p.add_argument("--out", help="also write the report JSON here")
    p.set_defaults(func=_cmd_evaluate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    outputs = _Outputs()
    try:
        return args.func(args, outputs)
    except (TrendGuardError, OSError, ValueError) as exc:
        outputs.cleanup()
        print(f"trendguard {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
