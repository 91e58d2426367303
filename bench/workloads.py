"""The benchmark's workloads: how each makes its inputs from a seed, which
trendguard commands it times, and how it checks their outputs.

Every workload's inputs are made before timing. A workload's commands write
under one output directory per iteration; `check` returns the problems it
finds, keyed by the name of the command whose output is wrong.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import archive

# Sizes: "full" is the benchmarked size, "smoke" keeps the harness's own
# tests down to seconds. Archive sizes are lines; scenario sizes are
# ScenarioConfig overrides written to a scenario file.
ARCHIVE_LINES = {"full": 80_000, "smoke": 3_000}
SHARDS = 8
SHARDED_JOBS = 2
SCENARIO = {
    # Two days of the default scenario: 40 trend-days, about 87k lines.
    "full": {"n_days": 2},
    # One day at a fifth of the default's trend-days and background.
    "smoke": {"n_days": 1, "organic_per_day": 3, "attacked_per_day": 1,
              "attacks_per_day": 4, "background_per_day": 400},
}


@dataclass
class Command:
    name: str
    argv: list[str]
    outputs: list[Path]


@dataclass
class Inputs:
    seed: int
    lines: int = 0
    trend_days: int = 0
    paths: dict[str, Path] = field(default_factory=dict)


def _read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def _count_rows(path: Path) -> int:
    return len(path.read_text(encoding="utf-8").splitlines()) - 1


def _count_lines(path: Path) -> int:
    with open(path, "rb") as handle:
        return sum(1 for _ in handle)


def _scenario_params(path: Path) -> dict[str, int]:
    values = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return {key: int(values[key]) for key in ("kappa", "alpha_p", "alpha_d", "theta")}


def write_scenario(path: Path, size: str) -> None:
    path.write_text("".join(f"{k} = {v}\n" for k, v in SCENARIO[size].items()), encoding="utf-8")


def _check_archive_verdicts(inputs: Inputs, verdicts_path: Path) -> list[str]:
    verdicts = _read_jsonl(verdicts_path)
    problems = []
    if len(verdicts) != inputs.trend_days:
        problems.append(f"{len(verdicts)} verdicts for {inputs.trend_days} trend-days")
    for verdict in verdicts:
        n_tweets = verdict["features"]["n_tweets"]
        expect_empty = verdict["keyword"] == archive.NGRAM_MISS
        if (n_tweets == 0) != expect_empty:
            problems.append(f"{verdict['keyword']}: n_tweets {n_tweets}")
    return problems


class Workload:
    name = ""

    def prepare(self, work: Path, seed: int, size: str, run) -> Inputs:
        """Make the inputs under `work`; `run` runs an untimed trendguard command."""
        raise NotImplementedError

    def commands(self, inputs: Inputs, out: Path, traced: bool) -> list[Command]:
        raise NotImplementedError

    def after_first(self, inputs: Inputs, out: Path) -> None:
        """Called once the first iteration's commands succeeded."""

    def check(self, inputs: Inputs, out: Path) -> dict[str, list[str]]:
        raise NotImplementedError

    def reference(self, inputs: Inputs, out: Path) -> list[Command]:
        """Commands run once per seed, outside timing, whose outputs must
        equal the timed commands' outputs."""
        return []


class ArchiveSparse(Workload):
    """The real-archive case: about 2 % of lines concern any trend, so two
    full parse passes dominate and flags, windows and graph do almost nothing."""

    name = "archive-sparse"

    def prepare(self, work: Path, seed: int, size: str, run) -> Inputs:
        inputs = Inputs(seed=seed, lines=ARCHIVE_LINES[size])
        inputs.paths["archive"] = work / "archive.jsonl"
        inputs.paths["trends"] = work / "trends.csv"
        archive.write_archive(inputs.paths["archive"], inputs.lines, seed)
        inputs.trend_days = archive.write_trends(inputs.paths["trends"], ngrams=False)
        return inputs

    def commands(self, inputs: Inputs, out: Path, traced: bool) -> list[Command]:
        p = inputs.paths
        return [Command("detect", [
            "detect", "--stream", str(p["archive"]), "--trends", str(p["trends"]),
            "--jobs", "1", "--out", str(out / "verdicts.jsonl"), "--bots-out", str(out / "bots.txt"),
        ], [out / "verdicts.jsonl", out / "bots.txt"])]

    def check(self, inputs: Inputs, out: Path) -> dict[str, list[str]]:
        return {"detect": _check_archive_verdicts(inputs, out / "verdicts.jsonl")}


class ArchiveSharded(ArchiveSparse):
    """The same lines in the shape real archives arrive in: bz2 shards read
    by a process pool, plus n-gram trend-days whose join tokenizes every
    creation."""

    name = "archive-sharded"

    def prepare(self, work: Path, seed: int, size: str, run) -> Inputs:
        inputs = Inputs(seed=seed, lines=ARCHIVE_LINES[size])
        shards = archive.write_shards(work, inputs.lines, seed, SHARDS)
        inputs.paths.update({f"shard{i}": path for i, path in enumerate(shards)})
        inputs.paths["trends"] = work / "trends.csv"
        inputs.trend_days = archive.write_trends(inputs.paths["trends"], ngrams=True)
        return inputs

    def _detect(self, inputs: Inputs, out: Path, jobs: int) -> Command:
        shards = [str(inputs.paths[f"shard{i}"]) for i in range(SHARDS)]
        return Command("detect", [
            "detect", "--stream", *shards, "--trends", str(inputs.paths["trends"]),
            "--jobs", str(jobs), "--out", str(out / "verdicts.jsonl"),
        ], [out / "verdicts.jsonl"])

    def commands(self, inputs: Inputs, out: Path, traced: bool) -> list[Command]:
        # Spans inside pool workers are not collected, so the traced run is serial.
        return [self._detect(inputs, out, 1 if traced else SHARDED_JOBS)]

    def reference(self, inputs: Inputs, out: Path) -> list[Command]:
        # The pooled run's verdicts must equal a serial run's.
        return [self._detect(inputs, out, 1)]


class SimFullrate(Workload):
    """An unsampled simulator archive: most creations belong to a trend, so
    the join, flags, attack windows, metrics and the graph do the work."""

    name = "sim-fullrate"

    def prepare(self, work: Path, seed: int, size: str, run) -> Inputs:
        sim = work / "sim"
        write_scenario(work / "scenario.cfg", size)
        run(["simulate", "--config", str(work / "scenario.cfg"), "--seed", str(seed),
             "--epochs", "--out", str(sim)])
        inputs = Inputs(seed=seed)
        for name in ("stream.jsonl", "trends.csv", "epochs.csv", "scenario.cfg"):
            inputs.paths[name] = sim / name
        inputs.lines = _count_lines(sim / "stream.jsonl")
        inputs.trend_days = _count_rows(sim / "trends.csv")
        return inputs

    def commands(self, inputs: Inputs, out: Path, traced: bool) -> list[Command]:
        p = inputs.paths
        stream = ["--stream", str(p["stream.jsonl"]), "--trends", str(p["trends.csv"])]
        return [
            Command("detect", ["detect", *stream, "--jobs", "1",
                               "--out", str(out / "verdicts.jsonl"),
                               "--bots-out", str(out / "bots.txt"),
                               "--events-out", str(out / "events.jsonl")],
                    [out / "verdicts.jsonl", out / "bots.txt", out / "events.jsonl"]),
            Command("metrics", ["metrics", *stream, "--epochs", str(p["epochs.csv"]),
                                "--verdicts", str(out / "verdicts.jsonl"),
                                "--out", str(out / "metrics")],
                    [out / "metrics"]),
            Command("graph", ["graph", *stream, "--predicate", "undeleted", "--louvain",
                              "--out", str(out / "graph")],
                    [out / "graph"]),
        ]

    def check(self, inputs: Inputs, out: Path) -> dict[str, list[str]]:
        problems = []
        verdicts = _read_jsonl(out / "verdicts.jsonl")
        if len(verdicts) != inputs.trend_days:
            problems.append(f"{len(verdicts)} verdicts for {inputs.trend_days} trend-days")
        params = _scenario_params(inputs.paths["scenario.cfg"])
        events = _read_jsonl(out / "events.jsonl")
        if not events:
            problems.append("no attack clusters")
        for event in events:
            n = len(event["tweet_ids"])
            if n < params["kappa"] or len(event["users"]) != n \
                    or event["creation_window_s"] > params["alpha_p"] \
                    or event["deletion_window_s"] > params["alpha_d"] \
                    or event["max_lifetime_s"] > params["theta"]:
                problems.append(f"cluster breaks the attack model: {event['keyword']} "
                                f"at {event['start_s']}")
        return {"detect": problems}


class SimValidate(Workload):
    """Generate a scenario, then score the detector on its 1 % sample:
    generation and serialization dominate. The only workload that moves
    simulator.*."""

    name = "sim-validate"

    def prepare(self, work: Path, seed: int, size: str, run) -> Inputs:
        inputs = Inputs(seed=seed)
        inputs.paths["scenario"] = work / "scenario.cfg"
        write_scenario(inputs.paths["scenario"], size)
        return inputs

    def commands(self, inputs: Inputs, out: Path, traced: bool) -> list[Command]:
        sim = out / "sim"
        return [
            Command("simulate", ["simulate", "--config", str(inputs.paths["scenario"]),
                                 "--seed", str(inputs.seed), "--epochs", "--out", str(sim)],
                    [sim]),
            Command("evaluate", ["evaluate", "--sim", str(sim), "--preset", "lexicon-tree",
                                 "--out", str(out / "report.json")],
                    [out / "report.json"]),
        ]

    def after_first(self, inputs: Inputs, out: Path) -> None:
        """The archive exists only once simulate ran: take its size from there."""
        inputs.lines = _count_lines(out / "sim" / "stream.jsonl")
        inputs.trend_days = _count_rows(out / "sim" / "trends.csv")

    def check(self, inputs: Inputs, out: Path) -> dict[str, list[str]]:
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        problems = []
        total = report["tp"] + report["fp"] + report["tn"] + report["fn"]
        if total != inputs.trend_days:
            problems.append(f"confusion matrix counts {total} of {inputs.trend_days} trend-days")
        if inputs.seed == 7 and (report["precision"] != 1.0 or report["recall"] < 0.95):
            problems.append(f"seed 7: precision {report['precision']}, recall {report['recall']}")
        return {"evaluate": problems}


WORKLOADS = {w.name: w for w in (ArchiveSparse(), SimFullrate(), SimValidate(), ArchiveSharded())}
