"""Metamorphic guard: CLI outputs depend on the archive's events, not on how
the archive is laid out.

The golden scenario's stream is rewritten five ways (lines shuffled, split
into three files passed in reverse order, gzip, bzip2, and every line
re-encoded with ASCII escapes). Each copy must give byte-identical outputs
from `detect`, `features`, `scan`, `metrics` and `graph --louvain`.
`evaluate` samples by tweet id, so its report and its sampled events must
not change when lines are shuffled, deletion notices come first (one right
before its own tweet), or the stream is split into files read in turn.
"""

import bz2
import gzip
import json
import random
import shutil
from collections import Counter
from itertools import chain

import pytest

from trendguard import simulator as sim_mod
from trendguard.cli import main
from trendguard.ingest import Creation, id_line_filter, load_trend_days, read_stream
from trendguard.detector import DetectorConfig
from test_golden import SCENARIO


def _write_variant(name, lines, root):
    """The archive paths of one rewritten copy of the stream."""
    text = "".join(lines)
    directory = root / name
    directory.mkdir(parents=True)
    if name == "split":
        third = len(lines) // 3
        parts = [lines[:third], lines[third:2 * third], lines[2 * third:]]
        paths = []
        for i, part in enumerate(parts):
            path = directory / f"part{i}.jsonl"
            path.write_text("".join(part), encoding="utf-8")
            paths.append(path)
        return [str(p) for p in reversed(paths)]
    if name == "gzip":
        path = directory / "stream.jsonl.gz"
        path.write_bytes(gzip.compress(text.encode("utf-8"), mtime=0))
    elif name == "bz2":
        path = directory / "stream.jsonl.bz2"
        path.write_bytes(bz2.compress(text.encode("utf-8")))
    else:
        if name == "shuffled":
            shuffled = list(lines)
            random.Random(17).shuffle(shuffled)
            text = "".join(shuffled)
        elif name == "ascii":
            text = "".join(json.dumps(json.loads(line), ensure_ascii=True) + "\n"
                           for line in lines)
        path = directory / "stream.jsonl"
        path.write_text(text, encoding="utf-8")
    return [str(path)]


def _run_all(streams, sim, out):
    """Every compared command over ``streams``; returns {relative path: bytes}."""
    inputs = ["--stream", *streams, "--trends", str(sim / "trends.csv")]
    common = [*inputs, "--jobs", "1"]
    runs = [
        ["detect", *common, "--out", str(out / "verdicts.jsonl"),
         "--events-out", str(out / "events.jsonl"), "--bots-out", str(out / "bots.txt")],
        ["features", *common, "--out", str(out / "features.csv")],
        ["scan", *inputs, "--out", str(out / "scan.jsonl")],
        ["metrics", *common, "--epochs", str(sim / "epochs.csv"),
         "--verdicts", str(out / "verdicts.jsonl"), "--out", str(out / "metrics")],
        ["graph", *common, "--louvain", "--predicate", "undeleted",
         "--out", str(out / "graph-undeleted")],
        ["graph", *common, "--louvain", "--predicate", "deleted-lexicon",
         "--out", str(out / "graph-deleted-lexicon")],
    ]
    for argv in runs:
        assert main(argv) == 0, argv
    return {
        path.relative_to(out).as_posix(): path.read_bytes()
        for path in sorted(out.rglob("*")) if path.is_file()
    }


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    root = tmp_path_factory.mktemp("metamorphic")
    config = root / "scenario.cfg"
    config.write_text(SCENARIO)
    sim = root / "sim"
    assert main(["simulate", "--config", str(config), "--epochs", "--out", str(sim)]) == 0
    stream = sim / "stream.jsonl"
    lines = stream.read_text(encoding="utf-8").splitlines(keepends=True)
    reference = _run_all([str(stream)], sim, root / "reference")
    return root, sim, lines, reference


def test_reference_covers_every_command(scenario):
    *_, reference = scenario
    assert len(reference) == 18
    assert all(reference.values())


@pytest.mark.parametrize("variant", ["shuffled", "split", "gzip", "bz2", "ascii"])
def test_variant_gives_identical_outputs(scenario, variant):
    root, sim, lines, reference = scenario
    streams = _write_variant(variant, lines, root / "inputs")
    assert _run_all(streams, sim, root / f"out-{variant}") == reference


def _evaluate_variant(name, lines, kept):
    """One rewritten copy of the stream, as the lines of each of its files."""
    if name == "shuffled":
        shuffled = list(lines)
        random.Random(17).shuffle(shuffled)
        return [shuffled]
    deletions = [line for line in lines if line.startswith('{"delete"')]
    if name == "deletions-first":
        return [deletions + [line for line in lines if line not in deletions]]
    if name == "deletion-before-creation":  # a sampled tweet's notice
        notice = next(line for line in deletions if kept(json.loads(line)["delete"]["status"]["id"]))
        tweet_id = json.loads(notice)["delete"]["status"]["id"]
        moved = [line for line in lines if line is not notice]
        at = next(i for i, line in enumerate(moved) if line.startswith('{"created_at"')
                  and json.loads(line)["id"] == tweet_id)
        return [moved[:at] + [notice] + moved[at:]]
    third = len(lines) // 3
    return [lines[:third], lines[third:2 * third], lines[2 * third:]]


def _sample_and_report(paths, sim):
    """The events evaluate samples from ``paths`` read in turn, and its report."""
    scenario = sim_mod.load_scenario(str(sim / "scenario.cfg"))
    keep = id_line_filter(sim_mod.id_sampler(scenario.sample_rate, scenario.seed))
    sampled = list(sim_mod.sample_stream(
        chain.from_iterable(read_stream(str(path), keep=keep) for path in paths),
        scenario.sample_rate, scenario.seed))
    report = sim_mod.score_stream(
        DetectorConfig(), scenario, sampled,
        load_trend_days(str(sim / "trends.csv"), sim_mod.SCENARIO_LOCALE),
        sim_mod.load_truth_csv(str(sim / "truth.csv"), sim_mod.SCENARIO_LOCALE))
    return Counter(sampled), report


@pytest.mark.parametrize("variant", ["shuffled", "deletions-first",
                                     "deletion-before-creation", "split"])
def test_evaluate_samples_by_tweet_id(scenario, variant, tmp_path):
    _, sim, lines, _ = scenario
    stream = sim / "stream.jsonl"
    reference = tmp_path / "reference.json"
    assert main(["evaluate", "--sim", str(sim), "--out", str(reference)]) == 0
    events, report = _sample_and_report([stream], sim)
    assert any(isinstance(event, Creation) for event in events)
    assert len(events) < len(lines) // 10

    config = sim_mod.load_scenario(str(sim / "scenario.cfg"))
    files = _evaluate_variant(variant, lines, sim_mod.id_sampler(config.sample_rate, config.seed))
    paths = []
    for index, part in enumerate(files):
        path = tmp_path / f"part{index}.jsonl"
        path.write_text("".join(part), encoding="utf-8")
        paths.append(path)
    assert _sample_and_report(paths, sim) == (events, report)
    if len(paths) == 1:  # evaluate --sim reads one stream.jsonl
        copy = tmp_path / "sim"
        shutil.copytree(sim, copy, ignore=shutil.ignore_patterns("stream.jsonl"))
        shutil.copy(paths[0], copy / "stream.jsonl")
        out = tmp_path / "report.json"
        assert main(["evaluate", "--sim", str(copy), "--out", str(out)]) == 0
        assert out.read_bytes() == reference.read_bytes()
