"""Metamorphic guard: CLI outputs depend on the archive's events, not on how
the archive is laid out.

The golden scenario's stream is rewritten five ways (lines shuffled, split
into three files passed in reverse order, gzip, bzip2, and every line
re-encoded with ASCII escapes). Each copy must give byte-identical outputs
from `detect`, `features`, `scan`, `metrics` and `graph --louvain`.
"""

import bz2
import gzip
import json
import random

import pytest

from trendguard.cli import main
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
