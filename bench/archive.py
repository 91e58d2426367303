"""Seeded generator for the archive-shaped benchmark inputs.

The line mix is the one of the 1M-line acceptance archive: about 2 % lexicon
tweets carrying one of the target hashtags, about 11 % deletion notices and
background chatter for the rest. At seed 1234 the bytes equal the acceptance
test's archive of the same line count, so numbers stay comparable with it.
"""

from __future__ import annotations

import bz2
import random
from pathlib import Path

KEYWORDS = tuple(f"konu{i}" for i in range(5))
DAY = "2019-06-18"
DAY_SECONDS = 18065 * 86400 - 10800  # local midnight of DAY at UTC+3
LEXICON_TEXT = "kama tepel sobar"
# n-gram trend-days of the sharded workload: the first matches every lexicon
# tweet, the second matches no line, so the n-gram join is exercised both ways.
NGRAM_HIT = "tepel sobar"
NGRAM_MISS = "devam etmiyor"


def archive_lines(n_lines: int, seed: int):
    """Yield the archive's lines, newline-terminated."""
    rng = random.Random(seed)
    deletable = []
    for i in range(n_lines):
        if deletable and rng.random() < 0.18:
            tid, uid, created = deletable.pop()
            ms = (created + rng.randint(30, 400)) * 1000
            yield (
                f'{{"delete":{{"status":{{"id":{tid},"user_id":{uid}}},'
                f'"timestamp_ms":"{ms}"}}}}\n'
            )
            continue
        tid = 10_000_000 + i
        uid = 20_000_000 + i
        created = DAY_SECONDS + rng.randint(0, 86_000)
        if rng.random() < 0.02:
            kw = KEYWORDS[rng.randrange(len(KEYWORDS))]
            text = f"{LEXICON_TEXT} #{kw}"
            deletable.append((tid, uid, created))
        else:
            text = "Arka plan sohbeti devam ediyor burada."
            if rng.random() < 0.1:
                deletable.append((tid, uid, created))
        yield (
            f'{{"id":{tid},"text":"{text}","user":{{"id":{uid}}},'
            f'"timestamp_ms":"{created * 1000}"}}\n'
        )


def write_archive(path: Path, n_lines: int, seed: int) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(archive_lines(n_lines, seed))


def write_shards(directory: Path, n_lines: int, seed: int, n_shards: int) -> list[Path]:
    """Split the archive's lines, in order, into n_shards bz2 files."""
    lines = list(archive_lines(n_lines, seed))
    per_shard = -(-len(lines) // n_shards)
    paths = []
    for index in range(n_shards):
        path = directory / f"shard{index:02d}.jsonl.bz2"
        with bz2.open(path, "wt", encoding="utf-8") as handle:
            handle.writelines(lines[index * per_shard:(index + 1) * per_shard])
        paths.append(path)
    return paths


def write_trends(path: Path, ngrams: bool) -> int:
    """Write the trend list; returns the number of trend-days."""
    keywords = [f"#{kw}" for kw in KEYWORDS]
    if ngrams:
        keywords += [NGRAM_HIT, NGRAM_MISS]
    path.write_text(
        "date,keyword\n" + "".join(f"{DAY},{kw}\n" for kw in keywords), encoding="utf-8"
    )
    return len(keywords)
