"""The benchmark's own tests: its archive generator matches the acceptance
archive, every workload runs and passes its checks at smoke size, and it
refuses to run without the program's sources.

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "tests"), str(ROOT / "src")]

import archive  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_archive_matches_acceptance_generator(tmp_path):
    from test_acceptance import _write_big_archive

    expected = tmp_path / "acceptance.jsonl"
    _write_big_archive(expected, 5_000, list(archive.KEYWORDS), archive.DAY_SECONDS)
    ours = tmp_path / "bench.jsonl"
    archive.write_archive(ours, 5_000, seed=1234)
    assert ours.read_bytes() == expected.read_bytes()


def test_shards_hold_the_archive_lines_in_order(tmp_path):
    import bz2

    paths = archive.write_shards(tmp_path, 1_000, seed=3, n_shards=8)
    assert len(paths) == 8
    joined = "".join(bz2.open(p, "rt", encoding="utf-8").read() for p in paths)
    assert joined == "".join(archive.archive_lines(1_000, seed=3))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_workload_passes_its_checks(workload, trace):
    proc = _run("--workload", workload, "--seed", "1234", "--seconds", "0",
                "--trace", trace, "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {m["name"] for m in declared["per_layer" if trace == "1" else "end_to_end"]}
    assert set(result["metrics"]) == names
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run("--workload", "archive-sparse", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
