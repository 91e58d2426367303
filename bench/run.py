"""trendguard benchmark: times real `python -m trendguard ...` commands on
seeded inputs and checks their outputs.

    python3 bench/run.py --workload archive-sparse --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from `src/`.
With --trace 0 the last stdout line is a JSON object holding the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of one extra traced
run (see bench/README.md). `--workload all` runs every workload in turn.

Inputs are made from --seed before timing, under `.bench_work/`, and removed
at exit. Each timed command runs in a slim wrapper process that reads the
command's peak RSS from RUSAGE_CHILDREN, so the harness's own memory is not
counted. Iterations repeat while the next one is expected to end within
--seconds; at least one always runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS, Command, Inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"
DEFAULT_SEED = 1234
SETUP_CALLS = 5
# A whole run must end within 180 s; commands are killed past this point.
RUN_BUDGET_S = 170.0
# Share of a traced command's in-process wall that its top-level spans may
# leave unaccounted (CLI glue such as argument parsing and inline loops).
COVERAGE_MARGIN = 0.10

WRAPPER = (
    "import json, resource, subprocess, sys, time\n"
    "t = time.perf_counter()\n"
    "rc = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL).returncode\n"
    "wall = time.perf_counter() - t\n"
    "peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss\n"
    "print(json.dumps({'rc': rc, 'wall_s': wall, 'peak_kb': peak}))\n"
)

WRITERS = ("write_", "save_scenario")


class SetupError(Exception):
    """The benchmark cannot run here (no program to build, or inputs failed)."""


@dataclass
class Result:
    name: str
    rc: int
    wall_s: float = 0.0
    peak_kb: int = 0
    error: str = ""


@dataclass
class Iteration:
    results: list[Result]
    hashes: dict[str, dict[str, str]]
    problems: dict[str, list[str]] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.results)


class Runner:
    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.attempted = 0
        self.failed = 0

    def _spawn(self, name: str, program: list[str]) -> Result:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return Result(name, -1, error="run budget exhausted")
        proc = subprocess.Popen(
            [sys.executable, "-c", WRAPPER, *program], cwd=ROOT, env=self.env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            stdout, stderr = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            return Result(name, -1, error="timed out")
        finally:
            # The wrapper, the command and any pool workers share one process group.
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
        try:
            record = json.loads(stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            return Result(name, proc.returncode or -1, error=stderr[-2000:])
        return Result(name, record["rc"], record["wall_s"], record["peak_kb"],
                      stderr[-2000:] if record["rc"] else "")

    def cli(self, name: str, argv: list[str]) -> Result:
        return self._spawn(name, [sys.executable, "-m", "trendguard", *argv])

    def traced(self, name: str, argv: list[str], spans: Path) -> Result:
        return self._spawn(name, [sys.executable, str(BENCH / "trace.py"), str(spans), "--", *argv])

    def prepare_cli(self, argv: list[str]) -> None:
        """Run an input-making command; it is neither timed nor counted."""
        result = self.cli(argv[0], argv)
        if result.rc != 0:
            raise SetupError(f"making inputs failed: {' '.join(argv)}\n{result.error}")

    def count(self, results: list[Result], problems: dict[str, list[str]]) -> None:
        """A command fails on a non-zero exit or on any problem with its outputs."""
        for result in results:
            self.attempted += 1
            if result.rc != 0 or problems.get(result.name):
                self.failed += 1


def hash_outputs(paths: list[Path]) -> dict[str, str]:
    """sha256 of every output file, keyed by its path below its output root."""
    digests = {}
    for path in paths:
        files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
        for file in files:
            key = file.relative_to(path.parent).as_posix()
            digests[key] = hashlib.sha256(file.read_bytes()).hexdigest() if file.exists() else ""
    return digests


def run_iteration(runner: Runner, out: Path, commands: list[Command],
                  spans_dir: Path | None = None) -> Iteration:
    out.mkdir(parents=True)
    results = []
    for command in commands:
        if spans_dir is None:
            results.append(runner.cli(command.name, command.argv))
        else:
            results.append(runner.traced(command.name, command.argv,
                                         spans_dir / f"{command.name}.json"))
    iteration = Iteration(results, {c.name: hash_outputs(c.outputs) for c in commands})
    for result in results:
        if result.rc != 0:
            iteration.problems.setdefault(result.name, []).append(
                f"exit {result.rc}: {result.error.strip()}")
    return iteration


def check_iteration(workload, inputs: Inputs, out: Path, iteration: Iteration) -> None:
    if any(r.rc != 0 for r in iteration.results):
        return
    try:
        found = workload.check(inputs, out)
    except (OSError, ValueError, KeyError) as exc:
        name = iteration.results[-1].name
        found = {name: [f"unreadable output: {exc!r}"]}
    for name, problems in found.items():
        iteration.problems.setdefault(name, []).extend(problems)


def compare_hashes(iteration: Iteration, expected: dict[str, dict[str, str]], label: str) -> None:
    for name, digests in iteration.hashes.items():
        if name in expected and digests != expected[name]:
            differing = sorted(k for k in digests.keys() | expected[name].keys()
                               if digests.get(k) != expected[name].get(k))
            iteration.problems.setdefault(name, []).append(f"outputs differ from {label}: "
                                                           f"{', '.join(differing)}")


def median(values):
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# Per-layer metrics from the traced run
# ---------------------------------------------------------------------------

def layer_metrics(docs: list[dict], untraced_wall_s: float, traced_wall_s: float):
    """Aggregate the traced commands' spans into the per-layer metrics.

    Also returns, per command, its in-process wall, the part its top-level
    spans leave unaccounted, and its largest self times.
    """
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    items: dict[str, int] = {}
    window_ms: list[float] = []
    counters: dict[str, float] = {}
    pass_two_deletions = 0
    unaccounted = 0.0
    commands = {}
    for doc in docs:
        spans = doc["spans"]
        command_self: dict[str, float] = {}
        for span in spans[1:]:
            name = span["name"]
            command_self[name] = command_self.get(name, 0.0) + span["busy"] - span["child"]
            calls[name] = calls.get(name, 0) + 1
            items[name] = items.get(name, 0) + span["items"]
            if name == "detector.detect_attack_windows":
                window_ms.append(span["busy"] * 1000)
            if name == "ingest.read_stream" and span["parent"] is not None \
                    and spans[span["parent"]]["name"] == "ingest.build_instances_from_files":
                pass_two_deletions += span["deletions"]
        for name, value in command_self.items():
            self_s[name] = self_s.get(name, 0.0) + value
        for key, value in doc["counters"].items():
            counters[key] = counters.get(key, 0) + value
        root = spans[0]
        unaccounted += root["busy"] - root["child"]
        commands[doc["command"]] = {
            "wall_s": root["busy"],
            "unaccounted_s": root["busy"] - root["child"],
            "top": sorted(command_self.items(), key=lambda kv: -kv[1])[:4],
        }

    def busy(name):
        return self_s.get(name, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    lines = counters.get("read_stream.lines", 0)
    window_ms.sort()
    metrics = {
        "ingest.read_stream.busy_s": (busy("ingest.read_stream"), "s"),
        "ingest.read_stream.lines": (lines, "count"),
        "ingest.read_stream.events": (items.get("ingest.read_stream", 0), "count"),
        "ingest.read_stream.us_per_line": (ratio(busy("ingest.read_stream") * 1e6, lines), "us"),
        "ingest.build_trend_instances.busy_s": (busy("ingest.build_trend_instances"), "s"),
        "ingest.join.match_ratio": (ratio(counters.get("join.matched", 0),
                                          counters.get("join.creations", 0)), "ratio"),
        "ingest.attach.busy_s": (busy("ingest.build_instances_from_files"), "s"),
        "ingest.attach.hit_ratio": (ratio(counters.get("attach.attached", 0),
                                          pass_two_deletions), "ratio"),
        "ingest.invalid_deletions": (counters.get("invalid_deletions", 0), "count"),
        "ingest.load_trend_epochs.busy_s": (busy("ingest.load_trend_epochs"), "s"),
        "classify.flags_for_instance.busy_s": (busy("classify.flags_for_instance"), "s"),
        "classify.tweets_flagged": (counters.get("tweets_flagged", 0), "count"),
        "classify.lexicon_frac": (ratio(counters.get("tweets_lexicon", 0),
                                        counters.get("tweets_flagged", 0)), "ratio"),
        "features.count_features.busy_s": (busy("features.count_features"), "s"),
        "detector.attack_candidates.busy_s": (busy("detector.attack_candidates"), "s"),
        "detector.detect_attack_windows.busy_s": (busy("detector.detect_attack_windows"), "s"),
        "detector.detect_attack_windows.calls": (len(window_ms), "count"),
        "detector.detect_attack_windows.p50_ms": (median(window_ms), "ms"),
        "detector.detect_attack_windows.p95_ms": (
            window_ms[min(len(window_ms) - 1, int(0.95 * len(window_ms)))] if window_ms else 0.0,
            "ms"),
        "detector.candidates": (counters.get("candidates", 0), "count"),
        "detector.clusters": (counters.get("clusters", 0), "count"),
        "detector.classify_trend.busy_s": (busy("detector.classify_trend"), "s"),
        "detector.label_astrobots.busy_s": (busy("detector.label_astrobots"), "s"),
        "detector.astrobots": (counters.get("astrobots", 0), "count"),
        "metrics.lifecycle.busy_s": (busy("metrics.lifecycle"), "s"),
        "metrics.lifecycle.calls": (calls.get("metrics.lifecycle", 0), "count"),
        "metrics.trend_speed.busy_s": (busy("metrics.trend_speed"), "s"),
        "metrics.prevalence.busy_s": (busy("metrics.prevalence"), "s"),
        "metrics.volume_report.busy_s": (busy("metrics.volume_report"), "s"),
        "graph.build_graph.busy_s": (busy("graph.build_graph"), "s"),
        "graph.nodes": (counters.get("graph.nodes", 0), "count"),
        "graph.edges": (counters.get("graph.edges", 0), "count"),
        "graph.louvain.busy_s": (busy("graph.louvain"), "s"),
        "graph.louvain.modularity": (counters.get("graph.modularity", 0.0), "Q"),
        "graph.community_summary.busy_s": (busy("graph.community_summary"), "s"),
        "simulator.build_stream.busy_s": (busy("simulator.build_stream"), "s"),
        "simulator.events.busy_s": (busy("simulator.events"), "s"),
        "simulator.events.passes": (calls.get("simulator.events", 0), "count"),
        "simulator.events.count": (items.get("simulator.events", 0), "count"),
        "simulator.write_stream_jsonl.busy_s": (busy("simulator.write_stream_jsonl"), "s"),
        "simulator.group_stream_by_keyword.busy_s": (
            busy("simulator.group_stream_by_keyword"), "s"),
        "simulator.trend_oracle.busy_s": (busy("simulator.trend_oracle"), "s"),
        "simulator.sample_stream.busy_s": (busy("simulator.sample_stream"), "s"),
        "cli.write_outputs.busy_s": (sum(v for k, v in self_s.items()
                                         if k.split(".", 1)[1].startswith(WRITERS)), "s"),
        "cli.unaccounted_s": (unaccounted, "s"),
        "trace.overhead_frac": (ratio(traced_wall_s - untraced_wall_s, untraced_wall_s), "ratio"),
    }
    return metrics, commands


# ---------------------------------------------------------------------------
# One workload run
# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str,
                 update_golden: bool) -> dict:
    workload = WORKLOADS[name]
    started = time.monotonic()
    runner = Runner(started + RUN_BUDGET_S)
    work = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _measure(workload, runner, work, seed, seconds, trace, size, update_golden)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run's inputs are still there
            pass


def _measure(workload, runner: Runner, work: Path, seed: int, seconds: float, trace: bool,
             size: str, update_golden: bool) -> dict:
    inputs = workload.prepare(work, seed, size, runner.prepare_cli)

    # Set-up time: a CLI call that does no data work. One untimed call first
    # writes the bytecode caches, which users do not pay on every run.
    empty = work / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    setup_argv = ["ingest", "--stream", str(empty), "--out", str(work / "empty-stats.json")]
    runner.prepare_cli(setup_argv)
    setup = [runner.cli("setup", setup_argv) for _ in range(SETUP_CALLS)]
    runner.count(setup, {})

    golden = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    golden_key = f"{workload.name}:{size}:{seed}"
    iterations: list[Iteration] = []
    began = time.monotonic()
    while True:
        out = work / f"iter{len(iterations)}"
        iteration = run_iteration(runner, out, workload.commands(inputs, out, traced=False))
        if not iterations and all(r.rc == 0 for r in iteration.results):
            workload.after_first(inputs, out)
        check_iteration(workload, inputs, out, iteration)
        if iterations:
            compare_hashes(iteration, iterations[0].hashes, "the first iteration")
        elif golden_key in golden and not update_golden:
            compare_hashes(iteration, golden[golden_key], "bench/golden.json")
        runner.count(iteration.results, iteration.problems)
        iterations.append(iteration)
        if len(iterations) > 1:
            shutil.rmtree(out, ignore_errors=True)
        elapsed = time.monotonic() - began
        if elapsed * (len(iterations) + 1) / len(iterations) > seconds:
            break
    reference = iterations[0]

    extra: list[tuple[str, Iteration]] = []
    reference_commands = workload.reference(inputs, work / "reference")
    if reference_commands:
        iteration = run_iteration(runner, work / "reference", reference_commands)
        compare_hashes(iteration, reference.hashes, "the pooled run")
        runner.count(iteration.results, iteration.problems)
        extra.append(("serial reference", iteration))

    layer = breakdown = None
    if trace:
        out = work / "traced"
        spans_dir = work / "spans"
        spans_dir.mkdir()
        commands = workload.commands(inputs, out, traced=True)
        iteration = run_iteration(runner, out, commands, spans_dir)
        compare_hashes(iteration, reference.hashes, "the untraced run")
        docs = []
        for command in commands:
            path = spans_dir / f"{command.name}.json"
            if path.exists():
                docs.append(json.loads(path.read_text(encoding="utf-8")))
        # The traced run is serial, so a workload with a serial reference run
        # measures its tracing overhead against that run.
        untraced = extra[0][1].wall_s if extra else median([it.wall_s for it in iterations])
        layer, breakdown = layer_metrics(docs, untraced, iteration.wall_s)
        for name, command in breakdown.items():
            if command["unaccounted_s"] > COVERAGE_MARGIN * command["wall_s"]:
                iteration.problems.setdefault(name, []).append(
                    f"top-level spans leave {command['unaccounted_s']:.3f} s of "
                    f"{command['wall_s']:.3f} s unaccounted (margin {COVERAGE_MARGIN:.0%})")
        runner.count(iteration.results, iteration.problems)
        extra.append(("traced run", iteration))

    if update_golden and runner.failed == 0:
        golden[golden_key] = reference.hashes
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    walls = [it.wall_s for it in iterations]
    per_command: dict[str, list[float]] = {}
    for it in iterations:
        for result in it.results:
            per_command.setdefault(result.name, []).append(result.wall_s)
    end_to_end = {
        "wall_s": (median(walls), "s", walls),
        "lines_per_s": (median([inputs.lines / w for w in walls if w]), "1/s", walls),
        "peak_rss_mb": (median([max(r.peak_kb for r in it.results) / 1024 for it in iterations]),
                        "MB", walls),
        "setup_s": (median([r.wall_s for r in setup]), "s", setup),
    }
    labelled = [(f"iteration {i}", it) for i, it in enumerate(iterations)] + extra
    return {
        "workload": workload.name, "seed": seed, "lines": inputs.lines,
        "end_to_end": end_to_end, "per_command": per_command,
        "layer": layer, "breakdown": breakdown,
        "extra_walls": {label: it.wall_s for label, it in extra},
        "attempted": runner.attempted, "failed": runner.failed,
        "problems": [f"{label}: {cmd}: {p}" for label, it in labelled
                     for cmd, ps in it.problems.items() for p in ps],
    }


def report(run: dict, trace: bool) -> dict:
    """Print the human-readable report and return the result object."""
    print(f"== {run['workload']} seed={run['seed']} archive lines={run['lines']}")
    for name, (value, unit, samples) in run["end_to_end"].items():
        print(f"{name:<40} {value:>14.6g} {unit:<6} median of n={len(samples)}")
    for name, walls in run["per_command"].items():
        print(f"{name + '_s':<40} {median(walls):>14.6g} {'s':<6} median of n={len(walls)}, "
              f"max {max(walls):.6g}")
    for label, wall in run["extra_walls"].items():
        print(f"{label + ' wall_s':<40} {wall:>14.6g} {'s':<6} n=1")
    if run["layer"] is not None:
        for name, (value, unit) in run["layer"].items():
            print(f"{name:<40} {value:>14.6g} {unit:<6} traced run")
        for name, command in run["breakdown"].items():
            top = ", ".join(f"{span} {value:.3f}" for span, value in command["top"])
            print(f"traced {name}: wall {command['wall_s']:.3f} s, unaccounted "
                  f"{command['unaccounted_s']:.3f} s; largest self times (s): {top}")
    print(f"failed {run['failed']} of {run['attempted']} commands")
    for problem in run["problems"]:
        print(f"FAILED {problem}")
    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in run["layer"].items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in run["end_to_end"].items()}
    return {"correct": run["failed"] == 0, "attempted": run["attempted"],
            "failed": run["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--update-golden", action="store_true",
                        help="record this run's output hashes in bench/golden.json")
    args = parser.parse_args(argv)
    # Exit through the `finally` blocks that stop commands and remove inputs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "trendguard" / "cli.py").is_file():
        print(f"bench: no trendguard sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    all_correct = True
    for name in names:
        try:
            run = run_workload(name, args.seed, args.seconds, bool(args.trace), args.size,
                               args.update_golden)
        except SetupError as exc:
            print(f"bench: {name}: {exc}", file=sys.stderr)
            return 2
        result = report(run, bool(args.trace))
        all_correct &= result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if all_correct or args.workload != "all" else 1


if __name__ == "__main__":
    sys.exit(main())
