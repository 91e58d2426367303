"""Run one trendguard CLI command in-process with timing wrappers bound over
the public functions at each module boundary, and write the spans as JSON.

    python3 bench/trace.py SPANS.json -- detect --stream a.jsonl ...

The wrappers replace each listed function in its defining module and in
every trendguard module that imported it by name, so the CLI's own glue runs
unchanged. Iterators (read_stream, sample_stream, LabeledStream.events) are
timed per next(), which separates parsing and generation from the code that
consumes them. Per-tweet helpers are not wrapped: their cost, and that of
trendguard.core, lands in the self time of the caller.

A span records name, start, end, parent and run id, plus `busy` (time inside
it) and `child` (time inside spans nested in it); self time is busy - child.
"""

from __future__ import annotations

import json
import os
import sys
from collections import defaultdict
from time import perf_counter

# Stage-boundary functions per layer. Writers are summed into
# cli.write_outputs by the runner.
LAYERS = {
    "ingest": ("read_stream", "build_trend_instances", "build_instances_from_files",
               "load_trend_days", "load_trend_epochs"),
    "classify": ("flags_for_instance",),
    "features": ("count_features", "write_feature_csv"),
    "detector": ("attack_candidates", "detect_attack_windows", "classify_trend",
                 "label_astrobots", "write_verdicts_jsonl", "write_astrobots"),
    "metrics": ("lifecycle", "trend_speed", "pre_entry_deletion_ratio", "prevalence",
                "entry_hour_histogram", "volume_report", "write_lifecycles_csv",
                "write_prevalence_csv", "write_histogram_csv", "write_volume_csv"),
    "graph": ("build_graph", "louvain", "community_summary", "write_edge_csv",
              "write_partition_csv"),
    "simulator": ("build_stream", "sample_stream", "group_stream_by_keyword", "trend_oracle",
                  "write_stream_jsonl", "write_truth_csv", "write_trends_csv", "write_bots",
                  "write_epochs_csv", "save_scenario", "load_scenario", "load_truth_csv"),
}
ITERATORS = {"ingest.read_stream", "simulator.sample_stream"}


class Span:
    __slots__ = ("sid", "name", "parent", "start", "end", "busy", "child", "items", "deletions")

    def __init__(self, sid, name, parent):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.start = self.end = None
        self.busy = self.child = 0.0
        self.items = self.deletions = 0

    def as_dict(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.parse_stats: dict[int, object] = {}

    def open(self, name: str) -> Span:
        span = Span(len(self.spans), name, self.stack[-1].sid if self.stack else None)
        self.spans.append(span)
        return span

    def _close(self, span: Span, began: float) -> None:
        ended = perf_counter()
        self.stack.pop()
        span.busy += ended - began
        if span.start is None:
            span.start = began
        span.end = ended
        if self.stack:
            self.stack[-1].child += ended - began

    def call(self, span: Span, fn, args, kwargs):
        self.stack.append(span)
        began = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span, began)

    def parent_name(self, span: Span):
        return None if span.parent is None else self.spans[span.parent].name


class TimedIterator:
    """Times each next() of an iterator as busy time of one span."""

    def __init__(self, tracer: Tracer, span: Span, iterator, deletion_type=None):
        self._tracer = tracer
        self._span = span
        self._it = iterator
        self._deletion_type = deletion_type

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        tracer.stack.append(self._span)
        began = perf_counter()
        try:
            item = next(self._it)
        finally:
            tracer._close(self._span, began)
        self._span.items += 1
        if type(item) is self._deletion_type:
            self._span.deletions += 1
        return item

    def close(self):
        close = getattr(self._it, "close", None)
        if close is not None:
            close()


def _observe(tracer: Tracer, span: Span, result) -> None:
    """Counts taken from return values at the stage boundaries."""
    name, counters = span.name, tracer.counters
    if name == "ingest.build_trend_instances":
        counters["join.matched"] += len({t.id for inst in result.values() for t in inst.tweets})
        if tracer.parent_name(span) != "ingest.build_instances_from_files":
            counters["invalid_deletions"] += sum(i.invalid_deletions for i in result.values())
    elif name == "ingest.build_instances_from_files":
        invalid = sum(i.invalid_deletions for i in result.values())
        counters["invalid_deletions"] += invalid
        attached = {tid for inst in result.values() for tid in inst.deletions}
        counters["attach.attached"] += len(attached) + invalid
    elif name == "classify.flags_for_instance":
        counters["tweets_flagged"] += len(result)
        counters["tweets_lexicon"] += sum(1 for f in result.values() if f.is_lexicon)
    elif name == "detector.attack_candidates":
        counters["candidates"] += len(result)
    elif name == "detector.detect_attack_windows":
        counters["clusters"] += len(result)
    elif name == "detector.label_astrobots":
        counters["astrobots"] += len(result)
    elif name == "graph.build_graph":
        counters["graph.nodes"] += result.n_nodes
        counters["graph.edges"] += result.n_edges
    elif name == "graph.louvain":
        counters["graph.modularity"] = result.modularity


def _counting_creations(tracer: Tracer, events, creation_type):
    count = 0
    try:
        for event in events:
            if type(event) is creation_type:
                count += 1
            yield event
    finally:
        tracer.counters["join.creations"] += count


def _wrap(tracer: Tracer, name: str, fn, ingest):
    if name in ITERATORS:
        deletion_type = ingest.Deletion if name == "ingest.read_stream" else None

        def iterator_wrapper(*args, **kwargs):
            if name == "ingest.read_stream":
                # Count lines through the function's own ParseStats.
                if len(args) < 3 and kwargs.get("stats") is None:
                    kwargs["stats"] = ingest.ParseStats()
                stats = args[2] if len(args) >= 3 else kwargs["stats"]
                tracer.parse_stats[id(stats)] = stats
            return TimedIterator(tracer, tracer.open(name), fn(*args, **kwargs), deletion_type)

        return iterator_wrapper

    def wrapper(*args, **kwargs):
        if name == "ingest.build_trend_instances":
            if len(args) >= 2:
                args = (args[0], _counting_creations(tracer, args[1], ingest.Creation)) + args[2:]
            else:
                kwargs["events"] = _counting_creations(tracer, kwargs["events"], ingest.Creation)
        span = tracer.open(name)
        result = tracer.call(span, fn, args, kwargs)
        _observe(tracer, span, result)
        return result

    return wrapper


def install(tracer: Tracer) -> None:
    """Bind the timing wrappers over the listed functions everywhere they are named."""
    import trendguard.cli  # noqa: F401  (imports every layer)

    modules = [m for key, m in sys.modules.items()
               if m is not None and (key == "trendguard" or key.startswith("trendguard."))]
    ingest = sys.modules["trendguard.ingest"]
    for layer, names in LAYERS.items():
        module = sys.modules[f"trendguard.{layer}"]
        for fname in names:
            original = getattr(module, fname)
            wrapped = _wrap(tracer, f"{layer}.{fname}", original, ingest)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)

    simulator = sys.modules["trendguard.simulator"]
    events = simulator.LabeledStream.events

    def timed_events(self):
        return TimedIterator(tracer, tracer.open("simulator.events"), events(self))

    simulator.LabeledStream.events = timed_events


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: trace.py SPANS.json -- COMMAND [ARGS...]", file=sys.stderr)
        return 2
    out_path, cli_argv = argv[0], argv[2:]
    tracer = Tracer()
    install(tracer)
    from trendguard.cli import main as cli_main

    root = tracer.open(f"cli.{cli_argv[0]}")
    rc = tracer.call(root, cli_main, (cli_argv,), {})
    counters = dict(tracer.counters)
    counters["read_stream.lines"] = sum(s.lines_read for s in tracer.parse_stats.values())
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({
            "command": cli_argv[0],
            "run": os.getpid(),
            "rc": rc,
            "spans": [span.as_dict() for span in tracer.spans],
            "counters": counters,
        }, handle)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
