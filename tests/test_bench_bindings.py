"""Every stage name the traced benchmark binds still resolves in trendguard.

bench/trace.py looks each name up with getattr when it installs its timing
wrappers, so a renamed or deleted stage would otherwise surface only when
the benchmark runs.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_trace():
    spec = importlib.util.spec_from_file_location("bench_trace", ROOT / "bench" / "trace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_stage_resolves():
    trace = _load_trace()
    missing = [
        f"{layer}.{name}"
        for layer, names in trace.LAYERS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"trendguard.{layer}"), name, None))
    ]
    assert missing == []
    traced = {f"{layer}.{name}" for layer, names in trace.LAYERS.items() for name in names}
    assert trace.ITERATORS <= traced


def test_other_names_the_tracer_reads_resolve():
    ingest = importlib.import_module("trendguard.ingest")
    simulator = importlib.import_module("trendguard.simulator")
    for name in ("Creation", "Deletion", "ParseStats"):
        assert callable(getattr(ingest, name, None)), name
    # The read_stream wrapper counts lines through a ParseStats it passes as stats=.
    assert "stats" in inspect.signature(ingest.read_stream).parameters
    assert callable(getattr(simulator.LabeledStream, "events", None))


def test_archives_are_read_through_the_bound_read_stream(tmp_path, monkeypatch):
    """bench/trace.py times archive reads by rebinding each module attribute
    that is ingest.read_stream; the file join and the `ingest` command's
    per-file counts must read every file through it, or the traced read
    spans stay empty."""
    ingest = importlib.import_module("trendguard.ingest")
    cli = importlib.import_module("trendguard.cli")
    real = ingest.read_stream
    reads = []

    def counting_read_stream(source, *args, **kwargs):
        reads.append(source)
        return real(source, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "trendguard" or name.startswith("trendguard."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, counting_read_stream)
    paths = []
    for i in range(2):
        path = tmp_path / f"part{i}.jsonl"
        path.write_text('{"id": %d, "user": {"id": 2}, "text": "#a b", "timestamp_ms": "0"}\n'
                        '{"delete": {"status": {"id": 1, "user_id": 2}, "timestamp_ms": "5"}}\n'
                        % (i + 1))
        paths.append(str(path))

    instances = ingest.build_instances_from_files(None, paths)
    assert reads == paths
    assert [len(instance.ids) for instance in instances.values()] == [2]
    reads.clear()
    assert [cli._stats_worker(path).lines_read for path in paths] == [2, 2]
    assert reads == paths
