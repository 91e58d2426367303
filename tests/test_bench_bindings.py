"""Every stage name the traced benchmark binds still resolves in trendguard.

bench/trace.py looks each name up with getattr when it installs its timing
wrappers, so a renamed or deleted stage would otherwise surface only when
the benchmark runs.
"""

import importlib
import importlib.util
import inspect
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
