"""The package runs on the standard library alone: importing the CLI loads
no third-party numerics, and the project declares no runtime dependency.

A command runs only the layers it uses, while `import trendguard.cli` still
registers every layer that bench/trace.py binds its wrappers in. The join's
private parts stay inside trendguard.ingest, a creation event is the Tweet
itself, a date or instant is read by ingest's two readers alone, and no
public name of the package is there for the tests alone."""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from trendguard.cli import main

ROOT = Path(__file__).resolve().parent.parent


def _python(code: str, *args: str) -> str:
    """stdout of ``code`` run in a fresh interpreter that imports from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=env, check=True, timeout=60,
    )
    return result.stdout


def test_cli_import_leaves_numpy_unloaded():
    out = _python("import sys, trendguard.cli; print('numpy' in sys.modules)")
    assert out.strip() == "False"


def _trace_layers() -> dict[str, tuple[str, ...]]:
    """The functions bench/trace.py wraps, by layer."""
    spec = importlib.util.spec_from_file_location("bench_trace", ROOT / "bench" / "trace.py")
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    return trace.LAYERS


# Prints which layers have run: a layer not yet executed is still the lazy
# module subtype, and the type() check does not trigger its load.
_RAN = """
import json, sys, types
import trendguard.cli
layers = json.loads(sys.argv[1])
registered = all(f"trendguard.{name}" in sys.modules for name in layers)
if len(sys.argv) > 2:
    assert trendguard.cli.main(sys.argv[2:]) == 0
ran = [n for n in layers if type(sys.modules[f"trendguard.{n}"]) is types.ModuleType]
print(json.dumps({"registered": registered, "ran": ran}))
"""


def _layers_run(*argv: str) -> dict:
    out = _python(_RAN, json.dumps(list(_trace_layers())), *argv)
    return json.loads(out.splitlines()[-1])  # after what the command printed


def test_cli_import_registers_every_traced_layer_and_runs_only_ingest():
    assert _layers_run() == {"registered": True, "ran": ["ingest"]}


SCENARIO = """
n_days = 1
organic_per_day = 1
attacked_per_day = 1
background_per_day = 20
organic_tweets_min = 10
organic_tweets_max = 12
adoption_tweets_min = 5
adoption_tweets_max = 6
seed = 3
"""


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    (root / "scenario.cfg").write_text(SCENARIO)
    assert main(["simulate", "--config", str(root / "scenario.cfg"), "--epochs",
                 "--out", str(root / "sim")]) == 0
    (root / "verdicts.jsonl").write_text(
        '{"date": "2019-06-18", "keyword": "x", "attacked": false}\n')
    return root


@pytest.mark.parametrize("command, layers", [
    ("ingest", []),
    ("features", ["classify", "features"]),
    ("detect", ["classify", "features", "detector"]),
    ("scan", ["classify", "features", "detector"]),
    ("metrics", ["metrics"]),
    ("graph", ["graph"]),
    ("simulate", ["classify", "features", "detector", "simulator"]),
    ("evaluate", ["classify", "features", "detector", "simulator"]),
    ("graph --louvain", ["classify", "graph"]),
    ("graph --predicate deleted-lexicon", ["classify", "graph"]),
])
def test_a_command_runs_only_the_layers_it_uses(tiny, tmp_path, command, layers):
    sim = tiny / "sim"
    stream, trends = ["--stream", str(sim / "stream.jsonl")], ["--trends", str(sim / "trends.csv")]
    out = ["--out", str(tmp_path / "out")]
    name, *options = command.split()
    argv = {
        "ingest": [*stream, *out],
        "features": [*stream, *trends, *out],
        "detect": [*stream, *trends, *out],
        "scan": [*stream, *out],
        "metrics": [*stream, *trends, "--epochs", str(sim / "epochs.csv"),
                    "--verdicts", str(tiny / "verdicts.jsonl"), *out],
        "graph": [*stream, *trends, *out],
        "simulate": ["--config", str(tiny / "scenario.cfg"), *out],
        "evaluate": ["--sim", str(sim), *out],
    }[name]
    ran = _layers_run(name, *argv, *options)["ran"]
    assert sorted(ran) == sorted(["ingest", *layers])


def test_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["dependencies"] == []


JOIN_PRIVATE = {"_Join", "_instance", "_Notices"}


def test_only_ingest_uses_the_joins_private_names():
    """Every other layer gets trend instances from the join, never builds
    them or attaches deletions itself."""
    found = []
    for path in sorted((ROOT / "src" / "trendguard").glob("*.py")):
        if path.stem == "ingest":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.Name):
                names = {node.id}
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names & JOIN_PRIVATE]
    assert found == []


def test_a_creation_event_is_the_tweet_itself():
    """No module wraps a tweet into an event or unwraps one: none reads a
    ``.tweet`` attribute or calls ``Creation``, which is only the old name
    of Tweet."""
    found = []
    for path in sorted((ROOT / "src" / "trendguard").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "tweet":
                found.append(f"{path.name}:{node.lineno}: .tweet")
            elif isinstance(node, ast.Call) and "Creation" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                found.append(f"{path.name}:{node.lineno}: Creation(...)")
    assert found == []
    ingest = importlib.import_module("trendguard.ingest")
    assert ingest.Creation is ingest.Tweet


# The functions that check a text against the forms every supported Python
# reads alike before they hand it to fromisoformat.
ISO_READERS = {("ingest.py", "parse_date"), ("ingest.py", "_parse_iso_ms")}


def test_only_the_iso_readers_use_fromisoformat():
    """fromisoformat reads more forms from Python 3.11 on than on 3.10, so
    no other function calls it or hands it on."""
    found = []
    for path in sorted((ROOT / "src" / "trendguard").glob("*.py")):
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            if (path.name, getattr(statement, "name", None)) in ISO_READERS:
                continue
            found += [f"{path.name}:{node.lineno}" for node in ast.walk(statement)
                      if isinstance(node, ast.Attribute) and node.attr == "fromisoformat"]
    assert found == []


def _referenced(tree: ast.AST) -> set[str]:
    """The names, attributes and imported names that a syntax tree holds."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def test_every_public_function_and_class_has_a_caller_beside_the_tests():
    """Each public top-level function and class of the package is named in
    src/ outside its own definition, in a demo, or in bench/trace.py,
    whose LAYERS name the functions it wraps."""
    defined, used = [], set()
    for path in sorted((ROOT / "src" / "trendguard").glob("*.py")):
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            names = _referenced(statement)
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.discard(statement.name)
                if not statement.name.startswith("_"):
                    defined.append((path.name, statement.name))
            used |= names
    for path in [*sorted((ROOT / "demos").glob("*.py")), ROOT / "bench" / "trace.py"]:
        used |= _referenced(ast.parse(path.read_text(encoding="utf-8")))
    for names in _trace_layers().values():
        used.update(names)
    assert [f"{module}:{name}" for module, name in defined if name not in used] == []
