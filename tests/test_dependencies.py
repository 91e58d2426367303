"""The package runs on the standard library alone: importing the CLI loads
no third-party numerics, and the project declares no runtime dependency."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_cli_import_leaves_numpy_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, "-c", "import sys, trendguard.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True, timeout=60,
    )
    assert result.stdout.strip() == "False"


def test_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["dependencies"] == []
