"""Each demo prints exactly what it printed when these hashes were recorded.

The demos drive the library API end to end (simulator, join, flags,
features, detector, windows, graph, metrics), so a refactor that changes a
number any of them prints fails here. Re-record a hash only for a
deliberate, documented output change.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMO_SHA256 = {
    "01_detection_pipeline.py":
        "1e9fe44fa0b6295114ce56e51335ebaa66555540c565de719060d8526b9f787b",
    "02_attack_windows.py":
        "3a32e75beb35255f9950c2ad6179d203bf552b113db7762eb259594966253875",
    "03_network_analysis.py":
        "b710393a4b509647123fa81faa219df68a3373bfe817dc3be9cfab502ba99a9c",
    "04_countermeasure.py":
        "af1c8fd52710a180723c24f79ba24c9a8b542e5efa7866aa4f95f9ce0a855739",
    "05_success_metrics.py":
        "971c1d4bac0b3f6096573fee0684fe3757d64c029c5c8998f2f7ca553f65a79d",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_SHA256)


@pytest.mark.parametrize("name", sorted(DEMO_SHA256))
def test_demo_stdout_matches_hash(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, env=env, check=True, timeout=300,
    )
    assert hashlib.sha256(result.stdout).hexdigest() == DEMO_SHA256[name]
