"""Run with ``python3 -m pytest perfbench/tests`` from the repository root."""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)


@pytest.fixture(autouse=True)
def report_dir(tmp_path, monkeypatch):
    """Reports, span logs and networked run directories go to a per-test directory."""
    from perfbench import harness

    monkeypatch.setattr(harness, "OUT_DIR", str(tmp_path))
    return tmp_path
