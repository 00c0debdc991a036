"""The installable package reports the same version as the library."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_setup_py_version_matches_package():
    pytest.importorskip("setuptools")
    completed = subprocess.run(
        [sys.executable, "setup.py", "--version"], cwd=REPO_ROOT,
        capture_output=True, text=True, check=True, timeout=60)
    assert completed.stdout.strip().splitlines()[-1] == repro.__version__
