"""Smoke test for the example scripts.

Every ``examples/*.py`` that is not doctest-backed (those run in
``tests/test_doctests.py``) must run to completion as a script, the way
the README tells users to run it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_doctests import DOCTESTED_EXAMPLES

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted(p.name for p in (REPO_ROOT / "examples").glob("*.py")
                 if p.name not in DOCTESTED_EXAMPLES)


@pytest.mark.parametrize("filename", SCRIPTS)
def test_example_runs(filename, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "examples" / filename)],
        cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=300)
    assert result.returncode == 0, \
        f"examples/{filename} exited {result.returncode}:\n{result.stderr}"
