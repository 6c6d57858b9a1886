from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, package_env):
    completed = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=package_env, timeout=60
    )
    assert completed.returncode == 0, completed.stderr
