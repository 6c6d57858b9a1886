from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import stampset

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
PACKAGE_PARENT = Path(stampset.__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(PACKAGE_PARENT), env.get("PYTHONPATH")))
    )
    completed = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=60
    )
    assert completed.returncode == 0, completed.stderr
