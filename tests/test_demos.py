"""Smoke test: demos 01-06 run to completion against the current API.

Demos that write files put them under ``demo_out/`` relative to the
working directory, so every run gets its own temporary directory.
Demo 07 trains a full model and is not part of this smoke test.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p for p in (ROOT / "demos").glob("0[1-6]_*.py"))


def test_all_six_demos_found():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04", "05", "06"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
