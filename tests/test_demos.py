"""The scripts under demos/ run to completion against the current package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["bundle_sweep", "equilibrium_basics", "modular_tour",
                                  "smoothing_and_cocycles"])
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
