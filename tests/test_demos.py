"""Each script under ``demos/`` runs to completion and prints something."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SLOW = {"04_edge_family_and_line_graphs.py"}  # about 6 s


def _param(path):
    marks = [pytest.mark.slow] if path.name in SLOW else []
    return pytest.param(path, id=path.stem, marks=marks)


def test_the_slow_demo_exists():
    assert SLOW <= {p.name for p in DEMOS}


@pytest.mark.parametrize("demo", [_param(p) for p in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
