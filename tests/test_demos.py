"""Smoke test of the narrative scripts in demos/: each runs to exit 0.

Demo 04 is left out: it runs two repetitions of the unbalanced protocol,
which criterion 7 already runs ten times.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("script", [
    "01_autodiff_and_losses.py",
    "02_train_synthetic.py",
    "03_distill_mild_views.py",
    "05_temperature_sweep.py",
])
def test_demo_runs(script):
    paths = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    done = subprocess.run([sys.executable, os.path.join(ROOT, "demos", script)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip()
