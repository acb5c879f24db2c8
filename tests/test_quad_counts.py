"""``tools/quad_counts.py`` runs and counts quadrature work.

Its counts are the record that a change kept the panels the same, so it
runs here as a subprocess, with ``src`` on PYTHONPATH, as it is run by
hand.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COUNTS = ("calls", "panels", "points")


def test_contour_counts():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "quad_counts.py"),
                           "contour", "--seed", "1"],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    contour = json.loads(proc.stdout)["contour"]
    experiments = {k: v for k, v in contour.items() if k not in COUNTS}
    assert experiments
    for tally in [contour, *experiments.values()]:
        assert all(tally[key] > 0 for key in COUNTS), tally
    assert all(tally["exit"] == 0 for tally in experiments.values())
