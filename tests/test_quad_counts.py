"""``tools/quad_counts.py`` runs and counts quadrature work.

Its counts are the record that a change kept the panels the same, so it
runs here as a subprocess, with ``src`` on PYTHONPATH, as it is run by
hand.  Every workload's totals are pinned: the g_lambda u-paths and the
contour identity must keep doing exactly this much work.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
COUNTS = ("calls", "panels", "points")
# calls, panels, points of perfbench's seed-1 experiments
PINNED = {"growth": (1517, 27677, 415155), "converge": (230, 45006, 675090),
          "contour": (3840, 17088, 256320)}


@pytest.fixture(scope="module")
def counts():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "quad_counts.py"),
                           "growth", "converge", "contour", "--seed", "1"],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_contour_counts(counts):
    contour = counts["contour"]
    experiments = {k: v for k, v in contour.items() if k not in COUNTS}
    assert experiments
    for tally in [contour, *experiments.values()]:
        assert all(tally[key] > 0 for key in COUNTS), tally
    assert all(tally["exit"] == 0 for tally in experiments.values())


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_pinned_totals(counts, workload):
    assert tuple(counts[workload][key] for key in COUNTS) == PINNED[workload]
