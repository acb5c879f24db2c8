"""``tools/quad_counts.py`` runs and counts quadrature work.

Its counts are the record that a change kept the panels and points the
same, so it runs here as a subprocess, with ``src`` on PYTHONPATH, as it
is run by hand.  Every workload's totals are pinned: growth and converge
take the residue path for every (point, lambda) cell, with no G7/K15
panel, and the contour identity's G7/K15 panels must
keep doing exactly this much work.  The residue terms are built once per
point (or contour alpha) and memo key, a saving no end-to-end metric
shows, so their builds are pinned too.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
COUNTS = ("calls", "panels", "points", "residue_cells", "term_builds")
GK15 = COUNTS[:3]
# G7/K15 calls, panels, points, residue-path cells and residue term builds
# of perfbench's seed-1 experiments: growth's 572 rows, converge's
# (4 + 101) x 8 + (1 + 101) x 3 points and lambdas
PINNED = {"growth": (0, 0, 0, 572, 36), "converge": (0, 0, 0, 1146, 207),
          "contour": (280, 17088, 256320, 0, 49)}


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
        assert all(tally[key] > 0 for key in GK15), tally
    assert all(tally["exit"] == 0 for tally in experiments.values())


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_pinned_totals(counts, workload):
    assert tuple(counts[workload][key] for key in COUNTS) == PINNED[workload]
