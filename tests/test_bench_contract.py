"""The benchmark's hooks still find the names they patch and read.

``perfbench/tracing.py`` wraps functions where their callers look them
up (``patil.cli.approximant_boundary``, ``patil.approximant.phase_G``,
...) and ``perfbench/setup_probe.py`` reads ``cfg.entry_name``.  Both
run here as subprocesses on the golden configs, with ``src`` on
PYTHONPATH, as the benchmark runs them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"


def run(script, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(ROOT / "perfbench" / script),
                           *map(str, args)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("name", ["growth_example2", "converge_h2pole",
                                  "contour_example1"])
def test_tracing_runs(tmp_path, name):
    trace = tmp_path / "trace.json"
    proc = run("tracing.py", trace, name.split("_")[0],
               "--config", GOLDEN / f"{name}.json",
               "--out", tmp_path / "out.csv", "--reproducible")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(trace.read_text())["spans"]


def test_setup_probe_runs():
    proc = run("setup_probe.py", *sorted(GOLDEN.glob("*.json")))
    assert proc.returncode == 0, proc.stderr
