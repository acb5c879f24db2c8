"""``import patil`` loads neither numpy nor any module of the package, and
``import patil.<module>`` loads that module and what it imports, not the
rest: each name has one import path, from its module.  numpy is loaded
only where arrays are used (patil.arrays)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# Run in a fresh interpreter: imports one module, then prints the patil
# modules loaded and whether numpy is.
PROBE = """
import json
import sys

import {module}

print(json.dumps({{"patil": sorted(m for m in sys.modules if m.split(".")[0] == "patil"),
                  "numpy": "numpy" in sys.modules}}))
"""


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def loaded(module, **env):
    """What PROBE reports for ``module`` under the test's environment,
    without any of THREAD_VARS, plus ``env``."""
    env = {**{k: v for k, v in os.environ.items() if k not in THREAD_VARS},
           **env, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", PROBE.format(module=module)],
                          env=env, check=True, capture_output=True, text=True,
                          timeout=120)
    return json.loads(proc.stdout)


@pytest.mark.parametrize("env", [{}, {"OPENBLAS_NUM_THREADS": "2"}])
def test_package_loads_no_numpy_and_no_module(env):
    # whether the user chose a thread count or not
    assert loaded("patil", **env) == {"patil": ["patil"], "numpy": False}


@pytest.mark.parametrize("module", ["patil.cli", "patil.catalog", "patil.quadrature"])
def test_modules_load_no_numpy(module):
    # the CLI imports every module of the package; none imports numpy
    assert loaded(module)["numpy"] is False


def test_module_loads_only_what_it_imports():
    got = loaded("patil.quench")["patil"]
    assert "patil.quench" in got
    for other in ("approximant", "asymptotics", "catalog", "cli"):
        assert f"patil.{other}" not in got
