"""``import patil`` loads neither numpy nor any module of the package, and
``import patil.<module>`` loads that module and what it imports, not the
rest: each name has one import path, from its module.  No function of
patil loads numpy: it computes in plain Python."""

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


# Run in a fresh interpreter: the u- and t-paths of g_lambda, the
# quadrature functions and the helpers that once took arrays, on numbers.
CALLS = """
import math
import sys

from patil.approximant import approximant_table
from patil.asymptotics import kernel_k, residue_merged
from patil.catalog import example2
from patil.quadrature import (DecayCertificate, integrate_adaptive,
                              integrate_real_line, pv_integrate)
from patil.quench import Interval, QuenchParams, phase_G

iv = Interval(-1.0, 1.0)
signal = example2().signal
approximant_table([0.5 + 1j, 2.0, 0.3], [10.0], iv, signal, method="u")
approximant_table([0.5 + 1j], [10.0], iv, signal, method="t")
integrate_adaptive(lambda t: 1j * t * t, 0.0, 1.0)
pv_integrate(lambda t: 1.0 + t, -1.0, 1.0, 0.3)
integrate_real_line(lambda u: 1.0 / (1.0 + u * u) ** 8, DecayCertificate(0.5, 1.0))
kernel_k(0.3 + 0.2j, 0.7, 2.0)
residue_merged(1j * math.pi, 1.0, 2.0, signal.strip_pullback)
phase_G(2.0, QuenchParams(10.0), iv)
iv.from_u(0.5)
iv.from_u(0.5 + 0.25j)
print("numpy" in sys.modules)
"""


def test_no_function_loads_numpy():
    proc = subprocess.run([sys.executable, "-c", CALLS],
                          env={**os.environ, "PYTHONPATH": str(SRC)}, check=True,
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout == "False\n"


def test_module_loads_only_what_it_imports():
    got = loaded("patil.quench")["patil"]
    assert "patil.quench" in got
    for other in ("approximant", "asymptotics", "catalog", "cli"):
        assert f"patil.{other}" not in got
