"""patil loads numpy, and with it OpenBLAS, with one thread, unless the
user chose a count, and leaves the environment as it found it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# Run in a fresh interpreter: loads numpy through patil, then prints the
# thread count of the OpenBLAS library mapped into the process (null when
# none is) and the thread variables that os.environ and the C environment
# hold.
PROBE = r"""
import ctypes
import json
import os

from patil.arrays import numpy

numpy()


def openblas_threads():
    try:
        with open("/proc/self/maps") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return None
    paths = sorted({f[5].strip() for f in fields if len(f) == 6
                    and "openblas" in os.path.basename(f[5]).lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix in ("", "scipy_"):
            for suffix in ("", "64_"):
                name = f"{prefix}openblas_get_num_threads{suffix}"
                if hasattr(lib, name):
                    get = getattr(lib, name)
                    get.argtypes, get.restype = [], ctypes.c_int
                    return get()
    return None


getenv = ctypes.CDLL(None).getenv
getenv.argtypes, getenv.restype = [ctypes.c_char_p], ctypes.c_char_p
names = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
raw = {name: getenv(name.encode()) for name in names}
print(json.dumps({
    "threads": openblas_threads(),
    "environ": {name: os.environ[name] for name in names if name in os.environ},
    "getenv": {name: raw[name].decode() for name in names if raw[name]}}))
"""


# OpenBLAS takes its thread count from the first of these that is set
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def probe(**env):
    """What PROBE reports under the test's environment, without any of
    THREAD_VARS, plus ``env``."""
    child = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    child.update(env, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", PROBE], env=child, check=True,
                          capture_output=True, text=True, timeout=120)
    return json.loads(proc.stdout)


def test_one_thread_and_environment_unchanged():
    got = probe()
    assert got["environ"] == {} and got["getenv"] == {}
    if got["threads"] is None:
        pytest.skip("no OpenBLAS library mapped")
    assert got["threads"] == 1


@pytest.mark.parametrize("var", THREAD_VARS)
def test_user_choice_wins(var):
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count())
    if cpus < 2:
        pytest.skip("OpenBLAS caps its threads at the cores available")
    got = probe(**{var: "2"})
    assert got["environ"] == {var: "2"} and got["getenv"] == {var: "2"}
    if got["threads"] is None:
        pytest.skip("no OpenBLAS library mapped")
    assert got["threads"] == 2
