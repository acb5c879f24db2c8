"""The CLI as a process: ``python -m patil.cli`` runs ``cli.run``, which
freezes the objects the imports made and then returns ``main()``'s code.

A process writes the same bytes and exits with the same code as ``main``
called in-process, and an output that cannot be written, a closed pipe
or a full device, is one line on stderr and exit 2.
"""

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

from patil.cli import EXIT_CONFIG, main

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "tests" / "golden").glob("*.json"))


def cli_process(*args, env=None, **kwargs):
    """``python -m patil.cli args`` in ``env`` (the test's by default),
    with ``src`` on PYTHONPATH."""
    env = {**(os.environ if env is None else env), "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, "-m", "patil.cli", *map(str, args)],
                          cwd=ROOT, env=env, timeout=300, **kwargs)


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_process_matches_main(tmp_path, config):
    args = [config.stem.split("_")[0], "--config", str(config), "--reproducible"]
    out = tmp_path / "out.csv"
    code = main(args + ["--out", str(out)])
    proc = cli_process(*args, "--out", "-", capture_output=True)
    assert (proc.returncode, proc.stderr) == (code, b"")
    assert proc.stdout == out.read_bytes()


def test_main_leaves_freeze_count(tmp_path):
    before = gc.get_freeze_count()
    main(["contour", "--config", str(ROOT / "tests/golden/contour_example2.json"),
          "--out", str(tmp_path / "out.csv")])
    assert gc.get_freeze_count() == before


# run in a fresh interpreter: run() freezes the objects of that process
RUN_PROBE = """
import gc
import sys

import patil.cli

sys.argv = ["patil", "catalog", "list"]
code = patil.cli.run()
print(code, gc.get_freeze_count() > 0)
"""


def test_run_freezes():
    proc = subprocess.run([sys.executable, "-c", RUN_PROBE], capture_output=True,
                          text=True, timeout=120, check=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.stdout.splitlines()[-1] == "0 True"


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_pipe_is_one_line(unbuffered):
    read, write = os.pipe()
    os.close(read)  # closed before the child writes a byte
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    try:
        proc = cli_process("growth", "--config", "tests/golden/growth_example2.json",
                     "--out", "-", env=env, stdout=write, stderr=subprocess.PIPE,
                     text=True)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (
        EXIT_CONFIG, "cannot write output '-': Broken pipe\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_full_device_is_one_line(capsys):
    code = main(["contour", "--config", str(ROOT / "tests/golden/contour_example2.json"),
                 "--out", "/dev/full"])
    assert (code, capsys.readouterr().err) == (
        EXIT_CONFIG, "cannot write output '/dev/full': No space left on device\n")
