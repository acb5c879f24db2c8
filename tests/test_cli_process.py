"""The CLI as a process: ``python -m patil.cli`` runs ``cli.run``, which
freezes the objects the imports made and then returns ``main()``'s code.

A process writes the same bytes and exits with the same code as ``main``
called in-process, an output that cannot be written, a closed pipe or a
full device, is one line on stderr and exit 2, and no command imports
numpy.
"""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from patil.cli import EXIT_CONFIG, main

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "tests" / "golden").glob("*.json"))


def cli_process(*args, env=None, python_args=False, **kwargs):
    """``python -m patil.cli args`` in ``env`` (the test's by default),
    with ``src`` on PYTHONPATH; with ``python_args`` ``args`` starts with
    the interpreter's own, ``-m patil.cli`` among them."""
    env = {**(os.environ if env is None else env), "PYTHONPATH": str(ROOT / "src")}
    head = [sys.executable] + ([] if python_args else ["-m", "patil.cli"])
    return subprocess.run([*head, *map(str, args)],
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


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_catalog_list_into_closed_pipe_is_one_line(unbuffered):
    read, write = os.pipe()
    os.close(read)  # closed before the child writes a byte
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    try:
        proc = cli_process("catalog", "list", env=env, stdout=write,
                           stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (
        EXIT_CONFIG, "cannot write output '-': Broken pipe\n")


def _perfbench_configs(command):
    """(name, config) of perfbench's seed-1 experiments of ``command``."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return [(f"perfbench-{exp.name}", exp.config)
            for exp in workloads.WORKLOADS[command](1)]


def _import_runs(tmp_path):
    """(command, name, config path) of every golden config and of perfbench's
    seed-1 ones."""
    runs = [(p.stem.split("_")[0], p.stem, p) for p in CONFIGS]
    for command in ("growth", "converge", "contour"):
        for name, config in _perfbench_configs(command):
            path = tmp_path / f"{command}-{name}.json"
            path.write_text(json.dumps(config))
            runs.append((command, name, path))
    return runs


def test_numpy_only_for_arrays(tmp_path):
    # -X importtime names on stderr every module the process imports
    seen = {}
    for command, name, config in _import_runs(tmp_path):
        proc = cli_process("-X", "importtime", "-m", "patil.cli", command,
                           "--config", config, "--out", tmp_path / "out.csv",
                           python_args=True, capture_output=True, text=True)
        assert proc.returncode in (0, 1), (name, proc.stderr[-500:])
        modules = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                   if line.startswith("import time:")}
        assert "patil.approximant" in modules, name
        seen[command, name] = "numpy" in modules
    assert len(seen) == 19
    assert not any(seen.values()), seen


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_full_device_is_one_line(capsys):
    code = main(["contour", "--config", str(ROOT / "tests/golden/contour_example2.json"),
                 "--out", "/dev/full"])
    assert (code, capsys.readouterr().err) == (
        EXIT_CONFIG, "cannot write output '/dev/full': No space left on device\n")
