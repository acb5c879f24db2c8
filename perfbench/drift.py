"""Output drift between two source trees, for every workload's experiments.

Usage::

    python3 perfbench/drift.py BASE_TREE [HEAD_TREE]

Runs every experiment of every workload, made from run.py's default seed,
with ``--reproducible`` once against ``BASE_TREE/src``
and once against ``HEAD_TREE/src`` (default: the tree this script is in),
and prints, for each experiment and column, the largest relative
difference between the two outputs.  Differences above 1e-10 are
flagged: past that line a change is a behaviour change, not a speed-up.
The command reports: it exits 0 whatever it finds, and 2 only when a
tree has no ``src/patil``.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import checks
import run
import workloads

FLAG = 1e-10


def run_tree(tree, exp, workdir, tag):
    """Column names and rows of one experiment run against ``tree/src``."""
    cfg = workdir / f"{exp.name}.json"
    out = workdir / f"{exp.name}.{tag}.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "patil.cli", exp.command, "--config", str(cfg),
         "--out", str(out), "--reproducible"],
        env=run.child_env(Path(tree).resolve() / "src"),
        stdin=subprocess.DEVNULL, capture_output=True)
    if proc.returncode not in (0, 1) or not out.exists():
        return None, None, proc.returncode
    with open(out) as fh:
        names = next(ln for ln in fh if not ln.startswith("#")).strip().split(",")
    return names, checks.read_rows(out), proc.returncode


def rel_diff(a, b):
    if math.isnan(a) and math.isnan(b):
        return 0.0
    if a == b:
        return 0.0
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if math.isfinite(scale) and scale > 0 else math.inf


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("head", nargs="?", default=str(run.ROOT))
    args = parser.parse_args(argv)
    for tree in (args.base, args.head):
        if not (Path(tree) / "src" / "patil" / "cli.py").is_file():
            print(f"no patil sources under {tree}/src", file=sys.stderr)
            return 2
    run.WORK.mkdir(exist_ok=True)
    workdir = run.WORK / f"drift-{os.getpid()}"
    workdir.mkdir()
    flagged = 0
    try:
        print(f"{'workload':9s} {'experiment':18s} {'column':16s} {'max rel diff':>12s}")
        for name in sorted(workloads.WORKLOADS):
            for exp in workloads.WORKLOADS[name](run.SEED):
                (workdir / f"{exp.name}.json").write_text(json.dumps(exp.config))
                _, base, base_code = run_tree(args.base, exp, workdir, "base")
                names, head, head_code = run_tree(args.head, exp, workdir, "head")
                if base is None or head is None or len(base) != len(head):
                    flagged += 1
                    print(f"{name:9s} {exp.name:18s} rows differ: exit codes "
                          f"{base_code}/{head_code}, rows "
                          f"{base and len(base)}/{head and len(head)}  DRIFT")
                    continue
                for col, column in enumerate(names):
                    worst = max((rel_diff(b[col], h[col]) for b, h in zip(base, head)),
                                default=0.0)
                    mark = "  DRIFT" if worst > FLAG else ""
                    flagged += bool(mark)
                    print(f"{name:9s} {exp.name:18s} {column:16s} {worst:12.3e}{mark}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{flagged} column(s) above {FLAG:g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
