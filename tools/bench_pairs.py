"""Paired perfbench runs of two source trees, written as a BENCH_*.json.

Usage, from anywhere::

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE --workload W \\
        --pairs N --out FILE

Pair i (i = 1..N) runs ``python3 perfbench/run.py --workload W --seed i``
once in each tree, each with that tree's own perfbench, run length and
sources; the parent runs first in odd pairs and the change first in even
ones.  Then ``tools/quad_counts.py --seed 1 W`` runs in each tree.  The
end-to-end metrics, which way is better and the run length named in FILE
come from CHANGE_TREE's BENCHMARK.json.

The set of pairs is appended to the list ``workloads.W`` of FILE: each
pair's metrics as [parent, change] with its failed-row share and
``correct`` flag, the median and quartiles of each side, the pairs the
change won (ties count for neither side) and both trees' counts.  Sets
and workloads already in FILE are kept, so one file collects every run.
Neither tree is modified, apart from perfbench's own git-ignored work
directory.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def child_env(tree=None):
    """The caller's environment; PYTHONPATH is the tree's ``src`` or unset."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    if tree is not None:
        env["PYTHONPATH"] = str(tree / "src")
    return env


def last_json_line(argv, cwd, env):
    proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv)} in {cwd} exited {proc.returncode}:\n"
                 f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def bench(tree, workload, seed):
    """The result line of one perfbench run in ``tree``."""
    return last_json_line(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed)], tree, child_env())


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("need --pairs >= 2 for quartiles")
    trees = dict(zip(SIDES, (args.parent.resolve(), args.change.resolve())))
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    pairs = []
    for seed in range(1, args.pairs + 1):
        order = SIDES if seed % 2 else SIDES[::-1]
        results = {}
        for side in order:
            print(f"pair {seed}: {side}", file=sys.stderr, flush=True)
            results[side] = bench(trees[side], args.workload, seed)
        pair = {"seed": seed, "first": order[0]}
        for name in better:
            pair[name] = [round(results[s]["metrics"][name]["value"], 4)
                          for s in SIDES]
        pair["failed_share"] = [round(results[s]["failed"] / results[s]["attempted"], 4)
                                for s in SIDES]
        pair["correct"] = [results[s]["correct"] for s in SIDES]
        pairs.append(pair)

    def wins(name):
        sign = 1 if better[name] == "higher" else -1
        return sum(sign * (p[name][1] - p[name][0]) > 0 for p in pairs)

    entry = {"pairs": pairs}
    for i, side in enumerate(SIDES):
        entry[side] = {name: summary([p[name][i] for p in pairs]) for name in better}
    entry["change_better_in"] = {name: f"{wins(name)} of {len(pairs)} pairs"
                                 for name in better}
    entry["counts"] = {side: last_json_line(
        [sys.executable, "tools/quad_counts.py", "--seed", "1", args.workload],
        tree, child_env(tree))[args.workload] for side, tree in trees.items()}

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    workloads = doc.get("workloads", {})
    doc = {
        "what": doc.get("what", "parent commit vs this change"),
        "machine": f"{os.cpu_count()}-core {platform.machine()}, Python "
                   f"{platform.python_version()}, numpy "
                   f"{importlib.metadata.version('numpy')}",
        "benchmark": "python3 perfbench/run.py --workload W --seed S, "
                     f"{spec['run_seconds']} s per run, one run of each tree per "
                     "pair, same seed in a pair, seed = pair number, the parent "
                     "first in odd pairs",
        "counts_method": "PYTHONPATH=src python3 tools/quad_counts.py --seed 1 W in "
                         "each tree: panels = G7/K15 panels, one integrand call each "
                         "(trees before the one-integral engine also count "
                         "calls, integrand calls over batches of panels), "
                         "points = node values they return, "
                         "residue_cells = (point, lambda) cells of the residue "
                         "path, term_builds = residue term builds (calls of "
                         "asymptotics._clusters)",
        "workloads": {**workloads,
                      args.workload: workloads.get(args.workload, []) + [entry]},
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
