"""Layered benchmark of the patil CLI: growth, converge and contour workloads.

Usage, from the root of a source tree::

    python3 perfbench/run.py --workload growth --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Each round runs every experiment of the workload as its own ``patil``
process, one after another, the way a user would (``python3 -m
patil.cli <command> --config ... --out ...`` with ``src`` on PYTHONPATH
and PATIL_NUM_THREADS unset), then checks every output row (see
checks.py).  Rounds repeat until ``--seconds`` have passed; timings are
medians over rounds.  Set-up time is the median of fresh interpreters,
two before each round, that import the CLI, parse the configs and
build the catalog entries.

With ``--trace 1`` traced rounds (tracing.py) alternate with untraced
ones; the run reports the per-layer metrics and the tracing overhead
instead of the end-to-end metrics, and writes the spans of its last
traced round to ``.perfbench_work/trace-<workload>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An operation is
one output row; rows of the fault ledger (README.md) fail today and are
counted in ``failed`` without making ``correct`` false.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# set-up probes per round; they are spread over the run like the rounds
SETUP_PER_ROUND = 2
MIN_ROUNDS = 3
# defaults match BENCHMARK.json, so the command as listed there runs as measured
SEED = 1
SECONDS = 20.0


def child_env(src=SRC):
    """The user's environment with ``src`` on PYTHONPATH and no PATIL_NUM_THREADS."""
    env = dict(os.environ)
    env.pop("PATIL_NUM_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv, stderr_path, env):
    """Run one process; return wall seconds, CPU seconds, peak RSS MiB, exit code."""
    t0 = time.perf_counter()
    with open(stderr_path, "w") as err:
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
            proc.returncode)


class Workload:
    def __init__(self, name, seed, workdir):
        self.name = name
        self.experiments = workloads.WORKLOADS[name](seed)
        self.workdir = workdir
        self.env = child_env()
        self.configs = []
        for exp in self.experiments:
            path = workdir / f"{exp.name}.json"
            path.write_text(json.dumps(exp.config))
            self.configs.append(path)
        self.checks = [checks.ExperimentCheck(exp) for exp in self.experiments]
        self.rows = sum(exp.n_rows() for exp in self.experiments)
        self.cells = sum(exp.n_rows() * exp.cells_per_row() for exp in self.experiments)

    def setup_seconds(self):
        """Wall time of one fresh set-up process."""
        argv = [sys.executable, str(HERE / "setup_probe.py")] + \
            [str(p) for p in self.configs]
        err = self.workdir / "setup.err"
        wall, _, _, code = spawn(argv, err, self.env)
        if code != 0:
            raise RuntimeError("set-up probe failed: " + err.read_text())
        return wall

    def round(self, traced):
        """Run every experiment once; time, check and (if traced) trace them."""
        stats = {"run_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0, "failed": 0,
                 "unexpected": [], "digits": [], "traces": []}
        for exp, cfg, chk in zip(self.experiments, self.configs, self.checks):
            out = self.workdir / f"{exp.name}.csv"
            err = self.workdir / f"{exp.name}.err"
            trace = self.workdir / f"{exp.name}.trace.json"
            for path in (out, trace):
                path.unlink(missing_ok=True)
            cli_args = [exp.command, "--config", str(cfg), "--out", str(out)]
            if traced:
                argv = [sys.executable, str(HERE / "tracing.py"), str(trace)] + cli_args
            else:
                argv = [sys.executable, "-m", "patil.cli"] + cli_args
            wall, cpu, rss, code = spawn(argv, err, self.env)
            stats["run_s"] += wall
            stats["cpu_s"] += cpu
            stats["peak_rss_mb"] = max(stats["peak_rss_mb"], rss)
            rows = None
            # exit code 1 ("criterion not met") still writes rows
            if code in (0, 1) and "Traceback" not in err.read_text() and out.exists():
                rows = checks.read_rows(out)
            for ok, digits in chk.check(rows):
                if not ok:
                    stats["failed"] += 1
                    if exp.fault is None:
                        stats["unexpected"].append(exp.name)
                elif exp.fault is None:
                    stats["digits"].append(digits)
            if traced:
                with open(trace) as fh:
                    doc = json.load(fh)
                doc["experiment"] = exp.name
                stats["traces"].append(doc)
        if traced:
            stats["layers"] = tracing.layer_metrics(stats["traces"])
        return stats


def _median(rounds, key):
    return statistics.median(r[key] for r in rounds)


def end_to_end(work, rounds, setup_s):
    return {
        "setup_s": (setup_s, "s"),
        "run_s": (_median(rounds, "run_s"), "s"),
        "cells_per_s": (statistics.median(work.cells / r["run_s"] for r in rounds),
                        "cells/s"),
        "cpu_s": (_median(rounds, "cpu_s"), "s"),
        "peak_rss_mb": (_median(rounds, "peak_rss_mb"), "MiB"),
    }


def per_layer(traced, plain):
    """Counts from one traced round, times as medians, and the counts that
    differ between traced rounds (they must repeat exactly)."""
    metrics, unsteady = {}, []
    for name, (value, unit) in traced[0]["layers"].items():
        values = [r["layers"][name][0] for r in traced]
        if unit != "count":
            value = statistics.median(values)
        elif len(set(values)) > 1:
            unsteady.append(name)
            print(f"error: {name} differs between rounds: {values}", file=sys.stderr)
        metrics[name] = (value, unit)
    digits = [d for r in traced + plain for d in r["digits"]]
    metrics["approximant.oracle_digits_min"] = (min(digits) if digits else 0.0,
                                                "digits")
    metrics["trace.overhead_s"] = (_median(traced, "run_s") - _median(plain, "run_s"),
                                   "s")
    return metrics, unsteady


def run(name, seed, seconds, trace):
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        work = Workload(name, seed, workdir)
        plain, traced, setup, unsteady = [], [], [], []
        deadline = time.perf_counter() + seconds
        while True:
            if not trace:
                setup += [work.setup_seconds() for _ in range(SETUP_PER_ROUND)]
            plain.append(work.round(traced=False))
            if trace:
                traced.append(work.round(traced=True))
            if time.perf_counter() >= deadline and len(plain) >= MIN_ROUNDS:
                break
        rounds = plain + traced
        if trace:
            metrics, unsteady = per_layer(traced, plain)
            with open(WORK / f"trace-{name}.json", "w") as fh:
                json.dump({"workload": name, "seed": seed,
                           "processes": traced[-1]["traces"]}, fh)
        else:
            metrics = end_to_end(work, plain, statistics.median(setup))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = work.rows * len(rounds)
    failed = sum(r["failed"] for r in rounds)
    unexpected = sorted({n for r in rounds for n in r["unexpected"]})
    print(f"workload {name}: seed {seed}, {len(plain)} rounds"
          + (f" + {len(traced)} traced" if trace else "")
          + f", {work.rows} rows and {work.cells} cells per round")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:34s} {value:>16.6g} {unit}")
    print(f"  rows attempted {attempted}, failed {failed}"
          + (f"; unexpected failures in {', '.join(unexpected)}" if unexpected else "")
          + (f"; counts not repeated: {', '.join(unsteady)}" if unsteady else ""))
    return {"correct": not unexpected and not unsteady,
            "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--seconds", type=float, default=SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "patil" / "cli.py").is_file():
        print(f"no patil sources under {SRC}; run from the root of a source tree",
              file=sys.stderr)
        return 2
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run(n, args.seed, args.seconds, args.trace) for n in names]
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
