"""Quadrature work per perfbench workload: panels, points, residue cells.

Usage, from the root of a source tree::

    PYTHONPATH=src python3 tools/quad_counts.py [--seed 1] [WORKLOAD ...]

Runs each experiment of the workloads (perfbench/workloads.py, the same
seed-drawn inputs) once, in-process, through ``patil.cli.main``, with
``patil.quadrature._gk15(row, a, b)`` wrapped to count the panels it
evaluates (one a call) and the node values its row returns (15 a
panel), the residue path's ``_residue_columns`` (where
``approximant_table`` looks it up) wrapped to count its (point, lambda)
cells, and ``asymptotics._clusters`` wrapped to count the residue terms
built, one set per point (or contour alpha) and memo key min(0.1, 1/xi).
The counts do not depend on the machine, so two source trees can be
compared.  Prints one JSON object: workload -> {"panels", "points",
"residue_cells", "term_builds", and per experiment its counts and exit
code}.
"""

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

import patil.approximant as approximant  # noqa: E402
import patil.asymptotics as asymptotics  # noqa: E402
import patil.cli  # noqa: E402
import patil.quadrature as quadrature  # noqa: E402

COUNTS = ("panels", "points", "residue_cells", "term_builds")


def counted(gk15, tally):
    def wrapper(row, a, b):
        def integrand(a, b):
            values = row(a, b)
            tally["points"] += len(values)
            return values
        tally["panels"] += 1
        return gk15(integrand, a, b)
    return wrapper


def counted_residues(residues, tally):
    def wrapper(zs, lams, *args):
        tally["residue_cells"] += len(zs) * len(lams)
        return residues(zs, lams, *args)
    return wrapper


def counted_builds(clusters, tally):
    def wrapper(*args):
        tally["term_builds"] += 1
        return clusters(*args)
    return wrapper


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("workload", nargs="*", default=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    result = {}
    gk15 = quadrature._gk15
    residues = approximant._residue_columns
    clusters = asymptotics._clusters
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for name in args.workload:
                total = result[name] = dict.fromkeys(COUNTS, 0)
                for exp in workloads.WORKLOADS[name](args.seed):
                    tally = total[exp.name] = dict.fromkeys(COUNTS, 0)
                    quadrature._gk15 = counted(gk15, tally)
                    approximant._residue_columns = counted_residues(residues, tally)
                    asymptotics._clusters = counted_builds(clusters, tally)
                    cfg = os.path.join(tmp, f"{exp.name}.json")
                    with open(cfg, "w") as fh:
                        json.dump(exp.config, fh)
                    with contextlib.redirect_stderr(io.StringIO()):
                        tally["exit"] = patil.cli.main(
                            [exp.command, "--config", cfg,
                             "--out", os.path.join(tmp, "out.csv")])
                    for key in COUNTS:
                        total[key] += tally[key]
    finally:
        quadrature._gk15 = gk15
        approximant._residue_columns = residues
        asymptotics._clusters = clusters
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
