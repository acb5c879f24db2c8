"""Golden outputs: the CLI must keep reproducing the committed CSVs.

Each config in ``tests/golden`` is run in-process with
``--reproducible`` and compared with the CSV next to it: same header,
same row count, same exit code, and every number within 1e-12
relative.  Regenerate a file only for an intended change of results:

    patil growth --config tests/golden/growth_h2pole.json \\
        --out tests/golden/growth_h2pole.csv --reproducible
"""

import csv
import math
from pathlib import Path

import pytest

from patil.cli import EXIT_CRITERION, EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"
REL_TOL = 1e-12

CASES = [
    ("growth_example2", EXIT_OK),
    ("growth_example2_wide", EXIT_OK),  # I = (-2, 2): slope 0.352
    ("growth_h2pole", EXIT_CRITERION),  # 4 lambdas: slope misses 0.05
    ("growth_h2pole_nonsym", EXIT_OK),  # 2 points on each side of I
    ("converge_h2pole", EXIT_OK),
    ("converge_h2pole_mixed", EXIT_OK),  # inside and exterior cells, one batch
    ("converge_h2pole_near_endpoint", EXIT_OK),  # a window sample 4e-6 from lo
    ("contour_example1", EXIT_OK),
    ("contour_example2", EXIT_OK),
]


def read_rows(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


@pytest.mark.parametrize("name,code", CASES)
def test_matches_golden(tmp_path, name, code):
    command = name.split("_")[0]
    out = tmp_path / f"{name}.csv"
    assert main([command, "--config", str(GOLDEN / f"{name}.json"),
                 "--out", str(out), "--reproducible"]) == code
    header, rows = read_rows(out)
    want_header, want_rows = read_rows(GOLDEN / f"{name}.csv")
    assert header == want_header
    assert len(rows) == len(want_rows)
    for row, want in zip(rows, want_rows):
        assert len(row) == len(want)
        for got, ref in zip(row, want):
            assert math.isclose(got, ref, rel_tol=REL_TOL, abs_tol=0.0), \
                (name, row, want)
