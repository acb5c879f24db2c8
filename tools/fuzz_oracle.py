"""Seeded fuzz of g_lambda against the mpmath oracle: counts silent wrong values.

Usage, from the root of a source tree::

    PYTHONPATH=src python3 tools/fuzz_oracle.py --seed 7 --n 300

For each of five sets (the largest lambda and the spread of interval
half-widths below) it draws ``--n`` cells from ``--seed``: an entry of
``perfbench/oracle.py``'s ``RATIONAL_ENTRIES``, an interval (centre
uniform in [-2, 2], half-width log-uniform over the set's spread), a
point (real beyond an end, real inside I, or in Im z > 0, a third each),
and a log-uniform lambda from 10 up to the set's largest.  Each cell is
evaluated by the default path of ``approximant_table`` and by
``method="u"``, and each value sorted into one kind:

* right: within 1e-8 relative of the oracle;
* typed: a ``PatilError`` (a refusal with an exit code);
* wrong: a value more than 1e-8 from the oracle (a silent wrong answer);
* other: any other exception.

Prints one line per set and path with the counts and the largest
relative error among the values, and exits 0 whatever it finds.
"""

import argparse
import math
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import oracle  # noqa: E402

from patil.approximant import approximant_table  # noqa: E402
from patil.catalog import get_entry  # noqa: E402
from patil.errors import PatilError  # noqa: E402
from patil.quench import Interval  # noqa: E402

WRONG = 1e-8
# (largest lambda, decades of half-width either side of 1)
SETS = [(1e8, 0), (1e8, 3), (1e16, 0), (1e16, 6), (1e100, 0)]
KINDS = ("right", "typed", "wrong", "other")


def draw(rng, lam_max, decades):
    """One cell: entry name, interval, point, lambda."""
    name = rng.choice(sorted(oracle.RATIONAL_ENTRIES))
    r = 10.0 ** rng.uniform(-decades, decades)
    centre = rng.uniform(-2.0, 2.0)
    interval = Interval(centre - r, centre + r)
    region = rng.choice(("outside", "inside", "upper"))
    if region == "outside":
        gap = r * 10.0 ** rng.uniform(-3.0, 1.0)
        z = interval.hi + gap if rng.random() < 0.5 else interval.lo - gap
    elif region == "inside":
        z = interval.lo + 2.0 * r * rng.uniform(1e-6, 1.0 - 1e-6)
    else:
        z = complex(centre + r * rng.uniform(-3.0, 3.0),
                    r * 10.0 ** rng.uniform(-3.0, 1.0))
    lam = 10.0 ** rng.uniform(1.0, math.log10(lam_max))
    return name, interval, z, lam


def sort(value, want):
    """The kind of one value, and its relative error (nan if none)."""
    if isinstance(value, PatilError):
        return "typed", math.nan
    if isinstance(value, Exception):
        return "other", math.nan
    err = abs(value - want) / abs(want)
    return ("right" if err <= WRONG else "wrong"), err


def run_set(seed, n, lam_max, decades):
    rng = random.Random(f"fuzz/{seed}/{lam_max:g}/{decades}")
    tally = {path: dict.fromkeys(KINDS, 0) for path in ("default", "u")}
    worst = {path: 0.0 for path in tally}
    for _ in range(n):
        name, interval, z, lam = draw(rng, lam_max, decades)
        want = oracle.approximant(z, lam, interval.lo, interval.hi,
                                  *oracle.RATIONAL_ENTRIES[name])
        signal = get_entry(name, interval=interval).signal
        for path, method in (("default", None), ("u", "u")):
            try:
                value = approximant_table([z], [lam], interval, signal,
                                          method=method)[0][0]
            except Exception as exc:  # sorted, not raised: counting them is the point
                value = exc
            kind, err = sort(value, want)
            tally[path][kind] += 1
            if not math.isnan(err):
                worst[path] = max(worst[path], err)
    return tally, worst


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--n", type=int, default=300)
    args = parser.parse_args(argv)
    print(f"seed {args.seed}, {args.n} cells per set; wrong: > {WRONG:g} relative")
    print(f"{'lambda up to':>12s} {'scale':>6s} {'path':>8s} "
          + " ".join(f"{k:>6s}" for k in KINDS) + f" {'worst':>9s}")
    for lam_max, decades in SETS:
        tally, worst = run_set(args.seed, args.n, lam_max, decades)
        scale = f"1e±{decades}" if decades else "1"
        for path in tally:
            print(f"{lam_max:>12g} {scale:>6s} {path:>8s} "
                  + " ".join(f"{tally[path][k]:>6d}" for k in KINDS)
                  + f" {worst[path]:>9.1e}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
