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
relative error among the values.  Then a contour set draws ``--n`` cells
(an entry, xi, alpha and rectangle height) and compares the residue
engine's sum of the residues of ``k p`` inside the rectangle
(``asymptotics.enclosed_residues``) with the same sum from the closed
forms and, at a merged or higher-order pole, a 1,024-point
``residue_merged``; it prints the largest gap, relative to the sum of the
residues' moduli, and how many cells are over 1e-12.  Exits 0 whatever
it finds.
"""

import argparse
import math
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import oracle  # noqa: E402

from patil.approximant import approximant_table  # noqa: E402
from patil.asymptotics import (  # noqa: E402
    ContourSpec,
    enclosed_residues,
    residue_kernel_pole,
    residue_merged,
    residue_strip_pole,
)
from patil.catalog import example1, example2, get_entry, h2_reference_pole  # noqa: E402
from patil.errors import PatilError  # noqa: E402
from patil.quench import Interval  # noqa: E402

WRONG = 1e-8
# (largest lambda, decades of half-width either side of 1)
SETS = [(1e8, 0), (1e8, 3), (1e16, 0), (1e16, 6), (1e100, 0)]
KINDS = ("right", "typed", "wrong", "other")
GAP = 1e-12  # the contour set's bound, relative to the residues' moduli


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


def closed_form_residues(g_strip, singularities, xi, alpha, spec):
    """The residues of ``k p`` inside ``spec``, one per pole: the closed
    forms, and a 1,024-point ``residue_merged`` at a pole where a listed pole
    meets a kernel pole, on Im z = pi or of higher order, its circle half
    as far as the nearest other pole."""
    listed = [complex(s.beta) for s in singularities]
    kernel = {"at_ipi": 1j * math.pi,
              "at_ipi_plus_ln_alpha": complex(math.log(alpha), math.pi)}

    def merged(pole):
        # the listed and kernel poles and their 2 pi i images, but this one
        near = [abs(b + image - pole) for b in listed + list(kernel.values())
                for image in (0.0, 2j * math.pi, -2j * math.pi)]
        return residue_merged(pole, xi, alpha, g_strip,
                              radius=min(0.2, 0.5 * min(d for d in near if d > 1e-9)),
                              n_points=1024)
    parts = [merged(kp) if any(abs(b - kp) < 1e-9 for b in listed)
             else residue_kernel_pole(which, xi, alpha, g_strip)
             for which, kp in kernel.items()]
    for s, beta in zip(singularities, listed):
        if beta.imag >= spec.height or abs(beta.real) >= spec.R \
                or any(abs(beta - kp) < 1e-9 for kp in kernel.values()):
            continue  # outside, or merged with a kernel pole above
        parts.append(merged(beta) if s.order != 1 or abs(beta.imag - math.pi) < 1e-9
                     else residue_strip_pole(s, xi, alpha))
    return parts


def draw_contour(rng):
    """One contour cell: entry name, signal, xi, alpha, rectangle."""
    name = rng.choice(("example1", "example2", "h2pole"))
    if name == "h2pole":
        w = complex(rng.uniform(-3.0, 3.0), -(10.0 ** rng.uniform(-1.0, 1.0)))
        signal = h2_reference_pole(w).signal
        name = f"h2pole({w:.3g})"
    else:
        signal = (example1 if name == "example1" else example2)().signal
    xi = 0.0 if rng.random() < 0.1 else 10.0 ** rng.uniform(-2.0, math.log10(16.0))
    alpha = 10.0 ** rng.uniform(math.log10(0.02), math.log10(50.0))
    return name, signal, xi, alpha, ContourSpec(20.0, math.pi * rng.uniform(1.01, 1.5))


def contour_set(seed, n):
    """The largest gap of the n cells, relative to the sum of the residues'
    moduli, and the number of cells over GAP."""
    rng = random.Random(f"fuzz/{seed}/contour")
    worst, over = 0.0, 0
    for _ in range(n):
        name, signal, xi, alpha, spec = draw_contour(rng)
        g_strip, sing = signal.strip_pullback, signal.singularities
        parts = closed_form_residues(g_strip, sing, xi, alpha, spec)
        got = enclosed_residues(g_strip, [(xi, alpha)], spec, sing)[0]
        gap = abs(got - sum(parts)) / sum(map(abs, parts))
        worst, over = max(worst, gap), over + (gap > GAP)
    return worst, over


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
    worst, over = contour_set(args.seed, args.n)
    print(f"contour: {args.n} cells, worst gap {worst:.1e} of the residues' "
          f"moduli, {over} over {GAP:g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
