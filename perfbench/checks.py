"""Row checks: every output row against the oracle or the residue identity.

A row passes when

* growth: ``magnitude`` is within 1e-6 relative of the closed form,
  ``fitted_slope`` is within 1e-6 of the slope fitted to the closed-form
  magnitudes, and ``predicted_slope`` is the paper's (pi - Im beta)/(2 pi);
* converge: ``sup_error`` and ``l2_error`` match the same aggregates of
  closed-form values at the same points within 1e-6 of the reference's
  scale on that set;
* contour: ``residual`` is finite and below ``residual_tolerance``.

The key columns (lambda, x, xi, alpha, ...) must also be the inputs, in
the order the CLI documents.  A NaN anywhere fails the row.
"""

import csv
import math

import numpy as np

import oracle

REL_TOL = 1e-6
# predicted growth exponent (pi - Im beta) / (2 pi) of each entry's strip pole
EXPONENTS = {"example2": 0.25, "h2pole": 0.0}


def read_rows(path):
    """Rows of a CLI csv file as lists of floats; comment lines skipped."""
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    table = list(csv.reader(lines))
    return [[float(v) for v in row] for row in table[1:]]


def _digits(err, scale):
    rel = err / scale if scale > 0 else err
    return -math.log10(rel) if rel > 1e-17 else 17.0


def _window_points(window, n_samples, lo, hi):
    """The CLI's L2 sample points, with its documented endpoint nudge."""
    pts = np.linspace(window[0], window[1], n_samples)
    guard = 1e-6 * (hi - lo)
    for end in (lo, hi):
        close = np.abs(pts - end) < guard
        pts[close] = end + 2.0 * guard * np.where(pts[close] >= end, 1.0, -1.0)
    return [float(p) for p in pts]


class ExperimentCheck:
    """Expected rows of one experiment, with oracle values computed once."""

    def __init__(self, exp):
        self.exp = exp
        cfg = exp.config
        if exp.command == "growth":
            self.expected = self._growth(cfg, oracle.RATIONAL_ENTRIES[cfg["entry"]])
        elif exp.command == "converge":
            self.expected = self._converge(cfg, oracle.RATIONAL_ENTRIES[cfg["entry"]])
        else:
            c = cfg["contour"]
            self.expected = [(xi, alpha) for xi in sorted(c["xi"])
                             for alpha in sorted(c["alpha"])]

    @staticmethod
    def _growth(cfg, pole):
        lo, hi = cfg["interval"]
        lams = cfg["lambda_grid"]
        xs = cfg["eval_points"]
        mags = {(lam, x): abs(oracle.approximant(x, lam, lo, hi, *pole))
                for lam in lams for x in xs}
        slopes = {x: float(np.polyfit(np.log1p(lams),
                                      np.log([mags[lam, x] for lam in lams]), 1)[0])
                  for x in xs}
        return [(lam, x, mags[lam, x], slopes[x]) for lam in lams for x in xs]

    @staticmethod
    def _converge(cfg, pole):
        lo, hi = cfg["interval"]
        zs = [complex(p[0], p[1]) for p in cfg["eval_points"]]
        window = cfg["window"]
        n = cfg["n_samples"]
        xs = _window_points(window, n, lo, hi)
        width = window[1] - window[0]
        sup_scale = max(abs(complex(oracle.data(z, *pole))) for z in zs)
        l2_scale = math.sqrt(width * sum(abs(complex(oracle.data(x, *pole))) ** 2
                                         for x in xs) / n)
        rows = []
        for lam in cfg["lambda_grid"]:
            sup = max(abs(complex(oracle.deviation(z, lam, lo, hi, *pole)))
                      for z in zs)
            l2 = math.sqrt(width * sum(
                abs(complex(oracle.deviation(x, lam, lo, hi, *pole))) ** 2
                for x in xs) / n)
            rows.append((lam, sup, l2, sup_scale, l2_scale))
        return rows

    def check(self, rows):
        """Pass/fail and digits of agreement for each expected row.

        ``rows`` may be None (the experiment wrote nothing): every row fails.
        """
        if rows is None or len(rows) != len(self.expected):
            return [(False, None)] * len(self.expected)
        check_row = getattr(self, "_row_" + self.exp.command)
        return [check_row(want, got) for want, got in zip(self.expected, rows)]

    def _row_growth(self, want, got):
        lam, x, mag, slope = want
        if len(got) != 5 or not all(math.isfinite(v) for v in got):
            return False, None
        err = abs(got[2] - mag)
        ok = (got[0] == lam and got[1] == x and err <= REL_TOL * mag
              and abs(got[3] - slope) <= REL_TOL
              and abs(got[4] - EXPONENTS[self.exp.config["entry"]]) <= 1e-12)
        return ok, _digits(err, mag)

    def _row_converge(self, want, got):
        lam, sup, l2, sup_scale, l2_scale = want
        if len(got) != 3 or not all(math.isfinite(v) for v in got):
            return False, None
        sup_err = abs(got[1] - sup)
        l2_err = abs(got[2] - l2)
        ok = (got[0] == lam and sup_err <= REL_TOL * sup_scale
              and l2_err <= REL_TOL * l2_scale)
        return ok, min(_digits(sup_err, sup_scale), _digits(l2_err, l2_scale))

    def _row_contour(self, want, got):
        c = self.exp.config["contour"]
        if len(got) != 5 or not all(math.isfinite(v) for v in got):
            return False, None
        ok = ((got[0], got[1]) == want and got[2] == c["R"]
              and got[3] == c["height"] and got[4] < c["residual_tolerance"])
        return ok, _digits(got[4], 1.0)
