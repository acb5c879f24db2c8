"""Workload inputs: the experiments of each workload, drawn from a seed.

A workload is a list of experiments.  Each experiment is one ``patil``
CLI process: a subcommand and a config.  The seed draws the exterior
points, interior points, lambda offsets and contour (xi, alpha) pairs;
it never changes how many rows an experiment writes, and it never
touches the experiments of the fault ledger, whose inputs are fixed.
"""

import math
import random
from dataclasses import dataclass

CONTOUR_RESIDUAL_TOL = 1e-6


@dataclass(frozen=True)
class Experiment:
    """One CLI run.  ``fault`` names the ledger entry its rows fall under."""

    name: str
    command: str
    config: dict
    fault: str = None

    def n_rows(self):
        cfg = self.config
        if self.command == "growth":
            return len(cfg["lambda_grid"]) * len(cfg["eval_points"])
        if self.command == "converge":
            return len(cfg["lambda_grid"])
        return len(cfg["contour"]["xi"]) * len(cfg["contour"]["alpha"])

    def cells_per_row(self):
        """g_lambda values (or rectangles, for contour) behind one row."""
        if self.command == "converge":
            return len(self.config["eval_points"]) + self.config["n_samples"]
        return 1


def _half_decades(rng, first, last):
    """lambda = 10**(k/2) for k/2 in [first, last], each lowered by < 0.2 decade.

    Lowering (never raising) keeps the top of the grid at or below
    ``10**last``, clear of the fault band above it, and keeps the grid
    strictly increasing.
    """
    n = int(round(2 * (last - first))) + 1
    return [10.0 ** (first + 0.5 * k - rng.uniform(0.0, 0.2)) for k in range(n)]


def _decades(rng, first, last):
    return [10.0 ** (k - rng.uniform(0.0, 0.2)) for k in range(first, last + 1)]


def _exterior(rng, n, lo, hi, near, far):
    """``n`` real points outside (lo, hi), half on each side, sorted.

    Each lies between ``near`` and ``far`` from the nearer endpoint.
    """
    left = [round(lo - rng.uniform(near, far), 6) for _ in range(n // 2)]
    right = [round(hi + rng.uniform(near, far), 6) for _ in range(n - n // 2)]
    return sorted(left) + sorted(right)


def _growth_config(entry, interval, lambdas, points):
    return {"entry": entry, "interval": list(interval),
            "lambda_grid": lambdas, "eval_points": points}


def growth(seed):
    rng = random.Random(f"growth/{seed}")
    return [
        Experiment(
            "example2", "growth",
            _growth_config("example2", (-1.0, 1.0), _half_decades(rng, 1, 16),
                           _exterior(rng, 12, -1.0, 1.0, 0.1, 5.0))),
        Experiment(
            "h2pole-nonsym", "growth",
            _growth_config("h2pole", (-0.5, 2.0), _half_decades(rng, 1, 12),
                           _exterior(rng, 8, -0.5, 2.0, 0.1, 4.0))),
        # the extreme-lambda sweep: one process per entry, fixed inputs
        Experiment(
            "example2-extreme", "growth",
            _growth_config("example2", (-1.0, 1.0), [1e60, 1e70, 1e80, 1e100],
                           [2.0, 5.0]),
            fault="exterior-cancellation"),
        Experiment(
            "h2pole-extreme", "growth",
            _growth_config("h2pole", (-1.0, 1.0), [1e26, 1e28, 1e30, 1e32],
                           [2.0, 5.0]),
            fault="exterior-cancellation"),
    ]


def converge(seed):
    rng = random.Random(f"converge/{seed}")
    interior = [[round(rng.uniform(-1.5, 1.5), 6), round(rng.uniform(0.5, 1.5), 6)]
                for _ in range(4)]
    return [
        Experiment(
            "interior", "converge",
            {"entry": "h2pole", "interval": [-1.0, 1.0],
             "lambda_grid": _decades(rng, 1, 8), "eval_points": interior,
             "window": [-1.5, 1.5], "n_samples": 101}),
        # the window sample at -1 is nudged to -0.999996, inside I
        Experiment(
            "near-endpoint", "converge",
            {"entry": "h2pole", "interval": [-1.0, 1.0],
             "lambda_grid": [1e10, 1e11, 1e12], "eval_points": [[0.0, 1.0]],
             "window": [-5.0, 5.0], "n_samples": 101},
            fault="nan-as-value"),
    ]


def _stratified_log(rng, lo, hi, n):
    """``n`` increasing values, one drawn log-uniformly in each of n strata."""
    ratio = math.log(hi / lo)
    return [lo * math.exp(ratio * (k + rng.random()) / n) for k in range(n)]


def contour(seed):
    rng = random.Random(f"contour/{seed}")
    experiments = []
    for entry in ("example2", "example1"):
        for label, height in (("1.25pi", 1.25 * math.pi), ("1.5pi", 1.5 * math.pi)):
            experiments.append(Experiment(
                f"{entry}-{label}", "contour",
                {"entry": entry, "interval": [-1.0, 1.0],
                 "contour": {"xi": _stratified_log(rng, 0.25, 16.0, 7),
                             "alpha": _stratified_log(rng, 1.2, 50.0, 7),
                             "R": 20.0, "height": height,
                             "residual_tolerance": CONTOUR_RESIDUAL_TOL}}))
    return experiments


WORKLOADS = {"growth": growth, "converge": converge, "contour": contour}
