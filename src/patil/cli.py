"""Batch experiment runner.

Subcommands::

    patil growth   --config cfg.json [--out PATH] [--format csv|json] [--reproducible]
    patil converge --config cfg.json ...
    patil contour  --config cfg.json ...
    patil catalog list

The config is a single JSON document; see README for the schema.  Exit
codes: 0 success, 1 criterion not met, 2 config/validation error,
3 semantic precondition error, 4 numeric non-convergence.
"""

import argparse
import csv
import datetime
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import catalog
from .approximant import approximant_boundary, l2_error_on_window, \
    sup_error_on_compact
from .asymptotics import ContourSpec, GrowthReport, contour_identity_check, \
    fit_growth_exponent
from .errors import MissingReference, NonConvergence, PatilError
from .quadrature import QuadTolerance
from .quench import Interval, QuenchParams

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CRITERION = 1
EXIT_CONFIG = 2
EXIT_SEMANTIC = 3
EXIT_NUMERIC = 4


class ConfigError(ValueError):
    pass


def _fmt(value):
    return format(value, ".17g")


DEFAULT_LAMBDA_GRID = tuple(np.logspace(1, 8, 8))


@dataclass
class ExperimentConfig:
    entry_name: str
    interval: Interval
    lambda_grid: tuple
    eval_points: tuple
    tolerances: QuadTolerance
    output_path: str
    format: str = "csv"
    entry_args: dict = field(default_factory=dict)
    slope_tolerance: float = 0.05
    window: Interval = Interval(-5.0, 5.0)
    n_samples: int = 101
    contour: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, raw, output_path=None, fmt=None):
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        try:
            entry_name = raw["entry"]
        except KeyError:
            raise ConfigError("config missing required key 'entry'") from None
        iv = raw.get("interval", [-1.0, 1.0])
        try:
            interval = Interval(float(iv[0]), float(iv[1]))
        except (PatilError, ValueError, TypeError, IndexError) as exc:
            raise ConfigError(f"bad interval: {exc}") from None
        grid = raw.get("lambda_grid")
        if grid is None:
            grid = DEFAULT_LAMBDA_GRID
        grid = tuple(float(v) for v in grid)
        if not grid:
            raise ConfigError("lambda_grid must be nonempty")
        if any(v <= 0 for v in grid):
            raise ConfigError("lambda_grid values must be positive")
        if any(b <= a for a, b in zip(grid[:-1], grid[1:])):
            raise ConfigError("lambda_grid must be strictly increasing")
        pts = []
        guard = interval.guard
        for p in raw.get("eval_points", []):
            if isinstance(p, (list, tuple)):
                p = complex(float(p[0]), float(p[1]))
            else:
                p = float(p)
            z = complex(p)
            if abs(z.imag) < guard and min(abs(z.real - interval.lo),
                                           abs(z.real - interval.hi)) < guard:
                raise ConfigError(f"eval point {p} too close to interval endpoint")
            pts.append(p)
        tols = raw.get("tolerances", {})
        try:
            tolerances = QuadTolerance(
                abs_tol=float(tols.get("abs_tol", 1e-10)),
                rel_tol=float(tols.get("rel_tol", 1e-10)),
                max_subdivisions=int(tols.get("max_subdivisions", 4000)),
            )
        except PatilError as exc:
            raise ConfigError(f"bad tolerances: {exc}") from None
        window = raw.get("window", [-5.0, 5.0])
        try:
            window = Interval(float(window[0]), float(window[1]))
        except (PatilError, ValueError, TypeError, IndexError) as exc:
            raise ConfigError(f"bad window: {exc}") from None
        n_samples = int(raw.get("n_samples", 101))
        if n_samples < 1:
            raise ConfigError(f"n_samples must be >= 1, got {n_samples}")
        out_format = fmt or raw.get("format", "csv")
        if out_format not in ("csv", "json"):
            raise ConfigError(f"format must be 'csv' or 'json', got {out_format!r}")
        return cls(
            entry_name=str(entry_name),
            interval=interval,
            lambda_grid=grid,
            eval_points=tuple(pts),
            tolerances=tolerances,
            output_path=output_path or raw.get("output_path", "-"),
            format=out_format,
            entry_args=dict(raw.get("entry_args", {})),
            slope_tolerance=float(raw.get("slope_tolerance", 0.05)),
            window=window,
            n_samples=n_samples,
            contour=dict(raw.get("contour", {})),
        )


def _load_config(args):
    with open(args.config) as fh:
        raw = json.load(fh)
    return ExperimentConfig.from_dict(raw, output_path=args.out,
                                      fmt=args.format)


def _open_out(path):
    if path in (None, "-"):
        return sys.stdout, False
    return open(path, "w", newline=""), True


def _write_rows(cfg, reproducible, header, rows):
    out, should_close = _open_out(cfg.output_path)
    try:
        if cfg.format == "json":
            doc = {"schema_version": SCHEMA_VERSION,
                   "columns": header,
                   "rows": [[_fmt(v) if isinstance(v, float) else v
                             for v in row] for row in rows]}
            if not reproducible:
                doc["generated"] = datetime.datetime.now().isoformat()
            json.dump(doc, out, indent=2)
            out.write("\n")
        else:
            if not reproducible:
                out.write(f"# generated {datetime.datetime.now().isoformat()}\n")
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(v) if isinstance(v, float) else v
                                 for v in row])
    finally:
        if should_close:
            out.close()


def run_growth_experiment(cfg, reproducible=False):
    """Sweep |g_lambda| over the lambda grid at real exterior points."""
    entry = catalog.get_entry(cfg.entry_name, **cfg.entry_args)
    for x in cfg.eval_points:
        if isinstance(x, complex) or not (
                x <= cfg.interval.lo or x >= cfg.interval.hi):
            raise ConfigError(
                f"growth eval points must be real and outside the closed "
                f"interval, got {x}")
    if not cfg.eval_points:
        raise ConfigError("growth experiment needs at least one eval point")

    # lambda_grid is strictly increasing, so cells come in (lambda, index) order
    cells = []
    for lam in cfg.lambda_grid:
        for i, x in enumerate(cfg.eval_points):
            mag = abs(approximant_boundary(x, QuenchParams(lam), cfg.interval,
                                           entry.signal, cfg.tolerances))
            cells.append((lam, i, x, mag))
    reports = []
    for i, _x in enumerate(cfg.eval_points):
        samples = tuple((lam, mag) for lam, j, _, mag in cells if j == i)
        reports.append(GrowthReport(
            samples=samples,
            fitted_exponent=fit_growth_exponent(samples),
            predicted_exponent=entry.expected_exponent,
        ))
    rows = [(lam, x, mag, reports[i].fitted_exponent,
             reports[i].predicted_exponent)
            for lam, i, x, mag in cells]
    _write_rows(cfg, reproducible,
                ["lambda", "x", "magnitude", "fitted_slope", "predicted_slope"],
                rows)
    ok = all(abs(r.fitted_exponent - r.predicted_exponent)
             <= cfg.slope_tolerance for r in reports)
    return reports, (EXIT_OK if ok else EXIT_CRITERION)


def run_convergence_experiment(cfg, reproducible=False):
    """Sup- and windowed-L2 error against the entry's reference pair."""
    entry = catalog.get_entry(cfg.entry_name, **cfg.entry_args)
    if entry.reference is None:
        raise MissingReference(
            f"catalog entry {cfg.entry_name!r} has no reference pair")
    pts = [complex(p) for p in cfg.eval_points]
    for z in pts:
        if not z.imag > 0:
            raise ConfigError(
                f"convergence eval points must lie in Im z > 0, got {z}")
    if not pts:
        raise ConfigError("convergence experiment needs eval points")

    rows = []
    for lam in cfg.lambda_grid:
        p = QuenchParams(lam)
        sup = sup_error_on_compact(pts, p, cfg.interval, entry.signal,
                                   entry.reference, cfg.tolerances)
        l2 = l2_error_on_window(p, cfg.interval, entry.signal, entry.reference,
                                cfg.window, cfg.n_samples, cfg.tolerances)
        rows.append((lam, sup, l2))
    _write_rows(cfg, reproducible, ["lambda", "sup_error", "l2_error"], rows)
    sups = [r[1] for r in rows]
    l2s = [r[2] for r in rows]
    ok = all(b <= a for a, b in zip(sups[:-1], sups[1:])) and \
        all(b <= a for a, b in zip(l2s[:-1], l2s[1:]))
    return rows, (EXIT_OK if ok else EXIT_CRITERION)


def run_contour_check(cfg, reproducible=False):
    """Residue-identity residuals for configured (xi, alpha, R, height)."""
    entry = catalog.get_entry(cfg.entry_name, **cfg.entry_args)
    signal = entry.signal
    if signal.strip_pullback is None:
        raise MissingReference(
            f"catalog entry {cfg.entry_name!r} has no strip metadata")
    params = cfg.contour
    xis = [float(v) for v in params.get("xi", [1.0])]
    alphas = [float(v) for v in params.get("alpha", [2.0])]
    R = float(params.get("R", 20.0))
    height = float(params.get("height", 1.5 * math.pi))
    residual_tol = float(params.get("residual_tolerance", 1e-6))
    try:
        spec = ContourSpec(R=R, height=height)
    except PatilError as exc:
        raise ConfigError(str(exc)) from None
    for alpha in alphas:
        if not R > abs(math.log(alpha)) + 1.0:
            raise ConfigError(f"need R > |ln(alpha)| + 1 for alpha={alpha}")

    # xi and alpha lists may come unsorted; rows are written sorted
    rows = sorted(
        (xi, alpha, R, height, contour_identity_check(
            signal.strip_pullback, xi, alpha, spec, signal.singularities,
            cfg.tolerances))
        for xi in xis for alpha in alphas)
    _write_rows(cfg, reproducible,
                ["xi", "alpha", "R", "height", "residual"], rows)
    ok = all(r[4] < residual_tol for r in rows)
    return rows, (EXIT_OK if ok else EXIT_CRITERION)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="patil",
        description="Hardy-space recovery experiments on the upper half plane")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
            ("growth", "growth of |g_lambda| outside the interval"),
            ("converge", "convergence to a reference on a compact set"),
            ("contour", "residue-identity residuals on rectangles")]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=["csv", "json"], default=None)
        p.add_argument("--reproducible", action="store_true")
    cat = sub.add_parser("catalog", help="catalog utilities")
    cat.add_argument("action", choices=["list"])
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "catalog":
        for name in catalog.entry_names():
            print(name)
        return EXIT_OK
    runners = {"growth": run_growth_experiment,
               "converge": run_convergence_experiment,
               "contour": run_contour_check}
    try:
        cfg = _load_config(args)
        _rows, code = runners[args.command](cfg, reproducible=args.reproducible)
        return code
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MissingReference as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    except NonConvergence as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except PatilError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC


if __name__ == "__main__":
    sys.exit(main())
