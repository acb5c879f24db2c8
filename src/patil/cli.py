"""Batch experiment runner.

Subcommands::

    patil growth   --config cfg.json [--out PATH] [--format csv|json] [--reproducible]
    patil converge --config cfg.json ...
    patil contour  --config cfg.json ...
    patil catalog list

The config is a single JSON document; see README for the schema.  Every
value in it is converted once, by ``ExperimentConfig.from_dict``; a
malformed, non-finite or unknown value, and an unknown catalog entry or
bad ``entry_args``, is a config error.  Exit codes: 0 success,
1 criterion not met, 2 config/validation error, 3 semantic precondition
error, 4 numeric non-convergence, 5 internal error (any other exception,
reported in one line without a traceback).
"""

import argparse
import contextlib
import csv
import datetime
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import catalog
from .approximant import approximant_values, l2_error_on_window, \
    sup_error_on_compact
from .asymptotics import ContourSpec, check_growth_grid, \
    contour_identity_check, fit_growth_exponent
from .errors import DomainError, NonConvergence, PatilError
from .quadrature import QuadTolerance
from .quench import Interval, QuenchParams

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CRITERION = 1
EXIT_CONFIG = 2
EXIT_SEMANTIC = 3
EXIT_NUMERIC = 4
EXIT_INTERNAL = 5


class ConfigError(ValueError):
    pass


def _fmt(value):
    return format(value, ".17g")


DEFAULT_LAMBDA_GRID = list(np.logspace(1, 8, 8))
_CONFIG_KEYS = {"entry", "entry_args", "interval", "lambda_grid", "eval_points",
                "tolerances", "output_path", "format", "slope_tolerance",
                "window", "n_samples", "contour"}
# what converting a JSON value of the wrong type, shape or range raises
_BAD_VALUE = (ValueError, TypeError, IndexError, KeyError, AttributeError,
              OverflowError, PatilError)


def _read(raw, key, convert, default):
    """Convert ``raw[key]`` (``default`` if absent); failures name the key."""
    try:
        return convert(raw.get(key, default))
    except _BAD_VALUE as exc:
        raise ConfigError(f"bad {key}: {exc}") from None


def _known(raw, keys, name):
    """``raw``, once it is a JSON object with no key outside ``keys``."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{name} must be a JSON object")
    unknown = sorted(set(raw) - set(keys))
    if unknown:
        raise ConfigError(f"unknown {name} keys: {unknown}")
    return raw


def _finite(value):
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"need a finite number, got {value}")
    return value


def _tuple(value, convert=_finite):
    """A JSON list, converted element by element."""
    if not isinstance(value, list):
        raise TypeError(f"need a list, got {value!r}")
    return tuple(convert(v) for v in value)


def _interval(value):
    lo, hi = _tuple(value)
    return Interval(lo, hi)


def _point(value):
    """A real point, or a complex one given as [re, im]."""
    if isinstance(value, list):
        re, im = _tuple(value)
        return complex(re, im)
    return _finite(value)


def _section(value, name, schema):
    """The JSON object ``value``, each key converted as ``schema`` says.

    ``schema`` maps every known key to ``(converter, default)``.
    """
    params = _known(value, schema, name)
    return {key: _read(params, key, convert, default)
            for key, (convert, default) in schema.items()}


_TOLERANCES = {"abs_tol": (_finite, 1e-10), "rel_tol": (_finite, 1e-10),
               "max_subdivisions": (lambda v: int(_finite(v)), 4000)}
_CONTOUR = {"xi": (_tuple, [1.0]), "alpha": (_tuple, [2.0]),
            "R": (_finite, 20.0), "height": (_finite, 1.5 * math.pi),
            "residual_tolerance": (_finite, 1e-6)}


def _contour(value):
    """The ``contour`` section, converted, with R and height in its ``spec``."""
    contour = _section(value, "contour", _CONTOUR)
    spec = contour["spec"] = ContourSpec(R=contour.pop("R"),
                                         height=contour.pop("height"))
    for xi in contour["xi"]:
        for alpha in contour["alpha"]:
            spec.check(xi, alpha)
    return contour


@dataclass
class ExperimentConfig:
    entry_name: str
    interval: Interval
    lambda_grid: tuple
    eval_points: tuple
    tolerances: QuadTolerance
    output_path: str
    format: str
    entry_args: dict
    slope_tolerance: float
    window: Interval
    n_samples: int
    contour: dict

    @classmethod
    def from_dict(cls, raw, output_path=None, fmt=None):
        if "entry" not in _known(raw, _CONFIG_KEYS, "config"):
            raise ConfigError("config missing required key 'entry'")
        interval = _read(raw, "interval", _interval, [-1.0, 1.0])
        grid = _read(raw, "lambda_grid", _tuple, DEFAULT_LAMBDA_GRID)
        if not grid:
            raise ConfigError("lambda_grid must be nonempty")
        if any(v <= 0 for v in grid):
            raise ConfigError("lambda_grid values must be positive")
        if any(b <= a for a, b in zip(grid[:-1], grid[1:])):
            raise ConfigError("lambda_grid must be strictly increasing")
        pts = _read(raw, "eval_points", lambda v: _tuple(v, _point), [])
        guard = interval.guard
        for p in pts:
            z = complex(p)
            if abs(z.imag) < guard and min(abs(z.real - interval.lo),
                                           abs(z.real - interval.hi)) < guard:
                raise ConfigError(f"eval point {p} too close to interval endpoint")
        n_samples = int(_read(raw, "n_samples", _finite, 101))
        if n_samples < 1:
            raise ConfigError(f"n_samples must be >= 1, got {n_samples}")
        out_format = fmt or _read(raw, "format", str, "csv")
        if out_format not in ("csv", "json"):
            raise ConfigError(f"format must be 'csv' or 'json', got {out_format!r}")
        return cls(
            entry_name=_read(raw, "entry", str, None),
            interval=interval,
            lambda_grid=grid,
            eval_points=pts,
            tolerances=_read(raw, "tolerances", lambda v: QuadTolerance(
                **_section(v, "tolerances", _TOLERANCES)), {}),
            output_path=output_path or _read(raw, "output_path", os.fspath, "-"),
            format=out_format,
            entry_args=_read(raw, "entry_args", dict, {}),
            slope_tolerance=_read(raw, "slope_tolerance", _finite, 0.05),
            window=_read(raw, "window", _interval, [-5.0, 5.0]),
            n_samples=n_samples,
            contour=_read(raw, "contour", _contour, {}),
        )

    def build_entry(self):
        """The catalog entry; a bad name or ``entry_args`` is a ConfigError."""
        try:
            return catalog.get_entry(self.entry_name, interval=self.interval,
                                     **self.entry_args)
        except _BAD_VALUE as exc:
            raise ConfigError(f"bad entry or entry_args: {exc}") from None


def _load_config(args):
    with open(args.config) as fh:
        raw = json.load(fh)
    return ExperimentConfig.from_dict(raw, output_path=args.out,
                                      fmt=args.format)


def _write_rows(cfg, reproducible, header, rows):
    rows = [[_fmt(v) if isinstance(v, float) else v for v in row] for row in rows]
    stamp = datetime.datetime.now().isoformat()
    with (contextlib.nullcontext(sys.stdout) if cfg.output_path == "-"
          else open(cfg.output_path, "w", newline="")) as out:
        if cfg.format == "json":
            doc = {"schema_version": SCHEMA_VERSION, "columns": header, "rows": rows}
            if not reproducible:
                doc["generated"] = stamp
            json.dump(doc, out, indent=2)
            out.write("\n")
        else:
            if not reproducible:
                out.write(f"# generated {stamp}\n")
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)


def run_growth_experiment(cfg, reproducible=False):
    """Sweep |g_lambda| over the lambda grid at real exterior points."""
    entry = cfg.build_entry()
    for x in cfg.eval_points:
        if isinstance(x, complex) or not (
                x <= cfg.interval.lo or x >= cfg.interval.hi):
            raise ConfigError(
                f"growth eval points must be real and outside the closed "
                f"interval, got {x}")
    if not cfg.eval_points:
        raise ConfigError("growth experiment needs at least one eval point")
    try:
        check_growth_grid(cfg.lambda_grid)
    except DomainError as exc:
        raise ConfigError(f"bad lambda_grid: {exc}") from None

    # one row of magnitudes (one batch) per lambda, one column per eval point
    table = [[abs(v) for v in approximant_values(
        cfg.eval_points, QuenchParams(lam), cfg.interval, entry.signal,
        cfg.tolerances)] for lam in cfg.lambda_grid]
    slopes = [fit_growth_exponent(zip(cfg.lambda_grid, column))
              for column in zip(*table)]
    predicted = entry.expected_exponent
    rows = [(lam, x, mag, slope, predicted)
            for lam, mags in zip(cfg.lambda_grid, table)
            for x, mag, slope in zip(cfg.eval_points, mags, slopes)]
    _write_rows(cfg, reproducible,
                ["lambda", "x", "magnitude", "fitted_slope", "predicted_slope"],
                rows)
    ok = all(abs(slope - predicted) <= cfg.slope_tolerance for slope in slopes)
    return EXIT_OK if ok else EXIT_CRITERION


def run_convergence_experiment(cfg, reproducible=False):
    """Sup- and windowed-L2 error against the entry's reference F."""
    entry = cfg.build_entry()
    if entry.reference is None:
        raise DomainError(
            f"catalog entry {cfg.entry_name!r} has no reference")
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
    return EXIT_OK if ok else EXIT_CRITERION


def run_contour_check(cfg, reproducible=False):
    """Residue-identity residuals for configured (xi, alpha, R, height)."""
    signal = cfg.build_entry().signal
    # xi and alpha lists may come unsorted; rows are written sorted
    contour, spec = cfg.contour, cfg.contour["spec"]
    rows = sorted(
        (xi, alpha, spec.R, spec.height, contour_identity_check(
            signal.strip_pullback, xi, alpha, spec,
            signal.singularities, cfg.tolerances))
        for xi in contour["xi"] for alpha in contour["alpha"])
    _write_rows(cfg, reproducible,
                ["xi", "alpha", "R", "height", "residual"], rows)
    ok = all(r[4] < contour["residual_tolerance"] for r in rows)
    return EXIT_OK if ok else EXIT_CRITERION


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
        return runners[args.command](cfg, reproducible=args.reproducible)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NonConvergence as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except PatilError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    except Exception as exc:  # a fault of the program, not of the config
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
