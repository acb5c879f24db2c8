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
import gc
import io
import json
import math
import os
import sys
import types

from . import catalog
from .approximant import approximant_table, l2_error, sup_error, window_samples
from .asymptotics import ContourSpec, check_growth_grid, contour_residuals, \
    fit_growth_exponent
from .errors import DomainError, NonConvergence, PatilError
from .quadrature import QuadTolerance
from .quench import Interval

# perfbench/tracing.py wraps these names here; the runners do not call them
from .approximant import l2_error_on_window, sup_error_on_compact  # noqa: F401,E402
from .asymptotics import contour_identity_check  # noqa: F401,E402
from .quench import QuenchParams  # noqa: F401,E402

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CRITERION = 1
EXIT_CONFIG = 2
EXIT_SEMANTIC = 3
EXIT_NUMERIC = 4
EXIT_INTERNAL = 5


class ConfigError(ValueError):
    pass


# what converting a JSON value of the wrong type, shape or range raises
_BAD_VALUE = (ValueError, TypeError, IndexError, KeyError, AttributeError,
              OverflowError, PatilError)


def _section(value, name, schema):
    """The JSON object ``value``, each key converted as ``schema`` says.

    ``schema`` maps every known key to ``(converter, default)``; a
    ``None`` default marks a required key.  Failures name the key.
    """
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object")
    unknown = sorted(set(value) - set(schema))
    if unknown:
        raise ConfigError(f"unknown {name} keys: {unknown}")
    section = {}
    for key, (convert, default) in schema.items():
        if default is None and key not in value:
            raise ConfigError(f"{name} missing required key {key!r}")
        try:
            section[key] = convert(value.get(key, default))
        except _BAD_VALUE as exc:
            raise ConfigError(f"bad {key}: {exc}") from None
    return section


def _finite(value):
    """A finite JSON number (not a string or a boolean), as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"need a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"need a finite number, got {value}")
    return value


def _whole(value):
    """A count >= 1 with no fractional part, as an int (101.0 gives 101)."""
    number = _finite(value)
    if not number.is_integer() or number < 1:
        raise ValueError(f"need a whole number >= 1, got {number}")
    return int(number)


def _tuple(value, convert=_finite):
    """A JSON list, converted element by element."""
    if not isinstance(value, list):
        raise TypeError(f"need a list, got {value!r}")
    return tuple(convert(v) for v in value)


def _grid(value):
    """A nonempty, positive, strictly increasing list of lambdas."""
    grid = _tuple(value)
    if not grid or grid[0] <= 0 or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("need a nonempty, positive, strictly increasing "
                         f"list, got {list(grid)}")
    return grid


def _interval(value):
    lo, hi = _tuple(value)
    return Interval(lo, hi)


def _point(value):
    """A real point, or a complex one given as [re, im]."""
    if isinstance(value, list):
        re, im = _tuple(value)
        return complex(re, im)
    return _finite(value)


def _object(value):
    """A copy of the JSON object ``value``."""
    if not isinstance(value, dict):
        raise TypeError(f"need a JSON object, got {value!r}")
    return dict(value)


_TOLERANCES = {"abs_tol": (_finite, QuadTolerance.abs_tol),
               "rel_tol": (_finite, QuadTolerance.rel_tol),
               "max_subdivisions": (_whole, QuadTolerance.max_subdivisions)}
_CONTOUR = {"xi": (_tuple, [1.0]), "alpha": (_tuple, [2.0]),
            "R": (_finite, 20.0), "height": (_finite, ContourSpec.height),
            "residual_tolerance": (_finite, 1e-6)}


def _contour(value):
    """The ``contour`` section, converted, with a ``spec`` and (xi, alpha) ``cells``."""
    contour = _section(value, "contour", _CONTOUR)
    cells = contour["cells"] = [(xi, alpha) for xi in contour["xi"]
                                for alpha in contour["alpha"]]
    if not cells:
        raise ValueError("xi and alpha must be nonempty lists")
    spec = contour["spec"] = ContourSpec(R=contour.pop("R"),
                                         height=contour.pop("height"))
    for xi, alpha in cells:
        spec.check(xi, alpha)
    return contour


_CONFIG = {"entry": (str, None), "entry_args": (_object, {}),
           "interval": (_interval, [-1.0, 1.0]),
           "lambda_grid": (_grid, [10.0 ** k for k in range(1, 9)]),
           "eval_points": (lambda v: _tuple(v, _point), []),
           "tolerances": (lambda v: QuadTolerance(
               **_section(v, "tolerances", _TOLERANCES)), {}),
           "slope_tolerance": (_finite, 0.05),
           "window": (_interval, [-5.0, 5.0]), "n_samples": (_whole, 101),
           "contour": (_contour, {})}


class ExperimentConfig(types.SimpleNamespace):
    """A checked config: one attribute per ``_CONFIG`` key, with ``entry``
    named ``entry_name``."""

    @classmethod
    def from_dict(cls, raw):
        """The config ``raw``, every value checked and converted."""
        cfg = _section(raw, "config", _CONFIG)
        return cls(entry_name=cfg.pop("entry"), **cfg)

    def build_entry(self):
        """The catalog entry; a bad name or ``entry_args`` is a ConfigError."""
        try:
            return catalog.get_entry(self.entry_name, interval=self.interval,
                                     **self.entry_args)
        except _BAD_VALUE as exc:
            raise ConfigError(f"bad entry or entry_args: {exc}") from None


def _load_config(args):
    """The config file, once ``--out`` is known to be writable ("" is
    standard output, as "-" is)."""
    with open(args.config) as fh:
        cfg = ExperimentConfig.from_dict(json.load(fh))
    out = args.out = args.out or "-"
    folder = os.path.dirname(out) or "."  # checked before any cell is computed
    if out != "-" and (os.path.isdir(out) or not os.path.isdir(folder) or not
                       os.access(out if os.path.exists(out) else folder, os.W_OK)):
        raise ConfigError(f"cannot write output file {out!r}")
    return cfg


def _write(path, text):
    """``text`` to ``path``, "-" for standard output, flushed; a closed pipe
    or a full device fails here, not at exit, as one line on stderr and
    EXIT_CONFIG.  None on success."""
    try:
        with (contextlib.nullcontext(sys.stdout) if path == "-"
              else open(path, "w", newline="")) as out:
            out.write(text)
            out.flush()
    except OSError as exc:
        if path == "-":  # closing it drops the text exit would retry
            with contextlib.suppress(OSError):
                sys.stdout.close()
        print(f"cannot write output {path!r}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_CONFIG
    return None


def _format_rows(args, header, rows):
    """The rows as the text of the output file, in ``--format``."""
    rows = [[format(v, ".17g") if isinstance(v, float) else v for v in r] for r in rows]
    stamp = datetime.datetime.now().isoformat()
    out = io.StringIO(newline="")
    if args.format == "json":
        doc = {"schema_version": SCHEMA_VERSION, "columns": header, "rows": rows}
        if not args.reproducible:
            doc["generated"] = stamp
        json.dump(doc, out, indent=2)
        out.write("\n")
    else:
        if not args.reproducible:
            out.write(f"# generated {stamp}\n")
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return out.getvalue()


def _eval_points(cfg, in_domain, domain):
    """``cfg.eval_points``: nonempty, each ``in_domain`` however near an endpoint."""
    if not cfg.eval_points:
        raise ConfigError("need at least one eval point")
    for p in cfg.eval_points:
        if not in_domain(p):
            raise ConfigError(f"eval points must be {domain}, got {p}")
    return cfg.eval_points


def run_growth_experiment(cfg):
    """Sweep |g_lambda| over the lambda grid at real exterior points."""
    entry = cfg.build_entry()
    lo, hi = cfg.interval.lo, cfg.interval.hi
    points = _eval_points(cfg, lambda x: not (isinstance(x, complex) or lo <= x <= hi),
                          "real and outside the closed interval")
    try:
        check_growth_grid(cfg.lambda_grid)
    except DomainError as exc:
        raise ConfigError(f"bad lambda_grid: {exc}") from None

    # one row of magnitudes per lambda, one column per eval point
    table = [[abs(v) for v in row] for row in approximant_table(
        points, cfg.lambda_grid, cfg.interval, entry.signal, cfg.tolerances)]
    slopes = [fit_growth_exponent(zip(cfg.lambda_grid, column))
              for column in zip(*table)]
    predicted = entry.expected_exponent
    rows = [(lam, x, mag, slope, predicted)
            for lam, mags in zip(cfg.lambda_grid, table)
            for x, mag, slope in zip(points, mags, slopes)]
    ok = all(abs(slope - predicted) <= cfg.slope_tolerance for slope in slopes)
    return (["lambda", "x", "magnitude", "fitted_slope", "predicted_slope"],
            rows, ok)


def run_convergence_experiment(cfg):
    """Sup- and windowed-L2 error against the entry's reference F."""
    entry = cfg.build_entry()
    if entry.reference is None:
        raise DomainError(
            f"catalog entry {cfg.entry_name!r} has no reference")
    pts = [complex(p) for p in _eval_points(
        cfg, lambda z: z.imag > 0, "in Im z > 0")]

    # one table for the eval points and the window samples together
    samples = window_samples(cfg.interval, cfg.window, cfg.n_samples)
    table = approximant_table(pts + list(samples), cfg.lambda_grid, cfg.interval,
                              entry.signal, cfg.tolerances)
    ref, n = entry.reference, len(pts)
    rows = [(lam, sup_error(row[:n], pts, ref),
             l2_error(row[n:], samples, ref, cfg.window))
            for lam, row in zip(cfg.lambda_grid, table)]
    sups = [r[1] for r in rows]
    l2s = [r[2] for r in rows]
    ok = all(b <= a for a, b in zip(sups[:-1], sups[1:])) and \
        all(b <= a for a, b in zip(l2s[:-1], l2s[1:]))
    return ["lambda", "sup_error", "l2_error"], rows, ok


def run_contour_check(cfg):
    """Residue-identity residuals for configured (xi, alpha, R, height)."""
    signal = cfg.build_entry().signal
    # xi and alpha lists may come unsorted; rows are written sorted
    contour, spec = cfg.contour, cfg.contour["spec"]
    residuals = contour_residuals(signal.strip_pullback, contour["cells"], spec,
                                  signal.singularities, cfg.tolerances)
    rows = sorted((xi, alpha, spec.R, spec.height, r)
                  for (xi, alpha), r in zip(contour["cells"], residuals))
    ok = all(r[4] < contour["residual_tolerance"] for r in rows)
    return ["xi", "alpha", "R", "height", "residual"], rows, ok


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
        p.add_argument("--out", default="-")
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--reproducible", action="store_true")
    cat = sub.add_parser("catalog", help="catalog utilities")
    cat.add_argument("action", choices=["list"])
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "catalog":
        return _write("-", "".join(f"{name}\n" for name in catalog.entry_names())) \
            or EXIT_OK
    runners = {"growth": run_growth_experiment,
               "converge": run_convergence_experiment,
               "contour": run_contour_check}
    try:
        cfg = _load_config(args)
        header, rows, criterion_met = runners[args.command](cfg)
        text = _format_rows(args, header, rows)
        return _write(args.out, text) or \
            (EXIT_OK if criterion_met else EXIT_CRITERION)
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


def run():
    """``main()`` as a process: what the imports made is frozen, so exit skips it."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
