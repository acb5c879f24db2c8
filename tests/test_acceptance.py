"""Acceptance gate: one test per release criterion.

Each test prints a single PASS/FAIL line naming the criterion, then
asserts.  Tolerances are pinned; do not loosen them.
"""

import cmath
import json
import math
import statistics
from pathlib import Path

import numpy as np

from patil.approximant import (
    approximant_boundary,
    approximant_interior,
    l2_error_on_window,
    sup_error_on_compact,
)
from patil.asymptotics import (
    ContourSpec,
    StripSingularity,
    contour_identity_check,
    fit_growth_exponent,
    residue_kernel_pole,
    residue_merged,
    residue_strip_pole,
)
from patil.catalog import example1, example2, h2_reference_pole
from patil.cli import EXIT_CONFIG, EXIT_OK, EXIT_SEMANTIC, main
from patil.quadrature import QuadTolerance, integrate_adaptive, pv_integrate
from patil.quench import Interval, QuenchParams, quench_boundary, quench_interior

PI = math.pi
SYM = Interval(-1.0, 1.0)
TOL = QuadTolerance()


def report(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


def quench_oracle(z, lam, interval):
    def integrand(t):
        return (1.0 + t * z) / ((t - z) * (1.0 + t * t))

    tol = QuadTolerance(abs_tol=1e-13, rel_tol=1e-13)
    exponent = integrate_adaptive(integrand, interval.lo, interval.hi, tol)
    return cmath.exp(-math.log1p(lam) / (2j * PI) * exponent)


def test_criterion_1_quench_oracle():
    """Closed-form quench vs direct quadrature, 100 random triples."""
    rng = np.random.default_rng(2024)
    ok = True
    for _ in range(100):
        lam = 10.0 ** rng.uniform(-2, 8)
        lo = rng.uniform(-3.0, 0.0)
        hi = lo + rng.uniform(0.2, 3.0)
        z = complex(rng.uniform(-3.0, 3.0), rng.uniform(0.05, 3.0))
        interval = Interval(lo, hi)
        value = quench_interior(z, QuenchParams(lam), interval)
        oracle = quench_oracle(z, lam, interval)
        ok = ok and abs(value - oracle) <= 1e-10 * abs(oracle)
    report("criterion 1: quench closed form matches defining integral "
           "to 1e-10 relative on 100 random triples", ok)


def test_criterion_2_boundary_limits():
    """Interior values approach the boundary formulas monotonically."""
    ys = (1e-1, 1e-2, 1e-3, 1e-4)
    xs = (-2.0, -0.4, 0.3, 0.7, 3.0)
    ok = True
    for lam in (10.0, 1e4):
        p = QuenchParams(lam)
        for x in xs:
            diffs = [abs(quench_interior(complex(x, y), p, SYM)
                         - quench_boundary(x, p, SYM)) for y in ys]
            ok = ok and all(b < a for a, b in zip(diffs[:-1], diffs[1:]))
        for entry in (example1(), example2()):
            for x in (0.3, 2.0):
                boundary = approximant_boundary(x, p, SYM, entry.signal, TOL)
                diffs = [abs(approximant_interior(complex(x, y), p, SYM,
                                                  entry.signal, TOL) - boundary)
                         for y in ys]
                ok = ok and all(b < a for a, b in zip(diffs[:-1], diffs[1:]))
    report("criterion 2: boundary limits of h_lambda and g_lambda are "
           "monotone in y over 1e-1..1e-4", ok)


def test_criterion_3_modulus_laws():
    """Quench modulus: unimodular outside, (1+lam)^(-1/2) inside, between
    those bounds in the interior."""
    rng = np.random.default_rng(99)
    ok = True
    for lam in (0.5, 3.0, 1e3, 1e7):
        p = QuenchParams(lam)
        inside = 1.0 / math.sqrt(1.0 + lam)
        for x in (-4.0, -1.5, 2.0, 10.0):
            ok = ok and abs(abs(quench_boundary(x, p, SYM)) - 1.0) < 1e-14
        for x in (-0.9, -0.2, 0.0, 0.6):
            ok = ok and abs(abs(quench_boundary(x, p, SYM)) - inside) < 1e-14
        for _ in range(25):
            z = complex(rng.uniform(-4, 4), rng.uniform(0.01, 4))
            h = abs(quench_interior(z, p, SYM))
            ok = ok and inside < h < 1.0
    report("criterion 3: quench modulus laws hold to machine precision "
           "on and off the interval", ok)


def test_criterion_4_convergence():
    """Approximant converges to the reference 1/(z+i) as lambda grows."""
    entry = h2_reference_pole(-1j)
    grid = [complex(x, y) for x in np.linspace(-0.5, 0.5, 5)
            for y in np.linspace(0.5, 1.5, 5)]
    window = Interval(-5.0, 5.0)
    sups, l2s = [], []
    for k in range(1, 7):
        p = QuenchParams(10.0 ** k)
        sups.append(sup_error_on_compact(grid, p, SYM, entry.signal,
                                         entry.reference, TOL))
        l2s.append(l2_error_on_window(p, SYM, entry.signal, entry.reference,
                                      window, 41, TOL))
    ok = all(b <= a for a, b in zip(sups[:-1], sups[1:]))
    ok = ok and all(b <= a for a, b in zip(l2s[:-1], l2s[1:]))
    ok = ok and sups[-1] < 0.5 * sups[0]
    report("criterion 4: sup and windowed-L2 errors vs 1/(z+i) are "
           "nonincreasing over lambda 10..1e6 with final sup < half initial",
           ok)


def test_criterion_5_bounded_case():
    """Semicircle data at x=2: fitted slope below 0.05 and bounded spread.

    Known red: the data's strip pole merges with the kernel pole on
    Im z = pi, contributing a residue that grows linearly in the quench
    rate, so |g_lambda(2)| grows like log(lambda) and the fitted slope
    over lambda in 10..1e8 sits near 0.2, not below 0.05.
    """
    entry = example1()
    grid = [10.0 ** k for k in range(1, 9)]
    mags = [abs(approximant_boundary(2.0, QuenchParams(lam), SYM,
                                     entry.signal, TOL)) for lam in grid]
    slope = fit_growth_exponent(list(zip(grid, mags)))
    spread_ok = max(mags) < 10.0 * statistics.median(mags)
    ok = abs(slope) < 0.05 and spread_ok
    report("criterion 5: bounded-case slope |p| < 0.05 and "
           "max < 10x median at x=2 for the semicircle signal "
           f"(slope={slope:.3f}, spread_ok={spread_ok})", ok)


def test_criterion_6_divergent_case():
    """Cauchy-type data at x=2: fitted slope 0.25 +/- 0.03."""
    entry = example2()
    grid = [10.0 ** k for k in range(2, 9)]
    mags = [abs(approximant_boundary(2.0, QuenchParams(lam), SYM,
                                     entry.signal, TOL)) for lam in grid]
    slope = fit_growth_exponent(list(zip(grid, mags)))
    ok = abs(slope - 0.25) <= 0.03
    report("criterion 6: divergent-case slope within 0.25 +/- 0.03 "
           f"at x=2 (slope={slope:.3f})", ok)


def test_criterion_7_residue_machinery():
    """Closed-form residues vs circle quadrature; contour identity."""
    ok = True
    pullback2 = example2().signal.strip_pullback
    for which, pole in (("at_ipi", 1j * PI),
                        ("at_ipi_plus_ln_alpha", 1j * PI + math.log(2.0))):
        closed = residue_kernel_pole(which, 1.0, 2.0, pullback2)
        ok = ok and abs(closed - residue_merged(pole, 1.0, 2.0, pullback2)) < 1e-8
    s = example2().signal.singularities[0]
    ok = ok and abs(residue_strip_pole(s, 1.0, 2.0)
                    - residue_merged(s.beta, 1.0, 2.0, pullback2)) < 1e-8
    synthetic = StripSingularity(beta=0.4 + 0.6j, order=1, coeff=1.0)
    ok = ok and abs(
        residue_strip_pole(synthetic, 0.8, 2.0)
        - residue_merged(synthetic.beta, 0.8, 2.0,
                         lambda z: 1.0 / (np.asarray(z, complex) - 0.4 - 0.6j),
                         radius=0.1)) < 1e-8

    ones = lambda z: np.ones_like(np.asarray(z, dtype=complex))
    ok = ok and contour_identity_check(
        ones, 1.0, 2.0, ContourSpec(20.0, 1.5 * PI)) < 1e-6
    residuals = [contour_identity_check(pullback2, 1.0, 2.0,
                                        ContourSpec(20.0, h),
                                        example2().signal.singularities)
                 for h in (1.1 * PI, 1.25 * PI, 1.5 * PI)]
    ok = ok and all(r < 1e-6 for r in residuals)
    report("criterion 7: closed-form residues match circle quadrature to "
           "1e-8 and contour residuals stay below 1e-6 across heights", ok)


def test_criterion_8_quadrature_oracle():
    """Stated closed-form values of the quadrature primitives."""
    checks = [
        (pv_integrate(lambda t: np.ones_like(np.asarray(t, float)),
                      -1.0, 1.0, 0.5, TOL), math.log(3.0), 1e-10),
        (integrate_adaptive(lambda t: np.sqrt(1.0 - t * t), -1.0, 1.0, TOL),
         PI / 2, 1e-9),
        (integrate_adaptive(lambda t: np.exp(1j * t), 0.0, PI, TOL).imag,
         2.0, 1e-12),
        (integrate_adaptive(lambda t: np.exp(1j * t), 0.0, PI, TOL).real,
         0.0, 1e-12),
        (integrate_adaptive(lambda t: 3.0 * t * t, 0.0, 1.0, TOL), 1.0, 1e-12),
        (pv_integrate(lambda t: np.asarray(t, float), -1.0, 1.0, 0.0, TOL),
         -2.0, 1e-10),
        (pv_integrate(lambda t: np.ones_like(np.asarray(t, float)),
                      -1.0, 1.0, 0.0, TOL), 0.0, 1e-10),
    ]
    ok = all(abs(complex(got).real - want) <= tol
             and abs(complex(got).imag) <= tol
             for got, want, tol in checks)
    report("criterion 8: quadrature closed-form examples (ln 3, pi/2, 2, "
           "0, 1, -2) reproduced within stated tolerances", ok)


def test_criterion_9_cli_determinism(tmp_path):
    """--reproducible outputs are bit-identical; exit codes observed."""
    ok = True

    def cfg(name, **body):
        body.setdefault("entry", "example2")
        path = tmp_path / name
        path.write_text(json.dumps(body))
        return str(path)

    growth_cfg = cfg("g.json", eval_points=[2.0],
                     lambda_grid=[10.0 ** k for k in range(2, 9)])
    conv_cfg = cfg("c.json", entry="h2pole", eval_points=[[0.0, 1.0]],
                   lambda_grid=[1e2, 1e4], window=[-2.0, 2.0], n_samples=11)
    cont_cfg = cfg("k.json", contour={"xi": [1.0], "alpha": [2.0]})
    for sub, config in (("growth", growth_cfg), ("converge", conv_cfg),
                        ("contour", cont_cfg)):
        outs = [str(tmp_path / f"{sub}{i}.csv") for i in (1, 2)]
        for out in outs:
            ok = ok and main([sub, "--config", config, "--out", out,
                              "--reproducible"]) == EXIT_OK
        ok = ok and Path(outs[0]).read_text() == Path(outs[1]).read_text()

    bad_grid = cfg("bad.json", eval_points=[2.0], lambda_grid=[])
    ok = ok and main(["growth", "--config", bad_grid]) == EXIT_CONFIG
    no_ref = cfg("noref.json", entry="example1", eval_points=[[0.0, 1.0]],
                 lambda_grid=[1e2, 1e4])
    ok = ok and main(["converge", "--config", no_ref]) == EXIT_SEMANTIC
    report("criterion 9: reproducible CLI runs are bit-identical and "
           "documented exit codes are observed", ok)
