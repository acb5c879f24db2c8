"""Patil approximants g_lambda built from boundary data on an interval.

g_lambda weighs the data with the conjugate quench phase and applies a
Cauchy integral over I.  After the tanh change of variable the quench
oscillation is a pure linear phase ``exp(i xi u)``, and the signal's
pullback has a declared period, so g_lambda is a finite sum of residues
over one period strip, in closed form.  The cross-check ``method="t"``
evaluates the integral in the t-domain instead, one adaptive G7/K15
integral per (point, lambda) cell, caching the lambda-free parts of a
panel's nodes once and computing a phase once per xi.  All of it is
plain Python.
"""

import cmath
import functools
import math
from dataclasses import dataclass

from .asymptotics import residue_terms
from .errors import DomainError
from .quadrature import (
    QuadTolerance,
    _linspace,
    _nodes,
    integrate_panels,
    integrate_real_line,  # noqa: F401 -- perfbench/tracing.py wraps it here
    pv_integrate,  # noqa: F401 -- perfbench/tracing.py wraps it here
)
from .quench import Interval, _quench_exponent, xi_of_lambda
from .quench import phase_G  # noqa: F401 -- perfbench/tracing.py wraps it
from .quench import quench_interior  # noqa: F401 -- perfbench/tracing.py wraps it

__all__ = [
    "BoundarySignal",
    "approximant_table",
    "approximant_interior",
    "approximant_boundary",
    "window_samples",
    "sup_error",
    "l2_error",
    "sup_error_on_compact",
    "l2_error_on_window",
]


@dataclass(frozen=True)
class BoundarySignal:
    """Boundary data g on I with the analytic metadata of its pullback.

    ``eval_on_I`` is a function of one real number.  ``strip_pullback``
    analytically extends the pullback of g through the tanh map of
    ``interval``, p(z) = g(c + r tanh(z/2)), to any complex number; its
    ``period`` T, a multiple of 2 pi, declares p(z + iT) = p(z), and
    ``singularities`` lists every pole of p with 0 < Im z < T.
    """

    eval_on_I: callable
    strip_pullback: callable
    period: float
    interval: Interval
    singularities: tuple = ()

    def __post_init__(self):
        sheets = round(self.period / (2.0 * math.pi))
        if not (sheets >= 1 and self.period == sheets * 2.0 * math.pi):
            raise DomainError(f"a period must be a multiple of 2 pi, got {self.period!r}")
        top = math.nextafter(self.period, 0.0)
        for s in self.singularities:
            if not complex(s.beta).imag <= top:
                raise DomainError(f"need Im beta <= {top!r}, got beta={s.beta}")


def _expm1(z):
    """``e^z - 1`` for a complex ``z``, without cancellation near 0."""
    return complex(math.expm1(z.real) * math.cos(z.imag)
                   - 2.0 * math.sin(0.5 * z.imag) ** 2, math.exp(z.real) * math.sin(z.imag))


def _residue_sum(terms, period, lam):
    """g_lambda at one lambda from a point's ``terms`` (see ``_residue_columns``)."""
    xi = xi_of_lambda(lam)
    # ln(lambda / (sqrt(1 + lambda) (1 - e^{-xi T}))), xi T without underflow
    log_scale = math.log(lam) - 0.5 * math.log1p(lam) \
        - math.log(-math.expm1(-math.log1p(lam) * period / (2.0 * math.pi)))
    if xi * max(abs(phase) for phase, _ in terms) > 1.0:
        return sum(cmath.exp(1j * xi * phase + log_scale) * weight
                   for phase, weight in terms)
    # the weights sum to 0 (at xi = 0 the strip's top and bottom cancel), so
    # at small xi each term keeps only its e^{i xi phase} - 1
    return math.exp(log_scale) * sum(_expm1(1j * xi * phase) * weight
                                     for phase, weight in terms)


def _residue_columns(zs, lams, interval, signal):
    """g_lambda at each z of ``zs`` by the residue sum over one period strip:
    per z, a list with one value per lambda of ``lams``.

    Under ``t = interval.from_u(u)`` the phase exp(i xi ln((t - lo)/(hi - t)))
    is exactly e^{i xi u}, and with alpha = (z - lo)/(z - hi) (complex above
    I, > 0 beside I, < 0 inside I) t - z = (hi - z)(e^u + alpha)/(e^u + 1),
    so the Cauchy integral over I (see ``_t_columns``) is int_R f,
    f(u) = e^{i xi u} Q(u), Q(u) = (2r/(hi - z)) k(u, 0, alpha) p(u), k of
    ``asymptotics.kernel_k`` and p the pullback.  With p of period iT,
    f(u + iT) = e^{-xi T} f(u), and Q decays like e^{-|u|}; so
    (1 - e^{-xi T}) int_R f = 2 pi i times the sum of the residues of f
    with 0 <= Im u < T, a pole on the real line (x inside I) counting as
    just above it, and
    g = lambda e^{i xi E} sum res / (sqrt(1 + lambda) (1 - e^{-xi T})).
    ``asymptotics.residue_terms`` lists them from alpha, its u0 =
    Log(-alpha) being the pole with t(u0) = z, where E + u0 is i pi
    exactly, and builds a point's terms once per min(0.1, 1/xi).  Each term
    has its own exponential, so nothing overflows; where xi |E + u| <= 1
    for every term, e^{i xi (E + u)} - 1 stands for it, as the residues of
    Q sum to 0, so small lambdas keep their digits.
    """
    columns = []
    for z in zs:
        alpha = (z - interval.lo) / (z - interval.hi)
        scale = 2.0 * interval.half_width / (interval.hi - z)
        terms = residue_terms(signal.strip_pullback, alpha, scale,
                              signal.singularities, signal.period,
                              e=_quench_exponent(z, interval), e_u0=1j * math.pi)
        columns.append([_residue_sum(terms(xi_of_lambda(lam)), signal.period, lam)
                        for lam in lams])
    return columns


def _t_columns(zs, lams, interval, signal, tol):
    """g_lambda at each z of ``zs`` with Im z > 0 by G7/K15 quadrature in t
    (the oracle path): per z, a list with one value per lambda of ``lams``.

    g = c int_I exp(i xi ln((t - lo)/(hi - t))) g(t) / (t - z) dt, the
    integral being exp(-iG(t)) without its constant (see
    ``_quench_exponent``) and c = lambda e^{i xi E(z)} / (2 pi i
    sqrt(1 + lambda)).  Each (z, lambda) cell is one integral of c times
    that integrand, so ``tol`` acts in g's units.  A panel's nodes,
    logarithms and data are computed once, and their phase times the data
    once per xi, for every point."""
    g = signal.eval_on_I
    lo, hi = interval.lo, interval.hi

    @functools.cache
    def panel(a, b):
        ts = _nodes(a, b)
        return ts, [math.log((t - lo) / (hi - t)) for t in ts], [g(t) for t in ts]

    @functools.cache
    def weighted(a, b, xi):
        _, logs, data = panel(a, b)
        return [cmath.exp(1j * xi * log) * d for log, d in zip(logs, data)]

    def cell(z, exponent, lam):
        xi = xi_of_lambda(lam)
        c = lam * cmath.exp(1j * xi * exponent) / (2j * math.pi * math.sqrt(1.0 + lam))

        def row(a, b):
            return [c * w / (t - z) for w, t in zip(weighted(a, b, xi), panel(a, b)[0])]
        return integrate_panels(row, lo, hi, tol, 8,
                                f"g_lambda at lambda={lam!r}, z={z!r}, t integral")

    columns = []
    for z in zs:
        exponent = _quench_exponent(z, interval)
        columns.append([cell(z, exponent, lam) for lam in lams])
    return columns


def approximant_table(points, lambdas, interval, signal, tol=QuadTolerance(),
                      method=None):
    """g_lambda at each point of the closed upper half plane, for each lambda:
    one row (a list) per lambda of ``lambdas``, one value per point.

    ``Interval.point`` admits each point: finite, in Im z > 0 or real, and over
    1e-300 (hi - lo) from each endpoint; a real point gets the boundary
    trace, inside I the limit from above.  By default g_lambda is the
    residue sum over one period strip, exact and without quadrature (``tol``
    unused); it needs the ``interval`` the signal's metadata belongs to.
    ``method`` "t", the dual-path oracle, integrates in t instead, on any
    interval, and takes points with Im z > 0 only.  Each row is what its
    lambda alone gives.
    """
    if method not in (None, "t"):
        raise DomainError(f'method must be None or "t", got {method!r}')
    if method is None and signal.interval != interval:
        raise DomainError(f"the signal's period and poles belong to "
                          f"{signal.interval}, got {interval}")
    # a real point as complex(x, 0.0): h_lambda takes its limit from above
    zs = [interval.point(z, interior=(method == "t")) for z in points]
    lams = [float(lam) for lam in lambdas]
    live = [k for k, lam in enumerate(lams) if lam != 0]
    live_lams = [lams[k] for k in live]
    if method is None:
        columns = _residue_columns(zs, live_lams, interval, signal)
    else:
        columns = _t_columns(zs, live_lams, interval, signal, tol)
    table = [[0.0 + 0.0j] * len(zs) for _ in lams]
    for j, column in enumerate(columns):
        for k, value in zip(live, column):
            table[k][j] = value
    return table


def approximant_interior(z, params, interval, signal, tol=QuadTolerance(),
                         method=None):
    """g_lambda at a point of the open upper half plane (see approximant_table)."""
    return approximant_table([interval.point(z, interior=True)], [params.lam],
                             interval, signal, tol, method)[0][0]


def approximant_boundary(x, params, interval, signal, tol=QuadTolerance()):
    """Boundary trace of g_lambda at one real point (see approximant_table)."""
    return approximant_table([x], [params.lam], interval, signal, tol)[0][0]


def window_samples(interval, window, n_samples):
    """The L2 sample points, as a list: ``n_samples`` equispaced over the
    window (``quadrature._linspace``), nudged off the interval endpoints by
    the quadrature guard margin."""
    guard = interval.guard
    pts = _linspace(window.lo, window.hi, n_samples)
    for end in (interval.lo, interval.hi):
        pts = [end + 2.0 * guard * (1.0 if p >= end else -1.0)
               if abs(p - end) < guard else p for p in pts]
    return pts


def _deviations(values, pts, ref):
    """|g_lambda - F| at each of ``pts``, as a list, the reference called
    once per point; no points is a DomainError."""
    if len(pts) == 0:
        raise DomainError("an error measure needs at least one point")
    return [abs(v - ref(p)) for v, p in zip(values, pts)]


def sup_error(values, pts, ref):
    """Max deviation of the g_lambda ``values`` at ``pts`` from the reference
    F; NaN if any value or reference is NaN."""
    deviations = _deviations(values, pts, ref)
    # max() keeps or drops a NaN by where it sits
    return math.nan if any(map(math.isnan, deviations)) else float(max(deviations))


def l2_error(values, pts, ref, window):
    """Discrete L2 norm over ``window`` of (g_lambda - F), given the g_lambda
    ``values`` at its ``window_samples`` ``pts``; NaN propagates."""
    total = math.fsum(d * d for d in _deviations(values, pts, ref))
    return math.sqrt((window.hi - window.lo) * total / len(pts))


def sup_error_on_compact(pts, params, interval, signal, ref,
                         tol=QuadTolerance()):
    """Max deviation of g_lambda from the reference F at points with Im z > 0."""
    for z in pts:
        interval.point(z, interior=True)
    return sup_error(approximant_table(pts, [params.lam], interval, signal, tol)[0],
                     pts, ref)


def l2_error_on_window(params, interval, signal, ref, window, n_samples,
                       tol=QuadTolerance()):
    """Discrete L2 norm of (g_lambda - F) over a real window, at its
    ``window_samples``."""
    pts = window_samples(interval, window, n_samples)
    return l2_error(approximant_table(pts, [params.lam], interval, signal, tol)[0],
                    pts, ref, window)
