"""Patil approximants g_lambda built from boundary data on an interval.

g_lambda weighs the data with the conjugate quench phase and applies a
Cauchy integral over I.  After the tanh change of variable the quench
oscillation is a pure linear phase ``exp(i xi u)``.  When the signal
declares the period of its pullback, g_lambda is by default a finite sum
of residues over one period strip, in closed form.  Otherwise, and as
the cross-checks ``method="u"`` and ``"t"``, the integral is evaluated by
G7/K15 batches in the u-domain, one batch per point for every lambda, or
directly in the t-domain; each caches the lambda-free parts of a panel's
nodes once and computes a phase once per xi.  All of it is plain Python.
"""

import cmath
import functools
import math
from dataclasses import dataclass

from .asymptotics import STRIP_TOP, kernel_k, residue_terms
from .errors import DomainError
from .quadrature import (
    DecayCertificate,
    QuadTolerance,
    _nodes,
    _rows,
    integrate_real_line,  # noqa: F401 -- perfbench/tracing.py wraps it here
    integrate_rows,
    pv_integrate,  # noqa: F401 -- perfbench/tracing.py wraps it here
)
from .quench import Interval, _quench_exponent, xi_of_lambda
from .quench import phase_G  # noqa: F401 -- perfbench/tracing.py wraps it
from .quench import quench_interior  # noqa: F401 -- perfbench/tracing.py wraps it

__all__ = [
    "BoundarySignal",
    "approximant_table",
    "approximant_values",
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
    """Boundary data g on I, optionally with analytic strip metadata.

    ``eval_on_I`` is a function of one real number.  ``decay_cert`` bounds
    the data pulled back through the tanh map,
    ``|g(c + r tanh(u/2))| <= bound_M exp(delta |u|)``, which fixes
    where the u-integral is truncated.  ``strip_pullback``, when
    present, analytically extends the pullback of g through the tanh
    map to the strip ``0 <= Im z <= 3 pi / 2``; ``singularities`` lists
    its poles there, ``0 < Im z <= 3 pi / 2``.  A ``period`` T, a
    multiple of 2 pi, declares p(z + iT) = p(z) for the tanh map of
    ``interval``: then the pullback takes any complex number, and
    ``singularities`` lists every pole with 0 < Im z < T.
    """

    eval_on_I: callable
    decay_cert: DecayCertificate
    strip_pullback: callable = None
    singularities: tuple = ()
    period: float = None
    interval: Interval = None

    def __post_init__(self):
        top = STRIP_TOP
        if self.period is not None:
            sheets = round(self.period / (2.0 * math.pi))
            if not (sheets >= 1 and self.period == sheets * 2.0 * math.pi
                    and self.strip_pullback and self.interval):
                raise DomainError(f"a period must be a multiple of 2 pi, with a "
                                  f"pullback and its interval, got {self.period!r}")
            top = math.nextafter(self.period, 0.0)
        for s in self.singularities:
            if not complex(s.beta).imag <= top:
                raise DomainError(f"need Im beta <= {top!r}, got beta={s.beta}")


def _cell(lam, z, piece):
    """The cell of the ``piece`` integral of g_lambda at ``z``: lambda, the
    point and the piece."""
    z = complex(z)
    point = f"x={z.real!r}" if z.imag == 0 else f"z={z!r}"
    return f"g_lambda at lambda={float(lam)!r}, {point}, {piece} integral"


def _cauchy_weighted_u(zs, lams, interval, signal, tol):
    """int_I exp(i xi ln((t - lo)/(hi - t))) g(t) / (t - z) dt, exp(-iG(t))
    without its constant (see ``_quench_exponent``), for each z of ``zs``:
    per z, a list with one value per lambda of ``lams``.

    Under the tanh substitution ``t = interval.from_u(u)`` the phase becomes
    exactly ``exp(i xi u)``, and with
    ``alpha = (z - lo)/(z - hi)`` (complex above I, > 0 beside I, < 0 inside
    I) ``t - z = (hi - z)(e^u + alpha)/(e^u + 1)``, so the Jacobian over
    ``t - z`` is ``K(u) = 2 r k(u, 0, alpha) / (hi - z)``, k of :func:`kernel_k`.
    Each z is one ``integrate_rows`` call on ``exp(i xi u) g(t(u)) K(u)``
    over [-U, U], one integral per xi; a panel's nodes, K(u) and g(t(u))
    K(u) are computed once for every xi.  A real x inside I takes the
    limit from above: with ``v = Log(-alpha) = interval.to_u(x)``,
    ``w(u) = exp(i xi u) g(t(u))`` and
    ``K = cosh(v/2) / (2 cosh(u/2) sinh((u - v)/2))``, whose principal
    value is -v, it is ``int (w - w(v)) K du + (i pi - v) w(v)``, the
    integral split at v so that no node lands on it.
    Tail: for ``|u| >= |v| + 2``, ``|u - v| >= 2``, so ``|sinh((u - v)/2)|
    >= (1 - e^-2) e^{|u - v|/2} / 2``; with ``cosh(u/2) >= e^{|u|/2} / 2``,
    ``cosh(v/2) <= e^{|v|/2}`` and ``|u - v| >= |u| - |v|``, ``|K| < 3
    e^{|v| - |u|}``.  As ``|w(u) - w(v)| <= 2 M e^{delta (|u| + |v|)}`` for
    ``|g(t(u))| <= M e^{delta |u|}``, the integrand is below
    ``6 M e^{(1 + delta)|v|} e^{(delta - 1)|u|}``.
    """
    c, r = interval.center, interval.half_width
    g = signal.eval_on_I
    cert = signal.decay_cert
    xis = [xi_of_lambda(lam) for lam in lams]

    def cut(bound):
        return DecayCertificate(cert.delta, bound).truncation_point(tol.abs_tol)

    columns = []
    for z in zs:
        alpha = (z - interval.lo) / (z - interval.hi)
        scale = 2.0 * r / (interval.hi - z)
        if z.imag == 0 and interval.contains(z.real):
            v = interval.to_u(z.real)
            gv = complex(g(z.real))
            u_max = max(abs(v) + 2.0, cut(6.0 * cert.bound_M * math.exp(
                (1.0 + cert.delta) * abs(v))))
            ends = [-u_max, v, u_max]
            at_v = [cmath.exp(1j * xi * v) for xi in xis]
        else:
            v = None
            dist = math.hypot(max(abs(z.real - c) - r, 0.0), z.imag)
            u_max = cut(2.0 * r * cert.bound_M / dist)
            ends = [-u_max, u_max]
        n = len(ends) - 1  # pieces per lambda; integral m belongs to lambda m // n

        @functools.cache
        def panel(a, b):
            # the nodes u, and per node K(u) and g(t(u)) K(u)
            us = _nodes(a, b)
            kernels = [scale * kernel_k(u, 0.0, alpha) for u in us]
            return us, kernels, [g(interval.from_u(u)) * k for u, k in zip(us, kernels)]

        def row(m, a, b):
            us, kernels, data = panel(a, b)
            xi = xis[m // n]
            waves = [cmath.exp(1j * xi * u) * d for u, d in zip(us, data)]
            if v is None:
                return waves
            return [w - at_v[m // n] * (gv * k) for w, k in zip(waves, kernels)]
        piece = "u" if v is None else "u-PV"
        pieces = integrate_rows(_rows(row), ends[:-1] * len(lams), ends[1:] * len(lams),
                                tol, [8] * (n * len(lams)),
                                lambda m: _cell(lams[m // n], z, piece))
        sums = [sum(pieces[m * n:(m + 1) * n]) for m in range(len(lams))]
        if v is not None:
            sums = [s + (1j * math.pi - v) * phase * gv for s, phase in zip(sums, at_v)]
        columns.append(sums)
    return columns


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

    The u-integrand of ``_cauchy_weighted_u`` is f(u) = e^{i xi u} Q(u),
    Q(u) = (2r/(hi - z)) k(u, 0, alpha) p(u).  With p of period iT,
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


def _cauchy_weighted_t(zs, lams, interval, signal, tol):
    """Same integrals, evaluated directly in the t variable (oracle path):
    the integrand is exp(i xi ln((t - lo)/(hi - t))) g(t) / (t - z).  A
    panel's nodes, logarithms and data are computed once, and their phase
    times the data once per xi, for every point."""
    g = signal.eval_on_I
    lo, hi = interval.lo, interval.hi
    # integral k is lambda k // n at point k % n
    n = len(zs)
    xis = [xi_of_lambda(lam) for lam in lams]
    count = n * len(lams)

    @functools.cache
    def panel(a, b):
        ts = _nodes(a, b)
        return ts, [math.log((t - lo) / (hi - t)) for t in ts], [g(t) for t in ts]

    @functools.cache
    def weighted(a, b, xi):
        _, logs, data = panel(a, b)
        return [cmath.exp(1j * xi * log) * d for log, d in zip(logs, data)]

    def row(k, a, b):
        z = zs[k % n]
        return [w / (t - z) for w, t in zip(weighted(a, b, xis[k // n]), panel(a, b)[0])]

    values = integrate_rows(_rows(row), [lo] * count, [hi] * count, tol, [8] * count,
                            lambda k: _cell(lams[k // n], zs[k % n], "t"))
    return [values[j::n] for j in range(n)]


def approximant_table(points, lambdas, interval, signal, tol=QuadTolerance(),
                      method=None):
    """g_lambda at each point of the closed upper half plane, for each lambda:
    one row (a list) per lambda of ``lambdas``, one value per point.

    ``Interval.point`` admits each point: finite, in Im z > 0 or real, and over
    1e-300 (hi - lo) from each endpoint; a real point gets the boundary
    trace, inside I the limit from above.  By default a signal that declares
    the period of its pullback for this ``interval`` gets the residue sum
    over one period strip, exact and without quadrature (``tol`` unused); any
    other signal, and ``method`` "u", gets one u-domain Cauchy integral per
    point and lambda, each point one G7/K15 batch for every lambda.
    ``method`` "t", the dual-path oracle, integrates in t instead and takes
    points with Im z > 0 only.  Each row is what its lambda alone gives.
    """
    paths = {"u": _cauchy_weighted_u, "t": _cauchy_weighted_t}
    if method is not None and method not in paths:
        raise DomainError(f'method must be None, "u" or "t", got {method!r}')
    # a real point as complex(x, 0.0): h_lambda takes its limit from above
    zs = [interval.point(z, interior=(method == "t")) for z in points]
    lams = [float(lam) for lam in lambdas]
    live = [k for k, lam in enumerate(lams) if lam != 0]
    live_lams = [lams[k] for k in live]
    if method is None and signal.period is not None and signal.interval == interval:
        columns = _residue_columns(zs, live_lams, interval, signal)
    else:
        integrals = paths[method or "u"](zs, live_lams, interval, signal, tol)
        columns = []
        for z, column in zip(zs, integrals):
            exponent = _quench_exponent(z, interval)
            columns.append([lam * cmath.exp(1j * xi_of_lambda(lam) * exponent)
                            / (2j * math.pi) * integral / math.sqrt(1.0 + lam)
                            for lam, integral in zip(live_lams, column)])
    table = [[0.0 + 0.0j] * len(zs) for _ in lams]
    for j, column in enumerate(columns):
        for k, value in zip(live, column):
            table[k][j] = value
    return table


def approximant_values(points, params, interval, signal, tol=QuadTolerance(),
                       method=None):
    """g_lambda at each point, as a list: the table of one lambda
    (see approximant_table)."""
    return approximant_table(points, [params.lam], interval, signal, tol,
                             method)[0]


def approximant_interior(z, params, interval, signal, tol=QuadTolerance(),
                         method=None):
    """g_lambda at a point of the open upper half plane (see approximant_table)."""
    return approximant_values([interval.point(z, interior=True)], params, interval,
                              signal, tol, method)[0]


def approximant_boundary(x, params, interval, signal, tol=QuadTolerance()):
    """Boundary trace of g_lambda at one real point (see approximant_table)."""
    return approximant_values([x], params, interval, signal, tol)[0]


def window_samples(interval, window, n_samples):
    """The L2 sample points, as a list: equispaced over the window, as
    numpy's ``linspace`` places them (``lo + i * step``, the last at
    ``hi``), and nudged off the interval endpoints by the quadrature guard
    margin."""
    lo, hi, guard = window.lo, window.hi, interval.guard
    step = (hi - lo) / (n_samples - 1) if n_samples > 1 else 0.0
    pts = [lo + i * step for i in range(n_samples)]
    if n_samples > 1:
        pts[-1] = hi
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
    return sup_error(approximant_values(pts, params, interval, signal, tol),
                     pts, ref)


def l2_error_on_window(params, interval, signal, ref, window, n_samples,
                       tol=QuadTolerance()):
    """Discrete L2 norm of (g_lambda - F) over a real window, at its
    ``window_samples``."""
    pts = window_samples(interval, window, n_samples)
    return l2_error(approximant_values(pts, params, interval, signal, tol),
                    pts, ref, window)
