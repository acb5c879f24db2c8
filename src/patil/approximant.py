"""Patil approximants g_lambda built from boundary data on an interval.

g_lambda weighs the data with the conjugate quench phase and applies a
Cauchy integral over I.  The integral is evaluated by default in the
u-domain, after the tanh change of variable that straightens the
quench oscillation into a pure linear phase ``exp(i xi u)``, by a strip
trapezoid rule whose nodes every lambda shares; the direct t-domain
evaluation is retained as an independent oracle.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import kernel_k
from .errors import DomainError, NonConvergence, in_cell
from .quadrature import (
    DecayCertificate,
    QuadTolerance,
    integrate_batch,
    integrate_real_line,  # noqa: F401 -- perfbench/tracing.py wraps it here
    pv_integrate,  # noqa: F401 -- perfbench/tracing.py wraps it here
    strip_trapezoid,
)
from .quench import _quench_exponent, xi_of_lambda
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

    ``eval_on_I`` must accept numpy arrays.  ``decay_cert`` bounds the
    data pulled back through the tanh map,
    ``|g(c + r tanh(u/2))| <= bound_M exp(delta |u|)``, which fixes
    where the u-integral is truncated.  ``strip_pullback``, when
    present, analytically extends the pullback of g through the tanh
    map to the strip ``0 <= Im z <= 3 pi / 2``; ``singularities`` lists
    its poles there, ``0 < Im z <= 3 pi / 2``.  ``strip_below`` is the
    distance (> 0, pi by default) below the real line to the pullback's
    nearest singularity.  Listed poles and ``strip_below`` set the
    trapezoid step of the u-path.
    """

    eval_on_I: callable
    decay_cert: DecayCertificate
    strip_pullback: callable = None
    singularities: tuple = ()
    strip_below: float = math.pi

    def __post_init__(self):
        if not self.strip_below > 0:
            raise DomainError(f"need strip_below > 0, got {self.strip_below!r}")


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
    Each z is one ``strip_trapezoid`` call on ``g(t(u)) K(u)``, its strip
    bounded by K's poles off the real line, the data's listed singularities
    and ``strip_below``.  A real x inside I takes the limit from above: with
    ``v = Log(-alpha) = interval.to_u(x)``, ``w(u) = exp(i xi u) g(t(u))``
    and ``K = cosh(v/2) / (2 cosh(u/2) sinh((u - v)/2))``, whose principal
    value is -v, it is ``int (w - w(v)) K du + (i pi - v) w(v)``.
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
    above = min([math.pi] + [complex(s.beta).imag for s in signal.singularities])
    below = min(math.pi, signal.strip_below)

    def cut(bound):
        return DecayCertificate(cert.delta, bound).truncation_point(tol.abs_tol)

    columns = []
    for z in zs:
        alpha = (z - interval.lo) / (z - interval.hi)
        if z.imag == 0 and interval.contains(z.real):
            v = interval.to_u(z.real)
            gv = complex(g(z.real))
            u_max = max(abs(v) + 2.0, cut(6.0 * cert.bound_M * math.exp(
                (1.0 + cert.delta) * abs(v))))
            strip = (above, below)
        else:
            v = None
            dist = math.hypot(max(abs(z.real - c) - r, 0.0), z.imag)
            u_max = cut(2.0 * r * cert.bound_M / dist)
            strip = (min(above, abs(cmath.phase(-alpha))), below)

        def integrand(u):
            kernel = 2.0 * r / (interval.hi - z) * kernel_k(u, 0.0, alpha)
            a = g(interval.from_u(u)) * kernel
            return a if v is None else (a, gv * kernel)
        try:
            sums = strip_trapezoid(integrand, xis, u_max, strip, tol, pole=v)
        except NonConvergence as exc:
            piece = "u" if v is None else "u-PV"
            raise in_cell(exc, _cell(lams[exc.index], z, piece)) from exc
        if v is not None:
            sums = [s + (1j * math.pi - v) * cmath.exp(1j * xi * v) * gv
                    for s, xi in zip(sums, xis)]
        columns.append(sums)
    return columns


def _cauchy_weighted_t(zs, lams, interval, signal, tol):
    """Same integrals, evaluated directly in the t variable (oracle path):
    the integrand is exp(i xi ln((t - lo)/(hi - t))) g(t) / (t - z)."""
    g = signal.eval_on_I
    lo, hi = interval.lo, interval.hi
    # integral k is lambda k // n at point k % n
    n, zs = len(zs), np.array(zs, dtype=complex)
    xis = np.array([xi_of_lambda(lam) for lam in lams])
    count = n * len(lams)

    def integrand(t, k):
        phase = np.exp(1j * xis[k // n] * np.log((t - lo) / (hi - t)))
        return phase * g(t) / (t - zs[k % n])

    try:
        values = integrate_batch(integrand, [lo] * count, [hi] * count, tol)
    except NonConvergence as exc:
        raise in_cell(exc, _cell(lams[exc.index // n], zs[exc.index % n], "t")) from exc
    return [values[j::n] for j in range(n)]


def approximant_table(points, lambdas, interval, signal, tol=QuadTolerance(),
                      method="u"):
    """g_lambda at each point of the closed upper half plane, for each lambda:
    one row (a list) per lambda of ``lambdas``, one value per point.

    A point is either in Im z > 0 or real and off the endpoints of I; a
    real point gets the boundary trace, inside I the limit from above.
    Each point is one u-domain Cauchy integral on one trapezoid grid
    shared by every lambda, and each row is what its lambda alone gives.
    ``method`` "t" integrates directly in the t variable instead (the
    dual-path oracle) and takes points with Im z > 0 only.
    """
    paths = {"u": _cauchy_weighted_u, "t": _cauchy_weighted_t}
    if method not in paths:
        raise DomainError(f'method must be "u" or "t", got {method!r}')
    zs = [complex(z) for z in points]
    for z in zs:
        if not cmath.isfinite(z):
            raise DomainError(f"need a finite point, got z={z}")
        if not (z.imag > 0 or z.imag == 0 and method == "u"):
            raise DomainError(f"need Im z > 0, got z={z}")
        if z.imag == 0 and interval.is_endpoint(z.real):
            raise DomainError(
                f"g_lambda boundary trace undefined at endpoint x={z.real}")
    # a real point as complex(x, 0.0): h_lambda takes its limit from above
    zs = [z if z.imag else complex(z.real, 0.0) for z in zs]
    lams = [float(lam) for lam in lambdas]
    xis = [xi_of_lambda(lam) for lam in lams]
    table = [[0.0 + 0.0j] * len(zs) for _ in lams]
    live = [k for k, lam in enumerate(lams) if lam != 0]
    if not (live and zs):
        return table
    columns = paths[method](zs, [lams[k] for k in live], interval, signal, tol)
    for j, (z, column) in enumerate(zip(zs, columns)):
        exponent = _quench_exponent(z, interval)
        for k, integral in zip(live, column):
            lam = lams[k]
            table[k][j] = (lam * cmath.exp(1j * xis[k] * exponent) / (2j * math.pi)
                           * integral / math.sqrt(1.0 + lam))
    return table


def approximant_values(points, params, interval, signal, tol=QuadTolerance(),
                       method="u"):
    """g_lambda at each point, as a list: the table of one lambda
    (see approximant_table)."""
    return approximant_table(points, [params.lam], interval, signal, tol,
                             method)[0]


def approximant_interior(z, params, interval, signal, tol=QuadTolerance(),
                         method="u"):
    """g_lambda at a point of the open upper half plane (see approximant_table)."""
    if not complex(z).imag > 0:
        raise DomainError(f"need Im z > 0, got z={complex(z)}")
    return approximant_values([z], params, interval, signal, tol, method)[0]


def approximant_boundary(x, params, interval, signal, tol=QuadTolerance()):
    """Boundary trace of g_lambda at one real point (see approximant_table)."""
    return approximant_values([x], params, interval, signal, tol)[0]


def window_samples(interval, window, n_samples):
    """The L2 sample points: equispaced over the window and nudged off the
    interval endpoints by the quadrature guard margin."""
    pts = np.linspace(window.lo, window.hi, n_samples)
    guard = interval.guard
    for end in (interval.lo, interval.hi):
        close = np.abs(pts - end) < guard
        pts[close] = end + 2.0 * guard * np.where(pts[close] >= end, 1.0, -1.0)
    return pts


def _deviations(values, pts, ref):
    """|g_lambda - F| at each of ``pts``; no points is a DomainError."""
    pts = np.asarray(pts)
    if pts.size == 0:
        raise DomainError("an error measure needs at least one point")
    return np.abs(np.asarray(values) - ref(pts))


def sup_error(values, pts, ref):
    """Max deviation of the g_lambda ``values`` at ``pts`` from the reference
    F; NaN if any value or reference is NaN."""
    return float(np.max(_deviations(values, pts, ref)))


def l2_error(values, pts, ref, window):
    """Discrete L2 norm over ``window`` of (g_lambda - F), given the g_lambda
    ``values`` at its ``window_samples`` ``pts``; NaN propagates."""
    total = float(np.sum(_deviations(values, pts, ref) ** 2))
    return math.sqrt((window.hi - window.lo) * total / len(pts))


def sup_error_on_compact(pts, params, interval, signal, ref,
                         tol=QuadTolerance()):
    """Max deviation of g_lambda from the reference F at points with Im z > 0."""
    for z in pts:
        if not complex(z).imag > 0:
            raise DomainError(f"need Im z > 0, got z={complex(z)}")
    return sup_error(approximant_values(pts, params, interval, signal, tol),
                     pts, ref)


def l2_error_on_window(params, interval, signal, ref, window, n_samples,
                       tol=QuadTolerance()):
    """Discrete L2 norm of (g_lambda - F) over a real window, at its
    ``window_samples``."""
    pts = window_samples(interval, window, n_samples)
    return l2_error(approximant_values(pts, params, interval, signal, tol),
                    pts, ref, window)
