"""Patil approximants g_lambda built from boundary data on an interval.

g_lambda weighs the data with the conjugate quench phase and applies a
Cauchy integral over I.  The integral is evaluated by default in the
u-domain, after the tanh change of variable that straightens the
quench oscillation into a pure linear phase ``exp(i xi u)``; the direct
t-domain evaluation is retained as an independent oracle.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonConvergence, in_cell
from .quadrature import (
    DecayCertificate,
    QuadTolerance,
    integrate_batch,
    integrate_real_line,  # noqa: F401 -- perfbench/tracing.py wraps it here
    pv_integrate,  # noqa: F401 -- perfbench/tracing.py wraps it here
    real_line_panels,
)
from .quench import _log_weight_ratio, phase_G, quench_boundary, \
    quench_interior

__all__ = [
    "BoundarySignal",
    "approximant_values",
    "approximant_interior",
    "approximant_boundary",
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
    its poles there, ``0 < Im z <= 3 pi / 2``.
    """

    eval_on_I: callable
    decay_cert: DecayCertificate
    strip_pullback: callable = None
    singularities: tuple = ()


def _cell(params, z, piece):
    """The cell of the ``piece`` integral of g_lambda at ``z``: lambda, the
    point and the piece."""
    z = complex(z)
    point = f"x={z.real!r}" if z.imag == 0 else f"z={z!r}"
    return f"g_lambda at lambda={float(params.lam)!r}, {point}, {piece} integral"


def _cauchy_weighted_u(zs, params, interval, signal, tol):
    """int_I exp(-iG(t)) g(t) / (t - z) dt for each z of the array ``zs``.

    Under the tanh substitution ``t = interval.from_u(u)`` the phase becomes
    exactly ``exp(i xi u)`` times a constant unimodular factor, and the
    Jacobian J contributes ``exp(-|u|)`` decay.  A real x inside I takes
    the limit from above: with ``v = interval.to_u(x)``,
    ``w(u) = exp(i xi u) g(t(u))`` and ``K(u) = J(u)/(t(u) - x) =
    cosh(v/2) / (2 cosh(u/2) sinh((u - v)/2))``, whose principal value is
    -v, it is ``(w - w(v)) K`` on [-U, v] and [v, U] plus ``(i pi - v) w(v)``.
    Tail: for ``|u| >= |v| + 2``, ``|u - v| >= 2``, so ``|sinh((u - v)/2)|
    >= (1 - e^-2) e^{|u - v|/2} / 2``; with ``cosh(u/2) >= e^{|u|/2} / 2``,
    ``cosh(v/2) <= e^{|v|/2}`` and ``|u - v| >= |u| - |v|``, ``|K| < 3
    e^{|v| - |u|}``.  As ``|w(u) - w(v)| <= 2 M e^{delta (|u| + |v|)}`` for
    ``|g(t(u))| <= M e^{delta |u|}``, the integrand is below
    ``6 M e^{(1 + delta)|v|} e^{(delta - 1)|u|}``.
    """
    r = interval.half_width
    xi = params.xi
    g = signal.eval_on_I
    cert = signal.decay_cert
    inside = (zs.imag == 0) & interval.contains(zs.real)
    vs = np.zeros(len(zs))
    wvs = np.zeros(len(zs), dtype=complex)

    def cut(bound):
        return DecayCertificate(cert.delta, bound).truncation_point(tol.abs_tol)

    pieces = []  # (point, lo, hi, initial panels) of each integral
    for j, z in enumerate(zs):
        if inside[j]:
            v = vs[j] = interval.to_u(z.real)
            wvs[j] = cmath.exp(1j * xi * v) * complex(g(z.real))
            u_max = max(abs(v) + 2.0, cut(6.0 * cert.bound_M * math.exp(
                (1.0 + cert.delta) * abs(v))))
            pieces += [(j, -u_max, v, 8), (j, v, u_max, 8)]
        else:
            dist = math.hypot(max(abs(z.real - interval.center) - r, 0.0), z.imag)
            u_max = cut(2.0 * r * cert.bound_M / dist)
            pieces.append((j, -u_max, u_max, real_line_panels(u_max)))
    owner, lo, hi, panels = np.array(pieces).reshape(-1, 4).T

    def integrand(u, k):
        k = owner[k].astype(int)
        sech2 = 1.0 / np.cosh(0.5 * u) ** 2
        t = interval.from_u(u)
        w = np.exp(1j * xi * u) * g(t)
        values = w * (0.5 * r * sech2) / (t - zs[k])
        rows = inside[k[:, 0]]
        if rows.any():  # the sinh form of K: no cancellation in t - x
            u, v = u[rows], vs[k[rows]]
            values[rows] = (w[rows] - wvs[k[rows]]) * np.cosh(0.5 * v) / (
                2.0 * np.cosh(0.5 * u) * np.sinh(0.5 * (u - v)))
        return values

    const = cmath.exp(1j * xi * (0.5 * _log_weight_ratio(interval)))
    try:
        ints = iter(integrate_batch(integrand, lo, hi, tol, panels.astype(int)))
    except NonConvergence as exc:
        j = int(owner[exc.index])
        piece = "u-PV" if inside[j] else "u"
        raise in_cell(exc, _cell(params, zs[j], piece)) from exc
    return [const * (next(ints) + next(ints) + (1j * math.pi - vs[j])
                     * complex(wvs[j])) if inside[j] else const * next(ints)
            for j in range(len(zs))]


def _cauchy_weighted_t(zs, params, interval, signal, tol):
    """Same integrals, evaluated directly in the t variable (oracle path)."""
    g = signal.eval_on_I

    def integrand(t, k):
        return np.exp(-1j * phase_G(t, params, interval)) * g(t) / (t - zs[k])

    try:
        return integrate_batch(integrand, np.full(len(zs), interval.lo),
                               np.full(len(zs), interval.hi), tol)
    except NonConvergence as exc:
        raise in_cell(exc, _cell(params, zs[exc.index], "t")) from exc


def approximant_values(points, params, interval, signal, tol=QuadTolerance(),
                       method="u"):
    """g_lambda at each point of the closed upper half plane, as a list.

    A point is either in Im z > 0 or real and off the endpoints of I; a
    real point gets the boundary trace, inside I the limit from above.
    All points form one batch of u-domain Cauchy integrals.  ``method``
    "t" integrates directly in the t variable instead (the dual-path
    oracle) and takes points with Im z > 0 only.
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
    lam = params.lam
    if lam == 0:
        return [0.0 + 0.0j] * len(zs)
    integrals = paths[method](np.array(zs, dtype=complex), params, interval,
                              signal, tol)
    return [lam * (quench_interior(z, params, interval) if z.imag > 0
                   else quench_boundary(z.real, params, interval))
            / (2j * math.pi) * integral / math.sqrt(1.0 + lam)
            for z, integral in zip(zs, integrals)]


def approximant_interior(z, params, interval, signal, tol=QuadTolerance(),
                         method="u"):
    """g_lambda at a point of the open upper half plane (see approximant_values)."""
    if not complex(z).imag > 0:
        raise DomainError(f"need Im z > 0, got z={complex(z)}")
    return approximant_values([z], params, interval, signal, tol, method)[0]


def approximant_boundary(x, params, interval, signal, tol=QuadTolerance()):
    """Boundary trace of g_lambda at one real point (see approximant_values)."""
    return approximant_values([x], params, interval, signal, tol)[0]


def sup_error_on_compact(pts, params, interval, signal, ref,
                         tol=QuadTolerance()):
    """Max deviation of g_lambda from the reference F at points with Im z > 0."""
    for z in pts:
        if not complex(z).imag > 0:
            raise DomainError(f"need Im z > 0, got z={complex(z)}")
    worst = 0.0
    for z, value in zip(pts, approximant_values(pts, params, interval, signal,
                                                tol)):
        worst = max(worst, abs(value - ref(z)))
    return worst


def l2_error_on_window(params, interval, signal, ref, window, n_samples,
                       tol=QuadTolerance()):
    """Discrete L2 norm of (g_lambda - F) over a real window.

    Sample points are equispaced over the window and nudged off the
    interval endpoints by the quadrature guard margin.
    """
    pts = np.linspace(window.lo, window.hi, n_samples)
    guard = interval.guard
    for end in (interval.lo, interval.hi):
        close = np.abs(pts - end) < guard
        pts[close] = end + 2.0 * guard * np.where(pts[close] >= end, 1.0, -1.0)
    total = 0.0
    for x, value in zip(pts, approximant_values(pts, params, interval, signal,
                                                tol)):
        total += abs(value - ref(x)) ** 2
    width = window.hi - window.lo
    return math.sqrt(width * total / n_samples)
