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

from .errors import DomainError
from .quadrature import (
    DecayCertificate,
    QuadTolerance,
    integrate_batch,
    integrate_real_line,  # noqa: F401 -- perfbench/tracing.py wraps it here
    integrate_real_line_batch,
    pv_integrate,
)
from .quench import _log_weight_ratio, _phase, phase_G, quench_interior

__all__ = [
    "BoundarySignal",
    "ReferencePair",
    "approximant_interior",
    "approximant_boundary",
    "interior_values",
    "boundary_values",
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
    its poles in the closed strip ``0 < Im z <= pi``.
    """

    eval_on_I: callable
    decay_cert: DecayCertificate
    strip_pullback: callable = None
    singularities: tuple = ()


@dataclass(frozen=True)
class ReferencePair:
    """A known Hardy-class function and its boundary trace."""

    F_interior: callable
    f_boundary: callable


def _segment_distance(z, interval):
    z = complex(z)
    dx = max(abs(z.real - interval.center) - interval.half_width, 0.0)
    return math.hypot(dx, z.imag)


def _cauchy_weighted_u(zs, params, interval, signal, tol):
    """int_I exp(-iG(t)) g(t) / (t - z) dt for each z of the array ``zs``.

    Under the tanh substitution ``t = c + r tanh(u/2)`` the phase becomes
    exactly ``exp(i xi u)`` times a constant unimodular factor, and the
    Jacobian contributes ``exp(-|u|)`` decay.
    """
    c = interval.center
    r = interval.half_width
    xi = params.xi
    g = signal.eval_on_I

    def integrand(u, k):
        sech2 = 1.0 / np.cosh(0.5 * u) ** 2
        t = c + r * np.tanh(0.5 * u)
        return np.exp(1j * xi * u) * g(t) * (0.5 * r * sech2) / (t - zs[k])

    data_cert = signal.decay_cert
    certs = [DecayCertificate(data_cert.delta, 2.0 * r * data_cert.bound_M
                              / _segment_distance(z, interval)) for z in zs]
    values = integrate_real_line_batch(integrand, certs, tol)
    const = cmath.exp(1j * xi * (0.5 * _log_weight_ratio(interval)))
    return [const * value for value in values]


def _cauchy_weighted_t(zs, params, interval, signal, tol):
    """Same integrals, evaluated directly in the t variable (oracle path)."""
    g = signal.eval_on_I

    def integrand(t, k):
        return np.exp(-1j * _phase(t, params, interval)) * g(t) / (t - zs[k])

    return integrate_batch(integrand, np.full(len(zs), interval.lo),
                           np.full(len(zs), interval.hi), tol)


def interior_values(zs, params, interval, signal, tol=QuadTolerance(),
                    method="u"):
    """g_lambda at each point of ``zs`` in the open upper half plane, as a list.

    ``method`` selects the integration variable: "u" (default, tanh
    substitution) or "t" (direct adaptive; dual-path oracle).
    """
    zs = [complex(z) for z in zs]
    for z in zs:
        if not z.imag > 0:
            raise DomainError(f"need Im z > 0, got z={z}")
    lam = params.lam
    if lam == 0:
        return [0.0 + 0.0j] * len(zs)
    path = _cauchy_weighted_u if method == "u" else _cauchy_weighted_t
    integrals = path(np.array(zs, dtype=complex), params, interval, signal, tol)
    return [lam * quench_interior(z, params, interval) / (2j * math.pi)
            * integral / math.sqrt(1.0 + lam)
            for z, integral in zip(zs, integrals)]


def approximant_interior(z, params, interval, signal, tol=QuadTolerance(),
                         method="u"):
    """g_lambda at a point of the open upper half plane (see interior_values)."""
    return interior_values([z], params, interval, signal, tol, method)[0]


def boundary_values(xs, params, interval, signal, tol=QuadTolerance()):
    """Boundary trace of g_lambda at each real point of ``xs``, as a list.

    Inside I the quench moduli cancel exactly and the value splits into
    ``lam/(2(1+lam)) g(x)`` plus a principal-value Hilbert-type term.
    Outside the closed interval no principal value is needed and the
    integral is taken in the u-domain.  Each of the two paths is one batch.
    """
    for x in xs:
        if interval.is_endpoint(x):
            raise DomainError(
                f"g_lambda boundary trace undefined at endpoint x={x}")
    lam = params.lam
    if lam == 0:
        return [0.0 + 0.0j] * len(xs)
    pts = np.asarray(xs, dtype=float)
    inside = interval.contains(pts)
    g = signal.eval_on_I

    def weighted(t):
        return np.exp(-1j * _phase(t, params, interval)) * g(t)

    pvs = iter(pv_integrate(weighted, interval.lo, interval.hi, pts[inside], tol)
               if inside.any() else ())
    integrals = iter(_cauchy_weighted_u(pts[~inside], params, interval, signal,
                                        tol) if not inside.all() else ())
    values = []
    for x, x_inside in zip(xs, inside):
        phase = cmath.exp(1j * phase_G(x, params, interval))
        if x_inside:
            direct = lam / (2.0 * (1.0 + lam)) * complex(g(x))
            values.append(direct + 1j * lam / (2.0 * math.pi * (1.0 + lam))
                          * phase * next(pvs))
        else:
            values.append(1j * lam / (2.0 * math.pi * math.sqrt(1.0 + lam))
                          * phase * -next(integrals))
    return values


def approximant_boundary(x, params, interval, signal, tol=QuadTolerance()):
    """Boundary trace of g_lambda at one real point (see boundary_values)."""
    return boundary_values([x], params, interval, signal, tol)[0]


def sup_error_on_compact(pts, params, interval, signal, ref,
                         tol=QuadTolerance()):
    """Max deviation of g_lambda from the reference on interior points."""
    worst = 0.0
    for z, value in zip(pts, interior_values(pts, params, interval, signal, tol)):
        worst = max(worst, abs(value - ref.F_interior(z)))
    return worst


def l2_error_on_window(params, interval, signal, ref, window, n_samples,
                       tol=QuadTolerance()):
    """Discrete L2 norm of (g_lambda - f) over a real window.

    Sample points are equispaced over the window and nudged off the
    interval endpoints by the quadrature guard margin.
    """
    pts = np.linspace(window.lo, window.hi, n_samples)
    guard = interval.guard
    for end in (interval.lo, interval.hi):
        close = np.abs(pts - end) < guard
        pts[close] = end + 2.0 * guard * np.where(pts[close] >= end, 1.0, -1.0)
    total = 0.0
    for x, value in zip(pts, boundary_values(pts, params, interval, signal, tol)):
        total += abs(value - ref.f_boundary(x)) ** 2
    width = window.hi - window.lo
    return math.sqrt(width * total / n_samples)
