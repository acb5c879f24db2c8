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
    integrate_adaptive,
    integrate_real_line,
    pv_integrate,
)
from .quench import _log_weight_ratio, _phase, phase_G, quench_interior

__all__ = [
    "BoundarySignal",
    "ReferencePair",
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


def _cauchy_weighted_u(z, params, interval, signal, tol):
    """int_I exp(-iG(t)) g(t) / (t - z) dt via the tanh substitution.

    Under ``t = c + r tanh(u/2)`` the phase becomes exactly
    ``exp(i xi u)`` times a constant unimodular factor, and the
    Jacobian contributes ``exp(-|u|)`` decay.
    """
    c = interval.center
    r = interval.half_width
    xi = params.xi
    g = signal.eval_on_I

    def integrand(u):
        sech2 = 1.0 / np.cosh(0.5 * u) ** 2
        t = c + r * np.tanh(0.5 * u)
        return np.exp(1j * xi * u) * g(t) * (0.5 * r * sech2) / (t - z)

    data_cert = signal.decay_cert
    dist = _segment_distance(z, interval)
    cert = DecayCertificate(data_cert.delta, 2.0 * r * data_cert.bound_M / dist)
    value = integrate_real_line(integrand, cert, tol)
    return cmath.exp(1j * xi * (0.5 * _log_weight_ratio(interval))) * value


def _cauchy_weighted_t(z, params, interval, signal, tol):
    """Same integral, evaluated directly in the t variable (oracle path)."""
    g = signal.eval_on_I

    def integrand(t):
        return np.exp(-1j * _phase(t, params, interval)) * g(t) / (t - z)

    return integrate_adaptive(integrand, interval.lo, interval.hi, tol)


def approximant_interior(z, params, interval, signal, tol=QuadTolerance(),
                         method="u"):
    """g_lambda at a point of the open upper half plane.

    ``method`` selects the integration variable: "u" (default, tanh
    substitution) or "t" (direct adaptive; dual-path oracle).
    """
    z = complex(z)
    if not z.imag > 0:
        raise DomainError(f"need Im z > 0, got z={z}")
    lam = params.lam
    if lam == 0:
        return 0.0 + 0.0j
    path = _cauchy_weighted_u if method == "u" else _cauchy_weighted_t
    integral = path(z, params, interval, signal, tol)
    h = quench_interior(z, params, interval)
    return lam * h / (2j * math.pi) * integral / math.sqrt(1.0 + lam)


def approximant_boundary(x, params, interval, signal, tol=QuadTolerance()):
    """Boundary trace of g_lambda at a real point off the endpoints.

    Inside I the quench moduli cancel exactly and the value splits into
    ``lam/(2(1+lam)) g(x)`` plus a principal-value Hilbert-type term.
    Outside the closed interval no principal value is needed and the
    integral is taken in the u-domain.
    """
    if interval.is_endpoint(x):
        raise DomainError(f"g_lambda boundary trace undefined at endpoint x={x}")
    lam = params.lam
    if lam == 0:
        return 0.0 + 0.0j
    phase = cmath.exp(1j * phase_G(x, params, interval))
    if interval.contains(x):
        g = signal.eval_on_I

        def weighted(t):
            return np.exp(-1j * _phase(t, params, interval)) * g(t)

        pv = pv_integrate(weighted, interval.lo, interval.hi, x, tol)
        direct = lam / (2.0 * (1.0 + lam)) * complex(signal.eval_on_I(x))
        return direct + 1j * lam / (2.0 * math.pi * (1.0 + lam)) * phase * pv
    integral = -_cauchy_weighted_u(x, params, interval, signal, tol)
    return 1j * lam / (2.0 * math.pi * math.sqrt(1.0 + lam)) * phase * integral


def sup_error_on_compact(pts, params, interval, signal, ref,
                         tol=QuadTolerance()):
    """Max deviation of g_lambda from the reference on interior points."""
    worst = 0.0
    for z in pts:
        err = abs(approximant_interior(z, params, interval, signal, tol)
                  - ref.F_interior(z))
        worst = max(worst, err)
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
    for x in pts:
        d = approximant_boundary(x, params, interval, signal, tol) \
            - ref.f_boundary(x)
        total += abs(d) ** 2
    width = window.hi - window.lo
    return math.sqrt(width * total / n_samples)
