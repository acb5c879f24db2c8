"""Adaptive quadrature for complex-valued integrands.

Three entry points:

* :func:`integrate_adaptive` -- globally adaptive Gauss-Kronrod (G7/K15)
  on a finite interval.
* :func:`pv_integrate` -- principal value of ``w(t)/(x - t)`` with an
  interior Cauchy singularity, by singularity subtraction.
* :func:`integrate_real_line` -- truncated real-line integral whose
  truncation point is chosen from an explicit decay certificate.

Integrands must accept numpy arrays of abscissae and return arrays of
the same shape (complex or real).  Real and imaginary parts are summed
from the same nodes, so both parts always see identical grids.
"""

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonConvergence

__all__ = [
    "QuadTolerance",
    "DecayCertificate",
    "integrate_adaptive",
    "pv_integrate",
    "integrate_real_line",
]


@dataclass(frozen=True)
class QuadTolerance:
    """Error targets for the adaptive integrators."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 4000

    def __post_init__(self):
        if not self.abs_tol > 0:
            raise DomainError("abs_tol must be > 0")
        if not self.rel_tol > 0:
            raise DomainError("rel_tol must be > 0")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be >= 1")


@dataclass(frozen=True)
class DecayCertificate:
    """Growth/decay data for a real-line integrand.

    Certifies ``|f(u)| <= bound_M * exp((delta - 1)|u|)`` for large
    ``|u|``; ``delta`` is the growth rate of the numerator, the kernel
    supplies one full unit of exponential decay.
    """

    delta: float
    bound_M: float

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise DomainError("delta must lie in (0, 1)")
        if not self.bound_M > 0:
            raise DomainError("bound_M must be > 0")

    def truncation_point(self, abs_tol):
        """Half-width U with tail bound below ``abs_tol / 2``."""
        rate = 1.0 - self.delta
        u = math.log(2.0 * self.bound_M / (rate * abs_tol)) / rate
        return max(u, 1.0)


# Gauss-Kronrod 7-15 pair on [-1, 1] (QUADPACK dqk15 constants).
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

# All 15 Kronrod nodes on [-1, 1], symmetric about 0.
_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_WK_FULL = np.concatenate([_WGK[:-1], _WGK[::-1]])
# Gauss-7 nodes are the odd-indexed Kronrod nodes.
_WG_FULL = np.zeros(15)
_WG_FULL[1:14:2] = np.concatenate([_WG[:-1], _WG[::-1]])


def _gk15(f, lo, hi):
    """One G7/K15 panel: returns (kronrod estimate, error estimate)."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    fv = np.asarray(f(mid + half * _NODES))
    kronrod = half * np.sum(_WK_FULL * fv)
    gauss = half * np.sum(_WG_FULL * fv)
    return kronrod, abs(kronrod - gauss)


def integrate_adaptive(f, lo, hi, tol=QuadTolerance(), initial_panels=8):
    """Integrate ``f`` on ``[lo, hi]`` to the requested tolerance.

    Globally adaptive: the panel with the worst embedded G7/K15 error
    estimate is bisected until the summed error drops below
    ``max(abs_tol, rel_tol * |result|)``.

    Raises
    ------
    NonConvergence
        If the subdivision budget is exhausted first, or if a panel's
        estimate or error is not finite.
    """
    if not lo < hi:
        raise DomainError(f"need lo < hi, got [{lo}, {hi}]")
    heap = []
    total = 0.0 + 0.0j
    total_err = 0.0

    def add_panel(a, b):
        nonlocal total, total_err
        est, err = _gk15(f, a, b)
        if not math.isfinite(err):
            raise NonConvergence(f"non-finite integrand on panel [{a}, {b}]",
                                 estimate=est, error=err)
        total += est
        total_err += err
        heapq.heappush(heap, (-err, a, b, est))

    edges = np.linspace(lo, hi, initial_panels + 1)
    for a, b in zip(edges[:-1], edges[1:]):
        add_panel(a, b)

    n = initial_panels
    while total_err > max(tol.abs_tol, tol.rel_tol * abs(total)):
        if n >= tol.max_subdivisions:
            raise NonConvergence(
                f"error {total_err:.3e} above target after {n} panels",
                estimate=total,
                error=total_err,
            )
        neg_err, a, b, est = heapq.heappop(heap)
        total -= est
        total_err += neg_err  # neg_err == -err
        mid = 0.5 * (a + b)
        add_panel(a, mid)
        add_panel(mid, b)
        n += 1
    return complex(total)


def endpoint_guard(lo, hi):
    """Distance from an endpoint of ``[lo, hi]`` treated as on it."""
    return 1e-6 * (hi - lo)


def pv_integrate(w, lo, hi, x, tol=QuadTolerance()):
    """Principal value of ``w(t) / (x - t)`` over ``[lo, hi]``.

    Uses singularity subtraction: the smooth remainder
    ``(w(t) - w(x)) / (x - t)`` is integrated adaptively (split at x so
    no node lands on the singularity), and the singular part is the
    closed form ``p.v. int dt/(x - t) = ln((x - lo)/(hi - x))``.
    """
    if not lo < x < hi:
        raise DomainError(f"need lo < x < hi, got x={x} on [{lo}, {hi}]")
    if min(x - lo, hi - x) < endpoint_guard(lo, hi):
        raise DomainError(
            f"x={x} within guard distance of an endpoint of [{lo}, {hi}]"
        )
    wx = w(x)

    def smooth(t):
        return (w(t) - wx) / (x - t)

    result = integrate_adaptive(smooth, lo, x, tol)
    result += integrate_adaptive(smooth, x, hi, tol)
    return result + wx * math.log((x - lo) / (hi - x))


def integrate_real_line(f, cert, tol=QuadTolerance()):
    """Integrate ``f`` over the real line, truncated via ``cert``.

    The truncation half-width U is chosen so that the certified tail
    bound ``bound_M * exp((delta-1) U) / (1 - delta)`` stays below half
    the absolute tolerance.
    """
    if not isinstance(cert, DecayCertificate):
        cert = DecayCertificate(*cert)
    u = cert.truncation_point(tol.abs_tol)
    panels = max(8, int(math.ceil(u)))
    return integrate_adaptive(f, -u, u, tol, initial_panels=panels)
