"""Adaptive quadrature for complex-valued integrands.

* :func:`integrate_batch` -- many globally adaptive Gauss-Kronrod
  (G7/K15) integrals on finite intervals, sharing integrand calls;
  :func:`integrate_adaptive` is a batch of one.
* :func:`pv_integrate` -- the principal value of ``w(t)/(x - t)`` at an
  interior Cauchy singularity, by singularity subtraction.
* :func:`integrate_real_line` -- a truncated real-line integral whose
  truncation point comes from a decay certificate.

Integrands must accept numpy arrays of abscissae and return arrays of
the same shape (complex or real).  Real and imaginary parts are summed
from the same nodes, so both parts always see identical grids.  numpy is
loaded by the first integral, not by the import.
"""

import functools
import heapq
import itertools
import math
import numbers
from dataclasses import dataclass

from .arrays import numpy
from .errors import DomainError, NonConvergence
from .quench import Interval

__all__ = [
    "QuadTolerance",
    "DecayCertificate",
    "integrate_batch",
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
        for name in ("abs_tol", "rel_tol"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise DomainError(f"{name} must be > 0 and finite, got {value}")
        budget = self.max_subdivisions
        whole = isinstance(budget, numbers.Integral) and not isinstance(budget, bool)
        if not (whole and budget >= 1):
            raise DomainError(
                f"max_subdivisions must be an int >= 1, got {budget!r}")


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
        if not 0 < self.bound_M < math.inf:
            raise DomainError(f"bound_M must be > 0 and finite, got {self.bound_M}")

    def truncation_point(self, abs_tol):
        """Half-width U with tail bound below ``abs_tol / 2``."""
        rate = 1.0 - self.delta
        u = math.log(2.0 * self.bound_M / (rate * abs_tol)) / rate
        return max(u, 1.0)


# Gauss-Kronrod 7-15 pair on [-1, 1] (QUADPACK dqk15 constants).
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)
# panels per integrand call at most, which bounds memory for any batch size
_SLICE = 512


@functools.cache
def _tables():
    """``{"_NODES", "_WK_FULL", "_WG_FULL"}``: all 15 Kronrod nodes on
    [-1, 1], symmetric about 0, with their Kronrod and Gauss-7 weights
    (the Gauss nodes are the odd-indexed ones), as arrays."""
    np = numpy()
    gauss = np.zeros(15)
    gauss[1:14:2] = _WG[:-1] + _WG[::-1]
    return {"_NODES": np.array([-x for x in _XGK[:-1]] + list(_XGK[::-1])),
            "_WK_FULL": np.array(_WGK[:-1] + _WGK[::-1]), "_WG_FULL": gauss}


def _gk15(f, k, lo, hi):
    """G7/K15 on panels ``[lo[j], hi[j]]`` of integrals ``k[j]``, in one
    integrand call: lists of Kronrod estimates and of error estimates."""
    np, tables = numpy(), _tables()
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    # a NaN or inf becomes NonConvergence in integrate_batch, not a warning
    with np.errstate(divide="ignore", invalid="ignore"):
        fv = np.asarray(f(mid[:, None] + half[:, None] * tables["_NODES"], k[:, None]))
    kronrod = half * np.sum(tables["_WK_FULL"] * fv, axis=1)
    gauss = half * np.sum(tables["_WG_FULL"] * fv, axis=1)
    # abs of each scalar: numpy's array abs of a complex can differ in the last bit
    return kronrod.tolist(), [abs(d) for d in (kronrod - gauss).tolist()]


def integrate_batch(f, lo, hi, tol=QuadTolerance(), initial_panels=8):
    """Integrate many functions at once, integral ``i`` over ``[lo[i], hi[i]]``.

    ``f(u, k)`` gets a ``(panels, 15)`` array of nodes, at most 512
    panels a call, and the ``(panels, 1)`` indices of their integrals;
    ``initial_panels`` is one count or one per integral.  Each integral
    bisects its own worst G7/K15 panel until its summed error is below
    ``max(abs_tol, rel_tol * |result|)``, within its own budget; they
    share only the integrand calls, so each result (a list of complex)
    is what it alone would give.

    Raises
    ------
    NonConvergence
        At the first integral found to exhaust its budget or to have a
        panel whose estimate or error is not finite; its ``index`` is
        that integral's.
    """
    np = numpy()
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    panels = np.broadcast_to(initial_panels, lo.shape).tolist()
    for a, b in zip(lo, hi):
        if not a < b:
            raise DomainError(f"need lo < hi, got [{a}, {b}]")
    heaps = [[] for _ in panels]
    totals = [0.0 + 0.0j] * len(panels)
    errors = [0.0] * len(panels)

    # every pending panel as (integral, left, right)
    todo = [(i, a, b) for i, n in enumerate(panels)
            for a, b in itertools.pairwise(np.linspace(lo[i], hi[i], n + 1).tolist())]
    while todo:
        ests, errs = [], []
        for j in range(0, len(todo), _SLICE):
            est, err = _gk15(f, *map(np.array, zip(*todo[j:j + _SLICE])))
            ests, errs = ests + est, errs + err
        for (i, a, b), est, err in zip(todo, ests, errs):
            if not math.isfinite(err):
                raise NonConvergence(f"non-finite integrand on panel [{a}, {b}]",
                                     estimate=est, error=err, index=i)
            totals[i] += est
            errors[i] += err
            heapq.heappush(heaps[i], (-err, a, b, est))
        refine = [i for i in dict.fromkeys(i for i, _, _ in todo)
                  if errors[i] > max(tol.abs_tol, tol.rel_tol * abs(totals[i]))]
        todo = []
        for i in refine:
            if panels[i] >= tol.max_subdivisions:
                raise NonConvergence(
                    f"error {errors[i]:.3e} above target after {panels[i]} "
                    f"panels (max_subdivisions={tol.max_subdivisions})",
                    estimate=totals[i], error=errors[i], index=i)
            neg_err, a, b, est = heapq.heappop(heaps[i])
            totals[i] -= est
            errors[i] += neg_err  # neg_err == -err
            mid = 0.5 * (a + b)
            todo += [(i, a, mid), (i, mid, b)]
            panels[i] += 1
    return [complex(t) for t in totals]


def integrate_adaptive(f, lo, hi, tol=QuadTolerance(), initial_panels=8):
    """Integrate ``f(u)`` on ``[lo, hi]``: a batch of one (:func:`integrate_batch`)."""
    return integrate_batch(lambda u, k: f(u), lo, hi, tol, initial_panels)[0]


def pv_integrate(w, lo, hi, x, tol=QuadTolerance()):
    """Principal value of ``w(t) / (x - t)`` over ``[lo, hi]``.

    Uses singularity subtraction: the smooth remainder
    ``(w(t) - w(x)) / (x - t)`` is integrated adaptively (split at x so
    no node lands on the singularity), and the singular part is the
    closed form ``p.v. int dt/(x - t) = ln((x - lo)/(hi - x))``.
    """
    if not lo < x < hi:
        raise DomainError(f"need lo < x < hi, got x={x} on [{lo}, {hi}]")
    interval = Interval(lo, hi)
    if min(x - lo, hi - x) < interval.guard:
        raise DomainError(f"x={x} within guard distance of an endpoint "
                          f"of [{lo}, {hi}]")
    wx = w(x)
    left, right = integrate_batch(lambda t, k: (w(t) - wx) / (x - t),
                                  [lo, x], [x, hi], tol)
    return left + right + wx * interval.to_u(x)


def integrate_real_line(f, cert, tol=QuadTolerance()):
    """Integrate ``f(u)`` over the real line, truncated via ``cert``.

    The truncation half-width U is chosen so that the certified tail
    bound ``bound_M * exp((delta-1) U) / (1 - delta)`` stays below half
    the absolute tolerance.
    """
    u_max = cert.truncation_point(tol.abs_tol)
    # initial panels: one per two units, at least 8
    return integrate_adaptive(f, -u_max, u_max, tol, max(8, math.ceil(u_max)))
