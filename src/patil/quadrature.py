"""Adaptive quadrature for complex-valued integrands.

* :func:`integrate_rows` -- many globally adaptive Gauss-Kronrod
  (G7/K15) integrals on finite intervals, sharing integrand calls, in
  plain Python;
* :func:`integrate_batch` -- the same for an integrand on numpy arrays;
  :func:`integrate_adaptive` is a batch of one.
* :func:`pv_integrate` -- the principal value of ``w(t)/(x - t)`` at an
  interior Cauchy singularity, by singularity subtraction.
* :func:`integrate_real_line` -- a truncated real-line integral whose
  truncation point comes from a decay certificate.

Two integrand contracts share one adaptive loop and one G7/K15 sum.  The
loop's own, ``rows(k, a, b)``, returns the 15 node values of each panel
it is given, as lists or any sequences (the contour identity's cached
rows).  The array one, ``f(u, k)`` of :func:`integrate_batch`, and
``f(u)`` of the functions built on it, takes a numpy array of abscissae
and returns an array of the same shape (complex or real); that adapter
is the only place the engine loads numpy, at its first call.  Real and
imaginary parts are summed from the same nodes, so both parts always
see identical grids.
"""

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
    "integrate_rows",
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
# the 15 Kronrod nodes, left to right: node j and node 14 - j are -+_XGK[j],
# the Gauss nodes are the odd-indexed ones
_NODES = tuple(-x for x in _XGK[:-1]) + _XGK[::-1]
# panels per integrand call at most, which bounds memory for any batch size
_SLICE = 512


def _gk15(rows, k, lo, hi):
    """G7/K15 on panels ``[lo[j], hi[j]]`` of integrals ``k[j]``, from one
    call ``rows(k, lo, hi)``: lists of Kronrod estimates and of error
    estimates.  As in QUADPACK's dqk15, both sums weigh the values at each
    pair of nodes symmetric about the midpoint together."""
    k0, k1, k2, k3, k4, k5, k6, k7 = _WGK
    g1, g3, g5, g7 = _WG
    ests, errs = [], []
    for a, b, (f0, f1, f2, f3, f4, f5, f6, f7, f8, f9, f10, f11, f12, f13, f14) \
            in zip(lo, hi, rows(k, lo, hi), strict=True):
        half = 0.5 * (b - a)
        p1, p3, p5 = f1 + f13, f3 + f11, f5 + f9
        kronrod = half * (k0 * (f0 + f14) + k1 * p1 + k2 * (f2 + f12) + k3 * p3
                          + k4 * (f4 + f10) + k5 * p5 + k6 * (f6 + f8) + k7 * f7)
        gauss = half * (g1 * p1 + g3 * p3 + g5 * p5 + g7 * f7)
        ests.append(kronrod)
        errs.append(abs(kronrod - gauss))
    return ests, errs


def _partition(a, b, n):
    """The ``n`` equal panels of [a, b], their ends ``a + j (b - a)/n`` and
    ``b``, bit for bit what numpy's ``linspace(a, b, n + 1)`` gives."""
    step = (b - a) / n
    return itertools.pairwise([a + j * step for j in range(n)] + [b])


def integrate_rows(rows, lo, hi, tol, initial_panels, cell=None):
    """Integrate many functions at once, integral ``i`` over ``[lo[i], hi[i]]``
    from ``initial_panels[i]`` equal panels, without numpy.

    ``rows(k, a, b)`` gets the integral ``k[j]`` and the ends ``a[j] <
    b[j]`` of each panel to evaluate, at most 512 of them a call, and
    returns for each panel its integrand values at the 15 nodes
    ``mid + half * x`` for ``x`` in ``_NODES``, ``mid`` and ``half`` being
    the panel's midpoint and half-width.  Each integral bisects its own
    worst G7/K15 panel until its summed error is below ``max(abs_tol,
    rel_tol * |result|)``, within its own budget; they share only the
    integrand calls, so each result (a list of complex) is what it alone
    would give.

    Raises
    ------
    NonConvergence
        At the first integral found to exhaust its budget or to have a
        panel whose estimate or error is not finite, its message headed
        ``f"{cell(i)}: "`` when ``cell(i)`` names integral ``i``.
    """
    name = (lambda i: "") if cell is None else (lambda i: f"{cell(i)}: ")
    panels = list(initial_panels)
    for a, b in zip(lo, hi):
        if not a < b:
            raise DomainError(f"need lo < hi, got [{a}, {b}]")
    heaps = [[] for _ in panels]
    totals = [0.0 + 0.0j] * len(panels)
    errors = [0.0] * len(panels)

    # every pending panel as (integral, left, right)
    todo = [(i, a, b) for i, n in enumerate(panels) for a, b in _partition(lo[i], hi[i], n)]
    while todo:
        ests, errs = [], []
        for j in range(0, len(todo), _SLICE):
            est, err = _gk15(rows, *zip(*todo[j:j + _SLICE]))
            ests += est
            errs += err
        for (i, a, b), est, err in zip(todo, ests, errs):
            if not math.isfinite(err):
                raise NonConvergence(f"{name(i)}non-finite integrand on panel [{a}, {b}]",
                                     estimate=est, error=err)
            totals[i] += est
            errors[i] += err
            heapq.heappush(heaps[i], (-err, a, b, est))
        refine = [i for i in dict.fromkeys(i for i, _, _ in todo)
                  if errors[i] > max(tol.abs_tol, tol.rel_tol * abs(totals[i]))]
        todo = []
        for i in refine:
            if panels[i] >= tol.max_subdivisions:
                raise NonConvergence(
                    f"{name(i)}error {errors[i]:.3e} above target after {panels[i]} "
                    f"panels (max_subdivisions={tol.max_subdivisions})",
                    estimate=totals[i], error=errors[i])
            neg_err, a, b, est = heapq.heappop(heaps[i])
            totals[i] -= est
            errors[i] += neg_err  # neg_err == -err
            mid = 0.5 * (a + b)
            todo += [(i, a, mid), (i, mid, b)]
            panels[i] += 1
    return [complex(t) for t in totals]


def integrate_batch(f, lo, hi, tol=QuadTolerance(), initial_panels=8, cell=None):
    """:func:`integrate_rows` for an integrand on arrays: ``f(u, k)`` gets a
    ``(panels, 15)`` array of nodes, at most 512 panels a call, and the
    ``(panels, 1)`` indices of their integrals, and returns an array of
    that shape; ``lo``, ``hi`` and ``initial_panels`` (one count or one per
    integral) may be numbers, lists or arrays, and ``cell``, as there,
    names the integral a failure heads its message with.  This adapter is
    the one place where the engine loads numpy.
    """
    np = numpy()
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    nodes = np.array(_NODES)

    def rows(k, a, b):
        a, b = np.array(a), np.array(b)
        half, mid = 0.5 * (b - a), 0.5 * (b + a)
        # a NaN or inf becomes NonConvergence in integrate_rows, not a warning
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.asarray(f(mid[:, None] + half[:, None] * nodes,
                                np.array(k)[:, None])).tolist()
    return integrate_rows(rows, lo.tolist(), hi.tolist(), tol,
                          np.broadcast_to(initial_panels, lo.shape).tolist(), cell)


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
