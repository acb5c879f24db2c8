"""Adaptive quadrature for complex-valued integrands, in plain Python.

* :func:`integrate_rows` -- many globally adaptive Gauss-Kronrod
  (G7/K15) integrals on finite intervals, sharing integrand calls;
  :func:`integrate_adaptive` is one integral of a function of a number.
* :func:`pv_integrate` -- the principal value of ``w(t)/(x - t)`` at an
  interior Cauchy singularity, by singularity subtraction.
* :func:`integrate_real_line` -- a truncated real-line integral whose
  truncation point comes from a decay certificate.

The loop's integrand, ``rows(k, a, b)``, returns the 15 node values of
each panel it is given, as lists or any sequences.  Every caller builds
it with ``_rows`` from one panel's row, so a fault at a node has one
rule: a ZeroDivisionError, OverflowError or ValueError other than a
DomainError (a pole on a node, a value beyond the doubles) makes the
row NaN, which :func:`integrate_rows` reports as a NonConvergence naming
the integral and the panel.  Real and imaginary parts are summed from
the same nodes, so both parts always see identical grids.
"""

import heapq
import itertools
import math
import numbers
from dataclasses import dataclass

from .errors import DomainError, NonConvergence
from .quench import Interval

__all__ = [
    "QuadTolerance",
    "DecayCertificate",
    "integrate_rows",
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
        # ln(2 M / (rate abs_tol)) as a sum, which no large M overflows
        u = (math.log(2.0) + math.log(self.bound_M) - math.log(rate)
             - math.log(abs_tol)) / rate
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
# the row of a panel with a fault at a node (see _rows)
_NAN_ROW = [complex(math.nan, math.nan)] * len(_NODES)


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
        try:
            errs.append(abs(kronrod - gauss))
        except OverflowError:  # a modulus beyond the doubles; after an overflow
            errs.append(math.inf)  # at a node, complex abs may raise on NaN too
    return ests, errs


def _nodes(a, b):
    """The 15 nodes ``mid + half * x``, ``x`` in ``_NODES``, of the panel [a, b]."""
    half, mid = 0.5 * (b - a), 0.5 * (b + a)
    return [mid + half * x for x in _NODES]


def _rows(row):
    """The ``rows`` of :func:`integrate_rows` from ``row(k, a, b)``, the node
    values of one panel of integral ``k``: a ZeroDivisionError, OverflowError
    or ValueError other than a DomainError in it gives a NaN row."""
    def rows(ks, los, his):
        out = []
        for k, a, b in zip(ks, los, his):
            try:
                out.append(row(k, a, b))
            except DomainError:
                raise
            except (ZeroDivisionError, OverflowError, ValueError):
                out.append(_NAN_ROW)
        return out
    return rows


def _partition(a, b, n):
    """The ``n`` equal panels of [a, b], their ends ``a + j (b - a)/n`` and
    ``b``, bit for bit what numpy's ``linspace(a, b, n + 1)`` gives."""
    step = (b - a) / n
    return itertools.pairwise([a + j * step for j in range(n)] + [b])


def integrate_rows(rows, lo, hi, tol, initial_panels, cell=None):
    """Integrate many functions at once, integral ``i`` over ``[lo[i], hi[i]]``
    from ``initial_panels[i]`` equal panels.

    ``rows(k, a, b)`` gets the integral ``k[j]`` and the ends ``a[j] <
    b[j]`` of each panel to evaluate, at most 512 of them a call, and
    returns for each panel its integrand values at the 15 nodes
    ``_nodes(a[j], b[j])``.  Each integral bisects its own
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


def integrate_adaptive(f, lo, hi, tol=QuadTolerance(), initial_panels=8):
    """Integrate ``f(u)``, a function of one number, on ``[lo, hi]``: an
    :func:`integrate_rows` of one."""
    return integrate_rows(_rows(lambda k, a, b: [f(u) for u in _nodes(a, b)]),
                          [lo], [hi], tol, [initial_panels])[0]


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

    def smooth(t):
        return (w(t) - wx) / (x - t)
    return integrate_adaptive(smooth, lo, x, tol) + integrate_adaptive(smooth, x, hi, tol) \
        + wx * interval.to_u(x)


def integrate_real_line(f, cert, tol=QuadTolerance()):
    """Integrate ``f(u)`` over the real line, truncated via ``cert``.

    The truncation half-width U is chosen so that the certified tail
    bound ``bound_M * exp((delta-1) U) / (1 - delta)`` stays below half
    the absolute tolerance.
    """
    u_max = cert.truncation_point(tol.abs_tol)
    # initial panels: one per two units, at least 8
    return integrate_adaptive(f, -u_max, u_max, tol, max(8, math.ceil(u_max)))
