"""Residue machinery on the strip and growth-exponent analysis.

The tanh change of variable (``Interval.from_u``) sends the weighted
Cauchy integral over I to a real-line integral of ``k(u, xi) * p(u)``
where p is the pullback of the data and k carries poles at ``i pi`` and
``i pi + ln(alpha)``, ``alpha = (x - lo)/(x - hi)`` (modulo 2 pi i).
Closing the contour with a rectangle of height ``b in (pi, 3 pi/2]``
expresses the integral through residues, whose ``exp(-xi Im beta)``
decay against the ``exp(xi pi)`` prefactor of g_lambda dictates the
power-law growth exponent in ``1 + lambda``.

One engine, :func:`residue_terms`, sums those residues for g_lambda's
period strip and for the contour check's rectangle alike: a window and
the images of its poles, a closed form for each lone simple pole and a
64-point circle rule for merged, clustered or higher-order poles; a
pullback singular at a lone kernel pole, its pole not listed, is refused.
``residue_kernel_pole``, ``residue_strip_pole`` and ``residue_merged``
compute the same residues independently, as cross-checks.
"""

import cmath
import functools
import itertools
import math
import operator
from dataclasses import dataclass

from .errors import DomainError
from .quadrature import QuadTolerance, _nodes, _rows, integrate_rows

__all__ = [
    "StripSingularity",
    "ContourSpec",
    "kernel_k",
    "residue_kernel_pole",
    "residue_merged",
    "residue_strip_pole",
    "residue_terms",
    "enclosed_residues",
    "contour_residuals",
    "contour_identity_check",
    "predict_growth_exponent",
    "check_growth_grid",
    "fit_growth_exponent",
]

PI = math.pi
STRIP_TOP = 1.5 * PI  # strip_pullback is declared on 0 <= Im z <= STRIP_TOP
ALPHA_ONE_TOL = 1e-6  # |alpha - 1| at or below this puts x at infinity
# beyond this |Re z| the kernel's e^{-|Re z|} is below the least double
R_MAX = -math.log(math.ulp(0.0))
# least distance of a pole, the kernel poles on Im z = pi too, from a contour edge
_CONTOUR_GUARD = 1e-6


@dataclass(frozen=True)
class StripSingularity:
    """A pole of the pullback above the real line, at finite ``beta``.

    ``coeff`` is the limit of ``p(z) (z - beta)^order`` at the pole.
    How high it may lie is the signal's to say (see ``BoundarySignal``).
    """

    beta: complex
    order: int = 1
    coeff: complex = 1.0

    def __post_init__(self):
        if not (cmath.isfinite(self.beta) and complex(self.beta).imag > 0.0):
            raise DomainError(f"need a finite beta with Im beta > 0, got {self.beta}")
        if self.order < 1:
            raise DomainError("pole order must be >= 1")


@dataclass(frozen=True)
class ContourSpec:
    """Rectangle [-R, R] x [0, height] used to close the contour."""

    R: float
    height: float = STRIP_TOP

    def __post_init__(self):
        if not 0 < self.R < math.inf:
            raise DomainError(f"R must be finite and > 0, got {self.R}")
        # the bottom and top start int(R) panels; a wider rectangle adds zeros
        if self.R > R_MAX:
            raise DomainError(f"R must be at most {R_MAX:.2f}, where the kernel "
                              f"underflows to 0, got {self.R}")
        # the kernel poles lie on Im z = pi
        if not PI < self.height <= STRIP_TOP or self.height - PI < _CONTOUR_GUARD:
            raise DomainError(f"height must lie in (pi, 3 pi/2], at least "
                              f"{_CONTOUR_GUARD} above pi, got {self.height}")

    def check(self, xi, alpha):
        """Refuse a (xi, alpha) whose residue identity this rectangle cannot close."""
        if not xi >= 0:
            raise DomainError(f"need xi >= 0, got xi={xi}")
        # both kernel poles must exist and lie at least 1 inside the sides
        ln_a = _kernel_poles(alpha)["at_ipi_plus_ln_alpha"].real
        if not self.R > abs(ln_a) + 1.0:
            raise DomainError(f"need R > |ln(alpha)| + 1 for alpha={alpha}")


def _mobius(z):
    """``(em, d0, d1)``: ``e^{-z}``, 1 and ``e^{-z}`` where Re z > 0, else
    ``e^z``, ``e^z`` and 1, so that ``(1 + em) / (d0 + c d1) = (e^z + 1) /
    (e^z + c)`` for every ratio c, on both sides, from one exponential
    that never overflows."""
    em = cmath.exp(-z if z.real > 0 else z)
    return (em, 1.0, em) if z.real > 0 else (em, em, 1.0)


def kernel_k(z, xi, alpha):
    """Transformed Cauchy kernel ``e^{i xi z} e^z / ((e^z+1)(e^z+alpha))``
    at a number ``z``, as a complex.

    alpha may be complex; the poles are ``i pi (2k + 1)`` and ``Log(-alpha)
    + 2 pi i k``.  The phase ``e^{i xi z}`` times the quotient of
    :func:`_kernel`, which never overflows.
    """
    z = complex(z)
    try:
        value = cmath.exp(1j * xi * z) * _kernel(z, alpha)
    except (ZeroDivisionError, OverflowError, ValueError):
        value = cmath.nan  # on a pole, or a phase beyond the doubles
    if not cmath.isfinite(value):
        raise DomainError(
            "kernel pole at i pi (2k + 1) or Log(-alpha) + 2 pi i k")
    return value


def _kernel(u, alpha):
    """``k(u, 0, alpha)`` of :func:`kernel_k`, in ``_mobius``'s one form for
    both half planes."""
    em, d0, d1 = _mobius(u)
    return em / ((1.0 + em) * (d0 + alpha * d1))


def _kernel_poles(alpha):
    """Name -> location of the two kernel poles on Im z = pi."""
    if not (alpha > 0 and abs(alpha - 1.0) > ALPHA_ONE_TOL):
        raise DomainError(f"need alpha > 0 and |alpha - 1| > {ALPHA_ONE_TOL} "
                          f"(x at infinity), got alpha={alpha}")
    return {"at_ipi": 1j * PI, "at_ipi_plus_ln_alpha": 1j * PI + math.log(alpha)}


def _at_kernel_pole(p, pole):
    """``p(pole)`` at a kernel pole, where p must be analytic.

    A pole of p there shows up as a non-finite value, or one far above p
    on a ring of radius 1e-3, at the floating-point image of the pole; an
    analytic p there is the mean of its values on the ring.
    """
    value = p(pole)
    ring = max(abs(p(pole + 1e-3 * cmath.exp(0.25j * PI * k))) for k in range(8))
    if not cmath.isfinite(value) or abs(value) > 1e6 * ring:
        raise DomainError(f"pullback singular at {pole}; list its pole there, "
                          f"or use residue_merged")
    return value


def residue_kernel_pole(which, xi, alpha, g_strip):
    """Closed-form residue of k * p at one of the two kernel poles.

    Requires the pullback p (``g_strip``) to be analytic there;
    raises :class:`DomainError` otherwise.
    """
    poles = _kernel_poles(alpha)
    if which not in poles:
        raise DomainError(f"which must be one of {tuple(poles)}")
    pole = poles[which]
    value = _at_kernel_pole(lambda u: complex(g_strip(u)), pole)
    if which == "at_ipi":
        return math.exp(-xi * PI) / (alpha - 1.0) * value
    return math.exp(-xi * PI) * cmath.exp(1j * xi * pole.real) / (1.0 - alpha) * value


def residue_merged(pole, xi, alpha, g_strip, radius=None, n_points=256):
    """Residue of k * p at a pole on (or near) Im z = pi, by quadrature.

    Trapezoid rule on a small circle; spectrally accurate for any
    combined pole order, so it also covers the case where a pole of the
    pullback collides with a kernel pole.
    """
    pole = complex(pole)
    # the kernel poles of the strips k = -1, 0, 1, other than the pole
    others = [base + 2j * PI * k for k in (-1, 0, 1)
              for base in _kernel_poles(alpha).values()]
    others = [cand for cand in others if abs(cand - pole) > 1e-12]
    if radius is None:
        radius = min(0.2, 0.5 * min(abs(cand - pole) for cand in others))
    for cand in others:
        if abs(cand - pole) <= radius:
            raise DomainError(
                f"singularity {cand} inside residue circle of radius {radius}"
            )
    total = 0.0
    for j in range(n_points):
        ring = cmath.exp(1j * (2.0 * PI * j / n_points))
        z = pole + radius * ring
        total += kernel_k(z, xi, alpha) * g_strip(z) * ring
    return complex(radius * (total / n_points))


def residue_strip_pole(s, xi, alpha):
    """Closed-form residue of k * p at a simple pole of the strip off Im z = pi.

    Equals ``k(beta) * coeff``; its modulus factors as a xi-independent
    constant times ``exp(-xi Im beta)``.
    """
    if s.order != 1:
        raise DomainError(
            "closed form covers simple poles only; use residue_merged"
        )
    beta = complex(s.beta)
    if abs(beta.imag - PI) < 1e-9:
        raise DomainError("closed form requires Im beta != pi; use residue_merged")
    emb = cmath.exp(-beta)
    num = cmath.exp(1j * xi * beta.real) * math.exp(-xi * beta.imag) * emb
    return num / ((1.0 + emb) * (1.0 + alpha * emb)) * complex(s.coeff)


# nodes of the circle rule round a merged pole or a cluster of poles
_RING = 64


def _clusters(locations, near):
    """The poles at ``locations`` as groups of indices: a group joins another
    that has a pole within ``near`` of one of its own or, once it has two,
    within four times its spread of its centre, so that a circle can
    enclose it alone."""
    groups = [[i] for i in range(len(locations))]

    def joined(a, b):
        if min(abs(locations[i] - locations[j]) for i in a for j in b) < near:
            return True
        for group, other in ((a, b), (b, a)):
            if len(group) > 1:
                centre = sum(locations[i] for i in group) / len(group)
                reach = 4.0 * max(abs(locations[i] - centre) for i in group)
                if any(abs(locations[j] - centre) < reach for j in other):
                    return True
        return False
    while True:
        pair = next(((a, b) for a, b in itertools.combinations(range(len(groups)), 2)
                     if joined(groups[a], groups[b])), None)
        if pair is None:
            return groups
        groups[pair[0]] += groups.pop(pair[1])


def residue_terms(p, alpha, scale, singularities, period, top=None,
                  R=math.inf, e=0.0, e_u0=None):
    """The residues of ``e^{i xi u} Q(u)``, ``Q = scale k(u, 0, alpha) p(u)``,
    in the window Im u < ``top`` (default ``period``), |Re u| < ``R``, as
    ``terms(xi)``: (phase point, weight) pairs whose ``e^{i xi phase}
    weight`` sum to those residues times ``e^{i xi e}``, built once per
    min(0.1, 1/xi), the one way they depend on xi.  Q's poles are p's
    listed ``singularities`` and the kernel's, ``i pi (2k + 1)`` and
    ``u0 + 2 pi i k``, with ``u0 = Log(-alpha)``, 0 <= Im u0 <= pi (the
    real ln(-alpha) for alpha < 0, ln(alpha) + i pi for alpha > 0), where
    with ``scale = 1 - alpha`` (g_lambda's ``2r/(hi - z)``) the residues
    are ``-p`` and ``p``.  A lone simple pole takes its closed form, phase
    point ``e`` plus its location (``e_u0 + 2 pi i k`` at ``u0 + 2 pi i
    k``; ``e_u0`` is ``e + u0`` unless given exactly); at a lone kernel
    pole p must be analytic, or ``_at_kernel_pole`` raises
    :class:`DomainError`.  Poles nearer each other than min(0.1, 1/xi),
    whose closed forms would cancel, and merged or higher-order poles
    share a 64-point circle rule of radius at most 0.2, 2/xi and half the
    distance to any other pole, to a listed pole outside the window and to
    any ``+-i period`` image.
    """
    top = period if top is None else top
    a = complex(alpha)
    u0 = cmath.log(-a) if a.imag else complex(math.log(-a.real)) if a.real < 0 \
        else complex(math.log(a.real), PI)
    e_u0 = e + u0 if e_u0 is None else e_u0
    # (location, order, residue of Q, phase point)
    candidates = []
    for k in range(math.ceil(top / (2.0 * PI))):
        shift = 2j * PI * k
        at_pi, at_u0 = 1j * PI + shift, u0 + shift
        candidates += [(at_pi, 1, lambda u=at_pi: -_at_kernel_pole(p, u),
                        e + at_pi),
                       (at_u0, 1, lambda u=at_u0: _at_kernel_pole(p, u),
                        e_u0 + shift)]
    for s in singularities:
        beta = complex(s.beta)
        candidates.append((beta, s.order,
                           lambda b=beta, c=s.coeff: scale * _kernel(b, alpha) * c,
                           e + beta))
    poles = [pole for pole in candidates if pole[0].imag < top and abs(pole[0].real) < R]
    locations = [pole[0] for pole in poles]
    # what a circle keeps clear of beside the other poles: their images, and
    # the listed poles outside the window
    images = [b + image for b in locations for image in (1j * period, -1j * period)]
    images += [pole[0] for pole in candidates if pole not in poles]

    def q(u):
        return scale * _kernel(u, alpha) * p(u)

    @functools.cache
    def terms(key):
        # a lone simple pole's residue of Q, or a circle node's share of the
        # contour integral of Q round its group
        out = []
        for group in _clusters(locations, key):
            if len(group) == 1 and poles[group[0]][1] == 1:
                _, _, residue, phase = poles[group[0]]
                out.append((phase, residue()))
                continue
            # one circle round the group, clear of every other pole and image
            members = [locations[i] for i in group]
            centre = sum(members) / len(members)
            spread = max(abs(b - centre) for b in members)
            others = [b for j, b in enumerate(locations) if j not in group] + images
            radius = min(0.5 * min(abs(b - centre) for b in others),
                         max(2.0 * spread, 2.0 * key))
            for k in range(_RING):
                step = radius * cmath.exp(2j * PI * k / _RING)
                out.append((e + centre + step, q(centre + step) * step / _RING))
        return out
    return lambda xi: terms(min(0.1, 1.0 / xi) if xi else 0.1)


def enclosed_residues(g_strip, cells, spec, singularities=()):
    """Sum of the residues of ``k p`` in the rectangle ``spec`` per (xi, alpha)
    of ``cells``: :func:`residue_terms` of ``(1 - alpha) k p``, its kernel
    pole ln(alpha) + i pi and the ``2 pi i`` images, over ``1 - alpha``."""
    lists, sums = {}, []
    for xi, alpha in cells:
        if alpha not in lists:
            lists[alpha] = residue_terms(lambda u: complex(g_strip(u)), alpha,
                                         1.0 - alpha, singularities, 2.0 * PI,
                                         spec.height, spec.R)
        sums.append(sum(cmath.exp(1j * xi * phase) * weight
                        for phase, weight in lists[alpha](xi)) / (1.0 - alpha))
    return sums


def contour_residuals(g_strip, cells, spec, singularities=(),
                      tol=QuadTolerance()):
    """Residuals of the residue identity, one per ``(xi, alpha)`` in ``cells``.

    Numerically integrates k * p, ``g_strip`` being p as a function of one
    complex number, over the four rectangle edges of every cell, one
    batch (:func:`integrate_rows`) for all of them, and returns
    ``|contour integral - 2 pi i * sum of enclosed residues|`` per cell; a
    fault at a node is a non-finite panel (:class:`NonConvergence`, see
    ``quadrature._rows``); a listed pole counts only inside the
    rectangle, below its top and between its sides.  A
    pole of ``g_strip`` left off ``singularities`` is refused where it meets
    a lone kernel pole (see :func:`residue_terms`); elsewhere its residue
    is missing and the residual shows it.
    """
    for xi, alpha in cells:
        spec.check(xi, alpha)
    b, R = spec.height, spec.R
    for s in singularities:
        beta = complex(s.beta)
        # offsets from the lines of the sides and of the top
        x, y = abs(beta.real) - R, beta.imag - b
        if abs(y) < _CONTOUR_GUARD and x <= _CONTOUR_GUARD or \
                abs(x) < _CONTOUR_GUARD and y <= _CONTOUR_GUARD:
            raise DomainError(f"singularity {beta} on a contour edge")

    # integral k is edge k % 4 (bottom, top, right, left) of cell k // 4, on
    # which z = s + i b (b = 0 at the bottom) or z = +-R + i s.  The cells
    # share each edge's panels, which come from one bisection tree, so a
    # panel's nodes and pullback, its kernel per alpha and its phase per xi
    # are each evaluated once, and a cell's row is a product of two lists.
    cells = [(float(xi), float(alpha)) for xi, alpha in cells]
    keys = [(edge, xi, alpha) for xi, alpha in cells for edge in range(4)]

    @functools.cache
    def side(edge, a, c):
        # the nodes z and per node (q, d0, d1), with (em, d0, d1) of _mobius
        # and q = dz/ds p(z) em / (1 + em), so that dz/ds k(z, 0, alpha) p(z)
        # is q / (d0 + alpha d1) at every alpha; dz/ds is 1 or i
        s = _nodes(a, c)
        if edge < 2:
            z, dzds = [complex(v, (0.0, b)[edge]) for v in s], 1.0
        else:
            z, dzds = [complex((R, -R)[edge - 2], v) for v in s], 1j
        parts = []
        for u in z:
            em, d0, d1 = _mobius(u)
            parts.append((dzds * complex(g_strip(u)) * em / (1.0 + em), d0, d1))
        return z, parts

    @functools.cache
    def weighted(edge, a, c, alpha):
        return [q / (d0 + alpha * d1) for q, d0, d1 in side(edge, a, c)[1]]

    @functools.cache
    def wave(edge, a, c, xi):
        return [cmath.exp(1j * xi * u) for u in side(edge, a, c)[0]]

    def row(k, a, c):
        edge, xi, alpha = keys[k]
        return list(map(operator.mul, weighted(edge, a, c, alpha), wave(edge, a, c, xi)))

    def cell(k):
        edge, xi, alpha = keys[k]
        edge = ("bottom", "top", "right", "left")[edge]
        return f"contour at xi={xi!r}, alpha={alpha!r}, {edge} edge"

    n = len(cells)
    edges = integrate_rows(_rows(row), [-R, -R, 0.0, 0.0] * n, [R, R, b, b] * n, tol,
                           [max(8, int(R)), max(8, int(R)), 8, 8] * n, cell)
    residues = enclosed_residues(g_strip, cells, spec, singularities)
    return [abs(bottom + right - top - left - 2j * PI * res)
            for bottom, top, right, left, res
            in zip(edges[::4], edges[1::4], edges[2::4], edges[3::4], residues)]


def contour_identity_check(g_strip, xi, alpha, spec, singularities=(),
                           tol=QuadTolerance()):
    """Residual at one ``(xi, alpha)``: a batch of one (:func:`contour_residuals`)."""
    return contour_residuals(g_strip, [(xi, alpha)], spec, singularities, tol)[0]


def predict_growth_exponent(singularities):
    """Predicted p in ``|g_lambda(x)| ~ (1+lambda)^p`` from strip poles.

    Each pole contributes ``(pi - Im beta)/(2 pi)``; an empty list or
    poles only on or above Im z = pi predict exponent 0.
    """
    best = 0.0
    for s in singularities:
        im = complex(s.beta).imag
        if not 0.0 < im < math.inf:
            raise DomainError(f"need 0 < Im beta < inf, got {s.beta}")
        best = max(best, (PI - im) / (2.0 * PI))
    return best


def check_growth_grid(lams):
    """``lams`` as a list of floats, once it holds enough lambdas to fit a slope."""
    lams = [float(lam) for lam in lams]
    if len(lams) < 4:
        raise DomainError(f"need >= 4 samples, got {len(lams)}")
    for lam in lams:
        if not 0 < lam < math.inf:
            raise DomainError(f"need finite lambda > 0, got {lam}")
    if math.log10(max(lams) / min(lams)) < 4.0 - 1e-12:
        raise DomainError("lambda grid must span at least 4 decades")
    return lams


def fit_growth_exponent(samples):
    """Least-squares slope of ln(magnitude) against ln(1 + lambda), in
    closed form: sum((x - mean x) y) / sum((x - mean x)^2)."""
    samples = list(samples)
    lams = check_growth_grid([s[0] for s in samples])
    mags = [float(s[1]) for s in samples]
    for mag in mags:
        if not 0 < mag < math.inf:
            raise DomainError(f"all magnitudes must be > 0 and finite, got {mag}")
    xs = [math.log1p(lam) for lam in lams]
    mean = math.fsum(xs) / len(xs)
    dx = [x - mean for x in xs]
    return math.fsum(d * math.log(m) for d, m in zip(dx, mags)) / \
        math.fsum(d * d for d in dx)
