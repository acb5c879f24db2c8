"""Residue machinery on the strip and growth-exponent analysis.

The tanh change of variable (``Interval.from_u``) sends the weighted
Cauchy integral over I to a real-line integral of ``k(u, xi) * p(u)``
where p is the pullback of the data and k carries poles at ``i pi`` and
``i pi + ln(alpha)``, ``alpha = Interval.alpha(x)`` (modulo 2 pi i).
Closing the contour with a rectangle of height ``b in (pi, 3 pi/2]``
expresses the integral through residues, whose ``exp(-xi Im beta)``
decay against the ``exp(xi pi)`` prefactor of g_lambda dictates the
power-law growth exponent in ``1 + lambda``.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .quadrature import QuadTolerance, integrate_batch

__all__ = [
    "StripSingularity",
    "ContourSpec",
    "kernel_k",
    "residue_kernel_pole",
    "residue_merged",
    "residue_strip_pole",
    "contour_identity_check",
    "predict_growth_exponent",
    "check_growth_grid",
    "fit_growth_exponent",
]

PI = math.pi
STRIP_TOP = 1.5 * PI  # strip_pullback is declared on 0 <= Im z <= STRIP_TOP
ALPHA_ONE_TOL = 1e-6  # |alpha - 1| at or below this puts x at infinity


@dataclass(frozen=True)
class StripSingularity:
    """A pole of the pullback in the strip 0 < Im z <= 3 pi / 2.

    ``coeff`` is the limit of ``p(z) (z - beta)^order`` at the pole.
    """

    beta: complex
    order: int = 1
    coeff: complex = 1.0

    def __post_init__(self):
        if not 0.0 < complex(self.beta).imag <= STRIP_TOP:
            raise DomainError(f"need 0 < Im beta <= 3 pi/2, got {self.beta}")
        if self.order < 1:
            raise DomainError("pole order must be >= 1")


@dataclass(frozen=True)
class ContourSpec:
    """Rectangle [-R, R] x [0, height] used to close the contour."""

    R: float
    height: float = STRIP_TOP

    def __post_init__(self):
        if not self.R > 0:
            raise DomainError("R must be > 0")
        if not PI < self.height <= STRIP_TOP:
            raise DomainError(
                f"height must lie in (pi, 3 pi/2], got {self.height}"
            )

    def check(self, xi, alpha):
        """Refuse a (xi, alpha) whose residue identity this rectangle cannot close."""
        if not xi >= 0:
            raise DomainError(f"need xi >= 0, got xi={xi}")
        # both kernel poles must exist and lie at least 1 inside the sides
        ln_a = _kernel_poles(alpha)["at_ipi_plus_ln_alpha"].real
        if not self.R > abs(ln_a) + 1.0:
            raise DomainError(f"need R > |ln(alpha)| + 1 for alpha={alpha}")


def _unwrap(value):
    """A Python scalar for a 0-d array; any other array unchanged."""
    return value.item() if value.ndim == 0 else value


def _by_half_plane(z, right, left):
    """``right(e^{-z})`` where Re z > 0, else ``left(e^z)``: never overflows."""
    right_half = z.real > 0
    em = np.exp(np.where(right_half, -z, z))
    return np.where(right_half, right(em), left(em))


def kernel_k(z, xi, alpha):
    """Transformed Cauchy kernel ``e^{i xi z} e^z / ((e^z+1)(e^z+alpha))``.

    Evaluated in a form stable for large |Re z| on either side.
    """
    z = np.asarray(z, dtype=complex)
    with np.errstate(invalid="ignore", divide="ignore"):
        wave = np.exp(1j * xi * z)
        # for Re z > 0 divide through by e^{2z} to avoid overflow
        value = _by_half_plane(
            z, lambda em: wave * em / ((1.0 + em) * (1.0 + alpha * em)),
            lambda em: wave * em / ((em + 1.0) * (em + alpha)))
    if not np.all(np.isfinite(value)):
        raise DomainError(
            "kernel pole at i(pi + 2 k pi) or i(pi + 2 k pi) + ln(alpha)"
        )
    return _unwrap(value)


def _kernel_poles(alpha):
    """Name -> location of the two kernel poles on Im z = pi."""
    if not (alpha > 0 and abs(alpha - 1.0) > ALPHA_ONE_TOL):
        raise DomainError(f"need alpha > 0 and |alpha - 1| > {ALPHA_ONE_TOL} "
                          f"(x at infinity), got alpha={alpha}")
    return {"at_ipi": 1j * PI, "at_ipi_plus_ln_alpha": 1j * PI + math.log(alpha)}


def residue_kernel_pole(which, xi, alpha, g_strip):
    """Closed-form residue of k * p at one of the two kernel poles.

    Requires the pullback p (``g_strip``) to be analytic there;
    raises :class:`DomainError` otherwise.
    """
    poles = _kernel_poles(alpha)
    if which not in poles:
        raise DomainError(f"which must be one of {tuple(poles)}")
    pole = poles[which]
    # p at the pole, then at eight points of a ring of radius 1e-3 around it
    ring = pole + 1e-3 * np.exp(0.25j * PI * np.arange(8))
    values = np.asarray(g_strip(np.append(pole, ring)), dtype=complex)
    value = complex(values[0])
    # a pullback pole at the kernel pole shows up as a non-finite value,
    # or one far above p on the ring, at the floating-point image of the
    # pole; an analytic p there is the mean of its values on the ring
    if not (math.isfinite(value.real) and math.isfinite(value.imag)) \
            or abs(value) > 1e6 * np.max(np.abs(values[1:])):
        raise DomainError(
            f"pullback singular at {pole}; use residue_merged instead"
        )
    if which == "at_ipi":
        return math.exp(-xi * PI) / (alpha - 1.0) * value
    return math.exp(-xi * PI) * cmath.exp(1j * xi * pole.real) / (1.0 - alpha) * value


def _other_kernel_poles(pole, alpha):
    """(distance, location) of the kernel poles ``i pi (2k + 1)`` and
    ``i pi (2k + 1) + ln(alpha)``, k = -1, 0, 1, other than ``pole``."""
    for k in (-1, 0, 1):
        for base in _kernel_poles(alpha).values():
            cand = base + 2j * PI * k
            if abs(cand - pole) > 1e-12:
                yield abs(cand - pole), cand


def residue_merged(pole, xi, alpha, g_strip, radius=None, n_points=256):
    """Residue of k * p at a pole on (or near) Im z = pi, by quadrature.

    Trapezoid rule on a small circle; spectrally accurate for any
    combined pole order, so it also covers the case where a pole of the
    pullback collides with a kernel pole.
    """
    pole = complex(pole)
    others = list(_other_kernel_poles(pole, alpha))
    if radius is None:
        radius = min(0.2, 0.5 * min(dist for dist, _ in others))
    for dist, cand in others:
        if dist <= radius:
            raise DomainError(
                f"singularity {cand} inside residue circle of radius {radius}"
            )
    theta = 2.0 * PI * np.arange(n_points) / n_points
    ring = np.exp(1j * theta)
    z = pole + radius * ring
    values = np.asarray(kernel_k(z, xi, alpha)) * np.asarray(g_strip(z))
    return complex(radius * np.mean(values * ring))


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


_CONTOUR_GUARD = 1e-6


def _enclosed_residues(g_strip, xi, alpha, singularities):
    kernel_poles = _kernel_poles(alpha)
    listed = [complex(s.beta) for s in singularities]
    total = 0.0 + 0.0j
    for which, kp in kernel_poles.items():
        if any(abs(b - kp) < 1e-9 for b in listed):
            total += residue_merged(kp, xi, alpha, g_strip)
        else:
            total += residue_kernel_pole(which, xi, alpha, g_strip)
    for s in singularities:
        beta = complex(s.beta)
        if any(abs(beta - kp) < 1e-9 for kp in kernel_poles.values()):
            continue  # already handled as a merged kernel pole
        if abs(beta.imag - PI) < 1e-9 or s.order != 1:
            total += residue_merged(beta, xi, alpha, g_strip)
        else:
            total += residue_strip_pole(s, xi, alpha)
    return total


def contour_identity_check(g_strip, xi, alpha, spec, singularities=(),
                           tol=QuadTolerance()):
    """Residual of the residue identity on the closing rectangle.

    Numerically integrates k * p over the four rectangle edges, one
    batch for all four, and returns ``|contour integral - 2 pi i * sum of
    enclosed residues|``; a listed pole counts only inside the rectangle,
    below its top and between its sides.
    """
    spec.check(xi, alpha)
    b = spec.height
    R = spec.R
    for s in singularities:
        beta = complex(s.beta)
        # offsets from the lines of the sides and of the top
        x, y = abs(beta.real) - R, beta.imag - b
        if abs(y) < _CONTOUR_GUARD and x <= _CONTOUR_GUARD or \
                abs(x) < _CONTOUR_GUARD and y <= _CONTOUR_GUARD:
            raise DomainError(f"singularity {beta} on a contour edge")
    if abs(b - PI) < _CONTOUR_GUARD:
        raise DomainError("kernel poles lie on Im z = pi")

    # edge k is z = start[k] + step[k] s; the product with step is taken
    # last, where multiplying by 1 or i is exact
    start = np.array([0.0, 1j * b, R, -R])
    step = np.array([1.0, 1.0, 1j, 1j])

    def f(s, k):
        z = start[k] + step[k] * s
        return step[k] * (np.asarray(kernel_k(z, xi, alpha))
                          * np.asarray(g_strip(z)))

    bottom, top, right, left = integrate_batch(
        f, [-R, -R, 0.0, 0.0], [R, R, b, b], tol,
        [max(8, int(R)), max(8, int(R)), 8, 8])
    loop = bottom + right - top - left
    enclosed = [s for s in singularities
                if complex(s.beta).imag < b and abs(complex(s.beta).real) < R]
    residues = _enclosed_residues(g_strip, xi, alpha, enclosed)
    return abs(loop - 2j * PI * residues)


def predict_growth_exponent(singularities):
    """Predicted p in ``|g_lambda(x)| ~ (1+lambda)^p`` from strip poles.

    Each pole contributes ``(pi - Im beta)/(2 pi)``; an empty list or
    poles only on or above Im z = pi predict exponent 0.
    """
    best = 0.0
    for s in singularities:
        im = complex(s.beta).imag
        if not 0.0 < im <= STRIP_TOP:
            raise DomainError(f"need 0 < Im beta <= 3 pi/2, got {s.beta}")
        best = max(best, (PI - im) / (2.0 * PI))
    return best


def check_growth_grid(lams):
    """``lams`` as an array, once it holds enough lambdas to fit a slope."""
    lams = np.array(lams, dtype=float)
    if len(lams) < 4:
        raise DomainError(f"need >= 4 samples, got {len(lams)}")
    if np.log10(lams.max() / lams.min()) < 4.0 - 1e-12:
        raise DomainError("lambda grid must span at least 4 decades")
    return lams


def fit_growth_exponent(samples):
    """Least-squares slope of ln(magnitude) against ln(1 + lambda)."""
    samples = list(samples)
    lams = check_growth_grid([s[0] for s in samples])
    mags = np.array([s[1] for s in samples], dtype=float)
    if np.any(mags <= 0):
        raise DomainError("all magnitudes must be > 0")
    return float(np.polyfit(np.log1p(lams), np.log(mags), 1)[0])
