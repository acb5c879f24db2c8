"""The quenching weight h_lambda on the upper half plane.

h_lambda is the exponential of a Cauchy-type integral over the recovery
window I.  Its exponent has an exact antiderivative, so the interior
value is evaluated in closed form; quadrature of the defining integral
is kept only as a test oracle.  On the real line the weight degenerates
to a unimodular phase outside I and to ``(1+lambda)^{-1/2}`` times a
phase inside.
"""

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

__all__ = [
    "Interval",
    "QuenchParams",
    "xi_of_lambda",
    "phase_G",
    "quench_interior",
    "quench_boundary",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Interval:
    """Open interval (lo, hi) on the real line, the tanh image of the u-line."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise DomainError("interval endpoints must be finite")
        if not self.lo < self.hi:
            raise DomainError(f"need lo < hi, got ({self.lo}, {self.hi})")

    @property
    def center(self):
        return 0.5 * (self.lo + self.hi)

    @property
    def half_width(self):
        return 0.5 * (self.hi - self.lo)

    def contains(self, x):
        """Whether ``x`` lies in (lo, hi); elementwise for an array ``x``."""
        return (self.lo < x) & (x < self.hi)

    @property
    def guard(self):
        """Distance from an endpoint inside which points are nudged or refused."""
        return 1e-6 * (self.hi - self.lo)

    def is_endpoint(self, x):
        """True if ``x`` (or any element of an array ``x``) is an endpoint."""
        return bool(np.any((x == self.lo) | (x == self.hi)))

    def from_u(self, u):
        """``center + half_width tanh(u/2)``, for real or complex ``u``, or arrays."""
        return self.center + self.half_width * np.tanh(0.5 * u)

    def to_u(self, x):
        """The preimage ``ln((x - lo)/(hi - x))`` of a real ``x`` in I."""
        if not self.contains(x):
            raise DomainError(f"to_u needs x in ({self.lo}, {self.hi}), got x={x}")
        return math.log((x - self.lo) / (self.hi - x))

    def alpha(self, x):
        """Kernel parameter of real ``x`` off [lo, hi]: from_u(i pi + ln alpha) = x."""
        if self.lo <= x <= self.hi:
            raise DomainError(f"alpha needs x off [{self.lo}, {self.hi}], got x={x}")
        return (x - self.lo) / (x - self.hi)


def xi_of_lambda(lam):
    """Logarithmic frequency ``ln(1 + lambda) / (2 pi)``."""
    if lam < 0:
        raise DomainError(f"lambda must be >= 0, got {lam}")
    return math.log1p(lam) / TWO_PI


@dataclass(frozen=True)
class QuenchParams:
    """Regularization strength lambda and its derived frequency xi."""

    lam: float
    xi: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "xi", xi_of_lambda(self.lam))


def _log_weight_ratio(interval):
    # ln((1 + hi^2) / (1 + lo^2)), the Poisson-weight correction term
    return math.log1p(interval.hi ** 2) - math.log1p(interval.lo ** 2)


def _phase(x, params, interval):
    # G(x) for a float or an array, unchecked: not finite at the endpoints
    ratio = np.log(np.abs((interval.hi - x) / (interval.lo - x)))
    return params.xi * (ratio - 0.5 * _log_weight_ratio(interval))


def phase_G(x, params, interval):
    """Boundary phase of h_lambda at real points off the endpoints.

    ``x`` is a float or an array.  Unified over symmetric and
    nonsymmetric intervals; the weight-ratio term vanishes identically
    when ``lo == -hi``.
    """
    if interval.is_endpoint(x):
        raise DomainError(f"phase undefined at interval endpoint x={x}")
    return _phase(x, params, interval)


def quench_interior(z, params, interval):
    """h_lambda(z) for Im z > 0, in closed form.

    The defining integrand splits as ``1/(t-z) - t/(1+t^2)``; both
    pieces have exact antiderivatives.  The principal Log is applied to
    ``hi - z`` and ``lo - z`` separately (both stay in the open lower
    half plane, so no branch cut is crossed).
    """
    z = complex(z)
    if not z.imag > 0:
        raise DomainError(f"need Im z > 0, got z={z}")
    cauchy = cmath.log(interval.hi - z) - cmath.log(interval.lo - z)
    exponent = cauchy - 0.5 * _log_weight_ratio(interval)
    return cmath.exp(-math.log1p(params.lam) / (TWO_PI * 1j) * exponent)


def quench_boundary(x, params, interval):
    """Boundary trace of h_lambda at a real point off the endpoints."""
    modulus = 1.0
    if interval.contains(x):
        modulus = 1.0 / math.sqrt(1.0 + params.lam)
    return modulus * cmath.exp(1j * phase_G(x, params, interval))
