"""The quenching weight h_lambda on the upper half plane.

h_lambda is the exponential of a Cauchy-type integral over the recovery
window I.  Its exponent has an exact antiderivative, so h_lambda is
evaluated in closed form on the closed upper half plane; quadrature of
the defining integral is kept only as a test oracle.  On the real line
it is its limit from above: a unimodular phase outside I and
``(1+lambda)^{-1/2}`` times a phase inside.
"""

import cmath
import math
from dataclasses import dataclass, field

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
        if not (math.isfinite(self.lo + self.hi) and math.isfinite(self.hi - self.lo)):
            raise DomainError(f"interval center or width overflows a double: "
                              f"({self.lo}, {self.hi})")

    @property
    def center(self):
        return 0.5 * (self.lo + self.hi)

    @property
    def half_width(self):
        return 0.5 * (self.hi - self.lo)

    def contains(self, x):
        """Whether the real ``x`` lies in (lo, hi)."""
        return self.lo < x < self.hi

    @property
    def guard(self):
        """Endpoint distance of window samples' nudge and ``pv_integrate``'s refusal."""
        return 1e-6 * (self.hi - self.lo)

    def point(self, z, interior=False):
        """``z`` as a complex number, a real x as ``complex(x, 0.0)``, if finite,
        with Im z > 0 or (unless ``interior``) Im z = 0, and over 1e-300 (hi - lo)
        from each endpoint, nearer which E(z) overflows; else a DomainError."""
        z = complex(z)
        if not cmath.isfinite(z):
            raise DomainError(f"need a finite point, got z={z}")
        if not (z.imag > 0 or z.imag == 0 and not interior):
            raise DomainError(f"need Im z > 0, got z={z}")
        for end in (self.lo, self.hi):
            if abs(z - end) <= 2e-300 * self.half_width:
                raise DomainError(f"z={z} is within 1e-300*|I| of endpoint x={end}")
        return z if z.imag else complex(z.real, 0.0)

    def from_u(self, u):
        """``center + half_width tanh(u/2)`` for a real or complex number ``u``."""
        tanh = cmath.tanh if isinstance(u, complex) else math.tanh
        return self.center + self.half_width * tanh(0.5 * u)

    def to_u(self, x):
        """The preimage ``ln((x - lo)/(hi - x))`` of a real ``x`` in I."""
        if not self.contains(x):
            raise DomainError(f"to_u needs x in ({self.lo}, {self.hi}), got x={x}")
        return math.log((x - self.lo) / (self.hi - x))


def xi_of_lambda(lam):
    """Logarithmic frequency ``ln(1 + lambda) / (2 pi)``."""
    if not 0 <= lam < math.inf:
        raise DomainError(f"lambda must be finite and >= 0, got {lam}")
    return math.log1p(lam) / TWO_PI


@dataclass(frozen=True)
class QuenchParams:
    """Regularization strength lambda and its derived frequency xi."""

    lam: float
    xi: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "xi", xi_of_lambda(self.lam))


def _log_weight_ratio(interval):
    # L = ln((1 + hi^2) / (1 + lo^2)), by hypot: no finite endpoint overflows it
    return 2.0 * math.log(math.hypot(1.0, interval.hi) / math.hypot(1.0, interval.lo))


def phase_G(x, params, interval):
    """Boundary phase of h_lambda at real points off the endpoints.

    ``x`` is a real number that ``Interval.point`` admits.  Unified over
    symmetric and nonsymmetric intervals; the weight-ratio term vanishes
    identically when ``lo == -hi``.
    """
    interval.point(x)
    ratio = math.log(abs((interval.hi - x) / (interval.lo - x)))
    return params.xi * (ratio - 0.5 * _log_weight_ratio(interval))


def _quench_exponent(z, interval):
    """E(z) = Log((z - hi)/(z - lo)) for Im z >= 0; E does not depend on lambda.

    h_lambda = exp(i xi (E - L/2)), L from ``_log_weight_ratio``; g_lambda
    takes E alone, as exp(-i xi L/2) cancels against exp(-iG)'s constant.
    ``z - hi`` and ``z - lo`` lie in the closed upper half plane, so E is
    Log(z - hi) - Log(z - lo), a real ``complex(x, 0.0)`` inside I getting
    the limit from above; the one Log errs by eps, not eps ln|endpoint|.
    """
    return cmath.log((z - interval.hi) / (z - interval.lo))


def _quench(z, params, interval):
    """h_lambda(z) = exp(i xi (E(z) - L/2)) for Im z >= 0 (see ``_quench_exponent``)."""
    exponent = _quench_exponent(z, interval) - 0.5 * _log_weight_ratio(interval)
    return cmath.exp(1j * params.xi * exponent)


def quench_interior(z, params, interval):
    """h_lambda(z) for Im z > 0, in closed form (see ``Interval.point``)."""
    return _quench(interval.point(z, interior=True), params, interval)


def quench_boundary(x, params, interval):
    """h_lambda at a real point off the endpoints: its limit from above (see
    ``Interval.point``)."""
    return _quench(interval.point(x), params, interval)
