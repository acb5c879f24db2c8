"""Reference boundary signals with full analytic metadata.

Three families:

* ``example1`` -- semicircle-plus-linear data whose pullback is
  ``a (sech(z/2) - i tanh(z/2))``; its only strip pole sits exactly on
  Im z = pi (merged with the kernel pole), predicted exponent 0.
* ``example2`` -- Cauchy-type data with a genuine strip pole at
  i pi / 2, predicted exponent 1/4 (divergent case).
* ``h2_reference_pole`` -- an explicit Hardy-class witness
  ``1/(z - w)`` with its boundary trace, for convergence experiments.
"""

import math
from dataclasses import dataclass

import numpy as np

from .approximant import BoundarySignal, ReferencePair
from .asymptotics import StripSingularity, _by_half_plane, _unwrap, \
    predict_growth_exponent
from .errors import DomainError
from .quadrature import DecayCertificate
from .quench import Interval

__all__ = ["CatalogEntry", "example1", "example2", "h2_reference_pole",
           "get_entry", "entry_names"]

PI = math.pi


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    signal: BoundarySignal
    interval: Interval  # the I that the strip pullback and poles are drawn for
    reference: ReferencePair = None

    @property
    def expected_exponent(self):
        return predict_growth_exponent(self.signal.singularities)


def example1(a=1.0):
    """Semicircle data ``sqrt(a^2 - x^2) - i x`` on (-a, a)."""
    if not a > 0:
        raise DomainError("a must be > 0")

    def eval_on_I(x):
        x = np.asarray(x, dtype=float)
        return _unwrap(np.sqrt(np.maximum(a * a - x * x, 0.0)) - 1j * x)

    def strip_pullback(z):
        z = np.asarray(z, dtype=complex)
        return _unwrap(a * (1.0 / np.cosh(0.5 * z) - 1j * np.tanh(0.5 * z)))

    signal = BoundarySignal(
        eval_on_I=eval_on_I,
        strip_pullback=strip_pullback,
        # pole of the pullback at i pi, order 1: sech and -i tanh each
        # contribute -2i a there
        singularities=(StripSingularity(beta=1j * PI, order=1, coeff=-4j * a),),
        decay_cert=DecayCertificate(delta=0.51, bound_M=8.0 * max(a, 1.0)),
    )
    return CatalogEntry(name="example1", signal=signal, interval=Interval(-a, a))


def example2():
    """Cauchy-type data ``(1 - i x) / (1 + x^2)``; strip pole at i pi/2."""

    def eval_on_I(x):
        x = np.asarray(x, dtype=float)
        return _unwrap((1.0 - 1j * x) / (1.0 + x * x))

    def strip_pullback(z):
        # (1-i)(1 + e^{-z}) / (2 (1 - i e^{-z})), written per half plane
        # so neither exponential overflows; the apparent pole of the two
        # raw summands at i 3pi/2 cancels identically in this form
        z = np.asarray(z, dtype=complex)
        return _unwrap(_by_half_plane(
            z, lambda em: (1.0 - 1j) * (1.0 + em) / (2.0 * (1.0 - 1j * em)),
            lambda em: (1.0 - 1j) * (em + 1.0) / (2.0 * (em - 1j))))

    signal = BoundarySignal(
        eval_on_I=eval_on_I,
        strip_pullback=strip_pullback,
        # residue coefficient: numerator (1-i)(1 + e^{-z}) at i pi/2 over
        # d/dz [2(1 - i e^{-z})] = 2 i e^{-z} -> (1-i)^2 / 2 = -i
        singularities=(StripSingularity(beta=0.5j * PI, order=1, coeff=-1j),),
        decay_cert=DecayCertificate(delta=0.1, bound_M=4.0),
    )
    return CatalogEntry(name="example2", signal=signal, interval=Interval(-1.0, 1.0))


def h2_reference_pole(w=-1j, a=1.0):
    """Hardy-class witness ``F(z) = 1/(z - w)`` with pole below the axis."""
    w = complex(w)
    if not w.imag < 0:
        raise DomainError(f"need Im w < 0, got w={w}")
    if not a > 0:
        raise DomainError("a must be > 0")

    def evaluate(z):
        z = np.asarray(z, dtype=complex)
        return _unwrap(1.0 / (z - w))

    def strip_pullback(z):
        z = np.asarray(z, dtype=complex)
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            t = a * np.tanh(0.5 * z)
            value = np.where(np.isfinite(t), 1.0 / (t - w), 0.0 + 0.0j)
        return _unwrap(value)

    signal = BoundarySignal(
        eval_on_I=evaluate,
        strip_pullback=strip_pullback,
        singularities=(),
        decay_cert=DecayCertificate(delta=0.1,
                                    bound_M=2.0 * (1.0 + 1.0 / abs(w.imag))),
    )
    return CatalogEntry(
        name="h2pole",
        signal=signal,
        interval=Interval(-a, a),
        reference=ReferencePair(F_interior=evaluate, f_boundary=evaluate),
    )


_BUILDERS = {
    "example1": example1,
    "example2": example2,
    "h2pole": h2_reference_pole,
}


def entry_names():
    return sorted(_BUILDERS)


def get_entry(name, **kwargs):
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise DomainError(f"unknown catalog entry {name!r}; "
                          f"choose from {entry_names()}") from None
    return builder(**kwargs)
