"""Reference boundary signals with full analytic metadata.

Each builder takes the interval I = (c0 - r, c0 + r) and derives for it
the pullback through ``t = c0 + r tanh(z/2)``, its period and its poles
in one period strip:

* ``rational(c, w)`` -- data ``c / (z - w)``, period 2 pi i.  Im w > 0
  gives the one pole ``2 artanh((w - c0)/r)`` and exponent
  ``theta_w / (2 pi)``, with ``theta_w`` the angle I subtends at w; for
  Im w < 0 the data is its own Hardy-class reference, with exponent 0
  and the pole ``2 artanh((w - c0)/r) + 2 pi i``.
* ``example2 = rational(-i, i)``, exponent 1/4 on (-1, 1), and
  ``h2_reference_pole = rational(1, w)`` with Im w < 0.
* ``example1`` -- semicircle-plus-linear data on I = (-a, a) only, period
  4 pi i, with the pullback ``-i a tanh((z + i pi)/4)``; its one pole
  sits on Im z = pi (merged with the kernel pole), so its exponent is 0.

Every evaluator is a function of one number.
"""

import cmath
import math
from dataclasses import dataclass

from .approximant import BoundarySignal
from .asymptotics import StripSingularity, _mobius, predict_growth_exponent
from .errors import DomainError
from .quench import Interval

__all__ = ["CatalogEntry", "rational", "example1", "example2",
           "h2_reference_pole", "get_entry", "entry_names"]

PI = math.pi
UNIT = Interval(-1.0, 1.0)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    signal: BoundarySignal
    reference: callable = None  # F itself, on Im z >= 0, if it is known

    @property
    def expected_exponent(self):
        return predict_growth_exponent(self.signal.singularities)


def rational(c, w, interval=UNIT, name="rational"):
    """Data ``c / (z - w)`` on ``interval``, with w off the real line."""
    c, w = complex(c), complex(w)
    if not (cmath.isfinite(c) and cmath.isfinite(w) and w.imag != 0):
        raise DomainError(f"need finite c and w off the real line, "
                          f"got c={c}, w={w}")
    c0, r = interval.center, interval.half_width
    d = c0 - w
    # under t = c0 + r tanh(z/2): t - w = (d + r)(1 + ratio e^{-z}) / (1 + e^{-z})
    scale, ratio = c / (d + r), (d - r) / (d + r)

    def evaluate(z):
        return c / (z - w)

    def pullback(z):
        em, d0, d1 = _mobius(z)
        return scale * (1.0 + em) / (d0 + ratio * d1)

    # tanh(beta/2) = s; the residue is c over dt/dz = r (1 - s^2) / 2
    s = (w - c0) / r
    beta = 2.0 * cmath.atanh(s)  # Im beta in (0, pi) for Im w > 0, else (-pi, 0)
    if w.imag < 0:  # kept below 2 pi, onto which it rounds for |w - c0| << r
        beta += 2j * PI
        beta = complex(beta.real, min(beta.imag, math.nextafter(2.0 * PI, 0.0)))
    signal = BoundarySignal(
        eval_on_I=evaluate,
        strip_pullback=pullback,
        singularities=(StripSingularity(beta=beta,
                                        coeff=2.0 * c / (r * (1.0 - s * s))),),
        period=2.0 * PI,
        interval=interval,
    )
    return CatalogEntry(name=name, signal=signal,
                        reference=evaluate if w.imag < 0 else None)


def example1(interval=UNIT):
    """Semicircle data ``sqrt(a^2 - x^2) - i x`` on I = (-a, a)."""
    a = interval.hi
    if interval.lo != -a:
        raise DomainError(f"example1 needs I = (-a, a), got {interval}")

    def eval_on_I(x):
        return math.sqrt(max(a * a - x * x, 0.0)) - 1j * x

    def strip_pullback(z):
        # a (sech(z/2) - i tanh(z/2)), exact at its zero 3 pi i, finite for finite z
        return -1j * a * cmath.tanh(0.25 * (z + 1j * PI))

    signal = BoundarySignal(
        eval_on_I=eval_on_I,
        strip_pullback=strip_pullback,
        # pole of the pullback at i pi, order 1: sech and -i tanh each
        # contribute -2i a there; sech(z/2) changes sign under z + 2 pi i
        singularities=(StripSingularity(beta=1j * PI, order=1, coeff=-4j * a),),
        period=4.0 * PI,
        interval=interval,
    )
    return CatalogEntry(name="example1", signal=signal)


def example2(interval=UNIT):
    """Cauchy-type data ``(1 - i x) / (1 + x^2) = -i / (x - i)``."""
    return rational(-1j, 1j, interval, "example2")


def h2_reference_pole(w=-1j, interval=UNIT):
    """Hardy-class witness ``F(z) = 1/(z - w)`` with pole below the axis."""
    w = complex(w)
    if not w.imag < 0:
        raise DomainError(f"need Im w < 0, got w={w}")
    return rational(1.0, w, interval, "h2pole")


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
