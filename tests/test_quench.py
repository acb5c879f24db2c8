import cmath
import importlib.util
import math
import random
import re
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patil.approximant import approximant_interior, approximant_table
from patil.catalog import example2
from patil.errors import DomainError
from patil.quadrature import QuadTolerance, integrate_adaptive
from patil.quench import (
    Interval,
    QuenchParams,
    phase_G,
    quench_boundary,
    quench_interior,
    xi_of_lambda,
)

SYM = Interval(-1.0, 1.0)

# the benchmark's mpmath oracle, loaded read-only from its file
_spec = importlib.util.spec_from_file_location(
    "perfbench_oracle", Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py")
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)


def quench_oracle(z, lam, interval):
    """Direct quadrature of the defining exponent integral (test oracle)."""
    def integrand(t):
        return (1.0 + t * z) / ((t - z) * (1.0 + t * t))

    tol = QuadTolerance(abs_tol=1e-13, rel_tol=1e-13)
    exponent = integrate_adaptive(integrand, interval.lo, interval.hi, tol)
    return cmath.exp(-math.log1p(lam) / (2j * math.pi) * exponent)


class TestXiOfLambda:
    def test_zero(self):
        assert xi_of_lambda(0.0) == 0.0

    @pytest.mark.parametrize("n", [1, 2])
    def test_inverse_points(self, n):
        assert xi_of_lambda(math.exp(2 * math.pi * n) - 1) == pytest.approx(n, rel=1e-14)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            xi_of_lambda(-0.5)

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_nonfinite_rejected(self, lam):
        with pytest.raises(DomainError, match=f"finite and >= 0, got {lam}"):
            QuenchParams(lam)

    def test_params_keep_xi_consistent(self):
        p = QuenchParams(37.0)
        assert p.xi == xi_of_lambda(37.0)


class TestPhaseG:
    def test_symmetric_center(self):
        assert phase_G(0.0, QuenchParams(123.0), SYM) == 0.0

    def test_symmetric_outside(self):
        p = QuenchParams(math.exp(2 * math.pi) - 1)
        assert phase_G(3.0, p, SYM) == pytest.approx(math.log(0.5), rel=1e-12)

    def test_nonsymmetric(self):
        p = QuenchParams(math.exp(2 * math.pi) - 1)
        value = phase_G(2.0, p, Interval(0.0, 1.0))
        assert value == pytest.approx(-1.5 * math.log(2.0), rel=1e-12)

    def test_endpoint_rejected(self):
        with pytest.raises(DomainError):
            phase_G(1.0, QuenchParams(2.0), SYM)
        with pytest.raises(DomainError):
            phase_G(-1.0, QuenchParams(2.0), SYM)

    def test_array_matches_scalar(self):
        p = QuenchParams(1e4)
        iv = Interval(-0.5, 2.0)
        # G takes numbers only; the numpy scalars of an array are numbers
        xs = np.array([-3.0, -0.2, 0.7, 1.9, 4.5])
        values = [phase_G(x, p, iv) for x in xs]
        assert all(type(phase_G(float(x), p, iv)) is float for x in xs)
        assert values == [phase_G(float(x), p, iv) for x in xs]

    def test_exp_is_quench_boundary_bit_for_bit(self):
        # G takes h_lambda's one Log, so off the closure of I e^{iG} is h_lambda
        rng = random.Random(40)
        for _ in range(2000):
            lo = rng.uniform(-10.0, 10.0)
            iv = Interval(lo, lo + 10.0 ** rng.uniform(-3.0, 2.0))
            p = QuenchParams(10.0 ** rng.uniform(-2.0, 12.0))
            gap = (iv.hi - iv.lo) * 10.0 ** rng.uniform(-6.0, 3.0)
            x = iv.hi + gap if rng.random() < 0.5 else iv.lo - gap
            assert cmath.exp(1j * phase_G(x, p, iv)) == quench_boundary(x, p, iv), \
                (x, p.lam, iv)

    @settings(max_examples=40, deadline=None)
    @given(a=st.floats(0.1, 5.0), x=st.floats(-10, 10), lam=st.floats(0.01, 1e6))
    def test_symmetric_reduction(self, a, x, lam):
        interval = Interval(-a, a)
        if abs(x) == a:  # an endpoint
            return
        p = QuenchParams(lam)
        expected = p.xi * math.log(abs((a - x) / (a + x)))
        assert phase_G(x, p, interval) == pytest.approx(expected, rel=1e-13, abs=1e-13)


class TestQuenchInterior:
    def test_lambda_zero_is_one(self):
        for z in (1j, 0.5 + 0.1j, -3 + 2j):
            assert quench_interior(z, QuenchParams(0.0), SYM) == 1.0

    def test_value_at_i(self):
        p = QuenchParams(math.exp(2 * math.pi) - 1)
        value = quench_interior(1j, p, SYM)
        assert value == pytest.approx(math.exp(-math.pi / 2), rel=1e-13)
        assert value.imag == pytest.approx(0.0, abs=1e-15)

    def test_oracle_agreement_fixed_point(self):
        value = quench_interior(0.3 + 0.7j, QuenchParams(10.0), SYM)
        oracle = quench_oracle(0.3 + 0.7j, 10.0, SYM)
        assert abs(value - oracle) < 1e-10 * abs(oracle)

    def test_oracle_agreement_random(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            lam = 10.0 ** rng.uniform(-2, 8)
            lo = rng.uniform(-3, 0)
            hi = lo + rng.uniform(0.2, 3)
            z = complex(rng.uniform(-3, 3), rng.uniform(0.05, 3))
            interval = Interval(lo, hi)
            value = quench_interior(z, QuenchParams(lam), interval)
            oracle = quench_oracle(z, lam, interval)
            assert abs(value - oracle) < 1e-10 * abs(oracle)

    def test_lower_half_plane_rejected(self):
        with pytest.raises(DomainError):
            quench_interior(1 - 1j, QuenchParams(2.0), SYM)

    def test_modulus_law_and_never_zero(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            lam = 10.0 ** rng.uniform(-1, 6)
            z = complex(rng.uniform(-4, 4), rng.uniform(0.01, 4))
            h = quench_interior(z, QuenchParams(lam), SYM)
            assert 1.0 / math.sqrt(1.0 + lam) < abs(h) < 1.0
            assert abs(h) > 0.0


class TestQuenchBoundary:
    def test_inside_modulus(self):
        value = quench_boundary(0.0, QuenchParams(3.0), SYM)
        assert value == pytest.approx(0.5)

    def test_outside_phase(self):
        p = QuenchParams(3.0)
        value = quench_boundary(3.0, p, SYM)
        assert abs(value) == pytest.approx(1.0, abs=1e-15)
        expected_phase = math.log1p(3.0) / (2 * math.pi) * math.log(0.5)
        assert cmath.phase(value) == pytest.approx(expected_phase, rel=1e-12)
        assert expected_phase == pytest.approx(-0.15293294, abs=1e-8)

    def test_lambda_zero(self):
        for x in (-5.0, 0.0, 0.99, 7.0):
            assert quench_boundary(x, QuenchParams(0.0), SYM) == 1.0

    def test_endpoint_rejected(self):
        with pytest.raises(DomainError):
            quench_boundary(-1.0, QuenchParams(1.0), SYM)

    @pytest.mark.parametrize("x", [-2.0, -0.4, 0.0, 0.7, 3.0])
    def test_boundary_limit_monotone(self, x):
        p = QuenchParams(50.0)
        diffs = [abs(quench_interior(complex(x, y), p, SYM)
                     - quench_boundary(x, p, SYM))
                 for y in (1e-1, 1e-2, 1e-3, 1e-4)]
        assert all(b < a for a, b in zip(diffs[:-1], diffs[1:]))


class TestMpmathOracle:
    """quench_interior and quench_boundary against perfbench/oracle.py's
    h_lambda on the closed upper half plane (the limit from above on R)."""

    @pytest.mark.parametrize("where", ["inside", "outside", "interior"])
    def test_random_nonsymmetric(self, where):
        rng = np.random.default_rng({"inside": 1, "outside": 2, "interior": 3}[where])
        for _ in range(25):
            lam = 10.0 ** rng.uniform(-2, 12)
            lo = rng.uniform(-3.0, 1.0)
            hi = lo + rng.uniform(0.2, 4.0)
            interval, p = Interval(lo, hi), QuenchParams(lam)
            if where == "interior":
                z = complex(rng.uniform(lo - 3, hi + 3), rng.uniform(1e-3, 3.0))
                value = quench_interior(z, p, interval)
            else:
                reach = interval.half_width + rng.uniform(0.01, 3.0)
                x = (rng.uniform(lo, hi) if where == "inside"
                     else interval.center + rng.choice([-1.0, 1.0]) * reach)
                z = complex(x, 0.0)
                value = quench_boundary(x, p, interval)
            with mpmath.workdps(oracle.DPS):
                want = complex(oracle.quench(z, lam, lo, hi))
            assert abs(value - want) <= 1e-13 * abs(want), (z, lam, lo, hi)

    @pytest.mark.parametrize("lo,hi", [(-1e300, 1e300), (-1e155, 1e160),
                                       (1e154, 1e300), (-1e300, -1e200),
                                       (-3.0, 1e200), (1e10, 1e10 + 1e3)])
    def test_wide_intervals(self, lo, hi):
        # squaring an endpoint past 1.34e154 overflows a double; the phase sums
        # logs of size ln|endpoint|, each rounded to eps of that, times xi
        interval = Interval(lo, hi)
        c, r = interval.center, interval.half_width
        for lam in (10.0, 1e8):
            p = QuenchParams(lam)
            bound = 1e-15 + 2 * p.xi * np.finfo(float).eps * math.log(max(-lo, hi))
            for z in (complex(c + 0.3 * r, 0.5 * r), complex(c + 0.4 * r, 0.0),
                      complex(hi + r, 0.0), complex(lo - 0.5 * r, 0.0)):
                value = (quench_interior(z, p, interval) if z.imag
                         else quench_boundary(z.real, p, interval))
                with mpmath.workdps(oracle.DPS):  # hi * hi in mpf, not float
                    want = complex(oracle.quench(z, lam, mpmath.mpf(lo),
                                                 mpmath.mpf(hi)))
                assert abs(value - want) <= bound * abs(want), (z, lam)
                if not (z.imag or interval.contains(z.real)):
                    phase = cmath.exp(1j * phase_G(z.real, p, interval))
                    assert abs(phase - want) <= bound, (z, lam)


    @pytest.mark.parametrize("hi", [1e300, 1e200, 1e155, 1e10, 3.0])
    def test_wide_symmetric_intervals(self, hi):
        # L = 0 here, so h_lambda's phase is xi Log((z - hi)/(z - lo)) alone:
        # one Log of a quotient, which errs by about eps whatever the endpoints
        interval = Interval(-hi, hi)
        for lam in (10.0, 1e8):
            p = QuenchParams(lam)
            bound = 1e-15 + 2 * p.xi * np.finfo(float).eps
            for z in (complex(0.3 * hi, 0.5 * hi), complex(0.4 * hi, 0.0),
                      complex(2.0 * hi, 0.0), complex(-1.5 * hi, 0.0),
                      complex(-0.7 * hi, 0.01 * hi), complex(0.0, 3.0 * hi)):
                value = (quench_interior(z, p, interval) if z.imag
                         else quench_boundary(z.real, p, interval))
                with mpmath.workdps(oracle.DPS):
                    want = complex(oracle.quench(z, lam, -mpmath.mpf(hi),
                                                 mpmath.mpf(hi)))
                assert abs(value - want) <= bound * abs(want), (z, lam)


class TestInterval:
    def test_validation(self):
        with pytest.raises(DomainError):
            Interval(1.0, 1.0)
        with pytest.raises(DomainError):
            Interval(0.0, math.inf)

    @pytest.mark.parametrize("lo,hi", [(1e308, 1.5e308), (-1.7e308, 1.7e308),
                                       (-1.5e308, -1e308)])
    def test_center_or_width_overflow_refused(self, lo, hi):
        # (1e308, 1.5e308) has center inf and (-1.7e308, 1.7e308) width inf
        with pytest.raises(DomainError, match="overflows"):
            Interval(lo, hi)

    def test_helpers(self):
        iv = Interval(0.0, 2.0)
        assert iv.center == 1.0
        assert iv.half_width == 1.0
        assert iv.contains(0.5)
        assert not iv.contains(2.0)
        assert iv.contains(0.5) is True
        assert [iv.contains(x) for x in (-1.0, 0.0, 0.5, 2.0, 3.0)] == \
            [False, False, True, False, False]
        assert iv.point(0.5) == complex(0.5, 0.0)
        assert iv.point(1.5 + 1j, interior=True) == 1.5 + 1j
        with pytest.raises(DomainError, match="endpoint x=0.0"):
            iv.point(0.0)
        assert iv.guard == pytest.approx(2e-6)

    @settings(max_examples=60, deadline=None)
    @given(lo=st.floats(-5.0, 4.0), width=st.floats(0.1, 6.0),
           u=st.floats(-10.0, 10.0), frac=st.floats(0.01, 0.99),
           gap=st.floats(0.01, 10.0), right=st.booleans())
    def test_tanh_map_nonsymmetric(self, lo, width, u, frac, gap, right):
        iv = Interval(lo, lo + width)
        assert iv.to_u(iv.from_u(u)) == pytest.approx(u, abs=1e-8)
        x = lo + frac * width
        assert iv.from_u(iv.to_u(x)) == pytest.approx(x, rel=1e-12, abs=1e-12)
        # the second kernel pole i pi + ln(alpha) is the preimage of x off I
        x = iv.hi + gap if right else iv.lo - gap
        assert iv.from_u(1j * math.pi + math.log((x - lo) / (x - iv.hi))) == \
            pytest.approx(x, rel=1e-9, abs=1e-9)

    def test_tanh_map_domains(self):
        iv = Interval(-0.5, 2.0)
        # a real u gives a float, a complex u a complex
        assert type(iv.from_u(0.0)) is float and iv.from_u(0.0) == 0.75
        assert type(iv.from_u(0j)) is complex and iv.from_u(0j) == 0.75
        for x in (-0.5, 2.0, 3.0):
            with pytest.raises(DomainError, match="to_u needs x in"):
                iv.to_u(x)


class TestPointRule:
    """``Interval.point`` is the one rule for h_lambda, G and g_lambda: each
    refuses a point it refuses, with its message, where a weaker rule let
    NaN, inf or a bare ValueError through."""

    UNIT01 = Interval(0.0, 1.0)
    PARAMS = QuenchParams(10.0)
    SIGNAL = example2(interval=UNIT01).signal

    def closed(self, z):
        """h_lambda, G and g_lambda at ``z`` on the closed upper half plane."""
        iv, p = self.UNIT01, self.PARAMS
        calls = [lambda: quench_boundary(z, p, iv),
                 lambda: approximant_table([0.5, z], [10.0], iv, self.SIGNAL)]
        if isinstance(z, float):
            calls.append(lambda: phase_G(z, p, iv))
        return calls

    def interior(self, z):
        """h_lambda and g_lambda at ``z`` on the open upper half plane."""
        iv, p = self.UNIT01, self.PARAMS
        return [lambda: quench_interior(z, p, iv),
                lambda: approximant_interior(z, p, iv, self.SIGNAL),
                lambda: approximant_table([0.5j, z], [10.0], iv, self.SIGNAL,
                                          method="t")]

    @pytest.mark.parametrize("z, interior, message", [
        (math.nan, False, "need a finite point, got z=(nan+0j)"),
        (math.inf, False, "need a finite point, got z=(inf+0j)"),
        (-math.inf, False, "need a finite point, got z=(-inf+0j)"),
        (complex(math.inf, 1.0), True, "need a finite point, got z=(inf+1j)"),
        (complex(math.nan, 1.0), True, "need a finite point, got z=(nan+1j)"),
        (complex(1.0, math.inf), True, "need a finite point, got z=(1+infj)"),
        (0.5 - 1j, False, "need Im z > 0, got z=(0.5-1j)"),
        (0.5 - 1j, True, "need Im z > 0, got z=(0.5-1j)"),
        (complex(0.5, 0.0), True, "need Im z > 0, got z=(0.5+0j)"),
        (0.0, False, "z=0j is within 1e-300*|I| of endpoint x=0.0"),
        (1.0, False, "z=(1+0j) is within 1e-300*|I| of endpoint x=1.0"),
        (1e-310, False, "z=(1e-310+0j) is within 1e-300*|I| of endpoint x=0.0"),
        (-1e-310, False, "z=(-1e-310+0j) is within 1e-300*|I| of endpoint x=0.0"),
        (1e-310j, True, "z=1e-310j is within 1e-300*|I| of endpoint x=0.0"),
        (complex(1.0, 5e-324), True,
         "z=(1+5e-324j) is within 1e-300*|I| of endpoint x=1.0"),
    ])
    def test_refused_by_every_function(self, z, interior, message):
        with pytest.raises(DomainError, match=re.escape(message)):
            self.UNIT01.point(z, interior)
        for call in self.interior(z) if interior else self.closed(z):
            with pytest.raises(DomainError, match=re.escape(message)):
                call()

    @pytest.mark.parametrize("z", [1e-299, -1e-299, 1e-299j, complex(1.0, 1e-299)])
    def test_finite_beyond_the_margin(self, z):
        # the t-path oracle, last, cannot integrate 1/(t - z) this near an endpoint
        calls = self.interior(z)[:-1] if isinstance(z, complex) else self.closed(z)
        for call in calls:
            value = call()
            value = value[0][1] if isinstance(value, list) else value
            assert cmath.isfinite(value), (z, value)
