import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
            phase_G(np.array([0.5, -1.0]), QuenchParams(2.0), SYM)

    def test_array_matches_scalar(self):
        p = QuenchParams(1e4)
        iv = Interval(-0.5, 2.0)
        xs = np.array([-3.0, -0.2, 0.7, 1.9, 4.5])
        values = phase_G(xs, p, iv)
        assert values.shape == xs.shape
        assert list(values) == [phase_G(float(x), p, iv) for x in xs]

    @settings(max_examples=40, deadline=None)
    @given(a=st.floats(0.1, 5.0), x=st.floats(-10, 10), lam=st.floats(0.01, 1e6))
    def test_symmetric_reduction(self, a, x, lam):
        interval = Interval(-a, a)
        if interval.is_endpoint(x):
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


class TestInterval:
    def test_validation(self):
        with pytest.raises(DomainError):
            Interval(1.0, 1.0)
        with pytest.raises(DomainError):
            Interval(0.0, math.inf)

    def test_helpers(self):
        iv = Interval(0.0, 2.0)
        assert iv.center == 1.0
        assert iv.half_width == 1.0
        assert iv.contains(0.5)
        assert not iv.contains(2.0)
        assert iv.contains(0.5) is True
        assert iv.contains(np.array([-1.0, 0.0, 0.5, 2.0, 3.0])).tolist() == \
            [False, False, True, False, False]
        assert iv.is_endpoint(0.0)
        assert not iv.is_endpoint(np.array([0.5, 1.5]))
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
        assert iv.from_u(1j * math.pi + math.log(iv.alpha(x))) == \
            pytest.approx(x, rel=1e-9, abs=1e-9)

    def test_tanh_map_domains(self):
        iv = Interval(-0.5, 2.0)
        assert iv.from_u(np.zeros(3)).tolist() == [0.75] * 3
        for x in (-0.5, 2.0, 3.0):
            with pytest.raises(DomainError, match="to_u needs x in"):
                iv.to_u(x)
        for x in (-0.5, 0.75, 2.0):
            with pytest.raises(DomainError, match="alpha needs x off"):
                iv.alpha(x)
