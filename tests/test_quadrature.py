import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patil.errors import DomainError, NonConvergence
from patil.quadrature import (
    DecayCertificate,
    QuadTolerance,
    integrate_adaptive,
    integrate_real_line,
    pv_integrate,
)

TOL = QuadTolerance()


def const_one(t):
    return np.ones_like(np.asarray(t, dtype=float))


class TestIntegrateAdaptive:
    def test_polynomial(self):
        assert integrate_adaptive(lambda t: t, 0.0, 1.0, TOL) == pytest.approx(0.5)

    def test_complex_exponential(self):
        value = integrate_adaptive(lambda t: np.exp(1j * t), 0.0, math.pi, TOL)
        assert value == pytest.approx(2j, abs=1e-12)

    def test_semicircle_area(self):
        value = integrate_adaptive(lambda t: np.sqrt(1.0 - t * t), -1.0, 1.0, TOL)
        assert value.real == pytest.approx(math.pi / 2, abs=1e-9)

    def test_bad_interval(self):
        with pytest.raises(DomainError):
            integrate_adaptive(lambda t: t, 1.0, 0.0, TOL)

    def test_budget_exhaustion(self):
        stingy = QuadTolerance(abs_tol=1e-15, rel_tol=1e-15, max_subdivisions=9)
        with pytest.raises(NonConvergence):
            integrate_adaptive(lambda t: np.sqrt(np.abs(t)), -1.0, 1.0, stingy)

    def test_nonfinite_panel_raises(self):
        # a NaN total compares false against the target; it must not be
        # returned as the answer
        with pytest.raises(NonConvergence, match=r"panel \[0\.5, 0\.625\]"):
            integrate_adaptive(lambda t: np.where(t < 0.5, t, np.nan),
                               0.0, 1.0, TOL)

    @settings(max_examples=25, deadline=None)
    @given(
        a_re=st.floats(-2, 2), a_im=st.floats(-2, 2),
        b_re=st.floats(-2, 2), b_im=st.floats(-2, 2),
    )
    def test_linearity(self, a_re, a_im, b_re, b_im):
        a = complex(a_re, a_im)
        b = complex(b_re, b_im)
        f = lambda t: np.sin(t) + 0.3j * t
        g = lambda t: np.exp(-t * t)
        lhs = integrate_adaptive(lambda t: a * f(t) + b * g(t), -1.0, 2.0, TOL)
        rhs = a * integrate_adaptive(f, -1.0, 2.0, TOL) \
            + b * integrate_adaptive(g, -1.0, 2.0, TOL)
        assert abs(lhs - rhs) < 10 * TOL.abs_tol * (1 + abs(a) + abs(b))


class TestPvIntegrate:
    def test_odd_symmetry(self):
        assert pv_integrate(const_one, -1.0, 1.0, 0.0, TOL) == pytest.approx(0.0, abs=1e-12)

    def test_constant_log(self):
        value = pv_integrate(const_one, -1.0, 1.0, 0.5, TOL)
        assert value == pytest.approx(math.log(3.0), abs=1e-11)

    def test_linear_weight(self):
        value = pv_integrate(lambda t: np.asarray(t, dtype=float), -1.0, 1.0, 0.0, TOL)
        assert value == pytest.approx(-2.0, abs=1e-11)

    @settings(max_examples=25, deadline=None)
    @given(x=st.floats(-0.9, 0.9), c=st.floats(-3, 3))
    def test_constant_weight_closed_form(self, x, c):
        value = pv_integrate(lambda t: c * const_one(t), -1.0, 1.0, x, TOL)
        expected = c * math.log((x + 1.0) / (1.0 - x))
        assert abs(value - expected) < TOL.abs_tol * (1 + abs(expected)) * 10

    def test_refinement_invariance(self):
        w = lambda t: np.exp(1j * t) / (2.0 + np.sin(t))
        coarse = pv_integrate(w, -1.0, 1.0, 0.3, QuadTolerance(1e-9, 1e-9, 400))
        fine = pv_integrate(w, -1.0, 1.0, 0.3, QuadTolerance(1e-9, 1e-9, 4000))
        assert abs(coarse - fine) < 2e-9

    def test_endpoint_guard(self):
        with pytest.raises(DomainError, match="within guard distance"):
            pv_integrate(const_one, -1.0, 1.0, 1.0 - 1e-9, TOL)

    def test_outside_interval(self):
        with pytest.raises(DomainError):
            pv_integrate(const_one, -1.0, 1.0, 2.0, TOL)


class TestIntegrateRealLine:
    def test_two_sided_exponential(self):
        value = integrate_real_line(lambda u: np.exp(-np.abs(u)),
                                    DecayCertificate(0.5, 1.0), TOL)
        assert value == pytest.approx(2.0, abs=1e-9)

    def test_logistic_density(self):
        # e^u / (e^u + 1)^2 written through sech to stay finite at large |u|
        f = lambda u: 0.25 / np.cosh(0.5 * u) ** 2
        value = integrate_real_line(f, DecayCertificate(0.3, 1.0), TOL)
        assert value == pytest.approx(1.0, abs=1e-10)

    def test_sech_squared(self):
        f = lambda u: 0.5 / np.cosh(0.5 * u) ** 2
        value = integrate_real_line(f, DecayCertificate(0.3, 1.0), TOL)
        assert value == pytest.approx(2.0, abs=1e-10)

    def test_stable_under_doubling_truncation(self):
        cert = DecayCertificate(0.5, 1.0)
        f = lambda u: np.exp(-np.abs(u)) * np.cos(u)
        base = integrate_real_line(f, cert, TOL)
        u = cert.truncation_point(TOL.abs_tol)
        doubled = integrate_adaptive(f, -2 * u, 2 * u, TOL,
                                     initial_panels=int(4 * u))
        assert abs(base - doubled) < TOL.abs_tol

    def test_invalid_certificate(self):
        with pytest.raises(DomainError, match="delta must lie in"):
            DecayCertificate(1.2, 1.0)
        with pytest.raises(DomainError, match="bound_M must be > 0"):
            DecayCertificate(0.5, -1.0)

    def test_tuple_certificate_accepted(self):
        value = integrate_real_line(lambda u: np.exp(-np.abs(u)), (0.5, 1.0), TOL)
        assert value == pytest.approx(2.0, abs=1e-9)


class TestQuadTolerance:
    @pytest.mark.parametrize("kwargs", [
        {"abs_tol": 0.0}, {"rel_tol": -1.0}, {"max_subdivisions": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            QuadTolerance(**kwargs)
