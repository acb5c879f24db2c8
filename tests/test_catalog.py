import dataclasses
import math

import numpy as np
import pytest

from patil.asymptotics import phi, predict_growth_exponent
from patil.catalog import (
    CatalogEntry,
    entry_names,
    example1,
    example2,
    get_entry,
    h2_reference_pole,
)
from patil.errors import DomainError
from patil.quadrature import QuadTolerance, integrate_real_line
from patil.quench import Interval

PI = math.pi
PULLBACK_POINTS = [-2.0, -1.0, 0.5, 3.0]


class TestPullbackIdentity:
    """strip_pullback(u) must equal eval_on_I(phi(u, a)) on the real line."""

    @pytest.mark.parametrize("u", PULLBACK_POINTS)
    @pytest.mark.parametrize("a", [1.0, 2.5])
    def test_example1(self, u, a):
        entry = example1(a)
        lhs = entry.signal.strip_pullback(u)
        rhs = entry.signal.eval_on_I(phi(u, a))
        assert abs(lhs - rhs) < 1e-10

    @pytest.mark.parametrize("u", PULLBACK_POINTS)
    def test_example2(self, u):
        entry = example2()
        lhs = entry.signal.strip_pullback(u)
        rhs = entry.signal.eval_on_I(phi(u, 1.0))
        assert abs(lhs - rhs) < 1e-10

    @pytest.mark.parametrize("u", PULLBACK_POINTS)
    def test_h2pole(self, u):
        entry = h2_reference_pole(-0.5j, 2.0)
        lhs = entry.signal.strip_pullback(u)
        rhs = entry.signal.eval_on_I(phi(u, 2.0))
        assert abs(lhs - rhs) < 1e-10

    def test_center_values(self):
        assert example1().signal.strip_pullback(0.0) == pytest.approx(1.0)
        assert example1().signal.eval_on_I(0.0) == pytest.approx(1.0)
        assert example2().signal.strip_pullback(0.0) == pytest.approx(1.0)
        assert example2().signal.eval_on_I(0.0) == pytest.approx(1.0)


class TestDecayCertificates:
    """bound_M e^{delta |Re z|} must dominate the pullback in the strip.

    The Jacobian of the tanh map supplies e^{-|Re z|} decay, so this
    growth allowance keeps the u-domain integrand integrable.
    """

    @pytest.mark.parametrize("entry", [example1(), example2(),
                                       h2_reference_pole(-1j)])
    def test_bound_holds(self, entry):
        cert = entry.signal.decay_cert
        for u in (5.0, 10.0, 20.0):
            for sign in (-1.0, 1.0):
                for v in np.linspace(0.0, 1.5 * PI, 7):
                    z = sign * u + 1j * v
                    bound = cert.bound_M * math.exp(cert.delta * u)
                    assert abs(entry.signal.strip_pullback(z)) <= bound


class TestGrowthMetadata:
    def test_example1_predicts_bounded(self):
        entry = example1()
        assert entry.expected_exponent == 0.0
        assert entry.expected_exponent == \
            predict_growth_exponent(entry.signal.singularities)

    def test_example2_predicts_quarter(self):
        entry = example2()
        assert entry.expected_exponent == pytest.approx(0.25)
        assert entry.expected_exponent == \
            predict_growth_exponent(entry.signal.singularities)

    def test_h2pole_has_no_strip_poles(self):
        entry = h2_reference_pole()
        assert entry.signal.singularities == ()
        assert entry.expected_exponent == 0.0

    def test_exponent_is_derived_not_stored(self):
        fields = {f.name for f in dataclasses.fields(CatalogEntry)}
        assert "expected_exponent" not in fields
        entry = example2()
        pole = dataclasses.replace(entry.signal.singularities[0], beta=0.25j * PI)
        moved = dataclasses.replace(
            entry, signal=dataclasses.replace(entry.signal, singularities=(pole,)))
        assert moved.expected_exponent == pytest.approx(0.375)

    def test_interval_of_strip_metadata(self):
        assert example1().interval == Interval(-1.0, 1.0)
        assert example1(2.5).interval == Interval(-2.5, 2.5)
        assert example2().interval == Interval(-1.0, 1.0)
        assert h2_reference_pole(-1j, 0.5).interval == Interval(-0.5, 0.5)


class TestHardyWitness:
    def test_interior_value(self):
        entry = h2_reference_pole(-1j)
        assert entry.reference.F_interior(1j) == pytest.approx(-0.5j)

    def test_boundary_consistency(self):
        entry = h2_reference_pole(-1j)
        x = 0.3
        interior = entry.reference.F_interior(x + 1e-6j)
        boundary = entry.reference.f_boundary(x)
        assert abs(interior - boundary) < 1e-5

    def test_square_integrable_norm(self):
        # || 1/(x+i) ||_{L2(R)}^2 = pi, via x = sinh(u) to get decay
        entry = h2_reference_pole(-1j)

        def integrand(u):
            x = np.sinh(u)
            return np.abs(entry.reference.f_boundary(x)) ** 2 * np.cosh(u)

        value = integrate_real_line(integrand, (0.5, 2.0), QuadTolerance())
        assert value.real == pytest.approx(PI, abs=1e-9)

    def test_pole_in_upper_half_plane_rejected(self):
        with pytest.raises(DomainError):
            h2_reference_pole(1j)
        with pytest.raises(DomainError):
            h2_reference_pole(-1j, a=-1.0)


class TestRegistry:
    def test_names(self):
        assert entry_names() == ["example1", "example2", "h2pole"]

    def test_get_entry(self):
        entry = get_entry("example1", a=2.0)
        assert isinstance(entry, CatalogEntry)
        assert entry.name == "example1"
        assert entry.signal.eval_on_I(0.0) == pytest.approx(2.0)

    def test_unknown_name(self):
        with pytest.raises(DomainError):
            get_entry("nonsense")

    def test_example1_requires_positive_width(self):
        with pytest.raises(DomainError):
            example1(a=0.0)
