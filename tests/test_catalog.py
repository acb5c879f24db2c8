import cmath
import dataclasses
import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patil.asymptotics import predict_growth_exponent
from patil.catalog import (
    CatalogEntry,
    entry_names,
    example1,
    example2,
    get_entry,
    h2_reference_pole,
    rational,
)
from patil.errors import DomainError
from patil.quadrature import DecayCertificate, QuadTolerance, integrate_real_line
from patil.quench import Interval

PI = math.pi
PULLBACK_POINTS = [-2.0, -1.0, 0.5, 3.0]
NONSYM = Interval(-0.5, 2.0)


class TestPullbackIdentity:
    """strip_pullback(u) must equal eval_on_I(interval.from_u(u)) on the real line."""

    @pytest.mark.parametrize("u", PULLBACK_POINTS)
    @pytest.mark.parametrize("a", [1.0, 2.5])
    def test_example1(self, u, a):
        interval = Interval(-a, a)
        entry = example1(interval)
        lhs = entry.signal.strip_pullback(u)
        rhs = entry.signal.eval_on_I(interval.from_u(u))
        assert abs(lhs - rhs) < 1e-10

    @pytest.mark.parametrize("u", PULLBACK_POINTS)
    def test_example2(self, u):
        entry = example2()
        lhs = entry.signal.strip_pullback(u)
        rhs = entry.signal.eval_on_I(Interval(-1.0, 1.0).from_u(u))
        assert abs(lhs - rhs) < 1e-10

    @pytest.mark.parametrize("u", PULLBACK_POINTS)
    def test_h2pole(self, u):
        interval = Interval(-2.0, 2.0)
        entry = h2_reference_pole(-0.5j, interval)
        lhs = entry.signal.strip_pullback(u)
        rhs = entry.signal.eval_on_I(interval.from_u(u))
        assert abs(lhs - rhs) < 1e-10

    @pytest.mark.parametrize("u", PULLBACK_POINTS)
    @pytest.mark.parametrize("build", [example2, h2_reference_pole])
    def test_nonsymmetric(self, build, u):
        entry = build(interval=NONSYM)
        lhs = entry.signal.strip_pullback(u)
        rhs = entry.signal.eval_on_I(NONSYM.from_u(u))
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
        # none in the growth strip Im z <= pi: its one listed pole, the
        # preimage of w = -i shifted by 2 pi i, sits at 3 pi i / 2
        entry = h2_reference_pole()
        (pole,) = entry.signal.singularities
        assert pole.beta == pytest.approx(1.5j * PI, abs=1e-15)
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
        # each builder draws its strip metadata for the interval it is given
        assert "interval" not in {f.name for f in dataclasses.fields(CatalogEntry)}
        assert example1(Interval(-2.5, 2.5)).signal.strip_pullback(0.0) == \
            pytest.approx(2.5)
        wide = example2(Interval(-2.0, 2.0))
        assert wide.signal.singularities[0].beta == \
            pytest.approx(2j * math.atan(0.5))
        assert wide.expected_exponent == \
            pytest.approx((PI - 2.0 * math.atan(0.5)) / (2.0 * PI))
        shifted = h2_reference_pole(-1j, Interval(-0.5, 2.0))
        assert shifted.signal.strip_pullback(0.0) == pytest.approx(1.0 / (0.75 + 1j))


_COEFF = st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0)
_POLE = st.builds(complex, st.floats(-5.0, 5.0),
                  st.floats(0.2, 5.0) | st.floats(-5.0, -0.2))
_INTERVAL = st.builds(lambda lo, width: Interval(lo, lo + width),
                      st.floats(-3.0, 2.0), st.floats(0.5, 4.0))


class TestRational:
    """Everything ``rational(c, w, I)`` derives, against its definition."""

    @settings(max_examples=60, deadline=None)
    @given(c=_COEFF, w=_POLE, interval=_INTERVAL)
    def test_derived_metadata(self, c, w, interval):
        entry = rational(c, w, interval)
        signal = entry.signal
        c0, r = interval.center, interval.half_width
        # the pullback is the data at t = c0 + r tanh(u/2)
        cert = signal.decay_cert
        for u in np.linspace(-30.0, 30.0, 61).tolist():
            data = signal.eval_on_I(c0 + r * math.tanh(0.5 * u))
            pullback = signal.strip_pullback(u)
            assert abs(pullback - data) <= 1e-12 * max(abs(data), 1.0), u
            # the real-line certificate: |c / (t - w)| <= |c| / |Im w| <= bound_M
            assert abs(pullback) <= cert.bound_M * math.exp(cert.delta * abs(u)), u
        # the exponent is theta_w / (2 pi), theta_w the angle I subtends at w
        theta = abs(cmath.phase((interval.lo - w) / (interval.hi - w)))
        # the pole: t(beta) = w, in (0, pi) above w, in (pi, 2 pi) below it
        beta = 2.0 * cmath.atanh((w - c0) / r) + (2j * PI if w.imag < 0 else 0)
        assert interval.from_u(beta) == pytest.approx(w, rel=1e-9, abs=1e-9)
        # the one pole in the period strip 0 < Im u < 2 pi, however high
        assert signal.period == 2.0 * PI and signal.interval == interval
        (pole,) = signal.singularities
        assert pole.beta == beta
        ring = [cmath.exp(2j * PI * k / 64) for k in range(64)]
        average = sum(signal.strip_pullback(pole.beta + w) * w for w in ring) / 64
        assert abs(average - pole.coeff) <= 1e-9 * abs(pole.coeff)
        if w.imag > 0:
            assert 0 < beta.imag < PI
            assert entry.expected_exponent == \
                pytest.approx(theta / (2.0 * PI), abs=1e-12)
            assert entry.reference is None
        else:
            assert PI < beta.imag < 2.0 * PI
            assert entry.expected_exponent == 0.0
            assert entry.reference(w.conjugate()) == \
                pytest.approx(c / (2j * w.conjugate().imag))

    @pytest.mark.parametrize("interval", [Interval(-1.0, 1.0), NONSYM])
    @pytest.mark.parametrize("build", [example2, h2_reference_pole])
    def test_pullback_far_out(self, build, interval):
        # c / (t - w) tends to c / (hi - w) = scale as Re z -> +inf and to
        # c / (lo - w) = scale / ratio as Re z -> -inf; e^{1000} overflows
        pullback = build(interval=interval).signal.strip_pullback
        c = 1.0 if build is h2_reference_pole else -1j
        w = -1j if build is h2_reference_pole else 1j
        d, r = interval.center - w, interval.half_width
        scale, ratio = c / (d + r), (d - r) / (d + r)
        for x, y in itertools.product((700.0, 1000.0), (0.0, 0.5, -2.0)):
            assert pullback(complex(x, y)) == pytest.approx(scale, rel=1e-14)
            assert pullback(complex(-x, y)) == \
                pytest.approx(scale / ratio, rel=1e-14)

    @pytest.mark.parametrize("w", [0.5, 2.0 + 0j, complex("nanj"), complex("-infj")])
    def test_pole_off_the_real_line(self, w):
        with pytest.raises(DomainError):
            rational(1.0, w)


class TestHardyWitness:
    def test_interior_value(self):
        entry = h2_reference_pole(-1j)
        assert entry.reference(1j) == pytest.approx(-0.5j)

    def test_boundary_consistency(self):
        entry = h2_reference_pole(-1j)
        x = 0.3
        interior = entry.reference(x + 1e-6j)
        boundary = entry.reference(x)
        assert abs(interior - boundary) < 1e-5

    def test_square_integrable_norm(self):
        # || 1/(x+i) ||_{L2(R)}^2 = pi, via x = sinh(u) to get decay
        entry = h2_reference_pole(-1j)

        def integrand(u):
            x = np.sinh(u)
            return np.abs(entry.reference(x)) ** 2 * np.cosh(u)

        value = integrate_real_line(integrand, DecayCertificate(0.5, 2.0),
                                    QuadTolerance())
        assert value.real == pytest.approx(PI, abs=1e-9)

    def test_pole_in_upper_half_plane_rejected(self):
        with pytest.raises(DomainError):
            h2_reference_pole(1j)
        with pytest.raises(DomainError):
            h2_reference_pole(0.5)


class TestRegistry:
    def test_names(self):
        assert entry_names() == ["example1", "example2", "h2pole"]

    def test_get_entry(self):
        entry = get_entry("example1", interval=Interval(-2.0, 2.0))
        assert isinstance(entry, CatalogEntry)
        assert entry.name == "example1"
        assert entry.signal.eval_on_I(0.0) == pytest.approx(2.0)

    def test_unknown_name(self):
        with pytest.raises(DomainError):
            get_entry("nonsense")

    @pytest.mark.parametrize("x", [0.3, np.float64(0.3), np.array(0.3),
                                   [0.1, -0.2, 0.6], np.full((2, 3), 0.25)],
                             ids=["float", "float64", "0-d", "list", "2x3"])
    def test_evaluators_return_arrays(self, x):
        # evaluators are functions of one number: a Python float, a numpy
        # scalar or a 0-d array gives a complex, and the points of a list or
        # an array go one at a time, each giving what its float gives
        entries = [get_entry(name) for name in entry_names()]
        entries.append(rational(0.5 + 1j, 0.2 + 0.7j, NONSYM))
        for entry in entries:
            evaluators = [entry.signal.eval_on_I, entry.signal.strip_pullback]
            if entry.reference is not None:
                evaluators.append(entry.reference)
            for evaluate in evaluators:
                for point in (np.ravel(x) if np.ndim(x) else [x]):
                    value = evaluate(point)
                    assert isinstance(value, complex), (entry.name, evaluate)
                    assert value == pytest.approx(evaluate(float(point)), rel=1e-15)
                    if type(point) is float:
                        assert type(value) is complex, (entry.name, evaluate)

    def test_period_strip_metadata(self):
        # rational data have period 2 pi i, example1's sech(u/2) 4 pi i; the
        # pullback takes numbers anywhere in the plane
        for name, period in [("example1", 4.0 * PI), ("example2", 2.0 * PI),
                             ("h2pole", 2.0 * PI)]:
            signal = get_entry(name, interval=Interval(-2.0, 2.0)).signal
            assert signal.period == period
            assert signal.interval == Interval(-2.0, 2.0)
            for u in (0.3 + 0.2j, -1.0 + 2.5j, 2.0 + 5.0j):
                assert signal.strip_pullback(u + 1j * period) == \
                    pytest.approx(signal.strip_pullback(u), rel=1e-12)
        # example1's pullback vanishes at 3 pi i, where its number form is exact
        assert abs(example1().signal.strip_pullback(3j * PI)) < 1e-15
        # example1's one pole in its period: 3 pi i is a zero, not a pole
        assert [s.beta for s in example1().signal.singularities] == [1j * PI]

    def test_example1_pullback_far_out(self):
        # -i a tanh((z + i pi)/4) is finite far out, where cosh(z/2) would
        # overflow, agrees with a 30-digit evaluation there and tends to -+ia
        pullback = example1().signal.strip_pullback
        for re, im in itertools.product((-1500.0, -700.0, 700.0, 1500.0),
                                        (0.0, 0.5, 2.0)):
            number = pullback(complex(re, im))
            with mpmath.workdps(30):
                want = complex(-1j * mpmath.tanh((mpmath.mpc(re, im) + 1j * mpmath.pi) / 4))
            assert abs(want - number) <= 1e-15 * abs(number), (re, im)
            if abs(re) == 1500.0:
                assert number == -1j * math.copysign(1.0, re), (re, im)

    @pytest.mark.parametrize("period", [PI, 3.0, -2.0 * PI, 0.0])
    def test_period_must_be_whole_turns(self, period):
        with pytest.raises(DomainError, match="multiple of 2 pi"):
            dataclasses.replace(example2().signal, period=period)

    def test_pole_above_the_period_refused(self):
        signal = example2().signal
        pole = dataclasses.replace(signal.singularities[0], beta=2.1j * PI)
        with pytest.raises(DomainError, match="Im beta"):
            dataclasses.replace(signal, singularities=(pole,))
        # without a period the strip stops at 3 pi / 2, as the u-path's data did
        with pytest.raises(DomainError, match="Im beta"):
            dataclasses.replace(signal, singularities=(pole,), period=None)
        assert dataclasses.replace(signal, singularities=(pole,), period=4.0 * PI)

    def test_example1_requires_positive_width(self):
        # I = (-a, a) with a > 0; an Interval is never empty
        with pytest.raises(DomainError):
            example1(Interval(-1.0, 2.0))
        with pytest.raises(DomainError):
            example1(Interval(0.0, 0.0))
        with pytest.raises(TypeError):
            get_entry("example1", a=2.0)
