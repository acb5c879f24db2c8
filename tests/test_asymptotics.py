import cmath
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patil.asymptotics import (
    ContourSpec,
    StripSingularity,
    check_growth_grid,
    contour_identity_check,
    fit_growth_exponent,
    kernel_k,
    predict_growth_exponent,
    residue_kernel_pole,
    residue_merged,
    residue_strip_pole,
)
from patil.catalog import example1, example2, h2_reference_pole
from patil.errors import DomainError
from patil.quench import Interval

PI = math.pi
UNIT = Interval(-1.0, 1.0)


def ones(z):
    return np.ones_like(np.asarray(z, dtype=complex))


class TestChangeOfVariable:
    """The tanh map phi = ``Interval.from_u``, its inverse ``to_u`` and
    the kernel parameter ``alpha`` on symmetric intervals."""

    def test_phi_origin(self):
        assert Interval(-2.0, 2.0).from_u(0.0) == 0.0

    def test_phi_value(self):
        assert UNIT.from_u(math.log(3.0)) == pytest.approx(0.5, rel=1e-14)

    def test_phi_odd(self):
        assert UNIT.from_u(-2.5) == pytest.approx(-UNIT.from_u(2.5), rel=1e-14)

    def test_phi_complex_and_near_pole(self):
        value = UNIT.from_u(1.0 + 0.5j)
        assert value == pytest.approx(complex(np.tanh(0.5 + 0.25j)), rel=1e-14)
        # the floating-point image of i pi sits a hair off the true pole
        assert abs(UNIT.from_u(1j * PI)) > 1e12

    def test_phi_inv_values(self):
        assert UNIT.to_u(0.0) == 0.0
        assert UNIT.to_u(0.5) == pytest.approx(math.log(3.0), rel=1e-14)

    def test_phi_inv_domain(self):
        with pytest.raises(DomainError):
            UNIT.to_u(1.0)

    def test_roundtrip(self):
        u = -1.7
        iv = Interval(-2.0, 2.0)
        assert iv.to_u(iv.from_u(u)) == pytest.approx(u, abs=1e-12)

    def test_alpha_values(self):
        assert UNIT.alpha(3.0) == pytest.approx(2.0)
        assert UNIT.alpha(-3.0) == pytest.approx(0.5)
        assert UNIT.alpha(-5.0) == pytest.approx(1.0 / UNIT.alpha(5.0), rel=1e-14)

    def test_alpha_domain(self):
        with pytest.raises(DomainError):
            UNIT.alpha(0.5)


class TestKernel:
    def test_origin(self):
        assert kernel_k(0.0, 0.7, 2.0) == pytest.approx(1.0 / 6.0, rel=1e-14)

    def test_real_positive_at_zero_frequency(self):
        u = np.linspace(-30, 30, 41)
        values = kernel_k(u.astype(complex), 0.0, 2.0)
        assert np.all(values.real > 0)
        assert np.allclose(values.imag, 0.0)

    def test_height_damping_factor(self):
        xi, b = 1.3, 4.0
        for u in (-2.0, 0.3, 5.0):
            damped = abs(kernel_k(u + 1j * b, xi, 2.0))
            reference = abs(kernel_k(u + 1j * b, 0.0, 2.0))
            assert damped == pytest.approx(math.exp(-xi * b) * reference, rel=1e-12)

    def test_near_pole_blowup(self):
        # the floating-point images of the poles give huge finite values
        assert abs(kernel_k(1j * PI, 1.0, 2.0)) > 1e12
        assert abs(kernel_k(math.log(2.0) + 1j * PI, 1.0, 2.0)) > 1e12

    def test_large_argument_stability(self):
        assert abs(kernel_k(200.0 + 0j, 1.0, 2.0)) < 1e-80
        assert abs(kernel_k(-200.0 + 0j, 1.0, 2.0)) < 1e-80

    @pytest.mark.parametrize("y", [-2.0, 0.0, 0.7, 2.5, 4.0])
    def test_imaginary_axis_matches_unsplit_form(self, y):
        # Re z = 0 is where the overflow-safe forms switch half plane
        z = complex(0.0, y)
        xi, alpha = 1.3, 2.0
        ez = cmath.exp(z)
        kernel = cmath.exp(1j * xi * z) * ez / ((ez + 1.0) * (ez + alpha))
        assert kernel_k(z, xi, alpha) == pytest.approx(kernel, rel=1e-14)
        emz = cmath.exp(-z)
        pullback = (1.0 - 1j) * (1.0 + emz) / (2.0 * (1.0 - 1j * emz))
        strip_pullback = example2().signal.strip_pullback
        assert strip_pullback(z) == pytest.approx(pullback, rel=1e-14)


class TestKernelPoleResidues:
    def test_unit_weight_at_ipi(self):
        assert residue_kernel_pole("at_ipi", 0.0, 2.0, ones) == pytest.approx(1.0)

    def test_unit_weight_at_shifted(self):
        value = residue_kernel_pole("at_ipi_plus_ln_alpha", 0.0, 2.0, ones)
        assert value == pytest.approx(-1.0)

    def test_matches_circle_oracle(self):
        pullback = example2().signal.strip_pullback
        for which in ("at_ipi", "at_ipi_plus_ln_alpha"):
            closed = residue_kernel_pole(which, 1.0, 2.0, pullback)
            pole = 1j * PI if which == "at_ipi" else 1j * PI + math.log(2.0)
            oracle = residue_merged(pole, 1.0, 2.0, pullback)
            assert abs(closed - oracle) < 1e-8

    def test_merged_pole_detected(self):
        with pytest.raises(DomainError, match="pullback singular"):
            residue_kernel_pole("at_ipi", 1.0, 2.0, example1().signal.strip_pullback)

    def test_alpha_one_rejected(self):
        with pytest.raises(DomainError):
            residue_kernel_pole("at_ipi", 1.0, 1.0 + 1e-9, ones)

    @pytest.mark.parametrize("which", ["at_ipi", "at_ipi_plus_ln_alpha"])
    def test_nonpositive_alpha_rejected(self, which):
        with pytest.raises(DomainError, match="need alpha > 0"):
            residue_kernel_pole(which, 1.0, -2.0, ones)

    def test_unknown_pole_name(self):
        with pytest.raises(DomainError):
            residue_kernel_pole("nowhere", 1.0, 2.0, ones)


class TestMergedResidue:
    def test_degenerate_matches_closed_form(self):
        closed = residue_kernel_pole("at_ipi", 0.7, 2.0, ones)
        merged = residue_merged(1j * PI, 0.7, 2.0, ones)
        assert abs(closed - merged) < 1e-10

    def test_spectral_convergence(self):
        pullback = example1().signal.strip_pullback
        a = residue_merged(1j * PI, 1.0, 3.0, pullback, n_points=256)
        b = residue_merged(1j * PI, 1.0, 3.0, pullback, n_points=512)
        assert abs(a - b) < 1e-10

    @pytest.mark.parametrize("xi", [0.5, 1.0, 2.0, 3.0])
    def test_example1_collision_residue(self, xi):
        # kernel pole and pullback pole collide at i pi: a double pole whose
        # residue carries the quench-rate prefactor exactly
        alpha = 3.0
        merged = residue_merged(1j * PI, xi, alpha, example1().signal.strip_pullback)
        closed = -4j * (1j * xi + 0.5 + 1.0 / (alpha - 1.0)) / (alpha - 1.0) \
            * math.exp(-xi * PI)
        assert abs(merged - closed) < 1e-10
        assert abs(merged) * math.exp(xi * PI) < 4.0 * (1.0 + xi)

    def test_radius_guard(self):
        with pytest.raises(DomainError, match="inside residue circle"):
            residue_merged(1j * PI, 1.0, 1.05, ones, radius=0.2)


class TestStripPoleResidue:
    def test_exponential_decay_ratio(self):
        s = example2().signal.singularities[0]
        r1 = residue_strip_pole(s, 1.0, 2.0)
        r2 = residue_strip_pole(s, 2.0, 2.0)
        assert abs(r1) / abs(r2) == pytest.approx(math.exp(PI / 2), rel=1e-6)

    def test_matches_circle_oracle(self):
        s = example2().signal.singularities[0]
        closed = residue_strip_pole(s, 1.0, 2.0)
        oracle = residue_merged(s.beta, 1.0, 2.0, example2().signal.strip_pullback)
        assert abs(closed - oracle) < 1e-8

    def test_synthetic_simple_pole(self):
        beta = 0.4 + 0.6j
        s = StripSingularity(beta=beta, order=1, coeff=1.0)
        closed = residue_strip_pole(s, 0.8, 2.0)
        oracle = residue_merged(beta, 0.8, 2.0,
                                lambda z: 1.0 / (np.asarray(z, complex) - beta),
                                radius=0.1)
        assert abs(closed - oracle) < 1e-10

    def test_zero_frequency_value(self):
        beta = 0.5j
        s = StripSingularity(beta=beta, order=1, coeff=1.0)
        emb = cmath.exp(-beta)
        expected = emb / ((1.0 + emb) * (1.0 + 2.0 * emb))
        assert residue_strip_pole(s, 0.0, 2.0) == pytest.approx(expected, rel=1e-14)

    def test_modulus_is_xi_free_after_rescaling(self):
        s = StripSingularity(beta=0.3 + 0.9j, order=1, coeff=2.0 - 1.0j)
        values = [abs(residue_strip_pole(s, xi, 2.0)) * math.exp(xi * 0.9)
                  for xi in (0.5, 1.0, 2.0, 3.0)]
        assert max(values) - min(values) < 1e-6 * max(values)

    def test_higher_order_rejected(self):
        s = StripSingularity(beta=0.5j, order=2, coeff=1.0)
        with pytest.raises(DomainError, match="simple poles only"):
            residue_strip_pole(s, 1.0, 2.0)

    def test_kernel_pole_line_rejected(self):
        s = StripSingularity(beta=0.5 + 1j * PI, order=1, coeff=1.0)
        with pytest.raises(DomainError, match="use residue_merged"):
            residue_strip_pole(s, 1.0, 2.0)

    @pytest.mark.parametrize("xi", [0.5, 2.0])
    def test_pole_above_pi_matches_circle_oracle(self, xi):
        # h2pole's pullback pole 2 artanh(-2i) + 2 pi i, at Im 1.295 pi
        signal = h2_reference_pole(-2j).signal
        (s,) = signal.singularities
        assert PI < s.beta.imag < 1.5 * PI
        closed = residue_strip_pole(s, xi, 2.0)
        oracle = residue_merged(s.beta, xi, 2.0, signal.strip_pullback)
        assert abs(closed - oracle) < 1e-12


class TestContourIdentity:
    SPEC = ContourSpec(R=20.0, height=1.5 * PI)

    def test_unit_weight(self):
        assert contour_identity_check(ones, 1.0, 2.0, self.SPEC) < 1e-6

    def test_r_insensitivity(self):
        # both truncations close the identity to quadrature accuracy
        r10 = contour_identity_check(ones, 1.0, 2.0, ContourSpec(10.0, 1.5 * PI))
        r20 = contour_identity_check(ones, 1.0, 2.0, self.SPEC)
        assert r10 < 1e-8 and r20 < 1e-8

    def test_example2(self):
        signal = example2().signal
        residual = contour_identity_check(signal.strip_pullback, 1.0, 2.0,
                                          self.SPEC, signal.singularities)
        assert residual < 1e-6

    @pytest.mark.parametrize("height", [1.1 * PI, 1.25 * PI, 1.5 * PI])
    def test_height_independent(self, height):
        signal = example2().signal
        residual = contour_identity_check(signal.strip_pullback, 1.0, 2.0,
                                          ContourSpec(20.0, height),
                                          signal.singularities)
        assert residual < 1e-6

    def test_example1_merged_pole(self):
        signal = example1().signal
        residual = contour_identity_check(signal.strip_pullback, 1.0, 2.0,
                                          self.SPEC, signal.singularities)
        assert residual < 1e-6

    def test_r_too_small(self):
        with pytest.raises(DomainError):
            contour_identity_check(ones, 1.0, 2.0, ContourSpec(1.0, 1.5 * PI))

    @pytest.mark.parametrize("height", [1.25 * PI, 1.5 * PI])
    def test_h2pole_pole_above_pi(self, height):
        # enclosed below a top at 1.5 pi, left out below a top at 1.25 pi
        signal = h2_reference_pole(-2j).signal
        residual = contour_identity_check(signal.strip_pullback, 0.5, 2.0,
                                          ContourSpec(20.0, height),
                                          signal.singularities)
        assert residual < 1e-10

    def test_h2pole_pole_on_top_edge(self):
        signal = h2_reference_pole(-1j).signal
        with pytest.raises(DomainError, match="on a contour edge"):
            contour_identity_check(signal.strip_pullback, 0.5, 2.0, self.SPEC,
                                   signal.singularities)

    def test_pole_on_edge(self):
        sing = (StripSingularity(beta=20.0 + 0.5j * PI, order=1, coeff=1.0),)
        with pytest.raises(DomainError, match="on a contour edge"):
            contour_identity_check(ones, 1.0, 2.0, self.SPEC, sing)

    def test_pole_beyond_sides_not_enclosed(self):
        # a pole of the pullback right of R: below the top, yet outside
        beta = 6.5 + 0.5j * PI

        def g_strip(z):
            return 1.0 / (np.asarray(z, dtype=complex) - beta)

        sing = (StripSingularity(beta=beta, order=1, coeff=1.0),)
        spec = ContourSpec(R=5.0, height=1.5 * PI)
        assert contour_identity_check(g_strip, 1.0, 2.0, spec, sing) < 1e-10

    @pytest.mark.parametrize("beta", [7.0 + 1.25j * PI, 5.0 + 1.4j * PI])
    def test_pole_on_edge_line_off_rectangle(self, beta):
        # on the line through the top or a side, but off the edge itself
        def g_strip(z):
            return 1.0 / (np.asarray(z, dtype=complex) - beta)

        sing = (StripSingularity(beta=beta, order=1, coeff=1.0),)
        spec = ContourSpec(R=5.0, height=1.25 * PI)
        assert contour_identity_check(g_strip, 1.0, 2.0, spec, sing) < 1e-10

    @pytest.mark.parametrize("xi,alpha,message", [
        (-50.0, 2.0, "xi >= 0"),
        (1.0, 1.0, "alpha - 1"),
        (1.0, 1.0 + 1e-7, "alpha - 1"),
        (1.0, 0.0, "alpha > 0"),
        (1.0, math.exp(20.0), "R > "),
    ])
    def test_spec_check(self, xi, alpha, message):
        with pytest.raises(DomainError, match=message):
            self.SPEC.check(xi, alpha)
        with pytest.raises(DomainError, match=message):
            contour_identity_check(ones, xi, alpha, self.SPEC)

    def test_spec_check_accepts_edges(self):
        self.SPEC.check(0.0, 1.0 + 2e-6)
        self.SPEC.check(0.0, math.exp(18.9))

    def test_height_at_pi_rejected(self):
        with pytest.raises(DomainError):
            ContourSpec(R=20.0, height=PI)


class TestGrowthPrediction:
    def test_empty(self):
        assert predict_growth_exponent([]) == 0.0

    def test_single_pole(self):
        sing = [StripSingularity(beta=0.5j * PI, order=1, coeff=1.0)]
        assert predict_growth_exponent(sing) == pytest.approx(0.25)

    def test_max_rule(self):
        sing = [StripSingularity(beta=0.75j * PI, order=1, coeff=1.0),
                StripSingularity(beta=0.5j * PI, order=1, coeff=1.0)]
        assert predict_growth_exponent(sing) == pytest.approx(0.25)

    def test_pole_on_line_predicts_bounded(self):
        sing = [StripSingularity(beta=1j * PI, order=1, coeff=1.0)]
        assert predict_growth_exponent(sing) == 0.0

    def test_pole_above_pi_predicts_bounded(self):
        sing = [StripSingularity(beta=1.3j * PI, order=1, coeff=1.0)]
        assert predict_growth_exponent(sing) == 0.0
        sing.append(StripSingularity(beta=0.5j * PI, order=1, coeff=1.0))
        assert predict_growth_exponent(sing) == pytest.approx(0.25)

    def test_bad_location(self):
        stub = types.SimpleNamespace(beta=5j)
        with pytest.raises(DomainError):
            predict_growth_exponent([stub])


class TestGrowthFit:
    def test_exact_power_law(self):
        samples = [(10.0 ** k, (1 + 10.0 ** k) ** 0.25) for k in range(1, 9)]
        assert fit_growth_exponent(samples) == pytest.approx(0.25, abs=1e-12)

    def test_constant(self):
        samples = [(10.0 ** k, 3.7) for k in range(1, 9)]
        assert fit_growth_exponent(samples) == pytest.approx(0.0, abs=1e-12)

    def test_oscillating_power_law(self):
        samples = [
            (lam, (1 + lam) ** 0.25 * (1 + 0.3 * math.sin(math.log1p(lam))))
            for lam in (10.0 ** k for k in range(1, 9))
        ]
        assert fit_growth_exponent(samples) == pytest.approx(0.25, abs=0.05)

    @settings(max_examples=20, deadline=None)
    @given(p=st.floats(-1.0, 1.0), c=st.floats(0.1, 10.0))
    def test_recovers_arbitrary_exponent(self, p, c):
        samples = [(10.0 ** k, c * (1 + 10.0 ** k) ** p) for k in range(0, 7)]
        assert fit_growth_exponent(samples) == pytest.approx(p, abs=1e-9)

    def test_too_few_samples(self):
        with pytest.raises(DomainError, match="need >= 4 samples"):
            fit_growth_exponent([(10.0, 1.0), (100.0, 1.0), (1e3, 1.0)])

    def test_narrow_span(self):
        with pytest.raises(DomainError, match="span at least 4 decades"):
            fit_growth_exponent([(1.0, 1.0), (2.0, 1.0), (4.0, 1.0), (8.0, 1.0)])

    def test_grid_rules(self):
        lams = check_growth_grid([10.0, 1e3, 1e5, 1e7])
        assert isinstance(lams, np.ndarray) and lams.tolist() == [10.0, 1e3, 1e5, 1e7]
        with pytest.raises(DomainError, match="need >= 4 samples"):
            check_growth_grid([10.0, 100.0])
        with pytest.raises(DomainError, match="span at least 4 decades"):
            check_growth_grid([10.0, 100.0, 1000.0, 9999.0])

    def test_nonpositive_magnitude(self):
        with pytest.raises(DomainError, match="magnitudes must be > 0"):
            fit_growth_exponent([(10.0 ** k, 0.0) for k in range(1, 9)])


class TestDataTypes:
    def test_strip_singularity_validation(self):
        with pytest.raises(DomainError):
            StripSingularity(beta=1.0 + 0j)
        with pytest.raises(DomainError):
            StripSingularity(beta=1j * (1.5 * PI + 0.1))
        assert StripSingularity(beta=1.5j * PI).beta == 1.5j * PI
        with pytest.raises(DomainError):
            StripSingularity(beta=0.5j, order=0)

    def test_contour_spec_validation(self):
        with pytest.raises(DomainError):
            ContourSpec(R=-1.0)
        with pytest.raises(DomainError):
            ContourSpec(R=10.0, height=2.0 * PI)
