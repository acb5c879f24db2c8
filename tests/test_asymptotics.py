import cmath
import importlib.util
import math
import types
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import patil.asymptotics as asymptotics
from patil.asymptotics import (
    ContourSpec,
    StripSingularity,
    check_growth_grid,
    contour_identity_check,
    contour_residuals,
    enclosed_residues,
    fit_growth_exponent,
    kernel_k,
    predict_growth_exponent,
    residue_kernel_pole,
    residue_merged,
    residue_strip_pole,
)
from patil.catalog import example1, example2, h2_reference_pole
from patil.errors import DomainError, NonConvergence
from patil.quadrature import QuadTolerance
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


class TestKernel:
    def test_origin(self):
        assert kernel_k(0.0, 0.7, 2.0) == pytest.approx(1.0 / 6.0, rel=1e-14)

    def test_real_positive_at_zero_frequency(self):
        values = [kernel_k(complex(u), 0.0, 2.0) for u in np.linspace(-30, 30, 41)]
        assert all(value.real > 0 for value in values)
        assert np.allclose([value.imag for value in values], 0.0)

    def test_height_damping_factor(self):
        xi, b = 1.3, 4.0
        for u in (-2.0, 0.3, 5.0):
            damped = abs(kernel_k(u + 1j * b, xi, 2.0))
            reference = abs(kernel_k(u + 1j * b, 0.0, 2.0))
            assert damped == pytest.approx(math.exp(-xi * b) * reference, rel=1e-12)

    def test_pole_refused(self):
        # alpha = -1 puts the pole Log(-alpha) at z = 0 itself
        with pytest.raises(DomainError, match="kernel pole at"):
            kernel_k(0.0, 0.0, -1.0)

    def test_near_pole_blowup(self):
        # the floating-point images of the poles give huge finite values
        assert abs(kernel_k(1j * PI, 1.0, 2.0)) > 1e12
        assert abs(kernel_k(math.log(2.0) + 1j * PI, 1.0, 2.0)) > 1e12

    @pytest.mark.parametrize("z", [0.3, 0.3 + 0.2j, np.complex128(0.3 + 0.2j),
                                   np.array(0.3), [0.1, -0.2j, 2.0],
                                   np.full((2, 3), 0.5 + 0.1j)],
                             ids=["float", "complex", "complex128", "0-d", "list",
                                  "2x3"])
    def test_returns_array_of_input_shape(self, z):
        # kernel_k takes numbers only: a number of any type gives a complex,
        # a list or an array of points is refused rather than mapped
        if np.ndim(z):
            with pytest.raises(TypeError):
                kernel_k(z, 0.7, 2.0)
            return
        value = kernel_k(z, 0.7, 2.0)
        ez = cmath.exp(complex(z))
        assert type(value) is complex
        assert value == pytest.approx(cmath.exp(0.7j * complex(z)) * ez
                                      / ((ez + 1.0) * (ez + 2.0)), rel=1e-14)

    def test_large_argument_stability(self):
        # e^{700} is within a factor 2e4 of overflow; k tends to e^{i u - |u|}
        # on the right and to e^{i u - |u|} / alpha on the left, for alpha
        # beside (-1, 1), above it at 0.3 + 0.2i and inside it at 0.8
        for alpha in (2.0, (1.3 + 0.2j) / (-0.7 + 0.2j), -9.0):
            for u in (200.0, 700.0):
                for z, limit in ((u, 1.0), (-u, 1.0 / alpha)):
                    expected = cmath.exp(1j * z) * math.exp(-u) * limit
                    assert kernel_k(z + 0j, 1.0, alpha) == \
                        pytest.approx(expected, rel=1e-14, abs=0.0)

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


    @pytest.mark.parametrize("z", [0.3 + 0.2j, 2.0 + 1e-3j, -0.5 + 1e-9 + 0j,
                                   0.8 + 0j, 2.0 - 1e-9 + 0j, 2.0 + 1e-8 + 0j])
    def test_cauchy_kernel_in_u(self, z):
        # J(u) / (t(u) - z) = 2 r k(u, 0, alpha) / (hi - z): complex alpha
        # above I, negative inside I, positive beside it
        interval = Interval(-0.5, 2.0)
        r = interval.half_width
        alpha = (z - interval.lo) / (z - interval.hi)
        u = np.linspace(-40.0, 40.0, 81).tolist()
        values = [2.0 * r * kernel_k(uk, 0.0, alpha) / (interval.hi - z) for uk in u]
        with mpmath.workdps(50):
            for uk, value in zip(u, values):
                half = mpmath.mpf(uk) / 2
                t = mpmath.mpf(interval.center) + r * mpmath.tanh(half)
                want = complex(r / (2 * mpmath.cosh(half) ** 2)
                               / (t - mpmath.mpc(z.real, z.imag)))
                assert abs(value - want) <= 1e-13 * abs(want), uk


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

    def test_nonconvergence_names_edge(self):
        stingy = QuadTolerance(abs_tol=1e-14, rel_tol=1e-14, max_subdivisions=9)
        with pytest.raises(NonConvergence,
                           match=r"xi=1\.0, alpha=2\.0, bottom edge: error"):
            contour_identity_check(ones, 1.0, 2.0, self.SPEC, tol=stingy)

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

    def test_order_two_pole_by_merged_residue(self):
        # the closed form covers simple poles only; this one goes to residue_merged
        beta = 0.5 + 0.5j * PI

        def g_strip(z):
            return 1.0 / (np.asarray(z, dtype=complex) - beta) ** 2

        sing = (StripSingularity(beta=beta, order=2, coeff=1.0),)
        spec = ContourSpec(R=5.0, height=1.25 * PI)
        assert contour_identity_check(g_strip, 1.0, 2.0, spec, sing) < 1e-12

    @pytest.mark.parametrize("beta1,beta2", [
        (0.5 + 0.5j * PI, 0.6 + 0.5j * PI),  # both enclosed, 0.1 apart
        (4.9 + 0.5j * PI, 5.05 + 0.5j * PI),  # the simple pole right of R
        (0.5 + 0.5j * PI, 1.5 + 0.5j * PI),  # 1 apart
    ])
    def test_merged_residue_circle_clear_of_listed_pole(self, beta1, beta2):
        # the order-two pole's residue circle, of radius 0.2 by the kernel
        # poles alone, must not take in the simple pole

        def g_strip(z):
            z = np.asarray(z, dtype=complex)
            return 1.0 / (z - beta1) ** 2 + 1.0 / (z - beta2)

        sing = (StripSingularity(beta=beta1, order=2, coeff=1.0),
                StripSingularity(beta=beta2, order=1, coeff=1.0))
        spec = ContourSpec(R=5.0, height=1.25 * PI)
        assert contour_identity_check(g_strip, 1.0, 2.0, spec, sing) < 1e-12

    def test_height_near_pi_rejected(self):
        # within 1e-6 above pi the kernel poles still sit on the top edge, so
        # the rectangle itself is refused, before any cell runs
        for height in (PI + 1e-7, PI + 5e-7):
            with pytest.raises(DomainError, match="at least 1e-06 above pi"):
                ContourSpec(20.0, height)
        assert ContourSpec(20.0, PI + 1e-6).height == PI + 1e-6

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


class TestContourResiduals:
    """All cells' edges in one batch give each cell's residual alone."""

    CELLS = [(xi, alpha) for xi in (0.5, 1.0, 2.0) for alpha in (0.5, 2.0, 5.0)]

    @pytest.mark.parametrize("entry", [example1, example2])
    @pytest.mark.parametrize("height", [1.25 * PI, 1.5 * PI])
    def test_equals_each_cell_alone(self, entry, height):
        signal = entry().signal
        spec = ContourSpec(20.0, height)
        batch = contour_residuals(signal.strip_pullback, self.CELLS, spec,
                                  signal.singularities)
        alone = [contour_identity_check(signal.strip_pullback, xi, alpha, spec,
                                        signal.singularities)
                 for xi, alpha in self.CELLS]
        assert batch == alone
        assert max(batch) < 1e-6

    def test_empty_cells(self):
        assert contour_residuals(ones, [], ContourSpec(20.0)) == []

    def test_every_cell_checked_before_integration(self, monkeypatch):
        def no_integration(*args, **kwargs):
            raise AssertionError("an edge was integrated")

        monkeypatch.setattr(asymptotics, "integrate_rows", no_integration)
        with pytest.raises(DomainError, match="xi >= 0"):
            contour_residuals(ones, [(1.0, 2.0), (-1.0, 2.0)], ContourSpec(20.0))

    @pytest.mark.parametrize("g_strip,xi,panel", [
        # a pole on the bottom edge's node -19: ZeroDivisionError in the row
        (lambda z: 1 / (z + 19.0), 1.0, "[-20.0, -18.0]"),
        # OverflowError from the pullback past Re z = 0.71
        (lambda z: cmath.exp(1000.0 * z), 1.0, "[0.0, 2.0]"),
        # xi Re z beyond the doubles: cmath's ValueError from the phase
        (lambda z: 1.0, 1e307, "[-20.0, -18.0]"),
    ])
    def test_arithmetic_fault_named(self, g_strip, xi, panel):
        # no bare arithmetic exception: the non-finite panel, its cell and edge
        with pytest.raises(NonConvergence) as fault:
            contour_residuals(g_strip, [(xi, 2.0)], ContourSpec(20.0))
        assert str(fault.value) == (f"contour at xi={xi!r}, alpha=2.0, bottom edge: "
                                    f"non-finite integrand on panel {panel}")

    def test_domain_error_at_node_surfaces(self):
        # a DomainError is a ValueError, but the pullback's own refusal: not
        # a NaN row, so not a NonConvergence
        def g_strip(z):
            if z.real > 10.0:
                raise DomainError(f"no pullback at {z}")
            return 1.0

        with pytest.raises(DomainError, match="no pullback at"):
            contour_residuals(g_strip, [(1.0, 2.0)], ContourSpec(20.0))

    @pytest.mark.parametrize("case,budget,cell,edge", [
        ("example2", 40, (8.0, 5.0), "bottom"),
        ("pole right of R", 16, (0.5, 2.0), "right"),
    ])
    def test_nonconvergence_names_later_cell(self, case, budget, cell, edge):
        if case == "example2":
            signal = example2().signal
            g_strip, sing = signal.strip_pullback, signal.singularities
            spec = ContourSpec(20.0, 1.5 * PI)
            cells = [(1.0, 2.0), (4.0, 0.5), cell, (2.0, 2.0)]
        else:
            # a pole just right of the right edge, felt most at small xi
            beta = 5.02 + 0.5j * PI

            def g_strip(z):
                return 1.0 / (np.asarray(z, dtype=complex) - beta)

            sing = (StripSingularity(beta=beta),)
            spec = ContourSpec(5.0, 1.25 * PI)
            cells = [(1.0, 0.5), (2.0, 2.0), (4.0, 0.5), cell]
        stingy = QuadTolerance(max_subdivisions=budget)
        with pytest.raises(NonConvergence) as batch:
            contour_residuals(g_strip, cells, spec, sing, stingy)
        xi, alpha = cell
        assert str(batch.value).startswith(
            f"contour at xi={xi}, alpha={alpha}, {edge} edge: error ")
        # the same message as the cell alone gives
        with pytest.raises(NonConvergence) as alone:
            contour_identity_check(g_strip, xi, alpha, spec, sing, stingy)
        assert str(batch.value) == str(alone.value)


@pytest.fixture(scope="module")
def fuzz():
    """``tools/fuzz_oracle.py`` as a module."""
    spec = importlib.util.spec_from_file_location(
        "fuzz_oracle", Path(__file__).resolve().parents[1] / "tools" / "fuzz_oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestResidueEngine:
    """``enclosed_residues``, the engine g_lambda's residue path also sums,
    against the independent closed forms and ``residue_merged``."""

    CELLS = [(xi, alpha) for xi in (0.0, 0.3, 1.0, 4.0, 16.0)
             for alpha in (0.5, 1.21, 2.0, 10.0, 50.0)]
    SPEC = ContourSpec(20.0, 1.5 * PI)
    BETA = 0.5 + 0.5j * PI  # the synthetic order-two pole

    def case(self, name):
        """The pullback and its listed poles."""
        if name == "order-two":
            def g_strip(z):
                return 1.0 / (np.asarray(z, dtype=complex) - self.BETA) ** 2
            return g_strip, (StripSingularity(beta=self.BETA, order=2),)
        signal = {"example1": example1, "example2": example2,
                  "h2pole(-2j)": lambda: h2_reference_pole(-2j)}[name]().signal
        return signal.strip_pullback, signal.singularities

    @pytest.mark.parametrize("name", ["example1", "example2", "h2pole(-2j)", "order-two"])
    def test_matches_cross_checks(self, name, fuzz):
        g_strip, sing = self.case(name)
        got = enclosed_residues(g_strip, self.CELLS, self.SPEC, sing)
        for (xi, alpha), value in zip(self.CELLS, got):
            want = fuzz.closed_form_residues(g_strip, sing, xi, alpha, self.SPEC)
            # at xi = 0 a rational entry's residues cancel exactly: there the
            # scale is the size of what is summed
            scale = abs(sum(want)) if xi else sum(map(abs, want))
            assert abs(value - sum(want)) <= 1e-12 * scale, (xi, alpha)

    @pytest.mark.parametrize("xi, alpha", [(0.505, 1.076), (0.3, 1.06)])
    def test_near_kernel_poles_share_one_circle(self, xi, alpha):
        # example1's double pole at i pi and the kernel pole ln(alpha) (0.073
        # and 0.058) from it, nearer than min(0.1, 1/xi): one circle rule,
        # against an 8,192-point circle of radius 0.6 round both
        signal = example1().signal
        got = enclosed_residues(signal.strip_pullback, [(xi, alpha)], self.SPEC,
                                signal.singularities)[0]
        centre, n = 1j * PI, 8192
        nodes = [centre + 0.6 * cmath.exp(2j * PI * k / n) for k in range(n)]
        terms = [kernel_k(u, xi, alpha) * signal.strip_pullback(u) * (u - centre)
                 for u in nodes]
        want = complex(math.fsum(t.real for t in terms),
                       math.fsum(t.imag for t in terms)) / n
        assert abs(got - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("third, groups", [(0.2, [[0, 1, 2]]), (0.3, [[0, 1], [2]])])
    def test_cluster_spread_rule(self, third, groups):
        # 0.2 is 0.11 from the pair (0, 0.09), over the distance 0.1, but
        # 0.155 from its centre, within four times its spread 0.045; 0.3 is not
        assert asymptotics._clusters([0.0, 0.09, third], 0.1) == groups

    def test_fuzz_contour_set(self, fuzz):
        # tools/fuzz_oracle.py's contour set, fewer cells
        worst, over = fuzz.contour_set(7, 60)
        assert over == 0 and worst < 1e-12

    @pytest.mark.parametrize("height", [1.25 * PI, 1.5 * PI])
    def test_unlisted_pole_never_passes(self, height):
        # example1's pole at i pi, not listed, is refused at the kernel pole
        # wherever it stands alone: its missing residue, e^{-xi pi} times the
        # pullback's 1.6e16 at the floating-point i pi, would read only
        # 3.1e-7 at xi = 16, alpha = 50, below the 1e-6 residual tolerance
        g_strip = example1().signal.strip_pullback
        for cell in self.CELLS:
            with pytest.raises(DomainError, match=r"pullback singular at 3\.14"):
                contour_residuals(g_strip, [cell], ContourSpec(20.0, height))


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
        # a pole on or below the real line, or at infinity, is no strip pole;
        # how high one may lie is its signal's period to say
        for beta in (-0.5j, 2.0 + 0j, complex(0.0, math.inf)):
            stub = types.SimpleNamespace(beta=beta)
            with pytest.raises(DomainError):
                predict_growth_exponent([stub])

    def test_pole_high_in_the_period_strip(self):
        # h2pole on (-0.5, 2): its pole lies above 3 pi / 2 and decays
        sing = [StripSingularity(beta=1.8j * PI, order=1, coeff=1.0)]
        assert predict_growth_exponent(sing) == 0.0


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
        lams = check_growth_grid(np.array([10.0, 1e3, 1e5, 1e7]))
        assert lams == [10.0, 1e3, 1e5, 1e7]
        assert all(type(lam) is float for lam in lams)
        with pytest.raises(DomainError, match="need >= 4 samples"):
            check_growth_grid([10.0, 100.0])
        with pytest.raises(DomainError, match="span at least 4 decades"):
            check_growth_grid([10.0, 100.0, 1000.0, 9999.0])

    @pytest.mark.parametrize("bad", [-10.0, 0.0, math.nan, math.inf])
    def test_bad_lambda_refused(self, bad, capfd):
        # a negative lambda used to pass the span test (its log10 is NaN),
        # zero divided by zero, and NaN reached np.polyfit
        lams = [bad, 1e1, 1e2, 1e3, 1e4, 1e5]
        with pytest.raises(DomainError, match=f"need finite lambda > 0, got {bad}"):
            fit_growth_exponent(zip(lams, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]))
        assert capfd.readouterr().err == ""

    def test_nonpositive_magnitude(self):
        with pytest.raises(DomainError, match="magnitudes must be > 0"):
            fit_growth_exponent([(10.0 ** k, 0.0) for k in range(1, 9)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
    def test_one_bad_magnitude_refused(self, bad):
        # a NaN or inf used to come back as a nan slope, with no error
        lams = [1e1, 1e2, 1e3, 1e4, 1e5]
        with pytest.raises(DomainError, match=f"> 0 and finite, got {bad}"):
            fit_growth_exponent(zip(lams, [1.0, 2.0, bad, 4.0, 5.0]))


class TestDataTypes:
    def test_strip_singularity_validation(self):
        with pytest.raises(DomainError):
            StripSingularity(beta=1.0 + 0j)
        with pytest.raises(DomainError):
            StripSingularity(beta=complex(0.0, math.inf))
        with pytest.raises(DomainError):
            StripSingularity(beta=complex(math.nan, 1.0))
        assert StripSingularity(beta=1.5j * PI).beta == 1.5j * PI
        assert StripSingularity(beta=1.9j * PI).beta == 1.9j * PI
        with pytest.raises(DomainError):
            StripSingularity(beta=0.5j, order=0)

    def test_contour_spec_validation(self):
        with pytest.raises(DomainError):
            ContourSpec(R=-1.0)
        with pytest.raises(DomainError):
            ContourSpec(R=10.0, height=2.0 * PI)

    @pytest.mark.parametrize("R", [math.nextafter(asymptotics.R_MAX, math.inf),
                                   1e9, 1e300])
    def test_contour_spec_refuses_huge_r(self, R):
        # beyond R_MAX e^-R is below the least double: more panels, no more digits
        with pytest.raises(DomainError, match=r"R must be at most 744\.44"):
            ContourSpec(R=R)

    def test_contour_at_largest_r(self):
        signal = example2().signal
        at_max = contour_identity_check(signal.strip_pullback, 1.0, 2.0,
                                        ContourSpec(asymptotics.R_MAX),
                                        signal.singularities)
        assert math.exp(-asymptotics.R_MAX) > 0.0 and at_max < 1e-10

    @pytest.mark.parametrize("R", [math.inf, math.nan])
    def test_contour_spec_refuses_nonfinite_r(self, R):
        # contour_residuals starts int(R) panels on each horizontal edge
        with pytest.raises(DomainError, match="R must be finite and > 0"):
            ContourSpec(R=R)
