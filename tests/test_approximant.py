import cmath
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patil.approximant import (
    BoundarySignal,
    approximant_boundary,
    approximant_interior,
    approximant_values,
    l2_error_on_window,
    sup_error_on_compact,
)
from patil.catalog import example1, example2, h2_reference_pole, rational
from patil.errors import DomainError
from patil.quadrature import QuadTolerance
from patil.quench import Interval, QuenchParams

SYM = Interval(-1.0, 1.0)
TOL = QuadTolerance()
H2 = h2_reference_pole(-1j)

# the benchmark's mpmath oracle, loaded read-only from its file
_spec = importlib.util.spec_from_file_location(
    "perfbench_oracle", Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py")
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)


def closed_form(x, lam, interval, c, w):
    """g_lambda(x) for data c/(t - w): F(x) (1 - h_lambda(x) / H_lambda(w)).

    H_lambda is h_lambda continued off I along the principal branch
    (see perfbench/oracle.py); h_lambda(x) is its limit from above, of
    modulus (1+lam)^{-1/2} inside I and 1 outside.
    """
    xi = math.log1p(lam) / (2.0 * math.pi)
    half_l = 0.5 * (math.log1p(interval.hi ** 2) - math.log1p(interval.lo ** 2))
    big_h = cmath.exp(1j * xi * (cmath.log((interval.hi - w) / (interval.lo - w))
                                 - half_l))
    modulus = 1.0 / math.sqrt(1.0 + lam) if interval.contains(x) else 1.0
    h = modulus * cmath.exp(1j * xi * (math.log(abs((interval.hi - x)
                                                    / (interval.lo - x))) - half_l))
    return c / (x - w) * (1.0 - h / big_h)


class TestInterior:
    def test_lambda_zero(self):
        assert approximant_interior(1j, QuenchParams(0.0), SYM, H2.signal) == 0

    def test_domain(self):
        with pytest.raises(DomainError):
            approximant_interior(1 - 1j, QuenchParams(1.0), SYM, H2.signal)

    def test_convergence_at_i(self):
        target = -0.5j  # F(i) for the pole-at -i reference
        errors = []
        for lam in (10.0, 1e3, 1e5):
            value = approximant_interior(1j, QuenchParams(lam), SYM, H2.signal, TOL)
            errors.append(abs(value - target))
        assert errors[0] > errors[1] > errors[2]
        assert errors[-1] < 2e-3

    def test_dual_path_fixed_point(self):
        p = QuenchParams(100.0)
        vu = approximant_interior(0.5 + 0.5j, p, SYM, example1().signal, TOL, "u")
        vt = approximant_interior(0.5 + 0.5j, p, SYM, example1().signal, TOL, "t")
        assert abs(vu - vt) < 1e-8

    @pytest.mark.parametrize("entry", [example1(), example2(), h2_reference_pole(-1j)])
    @pytest.mark.parametrize("lam", [10.0, 1e4, 1e8])
    def test_dual_path_catalog(self, entry, lam):
        p = QuenchParams(lam)
        z = 0.4 + 0.6j
        vu = approximant_interior(z, p, SYM, entry.signal, TOL, "u")
        vt = approximant_interior(z, p, SYM, entry.signal, TOL, "t")
        assert abs(vu - vt) < 10 * TOL.abs_tol * (1 + abs(vu))

    def test_linear_in_signal(self):
        base = example2().signal
        c = 2.5 - 1.0j
        scaled = BoundarySignal(
            eval_on_I=lambda x: c * base.eval_on_I(x),
            decay_cert=base.decay_cert,
        )
        p = QuenchParams(1e3)
        v1 = approximant_interior(0.2 + 0.9j, p, SYM, base, TOL)
        v2 = approximant_interior(0.2 + 0.9j, p, SYM, scaled, TOL)
        assert abs(v2 - c * v1) < 1e-9


class TestBoundary:
    def test_lambda_zero(self):
        for x in (-3.0, 0.2, 4.0):
            assert approximant_boundary(x, QuenchParams(0.0), SYM, H2.signal) == 0

    def test_endpoint_rejected(self):
        with pytest.raises(DomainError):
            approximant_boundary(1.0, QuenchParams(1.0), SYM, H2.signal)

    @pytest.mark.parametrize("lam", [1e10, 1e11, 1e12])
    def test_near_endpoint_matches_oracle(self, lam):
        # 4e-6 from lo: the t-domain principal value put a node on lo here
        value = approximant_boundary(-0.999996, QuenchParams(lam), SYM, H2.signal)
        want = oracle.approximant(-0.999996, lam, -1.0, 1.0, 1, -1j)
        assert abs(value - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("x", [-1.0 + 1e-9, 1.0 - 1.2e-16])
    def test_closer_than_endpoint_guard(self, x):
        # the t-domain principal value refused these; in u they are finite
        value = approximant_boundary(x, QuenchParams(1e12), SYM, H2.signal)
        want = oracle.approximant(x, 1e12, -1.0, 1.0, 1, -1j)
        assert abs(value - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("x", [-0.99, -0.3, 0.35, 0.9])
    @pytest.mark.parametrize("lam", [5e2, 1e8])
    def test_inside_matches_closed_form(self, x, lam):
        value = approximant_boundary(x, QuenchParams(lam), SYM, example2().signal)
        want = closed_form(x, lam, SYM, -1j, 1j)
        assert abs(value - want) <= 1e-12 * abs(want)

    @settings(max_examples=40, deadline=None)
    @given(c=st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0),
           w=st.builds(complex, st.floats(-5.0, 5.0),
                       st.floats(0.2, 5.0) | st.floats(-5.0, -0.2)),
           lo=st.floats(-3.0, 2.0), width=st.floats(0.5, 4.0),
           near=st.lists(st.floats(-5.0, math.log10(0.5)), min_size=2, max_size=2),
           far=st.lists(st.floats(0.01, 3.0), min_size=2, max_size=2),
           decades=st.floats(0.0, 12.0))
    def test_rational_matches_closed_form(self, c, w, lo, width, near, far, decades):
        # inside I down to 1e-5 |I| from an endpoint, and outside on both sides
        interval = Interval(lo, lo + width)
        inside = [lo + width * 10.0 ** near[0], lo + width - width * 10.0 ** near[1]]
        xs = inside + [lo - far[0], lo + width + far[1]]
        lam = 10.0 ** decades
        values = approximant_values(xs, QuenchParams(lam), interval,
                                    rational(c, w, interval).signal, TOL)
        # outside I nothing cancels the Cauchy integral's own abs_tol
        outside = lam / (2.0 * math.pi * math.sqrt(1.0 + lam)) * TOL.abs_tol
        slack = [0.0, 0.0, outside, outside]
        for x, value, extra in zip(xs, values, slack):
            want = closed_form(x, lam, interval, c, w)
            assert abs(value - want) <= 1e-12 * abs(want) + extra, (x, lam)

    @pytest.mark.parametrize("entry", [example1(), example2()])
    @pytest.mark.parametrize("x", [0.3, 2.0])
    def test_boundary_limit_monotone(self, entry, x):
        p = QuenchParams(100.0)
        boundary = approximant_boundary(x, p, SYM, entry.signal, TOL)
        diffs = [abs(approximant_interior(complex(x, y), p, SYM, entry.signal, TOL)
                     - boundary)
                 for y in (1e-1, 1e-2, 1e-3, 1e-4)]
        assert all(b < a for a, b in zip(diffs[:-1], diffs[1:]))

    def test_example1_stays_bounded(self):
        mags = [abs(approximant_boundary(2.0, QuenchParams(10.0 ** k), SYM,
                                         example1().signal, TOL))
                for k in range(1, 9)]
        assert max(mags) < 20.0

    def test_example2_quarter_power_growth(self):
        xs, ys = [], []
        for k in range(2, 9):
            lam = 10.0 ** k
            mag = abs(approximant_boundary(2.0, QuenchParams(lam), SYM,
                                           example2().signal, TOL))
            xs.append(math.log1p(lam))
            ys.append(math.log(mag))
        slope = np.polyfit(xs, ys, 1)[0]
        assert slope == pytest.approx(0.25, abs=0.03)


def bits(values):
    return [(v.real, v.imag) for v in map(complex, values)]


class TestBatches:
    NONSYM = Interval(-0.5, 2.0)
    # inside I, and outside it on both sides, in no particular order
    XS = [3.1, -0.49, 0.0, -2.0, 1.999, 0.7, -0.6, 2.5, 1.2]
    ZS = [0.3 + 0.7j, -1.4 + 0.2j, 2.6 + 1.5j, 0.9 + 0.05j]

    @pytest.mark.parametrize("entry", [example2(), h2_reference_pole(-1j)])
    @pytest.mark.parametrize("lam", [1e2, 1e7])
    def test_boundary_batch_equals_each_point(self, entry, lam):
        p = QuenchParams(lam)
        batch = approximant_values(self.XS, p, self.NONSYM, entry.signal, TOL)
        alone = [approximant_boundary(x, p, self.NONSYM, entry.signal, TOL)
                 for x in self.XS]
        assert bits(batch) == bits(alone)

    @pytest.mark.parametrize("method", ["u", "t"])
    def test_interior_batch_equals_each_point(self, method):
        p = QuenchParams(1e3)
        signal = example1().signal
        batch = approximant_values(self.ZS, p, self.NONSYM, signal, TOL, method)
        alone = [approximant_interior(z, p, self.NONSYM, signal, TOL, method)
                 for z in self.ZS]
        assert bits(batch) == bits(alone)

    @pytest.mark.parametrize("entry", [example1(), h2_reference_pole(-1j)])
    def test_mixed_batch_equals_each_point(self, entry):
        # interior points, and real points inside I and outside it
        p = QuenchParams(1e3)
        points = [z for pair in zip(self.ZS, self.XS) for z in pair]
        batch = approximant_values(points, p, self.NONSYM, entry.signal, TOL)
        alone = [approximant_interior(z, p, self.NONSYM, entry.signal, TOL)
                 if isinstance(z, complex) else
                 approximant_boundary(z, p, self.NONSYM, entry.signal, TOL)
                 for z in points]
        assert bits(batch) == bits(alone)

    def test_interior_batch_rejects_lower_half_plane(self):
        with pytest.raises(DomainError, match="need Im z > 0"):
            approximant_values([0.5 + 1j, 0.2 - 1e-3j], QuenchParams(10.0),
                               SYM, H2.signal)

    def test_t_path_rejects_real_point(self):
        with pytest.raises(DomainError, match="need Im z > 0"):
            approximant_values([0.5 + 1j, 0.2], QuenchParams(10.0), SYM,
                               H2.signal, method="t")

    @pytest.mark.parametrize("method", ["closed", "U"])
    def test_unknown_method_rejected(self, method):
        with pytest.raises(DomainError, match='"u" or "t"'):
            approximant_values([0.5 + 1j], QuenchParams(10.0), SYM, H2.signal,
                               method=method)
        with pytest.raises(DomainError, match='"u" or "t"'):
            approximant_interior(0.5 + 1j, QuenchParams(10.0), SYM, H2.signal,
                                 method=method)

    def test_boundary_batch_rejects_endpoint(self):
        with pytest.raises(DomainError, match="endpoint x=1.0"):
            approximant_values([0.3, 1.0, 2.0], QuenchParams(10.0), SYM,
                               H2.signal)

    def test_empty_batches(self):
        p = QuenchParams(10.0)
        assert approximant_values([], p, SYM, H2.signal) == []
        assert approximant_values([], p, SYM, H2.signal, method="t") == []


class TestErrorMeasures:
    GRID = [complex(x, y) for x in np.linspace(-0.5, 0.5, 3)
            for y in np.linspace(0.5, 1.5, 3)]

    def test_sup_error_lambda_zero(self):
        value = sup_error_on_compact(self.GRID, QuenchParams(0.0), SYM,
                                     H2.signal, H2.reference)
        expected = max(abs(H2.reference(z)) for z in self.GRID)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_sup_error_decreases(self):
        errs = [sup_error_on_compact(self.GRID, QuenchParams(lam), SYM,
                                     H2.signal, H2.reference, TOL)
                for lam in (1e2, 1e4, 1e6)]
        assert errs[0] > errs[1] > errs[2]

    def test_sup_error_requires_interior_points(self):
        with pytest.raises(DomainError):
            sup_error_on_compact([1.0 + 0j], QuenchParams(1.0), SYM,
                                 H2.signal, H2.reference)

    def test_l2_error_lambda_zero(self):
        window = Interval(-5.0, 5.0)
        value = l2_error_on_window(QuenchParams(0.0), SYM, H2.signal,
                                   H2.reference, window, 41)
        pts = np.linspace(-5, 5, 41)
        expected = math.sqrt(10.0 * np.mean(np.abs(1.0 / (pts + 1j)) ** 2))
        assert value == pytest.approx(expected, rel=1e-10)

    def test_l2_error_decreases(self):
        window = Interval(-5.0, 5.0)
        errs = [l2_error_on_window(QuenchParams(lam), SYM, H2.signal,
                                   H2.reference, window, 21, TOL)
                for lam in (1e2, 1e4)]
        assert errs[1] < errs[0]

    def test_l2_error_inside_window_decreases(self):
        window = Interval(-0.5, 0.5)
        errs = [l2_error_on_window(QuenchParams(lam), SYM, H2.signal,
                                   H2.reference, window, 21, TOL)
                for lam in (1e2, 1e4)]
        assert errs[1] < errs[0]
