import cmath
import functools
import importlib.util
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patil.approximant import (
    approximant_boundary,
    approximant_interior,
    approximant_table,
    l2_error,
    l2_error_on_window,
    sup_error,
    sup_error_on_compact,
    window_samples,
)
from patil.catalog import example1, example2, get_entry, h2_reference_pole, rational
import patil.asymptotics as asymptotics
from patil.errors import DomainError, NonConvergence, PatilError
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

# example1's mpmath oracle, from its u-integral by quadrature, inside I too
_spec = importlib.util.spec_from_file_location(
    "example1_oracle", Path(__file__).resolve().parents[1] / "tools" / "example1_oracle.py")
example1_oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(example1_oracle)
EXAMPLE1_LAMBDAS = (10.0, 1e4, 1e8)


@functools.cache
def example1_mpmath(z):
    """example1's g_lambda at z on (-1, 1) for each of EXAMPLE1_LAMBDAS."""
    return example1_oracle.approximants(z, EXAMPLE1_LAMBDAS)


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
        value = approximant_interior(0.5 + 0.5j, p, SYM, example1().signal, TOL)
        vt = approximant_interior(0.5 + 0.5j, p, SYM, example1().signal, TOL, "t")
        assert abs(value - vt) < 1e-8

    @pytest.mark.parametrize("entry", [example1(), example2(), h2_reference_pole(-1j)])
    @pytest.mark.parametrize("lam", [10.0, 1e4, 1e8])
    def test_dual_path_catalog(self, entry, lam):
        p = QuenchParams(lam)
        z = 0.4 + 0.6j
        value = approximant_interior(z, p, SYM, entry.signal, TOL)
        vt = approximant_interior(z, p, SYM, entry.signal, TOL, "t")
        assert abs(value - vt) < 10 * TOL.abs_tol * (1 + abs(value))

    def test_linear_in_signal(self):
        base = example2().signal  # -i / (x - i)
        c = 2.5 - 1.0j
        scaled = rational(c * -1j, 1j).signal
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

    @pytest.mark.parametrize("entry, c, w", [(H2, 1, -1j), (example2(), -1j, 1j)])
    @pytest.mark.parametrize("x", [1.0 + 1e-8, -1.0 - 1e-7, 1.0 + 3e-7])
    @pytest.mark.parametrize("lam", [1e1, 1e3])
    def test_beside_endpoint_matches_oracle(self, entry, c, w, x, lam):
        # t(u) - x formed by subtraction loses digits beside an endpoint
        value = approximant_boundary(x, QuenchParams(lam), SYM, entry.signal)
        want = oracle.approximant(x, lam, -1.0, 1.0, c, w)
        assert abs(value - want) <= 1e-11 * abs(want)

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
        values = approximant_table(xs, [lam], interval,
                                   rational(c, w, interval).signal, TOL)[0]
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
    # example1 needs I = (-a, a); this one keeps XS off its endpoints
    WIDE = Interval(-1.5, 1.5)
    # inside I, and outside it on both sides, in no particular order
    XS = [3.1, -0.49, 0.0, -2.0, 1.999, 0.7, -0.6, 2.5, 1.2]
    ZS = [0.3 + 0.7j, -1.4 + 0.2j, 2.6 + 1.5j, 0.9 + 0.05j]

    @pytest.mark.parametrize("entry", [example2(NONSYM), h2_reference_pole(-1j, NONSYM)])
    @pytest.mark.parametrize("lam", [1e2, 1e7])
    def test_boundary_batch_equals_each_point(self, entry, lam):
        p = QuenchParams(lam)
        batch = approximant_table(self.XS, [p.lam], self.NONSYM, entry.signal, TOL)[0]
        alone = [approximant_boundary(x, p, self.NONSYM, entry.signal, TOL)
                 for x in self.XS]
        assert bits(batch) == bits(alone)

    @pytest.mark.parametrize("method", [None, "t"], ids=["default", "t"])
    def test_interior_batch_equals_each_point(self, method):
        p = QuenchParams(1e3)
        signal = example1(self.WIDE).signal
        batch = approximant_table(self.ZS, [p.lam], self.WIDE, signal, TOL, method)[0]
        alone = [approximant_interior(z, p, self.WIDE, signal, TOL, method)
                 for z in self.ZS]
        assert bits(batch) == bits(alone)

    @pytest.mark.parametrize("entry", [example1(WIDE), h2_reference_pole(-1j, NONSYM)])
    def test_mixed_batch_equals_each_point(self, entry):
        # interior points, and real points inside I and outside it
        p, interval = QuenchParams(1e3), entry.signal.interval
        points = [z for pair in zip(self.ZS, self.XS) for z in pair]
        batch = approximant_table(points, [p.lam], interval, entry.signal, TOL)[0]
        alone = [approximant_interior(z, p, interval, entry.signal, TOL)
                 if isinstance(z, complex) else
                 approximant_boundary(z, p, interval, entry.signal, TOL)
                 for z in points]
        assert bits(batch) == bits(alone)

    def test_interior_batch_rejects_lower_half_plane(self):
        with pytest.raises(DomainError, match="need Im z > 0"):
            approximant_table([0.5 + 1j, 0.2 - 1e-3j], [10.0],
                              SYM, H2.signal)[0]

    def test_t_path_rejects_real_point(self):
        with pytest.raises(DomainError, match="need Im z > 0"):
            approximant_table([0.5 + 1j, 0.2], [10.0], SYM,
                              H2.signal, method="t")[0]

    @pytest.mark.parametrize("method", ["closed", "U"])
    def test_unknown_method_rejected(self, method):
        with pytest.raises(DomainError, match='None or "t"'):
            approximant_table([0.5 + 1j], [10.0], SYM, H2.signal,
                              method=method)[0]
        with pytest.raises(DomainError, match='None or "t"'):
            approximant_interior(0.5 + 1j, QuenchParams(10.0), SYM, H2.signal,
                                 method=method)

    @pytest.mark.parametrize("z,shown", [
        (math.nan, "nan+0j"), (complex(0.5, math.inf), "0.5+infj"),
        (complex(math.nan, 1.0), "nan+1j")])
    def test_nonfinite_point_rejected(self, z, shown):
        with pytest.raises(DomainError, match=rf"need a finite point, got "
                                              rf"z=\({re.escape(shown)}\)"):
            approximant_table([0.3, z], [10.0], SYM, H2.signal)[0]

    def test_boundary_batch_rejects_endpoint(self):
        with pytest.raises(DomainError, match="endpoint x=1.0"):
            approximant_table([0.3, 1.0, 2.0], [10.0], SYM,
                              H2.signal)[0]

    @pytest.mark.parametrize("lo, hi, z, end", [
        (-1.0, 1.0, complex(-1.0, 1e-310), -1.0), (-1.0, 1.0, complex(1.0, 5e-324), 1.0),
        (0.0, 1.0, -1e-310, 0.0), (-1e20, 1e20, complex(1e20, 1e-285), 1e20)])
    def test_point_where_quotient_leaves_doubles(self, lo, hi, z, end):
        # (z - hi)/(z - lo) in E(z) leaves the doubles within about 1e-308 |I|
        interval = Interval(lo, hi)
        signal = example2(interval=interval).signal
        with pytest.raises(DomainError, match=re.escape(f"endpoint x={end}")):
            approximant_table([2.0 * hi, z], [10.0], interval, signal)
        d = 1e-299 * (hi - lo)
        near = complex(z.real, d) if isinstance(z, complex) else lo - d
        assert cmath.isfinite(approximant_table([near], [10.0], interval, signal)[0][0])

    def test_nonconvergence_names_cell(self):
        # every t integral starts on 8 G7/K15 panels, so a budget of 8 stops
        # it at its first refinement
        stingy = QuadTolerance(max_subdivisions=8)
        with pytest.raises(NonConvergence, match=r"^g_lambda at lambda=10\.0, "
                                                 r"z=\(0\.5\+1j\), t integral: error"):
            approximant_table([0.5 + 1j], [10.0], SYM, H2.signal,
                              stingy, "t")[0]

    def test_empty_batches(self):
        p = QuenchParams(10.0)
        assert approximant_table([], [p.lam], SYM, H2.signal)[0] == []
        assert approximant_table([], [p.lam], SYM, H2.signal, method="t")[0] == []


class TestTable:
    NONSYM = Interval(-0.5, 2.0)
    POINTS = [3.1, 0.3 + 0.7j, -0.49, 0.0, -2.0, 1.999, 2.6 + 1.5j, 0.9 + 0.05j]
    LAMBDAS = [0.0, 10.0, 1e4, 1e8, 1e12, 1e16]

    @pytest.mark.parametrize("entry", [example2, h2_reference_pole])
    def test_rows_equal_values_bit_for_bit(self, entry):
        signal = entry(interval=self.NONSYM).signal
        table = approximant_table(self.POINTS, self.LAMBDAS, self.NONSYM, signal, TOL)
        assert len(table) == len(self.LAMBDAS)
        for lam, row in zip(self.LAMBDAS, table):
            alone = approximant_table(self.POINTS, [lam], self.NONSYM,
                                      signal, TOL)[0]
            assert bits(row) == bits(alone), lam

    def test_t_rows_equal_values_bit_for_bit(self):
        zs = [z for z in self.POINTS if isinstance(z, complex)]
        lams = self.LAMBDAS[:4]
        signal = example2(interval=self.NONSYM).signal
        table = approximant_table(zs, lams, self.NONSYM, signal, TOL, "t")
        assert len(table) == len(lams)
        for lam, row in zip(lams, table):
            alone = approximant_table(zs, [lam], self.NONSYM, signal,
                                      TOL, "t")[0]
            assert bits(row) == bits(alone), lam

    @settings(max_examples=30, deadline=None)
    @given(entry=st.sampled_from(["h2pole", "example2"]),
           inside=st.floats(-0.49, 1.99), left=st.floats(0.01, 3.0),
           right=st.floats(0.01, 3.0),
           decades=st.lists(st.floats(1.0, 8.0), min_size=1, max_size=4))
    def test_matches_closed_form(self, entry, inside, left, right, decades):
        c, w = (1.0, -1j) if entry == "h2pole" else (-1j, 1j)
        signal = rational(c, w, self.NONSYM).signal
        xs = [inside, self.NONSYM.lo - left, self.NONSYM.hi + right]
        lams = [10.0 ** d for d in decades]
        for lam, row in zip(lams, approximant_table(xs, lams, self.NONSYM, signal,
                                                    TOL)):
            # outside I nothing cancels the Cauchy integral's own abs_tol
            outside = lam / (2.0 * math.pi * math.sqrt(1.0 + lam)) * TOL.abs_tol
            for x, value, extra in zip(xs, row, [0.0, outside, outside]):
                want = closed_form(x, lam, self.NONSYM, c, w)
                assert abs(value - want) <= 1e-12 * abs(want) + extra, (x, lam)

    @pytest.mark.parametrize("entry", [example2(), h2_reference_pole(-1j)])
    def test_near_interval_matches_t_path(self, entry):
        # the kernel's pole at 0.1 + 0.1i lies about 0.2 from the real u-line
        z, lams = 0.1 + 0.1j, [10.0, 1e4, 1e8]
        u_rows = approximant_table([z], lams, SYM, entry.signal, TOL)
        t_rows = approximant_table([z], lams, SYM, entry.signal, TOL, "t")
        for (vu,), (vt,) in zip(u_rows, t_rows):
            assert abs(vu - vt) < 10 * TOL.abs_tol * (1 + abs(vu))

    def test_kinked_data_falls_back_and_matches_t_path(self):
        # example1's data on (-0.5, 2) has a kink at x = 1 and no period for
        # this interval: the default path refuses it, and the t-path, which
        # reads the data alone, refines its G7/K15 panels round the kink
        lams = [10.0, 1e4]
        signal = example1().signal
        with pytest.raises(DomainError, match=re.escape(
                f"belong to {SYM}, got {self.NONSYM}")):
            approximant_table([0.3 + 0.7j], lams, self.NONSYM, signal, TOL)
        t_rows = approximant_table([0.3 + 0.7j], lams, self.NONSYM, signal, TOL, "t")
        assert all(cmath.isfinite(vt) and vt != 0 for (vt,) in t_rows)

    @pytest.mark.parametrize("points", [[0.5 + 1j, 0.3 + 0.05j],
                                        [0.3 + 0.05j, 0.5 + 1j]])
    def test_t_path_names_the_failing_cell(self, points):
        # with a budget of 76 panels only lambda = 1e8 at 0.5 + 1i, which
        # needs 84, fails; every other (lambda, point) cell needs at most 68
        stingy = QuadTolerance(max_subdivisions=76)
        named = (r"^g_lambda at lambda=100000000\.0, z=\(0\.5\+1j\), "
                 r"t integral: error .* after 76 panels")
        with pytest.raises(NonConvergence, match=named):
            approximant_table(points, [10.0, 1e4, 1e8], SYM, H2.signal, stingy, "t")
        for lam in (10.0, 1e4):
            approximant_table(points, [lam], SYM, H2.signal, stingy, "t")
        approximant_table([0.3 + 0.05j], [1e8], SYM, H2.signal, stingy, "t")

    @pytest.mark.parametrize("points, named", [
        ([0.3 + 0.05j, 0.5 + 1j], r"lambda=10000\.0, z=\(0\.3\+0\.05j\)"),
        ([0.5 + 1j, 0.3 + 0.05j], r"lambda=100000000\.0, z=\(0\.5\+1j\)")],
        ids=["near-point-first", "far-point-first"])
    def test_t_path_names_the_first_failing_point(self, points, named):
        # a budget of 64 panels fails lambda = 1e4 (65 panels) and 1e8 (68)
        # at 0.3 + 0.05i and 1e8 (84) at 0.5 + 1i: the first point in
        # ``points`` is named, with its first failing lambda
        stingy = QuadTolerance(max_subdivisions=64)
        with pytest.raises(NonConvergence, match=f"^g_lambda at {named}, t integral: "
                                                 f"error .* after 64 panels"):
            approximant_table(points, [10.0, 1e4, 1e8], SYM, H2.signal, stingy, "t")

    @pytest.mark.parametrize("name", ["example2", "h2pole"])
    def test_t_path_tolerance_in_g_units(self, name):
        # rel_tol bounds g itself: each cell is within 10 rel_tol of the
        # oracle, or a typed refusal where bisection reaches an endpoint
        c, w = oracle.RATIONAL_ENTRIES[name]
        signal = rational(c, w, SYM).signal
        rng = np.random.default_rng(41)
        points = [3.0 + 0.5j, 0.5 + 1j] + [complex(x, y) for x, y in zip(
            rng.uniform(-3.0, 3.0, 4), rng.uniform(0.05, 2.0, 4))]
        for z in points:
            for lam in (1e8, 1e16, 1e20):
                want = oracle.approximant(z, lam, SYM.lo, SYM.hi, c, w)
                try:
                    value = approximant_table([z], [lam], SYM, signal, TOL, "t")[0][0]
                except PatilError:
                    assert lam > 1e8, (z, lam)  # a refusal only where lambda is extreme
                    continue
                assert abs(value - want) <= 10 * TOL.rel_tol * abs(want), (z, lam)

    def test_lambda_checked(self):
        with pytest.raises(DomainError, match="lambda must be finite"):
            approximant_table([2.0], [10.0, -1.0], SYM, H2.signal)

    def test_empty_lambdas(self):
        assert approximant_table([2.0, 0.5 + 1j], [], SYM, H2.signal) == []


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

    def test_nan_propagates(self):
        # a NaN value must not vanish in the sup: max(0.0, nan) is 0.0
        values, pts, window = [math.nan, 1.0], [0.0, 0.5], Interval(-1.0, 1.0)
        zeros = lambda z: 0.0  # noqa: E731
        assert math.isnan(sup_error(values, pts, zeros))
        assert math.isnan(sup_error(values[:1], pts[:1], zeros))
        assert math.isnan(l2_error(values, pts, zeros, window))
        assert math.isnan(sup_error([1.0, 1.0], pts, lambda z: z + math.nan))

    @pytest.mark.parametrize("where", [0, 2, 4], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("side", ["values", "reference"])
    @pytest.mark.parametrize("measure", ["sup", "l2"])
    def test_nan_at_any_position(self, where, side, measure):
        # a plain max() keeps or drops a NaN by its place: max(nan, 1.0) is
        # nan, max(1.0, nan) is 1.0; list and array points alike
        for as_array in (False, True):
            pts = [0.1 * k for k in range(5)]
            values, refs = [1.0 + k for k in range(5)], [0.5 * k for k in range(5)]
            (values if side == "values" else refs)[where] = math.nan
            ref = dict(zip(pts, refs)).__getitem__
            if as_array:
                pts = np.array(pts)
            if measure == "sup":
                got = sup_error(values, pts, ref)
            else:
                got = l2_error(values, pts, ref, Interval(0.0, 0.4))
            assert math.isnan(got), (as_array, got)

    def test_window_samples_are_linspace(self):
        # linspace's own lo + i * step, the last at hi, then the guard nudge
        for window, n in [(Interval(-5.0, 5.0), 101), (Interval(-1.5, 1.5), 101),
                          (Interval(-0.3, 0.7), 7), (Interval(-1.0, 3.0), 1),
                          (Interval(-2.0, 2.0), 2), (Interval(-1.0, 1.0), 0)]:
            pts = window_samples(SYM, window, n)
            want = np.linspace(window.lo, window.hi, n)
            guard = SYM.guard
            for end in (SYM.lo, SYM.hi):
                close = np.abs(want - end) < guard
                want[close] = end + 2.0 * guard * np.where(want[close] >= end, 1.0, -1.0)
            assert isinstance(pts, list)
            assert pts == want.tolist()

    def test_reference_called_once_per_point(self):
        calls = []

        def ref(z):
            calls.append(z)
            return H2.reference(z)

        pts = [-2.0 + 0.5 * k for k in range(9)]
        values = [H2.reference(z) + 1e-3 for z in pts]
        assert sup_error(values, pts, ref) == pytest.approx(1e-3, rel=1e-10)
        assert l2_error(values, pts, ref, Interval(-2.0, 2.0)) == \
            pytest.approx(1e-3 * math.sqrt(4.0), rel=1e-10)
        assert calls == pts + pts

    def test_no_points_refused(self):
        # an error measure over no points is no error of 0.0
        window, p = Interval(-5.0, 5.0), QuenchParams(1e2)
        for measure in (lambda: sup_error([], [], H2.reference),
                        lambda: l2_error([], [], H2.reference, window),
                        lambda: sup_error_on_compact([], p, SYM, H2.signal,
                                                     H2.reference),
                        lambda: l2_error_on_window(p, SYM, H2.signal,
                                                   H2.reference, window, 0)):
            with pytest.raises(DomainError, match="at least one point"):
                measure()

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


class TestResiduePath:
    """The default path for a signal that declares its period: the residue
    sum over one period strip, with no quadrature."""

    LAMBDAS = [10.0 ** k for k in (1, 2, 4, 8, 12, 16, 24, 32, 50, 100, 200, 300)]

    @staticmethod
    def points(interval):
        lo, hi = interval.lo, interval.hi
        return [0.3 + 0.7j, 0.5 + 5j, 3.0 + 1j, hi + 1.5, lo - 2.5,
                lo + 0.3 * (hi - lo), hi + 1e-3, lo - 1e-3, lo + 1e-3, hi - 1e-3,
                0.2 + 1e-3j]

    @pytest.mark.parametrize("interval", [SYM, Interval(-0.5, 2.0)])
    @pytest.mark.parametrize("name", ["example2", "h2pole"])
    def test_matches_oracle(self, name, interval, monkeypatch):
        # no integral at all: any quadrature would raise here
        monkeypatch.setattr("patil.approximant.integrate_panels", None)
        c, w = oracle.RATIONAL_ENTRIES[name]
        signal = (example2 if name == "example2" else h2_reference_pole)(
            interval=interval).signal
        points = self.points(interval)
        table = approximant_table(points, self.LAMBDAS, interval, signal)
        for lam, row in zip(self.LAMBDAS, table):
            for z, value in zip(points, row):
                want = oracle.approximant(z, lam, interval.lo, interval.hi, c, w)
                assert abs(value - want) <= 1e-12 * abs(want), (z, lam)

    @pytest.mark.parametrize("name", ["example2", "h2pole"])
    def test_small_lambda_keeps_digits(self, name):
        # g is about lambda times the data there, while each residue is of
        # the data's size: e^{i xi phase} - 1 keeps what e^{i xi phase} loses
        c, w = oracle.RATIONAL_ENTRIES[name]
        interval = Interval(-0.5, 2.0)
        signal = get_entry(name, interval=interval).signal
        points = self.points(interval)
        lams = [1e-12, 1e-8, 1e-4, 1e-2, 1.0]
        for lam, row in zip(lams, approximant_table(points, lams, interval, signal)):
            for z, value in zip(points, row):
                want = oracle.approximant(z, lam, interval.lo, interval.hi, c, w)
                assert abs(value - want) <= 1e-12 * abs(want), (z, lam)

    @pytest.mark.parametrize("a", [1.0, 2.5])
    def test_example1_matches_u_path(self, a):
        # its pole at i pi merges with the kernel's: one circle rule there;
        # the oracle takes 0.3 a, inside I, on a path below its pole
        interval = Interval(-a, a)
        signal = example1(interval).signal
        points = [2.0 * a, 5.0 * a, -1.5 * a, 0.3 * a, (0.3 + 0.7j) * a,
                  complex(-0.5 * a, 0.05 * a), a * (1.0 + 1e-3)]
        lams = [10.0, 1e4, 1e8]
        table = approximant_table(points, lams, interval, signal)
        for j, z in enumerate(points):
            wants = example1_oracle.approximants(z, lams, a)
            for lam, row, want in zip(lams, table, wants):
                assert abs(row[j] - want) <= 1e-12 * abs(want), (z, lam)

    @pytest.mark.parametrize("lam", EXAMPLE1_LAMBDAS)
    @pytest.mark.parametrize("z", [2.0, -1.5, 0.3 + 0.5j])
    def test_example1_matches_mpmath(self, z, lam):
        # the oracle takes each point's three lambdas at once
        want = example1_mpmath(z)[EXAMPLE1_LAMBDAS.index(lam)]
        value = approximant_table([z], [lam], SYM, example1().signal)[0][0]
        assert abs(value - want) <= 1e-12 * abs(want)

    def test_example1_beside_endpoint_matches_u_path(self):
        # 1e-9 beside hi, real and above
        interval = Interval(-1.0, 1.0)
        signal = example1(interval).signal
        points = [1.0 + 1e-9, 1.0 + 1e-9j]
        lams = [10.0, 1e4, 1e8]
        table = approximant_table(points, lams, interval, signal)
        for j, z in enumerate(points):
            wants = example1_oracle.approximants(z, lams)
            for lam, row, want in zip(lams, table, wants):
                assert abs(row[j] - want) <= 1e-12 * abs(want), (z, lam)

    @pytest.mark.parametrize("name", ["example2", "h2pole"])
    def test_u_path_within_1e_299_of_an_endpoint(self, name):
        # z = 1 + 1e-299i on (0, 1), which Interval.point admits: the residue
        # path agrees with the oracle there (the t-path cannot: a node
        # rounds onto hi there)
        c, w = oracle.RATIONAL_ENTRIES[name]
        interval = Interval(0.0, 1.0)
        signal = get_entry(name, interval=interval).signal
        z, lams = complex(1.0, 1e-299), [10.0, 1e4]
        table = approximant_table([z], lams, interval, signal)
        for lam, (value,) in zip(lams, table):
            want = oracle.approximant(z, lam, interval.lo, interval.hi, c, w)
            assert abs(value - want) <= 1e-12 * abs(want), lam

    def test_tiny_interval_cluster(self):
        # on I of half-width 1e-6 the data's pole, the kernel pole i pi and
        # the point's own pole lie within about 1e-6 of each other; their
        # closed-form residues would cancel, so one circle takes all three
        interval = Interval(0.3 - 1e-6, 0.3 + 1e-6)
        for name in ("example2", "h2pole"):
            c, w = oracle.RATIONAL_ENTRIES[name]
            signal = get_entry(name, interval=interval).signal
            points = [0.3 + 2e-6, 0.3 - 5e-6, 0.3 + 0.5e-6, complex(0.3, 1e-6)]
            for lam in (10.0, 1e8, 1e16):
                row = approximant_table(points, [lam], interval, signal)[0]
                for z, value in zip(points, row):
                    want = oracle.approximant(z, lam, interval.lo, interval.hi, c, w)
                    assert abs(value - want) <= 1e-11 * abs(want), (name, z, lam)

    @pytest.mark.parametrize("H", [1e19, 1e20, 1e300])
    def test_h2pole_on_wide_interval(self, H):
        # w = -i puts beta within an ulp of 2 pi on (-H, H): it is kept one
        # ulp below, where the signal's period strip ends
        interval = Interval(-H, H)
        signal = h2_reference_pole(interval=interval).signal
        assert signal.singularities[0].beta.imag == math.nextafter(2.0 * math.pi, 0.0)
        points = [1.5 * H, 0.3 * H, complex(0.2 * H, 0.5 * H)]
        lams = [10.0, 1e8, 1e100]
        for lam, row in zip(lams, approximant_table(points, lams, interval, signal)):
            for z, value in zip(points, row):
                want = oracle.approximant(z, lam, -H, H, 1, -1j)
                assert abs(value - want) <= 1e-12 * abs(want), (z, lam)

    def test_terms_built_once_per_key(self, monkeypatch):
        # a point's terms depend on lambda only through min(0.1, 1/xi):
        # lambdas up to e^{20 pi} - 1 share the key 0.1, larger ones have their own
        builds = []
        clusters = asymptotics._clusters

        def counted(*args):
            builds.append(args[1])
            return clusters(*args)
        monkeypatch.setattr(asymptotics, "_clusters", counted)
        lams = [10.0, 1e4, 1e8, 1e30, 1e40]
        table = approximant_table([2.0, 0.5 + 1j], lams, SYM, example1().signal)
        assert len(builds) == 2 * 3
        monkeypatch.setattr(asymptotics, "_clusters", clusters)
        for lam, row in zip(lams, table):
            assert row == approximant_table([2.0, 0.5 + 1j], [lam], SYM,
                                            example1().signal)[0]

    def test_other_interval_takes_u_path(self):
        # the period and poles belong to the signal's own interval: the
        # default path refuses another, the t-path reads only the data
        signal, other = example2().signal, Interval(-1.0, 1.5)
        with pytest.raises(DomainError, match=re.escape(
                "the signal's period and poles belong to Interval(lo=-1.0, hi=1.0), "
                "got Interval(lo=-1.0, hi=1.5)")):
            approximant_table([2.0], [10.0], other, signal)
        (value,), = approximant_table([2.0 + 1j], [10.0], other, signal, TOL, "t")
        want = oracle.approximant(2.0 + 1j, 10.0, -1.0, 1.5, -1j, 1j)
        assert abs(value - want) < 10 * TOL.abs_tol * (1 + abs(want))

    def test_fuzz_counts_no_silent_wrong_value(self):
        # tools/fuzz_oracle.py's five sets, fewer cells each
        spec = importlib.util.spec_from_file_location(
            "fuzz_oracle", Path(__file__).resolve().parents[1] / "tools" / "fuzz_oracle.py")
        fuzz = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(fuzz)
        for lam_max, decades in fuzz.SETS:
            tally, worst = fuzz.run_set(7, 40, lam_max, decades)
            assert tally == {"right": 40, "typed": 0, "wrong": 0, "other": 0}, \
                (lam_max, decades)
            assert worst < 1e-12
