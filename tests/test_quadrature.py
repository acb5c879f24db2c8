import cmath
import functools
import heapq
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patil.errors import DomainError, NonConvergence
import patil.quadrature as quadrature
from patil.quadrature import (
    DecayCertificate,
    QuadTolerance,
    integrate_adaptive,
    integrate_panels,
    integrate_real_line,
    pv_integrate,
)

TOL = QuadTolerance()


def const_one(t):
    return 1.0


def row_of(f):
    """The ``row`` of integrate_panels for ``f(u)``: its values at the nodes."""
    return lambda a, b: [f(u) for u in quadrature._nodes(a, b)]


class TestIntegrateAdaptive:
    def test_polynomial(self):
        assert integrate_adaptive(lambda t: t, 0.0, 1.0, TOL) == pytest.approx(0.5)

    def test_complex_exponential(self):
        value = integrate_adaptive(lambda t: cmath.exp(1j * t), 0.0, math.pi, TOL)
        assert value == pytest.approx(2j, abs=1e-12)

    def test_semicircle_area(self):
        value = integrate_adaptive(lambda t: math.sqrt(1.0 - t * t), -1.0, 1.0, TOL)
        assert value.real == pytest.approx(math.pi / 2, abs=1e-9)

    def test_bad_interval(self):
        with pytest.raises(DomainError):
            integrate_adaptive(lambda t: t, 1.0, 0.0, TOL)

    def test_budget_exhaustion(self):
        stingy = QuadTolerance(abs_tol=1e-15, rel_tol=1e-15, max_subdivisions=9)
        with pytest.raises(NonConvergence):
            integrate_adaptive(lambda t: math.sqrt(abs(t)), -1.0, 1.0, stingy)

    def test_nonfinite_panel_raises(self):
        # a NaN total compares false against the target; it must not be
        # returned as the answer
        with pytest.raises(NonConvergence, match=r"panel \[0\.5, 0\.625\]"):
            integrate_adaptive(lambda t: t if t < 0.5 else math.nan, 0.0, 1.0, TOL)

    @pytest.mark.parametrize("fault, panel", [
        (lambda t: 1.0 / (t - 0.5625), "[0.5, 0.625]"),  # ZeroDivisionError
        (lambda t: math.log(0.5625 - t), "[0.5, 0.625]"),  # math's ValueError
        (lambda t: math.exp(1e3 * t), "[0.625, 0.75]"),  # OverflowError
    ], ids=["pole", "domain", "overflow"])
    def test_node_fault_is_nonfinite_panel(self, fault, panel):
        # a fault at a node makes its panel's row NaN, and the first such
        # panel is named: 0.5625 is the middle node of [0.5, 0.625], and
        # e^{1000 t} leaves the doubles from t = 0.71
        with pytest.raises(NonConvergence, match=re.escape(
                f"non-finite integrand on panel {panel}")):
            integrate_adaptive(fault, 0.0, 1.0, TOL)

    def test_domain_error_at_node_propagates(self):
        # a DomainError is the integrand's own refusal, not a node fault
        def refuse(t):
            raise DomainError("refused")
        with pytest.raises(DomainError, match="^refused$"):
            integrate_adaptive(refuse, 0.0, 1.0, TOL)

    @settings(max_examples=25, deadline=None)
    @given(
        a_re=st.floats(-2, 2), a_im=st.floats(-2, 2),
        b_re=st.floats(-2, 2), b_im=st.floats(-2, 2),
    )
    def test_linearity(self, a_re, a_im, b_re, b_im):
        a = complex(a_re, a_im)
        b = complex(b_re, b_im)
        f = lambda t: math.sin(t) + 0.3j * t
        g = lambda t: math.exp(-t * t)
        lhs = integrate_adaptive(lambda t: a * f(t) + b * g(t), -1.0, 2.0, TOL)
        rhs = a * integrate_adaptive(f, -1.0, 2.0, TOL) \
            + b * integrate_adaptive(g, -1.0, 2.0, TOL)
        assert abs(lhs - rhs) < 10 * TOL.abs_tol * (1 + abs(a) + abs(b))


def same(a, b):
    """Bitwise equality of two lists of complex numbers."""
    return [(v.real, v.imag) for v in map(complex, a)] == \
        [(v.real, v.imag) for v in map(complex, b)]


@pytest.fixture
def panel_log(monkeypatch):
    """The panels the G7/K15 stage evaluates, in order."""
    log = []
    gk15 = quadrature._gk15

    def counted(row, a, b):
        log.append((a, b))
        return gk15(row, a, b)

    monkeypatch.setattr(quadrature, "_gk15", counted)
    return log


# integral i of the batch: its integrand, interval and initial panels
BATCH = [
    (lambda t: cmath.exp(1j * 3.0 * t) / (1.1 + t), -1.0, 2.0, 8),
    (lambda t: math.sqrt(abs(t)) - 1j * t, -1.0, 1.0, 3),
    (lambda t: (1.0 + 0.5j * t) / (1.0 + 400.0 * t * t), -2.0, 0.5, 1),
    (lambda t: math.cos(t) + 0.5j * t, 0.0, 1.0, 8),
]


def reference_adaptive(f, lo, hi, tol, initial_panels=8):
    """The one-panel-per-call adaptive loop, written out, with the
    engine's G7/K15 sum of one panel."""
    heap, total, total_err = [], 0.0 + 0.0j, 0.0

    def add_panel(a, b):
        nonlocal total, total_err
        half, mid = 0.5 * (b - a), 0.5 * (b + a)
        fv = [f(mid + half * x) for x in quadrature._NODES]
        est, err = quadrature._gk15(lambda a, b: fv, a, b)
        total += est
        total_err += err
        heapq.heappush(heap, (-err, a, b, est))

    edges = np.linspace(lo, hi, initial_panels + 1)
    for a, b in zip(edges[:-1], edges[1:]):
        add_panel(a, b)
    while total_err > max(tol.abs_tol, tol.rel_tol * abs(total)):
        neg_err, a, b, est = heapq.heappop(heap)
        total -= est
        total_err += neg_err
        add_panel(a, 0.5 * (a + b))
        add_panel(0.5 * (a + b), b)
    return complex(total)


def reference_pv(w, lo, hi, x, tol):
    """The principal value of one point, written out."""
    wx = w(x)

    def smooth(t):
        return (w(t) - wx) / (x - t)

    return reference_adaptive(smooth, lo, x, tol) \
        + reference_adaptive(smooth, x, hi, tol) \
        + wx * math.log((x - lo) / (hi - x))


class TestIntegrateBatch:
    """:func:`integrate_panels`, the one engine under every batch of
    integrals: the t-path's (lambda, point) cells and the contour's edges."""

    def test_equals_reference_loop(self):
        tol = QuadTolerance(1e-12, 1e-12, 4000)
        for f, lo, hi, n in BATCH:
            assert same([integrate_adaptive(f, lo, hi, tol, n)],
                        [reference_adaptive(f, lo, hi, tol, n)])

    def test_equals_each_integral_alone(self, panel_log):
        # integrals sharing one cache of panel nodes, as the t-path's and the
        # contour's share theirs, give what each alone gives, panel for panel
        tol = QuadTolerance(1e-12, 1e-12, 4000)
        alone, panels = [], []
        for f, lo, hi, n in BATCH:
            panel_log.clear()
            alone.append(integrate_adaptive(f, lo, hi, tol, n))
            panels.append(len(panel_log))
        nodes = functools.cache(quadrature._nodes)
        shared, shared_panels = [], []
        for f, lo, hi, n in BATCH * 2:
            panel_log.clear()
            shared.append(integrate_panels(lambda a, b, f=f: [f(u) for u in nodes(a, b)],
                                           lo, hi, tol, n))
            shared_panels.append(len(panel_log))
        assert same(shared, alone * 2)
        assert shared_panels == panels * 2

    def test_rows_equal_arrays(self):
        # plain-Python rows give what rows evaluated on numpy arrays give,
        # bit for bit, for an integrand of products and sums
        tol = QuadTolerance(1e-12, 1e-12, 4000)
        for (c, d), lo, hi, n in [((0.3 + 1j, -2j), -1.0, 2.0, 8),
                                  ((-1.5 + 0.25j, 0.5), 0.0, 3.0, 3)]:
            def row(a, b):
                half, mid = 0.5 * (b - a), 0.5 * (b + a)
                return [c * u * u + d * u for u in (mid + half * x for x in quadrature._NODES)]

            def array(a, b):
                u = 0.5 * (b + a) + 0.5 * (b - a) * np.array(quadrature._NODES)
                return (c * u * u + d * u).tolist()

            assert same([integrate_panels(row, lo, hi, tol, n)],
                        [integrate_panels(array, lo, hi, tol, n)])

    def test_row_of_14_values_refused(self):
        # a row that drops a node is refused, not summed short
        with pytest.raises(ValueError):
            integrate_panels(lambda a, b: [1.0] * 14, 0.0, 1.0, TOL, 2)

    @pytest.mark.parametrize("lo,hi,n", [(-20.0, 20.0, 20), (0.0, 1.5 * math.pi, 8),
                                         (-744.0, 744.0, 744), (-1e-3, 3.3, 7),
                                         (0.1, 0.7, 1)])
    def test_partition_is_linspace(self, lo, hi, n):
        ends = [a for a, _ in quadrature._partition(lo, hi, n)] + [hi]
        assert ends == np.linspace(lo, hi, n + 1).tolist()

    def test_zero_row_needs_no_refinement(self, panel_log):
        # nothing to integrate: exactly 0 from the initial panels alone
        assert same([integrate_panels(lambda a, b: [0.0] * 15, 0.0, 1.0, TOL, 3)], [0j])
        assert panel_log == list(quadrature._partition(0.0, 1.0, 3))

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_initial_panel_refused(self, n):
        # no panel would integrate to 0 without a word
        with pytest.raises(DomainError, match=f"need at least one initial panel, got {n}"):
            integrate_panels(row_of(lambda u: u), 0.0, 1.0, TOL, n)

    def test_nonfinite_member_named(self):
        with pytest.raises(NonConvergence, match=r"^cell 1: non-finite integrand "
                                                 r"on panel \[0\.5, 0\.625\]$"):
            integrate_panels(row_of(lambda u: math.nan if u > 0.5 else u),
                             0.0, 1.0, TOL, 8, "cell 1")

    def test_member_budget_exhausted(self):
        stingy = QuadTolerance(abs_tol=1e-15, rel_tol=1e-15, max_subdivisions=9)
        assert integrate_panels(row_of(lambda u: u), -1.0, 1.0, stingy) == 0
        with pytest.raises(NonConvergence, match="after 9 panels"):
            integrate_panels(row_of(lambda u: math.sqrt(abs(u))), -1.0, 1.0, stingy)

    def test_budget_below_initial_panels_named(self):
        # 29 initial panels are spent before a budget of 9 is first checked
        stingy = QuadTolerance(abs_tol=1e-15, rel_tol=1e-15, max_subdivisions=9)
        with pytest.raises(NonConvergence, match=r"^error \S+ above target after "
                           r"29 panels \(max_subdivisions=9\)$"):
            integrate_panels(row_of(lambda u: math.sqrt(abs(u))), -1.0, 1.0,
                             stingy, 29)

    @pytest.mark.parametrize("lo,hi", [([0.0, 1.0], [1.0, 1.0]),
                                       ([0.0, 2.0], [1.0, 1.0])])
    def test_bad_member_interval(self, lo, hi):
        # the first interval integrates; the second, empty or reversed, is refused
        assert integrate_panels(row_of(lambda u: u), lo[0], hi[0], TOL) == pytest.approx(0.5)
        with pytest.raises(DomainError, match="need lo < hi"):
            integrate_panels(row_of(lambda u: u), lo[1], hi[1], TOL)


class TestPvIntegrate:
    def test_equals_reference_loop(self):
        # both pieces in one batch give what two one-panel loops gave
        w = lambda t: cmath.exp(-1j * 3.0 * t) * (1.0 - 1j * t) / (1.0 + t * t)
        for x in [-0.95, -0.85, -0.1, 0.0, 0.3, 0.85, 0.99]:
            assert same([pv_integrate(w, -1.0, 1.0, x, TOL)],
                        [reference_pv(w, -1.0, 1.0, x, TOL)])

    def test_odd_symmetry(self):
        assert pv_integrate(const_one, -1.0, 1.0, 0.0, TOL) == pytest.approx(0.0, abs=1e-12)

    def test_constant_log(self):
        value = pv_integrate(const_one, -1.0, 1.0, 0.5, TOL)
        assert value == pytest.approx(math.log(3.0), abs=1e-11)

    def test_linear_weight(self):
        value = pv_integrate(lambda t: t, -1.0, 1.0, 0.0, TOL)
        assert value == pytest.approx(-2.0, abs=1e-11)

    @settings(max_examples=25, deadline=None)
    @given(x=st.floats(-0.9, 0.9), c=st.floats(-3, 3))
    def test_constant_weight_closed_form(self, x, c):
        value = pv_integrate(lambda t: c * const_one(t), -1.0, 1.0, x, TOL)
        expected = c * math.log((x + 1.0) / (1.0 - x))
        assert abs(value - expected) < TOL.abs_tol * (1 + abs(expected)) * 10

    def test_refinement_invariance(self):
        w = lambda t: cmath.exp(1j * t) / (2.0 + math.sin(t))
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
        value = integrate_real_line(lambda u: math.exp(-abs(u)),
                                    DecayCertificate(0.5, 1.0), TOL)
        assert value == pytest.approx(2.0, abs=1e-9)

    def test_logistic_density(self):
        # e^u / (e^u + 1)^2 written through sech to stay finite at large |u|
        f = lambda u: 0.25 / math.cosh(0.5 * u) ** 2
        value = integrate_real_line(f, DecayCertificate(0.3, 1.0), TOL)
        assert value == pytest.approx(1.0, abs=1e-10)

    def test_sech_squared(self):
        f = lambda u: 0.5 / math.cosh(0.5 * u) ** 2
        value = integrate_real_line(f, DecayCertificate(0.3, 1.0), TOL)
        assert value == pytest.approx(2.0, abs=1e-10)

    def test_stable_under_doubling_truncation(self):
        cert = DecayCertificate(0.5, 1.0)
        f = lambda u: math.exp(-abs(u)) * math.cos(u)
        base = integrate_real_line(f, cert, TOL)
        u = cert.truncation_point(TOL.abs_tol)
        doubled = integrate_adaptive(f, -2 * u, 2 * u, TOL,
                                     initial_panels=int(4 * u))
        assert abs(base - doubled) < TOL.abs_tol

    def test_truncation_and_initial_panels(self):
        # [-U, U] with U from the certificate and max(8, ceil(U)) initial panels
        cert = DecayCertificate(0.3, 4.0)
        f = lambda u: math.exp(-abs(u)) * math.cos(2.0 * u)
        u_max = cert.truncation_point(TOL.abs_tol)
        assert u_max > 8
        assert same([integrate_real_line(f, cert, TOL)],
                    [integrate_adaptive(f, -u_max, u_max, TOL, math.ceil(u_max))])

    def test_truncation_point_of_a_huge_bound(self):
        # ln(2 M / (rate abs_tol)) as a sum of logs: 2 M / (rate abs_tol)
        # itself is beyond the doubles for M = 4e299
        for bound in (4e299, 1e308):
            u = DecayCertificate(0.1, bound).truncation_point(1e-10)
            want = (math.log(2.0) + math.log(bound) - math.log(0.9) + 10 * math.log(10.0)) / 0.9
            assert u == pytest.approx(want, rel=1e-15)
        u = DecayCertificate(0.5, 1.0).truncation_point(TOL.abs_tol)
        assert u == pytest.approx(math.log(2.0 / (0.5 * TOL.abs_tol)) / 0.5, rel=1e-15)

    def test_invalid_certificate(self):
        with pytest.raises(DomainError, match="delta must lie in"):
            DecayCertificate(1.2, 1.0)
        with pytest.raises(DomainError, match="bound_M must be > 0"):
            DecayCertificate(0.5, -1.0)


class TestQuadTolerance:
    @pytest.mark.parametrize("kwargs", [
        {"abs_tol": 0.0}, {"rel_tol": -1.0}, {"max_subdivisions": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            QuadTolerance(**kwargs)

    @pytest.mark.parametrize("kwargs,message", [
        ({"abs_tol": math.inf}, "abs_tol must be > 0 and finite, got inf"),
        ({"rel_tol": math.nan}, "rel_tol must be > 0 and finite, got nan"),
        ({"max_subdivisions": 2.5}, "must be an int >= 1, got 2.5"),
        ({"max_subdivisions": 4000.0}, "must be an int >= 1, got 4000.0"),
        ({"max_subdivisions": True}, "must be an int >= 1, got True"),
    ])
    def test_nonfinite_or_fractional_refused(self, kwargs, message):
        with pytest.raises(DomainError, match=re.escape(message)):
            QuadTolerance(**kwargs)

    def test_integer_budget_accepted(self):
        assert QuadTolerance(max_subdivisions=np.int64(9)).max_subdivisions == 9
