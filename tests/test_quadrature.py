import heapq
import math

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
    integrate_batch,
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


def same(a, b):
    """Bitwise equality of two lists of complex numbers."""
    return [(v.real, v.imag) for v in map(complex, a)] == \
        [(v.real, v.imag) for v in map(complex, b)]


@pytest.fixture
def panel_log(monkeypatch):
    """Integrand calls and panels per integral, as seen by the G7/K15 stage."""
    log = {"calls": 0, "panels": {}}
    gk15 = quadrature._gk15

    def counted(f, k, lo, hi):
        log["calls"] += 1
        for i in k.tolist():
            log["panels"][i] = log["panels"].get(i, 0) + 1
        return gk15(f, k, lo, hi)

    monkeypatch.setattr(quadrature, "_gk15", counted)
    return log


# integral i of the batch: its integrand, interval and initial panels; all
# complex, since a batch sums one dtype and numpy sums 15 complex values in
# another order than 15 real ones
BATCH = [
    (lambda t: np.exp(1j * 3.0 * t) / (1.1 + t), -1.0, 2.0, 8),
    (lambda t: np.sqrt(np.abs(t)) - 1j * t, -1.0, 1.0, 3),
    (lambda t: (1.0 + 0.5j * t) / (1.0 + 400.0 * t * t), -2.0, 0.5, 1),
    (lambda t: np.cos(t) + 0.5j * t, 0.0, 1.0, 8),
]


def batch_integrand(u, k):
    out = np.empty(u.shape, dtype=complex)
    for i, (f, *_rest) in enumerate(BATCH):
        rows = k[:, 0] == i
        out[rows] = f(u[rows])
    return out


def reference_adaptive(f, lo, hi, tol, initial_panels=8):
    """The one-panel-per-call adaptive loop the batch engine replaced."""
    heap, total, total_err = [], 0.0 + 0.0j, 0.0

    def add_panel(a, b):
        nonlocal total, total_err
        half, mid = 0.5 * (b - a), 0.5 * (b + a)
        fv = np.asarray(f(mid + half * quadrature._NODES))
        est = half * np.sum(quadrature._WK_FULL * fv)
        err = abs(est - half * np.sum(quadrature._WG_FULL * fv))
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
    """The principal value of one point, as computed before batching."""
    wx = w(x)

    def smooth(t):
        return (w(t) - wx) / (x - t)

    return reference_adaptive(smooth, lo, x, tol) \
        + reference_adaptive(smooth, x, hi, tol) \
        + wx * math.log((x - lo) / (hi - x))


class TestIntegrateBatch:
    def test_equals_reference_loop(self):
        tol = QuadTolerance(1e-12, 1e-12, 4000)
        for f, lo, hi, n in BATCH:
            assert same([integrate_adaptive(f, lo, hi, tol, n)],
                        [reference_adaptive(f, lo, hi, tol, n)])


    def test_equals_each_integral_alone(self, panel_log):
        tol = QuadTolerance(1e-12, 1e-12, 4000)
        alone, calls, panels = [], [], []
        for f, lo, hi, n in BATCH:
            panel_log.update(calls=0, panels={})
            alone.append(integrate_adaptive(f, lo, hi, tol, n))
            calls.append(panel_log["calls"])
            panels.append(panel_log["panels"][0])
        panel_log.update(calls=0, panels={})
        together = integrate_batch(batch_integrand, [b[1] for b in BATCH],
                                   [b[2] for b in BATCH], tol,
                                   [b[3] for b in BATCH])
        assert same(together, alone)
        assert [panel_log["panels"][i] for i in range(len(BATCH))] == panels
        # one call for all initial panels, then one per refinement step
        assert panel_log["calls"] == max(calls) < sum(calls)

    def test_empty_batch(self):
        assert integrate_batch(batch_integrand, [], [], TOL) == []

    def test_nonfinite_member_named(self):
        def f(u, k):
            return np.where((k == 1) & (u > 0.5), np.nan, u)
        with pytest.raises(NonConvergence, match=r"panel \[0\.5, 0\.625\]"):
            integrate_batch(f, [0.0, 0.0, 0.0], [1.0, 1.0, 1.0], TOL)

    def test_member_budget_exhausted(self):
        stingy = QuadTolerance(abs_tol=1e-15, rel_tol=1e-15, max_subdivisions=9)

        def f(u, k):
            return np.where(k == 0, u, np.sqrt(np.abs(u)))
        with pytest.raises(NonConvergence, match="after 9 panels"):
            integrate_batch(f, [-1.0, -1.0], [1.0, 1.0], stingy)

    @pytest.mark.parametrize("lo,hi", [([0.0, 1.0], [1.0, 1.0]),
                                       ([0.0, 2.0], [1.0, 1.0])])
    def test_bad_member_interval(self, lo, hi):
        with pytest.raises(DomainError, match="need lo < hi"):
            integrate_batch(lambda u, k: u, lo, hi, TOL)


class TestPvIntegrate:
    def test_equals_reference_loop(self):
        # both pieces in one batch give what two one-panel loops gave
        w = lambda t: np.exp(-1j * 3.0 * t) * (1.0 - 1j * t) / (1.0 + t * t)
        for x in [-0.95, -0.85, -0.1, 0.0, 0.3, 0.85, 0.99]:
            assert same([pv_integrate(w, -1.0, 1.0, x, TOL)],
                        [reference_pv(w, -1.0, 1.0, x, TOL)])

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

    def test_truncation_and_initial_panels(self):
        # [-U, U] with U from the certificate and max(8, ceil(U)) initial panels
        cert = DecayCertificate(0.3, 4.0)
        f = lambda u: np.exp(-np.abs(u)) * np.cos(2.0 * u)
        u_max = cert.truncation_point(TOL.abs_tol)
        assert u_max > 8
        assert same([integrate_real_line(f, cert, TOL)],
                    [integrate_adaptive(f, -u_max, u_max, TOL, math.ceil(u_max))])

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
