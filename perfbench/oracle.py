"""Closed-form g_lambda for rational data, computed in mpmath.

For data F(z) = c / (z - w) with w off the real line, Patil's
approximant has the closed form

    g_lambda(z) = F(z) * (1 - h_lambda(z) / H_lambda(w)),
    H_lambda(zeta) = exp(-i xi L / 2) * ((hi - zeta) / (lo - zeta))**(i xi),

with xi = ln(1 + lambda) / (2 pi) and L = ln((1 + hi^2) / (1 + lo^2)).
H_lambda is h_lambda continued off I along the principal branch of the
ratio.  On the real line h_lambda is the limit from above, so each log
of a negative real number carries -i pi.

The module does not import ``patil``: it is the independent reference
the benchmark checks the program's output rows against.  Run it as a
script to check the closed form against direct mpmath quadrature of the
defining Cauchy integral (see ``self_test``).
"""

import math
import sys

import mpmath

DPS = 30

# (c, w) of each catalog entry whose data has the form c / (z - w)
RATIONAL_ENTRIES = {
    "h2pole": (1, -1j),
    "example2": (-1j, 1j),
}


def _xi(lam):
    return mpmath.log1p(lam) / (2 * mpmath.pi)


def _log_weight(lo, hi):
    return mpmath.log((1 + hi * hi) / (1 + lo * lo))


def _log_from_above(a):
    # log(a - i0) for real a: the +i0 limit of z puts hi - z, lo - z below
    if a < 0:
        return mpmath.log(-a) - 1j * mpmath.pi
    return mpmath.log(a)


def quench(z, lam, lo, hi):
    """h_lambda(z) for Im z > 0, or its limit from above on the real line."""
    xi = _xi(lam)
    z = mpmath.mpc(z)
    if z.imag == 0:
        cauchy = _log_from_above(hi - z.real) - _log_from_above(lo - z.real)
    elif z.imag > 0:
        cauchy = mpmath.log(hi - z) - mpmath.log(lo - z)
    else:
        raise ValueError(f"quench needs Im z >= 0, got {z}")
    return mpmath.exp(1j * xi * (cauchy - _log_weight(lo, hi) / 2))


def quench_continued(zeta, lam, lo, hi):
    """H_lambda(zeta): h_lambda continued off I, principal branch of the ratio."""
    xi = _xi(lam)
    ratio = (hi - mpmath.mpc(zeta)) / (lo - mpmath.mpc(zeta))
    return mpmath.exp(1j * xi * (mpmath.log(ratio) - _log_weight(lo, hi) / 2))


def data(z, c, w):
    return mpmath.mpc(c) / (mpmath.mpc(z) - mpmath.mpc(w))


def deviation(z, lam, lo, hi, c, w):
    """g_lambda(z) - F(z) = -F(z) h_lambda(z) / H_lambda(w)."""
    with mpmath.workdps(DPS):
        lam, lo, hi = mpmath.mpf(lam), mpmath.mpf(lo), mpmath.mpf(hi)
        return -data(z, c, w) * quench(z, lam, lo, hi) \
            / quench_continued(w, lam, lo, hi)


def approximant(z, lam, lo, hi, c, w):
    """g_lambda(z) as a Python complex."""
    with mpmath.workdps(DPS):
        return complex(data(z, c, w) + deviation(z, lam, lo, hi, c, w))


# --- self-test: the defining Cauchy integral by direct quadrature ------------

def _gauss_legendre(f, a, b, n_sub, degree=4):
    """Composite Gauss-Legendre rule with 3 * 2**(degree-1) nodes per panel."""
    rule = mpmath.calculus.quadrature.GaussLegendre(mpmath.mp)
    nodes = rule.get_nodes(-1, 1, degree, mpmath.mp.prec)
    half = (b - a) / (2 * n_sub)
    total = mpmath.mpc(0)
    for k in range(n_sub):
        mid = a + (2 * k + 1) * half
        total += sum(wt * f(mid + half * x) for x, wt in nodes)
    return half * total


def _defining_integral(z, lam, lo, hi, c, w, digits):
    """g_lambda(z) from its defining integral, in the tanh variable u.

    g(z) = lam h(z) / (2 pi i sqrt(1+lam)) * int_I exp(-iG(t)) F(t) / (t - z) dt,
    with h(t) = (1+lam)^{-1/2} exp(iG(t)) on I.  Under
    t = m + r tanh(u/2), ln((hi-t)/(t-lo)) = -u, so the phase is
    exp(i xi u) times a constant and dt/du = r/(2 cosh^2(u/2)) decays like
    exp(-|u|).  For real z inside I the limit from above is the
    principal value plus i pi times the residue; the principal value is
    taken by subtracting the singular part, split at the singular node.
    """
    xi = _xi(lam)
    m, r = (lo + hi) / 2, (hi - lo) / 2
    lw = _log_weight(lo, hi)
    z = mpmath.mpc(z)

    def pieces(u):
        e = mpmath.exp(-u)
        t = m + r * (1 - e) / (1 + e)
        jac = 2 * r * e / (1 + e) ** 2
        phase = mpmath.expj(xi * (u + lw / 2))
        return t, jac, phase

    def phi(u):
        # exp(-iG(t(u))) F(t(u))
        t, _, phase = pieces(u)
        return phase * data(t, c, w)

    # truncate where exp(-|u|) is below the target; one panel per period,
    # and panels no wider than the nearest pole of the integrand is far
    span = (digits + 3) * mpmath.log(10)
    period = min(mpmath.mpf(0.5), 2 * mpmath.pi / (xi + 1))
    if z.imag == 0 and lo < z.real < hi:
        x = z.real
        u0 = -mpmath.log((hi - x) / (x - lo))
        phi0 = phi(u0)

        def remainder(u):
            t, jac, phase = pieces(u)
            return (phase * data(t, c, w) - phi0) * jac / (t - x)

        pv = sum(_gauss_legendre(remainder, a, b, int(mpmath.ceil((b - a) / period)))
                 for a, b in ((u0 - span, u0), (u0, u0 + span)))
        integral = pv + phi0 * (mpmath.log((hi - x) / (x - lo)) + 1j * mpmath.pi)
    else:
        def integrand(u):
            t, jac, phase = pieces(u)
            return phase * data(t, c, w) * jac / (t - z)

        integral = _gauss_legendre(integrand, -span, span,
                                   int(mpmath.ceil(2 * span / period)))
    h = _quench_by_quadrature(z, lam, lo, hi)
    return lam * h / (2j * mpmath.pi * mpmath.sqrt(1 + lam)) * integral


def _quench_by_quadrature(z, lam, lo, hi):
    """h_lambda(z) from its defining integral, apart from ``quench``'s logs.

    h(z) = exp(i xi int_I (1/(t - z) - t/(1 + t^2)) dt).  For real z
    inside I the limit from above is the principal value plus i pi; the
    principal value drops the interval symmetric about z.
    """
    z = mpmath.mpc(z)

    def weight(t):
        return t / (1 + t * t)

    exponent = -mpmath.quad(weight, [lo, hi])
    if z.imag == 0 and lo < z.real < hi:
        x = z.real
        d = min(x - lo, hi - x)
        for a, b in ((lo, x - d), (x + d, hi)):
            if b > a:
                exponent += mpmath.quad(lambda t: 1 / (t - x), [a, b])
        exponent += 1j * mpmath.pi
    else:
        exponent += mpmath.quad(lambda t: 1 / (t - z), [lo, hi])
    return mpmath.exp(1j * _xi(lam) * exponent)


def self_test(out=sys.stdout):
    """Compare the closed form with direct quadrature; return True on pass.

    Covers interior points, exterior points on both sides and points
    inside I, on a symmetric and a nonsymmetric interval, for both
    rational catalog entries, with lambda up to 1e100.  A slip of branch
    (say +i pi instead of -i pi in one log for x > hi) changes the value
    by a factor exp(-2 pi xi) of one term and shows here.
    """
    want = 15
    # h2pole's exterior values cancel by (1+lam)^(-1/2) in the integral;
    # its grid stops at the top of the growth workload's fault band
    lams = {"example2": (1e1, 1e8, 1e30, 1e100), "h2pole": (1e1, 1e8, 1e32)}
    cases = []
    for lo, hi in ((-1, 1), (-0.5, 2)):
        for z in (0.3 + 0.7j, hi + 1.5, lo - 2.5, lo + 0.3 * (hi - lo)):
            for name, grid in lams.items():
                cases.extend((name, lo, hi, z, lam) for lam in grid)
    worst = math.inf
    failed = 0
    for name, lo, hi, z, lam in cases:
        c, w = RATIONAL_ENTRIES[name]
        # outside I the integral is |g| / sqrt(lam) while its integrand is O(1)
        cancel = int(math.log10(1 + lam) / 2) + 1
        with mpmath.workdps(want + cancel + 10):
            lam_m, lo_m, hi_m = mpmath.mpf(lam), mpmath.mpf(lo), mpmath.mpf(hi)
            ref = _defining_integral(z, lam_m, lo_m, hi_m, c, w, want + cancel + 2)
            closed = data(z, c, w) + deviation(z, lam_m, lo_m, hi_m, c, w)
            rel = abs(closed - ref) / abs(ref)
        digits = float(-mpmath.log10(rel)) if rel > 0 else float(DPS)
        ok = digits >= want
        failed += not ok
        worst = min(worst, digits)
        print(f"{'ok  ' if ok else 'FAIL'} {name:8s} I=({lo}, {hi}) "
              f"z={complex(z)!s:12s} lam={lam:.0e} |g|={float(abs(ref)):.6e} "
              f"digits={digits:.1f}", file=out, flush=True)
    print(f"{len(cases)} cases, {failed} failed, worst agreement {worst:.1f} digits",
          file=out)
    return failed == 0


if __name__ == "__main__":
    sys.exit(0 if self_test() else 1)
