"""g_lambda of ``example1`` in mpmath, from its u-integral by quadrature.

``example1``'s data on I = (-a, a) is sqrt(a^2 - t^2) - i t.  Under
t = a tanh(u/2) the phase of the approximant's Cauchy integral is
exactly e^{i xi u}, xi = ln(1 + lambda) / (2 pi), the data is
a (sech(u/2) - i tanh(u/2)) and dt/du = (a/2) sech^2(u/2), so

    g_lambda(z) = lambda h_lambda(z) / (2 pi i sqrt(1 + lambda))
                  * int_R e^{i xi u} Q(u) du,
    Q(u) = (data) (dt/du) / (t - z),

with h_lambda(z) = ((a - z)/(-a - z))^{i xi}: on a symmetric interval the
weight term of h_lambda's exponent and the constant of the data's phase
are 0.  Q decays like e^{-|u|}, and ``mpmath.quad`` takes the integral
at 30 digits over the whole line, split at +-5 and +-20.

The module does not import ``patil``: it is an independent reference
for the library's default (residue) path, whose other cross-check,
``method="u"``, integrates the same Q in double precision.  It takes a
point z with Im z > 0 or a real z outside [-a, a].
"""

import mpmath

DPS = 30


def approximant(z, lam, a=1.0):
    """g_lambda(z) of ``example1`` on (-a, a), as a Python complex."""
    with mpmath.workdps(DPS):
        z, lam, a = mpmath.mpc(z), mpmath.mpf(lam), mpmath.mpf(a)
        if z.imag < 0 or z.imag == 0 and abs(z.real) <= a:
            raise ValueError(f"need Im z > 0 or a real z outside [-a, a], got {z}")
        xi = mpmath.log1p(lam) / (2 * mpmath.pi)

        def integrand(u):
            t = a * mpmath.tanh(u / 2)
            data = a * mpmath.sech(u / 2) - 1j * t
            return mpmath.expj(xi * u) * data * (a / 2) * mpmath.sech(u / 2) ** 2 \
                / (t - z)

        integral = mpmath.quad(integrand, [-mpmath.inf, -20, -5, 5, 20, mpmath.inf])
        # a real z outside [-a, a] gives (a - z)/(-a - z) > 0: its limit from above
        h = mpmath.exp(1j * xi * mpmath.log((a - z) / (-a - z)))
        return complex(lam * h / (2j * mpmath.pi * mpmath.sqrt(1 + lam)) * integral)
