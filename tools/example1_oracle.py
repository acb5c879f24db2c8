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

Q has one pole u0 in the strip -pi < Im u < pi, where t(u0) = z, with
0 <= Im u0 <= pi.  A real x inside (-a, a) gets the limit from above:
its pole v = ln((x + a)/(a - x)) lies on the real line, as the limit of
poles above it, and h_lambda takes log((x - a)/(x + a)) = ln|.| + i pi.
So the path dips DIP below the line on [v - 1, v + 1], v = Re u0, for
every z, which also keeps it off the pole of a z just above the line;
the split points inside that span are dropped.

The module does not import ``patil``: it is an independent reference
for the library's default (residue) path.  It takes a point z with
Im z > 0 or a real z other than -a and a.
"""

import functools

import mpmath

DPS = 30
DIP = 0.5  # how far the path passes below Q's pole u0


def approximant(z, lam, a=1.0):
    """g_lambda(z) of ``example1`` on (-a, a), as a Python complex."""
    return approximants(z, [lam], a)[0]


def approximants(z, lams, a=1.0):
    """g_lambda(z) of ``example1`` on (-a, a) for each lambda of ``lams``, as
    a list of Python complex.  Q is evaluated once per quadrature node and
    only e^{i xi u} once per lambda: the integrals share the nodes."""
    with mpmath.workdps(DPS):
        z, a = mpmath.mpc(z), mpmath.mpf(a)
        if z.imag < 0 or z.imag == 0 and abs(z.real) == a:
            raise ValueError(f"need Im z > 0 or a real z other than -a and a, got {z}")

        @functools.cache
        def q(u):
            t = a * mpmath.tanh(u / 2)
            data = a * mpmath.sech(u / 2) - 1j * t
            return data * (a / 2) * mpmath.sech(u / 2) ** 2 / (t - z)

        v = mpmath.log(abs((z + a) / (a - z)))  # Re u0
        splits = [-mpmath.inf, -20, -5, 5, 20, mpmath.inf]
        splits = ([s for s in splits if s < v - 1]
                  + [v - 1, v - 1 - 1j * DIP, v + 1 - 1j * DIP, v + 1]
                  + [s for s in splits if s > v + 1])
        ratio = (a - z) / (-a - z)
        if z.imag == 0 and abs(z.real) < a:
            # the limit from above of log((x - a)/(x + a))
            log_ratio = mpmath.log(-ratio.real) + 1j * mpmath.pi
        else:
            # a real z outside [-a, a] gives a ratio > 0: its limit from above
            log_ratio = mpmath.log(ratio)
        values = []
        for lam in lams:
            lam = mpmath.mpf(lam)
            xi = mpmath.log1p(lam) / (2 * mpmath.pi)
            integral = mpmath.quad(lambda u: mpmath.expj(xi * u) * q(u), splits)
            h = mpmath.exp(1j * xi * log_ratio)
            values.append(complex(lam * h / (2j * mpmath.pi * mpmath.sqrt(1 + lam))
                                  * integral))
        return values
