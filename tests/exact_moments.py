"""Reference radial moments 2 int_0^R r^(2p+1) a^m g dr, computed with mpmath.

With a = p + 1 the moment is gamma(a, x) / m^a (rho = 0, x = m R^2) or
c^a B(y; a, b) (c = 2/|rho|; y = |rho| R^2 / 2, b = 2m/|rho| - 1 for
rho < 0; y = u / (1 + u), u = rho R^2 / 2, b = 2m/rho + 1 - p for rho > 0).
Where b > 0 and Q <= 1/2 it is the finite complement P (1 - Q), exact and
free of cancellation there; mpmath's betainc does not converge at large b y
(rho = -10, m = 1e8, R = 0.1).  Elsewhere it is mpmath's gammainc or
betainc.  Both are evaluated at 60 digits from the exact float inputs, plus
|log10(|rho| R^2)| digits: those that 1 - y cancels at tiny |rho| R^2, and at
huge |rho| R^2 those that keep y = u/(1 + u) below 1 (at 60 digits it rounds
to 1 above u of about 1e60, and betainc returns inf on b <= 0 rows).  P takes
(b)_a as a plain product: mpmath's rf returns 1.0 at 60 digits for b above
about 1e125.
"""

import mpmath
from mpmath import mpf


def exact_moment(rho, m, p, radius):
    a = p + 1
    y_digits = 0 if rho == 0 else abs(int(mpmath.log10(abs(mpf(rho)) * mpf(radius) ** 2)))
    with mpmath.workdps(60 + y_digits):
        r2 = mpf(radius) ** 2
        if rho == 0:
            x = m * r2
            q = mpmath.exp(-x) * mpmath.fsum(x**k / mpmath.factorial(k) for k in range(a))
            if q <= 0.5:
                return mpmath.factorial(p) / mpf(m) ** a * (1 - q)
            return mpmath.gammainc(a, 0, x) / mpf(m) ** a
        sig = abs(mpf(rho))
        c = 2 / sig
        w = mpf(rho) * r2 / 2
        b = 2 * m / sig + (-1 if rho < 0 else 1 - p)
        y, lo = (-w, 1 + w) if rho < 0 else (w / (1 + w), 1 / (1 + w))
        if b > 0:
            term = total = mpf(1)
            for j in range(1, a):
                term *= (b + j - 1) * y / j
                total += term
            q = lo**b * total
            if q <= 0.5:
                return c**a * mpmath.factorial(p) / mpmath.fprod(b + k for k in range(a)) * (1 - q)
        return c**a * mpmath.betainc(a, b, 0, y)
