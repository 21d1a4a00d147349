"""Radial moments of the model in closed form, with proven error bounds.

Angular integrals are done analytically (2 pi delta_{alpha beta} under
(i/2pi) dz ^ dzbar), leaving lambda_p^-2 = 2 int_0^R r^(2p+1) a^m g dr.  With
a = p + 1 this is gamma(a, x) / m^a for rho = 0, x = m R^2, and c^a B(y; a, b)
for rho != 0, c = 2/|rho|, with y = |rho| R^2 / 2, b = 2m/|rho| - 1 for
rho < 0 and y = u/(1+u), u = rho R^2 / 2, b = 2m/rho + 1 - p for rho > 0
(DLMF 8.4, 8.17).  From the exact integers n/d = |rho|, formed once by
ModelGeometry, lambda_inv_sq forms top = n b and picks the route; both sum
positive terms:

* complement, where top > 0 and Q <= 1/2, in floating point: P (1 - Q) with
  P = p!/m^a or c^a p!/(b)_a exact and Q = e^-x sum_{k<=p} x^k/k! or
  (1-y)^b sum_{j<=p} (b)_j y^j/j!, taking 1 - Q as -expm1(log Q) and the
  boundary factor from the geometry, m log a(R) + log g(R)/2 (+ p log(1+u)),
  all three logs read from one log_conformal_factor; Q's sum stops once its
  terms round away, and P's integers wait for Q <= 1/2, its powers of two
  (2d)^a and the denominator of 1 - Q joined in one shift before the one rounding;
* lower series (DLMF 8.5.1, 8.17.8) elsewhere, in 50-digit decimals from the
  exact rational c y = R^2/(1+max(u, 0)), y = (n/2d) c y and x = b z,
  z = min(y, 1 - h), h = min(1/2, 8/a): (c z)^a (1-z)^b/a sum_n t_n, t_0 = 1,
  t_n = t_{n-1} (x + (a + n - 1) z) / (a + n), with log(1-z) carried to the
  digits that 1 - z cancels at tiny z.  Beyond y = 1 - h it adds the finite
  binomial expansion of (1-s)^p over [1-y, h] (a log term at b + k = 0),
  whose alternating sum loses at most ((1+h)/(1-h))^p <= e^32 of the 50 digits.

rho = 0 is b = infinity in both routes: at fixed x = b y, c^a B(y; a, b) tends
to gamma(a, x) / m^a as b grows (DLMF 8.17, 8.2).  From b = 2^1022 on, each
factor (b + j - 1) y / j of Q's sum is b y / j to within a relative (j - 1)/b <
p 2^-1022, far below 2^-53, so the complement sums x^j/j! at x = b y in floats
(m R^2 at rho = 0, where P = p!/m^a).  The lower series takes z = y = 0 there,
c z = c y = R^2 and (1 - z)^b = e^-x, and is reached only where Q > 1/2, which
takes x below about p + 1 (Q is then a Poisson distribution function of mean x,
whose median is above x - log 2).  Its ratio (x + (a + n - 1) z) / (a + n) is
then below 1 from the first term: no growing terms precede its tail bound.

Q's sum is held as s 2^scale with s >= 1/2, renormalized into [1/2, 1) as
frexp would at every term only where s reaches 2^64, and once after the loop.
It stops at p or at the first term t with s + t == s, and returns what a loop
renormalizing every term and running to p returns, by three facts (u = 2^-53):

* exact scalings, up to the stop: at the start of each step its s and t are
  those of that loop times one 2^k, 0 <= k <= 64, so s + t, the test s + t ==
  s and t times a ratio come out the same times 2^k while that loop's t is
  normal: before the stop t >= ulp(s)/2 >= 2^-55 there (s >= 1/2), and a
  product below 2^-1022 there is below ulp(s)/2 in both loops, and stops both;
* no overflow: each product starts from t <= s < 2^64 and a finite ratio: y <= 1
  below b = 2^1022, and from there x = fl(top/2d) (R R) / (1 + u) is at most the
  m max(|rho|, 1) (R R) that lambda_inv_sq's gate holds to a double, since at p
  >= 1, or at rho <= 0, top/2d <= m, so fl(top/2d) <= float(m); at p = 0 the
  loop never reads x; 1 + u >= 1; and max(|rho|, 1) >= 1.  At rho = 0 or b >= 1
  the ratios x/j or (b + j - 1) y / j never increase (to within rounding), so a
  ratio above 2^960 at step j > 1 follows one at step j - 1, whose term, at
  least 2^959/j with the terms growing from t = s = 1, took s past 2^64 and
  forced a renormalization to t < 1; where b < 1 every ratio is below y <= 1;
* the stop returns the full loop's s: up to the largest term the terms grow,
  so t >= s/(j + 1) > ulp(s)/2 while j < 2^52 (any p whose p! can be formed).
  Past it no computed ratio exceeds 1: at b = infinity fl(z/j) <= 1 once j >=
  z; where b < 1 each rounding of (b + j - 1.0) z / j stays at or below 1;
  where b >= 1 a computed ratio above 1 needs an exact ratio above 1 - 3u, as
  then are all before it, which holds t within (1 - 6u)^j of the largest term,
  above ulp(s)/2.  So every term after the first that rounds away does too.

abs_err is a proven bound: Higham's gamma_n = n u / (1 - n u), u = 2^-53
(gamma_(5p+2) formed in _complement), over the float roundings done (exp, log,
log1p, expm1 within one ulp; past the largest double, a proof in _complement
that Q vanishes settles log Q's bound), or 10^-49 per decimal rounding against
the magnitudes summed plus the series tail bounded geometrically, then the
rounding to a double (2^-1075 more below the normal range).
"""

from __future__ import annotations

import decimal
import itertools
import math
import sys
from collections import namedtuple
from decimal import Decimal
from fractions import Fraction

from .geometry import U, ModelGeometry, log_conformal_factor, log_metric_density
# Only the benchmark tracer (bench/spans.py) reads this name: it wraps it here.
from .geometry import log_bundle_weight  # noqa: F401

__all__ = [
    "RadialMoment",
    "lambda_inv_sq",
    "lambda0_closed_form",
    "lambda0_log_tail",
    "lambda0_tail",
    "truncation_radius",
]

TINY = 2.0**-1074  # covers the absolute error of two roundings below the normal range
DBL_MIN = sys.float_info.min  # smallest normal double
DBL_MAX = sys.float_info.max
LN2 = math.log(2.0)
DEC = decimal.Context(prec=50, Emin=-(10**9), Emax=10**9)
UD = Decimal("1e-49")  # relative error of one DEC operation, rounded up from half an ulp
SERIES_TOL = Decimal("1e-20")  # the lower series stops when its tail bound is below this share


RadialMoment = namedtuple("RadialMoment", "value abs_err")


def truncation_radius(m: int) -> float:
    """The peak-section truncation radius log(m)/sqrt(m); m past the doubles raises ValueError."""
    try:  # sqrt(m) raises OverflowError where m passes the largest double
        return math.log(m) / math.sqrt(m)
    except OverflowError:
        raise ValueError(f"m={m} exceeds the double range") from None


G2, G4, G6, G7, G8 = (n * U / (1.0 - n * U) for n in (2, 4, 6, 7, 8))  # Higham's gamma_n


def _complement(geom: ModelGeometry, m: int, p: int, radius: float,
                top: int) -> RadialMoment | None:
    """P (1 - Q) and its bound in floats, or None where Q > 1/2; top = n b > 0, n/d = |rho|."""
    n, d = geom.n, geom.d
    w, log1p_w, log_a = log_conformal_factor(geom, radius)
    abs_w, u = abs(w), w if w > 0.0 else 0.0  # u, or 0 where rho <= 0
    m_log_a, half_log_g, p_log1p_u = m * log_a, -log1p_w, p * log1p_w if log1p_w > 0.0 else 0.0
    b = top / n if top >> 1022 < n else None
    z = (abs_w if b is not None else top / (2 * d) * (radius * radius)) / (1.0 + u)  # y or b y
    base = math.fsum((m_log_a, half_log_g, p_log1p_u))
    t, s, scale = 1.0, 1.0, 0
    j = 0.0  # a float: below 2^53, b + j - 1.0 and z / j round as with an int j
    for _ in range(p):
        j += 1.0
        t *= z / j if b is None else (b + j - 1.0) * z / j
        if s + t == s:  # so do all later terms (module docstring)
            break
        s += t
        if s >= 2.0**64:
            s, e = math.frexp(s)
            t, scale = math.ldexp(t, -e), scale + e
    s, e = math.frexp(s)
    log_s = math.log(s) + (scale + e) * LN2
    log_q = base + log_s
    if log_q > -LN2:
        return None
    # log Q: the boundary log; log(1 + w) moved by the rounding of w (or of the exact
    # 1 + w near the disk's edge), times (2m/|rho| + 1 + p) min(|w|, 1) = (m R^2 +
    # (1 + p) |w|) / max(|w|, 1); the sum at arguments perturbed within gamma_7 by
    # the roundings of b, or of x and each factor's (j - 1)/b, its log by p times
    # that; its 5p + 2 roundings; the rest.  w_err sums quarters, whose sum stays below
    # 0.63 DBL_MAX where the whole can overflow (m max(|rho|, 1) (R R) <= DBL_MAX, 1 + p <
    # 2m/rho + 2 at rho > 0); quartering is exact or w_err < 2^-1020 is lost in log_err.
    w_err = 8.0 * G2 * (0.25 * m * (radius * radius) + 0.25 * (1 + p) * abs_w) / (
        abs_w if abs_w > 1.0 else 1.0)
    g = (5 * p + 2) * U  # gamma_(5p+2) = g / (1 - g), rounded as G2 to G8 are
    log_err = (
        G6 * (math.fsum((abs(m_log_a), abs(half_log_g), p_log1p_u)) + abs(log_s) + abs(log_q))
        + w_err + p * G7 + g / (1.0 - g)
    )
    if log_err > DBL_MAX:
        # The G6 sum, below 2.01 (|m log a| + rest), passed the largest double and w_err
        # < 2^-49 DBL_MAX did not, so -lead = min(-m log a, DBL_MAX) > DBL_MAX/2.01 - rest,
        # where rest = |log g|/2 + p log(1 + u) + |log s| + w_err + p gamma_7 + gamma_(5p+2)
        # < 1420 (p + 2) + 2^-49 DBL_MAX (Q's sum >= 1, its term ratios doubles): 8 rest <
        # -lead below p = 10^300.  m log a is off by G6 of itself plus w_err, the others by
        # their size plus their bounds: log Q <= lead/2 + 3 rest < lead/8 < -746, q_hi = 0.
        log_err = 0.0
    q_hi = math.exp(log_q + log_err)
    rel = q_hi / (1.0 - q_hi) * log_err + G2  # of 1 - Q, with expm1's rounding
    qn, qd = (-math.expm1(log_q)).as_integer_ratio()
    num = math.factorial(p) * qn
    den = _rising_product(top, n, p + 1)  # top + n k for k < a
    # (2d)^a / qd, d and qd being powers of two, as one shift
    shift = (p + 1) * d.bit_length() - qd.bit_length() + 1
    # P is exact, so this is the one rounding
    value = (num << shift) / den if shift >= 0 else num / (den << -shift)
    # tuple.__new__ is the C constructor that the namedtuple's Python __new__ calls
    return tuple.__new__(RadialMoment, (value, value * (rel + U) * (1.0 + rel) * (1.0 + G8) + TINY))


def _rising_product(top: int, n: int, count: int) -> int:
    """top (top + n) ... (top + n (count - 1)), exactly.

    A loop takes one factor at a time, quadratic in the product's size; above
    32 factors the two halves are formed first, so the large products are
    balanced and CPython multiplies them by Karatsuba.  1531 factors of 1050
    bits took 1.16 s one at a time and take 0.16 s so (2-core Intel Xeon).
    """
    if count <= 32:
        product = factor = top
        for _ in range(count - 1):
            factor += n
            product *= factor
        return product
    half = count // 2
    return _rising_product(top, n, half) * _rising_product(top + n * half, n, count - half)


def _dec(q: Fraction) -> Decimal:
    return Decimal(q.numerator) / q.denominator


def _log(q: Fraction) -> Decimal:
    """log q for rational 0 < q < 1, within UD |log q|.

    Below 1 - q = 10^-50 it is -(1 - q), rounded once (UD/2): log(1 - g) =
    -g (1 + g/2 + ...) is within a relative g/2 < UD/2 of -g.  Above, with
    1 - q >= 10^-k, k digits more than DEC's keep the rounding of q, which
    moves log q by under 10^-(49+k) / 2, below UD |log q| / 2 since |log q|
    >= 1 - q; ln rounds correctly.
    """
    gap = 1 - q
    k = (gap.denominator.bit_length() - gap.numerator.bit_length() + 1) * 30103 // 100000 + 1
    with decimal.localcontext(DEC) as ctx:
        if gap * 10**50 < 1:
            return -_dec(gap)
        ctx.prec += k
        return (Decimal(q.numerator) / q.denominator).ln()


def _lower_series(a: int, x: Decimal, z: Decimal) -> tuple[Decimal, int, Decimal]:
    """sum_n (a+b)_n z^n / (a+1)_n at x = b z (sum_n x^n / (a+1)_n at z = 0), terms, tail bound.

    The ratio (x + (a + n - 1) z) / (a + n) moves monotonically to z, so later
    ratios are at most q = max(next ratio, z) and the tail after term t is at
    most t q / (1 - q).
    """
    t = s = Decimal(1)
    for n in itertools.count(1):
        ratio = (x + (a + n - 1) * z) / (a + n)
        q = max(ratio, z)
        if q < 1 and t * q / (1 - q) <= SERIES_TOL * s:
            return s, n, t * q / (1 - q)
        t *= ratio
        s += t


def _binomial_piece(p: int, b: Fraction, lo: Fraction, h: Fraction) -> tuple[Decimal, Decimal]:
    """int_lo^h (1-s)^p s^(b-1) ds = sum_k (-1)^k C(p,k) int_lo^h s^(b+k-1) ds, and its bound.

    The bound weighs each term's magnitude before cancellation by its
    roundings, the logs that amplify those of b, lo and h, and c^a's.
    """
    hd, lod = _dec(h), _dec(lo)
    log_h, log_lo = hd.ln(), lod.ln()
    hk, lk = hd ** _dec(b), lod ** _dec(b)  # h^(b+k), lo^(b+k)
    total = magnitude = Decimal(0)
    for k in range(p + 1):
        if b + k == 0:
            term, size = log_h - log_lo, abs(log_h) + abs(log_lo)
        else:
            e = _dec(b + k)
            term, size = (hk - lk) / e, (hk + lk) / abs(e)
        c = math.comb(p, k)
        total += (-c if k % 2 else c) * term
        magnitude += c * size
        hk, lk = hk * hd, lk * lod
    weight = 5 * p + 24 + _dec(abs(b) + p) * (1 + abs(log_h) + abs(log_lo))
    return total, UD * weight * magnitude


def _series(geom: ModelGeometry, p: int, radius: float, top: int) -> RadialMoment:
    """Lower series, and beyond 1 - h the binomial piece, in decimals; top = n b, n/d = |rho|."""
    n, d = geom.n, geom.d
    a = p + 1
    r2 = Fraction(radius) ** 2
    cy = r2 / (1 + max(Fraction(geom.rho), 0) * r2 / 2)  # c y = R^2 / (1 + u)
    y = n * cy / (2 * d)
    h = min(Fraction(1, 2), Fraction(8, a))
    z = min(y, 1 - h)
    cz = cy if z == y else 2 * d * z / n  # c z; z < y only where n > 0
    x = top * cz / (2 * d)  # b z, m R^2 at rho = 0
    with decimal.localcontext(DEC):
        xd = _dec(x)
        # b log(1 - z), whose b, log and product round by UD each; -x, rounded once, at b = inf
        log_boundary, roundings = (_dec(Fraction(top, n)) * _log(1 - z), 4) if n else (-xd, 1)
        s, terms, tail = _lower_series(a, xd, _dec(z))
        scale = _dec(cz) ** a * log_boundary.exp() / a  # c^a z^a (1-z)^b / a, or R^2a e^-x / a
        exact = scale * s
        # the roundings in the sum and in c z, z, 1 - z, b, amplified by the powers
        err = UD * (8 * terms + 20 + 2 * a + roundings * abs(log_boundary)) * exact + scale * tail
        if z != y:
            c_a = _dec(Fraction(2 * d, n)) ** a
            piece, piece_err = _binomial_piece(p, Fraction(top, n), 1 - y, h)
            exact += c_a * piece
            err += c_a * piece_err + UD * exact
    num, den = exact.as_integer_ratio()
    value = num / den  # correctly rounded
    # tuple.__new__ is the C constructor that the namedtuple's Python __new__ calls
    return tuple.__new__(RadialMoment, (value, (U * value + float(err)) * (1.0 + G4) + TINY))


def lambda_inv_sq(geom: ModelGeometry, m: int, p: int, radius: float) -> RadialMoment:
    """2 * integral_0^R r^(2p+1) a(r)^m g(r) dr in closed form.

    The complement route where top = n b > 0 and Q <= 1/2, else the lower series
    (module docstring); each returns the RadialMoment, whose abs_err is a proven
    bound on |value - exact|.  An m or a moment beyond the largest double raises ValueError.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    if p < 0:
        raise ValueError("p must be nonnegative")
    if not 0.0 < radius < geom.max_radius:
        raise ValueError(f"radius {radius!r} outside (0, {geom.max_radius!r})")
    size = abs(geom.rho)  # m max(|rho|, 1) (R R), R R first as the routes take it, bounds x and u
    top = 2 * m * geom.d + geom.n * (-1 if geom.rho < 0 else 1 - p)  # |rho| b d, an exact integer
    try:  # the gate's m * ... raises OverflowError where m passes the largest double
        if not math.isfinite(m * (size if size > 1.0 else 1.0) * (radius * radius)):
            raise ValueError(f"radius {radius!r} too large for m={m} at rho={geom.rho!r}")
        return top > 0 and _complement(geom, m, p, radius, top) or _series(geom, p, radius, top)
    except OverflowError:
        raise ValueError(
            f"moment at m={m}, p={p}, radius={radius!r} exceeds the double range"
        ) from None


def lambda0_log_tail(geom: ModelGeometry, m: int) -> float:
    """log of lambda0_tail: (-1 - 2m/rho) log1p(x), x = rho (log m)^2 / 2m, or -(log m)^2.

    Where x is below the normal range or 2m/rho overflows, it is -(log m)^2,
    to within a relative O(x).  An m past the largest double raises ValueError.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    log_m = math.log(m)
    rho = geom.rho
    try:  # / m raises OverflowError where m passes the largest double
        x = 0.5 * rho * log_m * log_m / m
    except OverflowError:
        raise ValueError(f"m={m} exceeds the double range") from None
    # truncation_radius(m) < R, from the log at hand; the disk is the plane at rho >= 0
    if rho < 0 and not log_m / math.sqrt(m) < geom.max_radius:
        raise ValueError(
            f"m={m} is too small for rho={rho!r}: the truncation disk leaves the model disk "
            f"of radius {geom.max_radius!r}"
        )
    if math.isinf(x):  # rho (log m)^2 / 2 passed the largest double before the division
        x = 0.5 * rho / m * log_m * log_m
    if abs(x) < DBL_MIN or not math.isfinite(2.0 * m / rho):  # rho = 0 stops at x
        return -log_m * log_m
    if not x > -1.0:  # x rounded past log1p's pole: log(1 + w) at R, 1 + w formed exactly
        return (-1.0 - 2.0 * m / rho) * -0.5 * log_metric_density(geom, truncation_radius(m))
    return (-1.0 - 2.0 * m / rho) * math.log1p(x)


def lambda0_tail(geom: ModelGeometry, m: int) -> float:
    """The exact relative gap 1 - (closed-form moment) * (m + rho/2).

    This is (1 + rho (log m)^2 / 2m)^(-1 - 2m/rho) for rho != 0 and
    e^(-(log m)^2) for rho = 0, the exp of lambda0_log_tail.  It is far below
    machine epsilon for large m, so it is exposed directly instead of being
    recovered by subtraction.
    """
    return math.exp(lambda0_log_tail(geom, m))


def lambda0_closed_form(geom: ModelGeometry, m: int) -> float:
    """Closed form of the degree-0 moment over the truncation disk.

    Equals (1 - (1 + rho (log m)^2 / 2m)^(-1 - 2m/rho)) / (m + rho/2) for
    rho != 0 and (1 - e^(-(log m)^2)) / m for rho = 0.
    """
    return (1.0 - lambda0_tail(geom, m)) / (m + 0.5 * geom.rho)
