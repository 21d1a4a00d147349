import json
import math
import random
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bergmanlab import density, quadrature
from bergmanlab.density import (
    CSV_HEADER,
    OUTWARD_STEPS,
    DensityReport,
    SweepResult,
    cp1_density,
    density_estimate,
    remainder_envelope,
    remainder_sweep,
    sweep_to_csv,
    sweep_to_json,
)
from bergmanlab.geometry import ModelGeometry
from bergmanlab.gram import assemble_truncated_gram, schur_i00
from bergmanlab.quadrature import lambda0_log_tail, lambda0_tail, truncation_radius

DATA = Path(__file__).parent / "data"
MAX_M = int(sys.float_info.max)


def test_density_estimate_flat():
    m = 10**4
    rep = density_estimate(ModelGeometry(0.0), m, 0.0)
    log_m = math.log(m)
    expected = m / (1.0 - math.exp(-log_m**2))
    assert rep.density == pytest.approx(expected, rel=1e-14)
    assert rep.reference == m
    assert abs(rep.remainder) <= 2.0 * m * math.exp(-log_m**2)
    assert rep.lo <= rep.density <= rep.hi


def test_density_estimate_returns_a_density_report():
    # built with tuple.__new__, which skips the namedtuple's arity check
    rep = density_estimate(ModelGeometry(-0.7), 1000, 1.0)
    assert type(rep) is DensityReport and len(rep) == len(DensityReport._fields) == 8
    assert rep == (rep.m, rep.rho, rep.density, rep.lo, rep.hi, rep.reference, rep.remainder,
                   rep.budget_c)


def test_tail_refused_exactly_where_the_truncation_disk_leaves_the_model_disk():
    # rho within 6 ulps of -2m/(log m)^2, where x = rho (log m)^2 / 2m rounds
    # near -1: wherever R = log m / sqrt m is inside the disk the tail is
    # taken and the density interval holds m + rho/2; elsewhere it is refused
    rng = random.Random(20)
    for _ in range(3000):
        m = rng.randint(10, 10**6)
        rho = -2.0 * m / math.log(m) ** 2
        steps = rng.randint(-6, 6)
        for _ in range(abs(steps)):
            rho = math.nextafter(rho, math.copysign(math.inf, steps))
        geom = ModelGeometry(rho)
        if truncation_radius(m) < geom.max_radius:
            rep = density_estimate(geom, m, 0.0)
            assert rep.lo <= m + Fraction(rho) / 2 <= rep.hi, (m, rho)
        else:
            with pytest.raises(ValueError, match="too small"):
                lambda0_log_tail(geom, m)


def test_density_estimate_references():
    assert density_estimate(ModelGeometry(2.0), 10**3, 0.0).reference == 1001.0
    assert density_estimate(ModelGeometry(-2.0), 10**2, 0.0).reference == 99.0
    assert density_estimate(ModelGeometry(2.0), 10, 0.0).reference == 11.0
    assert density_estimate(ModelGeometry(0.0), 10, 0.0).reference == 10.0


def test_density_estimate_validation():
    with pytest.raises(ValueError):
        density_estimate(ModelGeometry(0.0), 5, 0.0)


def test_density_interval_contains_budget_effect():
    rep0 = density_estimate(ModelGeometry(-2.0), 100, 0.0)
    rep1 = density_estimate(ModelGeometry(-2.0), 100, 1.0)
    assert rep1.hi - rep1.lo > rep0.hi - rep0.lo
    assert rep1.budget_c == 1.0


@pytest.mark.parametrize("rho", [-2.0, -1.0, 0.0])
def test_remainder_tail_envelope(rho):
    # with zero budget the remainder is exactly the normalization tail
    for m in (10, 100, 10_000):
        rep = density_estimate(ModelGeometry(rho), m, 0.0)
        assert abs(rep.remainder) <= 2.0 * m * math.exp(-math.log(m) ** 2)


def test_remainder_tail_envelope_positive_curvature():
    # for rho > 0 the tail carries an extra exp(rho (log m)^4 / (4m)) factor
    rho = 2.0
    for m in (10, 100, 1000, 10_000):
        rep = density_estimate(ModelGeometry(rho), m, 0.0)
        log_m = math.log(m)
        bound = 2.0 * m * math.exp(-log_m**2 + rho * log_m**4 / (4.0 * m))
        assert abs(rep.remainder) <= bound


@pytest.mark.parametrize("rho", [-2.0, 0.0, 2.0])
def test_remainder_within_expansion_envelope(rho):
    for m in (10, 30, 100, 1000):
        rep = density_estimate(ModelGeometry(rho), m, 0.0)
        assert abs(rep.remainder) <= remainder_envelope(m)


def test_cp1_two_sections():
    assert cp1_density(1, 0j) == pytest.approx(2.0, rel=1e-14)


U = 2.0**-53


def cp1_bound(m, z):
    """cp1_density's relative error bound (3 sigma + 14) u + 2^-64."""
    r = abs(z)
    s = min(r, 1.0 / r) ** 2 if r else 0.0
    sigma = math.sqrt(m * s) / (1.0 + s)
    return (3.0 * sigma + 14.0) * U + 2.0**-64


def cp1_rel_err(m, value):
    return float(abs(Fraction(value) - (m + 1)) / (m + 1))


def mp_cp1_sum(m, z):
    """The oracle's terms (m + 1) C(m, k) s^k / (1 + s)^m summed in mpmath at 40 digits.

    All m + 1 terms up to m = 1000; above, k within 20 sigma + 20 of the
    mode, whose sum the caller checks against m + 1 to 30 digits.
    """
    with mpmath.workdps(40):
        s = mpmath.mpf(abs(z)) ** 2
        p, q = s / (1 + s), 1 / (1 + s)
        sigma = math.sqrt(m * float(p * q))
        mode = int(mpmath.floor((m + 1) * p))
        lo, hi = (0, m) if m <= 1000 else (max(0, mode - int(20 * sigma) - 20),
                                          min(m, mode + int(20 * sigma) + 20))
        term = (m + 1) * mpmath.binomial(m, lo) * p**lo * q ** (m - lo)
        total = term
        for k in range(lo, hi):
            term *= s * (m - k) / (k + 1)
            total += term
        return total


def test_cp1_matches_mpmath_sum():
    # also where the window meets k = 0 (|z| = 1e-160, 1e-3) or k = m (|z| = 30, 1e10)
    rng = random.Random(0)
    edges = [complex(0.6 * r, 0.8 * r) for r in (1e-160, 1e-3, 30.0, 1e10)]
    for m in list(range(1, 65)) + [1000, 12345, 10**5, 10**6]:
        zs = [0j] + (edges if m < 10**6 else [])
        for _ in range(8 if m <= 1000 else 2 if m < 10**6 else 1):
            r, theta = rng.uniform(0.0, 3.0), rng.uniform(0.0, 2.0 * math.pi)
            zs.append(complex(r * math.cos(theta), r * math.sin(theta)))
        for z in zs:
            exact = mp_cp1_sum(m, z)
            assert abs(exact - (m + 1)) <= 1e-30 * (m + 1), (m, z)
            value = cp1_density(m, z)
            assert abs(value - exact) <= cp1_bound(m, z) * exact, (m, z)


def cp1_window(m, z, monkeypatch):
    """The walk's arguments (m, s, k0, term, j) for cp1_density(m, z)."""
    seen = []
    with monkeypatch.context() as patch:
        patch.setattr(density, "_cp1_walk", lambda *args: seen.append(args) or [1.0])
        cp1_density(m, z)
    return seen[0]


def test_cp1_window_is_narrow(monkeypatch):
    # the full sum at m = 1e6 would take 1_000_001 terms; the window is 2j + 1 = 8_797
    m, z = 10**6, 1.5 + 0j
    _, _, k0, _, j = cp1_window(m, z, monkeypatch)
    summed = 0

    class CountingMath:
        def __getattr__(self, name):
            return getattr(math, name)

        def fsum(self, terms):
            nonlocal summed
            terms = list(terms)
            summed += len(terms)
            return math.fsum(terms)

    monkeypatch.setattr(density, "math", CountingMath())
    assert cp1_density(m, z) == pytest.approx(10**6 + 1.0, rel=1e-12)
    assert summed == min(j, m - k0) + min(j, k0) + 1 == 8_797
    assert summed < 12_000


def mp_binomial_tail(m, p, k, step):
    """P(X >= k) at step 1 or P(X <= k) at step -1, X ~ Binomial(m, p), at the working precision.

    Summed from k outward.  k lies beyond the mean on that side, so each ratio of
    neighbouring terms is below the one before, and the sum stops once the
    geometric series at the current ratio puts what is left below eps of it.
    """
    term = mpmath.binomial(m, k) * p**k * (1 - p) ** (m - k)
    total = mpmath.mpf(0)
    while term:
        total += term
        if step > 0:
            ratio = (m - k) * p / ((k + 1) * (1 - p))
        else:
            ratio = k * (1 - p) / ((m - k + 1) * p)
        if ratio * term < (1 - ratio) * mpmath.eps * total:
            break
        term *= ratio
        k += step
    return total


@pytest.mark.parametrize("r", [0.0, 1e-160, 1e-3, 0.5, 1.0, 1.5, 3.0, 30.0])
def test_cp1_window_cuts_below_2_to_the_minus_65_each_side(r, monkeypatch):
    # the walk sums exactly the window k0 +- j within 0..m, and the Binomial(m, p)
    # mass beyond each side is at most 2^-65 at 40 digits; up to m = 1000 the sums
    # match the regularized incomplete beta, P(X >= k) = I_p(k, m - k + 1) and
    # P(X <= k) = I_q(m - k, k + 1), whose mpmath series cancels past its
    # precision limit from m = 1e5 on
    for m in list(range(1, 65)) + [1000, 10**5, 10**6]:
        args = cp1_window(m, complex(r, 0.0), monkeypatch)
        _, s, k0, _, j = args
        assert sum(1 for _ in density._cp1_walk(*args)) == min(j, m - k0) + min(j, k0) + 1
        with mpmath.workdps(40):
            p = mpmath.mpf(s) / (1 + mpmath.mpf(s))
            for k, step in [(k0 + j + 1, 1), (k0 - j - 1, -1)]:
                if not 0 <= k <= m:
                    continue
                mass = mp_binomial_tail(m, p, k, step)
                if m <= 1000:
                    a, b, x = (k, m - k + 1, p) if step > 0 else (m - k, k + 1, 1 - p)
                    exact = mpmath.betainc(a, b, 0, x, regularized=True)
                    assert abs(mass - exact) <= 1e-30 * exact, (m, r, k)
                assert mass <= mpmath.mpf(2) ** -65, (m, r, k, mass)


def test_stirlerr_matches_mpmath():
    with mpmath.workdps(50):
        for n in list(range(1, 16)) + [16, 20, 100, 1000]:
            log_stirling = (n + 0.5) * mpmath.log(n) - n + mpmath.log(2 * mpmath.pi) / 2
            exact = mpmath.loggamma(n + 1) - log_stirling
            value = density._stirlerr(n)
            assert abs(value - exact) <= 1.5 * math.ulp(value), n


@pytest.mark.parametrize(
    "x, d",
    [(1, 0.5), (1, -3.0), (2, 1.9), (2, 0.5), (5, -40.0),  # |d| >= (x + M) / 10: closed form
     (7, 0.25), (10, 0.3), (1000, -0.999), (12345, 1e-9), (10**6, 0.7), (10**15, -0.5)],
)
def test_bd0_matches_mpmath(x, d):
    with mpmath.workdps(50):
        big_m = x - mpmath.mpf(d)
        x_log = x * mpmath.log(x / big_m)
        exact = x_log + big_m - x
    if abs(d) >= 0.1 * (x + big_m):
        # the closed form x log(x/M) - d cancels; its rounding is relative to the two terms
        tol = 4 * U * (abs(x_log) + abs(d))
    else:
        tol = 4 * U * exact
    assert abs(density._bd0(x, d) - exact) <= tol, (x, d)


# Earlier forms of the oracle's kernels, kept as references: the written-out
# loops must give their bits exactly.
def zip_walk(m, s, k0, term, j):
    """_cp1_walk with each ratio's numerator and denominator in ranges of their own."""
    yield term
    up, down = min(j, m - k0), min(j, k0)
    t = term
    for num, den in zip(range(m - k0, m - k0 - up, -1), range(k0 + 1, k0 + up + 1)):
        t *= s * (num / den)
        yield t
    t = term
    for num, den in zip(range(k0, k0 - down, -1), range(m - k0 + 1, m - k0 + down + 1)):
        t *= (num / den) / s
        yield t


STIRLERR_SERIES = (1 / 156, -691 / 360360, 1 / 1188, -1 / 1680, 1 / 1260, -1 / 360, 1 / 12)


def loop_stirlerr(n):
    if n <= len(density._STIRLERR_TABLE):
        return density._STIRLERR_TABLE[n - 1]
    x = 1.0 / n
    total = 0.0
    for c in STIRLERR_SERIES:
        total = total * x * x + c
    return total * x


def loop_bd0(x, d):
    total = x + (x - d)
    if abs(d) >= 0.1 * total:
        return x * math.log(x / (x - d)) - d
    v = d / total
    series = 0.0
    for j in range(17, 1, -2):
        series = (series + 1.0 / j) * v * v
    return d * v + 2.0 * x * v * series


def cp1_bits(m, z):
    """cp1_density(m, z) as hex, or its error text."""
    try:
        return cp1_density(m, z).hex()
    except ValueError as exc:
        return f"ValueError: {exc}"


def cp1_oracle_inputs():
    """(m, z): the oracle bench's shapes, random m to 1e12, m > 2^53 at tiny |z|, refusals."""
    rng = random.Random(28)

    def polar(r):
        theta = rng.uniform(0.0, math.tau)
        return complex(r * math.cos(theta), r * math.sin(theta))

    inputs = [(int(round(10.0 ** rng.uniform(0.0, 6.0))), polar(rng.uniform(0.0, 3.0)))
              for _ in range(120)]
    inputs += [(10**6, polar(rng.uniform(0.0, 3.0))) for _ in range(4)]
    inputs += [(int(10.0 ** rng.uniform(0.0, 12.0)), polar(10.0 ** rng.uniform(-8.0, 8.0)))
               for _ in range(60)]
    inputs += [(int(2.0 ** rng.uniform(53.0, 1020.0)), polar(10.0 ** rng.uniform(-320.0, -160.0)))
               for _ in range(40)]
    inputs += [(m, complex(0.6 * r, 0.8 * r)) for m in (1, 2, 7, 64)
               for r in (0.0, 1e-160, 0.5, 1.0, 30.0, 1e300)]
    return inputs + [(10**20, 1 + 0j), (10**13, 1 + 0j), (MAX_M, 1 + 0j)]


def test_cp1_walk_matches_zip_walk(monkeypatch):
    inputs = cp1_oracle_inputs()
    got = [cp1_bits(m, z) for m, z in inputs]
    monkeypatch.setattr(density, "_cp1_walk", zip_walk)
    assert got == [cp1_bits(m, z) for m, z in inputs]
    assert sum(text.startswith("ValueError") for text in got) == 3


def test_stirlerr_matches_loop():
    # the values are positive and finite, so == compares their bits
    ns = range(1, 10**6 + 1)
    assert list(map(density._stirlerr, ns)) == list(map(loop_stirlerr, ns))


def test_bd0_matches_loop():
    # the series gives way to the closed form at |d| = (x + M) / 10, d = x / 5.5 or
    # -x / 4.5: three doubles on each side of each edge, and one d within 1.5 times it
    rng = random.Random(28)
    closed = total = 0
    for _ in range(2000):
        x = int(10.0 ** rng.uniform(0.0, 15.0))
        for edge in (x / 5.5, -x / 4.5):
            ds = [edge, edge * rng.uniform(0.0, 1.5)]
            below = above = edge
            for _ in range(3):
                below, above = math.nextafter(below, 0.0), math.nextafter(above, 2.0 * above)
                ds += [below, above]
            for d in ds:
                assert density._bd0(x, d).hex() == loop_bd0(x, d).hex(), (x, d)
                closed += abs(d) >= 0.1 * (x + (x - d))
                total += 1
    assert 0.3 * total < closed < 0.7 * total


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(1, 10**6),
    log_r=st.one_of(st.just(None), st.floats(-200.0, 300.0)),
    theta=st.floats(0.0, 2.0 * math.pi),
)
def test_cp1_within_bound(m, log_r, theta):
    r = 0.0 if log_r is None else 10.0**log_r
    z = complex(r * math.cos(theta), r * math.sin(theta))
    assert cp1_rel_err(m, cp1_density(m, z)) <= cp1_bound(m, z)


@pytest.mark.parametrize(
    "m, r",
    [(10**6, 1e150), (10**6, 1e300), (10**20, 1e12), (10**300, 1e300)],
)
def test_cp1_far_points(m, r):
    # the lgamma route was off by 2.6e-8 and 9.3e-8 at the first two points,
    # returned about 1e4 at the third and did not return at the last
    z = complex(0.6 * r, 0.8 * r)
    start = time.perf_counter()
    value = cp1_density(m, z)
    assert time.perf_counter() - start < 0.1
    assert cp1_rel_err(m, value) <= cp1_bound(m, z)


@pytest.mark.parametrize("r", [1e160, 1e200, 1e300])
def test_cp1_beyond_squared_float_range(r):
    # |z|^2 overflows a float here; the log-space sum still gives m + 1
    for m in (1, 10, 64):
        assert cp1_density(m, complex(0.6 * r, 0.8 * r)) == pytest.approx(m + 1.0, rel=1e-9)


def test_cp1_memory_does_not_grow_with_m():
    tracemalloc.start()
    try:
        cp1_density(10**5, 0.3 + 0.4j)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_cp1_point_value():
    assert cp1_density(3, 0.7 + 0.2j) == pytest.approx(4.0, rel=1e-12)


def test_cp1_constancy():
    for m in (1, 2, 5, 16, 33, 64):
        for k in range(8):
            z = complex(0.3 * k - 1.0, 0.17 * k)
            assert cp1_density(m, z) == pytest.approx(m + 1.0, rel=1e-9)
            assert cp1_density(m, z) == pytest.approx(m + 0.5 * 2.0, rel=1e-9)


def test_cp1_validation():
    with pytest.raises(ValueError):
        cp1_density(0, 0j)


def test_cp1_refuses_window_beyond_limit(monkeypatch):
    # about 9e10 terms at |z| = 1, hours of work
    with pytest.raises(ValueError, match="term window at m=100000000000000000000"):
        cp1_density(10**20, 1 + 0j)
    # the window 2j + 1 <= 19 sigma + 66 <= 9.5 sqrt(m) + 66 is within the limit at every z
    # up to m = 1.2e12
    monkeypatch.setattr(density, "_cp1_walk", lambda *args: [1.0])
    assert cp1_density(1_200_000_000_000, 1 + 0j) == 1.0


def test_truncated_model_matches_cp1_at_center():
    # the sphere-model density estimate agrees with the exact global density
    # within the reported interval (the gap is the truncation tail)
    m = 50
    rep = density_estimate(ModelGeometry(2.0), m, 0.0)
    exact = cp1_density(m, 0j)
    half = 0.5 * (rep.hi - rep.lo)
    assert abs(rep.density - exact) <= half * (1.0 + 1e-9) + 1e-12


def widened(lo, hi, steps=OUTWARD_STEPS):
    for _ in range(steps):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
    return lo, hi


def gram_route_estimate(geom, m, budget_c, extra_degrees, steps=OUTWARD_STEPS):
    """The density row rebuilt through the Gram matrix and its Schur corner.

    The interval ends are rounded to nearest and then moved steps outward.
    """
    reference = m + 0.5 * geom.rho
    t = lambda0_tail(geom, m)
    lam0_sq = reference / (1.0 - t)
    gram = assemble_truncated_gram(2 + len(extra_degrees), budget_c * remainder_envelope(m))
    i00, (_, i00_hi) = schur_i00(gram)
    density = i00 * lam0_sq
    if t >= sys.float_info.min:
        tail = reference * t / (1.0 - t)
    else:  # below the normal range, one rounding of exp(log(m + rho/2) + log t)
        tail = math.exp(math.log(reference) + lambda0_log_tail(geom, m))
    half = (i00_hi - i00) * lam0_sq + tail
    lo, hi = widened(density - half, density + half, steps)
    return DensityReport(
        m=m,
        rho=geom.rho,
        density=density,
        lo=lo,
        hi=hi,
        reference=reference,
        remainder=(i00 - 1.0) * lam0_sq + tail,
        budget_c=budget_c,
    )


@pytest.mark.parametrize("rho", [-2.0, -0.7, 0.0, 2.0])
def test_closed_form_matches_gram_route(rho):
    # I00 = 1 in closed form must reproduce the Gram/Schur route bit for bit
    geom = ModelGeometry(rho)
    ms = sorted({int(round(v)) for v in np.logspace(1, 18, 120)})
    for c in (0.0, 1.0, 7.5):
        for extra in ([], list(range(2, 10))):
            for m in ms:
                got = density_estimate(geom, m, c)
                want = gram_route_estimate(geom, m, c, extra)
                for name in DensityReport._fields:
                    assert repr(getattr(got, name)) == repr(getattr(want, name)), (
                        m, c, extra, name,
                    )


@pytest.mark.parametrize("rho", [-2.0, -0.7, 0.0, 2.0])
def test_given_envelope_changes_nothing(rho):
    # remainder_sweep hands density_estimate the envelope it formed for its ratio
    geom = ModelGeometry(rho)
    ms = sorted({int(round(v)) for v in np.logspace(1, 18, 120)})
    for c in (0.0, 1.0, 7.5):
        for m in ms:
            got = density_estimate(geom, m, c, remainder_envelope(m))
            want = density_estimate(geom, m, c)
            assert list(map(repr, got)) == list(map(repr, want)), (m, c)


# every (m, rho) the sweep accepts, and both a zero and a unit budget
SWEEP_INPUTS = (
    st.one_of(st.integers(10, 10**20), st.integers(10, MAX_M)),
    st.one_of(st.floats(-2.0, 2.0), st.floats(allow_nan=False, allow_infinity=False)),
    st.sampled_from([0.0, 1.0]),
)


@settings(max_examples=400, deadline=None)
@given(*SWEEP_INPUTS)
@example(10**7, -0.7, 0.0)  # lo rounded to nearest lies above m + rho/2
@example(123456789, 1.1, 0.0)  # hi rounded to nearest lies below it
@example(2**53 + 1, 0.3, 0.0)  # float(m) rounds
@example(MAX_M, 0.0, 0.0)
@example(MAX_M, -1.0, 0.0)
def test_interval_contains_m_plus_half_rho(m, rho, budget_c):
    # over every (m, rho) the sweep accepts, checked in exact rational arithmetic
    geom = ModelGeometry(rho)
    assume(truncation_radius(m) < geom.max_radius)
    exact = m + Fraction(rho) / 2
    try:
        rep = density_estimate(geom, m, budget_c)
    except ValueError as exc:
        # refused only where hi, widened outward, passes the largest double
        assert "beyond the doubles" in str(exc)
        assert exact > Fraction(sys.float_info.max) * (1 - Fraction(1, 2**40))
        return
    assert Fraction(rep.lo) <= exact <= Fraction(rep.hi)


def golden_rows(name):
    """(m, rho, budget_c, lo, hi) of each row of a golden sweep in tests/data."""
    text = (DATA / name).read_text()
    if name.endswith(".json"):
        return [(r["m"], r["rho"], r["budget_c"], r["lo"], r["hi"]) for r in json.loads(text)["reports"]]
    budget_c = 0.0 if name.startswith("criterion11") else 1.0  # the --budget-c they were made with
    rows = [line.split(",") for line in text.splitlines()[1:]]
    return [(int(r[0]), float(r[1]), budget_c, float(r[3]), float(r[4])) for r in rows]


@pytest.mark.parametrize(
    "name",
    ["criterion11_rho-2.csv", "sweep_c1_rho-0.7.csv", "sweep_c1_rho2.csv", "sweep_c1_rho-0.7.json"],
)
def test_golden_intervals_are_nearest_ends_moved_outward(name):
    # the golden lo/hi are the ends rounded to nearest, moved OUTWARD_STEPS outward
    for m, rho, budget_c, lo, hi in golden_rows(name):
        nearest = gram_route_estimate(ModelGeometry(rho), m, budget_c, [], steps=0)
        assert lo <= nearest.lo and hi >= nearest.hi
        assert (lo, hi) == widened(nearest.lo, nearest.hi)


def test_remainder_sweep_flat():
    result = remainder_sweep(0.0, [100, 1000, 10_000], 0.0)
    assert len(result.reports) == 3
    assert result.fitted_c <= 1.0
    assert result.decay_violations == ()


def test_remainder_sweep_hyperbolic():
    result = remainder_sweep(-2.0, [100, 1000], 0.0)
    assert math.isfinite(result.fitted_c)
    for rep in result.reports:
        assert abs(rep.remainder) <= result.fitted_c * remainder_envelope(rep.m)


@pytest.mark.parametrize("rho", [0.0, 0.5, -2.0])
@pytest.mark.parametrize("m", [2**1024, 10**400], ids=["2^1024", "10^400"])
def test_library_calls_refuse_m_past_the_largest_double(m, rho):
    geom = ModelGeometry(rho)
    for call in (
        lambda: density_estimate(geom, m, 1.0),
        lambda: cp1_density(m, complex(0.5, rho)),
        lambda: lambda0_log_tail(geom, m),
        lambda: truncation_radius(m),
        lambda: remainder_sweep(rho, [m], 1.0),
    ):
        with pytest.raises(ValueError, match="exceeds the double range"):
            call()


def test_remainder_sweep_empty():
    result = remainder_sweep(0.0, [], 0.0)
    assert result.reports == ()
    assert result.fitted_c == 0.0


def test_csv_format():
    result = remainder_sweep(-2.0, [100, 1000], 0.0)
    text = sweep_to_csv(result)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER == "m,rho,density,lo,hi,reference,remainder"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "100"
    assert float(first[5]) == 99.0
    # deterministic: re-running the sweep reproduces the bytes
    assert sweep_to_csv(remainder_sweep(-2.0, [100, 1000], 0.0)) == text


def plain_csv_row(rep):
    """The CSV row of a report, each of its first 7 fields by repr."""
    return ",".join([repr(rep.m), repr(rep.rho), *map(repr, rep[2:7])])


@settings(max_examples=400, deadline=None)
@given(*SWEEP_INPUTS)
@example(100, -2.0, 0.0)  # the density is not the reference's double
@example(10**6, 2.0, 1.0)  # it is
def test_csv_rows_match_the_plain_formula(m, rho, budget_c):
    assume(truncation_radius(m) < ModelGeometry(rho).max_radius)
    try:
        result = remainder_sweep(rho, [m], budget_c)
    except ValueError as exc:
        assert "beyond the doubles" in str(exc)
        return
    assert sweep_to_csv(result).splitlines() == [CSV_HEADER, *map(plain_csv_row, result.reports)]


def test_csv_reference_column_keeps_its_own_sign_and_value():
    # the CSV reuses the density's repr for an equal reference, but not across 0.0 == -0.0
    pairs = [(-0.0, 0.0), (0.0, -0.0), (0.0, 0.0), (-0.0, -0.0), (100.5, 100.0),
             (100.0, 100.0), (math.nan, math.nan), (5e-324, 0.0)]
    reports = tuple(
        DensityReport(100 + i, -1.0, dens, dens - 1.0, dens + 1.0, ref, dens - ref, 1.0)
        for i, (dens, ref) in enumerate(pairs)
    )
    text = sweep_to_csv(SweepResult(reports, 0.0, ()))
    assert text.splitlines() == [CSV_HEADER, *map(plain_csv_row, reports)]
    assert [row.split(",")[5] for row in text.splitlines()[1:]] == [
        "0.0", "-0.0", "0.0", "-0.0", "100.0", "100.0", "nan", "0.0",
    ]


def test_json_format():
    import json

    result = remainder_sweep(0.0, [100], 0.0)
    payload = json.loads(sweep_to_json(result))
    assert payload["reports"][0]["m"] == 100
    assert payload["reports"][0]["reference"] == 100.0
    assert set(payload["reports"][0]) == {
        "m", "rho", "density", "lo", "hi", "reference", "remainder", "budget_c",
    }


@pytest.mark.parametrize("rho", [-2.0, -0.7, 0.0, 2.0])
def test_remainder_below_normal_range_matches_mpmath(rho):
    # the tail t falls below DBL_MIN near m = 3.6e11, where (m + rho/2) t would
    # carry the bits t lost; the floor is DBL_MIN, so a subnormal remainder is held
    # to 1e-12 DBL_MIN (its last place is 4.9e-324)
    geom = ModelGeometry(rho)
    with mpmath.workdps(50):
        for i in range(40):
            m = round(10 ** (11 + i * math.log10(20) / 39))
            log_m = mpmath.log(m)
            if rho == 0.0:
                t = mpmath.exp(-log_m**2)
            else:
                x = mpmath.mpf(rho) * log_m**2 / (2 * m)
                t = mpmath.exp(-(1 + 2 * mpmath.mpf(m) / rho) * mpmath.log1p(x))
            exact = (m + mpmath.mpf(rho) / 2) * t / (1 - t)
            got = density_estimate(geom, m, 0.0).remainder
            assert abs(got - exact) <= 1e-12 * max(exact, sys.float_info.min), (m, got, exact)


@pytest.mark.parametrize("rho", [-2.0, -0.7, 0.0, 2.0])
def test_sweep_takes_the_log_tail_once_per_point(rho, monkeypatch):
    # from m near 3.6e11 the tail is below DBL_MIN and the remainder is formed from
    # its log, which density_estimate reuses rather than evaluating it again
    calls = []

    def counted(geom, m):
        calls.append(m)
        return lambda0_log_tail(geom, m)

    monkeypatch.setattr(density, "lambda0_log_tail", counted)
    monkeypatch.setattr(quadrature, "lambda0_log_tail", counted)
    m_list = [round(10 ** (1 + 17 * i / 99)) for i in range(100)]
    remainder_sweep(rho, m_list, 1.0)
    assert calls == m_list
    tails = [math.exp(lambda0_log_tail(ModelGeometry(rho), m)) for m in m_list]
    assert min(tails) < sys.float_info.min <= max(tails)


@pytest.mark.parametrize("rho", [-2.0, -0.7, 0.0, 2.0])
def test_sweep_forms_the_envelope_once_per_point(rho, monkeypatch):
    # the envelope of each point serves both its interval and its fitted-constant ratio
    calls = []

    def counted(m):
        calls.append(m)
        return remainder_envelope(m)

    monkeypatch.setattr(density, "remainder_envelope", counted)
    m_list = [round(10 ** (1 + 17 * i / 99)) for i in range(100)]
    remainder_sweep(rho, m_list, 1.0)
    assert calls == m_list
