import math
import random
import re
import sys
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest
from exact_moments import exact_moment

from bergmanlab import geometry, quadrature
from bergmanlab.geometry import (
    ModelGeometry,
    log_bundle_weight,
    log_conformal_factor,
    log_metric_density,
)
from bergmanlab.quadrature import (
    lambda0_closed_form,
    lambda0_tail,
    lambda_inv_sq,
    truncation_radius,
)

FLAT = ModelGeometry(0.0)
SPHERE = ModelGeometry(2.0)
HYPERBOLIC = ModelGeometry(-2.0)
DATA = Path(__file__).parent / "data"


DBL_MIN = sys.float_info.min


def grid_radii(rho):
    """Radii from 1e-9 to the disk's edge (its last float below) or to 1e6."""
    if rho >= 0:
        return (1e-9, 0.1, 1.0, 30.0, 1e6)
    edge = math.sqrt(-2.0 / rho)
    return (1e-9, 0.1 * edge, 0.9 * edge, edge * (1 - 1e-9), math.nextafter(edge, 0.0))


def check_against_mpmath(geom, m, p, radius):
    """Relative error (floored at the smallest normal double) and whether abs_err holds."""
    got = lambda_inv_sq(geom, m, p, radius)
    exact = exact_moment(geom.rho, m, p, radius)
    err = abs(mpmath.mpf(got.value) - exact)
    return got, float(err / max(abs(exact), DBL_MIN)), err <= got.abs_err


CLI_RHOS = (-10.0, -2.0, -0.5, 0.0, 0.5, 2.0, 100.0)
CLI_MS = (2, 3, 7, 100, 10**4, 10**8)
CLI_PS = (0, 3, 40, 200, 1000)


@pytest.mark.parametrize("rho", CLI_RHOS)
def test_matches_mpmath_on_cli_domain(rho):
    # Small radii, the disk's edge, R = 1e6, p = 200 and b <= 0 (at rho = 2,
    # m = 2, p = 3, b = 0) are all on the grid.  A moment beyond the largest
    # double must raise, and only such a moment.
    geom = ModelGeometry(rho)
    worst = 0.0
    for m in CLI_MS:
        for p in CLI_PS:
            for radius in grid_radii(rho):
                try:
                    got, rel, holds = check_against_mpmath(geom, m, p, radius)
                except ValueError as exc:
                    assert "double range" in str(exc)
                    assert exact_moment(rho, m, p, radius) > sys.float_info.max
                    continue
                assert rel <= 1e-13, (m, p, radius, got, rel)
                assert holds, (m, p, radius, got)
                worst = max(worst, rel)
    print(f"rho={rho}: worst relative error {worst:.2e}")


def moments_csv(points):
    """rho,m,p,radius,value,abs_err for each point; value and abs_err "refused" where it raises."""
    lines = ["rho,m,p,radius,value,abs_err"]
    for rho, m, p, radius in points:
        try:
            got = lambda_inv_sq(ModelGeometry(rho), m, p, radius)
            value = f"{got.value!r},{got.abs_err!r}"
        except ValueError:
            value = "refused,refused"
        lines.append(f"{rho!r},{m},{p},{radius!r},{value}")
    return "\n".join(lines) + "\n"


def cli_domain_csv():
    """The grid above as moments_csv.

    tests/data/moments_cli_domain.csv holds this text; regenerate it with
    `PYTHONPATH=src python tests/test_quadrature.py > tests/data/moments_cli_domain.csv`.
    """
    return moments_csv(
        (rho, m, p, radius)
        for rho in CLI_RHOS for m in CLI_MS for p in CLI_PS for radius in grid_radii(rho)
    )


# rhos like the benchmark's, whose n/d = |rho| has d near 2^53 (the CLI grid's are dyadic)
BENCH_RHOS = (-1.7320508075688772, -0.7, 0.3, 1.4142135623730951)
BENCH_MS = tuple(round(10 ** (2 + k / 4)) for k in range(25))
BENCH_PS = (*range(11), 40, 200)


def bench_domain_csv():
    """moments_csv at R = truncation_radius(m), R/2 and 2R.

    tests/data/moments_bench_domain.csv holds this text; regenerate it with
    `PYTHONPATH=src python tests/test_quadrature.py bench > tests/data/moments_bench_domain.csv`.
    """
    return moments_csv(
        (rho, m, p, radius)
        for rho in BENCH_RHOS for m in BENCH_MS for p in BENCH_PS
        for radius in (truncation_radius(m), 0.5 * truncation_radius(m), 2.0 * truncation_radius(m))
    )


def test_cli_domain_values_match_golden():
    # bit identity pins the values and their bounds through changes to the moment routes
    assert cli_domain_csv() == (DATA / "moments_cli_domain.csv").read_text()


def test_bench_domain_values_match_golden():
    # the same at the benchmark's rhos, where d is near 2^53 and top = n b is wide
    assert bench_domain_csv() == (DATA / "moments_bench_domain.csv").read_text()


@pytest.mark.parametrize("rho", [-2.0, -0.7, 0.0, 0.3, 2.0])
def test_error_bar_is_tight_on_benchmark_domain(rho):
    # the benchmark's moments: R = log m / sqrt m, p <= 10
    geom = ModelGeometry(rho)
    for m in (100, 3163, 10**5, 31_622_777, 10**8):
        for p in range(11):
            got, rel, holds = check_against_mpmath(geom, m, p, truncation_radius(m))
            assert rel <= 1e-13 and holds, (m, p, got, rel)
            assert got.abs_err <= 1e-13 * got.value, (m, p, got)


def test_flat_closed_form():
    for m in (10, 100, 10_000):
        log_m = math.log(m)
        expected = -math.expm1(-log_m * log_m) / m
        got = lambda_inv_sq(FLAT, m, 0, truncation_radius(m))
        assert got.value == pytest.approx(expected, rel=1e-11)
        assert got.abs_err <= 1e-11 * got.value


@pytest.mark.parametrize("rho", [-2.0, -1.0, 0.5, 2.0])
@pytest.mark.parametrize("m", [10, 1000, 100_000])
def test_quadrature_matches_closed_form(rho, m):
    geom = ModelGeometry(rho)
    closed = lambda0_closed_form(geom, m)
    got = lambda_inv_sq(geom, m, 0, truncation_radius(m))
    assert got.value == pytest.approx(closed, rel=1e-11)


def test_sphere_beta_integral():
    # full-plane moment at rho=2, m=3: integral (1+r^2)^(-5) 2r dr = 1/4
    got = lambda_inv_sq(SPHERE, 3, 0, 50.0)
    assert got.value == pytest.approx(0.25, rel=1e-11)


def test_flat_gamma_identity():
    # large-radius moments reduce to p! / m^(p+1)
    for m, p in ((5, 0), (5, 1), (8, 2), (8, 3)):
        got = lambda_inv_sq(FLAT, m, p, 40.0 / math.sqrt(m))
        assert got.value == pytest.approx(math.factorial(p) / m ** (p + 1), rel=1e-11)


def test_closed_form_examples():
    m = 100
    log_m = math.log(m)
    assert lambda0_closed_form(FLAT, m) == pytest.approx(
        (1 - math.exp(-log_m**2)) / m, rel=1e-14
    )
    m = 10
    log_m = math.log(m)
    expected = (1 / 11) * (1 - (1 + log_m**2 / 10) ** -11)
    assert lambda0_closed_form(SPHERE, m) == pytest.approx(expected, rel=1e-13)


def test_closed_form_tail_envelope_negative_curvature():
    # the relative gap lambda0^-2 (m + rho/2) - 1 equals -tail exactly, and the
    # tail must be formed analytically: below m ~ 500 the float subtraction
    # would already be pure rounding noise.
    for m in (1000, 10_000, 100_000):
        assert lambda0_tail(HYPERBOLIC, m) <= 2.0 * math.exp(-math.log(m) ** 2)


@pytest.mark.parametrize("rho", [4.0, 10.0])
def test_tail_matches_mpmath_where_x_reaches_one(rho):
    # rho > 0: the model is entire and (1 + x)^(-1 - 2m/rho) is exact for every
    # x = rho (log m)^2 / 2m, also where x >= 1 (m = 10 and 12 at both rho)
    geom = ModelGeometry(rho)
    reached = False
    with mpmath.workdps(50):
        for m in (2, 3, 10, 12, 13, 14, 100, 1000):
            x = mpmath.mpf(rho) * mpmath.log(m) ** 2 / (2 * m)
            reached = reached or x >= 1
            exact = (1 + x) ** (-1 - 2 * mpmath.mpf(m) / rho)
            assert abs(lambda0_tail(geom, m) - exact) <= 1e-14 * exact, m
    assert reached


@pytest.mark.parametrize("rho", [1e-307, -1e-307, 1e-320, -1e-320, 5e-324, -5e-324])
def test_tail_at_tiny_rho_matches_mpmath(rho):
    # x = rho (log m)^2 / 2m is below the normal range or 2m/rho overflows; at
    # 50 digits (1 + x)^(-1 - 2m/rho) cannot resolve such x, the log1p form can
    geom = ModelGeometry(rho)
    with mpmath.workdps(50):
        for m in (10, 100, 10**4, 10**6, 10**10, 10**18, 10**100):
            x = mpmath.mpf(rho) * mpmath.log(m) ** 2 / (2 * m)
            exact = mpmath.exp(-(1 + 2 * mpmath.mpf(m) / rho) * mpmath.log1p(x))
            assert abs(lambda0_tail(geom, m) - exact) <= 1e-13 * exact + 2.0**-1074, m


@pytest.mark.parametrize("rho", [1e306, 1e308, sys.float_info.max])
def test_tail_at_huge_rho_matches_mpmath(rho):
    # rho (log m)^2 / 2 passes the largest double before the division by m
    # (from rho = 1.7e307 at m = 100 and 2.1e305 at m = 1e18); the exponent
    # near -700 carries a few ulps of 1.1e-13 there
    geom = ModelGeometry(rho)
    with mpmath.workdps(50):
        for m in (100, 10**18):
            x = mpmath.mpf(rho) * mpmath.log(m) ** 2 / (2 * m)
            exact = mpmath.exp(-(1 + 2 * mpmath.mpf(m) / rho) * mpmath.log1p(x))
            assert abs(lambda0_tail(geom, m) - exact) <= 1e-12 * exact, m


@pytest.mark.parametrize(
    "rho", [s * v for v in (1e-20, 1e-40, 1e-55, 1e-320, 5e-324) for s in (1.0, -1.0)]
)
def test_moment_at_tiny_rho_matches_mpmath(rho):
    # 1 - y cancels about log10(1/y) digits and 2m/|rho| can pass the largest
    # double; p = 30 at m = 100 takes the lower series.  R = 1e80 and the
    # disk's edge are taken where they lie inside the disk; m R^2 beyond the
    # largest double is refused.
    geom = ModelGeometry(rho)
    edge = geom.max_radius
    for m in (100, 10**6):
        radii = [truncation_radius(m)] + [r for r in (1e80, math.nextafter(edge, 0.0)) if r < edge]
        for p in (0, 3, 30):
            for radius in radii:
                if not math.isfinite(m * radius * radius):
                    with pytest.raises(ValueError, match="too large"):
                        lambda_inv_sq(geom, m, p, radius)
                    continue
                got, rel, holds = check_against_mpmath(geom, m, p, radius)
                assert rel <= 1e-13 and holds, (m, p, radius, got, rel)
                assert got.abs_err <= 1e-12 * got.value, (m, p, radius, got)


@pytest.mark.parametrize("m", [2, 100, 10**6, 10**12])
def test_flat_limit_is_continuous(m):
    # rho -> 0 is b = 2m/|rho| -> infinity: the tiny rhos, whose b is beyond
    # the doubles, give the rho = 0 value bit for bit; the moment itself moves
    # with rho by a relative O(p^2 |rho| / m), far below abs_err
    for p in (0, 3, 10):
        for x in (0.5, 5.0, 50.0, 500.0):
            radius = math.sqrt(x / m)
            exact = exact_moment(0.0, m, p, radius)
            flat = lambda_inv_sq(FLAT, m, p, radius).value
            for rho in (0.0, 5e-324, -5e-324, 1e-320, -1e-320):
                got = lambda_inv_sq(ModelGeometry(rho), m, p, radius)
                assert got.value == flat, (rho, p, x, got, flat)
                assert abs(mpmath.mpf(got.value) - exact) <= got.abs_err, (rho, p, x, got)


CORNER_MS = (2, 10, 10**6, 10**300)
CORNER_PS = (0, 1, 5, 40)


@pytest.mark.parametrize("radius", [1e-170, 1e-162, 1e-9, 0.3])
def test_negative_zero_rho_is_zero_rho_to_the_bit(radius):
    # rho = -0.0 gives w = -0.0, whose sign reaches u, the boundary log's pieces and
    # their sum; at R = 1e-170 and 1e-162, R^2 underflows and log a = -R^2 is -0.0
    # too.  Neither sign moves a bit of the moment.
    for m in CORNER_MS:
        for p in CORNER_PS:
            flat, neg = (lambda_inv_sq(ModelGeometry(rho), m, p, radius) for rho in (0.0, -0.0))
            assert (repr(neg.value), repr(neg.abs_err)) == (repr(flat.value), repr(flat.abs_err)), (
                m, p, neg, flat)


@pytest.mark.parametrize("rho", [5e-324, -5e-324])
def test_moment_where_w_underflows_holds_its_bar(rho):
    # at the smallest subnormal |rho| and R = 1e-170, w = rho R^2 / 2 underflows to a
    # zero of rho's sign, and R^2 itself to +0
    for m in CORNER_MS:
        for p in CORNER_PS:
            got = lambda_inv_sq(ModelGeometry(rho), m, p, 1e-170)
            err = abs(mpmath.mpf(got.value) - exact_moment(rho, m, p, 1e-170))
            assert err <= got.abs_err, (m, p, got)


def fuzz_inputs(seed, count):
    """Seeded (rho, m, p, radius) over the CLI's range of tiny to large |rho|.

    |rho| is log-uniform on [1e-323, 1e3] with either sign, m on [2, 1e12],
    p on 0..3 and the radius on [1e-5, 1e100], moved inside the disk
    (towards its edge, log-uniformly) where it falls outside.
    """
    rng = random.Random(seed)
    for _ in range(count):
        rho = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-323.0, 3.0)
        m = int(2 * 10.0 ** rng.uniform(0.0, 11.7))
        p = rng.randrange(4)
        radius = 10.0 ** rng.uniform(-5.0, 100.0)
        edge = ModelGeometry(rho).max_radius
        if radius >= edge:
            radius = min(edge * (1.0 - 10.0 ** rng.uniform(-16.0, 0.0)), math.nextafter(edge, 0.0))
        yield rho, m, p, radius


@pytest.mark.parametrize("seed", [1, 2])
def test_moment_fuzz_holds_its_error_bar(seed):
    # every moment is within abs_err of mpmath, or beyond the doubles, each
    # within 2 s; no moment is refused for the length of its lower series
    for rho, m, p, radius in fuzz_inputs(seed, 100):
        start = time.perf_counter()
        try:
            got = lambda_inv_sq(ModelGeometry(rho), m, p, radius)
        except ValueError as exc:
            assert "double range" in str(exc), (rho, m, p, radius, exc)
            assert exact_moment(rho, m, p, radius) > sys.float_info.max
            continue
        finally:
            assert time.perf_counter() - start < 2.0, (rho, m, p, radius)
        err = abs(mpmath.mpf(got.value) - exact_moment(rho, m, p, radius))
        assert err <= got.abs_err, (rho, m, p, radius, got)


@pytest.mark.parametrize(
    "m, radius",
    [(5 * 10**307, 0.9999), (5 * 10**307, 0.99), (8 * 10**307, 0.9)],
    ids=["5e307-0.9999", "5e307-0.99", "8e307-0.9"],
)
@pytest.mark.parametrize("p", [0, 3, 30])
def test_error_bar_where_log_q_bound_passes_the_doubles(m, radius, p):
    # m log a is -inf at the first two, and the magnitudes summed in log Q's bound pass
    # the largest double at the third; log Q is then near -1e308, so Q vanishes
    got, rel, holds = check_against_mpmath(HYPERBOLIC, m, p, radius)
    assert math.isfinite(got.abs_err) and holds, got
    assert got.abs_err <= (4 * 2.0**-53) * got.value + 2.0**-1073


def test_complement_with_long_product_of_wide_factors():
    # b >= 2^1022, so P's denominator multiplies 1531 factors of about 1050 bits,
    # which the balanced product forms in about a sixth of the sequential time;
    # value and abs_err are the bits of the sequential product's route
    got = lambda_inv_sq(ModelGeometry(1e-300), 375, 1530, 2.020341013836909)
    assert got.value.hex() == "0x1.5e38f8626dd2cp+893"
    assert got.abs_err.hex() == "0x1.ca09f9040b5e4p+855"


def assert_within_bar(rho, m, p, radius):
    got, _, holds = check_against_mpmath(ModelGeometry(rho), m, p, radius)
    assert holds, (rho, m, p, radius, got)


@pytest.mark.parametrize("rho", [0.25, 0.5, 0.75, 0.999, 1.0, 2.0, 3.0])
def test_no_finite_moment_refused_near_the_radius_bound(rho):
    # The sum m R^2 + (1 + p) |w| in log Q's error bound for the rounding of w passed
    # the largest double here, and a finite moment was refused as beyond the doubles
    # (rho = 0.5, m = 2, p = 0..8 at R^2 = 8.8e307); summed in quarters it stays finite.
    # At top = 0 (b = 0) y = u/(1 + u) is about 1 - 10^-307: the reference carries
    # |log10(rho R^2)| extra digits, without which betainc returned inf there.
    geom = ModelGeometry(rho)
    for m in (2, 3, 5, 10):
        for share in (0.99, 0.5, 0.1):
            radius = math.sqrt(share * sys.float_info.max / (m * max(rho, 1.0)))
            for p in range(41):
                if 2 * m * geom.d + geom.n * (1 - p) >= 0:  # top >= 0
                    assert_within_bar(rho, m, p, radius)


def test_moment_or_one_refusal_where_m_r_squared_meets_the_largest_double():
    # m max(|rho|, 1) (R R) within a dozen ulps of the largest double, where ((m s) R) R
    # and (m s) (R R) can round to opposite sides of it.  The gate must form the product
    # the b = infinity complement forms: were Q's first term inf, log Q would be NaN, or
    # log(inf) would send the row to a Decimal lower series that overflows.
    rng = random.Random(32)
    gate, beyond = re.compile(r"radius \S+ too large for m="), re.compile(r"exceeds the double range")
    rhos = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e-300, -1e-300, 0.25, 0.5, 1.0, 2.0,
            3.0, 100.0, None)
    outcomes = {"answered": 0, "refused": 0}
    for _ in range(3000):
        rho = rng.choice(rhos)
        rho = rng.uniform(-3.0, 3.0) if rho is None else rho
        m, p = int(2.0 ** rng.uniform(1.0, 60.0)), rng.randrange(41)
        if rho == -1e-300:  # R inside the disk, of radius sqrt(2e300)
            m += 10**8
        radius = math.sqrt(sys.float_info.max / (m * max(abs(rho), 1.0)))
        k = rng.randrange(-6, 7)  # ulps of R
        for _ in range(abs(k)):
            radius = math.nextafter(radius, math.inf if k > 0 else 0.0)
        if not radius < ModelGeometry(rho).max_radius:
            continue
        try:
            got = lambda_inv_sq(ModelGeometry(rho), m, p, radius)
        except ValueError as exc:
            assert gate.match(str(exc)) or beyond.search(str(exc)), (rho, m, p, radius, exc)
            outcomes["refused"] += 1
            continue
        assert math.isfinite(got.value) and math.isfinite(got.abs_err), (rho, m, p, radius, got)
        outcomes["answered"] += 1
    assert min(outcomes.values()) > 500, outcomes


def test_q_loop_near_zero_boundary_log():
    # small R at rho = -2 puts the boundary log near 0, above -log 2, where the one
    # test after Q's sum declines the row; larger m R^2 takes it below.  At
    # rho = 3 - 2^-51, m = p = 3, b = 2m/rho - 2 is 3e-16 and the boundary log,
    # exactly -b log(1 + u), rounds to +8.9e-16 at R = 3.
    for radius in (1e-9, 1e-5, 1e-3, 0.01, 0.1):
        for m in (2, 3, 10, 1000, 10**8):
            for p in (0, 1, 5, 40):
                assert_within_bar(-2.0, m, p, radius)
    for radius in (0.3, 1.0, 3.0, 30.0):
        assert_within_bar(3.0 - 2.0**-51, 3, 3, radius)


@pytest.mark.parametrize("x", [650.0, 700.0, 705.0, 709.0, 720.0, 1100.0])
def test_q_loop_past_many_edges(x):
    # at rho = 0, p = 1000, terms x^j/j! reach e^x: the sum passes 2^64 many times
    # and its scale nears -log of the boundary factor, where Q crosses 1/2
    assert_within_bar(0.0, 10**6, 1000, math.sqrt(x / 10**6))


@pytest.mark.parametrize("m, radius", [(10**300, 1.0), (2, 1e150)])
def test_q_loop_with_huge_ratios(m, radius):
    # x = m R^2 near 1e300: the first ratio x is above 2^960, so the sum of size x
    # is renormalized at once and no later term overflows
    for p in range(51):
        assert_within_bar(0.0, m, p, radius)


@pytest.mark.parametrize("rho", [0.0, -0.5, 0.7])
@pytest.mark.parametrize("p", [5, 20, 100])
def test_q_loop_exit_matches_mpmath_q(rho, p, monkeypatch):
    # x = b y straddles p, where Q crosses 1/2 and the test after the loop decides:
    # the lower series is taken exactly where mpmath's Q exceeds 1/2
    series = []

    def recorded(*args):
        series.append(args)
        return lower(*args)

    lower = quadrature._series
    monkeypatch.setattr(quadrature, "_series", recorded)
    m, a = 10**4, p + 1
    both = set()
    for k in range(-20, 21):
        radius = math.sqrt((a + k * math.sqrt(a) / 10) / m)
        with mpmath.workdps(60):
            r2 = mpmath.mpf(radius) ** 2
            if rho == 0:
                q = mpmath.gammainc(a, m * r2, regularized=True)
            else:
                u = mpmath.mpf(rho) * r2 / 2
                y, b = (-u, 2 * m / abs(rho) - 1) if rho < 0 else (u / (1 + u), 2 * m / rho + 1 - p)
                q = mpmath.betainc(a, b, y, 1, regularized=True)
        del series[:]
        assert_within_bar(rho, m, p, radius)
        assert bool(series) == (q > 0.5), (k, q)
        both.add(q > 0.5)
    assert both == {True, False}


def test_one_conformal_factor_per_moment(monkeypatch):
    # the complement reads log a from the factor it already holds
    calls, series = [], []

    def counted(geom, r):
        calls.append(r)
        return log_conformal_factor(geom, r)

    monkeypatch.setattr(geometry, "log_conformal_factor", counted)
    monkeypatch.setattr(quadrature, "log_conformal_factor", counted)
    monkeypatch.setattr(quadrature, "_series", lambda *args: series.append(args))
    rng = random.Random(11)
    for _ in range(200):
        m = int(10 ** rng.uniform(2.0, 8.0))
        lambda_inv_sq(ModelGeometry(rng.uniform(-2.0, 2.0)), m, rng.randrange(11),
                      truncation_radius(m))
    assert len(calls) == 200 and not series


class _CountingMath:
    """The math module, with its log calls counted."""

    logs = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def log(self, x):
        self.logs += 1
        return math.log(x)


@pytest.mark.parametrize("rho, m, p", [
    (-0.7, 1000, 40), (2.0, 10**6, 3000), (0.0, 10, 3000), (-2.0, 10, 3000),
    (-1.0, 20149411, 10),  # op 1000 of the bench's moments workload at seed 1
])
def test_complement_takes_one_log_per_call(rho, m, p, monkeypatch):
    # Q's sum takes no log, whatever p: the one log is of s after the loop
    counting, logs = _CountingMath(), []
    complement = quadrature._complement

    def counted(*args):
        before = counting.logs
        result = complement(*args)
        logs.append(counting.logs - before)
        return result

    monkeypatch.setattr(quadrature, "math", counting)
    monkeypatch.setattr(quadrature, "_complement", counted)
    lambda_inv_sq(ModelGeometry(rho), m, p, truncation_radius(m))
    assert logs == [1]


@pytest.mark.parametrize("top, n", [(1, 1), (2**1050 + 3, 7), (10**6, 0)],
                         ids=["small", "wide", "rho-0"])
def test_rising_product_matches_math_prod(top, n):
    for count in (1, 2, 31, 32, 33, 64, 65, 200):
        expected = math.prod(top + n * k for k in range(count))
        assert quadrature._rising_product(top, n, count) == expected, count


def test_reference_moment_at_huge_finite_b():
    # b = 2m/rho is 7.9e250; the moment is p!/m^a to within O(p^2 rho / m)
    m, p = 725, 3
    flat = mpmath.factorial(p) / mpmath.mpf(m) ** (p + 1)
    assert abs(exact_moment(1.83e-248, m, p, 9.7e94) - flat) <= 1e-10 * flat


def test_closed_form_preconditions():
    with pytest.raises(ValueError):
        lambda0_closed_form(SPHERE, 1)
    # rho = -8 -> max_radius = 0.5 < log(m)/sqrt(m) at m = 10
    with pytest.raises(Exception):
        lambda0_closed_form(ModelGeometry(-8.0), 10)


def test_moment_decreasing_in_p():
    vals = [lambda_inv_sq(FLAT, 20, p, 0.9).value for p in range(4)]
    assert all(vals[i + 1] < vals[i] for i in range(3))


def test_moment_increasing_in_radius():
    radii = [0.2, 0.4, 0.8, 1.5]
    vals = [lambda_inv_sq(FLAT, 20, 0, r).value for r in radii]
    assert all(vals[i + 1] > vals[i] for i in range(3))


def test_flat_tail_identity():
    # tail beyond the truncation radius equals e^(-(log m)^2)/m exactly
    m = 10
    log_m = math.log(m)
    inner = lambda_inv_sq(FLAT, m, 0, truncation_radius(m)).value
    full = lambda_inv_sq(FLAT, m, 0, 20.0 / math.sqrt(m)).value
    assert full - inner == pytest.approx(math.exp(-log_m**2) / m, rel=1e-9)


def test_monomial_moment_diagonal():
    # the z^3 zbar^3 moment; the off-diagonal ones are checked in acceptance criterion 9
    m = 50
    R = truncation_radius(m)
    got, rel, holds = check_against_mpmath(HYPERBOLIC, m, 3, R)
    assert rel <= 1e-13 and holds, (got, rel)


def test_monomial_moment_vs_trapezoid():
    # independent oracle: fine-grid trapezoid of the same radial integrand
    m = 50
    R = truncation_radius(m)
    r = np.linspace(0.0, R, 200_001)
    for alpha in (1, 2):
        f = np.zeros_like(r)
        mask = r > 0
        rm = r[mask]
        logs = np.array(
            [
                m * log_bundle_weight(HYPERBOLIC, ri) + log_metric_density(HYPERBOLIC, ri)
                for ri in rm
            ]
        )
        f[mask] = 2.0 * rm ** (2 * alpha + 1) * np.exp(logs)
        oracle = float(np.trapezoid(f, r))
        val = lambda_inv_sq(HYPERBOLIC, m, alpha, R).value
        assert val == pytest.approx(oracle, rel=1e-9)


def test_peak_norm_bound_flat():
    ms = [100, 1000, 10_000]
    ratios = [1 / (lambda_inv_sq(FLAT, m, 0, truncation_radius(m)).value * float(m)) for m in ms]
    assert all(math.isfinite(r) and r > 0.0 for r in ratios)
    assert max(ratios) == pytest.approx(1.0, rel=1e-6)
    ratios1 = [
        1 / (lambda_inv_sq(FLAT, m, 1, truncation_radius(m)).value * float(m) ** 2) for m in ms
    ]
    assert max(ratios1) == pytest.approx(1.0, rel=1e-3)


def test_peak_norm_bound_hyperbolic():
    ms = [int(round(v)) for v in np.logspace(2, 5, 7)]
    ratios = [
        1 / (lambda_inv_sq(HYPERBOLIC, m, 2, truncation_radius(m)).value * float(m) ** 3)
        for m in ms
    ]
    assert all(math.isfinite(r) and r > 0.0 for r in ratios)
    assert max(ratios) <= 3.0
    top = [r for m, r in zip(ms, ratios) if m * 10 >= ms[-1]]
    assert (max(top) - min(top)) / max(top) <= 0.1


def test_validation_errors():
    with pytest.raises(ValueError):
        lambda_inv_sq(FLAT, 1, 0, 0.5)
    with pytest.raises(ValueError):
        lambda_inv_sq(FLAT, 10, -1, 0.5)
    with pytest.raises(ValueError):
        lambda_inv_sq(HYPERBOLIC, 10, 0, 1.5)
    with pytest.raises(ValueError, match="too large"):
        lambda_inv_sq(SPHERE, 10, 0, 1e160)  # R^2 beyond the float range
    with pytest.raises(ValueError, match="too large"):
        lambda_inv_sq(FLAT, 10**10, 2, 1e150)  # m R^2 beyond it


@pytest.mark.parametrize("rho", [0.0, 0.5, -2.0])
@pytest.mark.parametrize("m", [2**1024, 10**400], ids=["2^1024", "10^400"])
def test_m_past_the_largest_double_is_refused(m, rho):
    with pytest.raises(ValueError, match="exceeds the double range"):
        lambda_inv_sq(ModelGeometry(rho), m, 0, 0.1)


def _moment_bits(geom, m, p, radius):
    try:
        got = lambda_inv_sq(geom, m, p, radius)
    except ValueError as exc:
        return f"ValueError: {exc}"
    return got.value.hex(), got.abs_err.hex()


@pytest.mark.parametrize("rho", [0.0, -0.0, 5e-324, -5e-324, 1e-310, 0.5, -2.0])
def test_shared_geometry_tables_match_fresh_geometries(rho):
    # tables p = 0..12 at log m / sqrt m, near rho = -2's edge (w < -1/2) and at
    # R = 1e-170 (|w| < 2^-53), two at one radius with different m, interleaved on
    # one geometry, with another radius (refused but for 2.0 at rho >= 0) between equal ones
    near = 1.0 - 1e-9 if rho == -2.0 else 0.9
    tables = [[(m, p, radius) for p in range(13)] for m, radius in (
        (1000, truncation_radius(1000)), (10**6, truncation_radius(10**6)),
        (50, 1e-170), (10**5, 1e-170), (30, near))]
    rng = random.Random(rho.hex())
    shared = ModelGeometry(rho)
    while tables:
        table = rng.choice(tables)
        m, p, radius = table.pop(0)
        if not table:
            tables.remove(table)
        radii = [radius]
        if rng.random() < 0.2:
            radii += [rng.choice((0.0, -radius, math.nan, 2.0)), radius]
        for r in radii:
            assert _moment_bits(shared, m, p, r) == _moment_bits(ModelGeometry(rho), m, p, r), r


def test_routes_return_radial_moments():
    # built with tuple.__new__, which skips the namedtuple's arity check
    for m, p, radius in ((100, 3, 0.2), (5, 40, 3.0)):  # complement, then the lower series
        got = lambda_inv_sq(SPHERE, m, p, radius)
        assert type(got) is quadrature.RadialMoment and len(got) == 2
        assert got == (got.value, got.abs_err)


if __name__ == "__main__":
    sys.stdout.write(bench_domain_csv() if sys.argv[1:] == ["bench"] else cli_domain_csv())
