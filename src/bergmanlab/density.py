"""Density estimates, the m + rho/2 reference, and the exact sphere oracle."""

from __future__ import annotations

import math
from collections import namedtuple

from .geometry import ModelGeometry
from .quadrature import DBL_MIN, lambda0_log_tail
# Only the benchmark tracer (bench/spans.py) reads these three names: it wraps them here.
from .gram import assemble_truncated_gram, schur_i00  # noqa: F401
from .quadrature import lambda0_tail  # noqa: F401

__all__ = [
    "DensityReport",
    "SweepResult",
    "density_estimate",
    "cp1_density",
    "remainder_sweep",
    "remainder_envelope",
    "sweep_to_csv",
    "sweep_to_json",
    "CSV_HEADER",
]

DensityReport = namedtuple("DensityReport", "m rho density lo hi reference remainder budget_c")
SweepResult = namedtuple("SweepResult", "reports fitted_c decay_violations")
CSV_HEADER = ",".join(DensityReport._fields[:7])  # a CSV row is a report's first 7 fields


def remainder_envelope(m: int) -> float:
    """The expansion's remainder envelope e^(-(log m)^2 / 8)."""
    return math.exp(-math.log(m) ** 2 / 8.0)


# nextafter steps taking lo and hi past E = m + rho/2, one per rounding: float(m) above
# 2^53, m + 0.5*rho, 1 - t, the division, half and the final +-.  With t < 0.03 they move
# an end by at most 4.7 u E in all (u = 2^-53; half's budget term only widens), and each
# step from a double beyond E moves it by over 0.99 u E.  density_estimate writes the steps
# out; test_closed_form_matches_gram_route fails if the two counts part.
OUTWARD_STEPS = 6


def density_estimate(
    geom: ModelGeometry, m: int, budget_c: float, envelope: float | None = None
) -> DensityReport:
    """Density = I00 * lambda_0^2 with a propagated interval.

    The truncated sections are exactly orthonormal, so their Gram matrix is
    the identity and the corner of its inverse is I00 = 1; the budget
    budget_c * e^(-(log m)^2 / 8) on the corner entry widens I00 to
    [1, 1 + budget].  The tests check this against schur_i00 on
    assemble_truncated_gram.  The interval adds the exact gap between
    lambda_0^2 and m + rho/2, the tail of the truncated normalization
    integral, which is also the remainder.  It is taken from the tail term
    directly: the tail sits far below machine epsilon for large m, so
    density - reference would be rounding noise there.  Where t is below the
    normal range, the tail is one exp of log(m + rho/2) + log t, rounded once.
    envelope is remainder_envelope(m), formed here when not given;
    remainder_sweep passes the one it already formed for its ratio.
    """
    if not (math.isfinite(budget_c) and budget_c >= 0):
        raise ValueError(f"budget constant must be finite and nonnegative, got {budget_c!r}")
    if m < 10:
        raise ValueError("m must be >= 10")
    log_t = lambda0_log_tail(geom, m)  # first: it refuses an m past the largest double
    reference = m + 0.5 * geom.rho
    t = math.exp(log_t)  # lambda0_tail(geom, m)
    lam0_sq = reference / (1.0 - t)
    if t >= DBL_MIN:
        tail = reference * t / (1.0 - t)
    else:  # t has lost bits below the normal range; 1 - t is 1 there
        tail = math.exp(math.log(reference) + log_t)
    # (1 + budget) - 1 rounds as the Gram route's i00_hi - i00 does
    if envelope is None:
        envelope = remainder_envelope(m)
    half = ((1.0 + budget_c * envelope) - 1.0) * lam0_sq + tail
    # OUTWARD_STEPS steps for each end, written out: a loop of them cost twice as much
    step, down, up = math.nextafter, -math.inf, math.inf
    lo = step(step(step(step(step(step(lam0_sq - half, down), down), down), down), down), down)
    hi = step(step(step(step(step(step(lam0_sq + half, up), up), up), up), up), up)
    if not math.isfinite(hi):  # lo >= -hi, so lo is a double too
        raise ValueError(f"--budget-c {budget_c!r} puts the interval at m={m} beyond the doubles")
    # tuple.__new__ is the C constructor that the namedtuple's Python __new__ calls
    return tuple.__new__(DensityReport, (m, geom.rho, lam0_sq, lo, hi, reference, tail, budget_c))


def cp1_density(m: int, z: complex) -> float:
    """Exact global density on the sphere model, summed over its live window.

    Basis z^k, k = 0..m, with exact Beta-integral norms
    lambda_k^-2 = k!(m-k)!/(m+1)!.  The terms are m + 1 times the
    Binomial(m, p) mass, p = s/(1+s), so they sum to the constant m + 1
    (m + rho/2 at rho = 2): the expansion with identically zero
    remainder.  The sum is unchanged by z -> 1/z (k -> m - k), so s = |z|^2 is
    taken <= 1, which also keeps it inside the float range.

    The term at k0 = floor(m p) is evaluated in Loader's saddle-point form
    (stirlerr + bd0; C. Loader, "Fast and Accurate Computation of Binomial
    Probabilities", 2000), or as (m + 1) (1 + s)^-m at k0 = 0.  The walk
    outward multiplies by the exact ratio of neighbouring terms, s (m - k)/(k + 1)
    up and k/((m - k + 1) s) down, whose integer numerator and denominator sum to
    m + 1 at every step.

    Error bound, u = 2^-53, sigma = sqrt(m p q): the k0 term is off by at most
    10u and each step adds at most 3u, so the result is within
    (3 sigma + 14) u + 2^-64 of m + 1, relatively.  The window is k0 +- j,
    clipped at k = 0 and k = m, with j = int(L/3 + sqrt(L^2/9 + 2 L sigma^2)) + 2
    and L = 65 log 2.  Bernstein's inequality bounds the Binomial mass at
    distance x or more from m p, on each side, by exp(-x^2 / (2 (sigma^2 + x/3))),
    and j exceeds the x at which that is 2^-65 by more than 1, which covers
    k0 - m p in (-1, 0] and the rounding of x; so each side cuts less than
    2^-65 (m + 1).  The 2j + 1 <= 19 sigma + 66 terms are fixed before the walk
    starts, and a window above MAX_WINDOW terms (about 1.5 s on a 2-core Intel
    Xeon) raises ValueError, as does an m past the largest double.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    r = abs(z)
    s = (1.0 / r if r > 1.0 else r) ** 2
    try:  # m * s raises OverflowError where m passes the largest double
        var = m * s / (1.0 + s) ** 2  # sigma^2 = m p q
    except OverflowError:
        raise ValueError(f"m={m} exceeds the double range") from None
    # sqrt(L) sqrt(L/9 + 2 sigma^2) is sqrt(L^2/9 + 2 L sigma^2), finite for every double m
    j = int(_L / 3 + math.sqrt(_L) * math.sqrt(_L / 9 + 2 * var)) + 2
    if 2 * j + 1 > MAX_WINDOW:
        raise ValueError(
            f"{2 * j + 1:.1e}-term window at m={m}, |z|={r!r} exceeds {MAX_WINDOW:.3g}"
        )
    a, b = s.as_integer_ratio()  # s = a/b exactly, so p = a/(a+b) <= 1/2
    k0 = m * a // (a + b)
    if k0 == 0:
        term = (m + 1) * math.exp(-m * math.log1p(s))
    else:
        d = (k0 * (a + b) - m * a) / (a + b)  # k0 - m p in (-1, 0], correctly rounded
        term = (m + 1) * math.sqrt(m / (k0 * (m - k0)) / math.tau) * math.exp(
            _stirlerr(m) - _stirlerr(k0) - _stirlerr(m - k0) - _bd0(k0, d) - _bd0(m - k0, -d)
        )
    return math.fsum(_cp1_walk(m, s, k0, term, j))


# terms; the window at m = 1.2e12, |z| = 1 is 10_398_637, the most at any z up to that m
MAX_WINDOW = 10_400_000
_L = 65 * math.log(2)  # each side of the window cuts below 2^-65 of the sum


def _cp1_walk(m: int, s: float, k0: int, term: float, j: int):
    """Terms of cp1_density from the k0 term outward, j steps each way within 0..m.

    Each step multiplies by the ratio of neighbouring terms: one correctly
    rounded int / int division and one product or quotient with s.  The
    division's numerator and denominator sum to m + 1 on both sides, so each
    side walks one range of denominators den and divides m + 1 - den by it.
    """
    yield term
    n1 = m + 1
    t = term
    for den in range(k0 + 1, k0 + min(j, m - k0) + 1):
        t *= s * ((n1 - den) / den)  # T_{k+1} / T_k = s (m - k) / (k + 1), den = k + 1
        yield t
    t = term
    for den in range(m - k0 + 1, m - k0 + min(j, k0) + 1):
        t *= ((n1 - den) / den) / s  # T_{k-1} / T_k = k / ((m - k + 1) s), den = m - k + 1
        yield t


# stirlerr(n) for n = 1..15 from mpmath at 50 digits; above, the Stirling
# series sum of B_2j / (2j (2j - 1) n^(2j - 1)) for j = 1..7, whose first
# omitted term is below 3e-20 from n = 16 on
_STIRLERR_TABLE = (
    0.08106146679532726, 0.0413406959554093, 0.02767792568499834, 0.020790672103765093,
    0.016644691189821193, 0.013876128823070748, 0.01189670994589177, 0.010411265261972096,
    0.009255462182712733, 0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
)


def _stirlerr(n: int) -> float:
    """log(n!) - log(sqrt(2 pi n) (n/e)^n), the error of Stirling's formula, n >= 1."""
    if n <= len(_STIRLERR_TABLE):
        return _STIRLERR_TABLE[n - 1]
    x = 1.0 / n
    # Horner from j = 7 down, written out: a loop over the coefficients cost more
    return ((((((1 / 156 * x * x - 691 / 360360) * x * x + 1 / 1188) * x * x - 1 / 1680)
              * x * x + 1 / 1260) * x * x - 1 / 360) * x * x + 1 / 12) * x


def _bd0(x: int, d: float) -> float:
    """Loader's deviance term x log(x/M) + M - x at M = x - d > 0, for x >= 1.

    Near M the closed form cancels, so for |d| < (x + M) / 10 it is the series
    d v + 2x v (v^2/3 + ... + v^16/17), v = d / (x + M); the next term is
    below u/2 of the sum as v^2 < 1/100.
    """
    total = x + (x - d)
    if abs(d) >= 0.1 * total:
        return x * math.log(x / (x - d)) - d
    v = d / total
    # Horner from 1/17 down, written out as above
    series = (((((((1 / 17 * v * v + 1 / 15) * v * v + 1 / 13) * v * v + 1 / 11) * v * v
                 + 1 / 9) * v * v + 1 / 7) * v * v + 1 / 5) * v * v + 1 / 3) * v * v
    return d * v + 2.0 * x * v * series


def remainder_sweep(rho: float, m_list: list[int], budget_c: float) -> SweepResult:
    """Run density_estimate over a sweep of m and fit the remainder constant.

    fitted_c is the max-ratio estimator max |remainder| * e^((log m)^2 / 8),
    inf where the envelope underflows to 0.0 below a nonzero remainder;
    decay_violations lists the m at which the normalized remainder increased
    relative to its predecessor.
    """
    geom = ModelGeometry(rho)
    reports = []
    normalized = []
    for m in sorted(m_list):
        # 0.0 from m near 3e33, where exp underflows; m < 10 is density_estimate's to refuse
        envelope = remainder_envelope(m) if m >= 10 else None
        rep = density_estimate(geom, m, budget_c, envelope)
        reports.append(rep)
        if envelope > 0.0:
            normalized.append(abs(rep.remainder) / envelope)
        else:
            normalized.append(math.inf if rep.remainder else 0.0)
    violations = tuple(
        reports[i].m for i in range(1, len(reports)) if normalized[i] > normalized[i - 1]
    )
    fitted_c = max([0.0, *normalized])  # 0.0 for an empty sweep
    return SweepResult(reports=tuple(reports), fitted_c=fitted_c, decay_violations=violations)


def sweep_to_csv(result: SweepResult) -> str:
    rho = repr(result.reports[0].rho) if result.reports else ""  # one rho per sweep
    rows = [CSV_HEADER]
    for m, _, density, lo, hi, reference, remainder, _ in result.reports:
        text = repr(density)
        # from about m = 450, 1 - t rounds to 1 and the density is the reference's double;
        # a zero is excluded, as 0.0 == -0.0 while their reprs differ
        ref = text if reference == density and density else repr(reference)
        rows.append(f"{m!r},{rho},{text},{lo!r},{hi!r},{ref},{remainder!r}")
    return "\n".join(rows) + "\n"


def sweep_to_json(result: SweepResult) -> str:
    import json  # only --format json needs it; importing json costs a cold start

    payload = {
        # JSON has no infinity; "inf" matches the fitted_C = inf line of the sweep command
        "fitted_c": result.fitted_c if math.isfinite(result.fitted_c) else "inf",
        "decay_violations": list(result.decay_violations),
        "reports": [rep._asdict() for rep in result.reports],
    }
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
