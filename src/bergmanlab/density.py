"""Density estimates, the m + rho/2 reference, and the exact sphere oracle."""

from __future__ import annotations

import json
import math
import operator
from dataclasses import asdict, dataclass

from .geometry import ModelGeometry
# The benchmark tracer (bench/spans.py) wraps these two names on this module.
from .gram import assemble_truncated_gram, schur_i00  # noqa: F401
from .quadrature import lambda0_tail

__all__ = [
    "DensityReport",
    "SweepResult",
    "expansion_reference",
    "density_estimate",
    "cp1_density",
    "remainder_sweep",
    "remainder_envelope",
    "sweep_to_csv",
    "sweep_to_json",
    "CSV_HEADER",
]

CSV_HEADER = "m,rho,density,lo,hi,reference,remainder"
_CSV_FIELDS = operator.attrgetter(*CSV_HEADER.split(","))
# exp underflows to 0.0 below -745.13; 55 more units of log clear the O(m eps) lgamma rounding
LOG_FLOOR = -800.0


def expansion_reference(m: int, rho: float) -> float:
    """Leading terms of the density expansion: m + rho/2, exact arithmetic."""
    return m + 0.5 * rho


def remainder_envelope(m: int) -> float:
    """The expansion's remainder envelope e^(-(log m)^2 / 8)."""
    return math.exp(-math.log(m) ** 2 / 8.0)


@dataclass(frozen=True)
class DensityReport:
    m: int
    rho: float
    density: float
    lo: float
    hi: float
    reference: float
    remainder: float
    budget_c: float


@dataclass(frozen=True)
class SweepResult:
    reports: tuple[DensityReport, ...]
    fitted_c: float
    decay_violations: tuple[int, ...]


def density_estimate(geom: ModelGeometry, m: int, budget_c: float) -> DensityReport:
    """Density = I00 * lambda_0^2 with a propagated interval.

    The truncated sections are exactly orthonormal, so their Gram matrix is
    the identity and the corner of its inverse is I00 = 1; the budget
    budget_c * e^(-(log m)^2 / 8) on the corner entry widens I00 to
    [1, 1 + budget].  The tests check this against schur_i00 on
    assemble_truncated_gram.  The interval adds the exact gap between
    lambda_0^2 and m + rho/2, the tail of the truncated normalization
    integral, which is also the remainder.  It is taken from the tail term
    directly: the tail sits far below machine epsilon for large m, so
    density - reference would be rounding noise there.
    """
    if not (math.isfinite(budget_c) and budget_c >= 0):
        raise ValueError(f"budget constant must be finite and nonnegative, got {budget_c!r}")
    if m < 10:
        raise ValueError("m must be >= 10")
    reference = expansion_reference(m, geom.rho)
    t = lambda0_tail(geom, m)
    lam0_sq = reference / (1.0 - t)
    tail = reference * t / (1.0 - t)
    # (1 + budget) - 1 rounds as the Gram route's i00_hi - i00 does
    half = ((1.0 + budget_c * remainder_envelope(m)) - 1.0) * lam0_sq + tail
    return DensityReport(
        m=m,
        rho=geom.rho,
        density=lam0_sq,
        lo=lam0_sq - half,
        hi=lam0_sq + half,
        reference=reference,
        remainder=tail,
        budget_c=budget_c,
    )


def cp1_density(m: int, z: complex) -> float:
    """Exact global density on the sphere model, summed over its live window.

    Basis z^k, k = 0..m, with exact Beta-integral norms
    lambda_k^-2 = k!(m-k)!/(m+1)!; each term is evaluated in log space.  The
    analytic simplification is the constant m + 1 (equivalently
    expansion_reference(m, 2)); the term sum must reproduce it, realizing the
    expansion with identically zero remainder.

    The terms are m + 1 times a Binomial(m, s/(1+s)) mass, s = |z|^2, so their
    log is concave in k.  The sum starts at the binomial mode and walks
    outward on each side until the first log-term below LOG_FLOOR.  Near the
    floor one step of k changes the log-term by far more than the O(m eps)
    rounding of the lgamma expression, so every term beyond it has a log
    below exp's underflow at -745.13 and is exactly 0.0.  fsum is exactly
    rounded, so the window's sum equals the sum over all k = 0..m bit for bit.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    try:
        s = abs(z) ** 2
    except OverflowError:
        # |z|^2 exceeds the float range, where log1p(s) rounds to log(s)
        log_s = log_w = 2.0 * math.log(abs(z))
        mode = m
    else:
        if s == 0.0:
            return float(m + 1)
        log_s = math.log(s)
        log_w = math.log1p(s)
        mode = min(m, int((m + 1) * (s / (1 + s))))
    return math.fsum(_cp1_window_terms(m, log_s, log_w, mode))


def _cp1_window_terms(m: int, log_s: float, log_w: float, mode: int):
    """Terms of cp1_density from the mode outward, each side cut at LOG_FLOOR."""
    lgamma_m2 = math.lgamma(m + 2)
    m_log_w = m * log_w
    for side in (range(mode, m + 1), range(mode - 1, -1, -1)):
        for k in side:
            log_term = (
                lgamma_m2 - math.lgamma(k + 1) - math.lgamma(m - k + 1) + k * log_s - m_log_w
            )
            if log_term < LOG_FLOOR:
                break
            yield math.exp(log_term)


def remainder_sweep(rho: float, m_list: list[int], budget_c: float) -> SweepResult:
    """Run density_estimate over a sweep of m and fit the remainder constant.

    fitted_c is the max-ratio estimator max |remainder| * e^((log m)^2 / 8),
    inf where the envelope underflows to 0.0 below a nonzero remainder;
    decay_violations lists the m at which the normalized remainder increased
    relative to its predecessor.
    """
    geom = ModelGeometry(rho)
    reports = tuple(density_estimate(geom, m, budget_c) for m in sorted(m_list))
    fitted_c = 0.0
    normalized = []
    for rep in reports:
        envelope = remainder_envelope(rep.m)  # 0.0 from m near 3e33, where exp underflows
        if envelope > 0.0:
            ratio = abs(rep.remainder) / envelope
        else:
            ratio = math.inf if rep.remainder else 0.0
        normalized.append(ratio)
        fitted_c = max(fitted_c, ratio)
    violations = tuple(
        reports[i].m for i in range(1, len(reports)) if normalized[i] > normalized[i - 1]
    )
    return SweepResult(reports=reports, fitted_c=fitted_c, decay_violations=violations)


def sweep_to_csv(result: SweepResult) -> str:
    lines = [CSV_HEADER]
    lines.extend(",".join(map(repr, _CSV_FIELDS(rep))) for rep in result.reports)
    return "\n".join(lines) + "\n"


def sweep_to_json(result: SweepResult) -> str:
    payload = {
        "fitted_c": result.fitted_c,
        "decay_violations": list(result.decay_violations),
        "reports": [asdict(rep) for rep in result.reports],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
