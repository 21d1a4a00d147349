"""Independent references and the per-op checks of every workload.

References are closed forms evaluated with mpmath at ``DIGITS`` significant
digits, never with bergmanlab code.  They run in the parent process, outside
every timed region.  The checks here decide, for one op, whether it stayed
within the workload's tolerance, whether its own certificate (sweep interval,
moment error bar) contains the exact value, and its relative error.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

import mpmath

DIGITS = 50
DBL_MIN = sys.float_info.min  # smallest normal double

SWEEP_TOL = 1e-10
MOMENT_TOL = 1e-10  # 100 x the default rel_tol, as `verify` applies
ORACLE_TOL = 1e-9  # as acceptance criterion 1 and `verify` apply
COARSE_TOL = 1e-3  # sanity gate for `correct`; far above every known defect

SWEEP_HEADER = "m,rho,density,lo,hi,reference,remainder"
VERIFY_SUITES = (
    "ode_residuals",
    "eta_bounds",
    "psi_hessian",
    "quadrature_vs_closed_form",
    "schur_vs_inverse",
    "cp1_constancy",
)
_VERIFY_LINE = re.compile(r"^(PASS|FLAG|FAIL) (\w+): (.*)$")
_VERIFY_REL_DEV = re.compile(r"rel dev(?: from m\+1:)? ([-+0-9.eE]+)")


@dataclass(frozen=True)
class Verdict:
    """Outcome of one op against its reference.

    ``completed`` is false when the op raised, exited 2 or could not be
    parsed.  ``cert_ok`` is None when the op carries no certificate.
    """

    completed: bool
    within_tol: bool
    cert_ok: bool | None
    rel_err: float


FAILED = Verdict(completed=False, within_tol=False, cert_ok=False, rel_err=math.inf)


def rel_err(computed: float, exact) -> float:
    """|computed - exact| / max(|exact|, DBL_MIN), evaluated in mpmath.

    Below the normal range the denominator is floored at the smallest normal
    double, so a subnormal or vanishing exact value is checked by absolute
    error rather than by a relative error that would lose its meaning.
    """
    if not math.isfinite(computed):
        return math.inf
    with mpmath.workdps(DIGITS):
        exact = mpmath.mpf(exact)
        return float(abs(mpmath.mpf(computed) - exact) / max(abs(exact), DBL_MIN))


# --- sweep -----------------------------------------------------------------


def exact_tail(rho: float, m: int):
    """T = (1 + rho (log m)^2 / 2m)^(-1 - 2m/rho), or e^(-(log m)^2) at rho = 0."""
    with mpmath.workdps(DIGITS):
        log_m = mpmath.log(m)
        if rho == 0.0:
            return +mpmath.exp(-log_m * log_m)
        r = mpmath.mpf(rho)
        return +mpmath.power(1 + r * log_m * log_m / (2 * m), -1 - 2 * m / r)


def sweep_reference(rho: float, m: int):
    """(exact m + rho/2 as a Fraction, density reference, remainder reference)."""
    exact = Fraction(m) + Fraction(rho) / 2
    with mpmath.workdps(DIGITS):
        t = exact_tail(rho, m)
        base = mpmath.mpf(m) + mpmath.mpf(rho) / 2
        return exact, base / (1 - t), base * t / (1 - t)


def check_sweep_row(fields: list[str], rho: float, m: int, ref) -> Verdict:
    """Check one CSV row ``m,rho,density,lo,hi,reference,remainder``."""
    exact, density_ref, remainder_ref = ref
    try:
        row_m = int(fields[0])
        row_rho, density, lo, hi, _, remainder = (float(f) for f in fields[1:])
    except ValueError:
        return FAILED
    if row_m != m or row_rho != rho:
        return FAILED
    if not all(math.isfinite(v) for v in (density, lo, hi, remainder)):
        return FAILED
    err = max(rel_err(density, density_ref), rel_err(remainder, remainder_ref))
    cert_ok = Fraction(lo) <= exact <= Fraction(hi)
    return Verdict(True, err <= SWEEP_TOL, cert_ok, err)


def check_sweep_output(rc, text: str | None, rho: float, ms: list[int], refs) -> list[Verdict]:
    """Verdicts for every m of one `sweep` call; an unusable call fails them all."""
    if rc != 0 or text is None:
        return [FAILED] * len(ms)
    lines = text.splitlines()
    if not lines or lines[0] != SWEEP_HEADER or len(lines) != len(ms) + 1:
        return [FAILED] * len(ms)
    return [
        check_sweep_row(line.split(","), rho, m, ref)
        for line, m, ref in zip(lines[1:], ms, refs)
    ]


# --- moments ---------------------------------------------------------------


def moment_reference(rho: float, m: int, p: int):
    """Exact 2 * int_0^R r^(2p+1) a^m g dr over R = log(m)/sqrt(m).

    With R^2 = (log m)^2 / m, c = 2/|rho| and U = |rho| R^2 / 2:
    rho = 0 gives gamma(p+1, m R^2) / m^(p+1); rho < 0 gives
    c^(p+1) B(U; p+1, 2m/|rho| - 1); rho > 0 gives
    c^(p+1) B(U/(1+U); p+1, 2m/rho + 1 - p), with B the unregularized
    incomplete beta function.
    """
    with mpmath.workdps(DIGITS):
        log_m = mpmath.log(m)
        r_sq = log_m * log_m / m
        if rho == 0.0:
            return mpmath.gammainc(p + 1, 0, m * r_sq) / mpmath.mpf(m) ** (p + 1)
        r = abs(mpmath.mpf(rho))
        c = 2 / r
        u = r * r_sq / 2
        if rho < 0:
            return c ** (p + 1) * mpmath.betainc(p + 1, 2 * m / r - 1, 0, u)
        return c ** (p + 1) * mpmath.betainc(p + 1, 2 * m / r + 1 - p, 0, u / (1 + u))


def check_moment(result, ref) -> Verdict:
    """``result`` is ``[value, abs_err]`` from lambda_inv_sq, or a failure string."""
    if not isinstance(result, list) or len(result) != 2:
        return FAILED
    value, abs_err = result
    if not (math.isfinite(value) and math.isfinite(abs_err)):
        return FAILED
    err = rel_err(value, ref)
    with mpmath.workdps(DIGITS):
        cert_ok = bool(abs(mpmath.mpf(value) - ref) <= abs_err)
    return Verdict(True, err <= MOMENT_TOL, cert_ok, err)


# --- oracle ----------------------------------------------------------------


def check_oracle(result, m: int) -> Verdict:
    """The exact sphere density is m + 1 at every z."""
    if not isinstance(result, float) or not math.isfinite(result):
        return FAILED
    err = rel_err(result, m + 1)
    return Verdict(True, err <= ORACLE_TOL, None, err)


# --- verify ----------------------------------------------------------------


def check_verify(rc, text: str | None) -> Verdict:
    """One `verify` run: six suite lines, no FAIL and exit code 0.

    FLAG is not a failure.  The relative error is the largest relative
    deviation the suites report against their own references (closed forms,
    the LU and Cholesky routes, and m + 1).
    """
    if not isinstance(rc, int) or rc not in (0, 1) or text is None:
        return FAILED
    statuses = {}
    worst = 0.0
    for line in text.splitlines():
        match = _VERIFY_LINE.match(line)
        if match is None:
            continue
        statuses[match.group(2)] = match.group(1)
        dev = _VERIFY_REL_DEV.search(match.group(3))
        if dev is not None:
            worst = max(worst, float(dev.group(1)))
    if tuple(statuses) != VERIFY_SUITES or (rc == 0) == ("FAIL" in statuses.values()):
        return FAILED
    return Verdict(True, rc == 0, None, worst)
