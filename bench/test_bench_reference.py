"""Self-checks of the benchmark's references and per-op checks.

Run with ``python3 -m pytest bench`` from the repository root.
"""

from __future__ import annotations

import math
import os
import sys
from fractions import Fraction

import mpmath
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from bergmanlab import geometry, quadrature  # noqa: E402


@pytest.mark.parametrize("rho", [-2.0, -1.0, 0.0, 0.75, 2.0])
@pytest.mark.parametrize("m", [100, 10_000, 10**6])
def test_p0_reference_matches_closed_form(rho, m):
    closed = quadrature.lambda0_closed_form(geometry.ModelGeometry(rho), m)
    ref = reference.moment_reference(rho, m, 0)
    assert reference.rel_err(closed, ref) < 1e-13


@pytest.mark.parametrize("rho", [-2.0, -0.5, 0.0, 1.5])
@pytest.mark.parametrize("m, p", [(20, 0), (20, 3), (100, 1), (100, 6)])
def test_moment_reference_matches_direct_integral(rho, m, p):
    with mpmath.workdps(30):
        radius = mpmath.log(m) / mpmath.sqrt(m)
        r_rho = mpmath.mpf(rho)

        def integrand(r):
            if rho == 0.0:
                return 2 * r ** (2 * p + 1) * mpmath.exp(-m * r * r)
            base = 1 + r_rho * r * r / 2
            return 2 * r ** (2 * p + 1) * base ** (-2 * m / r_rho) * base**-2

        direct = mpmath.quad(integrand, [0, radius / 2, radius])
        assert abs(direct - reference.moment_reference(rho, m, p)) / direct < mpmath.mpf(10) ** -25


@pytest.mark.parametrize("rho", [-2.0, -1.0, 0.0, 2.0, 0.3])
@pytest.mark.parametrize("m", [10, 1000, 10**6])
def test_exact_tail_matches_lambda0_tail(rho, m):
    tail = quadrature.lambda0_tail(geometry.ModelGeometry(rho), m)
    assert reference.rel_err(tail, reference.exact_tail(rho, m)) < 1e-12


def _row(m, rho, density, lo, hi, remainder):
    return [str(m), repr(rho), repr(density), repr(lo), repr(hi), repr(m + 0.5 * rho), repr(remainder)]


def test_containment_uses_exact_m_plus_half_rho():
    # at m = 1e18, rho = -2 the interval [1e18, 1e18] misses the exact 1e18 - 1
    m, rho = 10**18, -2.0
    ref = reference.sweep_reference(rho, m)
    assert ref[0] == Fraction(m - 1)
    collapsed = reference.check_sweep_row(_row(m, rho, 1e18, 1e18, 1e18, 0.0), rho, m, ref)
    assert collapsed.completed and collapsed.within_tol and collapsed.cert_ok is False
    widened = reference.check_sweep_row(
        _row(m, rho, 1e18, math.nextafter(1e18, 0.0), 1e18, 0.0), rho, m, ref
    )
    assert widened.cert_ok is True


def test_underflow_is_checked_by_absolute_error():
    m, rho = 10**12, 0.0  # exact remainder about 1e-318, below the smallest normal double
    exact, _, remainder_ref = reference.sweep_reference(rho, m)
    assert remainder_ref < reference.DBL_MIN
    density = float(exact)
    zero = reference.check_sweep_row(_row(m, rho, density, density - 1, density + 1, 0.0), rho, m,
                                     (exact, mpmath.mpf(density), remainder_ref))
    assert zero.within_tol and zero.rel_err == float(remainder_ref / reference.DBL_MIN)
    far = reference.check_sweep_row(_row(m, rho, density, density - 1, density + 1, 1e-310), rho, m,
                                    (exact, mpmath.mpf(density), remainder_ref))
    assert not far.within_tol


def test_normal_remainder_is_checked_relatively():
    m, rho = 556954090580, 0.0
    exact, density_ref, remainder_ref = reference.sweep_reference(rho, m)
    assert remainder_ref > reference.DBL_MIN
    off = float(remainder_ref) * (1 + 1e-6)
    verdict = reference.check_sweep_row(
        _row(m, rho, float(density_ref), float(exact), float(exact), off), rho, m,
        (exact, density_ref, remainder_ref),
    )
    assert verdict.completed and not verdict.within_tol and verdict.cert_ok
    assert verdict.rel_err == pytest.approx(1e-6, rel=1e-3)


def test_malformed_sweep_output_fails_every_row():
    ms = [10, 20]
    refs = [reference.sweep_reference(0.0, m) for m in ms]
    assert reference.check_sweep_output(2, None, 0.0, ms, refs) == [reference.FAILED] * 2
    header_only = reference.SWEEP_HEADER + "\n"
    assert reference.check_sweep_output(0, header_only, 0.0, ms, refs) == [reference.FAILED] * 2


def test_moment_certificate_is_containment():
    ref = mpmath.mpf(1) / 3
    inside = reference.check_moment([1 / 3, 1e-16], ref)
    outside = reference.check_moment([1 / 3 + 1e-9, 1e-13], ref)
    assert inside.cert_ok and inside.within_tol
    assert outside.cert_ok is False and not outside.within_tol


def test_verify_check_counts_fail_but_not_flag():
    lines = [f"PASS {name}: max rel dev 1e-15 (tol 1e-10)" for name in reference.VERIFY_SUITES]
    lines[1] = "FLAG eta_bounds: documented variant"
    assert reference.check_verify(0, "\n".join(lines)).within_tol
    lines[0] = "FAIL ode_residuals: max residual 1 (tol 1e-5)"
    assert not reference.check_verify(1, "\n".join(lines)).within_tol
    assert not reference.check_verify(0, "\n".join(lines)).completed


def test_inputs_depend_only_on_seed():
    for workload in run.WORKLOADS.values():
        assert workload.make_inputs(3) == workload.make_inputs(3)
        assert workload.make_inputs(3) != workload.make_inputs(4)
    for group in workloads.sweep_inputs(5)["groups"]:
        assert group["m"] == sorted(set(group["m"]))
        assert 10 <= group["m"][0] and group["m"][-1] <= 10**18


def test_chunks_cover_every_call_in_order():
    import child

    assert child.chunk([0.01, 0.015, 0.3, 0.001]) == [(0, 2), (2, 3), (3, 4)]
    assert child.chunk([0.001]) == [(0, 1)]
