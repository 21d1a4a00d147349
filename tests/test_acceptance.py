"""Acceptance gate: one test per criterion, each printing a pass/fail line."""

import math
import random
import time

import mpmath
import numpy as np
import pytest

from bergmanlab import cli, density, geometry, gram, quadrature
from bergmanlab.cutoff import C1_PROFILE, psi_hessian_bound_check
from bergmanlab.geometry import (
    ModelGeometry,
    curvature_residual,
    log_bundle_weight,
    log_metric_density,
    polar_ode_residual,
)
from bergmanlab.gram import max_route_deviation
from bergmanlab.quadrature import (
    lambda0_closed_form,
    lambda0_tail,
    lambda_inv_sq,
    truncation_radius,
)

M_GRID = sorted({int(round(v)) for v in np.logspace(2, 6, 10)})
RHO_GRID = (-2.0, -1.0, 0.0, 2.0)


def report(number, ok, detail):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_criterion_1_cp1_exactness():
    start = time.monotonic()
    rng = random.Random(1)
    worst = 0.0
    for m in range(1, 65):
        for _ in range(20):
            r = rng.uniform(0.0, 3.0)
            theta = rng.uniform(0.0, 2.0 * math.pi)
            z = complex(r * math.cos(theta), r * math.sin(theta))
            dev = abs(density.cp1_density(m, z) - (m + 1)) / (m + 1)
            worst = max(worst, dev)
    elapsed = time.monotonic() - start
    report(
        1,
        worst <= 1e-9 and elapsed <= 5.0,
        f"max rel dev {worst:.3e} <= 1e-9, runtime {elapsed:.2f}s <= 5s",
    )


def test_criterion_2_quadrature_vs_closed_form():
    start = time.monotonic()
    worst = 0.0
    for rho in RHO_GRID:
        geom = ModelGeometry(rho)
        for m in M_GRID:
            closed = lambda0_closed_form(geom, m)
            numeric = lambda_inv_sq(geom, m, 0, truncation_radius(m)).value
            worst = max(worst, abs(numeric - closed) / closed)
    elapsed = time.monotonic() - start
    report(
        2,
        worst <= 1e-10 and elapsed <= 10.0,
        f"max rel dev {worst:.3e} <= 1e-10, runtime {elapsed:.2f}s <= 10s",
    )


def normalization_gap_by_integration(rho, m):
    """(m + rho/2) * integral of 2r a^m g over [log m / sqrt m, max radius).

    Integrated with mpmath at 40 digits, independently of the closed form.
    With s = m r^2 - (log m)^2 the measure 2r dr becomes ds/m, and the
    integrand is scaled by e^((log m)^2) so that it is of order one: mpmath's
    error control is absolute, and the bare integrand sits below 1e-40 from
    m ~ 1e4 on.
    """
    with mpmath.workdps(40):
        rho_mp = mpmath.mpf(rho)
        lsq = mpmath.log(m) ** 2
        if rho == 0.0:
            top = mpmath.inf

            def scaled(s):
                return mpmath.exp(-s)

        else:
            # a^m g = (1 + rho r^2 / 2)^(-2m/rho - 2)
            top = mpmath.inf if rho > 0 else -2 * m / rho_mp - lsq

            def scaled(s):
                u = 1 + rho_mp * (s + lsq) / (2 * m)
                if u <= 0:  # a quadrature node rounded onto the disk's edge
                    return 0
                return mpmath.exp((-2 * m / rho_mp - 2) * mpmath.log(u) + lsq)

        return (m + rho_mp / 2) / m * mpmath.quad(scaled, [0, top]) * mpmath.exp(-lsq)


@pytest.mark.parametrize("rho", RHO_GRID)
def test_criterion_3_normalization_tail_envelope(rho):
    # |lambda0^-2 (m + rho/2) - 1| equals the truncation tail
    # T = (1 + rho L^2/2m)^(-1 - 2m/rho), L = log m (e^(-L^2) at rho=0).  It is
    # taken from lambda0_tail because for m >~ 500 it drops below machine
    # epsilon and a float subtraction would be rounding noise; (a) checks it
    # against an independent integral.  For rho > 0, log(1+x) >= x - x^2/2
    # gives T e^(L^2) <= e^(rho L^4/4m): the constant 2 of the envelope holds
    # only from m ~ 3000 on at rho=2 (T e^(L^2) is 5.94 at m=100), so below
    # that the closed-form factor is the bound.  For rho <= 0 that factor is 1
    # and the envelope is the constant alone.
    geom = ModelGeometry(rho)
    const = 2.0 if rho != 0.0 else 1.0
    worst = (0.0, None, None, None)  # (ratio / bound, ratio, bound, m)
    worst_dev = 0.0
    for m in M_GRID:
        log_m = math.log(m)
        gap = lambda0_tail(geom, m)
        # (a) exact tail
        exact = normalization_gap_by_integration(rho, m)
        worst_dev = max(worst_dev, float(abs(gap - exact) / exact))
        # (b) envelope
        ratio = gap / math.exp(-log_m * log_m)
        bound = max(const, math.exp(max(rho, 0.0) * log_m**4 / (4 * m)))
        if ratio / bound > worst[0]:
            worst = (ratio / bound, ratio, bound, m)
    # (c) rate constant at the top of the grid
    top_dev = abs(ratio - 1.0)
    report(
        3,
        worst_dev <= 1e-10 and worst[0] <= 1.0 + 1e-12 and top_dev <= 0.05,
        f"rho={rho}: worst T e^(L^2) {worst[1]:.3f} at m={worst[3]} against "
        f"bound {worst[2]:.3f}, max rel dev from mpmath gap {worst_dev:.1e} "
        f"<= 1e-10, |T e^(L^2) - 1| {top_dev:.3f} <= 0.05 at m={M_GRID[-1]}",
    )


@pytest.mark.parametrize("rho", (-2.0, 0.0, 2.0))
def test_criterion_4_expansion_envelope(rho):
    sweep = sorted({int(round(v)) for v in np.logspace(1, 6, 26)})
    worst = 0.0
    for m in sweep:
        rep = density.density_estimate(ModelGeometry(rho), m, 0.0)
        worst = max(worst, abs(rep.remainder) / density.remainder_envelope(m))
    report(4, worst <= 1.0, f"rho={rho}: max remainder/envelope {worst:.3e} <= 1")


def test_criterion_5_schur_identity():
    # the Schur, LU and Cholesky routes on 1000 random Hermitian positive-definite matrices
    worst = max_route_deviation(42, 1000)
    report(5, worst <= 1e-10, f"max pairwise rel dev {worst:.3e} <= 1e-10 (1000 matrices)")


def test_criterion_6_model_residuals():
    rng = random.Random(6)
    pts = []
    for rho in (-2.0, 0.0, 2.0):
        geom = ModelGeometry(rho)
        for _ in range(20):
            r = rng.uniform(0.05, 0.6)
            theta = rng.uniform(0.0, 2.0 * math.pi)
            pts.append(("lap", geom, complex(r * math.cos(theta), r * math.sin(theta))))
    sphere = ModelGeometry(2.0)
    for _ in range(40):
        pts.append(("polar", sphere, rng.uniform(0.35, 0.65)))
    assert len(pts) == 100

    def max_res(h):
        worst = 0.0
        for kind, geom, point in pts:
            if kind == "lap":
                worst = max(worst, abs(curvature_residual(geom, point, h)))
            else:
                worst = max(worst, abs(polar_ode_residual(geom, point, h)))
        return worst

    coarse = max_res(1e-3)
    fine = max_res(5e-4)
    order = math.log2(coarse / fine)
    report(
        6,
        coarse <= 1e-5 and 1.7 <= order <= 2.3,
        f"max residual {coarse:.3e} <= 1e-5 at h=1e-3, observed order {order:.2f}",
    )


def test_criterion_7_cutoff_constraints():
    max_d1 = max_d2 = 0.0
    monotone = True
    for i in range(10_000):
        t = 1.2 * (i + 0.5) / 10_000
        d1 = C1_PROFILE.eta_d1(t)
        monotone = monotone and -d1 >= -1e-9
        max_d1 = max(max_d1, -d1)
        max_d2 = max(max_d2, abs(C1_PROFILE.eta_d2(t)))
    report(
        7,
        monotone and max_d1 <= 4.0 + 1e-9 and max_d2 <= 8.0 + 1e-9,
        f"0 <= -eta' <= {max_d1:.3f} <= 4, |eta''| <= {max_d2:.3f} <= 8",
    )


def test_criterion_8_weight_hessian_bound():
    worst = math.inf
    for m, p_prime in ((10**3, 2), (10**4, 2), (10**4, 3)):
        margin = psi_hessian_bound_check(m, p_prime, C1_PROFILE)
        assert margin >= 0.0  # form-normalized bound (with the 2 pi)
        # plain bound as stated by the gate: -100 m (1+2p')/(log m)^2 * g
        worst = min(worst, margin)
    report(8, worst >= 0.0, f"min margin over (m, p') pairs: {worst:.3e} >= 0")


def test_criterion_9_moment_symmetry():
    geom = ModelGeometry(-2.0)
    m = 50
    R = truncation_radius(m)
    deg = 7
    # all moments (1/pi) int_{|z|<R} z^alpha zbar^beta a^m g dx dy by a 2-D
    # midpoint rule whose grid is shifted off every symmetry axis, so that no
    # cancellation of the off-diagonal sums is exact; a^m g = (1 - r^2)^(m - 2) at rho = -2
    n = 1500
    h = 2 * R / n
    x = -R + (np.arange(n) + 0.3141) * h
    y = -R + (np.arange(n) + 0.2718) * h
    grid = np.zeros((deg, deg), dtype=complex)
    for rows in np.array_split(np.arange(n), 15):
        z = (x[None, :] + 1j * y[rows, None]).ravel()
        z = z[np.abs(z) < R]
        weight = (1.0 - np.abs(z) ** 2) ** (m - 2)
        powers = np.vander(z, deg, increasing=True).T
        grid += powers @ (powers.conj() * weight).T
    grid *= h * h / math.pi
    diag = grid.diagonal().real
    off = max(
        abs(grid[a, b]) / math.sqrt(diag[a] * diag[b])
        for a in range(deg)
        for b in range(deg)
        if a != b
    )
    # the grid resolves the diagonal, so its small off-diagonal is not a vacuous 0
    grid_diag = max(abs(diag[a] / lambda_inv_sq(geom, m, a, R).value - 1.0) for a in range(deg))
    # diagonal moments against an independent fine-grid trapezoid oracle
    r = np.linspace(0.0, R, 200_001)
    mask = r > 0
    rm = r[mask]
    weight = np.exp(
        np.array([m * log_bundle_weight(geom, ri) + log_metric_density(geom, ri) for ri in rm])
    )
    worst = 0.0
    for alpha in range(deg):
        f = np.zeros_like(r)
        f[mask] = 2.0 * rm ** (2 * alpha + 1) * weight
        oracle = float(np.trapezoid(f, r))
        val = lambda_inv_sq(geom, m, alpha, R).value
        worst = max(worst, abs(val - oracle) / oracle)
    ok = off <= 1e-6 and grid_diag <= 1e-6 and worst <= 1e-9
    report(
        9,
        ok,
        f"off-diagonal / diagonal scale {off:.1e} <= 1e-6 (2-D grid diagonal {grid_diag:.1e} "
        f"<= 1e-6); diagonal vs trapezoid {worst:.3e} <= 1e-9",
    )


def test_criterion_10_peak_norm_bound():
    ms = sorted({int(round(v)) for v in np.logspace(2, 5, 10)})
    worst_var = 0.0
    sup = 0.0
    for rho in (-2.0, 0.0, 2.0):
        geom = ModelGeometry(rho)
        for p in (0, 1, 2):
            ratios = [
                1 / (lambda_inv_sq(geom, m, p, truncation_radius(m)).value * float(m) ** (1 + p))
                for m in ms
            ]
            assert all(math.isfinite(r) and r > 0.0 for r in ratios)
            top = [r for m, r in zip(ms, ratios) if m * 10 >= ms[-1]]
            worst_var = max(worst_var, (max(top) - min(top)) / max(top))
            sup = max(sup, max(ratios))
    report(
        10,
        worst_var <= 0.10,
        f"empirical C2 = {sup:.3f}, top-decade variation {worst_var:.3%} <= 10%",
    )


def test_criterion_11_determinism(tmp_path):
    args = [
        "sweep", "--rho", "-2", "--m-range", "100:10000", "--points", "5",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    identical = a.read_bytes() == b.read_bytes()
    report(11, identical, "two identical sweep configs produced byte-identical CSV")
