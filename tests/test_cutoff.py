import math

import mpmath
import pytest

from bergmanlab.cutoff import (
    C1_PROFILE,
    RADIAL_POINTS,
    SMOOTH_PROFILE,
    get_profile,
    psi_hessian_bound_check,
)
from bergmanlab.geometry import ModelGeometry, metric_density, mixed_derivative


SAMPLES = [1.2 * (i + 0.5) / 10_000 for i in range(10_000)]


def test_eta_plateau_values():
    for profile in (C1_PROFILE, SMOOTH_PROFILE):
        assert profile.eta(0.3) == 1.0
        assert profile.eta(0.0) == 1.0
        assert profile.eta(1.5) == 0.0
        assert profile.eta(1.0) == 0.0


def test_eta_transition_midpoint():
    assert C1_PROFILE.eta(0.75) == pytest.approx(0.5, abs=1e-15)
    assert SMOOTH_PROFILE.eta(0.75) == pytest.approx(0.5, abs=1e-15)


def test_eta_symmetry_c1():
    for i in range(200):
        t = 0.5 + 0.5 * (i + 0.5) / 200
        assert C1_PROFILE.eta(t) + C1_PROFILE.eta(1.5 - t) == pytest.approx(1.0, abs=1e-12)


def test_eta_monotone():
    for profile in (C1_PROFILE, SMOOTH_PROFILE):
        prev = 1.0
        for i in range(1000):
            t = 1.2 * i / 999
            val = profile.eta(t)
            assert val <= prev + 1e-15
            prev = val


def test_eta_derivative_bounds_c1():
    for t in SAMPLES:
        d1 = C1_PROFILE.eta_d1(t)
        assert -1e-9 <= -d1 <= 4.0 + 1e-9
        assert abs(C1_PROFILE.eta_d2(t)) <= 8.0 + 1e-9


def test_eta_derivative_bounds_smooth():
    for t in SAMPLES:
        d1 = SMOOTH_PROFILE.eta_d1(t)
        assert -1e-9 <= -d1 <= 4.0 + 1e-9
        assert abs(SMOOTH_PROFILE.eta_d2(t)) <= 24.0 + 1e-9


def test_eta_derivatives_consistent():
    # eta' and eta'' agree with finite differences of eta inside the transition.
    h = 1e-6
    for profile in (C1_PROFILE, SMOOTH_PROFILE):
        for t in (0.6, 0.7, 0.8, 0.9):
            fd1 = (profile.eta(t + h) - profile.eta(t - h)) / (2 * h)
            fd2 = (profile.eta(t + h) - 2 * profile.eta(t) + profile.eta(t - h)) / h**2
            assert fd1 == pytest.approx(profile.eta_d1(t), abs=1e-5)
            assert fd2 == pytest.approx(profile.eta_d2(t), abs=1e-3)


def test_get_profile():
    assert get_profile("c1") is C1_PROFILE
    assert get_profile("smooth") is SMOOTH_PROFILE
    with pytest.raises(ValueError):
        get_profile("c2")


def _t_grid():
    # psi_hessian_bound_check's transition annulus, and samples of the plateau and the
    # outer region, where the check takes the flat-region bound -coeff instead
    t_values = [0.12, 0.25, 0.40, 1.05, 1.15, 1.30]
    return t_values + [
        0.52 + (0.98 - 0.52) * i / (RADIAL_POINTS - 1) for i in range(RADIAL_POINTS)
    ]


def _mpmath_margin(profile, m, p_prime):
    """kappa (psi' + t psi'') - coeff g at 40 digits, psi(t) = (1+2p') eta(t) log t."""
    with mpmath.workdps(40):
        log_m = mpmath.log(m)
        kappa = m / log_m**2
        coeff = -100 * kappa * (1 + 2 * p_prime) / (2 * mpmath.pi)
        # the profiles' eta is polynomial arithmetic, so it evaluates in mpf
        psi = lambda t: (1 + 2 * p_prime) * profile.eta(t) * mpmath.log(t)
        worst = mpmath.inf
        for t in _t_grid():
            t = mpmath.mpf(t)
            d1, d2 = mpmath.diff(psi, t, 1), mpmath.diff(psi, t, 2)
            g = (1 - log_m**2 * t / m) ** -2  # (1 + rho r^2 / 2)^-2 at rho = -2
            worst = min(worst, kappa * (d1 + t * d2) - coeff * g)
        return float(worst)


def _stencil_margin(geom, m, p_prime, profile):
    """The margin by a 5-point stencil at 6 angles per radius, step 1e-3 r."""
    log_m = math.log(m)
    coeff = -100.0 * m * (1 + 2 * p_prime) / log_m**2 / (2 * math.pi)

    def psi(x, y):
        t = m * (x * x + y * y) / log_m**2
        return (1 + 2 * p_prime) * profile.eta(t) * math.log(t)

    worst = math.inf
    for t in _t_grid():
        r = log_m * math.sqrt(t / m)
        for j in range(6):
            theta = 2 * math.pi * (j + 0.5) / 6
            x, y = r * math.cos(theta), r * math.sin(theta)
            ddbar = mixed_derivative(psi, x, y, 1e-3 * r)
            worst = min(worst, ddbar - coeff * metric_density(geom, complex(x, y)))
    return worst


@pytest.mark.parametrize("profile", [C1_PROFILE, SMOOTH_PROFILE], ids=["c1", "smooth"])
@pytest.mark.parametrize("m", [3, 10, 50])
def test_psi_hessian_bound_flat_region(profile, m):
    # at small m the transition margin exceeds the flat-region infimum -coeff, the t -> 0
    # limit of -coeff g, where psi = (1 + 2p') log t is harmonic and g -> 1
    with mpmath.workdps(40):
        bound = 100 * m * (1 + 2 * 2) / mpmath.log(m) ** 2 / (2 * mpmath.pi)
    assert psi_hessian_bound_check(m, 2, profile) == pytest.approx(float(bound), rel=1e-14, abs=0)


@pytest.mark.parametrize("m", [1, 1.0, 0, -5])
def test_psi_hessian_bound_refuses_m_below_two(m):
    # log m is 0 at m = 1 and undefined below
    with pytest.raises(ValueError, match="m must be >= 2"):
        psi_hessian_bound_check(m, 2, C1_PROFILE)


# Margins of the closed form, pinned bit for bit.
@pytest.mark.parametrize(
    "profile, m, p_prime, expected",
    [
        (C1_PROFILE, 10**3, 2, 1092.7530983550987),
        (C1_PROFILE, 10**4, 2, 5549.600642926265),
        (C1_PROFILE, 10**4, 3, 7769.440900096771),
        (SMOOTH_PROFILE, 10**3, 2, 1169.7718279834949),
        (SMOOTH_PROFILE, 10**4, 2, 5932.296773601373),
        (SMOOTH_PROFILE, 10**4, 3, 8305.21548304192),
    ],
    ids=[f"profile{i}-{m}-{p}" for i in (0, 1) for m, p in ((1000, 2), (10000, 2), (10000, 3))],
)
def test_psi_hessian_bound(profile, m, p_prime, expected):
    geom = ModelGeometry(-2.0)
    margin = psi_hessian_bound_check(m, p_prime, profile)
    assert margin >= 0.0
    assert margin == expected
    assert margin == pytest.approx(_mpmath_margin(profile, m, p_prime), rel=1e-12, abs=0)
    # the stencil's O(h^2) error is about 5e-6 of the margin
    assert margin == pytest.approx(_stencil_margin(geom, m, p_prime, profile), rel=1e-5, abs=0)
