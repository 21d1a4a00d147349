import math

import pytest

from bergmanlab.cutoff import (
    C1_PROFILE,
    SMOOTH_PROFILE,
    get_profile,
    psi,
    psi_hessian_bound_check,
)
from bergmanlab.geometry import ModelGeometry


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


def test_psi_values():
    # eta-argument at and past 1: the cut-off kills the product.
    assert psi(2, 1.0) == 0.0
    assert psi(2, 4.0) == 0.0
    # eta-argument exactly 1/2: eta = 1, value is 5 log(1/2).
    assert psi(2, 0.5) == pytest.approx(5.0 * math.log(0.5), rel=1e-12)
    # generic point: direct re-evaluation of the displayed formula at z = 0.1, m = 100.
    t = 100 * 0.1 * 0.1 / math.log(100) ** 2
    expected = 5.0 * C1_PROFILE.eta(t) * math.log(t)
    assert psi(2, t) == pytest.approx(expected, rel=1e-12)


def test_psi_pole():
    with pytest.raises(ValueError):
        psi(2, 0.0)


def test_psi_nonpositive():
    for i in range(1, 400):
        assert psi(3, 1.3 * i / 400) <= 0.0


# Margins of the parent implementation, pinned bit for bit.
@pytest.mark.parametrize(
    "profile, m, p_prime, expected",
    [
        (C1_PROFILE, 10**3, 2, 1092.753411626933),
        (C1_PROFILE, 10**4, 2, 5549.602404908126),
        (C1_PROFILE, 10**4, 3, 7769.443366895484),
        (SMOOTH_PROFILE, 10**3, 2, 1169.7771814106575),
        (SMOOTH_PROFILE, 10**4, 2, 5932.326886716945),
        (SMOOTH_PROFILE, 10**4, 3, 8305.257641390954),
    ],
    ids=[f"profile{i}-{m}-{p}" for i in (0, 1) for m, p in ((1000, 2), (10000, 2), (10000, 3))],
)
def test_psi_hessian_bound(profile, m, p_prime, expected):
    margin = psi_hessian_bound_check(ModelGeometry(-2.0), m, p_prime, profile)
    assert margin >= 0.0
    assert margin == expected
