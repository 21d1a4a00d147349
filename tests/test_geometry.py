import math
import random
import sys

import mpmath
import pytest
from hypothesis import given, strategies as st

from bergmanlab import cutoff
from bergmanlab.geometry import (
    ModelGeometry,
    curvature_residual,
    log_bundle_weight,
    log_conformal_factor,
    log_metric_density,
    metric_density,
    polar_ode_residual,
)

HYPERBOLIC = ModelGeometry(-2.0)
FLAT = ModelGeometry(0.0)
SPHERE = ModelGeometry(2.0)


def test_metric_density_examples():
    assert metric_density(HYPERBOLIC, 0j) == 1.0
    assert metric_density(FLAT, 0.5) == 1.0
    assert metric_density(SPHERE, 1j) == pytest.approx(0.25, rel=1e-15)


def test_bundle_weight_examples():
    for geom in (HYPERBOLIC, FLAT, SPHERE):
        assert math.exp(log_bundle_weight(geom, 0.0)) == 1.0
    assert math.exp(log_bundle_weight(FLAT, 1.0)) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert math.exp(log_bundle_weight(SPHERE, 1.0)) == pytest.approx(0.5, rel=1e-15)


def test_max_radius():
    assert HYPERBOLIC.max_radius == 1.0
    assert FLAT.max_radius == math.inf
    assert SPHERE.max_radius == math.inf
    assert ModelGeometry(-0.5).max_radius == 2.0


def test_domain_errors():
    outside = "outside model disk of radius 1.0"
    with pytest.raises(ValueError, match=outside):
        metric_density(HYPERBOLIC, 1.0)
    with pytest.raises(ValueError, match=outside):
        log_bundle_weight(HYPERBOLIC, 1.2)
    with pytest.raises(ValueError, match=outside):
        curvature_residual(HYPERBOLIC, 0.9999, 1e-3)


@pytest.mark.parametrize("rho", [-2.0, -0.7, -10.0])
def test_log_weights_accurate_near_disk_edge(rho):
    # 1 + rho r^2 / 2 cancels there; one rounding of rho r^2 / 2 would cost
    # digits in proportion to 1 / (1 + rho r^2 / 2).
    edge = math.sqrt(-2.0 / rho)
    for r in (0.5 * edge, 0.8 * edge, edge * (1 - 1e-9), math.nextafter(edge, 0.0)):
        with mpmath.workdps(40):
            log_phi = mpmath.log(1 + mpmath.mpf(rho) * mpmath.mpf(r) ** 2 / 2)
            want_g, want_a = -2 * log_phi, -2 / mpmath.mpf(rho) * log_phi
        assert abs(log_metric_density(ModelGeometry(rho), r) - want_g) <= 4e-16 * abs(want_g)
        assert abs(log_bundle_weight(ModelGeometry(rho), r) - want_a) <= 4e-16 * abs(want_a)


@pytest.mark.parametrize("rho", [1e-308, -1e-308, 1e-320, -1e-320, 5e-324, -5e-324])
@pytest.mark.parametrize("r", [0.3, 10.0, 1e150])
def test_log_bundle_weight_where_two_over_rho_overflows(rho, r):
    # below |rho| = 2/DBL_MAX; mpmath's log1p keeps the digits that 1 + rho r^2 / 2 drops
    with mpmath.workdps(40):
        want = -2 / mpmath.mpf(rho) * mpmath.log1p(mpmath.mpf(rho) * mpmath.mpf(r) ** 2 / 2)
    assert abs(log_bundle_weight(ModelGeometry(rho), r) - want) <= 1e-15 * abs(want)


SUBNORMAL_RANGE_RHO = [1.2e-308, -1.2e-308, 1.5e-308, -1.5e-308, 2.1e-308, -2.1e-308]


@pytest.mark.parametrize("rho", SUBNORMAL_RANGE_RHO)
@pytest.mark.parametrize("r", [0.3, 10.0, 1e100])
def test_log_weights_at_subnormal_range_rho(rho, r):
    # -2/rho is finite here, but halving rho (subnormal below 2.2e-308) would drop its last bit
    with mpmath.workdps(40):
        log_phi = mpmath.log1p(mpmath.mpf(rho) * mpmath.mpf(r) ** 2 / 2)
        want_a, want_g = -2 / mpmath.mpf(rho) * log_phi, -2 * log_phi
    geom = ModelGeometry(rho)
    assert abs(log_bundle_weight(geom, r) - want_a) <= 2.0**-53 * abs(want_a)
    # log g = -2w is itself subnormal at r = 0.3, where each of the two roundings of w
    # is worth up to 1 u of DBL_MIN; so the error is taken against max(|log g|, DBL_MIN)
    floor = max(abs(want_g), sys.float_info.min)
    assert abs(log_metric_density(geom, r) - want_g) <= 3 * 2.0**-53 * floor


def _log_a_oracle(geom, r, w, log1p_w):
    """log a from w = rho r^2 / 2 and log(1 + w), each branch written out."""
    if abs(w) < 2.0**-53:  # log a = -r^2 log1p(w) / w is -r^2 to within |w| / 2 < u / 2
        return -r * r
    return geom.c * log1p_w * geom.scale


# per branch of log a: rho, seeded radii, and the condition that puts r in that branch
LOG_A_BRANCHES = {
    "tiny-w": (-2.0, lambda rng, g: 10 ** rng.uniform(-200, -9),
               lambda g, w: abs(w) < 2.0**-53),
    "exact-1+w": (-0.7, lambda rng, g: g.max_radius * (1 - 10 ** rng.uniform(-15, -0.6)),
                  lambda g, w: w < -0.5),
    "subnormal-rho": (-5e-324, lambda rng, g: g.max_radius * 10 ** rng.uniform(-3, -1e-3),
                      lambda g, w: g.scale == 2.0**64 and abs(w) >= 2.0**-53),
    "subnormal-rho-sphere": (1e-310, lambda rng, g: 10 ** rng.uniform(155, 200),
                             lambda g, w: g.scale == 2.0**64 and w >= 0.5),
    "flat": (0.0, lambda rng, g: 10 ** rng.uniform(-10, 10), lambda g, w: w == 0.0),
}


@pytest.mark.parametrize("branch", LOG_A_BRANCHES)
def test_conformal_factor_record_carries_log_a(branch):
    rho, radius, reached = LOG_A_BRANCHES[branch]
    geom, rng = ModelGeometry(rho), random.Random(branch)
    for _ in range(200):
        r = radius(rng, geom)
        w, log1p_w, log_a = log_conformal_factor(geom, r)
        assert reached(geom, w), (r, w)
        assert log_a.hex() == _log_a_oracle(geom, r, w, log1p_w).hex(), r
        assert log_bundle_weight(geom, r).hex() == log_a.hex(), r


# scale 2^64 at +-5e-324 and 1e-310; the exact 1 + w below w = -1/2 near rho = -2's edge
SHARED_RHOS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 0.5, -2.0]


def _factor_bits(geom, r):
    try:
        return [x.hex() for x in log_conformal_factor(geom, r)]
    except ValueError as exc:
        return f"ValueError: {exc}"


@pytest.mark.parametrize("rho", SHARED_RHOS)
def test_stored_record_matches_a_fresh_geometry(rho):
    # repeated radii on one geometry, a refused radius between two equal ones, and
    # |w| < 2^-53 at r = 1e-170 and w < -1/2 at rho = -2, give a fresh geometry's bits
    edge = ModelGeometry(rho).max_radius
    near = [0.9, 1.0 - 1e-9, math.nextafter(1.0, 0.0)] if rho == -2.0 else [3.0]
    refused = [-0.3, math.nan, math.inf, edge if math.isfinite(edge) else 1e300]
    shared = ModelGeometry(rho)
    for r in [0.3, 0.3, 1e-170, *near, 1e-170, 0.3]:
        for radius in (r, *refused, r, r):
            assert _factor_bits(shared, radius) == _factor_bits(ModelGeometry(rho), radius), radius


@pytest.mark.parametrize("rho", SHARED_RHOS)
@pytest.mark.parametrize("order", [(0.0, -0.0), (-0.0, 0.0)], ids=["plus-first", "minus-first"])
def test_signed_zero_radius_shares_its_record(rho, order):
    shared = ModelGeometry(rho)
    for r in order:
        assert _factor_bits(shared, r) == _factor_bits(ModelGeometry(rho), r)


@pytest.mark.parametrize("rho", SHARED_RHOS)
def test_conformal_factor_leaves_its_geometry_as_it_found_it(rho):
    geom = ModelGeometry(rho)
    edge = geom.max_radius
    before = dict(vars(geom))
    for r in (0.3, 0.3, 1e-170, 0.0, -0.0, 0.9 if rho == -2.0 else 3.0, -0.3, math.nan,
              math.inf, edge if math.isfinite(edge) else 1e300):
        _factor_bits(geom, r)
        assert vars(geom) == before, r


def test_hessian_check_leaves_its_disk_as_it_found_it():
    before = dict(vars(cutoff._UNIT_DISK))
    cutoff.psi_hessian_bound_check(1000, 2, cutoff.C1_PROFILE)
    assert vars(cutoff._UNIT_DISK) == before


@pytest.mark.parametrize("rho", [-1e-308, -1e-320, -5e-324])
def test_max_radius_where_two_over_rho_overflows(rho):
    with mpmath.workdps(40):
        want = mpmath.sqrt(2 / abs(mpmath.mpf(rho)))
    assert abs(ModelGeometry(rho).max_radius - want) <= 1e-15 * want


def test_bundle_weight_continuous_in_rho():
    for r in (0.2, 0.7, 1.3):
        near_flat = math.exp(log_bundle_weight(ModelGeometry(1e-9), r))
        assert near_flat == pytest.approx(math.exp(-r * r), rel=1e-8)


@given(
    st.floats(min_value=0.01, max_value=0.9),
    st.floats(min_value=0.0, max_value=2.0 * math.pi),
    st.sampled_from([-2.0, -1.0, 0.0, 2.0]),
)
def test_rotation_invariance(r, theta, rho):
    geom = ModelGeometry(rho)
    z = r * complex(math.cos(theta), math.sin(theta))
    assert metric_density(geom, z) == pytest.approx(metric_density(geom, r), rel=1e-14)
    a_z = math.exp(log_bundle_weight(geom, abs(z)))
    assert a_z == pytest.approx(math.exp(log_bundle_weight(geom, r)), rel=1e-14)


@pytest.mark.parametrize("rho", [-2.0, -1.0, 0.0, 2.0])
def test_log_weight_hessian_equals_metric(rho):
    # -d^2(log a)/dz dzbar = g, checked by 5-point finite differences.
    geom = ModelGeometry(rho)
    h = 1e-4
    for z in (0.1 + 0.2j, 0.35 - 0.1j, -0.4 + 0.3j):

        def la(x, y):
            return log_bundle_weight(geom, abs(complex(x, y)))

        x, y = z.real, z.imag
        lap = (la(x + h, y) + la(x - h, y) + la(x, y + h) + la(x, y - h) - 4 * la(x, y)) / h**2
        assert -0.25 * lap == pytest.approx(metric_density(geom, z), abs=1e-6)


def test_curvature_residual_flat_exact():
    assert curvature_residual(FLAT, 0.3, 1e-3) == 0.0


@pytest.mark.parametrize("rho", [-2.0, 2.0])
def test_curvature_residual_small(rho):
    geom = ModelGeometry(rho)
    assert abs(curvature_residual(geom, 0.2, 1e-3)) <= 1e-5


def test_polar_ode_residual():
    assert abs(polar_ode_residual(SPHERE, 0.5, 1e-3)) <= 1e-5
    # rho < 0 has a larger finite-difference floor at this step size.
    assert abs(polar_ode_residual(HYPERBOLIC, 0.3, 1e-3)) <= 1e-4


@pytest.mark.parametrize("rho", [-2.0, 2.0])
def test_residual_second_order_decay(rho):
    geom = ModelGeometry(rho)
    pts = [0.15 + 0.3j, 0.4 - 0.2j, -0.25 - 0.35j]
    coarse = max(abs(curvature_residual(geom, z, 1e-3)) for z in pts)
    fine = max(abs(curvature_residual(geom, z, 5e-4)) for z in pts)
    order = math.log2(coarse / fine)
    assert 1.7 <= order <= 2.3


def test_metric_diverges_at_boundary():
    r = HYPERBOLIC.max_radius * (1.0 - 1e-4)
    assert metric_density(HYPERBOLIC, r) > 1e6
