"""Cut-off profiles and the logarithmic weight used by peak-section bounds.

Two cut-off profiles are shipped, each equal to 1 on [0, 1/2] and 0 on
[1, inf).  The "c1" profile is piecewise quadratic with second derivative -8
on (1/2, 3/4] and +8 on (3/4, 1); its slope jumps at the knots t = 1/2 and
t = 1 and stays in [-3, -1] on the transition, so the sampled bounds
0 <= -eta' <= 4 and |eta''| <= 8 hold at every non-knot point.  No globally
C^1 profile with unit drop on a width-1/2 transition can satisfy both of
those bounds (the extremal slope-trapezoid argument caps the drop at 1/2),
hence the "smooth" variant: the cubic smoothstep, globally C^1 with
-eta' <= 3 but |eta''| <= 24.
"""

from __future__ import annotations

import math

from .geometry import ModelGeometry, metric_density

__all__ = [
    "C1_PROFILE",
    "SMOOTH_PROFILE",
    "get_profile",
    "psi_hessian_bound_check",
]

RADIAL_POINTS = 24  # psi_hessian_bound_check's grid points on the transition annulus
_UNIT_DISK = ModelGeometry(-2.0)  # the model on which psi_hessian_bound_check is stated


class _PiecewiseQuadratic:
    name = "c1"
    d2_bound = 8.0

    def eta(self, t: float) -> float:
        if t <= 0.5:
            return 1.0
        if t >= 1.0:
            return 0.0
        if t <= 0.75:
            u = t - 0.5
            return 1.0 - u - 4.0 * u * u
        u = 1.0 - t
        return u + 4.0 * u * u

    def eta_d1(self, t: float) -> float:
        if t <= 0.5 or t >= 1.0:
            return 0.0
        if t <= 0.75:
            return -1.0 - 8.0 * (t - 0.5)
        return -1.0 - 8.0 * (1.0 - t)

    def eta_d2(self, t: float) -> float:
        if t <= 0.5 or t >= 1.0:
            return 0.0
        return -8.0 if t <= 0.75 else 8.0


class _Smoothstep:
    name = "smooth"
    d2_bound = 24.0

    def eta(self, t: float) -> float:
        if t <= 0.5:
            return 1.0
        if t >= 1.0:
            return 0.0
        s = 2.0 * (t - 0.5)
        return 1.0 - s * s * (3.0 - 2.0 * s)

    def eta_d1(self, t: float) -> float:
        if t <= 0.5 or t >= 1.0:
            return 0.0
        s = 2.0 * (t - 0.5)
        return -12.0 * s * (1.0 - s)

    def eta_d2(self, t: float) -> float:
        if t <= 0.5 or t >= 1.0:
            return 0.0
        s = 2.0 * (t - 0.5)
        return -24.0 * (1.0 - 2.0 * s)


C1_PROFILE = _PiecewiseQuadratic()
SMOOTH_PROFILE = _Smoothstep()

_PROFILES = {p.name: p for p in (C1_PROFILE, SMOOTH_PROFILE)}


def get_profile(name: str) -> _PiecewiseQuadratic | _Smoothstep:
    try:
        return _PROFILES[name]
    except KeyError:
        raise ValueError(f"unknown cut-off profile {name!r}") from None


def psi_hessian_bound_check(m: int, p_prime: int, profile) -> float:
    """The margin of d^2 psi / dz dzbar >= -100 m (1+2p') / (log m)^2 * g / (2 pi).

    psi = (1 + 2p') eta(t) log t with t = kappa |z|^2, kappa = m / (log m)^2, is radial,
    so d^2 psi / dz dzbar = kappa (1 + 2p') (eta'(t) (log t + 2) + t eta''(t) log t).
    The bound is the curvature inequality of the rho = -2 model for the Kahler form
    omega = (i/2pi) g dz ^ dzbar; dropping the 2 pi only loosens it.  Where eta is flat
    (t <= 1/2 or t >= 1) psi is harmonic, so the margin there is -coeff g >= -coeff, the
    limit at t = 0 (g >= 1 on the disk).  The result is the least of 24 transition samples
    and the flat-region bound -coeff: an upper bound on the infimum, not a proof, since
    for "c1" the infimum, the limit at t = 3/4 from above, is about 1.7% lower.
    """
    log_m = math.log(m)
    kappa = m / log_m**2
    coeff = -100.0 * m * (1 + 2 * p_prime) / log_m**2 / math.tau
    min_margin = -coeff
    for t in (0.52 + (0.98 - 0.52) * i / (RADIAL_POINTS - 1) for i in range(RADIAL_POINTS)):
        log_t = math.log(t)
        shape = profile.eta_d1(t) * (log_t + 2.0) + t * profile.eta_d2(t) * log_t
        ddbar = kappa * (1 + 2 * p_prime) * shape
        g = metric_density(_UNIT_DISK, log_m * math.sqrt(t / m))
        min_margin = min(min_margin, ddbar - coeff * g)
    return min_margin
