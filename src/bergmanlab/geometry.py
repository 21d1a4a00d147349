"""Constant-curvature local model: metric density g and bundle weight a.

The model lives on a coordinate disk centered at the base point.  Both g and
a are rotationally symmetric, normalized to 1 at the center, and satisfy
Delta log g = -rho and -d^2(log a)/dz dzbar = g.  For rho < 0 the model is
only valid on |z| < sqrt(2/|rho|); for rho >= 0 it is entire.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "ModelGeometry",
    "metric_density",
    "log_metric_density",
    "log_bundle_weight",
    "mixed_derivative",
    "curvature_residual",
    "polar_ode_residual",
]


class ModelGeometry:
    """The curvature parameter rho of the model and the radius of its disk."""

    def __init__(self, rho: float) -> None:
        if not math.isfinite(rho):
            raise ValueError("curvature must be finite")
        self.rho, self.max_radius = rho, math.inf
        if rho < 0:
            c = -2.0 / rho  # overflows below |rho| = 2/DBL_MAX, so is then formed at rho 2^64
            self.max_radius = (math.sqrt(c) if c < math.inf
                               else math.sqrt(-2.0 / (rho * 2.0**64)) * 2.0**32)

    def require_inside(self, r: float) -> None:
        if r < 0 or not r < self.max_radius:
            raise ValueError(f"radius {r!r} outside model disk of radius {self.max_radius!r}")


def _half_rho_r2(geom: ModelGeometry, r: float) -> float:
    """w = rho r^2 / 2, halving r: halving a subnormal rho would drop its last bit."""
    return geom.rho * (0.5 * r) * r


def _log_conformal_factor(geom: ModelGeometry, r: float, w: float) -> float:
    """log(1 + w), w = rho r^2 / 2; below 1/2, 1 + w is formed exactly."""
    if w >= -0.5:
        return math.log1p(w)
    return math.log(1 + Fraction(geom.rho) * Fraction(r) ** 2 / 2)


def log_metric_density(geom: ModelGeometry, r: float) -> float:
    """log g at radius r; g = (1 + rho r^2 / 2)^(-2), identically 1 at rho=0."""
    geom.require_inside(r)
    return -2.0 * _log_conformal_factor(geom, r, _half_rho_r2(geom, r))


def log_bundle_weight(geom: ModelGeometry, r: float) -> float:
    """log a at radius r; a = (1 + rho r^2 / 2)^(-2/rho), e^(-r^2) at rho=0."""
    geom.require_inside(r)
    w = _half_rho_r2(geom, r)
    if abs(w) < 2.0**-53:  # log a = -r^2 log1p(w) / w is -r^2 to within |w| / 2 < u / 2
        return -r * r
    c = -2.0 / geom.rho  # overflows below |rho| = 2/DBL_MAX, so is then formed at rho 2^64
    if math.isfinite(c):
        return c * _log_conformal_factor(geom, r, w)
    return -2.0 / (geom.rho * 2.0**64) * _log_conformal_factor(geom, r, w) * 2.0**64


def metric_density(geom: ModelGeometry, z: complex) -> float:
    return math.exp(log_metric_density(geom, abs(z)))


def mixed_derivative(f, x: float, y: float, h: float) -> float:
    """d^2 f / dz dzbar at x + iy: one quarter of the 5-point Laplacian, with O(h^2) error."""
    s = f(x + h, y) + f(x - h, y) + f(x, y + h) + f(x, y - h) - 4.0 * f(x, y)
    return 0.25 * (s / (h * h))


def curvature_residual(geom: ModelGeometry, z: complex, h: float) -> float:
    """Finite-difference residual of g^-1 d^2(log g)/dz dzbar + rho, O(h^2) for the model."""
    ddbar = mixed_derivative(
        lambda x, y: log_metric_density(geom, math.hypot(x, y)), z.real, z.imag, h
    )
    return ddbar / metric_density(geom, z) + geom.rho


def polar_ode_residual(geom: ModelGeometry, r: float, h: float) -> float:
    """Finite-difference residual of g'' + g'/r - (g')^2/g + 4 rho g^2."""
    gm, g0, gp = (metric_density(geom, r + d) for d in (-h, 0.0, h))
    d1 = (gp - gm) / (2.0 * h)
    d2 = (gp - 2.0 * g0 + gm) / (h * h)
    return d2 + d1 / r - d1 * d1 / g0 + 4.0 * geom.rho * g0 * g0
