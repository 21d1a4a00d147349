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
    "log_conformal_factor",
    "metric_density",
    "log_metric_density",
    "log_bundle_weight",
    "mixed_derivative",
    "curvature_residual",
    "polar_ode_residual",
]

U = 2.0**-53  # unit roundoff of a double


class ModelGeometry:
    """The curvature rho, n/d = |rho| exactly, the exponent -2/rho of a, and its disk's radius;
    row the last moment row that quadrature's complement answered, for the next degree to resume."""

    def __init__(self, rho: float) -> None:
        if not math.isfinite(rho):
            raise ValueError("curvature must be finite")
        self.n, self.d = abs(rho).as_integer_ratio()  # d is a power of two
        # -2/rho = c scale; it overflows below |rho| = 2/DBL_MAX, so c is then formed at rho 2^64
        self.rho, self.c, self.scale = rho, (-2.0 / rho if rho else 0.0), 1.0
        if math.isinf(self.c):
            self.c, self.scale = -2.0 / (rho * 2.0**64), 2.0**64
        self.max_radius = math.sqrt(self.c) * math.sqrt(self.scale) if rho < 0 else math.inf
        self.row = None


def log_conformal_factor(geom: ModelGeometry, r: float) -> tuple[float, float, float]:
    """w = rho r^2 / 2, log(1 + w) and log a at radius r of the model disk.

    w halves r, since halving a subnormal rho drops its last bit; below w = -1/2,
    1 + w is formed exactly.
    """
    if r < 0 or not r < geom.max_radius:
        raise ValueError(f"radius {r!r} outside model disk of radius {geom.max_radius!r}")
    w = geom.rho * (0.5 * r) * r
    if w >= -0.5:
        log1p_w = math.log1p(w)
    else:
        log1p_w = math.log(1 + Fraction(geom.rho) * Fraction(r) ** 2 / 2)
    # below |w| = u, log a = -r^2 log1p(w) / w is -r^2 to within |w| / 2 < u / 2
    return w, log1p_w, (-r * r if abs(w) < U else geom.c * log1p_w * geom.scale)


def log_metric_density(geom: ModelGeometry, r: float) -> float:
    """log g at radius r; g = (1 + rho r^2 / 2)^(-2), identically 1 at rho=0."""
    return -2.0 * log_conformal_factor(geom, r)[1]


def log_bundle_weight(geom: ModelGeometry, r: float) -> float:
    """log a at radius r; a = (1 + rho r^2 / 2)^(-2/rho), e^(-r^2) at rho=0."""
    return log_conformal_factor(geom, r)[2]


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
