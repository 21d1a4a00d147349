"""Radial moment integrals with certified error estimates.

The angular integral of every monomial moment is done analytically (it is
2 pi delta_{alpha beta} under the measure (i/2pi) dz ^ dzbar), so only
one-dimensional radial integrals remain.  Those are evaluated by adaptive
bisection with a Gauss7/Kronrod15 pair per panel; the integrand is built in
log space so a^m never underflows prematurely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import ModelGeometry, log_bundle_weight, log_metric_density

__all__ = [
    "QuadratureConfig",
    "QuadratureError",
    "RadialMoment",
    "lambda_inv_sq",
    "lambda0_closed_form",
    "lambda0_tail",
    "monomial_moment",
    "PeakNormCheck",
    "peak_norm_bound_check",
    "truncation_radius",
]

# (node, Gauss-7 weight, Kronrod-15 weight) on [-1, 1]
_GK15 = (
    (+0.991455371120813, 0.000000000000000, 0.022935322010529),
    (-0.991455371120813, 0.000000000000000, 0.022935322010529),
    (+0.949107912342759, 0.129484966168870, 0.063092092629979),
    (-0.949107912342759, 0.129484966168870, 0.063092092629979),
    (+0.864864423359769, 0.000000000000000, 0.104790010322250),
    (-0.864864423359769, 0.000000000000000, 0.104790010322250),
    (+0.741531185599394, 0.279705391489277, 0.140653259715525),
    (-0.741531185599394, 0.279705391489277, 0.140653259715525),
    (+0.586087235467691, 0.000000000000000, 0.169004726639267),
    (-0.586087235467691, 0.000000000000000, 0.169004726639267),
    (+0.405845151377397, 0.381830050505119, 0.190350578064785),
    (-0.405845151377397, 0.381830050505119, 0.190350578064785),
    (+0.207784955007898, 0.000000000000000, 0.204432940075298),
    (-0.207784955007898, 0.000000000000000, 0.204432940075298),
    (0.000000000000000, 0.417959183673469, 0.209482141084728),
)


MAX_PANELS = 60  # adaptive refinement stops with QuadratureError beyond this


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-12

    def __post_init__(self) -> None:
        if not 0.0 < self.rel_tol <= 1e-4:
            raise ValueError("rel_tol must lie in (0, 1e-4]")


class QuadratureError(RuntimeError):
    """Adaptive refinement ran out of panels; carries the best estimate."""

    def __init__(self, message: str, best: float, abs_err: float):
        super().__init__(message)
        self.best = best
        self.abs_err = abs_err


@dataclass(frozen=True)
class RadialMoment:
    m: int
    p: int
    radius: float
    value: float
    abs_err: float


def _gk_panel(logf, a: float, b: float) -> tuple[float, float]:
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    gauss = 0.0
    kronrod = 0.0
    for node, wg, wk in _GK15:
        r = mid + half * node
        f = math.exp(logf(r)) if r > 0.0 else 0.0
        gauss += wg * f
        kronrod += wk * f
    delta = half * abs(kronrod - gauss)
    err = min(delta, (200.0 * delta) ** 1.5) if delta > 0.0 else 0.0
    return half * kronrod, err


def _adaptive(logf, a: float, b: float, cfg: QuadratureConfig) -> tuple[float, float]:
    panels = []
    for i in range(4):
        lo = a + (b - a) * i / 4
        hi = a + (b - a) * (i + 1) / 4
        panels.append((lo, hi, *_gk_panel(logf, lo, hi)))
    while True:
        total = math.fsum(p[2] for p in panels)
        err = math.fsum(p[3] for p in panels)
        if err <= cfg.rel_tol * abs(total):
            return total, err
        if len(panels) >= MAX_PANELS:
            raise QuadratureError(
                f"no convergence within {MAX_PANELS} panels "
                f"(error {err:.3e} on value {total:.6e})",
                best=total,
                abs_err=err,
            )
        worst = max(range(len(panels)), key=lambda i: panels[i][3])
        lo, hi, _, _ = panels.pop(worst)
        mid = 0.5 * (lo + hi)
        panels.append((lo, mid, *_gk_panel(logf, lo, mid)))
        panels.append((mid, hi, *_gk_panel(logf, mid, hi)))


def truncation_radius(m: int) -> float:
    """The peak-section truncation radius log(m)/sqrt(m)."""
    return math.log(m) / math.sqrt(m)


def lambda_inv_sq(
    geom: ModelGeometry,
    m: int,
    p: int,
    radius: float,
    cfg: QuadratureConfig | None = None,
) -> RadialMoment:
    """2 * integral_0^R r^(2p+1) a(r)^m g(r) dr with a certified error."""
    if cfg is None:
        cfg = QuadratureConfig()
    if m < 2:
        raise ValueError("m must be >= 2")
    if p < 0:
        raise ValueError("p must be nonnegative")
    if not 0.0 < radius < geom.max_radius:
        raise ValueError(f"radius {radius!r} outside (0, {geom.max_radius!r})")

    log2 = math.log(2.0)

    def logf(r: float) -> float:
        return (
            log2
            + (2 * p + 1) * math.log(r)
            + m * log_bundle_weight(geom, r)
            + log_metric_density(geom, r)
        )

    value, err = _adaptive(logf, 0.0, radius, cfg)
    return RadialMoment(m=m, p=p, radius=radius, value=value, abs_err=err)


def lambda0_tail(geom: ModelGeometry, m: int) -> float:
    """The exact relative gap 1 - (closed-form moment) * (m + rho/2).

    This is (1 + rho (log m)^2 / 2m)^(-1 - 2m/rho) for rho != 0 and
    e^(-(log m)^2) for rho = 0.  It is far below machine epsilon for large m,
    so it is exposed directly instead of being recovered by subtraction.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    log_m = math.log(m)
    geom.require_inside(truncation_radius(m))
    rho = geom.rho
    if rho == 0.0:
        return math.exp(-log_m * log_m)
    x = 0.5 * rho * log_m * log_m / m
    if not abs(x) < 1.0:
        raise ValueError(f"m={m} too small for the closed form at rho={rho}")
    return math.exp((-1.0 - 2.0 * m / rho) * math.log1p(x))


def lambda0_closed_form(geom: ModelGeometry, m: int) -> float:
    """Closed form of the degree-0 moment over the truncation disk.

    Equals (1 - (1 + rho (log m)^2 / 2m)^(-1 - 2m/rho)) / (m + rho/2) for
    rho != 0 and (1 - e^(-(log m)^2)) / m for rho = 0.
    """
    return (1.0 - lambda0_tail(geom, m)) / (m + 0.5 * geom.rho)


def monomial_moment(
    geom: ModelGeometry,
    m: int,
    alpha: int,
    beta: int,
    radius: float,
    cfg: QuadratureConfig | None = None,
) -> float:
    """Disk integral of z^alpha zbar^beta a^m g; exactly zero off the diagonal.

    Rotational symmetry kills the angular integral whenever alpha != beta, so
    that case short-circuits to an exact 0 rather than quadrature noise.
    """
    if alpha < 0 or beta < 0:
        raise ValueError("monomial degrees must be nonnegative")
    if alpha != beta:
        return 0.0
    return lambda_inv_sq(geom, m, alpha, radius, cfg).value


@dataclass(frozen=True)
class PeakNormCheck:
    p: int
    m_values: tuple[int, ...]
    ratios: tuple[float, ...]
    max_ratio: float
    top_decade_variation: float
    passed: bool


def peak_norm_bound_check(
    geom: ModelGeometry,
    m_list: list[int],
    p: int,
    cfg: QuadratureConfig | None = None,
) -> PeakNormCheck:
    """Empirical boundedness of lambda_p^2 / m^(1+p) over a sweep of m.

    The supremum of the ratio is the empirical constant; the relative spread
    over the top decade of m measures its stability.
    """
    if p > 3:
        raise ValueError("p must be <= 3")
    if not m_list:
        raise ValueError("empty m sweep")
    ms = tuple(sorted(m_list))
    ratios = []
    for m in ms:
        moment = lambda_inv_sq(geom, m, p, truncation_radius(m), cfg)
        ratios.append(1.0 / (moment.value * float(m) ** (1 + p)))
    top = [r for m, r in zip(ms, ratios) if m * 10 >= ms[-1]]
    variation = (max(top) - min(top)) / max(top) if len(top) > 1 else 0.0
    max_ratio = max(ratios)
    passed = all(math.isfinite(r) and r > 0.0 for r in ratios)
    return PeakNormCheck(
        p=p,
        m_values=ms,
        ratios=tuple(ratios),
        max_ratio=max_ratio,
        top_decade_variation=variation,
        passed=passed,
    )
