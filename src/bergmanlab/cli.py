"""Command-line harness: sweeps, verification suites, and report emission."""

from __future__ import annotations

import argparse
import functools
import math
import random
import re
import sys
from decimal import Context, Decimal

from . import cutoff, density, geometry, gram, quadrature

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _check_m(m):
    """m unchanged if it does not exceed the largest double; every layer computes with float(m)."""
    if not m <= quadrature.DBL_MAX:
        raise ValueError(f"m={m} exceeds the largest double {quadrature.DBL_MAX!r}")
    return m


_POW = Context(prec=40)  # 10^y to 40 digits, then rounded once to a double (inf past the largest)


def _m_list_entry(tok: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ValueError(f"bad --m-list entry {tok!r}") from None


def _parse_m_values(args: argparse.Namespace) -> list[int]:
    if args.points is not None and not args.m_range:
        raise ValueError("--points is only read with --m-range")
    if args.m_list:
        values = [_check_m(_m_list_entry(tok)) for tok in args.m_list.split(",") if tok.strip()]
    elif args.m_range:
        try:
            lo, hi = map(int, args.m_range.split(":"))  # exactly two integers
            if lo <= 0 or hi < lo:
                raise ValueError
        except ValueError:
            raise ValueError(f"bad m range {args.m_range!r}") from None
        _check_m(hi)
        n = 5 if args.points is None else args.points
        if n < 1:
            raise ValueError("--points must be >= 1")
        a, b = math.log10(lo), math.log10(hi)  # the exponents of numpy.linspace, the last one b
        ys = [i * ((b - a) / (n - 1)) + a for i in range(n - 1)] + [b] if n > 1 else [a]
        values = sorted({int(round(_check_m(float(_POW.power(10, Decimal(y)))))) for y in ys})
    else:
        values = []
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError("m values must be strictly ascending")
    return values


def _write_out(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path!r}: {exc.strerror}") from exc


def cmd_sweep(args: argparse.Namespace) -> int:
    m_values = _parse_m_values(args)
    if not m_values:
        raise ValueError("empty sweep")
    result = density.remainder_sweep(args.rho, m_values, args.budget_c)
    to_text = density.sweep_to_csv if args.format == "csv" else density.sweep_to_json
    _write_out(args.out, to_text(result))

    # for doubles a >= 0, b > 0: a / b rounds above 1 exactly when a > b
    envelope_ok = result.fitted_c <= 1.0
    print(f"fitted_C = {result.fitted_c!r}")
    print(f"envelope exp(-(log m)^2/8): {'PASS' if envelope_ok else 'FAIL'}")
    return EXIT_OK if envelope_ok else EXIT_FAIL


def _sample_points(rng: random.Random, count: int, r_lo: float, r_hi: float) -> list[complex]:
    pts = []
    for _ in range(count):
        r = rng.uniform(r_lo, r_hi)
        theta = rng.uniform(0.0, math.tau)
        pts.append(complex(r * math.cos(theta), r * math.sin(theta)))
    return pts


def _suite_ode_residuals(args, rng) -> tuple[str, str]:
    worst = 0.0
    for rho in (-2.0, 0.0, 2.0):
        geom = geometry.ModelGeometry(rho)
        for z in _sample_points(rng, 40, 0.05, 0.6):
            worst = max(worst, abs(geometry.curvature_residual(geom, z, 1e-3)))
    geom = geometry.ModelGeometry(2.0)
    for _ in range(40):
        r = rng.uniform(0.35, 0.65)
        worst = max(worst, abs(geometry.polar_ode_residual(geom, r, 1e-3)))
    ok = worst <= 1e-5
    return ("PASS" if ok else "FAIL", f"max residual {worst:.3e} (tol 1e-5)")


def _suite_eta_bounds(args, rng) -> tuple[str, str]:
    profile = cutoff.get_profile(args.eta)
    eta_d1, eta_d2 = profile.eta_d1, profile.eta_d2
    # running min eta', max eta' and max |eta''|, each from 0: the checks read only
    # max(0, -min eta'), max eta' > 1e-9 and max(0, max |eta''|).  NaN compares false
    # both ways, so it is tested for only where a sample is no new extreme.
    lo = hi = max_d2 = 0.0
    # t = 1.2 (i + 0.5) / 10_000 for i < 10_000, as the same doubles: at k = 2i + 1,
    # 0.6 k rounds to half of 1.2 (i + 0.5) rounded, since the double 0.6 is half of 1.2
    for k in range(1, 20_000, 2):
        t = 0.6 * k / 10_000
        d = eta_d1(t)
        if d < lo:
            lo = d
        elif d > hi:
            hi = d
        elif d != d:
            return ("FAIL", f"eta' is nan at t = {t!r}")
        d = eta_d2(t)
        if d > max_d2:
            max_d2 = d
        elif -d > max_d2:
            max_d2 = -d
        elif d != d:
            return ("FAIL", f"eta'' is nan at t = {t!r}")
    max_d1 = 0.0 - lo  # 0.0, not the -0.0 of -lo, where no slope is negative
    if hi > 1e-9 or max_d1 > 4.0 + 1e-9:
        return ("FAIL", f"slope bound violated (max -eta' = {max_d1:.3f})")
    if max_d2 > 8.0 + 1e-9:
        if max_d2 <= profile.d2_bound + 1e-9:
            return ("FLAG", f"profile {profile.name}: |eta''| <= {max_d2:.1f} (documented {profile.d2_bound:.0f}-bound variant)")
        return ("FAIL", f"|eta''| = {max_d2:.3f} exceeds documented bound")
    return ("PASS", f"max -eta' = {max_d1:.3f} <= 4, max |eta''| = {max_d2:.3f} <= 8")


def _suite_psi_hessian(args, rng) -> tuple[str, str]:
    profile = cutoff.get_profile(args.eta)
    worst = math.inf
    for m, p_prime in ((10**3, 2), (10**4, 2), (10**4, 3)):
        margin = cutoff.psi_hessian_bound_check(m, p_prime, profile)
        worst = min(worst, margin)
        if margin < 0.0:
            return ("FAIL", f"margin {margin:.3e} at (m={m}, p'={p_prime})")
    return ("PASS", f"min margin {worst:.3e}")


def _suite_quadrature(args, rng) -> tuple[str, str]:
    # Integration by parts (DLMF 8.8.1, 8.17(iv)) ties consecutive moments:
    # (m - rho p/2) V_{p+1} = (p+1) V_p - R^(2p+2) a(R)^m g(R)^(1/2).  The
    # closed form does not use it.
    worst = 0.0
    for rho in (-2.0, -1.0, 0.0, 2.0):
        geom = geometry.ModelGeometry(rho)
        for m in (100, 1000, 10_000, 100_000):
            radius = quadrature.truncation_radius(m)
            moments = [quadrature.lambda_inv_sq(geom, m, p, radius).value for p in range(5)]
            _, log1p_w, log_a = geometry.log_conformal_factor(geom, radius)
            log_boundary = m * log_a - log1p_w  # m log a + log g / 2
            for p in range(4):
                boundary = math.exp(2 * (p + 1) * math.log(radius) + log_boundary)
                expected = ((p + 1) * moments[p] - boundary) / (m - 0.5 * rho * p)
                worst = max(worst, abs(moments[p + 1] - expected) / moments[p + 1])
    ok = worst <= 1e-12
    return ("PASS" if ok else "FAIL", f"max rel dev {worst:.3e} (tol 1.0e-12)")


def _suite_schur(args, rng) -> tuple[str, str]:
    worst = gram.max_route_deviation(args.seed, 200)
    return ("PASS" if worst <= 1e-10 else "FAIL", f"max pairwise rel dev {worst:.3e} (tol 1e-10)")


def _suite_cp1(args, rng) -> tuple[str, str]:
    worst = 0.0
    for m in list(range(1, 17)) + [32, 64]:
        for z in _sample_points(rng, 20, 0.0, 3.0):
            worst = max(worst, abs(density.cp1_density(m, z) - (m + 1)) / (m + 1))
    ok = worst <= 1e-9
    return ("PASS" if ok else "FAIL", f"max rel dev from m+1: {worst:.3e} (tol 1e-9)")


_SUITES = [
    ("ode_residuals", _suite_ode_residuals),
    ("eta_bounds", _suite_eta_bounds),
    ("psi_hessian", _suite_psi_hessian),
    ("quadrature_vs_closed_form", _suite_quadrature),
    ("schur_vs_inverse", _suite_schur),
    ("cp1_constancy", _suite_cp1),
]


def cmd_verify(args: argparse.Namespace) -> int:
    if args.seed < 0:
        raise ValueError("--seed must be >= 0")
    failures = []
    for name, suite in _SUITES:
        rng = random.Random(args.seed)
        status, detail = suite(args, rng)
        print(f"{status:4s} {name}: {detail}")
        if status == "FAIL":
            failures.append(name)
    if failures:
        print("failing suites: " + ", ".join(failures), file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


def cmd_cp1(args: argparse.Namespace) -> int:
    if args.m < 1 or args.samples < 1:
        raise ValueError("m and samples must be >= 1")
    _check_m(args.m)
    reference = float(args.m + 1)
    # every sample before any output, so that a refused window prints nothing
    points = _sample_points(random.Random(args.seed), args.samples, 0.0, 3.0)
    rows = [(z, density.cp1_density(args.m, z)) for z in points]
    max_dev = 0.0
    print("z_re,z_im,density,deviation")
    for z, value in rows:
        dev = abs(value - reference) / reference
        max_dev = max(max_dev, dev)
        print(f"{z.real!r},{z.imag!r},{value!r},{dev!r}")
    print(f"closed form: {reference!r}; max relative deviation: {max_dev!r}")
    return EXIT_OK


def cmd_moments(args: argparse.Namespace) -> int:
    if args.m < 2:
        raise ValueError("--m must be >= 2")
    _check_m(args.m)
    if args.max_degree < 0:
        raise ValueError("--max-degree must be >= 0")
    geom = geometry.ModelGeometry(args.rho)
    radius = args.radius if args.radius is not None else quadrature.truncation_radius(args.m)
    # z^p zbar^q moments vanish for p != q by symmetry; all rows are computed before any output
    try:
        rows = [quadrature.lambda_inv_sq(geom, args.m, p, radius)
                for p in range(args.max_degree + 1)]
    except ValueError as exc:
        if args.radius is not None:
            raise
        raise ValueError(f"the default radius log(m)/sqrt(m) at m={args.m}, rho={args.rho!r}: "
                         f"{exc}") from None
    print("p,value,abs_err", *(f"{p},{r.value!r},{r.abs_err!r}" for p, r in enumerate(rows)),
          sep="\n")
    return EXIT_OK


@functools.cache  # built once per process, on the first call of main
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bergmanlab",
        description="Density expansion laboratory for constant-curvature surface models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="density sweep over m")
    p_sweep.add_argument("--rho", type=float, required=True)
    m_values = p_sweep.add_mutually_exclusive_group()
    m_values.add_argument("--m-range", help="LO:HI, log-spaced")
    p_sweep.add_argument("--points", type=int, help="grid size for --m-range (default 5)")
    m_values.add_argument("--m-list", help="comma-separated, strictly ascending m values")
    p_sweep.add_argument("--budget-c", type=float, default=0.0)
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.add_argument("--out", help="output path (default: stdout)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run all property suites")
    p_verify.add_argument("--eta", choices=("c1", "smooth"), default="c1")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=cmd_verify)

    p_cp1 = sub.add_parser(
        "cp1",
        help="exact sphere-model density check",
        description="Exact sphere-model density check against m + 1; a sample whose "
        f"summation window exceeds {density.MAX_WINDOW:.3g} terms is refused.",
    )
    p_cp1.add_argument("--m", type=int, required=True)
    p_cp1.add_argument("--samples", type=int, default=20)
    p_cp1.add_argument("--seed", type=int, default=0)
    p_cp1.set_defaults(func=cmd_cp1)

    p_mom = sub.add_parser("moments", help="radial moments lambda_p^-2 with proven error bars")
    p_mom.add_argument("--rho", type=float, required=True)
    p_mom.add_argument("--m", type=int, required=True)
    p_mom.add_argument("--max-degree", type=int, default=3)
    p_mom.add_argument("--radius", type=float)
    p_mom.set_defaults(func=cmd_moments)

    # values such as -1e-05 and -inf, which argparse would take for options
    for p in sub.choices.values():
        p._negative_number_matcher = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
