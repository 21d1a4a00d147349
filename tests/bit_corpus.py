"""The bit-identity corpus: seeded inputs per named regime, hashed in blocks of 500 outputs.

Each regime draws its inputs from random.Random(its name) and feeds them to
quadrature.lambda_inv_sq, density.density_estimate or density.cp1_density.
An output is value.hex() and abs_err.hex() of a moment, the hex of a density
report's density, lo, hi, reference and remainder, or the hex of a sphere
density; where the call raises ValueError it is the error's text.  The record
in tests/data/bit_corpus.json holds, per regime, its input count, the number
of inputs that reached the branch it is named for, and one SHA-256 per block of
500 outputs, so a mismatch names its block.  The branch is seen by wrapping the
private routes while the corpus runs (`probed`), and DBL_MAX in quadrature by a
float that records each value compared above it (log Q's error bound).

    PYTHONPATH=src python tests/bit_corpus.py

rewrites the record.  Only a change that alters bits on purpose does so, and it
names the regimes whose digests moved.  The record was written from the source
before the double-range refusal left quadrature._complement; the inputs whose
moment that change answers (rho > 0 with m R^2 max(rho, 1) near the largest
double) are in tests/test_quadrature.py, not here.  The last of its 17 regimes
(10,100 inputs), moment_double_range_edge, was appended once lambda_inv_sq's
gate formed m max(|rho|, 1) (R R) as the b = infinity complement does: its
inputs hold that product within 4 ulps below the largest double, where Q's sum
starts from x above 2^1023; the other 16 entries kept their bytes.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import random
import sys
from contextlib import contextmanager
from pathlib import Path

from bergmanlab import density, quadrature
from bergmanlab.geometry import ModelGeometry

PATH = Path(__file__).parent / "data" / "bit_corpus.json"
BLOCK = 500
DBL_MIN = sys.float_info.min
DBL_MAX = sys.float_info.max
TINY = 2.0**-1074


class _RecordingMax(float):
    """DBL_MAX that notes in seen each value compared above it; `x > DBL_MAX` calls __lt__."""

    def __lt__(self, other):
        past = float.__lt__(self, other)
        if past:
            self.seen["past_max"] = True
        return past


def _wrap(module, name, note):
    real = getattr(module, name)

    def wrapped(*args):
        result = real(*args)
        note(args, result)
        return result

    return real, wrapped


@contextmanager
def probed():
    """Wrap the private routes; the dict yielded records which branches the last input took."""
    seen = {}

    def complement(args, result):
        geom, m, p, radius, top = args
        seen["complement"] = result
        seen["huge_b"] = top >> 1022 >= geom.n
        if seen["huge_b"] and p:  # the Q loop ran on x = b y, formed as _complement forms it
            seen["x"] = top / (2 * geom.d) * (radius * radius) / (1.0 + max(seen["w"], 0.0))

    def factor(args, result):
        seen["w"] = result[0]

    def log_tail(args, result):
        seen["log_t"] = result

    def walk(args, result):
        seen["walk"] = args  # m, s, k0, term, j

    patches = [
        (quadrature, "_complement", complement),
        (quadrature, "_series", lambda args, result: seen.setdefault("series", True)),
        (quadrature, "_binomial_piece", lambda args, result: seen.setdefault("binomial", True)),
        (quadrature, "log_conformal_factor", factor),
        (density, "lambda0_log_tail", log_tail),
        (density, "_cp1_walk", walk),
    ]
    saved = [(module, name, *_wrap(module, name, note)) for module, name, note in patches]
    limit = _RecordingMax(DBL_MAX)
    limit.seen = seen
    saved.append((quadrature, "DBL_MAX", quadrature.DBL_MAX, limit))
    try:
        for module, name, _, wrapped in saved:
            setattr(module, name, wrapped)
        yield seen
    finally:
        for module, name, real, _ in saved:
            setattr(module, name, real)


def _inside(rng, rho, radius):
    """radius, moved log-uniformly towards the disk's edge where it falls outside."""
    edge = ModelGeometry(rho).max_radius
    if radius < edge:
        return radius
    return min(edge * (1.0 - 10.0 ** rng.uniform(-16.0, -0.5)), math.nextafter(edge, 0.0))


def _near_truncation(rng, rho, m):
    return _inside(rng, rho, quadrature.truncation_radius(m) * 2.0 ** rng.uniform(-1.0, 1.0))


# lambda_inv_sq regimes: (rho, m, p, radius) inputs, and the branch each is named for


def complement_inputs(rng):
    """The bench's neighbourhood: R near log m / sqrt m, p <= 10."""
    rho = rng.choice((-2.0, -0.7, 0.0, 0.3, 2.0, rng.uniform(-3.0, 3.0)))
    m = int(10.0 ** rng.uniform(0.4, 8.0))
    return rho, m, rng.randrange(11), _near_truncation(rng, rho, m)


def declined_inputs(rng):
    """x = b y below a = p + 1, where Q > 1/2 sends the complement into the lower series."""
    rho = rng.choice((0.0, rng.uniform(-2.0, 2.0)))
    m, p = int(10.0 ** rng.uniform(1.0, 6.0)), rng.randrange(1, 60)
    return rho, m, p, math.sqrt((p + 1) * rng.uniform(0.05, 0.9) / m)


def binomial_inputs(rng):
    """rho > 0 and y = u/(1 + u) beyond 1 - h, mostly with p past 2m/rho + 1 (b <= 0)."""
    rho, m = rng.uniform(0.5, 4.0), rng.randrange(2, 20)
    p = max(0, math.ceil(2 * m / rho + 1) + rng.randrange(-3, 20))
    u = (p + 1) / 8.0 + 1.0
    return rho, m, p, math.sqrt(2.0 * u * 10.0 ** rng.uniform(0.0, 3.0) / rho)


def huge_b_inputs(rng):
    """|rho| near 1e-300 or below, so that b = 2m/|rho| - 1 is at least 2^1022."""
    rho = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-320.0, -308.0)
    m = int(10.0 ** rng.uniform(0.4, 6.0))
    return rho, m, rng.randrange(11), _near_truncation(rng, rho, m)


def exact_factor_inputs(rng):
    """rho < 0 and w = rho R^2 / 2 below -1/2, where 1 + w is formed exactly."""
    rho = -rng.uniform(0.1, 3.0)
    edge = ModelGeometry(rho).max_radius
    radius = min(edge * (1.0 - 10.0 ** rng.uniform(-16.0, -0.6)), math.nextafter(edge, 0.0))
    return rho, int(10.0 ** rng.uniform(0.4, 4.0)), rng.randrange(11), radius


def tiny_rho_inputs(rho_choices):
    """rho from rho_choices, None for a subnormal of either sign; R near log m / sqrt m or tiny."""
    def inputs(rng):
        rho = rng.choice(rho_choices)
        if rho is None:
            rho = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-323.5, -307.7)
        m = int(10.0 ** rng.uniform(0.4, 8.0))
        radius = rng.choice((_near_truncation(rng, rho, m), 10.0 ** rng.uniform(-170.0, -140.0)))
        return rho, m, rng.randrange(11), radius
    return inputs


def huge_m_inputs(rng):
    """m from 1e307 to DBL_MAX / |rho| near the disk's edge, where m log a passes the doubles."""
    rho = rng.choice((-2.0, -1.5, -1.0))
    edge = ModelGeometry(rho).max_radius
    m = int(10.0 ** rng.uniform(307.0, math.log10(DBL_MAX / -rho) - 1e-3))
    radius = edge * math.sqrt(1.0 - 10.0 ** rng.uniform(-12.0, -0.3))
    return rho, m, rng.randrange(40), min(radius, math.sqrt(DBL_MAX / -rho / m) * 0.999)


def zero_row_inputs(rng):
    """Moments below half the least subnormal: tiny R at moderate p, or p in the thousands."""
    rho = rng.choice((-2.0, 0.0, 2.0, rng.uniform(-2.0, 2.0)))
    if rng.random() < 0.5:
        radius = 10.0 ** rng.uniform(-170.0, -3.0)
        p = math.ceil(170.0 / -math.log10(radius)) + rng.randrange(20)
        return rho, int(10.0 ** rng.uniform(0.4, 8.0)), p, radius
    m = int(10.0 ** rng.uniform(4.0, 6.0))
    return rho, m, rng.randrange(1500, 3000), quadrature.truncation_radius(m)


def double_range_edge_inputs(rng):
    """m (R R) within 4 ulps below the largest double, at rho = 0 or |rho| <= 1e-300, p >= 1."""
    rho = rng.choice((0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e-300, -1e-300))
    # from m = 2^28 on, b >= 2^1022 and R is inside the disk at |rho| = 1e-300
    m = int(2.0 ** rng.uniform(28.0 if abs(rho) == 1e-300 else 1.0, 60.0))
    radius = math.sqrt(DBL_MAX / m)
    while math.isfinite(m * (radius * radius)):  # to the least R past the largest double
        radius = math.nextafter(radius, math.inf)
    near, radius = [], math.nextafter(radius, 0.0)
    while m * (radius * radius) >= DBL_MAX - 4 * 2.0**971:  # 2^971 is the last ulp
        near.append(radius)
        radius = math.nextafter(radius, 0.0)
    return rho, m, rng.randrange(1, 41), rng.choice(near)


def moment(args):
    rho, m, p, radius = args
    got = quadrature.lambda_inv_sq(ModelGeometry(rho), m, p, radius)
    return f"{got.value.hex()} {got.abs_err.hex()}"


def complement_route(seen, args, out):
    return seen.get("complement") is not None


# density_estimate regimes: (rho, m, budget_c)

DENSITY_RHOS = (-2.0, -0.7, 0.0, 2.0, 100.0, 1e-300, -1e-300)
BUDGETS = (0.0, 1.0, 2.5, 1e300)


def density_inputs(lo, hi):
    def inputs(rng):
        return rng.choice(DENSITY_RHOS), int(10.0 ** rng.uniform(lo, hi)), rng.choice(BUDGETS)
    return inputs


def density_row(args):
    rho, m, budget_c = args
    rep = density.density_estimate(ModelGeometry(rho), m, budget_c)
    return " ".join(x.hex() for x in (rep.density, rep.lo, rep.hi, rep.reference, rep.remainder))


# cp1_density regimes: (m, z)


def _z(rng, r):
    return cmath.rect(r, rng.uniform(-math.pi, math.pi))


def k0_zero_inputs(rng):
    """m p < 1: |z|^2 below 1/m, or above m by the symmetry z -> 1/z."""
    m = int(10.0 ** rng.uniform(0.0, 6.0))
    r = math.sqrt(rng.random() / (m + 1))
    return m, rng.choice((0j, _z(rng, r), _z(rng, 1.0 / r) if r else 1e300 + 0j))


def clipped_low_inputs(rng):
    """0 < k0 = floor(m p) below the window's half-width j, which reaches past k = 0."""
    m = int(10.0 ** rng.uniform(2.0, 6.0))
    s = rng.uniform(1.0, 12.0) / m
    return m, _z(rng, math.sqrt(s if rng.random() < 0.5 else 1.0 / s))


def clipped_high_inputs(rng):
    """m below the window's width, so the walk up stops at k = m."""
    return rng.randrange(1, 60), _z(rng, 10.0 ** rng.uniform(-1.0, 1.0))


def unit_circle_inputs(rng):
    m = int(10.0 ** rng.uniform(0.0, 5.0))
    return m, rng.choice((1 + 0j, -1 + 0j, 1j, -1j, complex(0.6, 0.8), complex(-0.8, 0.6)))


def max_window_inputs(rng):
    """|z| near 1 at m from 3e12, past the window MAX_WINDOW allows."""
    return int(10.0 ** rng.uniform(12.5, 30.0)), _z(rng, 10.0 ** rng.uniform(-0.3, 0.3))


def sphere(args):
    return density.cp1_density(*args).hex()


def walked(test):
    def reached(seen, args, out):
        return "walk" in seen and test(*seen["walk"])
    return reached


# name: (count, inputs, output, reached(seen, args, out))
REGIMES = {
    "moment_complement": (1000, complement_inputs, moment, complement_route),
    "moment_declined_to_lower_series": (
        500, declined_inputs, moment,
        lambda seen, args, out: "complement" in seen and seen["complement"] is None
        and "series" in seen,
    ),
    "moment_binomial_piece": (
        500, binomial_inputs, moment, lambda seen, args, out: "binomial" in seen
    ),
    "moment_huge_b": (
        500, huge_b_inputs, moment,
        lambda seen, args, out: complement_route(seen, args, out) and seen["huge_b"],
    ),
    "moment_exact_one_plus_w": (
        500, exact_factor_inputs, moment, lambda seen, args, out: seen["w"] < -0.5
    ),
    "moment_signed_zero_rho": (
        500, tiny_rho_inputs((0.0, -0.0)), moment,
        lambda seen, args, out: math.copysign(1.0, args[0]) < 0 and seen["complement"] is not None,
    ),
    "moment_subnormal_rho": (
        500, tiny_rho_inputs((5e-324, -5e-324, None)), moment,
        lambda seen, args, out: 0.0 < abs(args[0]) < DBL_MIN and seen["complement"] is not None,
    ),
    "moment_huge_m_log_err_past_max": (
        600, huge_m_inputs, moment, lambda seen, args, out: "past_max" in seen
    ),
    "moment_zero_rows": (
        500, zero_row_inputs, moment, lambda seen, args, out: out == f"{0.0.hex()} {TINY.hex()}"
    ),
    "density_tail_normal": (
        1000, density_inputs(1.0, 11.5), density_row,
        lambda seen, args, out: math.exp(seen["log_t"]) >= DBL_MIN,
    ),
    "density_tail_subnormal": (
        1000, density_inputs(11.6, 300.0), density_row,
        lambda seen, args, out: math.exp(seen["log_t"]) < DBL_MIN,
    ),
    "cp1_k0_zero": (500, k0_zero_inputs, sphere, walked(lambda m, s, k0, term, j: k0 == 0)),
    "cp1_clipped_at_zero": (
        500, clipped_low_inputs, sphere, walked(lambda m, s, k0, term, j: 0 < k0 < j)
    ),
    "cp1_clipped_at_m": (
        500, clipped_high_inputs, sphere, walked(lambda m, s, k0, term, j: k0 + j > m)
    ),
    "cp1_unit_circle": (
        500, unit_circle_inputs, sphere, lambda seen, args, out: abs(args[1]) == 1.0
    ),
    "cp1_max_window": (
        500, max_window_inputs, sphere,
        lambda seen, args, out: out.startswith("ValueError") and "exceeds" in out,
    ),
    "moment_double_range_edge": (
        500, double_range_edge_inputs, moment, lambda seen, args, out: seen.get("x", 0.0) > 2.0**1023
    ),
}


def run(name):
    """(count, reached, digests) of one regime, its outputs hashed in blocks of BLOCK."""
    count, inputs, output, reached = REGIMES[name]
    rng = random.Random(name)
    outs, hits = [], 0
    with probed() as seen:
        for _ in range(count):
            args = inputs(rng)
            seen.clear()
            try:
                out = output(args)
            except ValueError as exc:
                out = f"ValueError: {exc}"
            hits += bool(reached(seen, args, out))
            outs.append(out)
    digests = [hashlib.sha256("\n".join(outs[i:i + BLOCK]).encode()).hexdigest()
               for i in range(0, count, BLOCK)]
    return count, hits, digests


def main():
    record = {}
    for name in REGIMES:
        count, reached, blocks = run(name)
        record[name] = {"count": count, "reached": reached, "blocks": blocks}
        print(f"{name}: {reached} of {count} reached", file=sys.stderr)
    PATH.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
