"""Seeded inputs for the four benchmark workloads.

Every workload draws its inputs from ``random.Random(f"{name}:{seed}")``, so a
seed fixes the inputs exactly.  Log-uniform draws are stratified: the log
range is cut into equal strata and each stratum gets one draw, and the seeded
rho values take one draw in each quarter of [-2, 2].  The total work
per pass and the share of inputs that fall into a known defect region (the
subnormal sweep tail, the collapsed sweep intervals at large m, the moments
whose error bar is too small, the oracle near m = 1e6) then vary little
between seeds, while the exact points still change with the seed.

This module imports nothing from bergmanlab and nothing outside the standard
library, so the parent process can build inputs before any child starts.
"""

from __future__ import annotations

import math
import random

# rho values every sweep and moments run includes; the rest are uniform on [-2, 2],
# one in each quarter of it
SPECIAL_RHOS = (-2.0, -1.0, 0.0, 2.0)
EXTRA_RHO_STRATA = ((-2.0, -1.0), (-1.0, 0.0), (0.0, 1.0), (1.0, 2.0))

SWEEP_LOG_RANGE = (1.0, 18.0)  # m in [10, 1e18]
SWEEP_POINTS_PER_RHO = 300
SWEEP_BUDGET_C = "1"

MOMENT_DECADES = range(2, 8)  # m in [1e2, 1e8]
MOMENT_M_PER_DECADE = 8
MOMENT_MAX_P = 10

ORACLE_DECADES = range(0, 6)  # m in [1, 1e6]
ORACLE_TOP_M = 10**6
ORACLE_M_PER_DECADE = 8
ORACLE_MAX_ABS_Z = 3.0  # as the cp1 command draws z

VERIFY_RUNS = 8
VERIFY_ETAS = ("c1", "smooth")


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def stratified_log10(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    """One log-uniform draw from each of ``count`` equal strata of [10^lo, 10^hi].

    Neighbouring strata are paired and get mirrored offsets (u and 1 - u), so
    that the sum of the draws, which sets the work of the oracle, varies
    little between seeds.  Each draw is still log-uniform within its stratum.
    """
    width = (hi - lo) / count
    offsets = []
    while len(offsets) < count:
        u = rng.random()
        offsets += [u, 1.0 - u]
    return [10.0 ** (lo + (i + offsets[i]) * width) for i in range(count)]


def _rhos(rng: random.Random) -> list[float]:
    return list(SPECIAL_RHOS) + [rng.uniform(lo, hi) for lo, hi in EXTRA_RHO_STRATA]


def sweep_inputs(seed: int) -> dict:
    """Per rho, an ascending, deduplicated m grid log-uniform on [10, 1e18]."""
    rng = _rng("sweep", seed)
    groups = []
    for rho in _rhos(rng):
        draws = stratified_log10(rng, *SWEEP_LOG_RANGE, SWEEP_POINTS_PER_RHO)
        ms = sorted({int(round(x)) for x in draws})
        groups.append({"rho": rho, "m": ms})
    return {"budget_c": SWEEP_BUDGET_C, "groups": groups}


def moments_inputs(seed: int) -> dict:
    """(rho, m, p) triples: m log-uniform on [1e2, 1e8], every p in 0..10."""
    rng = _rng("moments", seed)
    ops = []
    for rho in _rhos(rng):
        for decade in MOMENT_DECADES:
            for x in stratified_log10(rng, decade, decade + 1, MOMENT_M_PER_DECADE):
                m = int(round(x))
                ops.extend([rho, m, p] for p in range(MOMENT_MAX_P + 1))
    return {"ops": ops}


def oracle_inputs(seed: int) -> dict:
    """(m, z) pairs: a fixed count of m per decade of [1, 1e6], |z| uniform on [0, 3].

    The top of the range, m = 1e6, is always included: it sets the peak
    memory of the pass, which would otherwise follow the largest draw.
    """
    rng = _rng("oracle", seed)
    ms = []
    for decade in ORACLE_DECADES:
        ms += [int(round(x)) for x in stratified_log10(rng, decade, decade + 1, ORACLE_M_PER_DECADE)]
    ops = []
    for m in ms + [ORACLE_TOP_M]:
        r = rng.uniform(0.0, ORACLE_MAX_ABS_Z)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        ops.append([m, r * math.cos(theta), r * math.sin(theta)])
    return {"ops": ops}


def verify_inputs(seed: int) -> dict:
    """Suite seeds derived from the workload seed, alternating the cut-off profile."""
    rng = _rng("verify", seed)
    return {
        "ops": [
            [rng.randrange(2**31), VERIFY_ETAS[i % len(VERIFY_ETAS)]]
            for i in range(VERIFY_RUNS)
        ]
    }
