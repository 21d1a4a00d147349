import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bergmanlab.density import density_estimate, remainder_envelope
from bergmanlab.geometry import ModelGeometry
from bergmanlab.gram import (
    BorderedGram,
    assemble_truncated_gram,
    inverse00_oracle,
    max_route_deviation,
    orthonormalize_i00,
    schur_i00,
)


def random_pd(rng, dim):
    b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    f = b @ b.conj().T + 0.5 * dim * np.eye(dim)
    return BorderedGram(entries=0.5 * (f + f.conj().T))


def test_error_budget():
    # budget_c widens the interval by budget_c * e^(-(log m)^2 / 8) relative to the density
    m, geom = math.exp(10.0), ModelGeometry(0.0)
    wide, plain = density_estimate(geom, m, 2.0), density_estimate(geom, m, 0.0)
    budget = ((wide.hi - wide.lo) - (plain.hi - plain.lo)) / (2.0 * wide.density)
    assert budget == pytest.approx(2.0 * math.exp(-100.0 / 8.0), rel=1e-9)
    with pytest.raises(ValueError):
        density_estimate(ModelGeometry(0.0), 100, -1.0)


@pytest.mark.parametrize("c", [math.inf, math.nan, -math.inf])
def test_error_budget_rejects_non_finite(c):
    with pytest.raises(ValueError, match="finite"):
        density_estimate(ModelGeometry(0.0), 100, c)


def test_assemble_minimal():
    scale = remainder_envelope(50)
    G = assemble_truncated_gram(2, scale)
    assert G.dim == 2
    assert np.array_equal(G.entries, np.eye(2))
    assert np.allclose(G.budgets, scale)


def test_assemble_block_pattern():
    scale = remainder_envelope(50)
    G = assemble_truncated_gram(4, scale)
    assert G.dim == 4
    assert np.array_equal(G.entries, np.eye(4))
    assert np.all(G.budgets[:2, :] == scale)
    assert np.all(G.budgets[:, :2] == scale)
    assert np.all(G.budgets[2:, 2:] == 0.0)


def test_schur_identity():
    G = BorderedGram(entries=np.eye(3))
    value, (lo, hi) = schur_i00(G)
    assert value == 1.0
    assert lo == hi == 1.0
    assert inverse00_oracle(G) == 1.0
    assert orthonormalize_i00(G) == 1.0


def test_schur_2x2_hand_formula():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.uniform(0.5, 3.0)
        d = rng.uniform(0.5, 3.0)
        b = (rng.normal() + 1j * rng.normal()) * 0.3
        if a * d - abs(b) ** 2 <= 1e-3:
            continue
        F = np.array([[a, b], [np.conj(b), d]])
        G = BorderedGram(entries=F)
        value, _ = schur_i00(G)
        assert value == pytest.approx(d / (a * d - abs(b) ** 2), rel=1e-12)


def test_inverse00_diagonal():
    G = BorderedGram(entries=np.diag([4.0, 1.0, 1.0]).astype(complex))
    assert inverse00_oracle(G) == pytest.approx(0.25, rel=1e-14)


def test_inverse00_built_from_factor():
    L = np.array(
        [[1.0, 0, 0], [0.5 - 0.25j, 1.5, 0], [-0.75j, 0.3 + 0.1j, 2.0]], dtype=complex
    )
    F = L @ L.conj().T
    G = BorderedGram(entries=0.5 * (F + F.conj().T))
    expected = np.linalg.inv(G.entries)[0, 0].real
    assert inverse00_oracle(G) == pytest.approx(expected, rel=1e-12)
    assert orthonormalize_i00(G) == pytest.approx(expected, rel=1e-12)


def test_orthonormalize_2x2():
    G = BorderedGram(entries=np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex))
    assert orthonormalize_i00(G) == pytest.approx(4.0 / 3.0, rel=1e-14)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=12))
def test_three_routes_agree(seed, dim):
    G = random_pd(np.random.default_rng(seed), dim)
    v1, _ = schur_i00(G)
    v2 = inverse00_oracle(G)
    v3 = orthonormalize_i00(G)
    assert v1 == pytest.approx(v2, rel=1e-10)
    assert v2 == pytest.approx(v3, rel=1e-10)


def test_non_pd_rejected():
    bad = np.array([[1.0, 2.0], [2.0, 1.0]], dtype=complex)
    # alone, and as one matrix of a stack whose others are positive definite
    stack = np.array([np.eye(2), bad, 2.0 * np.eye(2)])
    for G in (BorderedGram(entries=bad), BorderedGram(entries=stack)):
        for fn in (schur_i00, inverse00_oracle, orthonormalize_i00):
            with pytest.raises(np.linalg.LinAlgError):
                fn(G)


def test_budget_monotonicity():
    rng = np.random.default_rng(3)
    G = random_pd(rng, 5)
    G.budgets = np.full((5, 5), 1e-4)
    _, (lo1, hi1) = schur_i00(G)
    G.budgets[2, 3] *= 10
    G.budgets[0, 0] *= 10
    _, (lo2, hi2) = schur_i00(G)
    assert hi2 - lo2 >= hi1 - lo1


def test_schur_spread_matches_dense_inverse():
    # the sensitivity read from the Schur solve against the one from the dense inverse
    rng = np.random.default_rng(11)
    for dim in range(2, 13):
        G = random_pd(rng, dim)
        G.budgets = rng.uniform(0.0, 1e-6, size=(dim, dim))
        value, (lo, hi) = schur_i00(G)
        f_inv = np.linalg.inv(G.entries)
        spread = np.sum(G.budgets * np.abs(np.outer(f_inv[0, :], f_inv[:, 0])))
        assert hi - value == pytest.approx(spread, rel=1e-12)
        assert value - lo == pytest.approx(spread, rel=1e-12)


def test_zero_budget_truncated_gram_is_exactly_one():
    G = assemble_truncated_gram(5, 0.0)
    value, (lo, hi) = schur_i00(G)
    assert value == 1.0
    assert (lo, hi) == (1.0, 1.0)


def test_stacked_routes_match_per_matrix_calls():
    # numpy's stacked linalg runs the same LAPACK routine once per matrix
    rng = np.random.default_rng(5)
    for k in range(2, 13):
        singles = [random_pd(rng, k) for _ in range(6)]
        for S in singles:
            S.budgets = rng.uniform(0.0, 1e-3, size=(k, k))
        G = BorderedGram(
            entries=np.array([S.entries for S in singles]),
            budgets=np.array([S.budgets for S in singles]),
        )
        assert G.dim == k
        value, (lo, hi) = schur_i00(G)
        per_matrix = [schur_i00(S) for S in singles]
        assert value == [v for v, _ in per_matrix]
        assert list(zip(lo, hi)) == [interval for _, interval in per_matrix]
        assert inverse00_oracle(G) == [inverse00_oracle(S) for S in singles]
        assert orthonormalize_i00(G) == [orthonormalize_i00(S) for S in singles]


def per_matrix_route_deviation(seed, count):
    """max_route_deviation with each reference route called on one matrix at a time."""
    rng, worst = np.random.default_rng(seed), 0.0
    for _ in range(count):
        k = int(rng.integers(2, 13))
        b = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        F = b @ b.conj().T + 0.5 * k * np.eye(k)
        G = BorderedGram(entries=0.5 * (F + F.conj().T))
        e0 = np.zeros(k, dtype=complex)
        e0[0] = 1.0
        v = (
            schur_i00(G)[0],
            float(np.linalg.solve(G.entries, e0)[0].real),
            float(np.sum(np.abs(np.linalg.solve(np.linalg.cholesky(G.entries), e0)) ** 2)),
        )
        worst = max(worst, (max(v) - min(v)) / max(map(abs, v)))
    return worst


@pytest.mark.parametrize("seed", [0, 7, 42])
def test_route_deviation_matches_per_matrix_loop(seed):
    assert max_route_deviation(seed, 200) == per_matrix_route_deviation(seed, 200)
