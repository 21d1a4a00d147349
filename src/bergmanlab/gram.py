"""Bordered Gram matrices and three routes to the (0,0) entry of the inverse.

The oracle of density_estimate's closed form; max_route_deviation is the
check shared by verify's schur_vs_inverse suite and acceptance criterion 5.
All three routes take one matrix or a stack of matrices of one size, so that
max_route_deviation runs each once per matrix size.
The truncated model sections (normalized monomials over the truncation disk)
are exactly orthonormal, so their Gram matrix is the identity; the global
corrections are carried as error budgets on the two bordered rows and columns.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BorderedGram",
    "assemble_truncated_gram",
    "schur_i00",
    "inverse00_oracle",
    "orthonormalize_i00",
    "max_route_deviation",
]


class BorderedGram:
    """Hermitian k x k Gram matrix, or an (n, k, k) stack, with entry error budgets (default 0)."""

    def __init__(self, entries: np.ndarray, budgets: np.ndarray | None = None) -> None:
        self.entries = np.asarray(entries, dtype=complex)
        self.budgets = np.zeros(self.entries.shape) if budgets is None else budgets
        self.dim = self.entries.shape[-1]


def assemble_truncated_gram(dim: int, scale: float) -> BorderedGram:
    """Gram matrix of dim normalized truncated monomial sections.

    Basis: degrees 0 and 1, then dim - 2 distinct degrees >= 2.  A radial
    weight makes distinct degrees exactly orthogonal and the normalization
    makes the diagonal 1, so the matrix is the identity; the budgets, scale on
    the two bordered rows and columns, carry the peak-section correction.
    """
    budgets = np.zeros((dim, dim))
    budgets[:2, :] = scale
    budgets[:, :2] = scale
    return BorderedGram(entries=np.eye(dim, dtype=complex), budgets=budgets)


def schur_i00(G: BorderedGram) -> tuple[float | list, tuple]:
    """Corner entry of the inverse via the bordered Schur-complement formula.

    Returns the value together with an interval obtained by first-order
    propagation of the entry budgets: the sensitivity of the corner entry to
    F_ij is -(F^-1)_0i (F^-1)_j0.  The first column of F^-1 is
    [value, -x / f00] from the solve below, and its first row is the
    conjugate, F being Hermitian.  On a stack, value, lo and hi are lists, one
    entry per matrix.
    """
    np.linalg.cholesky(G.entries)  # positive-definiteness gate: LinAlgError, a ValueError
    F = G.entries
    f00 = F[..., 0, 0].real
    row, col = F[..., :1, 1:], F[..., 1:, :1]  # a 1 x (k-1) row and a (k-1) x 1 column
    m_tilde = F[..., 1:, 1:] - col * row / f00[..., None, None]
    # F is positive definite (the gate above), so its Schur complement is too
    x = np.linalg.solve(m_tilde, col)
    value = 1.0 / f00 + (row @ x)[..., 0, 0].real / (f00 * f00)

    first = np.abs(np.concatenate((value[..., None], x[..., 0] / f00[..., None]), axis=-1))
    spread = np.sum(G.budgets * (first[..., :, None] * first[..., None, :]), axis=(-2, -1))
    return value.tolist(), ((value - spread).tolist(), (value + spread).tolist())


def inverse00_oracle(G: BorderedGram) -> float | list:
    """Reference route: dense LU solve for the first column of the inverse."""
    np.linalg.cholesky(G.entries)
    e0 = np.zeros(G.entries.shape[:-1] + (1,), dtype=complex)  # a column per matrix
    e0[..., 0, 0] = 1.0
    return np.linalg.solve(G.entries, e0)[..., 0, 0].real.tolist()


def orthonormalize_i00(G: BorderedGram) -> float | list:
    """Orthonormalization route: factor F = L L*, sum |(L^-1)_i0|^2."""
    L = np.linalg.cholesky(G.entries)
    e0 = np.zeros(G.entries.shape[:-1] + (1,), dtype=complex)
    e0[..., 0, 0] = 1.0
    y = np.linalg.solve(L, e0)
    return np.sum(np.abs(y[..., 0]) ** 2, axis=-1).tolist()


def max_route_deviation(seed: int, count: int) -> float:
    """Largest relative spread of the three routes to I00 over count random matrices.

    Each is b b* + (k/2) I, symmetrized, b a complex Gaussian k x k, k in 2..12, from
    default_rng(seed); (max - min) / max|v| is the largest pairwise spread, bit for bit.
    Each route runs once per size k, on the stack of the matrices of that size.
    """
    rng, by_dim = np.random.default_rng(seed), {}
    for _ in range(count):
        k = int(rng.integers(2, 13))
        by_dim.setdefault(k, []).append(rng.normal(size=(2, k, k)))  # real and imaginary parts
    worst = 0.0
    for k, draws in by_dim.items():
        parts = np.array(draws)
        b = parts[:, 0] + 1j * parts[:, 1]
        F = b @ b.conj().mT + 0.5 * k * np.eye(k)
        G = BorderedGram(entries=0.5 * (F + F.conj().mT))
        v = np.array([schur_i00(G)[0], inverse00_oracle(G), orthonormalize_i00(G)])
        worst = max(worst, float(np.max((v.max(0) - v.min(0)) / np.abs(v).max(0))))
    return worst
