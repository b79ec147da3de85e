"""Dense matrices of the commuting difference operators and their algebra checks.

The hop operator of order r moves a lattice point along every admissible
vertical r-strip; the matrices are small and dense.  The weight-conjugated
form M = W^{1/2} A W^{-1/2} turns the adjoint relation into a plain
transpose, which is what the residual checks below exercise.
"""

import numpy as np

from .coeffs import ModelParams, hop_amplitudes
from .partitions import LatticeBasis, enumerate_lattice

__all__ = [
    "build_hop_operator",
    "conjugate_by_weights",
    "commutator_residual",
    "adjoint_residual",
    "transpose_residual",
    "weighted_norm",
]

_ADJOINT_SEED = 1234
_ADJOINT_SAMPLES = 8


def build_hop_operator(r: int, params: ModelParams, basis: LatticeBasis | None = None) -> np.ndarray:
    """Matrix of the order-r hop operator over the bounded lattice.

    Row lam collects the amplitudes of all r-strips whose reduced target
    stays on the lattice; distinct strips hitting the same target accumulate,
    in move-table order.
    """
    if not 1 <= r <= params.n:
        raise ValueError(f"operator order {r} outside 1..{params.n}")
    if basis is None:
        basis = enumerate_lattice(params.n, params.m)
    moves = basis.move_arrays[r]
    inside = moves.target >= 0
    mat = np.zeros((len(basis), len(basis)))
    np.add.at(mat, (moves.source[inside], moves.target[inside]), hop_amplitudes(basis, r, params)[inside])
    return mat


def conjugate_by_weights(matrix: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """W^{1/2} A W^{-1/2} for the diagonal matrix W of (positive) lattice weights."""
    s = np.sqrt(weights)
    return (s[:, None] * matrix) / s[None, :]


def commutator_residual(a: np.ndarray, b: np.ndarray) -> float:
    """Relative Frobenius norm of [A, B] for the matrices of D_r and D_s."""
    comm = a @ b - b @ a
    return float(np.linalg.norm(comm) / (np.linalg.norm(a) * np.linalg.norm(b)))


def transpose_residual(a: np.ndarray, b: np.ndarray, weights: np.ndarray) -> float:
    """Relative Frobenius defect of transpose(M_r) = M_{n+1-r}, from the matrices of D_r and D_{n+1-r}."""
    ma = conjugate_by_weights(a, weights)
    mb = conjugate_by_weights(b, weights)
    return float(np.linalg.norm(ma.T - mb) / np.linalg.norm(ma))


def adjoint_residual(a: np.ndarray, b: np.ndarray, weights: np.ndarray) -> float:
    """Bilinear-form defect of the adjoint pairing of D_r and D_{n+1-r}, given as matrices.

    Tests <D_r f, g> = <f, D_{n+1-r} g> in the weighted inner product on a
    fixed batch of _ADJOINT_SAMPLES pseudo-random complex vectors; the seed
    is fixed for reproducibility.
    """
    opnorm = np.linalg.norm(conjugate_by_weights(a, weights), 2)
    rng = np.random.default_rng(_ADJOINT_SEED)
    size = len(weights)
    worst = 0.0
    for _ in range(_ADJOINT_SAMPLES):
        f = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        g = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        lhs = np.sum((a @ f) * np.conj(g) * weights)
        rhs = np.sum(f * np.conj(b @ g) * weights)
        den = weighted_norm(f, weights) * weighted_norm(g, weights) * opnorm
        worst = max(worst, abs(lhs - rhs) / den)
    return float(worst)


def weighted_norm(f: np.ndarray, w: np.ndarray) -> float:
    """Norm induced by the weighted inner product."""
    return float(np.sqrt(np.sum(np.abs(f) ** 2 * w)))
