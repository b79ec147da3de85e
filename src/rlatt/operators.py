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
    "transpose_residual",
]


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
