"""Dense matrices of the commuting difference operators and their algebra checks.

The hop operator of order r moves a lattice point along every admissible
vertical r-strip; the matrices are small and dense.  By the weight recurrence
D_r[s, t] w_s = D_{n+1-r}[t, s] w_t, the weight-conjugated M_r = W^{1/2} D_r W^{-1/2},
with M_{n+1-r} = M_r^T, follows from the amplitudes of D_r and D_{n+1-r}, one
value per move (``symmetric_hop_values``), which the joint solve scatters
straight into its sector blocks.
"""

import numpy as np

from .coeffs import ModelParams, hop_amplitudes, move_amplitudes
from .errors import TruncationViolationError
from .partitions import HopTable, LatticeBasis, enumerate_lattice

__all__ = [
    "build_hop_operator",
    "symmetric_hop_values",
    "symmetric_hop_operator",
    "commutator_residual",
    "transpose_residual",
]


def build_hop_operator(r: int, params: ModelParams, basis: LatticeBasis | None = None) -> np.ndarray:
    """Matrix of the order-r hop operator over the bounded lattice.

    Row lam holds the amplitudes of the r-strips whose reduced target stays
    on the lattice, one strip per target (``LatticeBasis.box_moves``).
    """
    if basis is None:
        basis = enumerate_lattice(params.n, params.m)
    moves = basis.box_moves(r)
    mat = np.zeros((len(basis), len(basis)))
    mat[moves.source, moves.target] = hop_amplitudes(basis, moves, params)
    return mat


def symmetric_hop_values(basis: LatticeBasis, r: int, params: ModelParams, hops: HopTable) -> np.ndarray:
    """M_r = W^{1/2} D_r W^{-1/2} on the moves of ``hops``, the ``HopTable`` of order r, from the amplitudes alone.

    On a move s -> t, M_r[s, t] = sign(D_r[s, t]) sqrt(D_r[s, t] D_{n+1-r}[t, s]).
    The reverse of the move along the strip e is the order-(n+1-r) move
    t -> s along 1 - e, so both amplitudes come from the moves of order r.
    A move whose two amplitudes differ in sign, one of them zero included,
    admits no positive weights and raises TruncationViolationError.
    """
    s, t = hops.source, hops.target
    a, b = move_amplitudes(basis, params, s, hops.forward), move_amplitudes(basis, params, t, hops.reverse)
    (bad,) = np.nonzero(np.sign(a) != np.sign(b))
    if len(bad):
        i = bad[0]
        move = f"{basis.order[s[i]]} -> {basis.order[t[i]]} (order {r})"
        raise TruncationViolationError(f"amplitudes of {move} and back differ in sign: {a[i]}, {b[i]}")
    return np.sign(a) * np.sqrt(a * b)


def symmetric_hop_operator(r: int, params: ModelParams, basis: LatticeBasis) -> np.ndarray:
    """The dense M_r of ``symmetric_hop_values``, so M_{n+1-r} = M_r^T bit for bit."""
    hops, mat = basis.hop_table(r), np.zeros((len(basis), len(basis)))
    mat[hops.source, hops.target] = symmetric_hop_values(basis, r, params, hops)
    return mat


def commutator_residual(a: np.ndarray, b: np.ndarray) -> float:
    """Relative Frobenius norm of [A, B] for the matrices of D_r and D_s."""
    comm = a @ b - b @ a
    return float(np.linalg.norm(comm) / (np.linalg.norm(a) * np.linalg.norm(b)))


def transpose_residual(a: np.ndarray, b: np.ndarray, weights: np.ndarray) -> float:
    """Relative Frobenius defect of transpose(M_r) = M_{n+1-r}, from D_r, D_{n+1-r} and the weights it tests."""
    s = np.sqrt(weights)
    ma, mb = (s[:, None] * a) / s, (s[:, None] * b) / s
    return float(np.linalg.norm(ma.T - mb) / np.linalg.norm(ma))
