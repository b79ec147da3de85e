"""The commuting difference operators on the moves of the box, and their dense matrices.

The hop operator of order r moves a lattice point along every admissible
vertical r-strip.  On each move s -> t of D_r, ``paired_moves`` gives D_r[s, t]
and the amplitude D_{n+1-r}[t, s] of the reverse move, which the checks of
``report`` read.  By the weight recurrence D_r[s, t] w_s = D_{n+1-r}[t, s] w_t,
the two give M_r = W^{1/2} D_r W^{-1/2}, with M_{n+1-r} = M_r^T, one value per
move (``symmetric_hop_values``), which the joint solve scatters straight into
its sector blocks.  Only ``rlatt operator`` forms the dense matrices.
"""

import numpy as np

from .coeffs import ModelParams, move_amplitudes
from .errors import TruncationViolationError
from .partitions import HopTable, LatticeBasis

__all__ = [
    "build_hop_operator",
    "paired_moves",
    "symmetric_hop_values",
    "symmetric_hop_operator",
]


def build_hop_operator(r: int, params: ModelParams, basis: LatticeBasis) -> np.ndarray:
    """Matrix of the order-r hop operator over the bounded lattice.

    Row lam holds the amplitudes of the r-strips whose reduced target stays
    on the lattice, one strip per target (``LatticeBasis.hop_table``).
    """
    hops, mat = basis.hop_table(r), np.zeros((len(basis), len(basis)))
    mat[hops.source, hops.target] = move_amplitudes(basis, params, hops.source, hops.forward)
    return mat


def paired_moves(basis: LatticeBasis, params: ModelParams, hops: HopTable) -> tuple:
    """(s, t, D_r[s, t], D_{n+1-r}[t, s]) on the moves s -> t of ``hops``, the ``HopTable`` of order r.

    The reverse of the move along the strip e is the order-(n+1-r) move
    t -> s along 1 - e, so both amplitudes come from the moves of order r.
    """
    s, t = hops.source, hops.target
    return s, t, move_amplitudes(basis, params, s, hops.forward), move_amplitudes(basis, params, t, hops.reverse)


def symmetric_hop_values(basis: LatticeBasis, r: int, params: ModelParams, hops: HopTable) -> np.ndarray:
    """M_r = W^{1/2} D_r W^{-1/2} on the moves of ``hops``, the ``HopTable`` of order r, from the amplitudes alone.

    On a move s -> t, M_r[s, t] = sign(D_r[s, t]) sqrt(D_r[s, t] D_{n+1-r}[t, s])
    (``paired_moves``).  A move whose two amplitudes differ in sign, one
    of them zero included, admits no positive weights and raises
    TruncationViolationError.
    """
    s, t, a, b = paired_moves(basis, params, hops)
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
