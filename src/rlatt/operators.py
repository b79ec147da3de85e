"""The commuting difference operators on the moves of the box, and their dense matrices.

The hop operator of order r moves a lattice point along every admissible
vertical r-strip, a row of ``LatticeBasis.moves``.  On each move s -> t of
D_r, ``paired_moves`` reads D_r[s, t] and D_{n+1-r}[t, s], that of the row
``reverse``, from a point's amplitudes, which the checks of ``report`` read.
By the weight recurrence D_r[s, t] w_s = D_{n+1-r}[t, s] w_t,
the two give M_r = W^{1/2} D_r W^{-1/2}, with M_{n+1-r} = M_r^T, one value per
move (``symmetric_hop_values``), which the joint solve scatters straight into
its sector blocks, at all the nomes of a pass at once, each with its own
error.  Only ``rlatt operator`` forms the dense matrices.
"""

import numpy as np

from .coeffs import ModelParams, hop_amplitudes, move_amplitudes
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
    mat[hops.source, hops.target] = hop_amplitudes(basis, params)[hops.rows]
    return mat


def paired_moves(basis: LatticeBasis, amplitudes: np.ndarray, hops: HopTable) -> tuple:
    """(s, t, D_r[s, t], D_{n+1-r}[t, s]) on the moves s -> t of ``hops``, the ``HopTable`` of order r, from the
    ``amplitudes`` of ``basis.moves`` (``hop_amplitudes``): the reverse of the move along the strip e is the
    order-(n+1-r) move t -> s along 1 - e, the row ``reverse`` of the move table."""
    return hops.source, hops.target, amplitudes[hops.rows], amplitudes[basis.moves.reverse[hops.rows]]


def symmetric_hop_values(basis: LatticeBasis, points: list, rows: np.ndarray) -> tuple:
    """M_r[s, t] = sign(D_r[s, t]) sqrt(D_r[s, t] D_{n+1-r}[t, s]) (``paired_moves``) at each of ``points`` on the
    on-box moves ``rows`` of ``basis.moves`` of sizes 1..n (nomes x rows), and per point its error or None: its
    first vanished hop denominator, else the first of the moves whose amplitudes differ in sign (zero included),
    which admits no positive weights.  The row of a point with an error holds zeros."""
    amplitudes, errors = move_amplitudes(basis, points, np.concatenate([rows, basis.moves.reverse[rows]]))
    a, b = np.split(amplitudes, 2, axis=1)
    bad, moves = np.sign(a) != np.sign(b), basis.moves
    for point in np.flatnonzero(bad.any(axis=1)):
        i = np.argmax(bad[point])
        s, t, order = moves.source[rows[i]], moves.target[rows[i]], moves.strip[rows[i]].sum()
        move = f"{basis.order[s]} -> {basis.order[t]} (order {order})"
        message = f"amplitudes of {move} and back differ in sign: {a[point, i]}, {b[point, i]}"
        errors[point] = errors[point] or TruncationViolationError(message)
    # the points with no error, whose amplitude products are all >= 0
    ok, values = np.array([error is None for error in errors], dtype=bool), np.zeros_like(a)
    values[ok] = np.sign(a[ok]) * np.sqrt(a[ok] * b[ok])
    return values, errors


def symmetric_hop_operator(r: int, params: ModelParams, basis: LatticeBasis) -> np.ndarray:
    """The dense M_r of ``symmetric_hop_values`` at one point, so M_{n+1-r} = M_r^T bit for bit."""
    hops, mat = basis.hop_table(r), np.zeros((len(basis), len(basis)))
    values, (error,) = symmetric_hop_values(basis, [params], hops.rows)
    if error is not None:
        raise error
    mat[hops.source, hops.target] = values[0]
    return mat
