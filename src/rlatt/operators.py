"""The commuting difference operators on the moves of the box, and their dense matrices.

The hop operator of order r moves a lattice point along every admissible
vertical r-strip.  On each move s -> t of D_r, ``paired_moves`` gives D_r[s, t]
and the amplitude D_{n+1-r}[t, s] of the reverse move, which the checks of
``report`` read.  By the weight recurrence D_r[s, t] w_s = D_{n+1-r}[t, s] w_t,
the two give M_r = W^{1/2} D_r W^{-1/2}, with M_{n+1-r} = M_r^T, one value per
move (``symmetric_hop_values``), which the joint solve scatters straight into
its sector blocks, at all the nomes of a pass at once, each with its own
error.  Only ``rlatt operator`` forms the dense matrices.
"""

import numpy as np

from .coeffs import ModelParams, hop_amplitudes, hop_brackets, move_amplitudes
from .errors import TruncationViolationError
from .partitions import HopTable, LatticeBasis, MoveArrays

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
    mat[hops.source, hops.target] = hop_amplitudes(basis, hops, params)
    return mat


def paired_moves(basis: LatticeBasis, params: ModelParams, hops: HopTable) -> tuple:
    """(s, t, D_r[s, t], D_{n+1-r}[t, s]) on the moves s -> t of ``hops``, the ``HopTable`` of order r.

    The reverse of the move along the strip e is the order-(n+1-r) move
    t -> s along 1 - e, so one ``hop_amplitudes`` call gives both.
    """
    s, t, strip = hops.source, hops.target, hops.strip
    both = hop_amplitudes(basis, MoveArrays(np.concatenate([s, t]), np.concatenate([strip, 1 - strip]), None), params)
    return s, t, both[: len(s)], both[len(s) :]


def symmetric_hop_values(basis: LatticeBasis, points: list, orders: dict) -> tuple:
    """M_r[s, t] = sign(D_r[s, t]) sqrt(D_r[s, t] D_{n+1-r}[t, s]) (``paired_moves``) at each of ``points`` on the
    moves of each ``HopTable`` of ``orders``, keyed by r, in turn (nomes x moves), and per point its error or None:
    its first vanished hop denominator, else the first move, in the first order, whose amplitudes differ in sign
    (zero included), which admits no positive weights.  The row of a point with an error holds zeros."""
    tables, brackets = list(orders.values()), hop_brackets(basis, points)
    s, t = (np.concatenate([getattr(h, name) for h in tables]) for name in ("source", "target"))
    numerators = np.concatenate([h.forward for h in tables] + [h.reverse for h in tables])
    a, b = np.split(move_amplitudes(basis, brackets, np.concatenate([s, t]), numerators), 2, axis=1)
    order = np.repeat(list(orders), [len(h.source) for h in tables])
    errors, bad = brackets[2], np.sign(a) != np.sign(b)
    for point in np.flatnonzero(bad.any(axis=1)):
        i = np.argmax(bad[point])
        move = f"{basis.order[s[i]]} -> {basis.order[t[i]]} (order {order[i]})"
        message = f"amplitudes of {move} and back differ in sign: {a[point, i]}, {b[point, i]}"
        errors[point] = errors[point] or TruncationViolationError(message)
    # the points with no error, whose amplitude products are all >= 0
    ok, values = np.array([error is None for error in errors], dtype=bool), np.zeros_like(a)
    values[ok] = np.sign(a[ok]) * np.sqrt(a[ok] * b[ok])
    return values, errors


def symmetric_hop_operator(r: int, params: ModelParams, basis: LatticeBasis) -> np.ndarray:
    """The dense M_r of ``symmetric_hop_values`` at one point, so M_{n+1-r} = M_r^T bit for bit."""
    hops, mat = basis.hop_table(r), np.zeros((len(basis), len(basis)))
    values, (error,) = symmetric_hop_values(basis, [params], {r: hops})
    if error is not None:
        raise error
    mat[hops.source, hops.target] = values[0]
    return mat
