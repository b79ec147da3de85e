"""Cross-check of the hop amplitudes against the shifted-weight-lattice form.

The same coefficients arise as products over an index subset J evaluated at
a point of the dominant weight lattice shifted by the coupling-deformed Weyl
vector.  This module evaluates that bracket form directly on coordinates and
compares it with the partition-indexed amplitudes; agreement is the whole
point of the module.
"""

import numpy as np

from .coeffs import ModelParams, hop_amplitudes
from .errors import GenericityViolationError
from .partitions import LatticeBasis, enumerate_lattice

__all__ = ["crosscheck_hop_coefficients"]

GENERICITY_TOL = 1e-10


def crosscheck_hop_coefficients(params: ModelParams, basis: LatticeBasis | None = None) -> float:
    """Largest gap between the coordinate form and the partition form, over all points and subsets.

    At x_j = lam_j + g (n/2 - j), the coordinate form along an index subset J
    is the product over j in J, k outside J of [x_j - x_k + g] / [x_j - x_k]
    in row-major (j, k) order, 0.0 where a numerator sits on a zero.  The
    partition form is ``hop_amplitudes`` along the strip of J, placed by the
    code sum_{j in J} 2^j: 1 for J empty, 0 where the target is not a
    partition.  A NaN gap makes the result NaN.  Raises GenericityViolationError
    when some |[x_j - x_k]|, j != k, is below GENERICITY_TOL.
    """
    if basis is None:
        basis = enumerate_lattice(params.n, params.m)
    n1 = params.n + 1
    th = params.theta
    place = 2 ** np.arange(n1)
    partition = np.zeros((len(basis), 2**n1))
    partition[:, 0] = 1.0
    partition[basis.moves.source, basis.moves.strip @ place] = hop_amplitudes(basis, params)
    x = basis.parts + params.g * (params.n / 2 - np.arange(n1))
    diff = x[:, :, None] - x[:, None, :]
    den = th.bracket_array(diff)
    singular = (np.abs(den) < GENERICITY_TOL) & ~np.eye(n1, dtype=bool)
    if singular.any():
        row, j, k = np.argwhere(singular)[0]
        raise GenericityViolationError(f"denominator bracket vanished for pair ({j}, {k}) at x={x[row]}")
    vanished = th.is_zero_array(diff + params.g)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(vanished, 1.0, th.bracket_array(diff + params.g) / den)
    # row S: which indices the subset with code S holds
    members = (np.arange(2**n1)[:, None] & place) > 0
    coordinate = np.ones_like(partition)
    zero = np.zeros(partition.shape, dtype=bool)
    for j, k in np.ndindex(n1, n1):
        subsets = members[:, j] & ~members[:, k]
        coordinate[:, subsets] *= ratio[:, j, k, None]
        zero[:, subsets] |= vanished[:, j, k, None]
    coordinate[zero] = 0.0
    return float(np.max(np.abs(coordinate - partition)))
