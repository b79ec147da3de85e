"""Monic polynomials on the joint spectrum and their orthogonality structure.

Each lattice label mu carries a polynomial in the n joint eigenvalues that
reproduces the corresponding eigenfunction value after multiplication by the
normalization constant.  The whole family is one N x N coefficient matrix
over the basis: column nu stands for the eigenvalue monomial whose exponent
key is the dominant-weight vector of nu, its part differences
nu_r - nu_{r+1}, and row mu holds the coefficients of the polynomial of mu.
The rows are generated by a one-column recurrence processed in
lexicographic (degree, minimal column) order; multiplying a row by the r-th
eigenvalue adds the column strip (1^r) to every column partition, an index
map on the columns.
"""

import numpy as np

from .coeffs import ModelParams, _pieri_terms
from .errors import ConsistencyError, TruncationViolationError
from .partitions import LatticeBasis, enumerate_lattice

__all__ = [
    "build_polynomials",
    "value_table",
    "pieri_residual",
    "dual_orthogonality_residual",
    "reconstruct_and_compare",
]

_CANCEL_TOL = 1e-10


def _column_shift(basis: LatticeBasis, r: int) -> np.ndarray:
    """Basis index of nu + (1^r) for every column nu, -1 when nu_1 = m."""
    # the column strip is dominant from every point, so it picks one move per source
    return basis.moves.target[np.all(basis.moves.strip == (np.arange(basis.n + 1) < r), axis=1)]


def _recurrence_steps(basis: LatticeBasis):
    """Rows in (mu_1, r, basis) order, and per row its minimal column r and the row of mu - (1^r).

    r is the first j with mu_j > mu_{j+1}.  Row 0, the empty partition, comes
    first, as the only one with mu_1 = 0; its two entries are placeholders.
    """
    n, parts = basis.n, basis.parts
    column = np.argmax(parts[:, :-1] > parts[:, 1:], axis=1) + 1
    predecessor = np.zeros(len(basis), dtype=np.intp)
    predecessor[1:] = basis.indices(parts[1:, :n] - (np.arange(n) < column[1:, None]))
    return np.lexsort((np.arange(len(basis)), column, parts[:, 0])), column, predecessor


def build_polynomials(params: ModelParams, basis: LatticeBasis | None = None) -> np.ndarray:
    """Coefficient matrix C of the spectral polynomials over the box.

    ``C[mu, nu]`` is the coefficient of the monomial with exponent key
    (nu_1 - nu_2, ..., nu_n - nu_{n+1}) in the polynomial of mu.  Processing
    follows ``_recurrence_steps``: each step multiplies the row of the
    predecessor mu - (1^r) by the r-th eigenvalue and subtracts the lower
    Pieri terms, in move-table order.  Columns pushed off the box by the
    multiplication must carry coefficients that cancel, and a ConsistencyError
    is raised if they do not; a Pieri coefficient with a vanished denominator
    raises TruncationViolationError when the recurrence first needs it.
    """
    if basis is None:
        basis = enumerate_lattice(params.n, params.m)
    n, size, parts = params.n, len(basis), basis.parts
    shifts = {r: _column_shift(basis, r) for r in range(1, n + 1)}
    pieri = {r: _pieri_terms(basis, r, params) for r in range(1, n + 1)}
    order, column, predecessor = _recurrence_steps(basis)
    coeffs = np.zeros((size, size))
    coeffs[0, 0] = 1.0
    for row_mu in order[1:].tolist():
        mu, r, row_lam = basis.order[row_mu], int(column[row_mu]), int(predecessor[row_mu])
        # a built row is monic: its diagonal entry is 1, and 0 before it is built
        if not coeffs[row_lam, row_lam]:
            raise ConsistencyError(f"recurrence for {mu} needs {basis.order[row_lam]} before it is built")
        # multiplication by the r-th eigenvalue shifts every column
        inside = shifts[r] >= 0
        row = np.zeros(size)
        row[shifts[r][inside]] = coeffs[row_lam, inside]
        pushed_out = np.where(inside, 0.0, np.abs(coeffs[row_lam]))
        sources, targets, psi, errors = pieri[r]
        lo, hi = np.searchsorted(sources, (row_lam, row_lam + 1))
        for move in range(lo, hi):
            target = targets[move]
            if target == row_mu:
                continue
            if not coeffs[target, target]:
                raise ConsistencyError(
                    f"recurrence for {mu} needs {basis.order[target]} before it is built"
                )
            if move in errors:
                raise TruncationViolationError(errors[move])
            row -= psi[move] * coeffs[target]
        scale = max(np.max(np.abs(row)), np.max(pushed_out))
        survivors = np.flatnonzero(pushed_out > _CANCEL_TOL * scale)
        if len(survivors):
            key = parts[survivors[0], :-1] - parts[survivors[0], 1:]
            key[r - 1] += 1
            raise ConsistencyError(
                f"coefficient {coeffs[row_lam, survivors[0]]} survived on the out-of-box key "
                f"{tuple(key.tolist())} while building {mu}"
            )
        cancelled = np.abs(row) <= _CANCEL_TOL * scale
        cancelled[row_mu] = False
        row[cancelled] = 0.0
        coeffs[row_mu] = row
    return coeffs


def value_table(coeffs: np.ndarray, spectrum) -> np.ndarray:
    """Matrix of polynomial values, rows indexed by mu, columns by spectrum labels.

    Equals ``coeffs @ X`` with ``X[nu, j] = prod_r e_jr ** key(nu)_r``; X is
    read from one table of the powers 0..m of each eigenvalue.
    """
    basis = spectrum.basis
    parts = basis.parts
    keys = parts[:, :-1] - parts[:, 1:]
    eigenvalues = spectrum.eigenvalues.T
    powers = eigenvalues[:, None, :] ** np.arange(basis.m + 1)[None, :, None]
    monomials = np.prod(powers[np.arange(basis.n), keys], axis=1)
    return coeffs @ monomials


def pieri_residual(table: np.ndarray, spectrum, pieri) -> float:
    """Defect of the strip-sum multiplication rule evaluated on the spectrum.

    ``pieri`` holds ``box_pieri_coefficients(basis, r, params)`` for
    r = 1..n.  For each r, ``table[row(1^r)] * table`` must equal
    ``Psi_r @ table``, where ``Psi_r[lam, nu]`` is the Pieri coefficient of
    the one size-r move lam -> nu (``LatticeBasis.hop_table``); the residual
    is relative to the largest table entry.
    """
    basis = spectrum.basis
    largest = []
    for r, (source, target, psi) in enumerate(pieri, start=1):
        matrix = np.zeros((len(basis), len(basis)))
        matrix[source, target] = psi
        # the row of (1^r), the column strip added to the empty partition
        defect = table[_column_shift(basis, r)[0]] * table - matrix @ table
        largest.append(np.max(np.abs(defect)))
    # np.max, unlike the builtin max, lets a NaN through
    return float(np.max(largest, initial=0.0)) / float(np.max(np.abs(table)))


def dual_orthogonality_residual(table: np.ndarray, spectrum, norms: np.ndarray, weights: np.ndarray) -> float:
    """Defect of the dual orthogonality of the polynomials on the spectrum.

    The Gram matrix with the dual weights must be diagonal with entries
    1/(c^2 * w), c = ``norms``, w = ``weights``; the residual is relative to those entries row by row.
    """
    gram = (table * spectrum.norm_hat[None, :]) @ table.conj().T
    # where c^2 w overflows the residual is inf or NaN, a FAIL
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        target = 1.0 / (norms * norms * weights)
        return float(np.max(np.abs(gram - np.diag(target)) / target[:, None]))


def reconstruct_and_compare(table: np.ndarray, spectrum, norms: np.ndarray, weights: np.ndarray) -> float:
    """Rebuild eigenvectors from the polynomials and measure the distance.

    For each label the normalization constants ``norms`` times the polynomial
    values are compared, in the norm weighted by ``weights``, with the
    eigenvector u = v / sqrt(w) rescaled to unit value at the empty partition.
    """
    u = spectrum.eigenvectors / np.sqrt(weights)[:, None]
    distance = np.abs(norms[:, None] * table - u / u[0]) ** 2
    return float(np.sqrt(np.max(weights @ distance)))
