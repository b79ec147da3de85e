"""Monic polynomials on the joint spectrum and their orthogonality structure.

Each lattice label mu carries a polynomial in the n joint eigenvalues that
reproduces the corresponding eigenfunction value after multiplication by the
normalization constant.  The polynomials are generated by a one-column
recurrence processed in lexicographic (degree, minimal column) order; keys
are the exponent vectors of the eigenvalue monomials, which are in bijection
with partitions via suffix sums.
"""

from dataclasses import dataclass

import numpy as np

from .coeffs import ModelParams, pieri_coefficient
from .errors import ConsistencyError
from .partitions import (
    LatticeBasis,
    enumerate_lattice,
    min_column,
    partition_to_weight,
    trim,
)

__all__ = [
    "SpectralPolynomial",
    "build_polynomials",
    "evaluate_polynomial",
    "value_table",
    "pieri_residual",
    "dual_orthogonality_residual",
    "reconstruct_and_compare",
]

_CANCEL_TOL = 1e-10


@dataclass(frozen=True)
class SpectralPolynomial:
    """Polynomial in the joint eigenvalues attached to a lattice label.

    coeffs maps exponent keys (length-n tuples) to real coefficients; the key
    of mu itself carries coefficient 1 and every other key corresponds to a
    lattice partition strictly below mu in dominance.
    """

    mu: tuple[int, ...]
    coeffs: dict


def monomial_key(nu, n: int) -> tuple[int, ...]:
    """Exponent key of the eigenvalue monomial attached to a partition."""
    return partition_to_weight(nu, n)


def _moves_from(basis: LatticeBasis, source: int, r: int):
    """(strip, target) of the size-r moves from one basis point, in table order; target -1 off the box."""
    moves = basis.move_arrays[r]
    lo, hi = np.searchsorted(moves.source, (source, source + 1))
    return zip(map(tuple, moves.strip[lo:hi].tolist()), moves.target[lo:hi].tolist())


def build_polynomials(params: ModelParams, basis: LatticeBasis | None = None) -> dict:
    """Construct the full family of spectral polynomials over the box.

    Processing follows the lexicographic order in (degree, minimal column);
    each step multiplies the predecessor by one eigenvalue variable and
    subtracts the lower Pieri terms.  Exponent keys may transiently leave the
    box during the multiplication; their final coefficients must cancel and a
    ConsistencyError is raised if they fail to.
    """
    if basis is None:
        basis = enumerate_lattice(params.n, params.m)
    n, m = params.n, params.m
    zero_key = (0,) * n
    polys: dict = {}
    ordering = sorted(
        basis.order, key=lambda mu: ((mu[0] if mu else 0), min_column(mu), basis.index[mu])
    )
    for mu in ordering:
        if not mu:
            polys[mu] = SpectralPolynomial(mu, {zero_key: 1.0})
            continue
        r = min_column(mu)
        lam = trim(tuple(x - 1 for x in mu[:r]) + mu[r:])
        if lam not in polys:
            raise ConsistencyError(f"recurrence for {mu} needs {lam} before it is built")
        # multiplication by the r-th eigenvalue shifts every key
        coeffs = {
            key[: r - 1] + (key[r - 1] + 1,) + key[r:]: c
            for key, c in polys[lam].coeffs.items()
        }
        for strip, target in _moves_from(basis, basis.index[lam], r):
            if target < 0 or target == basis.index[mu]:
                continue
            reduced = basis.order[target]
            if reduced not in polys:
                raise ConsistencyError(f"recurrence for {mu} needs {reduced} before it is built")
            psi = pieri_coefficient(lam, strip, params)
            for key, c in polys[reduced].coeffs.items():
                coeffs[key] = coeffs.get(key, 0.0) - psi * c
        scale = max(abs(c) for c in coeffs.values())
        clean = {}
        for key, c in coeffs.items():
            if sum(key) > m:
                if abs(c) > _CANCEL_TOL * scale:
                    raise ConsistencyError(
                        f"coefficient {c} survived on the out-of-box key {key} while building {mu}"
                    )
                continue
            if abs(c) <= _CANCEL_TOL * scale and key != monomial_key(mu, n):
                continue
            clean[key] = c
        polys[mu] = SpectralPolynomial(mu, clean)
    return polys


def evaluate_polynomial(poly: SpectralPolynomial, e) -> complex:
    """Value of the polynomial at a vector of joint eigenvalues."""
    e = tuple(e)
    total = 0j
    for key, c in poly.coeffs.items():
        term = complex(c)
        for base, k in zip(e, key):
            if k:
                term *= base**k
        total += term
    return total


def value_table(polys: dict, spectrum) -> np.ndarray:
    """Matrix of polynomial values, rows indexed by mu, columns by spectrum labels."""
    basis = spectrum.basis
    table = np.zeros((len(basis), len(spectrum)), dtype=complex)
    for i, mu in enumerate(basis.order):
        poly = polys[mu]
        for j, datum in enumerate(spectrum.data):
            table[i, j] = evaluate_polynomial(poly, datum.eigenvalues)
    return table


def pieri_residual(polys: dict, spectrum, params: ModelParams) -> float:
    """Defect of the strip-sum multiplication rule evaluated on the spectrum."""
    basis = spectrum.basis
    n = params.n
    table = value_table(polys, spectrum)
    scale = float(np.max(np.abs(table)))
    worst = 0.0
    for row_lam, lam in enumerate(basis.order):
        for r in range(1, n + 1):
            terms = [
                (pieri_coefficient(lam, strip, params), target)
                for strip, target in _moves_from(basis, row_lam, r)
                if target >= 0
            ]
            row_er = basis.index[(1,) * r]
            for j in range(len(spectrum)):
                lhs = table[row_er, j] * table[row_lam, j]
                rhs = sum(psi * table[row, j] for psi, row in terms)
                worst = max(worst, abs(lhs - rhs))
    return worst / scale


def dual_orthogonality_residual(polys: dict, spectrum, norms: np.ndarray) -> float:
    """Defect of the dual orthogonality of the polynomials on the spectrum.

    The Gram matrix with the dual weights must be diagonal with entries
    1/(c^2 * weight), c = ``norms``; the residual is relative to those entries row by row.
    """
    basis = spectrum.basis
    table = value_table(polys, spectrum)
    dual = np.array([d.norm_hat for d in spectrum.data])
    gram = (table * dual[None, :]) @ table.conj().T
    target = 1.0 / (norms * norms * spectrum.weights)
    worst = 0.0
    for i in range(len(basis)):
        for j in range(len(basis)):
            expected = target[i] if i == j else 0.0
            worst = max(worst, abs(gram[i, j] - expected) / target[i])
    return float(worst)


def reconstruct_and_compare(polys: dict, spectrum, norms: np.ndarray) -> float:
    """Rebuild eigenvectors from the polynomials and measure the distance.

    For each label the normalization constants ``norms`` times the polynomial
    values are compared, in the weighted norm, with the numerically obtained
    eigenvector rescaled to unit value at the empty partition.
    """
    table = value_table(polys, spectrum)
    worst = 0.0
    for j, datum in enumerate(spectrum.data):
        rebuilt = norms * table[:, j]
        reference = datum.eigenvector / datum.eigenvector[0]
        dist = float(np.sqrt(np.sum(np.abs(rebuilt - reference) ** 2 * spectrum.weights)))
        worst = max(worst, dist)
    return worst
