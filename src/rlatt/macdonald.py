"""Independent trigonometric oracle built from Macdonald polynomials.

Everything here lives on the symmetric-polynomial side in n+1 variables and
never touches the lattice operator matrices, so the comparison with the
lattice diagonalization at zero nome is a genuine cross-check.

The polynomials are computed by a triangular eigen-solve in the monomial
basis: the action of the first q-difference operator on a monomial symmetric
function is obtained with exact polynomial arithmetic after clearing
denominators with the Vandermonde factor, and the eigenvector that is monic
at the top of the dominance order is then read off degree by degree.
"""

from dataclasses import dataclass, replace
from itertools import combinations, permutations

import numpy as np

from .coeffs import ModelParams, norm_constant
from .errors import ComparisonError, DegenerateSpecializationError
from .partitions import dominance_leq, pad, trim, weight

__all__ = [
    "SymmetricPoly",
    "macdonald_coeffs",
    "trig_joint_eigenvalue",
    "principal_eigenfunction_value",
    "compare_trig",
    "TrigComparison",
]

_EIG_COLLISION_TOL = 1e-10


@dataclass(frozen=True)
class SymmetricPoly:
    """Symmetric polynomial stored in the monomial basis.

    coeffs maps partitions (at most nvars parts) to complex coefficients.
    """

    nvars: int
    coeffs: dict

    def evaluate(self, values) -> complex:
        values = tuple(values)
        if len(values) != self.nvars:
            raise ValueError(f"need {self.nvars} values, got {len(values)}")
        total = 0j
        for lam, c in self.coeffs.items():
            total += c * _monomial_sym_eval(lam, values)
        return total

    def degree(self) -> int:
        return max((weight(lam) for lam in self.coeffs), default=0)


def _monomial_sym_eval(lam, values) -> complex:
    exps = set(permutations(pad(lam, len(values))))
    total = 0j
    for e in exps:
        term = 1.0 + 0j
        for v, k in zip(values, e):
            term *= v**k
        total += term
    return total


def _poly_mul(f: dict, g: dict) -> dict:
    out = {}
    for ea, ca in f.items():
        for eb, cb in g.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0j) + ca * cb
    return out


def _poly_axpy(out: dict, scale: complex, f: dict) -> None:
    for e, c in f.items():
        out[e] = out.get(e, 0j) + scale * c


def _monomial_sym_poly(lam, nvars: int) -> dict:
    return {e: 1.0 + 0j for e in set(permutations(pad(lam, nvars)))}


def _linear_factor(nvars: int, i: int, j: int, ci: complex, cj: complex) -> dict:
    ei = [0] * nvars
    ei[i] = 1
    ej = [0] * nvars
    ej[j] = 1
    return {tuple(ei): ci, tuple(ej): cj}


def _vandermonde(nvars: int, skip: int | None = None) -> dict:
    poly = {(0,) * nvars: 1.0 + 0j}
    for j in range(nvars):
        for k in range(j + 1, nvars):
            if skip is not None and (j == skip or k == skip):
                continue
            poly = _poly_mul(poly, _linear_factor(nvars, j, k, 1.0, -1.0))
    return poly


def _partitions_of_weight(d: int, max_len: int):
    """Partitions of d with at most max_len parts, descending lex order."""
    out = []

    def rec(remaining, max_part, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        if len(prefix) == max_len:
            return
        for part in range(min(max_part, remaining), 0, -1):
            prefix.append(part)
            rec(remaining - part, part, prefix)
            prefix.pop()

    rec(d, d, [])
    out.sort(reverse=True)
    return out


# keyed by (d, q, t, nvars), for one (q, t, nvars) at a time: a new point evicts the old one's
_matrix_cache: dict = {}


def _operator_matrix(d: int, q: complex, t: complex, nvars: int):
    """Matrix of the first q-difference operator on the degree-d monomial basis.

    Entry [row, col] is the coefficient of the monomial symmetric function of
    the row partition in the image of the column one.
    """
    key = (d, q, t, nvars)
    cached = _matrix_cache.get(key)
    if cached is not None:
        return cached
    parts = _partitions_of_weight(d, nvars) if d else [()]
    delta = tuple(range(nvars - 1, 0, -1)) + (0,)
    adelta = _vandermonde(nvars)
    lead_products = [_poly_mul(_monomial_sym_poly(mu, nvars), adelta) for mu in parts]
    # sign_i * prod_{j != i}(t z_i - z_j) * vandermonde-without-i clears every
    # denominator of the i-th coefficient function
    factors = []
    for i in range(nvars):
        f = _vandermonde(nvars, skip=i)
        for j in range(nvars):
            if j != i:
                f = _poly_mul(f, _linear_factor(nvars, i, j, t, -1.0))
        if i % 2:
            f = {e: -c for e, c in f.items()}
        factors.append(f)
    size = len(parts)
    mat = np.zeros((size, size), dtype=complex)
    for col, lam in enumerate(parts):
        m_lam = _monomial_sym_poly(lam, nvars)
        num: dict = {}
        for i in range(nvars):
            shifted = {e: c * q ** e[i] for e, c in m_lam.items()}
            _poly_axpy(num, 1.0, _poly_mul(factors[i], shifted))
        scale = max((abs(c) for c in num.values()), default=1.0)
        for row, mu in enumerate(parts):
            coefficient = num.get(tuple(a + b for a, b in zip(pad(mu, nvars), delta)), 0j)
            if coefficient:
                _poly_axpy(num, -coefficient, lead_products[row])
            mat[row, col] = coefficient
        leftover = max((abs(c) for c in num.values()), default=0.0)
        if leftover > 1e-9 * max(scale, 1.0):
            raise ArithmeticError(
                f"polynomial division left a remainder of size {leftover} for lam={lam}"
            )
    if any(other[1:] != key[1:] for other in _matrix_cache):
        _matrix_cache.clear()
    _matrix_cache[key] = (parts, mat)
    return parts, mat


def macdonald_coeffs(mu, q: complex, t: complex, nvars: int) -> SymmetricPoly:
    """Monic Macdonald polynomial of shape mu in the monomial basis.

    Parameters
    ----------
    mu : partition with at most nvars parts.
    q, t : complex deformation parameters.
    nvars : number of variables.

    Raises
    ------
    DegenerateSpecializationError
        when two eigenvalues of the triangular solve collide at the supplied
        (q, t), which can happen at roots of unity.
    """
    mu = trim(mu)
    if len(mu) > nvars:
        raise ValueError(f"shape {mu} has more than {nvars} parts")
    d = weight(mu)
    if d == 0:
        return SymmetricPoly(nvars, {(): 1.0 + 0j})
    parts, mat = _operator_matrix(d, q, t, nvars)
    idx = {lam: i for i, lam in enumerate(parts)}
    top = idx[mu]
    eig = mat[top, top]
    coeffs = np.zeros(len(parts), dtype=complex)
    coeffs[top] = 1.0
    for row in range(top + 1, len(parts)):
        lam = parts[row]
        if not dominance_leq(lam, mu, nvars):
            continue
        acc = 0j
        for col in range(top, row):
            if coeffs[col]:
                acc += mat[row, col] * coeffs[col]
        den = eig - mat[row, row]
        if abs(den) < _EIG_COLLISION_TOL:
            raise DegenerateSpecializationError(
                f"eigenvalue collision between {mu} and {lam} at q={q}, t={t}"
            )
        coeffs[row] = acc / den
    return SymmetricPoly(nvars, {parts[i]: coeffs[i] for i in range(len(parts)) if coeffs[i] != 0})


def _elementary_symmetric(values, r: int) -> complex:
    total = 0j
    for combo in combinations(values, r):
        term = 1.0 + 0j
        for v in combo:
            term *= v
        total += term
    return total


def _staircase_point(nu, params: ModelParams) -> tuple[complex, ...]:
    n = params.n
    nu_p = pad(nu, n)
    vals = [params.q_pow(nu_p[j] + (n - j) * params.g) for j in range(n)]
    vals.append(1.0 + 0j)
    return tuple(vals)


def _prefactor(order: int, nu, params: ModelParams) -> complex:
    """Center-of-mass factor of the zero-nome eigenvalue of the given order at label nu."""
    return params.q_pow(-order * (weight(nu) / (params.n + 1) + params.n * params.g / 2.0))


def trig_joint_eigenvalue(nu, r: int, params: ModelParams) -> complex:
    """Closed-form joint eigenvalue at zero nome.

    The elementary symmetric polynomial of order r evaluated on the
    g-shifted geometric staircase of nu, with the center-of-mass prefactor.
    """
    if not 1 <= r <= params.n:
        raise ValueError(f"order {r} outside 1..{params.n}")
    return _prefactor(r, nu, params) * _elementary_symmetric(_staircase_point(nu, params), r)


def principal_eigenfunction_value(mu, nu, params: ModelParams) -> complex:
    """Value at mu of the normalized joint eigenfunction labeled nu, at zero nome."""
    poly = macdonald_coeffs(mu, params.q, params.t, params.n + 1)
    value = poly.evaluate(_staircase_point(nu, params))
    return norm_constant(mu, replace(params, p=0.0)) * _prefactor(weight(mu), nu, params) * value


@dataclass(frozen=True)
class TrigComparison:
    eigenvalue_residual: float
    eigenfunction_residual: float

    @property
    def residual(self) -> float:
        return max(self.eigenvalue_residual, self.eigenfunction_residual)


def compare_trig(spectrum) -> TrigComparison:
    """Compare a labeled zero-nome lattice ``Spectrum`` against the oracle.

    Returns the max-norm residuals between (a) lattice joint eigenvalues and
    the closed form, and (b) eigenvectors normalized at the empty partition
    and the principally specialized Macdonald polynomials, each computed once
    per shape.  The labels come from the same closed form, so (a) measures
    how close each vector sits to its own label's closed form; (b) is the
    independent half.
    """
    params = spectrum.params
    if params.p != 0.0:
        raise ValueError("the trigonometric comparison is defined at p = 0")
    shapes = [
        (weight(mu), macdonald_coeffs(mu, params.q, params.t, params.n + 1), norm_constant(mu, params))
        for mu in spectrum.basis.order
    ]
    ev_res = 0.0
    vec_res = 0.0
    mismatches = []
    for datum in spectrum.data:
        nu = datum.label
        closed = np.array([trig_joint_eigenvalue(nu, r, params) for r in range(1, params.n + 1)])
        gap = float(np.max(np.abs(datum.eigenvalues - closed)))
        if gap > 1e-3:
            mismatches.append(nu)
        ev_res = max(ev_res, gap)
        point = _staircase_point(nu, params)
        reference = np.array([c * _prefactor(size, nu, params) * poly.evaluate(point) for size, poly, c in shapes])
        normalized = datum.eigenvector / datum.eigenvector[0]
        vec_res = max(vec_res, float(np.max(np.abs(normalized - reference))))
    if mismatches:
        raise ComparisonError(
            f"lattice eigenvalues do not match the closed form for labels {mismatches}",
            permutation=mismatches,
        )
    return TrigComparison(ev_res, vec_res)
