"""Independent trigonometric oracle built from Macdonald polynomials.

Everything here lives on the symmetric-polynomial side in n+1 variables and
never touches the lattice operator matrices, so the comparison with the
lattice diagonalization at zero nome is a genuine cross-check.

The polynomials are computed by a triangular eigen-solve in the monomial
basis: the matrix of the first q-difference operator on the monomial
symmetric functions of one degree is solved by forward substitution from its
antisymmetrized form, one broadcast over the permutations of the staircase,
and the eigenvector monic at the top of the dominance order is read off.
``compare_trig`` builds one such matrix, and one table of the monomial
symmetric functions at the staircase points of all labels, per degree.
"""

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .coeffs import ModelParams, norm_vector, weight_vector
from .errors import DegenerateSpecializationError
from .partitions import pad, trim, weight

__all__ = [
    "SymmetricPoly",
    "macdonald_coeffs",
    "trig_joint_eigenvalues",
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
        table = _monomial_table(list(self.coeffs), [values])
        return complex(np.array(list(self.coeffs.values()), dtype=complex) @ table[:, 0])

    def degree(self) -> int:
        return max((weight(lam) for lam in self.coeffs), default=0)


def _monomial_table(parts, points) -> np.ndarray:
    """Monomial symmetric functions of ``parts`` at the rows of ``points``, as a (len(parts), N) array.

    Entry [i, k] sums ``prod_j x_j^e_j`` over the distinct permutations e of
    ``parts[i]``, zero-padded to the row length of ``points``; each
    partition's permutations are enumerated once for all N points.
    """
    points = np.array(points, dtype=complex, ndmin=2)
    nvars = points.shape[1]
    powers = points[:, :, None] ** np.arange(max((max(lam, default=0) for lam in parts), default=0) + 1)
    table = np.empty((len(parts), len(points)), dtype=complex)
    for i, lam in enumerate(parts):
        exps = np.array(sorted(set(permutations(pad(lam, nvars)))))
        table[i] = powers[:, np.arange(nvars), exps].prod(axis=2).sum(axis=1)
    return table


def _partitions_of_weight(d: int, max_len: int):
    """Partitions of d with at most max_len parts, descending lex order: larger parts are tried first."""

    def rec(remaining, length, largest):
        if remaining == 0:
            return [()]
        heads = range(min(largest, remaining), 0, -1) if length else ()
        return [(head, *rest) for head in heads for rest in rec(remaining - head, length - 1, head)]

    return rec(d, max_len, d)


def _antisymmetrized_form(d: int, q: complex, t: complex, nvars: int):
    """Partitions of d and the matrices K, B of ``K M = B`` for the operator matrix M.

    Applied to ``m_lam``, the identity ``a_delta D_1 = sum_i (T_{t,x_i} a_delta) T_{q,x_i}``
    (Macdonald, ch. VI (3.4)), with ``a_delta = sum_w sign(w) x^(w delta)``
    and ``delta = (nvars-1, ..., 1, 0)``, has ``(K @ M)[nu, lam]`` as the
    coefficient of ``x^(nu + delta)`` on the left and ``B[nu, lam]`` on the
    right: each permutation w of delta adds, for every row nu with
    ``alpha = nu + delta - w delta >= 0`` and ``lam = sort(alpha)``, sign(w)
    to ``K[nu, lam]`` and ``sign(w) * sum_i t^(w delta)_i q^alpha_i`` to
    ``B[nu, lam]``.  K is unit lower triangular in the order of the
    partitions.  All w go in one broadcast, and each entry adds its terms
    in the order of the permutations in ``itertools.permutations``.
    """
    parts = _partitions_of_weight(d, nvars)
    rows = np.array([pad(lam, nvars) for lam in parts])
    delta = np.arange(nvars - 1, -1, -1)
    # negated base-(d+1) codes of the padded partitions: ascending, as the partitions descend
    place = (d + 1) ** delta
    codes = -(rows @ place)
    perms = np.array(list(permutations(delta.tolist())))
    # sign(w) is the parity of the pairs i < j with (w delta)_i < (w delta)_j
    signs = (-1) ** np.triu(perms[:, :, None] < perms[:, None, :], 1).sum(axis=(1, 2))
    alpha = rows[None] + delta - perms[:, None, :]
    perm, row = np.nonzero(np.all(alpha >= 0, axis=2))
    alpha = alpha[perm, row]
    col = np.searchsorted(codes, -(np.sort(alpha, axis=1)[:, ::-1] @ place))
    lead = np.zeros((len(parts), len(parts)))
    image = np.zeros((len(parts), len(parts)), dtype=complex)
    np.add.at(lead, (row, col), signs[perm])
    np.add.at(image, (row, col), signs[perm] * (t ** perms[perm] * q**alpha).sum(axis=1))
    return parts, lead, image


def _operator_matrix(d: int, q: complex, t: complex, nvars: int):
    """Matrix of the first q-difference operator on the degree-d monomial basis.

    Entry [row, col] is the coefficient of the monomial symmetric function of
    the row partition in the image of the column one.  K of ``K M = B``
    (``_antisymmetrized_form``) is unit lower triangular, so M is read off row
    by row by forward substitution, with no division.
    """
    parts, lead, mat = _antisymmetrized_form(d, q, t, nvars)
    for row in range(1, len(parts)):
        mat[row] -= lead[row, :row] @ mat[:row]
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
        (q, t), which can happen at roots of unity.  The locked alpha of an
        ``n x m`` box puts (q, t) on the curve ``t**(n+1) * q**m = 1`` for
        every g, and on that curve the eigenvalues of (4, 2, 2) and
        (3, 3, 1, 1) collide at (n, m) = (3, 4), and those of (5, 3, 2) and
        (4, 4, 1, 1) at (3, 6).
    """
    mu = trim(mu)
    if len(mu) > nvars:
        raise ValueError(f"shape {mu} has more than {nvars} parts")
    parts, mat = _operator_matrix(weight(mu), q, t, nvars)
    coeffs = _solve_shape(mu, parts, mat, q, t, nvars)
    return SymmetricPoly(nvars, {parts[i]: coeffs[i] for i in range(len(parts)) if coeffs[i] != 0})


def _solve_shape(mu, parts, mat, q: complex, t: complex, nvars: int) -> np.ndarray:
    """Coefficients of ``macdonald_coeffs(mu, ...)`` on ``parts``, from the ``_operator_matrix`` of mu's degree."""
    top = parts.index(mu)
    below = _dominated(parts, top, nvars)
    eig = mat[top, top]
    coeffs = np.zeros(len(parts), dtype=complex)
    coeffs[top] = 1.0
    for row in range(top + 1, len(parts)):
        lam = parts[row]
        if not below[row]:
            continue
        acc = mat[row, top:row] @ coeffs[top:row]
        den = eig - mat[row, row]
        if abs(den) < _EIG_COLLISION_TOL:
            raise DegenerateSpecializationError(f"eigenvalue collision between {mu} and {lam} at q={q}, t={t}")
        coeffs[row] = acc / den
    return coeffs


def _dominated(parts, top: int, nvars: int) -> np.ndarray:
    """Which of ``parts``, all of one weight, lie below ``parts[top]`` in dominance: no partial sum above its own."""
    sums = np.cumsum([pad(lam, nvars) for lam in parts], axis=1)
    return np.all(sums <= sums[top], axis=1)


def _staircase(basis, params: ModelParams):
    """Staircase points, (N, n+1), and center-of-mass exponents, (N,), of the labels in basis order.

    At nu, ``x_j = q^(nu_j + (n - j) g)``, ``x_{n+1} = 1`` and ``s = |nu|/(n+1) + n g/2``.
    """
    n = params.n
    x = np.ones((len(basis), n + 1), dtype=complex)
    x[:, :n] = np.exp(1j * params.alpha * (basis.parts[:, :n] + np.arange(n, 0, -1) * params.g))
    return x, basis.parts.sum(axis=1) / (n + 1) + n * params.g / 2.0


def trig_joint_eigenvalues(basis, params: ModelParams) -> np.ndarray:
    """Closed-form joint eigenvalues at zero nome at every label of the box, as an (N, n) complex array.

    Row k holds r = 1..n at nu = ``basis.order[k]``: e_r of the ``_staircase`` point x,
    from the running product ``prod_j (1 + x_j z)``, times ``q^(-r s)``.
    """
    n = params.n
    x, s = _staircase(basis, params)
    e = np.zeros((len(basis), n + 1), dtype=complex)
    e[:, 0] = 1.0
    for j in range(n + 1):
        e[:, 1:] = e[:, 1:] + x[:, j, None] * e[:, :-1]
    return np.exp(1j * params.alpha * (-np.arange(1, n + 1) * s[:, None])) * e[:, 1:]


@dataclass(frozen=True)
class TrigComparison:
    eigenvalue_residual: float
    eigenfunction_residual: float

    @property
    def residual(self) -> float:
        # np.maximum, unlike the builtin max, lets a NaN through
        return float(np.maximum(self.eigenvalue_residual, self.eigenfunction_residual))


def compare_trig(spectrum) -> TrigComparison:
    """Compare a labeled zero-nome lattice ``Spectrum`` against the oracle.

    Returns the max-norm residuals between (a) lattice joint eigenvalues and
    the closed form, and (b) eigenvectors normalized at the empty partition
    and the principally specialized Macdonald polynomials, each shape solved
    once, in basis order.  The labels come from the same closed form, so (a)
    measures how close each vector sits to its own label's closed form; (b)
    is the independent half.
    """
    params = spectrum.params
    if params.p != 0.0:
        raise ValueError("the trigonometric comparison is defined at p = 0")
    basis = spectrum.basis
    x, s = _staircase(basis, params)
    norms = norm_vector(basis, params)
    degrees = basis.parts.sum(axis=1)
    # column k: the eigenvector of label basis.order[k], normalized at the empty partition;
    # the basis is graded by weight, so the shapes are solved, and a collision is raised, in basis order
    reference = np.empty((len(basis), len(basis)), dtype=complex)
    for d in np.unique(degrees).tolist():
        rows = np.flatnonzero(degrees == d)
        parts, mat = _operator_matrix(d, params.q, params.t, params.n + 1)
        coeffs = np.array([_solve_shape(basis.order[k], parts, mat, params.q, params.t, params.n + 1) for k in rows])
        reference[rows] = norms[rows, None] * np.exp(1j * params.alpha * (-d * s)) * (coeffs @ _monomial_table(parts, x))
    # row k: the eigenvalues of label basis.order[k] against their closed form
    gaps = np.max(np.abs(spectrum.eigenvalues - trig_joint_eigenvalues(basis, params)), axis=1)
    u = spectrum.eigenvectors / np.sqrt(weight_vector(basis, params))[:, None]
    vec_res = float(np.max(np.abs(u / u[0] - reference)))
    return TrigComparison(float(np.max(gaps)), vec_res)
