"""Scalar references for the array evaluators of rlatt, used by the tests only.

Each function evaluates one partition, move, subset or label with the
scalar bracket ``ThetaEvaluator.bracket``, factor by factor in the order of
the array form it is the reference for:

- ``lattice_weight`` and ``norm_constant`` for ``coeffs.weight_vector`` and
  ``coeffs.norm_vector``;
- ``rho_shift``, ``translation_coefficient``, ``strip_from_subset`` and
  ``crosscheck_loop`` for ``weightlattice.crosscheck_hop_coefficients``;
- ``trig_joint_eigenvalue`` for ``macdonald.trig_joint_eigenvalues``, on
  the staircase point ``staircase_point`` and the center-of-mass factor
  ``prefactor`` of one label;
- ``principal_eigenfunction_value`` for the eigenvector side of
  ``macdonald.compare_trig``;
- ``monomial_sym_eval`` for ``macdonald._monomial_table``, one monomial
  symmetric function at one point;
- ``antisymmetrized_form`` for ``macdonald._antisymmetrized_form``, one
  permutation of the staircase at a time.

``coeffs.hop_coefficient`` and ``coeffs.pieri_coefficient``, the references
for ``hop_amplitudes`` and ``box_pieri_coefficients``, stay in the package.
``memoized`` gives a parameter point whose scalar bracket remembers its
values, for tests that run a scalar loop over a whole box, and ``off_regime``
one whose alpha is scaled off the locked value, as ``--alpha-scale`` does.

``conjugate_by_weights`` forms W^{1/2} A W^{-1/2} from the lattice weights,
the reference for ``operators.symmetric_hop_operator``, and
``operator_eigenvectors`` the eigenvectors u = v / sqrt(w) of the D_r from
the orthonormal frame v that a ``Spectrum`` holds.

Three diagnostics of a labeled ``Spectrum`` that only tests read live here
too: ``unitarity_residual``, ``conjugate_pairing_residual`` and
``min_eigenvalue_gap``; so does ``second_difference_residual``, the
smoothness statistic of a labeled sweep.

``reduce_partition`` and ``weight_to_partition`` are the per-partition
references for the reduction in ``LatticeBasis.move_arrays`` and the inverse
of ``partition_to_weight``; ``positions`` maps each partition of a box to
its basis index, the reference for ``LatticeBasis.indices``.  The tuple forms
of what the package reads from ``LatticeBasis.parts`` live here too:
``is_partition``; ``partition_to_weight``, the dominant-weight key of the
columns of ``eigenpoly.build_polynomials``; ``min_column``, the minimal
column of its recurrence; and ``dominance_leq``, the dominance order whose
same-weight case ``macdonald._dominated`` computes.

``paired_hop_operator`` is the dense pairing of two ``build_hop_operator``
matrices that ``operators.symmetric_hop_operator`` forms from the moves of
one order.  ``commutator_residual`` and ``transpose_residual`` are the dense
forms of the ``commutators`` and ``adjointness`` checks of ``report``, which
read the moves of each operator: ``dense_operator_checks`` gives the four
operator checks of ``rlatt verify`` from the matrices D_1..D_n.

The dense forms the joint solve replaced are the references for its move-table
forms: ``folded_blocks``, the sector blocks of all n orders as a fold of the
dense M_r over the orbits, whose first ceil(n/2) ``spectral._sector_blocks``
scatters and whose others the solve reads as their adjoints; ``dense_leakage``, the leakage of
``spectral._leakage`` as a difference of dense matrices; and
``sweep_nome_by_nome``, the sweep that solved and labeled one nome at a time,
the reference for the stacked ``spectral.sweep_spectra``; and
``dense_transfer_labels``, the overlap match on the N x N frames, the
reference for ``spectral._transfer_labels``, which matches block vectors.
"""

import cmath
import math
from dataclasses import replace
from itertools import combinations, permutations

import numpy as np
from scipy.spatial.distance import pdist

from rlatt.coeffs import (
    DENOM_TOL,
    ModelParams,
    _pair_range,
    box_pieri_coefficients,
    hop_coefficient,
    norm_vector,
    weight_vector,
)
from rlatt.elliptic import ThetaEvaluator
from rlatt.errors import GenericityViolationError, TruncationViolationError
from rlatt.macdonald import _partitions_of_weight, macdonald_coeffs
from rlatt.operators import build_hop_operator
from rlatt.partitions import enumerate_lattice, pad, trim, weight
from rlatt.report import _worst_relative
from rlatt.spectral import _MIN_OVERLAP, _permuted, continue_labels, joint_diagonalize, label_spectrum
from rlatt.weightlattice import GENERICITY_TOL


class _MemoTheta(ThetaEvaluator):
    """A ThetaEvaluator whose scalar bracket and zero test remember the value of each argument."""

    __slots__ = ("_values", "_zeros")

    def __init__(self, alpha: float, nome: float):
        super().__init__(alpha, nome)
        object.__setattr__(self, "_values", {})
        object.__setattr__(self, "_zeros", {})

    def bracket(self, z: float) -> float:
        value = self._values.get(z)
        if value is None:
            value = self._values[z] = super().bracket(z)
        return value

    def is_zero_argument(self, z: float) -> bool:
        zero = self._zeros.get(z)
        if zero is None:
            zero = self._zeros[z] = super().is_zero_argument(z)
        return zero


def off_regime(n: int, m: int, g: float, p: float, scale: float) -> ModelParams:
    """The point with alpha scaled away from its locked value, as ``--alpha-scale`` sets it."""
    return ModelParams(n, m, g, p, alpha_override=scale * 2 * math.pi / ((n + 1) * g + m))


def memoized(params: ModelParams) -> ModelParams:
    """A copy of params whose ``theta`` remembers its scalar brackets and zero tests.

    A scalar loop over a box evaluates a few hundred distinct bracket
    arguments tens of thousands of times, and at p = 0.3 each evaluation is
    a product of 19 factors; the values are the same as without the memo.
    """
    copy = replace(params)
    # theta is a cached_property: a value in the instance dict takes its place
    copy.__dict__["theta"] = _MemoTheta(params.alpha, params.p)
    return copy


def is_partition(parts) -> bool:
    parts = tuple(parts)
    if any(x < 0 for x in parts):
        return False
    return all(parts[j] >= parts[j + 1] for j in range(len(parts) - 1))


def dominance_leq(lam, mu, n: int) -> bool:
    """Dominance order on partitions with at most n parts.

    ``lam <= mu`` iff for every r = 1..n the partial-sum difference corrected
    by r*(|lam| - |mu|)/(n+1) is a nonpositive integer.  Partitions of
    different weight are comparable only when the weights agree mod n+1.
    """
    lam, mu = trim(lam), trim(mu)
    for name, part in (("lam", lam), ("mu", mu)):
        if len(part) > n or not is_partition(part):
            raise ValueError(f"{name}={part} is not a partition with at most {n} parts")
    lam_p, mu_p = pad(lam, n), pad(mu, n)
    wdiff = weight(lam) - weight(mu)
    acc = 0
    for r in range(1, n + 1):
        acc += lam_p[r - 1] - mu_p[r - 1]
        num = (n + 1) * acc - r * wdiff
        if num % (n + 1) != 0 or num > 0:
            return False
    return True


def min_column(mu) -> int:
    """Smallest j with mu_j > mu_{j+1}; 0 for the empty partition."""
    mu = trim(mu)
    for j in range(len(mu)):
        nxt = mu[j + 1] if j + 1 < len(mu) else 0
        if mu[j] > nxt:
            return j + 1
    return 0


def partition_to_weight(lam, n: int) -> tuple[int, ...]:
    """Dominant-weight coordinates l_r = lam_r - lam_{r+1} of a partition."""
    lam = trim(lam)
    if not is_partition(lam) or len(lam) > n:
        raise ValueError(f"{lam} is not a partition with at most {n} parts")
    padded = pad(lam, n + 1)
    return tuple(padded[r] - padded[r + 1] for r in range(n))


def positions(basis) -> dict:
    """The basis index of each partition of the box, keyed by the partition."""
    return {lam: i for i, lam in enumerate(basis.order)}


def reduce_partition(mu, n: int) -> tuple[int, ...]:
    """Subtract the (n+1)-th part from the first n parts."""
    mu = trim(mu)
    if len(mu) > n + 1:
        raise ValueError(f"partition {mu} has more than {n + 1} parts")
    padded = pad(mu, n + 1)
    last = padded[n]
    return trim(tuple(x - last for x in padded[:n]))


def weight_to_partition(l) -> tuple[int, ...]:
    """Partition from dominant-weight coordinates: lam_j = l_j + ... + l_n."""
    l = tuple(l)
    if any(x < 0 for x in l):
        raise ValueError(f"weight coordinates must be nonnegative, got {l}")
    lam = []
    total = 0
    for x in reversed(l):
        total += x
        lam.append(total)
    return trim(reversed(lam))


def bracket_trig(z: float, alpha: float) -> float:
    """Zero-nome bracket sin(alpha*z/2)/(alpha/2)."""
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    half = 0.5 * alpha
    return math.sin(half * z) / half


def bracket_factorial(theta, z: float, k: int) -> float:
    """Product [z][z+1]...[z+k-1] of the brackets of ``theta``; 1 for k = 0."""
    if k < 0:
        raise ValueError(f"factorial length must be nonnegative, got {k}")
    value = 1.0
    for l in range(k):
        value *= theta.bracket(z + l)
    return value


def lattice_weight(lam, params: ModelParams) -> float:
    """Positive weight of a lattice point in the discrete inner product."""
    n1 = params.n + 1
    lam_p = pad(lam, n1)
    th = params.theta
    g = params.g
    value = 1.0
    for j, k in _pair_range(n1):
        dl = lam_p[j] - lam_p[k]
        den = th.bracket((k - j) * g)
        den_f = bracket_factorial(th, 1.0 + (k - j - 1) * g, dl)
        if abs(den) < DENOM_TOL or abs(den_f) < DENOM_TOL:
            raise TruncationViolationError(
                f"weight denominator vanished at pair ({j + 1},{k + 1}) for lam={trim(lam)}"
            )
        value *= th.bracket(dl + (k - j) * g) / den
        value *= bracket_factorial(th, (k - j + 1) * g, dl) / den_f
    if not 0.0 < value < math.inf:
        reason = "not finite and positive: off the truncation regime"
        if not math.isfinite(value):
            reason = "not finite: the bracket products overflow double precision"
        raise TruncationViolationError(f"weight of lam={trim(lam)} is {value}, {reason}")
    return value


def norm_constant(mu, params: ModelParams) -> float:
    """Normalization constant relating eigenfunction values to the monic polynomials."""
    n1 = params.n + 1
    mu_p = pad(mu, n1)
    th = params.theta
    g = params.g
    value = 1.0
    for j, k in _pair_range(n1):
        dm = mu_p[j] - mu_p[k]
        den_f = bracket_factorial(th, (k - j + 1) * g, dm)
        if abs(den_f) < DENOM_TOL:
            raise TruncationViolationError(
                f"norm denominator vanished at pair ({j + 1},{k + 1}) for mu={trim(mu)}"
            )
        value *= bracket_factorial(th, (k - j) * g, dm) / den_f
    if not 0.0 < value < math.inf:
        reason = "not finite and positive: off the truncation regime"
        if not math.isfinite(value):
            reason = "not finite: the bracket products overflow double precision"
        raise TruncationViolationError(f"norm constant of mu={trim(mu)} is {value}, {reason}")
    return value


def rho_shift(lam, params: ModelParams) -> np.ndarray:
    """Coordinates of a partition shifted by the coupling-deformed Weyl vector.

    Component j (1-based) is lam_j + g*(n/2 + 1 - j); the shift components
    sum to zero.
    """
    lam = trim(lam)
    if not is_partition(lam) or len(lam) > params.n:
        raise ValueError(f"{lam} is not a partition with at most {params.n} parts")
    n = params.n
    padded = pad(lam, n + 1)
    return np.array([padded[j] + params.g * (n / 2.0 + 1.0 - (j + 1)) for j in range(n + 1)])


def translation_coefficient(x, subset, params: ModelParams) -> float:
    """Bracket-form coefficient of the translation along an index subset.

    x is a coordinate vector of length n+1 and subset a collection of
    0-based indices.  Depends on x only through differences x_j - x_k.
    """
    x = np.asarray(x, dtype=float)
    n1 = params.n + 1
    if x.shape != (n1,):
        raise ValueError(f"coordinate vector must have length {n1}")
    inside = sorted(set(subset))
    if inside and not (0 <= inside[0] and inside[-1] < n1):
        raise ValueError(f"subset {inside} outside 0..{n1 - 1}")
    outside = [k for k in range(n1) if k not in inside]
    th = params.theta
    g = params.g
    value = 1.0
    vanished = False
    coordinates = x.tolist()
    for j in inside:
        for k in outside:
            diff = coordinates[j] - coordinates[k]
            den = th.bracket(diff)
            if abs(den) < GENERICITY_TOL:
                raise GenericityViolationError(
                    f"denominator bracket vanished for pair ({j}, {k}) at x={x}"
                )
            if th.is_zero_argument(diff + g):
                vanished = True
                continue
            value *= th.bracket(diff + g) / den
    return 0.0 if vanished else value


def strip_from_subset(subset, n: int) -> tuple[int, ...]:
    """0/1 mask of length n+1 with ones on the subset."""
    inside = set(subset)
    return tuple(1 if j in inside else 0 for j in range(n + 1))


def crosscheck_loop(params: ModelParams, basis=None) -> float:
    """Largest gap between ``translation_coefficient`` and ``hop_coefficient``.

    One pair of scalar calls per lattice point and index subset (all strip
    sizes, including the trivial ones).  The builtin max drops a NaN gap
    that follows a finite one; the array form does not.
    """
    if basis is None:
        basis = enumerate_lattice(params.n, params.m)
    n1 = params.n + 1
    worst = 0.0
    for lam in basis.order:
        x = rho_shift(lam, params)
        for size in range(n1 + 1):
            for subset in combinations(range(n1), size):
                v = translation_coefficient(x, subset, params)
                b = hop_coefficient(lam, strip_from_subset(subset, params.n), params)
                worst = max(worst, abs(v - b))
    return worst


def _elementary_symmetric(values, r: int) -> complex:
    total = 0j
    for combo in combinations(values, r):
        term = 1.0 + 0j
        for v in combo:
            term *= v
        total += term
    return total


def staircase_point(nu, params: ModelParams) -> tuple[complex, ...]:
    n = params.n
    nu_p = pad(nu, n)
    vals = [cmath.exp(1j * params.alpha * (nu_p[j] + (n - j) * params.g)) for j in range(n)]
    vals.append(1.0 + 0j)
    return tuple(vals)


def prefactor(order: int, nu, params: ModelParams) -> complex:
    """Center-of-mass factor of the zero-nome eigenvalue of the given order at label nu."""
    return cmath.exp(1j * params.alpha * (-order * (weight(nu) / (params.n + 1) + params.n * params.g / 2.0)))


def monomial_sym_eval(lam, values) -> complex:
    """Monomial symmetric function of lam at one point, one distinct exponent permutation at a time."""
    exps = set(permutations(pad(lam, len(values))))
    total = 0j
    for e in exps:
        term = 1.0 + 0j
        for v, k in zip(values, e):
            term *= v**k
        total += term
    return total


def antisymmetrized_form(d: int, q: complex, t: complex, nvars: int):
    """``macdonald._antisymmetrized_form`` with one pass per permutation of the staircase."""
    parts = _partitions_of_weight(d, nvars)
    rows = np.array([pad(lam, nvars) for lam in parts])
    delta = np.arange(nvars - 1, -1, -1)
    place = (d + 1) ** delta
    codes = -(rows @ place)
    lead = np.zeros((len(parts), len(parts)))
    image = np.zeros((len(parts), len(parts)), dtype=complex)
    for perm in permutations(delta.tolist()):
        sign = (-1) ** sum(a < b for a, b in combinations(perm, 2))
        shifted = np.array(perm)
        alpha = rows + delta - shifted
        row = np.flatnonzero(np.all(alpha >= 0, axis=1))
        alpha = alpha[row]
        # one entry per row, so the fancy-indexed updates hit distinct cells
        col = np.searchsorted(codes, -(np.sort(alpha, axis=1)[:, ::-1] @ place))
        lead[row, col] += sign
        image[row, col] += sign * (t**shifted * q**alpha).sum(axis=1)
    return parts, lead, image


def trig_joint_eigenvalue(nu, r: int, params: ModelParams) -> complex:
    """Closed-form joint eigenvalue at zero nome.

    The elementary symmetric polynomial of order r evaluated on the
    g-shifted geometric staircase of nu, with the center-of-mass prefactor.
    """
    if not 1 <= r <= params.n:
        raise ValueError(f"order {r} outside 1..{params.n}")
    return prefactor(r, nu, params) * _elementary_symmetric(staircase_point(nu, params), r)


def principal_eigenfunction_value(mu, nu, params: ModelParams) -> complex:
    """Value at mu of the normalized joint eigenfunction labeled nu, at zero nome."""
    poly = macdonald_coeffs(mu, params.q, params.t, params.n + 1)
    value = poly.evaluate(staircase_point(nu, params))
    return norm_constant(mu, replace(params, p=0.0)) * prefactor(weight(mu), nu, params) * value


def paired_hop_operator(r: int, params: ModelParams, basis) -> np.ndarray:
    """M_r from the dense D_r and D_{n+1-r}: sign(D_r[s, t]) sqrt(D_r[s, t] D_{n+1-r}[t, s]) on the moves s -> t."""
    forward, backward = (build_hop_operator(k, params, basis) for k in (r, params.n + 1 - r))
    s, _, t = basis.hop_table(r)[:3]
    a, b = forward[s, t], backward[t, s]
    forward[s, t] = np.sign(a) * np.sqrt(a * b)
    return forward


def commutator_residual(a: np.ndarray, b: np.ndarray) -> float:
    """Relative Frobenius norm of [A, B] for the matrices of D_r and D_s."""
    comm = a @ b - b @ a
    return float(np.linalg.norm(comm) / (np.linalg.norm(a) * np.linalg.norm(b)))


def transpose_residual(a: np.ndarray, b: np.ndarray, weights: np.ndarray) -> float:
    """Relative Frobenius defect of transpose(M_r) = M_{n+1-r}, from D_r, D_{n+1-r} and the weights it tests."""
    s = np.sqrt(weights)
    ma, mb = (s[:, None] * a) / s, (s[:, None] * b) / s
    return float(np.linalg.norm(ma.T - mb) / np.linalg.norm(ma))


def dense_operator_checks(params: ModelParams, basis) -> dict:
    """The residuals of the four operator checks of ``report`` from the dense D_1..D_n, by check name.

    ``weight-recurrence`` and ``psi-consistency`` read D_r[s, t] and
    D_{n+1-r}[t, s] on the moves s -> t of D_r out of the matrices.
    """
    n = params.n
    hops = [build_hop_operator(r, params, basis) for r in range(1, n + 1)]
    weights, norms = weight_vector(basis, params), norm_vector(basis, params)
    commutators = [commutator_residual(a, b) for r, a in enumerate(hops) for b in hops[r + 1 :]]
    recurrence, psi = [], []
    for r in range(1, n + 1):
        s, t, coefficients = box_pieri_coefficients(basis, r, params)
        recurrence.append((hops[r - 1][s, t] * weights[s], hops[n - r][t, s] * weights[t]))
        psi.append((coefficients, hops[r - 1][s, t] * norms[t] / norms[s]))
    return {
        "commutators": float(np.max(commutators, initial=0.0)),
        "adjointness": float(np.max([transpose_residual(a, b, weights) for a, b in zip(hops, reversed(hops))])),
        "weight-recurrence": _worst_relative(recurrence),
        "psi-consistency": _worst_relative(psi),
    }


def folded_blocks(mats: list, basis) -> list:
    """The blocks of M_1..M_n in the solved sectors k = 0..floor((n+1)/2), each (n, L, L) over the orbits in it.

    The block between orbits a, b of sizes s_a, s_b is
    sqrt(s_a s_b) / (n+1) sum_{j <= n} omega^(jk) M_r[a, R^j b], gathered
    from the dense matrices and folded by one product with the phases; taken
    real where omega^k = +-1.
    """
    n = basis.n
    powers, reps, orbit_sizes = basis.rotation
    phases = np.exp(2j * np.pi * np.outer(np.arange((n + 1) // 2 + 1), np.arange(n + 1)) / (n + 1))
    scale = np.sqrt(np.outer(orbit_sizes, orbit_sizes)) / (n + 1)
    gathered = np.array([m[reps[:, None], powers[:, None, reps]] for m in mats]).reshape(n, n + 1, -1)
    folded = scale * (phases @ gathered).reshape(n, len(phases), *scale.shape)
    blocks = []
    for k in range(len(phases)):
        (inside,) = np.nonzero(k * orbit_sizes % (n + 1) == 0)
        block = folded[:, k][:, inside[:, None], inside]
        blocks.append(block.real if 2 * k % (n + 1) == 0 else block)
    return blocks


def dense_leakage(mat: np.ndarray, basis) -> float:
    """||M - R^T M R||_F from the dense matrix and the rotation's permutation."""
    rot = basis.rotation.powers[1]
    return float(np.linalg.norm(mat.take(rot, 0).take(rot, 1) - mat))


def sweep_nome_by_nome(params: ModelParams, p_values) -> list:
    """Labeled spectra along a nome sweep, each nome solved on its own before it is labeled."""
    basis = enumerate_lattice(params.n, params.m)
    spectra = []
    for p in p_values:
        target = joint_diagonalize(replace(params, p=float(p)), basis=basis)
        # the first nome is labeled from p = 0, solved on its own after it
        labeled = spectra[-1] if spectra else label_spectrum(joint_diagonalize(replace(params, p=0.0), basis=basis))
        spectra.append(continue_labels(labeled, target))
    return spectra


def dense_transfer_labels(previous, candidate):
    """Match candidate vectors to previous labels by the overlaps of their frame vectors, sector by sector;
    None on failure."""
    order = np.empty(len(candidate), dtype=np.intp)
    for k in range(candidate.params.n + 1):
        labels, pairs = np.flatnonzero(previous.sectors == k), np.flatnonzero(candidate.sectors == k)
        overlap = np.abs(previous.eigenvectors[:, labels].conj().T @ candidate.eigenvectors[:, pairs])
        cols = np.argmax(overlap, axis=1)
        if np.min(overlap[np.arange(len(labels)), cols]) <= _MIN_OVERLAP or len(np.unique(cols)) < len(cols):
            return None
        # previous is in label order: candidate vector pairs[cols[i]] takes label labels[i]
        order[labels] = pairs[cols]
    return _permuted(candidate, order)


def conjugate_by_weights(matrix: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """W^{1/2} A W^{-1/2} for the diagonal matrix W of (positive) lattice weights."""
    s = np.sqrt(weights)
    return (s[:, None] * matrix) / s[None, :]


def operator_eigenvectors(spectrum) -> np.ndarray:
    """The eigenvectors u = v / sqrt(w) of the D_r, of unit weighted norm, as columns."""
    weights = weight_vector(spectrum.basis, spectrum.params)
    return spectrum.eigenvectors / np.sqrt(weights)[:, None]


def unitarity_residual(spectrum) -> float:
    """Deviation from unitarity of the weighted eigenfunction value matrix."""
    # sqrt(w) u / u(empty) = v / v(empty), as w(empty) = 1
    v = spectrum.eigenvectors
    mat = v / v[0, :] * np.sqrt(spectrum.norm_hat)[None, :]
    eye = mat.conj().T @ mat
    return float(np.max(np.abs(eye - np.eye(len(spectrum)))))


def conjugate_pairing_residual(spectrum) -> float:
    """Defect of eigenvalue pairing e_{n+1-r} = conj(e_r)."""
    e = spectrum.eigenvalues
    return float(np.max(np.abs(e[:, ::-1] - np.conj(e))))


def min_eigenvalue_gap(spectrum) -> float:
    """Smallest pairwise distance between joint eigenvalue vectors."""
    if len(spectrum) < 2:
        return np.inf
    e = spectrum.eigenvalues
    return float(np.min(pdist(np.hstack([e.real, e.imag]))))


def second_difference_residual(spectra: list) -> float:
    """Largest second difference over all envelope-normalized eigenvalue curves.

    The curves are the eigenvalues of each label and order along a sweep of
    labeled spectra.  All curves of a given order share a steep common growth
    as |p| increases, so each is divided pointwise by the envelope
    max(1, max_label |e|) before differencing.  A labeling jump then
    contributes on the order of the gap between branches relative to the
    envelope, while a smooth curve sampled at step h contributes O(h^2);
    values below 0.5 indicate a clean sweep.
    """
    # (point, label, order)
    curves = np.array([s.eigenvalues for s in spectra])
    if len(curves) < 3:
        return 0.0
    ratio = curves / np.maximum(np.max(np.abs(curves), axis=1, keepdims=True), 1.0)
    return float(np.max(np.abs(ratio[2:] - 2.0 * ratio[1:-1] + ratio[:-2])))
