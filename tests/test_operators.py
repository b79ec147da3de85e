import re

import numpy as np
import pytest

from rlatt.coeffs import ModelParams, weight_vector
from rlatt.errors import TruncationViolationError
from rlatt.operators import build_hop_operator, symmetric_hop_operator, symmetric_hop_values
from rlatt.spectral import joint_diagonalize
from rlatt.partitions import add_strip, enumerate_lattice, pad, vertical_strips
from scalar_reference import (
    bracket_trig,
    commutator_residual,
    conjugate_by_weights,
    off_regime,
    paired_hop_operator,
    reduce_partition,
    transpose_residual,
)

GRID = [
    (n, m, g, p)
    for (n, m) in ((2, 2), (3, 2), (2, 3))
    for g in (0.5, 1.0, 1.7)
    for p in (0.0, 0.3, 0.7)
]


def test_hop_operator_2x2():
    params = ModelParams(1, 1, 1.0, 0.0)
    mat = build_hop_operator(1, params, enumerate_lattice(1, 1))
    assert mat == pytest.approx(np.array([[0.0, 1.0], [1.0, 0.0]]), abs=1e-14)
    assert mat[0, 0] == 0.0 and mat[1, 1] == 0.0


def trig_hop_matrix(r, params):
    """Oracle: assemble the hop matrix from the plain sine quotient."""
    basis = enumerate_lattice(params.n, params.m)
    n1 = params.n + 1
    mat = np.zeros((len(basis), len(basis)))
    for i, lam in enumerate(basis.order):
        lam_p = pad(lam, n1)
        for strip in vertical_strips(r, params.n):
            mu, dominant = add_strip(lam, strip)
            if not dominant:
                continue
            red = reduce_partition(mu, params.n)
            if red not in basis.order:
                continue
            col = basis.order.index(red)
            value = 1.0
            for j in range(n1):
                for k in range(j + 1, n1):
                    dl = lam_p[j] - lam_p[k]
                    num = bracket_trig(dl + params.g * (k - j + strip[j] - strip[k]), params.alpha)
                    den = bracket_trig(dl + params.g * (k - j), params.alpha)
                    value *= num / den
            mat[i, col] += value
    return mat


@pytest.mark.parametrize("n,m,g", [(2, 2, 0.7), (3, 2, 1.3)])
def test_zero_nome_matches_trig_assembly(n, m, g):
    params = ModelParams(n, m, g, 0.0)
    for r in range(1, n + 1):
        built = build_hop_operator(r, params, enumerate_lattice(n, m))
        assert built == pytest.approx(trig_hop_matrix(r, params), abs=1e-12)


def test_entries_nonnegative_on_grid():
    for n, m, g, p in GRID:
        params = ModelParams(n, m, g, p)
        basis = enumerate_lattice(n, m)
        for r in range(1, n + 1):
            assert np.all(build_hop_operator(r, params, basis) >= 0.0)


def test_operator_index_validation():
    params = ModelParams(2, 2, 1.0, 0.0)
    basis = enumerate_lattice(2, 2)
    for build in (build_hop_operator, symmetric_hop_operator):
        for r in (0, 3):
            with pytest.raises(ValueError, match=f"operator order {r} outside 1..2"):
                build(r, params, basis)


# near the nome cap the weights span 4.4e32 and 2.4e88; at the alpha-scaled points some
# amplitudes are negative, with the same sign on a move and on its reverse
SYMMETRIC_POINTS = [
    (ModelParams(3, 3, 0.45, 0.95), False),
    (ModelParams(2, 4, 1.3, 0.98), False),
    *((off_regime(n, m, 0.7, 0.3, 1.3), True) for n, m in ((2, 3), (3, 2), (1, 8))),
]


@pytest.mark.parametrize("params,negative", SYMMETRIC_POINTS)
def test_symmetric_operator_is_the_weight_conjugated_hop(params, negative):
    basis = enumerate_lattice(params.n, params.m)
    w = weight_vector(basis, params)
    for r in range(1, params.n + 1):
        mat = symmetric_hop_operator(r, params, basis)
        reference = conjugate_by_weights(build_hop_operator(r, params, basis), w)
        assert np.max(np.abs(mat - reference)) <= 1e-15 * np.max(np.abs(reference))
        # equal bit for bit to the pairing of the dense D_r and D_{n+1-r}, middle order of odd n included
        assert mat.tobytes() == paired_hop_operator(r, params, basis).tobytes()
        assert np.any(mat < 0) == negative
        # both entries of a pair come from one product
        assert np.array_equal(symmetric_hop_operator(params.n + 1 - r, params, basis), mat.T)


def hop_pair_and_weights(params):
    """D_1 and D_n with the weights, for n = 1 or 2."""
    basis = enumerate_lattice(params.n, params.m)
    d1 = build_hop_operator(1, params, basis)
    return d1, build_hop_operator(params.n, params, basis), weight_vector(basis, params)


def test_transpose_pairing():
    params = ModelParams(2, 2, 0.7, 0.5)
    d1, d2, w = hop_pair_and_weights(params)
    assert transpose_residual(d1, d2, w) < 1e-11
    assert transpose_residual(d2, d1, w) < 1e-11


def test_adjoint_matrix_identity():
    # entrywise form of the bilinear pairing: D_r[i,j] w_i = D_{n+1-r}[j,i] w_j
    params = ModelParams(2, 2, 0.7, 0.5)
    basis = enumerate_lattice(2, 2)
    w = weight_vector(basis, params)
    d1 = build_hop_operator(1, params, basis)
    d2 = build_hop_operator(2, params, basis)
    lhs = d1 * w[:, None]
    rhs = d2.T * w[None, :]
    assert lhs == pytest.approx(rhs, rel=1e-11)


def test_commutators_on_grid():
    for n, m, g, p in GRID:
        params = ModelParams(n, m, g, p)
        basis = enumerate_lattice(n, m)
        hops = [build_hop_operator(r, params, basis) for r in range(1, n + 1)]
        for r in range(1, n + 1):
            assert commutator_residual(hops[r - 1], hops[r - 1]) == 0.0
            for s in range(r + 1, n + 1):
                assert commutator_residual(hops[r - 1], hops[s - 1]) < 1e-11


def test_symmetrized_commutators_on_grid():
    for n, m, g, p in GRID:
        params = ModelParams(n, m, g, p)
        basis = enumerate_lattice(n, m)
        w = weight_vector(basis, params)
        mats = [conjugate_by_weights(build_hop_operator(r, params, basis), w) for r in range(1, n + 1)]
        for i, a in enumerate(mats):
            for b in mats[i + 1 :]:
                res = np.linalg.norm(a @ b - b @ a) / (np.linalg.norm(a) * np.linalg.norm(b))
                assert res < 1e-11


def test_adjoint_residuals():
    # the bilinear pairing <D_r f, g>_w = <f, D_{n+1-r} g>_w on seeded complex vectors,
    # relative to |f|_w |g|_w and the operator norm of M_r
    rng = np.random.default_rng(1234)
    for params, tol in ((ModelParams(1, 1, 1.0, 0.5), 1e-12), (ModelParams(2, 2, 0.7, 0.5), 1e-11)):
        d1, dn, w = hop_pair_and_weights(params)
        for a, b in ((d1, dn), (dn, d1)):
            opnorm = np.linalg.norm(conjugate_by_weights(a, w), 2)
            for _ in range(8):
                f, g = rng.standard_normal((2, len(w))) + 1j * rng.standard_normal((2, len(w)))
                lhs = np.sum((a @ f) * np.conj(g) * w)
                rhs = np.sum(f * np.conj(b @ g) * w)
                scale = np.sqrt(np.sum(np.abs(f) ** 2 * w) * np.sum(np.abs(g) ** 2 * w)) * opnorm
                assert abs(lhs - rhs) < tol * scale


def _amplitudes_of_one_nome(basis, params, hops):
    """D_r[s, t] and D_{n+1-r}[t, s] on the moves of ``hops`` as a one-point evaluation forms them: the pair
    factors of each move read from the point's own bracket tables, multiplied one pair column at a time."""
    table = params.brackets
    j, k, dist, diffs = basis.pairs
    den = table.shifted[dist, diffs]

    def amplitudes(source, strip):
        # the flat index of [lam_jk + g(k - j + e_j - e_k)] in the (n+2) x (m+1) bracket table, per move and pair
        numerators = (dist + strip[:, j] - strip[:, k]) * (basis.m + 1) + diffs[source]
        zero = table.on_zero.take(numerators)
        value = np.ones(len(source))
        for column in np.where(zero, 1.0, table.shifted.take(numerators) / den[source]).T:
            value *= column
        return np.where(zero.any(axis=1), 0.0, value)

    return amplitudes(hops.source, hops.strip), amplitudes(hops.target, 1 - hops.strip)


def _values_of_one_nome(basis, params, hops):
    a, b = _amplitudes_of_one_nome(basis, params, hops)
    return np.sign(a) * np.sqrt(a * b)


def _sign_error_of_one_nome(basis, params, orders):
    """The message of the first move, in the first order, whose two amplitudes differ in sign, or None."""
    for r, hops in orders.items():
        a, b = _amplitudes_of_one_nome(basis, params, hops)
        for i in np.flatnonzero(np.sign(a) != np.sign(b))[:1]:
            move = f"{basis.order[hops.source[i]]} -> {basis.order[hops.target[i]]} (order {r})"
            return f"amplitudes of {move} and back differ in sign: {a[i]}, {b[i]}"


# nomes whose brackets take 0, 198, 8, 42 and 2063 product terms
MIXED_NOMES = [0.0, 0.9, 0.05, -0.6, 0.99]


@pytest.mark.parametrize("g", [0.7, 1.3])
@pytest.mark.parametrize("n,m", [(1, 8), (3, 4), (5, 4), (6, 2)])
def test_stacked_hop_values_match_each_nome_alone(n, m, g):
    basis = enumerate_lattice(n, m)
    orders = {r: basis.hop_table(r) for r in range(1, n + 1)}
    rows = np.concatenate([hops.rows for hops in orders.values()])
    points = [ModelParams(n, m, g, p) for p in MIXED_NOMES]
    values, errors = symmetric_hop_values(basis, points, rows)
    assert errors == [None] * len(points) and values.shape[0] == len(points)
    for row, params in zip(values, points):
        alone, (error,) = symmetric_hop_values(basis, [params], rows)
        assert error is None and np.array_equal(row, alone[0])
        reference = np.concatenate([_values_of_one_nome(basis, params, hops) for hops in orders.values()])
        assert np.array_equal(row, reference)


@pytest.mark.parametrize("n,m", [(1, 8), (3, 4), (5, 4), (6, 2)])
def test_stacked_hop_values_keep_each_nome_its_own_error(n, m):
    basis = enumerate_lattice(n, m)
    orders = dict(enumerate(basis.sector_plan[0], 1))
    rows = np.concatenate([hops.rows for hops in orders.values()])
    # off the regime at alpha scale 1.7 every nome fails; the message is the one each raises alone
    points = [off_regime(n, m, 0.7, p, 1.7) for p in MIXED_NOMES]
    errors = symmetric_hop_values(basis, points, rows)[1]
    for params, error in zip(points, errors):
        with pytest.raises(TruncationViolationError) as alone:
            joint_diagonalize(params, basis)
        assert type(error) is TruncationViolationError and str(error) == str(alone.value)
        assert str(error) == _sign_error_of_one_nome(basis, params, orders)
    # a nome whose hop denominators vanish, and whose amplitudes also differ in sign, fails alone with the
    # denominator's message, among three that pass with the values they take alone
    vanishing = ModelParams(n, m, 2.0, 0.0, alpha_override=2 * np.pi / 8)
    assert _sign_error_of_one_nome(basis, vanishing, orders) is not None
    points = [ModelParams(n, m, 0.7, 0.3), vanishing, ModelParams(n, m, 0.7, -0.6), ModelParams(n, m, 0.7, 0.99)]
    values, errors = symmetric_hop_values(basis, points, rows)
    assert errors[0] is None and errors[2] is None and errors[3] is None
    assert str(errors[1]).startswith("hop denominator vanished at pair (")
    with pytest.raises(TruncationViolationError, match=re.escape(str(errors[1]))):
        build_hop_operator(1, vanishing, basis)
    for i in (0, 2, 3):
        assert np.array_equal(values[i], symmetric_hop_values(basis, [points[i]], rows)[0][0])
