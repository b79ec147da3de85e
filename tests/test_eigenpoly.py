import re
from types import SimpleNamespace

import numpy as np
import pytest

from rlatt import eigenpoly
from rlatt.coeffs import ModelParams, box_pieri_coefficients, norm_vector, weight_vector
from rlatt.errors import ConsistencyError
from rlatt.eigenpoly import (
    _recurrence_steps,
    build_polynomials,
    dual_orthogonality_residual,
    pieri_residual,
    reconstruct_and_compare,
    value_table,
)
from rlatt.partitions import enumerate_lattice, trim
from rlatt.spectral import joint_diagonalize
from scalar_reference import dominance_leq, min_column, partition_to_weight, positions, weight_to_partition


def _terms(coeffs, basis, mu):
    """{exponent key: coefficient} of the polynomial of mu."""
    row = coeffs[basis.order.index(mu)]
    return {partition_to_weight(basis.order[k], basis.n): row[k] for k in np.flatnonzero(row)}


def _pieri(basis, params):
    return [box_pieri_coefficients(basis, r, params) for r in range(1, params.n + 1)]


def _value(coeffs, basis, mu, e):
    """Value of the polynomial of mu at one vector of joint eigenvalues."""
    points = SimpleNamespace(basis=basis, eigenvalues=np.asarray(e)[None, :])
    return value_table(coeffs, points)[basis.order.index(mu), 0]


def test_constant_polynomial():
    basis = enumerate_lattice(2, 2)
    coeffs = build_polynomials(ModelParams(2, 2, 0.7, 0.5), basis)
    assert _terms(coeffs, basis, ()) == {(0, 0): 1.0}
    assert _value(coeffs, basis, (), (3.0 + 1j, -2.0)) == 1.0


@pytest.mark.parametrize("n,m,g,p", [(2, 2, 0.7, 0.5), (3, 2, 1.0, 0.3)])
def test_columns_are_single_variables(n, m, g, p):
    basis = enumerate_lattice(n, m)
    coeffs = build_polynomials(ModelParams(n, m, g, p), basis)
    for r in range(1, n + 1):
        key = tuple(1 if j == r - 1 else 0 for j in range(n))
        assert _terms(coeffs, basis, (1,) * r) == {key: 1.0}
        e = tuple(float(k + 2) for k in range(n))
        assert _value(coeffs, basis, (1,) * r, e) == e[r - 1]


def test_two_state_polynomial_has_no_lower_terms():
    basis = enumerate_lattice(1, 1)
    coeffs = build_polynomials(ModelParams(1, 1, 1.0, 0.6), basis)
    assert _terms(coeffs, basis, (1,)) == {(1,): 1.0}
    assert _value(coeffs, basis, (1,), (-1.0,)) == -1.0


@pytest.mark.parametrize("n,m,g,p", [(2, 2, 0.7, 0.5), (3, 2, 1.0, 0.3), (2, 2, 1.7, 0.0)])
def test_monic_triangular_support(n, m, g, p):
    basis = enumerate_lattice(n, m)
    coeffs = build_polynomials(ModelParams(n, m, g, p), basis)
    for mu in basis.order:
        terms = _terms(coeffs, basis, mu)
        assert terms[partition_to_weight(mu, n)] == 1.0
        for key in terms:
            nu = weight_to_partition(key)
            assert nu in basis.order
            assert dominance_leq(nu, mu, n)
            if nu != mu:
                assert not dominance_leq(mu, nu, n)


@pytest.mark.parametrize("n,m", [(1, 8), (2, 9), (3, 4), (5, 5), (4, 8), (6, 2)])
def test_recurrence_steps_match_the_scalar_helpers(n, m):
    # minimal columns, predecessors mu - (1^r) and the (mu_1, minimal column, basis order) order
    basis = enumerate_lattice(n, m)
    index = positions(basis)
    order, column, predecessor = _recurrence_steps(basis)
    expected = sorted(basis.order, key=lambda mu: ((mu[0] if mu else 0), min_column(mu), index[mu]))
    assert [basis.order[k] for k in order.tolist()] == expected
    assert set(column[1:].tolist()) == set(range(1, n + 1))
    for k, mu in enumerate(basis.order[1:], start=1):
        r = min_column(mu)
        assert column[k] == r
        assert predecessor[k] == index[trim(tuple(x - 1 for x in mu[:r]) + mu[r:])]


def test_out_of_box_key_is_the_shifted_dominant_weight(monkeypatch):
    # pretend that every multiplication pushes the column (2, 1) off the box: building
    # (3, 1) from (2, 1) by the first eigenvalue leaves its coefficient 1 on key(2, 1) + e_1
    basis = enumerate_lattice(3, 3)
    column = basis.order.index((2, 1))
    exact = eigenpoly._column_shift

    def pushed(basis, r):
        shift = exact(basis, r).copy()
        shift[column] = -1
        return shift

    monkeypatch.setattr(eigenpoly, "_column_shift", pushed)
    key = tuple(x + (j == 0) for j, x in enumerate(partition_to_weight((2, 1), 3)))
    with pytest.raises(ConsistencyError, match=re.escape(f"1.0 survived on the out-of-box key {key} while building (3, 1)")):
        build_polynomials(ModelParams(3, 3, 0.7, 0.3), basis)


def test_coefficients_are_real_floats():
    coeffs = build_polynomials(ModelParams(2, 2, 0.7, 0.5))
    for value in coeffs[coeffs != 0]:
        assert isinstance(value, float)


@pytest.mark.parametrize("n,m", [(2, 3), (3, 4), (2, 8)])
@pytest.mark.parametrize("p", [0.0, 0.3, -0.6])
def test_value_table_equals_the_sum_over_terms(n, m, p):
    # sum_k C[i, k] prod_r e_jr ** key_kr, term by term in complex arithmetic
    params = ModelParams(n, m, 0.7, p)
    basis = enumerate_lattice(n, m)
    spectrum = joint_diagonalize(params, basis=basis)
    coeffs = build_polynomials(params, basis)
    keys = [partition_to_weight(nu, n) for nu in basis.order]
    expected = np.zeros((len(basis), len(spectrum)), dtype=complex)
    for j, eigenvalues in enumerate(spectrum.eigenvalues):
        e = [complex(x) for x in eigenvalues]
        for i in range(len(basis)):
            for k in np.flatnonzero(coeffs[i]):
                term = complex(coeffs[i, k])
                for base, power in zip(e, keys[k]):
                    term *= base**power
                expected[i, j] += term
    table = value_table(coeffs, spectrum)
    assert np.max(np.abs(table - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("n,m,g,p", [(2, 2, 0.7, 0.5), (3, 2, 1.0, 0.3)])
def test_pieri_on_spectrum(labeled, polys, n, m, g, p):
    params = ModelParams(n, m, g, p)
    spectrum = labeled(n, m, g, p)
    assert pieri_residual(value_table(polys(n, m, g, p), spectrum), spectrum, _pieri(spectrum.basis, params)) < 1e-8


def test_pieri_two_state_exact(labeled, polys):
    params = ModelParams(1, 1, 1.0, 0.6)
    spectrum = labeled(1, 1, 1.0, 0.6)
    assert pieri_residual(value_table(polys(1, 1, 1.0, 0.6), spectrum), spectrum, _pieri(spectrum.basis, params)) < 1e-12


@pytest.mark.parametrize("n,m,g,p", [(2, 2, 1.0, 0.3), (3, 2, 1.0, 0.5), (2, 2, 0.7, 0.0)])
def test_dual_orthogonality(labeled, polys, n, m, g, p):
    spectrum = labeled(n, m, g, p)
    norms, weights = norm_vector(spectrum.basis, spectrum.params), weight_vector(spectrum.basis, spectrum.params)
    assert dual_orthogonality_residual(value_table(polys(n, m, g, p), spectrum), spectrum, norms, weights) < 1e-8


def test_dual_weights_row_sums_to_one(labeled):
    # the (0,0) entry of the dual Gram identity: sum of dual weights is 1
    spectrum = labeled(2, 2, 1.0, 0.3)
    assert np.sum(spectrum.norm_hat) == pytest.approx(1.0, abs=1e-12)


def test_two_state_gram_identity_by_hand(labeled, polys):
    # everything is 1 or -1 at these parameters: c = (1,1), weights = (1,1),
    # dual weights = (1/2, 1/2), values P = [[1,1],[1,-1]]
    params = ModelParams(1, 1, 1.0, 0.0)
    spectrum = labeled(1, 1, 1.0, 0.0)
    family = polys(1, 1, 1.0, 0.0)
    table = value_table(family, spectrum)
    assert table == pytest.approx(np.array([[1.0, 1.0], [1.0, -1.0]]), abs=1e-12)
    gram = (table * spectrum.norm_hat) @ table.conj().T
    assert gram == pytest.approx(np.eye(2), abs=1e-12)
    assert norm_vector(spectrum.basis, params) == pytest.approx(np.ones(2), abs=1e-12)
    assert weight_vector(spectrum.basis, params) == pytest.approx(np.ones(2), abs=1e-12)


def test_reconstruction(labeled, polys):
    for point, tol in (((1, 1, 1.0, 0.5), 1e-12), ((2, 2, 0.7, 0.5), 1e-7)):
        spectrum = labeled(*point)
        norms, weights = norm_vector(spectrum.basis, spectrum.params), weight_vector(spectrum.basis, spectrum.params)
        assert reconstruct_and_compare(value_table(polys(*point), spectrum), spectrum, norms, weights) < tol


def test_coefficients_vary_continuously_in_nome():
    # no jumps: each step difference is bounded by 10x its neighbours
    values = {}
    ps = [round(0.1 * k, 10) for k in range(10)]
    for p in ps:
        coeffs = build_polynomials(ModelParams(2, 2, 0.7, p))
        for row, col in zip(*np.nonzero(coeffs)):
            values.setdefault((row, col), []).append(coeffs[row, col])
    for series in values.values():
        assert len(series) == len(ps)
        diffs = np.abs(np.diff(np.array(series)))
        for i in range(1, len(diffs) - 1):
            neighbour = max(diffs[i - 1], diffs[i + 1], 1e-9)
            assert diffs[i] <= 10 * neighbour
