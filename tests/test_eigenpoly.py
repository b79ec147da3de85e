import numpy as np
import pytest

from rlatt.coeffs import ModelParams, norm_vector, weight_vector
from rlatt.eigenpoly import (
    build_polynomials,
    dual_orthogonality_residual,
    evaluate_polynomial,
    monomial_key,
    pieri_residual,
    reconstruct_and_compare,
    value_table,
)
from rlatt.partitions import dominance_leq, enumerate_lattice, weight_to_partition


def test_constant_polynomial():
    polys = build_polynomials(ModelParams(2, 2, 0.7, 0.5))
    assert polys[()].coeffs == {(0, 0): 1.0}
    assert evaluate_polynomial(polys[()], (3.0 + 1j, -2.0)) == 1.0


@pytest.mark.parametrize("n,m,g,p", [(2, 2, 0.7, 0.5), (3, 2, 1.0, 0.3)])
def test_columns_are_single_variables(n, m, g, p):
    polys = build_polynomials(ModelParams(n, m, g, p))
    for r in range(1, n + 1):
        key = tuple(1 if j == r - 1 else 0 for j in range(n))
        assert polys[(1,) * r].coeffs == {key: 1.0}
        e = tuple(float(k + 2) for k in range(n))
        assert evaluate_polynomial(polys[(1,) * r], e) == e[r - 1]


def test_two_state_polynomial_has_no_lower_terms():
    polys = build_polynomials(ModelParams(1, 1, 1.0, 0.6))
    assert polys[(1,)].coeffs == {(1,): 1.0}
    assert evaluate_polynomial(polys[(1,)], (-1.0,)) == -1.0


@pytest.mark.parametrize("n,m,g,p", [(2, 2, 0.7, 0.5), (3, 2, 1.0, 0.3), (2, 2, 1.7, 0.0)])
def test_monic_triangular_support(n, m, g, p):
    basis = enumerate_lattice(n, m)
    polys = build_polynomials(ModelParams(n, m, g, p), basis)
    for mu in basis.order:
        poly = polys[mu]
        assert poly.coeffs[monomial_key(mu, n)] == 1.0
        for key in poly.coeffs:
            nu = weight_to_partition(key)
            assert nu in basis.index
            assert dominance_leq(nu, mu, n)
            if nu != mu:
                assert not dominance_leq(mu, nu, n)


def test_coefficients_are_real_floats():
    polys = build_polynomials(ModelParams(2, 2, 0.7, 0.5))
    for poly in polys.values():
        for value in poly.coeffs.values():
            assert isinstance(value, float)


@pytest.mark.parametrize("n,m,g,p", [(2, 2, 0.7, 0.5), (3, 2, 1.0, 0.3)])
def test_pieri_on_spectrum(labeled, polys, n, m, g, p):
    params = ModelParams(n, m, g, p)
    assert pieri_residual(polys(n, m, g, p), labeled(n, m, g, p), params) < 1e-8


def test_pieri_two_state_exact(labeled, polys):
    params = ModelParams(1, 1, 1.0, 0.6)
    assert pieri_residual(polys(1, 1, 1.0, 0.6), labeled(1, 1, 1.0, 0.6), params) < 1e-12


@pytest.mark.parametrize("n,m,g,p", [(2, 2, 1.0, 0.3), (3, 2, 1.0, 0.5), (2, 2, 0.7, 0.0)])
def test_dual_orthogonality(labeled, polys, n, m, g, p):
    spectrum = labeled(n, m, g, p)
    norms = norm_vector(spectrum.basis, ModelParams(n, m, g, p))
    assert dual_orthogonality_residual(polys(n, m, g, p), spectrum, norms) < 1e-8


def test_dual_weights_row_sums_to_one(labeled):
    # the (0,0) entry of the dual Gram identity: sum of dual weights is 1
    spectrum = labeled(2, 2, 1.0, 0.3)
    assert sum(d.norm_hat for d in spectrum.data) == pytest.approx(1.0, abs=1e-12)


def test_two_state_gram_identity_by_hand(labeled, polys):
    # everything is 1 or -1 at these parameters: c = (1,1), weights = (1,1),
    # dual weights = (1/2, 1/2), values P = [[1,1],[1,-1]]
    params = ModelParams(1, 1, 1.0, 0.0)
    spectrum = labeled(1, 1, 1.0, 0.0)
    family = polys(1, 1, 1.0, 0.0)
    table = value_table(family, spectrum)
    assert table == pytest.approx(np.array([[1.0, 1.0], [1.0, -1.0]]), abs=1e-12)
    dual = np.array([d.norm_hat for d in spectrum.data])
    gram = (table * dual) @ table.conj().T
    assert gram == pytest.approx(np.eye(2), abs=1e-12)
    assert norm_vector(spectrum.basis, params) == pytest.approx(np.ones(2), abs=1e-12)
    assert weight_vector(spectrum.basis, params) == pytest.approx(np.ones(2), abs=1e-12)


def test_reconstruction(labeled, polys):
    for point, tol in (((1, 1, 1.0, 0.5), 1e-12), ((2, 2, 0.7, 0.5), 1e-7)):
        spectrum = labeled(*point)
        norms = norm_vector(spectrum.basis, ModelParams(*point))
        assert reconstruct_and_compare(polys(*point), spectrum, norms) < tol


def test_coefficients_vary_continuously_in_nome():
    # no jumps: each step difference is bounded by 10x its neighbours
    values = {}
    ps = [round(0.1 * k, 10) for k in range(10)]
    for p in ps:
        polys = build_polynomials(ModelParams(2, 2, 0.7, p))
        for mu, poly in polys.items():
            for key, u in poly.coeffs.items():
                values.setdefault((mu, key), []).append(u)
    for series in values.values():
        assert len(series) == len(ps)
        diffs = np.abs(np.diff(np.array(series)))
        for i in range(1, len(diffs) - 1):
            neighbour = max(diffs[i - 1], diffs[i + 1], 1e-9)
            assert diffs[i] <= 10 * neighbour
