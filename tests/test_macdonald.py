import cmath
import math
from pathlib import Path

import numpy as np
import pytest

from rlatt import macdonald
from rlatt.coeffs import ModelParams
from rlatt.errors import DegenerateSpecializationError
from rlatt.macdonald import (
    SymmetricPoly,
    _antisymmetrized_form,
    _monomial_table,
    _partitions_of_weight,
    compare_trig,
    macdonald_coeffs,
    trig_joint_eigenvalues,
)
from rlatt.partitions import enumerate_lattice, pad, weight
from rlatt.spectral import joint_diagonalize, label_spectrum
from scalar_reference import (
    antisymmetrized_form,
    dominance_leq,
    monomial_sym_eval,
    principal_eigenfunction_value,
    trig_joint_eigenvalue,
)


def zero_nome_spectrum(n, m, g):
    return label_spectrum(joint_diagonalize(ModelParams(n, m, g, 0.0)))


def apply_first_difference_operator(poly: SymmetricPoly, q, t, point):
    """Oracle: evaluate the q-difference operator on a polynomial pointwise."""
    point = list(point)
    n = len(point)
    total = 0j
    for i in range(n):
        coeff = 1.0 + 0j
        for j in range(n):
            if j != i:
                coeff *= (t * point[i] - point[j]) / (point[i] - point[j])
        shifted = point.copy()
        shifted[i] *= q
        total += coeff * poly.evaluate(shifted)
    return total


def operator_eigenvalue(mu, q, t, nvars):
    mu_p = pad(mu, nvars)
    return sum(q ** mu_p[i] * t ** (nvars - 1 - i) for i in range(nvars))


def test_single_box_and_columns_are_monomial():
    for q, t in ((0.3, 0.5), (0.7, 0.2)):
        assert macdonald_coeffs((1,), q, t, 3).coeffs == {(1,): 1.0 + 0j}
        for k in (1, 2, 3):
            poly = macdonald_coeffs((1,) * k, q, t, 3)
            assert poly.coeffs == {(1,) * k: 1.0 + 0j}


def test_row_two_in_two_variables():
    q, t = 0.3, 0.5
    poly = macdonald_coeffs((2,), q, t, 2)
    assert set(poly.coeffs) == {(2,), (1, 1)}
    assert poly.coeffs[(2,)] == pytest.approx(1.0)
    # (1+q)(1-t)/(1-qt) at (q,t) = (0.3, 0.5); equals 13/17
    assert poly.coeffs[(1, 1)] == pytest.approx(0.7647058823529411, abs=1e-14)
    assert poly.coeffs[(1, 1)] == pytest.approx((1 + q) * (1 - t) / (1 - q * t), abs=1e-14)


@pytest.mark.parametrize(
    "mu,nvars", [((2,), 2), ((2, 1), 3), ((3, 1), 3), ((2, 2), 4), ((3, 2, 1), 4)]
)
def test_eigen_equation_pointwise(mu, nvars):
    q, t = 0.3, 0.5
    poly = macdonald_coeffs(mu, q, t, nvars)
    eig = operator_eigenvalue(mu, q, t, nvars)
    rng = np.random.default_rng(5)
    for _ in range(4):
        point = rng.uniform(0.5, 2.0, size=nvars) + 1j * rng.uniform(0.1, 0.9, size=nvars)
        lhs = apply_first_difference_operator(poly, q, t, point)
        rhs = eig * poly.evaluate(point)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


def test_eigen_equation_at_unit_circle_parameters():
    params = ModelParams(2, 2, 0.7)
    q, t = params.q, params.t
    for mu in ((2, 1), (2, 2)):
        poly = macdonald_coeffs(mu, q, t, 3)
        eig = operator_eigenvalue(mu, q, t, 3)
        rng = np.random.default_rng(9)
        for _ in range(3):
            point = rng.uniform(0.5, 2.0, size=3) + 1j * rng.uniform(0.1, 0.9, size=3)
            lhs = apply_first_difference_operator(poly, q, t, point)
            rhs = eig * poly.evaluate(point)
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


def test_dominance_mask_matches_the_scalar_order():
    # every same-weight pair of partitions of d <= 10 into at most nvars <= 6 parts
    for nvars in range(1, 7):
        for d in range(11):
            parts = _partitions_of_weight(d, nvars)
            for top, mu in enumerate(parts):
                expected = [dominance_leq(lam, mu, nvars) for lam in parts]
                assert macdonald._dominated(parts, top, nvars).tolist() == expected


def test_triangular_support():
    q, t = 0.4, 0.4**0.7
    for nvars, mus in ((3, [(2, 1), (3,), (2, 2)]), (4, [(2, 1, 1), (3, 1)])):
        for mu in mus:
            poly = macdonald_coeffs(mu, q, t, nvars)
            assert poly.coeffs[mu] == pytest.approx(1.0)
            for lam in poly.coeffs:
                assert weight(lam) == weight(mu)
                assert dominance_leq(lam, mu, nvars)
            assert poly.degree() == weight(mu)


def bialternant(lam, point):
    """Schur polynomial of lam at a point: det(x_i^(lam_j + N - j)) / det(x_i^(N - j))."""
    point = np.asarray(point)
    staircase = np.arange(len(point) - 1, -1, -1)
    numerator = np.linalg.det(point[:, None] ** (np.array(pad(lam, len(point))) + staircase))
    return numerator / np.linalg.det(point[:, None] ** staircase)


@pytest.mark.parametrize(
    "mu,nvars",
    [((2, 1), 3), ((3, 1, 1), 3), ((2, 2), 3), ((3, 2, 1), 4), ((2, 2, 1, 1), 4), ((4, 1), 4),
     ((3, 2, 1, 1), 5), ((2, 2, 2, 1, 1), 5), ((4, 2, 1), 5)],
)
def test_equal_parameters_give_schur_polynomials(mu, nvars):
    # at q = t the Macdonald polynomial is the Schur polynomial
    q = 0.45 + 0.3j
    poly = macdonald_coeffs(mu, q, q, nvars)
    rng = np.random.default_rng(11)
    for _ in range(3):
        point = rng.uniform(0.5, 1.5, size=nvars) * np.exp(1j * rng.uniform(0, 2 * np.pi, size=nvars))
        expected = bialternant(mu, point)
        assert abs(poly.evaluate(point) - expected) < 1e-10 * max(1.0, abs(expected))


def test_degenerate_specialization_raises():
    # q = 1 collides the eigenvalues of (2) and (1,1)
    with pytest.raises(DegenerateSpecializationError):
        macdonald_coeffs((2,), 1.0 + 0j, 0.5 + 0j, 2)


def test_trig_eigenvalue_examples():
    params = ModelParams(1, 1, 1.0)
    assert trig_joint_eigenvalue((), 1, params) == pytest.approx(1.0, abs=1e-14)
    assert trig_joint_eigenvalue((1,), 1, params) == pytest.approx(-1.0, abs=1e-14)
    with pytest.raises(ValueError):
        trig_joint_eigenvalue((), 2, params)


def test_trig_eigenvalue_conjugation_pairing():
    params = ModelParams(2, 2, 0.7)
    for nu in enumerate_lattice(2, 2).order:
        e1 = trig_joint_eigenvalue(nu, 1, params)
        e2 = trig_joint_eigenvalue(nu, 2, params)
        assert e2 == pytest.approx(e1.conjugate(), abs=1e-13)


def test_principal_value_at_origin():
    params = ModelParams(2, 2, 0.7)
    for nu in enumerate_lattice(2, 2).order:
        assert principal_eigenfunction_value((), nu, params) == pytest.approx(1.0, abs=1e-13)


def test_principal_values_match_2x2_diagonalization():
    params = ModelParams(1, 1, 1.0)
    # eigenvectors of [[0,1],[1,0]] normalized at the first entry
    assert principal_eigenfunction_value((1,), (), params) == pytest.approx(1.0, abs=1e-13)
    assert principal_eigenfunction_value((1,), (1,), params) == pytest.approx(-1.0, abs=1e-13)


@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (2, 2), (3, 2)])
@pytest.mark.parametrize("g", [0.5, 1.0, 1.3])
def test_compare_trig_grid(n, m, g):
    report = compare_trig(zero_nome_spectrum(n, m, g))
    assert report.eigenvalue_residual < 1e-8
    assert report.eigenfunction_residual < 1e-8


def test_compare_trig_requires_zero_nome():
    with pytest.raises(ValueError):
        compare_trig(joint_diagonalize(ModelParams(2, 2, 1.0, 0.5)))


def test_oracle_code_does_not_touch_lattice_operators():
    source = Path(__file__).resolve().parents[1].joinpath("src/rlatt/macdonald.py").read_text()
    assert "operators" not in source
    assert "spectral" not in source


def test_compare_trig_solves_each_shape_once(monkeypatch):
    spectrum = zero_nome_spectrum(3, 2, 0.8)
    shapes = []
    exact = macdonald._solve_shape

    def counted(mu, *args):
        shapes.append(mu)
        return exact(mu, *args)

    monkeypatch.setattr(macdonald, "_solve_shape", counted)
    compare_trig(spectrum)
    assert shapes == list(spectrum.basis.order)


@pytest.mark.parametrize("n,m", [(3, 2), (4, 2)])
def test_compare_trig_builds_one_operator_matrix_per_degree(monkeypatch, n, m):
    spectrum = zero_nome_spectrum(n, m, 0.8)
    degrees = []
    exact = macdonald._antisymmetrized_form

    def counted(d, *args):
        degrees.append(d)
        return exact(d, *args)

    monkeypatch.setattr(macdonald, "_antisymmetrized_form", counted)
    compare_trig(spectrum)
    assert degrees == list(range(n * m + 1))


@pytest.mark.parametrize("n,m", [(3, 3), (4, 2), (4, 3), (3, 4), (2, 9)])
def test_antisymmetrized_form_matches_the_loop_over_permutations(n, m):
    params = ModelParams(n, m, 0.7, 0.0)
    for d in range(n * m + 1):
        parts, lead, image = _antisymmetrized_form(d, params.q, params.t, n + 1)
        ref_parts, ref_lead, ref_image = antisymmetrized_form(d, params.q, params.t, n + 1)
        # the same terms, added to each entry in the same order
        assert parts == ref_parts
        assert np.array_equal(lead, ref_lead)
        assert np.array_equal(image, ref_image)


def test_monomial_table_matches_the_scalar_evaluator():
    rng = np.random.default_rng(17)
    points = rng.uniform(0.5, 1.5, size=(4, 5)) * np.exp(1j * rng.uniform(0, 2 * np.pi, size=(4, 5)))
    for d in range(9):
        parts = _partitions_of_weight(d, 5)
        table = _monomial_table(parts, points)
        assert table.shape == (len(parts), len(points))
        for i, lam in enumerate(parts):
            for k, point in enumerate(points):
                expected = monomial_sym_eval(lam, tuple(point))
                assert abs(table[i, k] - expected) <= 1e-13 * abs(expected)


@pytest.mark.parametrize("g", [0.7, 0.9814989379240225])
@pytest.mark.parametrize(
    "n,m,first",
    [(3, 4, "eigenvalue collision between (4, 2, 2) and (3, 3, 1, 1)"),
     (3, 6, "eigenvalue collision between (5, 3, 2) and (4, 4, 1, 1)")],
)
def test_compare_trig_raises_the_first_collision_in_basis_order(n, m, g, first):
    # the locked alpha puts (q, t) on t^(n+1) q^m = 1, where these eigenvalues collide;
    # the benchmark's verify workload expects the (3, 4) message
    with pytest.raises(DegenerateSpecializationError) as caught:
        compare_trig(zero_nome_spectrum(n, m, g))
    assert str(caught.value).startswith(first)


@pytest.mark.parametrize(
    "n,m,g,alpha_override",
    [(1, 8, 0.7, None), (3, 4, 0.9814989379240225, None), (5, 5, 1.3, None), (4, 8, 0.7, None),
     (2, 9, 1.6, None), (3, 3, 0.8, 0.61)],
)
def test_array_closed_form_matches_the_scalar_one(n, m, g, alpha_override):
    params = ModelParams(n, m, g, alpha_override=alpha_override)
    basis = enumerate_lattice(n, m)
    closed = trig_joint_eigenvalues(basis, params)
    scalar = np.array([[trig_joint_eigenvalue(nu, r, params) for r in range(1, n + 1)] for nu in basis.order])
    assert closed.shape == (len(basis), n)
    assert np.max(np.abs(closed - scalar)) <= 1e-14 * np.max(np.abs(scalar))


def test_nan_eigenfunction_residual_reaches_the_comparison_residual():
    assert math.isnan(macdonald.TrigComparison(1e-15, float("nan")).residual)
