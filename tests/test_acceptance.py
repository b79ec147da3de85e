"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -rA` (or -s) to see the lines.
"""

import time
from itertools import product

import numpy as np
import pytest

from rlatt.coeffs import (
    ModelParams,
    box_pieri_coefficients,
    hop_coefficient,
    norm_vector,
    pieri_coefficient,
    weight_vector,
)
from rlatt.eigenpoly import (
    build_polynomials,
    dual_orthogonality_residual,
    pieri_residual,
    reconstruct_and_compare,
    value_table,
)
from rlatt.macdonald import compare_trig
from rlatt.operators import build_hop_operator
from rlatt.partitions import add_strip, enumerate_lattice, vertical_strips
from rlatt.spectral import (
    joint_diagonalize,
    label_spectrum,
    orthogonality_residual,
    sweep_spectra,
)
from rlatt.weightlattice import crosscheck_hop_coefficients
from scalar_reference import (
    commutator_residual,
    dominance_leq,
    lattice_weight,
    memoized,
    norm_constant,
    partition_to_weight,
    reduce_partition,
    second_difference_residual,
    transpose_residual,
    weight_to_partition,
)

GRID = [
    (n, m, g, p)
    for (n, m) in ((2, 2), (3, 2), (2, 3))
    for g in (0.5, 1.0, 1.7)
    for p in (0.0, 0.3, 0.7)
]


def report(name, residual, tolerance, passed=None):
    if passed is None:
        passed = residual < tolerance
    status = "PASS" if passed else "FAIL"
    print(f"criterion {name}: residual={residual:.3e} tolerance={tolerance:.0e} {status}")
    return passed


def moves(params, basis, max_size=None):
    top = max_size or params.n + 1
    for lam in basis.order:
        for r in range(1, top + 1):
            for strip in vertical_strips(r, params.n):
                mu, dominant = add_strip(lam, strip)
                if not dominant:
                    continue
                yield lam, strip, reduce_partition(mu, params.n)


def hop_matrices(params, basis):
    return [build_hop_operator(r, params, basis) for r in range(1, params.n + 1)]


def test_criterion_1_commutativity():
    start = time.perf_counter()
    worst = 0.0
    for n, m, g, p in GRID:
        params = ModelParams(n, m, g, p)
        hops = hop_matrices(params, enumerate_lattice(n, m))
        for r in range(1, n + 1):
            for s in range(r + 1, n + 1):
                worst = max(worst, commutator_residual(hops[r - 1], hops[s - 1]))
    elapsed = time.perf_counter() - start
    ok = report("1 commutativity", worst, 1e-11)
    print(f"criterion 1 runtime: {elapsed:.2f} s (budget 5 s)")
    assert ok
    assert elapsed < 5.0


def test_criterion_2_truncation_dichotomy():
    worst_outside = 0.0
    floor_ok = True
    for n, m, g, p in GRID:
        params = memoized(ModelParams(n, m, g, p))
        basis = enumerate_lattice(n, m)
        for lam, strip, reduced in moves(params, basis):
            b = hop_coefficient(lam, strip, params)
            if reduced in basis.order:
                floor_ok = floor_ok and b > 1e-10
            else:
                worst_outside = max(worst_outside, abs(b))
    ok = report("2 truncation-dichotomy", worst_outside, 1e-12, worst_outside < 1e-12 and floor_ok)
    assert ok


def test_criterion_3_weight_recurrence_and_psi():
    worst = 0.0
    for n, m, g, p in GRID:
        params = memoized(ModelParams(n, m, g, p))
        basis = enumerate_lattice(n, m)
        for lam, strip, reduced in moves(params, basis):
            if reduced not in basis.order:
                continue
            complement = tuple(1 - s for s in strip)
            lhs = hop_coefficient(lam, strip, params) * lattice_weight(lam, params)
            rhs = hop_coefficient(reduced, complement, params) * lattice_weight(reduced, params)
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
            psi = pieri_coefficient(lam, strip, params)
            ratio = (
                hop_coefficient(lam, strip, params)
                * norm_constant(reduced, params)
                / norm_constant(lam, params)
            )
            worst = max(worst, abs(psi - ratio) / max(abs(psi), abs(ratio)))
    assert report("3 weight-recurrence and psi-consistency", worst, 1e-11)


def test_criterion_4_adjointness():
    worst = 0.0
    for n, m, g, p in GRID:
        params = ModelParams(n, m, g, p)
        basis = enumerate_lattice(n, m)
        hops = hop_matrices(params, basis)
        w = weight_vector(basis, params)
        for r in range(1, n + 1):
            worst = max(worst, transpose_residual(hops[r - 1], hops[n - r], w))
    assert report("4 adjointness", worst, 1e-11)


def test_criterion_5_two_state_anchor():
    worst = 0.0
    for p in (0.0, 0.3, 0.6, 0.9, -0.5):
        spectrum = sweep_spectra(ModelParams(1, 1, 1.0, p), [p])[0]
        # the labels in order are () and (1,)
        worst = max(worst, float(np.max(np.abs(spectrum.eigenvalues[:, 0] - [1.0, -1.0]))))
    assert report("5 two-state anchor", worst, 1e-12)


def test_criterion_6_trigonometric_limit():
    worst = 0.0
    for (n, m), g in product(((1, 1), (2, 1), (2, 2), (3, 2), (4, 2), (4, 3)), (0.5, 1.0, 1.3)):
        comparison = compare_trig(label_spectrum(joint_diagonalize(ModelParams(n, m, g, 0.0))))
        worst = max(worst, comparison.eigenvalue_residual, comparison.eigenfunction_residual)
    assert report("6 trigonometric-limit", worst, 1e-8)


def test_criterion_7_diagonalization_suite():
    points = [(2, 2, 0.7, 0.5), (3, 2, 1.0, 0.3), (2, 2, 1.0, 0.0)]
    worst_orth = 0.0
    worst_pieri = 0.0
    worst_reco = 0.0
    support_ok = True
    for n, m, g, p in points:
        params = ModelParams(n, m, g, p)
        basis = enumerate_lattice(n, m)
        spectrum = sweep_spectra(params, [p])[0]
        coeffs = build_polynomials(params, basis)
        table = value_table(coeffs, spectrum)
        worst_orth = max(worst_orth, orthogonality_residual(spectrum))
        pieri = [box_pieri_coefficients(basis, r, params) for r in range(1, n + 1)]
        worst_pieri = max(worst_pieri, pieri_residual(table, spectrum, pieri))
        norms, weights = norm_vector(basis, params), weight_vector(basis, params)
        worst_reco = max(worst_reco, reconstruct_and_compare(table, spectrum, norms, weights))
        for row, mu in zip(coeffs, basis.order):
            if row[basis.order.index(mu)] != 1.0:
                support_ok = False
            for col in np.flatnonzero(row):
                nu = weight_to_partition(partition_to_weight(basis.order[col], n))
                if nu not in basis.order or not dominance_leq(nu, mu, n):
                    support_ok = False
    ok = report("7a orthogonality", worst_orth, 1e-9)
    ok &= report("7b pieri", worst_pieri, 1e-8)
    ok &= report("7c reconstruction", worst_reco, 1e-7)
    ok &= report("7d monic triangular support", 0.0 if support_ok else 1.0, 1.0, support_ok)
    assert ok


def test_criterion_8_dual_orthogonality():
    worst = 0.0
    for (n, m), g, p in product(((2, 2), (3, 2)), (0.7, 1.0), (0.0, 0.5)):
        params = ModelParams(n, m, g, p)
        basis = enumerate_lattice(n, m)
        spectrum = sweep_spectra(params, [p])[0]
        table = value_table(build_polynomials(params, basis), spectrum)
        norms, weights = norm_vector(basis, params), weight_vector(basis, params)
        worst = max(worst, dual_orthogonality_residual(table, spectrum, norms, weights))
    assert report("8 dual-orthogonality", worst, 1e-8)


def test_criterion_9_continuation():
    worst = 0.0
    for n, m, g in ((2, 2, 0.7), (3, 2, 1.0)):
        ps = [round(0.05 * k, 10) for k in range(19)]
        spectra = sweep_spectra(ModelParams(n, m, g, 0.0), ps)
        worst = max(worst, second_difference_residual(spectra))
    assert report("9 continuation smoothness", worst, 0.5)


def test_criterion_10_coordinate_crosscheck():
    worst = 0.0
    for (n, m), g, p in product(((2, 2), (3, 2)), (0.5, 1.0, 1.7), (0.0, 0.3, 0.7)):
        worst = max(worst, crosscheck_hop_coefficients(ModelParams(n, m, g, p)))
    assert report("10 coordinate-crosscheck", worst, 1e-12)
