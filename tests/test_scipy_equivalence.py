"""The numpy assignments and triangular solve against the scipy routines they replaced.

The package needs numpy only; scipy is a test dependency, and here it is the
reference.  Labeling matches by row-wise argmin or argmax with a permutation
check instead of ``linear_sum_assignment``, and the oracle's operator matrix
is a forward substitution instead of ``solve_triangular``.  Every assignment
that labeling and continuation make on real solves is checked against
``linear_sum_assignment`` on the same cost or overlap matrix.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import solve_triangular
from scipy.optimize import linear_sum_assignment

from rlatt import spectral
from rlatt.coeffs import ModelParams
from rlatt.macdonald import _antisymmetrized_form, _operator_matrix, trig_joint_eigenvalues
from rlatt.spectral import sweep_spectra
from scalar_reference import dense_transfer_labels

COUPLINGS = (0.9814989379240225, 1.4277056977549325)
LABEL_BOXES = [(3, 4), (2, 8), (3, 5), (3, 6), (4, 5), (4, 6), (5, 5)]
SWEEP_BOXES = [(3, 4, 0.6), (3, 5, -0.6), (4, 4, 0.6), (3, 6, -0.6), (4, 5, 0.6), (5, 4, -0.6)]


def _closed_form_order(spectrum):
    """The closed-form labeling by linear_sum_assignment on each sector's cost matrix."""
    targets = trig_joint_eigenvalues(spectrum.basis, spectrum.params)
    label_sectors = -np.sum(spectrum.basis.parts, axis=1) % (spectrum.params.n + 1)
    order = np.empty(len(spectrum), dtype=np.intp)
    for k in range(spectrum.params.n + 1):
        labels, pairs = np.flatnonzero(label_sectors == k), np.flatnonzero(spectrum.sectors == k)
        cost = spectral._max_distances(spectrum.eigenvalues[pairs], targets[labels])
        rows, cols = linear_sum_assignment(cost)
        if np.max(cost[rows, cols]) > spectral._MATCH_TOL:
            return None
        order[labels[cols]] = pairs[rows]
    return order


def _transfer_order(previous, candidate):
    """The overlap match by linear_sum_assignment on each sector's overlap matrix; None on failure."""
    order = np.empty(len(candidate), dtype=np.intp)
    for k in range(candidate.params.n + 1):
        labels, pairs = np.flatnonzero(previous.sectors == k), np.flatnonzero(candidate.sectors == k)
        overlap = np.abs(previous.eigenvectors[:, labels].conj().T @ candidate.eigenvectors[:, pairs])
        rows, cols = linear_sum_assignment(-overlap)
        if np.min(overlap[rows, cols]) <= spectral._MIN_OVERLAP:
            return None
        order[labels[rows]] = pairs[cols]
    return order


def _is_permuted(result, spectrum, order):
    return order is not None and np.array_equal(result.eigenvectors, spectrum.eigenvectors[:, order])


@pytest.fixture
def checked(monkeypatch):
    """Check every closed-form labeling and overlap match against scipy; returns the verdicts seen."""
    closed_form, transfer = spectral.label_spectrum, spectral._transfer_labels
    verdicts = []

    def checked_closed_form(spectrum):
        result = closed_form(spectrum)
        assert _is_permuted(result, spectrum, _closed_form_order(spectrum))
        verdicts.append("closed form")
        return result

    def checked_transfer(previous, candidate):
        result = transfer(previous, candidate)
        order = _transfer_order(previous, candidate)
        assert (result is None and order is None) or _is_permuted(result, candidate, order)
        verdicts.append(result is not None)
        return result

    monkeypatch.setattr(spectral, "label_spectrum", checked_closed_form)
    monkeypatch.setattr(spectral, "_transfer_labels", checked_transfer)
    return verdicts


@pytest.mark.parametrize("g", COUPLINGS)
@pytest.mark.parametrize("n,m", LABEL_BOXES)
def test_label_assignments_match_linear_sum_assignment(checked, n, m, g):
    sweep_spectra(ModelParams(n, m, g, 0.3), [0.3])
    assert checked == ["closed form", True]


@pytest.mark.parametrize("g", COUPLINGS)
@pytest.mark.parametrize("n,m,p_stop", SWEEP_BOXES)
def test_sweep_assignments_match_linear_sum_assignment(checked, n, m, p_stop, g):
    p_values = np.linspace(0.0, p_stop, 13)
    sweep_spectra(ModelParams(n, m, g, 0.0), p_values)
    assert checked == ["closed form"] + [True] * 12


def test_two_rows_on_one_column_refuse_the_match(checked):
    # a previous spectrum with one block column twice: both its rows pick the same candidate
    # with overlap 1, so only the permutation check refuses the match, as linear_sum_assignment does
    labeled = sweep_spectra(ModelParams(3, 4, COUPLINGS[0], 0.3), [0.3])[0]
    first, second = np.flatnonzero(labeled.sectors == 1)[:2]
    columns = labeled.columns.copy()
    columns[second] = columns[first]
    duplicated = replace(labeled, columns=columns)
    assert np.array_equal(duplicated.eigenvectors[:, second], duplicated.eigenvectors[:, first])
    assert spectral._transfer_labels(duplicated, labeled) is None
    assert dense_transfer_labels(duplicated, labeled) is None
    assert spectral._transfer_labels(labeled, labeled) is not None
    assert checked[-2:] == [False, True]


@pytest.mark.parametrize("n,m", [(3, 3), (4, 2), (4, 3), (2, 9)])
def test_forward_substitution_matches_solve_triangular(n, m):
    params = ModelParams(n, m, COUPLINGS[0], 0.0)
    for d in range(n * m + 1):
        parts, lead, image = _antisymmetrized_form(d, params.q, params.t, n + 1)
        mat = _operator_matrix(d, params.q, params.t, n + 1)[1]
        reference = solve_triangular(lead, image, lower=True)
        # two summation orders of one triangular solve: the forward error bound grows with the
        # number of terms per entry, up to 47 here
        assert np.linalg.norm(mat - reference) <= 1e-15 * len(parts) * np.linalg.norm(reference)
        # and the backward error stays at rounding level of the sums
        assert np.max(np.abs(lead @ mat - image)) <= 1e-15 * np.max(np.abs(lead) @ np.abs(mat))
