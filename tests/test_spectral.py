from dataclasses import replace
from math import comb, copysign

import numpy as np
import pytest

from rlatt import spectral
from rlatt.coeffs import ModelParams
from rlatt.errors import ContinuationError
from rlatt.macdonald import trig_joint_eigenvalue
from rlatt.spectral import (
    Spectrum,
    conjugate_pairing_residual,
    continue_labels,
    joint_diagonalize,
    label_spectrum,
    min_eigenvalue_gap,
    orthogonality_residual,
    second_difference_residual,
    sweep_spectra,
    unitarity_residual,
)


@pytest.mark.parametrize("p", [0.0, 0.3, 0.6, 0.9, -0.5])
def test_two_state_anchor(p):
    # at g = 1 the off-diagonal product is identically 1, so the spectrum is
    # exactly {+1, -1} for every nome
    spectrum = label_spectrum(joint_diagonalize(ModelParams(1, 1, 1.0, p)))
    by_label = spectrum.by_label()
    assert by_label[()].eigenvalues[0] == pytest.approx(1.0, abs=1e-12)
    assert by_label[(1,)].eigenvalues[0] == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.parametrize("n,m,g,p", [(2, 2, 0.7, 0.5), (3, 2, 1.0, 0.3), (2, 3, 1.7, 0.7)])
def test_spectrum_size(n, m, g, p):
    spectrum = joint_diagonalize(ModelParams(n, m, g, p))
    assert len(spectrum) == comb(n + m, n)
    for datum in spectrum.data:
        assert datum.residual < 1e-9


def test_labels_match_closed_form_at_zero_nome(labeled):
    spectrum = labeled(2, 2, 0.7, 0.0)
    for datum in spectrum.data:
        for r in range(1, 3):
            closed = trig_joint_eigenvalue(datum.label, r, spectrum.params)
            assert abs(datum.eigenvalues[r - 1] - closed) < 1e-8


def test_zero_nome_labels_are_a_permutation(labeled):
    for n, m, g in ((2, 2, 0.7), (3, 2, 1.0)):
        spectrum = labeled(n, m, g, 0.0)
        labels = [d.label for d in spectrum.data]
        assert sorted(labels, key=spectrum.basis.index.get) == list(spectrum.basis.order)
        assert len(set(labels)) == len(labels)


@pytest.mark.parametrize("n,m,g,p", [(2, 2, 0.7, 0.5), (3, 2, 1.0, 0.3)])
def test_orthogonality(labeled, n, m, g, p):
    assert orthogonality_residual(labeled(n, m, g, p)) < 1e-9


@pytest.mark.parametrize("n,m,g,p", [(2, 2, 0.7, 0.5), (3, 2, 1.0, 0.3), (2, 2, 1.0, 0.0)])
def test_unitarity(labeled, n, m, g, p):
    assert unitarity_residual(labeled(n, m, g, p)) < 1e-8


@pytest.mark.parametrize("n,m,g,p", [(2, 2, 0.7, 0.5), (3, 2, 1.0, 0.3), (2, 3, 1.7, 0.7)])
def test_conjugate_pairing(labeled, n, m, g, p):
    assert conjugate_pairing_residual(labeled(n, m, g, p)) < 1e-9


@pytest.mark.parametrize("n,m,g,p", [(2, 2, 0.7, 0.5), (3, 2, 1.0, 0.3)])
def test_multiplicity_free(labeled, n, m, g, p):
    spectrum = labeled(n, m, g, p)
    brute = min(
        np.linalg.norm(a.eigenvalues - b.eigenvalues)
        for i, a in enumerate(spectrum.data)
        for b in spectrum.data[i + 1 :]
    )
    assert min_eigenvalue_gap(spectrum) == pytest.approx(brute, rel=1e-14)
    assert min_eigenvalue_gap(spectrum) > 1e-6


def test_eigenvector_normalization(labeled):
    spectrum = labeled(2, 2, 0.7, 0.5)
    from rlatt.coeffs import weight_vector

    w = weight_vector(spectrum.basis, spectrum.params)
    for datum in spectrum.data:
        u = datum.eigenvector
        assert np.sum(np.abs(u) ** 2 * w) == pytest.approx(1.0, abs=1e-12)
        assert u[0].imag == pytest.approx(0.0, abs=1e-14)
        assert u[0].real > 0
        assert datum.norm_hat == pytest.approx(float(u[0].real) ** 2, rel=1e-10)


def test_dual_weights_sum_to_one(labeled):
    for point in ((2, 2, 0.7, 0.5), (3, 2, 1.0, 0.3)):
        spectrum = labeled(*point)
        assert sum(d.norm_hat for d in spectrum.data) == pytest.approx(1.0, abs=1e-10)


def test_labels_constant_in_nome_for_two_state_model():
    spectra = sweep_spectra(ModelParams(1, 1, 1.0, 0.0), [0.1 * k for k in range(10)])
    for spectrum in spectra:
        by_label = spectrum.by_label()
        assert by_label[()].eigenvalues[0] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n,m,g", [(2, 2, 0.7), (3, 2, 1.0)])
def test_sweep_smoothness(n, m, g):
    ps = [round(0.05 * k, 10) for k in range(19)]
    spectra = sweep_spectra(ModelParams(n, m, g, 0.0), ps)
    assert second_difference_residual(spectra) < 0.5
    first = [d.label for d in spectra[0].data]
    for spectrum in spectra:
        assert [d.label for d in spectrum.data] == first


def test_continuation_agrees_with_direct_labeling(labeled):
    base = labeled(2, 2, 0.7, 0.0)
    target = joint_diagonalize(ModelParams(2, 2, 0.7, 0.5))
    carried = continue_labels(base, target)
    direct = labeled(2, 2, 0.7, 0.5)
    for a, b in zip(carried.data, direct.data):
        assert a.label == b.label
        assert np.allclose(a.eigenvalues, b.eigenvalues, atol=1e-12)


def test_negative_nome_equals_positive():
    # only even nome powers enter the bracket, so the spectra coincide
    plus = label_spectrum(joint_diagonalize(ModelParams(2, 2, 0.7, 0.5)))
    minus = label_spectrum(joint_diagonalize(ModelParams(2, 2, 0.7, -0.5)))
    for a, b in zip(plus.data, minus.data):
        assert a.label == b.label
        assert np.allclose(a.eigenvalues, b.eigenvalues, atol=1e-13)


def test_single_datum_orthogonality_is_zero(labeled):
    spectrum = labeled(2, 2, 0.7, 0.5)
    single = Spectrum(spectrum.params, spectrum.basis, spectrum.data[:1])
    assert orthogonality_residual(single) == 0.0


def test_smoothness_statistic_flags_label_swaps():
    ps = [round(0.05 * k, 10) for k in range(19)]
    spectra = sweep_spectra(ModelParams(2, 2, 0.7, 0.0), ps)
    swapped = []
    for k, spectrum in enumerate(spectra):
        if k < 10:
            swapped.append(spectrum)
            continue
        data = list(spectrum.data)
        i = spectrum.basis.index[(2,)]
        j = spectrum.basis.index[(1, 1)]
        data[i] = replace(data[i], label=(1, 1))
        data[j] = replace(data[j], label=(2,))
        data[i], data[j] = data[j], data[i]
        swapped.append(Spectrum(spectrum.params, spectrum.basis, data))
    assert second_difference_residual(swapped) > 0.5


def _record_solves(monkeypatch):
    """Nomes passed to joint_diagonalize from inside the spectral module."""
    nomes = []
    solve = spectral.joint_diagonalize

    def recording(params, *args, **kwargs):
        nomes.append(params.p)
        return solve(params, *args, **kwargs)

    monkeypatch.setattr(spectral, "joint_diagonalize", recording)
    return nomes


def _refuse_matches(monkeypatch, count):
    """Make the first `count` overlap matches fail."""
    transfer = spectral._transfer_labels
    refused = []

    def refusing(previous, candidate):
        if len(refused) < count:
            refused.append(candidate.params.p)
            return None
        return transfer(previous, candidate)

    monkeypatch.setattr(spectral, "_transfer_labels", refusing)
    return refused


@pytest.mark.parametrize("p", [0.3, -0.6])
@pytest.mark.parametrize(
    "refusals,fractions",
    [(0, []), (1, [1 / 2]), (2, [1 / 2, 1 / 4, 3 / 4]), (3, [1 / 2, 1 / 4, 1 / 8, 3 / 8, 7 / 8])],
)
def test_failed_match_halves_the_step_and_a_clean_one_doubles_it(monkeypatch, labeled, p, refusals, fractions):
    base = labeled(2, 2, 0.7, 0.0)
    direct = continue_labels(base, joint_diagonalize(ModelParams(2, 2, 0.7, p)))
    target = joint_diagonalize(ModelParams(2, 2, 0.7, p))
    nomes = _record_solves(monkeypatch)
    refused = _refuse_matches(monkeypatch, refusals)
    carried = continue_labels(base, target)
    assert nomes == pytest.approx([f * p for f in fractions], abs=1e-15)
    assert refused == pytest.approx([p / 2**k for k in range(refusals)], abs=1e-15)
    assert carried.params.p == p
    # two solves of the same point, so each label must carry the same eigenvalues
    for a, b in zip(carried.data, direct.data):
        assert np.array_equal(a.eigenvalues, b.eigenvalues)


def test_refusing_every_match_raises_at_the_step_floor(monkeypatch, labeled):
    base = labeled(2, 2, 0.7, 0.0)
    target = joint_diagonalize(ModelParams(2, 2, 0.7, 0.3))
    nomes = _record_solves(monkeypatch)
    _refuse_matches(monkeypatch, 10**6)
    with pytest.raises(ContinuationError, match=f"smallest step {spectral._MIN_STEP}"):
        continue_labels(base, target)
    # the target and every halved step down to the floor 0.05 / 2**6
    assert nomes == pytest.approx([0.3 / 2**k for k in range(1, 9)], abs=1e-15)
    assert min(nomes) >= spectral._MIN_STEP > min(nomes) / 2


def test_label_spectrum_solves_only_the_zero_nome(monkeypatch):
    target = joint_diagonalize(ModelParams(3, 4, 0.9814989379240225, 0.3))
    nomes = _record_solves(monkeypatch)
    label_spectrum(target)
    assert nomes == [0.0]


@pytest.mark.parametrize("p", [0.3, 0.6, -0.6])
@pytest.mark.parametrize("n,m", [(3, 4), (2, 8), (4, 5)])
def test_one_jump_labels_equal_the_sweep_grid(n, m, p):
    g = 0.9814989379240225
    ps = [round(copysign(0.05 * k, p), 10) for k in range(round(abs(p) / 0.05) + 1)]
    swept = sweep_spectra(ModelParams(n, m, g, 0.0), ps)[-1]
    jumped = label_spectrum(joint_diagonalize(ModelParams(n, m, g, p)))
    assert swept.params.p == jumped.params.p == p
    # both label the same solve, so each label must carry the same eigenvalues
    assert [d.label for d in jumped.data] == [d.label for d in swept.data]
    for a, b in zip(jumped.data, swept.data):
        assert np.array_equal(a.eigenvalues, b.eigenvalues)


# couplings and nomes where eigenvalues of the separating combination lie
# closer than eigh's accuracy allows for a lone vector; (6, 6) is N = 924
@pytest.mark.parametrize(
    "n,m,g,p",
    [
        (5, 5, 0.62, 0.3),
        (5, 5, 1.18, 0.2),
        (5, 5, 1.0405311166566569, 0.1),
        (4, 6, 1.34, 0.15),
        (4, 5, 1.247711042332361, 0.05),
        (5, 5, 0.78, 0.1),
        (5, 5, 1.46, 0.0),
        (6, 6, 0.7, 0.3),
    ],
)
def test_close_eigenvalues_meet_the_residual_tolerance(n, m, g, p):
    spectrum = joint_diagonalize(ModelParams(n, m, g, p))
    assert len(spectrum) == comb(n + m, n)
    assert max(d.residual for d in spectrum.data) < 1e-9


def test_sweep_through_close_eigenvalues():
    ps = [round(-0.05 * k, 10) for k in range(13)]
    spectra = sweep_spectra(ModelParams(5, 4, 0.9927340406623589, 0.0), ps)
    assert [s.params.p for s in spectra] == ps
    for spectrum in spectra:
        assert max(d.residual for d in spectrum.data) < 1e-9
