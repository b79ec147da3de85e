import re
from dataclasses import replace
from math import comb, copysign

import numpy as np
import pytest

from rlatt import spectral
from rlatt.coeffs import ModelParams, weight_vector
from rlatt.errors import ContinuationError, DegenerateSpectrumError, LabelingError, TruncationViolationError
from rlatt.operators import build_hop_operator
from rlatt.partitions import enumerate_lattice
from rlatt.spectral import (
    continue_labels,
    joint_diagonalize,
    label_spectrum,
    orthogonality_residual,
    sweep_spectra,
)
from scalar_reference import (
    conjugate_by_weights,
    conjugate_pairing_residual,
    dense_transfer_labels,
    min_eigenvalue_gap,
    off_regime,
    operator_eigenvectors,
    second_difference_residual,
    sweep_nome_by_nome,
    trig_joint_eigenvalue,
    unitarity_residual,
)


@pytest.mark.parametrize("p", [0.0, 0.3, 0.6, 0.9, -0.5])
def test_two_state_anchor(p):
    # at g = 1 the off-diagonal product is identically 1, so the spectrum is
    # exactly {+1, -1} for every nome
    spectrum = sweep_spectra(ModelParams(1, 1, 1.0, p), [p])[0]
    assert spectrum.basis.order == ((), (1,))
    assert spectrum.eigenvalues[:, 0] == pytest.approx([1.0, -1.0], abs=1e-12)


@pytest.mark.parametrize("n,m,g,p", [(2, 2, 0.7, 0.5), (3, 2, 1.0, 0.3), (2, 3, 1.7, 0.7)])
def test_spectrum_size(n, m, g, p):
    spectrum = joint_diagonalize(ModelParams(n, m, g, p))
    assert len(spectrum) == comb(n + m, n)
    assert spectrum.eigenvalues.shape == (len(spectrum), n)
    assert spectrum.eigenvectors.shape == (len(spectrum), len(spectrum))
    assert np.all(spectrum.residuals < 1e-9)


def test_labels_match_closed_form_at_zero_nome(labeled):
    spectrum = labeled(2, 2, 0.7, 0.0)
    for nu, eigenvalues in zip(spectrum.basis.order, spectrum.eigenvalues):
        for r in range(1, 3):
            closed = trig_joint_eigenvalue(nu, r, spectrum.params)
            assert abs(eigenvalues[r - 1] - closed) < 1e-8


ARRAYS = ("eigenvalues", "norm_hat", "residuals", "sectors", "columns")


def _copy(spectrum):
    arrays = {name: getattr(spectrum, name).copy() for name in ARRAYS}
    return replace(spectrum, blocks=tuple(block.copy() for block in spectrum.blocks), **arrays)


def _same_arrays(a, b):
    """Whether two spectra hold bitwise equal arrays, blocks and frames."""
    return (
        a.params == b.params
        and all(np.array_equal(getattr(a, name), getattr(b, name)) for name in ARRAYS)
        and len(a.blocks) == len(b.blocks)
        and all(np.array_equal(x, y) for x, y in zip(a.blocks, b.blocks))
        and np.array_equal(a.eigenvectors, b.eigenvectors)
    )


def _columns_in(unlabeled, labeled_spectrum):
    """Eigenpair of the unlabeled solve that each labeled eigenpair is, bitwise, or None."""
    order = []
    for e in labeled_spectrum.eigenvalues:
        matches = [j for j, f in enumerate(unlabeled.eigenvalues) if np.array_equal(e, f)]
        if len(matches) != 1:
            return None
        order.append(matches[0])
    return order


@pytest.mark.parametrize("n,m,g,p", [(3, 4, 0.7, 0.0), (3, 2, 1.0, 0.3), (3, 4, 0.7, 0.5)])
def test_labeled_columns_permute_the_solve(n, m, g, p):
    # labeling reorders the solve's eigenpairs and changes no bit of them
    unlabeled = joint_diagonalize(ModelParams(n, m, g, p))
    spectrum = continue_labels(label_spectrum(joint_diagonalize(ModelParams(n, m, g, 0.0))), unlabeled)
    order = _columns_in(unlabeled, spectrum)
    assert order is not None and sorted(order) == list(range(len(unlabeled)))
    assert np.array_equal(spectrum.eigenvalues, unlabeled.eigenvalues[order])
    assert np.array_equal(spectrum.eigenvectors, unlabeled.eigenvectors[:, order])
    assert np.array_equal(spectrum.norm_hat, unlabeled.norm_hat[order])
    assert np.array_equal(spectrum.residuals, unlabeled.residuals[order])


@pytest.mark.parametrize("p", [0.0, 0.5])
def test_labeling_and_continuation_leave_their_arguments_unchanged(p):
    params = ModelParams(3, 4, 0.7, p)
    solved, zero = joint_diagonalize(params), joint_diagonalize(replace(params, p=0.0))
    base = label_spectrum(zero)
    kept, kept_zero, kept_base = _copy(solved), _copy(zero), _copy(base)
    label_spectrum(zero)
    continue_labels(base, solved)
    assert _same_arrays(solved, kept)
    assert _same_arrays(zero, kept_zero)
    assert _same_arrays(base, kept_base)


def test_zero_nome_labels_are_a_permutation(labeled):
    for n, m, g in ((2, 2, 0.7), (3, 2, 1.0)):
        spectrum = labeled(n, m, g, 0.0)
        unlabeled = joint_diagonalize(ModelParams(n, m, g, 0.0))
        order = _columns_in(unlabeled, spectrum)
        assert order is not None and sorted(order) == list(range(len(spectrum)))


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
        np.linalg.norm(a - b)
        for i, a in enumerate(spectrum.eigenvalues)
        for b in spectrum.eigenvalues[i + 1 :]
    )
    assert min_eigenvalue_gap(spectrum) == pytest.approx(brute, rel=1e-14)
    assert min_eigenvalue_gap(spectrum) > 1e-6


def test_eigenvector_normalization(labeled):
    spectrum = labeled(2, 2, 0.7, 0.5)
    w = weight_vector(spectrum.basis, spectrum.params)
    for u, v, norm_hat in zip(operator_eigenvectors(spectrum).T, spectrum.eigenvectors.T, spectrum.norm_hat):
        assert np.sum(np.abs(v) ** 2) == pytest.approx(1.0, abs=1e-12)
        assert np.sum(np.abs(u) ** 2 * w) == pytest.approx(1.0, abs=1e-12)
        assert u[0].imag == pytest.approx(0.0, abs=1e-14)
        assert u[0].real > 0
        assert norm_hat == pytest.approx(float(u[0].real) ** 2, rel=1e-10)


def test_dual_weights_sum_to_one(labeled):
    for point in ((2, 2, 0.7, 0.5), (3, 2, 1.0, 0.3)):
        spectrum = labeled(*point)
        assert np.sum(spectrum.norm_hat) == pytest.approx(1.0, abs=1e-10)


def test_labels_constant_in_nome_for_two_state_model():
    spectra = sweep_spectra(ModelParams(1, 1, 1.0, 0.0), [0.1 * k for k in range(10)])
    for spectrum in spectra:
        assert spectrum.eigenvalues[spectrum.basis.order.index(()), 0] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n,m,g", [(2, 2, 0.7), (3, 2, 1.0)])
def test_sweep_smoothness(n, m, g):
    ps = [round(0.05 * k, 10) for k in range(19)]
    spectra = sweep_spectra(ModelParams(n, m, g, 0.0), ps)
    assert second_difference_residual(spectra) < 0.5


def test_continuation_agrees_with_direct_labeling(labeled):
    base = labeled(2, 2, 0.7, 0.0)
    target = joint_diagonalize(ModelParams(2, 2, 0.7, 0.5))
    carried = continue_labels(base, target)
    direct = labeled(2, 2, 0.7, 0.5)
    assert np.allclose(carried.eigenvalues, direct.eigenvalues, atol=1e-12)


def test_negative_nome_equals_positive():
    # only even nome powers enter the bracket, so the spectra coincide
    plus = sweep_spectra(ModelParams(2, 2, 0.7, 0.0), [0.5])[0]
    minus = sweep_spectra(ModelParams(2, 2, 0.7, 0.0), [-0.5])[0]
    assert np.allclose(plus.eigenvalues, minus.eigenvalues, atol=1e-13)


def test_single_datum_orthogonality_is_zero(labeled):
    spectrum = labeled(2, 2, 0.7, 0.5)
    single = spectral._permuted(spectrum, [0])
    assert single.eigenvectors.shape == (len(spectrum), 1)
    assert orthogonality_residual(single) == 0.0


def _same_match(block, dense):
    """Whether two overlap matches both passed and put the same eigenpairs in the same order."""
    if block is None or dense is None:
        return False
    return np.array_equal(block.sectors, dense.sectors) and np.array_equal(block.columns, dense.columns)


# the boxes of the acceptance suite and the benchmark's label ladder
TRANSFER_POINTS = [(2, 2, 0.7, 0.5), (3, 2, 1.0, 0.3), (2, 3, 1.7, 0.7)] + [
    (n, m, 0.9814989379240225, 0.3) for n, m in [(3, 4), (2, 8), (3, 5), (3, 6), (4, 5), (4, 6), (5, 5)]
]


@pytest.mark.parametrize("n,m,g,p", TRANSFER_POINTS)
def test_block_transfer_matches_the_dense_frames(labeled, n, m, g, p):
    base = labeled(n, m, g, 0.0)
    for step in (p, p / 2, -p):
        # the jump, a halved step, and a jump to the mirror nome
        candidate = joint_diagonalize(ModelParams(n, m, g, step))
        matched = spectral._transfer_labels(base, candidate)
        assert _same_match(matched, dense_transfer_labels(base, candidate))
        # from the labeled point on, as a halved step continues
        assert _same_match(spectral._transfer_labels(matched, base), dense_transfer_labels(matched, base))


def test_smoothness_statistic_flags_label_swaps():
    ps = [round(0.05 * k, 10) for k in range(19)]
    spectra = sweep_spectra(ModelParams(2, 2, 0.7, 0.0), ps)
    swapped = []
    for k, spectrum in enumerate(spectra):
        if k < 10:
            swapped.append(spectrum)
            continue
        order = np.arange(len(spectrum))
        i = spectrum.basis.order.index((2,))
        j = spectrum.basis.order.index((1, 1))
        order[i], order[j] = j, i
        swapped.append(replace(spectrum, eigenvalues=spectrum.eigenvalues[order]))
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


def _record_stacked(monkeypatch):
    """Nomes of each stacked pass through spectral._spectra."""
    solves = []
    stacked = spectral._spectra

    def recording(points, basis):
        solves.append([params.p for params in points])
        return stacked(points, basis)

    monkeypatch.setattr(spectral, "_spectra", recording)
    return solves


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
    assert np.array_equal(carried.eigenvalues, direct.eigenvalues)


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


# a sweep as the benchmark runs it: 13 nomes from 0 in steps of 0.05
SWEEP_NOMES = [round(0.05 * k, 10) for k in range(13)]


def test_a_sweep_solves_its_nomes_in_one_stacked_pass(monkeypatch):
    solves = _record_stacked(monkeypatch)
    nomes = _record_solves(monkeypatch)
    sweep_spectra(ModelParams(3, 4, 0.7, 0.0), SWEEP_NOMES)
    # one stacked solve of every nome, and no single-nome solve: p = 0 is labeled by the closed
    # form, and no continuation step is halved
    assert solves == [SWEEP_NOMES]
    assert nomes == []


@pytest.mark.parametrize("nomes", [[0.3], [-0.6, -0.3, 0.0, 0.3]])
def test_a_sweep_off_zero_solves_its_base_in_the_same_pass(monkeypatch, nomes):
    solves = _record_stacked(monkeypatch)
    single = _record_solves(monkeypatch)
    swept = sweep_spectra(ModelParams(3, 4, 0.7, 0.0), nomes)
    # p = 0 right after the first nome, and no single-nome solve
    assert solves == [nomes[:1] + [0.0] + nomes[1:]]
    assert single == []
    assert [s.params.p for s in swept] == nomes
    monkeypatch.undo()
    reference = sweep_nome_by_nome(ModelParams(3, 4, 0.7, 0.0), nomes)
    for spectrum, expected in zip(swept, reference):
        assert np.array_equal(spectrum.eigenvalues, expected.eigenvalues)


@pytest.mark.parametrize("kind", [TruncationViolationError, DegenerateSpectrumError])
@pytest.mark.parametrize("poisoned", [[0.3], [0.0], [0.0, 0.3]])
def test_a_sweep_off_zero_raises_its_first_nome_then_its_base(monkeypatch, kind, poisoned):
    params = ModelParams(3, 4, 0.7, 0.0)
    for p in poisoned:
        _poison(monkeypatch, p, kind)
    nomes = [0.3, 0.35, 0.4]
    failure = _failure(sweep_spectra, params, nomes)
    assert failure[0] is kind
    if kind is TruncationViolationError:
        assert failure[1] == f"poisoned at p = {max(poisoned)}"
    assert failure == _failure(sweep_nome_by_nome, params, nomes)


def test_label_spectrum_refuses_a_nonzero_nome(monkeypatch):
    params = ModelParams(3, 4, 0.9814989379240225, 0.3)
    target = joint_diagonalize(params)
    nomes = _record_solves(monkeypatch)
    with pytest.raises(ValueError, match="defined at p = 0"):
        label_spectrum(target)
    # a labeled point off p = 0 solves only its zero nome beside it, in the same pass
    solves = _record_stacked(monkeypatch)
    assert sweep_spectra(params, [0.3])[0].params.p == 0.3
    assert solves == [[0.3, 0.0]]
    assert nomes == []


@pytest.mark.parametrize("p", [0.3, 0.6, -0.6])
@pytest.mark.parametrize("n,m", [(3, 4), (2, 8), (4, 5)])
def test_one_jump_labels_equal_the_sweep_grid(n, m, p):
    g = 0.9814989379240225
    ps = [round(copysign(0.05 * k, p), 10) for k in range(round(abs(p) / 0.05) + 1)]
    swept = sweep_spectra(ModelParams(n, m, g, 0.0), ps)[-1]
    jumped = sweep_spectra(ModelParams(n, m, g, 0.0), [p])[0]
    assert swept.params.p == jumped.params.p == p
    # both label the same solve, so each label must carry the same eigenvalues
    assert np.array_equal(jumped.eigenvalues, swept.eigenvalues)


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
    assert np.max(spectrum.residuals) < 1e-9


def test_sweep_through_close_eigenvalues():
    ps = [round(-0.05 * k, 10) for k in range(13)]
    spectra = sweep_spectra(ModelParams(5, 4, 0.9927340406623589, 0.0), ps)
    assert [s.params.p for s in spectra] == ps
    for spectrum in spectra:
        assert np.max(spectrum.residuals) < 1e-9


@pytest.mark.parametrize("n,m,g", [(2, 3, 0.7), (3, 4, 0.7), (3, 6, 0.7), (5, 5, 1.18), (4, 8, 0.7)])
def test_macdonald_duality_at_zero_nome(labeled, n, m, g):
    """At p = 0 the normalized eigenfunction values F[mu, nu] = u_nu(mu) / u_nu(empty) are symmetric.

    This is the lattice form of the duality P~_lam(q^mu t^delta) = P~_mu(q^lam t^delta)
    (Macdonald, ch. VI, (6.6)).  It needs no oracle, so it also covers (3, 4)
    and (3, 6), where ``macdonald_coeffs`` meets an eigenvalue collision, and
    it checks eigenvectors and labels together: swapping two labels breaks it.
    """
    spectrum = labeled(n, m, g, 0.0)
    u = operator_eigenvectors(spectrum)
    values = u / u[0]
    assert np.max(np.abs(values - values.T)) / np.max(np.abs(values)) < 1e-9
    swapped = values[:, [0, 2, 1, *range(3, len(values))]]
    assert np.max(np.abs(swapped - swapped.T)) / np.max(np.abs(swapped)) > 0.5


@pytest.mark.parametrize("p", [0.5, 0.9, -0.9])
@pytest.mark.parametrize("n,m", [(2, 3), (2, 4), (3, 3), (4, 3)])
def test_unit_coupling_is_independent_of_the_nome(labeled, n, m, p):
    """At g = 1 the weight-conjugated operators, and so the labeled spectrum, do not depend on p.

    Write x_j = lam_j - j and let Delta(x) = prod_{j<k} [x_j - x_k] be the
    elliptic Vandermonde product.  At g = 1 the hop amplitude along a strip s
    is Delta(x + s) / Delta(x), and the factor of a pair in the weight is
    ([l + d] / [d])^2 with l = lam_j - lam_k, d = k - j, because the
    factorial ratio [d + 1]_l / [d]_l telescopes to [d + l] / [d]; so
    w(lam) = (Delta(x) / Delta(x(empty)))^2.  The entry of
    W^{1/2} D_r W^{-1/2} on a move s -> t is then
    (Delta(x_s) / Delta(x_t)) * (Delta(x_t) / Delta(x_s)) = 1: every
    difference x_j - x_k lies in (0, period), where the bracket is positive,
    and the reduction of a target shifts all x_j alike.  The weights cancel
    the Vandermonde ratio of each hop at every nome.
    """
    basis = enumerate_lattice(n, m)
    at_p, at_zero = ModelParams(n, m, 1.0, p), ModelParams(n, m, 1.0, 0.0)
    for r in range(1, n + 1):
        conjugated = [
            conjugate_by_weights(build_hop_operator(r, params, basis), weight_vector(basis, params))
            for params in (at_p, at_zero)
        ]
        assert np.max(np.abs(conjugated[0] - conjugated[1])) <= 1e-14 * np.max(np.abs(conjugated[1]))
    spectrum, trigonometric = labeled(n, m, 1.0, p), labeled(n, m, 1.0, 0.0)
    assert np.max(np.abs(spectrum.eigenvalues - trigonometric.eigenvalues)) < 1e-13


@pytest.mark.parametrize("seed", [1, 7, 2106])
@pytest.mark.parametrize("n,m,p", [(3, 4, 0.3), (5, 4, -0.6), (4, 5, 0.3)])
def test_any_combination_draw_gives_the_same_labeled_spectrum(monkeypatch, labeled, n, m, p, seed):
    """The joint spectrum is simple, so the draw of the separating combinations changes only rounding.

    (5, 4) has two real sectors, 0 and 3, where conjugate labels share an
    eigenvalue of the first combination and only the second one splits them.
    """
    g = 0.9814989379240225
    fixed = labeled(n, m, g, p)
    monkeypatch.setattr(spectral, "_COMBINATION_SEED", seed)
    other = sweep_spectra(ModelParams(n, m, g, 0.0), [p])[0]
    assert not np.array_equal(fixed.eigenvectors, other.eigenvectors)
    # label k is basis.order[k] in both, so equal sectors and close eigenvalues mean equal labels
    assert np.array_equal(fixed.sectors, other.sectors)
    scale = np.max(np.abs(fixed.eigenvalues))
    assert np.max(np.abs(fixed.eigenvalues - other.eigenvalues)) <= 1e-12 * scale
    # U / U[0]: the eigenfunctions normalized to 1 at the empty partition
    u, u_other = operator_eigenvectors(fixed), operator_eigenvectors(other)
    a, b = u / u[0], u_other / u_other[0]
    assert np.max(np.abs(a - b) / np.max(np.abs(a), axis=0)) <= 1e-10
    assert max(np.max(fixed.residuals), np.max(other.residuals)) < 1e-9


def _failure(sweep, params, p_values):
    """The class and message a sweep raises, or None."""
    try:
        sweep(params, p_values)
    except Exception as error:  # the comparison is the point: any class must match
        return type(error), str(error)
    return None


@pytest.mark.parametrize("scale", [1.3, 1.7])
@pytest.mark.parametrize("n,m", [(1, 1), (1, 8), (2, 2), (2, 3), (3, 2), (3, 4), (5, 4)])
def test_off_regime_sweep_fails_as_nome_by_nome(n, m, scale):
    # with alpha scaled by 1.3 the sweeps fail the residual tolerance, the closed-form match or
    # the sign of a move's amplitudes; by 1.7, the sign at every box
    params = off_regime(n, m, 0.7, 0.0, scale)
    failure = _failure(sweep_spectra, params, SWEEP_NOMES)
    messages = {
        DegenerateSpectrumError: r"\d+ eigenvectors exceed the residual tolerance 1e-09",
        LabelingError: r"no closed-form match within 1e-06 for eigenvalue vector .* \(best gap .*\)",
        TruncationViolationError: r"amplitudes of \(.*\) -> \(.*\) \(order 1\) and back differ in sign: \S+, \S+",
    }
    assert re.fullmatch(messages[failure[0]], failure[1])
    assert failure == _failure(sweep_nome_by_nome, params, SWEEP_NOMES)


def _poison(monkeypatch, p, kind):
    """Make the solve at nome p fail: a sign error from the amplitudes, or M_r values without the rotation symmetry."""
    exact = spectral.symmetric_hop_values

    def poisoned(basis, points, rows):
        # the row of nome p in the stacked hop values
        values, errors = exact(basis, points, rows)
        for i, params in enumerate(points):
            if params.p != p or errors[i] is not None:
                continue
            if kind is TruncationViolationError:
                errors[i] = TruncationViolationError(f"poisoned at p = {p}")
            else:
                values[i] *= 1 + np.arange(values.shape[1]) / values.shape[1]
        return values, errors

    monkeypatch.setattr(spectral, "symmetric_hop_values", poisoned)


@pytest.mark.parametrize("kind", [TruncationViolationError, DegenerateSpectrumError])
def test_a_failed_nome_raises_when_the_sweep_reaches_it(monkeypatch, kind):
    params = ModelParams(3, 4, 0.7, 0.0)
    _poison(monkeypatch, 0.3, kind)
    labeled = []
    transfer = spectral._transfer_labels

    def recording(previous, candidate):
        labeled.append(candidate.params.p)
        return transfer(previous, candidate)

    monkeypatch.setattr(spectral, "_transfer_labels", recording)
    failure = _failure(sweep_spectra, params, SWEEP_NOMES)
    message = "poisoned at p = 0.3" if kind is TruncationViolationError else r"\d+ eigenvectors exceed .*"
    assert failure[0] is kind and re.fullmatch(message, failure[1])
    # every nome before the failed one was labeled first
    assert labeled == SWEEP_NOMES[1:6]
    assert failure == _failure(sweep_nome_by_nome, params, SWEEP_NOMES)


@pytest.mark.parametrize("kind", [TruncationViolationError, DegenerateSpectrumError])
def test_an_earlier_refusal_wins_over_a_later_failed_nome(monkeypatch, kind):
    params = ModelParams(3, 4, 0.7, 0.0)
    _poison(monkeypatch, 0.3, kind)
    _refuse_matches(monkeypatch, 10**6)
    failure = _failure(sweep_spectra, params, SWEEP_NOMES)
    assert failure[0] is ContinuationError and "persisted below the smallest step" in failure[1]
    assert failure == _failure(sweep_nome_by_nome, params, SWEEP_NOMES)


def test_a_refused_nome_raises_when_the_sweep_reaches_it(monkeypatch):
    params = ModelParams(2, 2, 0.7, 0.0)
    nomes = [0.0, 0.5, 1.5]
    failure = _failure(sweep_spectra, params, nomes)
    assert failure == (ValueError, "|p| = 1.5 is not within the supported cap 0.99")
    assert failure == _failure(sweep_nome_by_nome, params, nomes)
    # a continuation that fails before the refused nome comes first
    _refuse_matches(monkeypatch, 10**6)
    failure = _failure(sweep_spectra, params, nomes)
    assert failure[0] is ContinuationError and failure == _failure(sweep_nome_by_nome, params, nomes)


def test_a_sweep_with_no_nome_to_solve_stacks_none():
    # the stacked hop values and solve take an empty list of points
    params = ModelParams(2, 2, 0.7, 0.0)
    assert sweep_spectra(params, []) == []
    failure = _failure(sweep_spectra, params, [1.5, 0.3])
    assert failure == (ValueError, "|p| = 1.5 is not within the supported cap 0.99")
