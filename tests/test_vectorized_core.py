"""The array evaluations of one parameter point against their scalar references.

``bracket_array``, ``hop_amplitudes``, ``box_pieri_coefficients``,
``weight_vector`` and ``norm_vector`` compute over a whole box what
``bracket``, ``hop_coefficient``, ``pieri_coefficient``, ``lattice_weight``
and ``norm_constant`` compute one argument at a time, with the same factors
in the same order.  They differ from the scalar values by at most the
last-bit differences between numpy's and the math module's sine and cosine,
and they keep every guard of the scalar functions.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from rlatt import report, spectral
from rlatt.coeffs import (
    ModelParams,
    _pair_range,
    _rising_products,
    box_pieri_coefficients,
    hop_amplitudes,
    hop_coefficient,
    norm_vector,
    pieri_coefficient,
    weight_vector,
)
from rlatt.elliptic import ThetaEvaluator
from rlatt.errors import LabelingError, TruncationViolationError
from rlatt.operators import build_hop_operator, symmetric_hop_operator
from rlatt.partitions import add_strip, enumerate_lattice, vertical_strips
from rlatt.report import CHECK_NAMES, run_verification
from rlatt.spectral import joint_diagonalize
from scalar_reference import lattice_weight, memoized, norm_constant, off_regime, positions, reduce_partition

BOXES = [(1, 1), (2, 3), (3, 4), (4, 2)]
NOMES = [0.0, 0.3, -0.6, 0.9]
G = 0.7
POINTS = [(n, m, p) for n, m in BOXES for p in NOMES]


@pytest.mark.parametrize("n,m,p", POINTS)
def test_bracket_array_matches_scalar(n, m, p):
    th = ModelParams(n, m, G, p).theta
    rng = np.random.default_rng(7)
    # random arguments, the zeros of the bracket, points just off them, and
    # the midpoints between them
    z = np.concatenate(
        [
            rng.uniform(-3 * th.period, 3 * th.period, 200),
            th.period * np.arange(-3, 4),
            th.period * (np.arange(-3, 3) + 0.5),
            th.period * np.arange(-3, 4) + 1e-13,
        ]
    )
    np.testing.assert_allclose(th.bracket_array(z), [th.bracket(x) for x in z], rtol=1e-14, atol=0)
    assert th.is_zero_array(z).tolist() == [th.is_zero_argument(x) for x in z]
    assert th.bracket_array(z.reshape(2, -1)).shape == (2, len(z) // 2)


@pytest.mark.parametrize("n,m,p", POINTS + [(5, 4, 0.99), (2, 9, -0.6)])
def test_one_bracket_call_gives_both_tables(monkeypatch, n, m, p):
    """``ModelParams.brackets`` evaluates one table, [l + e g], in one call; both elliptic factorial tables are
    running products of its rows, bit for bit."""
    params = ModelParams(n, m, G, p)
    th = params.theta
    shifted = th.bracket_array(np.arange(m + 1) + G * np.arange(n + 2)[:, None])
    calls = []
    evaluate = ThetaEvaluator.bracket_array

    def counted(self, z):
        calls.append(np.shape(z))
        return evaluate(self, z)

    monkeypatch.setattr(ThetaEvaluator, "bracket_array", counted)
    table = params.brackets
    assert calls == [(n + 2, m + 1)]
    assert np.array_equal(table.shifted, shifted)
    # the elliptic factorials overflow at (5, 4, 0.99), as in the table
    with np.errstate(over="ignore"):
        assert np.array_equal(table.rising, _rising_products(shifted[:, :-1]))
        # [1 + e g]...[l + e g], multiplied in that order
        running = [np.ones(n + 2)]
        for column in shifted[:, 1:].T:
            running.append(running[-1] * column)
        assert np.array_equal(table.rising_low, np.transpose(running))


@pytest.mark.parametrize("n,m", BOXES + [(5, 4)])
def test_pair_table_is_built_once_per_box(n, m):
    basis = enumerate_lattice(n, m)
    j, k, dist, diffs = basis.pairs
    assert basis.pairs is basis.pairs
    assert list(zip(j.tolist(), k.tolist())) == list(_pair_range(n + 1))
    assert np.array_equal(dist, k - j)
    assert diffs.tolist() == [[lam[a] - lam[b] for a, b in zip(j, k)] for lam in basis.parts.tolist()]


@pytest.mark.parametrize("n,m,p", POINTS)
def test_hop_amplitudes_match_every_move(n, m, p):
    params = memoized(ModelParams(n, m, G, p))
    basis = enumerate_lattice(n, m)
    for r in range(1, n + 2):
        moves = basis.move_arrays[r]
        amplitudes = hop_amplitudes(basis, moves, params)
        scalar = np.array(
            [hop_coefficient(basis.order[i], tuple(strip), params) for i, strip in zip(moves.source, moves.strip)]
        )
        np.testing.assert_allclose(amplitudes, scalar, rtol=1e-14, atol=0)
        assert np.all(amplitudes[moves.target < 0] == 0.0)
        assert np.all((amplitudes == 0.0) == (scalar == 0.0))


def _scalar_pieri_moves(basis, r, params):
    """(source, target, pieri_coefficient) of every size-r move that stays on the box, from the scalar functions."""
    index = positions(basis)
    for i, lam in enumerate(basis.order):
        for strip in vertical_strips(r, basis.n):
            mu, dominant = add_strip(lam, strip)
            target = index.get(reduce_partition(mu, basis.n), -1) if dominant else -1
            if target >= 0:
                yield i, target, pieri_coefficient(lam, strip, params)


@pytest.mark.parametrize("n,m,g", [(1, 8, 0.7), (3, 4, 0.9814989379240225), (5, 5, 1.18), (4, 8, 0.7), (2, 9, 1.6)])
def test_box_pieri_coefficients_match_the_scalar_form(n, m, g):
    params = memoized(ModelParams(n, m, g, 0.3))
    basis = enumerate_lattice(n, m)
    for r in range(1, n + 1):
        source, target, psi = box_pieri_coefficients(basis, r, params)
        scalar_source, scalar_target, scalar = map(np.array, zip(*_scalar_pieri_moves(basis, r, params)))
        assert source.tolist() == scalar_source.tolist()
        assert target.tolist() == scalar_target.tolist()
        assert np.all((psi == 0.0) == (scalar == 0.0))
        np.testing.assert_allclose(psi, scalar, rtol=1e-14, atol=0)


def test_box_pieri_coefficients_raise_the_first_scalar_error():
    # at period 2 and g = 1 the denominator [lam_12 + g] = [2] of the move (1) -> (1, 1) vanishes
    params = ModelParams(1, 2, 1.0, 0.0, alpha_override=math.pi)
    basis = enumerate_lattice(1, 2)
    with pytest.raises(TruncationViolationError) as scalar:
        list(_scalar_pieri_moves(basis, 1, params))
    with pytest.raises(TruncationViolationError) as array:
        box_pieri_coefficients(basis, 1, params)
    assert str(array.value) == str(scalar.value)


@pytest.mark.parametrize("n,m", BOXES)
def test_move_arrays_follow_the_move_table(n, m):
    # every row of the array table is one dominant strip addition, reduced by
    # the scalar functions to the row's target (-1 when it leaves the box)
    basis = enumerate_lattice(n, m)
    index = positions(basis)
    for r in range(1, n + 2):
        arrays = basis.move_arrays[r]
        assert np.all(np.diff(arrays.source) >= 0)
        assert np.all(arrays.strip.sum(axis=1) == r)
        for i, strip, target in zip(arrays.source.tolist(), map(tuple, arrays.strip.tolist()), arrays.target.tolist()):
            mu, dominant = add_strip(basis.order[i], strip)
            assert dominant
            assert target == index.get(reduce_partition(mu, n), -1)
        per_source = [sum(add_strip(lam, s)[1] for s in vertical_strips(r, n)) for lam in basis.order]
        assert np.bincount(arrays.source, minlength=len(basis)).tolist() == per_source
    assert [tuple(row) for row in basis.parts.tolist()] == [lam + (0,) * (n + 1 - len(lam)) for lam in basis.order]


@pytest.mark.parametrize("n,m,p", POINTS)
def test_weight_and_norm_vectors_match_scalar(n, m, p):
    params = memoized(ModelParams(n, m, G, p))
    basis = enumerate_lattice(n, m)
    np.testing.assert_allclose(
        weight_vector(basis, params), [lattice_weight(lam, params) for lam in basis.order], rtol=1e-13, atol=0
    )
    np.testing.assert_allclose(
        norm_vector(basis, params), [norm_constant(mu, params) for mu in basis.order], rtol=1e-13, atol=0
    )


@pytest.mark.parametrize("n,m,p", POINTS)
def test_spectral_radius_is_the_two_norm(n, m, p):
    # joint_diagonalize scales residuals by max_k |e_rk|; M_r is normal, so
    # that is its 2-norm
    params = ModelParams(n, m, G, p)
    spectrum = joint_diagonalize(params)
    for r in range(1, n + 1):
        mat = symmetric_hop_operator(r, params, spectrum.basis)
        radius = np.max(np.abs(spectrum.eigenvalues[:, r - 1]))
        assert radius == pytest.approx(np.linalg.norm(mat, 2), rel=1e-12)


def _first_scalar_error(func, basis, params) -> str:
    """Message of the scalar guard at the first failing basis point, in basis order."""
    for lam in basis.order:
        try:
            func(lam, params)
        except TruncationViolationError as exc:
            return str(exc)
    raise AssertionError("no basis point fails")


def test_array_paths_raise_off_the_locked_scaling():
    # the point of test_broken_alpha_raises_truncation_violation: period = g
    # makes the first denominator bracket vanish
    params = ModelParams(1, 1, 1.0, 0.0, alpha_override=2 * math.pi)
    basis = enumerate_lattice(1, 1)
    with pytest.raises(TruncationViolationError) as info:
        build_hop_operator(1, params, basis)
    assert str(info.value) == _first_scalar_error(lambda lam, par: hop_coefficient(lam, (1, 0), par), basis, params)
    with pytest.raises(TruncationViolationError) as info:
        weight_vector(basis, params)
    assert str(info.value) == _first_scalar_error(lattice_weight, basis, params)


@pytest.mark.parametrize("g", [0.3, 1.0])
def test_weight_vector_names_the_first_overflowing_weight(g):
    params = ModelParams(3, 4, g, 0.99)
    basis = enumerate_lattice(3, 4)
    with pytest.raises(TruncationViolationError) as info:
        weight_vector(basis, params)
    assert str(info.value) == _first_scalar_error(lattice_weight, basis, params)
    # inf / inf of overflowed bracket products, not a sign off the regime
    assert str(info.value).endswith("is nan, not finite: the bracket products overflow double precision")
    with pytest.raises(TruncationViolationError) as info:
        norm_vector(basis, params)
    assert str(info.value) == _first_scalar_error(norm_constant, basis, params)


def test_weight_vector_tells_a_negative_weight_from_an_overflow():
    # alpha three times its locked value: the weights are finite, and (1,) has the wrong sign
    params, basis = off_regime(3, 3, 0.3, 0.99, 3.0), enumerate_lattice(3, 3)
    with pytest.raises(TruncationViolationError) as info:
        weight_vector(basis, params)
    assert str(info.value) == _first_scalar_error(lattice_weight, basis, params)
    assert str(info.value).startswith("weight of lam=(1,) is -")
    assert str(info.value).endswith("not finite and positive: off the truncation regime")


def test_closed_form_labels_reject_colliding_targets(monkeypatch):
    spectrum = joint_diagonalize(ModelParams(2, 2, G, 0.0))
    monkeypatch.setattr(spectral, "trig_joint_eigenvalues", lambda basis, params: np.ones((len(basis), 2), complex))
    with pytest.raises(LabelingError, match="ambiguous"):
        spectral.label_spectrum(spectrum)


def test_closed_form_labels_reject_a_missed_match(monkeypatch):
    spectrum = joint_diagonalize(ModelParams(2, 2, G, 0.0))
    exact = spectral.trig_joint_eigenvalues
    monkeypatch.setattr(spectral, "trig_joint_eigenvalues", lambda basis, params: exact(basis, params) + 1e-3)
    with pytest.raises(LabelingError, match="no closed-form match"):
        spectral.label_spectrum(spectrum)


def test_closed_form_labels_reject_two_vectors_on_one_target():
    spectrum = joint_diagonalize(ModelParams(2, 2, G, 0.0))
    first, second = np.flatnonzero(spectrum.sectors == 1)[:2]
    eigenvalues = spectrum.eigenvalues.copy()
    eigenvalues[second] = eigenvalues[first]
    with pytest.raises(LabelingError, match="no closed-form match .* shared with another vector"):
        spectral.label_spectrum(replace(spectrum, eigenvalues=eigenvalues))


def test_linalg_error_fails_its_check_only(monkeypatch):
    def broken(basis, moves):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(report, "check_commutators", broken)
    result = run_verification(ModelParams(2, 2, G, 0.3))
    assert [c.name for c in result.checks] == CHECK_NAMES
    failed = [c for c in result.checks if not c.passed]
    assert [c.name for c in failed] == ["commutators"]
    assert failed[0].error == "SVD did not converge"
    assert failed[0].residual is None


def test_other_errors_still_propagate(monkeypatch):
    def broken(basis, moves):
        raise ValueError("a bug, not a failed check")

    monkeypatch.setattr(report, "check_commutators", broken)
    with pytest.raises(ValueError):
        run_verification(ModelParams(2, 2, G, 0.3))


def test_verification_enumerates_its_box_once(monkeypatch):
    def no_enumeration(n, m):
        raise AssertionError("run_verification enumerated a box a second time")

    monkeypatch.setattr(spectral, "enumerate_lattice", no_enumeration)
    assert run_verification(ModelParams(2, 2, G, 0.3)).passed
