"""The verification suite shares one set of per-point quantities among its checks."""

import math
from itertools import combinations

import numpy as np
import pytest

from rlatt import report, spectral
from rlatt.coeffs import ModelParams, box_pieri_coefficients, norm_vector, weight_vector
from rlatt.operators import build_hop_operator, paired_moves
from rlatt.partitions import enumerate_lattice
from rlatt.report import CHECK_NAMES, run_verification
from scalar_reference import dense_operator_checks, off_regime

HOP = "hop denominator vanished at pair (1,2) for lam=()"
PIERI = "Pieri denominator vanished at pair (1,2) for lam=(1,)"
NAN = float("nan")


def test_verification_solves_zero_nome_once(monkeypatch):
    nomes = []
    exact = spectral.joint_diagonalize

    def counted(params, *args, **kwargs):
        nomes.append(params.p)
        return exact(params, *args, **kwargs)

    monkeypatch.setattr(spectral, "joint_diagonalize", counted)
    monkeypatch.setattr(report, "joint_diagonalize", counted)
    assert run_verification(ModelParams(2, 2, 0.7, 0.3)).passed
    assert nomes.count(0.0) == 1
    assert nomes.count(0.3) == 1


def test_verification_builds_one_value_table(monkeypatch):
    calls = []
    exact = report.value_table

    def counted(*args):
        calls.append(args)
        return exact(*args)

    monkeypatch.setattr(report, "value_table", counted)
    assert run_verification(ModelParams(2, 3, 0.7, 0.3)).passed
    assert len(calls) == 1


def _errors(n, m):
    # at alpha = 2*pi and g = 1 every bracket argument in the box is an integer, a zero of the bracket
    checks = run_verification(ModelParams(n, m, 1.0, 0.0, alpha_override=2 * math.pi)).checks
    assert [c.name for c in checks] == CHECK_NAMES
    return {c.name: (c.passed, c.residual, c.error) for c in checks}


def test_shared_data_fails_each_check_with_its_own_error_at_one_part():
    # the spectrum-fed checks meet the hop error through the solve, which reads no weight
    assert _errors(1, 1) == {
        # n = 1 has no pair of operators to commute
        "commutators": (True, 0.0, None),
        **{name: (False, None, HOP) for name in CHECK_NAMES[1:]},
    }


def test_shared_data_fails_every_check_at_two_parts():
    expected = dict.fromkeys(CHECK_NAMES, HOP)
    expected.update(dict.fromkeys(("pieri", "dual-orthogonality", "reconstruction"), PIERI))
    assert _errors(2, 2) == {name: (False, None, error) for name, error in expected.items()}


def _failed_checks(params):
    return {c.name for c in run_verification(params).checks if not c.passed}


# a NaN residual after a finite one fails its check: the builtin max would drop it


def test_nan_commutator_residual_fails(monkeypatch):
    # (3, 2) has three pairs of operators, two products each: a NaN product makes the second residual NaN
    exact, calls = report._product, []

    def poisoned(first, second, size):
        calls.append(size)
        return exact(first, second, size) * (NAN if len(calls) == 3 else 1.0)

    monkeypatch.setattr(report, "_product", poisoned)
    assert _failed_checks(ModelParams(3, 2, 0.7, 0.3)) == {"commutators"}


def _scale_amplitude(monkeypatch, order, side, factor):
    """Scale, on the first move s -> t of D_order, D_order[s, t] (side 0) or D_{n+1-order}[t, s] (side 1)."""
    exact, calls = report.paired_moves, []

    def scaled(basis, params, hops):
        moves = exact(basis, params, hops)
        calls.append(hops)
        # run_verification pairs the moves of the orders 1..n in turn
        if len(calls) == order:
            moves[2 + side][0] *= factor
        return moves

    monkeypatch.setattr(report, "paired_moves", scaled)


def test_nan_adjoint_residual_fails(monkeypatch):
    # (3, 2) pairs D_1 with D_3, D_2 with itself and D_3 with D_1: a NaN on the reverse of an
    # order-2 move makes the second of the three residuals NaN, and that of the weight recurrence
    _scale_amplitude(monkeypatch, 2, 1, NAN)
    assert _failed_checks(ModelParams(3, 2, 0.7, 0.3)) == {"adjointness", "weight-recurrence"}


def test_perturbed_hop_entry_fails_adjointness(monkeypatch):
    # a relative error of 1e-6 on one amplitude of D_n fails each check that reads it; n = 1 has no
    # pair of operators to commute
    for n, m in ((3, 2), (2, 5), (1, 4)):
        with monkeypatch.context() as patch:
            _scale_amplitude(patch, n, 0, 1.0 + 1e-6)
            checks = {c.name: c for c in run_verification(ModelParams(n, m, 0.7, 0.3)).checks}
        expected = {"adjointness", "weight-recurrence", "psi-consistency"} | ({"commutators"} if n > 1 else set())
        assert {name for name, c in checks.items() if not c.passed} == expected
        for name in expected:
            assert math.isfinite(checks[name].residual) and checks[name].residual >= checks[name].tolerance


# the 11 boxes of the verify benchmark at their nomes, and one box per n = 1..6
EQUIVALENCE_POINTS = [
    (1, 8, 0.6), (2, 2, 0.3), (3, 2, -0.2), (2, 3, 0.5), (4, 1, -0.45), (3, 3, 0.4), (2, 5, -0.4), (2, 6, 0.6),
    (2, 9, -0.3), (4, 2, 0.2), (3, 4, 0.3),
    (1, 12, 0.3), (2, 8, -0.5), (3, 6, 0.3), (4, 8, 0.3), (5, 5, -0.3), (6, 3, 0.3),
]


@pytest.mark.parametrize("n,m,p", EQUIVALENCE_POINTS)
def test_operator_checks_match_the_dense_matrices(n, m, p):
    basis = enumerate_lattice(n, m)
    for g in (0.7, 1.3):
        params = ModelParams(n, m, g, p)
        moves = [paired_moves(basis, params, basis.hop_table(r)) for r in range(1, n + 1)]
        weights = weight_vector(basis, params)
        pieri = [box_pieri_coefficients(basis, r, params) for r in range(1, n + 1)]
        dense = dense_operator_checks(params, basis)
        assert report.check_weight_recurrence(moves, weights) == dense["weight-recurrence"]
        assert report.check_psi_consistency(moves, norm_vector(basis, params), pieri) == dense["psi-consistency"]
        assert report.check_commutators(basis, lambda: moves) == pytest.approx(dense["commutators"], rel=0, abs=1e-15)
        assert report.check_adjointness(moves, weights) == pytest.approx(dense["adjointness"], rel=0, abs=1e-15)
        # the commutator residuals are rounding, so compare each product D_r D_s that they are made of
        hops = [build_hop_operator(r, params, basis) for r in range(1, n + 1)]
        for r, s in combinations(range(n), 2):
            product = (hops[r] @ hops[s]).ravel()
            assert np.max(np.abs(report._product(moves[r], moves[s], len(basis)) - product)) <= 1e-15 * np.max(product)


def test_nan_pieri_coefficient_fails_its_checks(monkeypatch):
    exact = report.box_pieri_coefficients

    def poisoned(basis, r, params):
        source, target, psi = exact(basis, r, params)
        return source, target, np.where(np.arange(len(psi)) == len(psi) - 1, NAN, psi) if r == 2 else psi

    monkeypatch.setattr(report, "box_pieri_coefficients", poisoned)
    assert _failed_checks(ModelParams(3, 2, 0.7, 0.3)) == {"pieri", "psi-consistency"}


def test_nan_amplitude_off_the_box_fails_the_dichotomy(monkeypatch):
    exact = report.hop_amplitudes

    def poisoned(basis, moves, params):
        amplitudes = exact(basis, moves, params)
        # NaN on the size-2 moves off the box, after the size-1 ones with finite amplitudes
        return np.where(moves.target < 0, NAN, amplitudes) if moves.strip[0].sum() == 2 else amplitudes

    monkeypatch.setattr(report, "hop_amplitudes", poisoned)
    assert _failed_checks(ModelParams(2, 2, 0.7, 0.3)) == {"truncation-dichotomy"}


@pytest.mark.parametrize(
    "params",
    [
        ModelParams(2, 3, 0.7, 0.3),
        ModelParams(2, 2, 1.0, 0.0, alpha_override=2 * math.pi),
        off_regime(3, 3, 0.7, 0.3, 1.3),
    ],
    ids=["passing", "errors", "alpha-scale-1.3"],
)
def test_verification_record_holds_builtins(params):
    # as_dict copies the records as they are, so no numpy scalar may reach the JSON; a numpy
    # float is a float subclass, hence the exact types
    result = run_verification(params)
    for check in result.checks:
        for name, value in vars(check).items():
            if name == "detail":
                assert all(type(v) is float for v in value.values()), (check.name, value)
            else:
                assert value is None or type(value) in (float, bool, str), (check.name, name, value)
    # the passing point records the dichotomy's detail, each failing one an error
    assert any(c.detail if result.passed else c.error for c in result.checks)
