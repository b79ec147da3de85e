"""The verification suite shares one set of per-point quantities among its checks."""

import math

import numpy as np

from rlatt import report, spectral
from rlatt.coeffs import ModelParams
from rlatt.report import CHECK_NAMES, run_verification

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
    # (3, 2) has three pairs of operators
    residuals = iter([1e-16, NAN, 1e-16])
    monkeypatch.setattr(report, "commutator_residual", lambda a, b: next(residuals))
    assert _failed_checks(ModelParams(3, 2, 0.7, 0.3)) == {"commutators"}


def test_nan_adjoint_residual_fails(monkeypatch):
    # (3, 2) pairs D_1 with D_3, D_2 with itself and D_3 with D_1
    residuals = iter([1e-16, NAN, 1e-16])
    monkeypatch.setattr(report, "transpose_residual", lambda a, b, weights: next(residuals))
    assert _failed_checks(ModelParams(3, 2, 0.7, 0.3)) == {"adjointness"}


def test_perturbed_hop_entry_fails_adjointness(monkeypatch):
    exact = report.build_hop_operator

    def perturbed(r, params, basis):
        mat = exact(r, params, basis)
        if r == params.n:
            moves = basis.move_arrays[r]
            s, t = next((s, t) for s, t in zip(moves.source, moves.target) if t >= 0)
            mat[s, t] *= 1.0 + 1e-6
        return mat

    monkeypatch.setattr(report, "build_hop_operator", perturbed)
    (check,) = [c for c in run_verification(ModelParams(3, 2, 0.7, 0.3)).checks if c.name == "adjointness"]
    assert not check.passed
    assert math.isfinite(check.residual) and check.residual >= check.tolerance


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
