"""The verification suite shares one set of per-point quantities among its checks."""

import math

from rlatt import report, spectral
from rlatt.coeffs import ModelParams
from rlatt.report import CHECK_NAMES, run_verification

HOP = "hop denominator vanished at pair (1,2) for lam=()"
WEIGHT = "weight denominator vanished at pair (1,2) for lam=()"
PIERI = "Pieri denominator vanished at pair (1,2) for lam=(1,)"


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
    failed_hop = (False, None, HOP)
    failed_weight = (False, None, WEIGHT)
    assert _errors(1, 1) == {
        # n = 1 has no pair of operators to commute
        "commutators": (True, 0.0, None),
        "adjointness": failed_hop,
        "truncation-dichotomy": failed_hop,
        "weight-recurrence": failed_hop,
        "psi-consistency": failed_hop,
        "orthogonality": failed_weight,
        "pieri": failed_weight,
        "dual-orthogonality": failed_weight,
        "reconstruction": failed_weight,
        "trig-comparison": failed_weight,
        "appendix-crosscheck": failed_hop,
    }


def test_shared_data_fails_every_check_at_two_parts():
    expected = dict.fromkeys(CHECK_NAMES, HOP)
    expected.update({"orthogonality": WEIGHT, "trig-comparison": WEIGHT})
    expected.update(dict.fromkeys(("pieri", "dual-orthogonality", "reconstruction"), PIERI))
    assert _errors(2, 2) == {name: (False, None, error) for name, error in expected.items()}
