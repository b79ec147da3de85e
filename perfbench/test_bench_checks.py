"""A corrupted CLI output fails each benchmark check; a real one passes them all.

The run_pass tests feed canned outputs and exit codes through a stub CLI: a
failed operation is an error unless it is the known (3, 4) verify failure
with its own report.

Run with `python3 -m pytest perfbench` from the root of the repository.
"""

import copy
import json
import math
import sys
from pathlib import Path

import pytest

import checks
import run
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from rlatt.cli import main  # noqa: E402

N, M, G = 2, 2, 0.8
SWEEP_P = [0.0, 0.05, 0.1]


def _run(tmp_path_factory, argv):
    out = tmp_path_factory.mktemp("out") / "out.json"
    assert main(argv + ["--out", str(out)]) == 0
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    argv = ["spectrum", "--n", str(N), "--m", str(M), "--g", repr(G),
            "--p-start", "0", "--p-stop", "0.1", "--p-step", "0.05"]
    return _run(tmp_path_factory, argv)


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    return _run(tmp_path_factory, ["verify", "--n", str(N), "--m", str(M), "--g", repr(G), "--p", "0.3"])


@pytest.fixture(scope="module")
def known_failure(tmp_path_factory):
    out = tmp_path_factory.mktemp("out") / "out.json"
    argv = ["verify", "--n", "3", "--m", "4", "--g", repr(G), "--p", "0.3", "--out", str(out)]
    assert main(argv) == 1
    return json.loads(out.read_text())


def _records(payload, point=0):
    return payload["points"][point]["records"]


def _shift(record, r, delta):
    re, im = record["e"][r]
    record["e"][r] = [re + delta.real, im + delta.imag]


def test_real_outputs_pass(sweep, report):
    checks.check_spectrum(sweep, N, M, G, SWEEP_P)
    checks.check_verify(report, N, M, G, 0.3)


@pytest.mark.parametrize("n, m", [(1, 1), (2, 2), (3, 4), (4, 5), (5, 5)])
def test_box_partitions_count(n, m):
    assert len(checks.box_partitions(n, m)) == math.comb(n + m, n)


def test_duplicate_label_fails(sweep):
    bad = copy.deepcopy(sweep)
    _records(bad)[1]["nu"] = _records(bad)[0]["nu"]
    with pytest.raises(checks.CheckFailure):
        checks.check_labels(N, M, _records(bad))


def test_label_outside_box_fails(sweep):
    bad = copy.deepcopy(sweep)
    _records(bad)[-1]["nu"] = [M + 1]
    with pytest.raises(checks.CheckFailure):
        checks.check_labels(N, M, _records(bad))


def test_nonzero_trace_fails(sweep):
    bad = copy.deepcopy(sweep)
    record = _records(bad, 1)[0]
    _shift(record, 0, 1e-3 + 2e-3j)
    _shift(record, N - 1, 1e-3 - 2e-3j)  # keeps e_n = conj(e_1)
    checks.check_pairing(N, _records(bad, 1))
    with pytest.raises(checks.CheckFailure):
        checks.check_trace(N, _records(bad, 1))


def test_broken_pairing_fails(sweep):
    bad = copy.deepcopy(sweep)
    first, second = _records(bad, 1)[:2]
    _shift(first, N - 1, 1e-3j)
    _shift(second, N - 1, -1e-3j)  # keeps the sum of e_n
    checks.check_trace(N, _records(bad, 1))
    with pytest.raises(checks.CheckFailure):
        checks.check_pairing(N, _records(bad, 1))


def test_closed_form_mismatch_fails(sweep):
    bad = copy.deepcopy(sweep)
    first, second = _records(bad)[1:3]
    first["e"], second["e"] = second["e"], first["e"]
    checks.check_trace(N, _records(bad))
    checks.check_pairing(N, _records(bad))
    with pytest.raises(checks.CheckFailure):
        checks.check_closed_form(N, M, G, _records(bad))


def test_large_residual_fails(sweep):
    bad = copy.deepcopy(sweep)
    _records(bad, 2)[3]["residual"] = 1e-6
    with pytest.raises(checks.CheckFailure):
        checks.check_residuals(_records(bad, 2))


def test_missing_point_fails(sweep):
    bad = copy.deepcopy(sweep)
    del bad["points"][-1]
    with pytest.raises(checks.CheckFailure):
        checks.check_spectrum(bad, N, M, G, SWEEP_P)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda rep: rep["checks"].pop(4),
        lambda rep: rep["checks"][2].update(passed=False),
        lambda rep: rep["checks"][7].update(residual=float("nan")),
        lambda rep: rep["checks"][9].update(residual=None),
        lambda rep: rep.update(passed=False),
    ],
    ids=["missing-check", "failed-check", "nan-residual", "no-residual", "report-verdict"],
)
def test_corrupted_report_fails(report, corrupt):
    bad = copy.deepcopy(report)
    corrupt(bad)
    with pytest.raises(checks.CheckFailure):
        checks.check_verify(bad, N, M, G, 0.3)


def _check(rep, name):
    (found,) = [c for c in rep["checks"] if c["name"] == name]
    return found


def test_real_known_failure_passes(known_failure):
    checks.check_known_failure(known_failure, 3, 4, G, 0.3)
    with pytest.raises(checks.CheckFailure):
        checks.check_verify(known_failure, 3, 4, G, 0.3)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda rep: _check(rep, "pieri").update(passed=False),
        lambda rep: _check(rep, "orthogonality").update(residual=float("inf")),
        lambda rep: _check(rep, "trig-comparison").update(error="SVD did not converge"),
        lambda rep: _check(rep, "trig-comparison").update(passed=True, residual=1e-12, error=None),
        lambda rep: rep.update(passed=True),
        lambda rep: rep["params"].update(m=5),
    ],
    ids=["other-check-failed", "inf-residual", "other-error", "trig-passed", "report-verdict", "other-box"],
)
def test_corrupted_known_failure_fails(known_failure, corrupt):
    bad = copy.deepcopy(known_failure)
    corrupt(bad)
    with pytest.raises(checks.CheckFailure):
        checks.check_known_failure(bad, 3, 4, G, 0.3)


class StubCli:
    """Writes a canned payload to --out and returns a canned exit code."""

    def __init__(self, payload, code):
        self.payload, self.code = payload, code

    def main(self, argv):
        if isinstance(self.code, Exception):
            raise self.code
        Path(argv[argv.index("--out") + 1]).write_text(json.dumps(self.payload))
        return self.code


def _run_stub(tmp_path, op, payload, code):
    errors = []
    result = run.run_pass(StubCli(payload, code), [op], tmp_path / "op.json", errors)
    return result.failed, errors


def test_run_pass_accepts_known_failure(tmp_path, known_failure):
    op = workloads.Op("verify", 3, 4, G, (0.3,))
    assert op.known_to_fail
    assert _run_stub(tmp_path, op, known_failure, 1) == (1, [])


def test_run_pass_rejects_failed_report_elsewhere(tmp_path, report):
    bad = copy.deepcopy(report)
    _check(bad, "trig-comparison").update(passed=False, residual=None, error=checks.KNOWN_FAILURE_ERROR)
    bad["passed"] = False
    failed, errors = _run_stub(tmp_path, workloads.Op("verify", N, M, G, (0.3,)), bad, 1)
    assert failed == 1 and len(errors) == 1


def test_run_pass_rejects_known_box_failing_otherwise(tmp_path, known_failure):
    bad = copy.deepcopy(known_failure)
    _check(bad, "pieri").update(passed=False)
    failed, errors = _run_stub(tmp_path, workloads.Op("verify", 3, 4, G, (0.3,)), bad, 1)
    assert failed == 1 and len(errors) == 1


@pytest.mark.parametrize("code", [2, RuntimeError("boom")], ids=["usage-exit", "crash"])
def test_run_pass_rejects_other_exits_of_known_box(tmp_path, known_failure, code):
    failed, errors = _run_stub(tmp_path, workloads.Op("verify", 3, 4, G, (0.3,)), known_failure, code)
    assert failed == 1 and len(errors) == 1


def test_run_pass_rejects_failed_spectrum(tmp_path, sweep):
    op = workloads.Op("spectrum", N, M, G, tuple(SWEEP_P))
    assert _run_stub(tmp_path, op, sweep, 0) == (0, [])
    failed, errors = _run_stub(tmp_path, op, sweep, RuntimeError("DegenerateSpectrumError"))
    assert failed == 1 and len(errors) == 1
