"""Checks on the JSON that the rlatt CLI writes.

The first four spectrum checks are computed apart from the program: the box
is enumerated here, and the zero-nome closed form is evaluated here.  The
residual check and the verify-report checks read the program's own residuals
and verdicts.  Each check raises CheckFailure with a message naming what
went wrong.
"""

import cmath
import math
from itertools import combinations_with_replacement

# tolerances are relative to the size of the eigenvalues involved
TRACE_TOL = 1e-9
PAIRING_TOL = 1e-9
CLOSED_FORM_TOL = 1e-9
RESIDUAL_TOL = 1e-9

VERIFY_CHECKS = (
    "commutators",
    "adjointness",
    "truncation-dichotomy",
    "weight-recurrence",
    "psi-consistency",
    "orthogonality",
    "pieri",
    "dual-orthogonality",
    "reconstruction",
    "trig-comparison",
    "appendix-crosscheck",
)

# the one check that fails in the verify operation known to fail, and how
KNOWN_FAILURE_CHECK = "trig-comparison"
KNOWN_FAILURE_ERROR = "eigenvalue collision between (4, 2, 2) and (3, 3, 1, 1)"


class CheckFailure(Exception):
    """An output of the program is wrong."""


def box_partitions(n: int, m: int) -> set:
    """The C(n+m, n) partitions with at most n parts, each at most m, trailing zeros dropped."""
    found = set()
    for parts in combinations_with_replacement(range(m, -1, -1), n):
        found.add(tuple(x for x in parts if x))
    return found


def _eigenvalues(record) -> list:
    return [complex(re, im) for re, im in record["e"]]


def check_labels(n: int, m: int, records) -> None:
    """The labels are exactly the partitions in the box, each once."""
    labels = [tuple(r["nu"]) for r in records]
    if len(set(labels)) != len(labels):
        raise CheckFailure(f"({n}, {m}): a label occurs more than once")
    expected = box_partitions(n, m)
    if set(labels) != expected:
        missing = sorted(expected - set(labels))[:3]
        extra = sorted(set(labels) - expected)[:3]
        raise CheckFailure(f"({n}, {m}): labels differ from the box, missing {missing}, extra {extra}")


def check_trace(n: int, records) -> None:
    """Each D_r has zero diagonal, so its eigenvalues sum to zero over the spectrum."""
    for r in range(n):
        values = [_eigenvalues(rec)[r] for rec in records]
        total = abs(sum(values))
        scale = sum(abs(v) for v in values)
        if not total <= TRACE_TOL * max(scale, 1.0):
            raise CheckFailure(f"e_{r + 1} sums to {total:.3e} over the spectrum (scale {scale:.3e})")


def check_pairing(n: int, records) -> None:
    """e_{n+1-r} = conj(e_r) for every label."""
    for rec in records:
        e = _eigenvalues(rec)
        for r in range(n):
            gap = abs(e[n - 1 - r] - e[r].conjugate())
            if not gap <= PAIRING_TOL * max(abs(e[r]), 1.0):
                raise CheckFailure(f"label {rec['nu']}: e_{n - r} differs from conj(e_{r + 1}) by {gap:.3e}")


def closed_form(nu, n: int, m: int, g: float) -> list:
    """Zero-nome joint eigenvalues e_1..e_n of label nu.

    e_r = exp(-i a r (|nu|/(n+1) + n g/2)) * E_r(x) with a = 2 pi / ((n+1) g + m),
    x_j = exp(i a (nu_j + (n + 1 - j) g)) for j = 1..n, x_{n+1} = 1, and E_r the
    elementary symmetric function of order r.
    """
    a = 2.0 * math.pi / ((n + 1) * g + m)
    padded = list(nu) + [0] * (n - len(nu))
    xs = [cmath.exp(1j * a * (padded[j] + (n - j) * g)) for j in range(n)] + [1.0]
    elementary = [1.0 + 0j] + [0j] * n
    for x in xs:
        for r in range(n, 0, -1):
            elementary[r] += elementary[r - 1] * x
    shift = sum(padded) / (n + 1) + n * g / 2.0
    return [cmath.exp(-1j * a * r * shift) * elementary[r] for r in range(1, n + 1)]


def check_closed_form(n: int, m: int, g: float, records) -> None:
    """At p = 0 each label's eigenvalues equal the closed form."""
    for rec in records:
        expected = closed_form(rec["nu"], n, m, g)
        for r, (got, want) in enumerate(zip(_eigenvalues(rec), expected)):
            if not abs(got - want) <= CLOSED_FORM_TOL * max(abs(want), 1.0):
                raise CheckFailure(
                    f"label {rec['nu']}: e_{r + 1} = {got} but the closed form gives {want}"
                )


def check_residuals(records) -> None:
    """Every per-vector residual reported by the program is below RESIDUAL_TOL."""
    for rec in records:
        if not rec["residual"] <= RESIDUAL_TOL:
            raise CheckFailure(f"label {rec['nu']}: residual {rec['residual']} exceeds {RESIDUAL_TOL}")


def check_spectrum(payload, n: int, m: int, g: float, p_values) -> None:
    """All spectrum checks on one `rlatt spectrum` output."""
    if (payload["n"], payload["m"], payload["g"]) != (n, m, g):
        raise CheckFailure(f"output is for {(payload['n'], payload['m'], payload['g'])}, asked {(n, m, g)}")
    got_p = [point["p"] for point in payload["points"]]
    if got_p != list(p_values):
        raise CheckFailure(f"({n}, {m}): nomes {got_p} differ from the requested {list(p_values)}")
    for point in payload["points"]:
        records = point["records"]
        check_labels(n, m, records)
        if any(len(rec["e"]) != n for rec in records):
            raise CheckFailure(f"({n}, {m}) at p = {point['p']}: a record lacks some of the {n} eigenvalues")
        check_trace(n, records)
        check_pairing(n, records)
        if point["p"] == 0.0:
            check_closed_form(n, m, g, records)
        check_residuals(records)


def _check_report(payload, n: int, m: int, g: float, p: float, exempt: str | None) -> None:
    """The report is for (n, m, g, p) and has all 11 checks; each one but exempt
    passed with a finite residual."""
    params = payload["params"]
    if (params["n"], params["m"], params["g"], params["p"]) != (n, m, g, p):
        raise CheckFailure(f"report is for {params}, asked {(n, m, g, p)}")
    names = tuple(c["name"] for c in payload["checks"])
    if names != VERIFY_CHECKS:
        raise CheckFailure(f"({n}, {m}): report has checks {names}")
    for c in payload["checks"]:
        if c["name"] == exempt:
            continue
        if not c["passed"] or c["residual"] is None or not math.isfinite(c["residual"]):
            raise CheckFailure(
                f"({n}, {m}, g={g}, p={p}): check {c['name']} passed={c['passed']} "
                f"residual={c['residual']} error={c['error']}"
            )


def check_verify(payload, n: int, m: int, g: float, p: float) -> None:
    """A `rlatt verify` report has all 11 checks, each passed, with finite residuals."""
    _check_report(payload, n, m, g, p, exempt=None)
    if payload["passed"] is not True:
        raise CheckFailure(f"({n}, {m}): every check passed but the report says passed={payload['passed']}")


def check_known_failure(payload, n: int, m: int, g: float, p: float) -> None:
    """A failed `rlatt verify` report fails only as the (3, 4) oracle fault does.

    Ten checks pass with finite residuals; trig-comparison fails without a
    residual, on the oracle's eigenvalue collision (the report keeps the
    message of the DegenerateSpecializationError, not its type).
    """
    _check_report(payload, n, m, g, p, exempt=KNOWN_FAILURE_CHECK)
    (trig,) = [c for c in payload["checks"] if c["name"] == KNOWN_FAILURE_CHECK]
    error = trig["error"] or ""
    if trig["passed"] or trig["residual"] is not None or not error.startswith(KNOWN_FAILURE_ERROR):
        raise CheckFailure(
            f"({n}, {m}, g={g}, p={p}): {KNOWN_FAILURE_CHECK} passed={trig['passed']} "
            f"residual={trig['residual']} error={trig['error']!r}, not the known oracle collision"
        )
    if payload["passed"] is not False:
        raise CheckFailure(f"({n}, {m}): {KNOWN_FAILURE_CHECK} failed but the report says passed={payload['passed']}")
