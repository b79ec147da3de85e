"""``verify`` passes or fails a named check at every point ``ModelParams`` accepts.

Over boxes with N <= 35, couplings log-uniform on [0.1, 4] and nomes
uniform on [-0.99, 0.99] or exactly 0, ``run_verification`` never raises,
never passes a check with a missing, non-finite or out-of-tolerance
residual, gives every failed check a reason, and reports strict JSON, with
no Infinity or NaN, that round-trips.  Known false FAILs (the oracle at
(3, 4), the checks past |p| of about 0.7) are failed checks, so the
strategy keeps them.
"""

import json
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from rlatt.coeffs import ModelParams
from rlatt.report import run_verification

POINTS = st.builds(
    ModelParams,
    n=st.integers(1, 3),
    m=st.integers(1, 4),
    g=st.floats(math.log(0.1), math.log(4.0)).map(math.exp),
    p=st.one_of(st.floats(-0.99, 0.99), st.just(0.0)),
)


def _has_reason(check) -> bool:
    if check.error is not None:
        return True
    if check.residual is not None and not check.residual < check.tolerance:
        return True
    # the dichotomy also fails when an in-box amplitude falls to its floor or is not finite (null)
    detail = check.detail
    return bool(detail) and (detail["min_inside"] is None or not detail["min_inside"] > detail["floor"])


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(POINTS)
# every amplitude vanishes at alpha = 2 pi, g = 1/2: the solve's residuals are 0 / 0, a named error
@example(ModelParams(1, 1, 0.5, 0.0, alpha_override=2 * math.pi))
# the dual weights overflow: the dual-orthogonality residual is inf, written null with its reason
@example(ModelParams(4, 2, 7.0, 0.99))
def test_verify_passes_or_fails_a_named_check(params):
    report = run_verification(params)
    for check in report.checks:
        if check.passed:
            assert check.error is None
            assert check.residual is not None and math.isfinite(check.residual)
            assert check.residual < check.tolerance
        else:
            assert _has_reason(check), check
    # strict JSON: no Infinity or NaN
    text = json.dumps(report.as_dict(), sort_keys=True, allow_nan=False)
    assert json.dumps(json.loads(text), sort_keys=True) == text
