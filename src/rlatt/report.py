"""Aggregated verification suite: named residuals, each judged against one fixed tolerance.

Each check computes one residual over the configured parameter point and is
compared against its fixed tolerance in ``TOLERANCES``; failures never abort
the run, they are recorded (including outright errors) and reflected in the
overall flag.
An error is an ``RlattError`` or a numpy ``LinAlgError``; any other
exception is a bug and propagates.
"""

import time
from dataclasses import asdict, dataclass, field, replace
from functools import cache
from itertools import combinations

import numpy as np

from . import __version__
from .coeffs import ModelParams, box_pieri_coefficients, hop_amplitudes, norm_vector, weight_vector
from .eigenpoly import (
    build_polynomials,
    dual_orthogonality_residual,
    pieri_residual,
    reconstruct_and_compare,
    value_table,
)
from .errors import RlattError
from .macdonald import compare_trig
from .operators import paired_moves
from .partitions import enumerate_lattice
from .spectral import _solved, _spectra, continue_labels, label_spectrum, orthogonality_residual
from .weightlattice import crosscheck_hop_coefficients

__all__ = [
    "CHECK_NAMES",
    "TOLERANCES",
    "CheckResult",
    "VerificationReport",
    "run_verification",
    "REPORT_SCHEMA_VERSION",
]

REPORT_SCHEMA_VERSION = 2

# fixed: a verdict depends on the parameter point alone
TOLERANCES = {
    "commutators": 1e-11,
    "adjointness": 1e-11,
    "truncation-dichotomy": 1e-12,
    "weight-recurrence": 1e-11,
    "psi-consistency": 1e-11,
    "orthogonality": 1e-9,
    "pieri": 1e-8,
    "dual-orthogonality": 1e-8,
    "reconstruction": 1e-7,
    "trig-comparison": 1e-8,
    "appendix-crosscheck": 1e-12,
}

# dicts keep insertion order: this is the order of the report
CHECK_NAMES = list(TOLERANCES)

# minimum amplitude an in-lattice hop must keep for the dichotomy to hold
DICHOTOMY_FLOOR = 1e-10


@dataclass
class CheckResult:
    name: str
    residual: float | None
    tolerance: float
    passed: bool
    seconds: float
    error: str | None = None
    detail: dict = field(default_factory=dict)


@dataclass
class VerificationReport:
    params: ModelParams
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "versions": {"schema": REPORT_SCHEMA_VERSION, "package": __version__},
            "params": {
                "n": self.params.n,
                "m": self.params.m,
                "g": self.params.g,
                "p": self.params.p,
                "alpha": self.params.alpha,
            },
            "passed": self.passed,
            "checks": [asdict(c) for c in self.checks],
        }


# np.max, unlike the builtin max, lets a NaN residual through to a FAIL
def check_commutators(basis, moves) -> float:
    """Largest ||D_r D_s - D_s D_r||_F / (||D_r||_F ||D_s||_F) over r < s, from ``moves()``, which n = 1 never calls."""
    size, residuals = len(basis), []
    for r, s in combinations(range(basis.n), 2):
        first, second = moves()[r], moves()[s]
        # off the regime the amplitudes may overflow: the residual is then inf or NaN, a FAIL
        with np.errstate(over="ignore", invalid="ignore"):
            comm = _product(first, second, size) - _product(second, first, size)
            residuals.append(np.linalg.norm(comm) / (np.linalg.norm(first[2]) * np.linalg.norm(second[2])))
    return float(np.max(residuals, initial=0.0))


def _product(first, second, size: int) -> np.ndarray:
    """D_r D_s, flattened, from the moves of D_r and D_s: each path u -> v -> w along one move of each adds
    D_r[u, v] D_s[v, w] at u N + w.  The moves are source-major, so those from v are one slice of ``second``."""
    source, target, a, _ = first
    start, stop = np.searchsorted(second[0], [target, target + 1])
    step = np.repeat(np.arange(len(a)), stop - start)
    # path k along move i goes on along move start_i + k - (the paths along the moves before i)
    then = np.arange(len(step)) + (stop - np.cumsum(stop - start))[step]
    return np.bincount(source[step] * size + second[1][then], a[step] * second[2][then], size * size)


def check_adjointness(moves, weights) -> float:
    # <D_r f, g>_w = <f, D_{n+1-r} g>_w for all f, g iff W D_r = D_{n+1-r}^T W iff M_r^T = M_{n+1-r},
    # which on a move s -> t of D_r reads sqrt(w_s / w_t) D_r[s, t] = sqrt(w_t / w_s) D_{n+1-r}[t, s]
    root, residuals = np.sqrt(weights), []
    for s, t, a, b in moves:
        forward = root[s] * a / root[t]
        residuals.append(np.linalg.norm(forward - root[t] * b / root[s]) / np.linalg.norm(forward))
    return float(np.max(residuals, initial=0.0))


def _worst_relative(pairs) -> float:
    """Largest |a - b| / max(|a|, |b|) over the entries of the array pairs (a, b); 0 where a = b = 0, NaN on NaN."""
    worst = 0.0
    for a, b in pairs:
        scale = np.maximum(np.abs(a), np.abs(b))
        with np.errstate(divide="ignore", invalid="ignore"):
            relative = np.where(scale == 0.0, 0.0, np.abs(a - b) / scale)
        worst = np.max(relative, initial=worst)
    return float(worst)


def check_truncation_dichotomy(params, basis):
    max_outside = 0.0
    min_inside = np.inf
    for r in range(1, params.n + 2):
        moves = basis.move_arrays[r]
        amplitudes = hop_amplitudes(basis, moves, params)
        inside = moves.target >= 0
        min_inside = np.min(amplitudes[inside], initial=min_inside)
        max_outside = np.max(np.abs(amplitudes[~inside]), initial=max_outside)
    return float(max_outside), float(min_inside)


def check_weight_recurrence(moves, weights) -> float:
    """Defect of D_r[s, t] w_s = D_{n+1-r}[t, s] w_t over the moves s -> t on the box."""
    return _worst_relative((a * weights[s], b * weights[t]) for s, t, a, b in moves)


def check_psi_consistency(moves, norms, pieri) -> float:
    """Defect of Pieri coefficient = D_r[s, t] c_t / c_s over the moves s -> t on the box.

    ``pieri`` holds ``box_pieri_coefficients(basis, r, params)`` for r = 1..n, on the same moves.
    """
    return _worst_relative((psi, a * norms[t] / norms[s]) for (s, t, a, _), (_, _, psi) in zip(moves, pieri))


def run_verification(params: ModelParams) -> VerificationReport:
    """Run every named check at the given parameter point.

    The moves of the operators with their amplitudes, the weights, norm
    constants, Pieri coefficients, spectra and polynomial value table of the
    point are each built once, on first use, and shared by every check.  One
    stacked solve gives the spectra at ``p = 0`` and ``p``; the one at ``p = 0``
    feeds the oracle, and its closed-form labels are carried to ``p``.
    """
    basis = enumerate_lattice(params.n, params.m)
    checks: list[CheckResult] = []

    def run(name, func, judge=None):
        tolerance = TOLERANCES[name]
        start = time.perf_counter()
        try:
            residual = func()
        except (RlattError, np.linalg.LinAlgError) as exc:
            checks.append(
                CheckResult(name, None, tolerance, False, time.perf_counter() - start, error=str(exc))
            )
            return
        seconds = time.perf_counter() - start
        if judge is None:
            checks.append(CheckResult(name, float(residual), tolerance, bool(residual < tolerance), seconds))
        else:
            residual_value, passed, detail = judge(residual)
            checks.append(
                CheckResult(name, residual_value, tolerance, passed, seconds, detail=detail)
            )

    # cache keeps nothing of a call that raises, so each check that needs a
    # quantity which cannot be built records the error of building it
    moves = cache(lambda: [paired_moves(basis, params, basis.hop_table(r)) for r in range(1, params.n + 1)])
    weights = cache(lambda: weight_vector(basis, params))
    norms = cache(lambda: norm_vector(basis, params))
    # the scalar Pieri coefficients of the moves on the box, read by psi-consistency and pieri
    pieri = cache(lambda: [box_pieri_coefficients(basis, r, params) for r in range(1, params.n + 1)])
    # one pass solves p = 0 and p; a failure at p stays with the checks on the labeled spectrum
    nomes = [replace(params, p=0.0)] + ([params] if params.p != 0.0 else [])
    solved = cache(lambda: list(_spectra(nomes, basis)))
    zero_nome = cache(lambda: label_spectrum(_solved(solved()[0])))
    labeled = cache(lambda: continue_labels(zero_nome(), _solved(solved()[-1])))
    # the polynomial values on the labeled spectrum, read by the three polynomial checks
    table = cache(lambda: value_table(build_polynomials(params, basis), labeled()))

    run("commutators", lambda: check_commutators(basis, moves))
    run("adjointness", lambda: check_adjointness(moves(), weights()))
    run(
        "truncation-dichotomy",
        lambda: check_truncation_dichotomy(params, basis),
        judge=lambda pair: (
            pair[0],
            pair[0] < TOLERANCES["truncation-dichotomy"] and pair[1] > DICHOTOMY_FLOOR,
            {"max_outside": pair[0], "min_inside": pair[1], "floor": DICHOTOMY_FLOOR},
        ),
    )
    run("weight-recurrence", lambda: check_weight_recurrence(moves(), weights()))
    run("psi-consistency", lambda: check_psi_consistency(moves(), norms(), pieri()))
    run("orthogonality", lambda: orthogonality_residual(labeled()))
    run("pieri", lambda: pieri_residual(table(), labeled(), pieri()))
    run("dual-orthogonality", lambda: dual_orthogonality_residual(table(), labeled(), norms(), weights()))
    run("reconstruction", lambda: reconstruct_and_compare(table(), labeled(), norms(), weights()))
    run("trig-comparison", lambda: compare_trig(zero_nome()).residual)
    run("appendix-crosscheck", lambda: crosscheck_hop_coefficients(params, basis))

    return VerificationReport(params, checks)
