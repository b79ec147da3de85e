"""Aggregated verification suite with named residuals and tolerances.

Each check computes one residual over the configured parameter point and is
compared against its tolerance; failures never abort the run, they are
recorded (including outright errors) and reflected in the overall flag.
An error is an ``RlattError`` or a numpy ``LinAlgError``; any other
exception is a bug and propagates.
"""

import time
from dataclasses import dataclass, field, replace
from itertools import chain

import numpy as np

from . import __version__
from .coeffs import (
    ModelParams,
    hop_coefficient,
    lattice_weight,
    norm_constant,
    pieri_coefficient,
)
from .eigenpoly import (
    build_polynomials,
    dual_orthogonality_residual,
    pieri_residual,
    reconstruct_and_compare,
)
from .errors import RlattError
from .macdonald import compare_trig
from .operators import adjoint_residual, commutator_residual, transpose_residual
from .partitions import enumerate_lattice
from .spectral import joint_diagonalize, label_spectrum, orthogonality_residual
from .weightlattice import crosscheck_hop_coefficients

__all__ = [
    "CHECK_NAMES",
    "DEFAULT_TOLERANCES",
    "CheckResult",
    "VerificationReport",
    "run_verification",
    "REPORT_SCHEMA_VERSION",
]

REPORT_SCHEMA_VERSION = 1

CHECK_NAMES = [
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
]

DEFAULT_TOLERANCES = {
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
    seed: int
    checks: list

    @property
    def passed(self) -> bool:
        return all(bool(c.passed) for c in self.checks)

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
            "seed": self.seed,
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "residual": None if c.residual is None else float(c.residual),
                    "tolerance": float(c.tolerance),
                    "passed": bool(c.passed),
                    "seconds": float(c.seconds),
                    "error": c.error,
                    "detail": {k: float(v) for k, v in c.detail.items()},
                }
                for c in self.checks
            ],
        }


def check_commutators(params, basis) -> float:
    worst = 0.0
    for r in range(1, params.n + 1):
        for s in range(r + 1, params.n + 1):
            worst = max(worst, commutator_residual(r, s, params, basis))
    return worst


def check_adjointness(params, basis) -> float:
    worst = 0.0
    for r in range(1, params.n + 1):
        worst = max(worst, transpose_residual(r, params, basis))
        worst = max(worst, adjoint_residual(r, params, basis))
    return worst


def check_truncation_dichotomy(params, basis):
    max_outside = 0.0
    min_inside = np.inf
    for move in chain.from_iterable(basis.moves.values()):
        b = hop_coefficient(basis.order[move.source], move.strip, params)
        if move.target is not None:
            min_inside = min(min_inside, b)
        else:
            max_outside = max(max_outside, abs(b))
    return max_outside, float(min_inside)


def check_weight_recurrence(params, basis) -> float:
    worst = 0.0
    for move in chain.from_iterable(basis.moves.values()):
        if move.target is None:
            continue
        lam, reduced = basis.order[move.source], basis.order[move.target]
        complement = tuple(1 - s for s in move.strip)
        lhs = hop_coefficient(lam, move.strip, params) * lattice_weight(lam, params)
        rhs = hop_coefficient(reduced, complement, params) * lattice_weight(reduced, params)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
    return worst


def check_psi_consistency(params, basis) -> float:
    worst = 0.0
    for move in chain.from_iterable(basis.moves.values()):
        if move.target is None:
            continue
        lam, reduced = basis.order[move.source], basis.order[move.target]
        psi = pieri_coefficient(lam, move.strip, params)
        via_ratio = (
            hop_coefficient(lam, move.strip, params)
            * norm_constant(reduced, params)
            / norm_constant(lam, params)
        )
        worst = max(worst, abs(psi - via_ratio) / max(abs(psi), abs(via_ratio)))
    return worst


def run_verification(params: ModelParams, tolerances: dict | None = None, seed: int = 0) -> VerificationReport:
    """Run every named check at the given parameter point."""
    tol = dict(DEFAULT_TOLERANCES)
    if tolerances:
        tol.update(tolerances)
    basis = enumerate_lattice(params.n, params.m)
    checks: list[CheckResult] = []

    def run(name, func, judge=None):
        start = time.perf_counter()
        try:
            residual = func()
        except (RlattError, np.linalg.LinAlgError) as exc:
            checks.append(
                CheckResult(name, None, tol[name], False, time.perf_counter() - start, error=str(exc))
            )
            return
        seconds = time.perf_counter() - start
        if judge is None:
            passed = residual < tol[name]
            checks.append(CheckResult(name, float(residual), tol[name], passed, seconds))
        else:
            residual_value, passed, detail = judge(residual)
            checks.append(
                CheckResult(name, residual_value, tol[name], passed, seconds, detail=detail)
            )

    run("commutators", lambda: check_commutators(params, basis))
    run("adjointness", lambda: check_adjointness(params, basis))
    run(
        "truncation-dichotomy",
        lambda: check_truncation_dichotomy(params, basis),
        judge=lambda pair: (
            pair[0],
            pair[0] < tol["truncation-dichotomy"] and pair[1] > DICHOTOMY_FLOOR,
            {"max_outside": pair[0], "min_inside": pair[1], "floor": DICHOTOMY_FLOOR},
        ),
    )
    run("weight-recurrence", lambda: check_weight_recurrence(params, basis))
    run("psi-consistency", lambda: check_psi_consistency(params, basis))

    spectrum_holder = {}

    def labeled_spectrum():
        if "spectrum" not in spectrum_holder:
            spectrum_holder["spectrum"] = label_spectrum(
                joint_diagonalize(params, seed=seed, basis=basis), seed=seed
            )
        return spectrum_holder["spectrum"]

    polys_holder = {}

    def polynomials():
        if "polys" not in polys_holder:
            polys_holder["polys"] = build_polynomials(params, basis)
        return polys_holder["polys"]

    run("orthogonality", lambda: orthogonality_residual(labeled_spectrum()))
    run("pieri", lambda: pieri_residual(polynomials(), labeled_spectrum(), params))
    run("dual-orthogonality", lambda: dual_orthogonality_residual(polynomials(), labeled_spectrum(), params))
    run("reconstruction", lambda: reconstruct_and_compare(polynomials(), labeled_spectrum(), params))
    run("trig-comparison", lambda: compare_trig(replace(params, p=0.0), seed=seed, basis=basis).residual)
    run("appendix-crosscheck", lambda: crosscheck_hop_coefficients(params, basis))

    return VerificationReport(params, seed, checks)
