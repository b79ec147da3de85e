import cmath
import math

import pytest

from rlatt.coeffs import (
    ModelParams,
    hop_coefficient,
    pieri_coefficient,
)
from rlatt.errors import TruncationViolationError
from rlatt.partitions import add_strip, enumerate_lattice, vertical_strips
from rlatt.report import run_verification
from scalar_reference import lattice_weight, norm_constant, reduce_partition

DICHOTOMY_SETS = [(2, 2, 1.0, 0.3), (3, 2, 0.6, 0.5)]


def admissible_moves(params, basis, sizes=None):
    sizes = sizes or range(1, params.n + 2)
    for lam in basis.order:
        for r in sizes:
            for strip in vertical_strips(r, params.n):
                mu, dominant = add_strip(lam, strip)
                if not dominant:
                    continue
                yield lam, strip, reduce_partition(mu, params.n)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(0, 1, 1.0)
    with pytest.raises(ValueError):
        ModelParams(1, 1, -0.5)
    with pytest.raises(ValueError):
        ModelParams(1, 1, 1.0, 0.995)
    with pytest.raises(ValueError):
        ModelParams(1, 1, 1.0, float("nan"))
    with pytest.raises(ValueError):
        ModelParams(1, 1, float("inf"))
    for alpha in (float("nan"), float("inf"), 0.0, -1.0):
        with pytest.raises(ValueError):
            ModelParams(1, 1, 1.0, alpha_override=alpha)
    params = ModelParams(2, 3, 0.7, 0.4)
    assert abs(params.alpha * ((params.n + 1) * params.g + params.m) - 2 * math.pi) < 1e-14
    assert abs(params.q) == pytest.approx(1.0, abs=1e-15)
    assert params.t == pytest.approx(cmath.exp(1j * params.alpha * params.g))


def test_hop_full_strip_is_one():
    # every factor is a bracket divided by itself, so the product is exactly 1
    for n, m, g, p in ((1, 1, 1.0, 0.0), (2, 2, 0.7, 0.5), (3, 2, 1.3, -0.4)):
        params = ModelParams(n, m, g, p)
        full = (1,) * (n + 1)
        for lam in enumerate_lattice(n, m).order:
            assert hop_coefficient(lam, full, params) == 1.0


def test_hop_example_2x2():
    params = ModelParams(1, 1, 1.0, 0.0)
    assert hop_coefficient((), (1, 0), params) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("p", [0.0, 0.5])
def test_hop_vanishes_off_lattice(p):
    # the move (1) -> (2) leaves the 1x1 box; the amplitude is exactly zero
    params = ModelParams(1, 1, 1.0, p)
    assert hop_coefficient((1,), (1, 0), params) == 0.0


@pytest.mark.parametrize("n,m,g,p", DICHOTOMY_SETS)
def test_truncation_dichotomy(n, m, g, p):
    params = ModelParams(n, m, g, p)
    basis = enumerate_lattice(n, m)
    for lam, strip, red in admissible_moves(params, basis):
        b = hop_coefficient(lam, strip, params)
        if red in basis.order:
            assert b > 1e-10
        else:
            assert abs(b) < 1e-12


@pytest.mark.parametrize("n,m,g,p", DICHOTOMY_SETS)
def test_hop_zero_on_nondominant_targets(n, m, g, p):
    params = ModelParams(n, m, g, p)
    basis = enumerate_lattice(n, m)
    for lam in basis.order:
        for r in range(1, n + 1):
            for strip in vertical_strips(r, n):
                _, dominant = add_strip(lam, strip)
                if not dominant:
                    assert hop_coefficient(lam, strip, params) == 0.0


@pytest.mark.parametrize("n,m,g,p", DICHOTOMY_SETS)
def test_weight_recurrence(n, m, g, p):
    params = ModelParams(n, m, g, p)
    basis = enumerate_lattice(n, m)
    for lam, strip, red in admissible_moves(params, basis):
        if red not in basis.order:
            continue
        complement = tuple(1 - s for s in strip)
        lhs = hop_coefficient(lam, strip, params) * lattice_weight(lam, params)
        rhs = hop_coefficient(red, complement, params) * lattice_weight(red, params)
        assert abs(lhs - rhs) < 1e-11 * max(abs(lhs), abs(rhs))


@pytest.mark.parametrize("n,m,g,p", DICHOTOMY_SETS)
def test_pieri_equals_hop_times_norm_ratio(n, m, g, p):
    params = ModelParams(n, m, g, p)
    basis = enumerate_lattice(n, m)
    for lam, strip, red in admissible_moves(params, basis):
        if red not in basis.order:
            continue
        psi = pieri_coefficient(lam, strip, params)
        ratio = hop_coefficient(lam, strip, params) * norm_constant(red, params) / norm_constant(lam, params)
        assert abs(psi - ratio) < 1e-12 * max(abs(psi), abs(ratio))


def test_pieri_prefix_strip_is_one():
    # nu = lam + 1^r has no inverted pair, so the product is empty
    for n, m, g, p in ((2, 2, 0.7, 0.5), (3, 2, 1.0, 0.3)):
        params = ModelParams(n, m, g, p)
        for lam in enumerate_lattice(n, m).order:
            for r in range(1, n + 1):
                strip = (1,) * r + (0,) * (n + 1 - r)
                _, dominant = add_strip(lam, strip)
                if dominant:
                    assert pieri_coefficient(lam, strip, params) == 1.0
            assert pieri_coefficient(lam, (1,) * (n + 1), params) == 1.0


def test_pieri_example_2x2():
    for p in (0.0, 0.5, -0.3):
        params = ModelParams(1, 1, 1.0, p)
        assert pieri_coefficient((1,), (0, 1), params) == pytest.approx(1.0, abs=1e-14)


def test_weight_examples():
    assert lattice_weight((), ModelParams(3, 2, 0.9, 0.6)) == 1.0
    assert lattice_weight((1,), ModelParams(1, 1, 1.0, 0.0)) == pytest.approx(1.0, abs=1e-14)


def test_weight_positivity_on_box():
    params = ModelParams(2, 2, 0.7, 0.5)
    for lam in enumerate_lattice(2, 2).order:
        assert lattice_weight(lam, params) > 0


def test_norm_constant_examples():
    assert norm_constant((), ModelParams(2, 2, 1.0, 0.4)) == 1.0
    assert norm_constant((1,), ModelParams(1, 1, 1.0, 0.0)) == pytest.approx(1.0, abs=1e-14)
    # at these parameters the period is 3, so [2;p] = [1;p] and the ratio is 1
    params = ModelParams(1, 1, 1.0, 0.5)
    direct = params.theta.bracket(1.0) / params.theta.bracket(2.0)
    assert norm_constant((1,), params) == pytest.approx(direct, rel=1e-15)
    assert norm_constant((1,), params) == pytest.approx(1.0, abs=1e-14)


def test_broken_alpha_raises_truncation_violation():
    # period = g makes the very first denominator bracket vanish
    params = ModelParams(1, 1, 1.0, 0.0, alpha_override=2 * math.pi)
    with pytest.raises(TruncationViolationError):
        hop_coefficient((), (1, 0), params)


@pytest.mark.parametrize("g", [0.3, 1.0])
def test_nan_weights_fail_verification_without_raising(g):
    # the bracket products overflow near the nome cap and every weight is NaN
    params = ModelParams(3, 4, g, 0.99)
    with pytest.raises(TruncationViolationError):
        lattice_weight((4,), params)
    with pytest.raises(TruncationViolationError):
        norm_constant((4,), params)
    report = run_verification(params)
    assert not report.passed
