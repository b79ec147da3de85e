import math

import numpy as np
import pytest

from rlatt.coeffs import ModelParams, hop_coefficient
from rlatt.errors import GenericityViolationError, RlattError, TruncationViolationError
from rlatt.partitions import enumerate_lattice
from rlatt.weightlattice import crosscheck_hop_coefficients
from scalar_reference import crosscheck_loop, memoized, rho_shift, strip_from_subset, translation_coefficient
from itertools import combinations


def test_rho_shift_examples():
    params = ModelParams(1, 1, 0.8, 0.0)
    assert rho_shift((), params) == pytest.approx([0.4, -0.4])
    assert rho_shift((1,), params) == pytest.approx([1.4, -0.4])
    params = ModelParams(2, 2, 1.0, 0.0)
    assert rho_shift((), params) == pytest.approx([1.0, 0.0, -1.0])
    assert np.sum(rho_shift((2, 1), params) - np.array([2.0, 1.0, 0.0])) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        rho_shift((1, 1), ModelParams(1, 1, 1.0, 0.0))


def test_full_subset_gives_one():
    params = ModelParams(2, 2, 0.7, 0.5)
    x = rho_shift((1,), params)
    assert translation_coefficient(x, (0, 1, 2), params) == 1.0
    assert translation_coefficient(x, (), params) == 1.0


def test_vanishing_at_nondominant_direction():
    # moving the second coordinate up from the unshifted origin hits a zero
    params = ModelParams(1, 1, 1.0, 0.4)
    x = rho_shift((), params)
    assert translation_coefficient(x, (1,), params) == 0.0


def test_single_hop_identity():
    params = ModelParams(1, 1, 1.0, 0.3)
    x = rho_shift((), params)
    v = translation_coefficient(x, (0,), params)
    b = hop_coefficient((), (1, 0), params)
    assert v == pytest.approx(b, abs=1e-14)


@pytest.mark.parametrize(
    "n,m,g,p,tol",
    [
        (1, 1, 1.0, 0.4, 1e-13),
        (2, 2, 0.7, 0.5, 1e-12),
        (3, 2, 1.0, 0.3, 1e-12),
    ],
)
def test_crosscheck(n, m, g, p, tol):
    assert crosscheck_hop_coefficients(ModelParams(n, m, g, p)) < tol


def test_zero_sets_coincide():
    # the coordinate form vanishes exactly where the partition form does
    params = ModelParams(2, 2, 0.7, 0.5)
    basis = enumerate_lattice(2, 2)
    for lam in basis.order:
        x = rho_shift(lam, params)
        for size in range(4):
            for subset in combinations(range(3), size):
                v = translation_coefficient(x, subset, params)
                b = hop_coefficient(lam, strip_from_subset(subset, 2), params)
                assert (v == 0.0) == (b == 0.0)


def test_translation_invariance():
    params = ModelParams(2, 2, 0.7, 0.5)
    rng = np.random.default_rng(3)
    x = rho_shift((2, 1), params)
    for _ in range(5):
        shift = float(rng.uniform(-2, 2))
        for subset in ((0,), (0, 2), (1,)):
            a = translation_coefficient(x, subset, params)
            b = translation_coefficient(x + shift, subset, params)
            assert b == pytest.approx(a, rel=1e-12, abs=1e-12)


def test_genericity_violation():
    params = ModelParams(1, 1, 1.0, 0.2)
    with pytest.raises(GenericityViolationError):
        translation_coefficient(np.array([0.5, 0.5]), (0,), params)


def test_subset_mask():
    assert strip_from_subset((0, 2), 2) == (1, 0, 1)
    assert strip_from_subset((), 1) == (0, 0)


# the benchmark's eleven verify boxes at its first coupling, (5, 5) and (4, 8)
# (N = 252 and 495), and a g = 1 point where the gap is 1.5e-8 on amplitudes
# up to 4.2e7
CROSSCHECK_POINTS = [
    (n, m, 0.9814989379240225, p)
    for n, m, p in (
        (1, 8, 0.6), (2, 2, 0.3), (3, 2, -0.2), (2, 3, 0.5), (4, 1, -0.45), (3, 3, 0.4),
        (2, 5, -0.4), (2, 6, 0.6), (2, 9, -0.3), (4, 2, 0.2), (3, 4, 0.3),
    )
] + [(5, 5, 1.18, 0.3), (4, 8, 0.7, 0.3), (4, 3, 1.0, 0.9)]


@pytest.mark.parametrize("n,m,g,p", CROSSCHECK_POINTS)
def test_array_crosscheck_matches_the_scalar_loop(n, m, g, p):
    # both forms multiply the same brackets in the same order on both sides, so
    # the largest gaps agree to the last digit
    params = ModelParams(n, m, g, p)
    assert crosscheck_hop_coefficients(params) == pytest.approx(crosscheck_loop(memoized(params)), rel=1e-15, abs=0)


@pytest.mark.parametrize(
    "n,m,period,error",
    [
        # g = 1 sits on the zero: the hop denominator of the first point vanishes
        (1, 1, 1.0, TruncationViolationError),
        (2, 2, 1.0, TruncationViolationError),
        # the difference 2 of the second point sits on the zero
        (1, 2, 2.0, TruncationViolationError),
        # just off the zero: the bracket is 5e-11, below GENERICITY_TOL only
        (1, 1, 1.0 + 5e-11, GenericityViolationError),
    ],
)
def test_array_crosscheck_raises_as_the_scalar_loop(n, m, period, error):
    params = ModelParams(n, m, 1.0, 0.0, alpha_override=2 * math.pi / period)
    with pytest.raises(RlattError) as scalar:
        crosscheck_loop(params)
    with pytest.raises(RlattError) as array:
        crosscheck_hop_coefficients(params)
    assert type(scalar.value) is type(array.value) is error
    assert str(array.value) == str(scalar.value)
