import math

import mpmath
import numpy as np
import pytest

from rlatt.elliptic import ThetaEvaluator
from scalar_reference import bracket_factorial, bracket_trig

ALPHA = 2 * math.pi / 3


def bracket_from_sine_series(z, alpha, p):
    """Oracle: odd theta quotient summed from the sine series.

    The common p^{1/4} cancels between numerator and denominator.  The
    denominator series cancels almost completely for p near 1, so the sum is
    done in extended precision.
    """
    with mpmath.workdps(60):
        x = mpmath.mpf(alpha) * mpmath.mpf(z) / 2
        pp = mpmath.mpf(p)
        num = mpmath.mpf(0)
        den = mpmath.mpf(0)
        l = 0
        while True:
            c = (-1) ** l * pp ** (l * (l + 1))
            num += c * mpmath.sin((2 * l + 1) * x)
            den += c * (2 * l + 1)
            if p == 0.0 or pp ** ((l + 1) * (l + 2)) < mpmath.mpf("1e-70"):
                break
            l += 1
        return float(num / den / (mpmath.mpf(alpha) / 2))


def test_bracket_vanishes_at_zero():
    assert ThetaEvaluator(ALPHA, 0.4).bracket(0.0) == 0.0


def test_trig_value():
    ev = ThetaEvaluator(ALPHA, 0.0)
    assert ev.bracket(1.0) == pytest.approx(0.8269933431326881, abs=1e-15)
    assert ev.bracket(1.0) == pytest.approx(math.sin(math.pi / 3) / (math.pi / 3), abs=1e-16)
    assert bracket_trig(2.0, ALPHA) == pytest.approx(0.8269933431326881, abs=1e-15)
    assert bracket_trig(0.0, ALPHA) == 0.0


def test_sign_flip_over_one_period():
    ev = ThetaEvaluator(1.0, 0.4)
    z = 0.37
    lhs = ev.bracket(z + 2 * math.pi)
    assert abs(lhs + ev.bracket(z)) < 1e-12 * abs(lhs)


@pytest.mark.parametrize("p", [-0.5, 0.0, 0.5, 0.9])
def test_oddness(p):
    ev = ThetaEvaluator(1.3, p)
    rng = np.random.default_rng(7)
    for z in rng.uniform(-6, 6, size=25):
        b = ev.bracket(float(z))
        assert abs(ev.bracket(float(-z)) + b) < 1e-14 * max(1.0, abs(b))


@pytest.mark.parametrize("p", [-0.5, 0.3, 0.9])
def test_quasi_periodicity(p):
    ev = ThetaEvaluator(0.8, p)
    rng = np.random.default_rng(11)
    for z in rng.uniform(-3, 3, size=25):
        b = ev.bracket(float(z))
        if abs(b) < 1e-6:
            continue
        assert abs(ev.bracket(float(z) + ev.period) + b) < 1e-12 * abs(b)


def test_small_nome_correction_is_quadratic():
    ratios = []
    for p in (1e-2, 1e-3, 1e-4):
        ev = ThetaEvaluator(ALPHA, p)
        z = 1.234
        ratios.append((ev.bracket(z) - bracket_trig(z, ALPHA)) / p**2)
    assert max(abs(r) for r in ratios) < 10.0
    # the ratio converges rather than blowing up
    assert abs(ratios[1] - ratios[2]) < 0.1 * abs(ratios[2])


@pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
def test_product_matches_sine_series(p):
    ev = ThetaEvaluator(ALPHA, p)
    for z in (0.2, 0.71, 1.0, 1.9, 2.5):
        reference = bracket_from_sine_series(z, ALPHA, p)
        assert abs(ev.bracket(z) - reference) < 1e-12 * max(1.0, abs(reference))


def test_trig_agreement_at_zero_nome():
    ev = ThetaEvaluator(1.7, 0.0)
    for z in np.linspace(-5, 5, 41):
        assert ev.bracket(float(z)) == bracket_trig(float(z), 1.7)


def test_bracket_factorial():
    ev = ThetaEvaluator(ALPHA, 0.0)
    assert bracket_factorial(ev, 0.77, 0) == 1.0
    assert bracket_factorial(ev, 0.77, 1) == ev.bracket(0.77)
    assert bracket_factorial(ev, 1.0, 2) == pytest.approx(0.6839179895857801, abs=1e-15)
    with pytest.raises(ValueError):
        bracket_factorial(ev, 1.0, -1)


def test_parameter_validation():
    with pytest.raises(ValueError):
        ThetaEvaluator(0.0, 0.3)
    with pytest.raises(ValueError):
        ThetaEvaluator(1.0, 0.995)


def test_truncation_depth():
    assert ThetaEvaluator(1.0, 0.0).truncation_depth == 0
    # |p|^(2l) < 1e-18 needs l ~ 59 at p = 0.7 and 2062 at 0.99; at most one spare term kept,
    # with no cap up to the nome limit
    for p in (0.7, 0.99, -0.99):
        depth = ThetaEvaluator(1.0, p).truncation_depth
        assert abs(p) ** (2 * depth) < 1e-18
        assert abs(p) ** (2 * (depth - 2)) >= 1e-18
    assert ThetaEvaluator(1.0, 0.99).truncation_depth == 2063


def bracket_from_product(zs, alpha, p):
    """Oracle: the product form of the bracket at each z in 40-digit arithmetic, run until p^(2l) < 1e-45."""
    with mpmath.workdps(40):
        half = mpmath.mpf(alpha) / 2
        cosines = [mpmath.cos(2 * half * z) for z in zs]
        factors = [mpmath.mpf(1)] * len(zs)
        p2, pl, den = mpmath.mpf(p) ** 2, mpmath.mpf(1), mpmath.mpf(1)
        while pl > mpmath.mpf("1e-45"):
            pl *= p2
            den *= (1 - pl) ** 2
            factors = [f * (1 - 2 * pl * c + pl * pl) for f, c in zip(factors, cosines)]
        return [float(mpmath.sin(half * z) / half * f / den) for z, f in zip(zs, factors)]


@pytest.mark.parametrize("p", [0.95, 0.98, 0.99, -0.99])
def test_product_is_exact_up_to_the_nome_cap(p):
    # the depth rule holds at every nome: no cap on the number of factors
    alpha = 2 * math.pi / (4 * 0.7 + 4)
    ev = ThetaEvaluator(alpha, p)
    zs = (0.3, 1.0, 2.7, 4.4)
    for z, reference in zip(zs, bracket_from_product(zs, alpha, p)):
        assert abs(ev.bracket(z) - reference) <= 1e-12 * abs(reference)
        assert abs(ev.bracket_array(z) - reference) <= 1e-12 * abs(reference)


def test_zero_argument_detection():
    ev = ThetaEvaluator(ALPHA, 0.6)
    assert ev.is_zero_argument(0.0)
    assert ev.is_zero_argument(ev.period)
    assert ev.is_zero_argument(-2 * ev.period + 1e-13)
    assert not ev.is_zero_argument(0.5)


def test_evaluator_is_immutable():
    ev = ThetaEvaluator(1.0, 0.2)
    with pytest.raises(AttributeError):
        ev.alpha = 2.0
