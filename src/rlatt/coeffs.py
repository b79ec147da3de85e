"""Model parameters and the scalar coefficient data of the lattice model.

Everything downstream is built from four families of numbers indexed by
partitions in the n x m box: hopping amplitudes, their Pieri-normalized
variants, the positive lattice weights defining the inner product, and the
eigenfunction normalization constants.

The scalar functions evaluate one partition or one move; ``hop_amplitudes``,
``weight_vector`` and ``norm_vector`` evaluate the same products as arrays
over a whole box, factor by factor in the same order.  They read their
brackets from ``ModelParams.brackets``: part differences in the box lie in
0..m, so every bracket they need is one of a few small tables, evaluated
once per parameter point.
"""

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .elliptic import ThetaEvaluator
from .errors import TruncationViolationError
from .partitions import LatticeBasis, pad, trim

__all__ = [
    "BoxBrackets",
    "ModelParams",
    "hop_coefficient",
    "hop_amplitudes",
    "pieri_coefficient",
    "box_pieri_coefficients",
    "lattice_weight",
    "norm_constant",
    "weight_vector",
    "norm_vector",
]

DENOM_TOL = 1e-13


def _rising_products(table: np.ndarray) -> np.ndarray:
    """Row-wise products: column c holds table[:, 0] * ... * table[:, c-1], in that order; 1 for c = 0."""
    return np.cumprod(np.concatenate([np.ones((len(table), 1)), table], axis=1), axis=1)


class BoxBrackets(NamedTuple):
    """The brackets of one parameter point that the box arrays are built from.

    Row e and column l of ``shifted`` hold [l + e*g] for e = 0..n+1 and
    l = 0..m, and ``on_zero`` tells whether that argument sits on a zero of
    the bracket.  ``rising`` holds the elliptic factorials of the same rows,
    [e*g][e*g + 1]...[e*g + l - 1], and ``rising_low`` those starting at
    1 + e*g for e = 0..n-1.
    """

    shifted: np.ndarray
    on_zero: np.ndarray
    rising: np.ndarray
    rising_low: np.ndarray


@dataclass(frozen=True)
class ModelParams:
    """Single source of truth for (n, m, g, p) and the derived quantities.

    The scaling alpha is locked to 2*pi/((n+1)*g + m), which is exactly the
    choice that makes hops off the bounded lattice carry zero amplitude.
    ``alpha_override`` exists only to probe behaviour off that regime (the
    verification suite uses it to demonstrate failures); leave it ``None``
    for all normal use.
    """

    n: int
    m: int
    g: float
    p: float = 0.0
    alpha_override: float | None = None

    def __post_init__(self):
        if not (isinstance(self.n, int) and isinstance(self.m, int)) or self.n < 1 or self.m < 1:
            raise ValueError(f"need integers n >= 1, m >= 1, got ({self.n}, {self.m})")
        if not 0 < self.g < math.inf:
            raise ValueError(f"coupling g must be finite and positive, got {self.g}")
        if not abs(self.p) <= 0.99:
            raise ValueError(f"|p| = {abs(self.p)} is not within the supported cap 0.99")

    @property
    def alpha(self) -> float:
        if self.alpha_override is not None:
            return self.alpha_override
        return 2.0 * math.pi / ((self.n + 1) * self.g + self.m)

    @property
    def period(self) -> float:
        """2*pi/alpha, the first positive zero of the bracket."""
        return 2.0 * math.pi / self.alpha

    @property
    def q(self) -> complex:
        return cmath.exp(1j * self.alpha)

    @property
    def t(self) -> complex:
        return cmath.exp(1j * self.alpha * self.g)

    def q_pow(self, x: float) -> complex:
        """q**x = exp(i*alpha*x) for real exponents, branch-free."""
        return cmath.exp(1j * self.alpha * x)

    @cached_property
    def theta(self) -> ThetaEvaluator:
        return ThetaEvaluator(self.alpha, self.p)

    @cached_property
    def brackets(self) -> BoxBrackets:
        """Bracket tables of this parameter point, evaluated on first use."""
        th = self.theta
        shifted_args = np.arange(self.m + 1) + self.g * np.arange(self.n + 2)[:, None]
        low_args = (1.0 + self.g * np.arange(self.n)[:, None]) + np.arange(self.m)
        with np.errstate(over="ignore", invalid="ignore"):
            shifted = th.bracket_array(shifted_args)
            return BoxBrackets(
                shifted,
                th.is_zero_array(shifted_args),
                _rising_products(shifted[:, :-1]),
                _rising_products(th.bracket_array(low_args)),
            )


def _pair_range(n1: int):
    for j in range(n1):
        for k in range(j + 1, n1):
            yield j, k


def hop_coefficient(lam, strip, params: ModelParams) -> float:
    """Amplitude of the hop from lam along a 0/1 strip.

    Defined for any strip; the value is exactly 0.0 whenever the target
    composition fails to be weakly decreasing or its reduction leaves the
    bounded lattice, because a numerator bracket then sits on a zero.
    """
    n1 = params.n + 1
    if len(strip) != n1:
        raise ValueError(f"strip must have length {n1}, got {len(strip)}")
    lam_p = pad(lam, n1)
    th = params.theta
    g = params.g
    value = 1.0
    vanished = False
    for j, k in _pair_range(n1):
        dl = lam_p[j] - lam_p[k]
        den = th.bracket(dl + g * (k - j))
        if abs(den) < DENOM_TOL:
            raise TruncationViolationError(
                f"hop denominator vanished at pair ({j + 1},{k + 1}) for lam={trim(lam)}"
            )
        num_arg = dl + g * (k - j + strip[j] - strip[k])
        if th.is_zero_argument(num_arg):
            vanished = True
            continue
        value *= th.bracket(num_arg) / den
    return 0.0 if vanished else value


def _pair_differences(basis: LatticeBasis):
    """Pairs j < k in ``_pair_range`` order, their distances k - j, and lam_j - lam_k per basis point."""
    j, k = np.triu_indices(basis.n + 1, 1)
    return j, k, k - j, basis.parts[:, j] - basis.parts[:, k]


def hop_amplitudes(basis: LatticeBasis, r: int, params: ModelParams) -> np.ndarray:
    """``hop_coefficient`` of every move in ``basis.move_arrays[r]``, in table order.

    Raises TruncationViolationError when a denominator falls below DENOM_TOL
    at any basis point, and gives exactly 0.0 wherever a numerator bracket
    sits on a zero, which includes every move off the box.
    """
    moves = basis.move_arrays[r]
    table = params.brackets
    j, k, dist, diffs = _pair_differences(basis)
    den = table.shifted[dist, diffs]
    bad = np.abs(den) < DENOM_TOL
    if bad.any():
        row, pair = np.argwhere(bad)[0]
        raise TruncationViolationError(
            f"hop denominator vanished at pair ({j[pair] + 1},{k[pair] + 1}) for lam={basis.order[row]}"
        )
    offset = dist + moves.strip[:, j] - moves.strip[:, k]
    moved = diffs[moves.source]
    vanished = table.on_zero[offset, moved]
    ratios = np.where(vanished, 1.0, table.shifted[offset, moved] / den[moves.source])
    value = np.ones(len(moves.source))
    for column in ratios.T:
        value *= column
    return np.where(vanished.any(axis=1), 0.0, value)


def pieri_coefficient(lam, strip, params: ModelParams) -> float:
    """Pieri-normalized hop amplitude for nu = lam + strip.

    Equals the hop amplitude times the ratio of normalization constants of
    the reduced target and the source.
    """
    n1 = params.n + 1
    if len(strip) != n1:
        raise ValueError(f"strip must have length {n1}, got {len(strip)}")
    lam_p = pad(lam, n1)
    nu_p = tuple(x + s for x, s in zip(lam_p, strip))
    th = params.theta
    g = params.g
    value = 1.0
    vanished = False
    for j, k in _pair_range(n1):
        if strip[j] - strip[k] != -1:
            continue
        for base, shift in ((nu_p[j] - nu_p[k], 1), (lam_p[j] - lam_p[k], -1)):
            den = th.bracket(base + g * (k - j))
            if abs(den) < DENOM_TOL:
                raise TruncationViolationError(
                    f"Pieri denominator vanished at pair ({j + 1},{k + 1}) for lam={trim(lam)}"
                )
            num_arg = base + g * (k - j + shift)
            if th.is_zero_argument(num_arg):
                vanished = True
                continue
            value *= th.bracket(num_arg) / den
    return 0.0 if vanished else value


def box_pieri_coefficients(basis: LatticeBasis, r: int, params: ModelParams):
    """Sources, targets and ``pieri_coefficient`` values of the size-r moves that stay on the box.

    The moves come in ``basis.move_arrays[r]`` order.  The values are the
    scalar reference, so the checks that read them stay independent of the
    array amplitudes.
    """
    moves = basis.move_arrays[r]
    inside = moves.target >= 0
    source = moves.source[inside]
    strips = moves.strip[inside].tolist()
    psi = [pieri_coefficient(basis.order[s], tuple(strip), params) for s, strip in zip(source.tolist(), strips)]
    return source, moves.target[inside], np.array(psi)


def lattice_weight(lam, params: ModelParams) -> float:
    """Positive weight of a lattice point in the discrete inner product."""
    n1 = params.n + 1
    lam_p = pad(lam, n1)
    th = params.theta
    g = params.g
    value = 1.0
    for j, k in _pair_range(n1):
        dl = lam_p[j] - lam_p[k]
        den = th.bracket((k - j) * g)
        den_f = th.bracket_factorial(1.0 + (k - j - 1) * g, dl)
        if abs(den) < DENOM_TOL or abs(den_f) < DENOM_TOL:
            raise TruncationViolationError(
                f"weight denominator vanished at pair ({j + 1},{k + 1}) for lam={trim(lam)}"
            )
        value *= th.bracket(dl + (k - j) * g) / den
        value *= th.bracket_factorial((k - j + 1) * g, dl) / den_f
    if not 0.0 < value < math.inf:
        raise TruncationViolationError(
            f"weight of lam={trim(lam)} is {value}, not finite and positive: off the truncation regime"
        )
    return value


def norm_constant(mu, params: ModelParams) -> float:
    """Normalization constant relating eigenfunction values to the monic polynomials."""
    n1 = params.n + 1
    mu_p = pad(mu, n1)
    th = params.theta
    g = params.g
    value = 1.0
    for j, k in _pair_range(n1):
        dm = mu_p[j] - mu_p[k]
        den_f = th.bracket_factorial((k - j + 1) * g, dm)
        if abs(den_f) < DENOM_TOL:
            raise TruncationViolationError(
                f"norm denominator vanished at pair ({j + 1},{k + 1}) for mu={trim(mu)}"
            )
        value *= th.bracket_factorial((k - j) * g, dm) / den_f
    if not 0.0 < value < math.inf:
        raise TruncationViolationError(
            f"norm constant of mu={trim(mu)} is {value}, not finite and positive: off the truncation regime"
        )
    return value


def _box_product(basis: LatticeBasis, factors, bad: np.ndarray, what: str, name: str, label: str) -> np.ndarray:
    """Row products of the per-pair factors, guarded as the scalar functions guard them.

    The error names the first basis point, in basis order, with a vanishing
    denominator (``bad``, per pair) or a product that is not finite and positive.
    """
    value = np.ones(len(basis))
    with np.errstate(over="ignore", invalid="ignore"):
        for column in range(bad.shape[1]):
            for factor in factors:
                value *= factor[:, column]
    failed = bad.any(axis=1) | ~((0.0 < value) & (value < math.inf))
    if failed.any():
        row = int(np.argmax(failed))
        if bad[row].any():
            j, k, _, _ = _pair_differences(basis)
            pair = int(np.argmax(bad[row]))
            raise TruncationViolationError(
                f"{what} denominator vanished at pair ({j[pair] + 1},{k[pair] + 1}) for {name}={basis.order[row]}"
            )
        raise TruncationViolationError(
            f"{label} of {name}={basis.order[row]} is {value[row]}, not finite and positive: "
            "off the truncation regime"
        )
    return value


def weight_vector(basis: LatticeBasis, params: ModelParams) -> np.ndarray:
    """``lattice_weight`` over the whole basis, in basis order."""
    table = params.brackets
    _, _, dist, diffs = _pair_differences(basis)
    den = table.shifted[dist, 0]
    den_f = table.rising_low[dist - 1, diffs]
    bad = (np.abs(den) < DENOM_TOL) | (np.abs(den_f) < DENOM_TOL)
    with np.errstate(divide="ignore", invalid="ignore"):
        shifted = table.shifted[dist, diffs] / den
        factorial = table.rising[dist + 1, diffs] / den_f
    return _box_product(basis, (shifted, factorial), bad, "weight", "lam", "weight")


def norm_vector(basis: LatticeBasis, params: ModelParams) -> np.ndarray:
    """``norm_constant`` over the whole basis, in basis order."""
    table = params.brackets
    _, _, dist, diffs = _pair_differences(basis)
    den_f = table.rising[dist + 1, diffs]
    with np.errstate(divide="ignore", invalid="ignore"):
        factorial = table.rising[dist, diffs] / den_f
    return _box_product(basis, (factorial,), np.abs(den_f) < DENOM_TOL, "norm", "mu", "norm constant")
