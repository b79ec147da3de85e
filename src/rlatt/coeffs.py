"""Model parameters and the coefficient data of the lattice model.

Everything downstream is built from four families of numbers indexed by
partitions in the n x m box: hopping amplitudes, their Pieri-normalized
variants, the positive lattice weights defining the inner product, and the
eigenfunction normalization constants.

Each family has one evaluator, over a whole box as arrays: ``hop_amplitudes``,
``box_pieri_coefficients``, ``weight_vector`` and ``norm_vector``.  Part
differences in the box lie in 0..m, so every bracket they need is read from
the small tables of ``ModelParams.brackets``, evaluated once per point.
``hop_coefficient`` and ``pieri_coefficient`` evaluate one move with the
scalar bracket; nothing in the package calls them: they are test references.
"""

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .elliptic import NOME_CAP, ThetaEvaluator
from .errors import TruncationViolationError
from .partitions import LatticeBasis, MoveArrays, pad, trim

__all__ = [
    "BoxBrackets",
    "ModelParams",
    "hop_coefficient",
    "hop_amplitudes",
    "move_amplitudes",
    "pieri_coefficient",
    "box_pieri_coefficients",
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
    ``alpha_override``, finite and positive, replaces it only to probe
    behaviour off that regime (the CLI sets it to ``--alpha-scale`` times the
    locked value, to demonstrate failures); leave it ``None`` in library use.
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
        if not abs(self.p) <= NOME_CAP:
            raise ValueError(f"|p| = {abs(self.p)} is not within the supported cap {NOME_CAP}")
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"scaling alpha must be finite and positive, got {self.alpha}")

    @property
    def alpha(self) -> float:
        if self.alpha_override is not None:
            return self.alpha_override
        return 2.0 * math.pi / ((self.n + 1) * self.g + self.m)

    @property
    def q(self) -> complex:
        return cmath.exp(1j * self.alpha)

    @property
    def t(self) -> complex:
        return cmath.exp(1j * self.alpha * self.g)

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
            # the product form is elementwise, so one call serves both tables
            values = th.bracket_array(np.concatenate([shifted_args.ravel(), low_args.ravel()]))
            shifted = values[: shifted_args.size].reshape(shifted_args.shape)
            return BoxBrackets(
                shifted,
                th.is_zero_array(shifted_args),
                _rising_products(shifted[:, :-1]),
                _rising_products(values[shifted_args.size :].reshape(low_args.shape)),
            )


def _pair_range(n1: int):
    """Pairs j < k of 0..n1-1 in row-major order, the order of every product over pairs."""
    for j in range(n1):
        for k in range(j + 1, n1):
            yield j, k


def hop_coefficient(lam, strip, params: ModelParams) -> float:
    """Amplitude of the hop from lam along a 0/1 strip: the scalar reference for ``hop_amplitudes``.

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


def hop_amplitudes(basis: LatticeBasis, moves: MoveArrays, params: ModelParams) -> np.ndarray:
    """``hop_coefficient`` at the source and strip of each of ``moves``, a move table of ``basis``, in order."""
    return move_amplitudes(basis, params, moves.source, basis.numerators(moves.source, moves.strip))


def move_amplitudes(basis: LatticeBasis, params: ModelParams, source: np.ndarray, numerators: np.ndarray) -> np.ndarray:
    """The hop amplitudes of the moves from ``source`` whose numerators are ``LatticeBasis.numerators``.

    Raises TruncationViolationError when a denominator falls below DENOM_TOL
    at any basis point, and gives exactly 0.0 wherever a numerator bracket
    sits on a zero, which includes every move off the box.  The pair factors
    are multiplied one pair at a time, in pair order.
    """
    table = params.brackets
    j, k, dist, diffs = basis.pairs
    den = table.shifted[dist, diffs]
    bad = np.abs(den) < DENOM_TOL
    if bad.any():
        row, pair = np.argwhere(bad)[0]
        raise TruncationViolationError(
            f"hop denominator vanished at pair ({j[pair] + 1},{k[pair] + 1}) for lam={basis.order[row]}"
        )
    vanished = table.on_zero.take(numerators)
    ratios = np.where(vanished, 1.0, table.shifted.take(numerators) / den[source])
    value = np.ones(len(source))
    for column in ratios.T:
        value *= column
    return np.where(vanished.any(axis=1), 0.0, value)


def pieri_coefficient(lam, strip, params: ModelParams) -> float:
    """Pieri-normalized hop amplitude for nu = lam + strip: the scalar reference for ``box_pieri_coefficients``.

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


def _pieri_terms(basis: LatticeBasis, r: int, params: ModelParams):
    """Sources, targets and Pieri coefficients of the size-r moves on the box, in table order, and errors.

    The coefficient of lam -> nu = lam + strip is the product form of
    ``pieri_coefficient``: over the pairs j < k with strip_k - strip_j = 1,
    [nu_jk + g(k-j+1)] / [nu_jk + g(k-j)] times [lam_jk + g(k-j-1)] / [lam_jk + g(k-j)],
    x_jk = x_j - x_k; exactly 0.0 where a numerator sits on a zero.  The
    errors map each move with a denominator below DENOM_TOL to the message
    ``pieri_coefficient`` raises for it.
    """
    source, strip, target = basis.hop_table(r)[:3]
    table = params.brackets
    j, k, dist, diffs = basis.pairs
    lam = diffs[source]
    inverted = (strip[:, k] - strip[:, j] == 1)[..., None]
    # the nu factor, then the lam factor, of each pair; nu_jk = lam_jk - 1 >= 0 on an
    # inverted pair, since nu is dominant
    base = np.stack([lam - 1, lam], axis=-1)
    den = table.shifted[dist[:, None], base]
    num_rows = dist[:, None] + np.array([1, -1])
    vanished = inverted & table.on_zero[num_rows, base]
    errors = {}
    # argwhere runs in C order, so each move keeps its first vanished denominator
    for move, pair, _ in np.argwhere(inverted & (np.abs(den) < DENOM_TOL)).tolist():
        where = f"pair ({j[pair] + 1},{k[pair] + 1}) for lam={basis.order[source[move]]}"
        errors.setdefault(move, f"Pieri denominator vanished at {where}")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(inverted & ~vanished, table.shifted[num_rows, base] / den, 1.0)
    value = np.ones(len(source))
    for column in ratios.reshape(len(source), -1).T:
        value *= column
    return source, target, np.where(vanished.any(axis=(1, 2)), 0.0, value), errors


def box_pieri_coefficients(basis: LatticeBasis, r: int, params: ModelParams):
    """``_pieri_terms`` without the errors; raises the first one as TruncationViolationError.

    Not computed as D_r[s, t] c_t / c_s: the psi-consistency check compares the two.
    """
    source, target, psi, errors = _pieri_terms(basis, r, params)
    if errors:
        raise TruncationViolationError(errors[min(errors)])
    return source, target, psi


def _box_product(basis: LatticeBasis, factors, bad: np.ndarray, what: str, name: str, label: str) -> np.ndarray:
    """Row products of the per-pair factors, with the guards of the weights and norm constants.

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
            j, k, _, _ = basis.pairs
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
    """Positive weight of each basis point in the discrete inner product, in basis order.

    Over the pairs j < k, with d = k - j and l = lam_j - lam_k, the product of
    [l + d g] / [d g] times [(d+1)g]_l / [1 + (d-1)g]_l, [z]_l = [z][z+1]...[z+l-1].
    """
    table = params.brackets
    _, _, dist, diffs = basis.pairs
    den = table.shifted[dist, 0]
    den_f = table.rising_low[dist - 1, diffs]
    bad = (np.abs(den) < DENOM_TOL) | (np.abs(den_f) < DENOM_TOL)
    with np.errstate(divide="ignore", invalid="ignore"):
        shifted = table.shifted[dist, diffs] / den
        factorial = table.rising[dist + 1, diffs] / den_f
    return _box_product(basis, (shifted, factorial), bad, "weight", "lam", "weight")


def norm_vector(basis: LatticeBasis, params: ModelParams) -> np.ndarray:
    """Constants relating eigenfunction values to the monic polynomials: prod_{j<k} [d g]_l / [(d+1) g]_l.

    Here d = k - j and l = mu_j - mu_k, as in ``weight_vector``; in basis order.
    """
    table = params.brackets
    _, _, dist, diffs = basis.pairs
    den_f = table.rising[dist + 1, diffs]
    with np.errstate(divide="ignore", invalid="ignore"):
        factorial = table.rising[dist, diffs] / den_f
    return _box_product(basis, (factorial,), np.abs(den_f) < DENOM_TOL, "norm", "mu", "norm constant")
