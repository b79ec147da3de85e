"""Rescaled theta bracket.

The bracket ``[z]`` is the odd theta quotient normalized so that
``[z] = z + O(z^3)`` near the origin.  It is computed from the canceled
product form

    [z] = sin(alpha*z/2)/(alpha/2) * prod_{l>=1} (1 - 2 p^{2l} cos(alpha z) + p^{4l}) / (1 - p^{2l})^2,

which involves only even powers of the nome, so negative nomes are supported
on the same footing as positive ones.  At ``p = 0`` the product is empty and
the bracket degenerates to the plain sine quotient.

Every production path reads its brackets from ``bracket_array`` and
``is_zero_array``.  The scalar ``bracket`` and ``is_zero_argument`` are the
references they are tested against, and serve the scalar functions of ``coeffs``.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["NOME_CAP", "ThetaEvaluator"]

_TERM_EPS = 1e-18
_ZERO_ARG_TOL = 1e-12
# the largest |p| any parameter point may take
NOME_CAP = 0.99


@dataclass(frozen=True)
class ThetaEvaluator:
    """Evaluator for the rescaled theta bracket at fixed scaling and nome.

    Parameters
    ----------
    alpha : float
        Positive scaling; the bracket vanishes exactly on multiples of
        ``2*pi/alpha``.
    nome : float
        Elliptic nome, |nome| <= 0.99.

    Instances are immutable and evaluation is a pure function of the
    argument, so they are safe to share across threads.
    """

    alpha: float
    nome: float

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if abs(self.nome) > NOME_CAP:
            raise ValueError(f"|nome| = {abs(self.nome)} exceeds the cap {NOME_CAP}")

    @cached_property
    def period(self) -> float:
        return 2.0 * math.pi / self.alpha

    @cached_property
    def truncation_depth(self) -> int:
        # retain product terms until |p|^{2l} < 1e-18: none at p = 0, 2063 of them at |p| = 0.99
        return 0 if self.nome == 0.0 else 1 + math.ceil(0.5 * math.log(_TERM_EPS) / math.log(abs(self.nome)))

    def bracket(self, z: float) -> float:
        """Value of [z]; real for real z, odd in z.  The scalar reference for ``bracket_array``."""
        half = 0.5 * self.alpha
        value = math.sin(half * z) / half
        if self.truncation_depth:
            p2 = self.nome * self.nome
            c = math.cos(self.alpha * z)
            pl = 1.0
            for _ in range(self.truncation_depth):
                pl *= p2
                value *= (1.0 - 2.0 * pl * c + pl * pl) / ((1.0 - pl) * (1.0 - pl))
        return value

    def bracket_array(self, z) -> np.ndarray:
        """[z] elementwise over an array, with the product form and depth of ``bracket``."""
        z = np.asarray(z, dtype=float)
        half = 0.5 * self.alpha
        value = np.sin(half * z) / half
        if self.truncation_depth:
            p2 = self.nome * self.nome
            c = np.cos(self.alpha * z)
            pl = 1.0
            for _ in range(self.truncation_depth):
                pl *= p2
                value *= (1.0 - 2.0 * pl * c + pl * pl) / ((1.0 - pl) * (1.0 - pl))
        return value

    def is_zero_argument(self, z: float) -> bool:
        """True when z lies within _ZERO_ARG_TOL of a zero of the bracket (a multiple of the period)."""
        nearest = self.period * round(z / self.period)
        return abs(z - nearest) < _ZERO_ARG_TOL

    def is_zero_array(self, z) -> np.ndarray:
        """Elementwise ``is_zero_argument``; np.round, like round, rounds half to even."""
        z = np.asarray(z, dtype=float)
        return np.abs(z - self.period * np.round(z / self.period)) < _ZERO_ARG_TOL

