"""Bounded-partition combinatorics.

Partitions are plain tuples of weakly decreasing positive integers with
trailing zeros trimmed away; the empty partition is ``()``.  The functions
here enumerate the lattice of partitions fitting inside an ``n x m`` box,
manipulate vertical strips, and tabulate their moves and the cyclic rotation
of the box.  ``LatticeBasis`` holds the box as arrays, which the rest of the
package reads; tuples serve as labels only.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, combinations_with_replacement
from typing import NamedTuple

import numpy as np

__all__ = [
    "trim",
    "pad",
    "weight",
    "MoveArrays",
    "Rotation",
    "LatticeBasis",
    "enumerate_lattice",
    "vertical_strips",
    "add_strip",
]


def trim(parts) -> tuple[int, ...]:
    """Drop trailing zeros."""
    parts = tuple(parts)
    end = len(parts)
    while end > 0 and parts[end - 1] == 0:
        end -= 1
    return parts[:end]


def pad(lam, length: int) -> tuple[int, ...]:
    """Zero-pad a partition to the given length."""
    lam = trim(lam)
    if len(lam) > length:
        raise ValueError(f"partition {lam} has more than {length} parts")
    return lam + (0,) * (length - len(lam))


def weight(lam) -> int:
    return sum(lam)


class MoveArrays(NamedTuple):
    """The moves of one strip size with a dominant target, as integer arrays.

    Rows run over source basis points in basis order and, for each source,
    over its strips in ``vertical_strips`` order.  ``strip`` has one 0/1 row
    of length n+1 per move; ``target`` is the basis index of the reduced
    target, -1 off the box.
    """

    source: np.ndarray
    strip: np.ndarray
    target: np.ndarray


class Rotation(NamedTuple):
    """R(lam) = (m - lam_n, lam_1 - lam_n, ..., lam_{n-1} - lam_n), the rotation of the affine
    Dynkin labels: ``powers[j, i]`` is the index of R^j of point i, j = 0..n; ``representatives``
    is the smallest index of each orbit, ascending, and ``orbit_sizes`` its size, dividing n+1."""

    powers: np.ndarray
    representatives: np.ndarray
    orbit_sizes: np.ndarray


@dataclass(frozen=True)
class LatticeBasis:
    """Deterministically ordered basis of the partitions inside an n x m box.

    The order is graded by weight, with ties broken by descending
    lexicographic comparison of the zero-padded parts, so matrix indices are
    stable across runs.
    """

    n: int
    m: int
    order: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.order)

    @cached_property
    def move_arrays(self) -> dict:
        """The move table: ``MoveArrays`` keyed by strip size 1..n+1, built once per box."""
        n, parts = self.n, self.parts
        arrays = {}
        for r in range(1, n + 2):
            strips = np.array(vertical_strips(r, n), dtype=np.intp)
            mu = parts[:, None, :] + strips[None, :, :]
            source, which = np.nonzero(np.all(mu[:, :, :-1] >= mu[:, :, 1:], axis=2))
            mu = mu[source, which]
            reduced = mu[:, :n] - mu[:, n:]
            inside = reduced[:, 0] <= self.m
            target = np.full(len(source), -1, dtype=np.intp)
            target[inside] = self.indices(reduced[inside])
            arrays[r] = MoveArrays(source, strips[which], target)
        return arrays

    def box_moves(self, r: int) -> MoveArrays:
        """The moves of D_r, r = 1..n: those of ``move_arrays[r]`` whose target stays on the box.

        The size-(n+1) strip maps every point to itself with amplitude and
        Pieri coefficient exactly 1, so the identities between operators leave
        it out.  For r <= n no two strips from one point share a target, so
        D_r[s, t] is the amplitude of the one move s -> t.
        """
        if not 1 <= r <= self.n:
            raise ValueError(f"operator order {r} outside 1..{self.n}")
        moves = self.move_arrays[r]
        inside = moves.target >= 0
        return MoveArrays(*(a[inside] for a in moves))

    @cached_property
    def rotation(self) -> Rotation:
        """The cyclic rotation of the box (``Rotation``), built once per box."""
        n, parts = self.n, self.parts
        last = parts[:, n - 1 : n]
        rotated = self.indices(np.hstack([self.m - last, parts[:, : n - 1] - last]))
        powers = [np.arange(len(self))]
        for _ in range(n):
            powers.append(rotated[powers[-1]])
        powers = np.array(powers)
        (reps,) = np.nonzero(np.min(powers, axis=0) == powers[0])
        # R^j fixes a point for (n+1)/s of the j = 0..n, s the size of its orbit
        sizes = (n + 1) // np.sum(powers[:, reps] == reps, axis=0)
        return Rotation(powers, reps, sizes)

    def indices(self, rows: np.ndarray) -> np.ndarray:
        """Basis indices of the points whose first n parts, which tell basis points apart, are the rows."""
        shape = (self.m + 1,) * self.n
        codes = np.ravel_multi_index(self.parts[:, : self.n].T, shape)
        sorter = np.argsort(codes)
        return sorter[np.searchsorted(codes, np.ravel_multi_index(rows.T, shape), sorter=sorter)]

    @cached_property
    def parts(self) -> np.ndarray:
        """Integer matrix of the parts zero-padded to length n+1, one row per basis point."""
        return np.array([pad(lam, self.n + 1) for lam in self.order], dtype=np.intp)


def enumerate_lattice(n: int, m: int) -> LatticeBasis:
    """Enumerate all partitions with at most n parts, each of size at most m."""
    if not (isinstance(n, int) and isinstance(m, int)) or n < 1 or m < 1:
        raise ValueError(f"lattice shape requires integers n >= 1, m >= 1, got ({n}, {m})")
    found = [trim(sorted(c, reverse=True)) for c in combinations_with_replacement(range(m + 1), n)]
    found.sort(key=lambda lam: (weight(lam), tuple(-x for x in pad(lam, n))))
    return LatticeBasis(n=n, m=m, order=tuple(found))


def vertical_strips(r: int, n: int) -> list[tuple[int, ...]]:
    """All 0/1 masks of length n+1 with exactly r ones."""
    if not 1 <= r <= n + 1:
        raise ValueError(f"strip size {r} outside 1..{n + 1}")
    masks = []
    for ones in combinations(range(n + 1), r):
        mask = [0] * (n + 1)
        for j in ones:
            mask[j] = 1
        masks.append(tuple(mask))
    return masks


def add_strip(lam, strip) -> tuple[tuple[int, ...], bool]:
    """Add a 0/1 strip to a partition.

    Returns the resulting composition (zero-padded to the strip length) and a
    flag telling whether it is weakly decreasing.
    """
    padded = pad(lam, len(strip))
    mu = tuple(x + t for x, t in zip(padded, strip))
    dominant = all(mu[j] >= mu[j + 1] for j in range(len(mu) - 1))
    return mu, dominant
