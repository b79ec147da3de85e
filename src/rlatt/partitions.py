"""Bounded-partition combinatorics.

Partitions are plain tuples of weakly decreasing positive integers with
trailing zeros trimmed away; the empty partition is ``()``.  The functions
here enumerate the lattice of partitions fitting inside an ``n x m`` box,
manipulate vertical strips, and tabulate their moves and the cyclic rotation
of the box.  ``LatticeBasis`` holds the box as arrays, which the rest of the
package reads, with the per-box tables of the coefficients and the joint
solve; tuples serve as labels only.
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
    "HopTable",
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


class HopTable(NamedTuple):
    """The moves s -> t along e of D_r that stay on the box (``LatticeBasis.hop_table``), the ``numerators``
    of their amplitudes (``forward``) and of those of t -> s along 1 - e (``reverse``)."""

    source: np.ndarray
    strip: np.ndarray
    target: np.ndarray
    forward: np.ndarray
    reverse: np.ndarray


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

    @cached_property
    def pairs(self) -> tuple:
        """The pairs j < k of 0..n in row-major order, the order of every product over pairs, their
        distances k - j, and lam_j - lam_k per basis point (one row each), built once per box."""
        j, k = np.triu_indices(self.n + 1, 1)
        return j, k, k - j, self.parts[:, j] - self.parts[:, k]

    def numerators(self, source: np.ndarray, strip: np.ndarray) -> np.ndarray:
        """Flat indices into the (n+2) x (m+1) table [l + e g] of [lam_jk + g(k - j + e_j - e_k)] per move and pair."""
        j, k, dist, diffs = self.pairs
        return (dist + strip[:, j] - strip[:, k]) * (self.m + 1) + diffs[source]

    def hop_table(self, r: int) -> HopTable:
        """The ``HopTable`` of D_r, r = 1..n: the moves of ``move_arrays[r]`` whose target stays on the box.

        The size-(n+1) strip maps every point to itself with amplitude and
        Pieri coefficient exactly 1, so the identities between operators leave
        it out.  For r <= n no two strips from one point share a target, so
        D_r[s, t] is the amplitude of the one move s -> t.
        """
        if not 1 <= r <= self.n:
            raise ValueError(f"operator order {r} outside 1..{self.n}")
        moves = self.move_arrays[r]
        s, e, t = (a[moves.target >= 0] for a in moves)
        return HopTable(s, e, t, self.numerators(s, e), self.numerators(t, 1 - e))

    @cached_property
    def sector_plan(self) -> tuple:
        """What the joint solve reads of the box at any nome, built once with array operations only: the
        ``HopTable`` of r = 1..ceil(n/2); per order, the places of its moves (s, t), then of (R^-1 s, R^-1 t),
        in the union of the supports of M_r and R^T M_r R; and per solved sector k = 0..floor((n+1)/2) its
        orbits and, per entry of its blocks B_1..B_n (n x L x L), the move (in the tables, concatenated) whose
        value it takes, its flat position and its factor sqrt(s_a / s_b) omega^(jk), real where omega^k = +-1."""
        n, half = self.n, (self.n + 1) // 2
        powers, reps, sizes = self.rotation
        orders = tuple(self.hop_table(r) for r in range(1, half + 1))
        back = powers[n]  # R^n = R^-1
        codes = [np.append(h.source, back[h.source]) * len(self) + np.append(h.target, back[h.target]) for h in orders]
        unions = tuple(np.unique(c, return_inverse=True)[1] for c in codes)
        # the orbit of each point, and the j < s_a with R^j a = point for its least point a
        orbit = np.searchsorted(reps, np.min(powers, axis=0))
        shift = -np.argmin(powers, axis=0) % sizes[orbit]
        # M_{i+1} (operator index i) on the moves of order i + 1 and M_{n-i} = M_{i+1}^T on them
        # reversed, unless n - i = i + 1; the blocks read the entries a -> t = R^j b from a representative a
        src, tgt = (np.concatenate(ends) for ends in zip(*[(h.source, h.target) for h in orders]))
        order = np.repeat(np.arange(half), [len(h.source) for h in orders])
        flip = order < n - 1 - order
        move, op = np.append(np.arange(len(src)), np.flatnonzero(flip)), np.append(order, n - 1 - order[flip])
        src, tgt = np.append(src, tgt[flip]), np.append(tgt, src[flip])
        (keep,) = np.nonzero(shift[src] == 0)
        move, op, a, b, j = move[keep], op[keep], orbit[src[keep]], orbit[tgt[keep]], shift[tgt[keep]]
        # B_k[a, b] = sqrt(s_a / s_b) sum_j omega^(jk) M_r[a, R^j b] over j < s_b
        scale, sectors = np.sqrt(sizes[a] / sizes[b]), []
        for k in range(half + 1):
            inside = k * sizes % (n + 1) == 0
            position, size = np.cumsum(inside) - 1, np.count_nonzero(inside)
            keep = inside[a] & inside[b]
            flat = (op[keep] * size + position[a[keep]]) * size + position[b[keep]]
            phased = scale[keep] * np.exp(2j * np.pi * (j[keep] * k % (n + 1)) / (n + 1))
            sectors.append((np.flatnonzero(inside), move[keep], flat, phased.real if 2 * k % (n + 1) == 0 else phased))
        return orders, unions, sectors

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
