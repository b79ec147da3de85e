from itertools import product
from math import comb

import numpy as np
import pytest

from rlatt.partitions import add_strip, enumerate_lattice, trim, vertical_strips, weight
from scalar_reference import (
    dominance_leq,
    min_column,
    partition_to_weight,
    positions,
    reduce_partition,
    weight_to_partition,
)


def test_enumerate_small_cases():
    assert enumerate_lattice(1, 1).order == ((), (1,))
    assert enumerate_lattice(2, 1).order == ((), (1,), (1, 1))
    assert len(enumerate_lattice(2, 2)) == 6


@pytest.mark.parametrize("n,m", list(product(range(1, 7), range(1, 7))))
def test_enumerate_counts(n, m):
    assert len(enumerate_lattice(n, m)) == comb(n + m, n)


def test_enumerate_order_is_graded_and_indexed():
    basis = enumerate_lattice(3, 3)
    weights = [weight(lam) for lam in basis.order]
    assert weights == sorted(weights)
    for w in set(weights):
        block = [lam + (0,) * (3 - len(lam)) for lam in basis.order if weight(lam) == w]
        assert block == sorted(block, reverse=True)
    assert basis.indices(basis.parts[:, :3]).tolist() == list(range(len(basis)))


def test_enumerate_rejects_bad_shapes():
    with pytest.raises(ValueError):
        enumerate_lattice(0, 2)
    with pytest.raises(ValueError):
        enumerate_lattice(2, 0)


def test_reduce_examples():
    assert reduce_partition((2, 1, 1), 2) == (1,)
    assert reduce_partition((1, 1), 1) == ()
    assert reduce_partition((3, 2), 3) == (3, 2)
    with pytest.raises(ValueError):
        reduce_partition((1, 1, 1, 1), 2)


def test_strips():
    assert vertical_strips(1, 1) == [(1, 0), (0, 1)]
    assert len(vertical_strips(2, 2)) == 3
    assert vertical_strips(3, 2) == [(1, 1, 1)]
    with pytest.raises(ValueError):
        vertical_strips(0, 2)
    with pytest.raises(ValueError):
        vertical_strips(4, 2)


def test_add_strip_examples():
    assert add_strip((), (1, 0)) == ((1, 0), True)
    assert add_strip((), (0, 1)) == ((0, 1), False)
    assert add_strip((1,), (0, 1)) == ((1, 1), True)


def test_dominance_examples():
    assert dominance_leq((1, 1), (2,), 2)
    assert not dominance_leq((), (1,), 1)  # corrected sum is -1/2, not an integer
    for lam in enumerate_lattice(2, 2).order:
        assert dominance_leq(lam, lam, 2)


def test_dominance_is_partial_order_on_box_22():
    basis = enumerate_lattice(2, 2).order
    for lam, mu in product(basis, repeat=2):
        if dominance_leq(lam, mu, 2) and dominance_leq(mu, lam, 2):
            assert lam == mu
        if dominance_leq(lam, mu, 2):
            # comparability forces equal weights mod n+1
            assert (weight(lam) - weight(mu)) % 3 == 0
    for lam, mu, nu in product(basis, repeat=3):
        if dominance_leq(lam, mu, 2) and dominance_leq(mu, nu, 2):
            assert dominance_leq(lam, nu, 2)


def test_dominance_validates_inputs():
    with pytest.raises(ValueError):
        dominance_leq((1, 1, 1), (1,), 2)
    with pytest.raises(ValueError):
        dominance_leq((1, 2), (1,), 2)


def test_min_column():
    assert min_column((2, 2, 1)) == 2
    assert min_column(()) == 0
    assert min_column((1, 1)) == 2
    assert min_column((3,)) == 1


def test_min_column_strip_is_removable():
    for n, m in ((2, 2), (3, 2), (3, 3)):
        basis = enumerate_lattice(n, m)
        for mu in basis.order:
            if not mu:
                continue
            r = min_column(mu)
            lam = trim(tuple(x - 1 for x in mu[:r]) + mu[r:])
            assert lam in basis.order


def test_weight_bijection():
    assert weight_to_partition((1, 0)) == (1,)
    assert weight_to_partition((0, 1)) == (1, 1)
    assert partition_to_weight((1,), 2) == (1, 0)
    with pytest.raises(ValueError):
        partition_to_weight((1, 2), 2)
    with pytest.raises(ValueError):
        weight_to_partition((1, -1))
    for n, m in ((2, 2), (3, 3)):
        for lam in enumerate_lattice(n, m).order:
            assert weight_to_partition(partition_to_weight(lam, n)) == lam


def test_add_strip_reduce_closure():
    for n, m in ((2, 2), (3, 2)):
        basis = enumerate_lattice(n, m)
        for lam in basis.order:
            for r in range(1, n + 2):
                for strip in vertical_strips(r, n):
                    mu, dominant = add_strip(lam, strip)
                    if not dominant:
                        continue
                    red = reduce_partition(mu, n)
                    # the reduction is always a partition; it may or may not
                    # stay inside the box
                    assert red == trim(red)
                    assert all(red[j] >= red[j + 1] for j in range(len(red) - 1))


@pytest.mark.parametrize("n,m", [(1, 1), (2, 3), (3, 4), (4, 2), (1, 8), (5, 5), (4, 8)])
def test_move_table_matches_enumeration(n, m):
    basis = enumerate_lattice(n, m)
    table = basis.move_arrays
    index = positions(basis)
    assert sorted(table) == list(range(1, n + 2))
    for r in range(1, n + 2):
        expected = []
        for i, lam in enumerate(basis.order):
            for strip in vertical_strips(r, n):
                mu, dominant = add_strip(lam, strip)
                if dominant:
                    expected.append((i, strip, index.get(reduce_partition(mu, n), -1)))
        moves = table[r]
        found = zip(moves.source.tolist(), map(tuple, moves.strip.tolist()), moves.target.tolist())
        assert list(found) == expected
        assert moves.strip.shape == (len(expected), n + 1)
    targets = np.concatenate([moves.target for moves in table.values()])
    assert (targets < 0).any() and (targets >= 0).any()
    assert basis.move_arrays is table
    assert [tuple(row) for row in basis.parts.tolist()] == [lam + (0,) * (n + 1 - len(lam)) for lam in basis.order]
