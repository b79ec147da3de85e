"""The cyclic rotation R of the box and the sector-by-sector joint solve.

R rotates the n+1 affine Dynkin labels of a partition (Kac, Infinite-Dimensional
Lie Algebras, the rotation of the affine A_n diagram).  In the truncation
regime every weight-conjugated M_r commutes with it, so the joint eigenvectors
lie in its eigenspaces: the one labeled nu in sector k = -|nu| mod (n+1), where
v(R lam) = omega^k v(lam), omega = exp(2 pi i / (n+1)).
"""

import math
import re

import numpy as np
import pytest

from rlatt import spectral
from rlatt.coeffs import ModelParams
from rlatt.errors import DegenerateSpectrumError, TruncationViolationError
from rlatt.operators import symmetric_hop_operator, symmetric_hop_values
from rlatt.partitions import enumerate_lattice
from rlatt.report import run_verification
from rlatt.spectral import joint_diagonalize
from scalar_reference import dense_leakage, folded_blocks, off_regime

# short orbits and fixed points: (1, 8), (2, 3), (2, 6); unequal sectors
# 10, 8, 9, 8: (3, 4); two real sectors, 0 and 3: (5, 4)
BOXES = [(1, 8), (2, 3), (2, 6), (3, 4), (5, 4), (4, 8)]
POINTS = [(g, p) for g in (0.7, 1.0, 1.43) for p in (0.0, 0.3, -0.6)]


def _conjugated(spectrum):
    """The weight-conjugated M_1..M_n of the spectrum's point."""
    return [symmetric_hop_operator(r, spectrum.params, spectrum.basis) for r in range(1, spectrum.params.n + 1)]


def _rotate(lam, n, m):
    """R(lam) = (m - lam_n, lam_1 - lam_n, ..., lam_{n-1} - lam_n), trailing zeros trimmed."""
    padded = list(lam) + [0] * (n - len(lam))
    rotated = [m - padded[-1]] + [x - padded[-1] for x in padded[:-1]]
    while rotated and rotated[-1] == 0:
        rotated.pop()
    return tuple(rotated)


@pytest.mark.parametrize("n,m", BOXES + [(1, 1), (3, 3), (6, 2)])
def test_rotation_arrays_follow_the_partitions(n, m):
    basis = enumerate_lattice(n, m)
    powers, reps, sizes = basis.rotation
    assert [basis.order[i] for i in powers[1]] == [_rotate(lam, n, m) for lam in basis.order]
    assert np.array_equal(powers[0], np.arange(len(basis)))
    assert np.array_equal(powers[1][powers[n]], np.arange(len(basis)))
    for a, s in zip(reps, sizes):
        orbit = {int(i) for i in powers[:, a]}
        assert len(orbit) == s and min(orbit) == a and (n + 1) % s == 0
    assert np.sum(sizes) == len(basis)


@pytest.mark.parametrize("g,p", POINTS)
@pytest.mark.parametrize("n,m", BOXES)
def test_rotation_is_a_symmetry_of_the_labeled_spectrum(labeled, n, m, g, p):
    spectrum = labeled(n, m, g, p)
    rot = spectrum.basis.rotation.powers[1]
    for mat in _conjugated(spectrum):
        assert np.max(np.abs(mat[np.ix_(rot, rot)] - mat)) <= 1e-14 * np.max(np.abs(mat))
    # the eigenvector labeled nu lies in sector -|nu| mod (n+1)
    sectors = -np.array([sum(nu) for nu in spectrum.basis.order]) % (n + 1)
    assert np.array_equal(spectrum.sectors, sectors)
    v = spectrum.eigenvectors
    omega = np.exp(2j * np.pi * sectors / (n + 1))
    assert np.max(np.abs(v[rot] - omega * v)) <= 1e-12 * np.max(np.abs(v))
    # the conjugate label, with eigenvalues conj(e), lies in the conjugate sector
    e = spectrum.eigenvalues
    distance = np.max(np.abs(e[:, None, :] - np.conj(e)[None, :, :]), axis=2)
    conjugate = np.argmin(distance, axis=0)
    assert np.max(distance[conjugate, np.arange(len(e))]) < 1e-9
    assert np.array_equal(sectors[conjugate], -sectors % (n + 1))


@pytest.mark.parametrize("g,p", [(0.7, 0.3), (1.43, -0.6), (1.0, 0.0)])
# the solve reads the orders past ceil(n/2) as adjoints: one at n = 2, three and no middle order at n = 6
@pytest.mark.parametrize("n,m", [(5, 5), (4, 8), (3, 4), (2, 6), (6, 3)])
def test_reported_residual_bounds_the_full_space_residual(n, m, g, p):
    spectrum = joint_diagonalize(ModelParams(n, m, g, p))
    frame = spectrum.eigenvectors
    full = np.zeros(len(spectrum))
    for mat, e in zip(_conjugated(spectrum), spectrum.eigenvalues.T):
        full = np.maximum(full, np.linalg.norm(mat @ frame - frame * e, axis=0) / np.max(np.abs(e)))
    assert np.all(full <= spectrum.residuals)
    assert np.max(spectrum.residuals) < 1e-9


@pytest.mark.parametrize("scale", [0.5, 0.9, 1.3])
@pytest.mark.parametrize("n,m", [(2, 3), (3, 2), (1, 8)])
def test_off_regime_solve_raises_the_residual_error(n, m, scale):
    # at these points off the truncation regime R is no symmetry, and the leakage term says so
    params = off_regime(n, m, 0.7, 0.3, scale)
    with pytest.raises(DegenerateSpectrumError, match="exceed the residual tolerance"):
        joint_diagonalize(params)
    checks = {c.name: c for c in run_verification(params).checks}
    for name in ("orthogonality", "pieri", "dual-orthogonality", "reconstruction", "trig-comparison"):
        assert not checks[name].passed
        assert "exceed the residual tolerance" in checks[name].error


def test_off_regime_solve_names_the_move_without_positive_weights():
    # with alpha scaled by 1.7 the weight of (1,) is negative, so the amplitudes of the
    # move () -> (1,) and of its reverse differ in sign and M_1 has no real entry there
    params = off_regime(1, 1, 0.7, 0.3, 1.7)
    move = "amplitudes of () -> (1,) (order 1) and back differ in sign"
    with pytest.raises(TruncationViolationError, match=re.escape(move)):
        joint_diagonalize(params)
    checks = {c.name: c for c in run_verification(params).checks}
    for name in ("orthogonality", "pieri", "dual-orthogonality", "reconstruction", "trig-comparison"):
        assert not checks[name].passed
        assert move in checks[name].error


def _move_values(params, basis):
    """M_r on the moves of each order r = 1..ceil(n/2) of the box's sector plan."""
    return [symmetric_hop_values(basis, r, params, hops) for r, hops in enumerate(basis.sector_plan[0], 1)]


@pytest.mark.parametrize("scale", [1.0, 0.93])
@pytest.mark.parametrize("g,p", [(0.7, 0.3), (1.43, -0.6), (1.0, 0.0)])
@pytest.mark.parametrize("n,m", BOXES)
def test_direct_blocks_match_the_dense_fold(n, m, g, p, scale):
    # the fold gathers M_r[a, R^j b] over all j <= n from the dense matrices; the direct form
    # scatters each move from a representative once, so they differ by rounding only
    params, basis = off_regime(n, m, g, p, scale), enumerate_lattice(n, m)
    mats = [symmetric_hop_operator(r, params, basis) for r in range(1, n + 1)]
    values = np.concatenate(_move_values(params, basis))[None]
    largest, half = max(np.max(np.abs(mat)) for mat in mats), (n + 1) // 2
    slack = 0.0 if scale == 1.0 else max(dense_leakage(mat, basis) for mat in mats)
    folded = folded_blocks(mats, basis)
    assert len(folded) == len(basis.sector_plan[2]) == half + 1
    for sector, reference in zip(basis.sector_plan[2], folded):
        blocks = spectral._sector_blocks(values, n, *sector)[0]
        assert blocks.dtype == reference.dtype and blocks.shape == reference[:half].shape
        assert np.max(np.abs(blocks - reference[:half])) <= 1e-14 * largest
        # the solve reads the block of M_{n+1-r}, r <= n - half, as B_r^H: in the regime R is a symmetry
        # and the two agree to rounding, off it they differ by at most the leakage the residuals carry
        adjoints = blocks[: n - half][::-1].conj().swapaxes(1, 2)
        assert np.max(np.abs(adjoints - reference[half:]), initial=0.0) <= 1e-14 * largest + slack


@pytest.mark.parametrize(
    "n,m,scale",
    [(n, m, s) for n, m in BOXES for s in (1.0, 0.93)] + [(1, 8, 1.3), (2, 3, 1.3), (3, 2, 1.3)],
)
def test_move_table_leakage_matches_the_dense_difference(n, m, scale):
    # in the regime the leakage is rounding, off it (alpha scaled by 0.93 or 1.3) of the order of M_r
    params, basis = off_regime(n, m, 0.7, 0.3, scale), enumerate_lattice(n, m)
    perms, values = basis.sector_plan[1], _move_values(params, basis)
    for r in range(1, n + 1):
        # M_{n+1-r} = M_r^T leaks as much as M_r
        i = min(r, n + 1 - r) - 1
        leakage = spectral._leakage(perms[i], values[i][None])[0]
        dense = dense_leakage(symmetric_hop_operator(r, params, basis), basis)
        assert abs(leakage - dense) <= 1e-14 * dense
        assert (dense < 1e-13 * np.max(np.abs(values[i]))) == (scale == 1.0)


# every box with n <= 8, m <= 40 and N <= 500
GRID = [(n, m) for n in range(1, 9) for m in range(1, 41) if math.comb(n + m, n) <= 500]


def test_rotation_permutes_the_moves_of_each_order():
    assert len(GRID) == 109
    for n, m in GRID:
        basis = enumerate_lattice(n, m)
        rotate = basis.rotation.powers[1]
        for hops, perm in zip(*basis.sector_plan[:2]):
            assert np.array_equal(np.sort(perm), np.arange(len(hops.source)))
            assert np.array_equal(hops.source[perm], rotate[hops.source])
            assert np.array_equal(hops.target[perm], rotate[hops.target])


@pytest.mark.parametrize("n,m,p_stop", [(3, 4, 0.6), (5, 4, -0.6), (2, 6, 0.9), (1, 8, 0.3), (4, 5, 0.6)])
def test_sweep_point_is_bit_identical_to_the_single_nome_solve(n, m, p_stop):
    g = 0.9814989379240225
    points = [ModelParams(n, m, g, round(p_stop * k / 6, 10)) for k in range(7)]
    basis = enumerate_lattice(n, m)
    stacked = list(spectral._spectra(points, basis))
    for spectrum, params in zip(stacked, points):
        single = joint_diagonalize(params)
        for field in ("eigenvalues", "eigenvectors", "norm_hat", "residuals", "sectors"):
            assert np.array_equal(getattr(spectrum, field), getattr(single, field)), field
