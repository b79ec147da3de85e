"""Joint diagonalization of the commuting family and labeling of the spectrum.

The hop operators conjugated by the square root of the lattice weights, which
the amplitudes alone determine, are commuting normal matrices with
M_{n+1-r} = M_r^T that commute with the cyclic rotation R of the box.
joint_diagonalize solves half the sectors of R (its eigenspaces), one block
each, and conjugates the rest; residuals carry the leakage between sectors.
Labels (partitions in the box) come from the zero-nome closed form and are
carried to nonzero nome by continuation, matching eigenvectors between
neighbouring nomes by overlap; the label nu lies in sector -|nu| mod (n+1),
so both run sector by sector.  The first step jumps to the target nome; a
failed match halves the step and a clean one doubles it again.
"""

from dataclasses import dataclass, replace

import numpy as np

from .coeffs import ModelParams
from .errors import ContinuationError, DegenerateSpectrumError, LabelingError, NormalizationError
from .macdonald import trig_joint_eigenvalues
from .operators import symmetric_hop_operator
from .partitions import LatticeBasis, enumerate_lattice

__all__ = [
    "Spectrum",
    "joint_diagonalize",
    "label_spectrum",
    "continue_labels",
    "sweep_spectra",
    "orthogonality_residual",
]

_RESIDUAL_TOL = 1e-9
_MATCH_TOL = 1e-6
_ZERO_COMPONENT_TOL = 1e-10
_MIN_OVERLAP = 0.9
_MIN_STEP = 0.05 / 2**6
# the joint spectrum is simple (one eigenvector per partition in the box), so
# every generic draw of the combinations gives the same eigenpairs up to
# rounding; one fixed draw makes the output bytes repeat
_COMBINATION_SEED = 0


@dataclass(frozen=True)
class Spectrum:
    """Joint eigenpairs at one parameter point, as arrays indexed by eigenpair k.

    ``eigenvalues[k, r - 1]`` is the eigenvalue of the order-r operator and
    ``eigenvectors[:, k]`` the orthonormal frame vector v = W^{1/2} u of the
    eigenvector u of the D_r, its component at the empty partition real and
    positive; ``norm_hat[k] = |v(empty)|^2`` is the dual weight for the
    unit-value-at-zero normalization, as w(empty) = 1, and ``residuals[k]``
    the largest relative residual over the operators; ``sectors[k]`` is the
    sector of the box's rotation the eigenvector lies in.  Labeling permutes
    the eigenpairs so that eigenpair k carries the label ``basis.order[k]``.
    """

    params: ModelParams
    basis: LatticeBasis
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    norm_hat: np.ndarray
    residuals: np.ndarray
    sectors: np.ndarray

    def __len__(self) -> int:
        return self.eigenvectors.shape[1]


def _permuted(spectrum: Spectrum, order: np.ndarray) -> Spectrum:
    """New spectrum whose eigenpair k is eigenpair order[k] of the given one."""
    return replace(
        spectrum,
        eigenvalues=spectrum.eigenvalues[order],
        eigenvectors=spectrum.eigenvectors[:, order],
        norm_hat=spectrum.norm_hat[order],
        residuals=spectrum.residuals[order],
        sectors=spectrum.sectors[order],
    )


def _solve_block(blocks: np.ndarray, a: np.ndarray, x: np.ndarray, y: np.ndarray) -> tuple:
    """Joint eigenvectors v (columns) of one sector's blocks B_1..B_n, stacked as (n, L, L),
    with their Rayleigh quotients e and norms ||B_r v - e_r v|| (row k, column r - 1)."""
    # B_{n+1-r} = B_r^H, so B_1..B_ceil(n/2) carry the whole family; in a real
    # sector conjugate labels share an eigenvalue 2 sum_r a_r Re e_r of this combination
    half = blocks[: len(a)]
    vals, vecs = np.linalg.eigh(np.einsum("r,rij->ij", a, half + half.conj().swapaxes(1, 2)))
    # eigh gets a vector right to eps ||A|| / gap (Davis-Kahan), so eigenvalues
    # closer than the gap at which that reaches _RESIDUAL_TOL form one chain
    gap = 10 * np.finfo(float).eps / _RESIDUAL_TOL * np.max(np.abs(vals))
    starts = np.flatnonzero(np.concatenate(([True], np.diff(vals) >= gap)))
    sizes = np.diff(np.concatenate((starts, [len(vals)])))
    vecs = vecs.astype(complex)
    # each chain is rotated by eigh of its restriction of G + G^H, G = sum_r (x_r + i y_r) B_r;
    # chains of one length are stacked, as columns (K, L) and unitaries (K, L, L)
    gv = np.einsum("r,rij->ij", x + 1j * y, half) @ vecs
    for size in np.unique(sizes[sizes > 1]):
        cols = starts[sizes == size, None] + np.arange(size)
        block = np.einsum("nki,nkj->kij", vecs[:, cols].conj(), gv[:, cols])
        rotations = np.linalg.eigh(block + block.conj().swapaxes(1, 2))[1]
        vecs[:, cols] = np.einsum("nki,kij->nkj", vecs[:, cols], rotations)
    products = blocks @ vecs
    eigenvalues = np.einsum("ij,rij->jr", vecs.conj(), products)
    norms = np.linalg.norm(products - vecs * eigenvalues.T[:, None, :], axis=1).T
    return vecs, eigenvalues, norms


def joint_diagonalize(params: ModelParams, basis: LatticeBasis | None = None) -> Spectrum:
    """Simultaneously diagonalize the commuting family at the given parameters.

    The box splits into the n+1 sectors of its cyclic rotation R
    (``LatticeBasis.rotation``), sector k the eigenspace of R with eigenvalue
    omega^k, omega = exp(2 pi i / (n+1)).  Sectors 0..floor((n+1)/2) are
    solved, one block each, with all n operators; sector n+1-k is the complex
    conjugate of sector k, with vectors conj(v), eigenvalues conj(e) and the
    residuals of v.  Each residual adds the leakage of M_r between sectors to
    the block residual, so it bounds the full-space residual.

    Each block is solved through two Hermitian combinations of its operators,
    with coefficients from one fixed draw (_COMBINATION_SEED): a generic
    combination separates the simple joint spectrum, so its eigenvectors are
    the joint ones whatever the draw.

    Parameters
    ----------
    params : ModelParams
        Must lie in the truncation regime (positive weights); off it R is in
        general no symmetry, and the leakage fails the residual tolerance.
    basis : LatticeBasis, optional
        Reuse an existing enumeration.

    Returns
    -------
    Spectrum with its eigenpairs sector by sector, k = 0..n (``sectors``), each
    in its block solve's order; label_spectrum puts them in label order.

    Raises
    ------
    DegenerateSpectrumError
        if some vector fails the per-operator residual tolerance.
    NormalizationError
        if an eigenvector has no component at the empty partition.
    TruncationViolationError
        from ``symmetric_hop_operator``, off the truncation regime.
    """
    if basis is None:
        basis = enumerate_lattice(params.n, params.m)
    n = params.n
    mats = [symmetric_hop_operator(r, params, basis) for r in range(1, (n + 1) // 2 + 1)]
    mats += [mats[n - r].T for r in range(len(mats) + 1, n + 1)]
    powers, reps, orbit_sizes = basis.rotation
    # phases[k, j] = omega^(jk) for the solved sectors k; the block of M_r in sector k between orbits
    # a, b of sizes s_a, s_b is sqrt(s_a / s_b) sum_{j < s_b} omega^(jk) M_r[a, R^j b], which is
    # sqrt(s_a s_b) / (n+1) sum_{j <= n} omega^(jk) M_r[a, R^j b]
    phases = np.exp(2j * np.pi * np.outer(np.arange((n + 1) // 2 + 1), np.arange(n + 1)) / (n + 1))
    scale = np.sqrt(np.outer(orbit_sizes, orbit_sizes)) / (n + 1)
    gathered = np.array([m[reps[:, None], powers[:, None, reps]] for m in mats]).reshape(n, n + 1, -1)
    folded = scale * (phases @ gathered).reshape(n, len(phases), *scale.shape)
    # the blocks leave out what M_r leaks between sectors: with L = ||M_r - R^T M_r R|| <= its
    # Frobenius norm, a block vector's full-space residual exceeds its block residual by at
    # most (1 + sqrt(n)) n L / 2 < (n+1)^(3/2) L
    leakage = [(n + 1) ** 1.5 * np.linalg.norm(m.take(powers[1], 0).take(powers[1], 1) - m) for m in mats]
    a, x, y = np.random.default_rng(_COMBINATION_SEED).standard_normal((3, (n + 1) // 2))
    solved = []
    for k in range(len(phases)):
        (inside,) = np.nonzero(k * orbit_sizes % (n + 1) == 0)
        blocks = folded[:, k][:, inside[:, None], inside]  # taken real where omega^k = +-1
        solved.append((inside, *_solve_block(blocks.real if 2 * k % (n + 1) == 0 else blocks, a, x, y)))
    del gathered, folded
    # M_r commutes with its transpose M_{n+1-r}, so its 2-norm is its spectral radius max_k |e_rk|
    radius = np.max([np.max(np.abs(e), axis=0) for _, _, e, _ in solved], axis=0)
    # sector n+1-k is the complex conjugate of sector k: vectors conj(v), eigenvalues conj(e)
    half = [min(k, n + 1 - k) for k in range(n + 1)]
    bounds = np.cumsum([0] + [len(solved[h][0]) for h in half])
    eigenvalues = np.concatenate([solved[h][2] if h == k else solved[h][2].conj() for k, h in enumerate(half)])
    residuals = np.concatenate([np.max((solved[h][3] + leakage) / radius, axis=1) for h in half])
    v = np.zeros((len(basis), len(basis)), dtype=complex)
    for k, h in enumerate(half):
        if h != k:
            np.conj(v[:, bounds[h] : bounds[h + 1]], out=v[:, bounds[k] : bounds[k + 1]])
            continue
        inside, vecs = solved[k][:2]
        # v(R^j a) = omega^(jk) b_a / sqrt(s_a) on the orbit of a, for the block vector b, has
        # unit norm; the empty partition heads its orbit, and the phase of b there is taken off
        rows = powers[:, reps[inside]]
        values = (phases[k, :, None] / np.sqrt(orbit_sizes[inside]))[:, :, None] * vecs
        values *= np.exp(-1j * np.angle(vecs[0]))
        v[rows.ravel(), bounds[k] : bounds[k + 1]] = values.reshape(-1, len(inside))
    offenders = int(np.count_nonzero(residuals > _RESIDUAL_TOL))
    if offenders:
        raise DegenerateSpectrumError(
            f"{offenders} eigenvectors exceed the residual tolerance {_RESIDUAL_TOL}"
        )
    v0 = np.abs(v[0])
    (small,) = np.nonzero(v0 < _ZERO_COMPONENT_TOL)
    if len(small):
        k = small[0]
        raise NormalizationError(f"eigenvector {k} has |component at the empty partition| = {v0[k]}")
    # unit norm and w(empty) = 1, so the dual weight 1 / sum_lam w(lam) |u(lam) / u(0)|^2 is |v(0)|^2
    return Spectrum(params, basis, eigenvalues, v, v0**2, residuals, np.repeat(np.arange(n + 1), np.diff(bounds)))


def _max_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix of max_r |a[i, r] - b[j, r]|, built one column r at a time."""
    out = np.zeros((len(a), len(b)))
    for r0 in range(a.shape[1]):
        np.maximum(out, np.abs(a[:, r0, None] - b[None, :, r0]), out=out)
    return out


def _closed_form_labels(spectrum: Spectrum) -> Spectrum:
    """Assign labels at p = 0 by nearest closed-form eigenvalue vector, sector by sector."""
    targets = trig_joint_eigenvalues(spectrum.basis, spectrum.params)
    # the eigenvector labeled nu lies in sector -|nu| mod (n+1)
    label_sectors = -np.sum(spectrum.basis.parts, axis=1) % (spectrum.params.n + 1)
    order = np.empty(len(spectrum), dtype=np.intp)
    for k in range(spectrum.params.n + 1):
        labels, pairs = np.flatnonzero(label_sectors == k), np.flatnonzero(spectrum.sectors == k)
        gaps = _max_distances(targets[labels], targets[labels])
        np.fill_diagonal(gaps, np.inf)
        min_gap = np.min(gaps)
        if min_gap < 2 * _MATCH_TOL:
            raise LabelingError(f"closed-form eigenvalue vectors are ambiguous: min gap {min_gap:.3e}")
        cost = _max_distances(spectrum.eigenvalues[pairs], targets[labels])
        cols = np.argmin(cost, axis=1)
        best = cost[np.arange(len(pairs)), cols]
        # the targets lie 2 _MATCH_TOL apart, so a match within _MATCH_TOL is the only one of
        # its row and of its column, and a passing assignment is the row-wise nearest one
        shared = np.bincount(cols, minlength=len(labels))[cols] > 1
        missed = np.flatnonzero((best > _MATCH_TOL) | shared)
        if len(missed):
            i = missed[0]
            why = f"best gap {best[i]:.3e}" if best[i] > _MATCH_TOL else "nearest closed form shared with another vector"
            raise LabelingError(
                f"no closed-form match within {_MATCH_TOL} for eigenvalue vector "
                f"{spectrum.eigenvalues[pairs[i]]} ({why})"
            )
        # vector pairs[i] takes label labels[cols[i]]
        order[labels[cols]] = pairs
    return _permuted(spectrum, order)


def _transfer_labels(previous: Spectrum, candidate: Spectrum):
    """Match candidate vectors to previous labels by overlap, sector by sector; None on failure."""
    order = np.empty(len(candidate), dtype=np.intp)
    for k in range(candidate.params.n + 1):
        labels, pairs = np.flatnonzero(previous.sectors == k), np.flatnonzero(candidate.sectors == k)
        overlap = np.abs(previous.eigenvectors[:, labels].conj().T @ candidate.eigenvectors[:, pairs])
        cols = np.argmax(overlap, axis=1)
        if np.min(overlap[np.arange(len(labels)), cols]) <= _MIN_OVERLAP or len(np.unique(cols)) < len(cols):
            return None
        # previous is in label order: candidate vector pairs[cols[i]] takes label labels[i]
        order[labels] = pairs[cols]
    return _permuted(candidate, order)


def continue_labels(labeled: Spectrum, target: Spectrum) -> Spectrum:
    """Carry labels from a labeled spectrum to the target's nome by continuation.

    The first step is the whole interval.  A clean overlap match doubles the
    step, never past the target; a failed one halves it, and once the step
    falls below _MIN_STEP the continuation raises ContinuationError.

    Each previous vector takes the candidate it overlaps most (the row-wise
    argmax), and the match passes when these picks form a permutation with
    every overlap above _MIN_OVERLAP = 0.9.  No other assignment could pass,
    so a large step cannot pass a wrong match: both frames are orthonormal,
    so F0^H F1 is unitary and the squared overlaps in each of its rows and
    columns sum to 1, and at most one entry of a row or a column can exceed
    1/sqrt(2) ~ 0.707.  A step over which some vector turns too far fails
    the match and is halved.
    """
    target_p = target.params.p
    current = labeled
    h = target_p - labeled.params.p
    while current.params.p != target_p:
        remaining = target_p - current.params.p
        if abs(h) >= abs(remaining):
            h = remaining
            candidate = target
        else:
            point = replace(current.params, p=float(current.params.p + h))
            candidate = joint_diagonalize(point, basis=current.basis)
        matched = _transfer_labels(current, candidate)
        if matched is None:
            h /= 2
            if abs(h) < _MIN_STEP:
                raise ContinuationError(
                    f"overlap below {_MIN_OVERLAP} persisted below the smallest step "
                    f"{_MIN_STEP} near p = {current.params.p}"
                )
        else:
            current = matched
            h *= 2
    return current


def label_spectrum(spectrum: Spectrum) -> Spectrum:
    """Label a diagonalized spectrum by partitions in the box.

    At p = 0 labels come from the closed-form eigenvalues; otherwise the
    labels are transported from p = 0 by continuation in the nome.
    """
    if spectrum.params.p == 0.0:
        return _closed_form_labels(spectrum)
    base = joint_diagonalize(replace(spectrum.params, p=0.0), basis=spectrum.basis)
    labeled = _closed_form_labels(base)
    return continue_labels(labeled, spectrum)


def sweep_spectra(params: ModelParams, p_values) -> list:
    """Labeled spectra along a nome sweep, propagating labels point to point."""
    basis = enumerate_lattice(params.n, params.m)
    spectra = []
    current = None
    for p in p_values:
        point = replace(params, p=float(p))
        target = joint_diagonalize(point, basis=basis)
        if current is None:
            current = label_spectrum(target)
        else:
            current = continue_labels(current, target)
        spectra.append(current)
    return spectra


def orthogonality_residual(spectrum: Spectrum) -> float:
    """Largest off-diagonal inner product between the eigenvectors v, the weighted one between the u."""
    v = spectrum.eigenvectors
    gram = v.T @ np.conj(v)
    off = gram - np.diag(np.diag(gram))
    return float(np.max(np.abs(off)))
