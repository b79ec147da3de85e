"""Joint diagonalization of the commuting family and labeling of the spectrum.

The hop operators are conjugated by the square root of the lattice weights,
which turns them into commuting normal matrices with M_{n+1-r} = M_r^T.  One
pseudo-random real symmetric combination of M_r + M_r^T, r <= ceil(n/2), is
diagonalized; conjugate labels share its eigenvalues.  Eigenvalues closer than
eigh can resolve form chains, each rotated by its restriction of one complex
Hermitian combination, which also carries the M_r - M_r^T.

Labels (partitions in the box) come from the zero-nome closed form and are
carried to nonzero nome by continuation, matching eigenvectors between
neighbouring nomes by overlap.  The first step jumps to the target nome; a
failed match halves the step and a clean one doubles it again.
"""

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as la
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import pdist

from .coeffs import ModelParams, weight_vector
from .errors import ContinuationError, DegenerateSpectrumError, LabelingError, NormalizationError
from .macdonald import trig_joint_eigenvalues
from .operators import build_hop_operator, conjugate_by_weights
from .partitions import LatticeBasis, enumerate_lattice

__all__ = [
    "Spectrum",
    "joint_diagonalize",
    "label_spectrum",
    "continue_labels",
    "sweep_spectra",
    "orthogonality_residual",
    "unitarity_residual",
    "conjugate_pairing_residual",
    "min_eigenvalue_gap",
    "second_difference_residual",
]

_RESIDUAL_TOL = 1e-9
_MATCH_TOL = 1e-6
_ZERO_COMPONENT_TOL = 1e-10
_MIN_OVERLAP = 0.9
_MIN_STEP = 0.05 / 2**6


@dataclass(frozen=True)
class Spectrum:
    """Joint eigenpairs at one parameter point, as arrays indexed by eigenpair k.

    ``eigenvalues[k, r - 1]`` is the eigenvalue of the order-r operator and
    ``eigenvectors[:, k]`` the eigenvector, of unit weighted norm with its
    component at the empty partition real and positive; ``norm_hat[k]`` is the
    dual weight for the unit-value-at-zero normalization and ``residuals[k]``
    the largest relative residual over the operators.  Labeling permutes the
    eigenpairs so that eigenpair k carries the label ``basis.order[k]``.
    """

    params: ModelParams
    basis: LatticeBasis
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    norm_hat: np.ndarray
    residuals: np.ndarray
    weights: np.ndarray

    def __len__(self) -> int:
        return self.eigenvectors.shape[1]

    def frame_matrix(self) -> np.ndarray:
        """Columns in the weight-conjugated frame (orthonormal)."""
        return np.sqrt(self.weights)[:, None] * self.eigenvectors


def _permuted(spectrum: Spectrum, order: np.ndarray) -> Spectrum:
    """New spectrum whose eigenpair k is eigenpair order[k] of the given one."""
    return replace(
        spectrum,
        eigenvalues=spectrum.eigenvalues[order],
        eigenvectors=spectrum.eigenvectors[:, order],
        norm_hat=spectrum.norm_hat[order],
        residuals=spectrum.residuals[order],
    )


def _rotate(a: np.ndarray, rotations: list) -> np.ndarray:
    """Copy of a with the columns of each chain multiplied by the chain's unitary."""
    out = a.astype(complex)
    for cols, u in rotations:
        out[:, cols] = np.einsum("nki,kij->nkj", a[:, cols], u)
    return out


def joint_diagonalize(params: ModelParams, seed: int = 0, basis: LatticeBasis | None = None) -> Spectrum:
    """Simultaneously diagonalize the commuting family at the given parameters.

    Parameters
    ----------
    params : ModelParams
        Must lie in the truncation regime (positive weights).
    seed : int
        Seed for the random coefficients of the real symmetric combination
        and of the complex Hermitian one that splits its chains; results are
        deterministic given the seed.
    basis : LatticeBasis, optional
        Reuse an existing enumeration.

    Returns
    -------
    Spectrum with its eigenpairs in the solver's order (label_spectrum puts
    them in label order).

    Raises
    ------
    DegenerateSpectrumError
        if some vector fails the per-operator residual tolerance.
    NormalizationError
        if an eigenvector has no component at the empty partition.
    """
    if basis is None:
        basis = enumerate_lattice(params.n, params.m)
    w = weight_vector(basis, params)
    mats = [
        conjugate_by_weights(build_hop_operator(r, params, basis), w)
        for r in range(1, params.n + 1)
    ]
    # M_{n+1-r} = M_r^T, so M_1..M_ceil(n/2) carry the whole family
    half = mats[: (params.n + 1) // 2]
    a, x, y = np.random.default_rng(seed).standard_normal((3, len(half)))
    # conjugate labels share an eigenvalue 2 sum_r a_r Re e_r of this combination
    vals, real_vecs = la.eigh(sum(c * (m + m.T) for c, m in zip(a, half)), driver="evd")
    # eigh gets a vector right to eps ||A|| / gap (Davis-Kahan), so eigenvalues
    # closer than the gap at which that reaches _RESIDUAL_TOL form one chain
    gap = 10 * np.finfo(float).eps / _RESIDUAL_TOL * np.max(np.abs(vals))
    starts = np.flatnonzero(np.diff(vals, prepend=-np.inf) >= gap)
    sizes = np.diff(starts, append=len(vals))
    # each chain is rotated by eigh of its restriction of the Hermitian
    # sum_r x_r (M_r + M_r^T) + i y_r (M_r - M_r^T) = G + G^H, G = sum_r (x_r + i y_r) M_r;
    # chains of one length are stacked, as columns (K, L) and unitaries (K, L, L)
    gx, gy = (sum(c * m for c, m in zip(coefs, half)) @ real_vecs for coefs in (x, y))
    rotations = []
    for size in np.unique(sizes[sizes > 1]):
        cols = starts[sizes == size, None] + np.arange(size)
        block = np.einsum("nki,nkj->kij", real_vecs[:, cols], gx[:, cols] + 1j * gy[:, cols])
        rotations.append((cols, np.linalg.eigh(block + block.conj().swapaxes(1, 2))[1]))
    del gx, gy
    vecs = _rotate(real_vecs, rotations)
    # M_r is real and commutes with its transpose M_{n+1-r}, so it is normal
    # and its 2-norm is its spectral radius max_k |e_rk|
    eigenvalues = np.empty((len(vals), len(mats)), dtype=complex)
    residuals = np.zeros(len(vals))
    for r0, m in enumerate(mats):
        product = _rotate(m @ real_vecs, rotations)
        e = np.einsum("ij,ij->j", vecs.conj(), product)
        product -= vecs * e
        residuals = np.maximum(residuals, np.linalg.norm(product, axis=0) / np.max(np.abs(e)))
        eigenvalues[:, r0] = e
        del product  # one N x N product alive at a time
    u = vecs / np.sqrt(w)[:, None]
    u0 = u[0]
    (small,) = np.nonzero(np.abs(u0) < _ZERO_COMPONENT_TOL)
    if len(small):
        k = small[0]
        raise NormalizationError(f"eigenvector {k} has |component at the empty partition| = {abs(u0[k])}")
    u *= np.conj(u0) / np.abs(u0)
    norm_hat = 1.0 / np.sum(np.abs(u / u[0]) ** 2 * w[:, None], axis=0)
    offenders = [(int(k), float(residuals[k])) for k in np.nonzero(residuals > _RESIDUAL_TOL)[0]]
    if offenders:
        raise DegenerateSpectrumError(
            f"{len(offenders)} eigenvectors exceed the residual tolerance {_RESIDUAL_TOL}",
            clusters=offenders,
        )
    return Spectrum(params, basis, eigenvalues, u, norm_hat, residuals, w)


def _max_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix of max_r |a[i, r] - b[j, r]|, built one column r at a time."""
    out = np.zeros((len(a), len(b)))
    for r0 in range(a.shape[1]):
        np.maximum(out, np.abs(a[:, r0, None] - b[None, :, r0]), out=out)
    return out


def _closed_form_labels(spectrum: Spectrum) -> Spectrum:
    """Assign labels at p = 0 by nearest closed-form eigenvalue vector."""
    targets = trig_joint_eigenvalues(spectrum.basis, spectrum.params)
    gaps = _max_distances(targets, targets)
    np.fill_diagonal(gaps, np.inf)
    min_gap = np.min(gaps)
    if min_gap < 2 * _MATCH_TOL:
        raise LabelingError(f"closed-form eigenvalue vectors are ambiguous: min gap {min_gap:.3e}")
    cost = _max_distances(spectrum.eigenvalues, targets)
    rows, cols = linear_sum_assignment(cost)
    for i, j in zip(rows, cols):
        if cost[i, j] > _MATCH_TOL:
            raise LabelingError(
                f"no closed-form match within {_MATCH_TOL} for eigenvalue vector "
                f"{spectrum.eigenvalues[i]} (best gap {cost[i, j]:.3e})"
            )
    # rows is 0..N-1: vector i takes label cols[i]
    return _permuted(spectrum, np.argsort(cols))


def _transfer_labels(previous: Spectrum, candidate: Spectrum):
    """Match candidate vectors to previous labels by overlap; None on failure."""
    overlap = np.abs(previous.frame_matrix().conj().T @ candidate.frame_matrix())
    rows, cols = linear_sum_assignment(-overlap)
    if np.min(overlap[rows, cols]) <= _MIN_OVERLAP:
        return None
    # rows is 0..N-1 and previous is in label order: candidate vector cols[i] takes label i
    return _permuted(candidate, cols)


def continue_labels(labeled: Spectrum, target: Spectrum, seed: int = 0) -> Spectrum:
    """Carry labels from a labeled spectrum to the target's nome by continuation.

    The first step is the whole interval.  A clean overlap match doubles the
    step, never past the target; a failed one halves it, and once the step
    falls below _MIN_STEP the continuation raises ContinuationError.

    A large step cannot pass a wrong match.  Both frames are orthonormal, so
    F0^H F1 is unitary and the squared overlaps of each candidate with the
    previous vectors sum to 1.  At most one previous vector can then overlap
    a candidate by more than 1/sqrt(2) ~ 0.707, so an assignment whose every
    overlap exceeds _MIN_OVERLAP = 0.9 is the only one that passes.  A step
    over which some vector turns too far fails the match and is halved.
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
            candidate = joint_diagonalize(point, seed=seed, basis=current.basis)
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


def label_spectrum(spectrum: Spectrum, seed: int = 0) -> Spectrum:
    """Label a diagonalized spectrum by partitions in the box.

    At p = 0 labels come from the closed-form eigenvalues; otherwise the
    labels are transported from p = 0 by continuation in the nome.
    """
    if spectrum.params.p == 0.0:
        return _closed_form_labels(spectrum)
    base = joint_diagonalize(replace(spectrum.params, p=0.0), seed=seed, basis=spectrum.basis)
    labeled = _closed_form_labels(base)
    return continue_labels(labeled, spectrum, seed=seed)


def sweep_spectra(params: ModelParams, p_values, seed: int = 0) -> list:
    """Labeled spectra along a nome sweep, propagating labels point to point."""
    basis = enumerate_lattice(params.n, params.m)
    spectra = []
    current = None
    for p in p_values:
        point = replace(params, p=float(p))
        target = joint_diagonalize(point, seed=seed, basis=basis)
        if current is None:
            current = label_spectrum(target, seed=seed)
        else:
            current = continue_labels(current, target, seed=seed)
        spectra.append(current)
    return spectra


def orthogonality_residual(spectrum: Spectrum) -> float:
    """Largest off-diagonal weighted inner product between eigenvectors."""
    if len(spectrum) < 2:
        return 0.0
    u = spectrum.eigenvectors
    gram = (u.T * spectrum.weights) @ np.conj(u)
    off = gram - np.diag(np.diag(gram))
    return float(np.max(np.abs(off)))


def unitarity_residual(spectrum: Spectrum) -> float:
    """Deviation from unitarity of the weighted eigenfunction value matrix."""
    u = spectrum.eigenvectors
    values = u / u[0, :]
    mat = np.sqrt(spectrum.weights)[:, None] * values * np.sqrt(spectrum.norm_hat)[None, :]
    eye = mat.conj().T @ mat
    return float(np.max(np.abs(eye - np.eye(len(spectrum)))))


def conjugate_pairing_residual(spectrum: Spectrum) -> float:
    """Defect of eigenvalue pairing e_{n+1-r} = conj(e_r)."""
    e = spectrum.eigenvalues
    return float(np.max(np.abs(e[:, ::-1] - np.conj(e))))


def min_eigenvalue_gap(spectrum: Spectrum) -> float:
    """Smallest pairwise distance between joint eigenvalue vectors."""
    if len(spectrum) < 2:
        return np.inf
    e = spectrum.eigenvalues
    return float(np.min(pdist(np.hstack([e.real, e.imag]))))


def second_difference_residual(spectra: list) -> float:
    """Largest second difference over all envelope-normalized eigenvalue curves.

    The curves are the eigenvalues of each label and order along a sweep of
    labeled spectra.  All curves of a given order share a steep common growth
    as |p| increases, so each is divided pointwise by the envelope
    max(1, max_label |e|) before differencing.  A labeling jump then
    contributes on the order of the gap between branches relative to the
    envelope, while a smooth curve sampled at step h contributes O(h^2);
    values below 0.5 indicate a clean sweep.
    """
    # (point, label, order)
    curves = np.array([s.eigenvalues for s in spectra])
    if len(curves) < 3:
        return 0.0
    ratio = curves / np.maximum(np.max(np.abs(curves), axis=1, keepdims=True), 1.0)
    return float(np.max(np.abs(ratio[2:] - 2.0 * ratio[1:-1] + ratio[:-2])))
