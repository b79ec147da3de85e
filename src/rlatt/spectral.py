"""Joint diagonalization of the commuting family and labeling of the spectrum.

The hop operators conjugated by the square root of the lattice weights, which
the amplitudes alone determine, are commuting normal matrices with
M_{n+1-r} = M_r^T that commute with the cyclic rotation R of the box.
joint_diagonalize solves half the sectors of R (its eigenspaces), one block
each, and conjugates the rest; residuals carry the leakage between sectors.
The blocks and the leakage are sums over the move table, with no N x N
operator, and a sweep solves all its nomes in one pass stacked over them.
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
from .errors import TruncationViolationError
from .macdonald import trig_joint_eigenvalues
from .operators import symmetric_hop_values
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


def _solve_sector(blocks: np.ndarray, a: np.ndarray, x: np.ndarray, y: np.ndarray) -> tuple:
    """Joint eigenvectors v (columns) of one sector's blocks B_1..B_n at each nome, stacked as
    (nomes, n, L, L), with their Rayleigh quotients e and norms ||B_r v - e_r v|| (nomes, L, n)."""
    # B_{n+1-r} = B_r^H, so B_1..B_ceil(n/2) carry the whole family; in a real
    # sector conjugate labels share an eigenvalue 2 sum_r a_r Re e_r of this combination
    half = blocks[:, : len(a)]
    vals, vecs = np.linalg.eigh(np.einsum("r,brij->bij", a, half + half.conj().swapaxes(2, 3)))
    # eigh gets a vector right to eps ||A|| / gap (Davis-Kahan), so eigenvalues
    # closer than the gap at which that reaches _RESIDUAL_TOL form one chain
    gap = 10 * np.finfo(float).eps / _RESIDUAL_TOL * np.max(np.abs(vals), axis=1, keepdims=True)
    heads = np.flatnonzero(np.concatenate([np.ones_like(gap, dtype=bool), np.diff(vals, axis=1) >= gap], axis=1))
    sizes = np.diff(np.append(heads, vals.size))
    nomes, starts = np.divmod(heads, vals.shape[1])
    vecs = vecs.astype(complex)
    # each chain is rotated by eigh of its restriction of G + G^H, G = sum_r (x_r + i y_r) B_r;
    # chains of one length are stacked over the nomes, as rows (K, size, L) and unitaries (K, size, size)
    gv = np.einsum("r,brij->bij", x + 1j * y, half) @ vecs
    for size in np.unique(sizes[sizes > 1]):
        chain = (nomes[sizes == size, None], slice(None), starts[sizes == size, None] + np.arange(size))
        block = vecs[chain].conj() @ gv[chain].swapaxes(1, 2)
        rotations = np.linalg.eigh(block + block.conj().swapaxes(1, 2))[1]
        vecs[chain] = rotations.swapaxes(1, 2) @ vecs[chain]
    products = blocks @ vecs[:, None]
    eigenvalues = np.einsum("bij,brij->bjr", vecs.conj(), products)
    norms = np.linalg.norm(products - vecs[:, None] * eigenvalues.swapaxes(1, 2)[:, :, None], axis=2)
    return vecs, eigenvalues, norms.swapaxes(1, 2)


def _scatter(index: np.ndarray, weights: np.ndarray, size: int) -> np.ndarray:
    """Per nome (row of ``weights``, nomes x entries), the sums of its weights in the bins ``index`` of 0..size-1."""
    count = len(weights)
    sums = np.bincount((index + size * np.arange(count)[:, None]).ravel(), weights.ravel(), count * size)
    return sums.reshape(count, size)


def _leakage(union: np.ndarray, values: np.ndarray) -> np.ndarray:
    """||M_r - R^T M_r R||_F at each nome from M_r on the moves of one order (nomes x moves), summed over the
    union of the two supports (``union`` of ``LatticeBasis.sector_plan``), as (R^T M_r R)[R^-1 s, R^-1 t] = M_r[s, t]."""
    return np.linalg.norm(_scatter(union, np.hstack([values, -values]), np.max(union) + 1), axis=1)


def _sector_blocks(values: np.ndarray, n: int, inside, move, flat, factor) -> np.ndarray:
    """The blocks B_1..B_n of one sector of ``LatticeBasis.sector_plan`` at each nome, (nomes, n, L, L), from the
    values of M on the moves (nomes x moves): B_k[a, b] += M_r[a, t] sqrt(s_a / s_b) omega^(jk) over a -> t = R^j b."""
    size, weights = n * len(inside) ** 2, values[:, move] * factor
    blocks = _scatter(flat, weights.real, size)
    if np.iscomplexobj(weights):
        blocks = blocks + 1j * _scatter(flat, weights.imag, size)
    return blocks.reshape(len(values), n, len(inside), len(inside))


def _spectrum(params: ModelParams, basis: LatticeBasis, sectors: list) -> Spectrum:
    """The Spectrum of a point from the orbits, block vectors, eigenvalues and residuals of its solved
    sectors k = 0..floor((n+1)/2), with the frame in the full space."""
    n = params.n
    powers, reps, orbit_sizes = basis.rotation
    # sector n+1-k is the complex conjugate of sector k: vectors conj(v), eigenvalues conj(e)
    half = [min(k, n + 1 - k) for k in range(n + 1)]
    bounds = np.cumsum([0] + [len(sectors[h][0]) for h in half])
    eigenvalues = np.concatenate([sectors[h][2] if h == k else sectors[h][2].conj() for k, h in enumerate(half)])
    residuals = np.concatenate([sectors[h][3] for h in half])
    v = np.zeros((len(basis), len(basis)), dtype=complex)
    for k, h in enumerate(half):
        inside, vecs = sectors[h][:2]
        # v(R^j a) = omega^(jh) b_a / sqrt(s_a) on the orbit of a, for the block vector b, has
        # unit norm; the empty partition heads its orbit, and the phase of b there is taken off
        phases = np.exp(2j * np.pi * (h * np.arange(n + 1)) / (n + 1))
        values = (phases[:, None] / np.sqrt(orbit_sizes[inside]))[:, :, None] * vecs * np.exp(-1j * np.angle(vecs[0]))
        values = values.reshape(-1, len(inside))
        v[powers[:, reps[inside]].ravel(), bounds[k] : bounds[k + 1]] = values if h == k else values.conj()
    offenders = int(np.count_nonzero(residuals > _RESIDUAL_TOL))
    if offenders:
        raise DegenerateSpectrumError(f"{offenders} eigenvectors exceed the residual tolerance {_RESIDUAL_TOL}")
    v0 = np.abs(v[0])
    (small,) = np.nonzero(v0 < _ZERO_COMPONENT_TOL)
    if len(small):
        k = small[0]
        raise NormalizationError(f"eigenvector {k} has |component at the empty partition| = {v0[k]}")
    # unit norm and w(empty) = 1, so the dual weight 1 / sum_lam w(lam) |u(lam) / u(0)|^2 is |v(0)|^2
    return Spectrum(params, basis, eigenvalues, v, v0**2, residuals, np.repeat(np.arange(n + 1), np.diff(bounds)))


def _spectra(points: list, basis: LatticeBasis):
    """The Spectrum of each point on one box in turn (``joint_diagonalize``), every step stacked over the
    points; a point's failure is raised, and its frame built, only when it is reached."""
    n, (orders, unions, plan) = basis.n, basis.sector_plan
    offsets, failures, rows = np.cumsum([0] + [len(hops.source) for hops in orders]), {}, []
    for i, params in enumerate(points):
        try:
            rows.append(np.concatenate([symmetric_hop_values(basis, r, params, h) for r, h in enumerate(orders, 1)]))
        except TruncationViolationError as error:
            failures[i] = error
    values = np.reshape(rows, (len(rows), offsets[-1]))
    # the blocks leave out what M_r leaks between sectors: with L = ||M_r - R^T M_r R|| <= its
    # Frobenius norm, a block vector's full-space residual exceeds its block residual by at
    # most (1 + sqrt(n)) n L / 2 < (n+1)^(3/2) L
    leakage = [_leakage(union, values[:, start:end]) for union, start, end in zip(unions, offsets, offsets[1:])]
    leakage = (n + 1) ** 1.5 * np.array([leakage[min(r, n + 1 - r) - 1] for r in range(1, n + 1)]).T
    a, x, y = np.random.default_rng(_COMBINATION_SEED).standard_normal((3, (n + 1) // 2))
    # one sector at a time, so each sector's blocks are freed after its solve
    solved = [_solve_sector(_sector_blocks(values, n, *sector), a, x, y) for sector in plan]
    # M_r commutes with its transpose M_{n+1-r}, so its 2-norm is its spectral radius max_k |e_rk|
    radius = np.max([np.max(np.abs(e), axis=1) for _, e, _ in solved], axis=0)
    solved = [(v, e, np.max((norms + leakage[:, None]) / radius[:, None], axis=2)) for v, e, norms in solved]
    # every point before the first failure was solved, so point i is row i of the stacks
    for i, params in enumerate(points):
        if i in failures:
            raise failures[i]
        yield _spectrum(params, basis, [(s[0], v[i], e[i], res[i]) for s, (v, e, res) in zip(plan, solved)])


def joint_diagonalize(params: ModelParams, basis: LatticeBasis | None = None) -> Spectrum:
    """Simultaneously diagonalize the commuting family at the given parameters.

    The box splits into the n+1 sectors of its cyclic rotation R
    (``LatticeBasis.rotation``), sector k the eigenspace of R with eigenvalue
    omega^k, omega = exp(2 pi i / (n+1)).  Sectors 0..floor((n+1)/2) are
    solved, one block each, with all n operators; sector n+1-k is the complex
    conjugate of sector k, with vectors conj(v), eigenvalues conj(e) and the
    residuals of v.  Each residual adds the leakage of M_r between sectors to
    the block residual, so it bounds the full-space residual.

    The blocks come straight from the move table (``LatticeBasis.sector_plan``):
    a move a -> t = R^j b from an orbit representative adds M_r[a, t]
    sqrt(s_a / s_b) omega^(jk) to B_k[a, b], so no N x N operator is formed.
    This is the one-nome case of the stacked solve of ``sweep_spectra``.

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
        from ``symmetric_hop_values``, off the truncation regime.
    """
    if basis is None:
        basis = enumerate_lattice(params.n, params.m)
    return next(_spectra([params], basis))


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
    """Labeled spectra along a nome sweep, solved in one stacked pass, propagating labels point to point.

    A refused nome or a failed solve raises when the sweep reaches it, after any earlier failure.
    """
    basis, points, refused = enumerate_lattice(params.n, params.m), [], None
    try:
        for p in p_values:
            points.append(replace(params, p=float(p)))
    except (TypeError, ValueError) as error:
        refused = error
    spectra = []
    for target in _spectra(points, basis):
        spectra.append(continue_labels(spectra[-1], target) if spectra else label_spectrum(target))
    if refused is not None:
        raise refused
    return spectra


def orthogonality_residual(spectrum: Spectrum) -> float:
    """Largest off-diagonal inner product between the eigenvectors v, the weighted one between the u."""
    v = spectrum.eigenvectors
    gram = v.T @ np.conj(v)
    off = gram - np.diag(np.diag(gram))
    return float(np.max(np.abs(off)))
