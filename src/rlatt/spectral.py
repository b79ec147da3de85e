"""Joint diagonalization of the commuting family and labeling of the spectrum.

The hop operators conjugated by the square root of the lattice weights, which
the amplitudes alone determine, are commuting normal matrices with
M_{n+1-r} = M_r^T that commute with the cyclic rotation R of the box.
joint_diagonalize solves half the sectors of R (its eigenspaces), one block
each, and conjugates the rest; residuals carry the leakage between sectors.
The blocks and the leakage are sums over the move table, with no N x N
operator, and one pass solves a sweep's nomes, or a point and its zero nome,
stacked over them; each nome keeps its own error.  A Spectrum keeps its block
vectors and expands the N x N frame only when a check reads it.  Labels
(partitions in the box) come from the closed form at p = 0 alone and are
carried to nonzero nome by continuation, matching block vectors between
neighbouring nomes by overlap; the label nu lies in sector -|nu| mod (n+1), so
both run sector by sector.  The first step jumps to the target nome; a failed
match halves the step and a clean one doubles it again.
"""

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .coeffs import ModelParams
from .errors import ContinuationError, DegenerateSpectrumError, LabelingError, NormalizationError
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

    ``eigenvalues[k, r - 1]`` is the eigenvalue of the order-r operator,
    ``residuals[k]`` the largest relative residual over the operators and
    ``sectors[k]`` the sector of the box's rotation the eigenvector lies in.
    ``blocks[h]`` holds the block vectors (columns) of solved sector
    h = 0..floor((n+1)/2), and eigenpair k is column ``columns[k]`` of block
    min(sectors[k], n+1-sectors[k]).  ``eigenvectors[:, k]``, expanded from
    the blocks on first read, is the orthonormal frame vector v = W^{1/2} u
    of the eigenvector u of the D_r, its component at the empty partition
    real and positive; ``norm_hat[k] = |v(empty)|^2`` is the dual weight for
    the unit-value-at-zero normalization, as w(empty) = 1.  Labeling permutes
    the eigenpairs so that eigenpair k carries the label ``basis.order[k]``.
    """

    params: ModelParams
    basis: LatticeBasis
    eigenvalues: np.ndarray
    norm_hat: np.ndarray
    residuals: np.ndarray
    sectors: np.ndarray
    blocks: tuple
    columns: np.ndarray

    def __len__(self) -> int:
        return len(self.eigenvalues)

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        """The frame, N x len(self): v(R^j a) = omega^(jh) b_a / sqrt(s_a) on the orbit of a, for block vector b
        of sector h, real and positive at the empty partition, which heads its orbit, has unit norm; sector
        n+1-h holds conj(v)."""
        n, (powers, reps, orbit_sizes) = self.params.n, self.basis.rotation
        v = np.zeros((len(self.basis), len(self)), dtype=complex)
        for k in range(n + 1):
            h, (pairs,) = min(k, n + 1 - k), np.nonzero(self.sectors == k)
            inside, vecs = self.basis.sector_plan[2][h][0], self.blocks[h]
            phases = np.exp(2j * np.pi * (h * np.arange(n + 1)) / (n + 1))
            scale = (phases[:, None] / np.sqrt(orbit_sizes[inside]))[:, :, None]
            values = (scale * vecs).reshape(-1, len(inside))[:, self.columns[pairs]]
            v[np.ix_(powers[:, reps[inside]].ravel(), pairs)] = values if h == k else values.conj()
        return v


def _permuted(spectrum: Spectrum, order: np.ndarray) -> Spectrum:
    """New spectrum whose eigenpair k is eigenpair order[k] of the given one, on the same blocks."""
    fields = ("eigenvalues", "norm_hat", "residuals", "sectors", "columns")
    return replace(spectrum, **{name: getattr(spectrum, name)[order] for name in fields})


def _solve_sector(blocks: np.ndarray, n: int, a: np.ndarray, x: np.ndarray, y: np.ndarray) -> tuple:
    """Joint eigenvectors v (columns, (nomes, L, L)) of one sector's blocks B_1..B_ceil(n/2), stacked as
    (nomes, ceil(n/2), L, L), with their Rayleigh quotients e and norms ||B_r v - e_r v|| (nomes, L, n) over
    all n orders, B_{n+1-r} = B_r^H; each v's phase at the empty partition, its first entry, is taken off."""
    # in a real sector conjugate labels share an eigenvalue 2 sum_r a_r Re e_r of this combination
    vals, vecs = np.linalg.eigh(np.einsum("r,brij->bij", a, blocks + blocks.conj().swapaxes(2, 3)))
    # eigh gets a vector right to eps ||A|| / gap (Davis-Kahan), so eigenvalues
    # closer than the gap at which that reaches _RESIDUAL_TOL form one chain
    gap = 10 * np.finfo(float).eps / _RESIDUAL_TOL * np.max(np.abs(vals), axis=1, keepdims=True)
    heads = np.flatnonzero(np.concatenate([np.ones_like(gap, dtype=bool), np.diff(vals, axis=1) >= gap], axis=1))
    sizes = np.diff(np.append(heads, vals.size))
    nomes, starts = np.divmod(heads, vals.shape[1])
    vecs = vecs.astype(complex)
    # each chain is rotated by eigh of its restriction of G + G^H, G = sum_r (x_r + i y_r) B_r;
    # chains of one length are stacked over the nomes, as rows (K, size, L) and unitaries (K, size, size)
    gv = np.einsum("r,brij->bij", x + 1j * y, blocks) @ vecs
    for size in np.unique(sizes[sizes > 1]):
        chain = (nomes[sizes == size, None], slice(None), starts[sizes == size, None] + np.arange(size))
        block = vecs[chain].conj() @ gv[chain].swapaxes(1, 2)
        rotations = np.linalg.eigh(block + block.conj().swapaxes(1, 2))[1]
        vecs[chain] = rotations.swapaxes(1, 2) @ vecs[chain]
    # one order at a time, so that one product B_r V of the stacks is held at once; the orders r past
    # ceil(n/2) multiply by B_{n+1-r}^H, and v^H B^H v = conj(v^H B v) is their Rayleigh quotient
    eigenvalues, norms, left = [], [], vecs.conj()
    for i in range(n):
        if i < blocks.shape[1]:
            product = blocks[:, i] @ vecs
            eigenvalues.append(np.einsum("bij,bij->bj", left, product))
        else:
            product = blocks[:, n - 1 - i].conj().swapaxes(1, 2) @ vecs
            eigenvalues.append(eigenvalues[n - 1 - i].conj())
        norms.append(np.linalg.norm(product - vecs * eigenvalues[-1][:, None], axis=1))
    vecs *= np.exp(-1j * np.angle(vecs[:, :1]))
    return vecs, np.stack(eigenvalues, axis=2), np.stack(norms, axis=2)


def _leakage(perm: np.ndarray, values: np.ndarray) -> np.ndarray:
    """||M_r - R^T M_r R||_F at each nome from M_r on the moves of one order (nomes x moves), as (R^T M_r R)[s, t]
    = M_r[R s, R t] and ``perm`` (of ``LatticeBasis.sector_plan``) places (R s, R t) among the moves (s, t)."""
    return np.linalg.norm(values - values[:, perm], axis=1)


def _sector_blocks(values: np.ndarray, n: int, inside, move, flat, factor) -> np.ndarray:
    """B_1..B_ceil(n/2) of one sector of ``LatticeBasis.sector_plan`` per nome, (nomes, ceil(n/2), L, L), from M on
    the moves (nomes x moves): B_r[a, b] += M_r[a, t] sqrt(s_a / s_b) omega^(jk) over a -> t = R^j b, in sector k."""
    weights = values[:, move] * factor
    blocks = np.zeros((len(values), (n + 1) // 2 * len(inside) ** 2), dtype=weights.dtype)
    np.add.at(blocks, (slice(None), flat), weights)
    return blocks.reshape(len(values), (n + 1) // 2, len(inside), len(inside))


def _spectrum(params: ModelParams, basis: LatticeBasis, sectors: list):
    """The Spectrum of a point, eigenpairs in sector order k = 0..n, from the block vectors, eigenvalues and
    residuals of its solved sectors k = 0..floor((n+1)/2); or the error it fails with, returned, not raised."""
    n = params.n
    # sector n+1-k is the complex conjugate of sector k: vectors conj(v), eigenvalues conj(e)
    half = [min(k, n + 1 - k) for k in range(n + 1)]
    vecs, eigenvalues, residuals = zip(*sectors)
    eigenvalues = np.concatenate([eigenvalues[h] if h == k else eigenvalues[h].conj() for k, h in enumerate(half)])
    residuals = np.concatenate([residuals[h] for h in half])
    offenders, nonfinite = np.count_nonzero(~(residuals <= _RESIDUAL_TOL)), np.count_nonzero(~np.isfinite(residuals))
    if offenders:
        named = f", {nonfinite} of them non-finite" if nonfinite else ""
        return DegenerateSpectrumError(f"{offenders} eigenvectors exceed the residual tolerance {_RESIDUAL_TOL}{named}")
    # |v(empty)|: the empty partition heads the first orbit of every sector
    v0 = np.concatenate([np.abs(vecs[h][0]) for h in half]) / np.sqrt(basis.rotation.orbit_sizes[0])
    if np.any(v0 < _ZERO_COMPONENT_TOL):
        k = np.argmax(v0 < _ZERO_COMPONENT_TOL)
        return NormalizationError(f"eigenvector {k} has |component at the empty partition| = {v0[k]}")
    columns = [np.arange(len(vecs[h])) for h in half]
    sector_of = np.repeat(np.arange(n + 1), list(map(len, columns)))
    # unit norm and w(empty) = 1, so the dual weight 1 / sum_lam w(lam) |u(lam) / u(0)|^2 is |v(0)|^2
    return Spectrum(params, basis, eigenvalues, v0**2, residuals, sector_of, vecs, np.concatenate(columns))


def _spectra(points: list, basis: LatticeBasis):
    """Each point's Spectrum on one box in turn (``joint_diagonalize``), or the RlattError it met in its hop
    values or its solve; every step, the hop values included, is stacked over the points."""
    n, (orders, perms, plan) = basis.n, basis.sector_plan
    offsets = np.cumsum([0] + [len(hops.source) for hops in orders])
    values, errors = symmetric_hop_values(basis, points, np.concatenate([hops.rows for hops in orders]))
    # the rows of the stacks are the points whose hop values exist
    solvable = np.array([error is None for error in errors], dtype=bool)
    values, rows = values[solvable], np.cumsum(solvable) - 1
    # the blocks leave out what M_r leaks between sectors: with L = ||M_r - R^T M_r R|| <= its
    # Frobenius norm, a block vector's full-space residual exceeds its block residual by at
    # most (1 + sqrt(n)) n L / 2 < (n+1)^(3/2) L
    leakage = [_leakage(perm, values[:, start:end]) for perm, start, end in zip(perms, offsets, offsets[1:])]
    leakage = (n + 1) ** 1.5 * np.array([leakage[min(r, n + 1 - r) - 1] for r in range(1, n + 1)]).T
    a, x, y = np.random.default_rng(_COMBINATION_SEED).standard_normal((3, (n + 1) // 2))
    # one sector at a time, so each sector's blocks are freed after its solve
    solved = [_solve_sector(_sector_blocks(values, n, *sector), n, a, x, y) for sector in plan]
    # M_r commutes with M_r^T = M_{n+1-r}, so its 2-norm is its spectral radius max_k |e_rk| (0 / 0 at M_r = 0)
    radius = np.max([np.max(np.abs(e), axis=1) for _, e, _ in solved], axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        solved = [(v, e, np.max((norms + leakage[:, None]) / radius[:, None], axis=2)) for v, e, norms in solved]
    # a point's result is its row of the stacks, or the error from its hop values
    for params, error, i in zip(points, errors, rows):
        yield error or _spectrum(params, basis, [(v[i], e[i], r[i]) for v, e, r in solved])


def _solved(result) -> Spectrum:
    """A point's Spectrum from ``_spectra``, or the error the point met, raised."""
    if isinstance(result, Exception):
        raise result
    return result


def joint_diagonalize(params: ModelParams, basis: LatticeBasis | None = None) -> Spectrum:
    """Simultaneously diagonalize the commuting family at the given parameters.

    The box splits into the n+1 sectors of its cyclic rotation R
    (``LatticeBasis.rotation``), sector k the eigenspace of R with eigenvalue
    omega^k, omega = exp(2 pi i / (n+1)).  Sectors 0..floor((n+1)/2) are
    solved, one block each, with all n operators; sector n+1-k is the complex
    conjugate of sector k, with vectors conj(v), eigenvalues conj(e) and the
    residuals of v.  Each residual adds the leakage of M_r between sectors to
    the block residual, so it bounds the full-space residual.

    The blocks of r <= ceil(n/2) come from the move table (``sector_plan``): a
    move a -> t = R^j b from an orbit representative adds M_r[a, t]
    sqrt(s_a / s_b) omega^(jk) to B_k[a, b], and order n+1-r reads B_k^H, so no
    N x N operator is formed: the one-point case of the stacked solve that
    ``sweep_spectra`` and ``run_verification`` make.

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
    in its block solve's order; label_spectrum (at p = 0) and continue_labels
    put them in label order.

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
    return _solved(next(_spectra([params], basis)))


def _max_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix of max_r |a[i, r] - b[j, r]|, built one column r at a time."""
    out = np.zeros((len(a), len(b)))
    for r0 in range(a.shape[1]):
        np.maximum(out, np.abs(a[:, r0, None] - b[None, :, r0]), out=out)
    return out


def label_spectrum(spectrum: Spectrum) -> Spectrum:
    """Label a spectrum at p = 0 by partitions in the box, by nearest closed-form eigenvalue vector, sector by
    sector.  Off p = 0, ``sweep_spectra(params, [p])[0]`` solves p and its p = 0 base in one pass and labels it;
    a spectrum already solved at p takes its labels by ``continue_labels`` from a labeled p = 0 one."""
    if spectrum.params.p != 0.0:
        raise ValueError("the closed-form labels are defined at p = 0")
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
    """Match candidate vectors to previous labels by overlap, sector by sector; None on failure.  A frame
    vector is omega^(jk) b_a / sqrt(s_a) on the orbit of a up to a phase, or its conjugate, so |<v, v'>| =
    |<b, b'>| for their block vectors: sector k reads the overlaps of block min(k, n+1-k)."""
    n = candidate.params.n
    overlaps = [np.abs(b.conj().T @ c) for b, c in zip(previous.blocks, candidate.blocks)]
    order = np.empty(len(candidate), dtype=np.intp)
    for k in range(n + 1):
        labels, pairs = np.flatnonzero(previous.sectors == k), np.flatnonzero(candidate.sectors == k)
        overlap = overlaps[min(k, n + 1 - k)][np.ix_(previous.columns[labels], candidate.columns[pairs])]
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


def sweep_spectra(params: ModelParams, p_values) -> list:
    """Labeled spectra along a nome sweep, solved in one stacked pass, propagating labels point to point.

    A first nome off p = 0 is labeled from p = 0, which the pass solves right after it.  A refused nome
    or a failed solve raises when the sweep reaches it, after any earlier failure.
    """
    basis, points, refused = enumerate_lattice(params.n, params.m), [], None
    try:
        for p in p_values:
            points.append(replace(params, p=float(p)))
    except (TypeError, ValueError) as error:
        refused = error
    base = [replace(points[0], p=0.0)] if points and points[0].p != 0.0 else []
    solved, spectra = map(_solved, _spectra(points[:1] + base + points[1:], basis)), []
    for target in solved:
        # the first point is labeled at p = 0: its own nome, or the next one of the pass
        labeled = spectra[-1] if spectra else label_spectrum(next(solved) if base else target)
        spectra.append(continue_labels(labeled, target))
    if refused is not None:
        raise refused
    return spectra


def orthogonality_residual(spectrum: Spectrum) -> float:
    """Largest off-diagonal inner product between the eigenvectors v, the weighted one between the u."""
    v = spectrum.eigenvectors
    gram = v.T @ np.conj(v)
    off = gram - np.diag(np.diag(gram))
    return float(np.max(np.abs(off)))
