"""SVD-based basis extraction from sampled trajectories.

The (n_t, K, M) trajectories that ``pde_core.solve_ensemble`` returns, at K
quadrature nodes, M grid points and n_t output times, stand for the trajectory
matrix T: one column per node, one row per (grid point, output time). The
leading right singular vectors of T span the empirical basis for one time
window.

The POD only needs T^T T, which neither the order of T's rows nor an
orthogonal change of their coordinates alters (Parseval), so T is never
formed. ``truncate_pod`` decomposes the rows of T after the orthonormal real
DFT along x, the fact the method of snapshots rests on (Sirovich, Q. Appl.
Math. 45, 1987), without squaring anything. The solutions' energy sits in
few spatial modes, so the modes that together hold at most ``_TAIL**2`` of
the energy are dropped first. By Weyl's inequality this moves every singular
value by at most ``_TAIL * ||T||_F``.

On the wave those rows are the marched spectrum itself, so
``truncate_spectrum`` takes them from a ``pde_core.AdvectionSpectrum``
without putting the samples on the grid: each mode's energy is known in
closed form before any marching, only the modes the tail leaves are marched,
and the Parseval argument is unchanged. Both paths share the tail rule
(``_kept_modes``), the row writer (``_write_rows``) and the decomposition
(``_decompose``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .pde_core import AdvectionSpectrum
from .random_space import QuadratureRule

__all__ = [
    "BasisSet",
    "truncate_pod",
    "truncate_spectrum",
    "projection_residual",
]

# relative Frobenius norm of the Fourier rows truncate_pod may drop: roundoff
_TAIL = 1e-13
# largest piece of the trajectories' spectrum held at once
_SPECTRUM_BYTES = 4 << 20


@dataclass(frozen=True)
class BasisSet:
    """Stochastic basis functions stored as value tables at quadrature nodes.

    Column i of ``values`` is the i-th basis function evaluated at the rule's
    nodes. Fresh POD bases have Euclidean-orthonormal columns; evolved bases
    do not.
    """

    values: np.ndarray
    rule: QuadratureRule
    singular_values: np.ndarray = field(default_factory=lambda: np.array([]))

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        sv = np.asarray(self.singular_values, dtype=float)
        sv.setflags(write=False)
        object.__setattr__(self, "singular_values", sv)
        if values.ndim != 2 or values.shape[0] != len(self.rule):
            raise ValueError("values must be (node count, basis count)")
        if values.shape[1] < 1:
            raise ValueError("need at least one basis function")

    @property
    def size(self) -> int:
        return self.values.shape[1]

    def reconstruct(self, coefficients: np.ndarray) -> np.ndarray:
        """Node values of sum_i c_i * Psi_i; coefficients may be (N_b,) or (N_b, M)."""
        return self.values @ coefficients


def _mode_weights(m: int) -> tuple[np.ndarray, np.ndarray]:
    """(paired, weights) of the M//2 + 1 rfft modes of a grid of M points: a
    paired mode (neither 0 nor, for an even grid, the Nyquist mode) gives a
    real and an imaginary row block, with weight 2/M; the others one real
    block, with weight 1/M. sqrt(weight) makes the real DFT orthonormal."""
    modes = np.arange(m // 2 + 1)
    paired = (modes > 0) & (2 * modes < m)
    return paired, np.where(paired, 2.0, 1.0) / m


def _kept_modes(energy: np.ndarray) -> np.ndarray:
    """The modes, in increasing order, left once the least energetic ones are
    dropped while their summed ``energy`` stays at most ``_TAIL**2`` of the
    total. A total that is zero or not finite is a ValueError."""
    total = energy.sum()
    if not 0.0 < total < np.inf:
        raise ValueError("degenerate input: trajectories are zero, hold non-finite "
                         "entries, or their squared norm overflows")
    by_energy = np.argsort(energy)
    dropped = np.count_nonzero(np.cumsum(energy[by_energy]) <= _TAIL**2 * total)
    return np.sort(by_energy[dropped:])


def _write_rows(rows: np.ndarray, spectrum: np.ndarray, modes: np.ndarray,
                paired: np.ndarray, scale: np.ndarray) -> None:
    """Write T's rows from ``spectrum`` (output time, node, mode) into ``rows``
    (node, row, output time): the real parts of ``modes``, then the imaginary
    parts of those that are ``paired``, each scaled by its ``scale``."""
    imaginary = modes[paired[modes]]
    np.multiply(spectrum.real[..., modes].transpose(1, 2, 0), scale[modes, None],
                out=rows[:, :modes.size])
    np.multiply(spectrum.imag[..., imaginary].transpose(1, 2, 0), scale[imaginary, None],
                out=rows[:, modes.size:])


def _energetic_rows(trajectories: np.ndarray) -> np.ndarray:
    """Rows of T in orthonormal real-DFT coordinates along x, less a roundoff tail.

    Each mode gives one real row block, and each paired mode an imaginary one
    too, scaled as ``_mode_weights`` says; each block has one row per output
    time. The modes are those that ``_kept_modes`` leaves.
    """
    n_t, k, m = trajectories.shape
    paired, weights = _mode_weights(m)
    # the spectrum is taken a few output times at a time: in one piece it is a
    # fresh transient the size of T on every call, which on a fragmented heap
    # makes the process's peak memory vary from run to run
    per_chunk = max(1, _SPECTRUM_BYTES // (16 * k * weights.size))
    chunks = [slice(a, a + per_chunk) for a in range(0, n_t, per_chunk)]
    energy = np.zeros(weights.size)
    for chunk in chunks:
        spectrum = np.fft.rfft(trajectories[chunk])
        energy += (np.einsum("tkm,tkm->m", spectrum.real, spectrum.real)
                   + np.einsum("tkm,tkm->m", spectrum.imag, spectrum.imag))
    kept = _kept_modes(energy * weights)
    # written straight into Fortran order, the layout LAPACK reads, so the QR
    # need not copy them; the last chunk's spectrum is still at hand
    rows = np.empty((k, kept.size + np.count_nonzero(paired[kept]), n_t))
    for i, chunk in enumerate(reversed(chunks)):
        if i:
            spectrum = np.fft.rfft(trajectories[chunk])
        _write_rows(rows[..., chunk], spectrum, kept, paired, np.sqrt(weights))
    return rows.reshape(k, -1).T


def _spectrum_rows(spectrum: AdvectionSpectrum) -> np.ndarray:
    """The rows of ``_energetic_rows`` for the samples that ``spectrum``
    stands for: the modes are cut by its closed-form energy, and only the
    kept ones are marched."""
    n_t = len(spectrum.plan)
    k = spectrum.spectrum.shape[0]
    paired, weights = _mode_weights(spectrum.grid.point_count)
    kept = _kept_modes(spectrum.energy.sum(axis=0) * weights)
    rows = np.empty((k, kept.size + np.count_nonzero(paired[kept]), n_t))
    _write_rows(rows, spectrum.march(kept), np.arange(kept.size), paired[kept],
                np.sqrt(weights[kept]))
    return rows.reshape(k, -1).T


def _decompose(rows: np.ndarray, threshold: float, rule: QuadratureRule, cap: int | None,
               least: int, count: int) -> BasisSet:
    """The basis of T's leading right singular vectors, from ``rows`` of T
    that share T's T^T T: the ones whose sigma_i / sigma_1 is at least
    ``threshold``, at least ``least`` of them where that many are computed,
    at most ``cap``; ``count`` is T's singular value count."""
    k = rows.shape[1]
    if rows.shape[0] > k:
        # the right singular vectors and singular values of A = QR are those
        # of R (T. Chan's R-bidiagonalization), so only R is decomposed and no
        # left vectors are formed. R has A's row count, and below its leading
        # K x K block its rows are zero, so only that block is decomposed.
        # With no more rows than K the QR would not shrink them.
        (rows,) = scipy.linalg.qr(rows, mode="r", overwrite_a=True, check_finite=False)
        rows = rows[:k]
    # the BLAS thread policy lives in the CLI (cli._one_blas_thread), not here
    _, sigma, vt = scipy.linalg.svd(rows, full_matrices=False, check_finite=False)
    sigma = np.pad(sigma, (0, count - sigma.size))
    n_keep = max(1, least, int(np.count_nonzero(sigma / sigma[0] >= threshold)))
    if cap is not None:
        n_keep = min(n_keep, max(1, cap))
    return BasisSet(values=vt[:n_keep].T.copy(), rule=rule, singular_values=sigma)


def truncate_pod(
    trajectories: np.ndarray,
    threshold: float,
    rule: QuadratureRule,
    cap: int | None = None,
    least: int = 1,
) -> BasisSet:
    """Extract the leading right singular vectors of T as an empirical basis.

    ``trajectories`` is the (n_t, K, M) array of ``solve_ensemble``, with K
    the rule's node count; T is read from it as in the module docstring.
    Keeps every direction whose scaled singular value sigma_i / sigma_1 is at
    least ``threshold``, and at least ``least`` directions where that many
    singular values are computed, optionally capped.

    The singular values and vectors are those of T's energetic Fourier rows
    (see the module docstring): each sigma_i is within ``_TAIL * ||T||_F`` of
    T's. ``singular_values`` keeps T's length, min(M * n_t, K); when fewer
    rows than samples survive the tail, the trailing entries are 0, since the
    true values lie below that bound. Trajectories that are not 3-d, or
    whose K is not the rule's node count, raise ValueError; so does a zero T,
    one with non-finite entries, or one whose squared norm overflows.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    if trajectories.ndim != 3:
        raise ValueError("trajectories must be (time count, node count, grid size)")
    n_t, k, m = trajectories.shape
    if k != len(rule):
        raise ValueError("trajectory node count must equal quadrature node count")
    return _decompose(_energetic_rows(trajectories), threshold, rule, cap, least,
                      min(n_t * m, k))


def truncate_spectrum(spectrum: AdvectionSpectrum, threshold: float, rule: QuadratureRule,
                      cap: int | None = None) -> BasisSet:
    """``truncate_pod`` of the wave samples that ``spectrum`` stands for,
    with T's rows taken from the spectrum itself (module docstring), so the
    samples are never put on the grid. A node count other than the rule's,
    or a zero spectrum, is a ValueError."""
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    k, m = spectrum.spectrum.shape[0], spectrum.grid.point_count
    if k != len(rule):
        raise ValueError("trajectory node count must equal quadrature node count")
    return _decompose(_spectrum_rows(spectrum), threshold, rule, cap, 1,
                      min(len(spectrum.plan) * m, k))


def projection_residual(trajectories: np.ndarray, basis: BasisSet) -> float:
    """Frobenius norm of T - T*P with P the Euclidean projector onto the basis.

    ``trajectories`` is the (n_t, K, M) array that T is read from (see the
    module docstring). For a basis produced by ``truncate_pod`` this equals
    sqrt(sum of squared discarded singular values).
    """
    if basis.values.shape[0] != trajectories.shape[1]:
        raise ValueError("basis node count does not match the trajectories' node count")
    t = trajectories.transpose(0, 2, 1)
    projected = (t @ basis.values) @ basis.values.T
    return float(np.linalg.norm(t - projected))
