"""Trajectory matrix assembly and SVD-based basis extraction.

Sampled trajectories at fixed random-variable values become columns of a tall
matrix; the leading right singular vectors span the empirical basis for one
time window.

The POD only needs T^T T, and an orthogonal change of the row coordinates
leaves T^T T unchanged (Parseval). ``truncate_pod`` therefore decomposes the
rows of T after the orthonormal real DFT along x, the fact the method of
snapshots rests on (Sirovich, Q. Appl. Math. 45, 1987), without squaring
anything. The solutions' energy sits in few spatial modes, so the modes that
together hold at most ``_TAIL**2`` of the energy are dropped first. By Weyl's
inequality this moves every singular value by at most ``_TAIL * ||T||_F``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .random_space import QuadratureRule

__all__ = [
    "TrajectoryMatrix",
    "BasisSet",
    "assemble_trajectory_matrix",
    "truncate_pod",
    "projection_residual",
]

# relative Frobenius norm of the Fourier rows truncate_pod may drop: roundoff
_TAIL = 1e-13


@dataclass(frozen=True)
class TrajectoryMatrix:
    """Spacetime-samples-by-trajectories matrix.

    Row order is x-major then t (row = i * time_count + j for grid point i and
    output time j); column l holds the trajectory at sample l.
    """

    entries: np.ndarray
    grid_size: int
    time_count: int

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        if entries.ndim != 2:
            raise ValueError("entries must be a 2-d array")
        if entries.shape[0] != self.grid_size * self.time_count:
            raise ValueError("row count must equal grid_size * time_count")
        if not np.all(np.isfinite(entries)):
            raise ValueError("trajectory matrix contains non-finite entries")

    @property
    def sample_count(self) -> int:
        return self.entries.shape[1]


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


def assemble_trajectory_matrix(solutions) -> TrajectoryMatrix:
    """Stack per-sample trajectories into the trajectory matrix.

    ``solutions`` is a sequence of K arrays of shape (time_count, grid_size),
    or equivalently one array of shape (K, time_count, grid_size).
    """
    stacked = np.asarray(solutions, dtype=float)
    if stacked.ndim != 3:
        raise ValueError("expected K trajectories of shape (time_count, grid_size)")
    k, n_t, m = stacked.shape
    entries = stacked.transpose(2, 1, 0).reshape(m * n_t, k)
    return TrajectoryMatrix(entries=entries, grid_size=m, time_count=n_t)


def _energetic_rows(matrix: TrajectoryMatrix) -> np.ndarray:
    """Rows of T in orthonormal real-DFT coordinates along x, less a roundoff tail.

    Mode 0 and, for an even grid, the Nyquist mode give one real row block
    each, scaled by 1/sqrt(M); every other mode gives a real and an imaginary
    block scaled by sqrt(2/M). The least energetic modes are dropped while
    their summed energy stays at most ``_TAIL**2`` of the total.
    """
    m, n_t, k = matrix.grid_size, matrix.time_count, matrix.sample_count
    spectrum = np.fft.rfft(matrix.entries.reshape(m, n_t, k), axis=0)
    modes = np.arange(spectrum.shape[0])
    paired = (modes > 0) & (2 * modes < m)
    weights = np.where(paired, 2.0, 1.0) / m
    flat = spectrum.reshape(modes.size, -1).view(float)
    energy = weights * np.einsum("ij,ij->i", flat, flat)
    total = energy.sum()
    if not 0.0 < total < np.inf:
        raise ValueError("degenerate input: trajectory matrix is zero, or its "
                         "squared norm overflows")
    by_energy = np.argsort(energy)
    dropped = np.count_nonzero(np.cumsum(energy[by_energy]) <= _TAIL**2 * total)
    kept = np.sort(by_energy[dropped:])
    imaginary = kept[paired[kept]]
    scale = np.sqrt(weights)[:, None, None]
    rows = np.empty((kept.size + imaginary.size, n_t, k))
    np.multiply(spectrum.real[kept], scale[kept], out=rows[:kept.size])
    np.multiply(spectrum.imag[imaginary], scale[imaginary], out=rows[kept.size:])
    return rows.reshape(-1, k)


def truncate_pod(
    matrix: TrajectoryMatrix,
    threshold: float,
    rule: QuadratureRule,
    cap: int | None = None,
    least: int = 1,
) -> BasisSet:
    """Extract the leading right singular vectors as an empirical basis.

    Keeps every direction whose scaled singular value sigma_i / sigma_1 is at
    least ``threshold``, and at least ``least`` directions where that many
    singular values are computed, optionally capped.

    The singular values and vectors are those of T's energetic Fourier rows
    (see the module docstring): each sigma_i is within ``_TAIL * ||T||_F`` of
    T's. ``singular_values`` keeps T's length, min(M * n_t, K); when fewer
    rows than samples survive the tail, the trailing entries are 0, since the
    true values lie below that bound. A zero T, or one whose squared norm
    overflows, raises ValueError.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    if matrix.sample_count != len(rule):
        raise ValueError("trajectory column count must equal quadrature node count")
    # the right singular vectors and singular values of A = QR are those of R
    # (T. Chan's R-bidiagonalization), so only R is decomposed and no left
    # vectors are formed. The BLAS thread policy lives in the CLI
    # (cli._one_blas_thread), not here.
    (r,) = scipy.linalg.qr(_energetic_rows(matrix), mode="r", check_finite=False)
    _, sigma, vt = scipy.linalg.svd(r, full_matrices=False, check_finite=False)
    sigma = np.pad(sigma, (0, min(matrix.entries.shape) - sigma.size))
    n_keep = max(1, least, int(np.count_nonzero(sigma / sigma[0] >= threshold)))
    if cap is not None:
        n_keep = min(n_keep, max(1, cap))
    return BasisSet(values=vt[:n_keep].T.copy(), rule=rule, singular_values=sigma)


def projection_residual(matrix: TrajectoryMatrix, basis: BasisSet) -> float:
    """Frobenius norm of T - T*P with P the Euclidean projector onto the basis.

    For a basis produced by ``truncate_pod`` this equals
    sqrt(sum of squared discarded singular values).
    """
    if basis.values.shape[0] != matrix.sample_count:
        raise ValueError("basis node count does not match trajectory columns")
    t = matrix.entries
    projected = (t @ basis.values) @ basis.values.T
    return float(np.linalg.norm(t - projected))
