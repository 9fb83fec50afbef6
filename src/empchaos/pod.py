"""SVD-based basis extraction from sampled trajectories.

The (n_t, K, M) trajectories that ``pde_core.solve_ensemble`` returns, at K
quadrature nodes, M grid points and n_t output times, stand for the trajectory
matrix T: one column per node, one row per (grid point, output time). The
leading right singular vectors of T span the empirical basis for one time
window.

The POD only needs T^T T, which neither the order of T's rows nor an
orthogonal change of their coordinates alters (Parseval), so T is never
formed. The POD decomposes the rows of T after the orthonormal real DFT
along x, the fact the method of snapshots rests on (Sirovich, Q. Appl.
Math. 45, 1987), without squaring anything. The solutions' energy sits in
few spatial modes, so the modes that together hold at most ``_TAIL**2`` of
the energy are dropped first. By Weyl's inequality this moves every singular
value by at most ``_TAIL * ||T||_F``.

One writer (``_fourier_rows``) makes those rows from each mode's energy and
the kept modes' spectrum, one output time at a time. ``truncate_pod`` takes
both from one rfft of the trajectories. On the wave the rows are the marched
spectrum itself, so ``truncate_spectrum`` takes them from a
``pde_core.AdvectionSpectrum`` without putting the samples on the grid: each
mode's energy is known in closed form before any marching, and only the
modes the tail leaves are marched. Both paths share the tail rule
(``_kept_modes``), the writer and the decomposition (``_decompose``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .pde_core import AdvectionSpectrum
from .random_space import QuadratureRule

__all__ = [
    "BasisSet",
    "truncate_pod",
    "truncate_spectrum",
]

# relative Frobenius norm of the Fourier rows truncate_pod may drop: roundoff
_TAIL = 1e-13


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


def _fourier_rows(energy: np.ndarray, march: Callable[[np.ndarray], Iterable[np.ndarray]],
                  shape: tuple[int, int, int]) -> np.ndarray:
    """Rows of T in orthonormal real-DFT coordinates along x, less a roundoff tail.

    ``shape`` is T's (n_t, K, M) and ``energy`` the summed squared modulus of
    each of the M//2 + 1 rfft modes. A paired mode (neither 0 nor, for an
    even grid, the Nyquist mode) has weight 2/M and gives a real and an
    imaginary row block; the others have weight 1/M and give a real block.
    sqrt(weight) makes the real DFT orthonormal. The modes kept are those
    that ``_kept_modes`` leaves of the weighted energy, and ``march(kept)``
    yields their (K, kept count) spectrum at each output time in turn; each
    block has one row per output time.
    """
    n_t, k, m = shape
    modes = np.arange(m // 2 + 1)
    paired = (modes > 0) & (2 * modes < m)
    weights = np.where(paired, 2.0, 1.0) / m
    kept = _kept_modes(energy * weights)
    imaginary, scale = paired[kept], np.sqrt(weights[kept])
    # written straight into Fortran order, the layout LAPACK reads, so the QR
    # need not copy them
    rows = np.empty((k, kept.size + np.count_nonzero(imaginary), n_t))
    for j, spectrum in enumerate(march(kept)):
        np.multiply(spectrum.real, scale, out=rows[:, :kept.size, j])
        np.multiply(spectrum.imag[:, imaginary], scale[imaginary], out=rows[:, kept.size:, j])
    return rows.reshape(k, -1).T


def _pod_rows(trajectories: np.ndarray) -> np.ndarray:
    """``_fourier_rows`` of the (n_t, K, M) ``trajectories``, from one rfft
    of them; the spectrum is freed on return, before any decomposition."""
    spectrum = np.fft.rfft(trajectories)
    energy = (np.einsum("tkm,tkm->m", spectrum.real, spectrum.real)
              + np.einsum("tkm,tkm->m", spectrum.imag, spectrum.imag))
    return _fourier_rows(energy, lambda kept: (output[:, kept] for output in spectrum),
                         trajectories.shape)


def _decompose(shape: tuple[int, int, int], make_rows: Callable[[], np.ndarray], threshold: float,
               rule: QuadratureRule, cap: int | None, least: int) -> BasisSet:
    """The basis of T's leading right singular vectors, for T of (n_t, K, M)
    ``shape``: those whose sigma_i / sigma_1 is at least ``threshold``, at
    least ``least`` of them where that many are computed, at most ``cap``.
    They are those of ``make_rows()``, rows of T that share its T^T T,
    called only after the checks both entries share: a threshold outside
    (0, 1), or a K other than the rule's node count, is a ValueError."""
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    n_t, k, m = shape
    if k != len(rule):
        raise ValueError("trajectory node count must equal quadrature node count")
    rows = make_rows()
    if rows.shape[0] > k:
        # the right singular vectors and singular values of A = QR are those
        # of R (T. Chan's R-bidiagonalization), so only R, the K x K block
        # that mode "r" returns, is decomposed and no left vectors are formed.
        # With no more rows than K the QR would not shrink them.
        rows = np.linalg.qr(rows, mode="r")
    # the BLAS thread policy lives in the CLI (cli._one_blas_thread), not here
    _, sigma, vt = np.linalg.svd(rows, full_matrices=False)
    sigma = np.pad(sigma, (0, min(n_t * m, k) - sigma.size))
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
    if trajectories.ndim != 3:
        raise ValueError("trajectories must be (time count, node count, grid size)")
    return _decompose(trajectories.shape, lambda: _pod_rows(trajectories), threshold, rule,
                      cap, least)


def truncate_spectrum(spectrum: AdvectionSpectrum, threshold: float, rule: QuadratureRule,
                      cap: int | None = None) -> BasisSet:
    """``truncate_pod`` of the wave samples that ``spectrum`` stands for,
    with T's rows taken from the spectrum itself (module docstring), so the
    samples are never put on the grid. A node count other than the rule's,
    or a zero spectrum, is a ValueError."""
    shape = (len(spectrum.plan), spectrum.spectrum.shape[0], spectrum.grid.point_count)
    return _decompose(shape, lambda: _fourier_rows(spectrum.energy.sum(axis=0), spectrum.march,
                                                   shape), threshold, rule, cap, 1)

