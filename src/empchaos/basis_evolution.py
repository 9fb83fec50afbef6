"""Time evolution of a frozen empirical basis for the wave operator.

Projecting the wave dynamics onto fixed spatial coefficient functions yields a
linear system for the stochastic basis, solved per quadrature node by the
exponential of G^{-1} A, with G the spatial Gram matrix and A the
antisymmetric part of the advection matrix. A near-singular G is split into
well-conditioned leading blocks; each block's exponential comes from one
Hermitian eigendecomposition and is G-orthogonal, so evolution cannot overflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .pde_core import SpatialGrid, spatial_derivative
from .pod import BasisSet

__all__ = [
    "SingularBlock",
    "SpatialGalerkinPair",
    "spatial_pair",
    "block_decompose",
    "evolve_basis",
]

CONDITION_LIMIT = 1e12


class SingularBlock(RuntimeError):
    """Raised when the block split hits an irreducibly singular diagonal, or a
    Gram block is not positive definite."""


@dataclass(frozen=True)
class SpatialGalerkinPair:
    """Spatial Gram and advection matrices of the frozen coefficient functions.

    gram[j, i] = integral of u_hat^i * u_hat^j over the periodic domain;
    advect[j, i] = integral of d(u_hat^i)/dx * u_hat^j (antisymmetric).
    """

    gram: np.ndarray
    advect: np.ndarray

    @property
    def size(self) -> int:
        return self.gram.shape[0]


def spatial_pair(coefficients: np.ndarray, grid: SpatialGrid) -> SpatialGalerkinPair:
    """Assemble the pair from the (basis count, grid size) spatial coefficient
    functions (periodic trapezoid = h*sum)."""
    funcs = np.asarray(coefficients, dtype=float)
    if funcs.ndim != 2 or funcs.shape[1] != grid.point_count:
        raise ValueError("coefficients must be (basis count, grid size)")
    h = grid.spacing
    derivs = spatial_derivative(funcs, grid)
    gram = h * (funcs @ funcs.T)
    advect = h * (funcs @ derivs.T)
    return SpatialGalerkinPair(gram=0.5 * (gram + gram.T), advect=advect)


def block_decompose(pair: SpatialGalerkinPair) -> list[tuple[int, int]]:
    """Greedy contiguous split of the Gram matrix into well-conditioned blocks.

    Starting from the top-left corner, each block is grown while its leading
    principal submatrix stays below ``CONDITION_LIMIT``; the next block
    starts where the previous one closed. Every index lands in exactly one
    block.
    """
    n = pair.size
    blocks: list[tuple[int, int]] = []
    start = 0
    while start < n:
        size = 0
        for trial in range(1, n - start + 1):
            sub = pair.gram[start:start + trial, start:start + trial]
            cond = float(np.linalg.cond(sub))
            if np.isfinite(cond) and cond < CONDITION_LIMIT:
                size = trial
            else:
                break
        if size == 0:
            if abs(pair.gram[start, start]) == 0.0:
                raise SingularBlock(f"zero diagonal entry at index {start}")
            # a 1x1 block always has condition number 1; only an exactly zero
            # diagonal is irreducible
            size = 1
        blocks.append((start, start + size))
        start += size
    return blocks


def evolve_basis(basis: BasisSet, pair: SpatialGalerkinPair, dt: float) -> BasisSet:
    """Advance the basis by exp(xi * dt * G^{-1} A) per node, with G the Gram
    and A the antisymmetric part of ``advect``, one block at a time.

    The propagator is G-orthogonal (it keeps each node's coefficients at their
    G-norm), so evolution cannot overflow; the columns' orthonormality is not
    preserved. dt = 0 returns the basis values unchanged.
    """
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    if pair.size != basis.size:
        raise ValueError("pair size does not match basis size")
    if dt == 0.0:
        return basis
    values = basis.values.copy()
    scales = basis.rule.nodes * dt
    for a, b in block_decompose(pair):
        values[:, a:b] = _evolve_block(pair, a, b, scales, values[:, a:b])
    return BasisSet(values=values, rule=basis.rule)


def _evolve_block(pair: SpatialGalerkinPair, a: int, b: int, scales: np.ndarray,
                  segment: np.ndarray) -> np.ndarray:
    """Row l of ``segment`` mapped through exp(scales[l] G^{-1} A)^T on block
    [a:b]: the Hermitian pencil (iA, G) has real eigenvalues mu and vectors V
    with V^H G V = I, so exp(s G^{-1} A) = V diag(e^{-i s mu}) V^H G."""
    gram, advect = pair.gram[a:b, a:b], pair.advect[a:b, a:b]
    try:
        mu, vecs = scipy.linalg.eigh(0.5j * (advect - advect.T), gram)
    except scipy.linalg.LinAlgError as exc:
        raise SingularBlock(f"Gram block [{a}:{b}] is not positive definite") from exc
    coords = segment @ gram @ vecs.conj()
    coords *= np.exp(-1j * np.multiply.outer(scales, mu))
    return np.real(coords @ vecs.T)
