"""Time evolution of a frozen empirical basis for the wave operator.

Projecting the wave dynamics onto fixed spatial coefficient functions yields a
linear system for the stochastic basis whose solution is a matrix exponential
per quadrature node. When the spatial Gram matrix is near singular the system
is split into well-conditioned leading blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .pde_core import SpatialGrid, TimeWindow, spatial_derivative
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
    """Raised when the block split hits an irreducibly singular diagonal."""


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


def _block_propagators(pair: SpatialGalerkinPair, blocks) -> list[tuple[int, int, np.ndarray]]:
    out = []
    for a, b in blocks:
        gram = pair.gram[a:b, a:b]
        try:
            generator = scipy.linalg.solve(gram, pair.advect[a:b, a:b])
        except scipy.linalg.LinAlgError as exc:
            raise SingularBlock(f"singular Gram block [{a}:{b}]") from exc
        out.append((a, b, generator))
    return out


def evolve_basis(basis: BasisSet, pair: SpatialGalerkinPair, dt: float) -> BasisSet:
    """Advance the basis by the exponential propagator exp(xi * G * dt) per
    node, with G = gram^{-1} * advect computed blockwise.

    Orthonormality of the columns is not preserved. dt = 0 returns the basis
    values unchanged.
    """
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    if pair.size != basis.size:
        raise ValueError("pair size does not match basis size")
    if dt == 0.0:
        return basis
    values = basis.values.copy()
    nodes = basis.rule.nodes
    for a, b, generator in _block_propagators(pair, block_decompose(pair)):
        values[:, a:b] = _apply_exponentials(generator, nodes * dt, values[:, a:b])
    if not np.all(np.isfinite(values)):
        raise OverflowError("matrix exponential overflowed during basis evolution")
    window = TimeWindow(basis.window.start + dt, basis.window.end + dt)
    return BasisSet(values=values, rule=basis.rule, window=window)


def _apply_exponentials(generator: np.ndarray, scales: np.ndarray,
                        segment: np.ndarray) -> np.ndarray:
    """Rows of ``segment`` mapped through exp(scale_l * generator) per row.

    Uses one eigendecomposition when the generator is safely diagonalizable,
    otherwise a scaling-and-squaring exponential per node.
    """
    if generator.shape == (1, 1):
        return segment * np.exp(scales[:, None] * generator[0, 0])
    try:
        lam, vecs = np.linalg.eig(generator)
        cond = np.linalg.cond(vecs)
    except np.linalg.LinAlgError:
        cond = np.inf
    if np.isfinite(cond) and cond < 1e8:
        inv_vecs = np.linalg.inv(vecs)
        # row_l -> row_l @ exp(scale_l G)^T = ((row V^-T) * e^{scale lam}) V^T
        tmp = segment @ inv_vecs.T
        tmp = tmp * np.exp(np.multiply.outer(scales, lam))
        return np.real(tmp @ vecs.T)
    out = np.empty_like(segment)
    for l, scale in enumerate(scales):
        out[l] = segment[l] @ scipy.linalg.expm(scale * generator).T
    return out
