"""Stochastic Galerkin systems for general (non-orthogonal) basis sets.

Assembles mass/advection matrices by quadrature, projects solution values at
the quadrature nodes onto a basis (the one projection used at every window
seam, window 0 included), propagates the implicit coefficient ODE with RK4
(in Fourier space for the wave problem), and evaluates solution statistics
from the archive of solved windows. The reaction term is projected either
through every quadrature node or, given interpolation points and their lift
(DEIM), from its values at those points only, so that a stage costs in
proportion to the point count rather than the node count. Coefficients are
plain arrays: one window's state is c[i, x] = u_hat^i(x), shape (basis
count, grid size), and a propagated window is the (output time, basis count,
grid size) array.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .pde_core import (
    PdeProblem,
    SpatialGrid,
    TimeWindow,
    integrate_advection,
    integrate_ode,
    spatial_derivative,
)
from .pod import BasisSet

__all__ = [
    "IllConditionedBasis",
    "GalerkinMatrices",
    "WindowRecord",
    "ExpansionArchive",
    "assemble_matrices",
    "project_node_values",
    "propagate_window",
]

CONDITION_LIMIT = 1e12


class IllConditionedBasis(RuntimeError):
    """Raised when a mass matrix is too ill-conditioned to solve against."""


@dataclass(frozen=True)
class GalerkinMatrices:
    """Mass and advection matrices of a basis, with a reusable factorization.

    mass[j, i] = E[Psi_i * Psi_j], advection[j, i] = E[xi * Psi_i * Psi_j].
    The mass factorization is computed once and reused in every solve.
    """

    mass: np.ndarray
    advection: np.ndarray
    condition_number: float
    _factor: tuple = field(repr=False, default=None)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return scipy.linalg.cho_solve(self._factor, rhs)


def assemble_matrices(basis: BasisSet) -> GalerkinMatrices:
    """Quadrature assembly of the Gram (mass) and advection matrices."""
    v = basis.values
    w = basis.rule.weights
    xi = basis.rule.nodes
    mass = v.T @ (w[:, None] * v)
    advection = v.T @ ((w * xi)[:, None] * v)
    # the integrands are symmetric in (i, j); symmetrize away roundoff
    mass = 0.5 * (mass + mass.T)
    advection = 0.5 * (advection + advection.T)
    cond = float(np.linalg.cond(mass))
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise IllConditionedBasis(f"mass matrix condition number {cond:.3e}")
    # a weighted Gram matrix that passes the condition gate is positive definite
    try:
        factor = scipy.linalg.cho_factor(mass)
    except scipy.linalg.LinAlgError as exc:
        raise IllConditionedBasis(
            f"mass matrix is not positive definite (condition number {cond:.3e})") from exc
    return GalerkinMatrices(
        mass=mass,
        advection=advection,
        condition_number=cond,
        _factor=factor,
    )


def project_node_values(values: np.ndarray, basis: BasisSet,
                        matrices: GalerkinMatrices | None = None) -> np.ndarray:
    """Project per-node solution values u(xi_l, x), shape (K, M), onto the basis.

    The projection in the probability measure: solve mass * c = E[u * Psi_j].
    Returns the (basis count, M) coefficients.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[0] != len(basis.rule):
        raise ValueError("values must be (node count, grid size) at the basis's nodes")
    if matrices is None:
        matrices = assemble_matrices(basis)
    rhs = basis.values.T @ (basis.rule.weights[:, None] * values)
    return matrices.solve(rhs)


def propagate_window(problem: PdeProblem, coefficients: np.ndarray, basis: BasisSet,
                     window: TimeWindow, grid: SpatialGrid, step: float,
                     matrices: GalerkinMatrices | None = None,
                     interpolation: tuple[np.ndarray, np.ndarray] | None = None,
                     ) -> np.ndarray:
    """RK4 on the mass-solved Galerkin system over one window, from the
    (basis count, M) ``coefficients``; returns the (output time, basis count,
    M) coefficients at ``window.output_times``.

    For the reaction problem every RK4 stage evaluates the reaction at node
    values Psi[p] @ c and adds mass^-1 * Psi^T * W * lift times it, in
    buffers allocated once per window. By default p is every node and lift
    the identity: the quadrature projection. ``interpolation = (points,
    lift)`` evaluates the reaction at those r points only, with lift =
    U * U[p]^-1 (K, r) the interpolant through them in a reaction basis U
    (DEIM; Chaturantabut & Sorensen, SIAM J. Sci. Comput. 32(5), 2010).

    For the wave problem the operator mass^-1 * advection is diagonalized by
    the generalized eigenproblem advection * V = mass * V * diag(lam), which
    has real eigenvalues because both matrices are symmetric and the mass is
    positive definite; V^T * mass * V = I gives V^-1 = V^T * mass, and
    ``integrate_advection`` applies the RK4 steps in Fourier space.
    """
    coefficients = np.asarray(coefficients, dtype=float)
    if coefficients.shape != (basis.size, grid.point_count):
        raise ValueError("coefficients must be (basis count, grid size)")
    if not np.all(np.isfinite(coefficients)):
        raise ValueError("coefficients contain non-finite entries")
    if matrices is None:
        matrices = assemble_matrices(basis)

    if problem.has_reaction:
        # precompute the mass-solved operators once per window; each rhs call
        # is then plain matrix arithmetic
        solved_advection = matrices.solve(matrices.advection)
        weighted = (basis.rule.weights[:, None] * basis.values).T
        node_values = basis.values
        if interpolation is not None:
            points, lift = interpolation
            if lift.shape != (len(basis.rule), len(points)):
                raise ValueError("lift must be (node count, point count)")
            node_values, weighted = node_values[points], weighted @ lift
        solved_projector = matrices.solve(weighted)
        derivative, projected = np.empty((2,) + coefficients.shape)
        nodes = np.empty((node_values.shape[0], grid.point_count))

        def rhs(coeffs, out):
            np.matmul(solved_advection, spatial_derivative(coeffs, grid, out=derivative),
                      out=out)
            np.matmul(node_values, coeffs, out=nodes)
            out += np.matmul(solved_projector, problem.reaction(nodes, out=nodes),
                             out=projected)

        return integrate_ode(rhs, coefficients, window, step)
    lam, vecs = scipy.linalg.eigh(matrices.advection, matrices.mass)
    return integrate_advection(lam, coefficients, window, grid, step,
                               (vecs, vecs.T @ matrices.mass))


@dataclass
class WindowRecord:
    """Everything solved for one time window."""

    window: TimeWindow
    basis: BasisSet
    coefficients: np.ndarray  # (n_output_times, basis count, M)
    matrices: GalerkinMatrices
    reaction_points: int = 0  # nodes the reaction is evaluated at per RK4 stage


@dataclass
class ExpansionArchive:
    """Ordered windows covering [t0, t_current], each with its own basis."""

    records: list = field(default_factory=list)

    def append(self, record: WindowRecord) -> None:
        if self.records:
            prev = self.records[-1].window
            if abs(prev.end - record.window.start) > 1e-9 * max(1.0, abs(prev.end)):
                raise ValueError("windows must be contiguous")
        self.records.append(record)

    def statistic_series(self, x_index: int, statistic: str = "mean_square"):
        """Time series (times, values) of a statistic at one grid point.

        mean_square is E[u(x, t, .)^2] = u_hat^T * mass * u_hat; mean is
        E[u(x, t, .)] via the basis expectations E[Psi_i]. One walk over the
        windows: a window's output times at or before the last kept time are
        skipped, so a seam keeps the earlier window's value.
        """
        if statistic not in ("mean_square", "mean"):
            raise ValueError(f"unknown statistic {statistic!r}")
        times: list[float] = []
        values: list[float] = []
        for record in self.records:
            mass = record.matrices.mass
            g = record.basis.values.T @ record.basis.rule.weights
            for t, coeffs in zip(record.window.output_times, record.coefficients):
                if times and t <= times[-1] + 1e-12:
                    continue
                u_hat = coeffs[:, x_index]
                values.append(float(u_hat @ mass @ u_hat) if statistic == "mean_square"
                              else float(g @ u_hat))
                times.append(float(t))
        return np.array(times), np.array(values)

    def basis_counts(self) -> np.ndarray:
        return np.array([record.basis.size for record in self.records])
