"""Stochastic Galerkin systems for general (non-orthogonal) basis sets.

Assembles mass/advection matrices by quadrature, projects solution values at
the quadrature nodes onto a basis (the one projection used at every window
seam, window 0 included), propagates the implicit coefficient ODE with RK4
(in Fourier space for the wave problem), and evaluates solution statistics
from the archive of solved windows.
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
    "CoefficientField",
    "CoefficientTrajectory",
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

    @property
    def size(self) -> int:
        return self.mass.shape[0]


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


@dataclass(frozen=True)
class CoefficientField:
    """Galerkin coefficients for one basis: coefficients[i, x] = u_hat^i(x)."""

    coefficients: np.ndarray
    basis_id: str

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=float)
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)
        if coeffs.ndim != 2:
            raise ValueError("coefficients must be (basis count, grid size)")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients contain non-finite entries")


def project_node_values(values: np.ndarray, basis: BasisSet,
                        matrices: GalerkinMatrices | None = None) -> CoefficientField:
    """Project per-node solution values u(xi_l, x), shape (K, M), onto the basis.

    The projection in the probability measure: solve mass * c = E[u * Psi_j].
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[0] != len(basis.rule):
        raise ValueError("values must be (node count, grid size) at the basis's nodes")
    if matrices is None:
        matrices = assemble_matrices(basis)
    rhs = basis.values.T @ (basis.rule.weights[:, None] * values)
    return CoefficientField(coefficients=matrices.solve(rhs), basis_id=basis.label)


@dataclass(frozen=True)
class CoefficientTrajectory:
    """Coefficient snapshots at the output times of one window."""

    times: tuple
    coefficients: np.ndarray  # (n_times, N_b, M)
    basis_id: str

    @property
    def final(self) -> CoefficientField:
        return CoefficientField(coefficients=self.coefficients[-1], basis_id=self.basis_id)


def propagate_window(problem: PdeProblem, field: CoefficientField, basis: BasisSet,
                     window: TimeWindow, grid: SpatialGrid, step: float,
                     matrices: GalerkinMatrices | None = None) -> CoefficientTrajectory:
    """RK4 on the mass-solved Galerkin system over one window.

    For the wave problem the operator mass^-1 * advection is diagonalized by
    the generalized eigenproblem advection * V = mass * V * diag(lam), which
    has real eigenvalues because both matrices are symmetric and the mass is
    positive definite; V^T * mass * V = I gives V^-1 = V^T * mass, and
    ``integrate_advection`` applies the RK4 steps in Fourier space.
    """
    if field.basis_id != basis.label:
        raise ValueError("coefficient field is not expressed in the given basis")
    if matrices is None:
        matrices = assemble_matrices(basis)

    if problem.has_reaction:
        # precompute the mass-solved operators once per window; each rhs call
        # is then plain matrix arithmetic
        solved_advection = matrices.solve(matrices.advection)
        v = basis.values
        solved_projector = matrices.solve((basis.rule.weights[:, None] * v).T)

        def rhs(coeffs, out):
            np.matmul(solved_advection, spatial_derivative(coeffs, grid), out=out)
            out += solved_projector @ problem.reaction(v @ coeffs)

        states = integrate_ode(rhs, field.coefficients, window, step)
    else:
        lam, vecs = scipy.linalg.eigh(matrices.advection, matrices.mass)
        states = integrate_advection(lam, field.coefficients, window, grid, step,
                                     (vecs, vecs.T @ matrices.mass))
    return CoefficientTrajectory(times=window.output_times, coefficients=states,
                                 basis_id=basis.label)


@dataclass
class WindowRecord:
    """Everything solved for one time window."""

    window: TimeWindow
    basis: BasisSet
    trajectory: CoefficientTrajectory
    matrices: GalerkinMatrices


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
            for t, coeffs in zip(record.trajectory.times, record.trajectory.coefficients):
                if times and t <= times[-1] + 1e-12:
                    continue
                u_hat = coeffs[:, x_index]
                values.append(float(u_hat @ mass @ u_hat) if statistic == "mean_square"
                              else float(g @ u_hat))
                times.append(float(t))
        return np.array(times), np.array(values)

    def basis_counts(self) -> np.ndarray:
        return np.array([record.basis.size for record in self.records])
