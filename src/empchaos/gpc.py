"""Generalized polynomial chaos reference solver with normalized Legendre bases.

This path assumes exact orthonormality (mass = identity) and serves as the
benchmark the empirical expansion is compared against.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .pde_core import (
    PdeProblem,
    SpatialGrid,
    TimeWindow,
    default_step,
    integrate_ode,
    spatial_derivative,
)
from .random_space import (
    QuadratureRule,
    chebyshev_nodes,
    gauss_legendre_rule,
    legendre_table,
    trapezoid_rule,
)

__all__ = [
    "DEFAULT_NODE_COUNT",
    "ORDER_CAP",
    "GpcSystem",
    "default_rule",
    "legendre_advection_matrix",
    "solve_gpc",
    "mean_square_series",
    "mean_series",
]

DEFAULT_NODE_COUNT = 300
# the largest order a configuration may ask for; solve_gpc warns above STABLE_ORDER
ORDER_CAP = 60
STABLE_ORDER = 40


def default_rule(node_count: int = DEFAULT_NODE_COUNT) -> QuadratureRule:
    """Composite trapezoid rule on Chebyshev nodes over [-1, 1]."""
    return trapezoid_rule(chebyshev_nodes(node_count))


def legendre_advection_matrix(order: int) -> np.ndarray:
    """Advection coupling A[j, i] = E[xi * L_j * L_i] for the first ``order``
    normalized Legendre polynomials; tridiagonal with zero diagonal.

    The entries are exact to roundoff: a Gauss-Legendre rule of ``order + 1``
    nodes integrates the degree-(2*order - 1) integrands exactly, matching a
    symbolic precomputation.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    rule = gauss_legendre_rule(order + 1)
    table = legendre_table(order, rule.nodes)
    a = table.T @ ((rule.weights * rule.nodes)[:, None] * table)
    return 0.5 * (a + a.T)


@dataclass(frozen=True)
class GpcSystem:
    """Truncated gPC system: coefficient trajectory plus its coupling matrix."""

    order: int
    advection: np.ndarray
    rule: QuadratureRule
    times: tuple
    coefficients: np.ndarray  # (n_times, order, M)


def solve_gpc(
    problem: PdeProblem,
    order: int,
    grid: SpatialGrid,
    window: TimeWindow,
    step: float | None = None,
    rule: QuadratureRule | None = None,
) -> GpcSystem:
    """RK4 on the truncated gPC system with a deterministic initial condition.

    The nonlinear reaction term is projected by quadrature at every rhs call.
    The step defaults to ``default_step`` and is fitted to the output times.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    if order > STABLE_ORDER:
        warnings.warn(
            f"gPC order {order} is above {STABLE_ORDER}; the Galerkin system may be unstable",
            RuntimeWarning,
            stacklevel=2,
        )
    if rule is None:
        rule = default_rule()
    # exact coupling matrix (the quadrature rule only serves the nonlinearity)
    advection = legendre_advection_matrix(order)
    table = legendre_table(order, rule.nodes) if problem.has_reaction else None
    w = rule.weights

    def rhs(coeffs, out):
        np.matmul(advection, spatial_derivative(coeffs, grid), out=out)
        if problem.has_reaction:
            out += table.T @ (w[:, None] * problem.reaction(table @ coeffs))

    initial = np.zeros((order, grid.point_count))
    initial[0] = problem.initial_condition(grid.points)
    if step is None:
        step = default_step(grid)
    states = integrate_ode(rhs, initial, window, step)
    return GpcSystem(order=order, advection=advection, rule=rule,
                     times=window.output_times, coefficients=states)


def mean_square_series(system: GpcSystem, x_index: int = 0) -> np.ndarray:
    """E[u^2] over time at one grid point: sum of squared coefficients."""
    return np.sum(system.coefficients[:, :, x_index] ** 2, axis=1)


def mean_series(system: GpcSystem, x_index: int = 0) -> np.ndarray:
    """E[u] over time at one grid point: the constant-mode coefficient."""
    return system.coefficients[:, 0, x_index]

