"""Empirical chaos expansion for stochastic PDEs.

Time-windowed POD-derived stochastic bases propagated by non-orthogonal
stochastic Galerkin systems, with generalized polynomial chaos and Monte Carlo
reference solvers. The command-line runner is the ``empchaos.cli`` submodule,
imported on its own.
"""

__version__ = "0.1.0"

from . import basis_evolution, driver, galerkin, gpc, montecarlo, pde_core, pod, random_space

__all__ = [
    "basis_evolution",
    "driver",
    "galerkin",
    "gpc",
    "montecarlo",
    "pde_core",
    "pod",
    "random_space",
]
