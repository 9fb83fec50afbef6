"""Windowed empirical chaos expansion driver.

Plans the time windows first, then runs one loop over them: each window
chooses its stochastic basis (resampled and truncated by POD, advanced by the
matrix-exponential basis evolution, or held) and propagates. At every seam
with a new basis, window 0 included, the solution at the quadrature nodes is
projected onto that basis in the probability measure; one projection serves
every seam. On the wave (any problem without reaction) a resample window
never puts its samples on the grid: the POD reads their Fourier spectrum,
marched only in the modes it keeps (``pde_core.AdvectionSpectrum``,
``pod.truncate_spectrum``). On the reaction problem the samples are marched
on the grid, and a resample window also picks the nodes at which its
propagation evaluates the reaction: Q-DEIM points of the POD of the reaction
of its own samples; hold windows keep the last ones. The state
carried from window to window is the plain (basis count, grid size)
coefficient array of the last output. Sampling and propagation get the one
base step (``step`` or ``pde_core.default_step``); the solvers fit it to
each window's output times. Per-stage wall-clock timings are recorded.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg

from . import basis_evolution
from .galerkin import (
    ExpansionArchive,
    WindowRecord,
    assemble_matrices,
    project_node_values,
    propagate_window,
)
from .pde_core import (
    AdvectionSpectrum,
    PdeProblem,
    SpatialGrid,
    TimeWindow,
    default_step,
    solve_ensemble,
)
from .pod import truncate_pod, truncate_spectrum
from .random_space import QuadratureRule

__all__ = [
    "RESAMPLE",
    "EVOLVE",
    "HOLD",
    "EVOLVE_SUBSTEP",
    "StageTimings",
    "EmpiricalConfig",
    "always_resample",
    "alternating_schedule",
    "window_plan",
    "run_schedule",
]

RESAMPLE = "resample"
EVOLVE = "evolve"
HOLD = "hold"
# longest sub-window of an evolve window; each sub-window evolves the basis once
EVOLVE_SUBSTEP = 0.1
# smallest scaled singular value of the reaction snapshots whose direction the
# reaction interpolation keeps
REACTION_TAIL = 1e-8


@dataclass
class StageTimings:
    """Wall-clock seconds per pipeline stage."""

    sampling: float = 0.0
    svd: float = 0.0
    change_of_basis: float = 0.0
    assembly: float = 0.0
    propagation: float = 0.0
    basis_evolution: float = 0.0

    def add(self, stage: str, seconds: float) -> None:
        setattr(self, stage, getattr(self, stage) + seconds)

    def as_dict(self) -> dict:
        return asdict(self)

    @property
    def total(self) -> float:
        return sum(self.as_dict().values())


def always_resample(index: int) -> str:
    return RESAMPLE


def alternating_schedule(index: int) -> str:
    """Resample on even window indices (0-based), evolve in between."""
    return RESAMPLE if index % 2 == 0 else EVOLVE


@dataclass(frozen=True)
class EmpiricalConfig:
    """Parameters of one windowed empirical chaos run."""

    problem: PdeProblem
    grid: SpatialGrid
    rule: QuadratureRule
    window_length: float = 1.0
    t_final: float = 10.0
    t_start: float = 0.0
    threshold: float = 1e-4
    basis_cap: int | None = None
    step: float | None = None
    outputs_per_window: int = 11
    schedule: Callable[[int], str] = field(default=always_resample)

    def __post_init__(self):
        if self.window_length <= 0:
            raise ValueError("window_length must be positive")
        if self.t_final <= self.t_start:
            raise ValueError("t_final must exceed t_start")
        if self.outputs_per_window < 2:
            raise ValueError("need at least 2 outputs per window")


def _pieces(start: float, stop: float, length: float):
    """Consecutive (start, end) pieces of [start, stop], each at most ``length`` long."""
    t = start
    while t < stop - 1e-12:
        end = min(t + length, stop)
        yield t, end
        t = end


def window_plan(config: EmpiricalConfig) -> list[tuple[str, TimeWindow]]:
    """The (action, window) pairs that ``run_schedule`` solves, in order.

    Window 0 always resamples. An evolve window is split into sub-windows of
    at most ``EVOLVE_SUBSTEP``, each with its two endpoints as outputs. An
    unknown action, or evolve on the reaction problem, is rejected here,
    before anything is solved.
    """
    plan = []
    windows = _pieces(config.t_start, config.t_final, config.window_length)
    for index, (start, end) in enumerate(windows):
        action = config.schedule(index) if index > 0 else RESAMPLE
        if action not in (RESAMPLE, EVOLVE, HOLD):
            raise ValueError(f"schedule returned unknown action {action!r}")
        if action != EVOLVE:
            plan.append((action, TimeWindow.with_uniform_outputs(
                start, end, config.outputs_per_window)))
            continue
        if config.problem.has_reaction:
            raise ValueError("basis evolution is only implemented for the wave operator")
        plan += [(EVOLVE, TimeWindow.with_uniform_outputs(a, b, 2))
                 for a, b in _pieces(start, end, EVOLVE_SUBSTEP)]
    return plan


def _reaction_interpolation(problem: PdeProblem, trajectories: np.ndarray,
                            rule: QuadratureRule, least: int) -> tuple[np.ndarray, np.ndarray]:
    """Q-DEIM (points, lift) of a resample window's reaction.

    The reaction is evaluated in place in the sampled (n_t, K, M)
    ``trajectories``, which are not read again. Its POD gives U (K, r): the
    directions down to ``REACTION_TAIL``, at least ``least`` of them. The
    points p are the first r column pivots of a pivoted QR of U^T (Drmac &
    Gugercin, SIAM J. Sci. Comput. 38(2), 2016), and lift = U * U[p]^-1.
    """
    snapshots = problem.reaction(trajectories, out=trajectories)
    u = truncate_pod(snapshots, REACTION_TAIL, rule, least=least).values
    _, pivots = scipy.linalg.qr(u.T, mode="r", pivoting=True, check_finite=False)
    points = np.sort(pivots[:u.shape[1]])
    # lift * U[p] = U
    lift = scipy.linalg.solve(u[points].T, u.T, check_finite=False).T
    return points, lift


def run_schedule(config: EmpiricalConfig) -> tuple[ExpansionArchive, StageTimings]:
    """Empirical chaos with a per-window schedule.

    Each planned window first chooses its basis: ``resample`` samples
    trajectories from the current solution at the nodes (``u_nodes``) and
    truncates them by POD, ``evolve`` advances the previous basis by the
    matrix-exponential operator, ``hold`` keeps it. Without a reaction the
    samples stay in Fourier space: ``sampling`` is one rfft of ``u_nodes``
    and each mode's energy in closed form, ``svd`` the march of the kept
    modes and the decomposition of their rows. A new basis gets its
    Galerkin matrices and ``u_nodes`` projected onto it; then the window is
    propagated. On the reaction problem each resample window also chooses
    the points at which propagation evaluates the reaction, from the
    reaction of its own samples (``_reaction_interpolation``); hold windows
    keep them.
    """
    timings = StageTimings()
    archive = ExpansionArchive()
    grid, rule, problem = config.grid, config.rule, config.problem
    step = config.step if config.step is not None else default_step(grid)

    u0 = np.asarray(problem.initial_condition(grid.points), dtype=float)
    basis = matrices = coefficients = interpolation = None
    for action, window in window_plan(config):
        if action != HOLD:
            # the solution at the nodes: the shared initial state on window 0
            tic = time.perf_counter()
            u_nodes = (np.broadcast_to(u0, (len(rule), grid.point_count)) if basis is None
                       else basis.reconstruct(coefficients))
            timings.add("change_of_basis", time.perf_counter() - tic)
        if action == RESAMPLE and problem.has_reaction:
            tic = time.perf_counter()
            trajectories = solve_ensemble(problem, rule.nodes, u_nodes, window, grid, step)
            timings.add("sampling", time.perf_counter() - tic)

            tic = time.perf_counter()
            new_basis = truncate_pod(trajectories, config.threshold, rule,
                                     cap=config.basis_cap)
            interpolation = _reaction_interpolation(problem, trajectories, rule,
                                                    new_basis.size)
            # freed before the next window samples, which would otherwise set
            # the peak memory (6.8 MB on grid 256, 300 nodes)
            del trajectories
            timings.add("svd", time.perf_counter() - tic)
        elif action == RESAMPLE:
            tic = time.perf_counter()
            spectrum = AdvectionSpectrum(rule.nodes, u_nodes, window, grid, step)
            timings.add("sampling", time.perf_counter() - tic)

            tic = time.perf_counter()
            new_basis = truncate_spectrum(spectrum, config.threshold, rule,
                                          cap=config.basis_cap)
            timings.add("svd", time.perf_counter() - tic)
        elif action == EVOLVE:
            tic = time.perf_counter()
            pair = basis_evolution.spatial_pair(coefficients, grid)
            new_basis = basis_evolution.evolve_basis(basis, pair, window.length)
            timings.add("basis_evolution", time.perf_counter() - tic)

        if action != HOLD:
            tic = time.perf_counter()
            matrices = assemble_matrices(new_basis)
            timings.add("assembly", time.perf_counter() - tic)

            tic = time.perf_counter()
            coefficients = project_node_values(u_nodes, new_basis, matrices)
            timings.add("change_of_basis", time.perf_counter() - tic)
            basis = new_basis

        tic = time.perf_counter()
        states = propagate_window(problem, coefficients, basis, window, grid, step, matrices,
                                  interpolation)
        timings.add("propagation", time.perf_counter() - tic)
        archive.append(WindowRecord(
            window=window, basis=basis, coefficients=states, matrices=matrices,
            reaction_points=0 if interpolation is None else len(interpolation[0])))
        coefficients = states[-1]

    return archive, timings
