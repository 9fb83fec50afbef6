"""Seeded Monte Carlo reference statistics.

Samples the random variable with a counter-based generator, integrates each
realization with the shared deterministic solver, and accumulates mean and
mean-square time series with standard-error estimates. Identical seed and
configuration give bit-identical results.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .pde_core import (
    IntegrationDiverged,
    PdeProblem,
    SpatialGrid,
    TimeWindow,
    default_step,
    solve_ensemble,
)

__all__ = ["AllSamplesDiverged", "McConfig", "McResult", "mc_statistics"]


class AllSamplesDiverged(IntegrationDiverged):
    """Raised when every Monte Carlo sample is non-finite by the end of the window."""

    def __init__(self, sample_count: int, time: float):
        RuntimeError.__init__(
            self, f"all {sample_count} Monte Carlo samples diverged by t = {time:.6g}")
        self.time = time
        self.sample_count = sample_count


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo run parameters.

    ``xi_values`` overrides random sampling with explicit sample values
    (useful for forcing a degenerate ensemble in tests).
    """

    problem: PdeProblem
    grid: SpatialGrid
    window: TimeWindow
    sample_count: int = 10_000
    seed: int = 0
    step: float | None = None
    chunk_size: int = 5_000
    xi_values: np.ndarray | None = None

    def __post_init__(self):
        if self.sample_count < 1:
            raise ValueError("sample_count must be at least 1")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")


@dataclass(frozen=True)
class McResult:
    """Accumulated statistics at the window's output times (rows) per grid point."""

    times: np.ndarray
    mean: np.ndarray
    mean_square: np.ndarray
    stderr_mean: np.ndarray
    stderr_mean_square: np.ndarray
    sample_count: int
    diverged_count: int

    def series(self, x_index: int, statistic: str = "mean_square"):
        """(times, values, stderr) at one grid point."""
        if statistic == "mean_square":
            return self.times, self.mean_square[:, x_index], self.stderr_mean_square[:, x_index]
        if statistic == "mean":
            return self.times, self.mean[:, x_index], self.stderr_mean[:, x_index]
        raise ValueError(f"unknown statistic {statistic!r}")


def _draw_samples(config: McConfig) -> np.ndarray:
    if config.xi_values is not None:
        xi = np.asarray(config.xi_values, dtype=float)
        if xi.size != config.sample_count:
            raise ValueError("xi_values length must equal sample_count")
        return xi
    # counter-based generator: sample l is reproducible independent of chunking
    rng = np.random.Generator(np.random.Philox(config.seed))
    return rng.uniform(-1.0, 1.0, config.sample_count)


def mc_statistics(config: McConfig) -> McResult:
    """Run the Monte Carlo ensemble and accumulate statistics.

    Samples integrate in fixed-size chunks whose partial sums are combined in
    a fixed order, so results do not depend on scheduling. Diverged samples
    (non-finite states) are excluded with a warning; if none is left,
    ``AllSamplesDiverged`` is raised.
    """
    xi = _draw_samples(config)
    step = config.step
    if step is None:
        step = default_step(config.grid, float(np.max(np.abs(xi))))
    n_out = len(config.window.output_times)
    m = config.grid.point_count
    s1 = np.zeros((n_out, m))
    s2 = np.zeros((n_out, m))
    s4 = np.zeros((n_out, m))
    good = 0
    diverged = 0
    u0 = np.asarray(config.problem.initial_condition(config.grid.points), dtype=float)
    for start in range(0, xi.size, config.chunk_size):
        chunk = xi[start:start + config.chunk_size]
        states = solve_ensemble(config.problem, chunk, u0, config.window,
                                config.grid, step, check=False)
        finite = np.all(np.isfinite(states), axis=(0, 2))
        if not np.all(finite):
            diverged += int(np.count_nonzero(~finite))
            states = states[:, finite, :]
        good += states.shape[1]
        s1 += states.sum(axis=1)
        # square in place: the chunk array is the dominant allocation and a
        # long window at full chunk size would not fit in memory three times
        np.square(states, out=states)
        s2 += states.sum(axis=1)
        np.square(states, out=states)
        s4 += states.sum(axis=1)
    if diverged:
        warnings.warn(f"excluded {diverged} diverged Monte Carlo samples", RuntimeWarning)
    if good == 0:
        raise AllSamplesDiverged(diverged, config.window.end)
    mean = s1 / good
    mean_square = s2 / good
    var_u = np.maximum(s2 / good - mean**2, 0.0)
    var_u2 = np.maximum(s4 / good - mean_square**2, 0.0)
    return McResult(
        times=np.asarray(config.window.output_times),
        mean=mean,
        mean_square=mean_square,
        stderr_mean=np.sqrt(var_u / good),
        stderr_mean_square=np.sqrt(var_u2 / good),
        sample_count=good,
        diverged_count=diverged,
    )
