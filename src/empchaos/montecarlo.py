"""Seeded Monte Carlo reference statistics.

Samples the random variable with a counter-based generator and integrates
each realization with the shared deterministic solver. The samples are cut
into chunks of ``chunk_size``, and the chunks are solved on
min(CPUs, chunks) processes, or in this process when that is 1. No chunk
holds its states: the kernels hand each block of states at each output time,
in row order and on one thread, to a reducer, which folds it into the
chunk's count, mean and M2 (sum of squared deviations) of u and u^2. A
process returns only these moments, and they are merged in chunk order by
the pairwise update of Chan, Golub and LeVeque (1983). So the result does
not depend on the number of processes or CPUs, and identical seed and
configuration give bit-identical results. A worker gets the problem less its
initial condition, which may be an unpicklable lambda, and the initial state.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .pde_core import (
    IntegrationDiverged,
    PdeProblem,
    SpatialGrid,
    TimeWindow,
    _cpu_count,
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
    """Monte Carlo run parameters."""

    problem: PdeProblem
    grid: SpatialGrid
    window: TimeWindow
    sample_count: int = 10_000
    seed: int = 0
    step: float | None = None
    chunk_size: int = 5_000

    def __post_init__(self):
        if self.sample_count < 1:
            raise ValueError("sample_count must be at least 1")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")


@dataclass(frozen=True)
class McResult:
    """Accumulated statistics at the window's output times (rows) per grid point.

    ``workers`` is the number of processes that solved the chunks.
    """

    times: np.ndarray
    mean: np.ndarray
    mean_square: np.ndarray
    stderr_mean: np.ndarray
    stderr_mean_square: np.ndarray
    sample_count: int
    diverged_count: int
    workers: int

    def series(self, x_index: int, statistic: str = "mean_square"):
        """(times, values, stderr) at one grid point."""
        if statistic == "mean_square":
            return self.times, self.mean_square[:, x_index], self.stderr_mean_square[:, x_index]
        if statistic == "mean":
            return self.times, self.mean[:, x_index], self.stderr_mean[:, x_index]
        raise ValueError(f"unknown statistic {statistic!r}")


def _draw_samples(config: McConfig) -> np.ndarray:
    # counter-based generator: sample l is reproducible independent of chunking
    rng = np.random.Generator(np.random.Philox(config.seed))
    return rng.uniform(-1.0, 1.0, config.sample_count)


@dataclass(frozen=True)
class _Moments:
    """Moments of ``count`` samples at each output time and grid point.

    ``mean`` and ``m2`` (the sum of squared deviations from the mean) stack
    u and u^2 along the first axis: shape (2, n_output_times, M).
    """

    count: int
    mean: np.ndarray
    m2: np.ndarray


def _combine(count_a: int, mean_a: np.ndarray, m2_a: np.ndarray,
             count_b: int, mean_b: np.ndarray, m2_b: np.ndarray):
    """Mean and M2 of the union of two disjoint sets of samples, from each
    set's count, mean and M2 (Chan, Golub & LeVeque, 1983). With
    ``count_a`` 0 and zero moments on that side, it returns the other side's
    moments exactly."""
    count = count_a + count_b
    delta = mean_b - mean_a
    return (mean_a + delta * (count_b / count),
            m2_a + m2_b + delta * delta * (count_a * count_b / count))


def _merge(a: _Moments, b: _Moments) -> _Moments:
    mean, m2 = (_combine(a.count, a.mean, a.m2, b.count, b.mean, b.m2) if b.count
                else (a.mean, a.m2))
    return _Moments(a.count + b.count, mean, m2)


class _ChunkReducer:
    """The kernels' ``record`` for one chunk: folds each block of states
    into the chunk's moments and marks the rows that are not finite."""

    def __init__(self, count: int, shape: tuple):
        self.finite = np.ones(count, dtype=bool)
        self.diverged = False
        self.mean = np.zeros((2,) + shape)
        self.m2 = np.zeros((2,) + shape)

    def __call__(self, j: int, first: int, rows: np.ndarray) -> None:
        finite = np.isfinite(rows).all(axis=1)
        if not finite.all():
            self.finite[first:first + len(rows)] &= finite
            self.diverged = True
        if self.diverged:
            return  # the chunk is marched again without the rows marked
        values = np.stack((rows, rows * rows))
        mean = values.mean(axis=1)
        values -= mean[:, None]
        m2 = np.square(values, out=values).sum(axis=1)
        # blocks arrive in row order, so rows [0, first) are merged already
        self.mean[:, j], self.m2[:, j] = _combine(
            first, self.mean[:, j], self.m2[:, j], len(rows), mean, m2)


def _chunk_moments(problem: PdeProblem, u0: np.ndarray, window: TimeWindow,
                   grid: SpatialGrid, step: float | None, xi: np.ndarray) -> _Moments:
    """Solve one chunk of samples and return its moments, never its states.

    A sample that is not finite at some output time is left out of every
    output time and of the count: the chunk is marched again without it.
    ``problem`` comes without its initial condition and ``u0`` as an array,
    because an initial condition may be a lambda, which cannot be sent to a
    worker.
    """
    shape = (len(window.output_times), grid.point_count)
    keep = np.ones(xi.size, dtype=bool)
    while keep.any():
        reducer = _ChunkReducer(int(np.count_nonzero(keep)), shape)
        solve_ensemble(problem, xi[keep], u0, window, grid, step, check=False,
                       record=reducer)
        if not reducer.diverged:
            return _Moments(reducer.finite.size, reducer.mean, reducer.m2)
        keep[keep] = reducer.finite
    return _Moments(0, np.zeros((2,) + shape), np.zeros((2,) + shape))


def mc_statistics(config: McConfig) -> McResult:
    """Run the Monte Carlo ensemble and accumulate statistics.

    The chunks are solved on min(CPUs, chunks) forked processes, each
    returning its chunk's moments, and merged in chunk order; with one
    process they are solved here, through the same function. Either way a
    chunk is marched on one thread, because its reducer takes the states.
    Diverged samples (non-finite at some output time) are excluded with a
    warning; if none is left, ``AllSamplesDiverged`` is raised.
    """
    # loaded on first use, as numpy loads np.fft: importing the library
    # should not pay for the process machinery
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    xi = _draw_samples(config)
    problem = config.problem
    u0 = np.asarray(problem.initial_condition(config.grid.points), dtype=float)
    solve = functools.partial(_chunk_moments, replace(problem, initial_condition=None),
                              u0, config.window, config.grid, config.step)
    chunks = [xi[start:start + config.chunk_size]
              for start in range(0, xi.size, config.chunk_size)]
    workers = min(_cpu_count(), len(chunks))
    if workers == 1:
        total = functools.reduce(_merge, map(solve, chunks))
    else:
        # fork: a worker starts with the library loaded instead of importing
        # it. Leaving the block reaps the workers, so their CPU time counts.
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(workers, mp_context=context) as pool:
            total = functools.reduce(_merge, pool.map(solve, chunks))
    diverged = xi.size - total.count
    if diverged:
        warnings.warn(f"excluded {diverged} diverged Monte Carlo samples", RuntimeWarning)
    if total.count == 0:
        raise AllSamplesDiverged(diverged, config.window.end)
    stderr = np.sqrt(total.m2 / total.count / total.count)
    return McResult(
        times=np.asarray(config.window.output_times),
        mean=total.mean[0],
        mean_square=total.mean[1],
        stderr_mean=stderr[0],
        stderr_mean_square=stderr[1],
        sample_count=total.count,
        diverged_count=diverged,
        workers=workers,
    )
