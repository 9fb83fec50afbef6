"""Deterministic method-of-lines solvers for the two model problems.

Both problems live on a periodic uniform grid over [0, 2*pi). The advection
speed is the random variable, so for a fixed sample the PDE is deterministic
and is integrated with classical fixed-step RK4. The advection-reaction
ensemble is marched step by step in cache-sized blocks of samples, each held
sample-major (samples contiguous) in preallocated stage buffers. The wave
operator is linear and its central difference is circulant, so its RK4 steps
are applied in Fourier space: each mode is multiplied by a power of the RK4
stability polynomial, which gives the marched solution without the march.
Both ensemble kernels hand the states at each output time to a ``record``
callable, so a caller can reduce them as they come instead of holding every
output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "IntegrationDiverged",
    "SpatialGrid",
    "PdeProblem",
    "wave_problem",
    "advection_reaction_problem",
    "TimeWindow",
    "spatial_derivative",
    "default_step",
    "integrate_ode",
    "integrate_advection",
    "integrate_reaction",
    "solve_fixed_xi",
    "solve_ensemble",
    "wave_exact_mean_square",
    "wave_exact_mean",
]


class IntegrationDiverged(RuntimeError):
    """Raised when an integration produces a non-finite state."""

    def __init__(self, time: float):
        super().__init__(f"integration diverged at t = {time:.6g}")
        self.time = time


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform periodic grid on [0, 2*pi)."""

    point_count: int

    def __post_init__(self):
        if self.point_count < 3:
            raise ValueError("need at least 3 grid points")

    @property
    def spacing(self) -> float:
        return 2.0 * np.pi / self.point_count

    @property
    def points(self) -> np.ndarray:
        return self.spacing * np.arange(self.point_count)


WAVE = "Wave"
ADVECTION_REACTION = "AdvectionReaction"


@dataclass(frozen=True)
class PdeProblem:
    """One of the two model SPDEs: u_t = xi*u_x (+ c*|u|^p for the
    advection-reaction variant)."""

    kind: str
    initial_condition: Callable[[np.ndarray], np.ndarray]
    reaction_coefficient: float = 0.0
    reaction_exponent: float = 0.5

    def __post_init__(self):
        if self.kind not in (WAVE, ADVECTION_REACTION):
            raise ValueError(f"unknown problem kind {self.kind!r}")

    @property
    def has_reaction(self) -> bool:
        return self.kind == ADVECTION_REACTION

    def reaction(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Pointwise reaction term c*|u|^p (0 for the wave problem), written
        into ``out`` when it is given."""
        magnitude = np.abs(u, out=out)
        if self.reaction_exponent == 0.5:
            powered = np.sqrt(magnitude, out=out)
        else:
            powered = np.power(magnitude, self.reaction_exponent, out=out)
        return np.multiply(powered, self.reaction_coefficient, out=out)


def wave_problem() -> PdeProblem:
    return PdeProblem(kind=WAVE, initial_condition=np.cos)


def advection_reaction_problem() -> PdeProblem:
    return PdeProblem(
        kind=ADVECTION_REACTION,
        initial_condition=lambda x: np.cos(x) + 1.5,
        reaction_coefficient=0.1,
        reaction_exponent=0.5,
    )


@dataclass(frozen=True)
class TimeWindow:
    """Time interval with the output times where states are recorded."""

    start: float
    end: float
    output_times: tuple = ()

    def __post_init__(self):
        if not self.start < self.end:
            raise ValueError(f"need start < end, got [{self.start}, {self.end}]")
        times = tuple(float(t) for t in self.output_times)
        if not times:
            times = (self.start, self.end)
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("output times must be strictly increasing")
        eps = 1e-9 * (self.end - self.start)
        if times[0] < self.start - eps or times[-1] > self.end + eps:
            raise ValueError("output times must lie inside the window")
        object.__setattr__(self, "output_times", times)

    @property
    def length(self) -> float:
        return self.end - self.start

    @classmethod
    def with_uniform_outputs(cls, start: float, end: float, count: int) -> "TimeWindow":
        """Window with ``count`` equally spaced output times (endpoints included)."""
        if count < 2:
            raise ValueError("need at least 2 output times")
        return cls(start, end, tuple(np.linspace(start, end, count)))


def spatial_derivative(values: np.ndarray, grid: SpatialGrid,
                       out: np.ndarray | None = None) -> np.ndarray:
    """Second-order central difference with periodic wraparound.

    Differentiates along the last axis, so stacked states (e.g. one row per
    sample or per basis function) are handled in one call. The result is
    written into ``out`` when it is given.
    """
    values = np.asarray(values, dtype=float)
    if values.shape[-1] != grid.point_count:
        raise ValueError(
            f"last axis has length {values.shape[-1]}, expected {grid.point_count}"
        )
    if out is None:
        out = np.empty_like(values)
    np.subtract(values[..., 2:], values[..., :-2], out=out[..., 1:-1])
    np.subtract(values[..., 1], values[..., -1], out=out[..., 0])
    np.subtract(values[..., 0], values[..., -2], out=out[..., -1])
    out /= 2.0 * grid.spacing
    return out


def default_step(grid: SpatialGrid, max_speed: float = 1.0) -> float:
    """Default RK4 step: small enough that temporal error is below the O(h^2)
    spatial error and the advective CFL number stays at or below 1/2."""
    return min(1e-2, 0.5 * grid.spacing / max(abs(max_speed), 1.0))


def _plan_steps(window: TimeWindow, step: float) -> tuple[float, list[tuple[int, int]]]:
    """Snap the step so it divides the window and every output time lands on a
    step boundary. Returns (actual step, [(step index, output index), ...])."""
    if step <= 0:
        raise ValueError("step must be positive")
    n_steps = max(1, int(round(window.length / step)))
    if n_steps * step < window.length - 1e-9 * window.length:
        n_steps = int(np.ceil(window.length / step - 1e-12))
    actual = window.length / n_steps
    outputs = []
    for j, t_out in enumerate(window.output_times):
        k = int(round((t_out - window.start) / actual))
        if abs(window.start + k * actual - t_out) > 1e-8 * max(1.0, window.length):
            raise ValueError(
                f"output time {t_out} does not land on a step boundary (step {actual})"
            )
        outputs.append((k, j))
    return actual, outputs


def integrate_ode(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    initial: np.ndarray,
    window: TimeWindow,
    step: float,
    check: bool = True,
) -> np.ndarray:
    """Classical fixed-step RK4 over the window.

    The step is snapped so that it divides the window exactly; every output
    time must coincide with a step boundary. Returns an array of states with
    the output-time axis first.
    """
    state = np.array(initial, dtype=float)
    actual, outputs = _plan_steps(window, step)
    out = np.empty((len(window.output_times),) + state.shape)
    pending = dict(outputs)
    n_steps = int(round(window.length / actual))
    if 0 in pending:
        out[pending.pop(0)] = state
    t = window.start
    for k in range(1, n_steps + 1):
        k1 = rhs(t, state)
        k2 = rhs(t + 0.5 * actual, state + 0.5 * actual * k1)
        k3 = rhs(t + 0.5 * actual, state + 0.5 * actual * k2)
        k4 = rhs(t + actual, state + actual * k3)
        state = state + (actual / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = window.start + k * actual
        if check and not np.all(np.isfinite(state)):
            raise IntegrationDiverged(t)
        if k in pending:
            out[pending.pop(k)] = state
    if pending:
        raise ValueError("internal error: unrecorded output times")
    return out


# record(j, first, rows): rows[i] is the state of row first + i at output j
Record = Callable[[int, int, np.ndarray], None]


def _recorder(window: TimeWindow, shape: tuple,
              record: Record | None) -> tuple[np.ndarray | None, Record]:
    """The kernels' output sink: ``record`` itself, or by default one that
    writes into a new (n_output_times,) + shape array, returned with it."""
    if record is not None:
        return None, record
    out = np.empty((len(window.output_times),) + shape)

    def write(j: int, first: int, rows: np.ndarray) -> None:
        out[j, first:first + len(rows)] = rows

    return out, write


def integrate_advection(
    speeds: np.ndarray,
    initial: np.ndarray,
    window: TimeWindow,
    grid: SpatialGrid,
    step: float,
    eigenvectors: tuple[np.ndarray, np.ndarray] | None = None,
    check: bool = True,
    record: Record | None = None,
) -> np.ndarray | None:
    """Classical fixed-step RK4 for u_t = V * diag(speeds) * V^-1 * (D u).

    ``initial`` holds one state of length M per row; D is the periodic central
    difference along the rows and V^-1 (by default the identity) mixes the
    rows. In Fourier mode k, D is multiplication by i*sin(k*h)/h, so in the
    eigenvector coordinates one RK4 step multiplies each entry by the
    stability polynomial R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 at
    z = i*speed*step*sin(k*h)/h, and n steps by R(z)^n. The step is planned
    as in ``integrate_ode``, and the step-0 output is the initial state
    itself. Each output's rows go to ``record(j, 0, rows)``; by default they
    are written into the returned (n_output_times, K, M) array.
    """
    state = np.array(initial, dtype=float)
    speeds = np.asarray(speeds, dtype=float)
    if state.shape != (speeds.size, grid.point_count):
        raise ValueError(f"initial has shape {state.shape}, expected "
                         f"({speeds.size}, {grid.point_count})")
    actual, outputs = _plan_steps(window, step)
    out, record = _recorder(window, state.shape, record)
    modes = np.arange(grid.point_count // 2 + 1)
    z = 1j * actual * np.multiply.outer(speeds, np.sin(modes * grid.spacing) / grid.spacing)
    growth = 1.0 + z * (1.0 + z / 2.0 * (1.0 + z / 3.0 * (1.0 + z / 4.0)))
    powers = {}
    spectrum = np.fft.rfft(state, axis=-1)
    if eigenvectors is not None:
        vecs, inv_vecs = eigenvectors
        spectrum = inv_vecs @ spectrum
    done = 0
    for k, j in outputs:
        if k == 0:
            record(j, 0, state)
            continue
        if k - done not in powers:
            powers[k - done] = growth ** (k - done)
        spectrum *= powers[k - done]
        done = k
        mixed = spectrum if eigenvectors is None else vecs @ spectrum
        rows = np.fft.irfft(mixed, n=grid.point_count, axis=-1)
        if check and not np.all(np.isfinite(rows)):
            raise IntegrationDiverged(window.start + k * actual)
        record(j, 0, rows)
    return out


# State entries (samples times grid points) per block of ``integrate_reaction``:
# the block's state and its six stage buffers (7 x 256 KB) fit in a 2 MB
# per-core L2 cache.
_BLOCK_ENTRIES = 32_768


def _reaction_rhs(problem: PdeProblem, grid: SpatialGrid, speeds: np.ndarray,
                  u: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
    """speeds * (D u) + reaction(u) into ``out``, for a block of states held
    one sample per column."""
    spatial_derivative(u.T, grid, out=out.T)
    out *= speeds
    out += problem.reaction(u, out=scratch)


def integrate_reaction(
    problem: PdeProblem,
    speeds: np.ndarray,
    initial: np.ndarray,
    window: TimeWindow,
    grid: SpatialGrid,
    step: float,
    check: bool = True,
    record: Record | None = None,
) -> np.ndarray | None:
    """Classical fixed-step RK4 for u_t = speed * (D u) + problem.reaction(u).

    ``initial`` holds one state of length M per row, marched with the speed
    of its row; D is the periodic central difference. The rows do not
    couple, so they are marched a block at a time, each block held
    transposed (samples contiguous) in preallocated stage buffers that stay
    in cache for the whole window. Every entry goes through the operations
    of ``integrate_ode`` on that right-hand side in the same order, so the
    result is bit-identical to that march. The step is planned as in
    ``integrate_ode``, and the step-0 output is the initial state itself.
    With ``check``, raises ``IntegrationDiverged`` at the earliest step at
    which any row is non-finite. Each block's states at each output go to
    ``record(j, first, rows)``, block after block in row order; by default
    they are written into the returned (n_output_times, K, M) array.
    """
    initial = np.asarray(initial, dtype=float)
    speeds = np.asarray(speeds, dtype=float)
    if initial.shape != (speeds.size, grid.point_count):
        raise ValueError(f"initial has shape {initial.shape}, expected "
                         f"({speeds.size}, {grid.point_count})")
    actual, outputs = _plan_steps(window, step)
    n_steps = int(round(window.length / actual))
    pending = dict(outputs)
    out, record = _recorder(window, initial.shape, record)
    points = grid.point_count
    size = max(1, _BLOCK_ENTRIES // points)
    buffers = np.empty(6 * points * min(size, speeds.size))
    half, sixth = 0.5 * actual, actual / 6.0
    diverged = n_steps + 1
    for first in range(0, speeds.size, size):
        speed = speeds[first:first + size]
        # contiguous for a ragged last block too: with strided rows it would
        # cost as much as a full block
        shape = (6, points, speed.size)
        k1, k2, k3, k4, stage, scratch = buffers[:np.prod(shape)].reshape(shape)
        state = initial[first:first + size].T.copy()
        if 0 in pending:
            record(pending[0], first, state.T)
        for k in range(1, n_steps + 1):
            _reaction_rhs(problem, grid, speed, state, k1, scratch)
            np.multiply(k1, half, out=stage)
            stage += state
            _reaction_rhs(problem, grid, speed, stage, k2, scratch)
            np.multiply(k2, half, out=stage)
            stage += state
            _reaction_rhs(problem, grid, speed, stage, k3, scratch)
            np.multiply(k3, actual, out=stage)
            stage += state
            _reaction_rhs(problem, grid, speed, stage, k4, scratch)
            # state + (dt/6) * (((k1 + 2 k2) + 2 k3) + k4)
            k2 *= 2.0
            k2 += k1
            k3 *= 2.0
            k2 += k3
            k2 += k4
            k2 *= sixth
            state += k2
            if check and not np.isfinite(state).all():
                # a later block may diverge earlier: report the minimum
                diverged = min(diverged, k)
                break
            if k in pending:
                record(pending[k], first, state.T)
    if diverged <= n_steps:
        raise IntegrationDiverged(window.start + diverged * actual)
    return out


def solve_fixed_xi(
    problem: PdeProblem,
    xi: float,
    initial: np.ndarray,
    window: TimeWindow,
    grid: SpatialGrid,
    step: float | None = None,
) -> np.ndarray:
    """Method-of-lines solution of the deterministic PDE at a fixed sample.

    Returns states of shape (n_output_times, M).
    """
    return solve_ensemble(problem, np.array([xi]), initial, window, grid, step)[:, 0, :]


def solve_ensemble(
    problem: PdeProblem,
    xis: np.ndarray,
    initial: np.ndarray,
    window: TimeWindow,
    grid: SpatialGrid,
    step: float | None = None,
    check: bool = True,
    record: Record | None = None,
) -> np.ndarray | None:
    """Solve the deterministic PDE for many samples at once.

    The samples do not couple, so the stacked RK4 solve performs exactly the
    per-sample arithmetic: through ``integrate_advection`` for the wave
    problem, and through ``integrate_reaction``, which marches the samples in
    cache-sized blocks held sample-major, for the advection-reaction
    problem. ``initial`` is either one state of length M (shared by all
    samples) or an array of shape (K, M). Returns (n_output_times, K, M),
    or hands the states to ``record`` as the kernels describe.
    """
    xis = np.atleast_1d(np.asarray(xis, dtype=float))
    initial = np.asarray(initial, dtype=float)
    if initial.ndim == 1:
        initial = np.broadcast_to(initial, (xis.size, initial.size)).copy()
    if initial.shape != (xis.size, grid.point_count):
        raise ValueError(f"initial has shape {initial.shape}, expected ({xis.size}, {grid.point_count})")
    if step is None:
        step = default_step(grid, float(np.max(np.abs(xis), initial=0.0)))
    cfl = float(np.max(np.abs(xis), initial=0.0)) * step / grid.spacing
    if cfl > 0.5 + 1e-12:
        raise ValueError(f"CFL number {cfl:.3f} exceeds 1/2; reduce the step")
    if not problem.has_reaction:
        return integrate_advection(xis, initial, window, grid, step, check=check,
                                   record=record)
    return integrate_reaction(problem, xis, initial, window, grid, step, check=check,
                              record=record)


def wave_exact_mean_square(t, x: float = 0.0):
    """Exact E[u(x, t, .)^2] for the wave problem with uniform xi on [-1, 1].

    At x = 0 this is (1 + cos(t)*sin(t)/t)/2, with the removable singularity
    at t = 0 evaluating to 1.
    """
    t = np.asarray(t, dtype=float)
    phase = np.where(t == 0.0, 1.0, np.sin(2.0 * t) / np.where(t == 0.0, 1.0, 2.0 * t))
    result = 0.5 * (1.0 + np.cos(2.0 * x) * phase)
    return float(result) if result.ndim == 0 else result


def wave_exact_mean(t, x: float = 0.0):
    """Exact E[u(x, t, .)] = cos(x)*sin(t)/t for the wave problem."""
    t = np.asarray(t, dtype=float)
    sinc = np.where(t == 0.0, 1.0, np.sin(t) / np.where(t == 0.0, 1.0, t))
    result = np.cos(x) * sinc
    return float(result) if result.ndim == 0 else result
