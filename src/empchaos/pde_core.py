"""Deterministic method-of-lines solvers for the two model problems.

Both problems live on a periodic uniform grid over [0, 2*pi). The advection
speed is the random variable, so for a fixed sample the PDE is deterministic
and is integrated with classical fixed-step RK4. Both RK4 kernels fit the
requested step to the window's output times through one planner: each run
of evenly spaced outputs gets its own step, the longest that cuts each gap
into equal steps no longer than the requested one, so any increasing output
times can be reached. ``integrate_ode`` is the one marched RK4, run in place
in preallocated stage buffers: the advection-reaction ensemble, the Galerkin
reaction system and gPC all march through its steps. The ensemble is marched
in cache-sized blocks of samples, each held sample-major, on one thread per
CPU; the blocks are equal and their count a multiple of the thread count, so
no thread idles while another marches the last block. The wave operator is
linear and its central difference is circulant, so its RK4 steps are applied
in Fourier space: each mode is multiplied by a power of the RK4 stability
polynomial, which gives the marched solution without the march, and
``AdvectionSpectrum`` keeps such an ensemble in Fourier space, with each
mode's energy in closed form and only the modes asked for marched. The two
ensemble kernels hand the states at each output time to a ``record``
callable, in row order, so a caller can reduce them as they come instead of
holding every output; an ensemble with a ``record`` is marched on one
thread, in blocks of a fixed size.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
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
    "STEP_ENTRY_LIMIT",
    "integrate_ode",
    "integrate_advection",
    "AdvectionSpectrum",
    "integrate_reaction",
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
        """Whether the problem has a reaction term: with c = 0 the
        advection-reaction problem is pure advection and is solved as one."""
        return self.kind == ADVECTION_REACTION and self.reaction_coefficient != 0.0

    def reaction(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Pointwise reaction term c*|u|^p (0 for the wave problem), computed
        in place in ``out``, or in one new array when ``out`` is not given."""
        if out is None:
            out = np.empty(np.shape(u))
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


def _difference(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The raw periodic central difference u[i + 1] - u[i - 1] along the last
    axis, written into ``out``."""
    np.subtract(values[..., 2:], values[..., :-2], out=out[..., 1:-1])
    np.subtract(values[..., 1], values[..., -1], out=out[..., 0])
    np.subtract(values[..., 0], values[..., -2], out=out[..., -1])
    return out


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
    _difference(values, out)
    out /= 2.0 * grid.spacing
    return out


def default_step(grid: SpatialGrid) -> float:
    """Default RK4 step: small enough that temporal error is below the O(h^2)
    spatial error and the advective CFL number of a speed in [-1, 1] stays at
    or below 1/2."""
    return min(1e-2, 0.5 * grid.spacing)


def _plan_steps(window: TimeWindow, step: float) -> list[tuple[float, int]]:
    """Fit the step to the window's output times.

    Consecutive instants of (start, *output_times) that lie on one uniform
    grid form a run: each lies within tol / 2 of the grid of the run's first
    gap, and so within tol of the grid of its ends. Each run is cut into the
    fewest equal steps per gap no longer than ``step``. Returns one (dt, n)
    per output: march n steps of dt from the output before it (from the
    start for output 0), then record it; an output at the start is (0.0, 0).
    A step too small to count the steps is a ValueError.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if not math.isfinite(window.length / step):
        raise ValueError(f"step {step} is too small to count the steps")
    tol = 1e-8 * max(1.0, window.length)
    times = np.array(window.output_times)
    plan = []
    if times[0] - window.start <= tol:
        plan.append((0.0, 0))
    else:
        times = np.insert(times, 0, window.start)
    first = 0
    while first < len(times) - 1:
        # the run ends before the first instant off the grid of its first gap
        offsets = times[first:] - times[first]
        off_grid = np.abs(offsets - offsets[1] * np.arange(len(offsets))) > tol / 2
        cells = int(np.argmax(np.append(off_grid, True))) - 1
        span = offsets[cells]
        per_cell = max(1, int(np.ceil(span / cells / step - 1e-12)))
        plan += [(span / (cells * per_cell), per_cell)] * cells
        first += cells
    return plan


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


# Most RK4 steps times state entries one ``integrate_ode`` call, or one block of
# ``integrate_reaction``, may march:
# about three minutes of the reaction ensemble at 18 ns per entry and step
# (gPC stages cost more per entry as the order grows). The largest plan of
# the tests and benchmark workloads is 2.6e8, criterion 7's order-106 gPC at
# grid 256 to t = 96; the next are 1.6e8, 5b's Monte Carlo blocks.
STEP_ENTRY_LIMIT = 10**10


def _plan_march(window: TimeWindow, step: float,
                entries: int) -> list[tuple[float, int]]:
    """``_plan_steps``, rejecting a plan of more than ``STEP_ENTRY_LIMIT``
    steps times ``entries`` state entries as a ValueError."""
    plan = _plan_steps(window, step)
    n_steps = sum(n for _, n in plan)
    if n_steps * entries > STEP_ENTRY_LIMIT:
        raise ValueError(f"{n_steps} steps of {entries} state entries exceed the "
                         f"limit of {STEP_ENTRY_LIMIT:.0e}; increase the step")
    return plan


def integrate_ode(
    rhs: Callable[[np.ndarray, np.ndarray], None],
    initial: np.ndarray,
    window: TimeWindow,
    step: float,
) -> np.ndarray:
    """Classical fixed-step RK4 over the window for u' = rhs(u).

    ``rhs(u, out)`` writes the right-hand side at ``u`` into ``out``. The
    state (a C-ordered copy of ``initial``), the four stages and the stage
    argument are preallocated, and every step runs in them in place, ending
    in state + (dt/6) * (((k1 + 2 k2) + 2 k3) + k4). The steps are fitted to
    the output times by ``_plan_steps``, and an output at the start is the
    initial state itself. A plan of more than ``STEP_ENTRY_LIMIT`` steps
    times state entries is a ValueError, raised before the march. Raises
    ``IntegrationDiverged`` at the first step with a non-finite entry, at
    the output time before it plus k dt. Returns the states at the output
    times, an (n_output_times,) + initial.shape array.
    """
    state = np.array(initial, dtype=float, order="C")
    plan = _plan_march(window, step, state.size)
    out, record = _recorder(window, state.shape, None)
    _march(rhs, state, np.empty((5,) + state.shape), window, plan, True, record)
    return out


def _march(rhs: Callable[[np.ndarray, np.ndarray], None], state: np.ndarray,
           stages: np.ndarray, window: TimeWindow, plan: list[tuple[float, int]],
           check: bool, record: Record) -> None:
    """The RK4 steps of ``integrate_ode``, run on ``plan`` in place in
    ``state`` and the five ``stages`` buffers of its shape (k1 to k4 and the
    stage argument): n steps of dt, then output j, for each (dt, n) of the
    plan."""
    k1, k2, k3, k4, stage = stages
    for j, (before, (dt, n)) in enumerate(zip((window.start, *window.output_times), plan)):
        half, sixth = 0.5 * dt, dt / 6.0
        for k in range(1, n + 1):
            rhs(state, k1)
            np.multiply(k1, half, out=stage)
            stage += state
            rhs(stage, k2)
            np.multiply(k2, half, out=stage)
            stage += state
            rhs(stage, k3)
            np.multiply(k3, dt, out=stage)
            stage += state
            rhs(stage, k4)
            k2 *= 2.0
            k2 += k1
            k3 *= 2.0
            k2 += k3
            k2 += k4
            k2 *= sixth
            state += k2
            if check and not np.isfinite(state).all():
                raise IntegrationDiverged(before + k * dt)
        record(j, 0, state)


def _rates(speeds: np.ndarray, grid: SpatialGrid) -> np.ndarray:
    """speed * sin(k*h)/h for each speed (rows) and rfft mode k (columns): the
    central difference times the speed is multiplication by i times it."""
    modes = np.arange(grid.point_count // 2 + 1)
    return np.multiply.outer(speeds, np.sin(modes * grid.spacing) / grid.spacing)


def _growth(z: np.ndarray) -> np.ndarray:
    """The RK4 stability polynomial R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24."""
    return 1.0 + z * (1.0 + z / 2.0 * (1.0 + z / 3.0 * (1.0 + z / 4.0)))


def _growth_energy(y: np.ndarray) -> np.ndarray:
    """|R(iy)|^2 = 1 - y^6/72 + y^8/576, the factor by which one RK4 step of
    the advection multiplies a Fourier mode's squared modulus; at most 1 for
    |y| <= 2*sqrt(2)."""
    y2 = y * y
    return 1.0 + y2 * y2 * y2 * (y2 / 576.0 - 1.0 / 72.0)


def _advection_plan(speeds: np.ndarray, window: TimeWindow, grid: SpatialGrid,
                    step: float) -> list[tuple[float, int]]:
    """``_plan_steps``, after checking the CFL number of the fastest finite
    speed at the longest planned step: above 1/2 it is a ValueError."""
    plan = _plan_steps(window, step)
    longest = max(dt for dt, _ in plan)
    # a non-finite sample (kept by Monte Carlo, excluded later) sets no bound
    speed = np.max(np.abs(speeds), initial=0.0, where=np.isfinite(speeds))
    cfl = float(speed) * longest / grid.spacing
    if cfl > 0.5 + 1e-12:
        raise ValueError(f"CFL number {cfl:.3f} exceeds 1/2; reduce the step")
    return plan


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
    z = i*speed*dt*sin(k*h)/h, and n steps by R(z)^n (``_growth``, which
    ``AdvectionSpectrum.march`` shares); one power is computed per distinct
    (dt, n) of the plan. The steps are planned as in ``integrate_ode``, and
    an output at the start is the initial state itself. With ``check``, a
    non-finite output raises ``IntegrationDiverged`` at its output time.
    Each output's rows go to ``record(j, 0, rows)``; by default they are
    written into the returned (n_output_times, K, M) array. The Galerkin
    propagation (with ``eigenvectors``) and Monte Carlo (with a ``record``)
    march here; the wave's POD windows do not, since ``AdvectionSpectrum``
    gives them the spectrum without the transform back to the grid.
    """
    state = np.array(initial, dtype=float)
    speeds = np.asarray(speeds, dtype=float)
    if state.shape != (speeds.size, grid.point_count):
        raise ValueError(f"initial has shape {state.shape}, expected "
                         f"({speeds.size}, {grid.point_count})")
    plan = _plan_steps(window, step)
    out, record = _recorder(window, state.shape, record)
    rates = _rates(speeds, grid)
    powers = {}
    spectrum = np.fft.rfft(state, axis=-1)
    if eigenvectors is not None:
        vecs, inv_vecs = eigenvectors
        spectrum = inv_vecs @ spectrum
    for j, (dt, n) in enumerate(plan):
        if n == 0:
            record(j, 0, state)
            continue
        if (dt, n) not in powers:
            powers[dt, n] = _growth(1j * dt * rates) ** n
        spectrum *= powers[dt, n]
        mixed = spectrum if eigenvectors is None else vecs @ spectrum
        rows = np.fft.irfft(mixed, n=grid.point_count, axis=-1)
        if check and not np.all(np.isfinite(rows)):
            raise IntegrationDiverged(window.output_times[j])
        record(j, 0, rows)
    return out


class AdvectionSpectrum:
    """The wave ensemble of ``solve_ensemble`` kept in Fourier space, marched
    only in the modes asked for.

    For one speed the advection is diagonal in the Fourier modes: one RK4
    step multiplies mode k by R(iy) (``_growth``), with y = speed*dt*sin(k*h)/h,
    and so its squared modulus by |R(iy)|^2 (``_growth_energy``). Built from
    the (K, M) states ``initial`` at the K ``speeds``, after the CFL check of
    ``solve_ensemble`` and before any other work, it takes one rfft along x
    and works out ``energy`` in closed form: the (n_output_times, M//2 + 1)
    sum over the samples of each mode's squared modulus at each output, on
    the plan of ``_plan_steps``. A non-finite energy, or one whose running sum
    over the outputs overflows, raises ``IntegrationDiverged`` at the first
    output time at which it does. ``march(modes)`` returns those modes'
    (n_output_times, K, len(modes)) spectrum as ``integrate_advection``
    marches it, with no transform back to the grid.
    """

    def __init__(self, speeds: np.ndarray, initial: np.ndarray, window: TimeWindow,
                 grid: SpatialGrid, step: float):
        speeds = np.asarray(speeds, dtype=float)
        initial = np.asarray(initial, dtype=float)
        if initial.shape != (speeds.size, grid.point_count):
            raise ValueError(f"initial has shape {initial.shape}, expected "
                             f"({speeds.size}, {grid.point_count})")
        self.plan = _advection_plan(speeds, window, grid, step)
        self.grid = grid
        self.rates = _rates(speeds, grid)
        self.spectrum = np.fft.rfft(initial, axis=-1)
        power = self.spectrum.real ** 2 + self.spectrum.imag ** 2
        self.energy = np.empty((len(self.plan), power.shape[1]))
        gains = {}
        for j, (dt, n) in enumerate(self.plan):
            if n:
                if (dt, n) not in gains:
                    gains[dt, n] = _growth_energy(dt * self.rates) ** n
                power *= gains[dt, n]
            power.sum(axis=0, out=self.energy[j])
        finite = np.isfinite(np.cumsum(self.energy.sum(axis=1)))
        if not finite.all():
            raise IntegrationDiverged(window.output_times[int(np.argmin(finite))])

    def march(self, modes: np.ndarray) -> np.ndarray:
        spectrum = self.spectrum[:, modes]
        rates = self.rates[:, modes]
        out = np.empty((len(self.plan),) + spectrum.shape, dtype=complex)
        for j, (dt, n) in enumerate(self.plan):
            if n:
                spectrum *= _growth(1j * dt * rates) ** n
            out[j] = spectrum
        return out


# The blocks of samples of ``integrate_reaction``, in state entries (samples
# times grid points). One ``solve_ensemble`` window of 200 steps, best of 7,
# on a 2-vCPU AMD EPYC with a 1 MiB L2 cache per core and a 32 MiB shared L3:
#
#   samples x grid   1 block on 1 thread   blocks on 2 threads
#   300 x 256        0.106 s               2 x 150: 0.064 s, 3 x 100: 0.109 s, 4 x 75: 0.125 s
#   300 x 128        0.054 s               2 x 150: 0.037 s, 4 x 75: 0.054 s
#   600 x 256        0.221 s               2 x 300: 0.116 s, 4 x 150: 0.123 s, 6 x 100: 0.133 s
#   2400 x 256                             2 x 1200: 0.480 s, 4 x 600: 0.446 s,
#                                          8 x 300: 0.452 s, 16 x 150: 0.481 s
#
# Without a ``record`` the samples are cut into equal blocks, the fewest per
# thread that hold at most ``_MOST_ENTRIES`` each. An unequal last block
# leaves a thread idle while it is marched, and a thread with more blocks
# makes more array calls and waits more often on the other for the
# interpreter lock. A block's workspace (state, five stage buffers and
# reaction scratch) is then at most 7 MiB, so one per thread fits in the L3.
# Two threads marched 16K entries no faster than one, 20K about 10 % faster
# and 32K 1.4x faster (grids 64 to 256), so each thread takes at least
# ``_THREAD_ENTRIES``, and a smaller ensemble is one block; more than two
# threads were not measured. With a ``record`` (every Monte Carlo chunk) the
# blocks hold ``_BLOCK_ENTRIES`` each, on one thread. On one thread, blocks
# of 16K to 300K entries marched within about 5 % of each other, and blocks
# of 4K about 50 % slower, numpy's per-call overhead then outweighing the
# cache.
_BLOCK_ENTRIES = 32_768
_MOST_ENTRIES = 131_072
_THREAD_ENTRIES = 10_240


def _blocks(count: int, points: int, threads: int | None) -> list[slice]:
    """The blocks of rows in which ``integrate_reaction`` marches ``count``
    states of ``points`` entries. With ``threads`` None (a march with a
    ``record``) each block holds ``_BLOCK_ENTRIES // points`` rows, the last
    one the rest. Otherwise the rows are cut into blocks whose sizes differ
    by at most one row, as many as the threads used times the fewest per
    thread that hold at most ``_MOST_ENTRIES`` entries each. At most
    ``threads`` are used, and no more than leaves ``_THREAD_ENTRIES`` entries
    to each, so a smaller ensemble is one block; there are never more blocks
    than rows.
    """
    if threads is None:
        size = max(1, _BLOCK_ENTRIES // points)
        return [slice(first, min(first + size, count)) for first in range(0, count, size)]
    entries = count * points
    threads = max(1, min(threads, entries // _THREAD_ENTRIES))
    n = min(count, threads * -(-entries // (threads * _MOST_ENTRIES)))
    return [slice(i * count // n, (i + 1) * count // n) for i in range(n)]


def _cpu_count() -> int:
    """The CPUs this process may run on, or all CPUs where the platform has
    no affinity mask (macOS, Windows)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
    of its row; D is the periodic central difference, taken as the raw
    difference times speed / (2h). The rows do not couple, so the RK4 steps of
    ``integrate_ode`` march them a block of rows at a time (see ``_blocks``),
    each block copied transposed (samples contiguous) so that its state and
    stage buffers stay in cache for the whole window. Without a ``record``,
    the rows are cut into equal blocks, their count a multiple of the threads
    that march them, at most one per CPU, since numpy releases the
    interpreter lock inside each array operation; so the partition depends
    on the CPU count, but every row is marched by the same element-wise
    arithmetic in any block, and the states do not. With ``check``, raises
    ``IntegrationDiverged`` at the earliest step at which any row is
    non-finite. By default the states are written into the returned
    (n_output_times, K, M) array. With a ``record``, the blocks are of
    ``_BLOCK_ENTRIES`` state entries, marched one after another on the
    calling thread, and each block's states at each output go to
    ``record(j, first, rows)`` in row order.
    """
    initial = np.asarray(initial, dtype=float)
    speeds = np.asarray(speeds, dtype=float)
    if initial.shape != (speeds.size, grid.point_count):
        raise ValueError(f"initial has shape {initial.shape}, expected "
                         f"({speeds.size}, {grid.point_count})")
    cpus = None if record is not None else _cpu_count()
    blocks = _blocks(speeds.size, grid.point_count, cpus)
    threads = min(cpus or 1, len(blocks))
    states, record = _recorder(window, initial.shape, record)
    entries = max((b.stop - b.start for b in blocks), default=0) * grid.point_count
    plan = _plan_march(window, step, entries)
    scaled = speeds / (2.0 * grid.spacing)
    # one workspace per thread, allocated here: buffers that a pool thread
    # allocates stay in that thread's malloc arena and raise the peak memory.
    # At most ``threads`` blocks are marched at once, so one is always free.
    workspaces = [np.empty(7 * entries) for _ in range(threads)]
    # the caller's floating-point error handling (np.errstate), which a pool
    # thread does not inherit
    errors = np.geterr()

    def march(block: slice) -> IntegrationDiverged | None:
        speed = scaled[block]
        workspace = workspaces.pop()
        try:
            state, *stages, scratch = workspace[:7 * speed.size * grid.point_count].reshape(
                7, grid.point_count, speed.size)

            def rhs(u: np.ndarray, out: np.ndarray) -> None:
                # speed / (2h) * (raw difference of u) + reaction(u), one sample per column
                _difference(u.T, out.T)
                out *= speed
                out += problem.reaction(u, out=scratch)

            def block_record(j: int, _: int, rows: np.ndarray) -> None:
                record(j, block.start, rows.T)

            np.copyto(state, initial[block].T)
            with np.errstate(**errors):
                _march(rhs, state, stages, window, plan, check, block_record)
        except IntegrationDiverged as exc:
            return exc
        finally:
            workspaces.append(workspace)
        return None

    if threads > 1:
        # loaded on first use, as montecarlo loads its process pool
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(threads) as pool:
            outcomes = list(pool.map(march, blocks))
    else:
        outcomes = list(map(march, blocks))
    diverged = [exc for exc in outcomes if exc is not None]
    if diverged:
        # a later block may diverge earlier: report the earliest
        raise min(diverged, key=lambda exc: exc.time)
    return states


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
    problem, and through ``integrate_reaction``, which marches the samples
    in cache-sized blocks held sample-major, on several threads without a
    ``record``, for the advection-reaction problem. ``initial`` is either
    one state of length M (shared by all samples) or an array of shape
    (K, M). The step (by default ``default_step``) is fitted to the output
    times, and the CFL bound is checked against the longest step of the
    plan (``_advection_plan``, which ``AdvectionSpectrum`` also checks
    first), before any marching; the kernels plan the same steps from the
    same ``step``. Returns (n_output_times, K, M), or hands the states to
    ``record`` as the kernels describe: all rows at once on the wave, and
    block by block in row order, on one thread, on the advection-reaction
    problem.
    """
    xis = np.atleast_1d(np.asarray(xis, dtype=float))
    initial = np.asarray(initial, dtype=float)
    if initial.ndim == 1:
        initial = np.broadcast_to(initial, (xis.size, initial.size)).copy()
    if initial.shape != (xis.size, grid.point_count):
        raise ValueError(f"initial has shape {initial.shape}, expected ({xis.size}, {grid.point_count})")
    step = default_step(grid) if step is None else step
    _advection_plan(xis, window, grid, step)
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
