"""Configuration-driven experiment runner.

Exposes every solver behind one command-line interface, writes plot-ready CSV
and JSON artifacts, times the pipeline stages, runs wall-clock scaling studies
over a set of final times, and compares statistic time series between runs.

Exit codes: 0 success, 1 invalid configuration, an unreadable or malformed
config file or series CSV, or input the solver rejects (such as a step that
breaks the CFL bound, or a step so small that a march would exceed
``pde_core.STEP_ENTRY_LIMIT``), 2 solver divergence, an ill-conditioned
basis, a failed basis evolution (a Gram block that is singular or not
positive definite) or a Monte Carlo worker process that died, 3 comparison
failure. scaling-study exits 1 and 2 on the same errors, without a manifest.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import json
import math
import os
import platform
import resource
import sys
import tempfile
import time
import typing
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass

import numpy as np
import scipy

from . import __version__, driver, gpc, montecarlo, pde_core, random_space
from .basis_evolution import SingularBlock
from .galerkin import IllConditionedBasis
from .pde_core import IntegrationDiverged

__all__ = [
    "ExperimentConfig",
    "ConfigError",
    "run_experiment",
    "run_scaling_study",
    "compare_series",
    "write_series",
    "write_scaling_artifacts",
    "main",
]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_DIVERGED = 2
EXIT_COMPARISON = 3
# what a solve may raise on input it rejects (a ValueError, such as a step
# that breaks the CFL bound) or on failing; _report_failure prints each and
# gives its exit code
_SOLVE_ERRORS = (IntegrationDiverged, IllConditionedBasis, SingularBlock,
                 BrokenExecutor, ValueError)

_PROBLEMS = {
    "wave": pde_core.wave_problem,
    "advection-reaction": pde_core.advection_reaction_problem,
}
_SOLVERS = ("empirical", "empirical-evolve", "gpc", "mc", "exact")
_SCHEDULES = {
    "always-resample": driver.always_resample,
    "alternating": driver.alternating_schedule,
}
# the allowed values of the config fields that name a choice
_CHOICES = {
    "problem": sorted(_PROBLEMS),
    "solver": list(_SOLVERS),
    "schedule": sorted(_SCHEDULES),
}
# node count and window length default per problem when left unset
_DEFAULT_NODES = {"wave": 120, "advection-reaction": 300}
_DEFAULT_WINDOW = {"wave": 1.0, "advection-reaction": 2.0}
# thread-count (getter, setter) symbols an OpenBLAS build may export; the
# first pair a library has is used
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the bad field."""


@dataclass
class ExperimentConfig:
    """One experiment: problem, solver, discretization, and output location."""

    problem: str = "wave"
    solver: str = "empirical"
    grid_size: int = 256
    node_count: int | None = None
    order: int = 10
    window_length: float | None = None
    threshold: float = 1e-4
    basis_cap: int | None = None
    schedule: str = "alternating"
    t_final: float = 10.0
    t_start: float = 0.0
    step: float | None = None
    seed: int = 0
    sample_count: int = 10_000
    outputs_per_window: int = 11
    x_index: int = 0
    output_dir: str = "results"

    def validate(self) -> None:
        for name, choices in _CHOICES.items():
            value = getattr(self, name)
            if value not in choices:
                raise ConfigError(f"{name}: unknown value {value!r}, "
                                  f"expected one of {choices}")
        for name in ("t_start", "t_final", "window_length", "step"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name}: must be finite")
        wave_only = "only available for the wave problem"
        failures = [
            (self.grid_size < 3, "grid_size: must be at least 3"),
            (self.node_count is not None and self.node_count < 2,
             "node_count: must be at least 2"),
            (self.order < 1, "order: must be at least 1"),
            (self.order > gpc.ORDER_CAP, f"order: must be at most {gpc.ORDER_CAP}"),
            (self.window_length is not None and self.window_length <= 0,
             "window_length: must be positive"),
            (not 0.0 < self.threshold < 1.0, "threshold: must lie in (0, 1)"),
            (self.basis_cap is not None and self.basis_cap < 1,
             "basis_cap: must be at least 1"),
            (self.t_final <= self.t_start, "t_final: must exceed t_start"),
            (self.step is not None and self.step <= 0, "step: must be positive"),
            (self.seed < 0, "seed: must be non-negative"),
            (self.sample_count < 1, "sample_count: must be at least 1"),
            (self.outputs_per_window < 2, "outputs_per_window: must be at least 2"),
            (not 0 <= self.x_index < self.grid_size, "x_index: must lie in [0, grid_size)"),
            (self.solver == "exact" and self.problem != "wave",
             f"solver: exact statistics are {wave_only}"),
            (self.solver == "empirical-evolve" and self.problem != "wave",
             f"solver: basis evolution is {wave_only}"),
        ]
        for failed, message in failures:
            if failed:
                raise ConfigError(message)

    @property
    def resolved_node_count(self) -> int:
        return self.node_count if self.node_count is not None else _DEFAULT_NODES[self.problem]

    @property
    def resolved_window_length(self) -> float:
        if self.window_length is not None:
            return self.window_length
        return _DEFAULT_WINDOW[self.problem]

    @classmethod
    def from_json(cls, path: str) -> "ExperimentConfig":
        """Config from a JSON object of field values; an int may stand for a
        float, and null only for a field that may be unset."""
        try:
            payload = json.loads(_read_text(path))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path}: invalid JSON ({exc})") from exc
        if not isinstance(payload, dict):
            raise ConfigError(f"config file {path}: expected a JSON object of fields")
        types = _field_types()
        unknown = sorted(set(payload) - set(types))
        if unknown:
            raise ConfigError(f"config file {path}: unknown fields {unknown}")
        for name, value in payload.items():
            kind, optional = types[name]
            accepted = (int, float) if kind is float else kind
            if not (optional if value is None else
                    isinstance(value, accepted) and not isinstance(value, bool)):
                raise ConfigError(f"config file {path}: {name}: expected {kind.__name__}"
                                  f"{' or null' if optional else ''}, got {value!r}")
        return cls(**payload)


def _field_types() -> dict[str, tuple[type, bool]]:
    """(value type, may be None) of each config field, in field order."""
    types = {}
    for name, hint in typing.get_type_hints(ExperimentConfig).items():
        options = typing.get_args(hint) or (hint,)
        types[name] = (options[0], type(None) in options)
    return types


def _read_text(path: str) -> str:
    """The file's text; a file that cannot be read is a ConfigError."""
    try:
        with open(path) as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read ({exc})") from exc


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    """Config from an optional JSON file with flag values overriding fields."""
    config = ExperimentConfig.from_json(args.config) if args.config else ExperimentConfig()
    for field_obj in dataclasses.fields(ExperimentConfig):
        value = getattr(args, field_obj.name, None)
        if value is not None:
            setattr(config, field_obj.name, value)
    config.validate()
    return config


def _format(value: float) -> str:
    return f"{value:.17g}"


def _write_text(path: str, text: str) -> None:
    """Atomic write: temp file in the same directory, then rename."""
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_series(path: str, times, values, stderr=None) -> None:
    if stderr is None:
        lines = ["t,value"]
        lines += [f"{_format(t)},{_format(v)}" for t, v in zip(times, values)]
    else:
        lines = ["t,value,stderr"]
        lines += [f"{_format(t)},{_format(v)},{_format(s)}"
                  for t, v, s in zip(times, values, stderr)]
    _write_text(path, "\n".join(lines) + "\n")


def _read_series(path: str):
    """Parse a statistic CSV; returns (times, values) ignoring any stderr column."""
    header, *lines = _read_text(path).splitlines() or [""]
    if not header.startswith("t,value"):
        raise ConfigError(f"{path}: expected header 't,value[,stderr]', got {header!r}")
    rows = [line.split(",") for line in lines if line.strip()]
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    try:
        times, values = np.array([[float(r[0]), float(r[1])] for r in rows]).T
    except (ValueError, IndexError) as exc:
        raise ConfigError(f"{path}: malformed data row ({exc})") from exc
    if not np.all(np.isfinite(times)) or np.any(np.diff(times) <= 0):
        raise ConfigError(f"{path}: times must be finite and strictly increasing")
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"{path}: values must be finite")
    return times, values


def _empirical_artifacts(config: ExperimentConfig, archive, out: str) -> list[str]:
    files = []
    times, ms = archive.statistic_series(config.x_index, "mean_square")
    write_series(os.path.join(out, "mean_square.csv"), times, ms)
    files.append("mean_square.csv")
    _, mean = archive.statistic_series(config.x_index, "mean")
    write_series(os.path.join(out, "mean.csv"), times, mean)
    files.append("mean.csv")

    count_lines = ["window,t_start,t_end,basis_count"]
    for index, record in enumerate(archive.records):
        count_lines.append(f"{index},{_format(record.window.start)},"
                           f"{_format(record.window.end)},{record.basis.size}")
        if record.basis.singular_values.size:
            sigma = record.basis.singular_values
            sv_lines = ["index,sigma,sigma_scaled"]
            sv_lines += [f"{i},{_format(s)},{_format(s / sigma[0])}"
                         for i, s in enumerate(sigma)]
            name = f"singular_values_window_{index:04d}.csv"
            _write_text(os.path.join(out, name), "\n".join(sv_lines) + "\n")
            files.append(name)
    _write_text(os.path.join(out, "basis_counts.csv"), "\n".join(count_lines) + "\n")
    files.append("basis_counts.csv")
    return files


def _empirical_config(config: ExperimentConfig) -> driver.EmpiricalConfig:
    """The windowed empirical run the config describes, on its problem, grid
    and Chebyshev trapezoid rule."""
    schedule = (_SCHEDULES[config.schedule] if config.solver == "empirical-evolve"
                else driver.always_resample)
    return driver.EmpiricalConfig(
        problem=_PROBLEMS[config.problem](),
        grid=pde_core.SpatialGrid(config.grid_size),
        rule=random_space.trapezoid_rule(
            random_space.chebyshev_nodes(config.resolved_node_count)),
        window_length=config.resolved_window_length,
        t_final=config.t_final, t_start=config.t_start,
        threshold=config.threshold, basis_cap=config.basis_cap,
        step=config.step, outputs_per_window=config.outputs_per_window,
        schedule=schedule,
    )


def _blas_pools() -> dict[str, tuple]:
    """(getter, setter, shutdown) of each OpenBLAS loaded in this process, by
    library basename: the thread count's getter and setter, and the call that
    stops the worker threads (None where the build does not export it).
    Empty where /proc/self/maps is missing."""
    try:
        with open("/proc/self/maps") as handle:
            paths = sorted({line.split()[-1] for line in handle
                            if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return {}
    pools = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for get_name, set_name in _BLAS_THREAD_SYMBOLS:
            getter, setter = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if getter is not None and setter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                shutdown = getattr(lib, "blas_thread_shutdown_", None)
                if shutdown is not None:
                    shutdown.argtypes, shutdown.restype = [], ctypes.c_int
                pools[os.path.basename(path)] = (getter, setter, shutdown)
                break
    return pools


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with every loaded OpenBLAS on one thread, then restore the
    thread counts found. Yields the count each library reads back, by basename.

    numpy and scipy each bundle an OpenBLAS; on a two-core machine their
    threaded pools spin against each other, and the solves' matrices are too
    small to gain from a second thread. The second core serves the
    advection-reaction ensemble instead, whose samples are cut into equal
    blocks marched on up to one thread per CPU, and the Monte Carlo worker
    processes, which inherit the setting, march on one thread each and make
    no BLAS call.

    Each count is set with the worker threads stopped: an idle worker spins
    for about 0.1 s after threaded work or a restart (setting a count restarts
    a stopped pool), and a one-thread solve started in that time ran about
    twice as slow. The next threaded call restarts them, as after a fork.
    """
    pools = _blas_pools()
    found = {name: getter() for name, (getter, _, _) in pools.items()}

    def set_counts(counts):
        for name, (_, setter, shutdown) in pools.items():
            setter(counts[name])
            if shutdown is not None:
                shutdown()

    try:
        set_counts(dict.fromkeys(pools, 1))
        yield {name: getter() for name, (getter, _, _) in pools.items()}
    finally:
        set_counts(found)


def _solve(config: ExperimentConfig, emp_config: driver.EmpiricalConfig,
           out: str) -> tuple[list[str], dict, dict]:
    """Run the configured solver on the problem, grid and rule of emp_config
    and write its artifacts.

    Returns (files, timings, extra manifest fields).
    """
    problem, grid = emp_config.problem, emp_config.grid

    if config.solver in ("empirical", "empirical-evolve"):
        archive, timings = driver.run_schedule(emp_config)
        stage_seconds = timings.as_dict()
        tic = time.perf_counter()
        files = _empirical_artifacts(config, archive, out)
        stage_seconds["export"] = time.perf_counter() - tic
        extra = ({"reaction_points": [record.reaction_points for record in archive.records]}
                 if problem.has_reaction else {})
        return files, stage_seconds, extra

    # the reference solvers report at the empirical solver's output times
    plan = driver.window_plan(emp_config)
    times = np.array([plan[0][1].start]
                     + [t for _, window in plan for t in window.output_times[1:]])
    window = pde_core.TimeWindow(config.t_start, config.t_final, tuple(times))

    if config.solver == "exact":
        tic = time.perf_counter()
        # like the solvers, start from the initial condition at t_start
        x, elapsed = grid.points[config.x_index], times - config.t_start
        ms = pde_core.wave_exact_mean_square(elapsed, x)
        mean = pde_core.wave_exact_mean(elapsed, x)
        write_series(os.path.join(out, "mean_square.csv"), times, ms)
        write_series(os.path.join(out, "mean.csv"), times, mean)
        seconds = time.perf_counter() - tic
        return ["mean_square.csv", "mean.csv"], {"evaluation": seconds}, {}

    if config.solver == "gpc":
        tic = time.perf_counter()
        coefficients = gpc.solve_gpc(problem, config.order, grid, window, config.step,
                                     emp_config.rule)
        propagation = time.perf_counter() - tic
        tic = time.perf_counter()
        write_series(os.path.join(out, "mean_square.csv"), times,
                      gpc.mean_square_series(coefficients, config.x_index))
        write_series(os.path.join(out, "mean.csv"), times,
                      gpc.mean_series(coefficients, config.x_index))
        export = time.perf_counter() - tic
        return (["mean_square.csv", "mean.csv"],
                {"propagation": propagation, "export": export}, {})

    # mc
    mc_config = montecarlo.McConfig(
        problem=problem, grid=grid, window=window,
        sample_count=config.sample_count, seed=config.seed, step=config.step,
    )
    tic = time.perf_counter()
    result = montecarlo.mc_statistics(mc_config)
    seconds = time.perf_counter() - tic
    tic = time.perf_counter()
    t, ms, ms_err = result.series(config.x_index, "mean_square")
    write_series(os.path.join(out, "mean_square.csv"), t, ms, ms_err)
    t, mean, mean_err = result.series(config.x_index, "mean")
    write_series(os.path.join(out, "mean.csv"), t, mean, mean_err)
    export = time.perf_counter() - tic
    counts = {"sample_count": result.sample_count,
              "diverged_count": result.diverged_count, "workers": result.workers}
    return (["mean_square.csv", "mean.csv"], {"sampling": seconds, "export": export},
            {"monte_carlo": counts})


def run_experiment(config: ExperimentConfig) -> int:
    """Run one configured solve, with BLAS on one thread, and write the result
    bundle to output_dir."""
    config.validate()
    emp_config = _empirical_config(config)
    out = config.output_dir
    os.makedirs(out, exist_ok=True)
    manifest = {
        "version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "config": dataclasses.asdict(config),
        "status": "ok",
        "files": [],
        "stage_seconds": {},
        "total_seconds": 0.0,
    }
    code = EXIT_OK
    try:
        with _one_blas_thread() as threads:
            manifest["blas_threads"] = threads
            # the stages cover the total: building the config, grid and rule
            # and setting and restoring the threads are set-up, not solve
            tic = time.perf_counter()
            try:
                files, stage_seconds, extra = _solve(config, emp_config, out)
            finally:
                manifest["total_seconds"] = time.perf_counter() - tic
        manifest.update(files=files, stage_seconds=stage_seconds, **extra)
    except _SOLVE_ERRORS as exc:
        code = _report_failure(exc)
        manifest.update(status="invalid-input" if code == EXIT_VALIDATION
                        else "solver-error", error=str(exc))
    # this process's peak since it started, Monte Carlo workers not included
    manifest["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _write_text(os.path.join(out, "manifest.json"), json.dumps(manifest, indent=2) + "\n")
    return code


def _report_failure(exc: Exception) -> int:
    """Print the error of a solve that raised one of _SOLVE_ERRORS and return
    its exit code: 1 for input the solver rejects, 2 for a solver failure."""
    print(f"error: {exc}", file=sys.stderr)
    return EXIT_VALIDATION if isinstance(exc, ValueError) else EXIT_DIVERGED


def compare_series(path_a: str, path_b: str, tolerance: float) -> dict:
    """Max-abs and RMS deviation over the overlapping time range of two CSVs.

    Series B is linearly interpolated onto A's time points inside the overlap.
    """
    if not (np.isfinite(tolerance) and tolerance >= 0):
        raise ConfigError(f"tolerance: must be finite and nonnegative, got {tolerance!r}")
    times_a, values_a = _read_series(path_a)
    times_b, values_b = _read_series(path_b)
    lo = max(times_a.min(), times_b.min())
    hi = min(times_a.max(), times_b.max())
    if lo > hi:
        raise ConfigError("series have disjoint time ranges")
    inside = (times_a >= lo - 1e-12) & (times_a <= hi + 1e-12)
    t = times_a[inside]
    a = values_a[inside]
    b = np.interp(t, times_b, values_b)
    deviation = np.abs(a - b)
    max_abs = float(deviation.max())
    return {
        "series_a": path_a,
        "series_b": path_b,
        "t_overlap": [float(lo), float(hi)],
        "points": int(t.size),
        "max_abs": max_abs,
        "rms": float(np.sqrt(np.mean(deviation**2))),
        "tolerance": float(tolerance),
        "passed": bool(max_abs <= tolerance),
    }


def _fit_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line fit; returns (slope, intercept, r_squared)."""
    slope, intercept = np.polyfit(x, y, 1)
    predicted = slope * x + intercept
    residual = np.sum((y - predicted) ** 2)
    total = np.sum((y - np.mean(y)) ** 2)
    r_squared = 1.0 - residual / total if total > 0 else 1.0
    return float(slope), float(intercept), float(r_squared)


# rounds of empirical solves in a scaling study; its times are each horizon's least
_TIMING_ROUNDS = 3


def run_scaling_study(config: ExperimentConfig, horizons, with_gpc: bool = True,
                      order_factor: float = 1.1) -> dict:
    """Wall-clock scaling of the empirical solver (and optionally gPC) vs t_final.

    The gPC order grows proportionally to the horizon so both methods track a
    comparable accuracy target as the integration time increases. Both are
    timed with BLAS on one thread. Each empirical horizon's time is the
    least of ``_TIMING_ROUNDS`` rounds, each of which solves every horizon
    once, so that one slow spell of a shared machine sets no horizon's time
    (a short solve is timed again later, not straight after itself); each
    gPC horizon is timed once, after the empirical rounds.
    """
    horizons = sorted(float(t) for t in horizons)
    if len(horizons) < 3:
        raise ConfigError("horizons: need at least 3 values for a scaling fit")
    if not all(math.isfinite(t) for t in horizons):
        raise ConfigError("horizons: every value must be finite")
    if any(t <= config.t_start for t in horizons):
        raise ConfigError("horizons: every value must exceed t_start")
    if not (math.isfinite(order_factor) and order_factor > 0):
        raise ConfigError("order_factor: must be positive and finite")
    config.validate()

    base = _empirical_config(config)
    problem, grid, rule = base.problem, base.grid, base.rule

    rows = [{"t_final": t_final, "empirical_seconds": math.inf} for t_final in horizons]
    with _one_blas_thread():
        for _ in range(_TIMING_ROUNDS):
            for row in rows:
                emp_config = dataclasses.replace(base, t_final=row["t_final"],
                                                 schedule=driver.always_resample)
                tic = time.perf_counter()
                archive, _ = driver.run_schedule(emp_config)
                row["empirical_seconds"] = min(row["empirical_seconds"],
                                               time.perf_counter() - tic)
                row["max_basis_count"] = int(max(archive.basis_counts()))
        for row in rows if with_gpc else ():
            order = max(1, int(np.ceil(order_factor * row["t_final"])))
            window = pde_core.TimeWindow(config.t_start, row["t_final"])
            tic = time.perf_counter()
            gpc.solve_gpc(problem, order, grid, window, config.step, rule)
            row["gpc_seconds"] = time.perf_counter() - tic
            row["gpc_order"] = order

    t = np.array([row["t_final"] for row in rows])
    emp = np.array([row["empirical_seconds"] for row in rows])
    slope, intercept, r_squared = _fit_line(t, emp)
    report = {
        "rows": rows,
        "empirical_fit": {"slope": slope, "intercept": intercept,
                          "r_squared": r_squared},
    }
    if with_gpc:
        g = np.array([row["gpc_seconds"] for row in rows])
        exponent, _, gpc_r2 = _fit_line(np.log(t), np.log(g))
        gaps = g - emp
        report["gpc_fit"] = {"exponent": exponent, "r_squared": gpc_r2}
        report["crossover_exists"] = bool(np.min(gaps) < 0 < np.max(gaps))
    return report


def write_scaling_artifacts(report: dict, out: str) -> None:
    os.makedirs(out, exist_ok=True)
    columns = list(report["rows"][0])
    lines = [",".join(columns)]
    lines += [",".join(_format(row[name]) for name in columns) for row in report["rows"]]
    _write_text(os.path.join(out, "scaling.csv"), "\n".join(lines) + "\n")
    _write_text(os.path.join(out, "scaling_report.json"),
                json.dumps(report, indent=2) + "\n")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """``--config`` and one flag per config field, named after the field."""
    parser.add_argument("--config", help="JSON config file; flags override its fields")
    for name, (kind, _) in _field_types().items():
        parser.add_argument("--" + name.replace("_", "-"), dest=name, type=kind,
                            choices=_CHOICES.get(name))


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors share the validation exit code."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="empchaos",
        description="Empirical chaos expansion experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one solver and export artifacts")
    _add_config_flags(run_parser)

    exact_parser = sub.add_parser(
        "exact", help="export the closed-form wave statistics")
    _add_config_flags(exact_parser)

    scaling = sub.add_parser(
        "scaling-study", help="wall-clock scaling over several final times")
    _add_config_flags(scaling)
    scaling.add_argument("--horizons", type=float, nargs="+", required=True,
                         help="final integration times (at least 3)")
    scaling.add_argument("--no-gpc", action="store_true",
                         help="skip the gPC baseline timings")
    scaling.add_argument("--order-factor", type=float, default=1.1,
                         help="gPC order per unit of horizon (default 1.1)")

    cmp_parser = sub.add_parser("compare", help="compare two statistic CSVs")
    cmp_parser.add_argument("series_a")
    cmp_parser.add_argument("series_b")
    cmp_parser.add_argument("--tolerance", type=float, default=1e-2)
    cmp_parser.add_argument("--report", help="optional path for the JSON report")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "compare":
            report = compare_series(args.series_a, args.series_b, args.tolerance)
            text = json.dumps(report, indent=2)
            print(text)
            if args.report:
                _write_text(args.report, text + "\n")
            return EXIT_OK if report["passed"] else EXIT_COMPARISON

        if args.command == "scaling-study":
            config = _build_config(args)
            try:
                report = run_scaling_study(config, args.horizons,
                                           with_gpc=not args.no_gpc,
                                           order_factor=args.order_factor)
            except _SOLVE_ERRORS as exc:
                return _report_failure(exc)
            write_scaling_artifacts(report, config.output_dir)
            print(json.dumps({k: v for k, v in report.items() if k != "rows"},
                             indent=2))
            return EXIT_OK

        if args.command == "exact":
            args.solver = "exact"
        config = _build_config(args)
        return run_experiment(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
