"""Outside-in tracing of the empchaos package.

The library imports names directly (``driver`` calls its own binding of
``truncate_pod``, ``montecarlo`` its own ``solve_ensemble``), so a ``Tracer``
wraps every public function at each module where it is bound, and every
public method on the public classes, and restores the original objects when
it exits. Each call records a span (name, start, end, parent, run id, and
process CPU time at both ends); spans stay in memory until the benchmark
writes them out. Counters derived from a call's arguments and result are
attached to its span.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import time
from collections import defaultdict

import numpy as np

__all__ = ["Span", "Tracer", "binding_sites", "covered", "self_times", "layer_metrics"]


class Span:
    __slots__ = ("id", "name", "parent", "run", "start", "end", "cpu_start", "cpu_end",
                 "counts")

    def __init__(self, id, name, parent, run, start=0.0, end=0.0, cpu_start=0.0,
                 cpu_end=0.0, counts=None):
        self.id, self.name, self.parent, self.run = id, name, parent, run
        self.start, self.end = start, end
        self.cpu_start, self.cpu_end = cpu_start, cpu_end
        self.counts = counts

    def as_list(self) -> list:
        return [getattr(self, name) for name in self.__slots__]


def binding_sites(package) -> list[tuple[object, str, object, str]]:
    """(owner, attribute, original, span name) for every place to wrap.

    Public functions are those in a module's ``__all__`` that the module
    defines; they are wrapped wherever a module of the package binds the same
    object. Public methods are the plain functions, without a leading
    underscore, in the namespace of a public class.
    """
    prefix = package.__name__ + "."
    modules = [m for m in vars(package).values()
               if inspect.ismodule(m) and m.__name__.startswith(prefix)]
    functions: dict[int, str] = {}
    sites = []
    for module in modules:
        short = module.__name__[len(prefix):]
        for name in getattr(module, "__all__", ()):
            obj = vars(module).get(name)
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                functions[id(obj)] = f"{short}.{name}"
            elif inspect.isclass(obj):
                sites += [(obj, attr, value, f"{short}.{obj.__name__}.{attr}")
                          for attr, value in vars(obj).items()
                          if not attr.startswith("_") and inspect.isfunction(value)]
    for module in modules:
        sites += [(module, attr, value, functions[id(value)])
                  for attr, value in vars(module).items() if id(value) in functions]
    return sites


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _nbytes(value) -> int:
    return value.nbytes if isinstance(value, np.ndarray) else 0


def _count_derivative(args, kwargs, result):
    # computed bytes: the array read plus the array written
    return {"bytes": _nbytes(_arg(args, kwargs, 0, "values")) + _nbytes(result)}


def _count_pod(args, kwargs, result):
    return {"kept": result.size, "computed": int(result.singular_values.size)}


def _count_mc(args, kwargs, result):
    return {"good": result.sample_count,
            "attempted": _arg(args, kwargs, 0, "config").sample_count}


def _count_schedule(args, kwargs, result):
    return {"windows": len(result[0].records)}


def _count_assembly(args, kwargs, result):
    return {"basis": _arg(args, kwargs, 0, "basis").size}


# counters taken from a call's arguments and result, by span name
COUNTERS = {
    "pde_core.spatial_derivative": _count_derivative,
    "pde_core.solve_ensemble": lambda args, kwargs, result: {"out_bytes": _nbytes(result)},
    "pod.truncate_pod": _count_pod,
    "montecarlo.mc_statistics": _count_mc,
    "driver.run_schedule": _count_schedule,
    "galerkin.assemble_matrices": _count_assembly,
}


class Tracer:
    """Context manager that wraps the package on entry and restores it on exit."""

    def __init__(self, package):
        self.package = package
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[Span] = []
        self._ids = itertools.count()
        self._sites: list = []

    def _wrap(self, name: str, func):
        counter = COUNTERS.get(name)
        spans, stack, ids = self.spans, self._stack, self._ids
        clock, cpu_clock = time.perf_counter, time.process_time

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = Span(next(ids), name, stack[-1].id if stack else None, self.run)
            stack.append(span)
            span.cpu_start = cpu_clock()
            span.start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = clock()
                span.cpu_end = cpu_clock()
                stack.pop()
                spans.append(span)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        self._sites = binding_sites(self.package)
        wrappers: dict[int, object] = {}
        for owner, attr, original, name in self._sites:
            if id(original) not in wrappers:
                wrappers[id(original)] = self._wrap(name, original)
            setattr(owner, attr, wrappers[id(original)])
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attr, original, _ in self._sites:
            setattr(owner, attr, original)
        self._sites = []


def covered(lo: float, hi: float, intervals) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict[int, tuple[float, float]]:
    """Span id -> (wall self time, CPU self time).

    Self time is the span's duration minus the part of its interval that its
    child spans cover, on the wall clock and on the process CPU clock.
    """
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        kids = children[span.id]
        wall = covered(span.start, span.end, [(c.start, c.end) for c in kids])
        cpu = covered(span.cpu_start, span.cpu_end, [(c.cpu_start, c.cpu_end) for c in kids])
        out[span.id] = (span.end - span.start - wall, span.cpu_end - span.cpu_start - cpu)
    return out


# per-layer timing metrics: metric name -> (span name, statistic)
TIMINGS = {
    "pde_core.integrate_ode.self_s": ("pde_core.integrate_ode", "self_s"),
    "pde_core.integrate_ode.self_cpu_s": ("pde_core.integrate_ode", "self_cpu_s"),
    "pde_core.integrate_ode.calls": ("pde_core.integrate_ode", "calls"),
    "pde_core.spatial_derivative.self_s": ("pde_core.spatial_derivative", "self_s"),
    "pde_core.spatial_derivative.calls": ("pde_core.spatial_derivative", "calls"),
    "pde_core.solve_ensemble.incl_s": ("pde_core.solve_ensemble", "incl_s"),
    "pod.truncate_pod.self_s": ("pod.truncate_pod", "self_s"),
    "pod.truncate_pod.self_cpu_s": ("pod.truncate_pod", "self_cpu_s"),
    "pod.truncate_pod.calls": ("pod.truncate_pod", "calls"),
    "pod.assemble_trajectory_matrix.self_s": ("pod.assemble_trajectory_matrix", "self_s"),
    "galerkin.propagate_window.incl_s": ("galerkin.propagate_window", "incl_s"),
    "galerkin.propagate_window.calls": ("galerkin.propagate_window", "calls"),
    "galerkin.assemble_matrices.self_s": ("galerkin.assemble_matrices", "self_s"),
    "galerkin.assemble_matrices.calls": ("galerkin.assemble_matrices", "calls"),
    "galerkin.change_basis.self_s": ("galerkin.change_basis", "self_s"),
    "galerkin.change_basis.self_cpu_s": ("galerkin.change_basis", "self_cpu_s"),
    "galerkin.change_basis.calls": ("galerkin.change_basis", "calls"),
    "galerkin.statistic_series.self_s": ("galerkin.ExpansionArchive.statistic_series", "self_s"),
    # the per-time work runs in wrapped methods, so self time alone misses it
    "galerkin.statistic_series.incl_s": ("galerkin.ExpansionArchive.statistic_series", "incl_s"),
    "galerkin.to_json.self_s": ("galerkin.ExpansionArchive.to_json", "self_s"),
    "basis_evolution.evolve_basis.self_s": ("basis_evolution.evolve_basis", "self_s"),
    "basis_evolution.evolve_basis.calls": ("basis_evolution.evolve_basis", "calls"),
    "basis_evolution.spatial_pair.self_s": ("basis_evolution.spatial_pair", "self_s"),
    "gpc.solve_gpc.incl_s": ("gpc.solve_gpc", "incl_s"),
    "montecarlo.mc_statistics.self_s": ("montecarlo.mc_statistics", "self_s"),
    "driver.run_schedule.self_s": ("driver.run_schedule", "self_s"),
    "cli.run_experiment.self_s": ("cli.run_experiment", "self_s"),
    "cli.write_series.self_s": ("cli.write_series", "self_s"),
}


def _under(span, ancestor: str, by_id) -> bool:
    while span.parent is not None:
        span = by_id[span.parent]
        if span.name == ancestor:
            return True
    return False


def layer_metrics(spans, runs: int) -> dict[str, float]:
    """Per-layer metrics of ``runs`` traced workload solves, per solve.

    Times and call counts are totals divided by ``runs``; ratios pool all
    calls and are 0 where the layer never ran.
    """
    selfs = self_times(spans)
    totals = defaultdict(float)
    counts = defaultdict(float)
    for span in spans:
        wall, cpu = selfs[span.id]
        totals[span.name, "self_s"] += wall
        totals[span.name, "self_cpu_s"] += cpu
        totals[span.name, "incl_s"] += span.end - span.start
        totals[span.name, "calls"] += 1
        for key, value in (span.counts or {}).items():
            counts[span.name, key] += value
    metrics = {metric: totals[key] / runs for metric, key in TIMINGS.items()}

    def ratio(name, top, bottom):
        base = counts[name, bottom]
        return counts[name, top] / base if base else 0.0

    by_id = {span.id: span for span in spans}
    block = [span.counts["out_bytes"] for span in spans
             if span.name == "pde_core.solve_ensemble"
             and _under(span, "montecarlo.mc_statistics", by_id)]
    basis = [span.counts["basis"] for span in spans
             if span.name == "galerkin.assemble_matrices"]
    metrics.update({
        "pde_core.spatial_derivative.bytes":
            counts["pde_core.spatial_derivative", "bytes"] / runs,
        "pod.kept_ratio": ratio("pod.truncate_pod", "kept", "computed"),
        "galerkin.basis_count_max": float(max(basis, default=0)),
        "montecarlo.block_bytes": float(max(block, default=0)),
        "montecarlo.ok_ratio": ratio("montecarlo.mc_statistics", "good", "attempted"),
        "driver.windows": counts["driver.run_schedule", "windows"] / runs,
    })
    return metrics
