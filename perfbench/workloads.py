"""The benchmark's workloads, their stored references and their correctness checks.

Each workload is a list of ``cli.ExperimentConfig`` field sets, solved in
order by ``cli.run_experiment`` exactly as ``empchaos run`` would. Only
``ar-montecarlo`` consumes the seed; every other workload is deterministic
quadrature. The checks read the artifacts a user gets (``manifest.json``,
``mean_square.csv``, ``basis_counts.csv``), never in-memory solver objects.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

# Why each workload exists (kept in step with BENCHMARK.json):
# - wave: the paper's wave comparison (criteria 1 and 2); ensemble march, POD,
#   Galerkin propagation and export, plus the only gPC solve.
# - wave-evolve: the alternating schedule (criterion 6), 275 short windows, so
#   per-call assembly, change of basis and export dominate; the only workload
#   where basis_evolution runs.
# - ar-empirical: the nonlinear reaction march, projected-reaction Galerkin
#   propagation with up to 33 basis functions and a 2816x300 SVD; no Monte Carlo.
# - ar-montecarlo: two 5,000-sample chunks whose (11, 5000, 128) output block
#   outgrows the caches; never touches pod, galerkin or driver.
NAMES = ("wave", "wave-evolve", "ar-empirical", "ar-montecarlo")

_WAVE = dict(problem="wave", grid_size=128)
_AR = dict(problem="advection-reaction")


def configs(name: str, seed: int) -> list[dict]:
    """ExperimentConfig fields for each solve of one workload run."""
    if name == "wave":
        return [dict(_WAVE, solver="empirical", node_count=120, t_final=50.0),
                dict(_WAVE, solver="gpc", order=40, t_final=25.0, step=0.01)]
    if name == "wave-evolve":
        return [dict(_WAVE, solver="empirical-evolve", schedule="alternating",
                     node_count=120, t_final=50.0)]
    if name == "ar-empirical":
        return [dict(_AR, solver="empirical", grid_size=256, node_count=300, t_final=10.0)]
    if name == "ar-montecarlo":
        return [dict(_AR, solver="mc", grid_size=128, sample_count=10_000, seed=seed,
                     t_final=1.0)]
    raise ValueError(f"unknown workload {name!r}, expected one of {list(NAMES)}")


def warmup_configs(name: str) -> list[dict]:
    """Short versions of the workload's solves that load every code path once."""
    short = []
    for kw in configs(name, 0):
        kw = dict(kw, t_final=1.0)
        if kw["solver"] == "mc":
            kw["sample_count"] = 100
        short.append(kw)
    return short


@dataclass
class Reference:
    """A stored Monte Carlo E[u(0,t)^2] series with its standard errors."""

    config: dict
    times: np.ndarray
    mean_square: np.ndarray
    stderr: np.ndarray
    provenance: dict


def reference_path(name: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{name}.json")


def load_reference(name: str) -> Reference | None:
    """The stored reference of a workload, or None for the exact-statistic ones."""
    path = reference_path(name)
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        payload = json.load(handle)
    return Reference(config=payload["config"], times=np.array(payload["times"]),
                     mean_square=np.array(payload["mean_square"]),
                     stderr=np.array(payload["stderr"]),
                     provenance=payload["provenance"])


@dataclass
class Output:
    """What one ``run_experiment`` call left behind, as read from its directory."""

    exit_code: int
    status: str
    times: np.ndarray
    mean_square: np.ndarray
    stderr: np.ndarray | None = None
    basis_max: int | None = None
    warnings: list = field(default_factory=list)


def load_output(directory: str, exit_code: int, warning_texts=()) -> Output:
    with open(os.path.join(directory, "manifest.json")) as handle:
        status = json.load(handle)["status"]
    table = np.loadtxt(os.path.join(directory, "mean_square.csv"), delimiter=",",
                       skiprows=1, ndmin=2)
    basis_max = None
    counts = os.path.join(directory, "basis_counts.csv")
    if os.path.exists(counts):
        basis_max = int(np.max(np.loadtxt(counts, delimiter=",", skiprows=1,
                                          ndmin=2)[:, 3]))
    return Output(exit_code=exit_code, status=status, times=table[:, 0],
                  mean_square=table[:, 1],
                  stderr=table[:, 2] if table.shape[1] > 2 else None,
                  basis_max=basis_max, warnings=list(warning_texts))


def _exact_mean_square(t: np.ndarray) -> np.ndarray:
    """E[u(0,t)^2] = (1 + sin(2t)/(2t))/2 for the wave problem, xi ~ U[-1, 1].

    Written out here rather than taken from ``pde_core`` so that a change to
    the library's closed form cannot pass its own check.
    """
    t = np.asarray(t, dtype=float)
    safe = np.where(t == 0.0, 1.0, 2.0 * t)
    return 0.5 * (1.0 + np.where(t == 0.0, 1.0, np.sin(2.0 * t) / safe))


def _against_reference(out: Output, ref: Reference) -> tuple[np.ndarray, list[str]]:
    """Absolute deviations from the reference, after checking the time grids agree."""
    if out.times.shape != ref.times.shape or np.max(np.abs(out.times - ref.times)) > 1e-9:
        return np.array([np.inf]), ["output times differ from the reference's"]
    deviation = np.abs(out.mean_square - ref.mean_square)
    # t = 0 is deterministic on both sides: E[u0^2] exactly
    if deviation[0] > 1e-8:
        return deviation, [f"t = 0 value off by {deviation[0]:.3g}"]
    return deviation, []


def evaluate(name: str, outputs: list[Output], ref: Reference | None) -> tuple[float, list[str]]:
    """Accuracy figure of one workload solve and the checks it failed.

    The figure is ``max_err`` (largest absolute error of E[u(0,t)^2] against
    the workload's reference) on the quadrature workloads, and ``max_stderr``
    (largest standard error of E[u(0,t)^2]) on ``ar-montecarlo``.
    """
    failures = [f"solve {i}: exit code {out.exit_code}, status {out.status!r}"
                for i, out in enumerate(outputs) if out.exit_code != 0 or out.status != "ok"]
    if failures:
        return float("inf"), failures

    if name in ("wave", "wave-evolve"):
        errors = [float(np.max(np.abs(out.mean_square - _exact_mean_square(out.times))))
                  for out in outputs]
        failures += [f"solve {i}: max error {err:.3g} against the exact statistic "
                     f"exceeds 1e-2" for i, err in enumerate(errors) if not err <= 1e-2]
        if name == "wave":
            main, gpc = outputs
            if not (gpc.times[0] == 0.0 and abs(gpc.times[-1] - 25.0) < 1e-9):
                failures.append("gPC output does not span [0, 25]")
            if not main.basis_max <= 9:
                failures.append(f"basis count {main.basis_max} exceeds 9")
        return max(errors), failures

    (out,) = outputs
    deviation, failures = _against_reference(out, ref)
    if name == "ar-empirical":
        sigmas = float(np.max(deviation[1:] / ref.stderr[1:])) if not failures else np.inf
        if not sigmas <= 3.0:
            failures.append(f"{sigmas:.3g} reference standard errors from the reference "
                            f"(limit 3)")
        if not out.basis_max <= 33:
            failures.append(f"basis count {out.basis_max} exceeds 33")
        return float(np.max(deviation)), failures

    if name == "ar-montecarlo":
        diverged = [text for text in out.warnings if "diverged" in text]
        failures += [f"Monte Carlo warning: {text}" for text in diverged]
        if not failures:
            combined = np.hypot(out.stderr[1:], ref.stderr[1:])
            sigmas = float(np.max(deviation[1:] / combined))
            if not sigmas <= 5.0:
                failures.append(f"{sigmas:.3g} combined standard errors from the "
                                f"reference (limit 5)")
        return float(np.max(out.stderr)), failures

    raise ValueError(f"unknown workload {name!r}")
