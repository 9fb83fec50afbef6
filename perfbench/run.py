"""Benchmark of the empchaos solvers, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]

It drives ``cli.run_experiment`` in this process, one workload solve after
the other (a closed loop with one client), for about ``--seconds`` seconds,
and checks every solve's artifacts against the workload's reference. The BLAS
environment is left as found; the thread count the BLAS library reports is
recorded with every result.

With ``--trace 0`` it reports the end-to-end metrics: ``solve_s`` and
``cpu_s`` (medians per workload solve), ``setup_s`` (median over fresh
processes of the time until the first solve could begin), ``peak_rss_mb``
and ``stat_err`` (``max_err`` or ``max_stderr``, see ``workloads.evaluate``).
With ``--trace 1`` it alternates untraced and traced solves and reports the
per-layer metrics of ``tracing.layer_metrics``, ``cli.export_bytes`` and the
tracing overhead. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it print every metric by name with its unit, the failure fraction and
the environment. ``--workload all`` runs every workload in its own process.
Results, and the spans of a traced run, are written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from dataclasses import asdict, dataclass, field

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
# set-up probes before the first solve and after each one: spreading them over
# the run averages out the slow and fast spells of a shared machine
PROBES_PER_SOLVE = 2
# fewest solves per run; past it, another solve starts only while a typical
# solve and its probes still end within --seconds, so a slow machine shortens
# the run instead of overrunning it
MIN_SOLVES = 2
UNITS = {"solve_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
         "stat_err": "1", "trace.overhead_s": "s", "cli.export_bytes": "bytes",
         "pde_core.spatial_derivative.bytes": "bytes_computed",
         "montecarlo.block_bytes": "bytes_computed", "galerkin.basis_count_max": "count",
         "driver.windows": "count", "pod.kept_ratio": "ratio",
         "montecarlo.ok_ratio": "ratio"}


def unit_of(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    return "count" if metric.endswith(".calls") else "s"


@dataclass
class Sample:
    """One workload solve: its cost, its accuracy figure and its failed checks."""

    wall: float
    cpu: float
    err: float
    failures: list = field(default_factory=list)
    traced: bool = False
    export_bytes: int = 0


def failure_counts(samples) -> tuple[int, int]:
    """(attempted, failed): a solve fails if it raised, exited non-zero or
    failed a correctness check."""
    return len(samples), sum(1 for s in samples if s.failures)


# ---------------------------------------------------------------- environment

def _blas_libraries() -> list[dict]:
    """Each loaded OpenBLAS and the thread count it reports; sets nothing."""
    with open("/proc/self/maps") as handle:
        paths = sorted({line.split()[-1] for line in handle
                        if "openblas" in line.lower() and ".so" in line})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path), "threads": None}
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                entry["threads"] = getter()
                break
        found.append(entry)
    return found


def _git_commit(root: str) -> str | None:
    """HEAD of the checkout read from .git, or None outside a git repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _src_lines(root: str) -> int:
    total = 0
    for directory, _, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(directory, name), "rb") as handle:
                    total += sum(1 for _ in handle)
    return total


def environment(root: str) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_loaded": _blas_libraries(),
        "blas_env": {key: os.environ.get(key) for key in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": _git_commit(root),
        "src_lines": _src_lines(root),
    }


# ---------------------------------------------------------------- measuring

def measure_setup(root: str, config: dict, repeats: int) -> list[float]:
    """Seconds from process start until ``setup_probe.py`` is ready, per fresh process."""
    command = [sys.executable, os.path.join(HERE, "setup_probe.py"), json.dumps(config)]
    times = []
    for _ in range(repeats):
        tic = time.perf_counter()
        with subprocess.Popen(command, cwd=root, stdout=subprocess.PIPE) as probe:
            try:
                line = probe.stdout.readline()
                elapsed = time.perf_counter() - tic
                probe.wait(timeout=120)
            except BaseException:
                probe.kill()
                raise
        if probe.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError(f"setup probe failed with exit code {probe.returncode}")
        times.append(elapsed)
    return times


def _tree_bytes(directories) -> int:
    return sum(os.path.getsize(os.path.join(d, name))
               for top in directories if os.path.isdir(top)
               for d, _, names in os.walk(top) for name in names)


def solve(cli, configs: list[dict], workdir: str, check=None, tracer=None) -> Sample:
    """One workload solve through ``cli.run_experiment``, timed, then passed
    to ``check(outputs) -> (accuracy figure, failed checks)`` unless None."""
    dirs = [os.path.join(workdir, str(i)) for i in range(len(configs))]
    for directory in dirs:
        shutil.rmtree(directory, ignore_errors=True)
    codes, error = [], None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with tracer if tracer is not None else contextlib.nullcontext():
            before = os.times()
            tic = time.perf_counter()
            try:
                for kw, directory in zip(configs, dirs):
                    codes.append(cli.run_experiment(
                        cli.ExperimentConfig(output_dir=directory, **kw)))
            except Exception:  # a raising solve is a failed solve, not a crash
                error = traceback.format_exc().strip().splitlines()[-1]
            wall = time.perf_counter() - tic
            after = os.times()
    cpu = sum(after[:4]) - sum(before[:4])
    sample = Sample(wall=wall, cpu=cpu, err=float("inf"), traced=tracer is not None,
                    export_bytes=_tree_bytes(dirs))
    if error is not None:
        sample.failures = [f"raised {error}"]
    if error is not None or check is None:
        return sample
    texts = [str(w.message) for w in caught]
    try:
        outputs = [workloads.load_output(d, code, texts) for d, code in zip(dirs, codes)]
    except (OSError, ValueError, KeyError) as exc:
        sample.failures = [f"unreadable output: {exc!r} (exit codes {codes})"]
        return sample
    sample.err, sample.failures = check(outputs)
    return sample


def run_workload(root: str, name: str, seed: int, seconds: float, traced: bool) -> dict:
    from empchaos import cli
    import empchaos
    import tracing

    configs = workloads.configs(name, seed)
    reference = workloads.load_reference(name)

    def check(outputs):
        return workloads.evaluate(name, outputs, reference)

    env = environment(root)
    print("environment " + json.dumps(env), flush=True)

    def probe(count):
        return [] if traced else measure_setup(root, configs[0], count)

    base = os.path.join(root, ".perfbench")
    workdir = os.path.join(base, f"work-{os.getpid()}")
    tracer = tracing.Tracer(empchaos) if traced else None
    samples: list[Sample] = []
    try:
        solve(cli, workloads.warmup_configs(name), workdir)
        probe(1)  # discarded: fills the bytecode and file caches
        start = time.perf_counter()
        setup = probe(PROBES_PER_SOLVE)
        laps, lap_start = [], time.perf_counter()
        while True:
            use_tracer = tracer if traced and len(samples) % 2 == 1 else None
            if use_tracer is not None:
                use_tracer.run = len(samples)
            samples.append(solve(cli, configs, workdir, check, use_tracer))
            setup += probe(PROBES_PER_SOLVE)
            now = time.perf_counter()
            laps.append(now - lap_start)
            lap_start = now
            if len(samples) >= MIN_SOLVES and now - start + statistics.median(laps) > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = failure_counts(samples)
    finite = [s.err for s in samples if s.err != float("inf")]
    if traced:
        plain = [s for s in samples if not s.traced]
        traced_samples = [s for s in samples if s.traced]
        metrics = tracing.layer_metrics(tracer.spans, len(traced_samples))
        metrics["cli.export_bytes"] = statistics.median(s.export_bytes for s in traced_samples)
        metrics["trace.overhead_s"] = (statistics.median(s.wall for s in traced_samples)
                                       - statistics.median(s.wall for s in plain))
    else:
        metrics = {
            "solve_s": statistics.median(s.wall for s in samples),
            "cpu_s": statistics.median(s.cpu for s in samples),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "stat_err": max(finite, default=0.0),
        }

    os.makedirs(base, exist_ok=True)
    stem = os.path.join(base, f"{name}-seed{seed}-trace{int(traced)}")
    with open(stem + ".json", "w") as handle:
        json.dump({"workload": name, "seed": seed, "seconds": seconds,
                   "environment": env, "setup_s": setup, "metrics": metrics,
                   "samples": [asdict(s) for s in samples]}, handle, indent=1,
                  default=str)
    if traced:
        with open(stem + "-spans.json", "w") as handle:
            json.dump({"fields": tracing.Span.__slots__,
                       "spans": [span.as_list() for span in tracer.spans]}, handle)

    stat_name = "max_stderr" if name == "ar-montecarlo" else "max_err"
    print(f"{name} (seed {seed}, trace {int(traced)}): {attempted} solves, {failed} failed")
    for sample in samples:
        for failure in sample.failures:
            print(f"  FAILED: {failure}")
    for metric, value in metrics.items():
        alias = f"  ({stat_name})" if metric == "stat_err" else ""
        print(f"  {metric:<40} {value:>16.6g} {unit_of(metric)}{alias}")
    print(f"  {'failed_frac':<40} {failed / attempted:>16.6g} 1  ({failed} of {attempted})")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {m: {"value": v, "unit": unit_of(m)} for m, v in metrics.items()}}


def run_all(args) -> int:
    """Every workload, each in a fresh process so peak memory stays its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if child.returncode != 0 or not lines:
            return child.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{metric}": value
                                    for metric, value in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "empchaos", "__init__.py")):
        print(f"perfbench: {src}/empchaos not found; run from the repository root",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, src)
    result = run_workload(root, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
