"""Regenerate the stored Monte Carlo references of the advection-reaction workloads.

Run from the repository root:

    python3 perfbench/make_reference.py [ar-empirical] [ar-montecarlo]

Each reference is E[u(0,t)^2] and its standard error on the workload's output
time grid, from 10,000 samples with seed 0, computed by
``montecarlo.mc_statistics``. The output grid is read from the
``mean_square.csv`` that the workload's own solve writes. The file records its
provenance: the configuration, the seed and the library versions. The
``ar-empirical`` reference takes a few minutes and about 110 MB of memory.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import sys
import tempfile

import numpy as np

import workloads

SEED = 0
SAMPLE_COUNT = 10_000
# the chunk size only changes the summation order of the moment sums; 1,000
# bounds the (times, chunk, grid) block at about 100 MB for ar-empirical
CHUNK_SIZE = 1_000


def make(name: str) -> None:
    import scipy
    from empchaos import cli, montecarlo, pde_core

    (kw,) = workloads.configs(name, SEED)
    out = tempfile.mkdtemp(prefix="reference-", dir=os.getcwd())
    try:
        if cli.run_experiment(cli.ExperimentConfig(output_dir=out, **kw)) != 0:
            raise SystemExit(f"{name}: the workload solve failed")
        times = workloads.load_output(out, 0).times
    finally:
        shutil.rmtree(out)

    if kw["problem"] != "advection-reaction":
        raise SystemExit(f"{name}: only the advection-reaction workloads have a stored reference")
    problem = pde_core.advection_reaction_problem()
    window = pde_core.TimeWindow(0.0, kw["t_final"], tuple(times))
    result = montecarlo.mc_statistics(montecarlo.McConfig(
        problem=problem, grid=pde_core.SpatialGrid(kw["grid_size"]), window=window,
        sample_count=SAMPLE_COUNT, seed=SEED, chunk_size=CHUNK_SIZE))
    t, mean_square, stderr = result.series(0, "mean_square")
    payload = {
        "config": {"problem": kw["problem"], "grid_size": kw["grid_size"],
                   "t_final": kw["t_final"], "x_index": 0},
        "provenance": {
            "function": "empchaos.montecarlo.mc_statistics",
            "sample_count": SAMPLE_COUNT, "seed": SEED, "chunk_size": CHUNK_SIZE,
            "step": "default", "diverged_count": result.diverged_count,
            "numpy": np.__version__, "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
        "times": t.tolist(),
        "mean_square": mean_square.tolist(),
        "stderr": stderr.tolist(),
    }
    with open(workloads.reference_path(name), "w") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")
    print(f"{name}: wrote {workloads.reference_path(name)}")


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    for workload in sys.argv[1:] or ["ar-empirical", "ar-montecarlo"]:
        make(workload)
