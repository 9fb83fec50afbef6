"""Advection-reaction benchmark: empirical chaos vs seeded Monte Carlo.

The problem u_t = xi*u_x + 0.1*sqrt(|u|) has no closed-form statistics, so the
empirical expansion (300 Chebyshev nodes, windows of length 2) is checked
against a Monte Carlo reference with standard-error bars.
"""

import argparse
import os
import sys

import numpy as np

from empchaos import cli, driver, montecarlo, pde_core, random_space


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--t-final", type=float, default=10.0)
    parser.add_argument("--grid-size", type=int, default=256)
    parser.add_argument("--node-count", type=int, default=300)
    parser.add_argument("--samples", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output-dir", default="results/advection_reaction")
    args = parser.parse_args()

    problem = pde_core.advection_reaction_problem()
    grid = pde_core.SpatialGrid(args.grid_size)
    rule = random_space.trapezoid_rule(random_space.chebyshev_nodes(args.node_count))
    try:
        cli._make_output_dir(args.output_dir)
    except cli.ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    config = driver.EmpiricalConfig(
        problem=problem, grid=grid, rule=rule,
        window_length=2.0, t_final=args.t_final, threshold=1e-4,
    )
    archive, timings = driver.run_schedule(config)
    times, ms = archive.statistic_series(0)
    cli.write_series(os.path.join(args.output_dir, "empirical_mean_square.csv"),
                     times, ms)
    print(f"empirical: {timings.total:.2f} s, "
          f"basis counts up to {archive.basis_counts().max()}")

    mc_config = montecarlo.McConfig(
        problem=problem, grid=grid,
        window=pde_core.TimeWindow(0.0, args.t_final, tuple(times)),
        sample_count=args.samples, seed=args.seed,
    )
    result = montecarlo.mc_statistics(mc_config)
    t, mc_ms, stderr = result.series(0)
    cli.write_series(os.path.join(args.output_dir, "mc_mean_square.csv"),
                     t, mc_ms, stderr)

    gap = np.abs(ms - mc_ms)
    # the t = 0 statistic is deterministic: both sides equal E[u0^2] and the
    # standard error is 0, so that gap is checked on its own
    sigmas = gap[1:] / stderr[1:]
    initial_ok = gap[0] <= 1e-8
    print(f"mc ({result.sample_count} samples): max |emp - mc| = {gap.max():.3e} "
          f"({sigmas.max():.2f} standard errors after t = 0); "
          f"t = 0 gap {gap[0]:.3e} (tol 1e-8): {'ok' if initial_ok else 'FAIL'}")
    return 0 if initial_ok else 1


if __name__ == "__main__":
    sys.exit(main())
