"""Wave-equation benchmark: empirical chaos vs gPC vs the exact statistics.

Runs the empirical expansion with the standard setup (120 Chebyshev nodes,
unit windows, threshold 1e-4) out to t_final, runs low- and high-order gPC on
the same grid, and reports max-abs errors of E[u(0,t)^2] against the closed
form. Artifacts go to the output directory as plot-ready CSVs.
"""

import argparse
import os
import sys

import numpy as np

from empchaos import cli, driver, gpc, pde_core, random_space


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--t-final", type=float, default=50.0)
    parser.add_argument("--grid-size", type=int, default=256)
    parser.add_argument("--node-count", type=int, default=120)
    parser.add_argument("--orders", type=int, nargs="+", default=[10, 40])
    parser.add_argument("--output-dir", default="results/wave")
    args = parser.parse_args()

    problem = pde_core.wave_problem()
    grid = pde_core.SpatialGrid(args.grid_size)
    rule = random_space.trapezoid_rule(random_space.chebyshev_nodes(args.node_count))
    os.makedirs(args.output_dir, exist_ok=True)

    config = driver.EmpiricalConfig(
        problem=problem, grid=grid, rule=rule,
        window_length=1.0, t_final=args.t_final, threshold=1e-4,
    )
    archive, timings = driver.run_schedule(config)
    times, ms = archive.statistic_series(0)
    exact = pde_core.wave_exact_mean_square(times)
    cli.write_series(os.path.join(args.output_dir, "empirical_mean_square.csv"),
                     times, ms)
    cli.write_series(os.path.join(args.output_dir, "exact_mean_square.csv"),
                     times, exact)
    counts = archive.basis_counts()
    print(f"empirical: max |E[u^2] - exact| = {np.max(np.abs(ms - exact)):.3e}, "
          f"basis counts {counts.min()}..{counts.max()}, "
          f"{timings.total:.2f} s")

    step = pde_core.default_step(grid)
    window = pde_core.TimeWindow(0.0, args.t_final, tuple(times))
    for order in args.orders:
        system = gpc.solve_gpc(problem, order, grid, window, step, rule,
                               order_cap=max(gpc.ORDER_CAP, order))
        series = gpc.mean_square_series(system)
        cli.write_series(
            os.path.join(args.output_dir, f"gpc_order{order}_mean_square.csv"),
            times, series)
        print(f"gpc order {order:3d}: max error {np.max(np.abs(series - exact)):.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
