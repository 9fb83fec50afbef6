"""Acceptance gate: one test and one pass/fail line per criterion.

Each test prints ``CRITERION n: PASS|FAIL — detail`` so the suite output reads
as a checklist (run with ``-s`` or rely on the verbose test-name lines).
"""

import warnings

import numpy as np

from empchaos import cli, driver, gpc
from empchaos.basis_evolution import spatial_pair
from empchaos.galerkin import (
    assemble_matrices,
    project_node_values,
    propagate_window,
)
from empchaos.montecarlo import McConfig, mc_statistics
from empchaos.pde_core import (
    SpatialGrid,
    TimeWindow,
    solve_ensemble,
    wave_exact_mean_square,
    wave_problem,
    advection_reaction_problem,
)
from empchaos.pod import BasisSet, assemble_trajectory_matrix, projection_residual, truncate_pod
from empchaos.random_space import (
    chebyshev_nodes,
    gauss_legendre_rule,
    legendre_table,
    trapezoid_rule,
)


def report(number: int, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    line = f"CRITERION {number}: {verdict} — {detail}"
    print(line)
    assert passed, line


def empirical_run(problem, grid_size, node_count, window_length, t_final,
                  schedule=driver.always_resample, step=None,
                  outputs_per_window=11):
    config = driver.EmpiricalConfig(
        problem=problem, grid=SpatialGrid(grid_size),
        rule=trapezoid_rule(chebyshev_nodes(node_count)),
        window_length=window_length, t_final=t_final, step=step,
        outputs_per_window=outputs_per_window, schedule=schedule)
    return driver.run_schedule(config)


def test_criterion_1_wave_exact_statistic_reproduction():
    archive, _ = empirical_run(wave_problem(), 128, 120, 1.0, 50.0)
    times, values = archive.statistic_series(0)
    error = float(np.max(np.abs(values - wave_exact_mean_square(times))))
    max_basis = int(np.max(archive.basis_counts()))
    report(1, error <= 1e-2 and max_basis <= 9,
           f"wave empirical max-abs error {error:.3g} (tol 1e-2) over [0, 50], "
           f"max basis count {max_basis} (limit 9)")


def test_criterion_2_gpc_failure_success_contrast():
    grid = SpatialGrid(128)
    problem = wave_problem()
    window_50 = TimeWindow.with_uniform_outputs(0.0, 50.0, 251)
    low = gpc.solve_gpc(problem, 10, grid, window_50, 1e-2)
    err_low = float(np.max(np.abs(
        gpc.mean_square_series(low)
        - wave_exact_mean_square(np.asarray(window_50.output_times)))))
    window_25 = TimeWindow.with_uniform_outputs(0.0, 25.0, 126)
    high = gpc.solve_gpc(problem, 40, grid, window_25, 1e-2)
    err_high = float(np.max(np.abs(
        gpc.mean_square_series(high)
        - wave_exact_mean_square(np.asarray(window_25.output_times)))))
    report(2, err_low > 0.1 and err_high <= 1e-2,
           f"order-10 gPC error {err_low:.3g} on [0, 50] (must exceed 0.1); "
           f"order-40 error {err_high:.3g} on [0, 25] (tol 1e-2)")


def test_criterion_3_eckart_young_property():
    grid = SpatialGrid(128)
    problem = wave_problem()
    rule = trapezoid_rule(chebyshev_nodes(120))
    u_nodes = np.broadcast_to(np.cos(grid.points), (len(rule), 128)).copy()
    worst = 0.0
    for start in range(10):
        window = TimeWindow.with_uniform_outputs(float(start), float(start + 1), 11)
        states = solve_ensemble(problem, rule.nodes, u_nodes, window, grid)
        matrix = assemble_trajectory_matrix(states.transpose(1, 0, 2))
        basis = truncate_pod(matrix, 1e-4, rule)
        residual = projection_residual(matrix, basis)
        expected = float(np.sqrt(np.sum(basis.singular_values[basis.size:] ** 2)))
        scale = float(basis.singular_values[0])
        worst = max(worst, abs(residual - expected) / scale)
        u_nodes = states[-1]
    report(3, worst <= 1e-8,
           f"residual matches discarded singular values over 10 windows, "
           f"worst relative deviation {worst:.3g} (tol 1e-8)")


def test_criterion_4_cross_path_equivalence():
    order = 8
    grid = SpatialGrid(64)
    problem = wave_problem()
    window = TimeWindow.with_uniform_outputs(0.0, 1.0, 2)
    step = 1e-2
    rule = gauss_legendre_rule(16)
    basis = BasisSet(values=legendre_table(order, rule.nodes), rule=rule)
    matrices = assemble_matrices(basis)
    u0 = np.broadcast_to(problem.initial_condition(grid.points),
                         (len(rule), grid.point_count))
    field = project_node_values(u0, basis, matrices)
    states = propagate_window(problem, field, basis, window, grid, step, matrices)
    legendre = gpc.solve_gpc(problem, order, grid, window, step)
    deviation = float(np.max(np.abs(states[-1] - legendre[-1])))
    report(4, deviation <= 1e-10,
           f"general-basis Galerkin vs dedicated gPC coefficients at t = 1 "
           f"differ by {deviation:.3g} (tol 1e-10)")


def _advection_reaction_comparison(grid_size, t_final, step, sigma_limit):
    problem = advection_reaction_problem()
    archive, _ = empirical_run(problem, grid_size, 300, 2.0, t_final, step=step)
    max_basis = int(np.max(archive.basis_counts()))
    times, values = archive.statistic_series(0)
    window = TimeWindow(0.0, t_final, tuple(times))
    # ten chunks: the units of work shared by the worker processes, merged
    # in chunk order
    mc = mc_statistics(McConfig(problem=problem, grid=SpatialGrid(grid_size),
                                window=window, sample_count=10_000, seed=0,
                                step=step, chunk_size=1_000))
    _, reference, stderr = mc.series(0, "mean_square")
    # the t = 0 statistic is deterministic (both sides equal E[u0^2] exactly)
    assert abs(values[0] - reference[0]) < 1e-8
    sigmas = float(np.max(np.abs(values[1:] - reference[1:]) / stderr[1:]))
    return sigmas, max_basis, sigmas <= sigma_limit and max_basis <= 33


def test_criterion_5a_advection_reaction_vs_mc_smoke():
    sigmas, max_basis, ok = _advection_reaction_comparison(256, 10.0, None, 3.0)
    report(5, ok,
           f"smoke [0, 10]: empirical within {sigmas:.2f} MC standard errors "
           f"(limit 3), max basis count {max_basis} (limit 33)")


def test_criterion_5b_advection_reaction_vs_mc_long_horizon():
    sigmas, max_basis, ok = _advection_reaction_comparison(128, 100.0, 0.02, 5.0)
    report(5, ok,
           f"full [0, 100] at grid 128: empirical within {sigmas:.2f} MC "
           f"standard errors (limit 5), max basis count {max_basis} (limit 33)")


def test_criterion_6_basis_evolution_windows():
    problem = wave_problem()

    def error_series(schedule, t_final):
        archive, _ = empirical_run(problem, 128, 120, 1.0, t_final,
                                   schedule=schedule)
        times, values = archive.statistic_series(0)
        return np.asarray(times), np.abs(values - wave_exact_mean_square(times))

    evolve_only = lambda i: driver.RESAMPLE if i == 0 else driver.EVOLVE
    times, err = error_series(evolve_only, 10.0)
    evolve_early = float(np.max(err[times <= 4.0 + 1e-9]))
    evolve_late = float(np.max(err))
    hold_only = lambda i: driver.RESAMPLE if i == 0 else driver.HOLD
    h_times, h_err = error_series(hold_only, 10.0)
    hold_late = float(np.max(h_err))
    a_times, a_err = error_series(driver.alternating_schedule, 50.0)
    alt_err = float(np.max(a_err))
    report(6, (evolve_early <= 5e-2 and evolve_late > 5e-2
               and hold_late > 0.1 and alt_err <= 1e-2),
           f"evolved basis error {evolve_early:.3g} through t = 4 (tol 5e-2), "
           f"{evolve_late:.3g} by t = 10 (must exceed 5e-2); frozen basis "
           f"error {hold_late:.3g} (must exceed 0.1); alternating schedule "
           f"error {alt_err:.3g} through t = 50 (tol 1e-2)")


def test_criterion_7_linear_time_scaling_and_crossover():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        wave_config = cli.ExperimentConfig(problem="wave", grid_size=128,
                                           node_count=120)
        # order grows with the horizon; a factor of 2 keeps the coefficient
        # coupling (rather than fixed per-step overhead) dominating the timing
        wave_report = cli.run_scaling_study(wave_config, [10.0, 20.0, 40.0, 80.0],
                                            order_factor=2.0)
        ar_config = cli.ExperimentConfig(problem="advection-reaction",
                                         grid_size=256, node_count=100,
                                         outputs_per_window=6, step=1e-2)
        ar_report = cli.run_scaling_study(ar_config, [8.0, 24.0, 96.0])
    r_squared = wave_report["empirical_fit"]["r_squared"]
    exponent = wave_report["gpc_fit"]["exponent"]
    crossover = ar_report["crossover_exists"]
    report(7, r_squared >= 0.98 and exponent > 1.3 and crossover,
           f"empirical wall time vs horizon linear fit R^2 = {r_squared:.4f} "
           f"(need >= 0.98); gPC growth exponent {exponent:.2f} (need > 1.3); "
           f"advection-reaction wall-clock crossover exists: {crossover}")


def test_criterion_8_invariant_suite():
    checks = []

    rule = trapezoid_rule(chebyshev_nodes(120))
    checks.append(("quadrature partition of unity",
                   abs(float(np.sum(rule.weights)) - 1.0) < 1e-12))

    grid = SpatialGrid(128)
    problem = wave_problem()
    window = TimeWindow.with_uniform_outputs(0.0, 1.0, 11)
    states = solve_ensemble(problem, rule.nodes, np.cos(grid.points), window, grid)
    basis = truncate_pod(assemble_trajectory_matrix(states.transpose(1, 0, 2)), 1e-4, rule)
    mass = assemble_matrices(basis).mass
    sym = bool(np.allclose(mass, mass.T, atol=1e-12))
    psd = bool(np.min(np.linalg.eigvalsh(mass)) > -1e-12)
    checks.append(("mass matrix symmetric and positive semidefinite", sym and psd))

    u = solve_ensemble(problem, [1.0], np.cos(grid.points),
                       TimeWindow.with_uniform_outputs(0.0, 10.0, 2), grid)[:, 0]
    energy = grid.spacing * np.sum(u**2, axis=1)
    checks.append(("wave energy drift <= 1e-6 relative to t = 10",
                   abs(energy[-1] - energy[0]) / energy[0] <= 1e-6))

    funcs = np.random.default_rng(0).normal(size=(basis.size, 128))
    pair = spatial_pair(funcs, grid)
    checks.append(("spatial advection matrix antisymmetric <= 1e-10",
                   bool(np.max(np.abs(pair.advect + pair.advect.T)) <= 1e-10)))

    from empchaos.basis_evolution import evolve_basis
    two = evolve_basis(evolve_basis(basis, pair, 0.04), pair, 0.06)
    one = evolve_basis(basis, pair, 0.1)
    checks.append(("matrix-exponential semigroup property <= 1e-8",
                   bool(np.max(np.abs(two.values - one.values)) <= 1e-8)))

    mc_config = McConfig(problem=problem, grid=SpatialGrid(64),
                         window=TimeWindow.with_uniform_outputs(0.0, 1.0, 3),
                         sample_count=500, seed=21)
    a = mc_statistics(mc_config)
    b = mc_statistics(mc_config)
    checks.append(("Monte Carlo reruns bit-identical",
                   bool(np.array_equal(a.mean_square, b.mean_square))))

    failed = [name for name, ok in checks if not ok]
    report(8, not failed,
           "all invariants hold" if not failed
           else f"failed invariants: {', '.join(failed)}")
