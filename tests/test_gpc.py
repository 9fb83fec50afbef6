import numpy as np
import pytest

from empchaos import gpc
from empchaos.gpc import (
    default_rule,
    legendre_advection_matrix,
    mean_series,
    mean_square_series,
    solve_gpc,
)
from empchaos.pde_core import (
    SpatialGrid,
    TimeWindow,
    spatial_derivative,
    wave_exact_mean_square,
)
from empchaos.random_space import gauss_legendre_rule, legendre_table


def project_exact_wave(order, t, rule=None):
    """Mean square expectation at x = 0 of the exact wave solution projected
    onto the first ``order`` normalized Legendre polynomials."""
    if rule is None:
        rule = default_rule()
    table = legendre_table(order, rule.nodes)
    exact = np.cos(rule.nodes * t)
    coeffs = np.array([rule.weights @ (exact * table[:, i]) for i in range(order)])
    return float(np.sum(coeffs**2))


class TestAdvectionMatrix:
    def test_order_one_is_zero(self):
        np.testing.assert_allclose(legendre_advection_matrix(1), [[0.0]], atol=1e-14)

    def test_first_offdiagonal_entry(self):
        a = legendre_advection_matrix(3)
        assert a[0, 1] == pytest.approx(1 / np.sqrt(3), abs=1e-8)

    def test_second_offdiagonal_entry(self):
        a = legendre_advection_matrix(3)
        assert a[1, 2] == pytest.approx(2 / np.sqrt(15), abs=1e-8)

    def test_tridiagonal_symmetric_zero_diagonal(self):
        a = legendre_advection_matrix(12)
        np.testing.assert_allclose(a, a.T, atol=1e-12)
        np.testing.assert_allclose(np.diag(a), 0.0, atol=1e-12)
        off_band = a - np.diag(np.diag(a, 1), 1) - np.diag(np.diag(a, -1), -1)
        np.testing.assert_allclose(off_band, 0.0, atol=1e-12)

    def test_recurrence_identity(self):
        # E[xi L_n L_{n+1}] = (n+1) / sqrt((2n+1)(2n+3))
        a = legendre_advection_matrix(10)
        for n in range(9):
            expected = (n + 1) / np.sqrt((2 * n + 1) * (2 * n + 3))
            assert a[n, n + 1] == pytest.approx(expected, abs=1e-13)

    def test_rejects_zero_order(self):
        with pytest.raises(ValueError):
            legendre_advection_matrix(0)


class TestSolveGpc:
    def test_order_one_is_frozen(self, wave):
        grid = SpatialGrid(64)
        window = TimeWindow.with_uniform_outputs(0.0, 2.0, 5)
        coefficients = solve_gpc(wave, 1, grid, window, 1e-2)
        np.testing.assert_allclose(coefficients[-1, 0],
                                   np.cos(grid.points), atol=1e-12)

    def test_deterministic_ic_in_mode_zero(self, wave):
        grid = SpatialGrid(64)
        window = TimeWindow.with_uniform_outputs(0.0, 1.0, 3)
        coefficients = solve_gpc(wave, 6, grid, window, 1e-2)
        np.testing.assert_allclose(coefficients[0, 0], np.cos(grid.points))
        np.testing.assert_allclose(coefficients[0, 1:], 0.0)

    def test_short_horizon_accuracy(self, wave):
        grid = SpatialGrid(128)
        window = TimeWindow.with_uniform_outputs(0.0, 5.0, 26)
        coefficients = solve_gpc(wave, 12, grid, window, 1e-2)
        mse = mean_square_series(coefficients[:, :, 0])
        exact = wave_exact_mean_square(np.asarray(window.output_times))
        np.testing.assert_allclose(mse, exact, atol=1e-3)

    def test_energy_conservation(self, wave):
        grid = SpatialGrid(128)
        window = TimeWindow(0.0, 10.0)
        coefficients = solve_gpc(wave, 12, grid, window, 1e-3)
        energy = grid.spacing * np.sum(coefficients**2, axis=(1, 2))
        assert abs(energy[-1] - energy[0]) / energy[0] < 1e-6

    def test_cfl_checked_at_the_coupling_eigenvalues_before_the_march(self, wave,
                                                                         monkeypatch):
        def no_march(*args):
            raise AssertionError("marched")
        monkeypatch.setattr(gpc, "integrate_ode", no_march)
        # order 12's largest Gauss-Legendre node, 0.981, at a step of 0.1 on
        # 256 points: CFL 4.0
        with pytest.raises(ValueError, match="CFL number 3.999"):
            solve_gpc(wave, 12, SpatialGrid(256), TimeWindow(0.0, 1.0), 0.1)
        # one step of 0.11 on 32 points is CFL 0.560 at speed 1, but 0.482 at
        # order 4's largest node, 0.861: within the bound, so it is marched
        with pytest.raises(AssertionError, match="marched"):
            solve_gpc(wave, 4, SpatialGrid(32), TimeWindow(0.0, 0.11), 0.11)

    def test_warns_above_stable_order(self, wave):
        grid = SpatialGrid(16)
        with pytest.warns(RuntimeWarning):
            solve_gpc(wave, 41, grid, TimeWindow(0.0, 0.1), 1e-2)

    def test_reaction_nonlinearity(self, advection_reaction):
        # with no advection sensitivity at order 1 the constant mode follows
        # the scalar reaction ODE projected onto the constant polynomial;
        # check against a short fixed-sample reference at xi = 0
        grid = SpatialGrid(64)
        window = TimeWindow.with_uniform_outputs(0.0, 1.0, 3)
        coefficients = solve_gpc(advection_reaction, 1, grid, window, 1e-3)
        u0 = advection_reaction.initial_condition(grid.points)
        expected = (np.sqrt(u0) + 0.05 * 1.0) ** 2
        np.testing.assert_allclose(coefficients[-1, 0], expected, atol=1e-6)

    def test_mean_series_is_mode_zero(self, wave):
        grid = SpatialGrid(32)
        window = TimeWindow.with_uniform_outputs(0.0, 1.0, 3)
        coefficients = solve_gpc(wave, 4, grid, window, 1e-2)
        np.testing.assert_array_equal(mean_series(coefficients[:, :, 5]),
                                      coefficients[:, 0, 5])

    @pytest.mark.parametrize("problem", ["wave", "advection_reaction"])
    def test_record_receives_every_output_in_order(self, problem, request):
        problem = request.getfixturevalue(problem)
        grid = SpatialGrid(32)
        window = TimeWindow.with_uniform_outputs(0.0, 1.0, 5)
        coefficients = solve_gpc(problem, 4, grid, window, 1e-2)
        received = []
        assert solve_gpc(problem, 4, grid, window, 1e-2,
                         record=lambda j, first, rows: received.append((j, first, rows.copy()))
                         ) is None
        assert [(j, first) for j, first, _ in received] == [(j, 0) for j in range(5)]
        np.testing.assert_array_equal([rows for _, _, rows in received], coefficients)


def textbook_gpc(problem, order, grid, window, step, rule):
    """Classical RK4 on the gPC system, written out independently of the
    solver: c' = A D(c) + L^T W reaction(L c), with A the Legendre coupling,
    D the central difference and L the Legendre table at the rule's nodes,
    over outputs evenly spaced by a whole number of steps."""
    advection = legendre_advection_matrix(order)
    table = legendre_table(order, rule.nodes)

    def rhs(c):
        return (advection @ spatial_derivative(c, grid)
                + table.T @ (rule.weights[:, None] * problem.reaction(table @ c)))

    times = np.asarray(window.output_times)
    per_output = int(round((times[1] - times[0]) / step))
    c = np.zeros((order, grid.point_count))
    c[0] = problem.initial_condition(grid.points)
    states = [c]
    for _ in times[1:]:
        for _ in range(per_output):
            k1 = rhs(c)
            k2 = rhs(c + 0.5 * step * k1)
            k3 = rhs(c + 0.5 * step * k2)
            k4 = rhs(c + step * k3)
            c = c + step / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(c)
    return np.array(states)


class TestTextbookOracle:
    # the solver folds 1/(2h) into its operator and sums both terms in one
    # matmul, so it matches the textbook arithmetic to roundoff, not bit for bit
    @pytest.mark.parametrize("problem_name, order, t_final", [
        ("wave", 12, 2.0), ("advection_reaction", 6, 1.0)])
    def test_matches_textbook_rk4(self, request, problem_name, order, t_final):
        problem = request.getfixturevalue(problem_name)
        grid, rule = SpatialGrid(64), default_rule(60)
        window = TimeWindow.with_uniform_outputs(0.0, t_final, 5)
        solved = solve_gpc(problem, order, grid, window, 1e-2, rule)
        expected = textbook_gpc(problem, order, grid, window, 1e-2, rule)
        np.testing.assert_allclose(solved, expected, rtol=0,
                                   atol=1e-13 * np.max(np.abs(expected)))


class TestProjectExactWave:
    def test_projects_constant_exactly(self):
        rule = gauss_legendre_rule(64)
        assert project_exact_wave(1, 0.0, rule=rule) == pytest.approx(1.0, abs=1e-12)
        assert project_exact_wave(7, 0.0, rule=rule) == pytest.approx(1.0, abs=1e-12)
        # the default trapezoid rule is only second-order accurate
        assert project_exact_wave(7, 0.0) == pytest.approx(1.0, abs=1e-7)

    def test_converges_to_exact_statistic(self):
        t = 3.0
        result = project_exact_wave(30, t, rule=gauss_legendre_rule(64))
        assert result == pytest.approx(wave_exact_mean_square(t), abs=1e-6)
        coarse = project_exact_wave(30, t, rule=default_rule(600))
        assert coarse == pytest.approx(wave_exact_mean_square(t), abs=1e-5)

    def test_accuracy_degrades_with_horizon(self):
        order = 8
        errors = [abs(project_exact_wave(order, t) - wave_exact_mean_square(t))
                  for t in (2.0, 10.0, 30.0)]
        assert errors[0] < errors[1] < errors[2]
