import numpy as np
import pytest

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
    wave_exact_mean_square,
)
from empchaos.random_space import expectation, gauss_legendre_rule, legendre_table


def project_exact_wave(order, t, rule=None):
    """Mean square expectation at x = 0 of the exact wave solution projected
    onto the first ``order`` normalized Legendre polynomials."""
    if rule is None:
        rule = default_rule()
    table = legendre_table(order, rule.nodes)
    exact = np.cos(rule.nodes * t)
    coeffs = np.array([expectation(exact * table[:, i], rule) for i in range(order)])
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
        mse = mean_square_series(coefficients)
        exact = wave_exact_mean_square(np.asarray(window.output_times))
        np.testing.assert_allclose(mse, exact, atol=1e-3)

    def test_energy_conservation(self, wave):
        grid = SpatialGrid(128)
        window = TimeWindow(0.0, 10.0)
        coefficients = solve_gpc(wave, 12, grid, window, 1e-3)
        energy = grid.spacing * np.sum(coefficients**2, axis=(1, 2))
        assert abs(energy[-1] - energy[0]) / energy[0] < 1e-6

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
        np.testing.assert_array_equal(mean_series(coefficients, 5),
                                      coefficients[:, 0, 5])


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
