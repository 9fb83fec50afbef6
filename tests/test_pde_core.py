import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from empchaos import pde_core
from empchaos.basis_evolution import evolve_basis, spatial_pair
from empchaos.galerkin import (
    assemble_matrices,
    project_node_values,
    propagate_window,
)
from empchaos.pde_core import (
    IntegrationDiverged,
    PdeProblem,
    SpatialGrid,
    TimeWindow,
    default_step,
    integrate_advection,
    integrate_ode,
    integrate_reaction,
    solve_ensemble,
    spatial_derivative,
    wave_exact_mean,
    wave_exact_mean_square,
)
from empchaos.pod import truncate_pod


class TestSpatialGrid:
    def test_points_and_spacing(self):
        grid = SpatialGrid(4)
        np.testing.assert_allclose(grid.points, [0, np.pi / 2, np.pi, 3 * np.pi / 2])
        assert grid.spacing == pytest.approx(np.pi / 2)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            SpatialGrid(2)


class TestTimeWindow:
    def test_defaults_to_endpoints(self):
        window = TimeWindow(0.0, 2.0)
        assert window.output_times == (0.0, 2.0)
        assert window.length == 2.0

    def test_uniform_outputs(self):
        window = TimeWindow.with_uniform_outputs(1.0, 2.0, 5)
        np.testing.assert_allclose(window.output_times, [1.0, 1.25, 1.5, 1.75, 2.0])

    def test_rejects_reversed_window(self):
        with pytest.raises(ValueError):
            TimeWindow(2.0, 1.0)

    def test_rejects_outputs_outside_window(self):
        with pytest.raises(ValueError):
            TimeWindow(0.0, 1.0, (0.0, 1.5))

    def test_rejects_unsorted_outputs(self):
        with pytest.raises(ValueError):
            TimeWindow(0.0, 1.0, (0.5, 0.25))


class TestSpatialDerivative:
    def test_constant_gives_zero(self):
        grid = SpatialGrid(32)
        np.testing.assert_allclose(spatial_derivative(np.ones(32), grid), 0.0)

    def test_sine_derivative(self):
        grid = SpatialGrid(256)
        approx = spatial_derivative(np.sin(grid.points), grid)
        np.testing.assert_allclose(approx, np.cos(grid.points), atol=1e-3)

    def test_cosine_derivative(self):
        grid = SpatialGrid(256)
        approx = spatial_derivative(np.cos(grid.points), grid)
        np.testing.assert_allclose(approx, -np.sin(grid.points), atol=1e-3)

    def test_second_order_convergence(self):
        errors = []
        for m in (64, 128, 256):
            grid = SpatialGrid(m)
            twice = spatial_derivative(spatial_derivative(np.sin(grid.points), grid), grid)
            errors.append(np.max(np.abs(twice + np.sin(grid.points))))
        rates = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        np.testing.assert_allclose(rates, 2.0, atol=0.2)

    def test_stacked_rows(self):
        grid = SpatialGrid(64)
        stacked = np.vstack([np.sin(grid.points), np.cos(grid.points)])
        result = spatial_derivative(stacked, grid)
        np.testing.assert_allclose(result[0], spatial_derivative(stacked[0], grid))
        np.testing.assert_allclose(result[1], spatial_derivative(stacked[1], grid))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            spatial_derivative(np.ones(10), SpatialGrid(32))


def textbook_rk4(rhs, initial, window, step):
    """The plain, allocating classical RK4 that ``integrate_ode`` runs in
    place: the reference march, for an autonomous ``rhs(u)`` that returns
    du/dt, on the step plan of ``integrate_ode``."""
    state = np.array(initial, dtype=float)
    actual, n_steps, outputs = pde_core._plan_steps(window, step)
    out = np.empty((len(window.output_times),) + state.shape)
    if 0 in outputs:
        out[outputs[0]] = state
    for k in range(1, n_steps + 1):
        k1 = rhs(state)
        k2 = rhs(state + 0.5 * actual * k1)
        k3 = rhs(state + 0.5 * actual * k2)
        k4 = rhs(state + actual * k3)
        state = state + (actual / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(state)):
            raise IntegrationDiverged(window.start + k * actual)
        if k in outputs:
            out[outputs[k]] = state
    return out


def in_place(rhs):
    """The in-place ``rhs(u, out)`` form of an allocating ``rhs(u)``."""
    return lambda u, out: np.copyto(out, rhs(u))


class TestIntegrateOde:
    def test_zero_rhs_constant(self):
        window = TimeWindow.with_uniform_outputs(0.0, 1.0, 5)
        states = integrate_ode(lambda u, out: np.multiply(u, 0.0, out=out),
                               np.array([3.0]), window, 0.05)
        np.testing.assert_allclose(states, 3.0)

    def test_exponential_growth(self):
        window = TimeWindow(0.0, 1.0)
        states = integrate_ode(lambda u, out: np.copyto(out, u), np.array([1.0]),
                               window, 1e-3)
        assert states[-1, 0] == pytest.approx(np.e, abs=1e-10)

    def test_square_root_reaction_closed_form(self):
        # u' = 0.1*sqrt(u) with u(0) = c has solution (sqrt(c) + 0.05 t)^2
        c = 2.5
        window = TimeWindow(0.0, 2.0)
        states = integrate_ode(lambda u, out: np.multiply(np.sqrt(u), 0.1, out=out),
                               np.array([c]), window, 1e-3)
        assert states[-1, 0] == pytest.approx((np.sqrt(c) + 0.05 * 2.0) ** 2, abs=1e-8)

    def test_divergence_reports_time(self):
        # u' = u^3 from u(0)=1 blows up at t = 0.5
        window = TimeWindow(0.0, 1.0)
        with pytest.raises(IntegrationDiverged) as info, np.errstate(over="ignore"):
            integrate_ode(lambda u, out: np.power(u, 3, out=out), np.array([1.0]),
                          window, 1e-3)
        assert 0.0 < info.value.time <= 1.0

    def test_output_time_off_step_boundary(self):
        window = TimeWindow(0.0, 1.0, (0.0, 0.333, 1.0))
        with pytest.raises(ValueError):
            integrate_ode(lambda u, out: np.multiply(u, 0.0, out=out),
                          np.array([1.0]), window, 0.25)

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            integrate_ode(lambda u, out: np.copyto(out, u), np.array([1.0]),
                          TimeWindow(0.0, 1.0), 0.0)

    def test_outputs_sharing_a_step_rejected(self):
        # 1e-9 apart: within the landing tolerance of the same step
        window = TimeWindow(0.0, 1.0, (0.0, 1e-9, 1.0))
        with pytest.raises(ValueError, match="step boundary"):
            integrate_ode(lambda u, out: np.multiply(u, 0.0, out=out),
                          np.array([1.0]), window, 0.01)

    def test_step_entry_limit_checked_before_the_march(self):
        class Marched(Exception):
            pass

        def rhs(u, out):
            raise Marched
        # a 1e-6 step plans 1e6 steps over [0, 1]
        steps = 10**6
        with pytest.raises(Marched):
            integrate_ode(rhs, np.ones(pde_core.STEP_ENTRY_LIMIT // steps),
                          TimeWindow(0.0, 1.0), 1.0 / steps)
        with pytest.raises(ValueError, match="exceed the limit"):
            integrate_ode(rhs, np.ones(pde_core.STEP_ENTRY_LIMIT // steps + 1),
                          TimeWindow(0.0, 1.0), 1.0 / steps)

    def test_scalar_system_matches_textbook_march(self):
        def rhs(u):
            return 0.1 * np.sqrt(np.abs(u)) - 0.3 * u
        window = TimeWindow.with_uniform_outputs(0.2, 1.7, 4)
        np.testing.assert_array_equal(
            integrate_ode(in_place(rhs), np.array([2.5]), window, 1e-2),
            textbook_rk4(rhs, np.array([2.5]), window, 1e-2))

    def test_stacked_reaction_system_matches_textbook_march(self, advection_reaction):
        grid = SpatialGrid(64)
        rng = np.random.default_rng(8)
        column = rng.uniform(-1.0, 1.0, (9, 1))
        initial = 1.5 + rng.uniform(-1.0, 1.0, (9, 64))

        def rhs(u):
            return column * spatial_derivative(u, grid) + old_reaction(advection_reaction, u)
        window = TimeWindow.with_uniform_outputs(0.0, 0.5, 6)
        np.testing.assert_array_equal(
            integrate_ode(in_place(rhs), initial, window, 1e-2),
            textbook_rk4(rhs, initial, window, 1e-2))


class TestPlanSteps:
    @given(start=st.floats(0.0, 400.0), length=st.floats(0.01, 10.0),
           count=st.integers(2, 51), step=st.floats(1e-3, 2.0))
    @settings(max_examples=300, deadline=None)
    def test_uniform_outputs(self, start, length, count, step):
        window = TimeWindow.with_uniform_outputs(start, start + length, count)
        actual, n_steps, outputs = pde_core._plan_steps(window, step)
        cells, span = count - 1, window.length
        per_cell = int(np.ceil(span / cells / step - 1e-12))
        assert actual == span / (cells * per_cell)
        assert n_steps == cells * per_cell
        # the step count is rounded down by at most 1e-12
        assert actual <= step * (1.0 + 1e-12)
        assert outputs == {j * per_cell: j for j in range(count)}
        landed = window.start + actual * np.array(list(outputs))
        assert np.all(np.abs(landed - window.output_times) <= 1e-8 * max(1.0, span))
        assert pde_core._plan_steps(window, actual)[0] == actual

    def test_mixed_spacing_uses_the_common_step(self):
        # gaps 0.1 and 0.03 share 0.01, though 0.03 does not divide 0.26
        window = TimeWindow(0.0, 0.26, (0.0, 0.1, 0.2, 0.23, 0.26))
        actual, n_steps, outputs = pde_core._plan_steps(window, 0.01)
        assert (actual, n_steps) == (0.26 / 26, 26)
        assert outputs == {0: 0, 10: 1, 20: 2, 23: 3, 26: 4}
        assert pde_core._plan_steps(window, actual)[0] == actual

    def test_common_step_finer_than_step_and_gaps_rejected(self):
        # 0.1 and 0.037 share only 0.001
        window = TimeWindow(0.0, 0.237, (0.0, 0.1, 0.2, 0.237))
        with pytest.raises(ValueError, match="step boundary"):
            pde_core._plan_steps(window, 0.01)
        assert pde_core._plan_steps(window, 0.001)[1] == 237


def assert_matches_march(states, marched):
    np.testing.assert_allclose(states, marched, rtol=0.0, atol=1e-12)


def sampled_pod_basis(wave, rule, grid, window):
    states = solve_ensemble(wave, rule.nodes, np.cos(grid.points), window, grid)
    return truncate_pod(states, 1e-4, rule)


def initial_field(basis, grid, matrices):
    """The wave's initial condition cos(x), shared by every node, projected."""
    u0 = np.broadcast_to(np.cos(grid.points), (len(basis.rule), grid.point_count))
    return project_node_values(u0, basis, matrices)


def galerkin_march(matrices, field, window, grid, step):
    """The wave Galerkin system c' = mass^-1 * advection * D c, marched."""
    solved = matrices.solve(matrices.advection)
    return textbook_rk4(lambda c: solved @ spatial_derivative(c, grid),
                        field, window, step)


class TestIntegrateAdvection:
    """The Fourier-space RK4 kernel against the marched RK4 it replaces."""

    def test_random_ensemble_matches_march(self):
        grid = SpatialGrid(128)
        rng = np.random.default_rng(3)
        speeds = rng.uniform(-1.0, 1.0, 40)
        initial = rng.normal(size=(40, 128))
        window = TimeWindow.with_uniform_outputs(0.5, 1.5, 11)
        states = integrate_advection(speeds, initial, window, grid, 1e-2)
        marched = textbook_rk4(
            lambda u: speeds[:, None] * spatial_derivative(u, grid),
            initial, window, 1e-2)
        assert_matches_march(states, marched)

    def test_pod_basis_window_matches_march(self, wave, rule_120):
        grid = SpatialGrid(128)
        window = TimeWindow.with_uniform_outputs(0.0, 1.0, 11)
        basis = sampled_pod_basis(wave, rule_120, grid, window)
        matrices = assemble_matrices(basis)
        field = initial_field(basis, grid, matrices)
        states = propagate_window(wave, field, basis, window, grid, 1e-2, matrices)
        assert_matches_march(states,
                             galerkin_march(matrices, field, window, grid, 1e-2))

    def test_evolved_basis_window_matches_march(self, wave, rule_120):
        grid = SpatialGrid(128)
        first = TimeWindow.with_uniform_outputs(0.0, 1.0, 11)
        basis = sampled_pod_basis(wave, rule_120, grid, first)
        matrices = assemble_matrices(basis)
        field = initial_field(basis, grid, matrices)
        field = propagate_window(wave, field, basis, first, grid, 1e-2, matrices)[-1]
        evolved = evolve_basis(basis, spatial_pair(field, grid), 0.1)
        gram = evolved.values.T @ evolved.values
        assert not np.allclose(gram, np.eye(evolved.size), atol=1e-6)
        evolved_matrices = assemble_matrices(evolved)
        field = project_node_values(basis.reconstruct(field), evolved, evolved_matrices)
        window = TimeWindow.with_uniform_outputs(1.0, 1.1, 2)
        states = propagate_window(wave, field, evolved, window, grid, 1e-2,
                                  evolved_matrices)
        assert_matches_march(states,
                             galerkin_march(evolved_matrices, field, window, grid, 1e-2))

    def test_step_zero_output_is_the_initial_state(self):
        grid = SpatialGrid(32)
        initial = np.random.default_rng(1).normal(size=(3, 32))
        window = TimeWindow.with_uniform_outputs(0.0, 1.0, 3)
        states = integrate_advection(np.array([-1.0, 0.2, 0.9]), initial, window,
                                     grid, 1e-2)
        np.testing.assert_array_equal(states[0], initial)

    def test_wave_cfl_guard_still_fires(self, wave):
        grid = SpatialGrid(64)
        with pytest.raises(ValueError, match="CFL"):
            solve_ensemble(wave, np.array([-1.0, 1.0]), np.cos(grid.points),
                           TimeWindow(0.0, 1.0), grid, step=0.51 * grid.spacing)

    def test_output_time_off_step_boundary(self):
        grid = SpatialGrid(32)
        window = TimeWindow(0.0, 1.0, (0.0, 0.333, 1.0))
        with pytest.raises(ValueError, match="step boundary"):
            integrate_advection(np.array([0.5]), np.ones((1, 32)), window, grid, 0.25)


def old_reaction(problem, u):
    """c*|u|^p as the stacked march computed it before the blocked kernel."""
    if problem.reaction_exponent == 0.5:
        return problem.reaction_coefficient * np.sqrt(np.abs(u))
    return problem.reaction_coefficient * np.abs(u) ** problem.reaction_exponent


class TestReaction:
    @pytest.mark.parametrize("exponent", [0.5, 3.0])
    def test_one_new_array_bit_identical(self, exponent):
        problem = PdeProblem(kind="AdvectionReaction", initial_condition=np.cos,
                             reaction_coefficient=0.3, reaction_exponent=exponent)
        u = np.random.default_rng(4).normal(size=(50, 400))
        before = u.copy()
        tracemalloc.start()
        try:
            result = problem.reaction(u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(result, old_reaction(problem, before))
        np.testing.assert_array_equal(u, before)
        assert not np.shares_memory(result, u)
        # one array of u's size, not one per numpy call
        assert peak < 1.5 * u.nbytes
        assert problem.reaction(u, out=u) is u
        np.testing.assert_array_equal(u, result)

    def test_zero_coefficient_has_no_reaction(self):
        problem = PdeProblem(kind="AdvectionReaction", initial_condition=np.cos)
        assert not problem.has_reaction
        assert pde_core.advection_reaction_problem().has_reaction


def reaction_march(problem, speeds, initial, window, grid, step):
    """The advection-reaction ensemble marched by ``textbook_rk4`` with the
    closure right-hand side that ``solve_ensemble`` used to build."""
    column = np.asarray(speeds, dtype=float)[:, None]

    def rhs(u):
        return column * spatial_derivative(u, grid) + old_reaction(problem, u)
    return textbook_rk4(rhs, initial, window, step)


def samples_per_block(grid):
    return pde_core._BLOCK_ENTRIES // grid.point_count


class TestIntegrateReaction:
    """The blocked, sample-major RK4 kernel against the march it replaces,
    compared bit for bit."""

    def test_single_sample_through_solve_ensemble(self, advection_reaction):
        grid = SpatialGrid(128)
        u0 = advection_reaction.initial_condition(grid.points)
        window = TimeWindow.with_uniform_outputs(0.0, 1.0, 6)
        states = solve_ensemble(advection_reaction, [0.7], u0, window, grid, 1e-2)
        marched = reaction_march(advection_reaction, [0.7], u0[None, :], window,
                                 grid, 1e-2)
        np.testing.assert_array_equal(states, marched)

    @pytest.mark.parametrize("points,extra_blocks,extra_rows",
                             [(64, 1, 1), (64, 2, 3), (65, 2, 3)])
    def test_ragged_blocks_match_march(self, advection_reaction, points,
                                       extra_blocks, extra_rows):
        grid = SpatialGrid(points)
        count = extra_blocks * samples_per_block(grid) + extra_rows
        rng = np.random.default_rng(points + count)
        speeds = rng.uniform(-1.0, 1.0, count)
        initial = 1.5 + rng.uniform(-1.0, 1.0, (count, points))
        window = TimeWindow.with_uniform_outputs(0.3, 0.8, 6)
        states = integrate_reaction(advection_reaction, speeds, initial, window,
                                    grid, 1e-2)
        np.testing.assert_array_equal(
            states, reaction_march(advection_reaction, speeds, initial, window,
                                   grid, 1e-2))

    def test_shared_initial_state_through_solve_ensemble(self, advection_reaction):
        grid = SpatialGrid(64)
        count = samples_per_block(grid) + 5
        speeds = np.random.default_rng(5).uniform(-1.0, 1.0, count)
        u0 = advection_reaction.initial_condition(grid.points)
        window = TimeWindow.with_uniform_outputs(0.0, 0.5, 3)
        states = solve_ensemble(advection_reaction, speeds, u0, window, grid, 1e-2)
        marched = reaction_march(advection_reaction, speeds,
                                 np.tile(u0, (count, 1)), window, grid, 1e-2)
        np.testing.assert_array_equal(states, marched)

    def test_linear_exponent_uses_power_path(self):
        problem = PdeProblem(kind="AdvectionReaction",
                             initial_condition=lambda x: np.cos(x) + 1.5,
                             reaction_coefficient=0.3, reaction_exponent=1.0)
        grid = SpatialGrid(32)
        rng = np.random.default_rng(7)
        speeds = rng.uniform(-1.0, 1.0, samples_per_block(grid) + 2)
        initial = rng.normal(size=(speeds.size, 32))
        window = TimeWindow.with_uniform_outputs(0.0, 0.5, 3)
        np.testing.assert_array_equal(
            integrate_reaction(problem, speeds, initial, window, grid, 1e-2),
            reaction_march(problem, speeds, initial, window, grid, 1e-2))

    def test_step_zero_output_is_the_initial_state(self, advection_reaction):
        grid = SpatialGrid(32)
        initial = np.random.default_rng(2).normal(size=(3, 32))
        window = TimeWindow.with_uniform_outputs(0.0, 1.0, 3)
        states = integrate_reaction(advection_reaction, np.array([-1.0, 0.2, 0.9]),
                                    initial, window, grid, 1e-2)
        np.testing.assert_array_equal(states[0], initial)

    def test_block_record_gets_rows_in_row_order(self, advection_reaction):
        grid = SpatialGrid(64)
        block = samples_per_block(grid)
        rng = np.random.default_rng(6)
        speeds = rng.uniform(-1.0, 1.0, block + 3)
        initial = 1.5 + rng.uniform(-1.0, 1.0, (speeds.size, 64))
        window = TimeWindow.with_uniform_outputs(0.0, 0.2, 3)
        calls = []
        integrate_reaction(advection_reaction, speeds, initial, window, grid, 1e-2,
                           record=lambda j, first, rows: calls.append(
                               (j, first, rows.copy())))
        assert [(j, first, rows.shape) for j, first, rows in calls] == [
            (0, 0, (block, 64)), (1, 0, (block, 64)), (2, 0, (block, 64)),
            (0, block, (3, 64)), (1, block, (3, 64)), (2, block, (3, 64))]
        marched = reaction_march(advection_reaction, speeds, initial, window, grid,
                                 1e-2)
        for j, first, rows in calls:
            np.testing.assert_array_equal(rows, marched[j, first:first + len(rows)])

    def test_divergence_time_is_the_earliest_over_all_blocks(self):
        # cubic growth blows up from amplitude a at about t = 1/(2a^2); rows
        # in blocks 1, 2 and 3 blow up at different steps, earliest in block
        # 2, so neither the first nor the last diverging block gives the time
        blower = PdeProblem(kind="AdvectionReaction",
                            initial_condition=lambda x: np.cos(x) + 1.5,
                            reaction_coefficient=1.0, reaction_exponent=3.0)
        grid = SpatialGrid(64)
        block = samples_per_block(grid)
        speeds = np.random.default_rng(4).uniform(-1.0, 1.0, 3 * block + 3)
        initial = np.full((speeds.size, 64), 0.1)
        rows = {1: block + 7, 2: 2 * block + 11, 3: 3 * block + 1}
        for b, amplitude in ((1, 2.0), (2, 4.0), (3, 3.0)):
            initial[rows[b]] = amplitude
        window = TimeWindow(0.0, 0.5)

        def time_of(march, *args):
            with pytest.raises(IntegrationDiverged) as info, \
                    np.errstate(over="ignore", invalid="ignore"):
                march(blower, *args, window, grid, 1e-2)
            return info.value.time

        alone = {b: time_of(reaction_march, speeds[[row]], initial[[row]])
                 for b, row in rows.items()}
        assert alone[2] < alone[3] < alone[1]
        marched = time_of(reaction_march, speeds, initial)
        assert marched == alone[2]
        assert time_of(integrate_reaction, speeds, initial) == marched


class TestSolveFixedXi:
    def test_zero_speed_wave_is_frozen(self, wave):
        grid = SpatialGrid(64)
        u0 = np.cos(grid.points)
        states = solve_ensemble(wave, [0.0], u0, TimeWindow(0.0, 3.0), grid)[:, 0]
        np.testing.assert_allclose(states[-1], u0, atol=1e-12)

    def test_wave_transport_solution(self, wave):
        grid = SpatialGrid(256)
        u0 = np.cos(grid.points)
        states = solve_ensemble(wave, [1.0], u0, TimeWindow(0.0, 1.0), grid)[:, 0]
        np.testing.assert_allclose(states[-1], np.cos(grid.points + 1.0), atol=5e-3)

    def test_reaction_only_closed_form(self, advection_reaction):
        grid = SpatialGrid(128)
        u0 = advection_reaction.initial_condition(grid.points)
        states = solve_ensemble(advection_reaction, [0.0], u0, TimeWindow(0.0, 2.0),
                                grid, step=1e-3)[:, 0]
        expected = (np.sqrt(u0) + 0.05 * 2.0) ** 2
        np.testing.assert_allclose(states[-1], expected, atol=1e-4)

    def test_wave_energy_conservation(self, wave):
        grid = SpatialGrid(256)
        u0 = np.cos(grid.points)
        states = solve_ensemble(wave, [0.7], u0, TimeWindow(0.0, 10.0), grid,
                                step=1e-3)[:, 0]
        energy0 = grid.spacing * np.sum(states[0] ** 2)
        energy1 = grid.spacing * np.sum(states[-1] ** 2)
        assert abs(energy1 - energy0) / energy0 < 1e-6

    def test_reaction_solutions_stay_positive(self, advection_reaction):
        grid = SpatialGrid(64)
        u0 = advection_reaction.initial_condition(grid.points)
        assert np.min(u0) >= 0.5
        for xi in (-1.0, -0.3, 0.8):
            states = solve_ensemble(advection_reaction, [xi], u0,
                                    TimeWindow(0.0, 5.0), grid)
            assert np.min(states) > 0.0


class TestSolveEnsemble:
    def test_matches_per_sample_solves(self, wave):
        grid = SpatialGrid(64)
        u0 = np.cos(grid.points)
        xis = np.array([-0.9, 0.0, 0.4])
        window = TimeWindow.with_uniform_outputs(0.0, 1.0, 3)
        stacked = solve_ensemble(wave, xis, u0, window, grid, step=1e-2)
        for k, xi in enumerate(xis):
            single = solve_ensemble(wave, [xi], u0, window, grid, step=1e-2)
            np.testing.assert_array_equal(stacked[:, k, :], single[:, 0, :])

    def test_cfl_guard(self, wave):
        grid = SpatialGrid(64)
        u0 = np.cos(grid.points)
        bad_step = 0.51 * grid.spacing
        with pytest.raises(ValueError):
            solve_ensemble(wave, np.array([1.0]), u0, TimeWindow(0.0, 1.0),
                           grid, step=bad_step)

    @pytest.mark.parametrize("xis", [[5.0], [np.nan, 5.0]], ids=["finite", "with-nan"])
    def test_cfl_guard_skips_non_finite_samples(self, wave, xis):
        grid = SpatialGrid(64)
        with pytest.raises(ValueError, match="CFL number 1.019"):
            solve_ensemble(wave, np.array(xis), np.cos(grid.points), TimeWindow(0.0, 1.0),
                           grid, step=0.02)

    def test_rejects_bad_initial_shape(self, wave):
        grid = SpatialGrid(64)
        with pytest.raises(ValueError):
            solve_ensemble(wave, np.array([0.0, 1.0]), np.zeros((3, 64)),
                           TimeWindow(0.0, 1.0), grid)


class TestDefaultStep:
    def test_caps_at_centisecond(self):
        assert default_step(SpatialGrid(16)) == pytest.approx(1e-2)

    def test_respects_cfl_for_fine_grids(self):
        grid = SpatialGrid(4096)
        assert default_step(grid) == pytest.approx(0.5 * grid.spacing)


class TestExactWaveStatistics:
    def test_mean_square_limit_at_zero(self):
        assert wave_exact_mean_square(0.0) == pytest.approx(1.0)

    def test_mean_square_at_pi(self):
        assert wave_exact_mean_square(np.pi) == pytest.approx(0.5, abs=1e-15)

    def test_mean_square_formula(self):
        t = 2.7
        expected = 0.5 * (1.0 + np.cos(t) * np.sin(t) / t)
        assert wave_exact_mean_square(t) == pytest.approx(expected)

    def test_mean_at_pi_is_zero(self):
        assert wave_exact_mean(np.pi) == pytest.approx(0.0, abs=1e-15)

    def test_mean_limit_at_zero(self):
        assert wave_exact_mean(0.0, x=0.3) == pytest.approx(np.cos(0.3))

    @given(t=st.floats(0.0, 100.0), x=st.floats(0.0, 2 * np.pi))
    @settings(deadline=None)
    def test_matches_quadrature_of_exact_solution(self, t, x):
        # E[cos(x + xi*t)^2] by dense midpoint quadrature over xi in [-1, 1]
        xi = np.linspace(-1.0, 1.0, 20001)[:-1] + 1e-4
        reference = np.mean(np.cos(x + xi * t) ** 2)
        assert wave_exact_mean_square(t, x) == pytest.approx(reference, abs=1e-4)
