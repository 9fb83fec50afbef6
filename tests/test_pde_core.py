import os
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    plan = pde_core._plan_steps(window, step)
    out = np.empty((len(window.output_times),) + state.shape)
    for j, (before, (dt, n)) in enumerate(zip((window.start, *window.output_times), plan)):
        for k in range(1, n + 1):
            k1 = rhs(state)
            k2 = rhs(state + 0.5 * dt * k1)
            k3 = rhs(state + 0.5 * dt * k2)
            k4 = rhs(state + dt * k3)
            state = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(state)):
                raise IntegrationDiverged(before + k * dt)
        out[j] = state
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
        # u' = u^3 from u(0)=1 blows up at t = 0.5, after the 0.25 output:
        # the time counts the steps from that output
        window = TimeWindow.with_uniform_outputs(0.0, 1.0, 5)
        with pytest.raises(IntegrationDiverged) as info, np.errstate(over="ignore"):
            integrate_ode(lambda u, out: np.power(u, 3, out=out), np.array([1.0]),
                          window, 1e-3)
        assert 0.5 < info.value.time <= 0.51

    def test_output_time_off_step_boundary(self):
        # 0.333 is off the 0.25 grid: 2 steps of 0.1665 reach it, then 3 of 0.667 / 3
        window = TimeWindow(0.0, 1.0, (0.0, 0.333, 1.0))
        assert pde_core._plan_steps(window, 0.25) == [(0.0, 0), (0.333 / 2, 2),
                                                      ((1.0 - 0.333) / 3, 3)]

        def rhs(u):
            return -u
        states = integrate_ode(in_place(rhs), np.array([1.0]), window, 0.25)
        np.testing.assert_array_equal(states,
                                      textbook_rk4(rhs, np.array([1.0]), window, 0.25))
        np.testing.assert_allclose(states[:, 0], np.exp(-np.array(window.output_times)),
                                   rtol=1e-3)

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            integrate_ode(lambda u, out: np.copyto(out, u), np.array([1.0]),
                          TimeWindow(0.0, 1.0), 0.0)

    def test_outputs_closer_than_the_tolerance_get_a_step_each(self):
        # 1e-9 apart, within the planner's 1e-8 tolerance: still one step apart
        window = TimeWindow(0.0, 1.0, (0.0, 1e-9, 1.0))
        assert pde_core._plan_steps(window, 0.01) == [(0.0, 0), (1e-9, 1),
                                                      ((1.0 - 1e-9) / 100, 100)]

        def rhs(u):
            return 0.1 * np.sqrt(np.abs(u)) - 0.3 * u
        np.testing.assert_array_equal(
            integrate_ode(in_place(rhs), np.array([2.5]), window, 0.01),
            textbook_rk4(rhs, np.array([2.5]), window, 0.01))

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


def landed(window, plan):
    """The times the plan reaches: each output's steps taken from the one
    before it."""
    return window.start + np.cumsum([n * dt for dt, n in plan])


class TestPlanSteps:
    @given(start=st.floats(0.0, 400.0), length=st.floats(0.01, 10.0),
           count=st.integers(2, 51), step=st.floats(1e-3, 2.0))
    @settings(max_examples=300, deadline=None)
    def test_uniform_outputs(self, start, length, count, step):
        window = TimeWindow.with_uniform_outputs(start, start + length, count)
        plan = pde_core._plan_steps(window, step)
        cells, span = count - 1, window.length
        per_cell = int(np.ceil(span / cells / step - 1e-12))
        # a uniform window is one run: the steps of uniform CLI runs stay bit-identical
        assert plan == [(0.0, 0)] + [(span / (cells * per_cell), per_cell)] * cells
        # the step count is rounded down by at most 1e-12
        assert plan[1][0] <= step * (1.0 + 1e-12)
        assert np.all(np.abs(landed(window, plan) - window.output_times)
                      <= 1e-8 * max(1.0, span))

    @given(start=st.floats(0.0, 400.0), at_start=st.booleans(),
           gaps=st.lists(st.one_of(st.floats(1e-4, 3.0),
                                   st.sampled_from([0.1, 0.037, 0.25, 1.0 / 3.0])),
                         min_size=1, max_size=30),
           tail=st.floats(0.0, 1.0), step=st.floats(1e-3, 2.0))
    # 2.9e-8 off the unit grid, under the tolerance of 3e-8 but not under half
    # of it: the grid of the run's ends would miss the output by 4.8e-8
    @example(start=0.0, at_start=True, gaps=[1.0, 1.0 + 2.9e-8, 1.0 - 5.8e-8], tail=0.0,
             step=0.1)
    @settings(max_examples=300, deadline=None)
    def test_any_increasing_outputs(self, start, at_start, gaps, tail, step):
        times = start + np.cumsum(gaps)
        if at_start:
            times = np.insert(times, 0, start)
        window = TimeWindow(start, times[-1] + tail, tuple(times))
        plan = pde_core._plan_steps(window, step)
        assert len(plan) == len(times)
        assert all(dt <= step * (1.0 + 1e-12) for dt, _ in plan)
        assert (plan[0] == (0.0, 0)) == at_start
        assert all(n >= 1 for _, n in plan[1:])
        assert np.all(np.abs(landed(window, plan) - times)
                      <= 1e-8 * max(1.0, window.length))

    def test_mixed_spacing_uses_the_common_step(self):
        # two runs, gaps 0.1 and then 0.03, each cut into steps of 0.01
        window = TimeWindow(0.0, 0.26, (0.0, 0.1, 0.2, 0.23, 0.26))
        assert pde_core._plan_steps(window, 0.01) == (
            [(0.0, 0)] + [(0.2 / 20, 10)] * 2 + [((0.26 - 0.2) / 6, 3)] * 2)

    def test_ragged_tail_is_its_own_run(self):
        # 0.1 and 0.037 share only 0.001: the 0.037 gap takes 4 steps of 0.00925
        window = TimeWindow(0.0, 0.237, (0.0, 0.1, 0.2, 0.237))
        plan = pde_core._plan_steps(window, 0.01)
        assert plan == [(0.0, 0)] + [(0.2 / 20, 10)] * 2 + [((0.237 - 0.2) / 4, 4)]
        assert plan[-1][0] == pytest.approx(0.00925)


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
        speeds = np.array([-0.3, 0.5])
        initial = np.random.default_rng(5).normal(size=(2, 32))
        for outputs, step in [
            # 0.333 is off the 0.25 grid: two runs, of 2 and then 3 steps
            ((0.0, 0.333, 1.0), 0.25),
            # one step each, of 0.333 and then 0.667
            ((0.0, 0.333, 1.0), 1.0),
            # steps of 0.25 each, one per gap and then two
            ((0.0, 0.25, 0.5, 1.0), 0.25),
        ]:
            window = TimeWindow(0.0, 1.0, outputs)
            states = integrate_advection(speeds, initial, window, grid, step)
            assert_matches_march(states, textbook_rk4(
                lambda u: speeds[:, None] * spatial_derivative(u, grid), initial, window,
                step))


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


def assert_close_to_march(states, marched):
    """The kernel folds 1/(2h) into each sample's speed, where the textbook
    march divides the difference by 2h: the states agree to roundoff,
    relative to the largest entry (an entry near zero has no relative digits
    to spare)."""
    np.testing.assert_allclose(states, marched, rtol=0.0,
                               atol=1e-13 * np.max(np.abs(marched)))


def marched_blocks(monkeypatch):
    """Spy on ``pde_core._march``: the list it returns gets the (grid points,
    rows) shape of each block's state as the block is marched."""
    shapes = []
    march = pde_core._march

    def spy(rhs, state, *args):
        shapes.append(state.shape)
        march(rhs, state, *args)
    monkeypatch.setattr(pde_core, "_march", spy)
    return shapes


def on_one_and_two_cpus(monkeypatch, march, *args, **kwargs):
    """``march(*args, **kwargs)`` with the CPU count patched to 1 and then to
    2, so that a kernel with two or more blocks marches them on one thread and
    then on two. Asserts that both give the same states and returns them."""
    results = []
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid, cpus=cpus: set(range(cpus)))
        results.append(march(*args, **kwargs))
    np.testing.assert_array_equal(results[0], results[1])
    return results[0]


class TestIntegrateReaction:
    """The blocked, sample-major RK4 kernel against the textbook march it
    replaces, on one thread and on two."""

    def test_single_sample_through_solve_ensemble(self, advection_reaction, monkeypatch):
        grid = SpatialGrid(128)
        u0 = advection_reaction.initial_condition(grid.points)
        window = TimeWindow.with_uniform_outputs(0.0, 1.0, 6)
        states = on_one_and_two_cpus(monkeypatch, solve_ensemble, advection_reaction,
                                     [0.7], u0, window, grid, 1e-2)
        marched = reaction_march(advection_reaction, [0.7], u0[None, :], window,
                                 grid, 1e-2)
        assert_close_to_march(states, marched)

    @pytest.mark.parametrize("points,extra_blocks,extra_rows",
                             [(64, 1, 1), (64, 2, 3), (65, 2, 3)])
    def test_ragged_blocks_match_march(self, advection_reaction, monkeypatch, points,
                                       extra_blocks, extra_rows):
        grid = SpatialGrid(points)
        count = extra_blocks * samples_per_block(grid) + extra_rows
        rng = np.random.default_rng(points + count)
        speeds = rng.uniform(-1.0, 1.0, count)
        initial = 1.5 + rng.uniform(-1.0, 1.0, (count, points))
        window = TimeWindow.with_uniform_outputs(0.3, 0.8, 6)
        states = on_one_and_two_cpus(monkeypatch, integrate_reaction, advection_reaction,
                                     speeds, initial, window, grid, 1e-2)
        assert_close_to_march(states, reaction_march(advection_reaction, speeds, initial,
                                                     window, grid, 1e-2))

    def test_shared_initial_state_through_solve_ensemble(self, advection_reaction,
                                                         monkeypatch):
        grid = SpatialGrid(64)
        count = samples_per_block(grid) + 5
        speeds = np.random.default_rng(5).uniform(-1.0, 1.0, count)
        u0 = advection_reaction.initial_condition(grid.points)
        window = TimeWindow.with_uniform_outputs(0.0, 0.5, 3)
        states = on_one_and_two_cpus(monkeypatch, solve_ensemble, advection_reaction,
                                     speeds, u0, window, grid, 1e-2)
        marched = reaction_march(advection_reaction, speeds,
                                 np.tile(u0, (count, 1)), window, grid, 1e-2)
        assert_close_to_march(states, marched)

    def test_linear_exponent_uses_power_path(self, monkeypatch):
        problem = PdeProblem(kind="AdvectionReaction",
                             initial_condition=lambda x: np.cos(x) + 1.5,
                             reaction_coefficient=0.3, reaction_exponent=1.0)
        grid = SpatialGrid(32)
        rng = np.random.default_rng(7)
        speeds = rng.uniform(-1.0, 1.0, samples_per_block(grid) + 2)
        initial = rng.normal(size=(speeds.size, 32))
        window = TimeWindow.with_uniform_outputs(0.0, 0.5, 3)
        assert_close_to_march(
            on_one_and_two_cpus(monkeypatch, integrate_reaction, problem, speeds, initial,
                                window, grid, 1e-2),
            reaction_march(problem, speeds, initial, window, grid, 1e-2))

    def test_step_zero_output_is_the_initial_state(self, advection_reaction, monkeypatch):
        grid = SpatialGrid(32)
        initial = np.random.default_rng(2).normal(size=(3, 32))
        window = TimeWindow.with_uniform_outputs(0.0, 1.0, 3)
        states = on_one_and_two_cpus(monkeypatch, integrate_reaction, advection_reaction,
                                     np.array([-1.0, 0.2, 0.9]), initial, window, grid, 1e-2)
        np.testing.assert_array_equal(states[0], initial)

    def test_block_record_gets_rows_in_row_order(self, advection_reaction, monkeypatch):
        # on 2 CPUs: the default march takes two threads, a record only the caller's
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        grid = SpatialGrid(64)
        block = samples_per_block(grid)
        rng = np.random.default_rng(6)
        speeds = rng.uniform(-1.0, 1.0, 2 * block + 3)
        initial = 1.5 + rng.uniform(-1.0, 1.0, (speeds.size, 64))
        window = TimeWindow.with_uniform_outputs(0.0, 0.2, 3)
        states = integrate_reaction(advection_reaction, speeds, initial, window, grid, 1e-2)
        calls = []
        integrate_reaction(advection_reaction, speeds, initial, window, grid, 1e-2,
                           record=lambda j, first, rows: calls.append(
                               (j, first, rows.copy(), threading.get_ident())))
        assert [(j, first, rows.shape) for j, first, rows, _ in calls] == [
            (j, first, (count, 64))
            for first, count in ((0, block), (block, block), (2 * block, 3))
            for j in range(3)]
        assert {thread for *_, thread in calls} == {threading.get_ident()}
        for j, first, rows, _ in calls:
            np.testing.assert_array_equal(rows, states[j, first:first + len(rows)])

    def test_divergence_time_is_the_earliest_over_all_blocks(self, monkeypatch):
        # cubic growth blows up from amplitude a at about t = 1/(2a^2); rows
        # 1, 2 and 3 blow up at different steps, earliest row 2. The rows are
        # cut into 3 blocks on 1 CPU and 4 on 2, and rows 1, 2 and 3 lie at
        # a tenth, four tenths and nine tenths of them: in three blocks, row
        # 2 in block 1 on both, so neither the first nor the last diverging
        # block gives the time
        blower = PdeProblem(kind="AdvectionReaction",
                            initial_condition=lambda x: np.cos(x) + 1.5,
                            reaction_coefficient=1.0, reaction_exponent=3.0)
        grid = SpatialGrid(64)
        count = 2 * pde_core._MOST_ENTRIES // 64 + 3
        speeds = np.random.default_rng(4).uniform(-1.0, 1.0, count)
        initial = np.full((speeds.size, 64), 0.1)
        rows = {1: count // 10, 2: 4 * count // 10, 3: 9 * count // 10}
        for b, amplitude in ((1, 2.0), (2, 4.0), (3, 3.0)):
            initial[rows[b]] = amplitude
        window = TimeWindow(0.0, 0.5)

        def time_of(march, *args):
            # the caller's np.errstate also holds in the threads that march
            # the blocks: a warning would be raised as an error
            with pytest.raises(IntegrationDiverged) as info, warnings.catch_warnings(), \
                    np.errstate(over="ignore", invalid="ignore"):
                warnings.simplefilter("error")
                march(blower, *args, window, grid, 1e-2)
            return info.value.time

        alone = {b: time_of(reaction_march, speeds[[row]], initial[[row]])
                 for b, row in rows.items()}
        assert alone[2] < alone[3] < alone[1]
        marched = time_of(reaction_march, speeds, initial)
        assert marched == alone[2]
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            assert time_of(integrate_reaction, speeds, initial) == marched

    def test_two_cpus_march_two_equal_blocks(self, advection_reaction, monkeypatch):
        # the resample window of the default advection-reaction run
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        grid = SpatialGrid(256)
        speeds = np.linspace(-1.0, 1.0, 300)
        u0 = advection_reaction.initial_condition(grid.points)
        blocks = marched_blocks(monkeypatch)
        integrate_reaction(advection_reaction, speeds, np.tile(u0, (300, 1)),
                           TimeWindow.with_uniform_outputs(0.0, 0.1, 3), grid, 1e-2)
        assert blocks == [(256, 150)] * 2

    def test_uneven_count_blocks_differ_by_one_row(self, advection_reaction, monkeypatch):
        grid = SpatialGrid(256)
        rng = np.random.default_rng(11)
        speeds = rng.uniform(-1.0, 1.0, 301)
        initial = 1.5 + rng.uniform(-1.0, 1.0, (301, 256))
        window = TimeWindow.with_uniform_outputs(0.0, 0.2, 3)
        blocks = marched_blocks(monkeypatch)
        states = on_one_and_two_cpus(monkeypatch, integrate_reaction, advection_reaction,
                                     speeds, initial, window, grid, 1e-2)
        assert blocks[0] == (256, 301)
        assert sorted(blocks[1:]) == [(256, 150), (256, 151)]
        assert_close_to_march(states, reaction_march(advection_reaction, speeds, initial,
                                                     window, grid, 1e-2))

    @pytest.mark.parametrize("count,points,cpus,sizes", [
        (0, 64, 2, []),
        (1, 64, 2, [1]),
        (3, 2 * pde_core._MOST_ENTRIES, 8, [1, 1, 1]),
        (2 * pde_core._THREAD_ENTRIES // 64 - 1, 64, 2,
         [2 * pde_core._THREAD_ENTRIES // 64 - 1]),
        (2 * pde_core._THREAD_ENTRIES // 64, 64, 2, [pde_core._THREAD_ENTRIES // 64] * 2),
        (300, 256, 64, [300 / 7] * 7),
        (5 * pde_core._MOST_ENTRIES // 64, 64, 1, [pde_core._MOST_ENTRIES // 64] * 5),
        (5 * pde_core._MOST_ENTRIES // 64, 64, 2, [5 * pde_core._MOST_ENTRIES // 384] * 6),
    ], ids=["none", "fewer-than-threads", "one-row-blocks", "below-split", "at-split",
            "threads-capped-by-entries", "one-thread", "multiple-of-threads"])
    def test_partition_edge_cases(self, count, points, cpus, sizes):
        blocks = pde_core._blocks(count, points, cpus)
        assert [b.stop - b.start for b in blocks] == pytest.approx(sizes, abs=1)
        assert sum(b.stop - b.start for b in blocks) == count
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))

    def test_empty_and_tiny_ensembles_march(self, advection_reaction, monkeypatch):
        grid = SpatialGrid(32)
        window = TimeWindow.with_uniform_outputs(0.0, 0.1, 3)
        for count in (0, 1):
            initial = np.full((count, 32), 1.5)
            states = on_one_and_two_cpus(monkeypatch, integrate_reaction, advection_reaction,
                                         np.zeros(count), initial, window, grid, 1e-2)
            assert states.shape == (3, count, 32)

    def test_step_entry_limit_counts_the_largest_block(self, advection_reaction,
                                                       monkeypatch):
        # 300 x 256 on 2 CPUs marches two blocks of 150 rows, 10 steps each
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        grid = SpatialGrid(256)
        speeds = np.linspace(-1.0, 1.0, 300)
        initial = np.full((300, 256), 1.5)
        window = TimeWindow(0.0, 0.1)
        blocks = marched_blocks(monkeypatch)
        monkeypatch.setattr(pde_core, "STEP_ENTRY_LIMIT", 10 * 150 * 256)
        integrate_reaction(advection_reaction, speeds, initial, window, grid, 1e-2)
        assert len(blocks) == 2
        monkeypatch.setattr(pde_core, "STEP_ENTRY_LIMIT", 10 * 150 * 256 - 1)
        with pytest.raises(ValueError, match="exceed the limit"):
            integrate_reaction(advection_reaction, speeds, initial, window, grid, 1e-2)
        assert len(blocks) == 2

    def test_march_without_an_affinity_mask(self, advection_reaction, monkeypatch):
        # where the platform has none (macOS, Windows), every CPU counts
        grid = SpatialGrid(64)
        speeds = np.random.default_rng(8).uniform(-1.0, 1.0, 2 * samples_per_block(grid))
        u0 = advection_reaction.initial_condition(grid.points)
        window = TimeWindow.with_uniform_outputs(0.0, 0.2, 3)
        states = solve_ensemble(advection_reaction, speeds, u0, window, grid, 1e-2)
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert pde_core._cpu_count() == 2
        np.testing.assert_array_equal(
            solve_ensemble(advection_reaction, speeds, u0, window, grid, 1e-2), states)


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
