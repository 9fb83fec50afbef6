import dataclasses
import json

import numpy as np
import pytest

from empchaos import cli, driver
from empchaos.driver import (
    EVOLVE,
    HOLD,
    RESAMPLE,
    EmpiricalConfig,
    StageTimings,
    alternating_schedule,
    always_resample,
    run_schedule,
    window_plan,
)
from empchaos.pde_core import (
    IntegrationDiverged,
    PdeProblem,
    SpatialGrid,
    solve_ensemble,
    wave_exact_mean,
    wave_exact_mean_square,
)
from empchaos.random_space import chebyshev_nodes, trapezoid_rule


class TestSchedules:
    def test_always_resample(self):
        assert [always_resample(i) for i in range(4)] == [RESAMPLE] * 4

    def test_alternating(self):
        assert [alternating_schedule(i) for i in range(4)] == [
            RESAMPLE, EVOLVE, RESAMPLE, EVOLVE]


class TestStageTimings:
    def test_add_accumulates(self):
        timings = StageTimings()
        timings.add("svd", 0.5)
        timings.add("svd", 0.25)
        assert timings.svd == pytest.approx(0.75)

    def test_total_sums_all_stages(self):
        timings = StageTimings(sampling=1.0, svd=2.0, change_of_basis=3.0,
                               assembly=4.0, propagation=5.0,
                               basis_evolution=6.0)
        assert timings.total == pytest.approx(21.0)
        assert set(timings.as_dict()) == {
            "sampling", "svd", "change_of_basis", "assembly",
            "propagation", "basis_evolution"}


class TestConfigValidation:
    def test_rejects_nonpositive_window(self, wave, small_grid, rule_120):
        with pytest.raises(ValueError):
            EmpiricalConfig(problem=wave, grid=small_grid, rule=rule_120,
                            window_length=0.0)

    def test_rejects_empty_horizon(self, wave, small_grid, rule_120):
        with pytest.raises(ValueError):
            EmpiricalConfig(problem=wave, grid=small_grid, rule=rule_120,
                            t_final=0.0, t_start=0.0)

    def test_rejects_single_output(self, wave, small_grid, rule_120):
        with pytest.raises(ValueError):
            EmpiricalConfig(problem=wave, grid=small_grid, rule=rule_120,
                            outputs_per_window=1)

    def test_unknown_schedule_action_raises(self, wave, small_grid, rule_120):
        config = EmpiricalConfig(problem=wave, grid=small_grid, rule=rule_120,
                                 t_final=2.0, schedule=lambda i: "shuffle")
        with pytest.raises(ValueError):
            run_schedule(config)

    def test_plan_rejects_before_sampling(self, wave, small_grid, rule_120,
                                          monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the plan was checked")

        # the wave samples through AdvectionSpectrum, the reaction problem
        # through solve_ensemble
        monkeypatch.setattr(driver, "solve_ensemble", no_sampling)
        monkeypatch.setattr(driver, "AdvectionSpectrum", no_sampling)
        config = EmpiricalConfig(problem=wave, grid=small_grid, rule=rule_120,
                                 t_final=3.0,
                                 schedule=lambda i: "shuffle" if i == 2 else HOLD)
        with pytest.raises(ValueError, match="unknown action"):
            run_schedule(config)


class TestWindowPlan:
    def test_evolve_windows_split_into_two_output_substeps(self, wave, small_grid,
                                                           rule_120):
        config = EmpiricalConfig(problem=wave, grid=small_grid, rule=rule_120,
                                 window_length=1.0, t_final=2.5,
                                 schedule=alternating_schedule)
        plan = window_plan(config)
        # driver.EVOLVE_SUBSTEP = 0.1 splits the evolve window in ten
        assert [action for action, _ in plan] == [RESAMPLE] + [EVOLVE] * 10 + [RESAMPLE]
        assert len(plan[0][1].output_times) == 11
        assert all(len(window.output_times) == 2 for _, window in plan[1:11])
        assert plan[-1][1].start == pytest.approx(2.0)
        assert plan[-1][1].end == pytest.approx(2.5)
        for (_, prev), (_, nxt) in zip(plan, plan[1:]):
            assert nxt.start == prev.end


class TestRunEmpiricalChaos:
    def test_archive_covers_horizon_contiguously(self, wave, rule_120):
        grid = SpatialGrid(64)
        config = EmpiricalConfig(problem=wave, grid=grid, rule=rule_120,
                                 window_length=1.0, t_final=3.5)
        archive, timings = run_schedule(config)
        windows = [record.window for record in archive.records]
        assert windows[0].start == pytest.approx(0.0)
        assert windows[-1].end == pytest.approx(3.5)
        for prev, nxt in zip(windows, windows[1:]):
            assert nxt.start == pytest.approx(prev.end)

    def test_accurate_against_exact_statistic(self, wave, rule_120):
        grid = SpatialGrid(128)
        config = EmpiricalConfig(problem=wave, grid=grid, rule=rule_120,
                                 window_length=1.0, t_final=5.0)
        archive, _ = run_schedule(config)
        times, values = archive.statistic_series(0)
        exact = wave_exact_mean_square(times)
        assert np.max(np.abs(values - exact)) < 1e-3

    def test_timings_cover_resample_stages(self, wave, rule_120):
        grid = SpatialGrid(64)
        config = EmpiricalConfig(problem=wave, grid=grid, rule=rule_120,
                                 window_length=1.0, t_final=2.0)
        _, timings = run_schedule(config)
        for stage in ("sampling", "svd", "change_of_basis", "assembly",
                      "propagation"):
            assert getattr(timings, stage) > 0.0
        assert timings.basis_evolution == 0.0

    def test_basis_cap_enforced(self, wave, rule_120):
        grid = SpatialGrid(64)
        config = EmpiricalConfig(problem=wave, grid=grid, rule=rule_120,
                                 window_length=1.0, t_final=2.0, basis_cap=2)
        archive, _ = run_schedule(config)
        assert np.all(archive.basis_counts() <= 2)

    def test_reaction_problem_runs(self, advection_reaction, rule_300):
        grid = SpatialGrid(64)
        config = EmpiricalConfig(problem=advection_reaction, grid=grid,
                                 rule=rule_300, window_length=2.0, t_final=4.0,
                                 outputs_per_window=6)
        archive, _ = run_schedule(config)
        times, values = archive.statistic_series(0)
        assert times[0] == pytest.approx(0.0)
        assert values[0] == pytest.approx(6.25, abs=1e-8)
        assert np.all(np.isfinite(values))


class TestRunSchedule:
    def test_hold_keeps_basis_between_windows(self, wave, rule_120):
        grid = SpatialGrid(64)
        config = EmpiricalConfig(problem=wave, grid=grid, rule=rule_120,
                                 window_length=1.0, t_final=2.0,
                                 schedule=lambda i: HOLD if i else RESAMPLE)
        archive, timings = run_schedule(config)
        first, second = archive.records[0], archive.records[1]
        assert second.basis is first.basis
        assert timings.sampling > 0.0

    def test_evolve_records_substeps(self, wave, rule_120):
        grid = SpatialGrid(64)
        config = EmpiricalConfig(problem=wave, grid=grid, rule=rule_120,
                                 window_length=1.0, t_final=2.0,
                                 schedule=alternating_schedule)
        archive, timings = run_schedule(config)
        # one full resample window plus ten evolve sub-windows of EVOLVE_SUBSTEP
        assert len(archive.records) == 11
        assert timings.basis_evolution > 0.0
        assert archive.records[-1].window.end == pytest.approx(2.0)

    def test_seam_is_projection_of_incoming_field(self, wave):
        # at a seam the new coefficients are the L2(rho) projection of the
        # previous window's final field: M_new^-1 (V_new^T W V_old) c_old
        rule = trapezoid_rule(chebyshev_nodes(20))
        config = EmpiricalConfig(problem=wave, grid=SpatialGrid(32), rule=rule,
                                 window_length=1.0, t_final=3.0,
                                 schedule=alternating_schedule)
        records = run_schedule(config)[0].records
        actions = [action for action, _ in window_plan(config)]
        evolve_seam = actions.index(EVOLVE)
        resample_seam = actions.index(RESAMPLE, evolve_seam)
        weighted = rule.weights[:, None]
        for index in (evolve_seam, resample_seam):
            old, new = records[index - 1], records[index]
            assert new.basis is not old.basis
            v_old, v_new = old.basis.values, new.basis.values
            expected = np.linalg.solve(v_new.T @ (weighted * v_new),
                                       v_new.T @ (weighted * v_old)
                                       @ old.coefficients[-1])
            np.testing.assert_allclose(new.coefficients[0], expected,
                                       rtol=0.0, atol=1e-12)

    def test_wave_resamples_without_solve_ensemble(self, wave, advection_reaction, rule_120,
                                                   monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args[0])
            return solve_ensemble(*args, **kwargs)
        monkeypatch.setattr(driver, "solve_ensemble", spy)
        config = EmpiricalConfig(problem=wave, grid=SpatialGrid(64), rule=rule_120,
                                 t_final=3.0)
        archive, timings = run_schedule(config)
        assert calls == [] and len(archive.records) == 3
        assert timings.sampling > 0.0 and timings.svd > 0.0
        run_schedule(dataclasses.replace(config, problem=advection_reaction))
        assert calls == [advection_reaction] * 3

    @pytest.mark.parametrize("scale", [1e200, np.inf], ids=["huge", "inf"])
    def test_wave_overflow_diverges(self, rule_120, scale):
        # an ensemble whose energy overflows has diverged (exit 2), it is not
        # a degenerate POD input (exit 1)
        problem = PdeProblem(kind="Wave", initial_condition=lambda x: scale * np.cos(x))
        config = EmpiricalConfig(problem=problem, grid=SpatialGrid(64), rule=rule_120,
                                 t_start=2.0, t_final=3.0)
        with pytest.raises(IntegrationDiverged) as info, np.errstate(all="ignore"):
            run_schedule(config)
        assert info.value.time in window_plan(config)[0][1].output_times

    def test_evolve_rejected_for_reaction(self, advection_reaction, rule_300):
        grid = SpatialGrid(64)
        config = EmpiricalConfig(problem=advection_reaction, grid=grid,
                                 rule=rule_300, window_length=1.0, t_final=2.0,
                                 schedule=alternating_schedule)
        with pytest.raises(ValueError):
            run_schedule(config)

    def test_zero_reaction_is_solved_as_pure_advection(self, rule_120):
        def shifted_cosine(x):
            return np.cos(x) + 1.5

        config = EmpiricalConfig(
            problem=PdeProblem(kind="AdvectionReaction", initial_condition=shifted_cosine),
            grid=SpatialGrid(128), rule=rule_120, window_length=1.0, t_final=3.0)
        archive, _ = run_schedule(config)
        advection = PdeProblem(kind="Wave", initial_condition=shifted_cosine)
        reference, _ = run_schedule(dataclasses.replace(config, problem=advection))
        times, values = archive.statistic_series(0)
        np.testing.assert_array_equal(values, reference.statistic_series(0)[1])
        assert [record.reaction_points for record in archive.records] == [0, 0, 0]
        # u = cos(xi t) + 1.5 at x = 0
        exact = wave_exact_mean_square(times) + 3.0 * wave_exact_mean(times) + 2.25
        assert np.max(np.abs(values - exact)) < 2e-3


def independent_point_counts(config, records):
    """Reaction point count of each resample window, from a direct SVD of the
    reaction of its samples: the singular values down to 1e-8 of the largest,
    and at least the window's basis size."""
    grid, rule, problem = config.grid, config.rule, config.problem
    u_nodes = np.broadcast_to(problem.initial_condition(grid.points),
                              (len(rule), grid.point_count))
    counts = []
    for index, record in enumerate(records):
        if index:
            previous = records[index - 1]
            u_nodes = previous.basis.values @ previous.coefficients[-1]
        states = solve_ensemble(problem, rule.nodes, u_nodes, record.window, grid)
        snapshots = problem.reaction(states).transpose(1, 0, 2).reshape(len(rule), -1)
        sigma = np.linalg.svd(snapshots, compute_uv=False)
        counts.append(max(record.basis.size, int(np.sum(sigma >= 1e-8 * sigma[0]))))
    return counts


class TestReactionPoints:
    def test_manifest_counts_match_reaction_svd(self, tmp_path):
        run = cli.ExperimentConfig(problem="advection-reaction", grid_size=32,
                                   node_count=60, window_length=1.0, t_final=3.0,
                                   outputs_per_window=6, output_dir=str(tmp_path))
        assert cli.run_experiment(run) == 0
        counts = json.loads((tmp_path / "manifest.json").read_text())["reaction_points"]
        config = cli._empirical_config(run)
        records = run_schedule(config)[0].records
        assert counts == [record.reaction_points for record in records]
        assert counts == independent_point_counts(config, records)
        assert len(counts) == 3 and all(0 < count < 60 for count in counts)

    def test_close_to_the_full_projection(self, advection_reaction, monkeypatch):
        config = EmpiricalConfig(problem=advection_reaction, grid=SpatialGrid(32),
                                 rule=trapezoid_rule(chebyshev_nodes(60)),
                                 window_length=1.0, t_final=3.0, outputs_per_window=6)
        _, reduced = run_schedule(config)[0].statistic_series(0)
        # every node, lifted by the identity: the quadrature projection
        monkeypatch.setattr(driver, "_reaction_interpolation",
                            lambda problem, trajectories, rule, least:
                            (np.arange(len(rule)), np.eye(len(rule))))
        _, full = run_schedule(config)[0].statistic_series(0)
        assert np.max(np.abs(reduced - full)) <= 1e-8 * np.max(np.abs(full))

    def test_at_least_the_basis_size(self, advection_reaction):
        # a 1e-12 basis threshold keeps more directions than the 1e-8 reaction tail
        config = EmpiricalConfig(problem=advection_reaction, grid=SpatialGrid(32),
                                 rule=trapezoid_rule(chebyshev_nodes(60)),
                                 window_length=1.0, t_final=3.0, outputs_per_window=6,
                                 threshold=1e-12)
        records = run_schedule(config)[0].records
        counts = [record.reaction_points for record in records]
        assert counts == [record.basis.size for record in records]
        assert counts == independent_point_counts(config, records)

    def test_hold_keeps_the_points(self, advection_reaction):
        config = EmpiricalConfig(problem=advection_reaction, grid=SpatialGrid(32),
                                 rule=trapezoid_rule(chebyshev_nodes(60)),
                                 window_length=1.0, t_final=3.0, outputs_per_window=6,
                                 schedule=lambda i: HOLD if i == 1 else RESAMPLE)
        records = run_schedule(config)[0].records
        first, held, last = independent_point_counts(config, records)
        assert [record.reaction_points for record in records] == [first, first, last]
