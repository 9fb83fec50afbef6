import os
import tracemalloc

import numpy as np
import pytest

from empchaos import montecarlo
from empchaos.montecarlo import McConfig, mc_statistics
from empchaos.pde_core import (
    PdeProblem,
    SpatialGrid,
    TimeWindow,
    solve_ensemble,
    wave_exact_mean_square,
)


class TestMcConfigValidation:
    def test_rejects_zero_samples(self, wave, small_grid):
        with pytest.raises(ValueError):
            McConfig(problem=wave, grid=small_grid, window=TimeWindow(0.0, 1.0),
                     sample_count=0)

    def test_rejects_bad_chunk_size(self, wave, small_grid):
        with pytest.raises(ValueError):
            McConfig(problem=wave, grid=small_grid, window=TimeWindow(0.0, 1.0),
                     chunk_size=0)


class TestStatistics:
    def test_single_forced_sample_equals_trajectory(self, wave, small_grid, monkeypatch):
        # the samples are drawn before any worker forks, so the patch reaches them
        monkeypatch.setattr(montecarlo, "_draw_samples", lambda config: np.array([0.0]))
        window = TimeWindow.with_uniform_outputs(0.0, 1.0, 5)
        config = McConfig(problem=wave, grid=small_grid, window=window,
                          sample_count=1, step=1e-2)
        result = mc_statistics(config)
        direct = solve_ensemble(wave, [0.0], np.cos(small_grid.points), window,
                                small_grid, step=1e-2)[:, 0]
        np.testing.assert_array_equal(result.mean, direct)
        np.testing.assert_array_equal(result.mean_square, direct**2)
        np.testing.assert_allclose(result.stderr_mean, 0.0, atol=1e-14)

    def test_deterministic_ic_mean_square(self, advection_reaction, small_grid):
        window = TimeWindow.with_uniform_outputs(0.0, 0.5, 2)
        config = McConfig(problem=advection_reaction, grid=small_grid,
                          window=window, sample_count=37, seed=5)
        result = mc_statistics(config)
        assert result.mean_square[0, 0] == pytest.approx(6.25, abs=1e-12)

    def test_wave_statistics_within_standard_errors(self, wave):
        grid = SpatialGrid(64)
        window = TimeWindow.with_uniform_outputs(0.0, 5.0, 11)
        config = McConfig(problem=wave, grid=grid, window=window,
                          sample_count=4000, seed=11)
        result = mc_statistics(config)
        times, values, stderr = result.series(0)
        exact = wave_exact_mean_square(times)
        # skip t=0 where the statistic is deterministic and stderr is 0
        sigmas = np.abs(values[1:] - exact[1:]) / stderr[1:]
        assert np.max(sigmas) <= 4.0


class TestReproducibility:
    def test_identical_seeds_bit_identical(self, wave, small_grid):
        window = TimeWindow.with_uniform_outputs(0.0, 1.0, 3)
        config = McConfig(problem=wave, grid=small_grid, window=window,
                          sample_count=200, seed=42)
        a = mc_statistics(config)
        b = mc_statistics(config)
        np.testing.assert_array_equal(a.mean, b.mean)
        np.testing.assert_array_equal(a.mean_square, b.mean_square)
        np.testing.assert_array_equal(a.stderr_mean_square, b.stderr_mean_square)

    def test_chunking_does_not_change_results(self, wave, small_grid):
        window = TimeWindow.with_uniform_outputs(0.0, 1.0, 3)
        base = dict(problem=wave, grid=small_grid, window=window,
                    sample_count=100, seed=7, step=1e-2)
        small_chunks = mc_statistics(McConfig(chunk_size=7, **base))
        one_chunk = mc_statistics(McConfig(chunk_size=100, **base))
        np.testing.assert_allclose(small_chunks.mean, one_chunk.mean, atol=1e-13)
        np.testing.assert_allclose(small_chunks.mean_square, one_chunk.mean_square,
                                   atol=1e-13)

    def test_different_seeds_differ(self, wave, small_grid):
        window = TimeWindow.with_uniform_outputs(0.0, 1.0, 3)
        a = mc_statistics(McConfig(problem=wave, grid=small_grid, window=window,
                                   sample_count=50, seed=1))
        b = mc_statistics(McConfig(problem=wave, grid=small_grid, window=window,
                                   sample_count=50, seed=2))
        assert not np.array_equal(a.mean, b.mean)


class TestStandardErrorScaling:
    def test_stderr_shrinks_as_root_n(self, wave):
        grid = SpatialGrid(32)
        window = TimeWindow.with_uniform_outputs(0.0, 2.0, 3)
        small = mc_statistics(McConfig(problem=wave, grid=grid, window=window,
                                       sample_count=1000, seed=3))
        large = mc_statistics(McConfig(problem=wave, grid=grid, window=window,
                                       sample_count=4000, seed=3))
        ratio = small.stderr_mean_square[-1, 0] / large.stderr_mean_square[-1, 0]
        assert ratio == pytest.approx(2.0, rel=0.2)


class TestDivergenceHandling:
    def test_all_diverged_raises_after_warning(self, small_grid):
        # cubic growth blows up quickly for every sample
        blower = PdeProblem(initial_condition=lambda x: np.cos(x) + 1.5,
                            reaction_coefficient=1.0, reaction_exponent=3.0)
        window = TimeWindow(0.0, 5.0)
        config = McConfig(problem=blower, grid=small_grid, window=window,
                          sample_count=4, seed=0, step=1e-2)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.warns(RuntimeWarning), pytest.raises(RuntimeError):
                mc_statistics(config)

    def test_series_accessor_validates_statistic(self, wave, small_grid):
        window = TimeWindow.with_uniform_outputs(0.0, 1.0, 3)
        result = mc_statistics(McConfig(problem=wave, grid=small_grid,
                                        window=window, sample_count=10, seed=0))
        with pytest.raises(ValueError):
            result.series(0, "variance")


class TestStableMoments:
    # u = cos + 1e6: raw power sums of u^2 cancel every digit of its variance,
    # the merged (count, mean, M2) keep them
    @pytest.mark.parametrize("coefficient,grid_size,samples,chunk", [
        (0.0, 32, 400, 100),
        # at M = 64 the reaction kernel marches 512-sample blocks: each chunk
        # merges a full and a ragged block
        (0.1, 64, 1200, 600),
    ], ids=["wave", "reaction-blocks"])
    def test_matches_two_pass_at_large_offset(self, coefficient, grid_size, samples, chunk):
        problem = PdeProblem(initial_condition=lambda x: np.cos(x) + 1e6,
                             reaction_coefficient=coefficient)
        grid = SpatialGrid(grid_size)
        window = TimeWindow.with_uniform_outputs(0.0, 1.0, 3)
        result = mc_statistics(McConfig(problem=problem, grid=grid, window=window,
                                        sample_count=samples, seed=8, step=1e-2,
                                        chunk_size=chunk))
        rng = np.random.Generator(np.random.Philox(8))
        states = solve_ensemble(problem, rng.uniform(-1.0, 1.0, samples),
                                np.cos(grid.points) + 1e6, window, grid, step=1e-2)
        np.testing.assert_allclose(result.mean, states.mean(axis=1), rtol=1e-13)
        np.testing.assert_allclose(result.mean_square, (states**2).mean(axis=1), rtol=1e-13)
        # t = 0 is deterministic: both sides are roundoff there
        for stderr, values in ((result.stderr_mean, states),
                               (result.stderr_mean_square, states**2)):
            two_pass = np.sqrt(np.var(values, axis=1) / samples)
            np.testing.assert_allclose(stderr[1:], two_pass[1:], rtol=1e-6)


class TestWorkerProcesses:
    # a lambda initial condition cannot be pickled: the workers must receive
    # the initial state as an array
    @pytest.mark.parametrize("problem", [
        PdeProblem(np.cos),
        PdeProblem(initial_condition=lambda x: np.sin(x) + 2.0, reaction_coefficient=0.1),
    ], ids=["wave", "lambda-reaction"])
    def test_pool_bit_identical_to_in_process(self, problem, monkeypatch):
        config = McConfig(problem=problem, grid=SpatialGrid(32),
                          window=TimeWindow.with_uniform_outputs(0.0, 1.0, 5),
                          sample_count=700, seed=3, chunk_size=200)
        results = {}
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            results[cpus] = mc_statistics(config)
        assert (results[1].workers, results[2].workers) == (1, 2)
        for name in ("mean", "mean_square", "stderr_mean", "stderr_mean_square"):
            np.testing.assert_array_equal(getattr(results[1], name),
                                          getattr(results[2], name))
        assert results[1].sample_count == results[2].sample_count == 700

    def test_single_chunk_bit_identical_on_one_and_two_cpus(self, advection_reaction,
                                                            monkeypatch):
        # one chunk in this process: at M = 32 its 2,500 samples are 3 blocks
        config = McConfig(problem=advection_reaction, grid=SpatialGrid(32),
                          window=TimeWindow.with_uniform_outputs(0.0, 0.5, 3),
                          sample_count=2500, seed=5, step=1e-2)
        results = {}
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            results[cpus] = mc_statistics(config)
        assert results[1].workers == results[2].workers == 1
        for name in ("mean", "mean_square", "stderr_mean", "stderr_mean_square"):
            np.testing.assert_array_equal(getattr(results[1], name),
                                          getattr(results[2], name))

    @pytest.mark.parametrize("coefficient", [0.0, 0.1], ids=["Wave", "AdvectionReaction"])
    def test_nan_sample_left_out_of_every_row(self, coefficient, monkeypatch):
        # a NaN speed leaves t = 0 finite and every later output non-finite
        problem = PdeProblem(initial_condition=lambda x: np.cos(x) + 1.5,
                             reaction_coefficient=coefficient)
        xi = np.random.default_rng(4).uniform(-1.0, 1.0, 300)
        base = dict(problem=problem, grid=SpatialGrid(32),
                    window=TimeWindow.with_uniform_outputs(0.0, 1.0, 5), step=1e-2,
                    chunk_size=100)
        monkeypatch.setattr(montecarlo, "_draw_samples",
                            lambda config: np.insert(xi, 150, np.nan))
        with pytest.warns(RuntimeWarning, match="excluded 1 diverged"):
            dropped = mc_statistics(McConfig(sample_count=301, **base))
        monkeypatch.setattr(montecarlo, "_draw_samples", lambda config: xi)
        clean = mc_statistics(McConfig(sample_count=300, **base))
        assert (dropped.sample_count, dropped.diverged_count) == (300, 1)
        for name in ("mean", "mean_square", "stderr_mean", "stderr_mean_square"):
            np.testing.assert_allclose(getattr(dropped, name), getattr(clean, name),
                                       rtol=0, atol=1e-13)


class TestMemory:
    def test_in_process_path_holds_no_output_block(self, advection_reaction):
        # 201 outputs x 1000 samples x 64 points: a 103 MB block if it were held
        config = McConfig(problem=advection_reaction, grid=SpatialGrid(64),
                          window=TimeWindow.with_uniform_outputs(0.0, 2.0, 201),
                          sample_count=1000, seed=0, step=1e-2, chunk_size=1000)
        block = 201 * 1000 * 64 * 8
        tracemalloc.start()
        try:
            result = mc_statistics(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * block
        assert result.workers == 1 and result.sample_count == 1000
