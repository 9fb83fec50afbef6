import numpy as np
import pytest
from scipy.linalg import expm

from empchaos import basis_evolution, driver
from empchaos.basis_evolution import (
    CONDITION_LIMIT,
    SingularBlock,
    SpatialGalerkinPair,
    block_decompose,
    evolve_basis,
    spatial_pair,
)
from empchaos.pde_core import (
    SpatialGrid,
    TimeWindow,
    solve_ensemble,
    wave_exact_mean_square,
)
from empchaos.pod import BasisSet, truncate_pod


def sampled_basis(problem, rule, grid, window, threshold=1e-4):
    u0 = problem.initial_condition(grid.points)
    states = solve_ensemble(problem, rule.nodes, u0, window, grid)
    return truncate_pod(states, threshold, rule)


class TestSpatialPair:
    def test_cosine_gram_entry(self):
        grid = SpatialGrid(256)
        pair = spatial_pair(np.cos(grid.points)[None, :], grid)
        assert pair.gram[0, 0] == pytest.approx(np.pi, abs=1e-3)

    def test_cosine_advect_entry_vanishes(self):
        grid = SpatialGrid(256)
        pair = spatial_pair(np.cos(grid.points)[None, :], grid)
        assert abs(pair.advect[0, 0]) < 1e-10

    def test_cos_sin_advect_pair(self):
        grid = SpatialGrid(256)
        funcs = np.vstack([np.cos(grid.points), np.sin(grid.points)])
        pair = spatial_pair(funcs, grid)
        # advect[j, i] = integral of d(u^i)/dx * u^j
        assert pair.advect[1, 0] == pytest.approx(-np.pi, abs=1e-3)
        assert pair.advect[0, 1] == pytest.approx(np.pi, abs=1e-3)

    def test_gram_symmetric_advect_antisymmetric(self, wave, rule_120):
        grid = SpatialGrid(128)
        window = TimeWindow.with_uniform_outputs(0.0, 1.0, 11)
        basis = sampled_basis(wave, rule_120, grid, window)
        funcs = np.random.default_rng(0).normal(size=(basis.size, 128))
        pair = spatial_pair(funcs, grid)
        np.testing.assert_allclose(pair.gram, pair.gram.T, atol=1e-12)
        np.testing.assert_allclose(pair.advect, -pair.advect.T, atol=1e-10)

    def test_rejects_wrong_grid_size(self):
        with pytest.raises(ValueError):
            spatial_pair(np.ones((2, 10)), SpatialGrid(32))


class TestBlockDecompose:
    def test_well_conditioned_single_block(self):
        pair = SpatialGalerkinPair(gram=np.eye(5), advect=np.zeros((5, 5)))
        assert block_decompose(pair) == [(0, 5)]

    def test_degenerate_middle_entry_isolated(self):
        gram = np.diag([1.0, 1e-30, 1.0])
        pair = SpatialGalerkinPair(gram=gram, advect=np.zeros((3, 3)))
        blocks = block_decompose(pair)
        assert blocks[0] == (0, 1)
        starts = [a for a, _ in blocks]
        ends = [b for _, b in blocks]
        assert starts[0] == 0 and ends[-1] == 3
        assert all(e == s for s, e in zip(starts[1:], ends[:-1]))

    def test_zero_diagonal_raises(self):
        gram = np.diag([1.0, 0.0, 1.0])
        pair = SpatialGalerkinPair(gram=gram, advect=np.zeros((3, 3)))
        with pytest.raises(SingularBlock):
            block_decompose(pair)

    def test_partition_property(self, wave, rule_120):
        grid = SpatialGrid(64)
        window = TimeWindow.with_uniform_outputs(0.0, 1.0, 6)
        basis = sampled_basis(wave, rule_120, grid, window)
        funcs = np.random.default_rng(1).normal(size=(basis.size, 64))
        blocks = block_decompose(spatial_pair(funcs, grid))
        covered = [i for a, b in blocks for i in range(a, b)]
        assert covered == list(range(basis.size))


def cond_split(gram):
    """The greedy split by ``np.linalg.cond``: each block grows from size 1
    while its leading submatrix's condition number is finite and below the
    limit, and a block that cannot hold even its first index must start at a
    nonzero diagonal entry."""
    blocks, start = [], 0
    while start < len(gram):
        size = 0
        for trial in range(1, len(gram) - start + 1):
            cond = np.linalg.cond(gram[start:start + trial, start:start + trial])
            if not (np.isfinite(cond) and cond < CONDITION_LIMIT):
                break
            size = trial
        if size == 0:
            if gram[start, start] == 0.0:
                raise SingularBlock(f"zero diagonal entry at index {start}")
            size = 1
        blocks.append((start, start + size))
        start += size
    return blocks


def split_outcome(split, gram):
    """The blocks of ``split(gram)``, or the type of the exception it raises."""
    try:
        return split(gram)
    except (SingularBlock, np.linalg.LinAlgError) as exc:
        return type(exc)


def alternating_run_pairs(problem, rule, monkeypatch):
    """Every pair that ``block_decompose`` splits in a short alternating wave run."""
    pairs = []
    decompose = basis_evolution.block_decompose

    def recording(pair):
        pairs.append(pair)
        return decompose(pair)

    monkeypatch.setattr(basis_evolution, "block_decompose", recording)
    driver.run_schedule(driver.EmpiricalConfig(
        problem=problem, grid=SpatialGrid(32), rule=rule, window_length=1.0,
        t_final=4.0, schedule=driver.alternating_schedule))
    monkeypatch.undo()
    return pairs


class TestBlockSplitMatchesCondition:
    def test_alternating_run_grams(self, wave, rule_120, monkeypatch):
        pairs = alternating_run_pairs(wave, rule_120, monkeypatch)
        assert pairs and any(len(block_decompose(pair)) > 1 for pair in pairs)
        for pair in pairs:
            assert block_decompose(pair) == cond_split(pair.gram)

    def test_random_rank_two_grams(self):
        rng = np.random.default_rng(7)
        for n in range(2, 12):
            for _ in range(5):
                factor = rng.normal(size=(n, 2)) * rng.uniform(1e-9, 1e3, size=2)
                gram = factor @ factor.T
                pair = SpatialGalerkinPair(gram=gram, advect=np.zeros((n, n)))
                expected = split_outcome(cond_split, gram)
                assert split_outcome(block_decompose, pair) == expected

    def test_nan_diagonal_gram(self, wave, rule_120, monkeypatch):
        pair = max(alternating_run_pairs(wave, rule_120, monkeypatch), key=lambda p: p.size)
        for index in (0, pair.size // 2, pair.size - 1):
            gram = pair.gram.copy()
            gram[index, index] = np.nan
            nan_pair = SpatialGalerkinPair(gram=gram, advect=pair.advect)
            expected = split_outcome(cond_split, gram)
            assert expected == np.linalg.LinAlgError
            assert split_outcome(block_decompose, nan_pair) == expected


class TestEvolveBasis:
    def test_zero_dt_unchanged(self, wave, rule_120):
        grid = SpatialGrid(64)
        window = TimeWindow.with_uniform_outputs(0.0, 1.0, 6)
        basis = sampled_basis(wave, rule_120, grid, window)
        pair = spatial_pair(np.random.default_rng(2).normal(size=(basis.size, 64)),
                            grid)
        evolved = evolve_basis(basis, pair, 0.0)
        np.testing.assert_array_equal(evolved.values, basis.values)

    def test_rotation_block_exponential(self, rule_120):
        # gram g*I and advect [[0, a], [-a, 0]] rotate each node's coefficients
        # by xi * dt * a / g
        g, a, dt = 2.0, 0.7, 0.3
        basis = BasisSet(values=np.tile([1.0, 2.0], (120, 1)), rule=rule_120)
        pair = SpatialGalerkinPair(gram=g * np.eye(2),
                                   advect=np.array([[0.0, a], [-a, 0.0]]))
        evolved = evolve_basis(basis, pair, dt)
        theta = rule_120.nodes * dt * a / g
        expected = np.column_stack([np.cos(theta) + 2.0 * np.sin(theta),
                                    2.0 * np.cos(theta) - np.sin(theta)])
        np.testing.assert_allclose(evolved.values, expected, rtol=0.0, atol=1e-13)

    def test_matches_per_node_expm(self, wave, rule_120, monkeypatch):
        # the pair of a real evolve window, split into several blocks
        calls = []
        evolve = basis_evolution.evolve_basis

        def recording(basis, pair, dt):
            calls.append((basis, pair, dt))
            return evolve(basis, pair, dt)

        monkeypatch.setattr(basis_evolution, "evolve_basis", recording)
        driver.run_schedule(driver.EmpiricalConfig(
            problem=wave, grid=SpatialGrid(32), rule=rule_120, window_length=1.0,
            t_final=2.0, schedule=driver.alternating_schedule))
        basis, pair, dt = calls[0]
        blocks = block_decompose(pair)
        assert len(blocks) > 1
        expected = basis.values.copy()
        for a, b in blocks:
            generator = np.linalg.solve(pair.gram[a:b, a:b], pair.advect[a:b, a:b])
            for l, xi in enumerate(rule_120.nodes):
                expected[l, a:b] = basis.values[l, a:b] @ expm(xi * dt * generator).T
        evolved = evolve_basis(basis, pair, dt)
        scale = np.abs(expected).max()
        np.testing.assert_allclose(evolved.values, expected, rtol=0.0,
                                   atol=1e-13 * scale)

    def test_indefinite_gram_raises(self, rule_120):
        basis = BasisSet(values=np.ones((120, 2)), rule=rule_120)
        pair = SpatialGalerkinPair(gram=np.diag([1.0, -1.0]),
                                   advect=np.array([[0.0, 1.0], [-1.0, 0.0]]))
        with pytest.raises(SingularBlock, match="not positive definite"):
            evolve_basis(basis, pair, 0.1)

    def test_semigroup_property(self, wave, rule_120):
        # exp(xi G t1) exp(xi G t2) = exp(xi G (t1 + t2)) for a frozen pair
        grid = SpatialGrid(64)
        window = TimeWindow.with_uniform_outputs(0.0, 1.0, 6)
        basis = sampled_basis(wave, rule_120, grid, window)
        field = np.random.default_rng(3).normal(size=(basis.size, 64))
        pair = spatial_pair(field, grid)
        two_steps = evolve_basis(evolve_basis(basis, pair, 0.04), pair, 0.06)
        one_step = evolve_basis(basis, pair, 0.1)
        np.testing.assert_allclose(two_steps.values, one_step.values, atol=1e-8)

    def test_rejects_negative_dt(self, rule_120):
        basis = BasisSet(values=np.ones((120, 1)), rule=rule_120)
        pair = SpatialGalerkinPair(gram=np.array([[1.0]]), advect=np.array([[0.0]]))
        with pytest.raises(ValueError):
            evolve_basis(basis, pair, -0.1)

    def test_rejects_size_mismatch(self, rule_120):
        basis = BasisSet(values=np.ones((120, 1)), rule=rule_120)
        pair = SpatialGalerkinPair(gram=np.eye(2), advect=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            evolve_basis(basis, pair, 0.1)

    def test_subspace_tracks_fresh_pod_for_small_dt(self, wave, rule_120):
        # the evolved span drifts from a freshly sampled POD span as dt grows
        grid = SpatialGrid(128)
        window = TimeWindow.with_uniform_outputs(0.0, 1.0, 11)
        basis = sampled_basis(wave, rule_120, grid, window)
        u_final = solve_ensemble(wave, rule_120.nodes, np.cos(grid.points),
                                 window, grid)[-1]
        from empchaos.galerkin import assemble_matrices, project_node_values
        matrices = assemble_matrices(basis)
        field = project_node_values(u_final, basis, matrices)
        pair = spatial_pair(field, grid)

        def principal_gap(dt):
            evolved = evolve_basis(basis, pair, dt)
            q_e = np.linalg.qr(evolved.values)[0]
            shifted = TimeWindow.with_uniform_outputs(1.0, 1.0 + dt, 3)
            states = solve_ensemble(wave, rule_120.nodes, u_final, shifted, grid,
                                    step=1e-3)
            fresh = truncate_pod(states, 1e-4, rule_120)
            q_f = np.linalg.qr(fresh.values)[0]
            cosines = np.linalg.svd(q_e.T @ q_f, compute_uv=False)
            return float(np.arccos(np.clip(cosines.min(), -1.0, 1.0)))

        gaps = [principal_gap(dt) for dt in (0.2, 0.1, 0.05)]
        assert gaps[0] >= gaps[1] >= gaps[2]


class TestRunAlgorithm1:
    """Algorithm 1 of the paper: empirical chaos with scheduled basis evolution."""

    def test_evolve_rejected_for_reaction_problem(self, advection_reaction,
                                                  rule_300):
        config = driver.EmpiricalConfig(
            problem=advection_reaction, grid=SpatialGrid(64), rule=rule_300,
            window_length=1.0, t_final=3.0, schedule=driver.alternating_schedule)
        with pytest.raises(ValueError):
            driver.run_schedule(config)

    def test_alternating_schedule_stays_accurate(self, wave, rule_120):
        config = driver.EmpiricalConfig(
            problem=wave, grid=SpatialGrid(128), rule=rule_120,
            window_length=1.0, t_final=6.0, schedule=driver.alternating_schedule)
        archive, timings = driver.run_schedule(config)
        times, values = archive.statistic_series(0)
        exact = wave_exact_mean_square(times)
        assert np.max(np.abs(values - exact)) < 1e-2
        assert timings.basis_evolution > 0.0
