import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from empchaos import pod
from empchaos.pde_core import SpatialGrid, TimeWindow, solve_ensemble
from empchaos.pod import (
    TrajectoryMatrix,
    assemble_trajectory_matrix,
    projection_residual,
    truncate_pod,
)
from empchaos.random_space import chebyshev_nodes, trapezoid_rule


def small_rule(count):
    return trapezoid_rule(chebyshev_nodes(count))


def sampled_matrix(problem, grid_size, rule):
    grid = SpatialGrid(grid_size)
    window = TimeWindow.with_uniform_outputs(0.0, 1.0, 11)
    states = solve_ensemble(problem, rule.nodes, problem.initial_condition(grid.points),
                            window, grid)
    return assemble_trajectory_matrix(states.transpose(1, 0, 2))


def assert_matches_direct_svd(matrix, threshold, rule):
    """truncate_pod against an SVD of the whole trajectory matrix."""
    basis = truncate_pod(matrix, threshold, rule)
    _, sigma, vt = scipy.linalg.svd(matrix.entries, full_matrices=False)
    assert basis.singular_values.shape == sigma.shape
    np.testing.assert_allclose(basis.singular_values, sigma, rtol=0, atol=1e-12 * sigma[0])
    assert basis.size == max(1, np.count_nonzero(sigma / sigma[0] >= threshold))
    expected = vt[:basis.size].T
    np.testing.assert_allclose(basis.values @ basis.values.T, expected @ expected.T,
                               rtol=0, atol=1e-10)
    return basis, sigma


class TestAssembleTrajectoryMatrix:
    def test_single_solution_single_column(self):
        solution = np.arange(12.0).reshape(1, 3, 4)  # (K=1, N_t=3, M=4)
        matrix = assemble_trajectory_matrix(solution)
        assert matrix.entries.shape == (12, 1)
        # row = i*N_t + j holds u(x_i, t_j)
        for i in range(4):
            for j in range(3):
                assert matrix.entries[i * 3 + j, 0] == solution[0, j, i]

    def test_identical_solutions_rank_one(self):
        base = np.random.default_rng(0).normal(size=(1, 4, 6))
        matrix = assemble_trajectory_matrix(np.concatenate([base, base]))
        np.testing.assert_array_equal(matrix.entries[:, 0], matrix.entries[:, 1])
        assert np.linalg.matrix_rank(matrix.entries) == 1

    def test_deterministic_ic_columns_identical(self, wave):
        grid = SpatialGrid(32)
        xis = np.array([-1.0, 0.0, 1.0])
        u0 = np.cos(grid.points)
        states = solve_ensemble(wave, xis, u0, TimeWindow(0.0, 1.0, (0.0,)), grid,
                                step=1e-2)
        matrix = assemble_trajectory_matrix(states.transpose(1, 0, 2))
        for col in range(3):
            # at t = 0 every column is the initial condition, x-major rows
            np.testing.assert_allclose(matrix.entries[:, col], u0)

    def test_rejects_ragged_input(self):
        with pytest.raises(ValueError):
            assemble_trajectory_matrix([np.zeros((3, 4)), np.zeros((2, 4))])


class TestTruncatePod:
    def test_rank_one_keeps_single_function(self):
        rule = small_rule(5)
        column = np.arange(1.0, 13.0)
        entries = np.outer(column, [1.0, 2.0, -1.0, 0.5, 3.0])
        matrix = TrajectoryMatrix(entries=entries, grid_size=4, time_count=3)
        basis = truncate_pod(matrix, 1e-4, rule)
        assert basis.size == 1

    def test_orthogonal_block_keeps_everything(self):
        rule = small_rule(4)
        block = np.linalg.qr(np.random.default_rng(1).normal(size=(4, 4)))[0]
        entries = np.vstack([block, block])
        matrix = TrajectoryMatrix(entries=entries, grid_size=4, time_count=2)
        basis = truncate_pod(matrix, 1e-4, rule)
        assert basis.size == 4
        np.testing.assert_allclose(basis.singular_values,
                                   basis.singular_values[0], rtol=1e-12)

    def test_cap_limits_basis_count(self):
        rule = small_rule(6)
        entries = np.random.default_rng(2).normal(size=(18, 6))
        matrix = TrajectoryMatrix(entries=entries, grid_size=6, time_count=3)
        basis = truncate_pod(matrix, 1e-12, rule, cap=2)
        assert basis.size == 2

    def test_rejects_zero_matrix(self):
        rule = small_rule(3)
        matrix = TrajectoryMatrix(entries=np.zeros((6, 3)), grid_size=3, time_count=2)
        with pytest.raises(ValueError):
            truncate_pod(matrix, 1e-4, rule)

    def test_rejects_overflowing_squares(self):
        # finite entries whose squared norm overflows cannot be ranked by energy
        rule = small_rule(3)
        matrix = TrajectoryMatrix(entries=np.full((6, 3), 1e160), grid_size=3, time_count=2)
        with pytest.raises(ValueError, match="overflows"):
            truncate_pod(matrix, 1e-4, rule)

    def test_rejects_bad_threshold(self):
        rule = small_rule(3)
        matrix = TrajectoryMatrix(entries=np.ones((6, 3)), grid_size=3, time_count=2)
        with pytest.raises(ValueError):
            truncate_pod(matrix, 0.0, rule)

    def test_rejects_node_count_mismatch(self):
        matrix = TrajectoryMatrix(entries=np.ones((6, 3)), grid_size=3, time_count=2)
        with pytest.raises(ValueError):
            truncate_pod(matrix, 1e-4, small_rule(4))

    def test_wave_first_window_spectrum(self, wave, rule_120):
        # singular values decay steeply: few functions capture the window,
        # comfortably at most 9 at the 1e-4 threshold
        matrix = sampled_matrix(wave, 128, rule_120)
        basis = truncate_pod(matrix, 1e-4, rule_120)
        assert 1 <= basis.size <= 9
        scaled = basis.singular_values / basis.singular_values[0]
        assert np.all(np.diff(basis.singular_values) <= 1e-12)
        assert scaled[basis.size - 1] >= 1e-4
        if basis.size < scaled.size:
            assert scaled[basis.size] < 1e-4

    def test_columns_orthonormal(self, wave, rule_120):
        grid = SpatialGrid(64)
        window = TimeWindow.with_uniform_outputs(0.0, 1.0, 6)
        states = solve_ensemble(wave, rule_120.nodes, np.cos(grid.points), window, grid)
        basis = truncate_pod(assemble_trajectory_matrix(states.transpose(1, 0, 2)),
                             1e-4, rule_120)
        gram = basis.values.T @ basis.values
        np.testing.assert_allclose(gram, np.eye(basis.size), atol=1e-10)


class TestFourierRows:
    """truncate_pod decomposes T's energetic Fourier rows; T^T T is unchanged."""

    def test_wave_window_grid_128(self, wave, rule_120):
        matrix = sampled_matrix(wave, 128, rule_120)
        assert_matches_direct_svd(matrix, 1e-4, rule_120)

    def test_advection_reaction_window_grid_256(self, advection_reaction, rule_300):
        matrix = sampled_matrix(advection_reaction, 256, rule_300)
        assert_matches_direct_svd(matrix, 1e-4, rule_300)

    @pytest.mark.parametrize("grid_size", [32, 33], ids=["nyquist", "odd-no-nyquist"])
    def test_every_mode_energetic(self, grid_size):
        # random rows put energy in every mode, the Nyquist mode of an even grid too
        rule = small_rule(9)
        entries = np.random.default_rng(grid_size).normal(size=(grid_size * 3, 9))
        matrix = TrajectoryMatrix(entries=entries, grid_size=grid_size, time_count=3)
        assert_matches_direct_svd(matrix, 1e-4, rule)

    def test_roundoff_mode_dropped_small_mode_kept(self):
        # three spatial modes with relative energies 1, 1e-20 and 1e-30, each
        # carried by its own sample direction
        m, n_t, k = 16, 2, 12
        x = 2 * np.pi * np.arange(m) / m
        samples = np.linalg.qr(np.random.default_rng(7).normal(size=(k, 3)))[0]
        spatial = [np.cos(x), 1e-10 * np.cos(3 * x), 1e-15 * np.sin(5 * x)]
        times = np.array([1.0, 0.5])
        entries = sum(np.outer(np.outer(f, times).ravel(), samples[:, i])
                      for i, f in enumerate(spatial))
        matrix = TrajectoryMatrix(entries=entries, grid_size=m, time_count=n_t)
        basis, sigma = assert_matches_direct_svd(matrix, 1e-4, small_rule(k))
        # the 1e-20 mode survives the tail: its singular value matches above, and
        # its sample direction enters a basis at a low threshold (to ~1e-16 / 1e-10,
        # the conditioning of a direction that weak)
        assert basis.singular_values[1] == pytest.approx(sigma[1], rel=1e-6)
        fine = truncate_pod(matrix, 1e-12, small_rule(k))
        assert fine.size == 2
        assert abs(fine.values[:, 1] @ samples[:, 1]) == pytest.approx(1.0, abs=1e-5)
        # the 1e-30 mode is dropped: Weyl's bound, and a zero-padded tail past
        # the 2 * n_t rows of each of the two kept modes
        bound = pod._TAIL * np.linalg.norm(entries)
        assert np.max(np.abs(basis.singular_values - sigma)) <= bound
        assert np.all(basis.singular_values[2 * 2 * n_t:] == 0.0)


random_entries = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(2, 5), st.integers(2, 4)).map(lambda s: (s[0] * 3, s[1])),
    elements=st.floats(-10.0, 10.0),
)


class TestProjectionResidual:
    def test_untruncated_basis_zero_residual(self):
        rule = small_rule(4)
        entries = np.random.default_rng(3).normal(size=(8, 4))
        matrix = TrajectoryMatrix(entries=entries, grid_size=4, time_count=2)
        basis = truncate_pod(matrix, 1e-15, rule)
        assert basis.size == 4
        assert projection_residual(matrix, basis) < 1e-10 * np.linalg.norm(entries)

    def test_rank_two_truncated_to_one(self):
        rule = small_rule(4)
        u = np.linalg.qr(np.random.default_rng(4).normal(size=(8, 2)))[0]
        v = np.linalg.qr(np.random.default_rng(5).normal(size=(4, 2)))[0]
        entries = 5.0 * np.outer(u[:, 0], v[:, 0]) + 2.0 * np.outer(u[:, 1], v[:, 1])
        matrix = TrajectoryMatrix(entries=entries, grid_size=4, time_count=2)
        basis = truncate_pod(matrix, 0.5, rule)
        assert basis.size == 1
        assert projection_residual(matrix, basis) == pytest.approx(2.0, rel=1e-10)

    def test_rejects_dimension_mismatch(self):
        rule = small_rule(4)
        entries = np.random.default_rng(6).normal(size=(8, 4))
        matrix = TrajectoryMatrix(entries=entries, grid_size=4, time_count=2)
        basis = truncate_pod(matrix, 1e-4, rule)
        other = TrajectoryMatrix(entries=np.ones((9, 3)), grid_size=3, time_count=3)
        with pytest.raises(ValueError):
            projection_residual(other, basis)

    @given(entries=random_entries)
    @settings(deadline=None, max_examples=40)
    def test_eckart_young_identity(self, entries):
        # residual equals the root of the sum of squared discarded values
        if np.linalg.norm(entries) < 1e-9:
            return
        k = entries.shape[1]
        rule = small_rule(k)
        matrix = TrajectoryMatrix(entries=entries, grid_size=entries.shape[0] // 3,
                                  time_count=3)
        basis = truncate_pod(matrix, 1e-2, rule)
        discarded = basis.singular_values[basis.size:]
        expected = float(np.sqrt(np.sum(discarded**2)))
        assert projection_residual(matrix, basis) == pytest.approx(
            expected, rel=1e-8, abs=1e-8 * basis.singular_values[0])

    @given(entries=random_entries)
    @settings(deadline=None, max_examples=40)
    def test_per_column_error_bounded_by_residual(self, entries):
        if np.linalg.norm(entries) < 1e-9:
            return
        k = entries.shape[1]
        rule = small_rule(k)
        matrix = TrajectoryMatrix(entries=entries, grid_size=entries.shape[0] // 3,
                                  time_count=3)
        basis = truncate_pod(matrix, 1e-2, rule)
        residual = projection_residual(matrix, basis)
        projector = basis.values @ basis.values.T  # acts on node-space vectors
        for row in entries:
            err = np.linalg.norm(row - projector @ row)
            assert err <= residual + 1e-12
