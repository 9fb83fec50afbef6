import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from empchaos import pod
from empchaos.pde_core import SpatialGrid, TimeWindow, solve_ensemble
from empchaos.pod import projection_residual, truncate_pod
from empchaos.random_space import chebyshev_nodes, trapezoid_rule


def small_rule(count):
    return trapezoid_rule(chebyshev_nodes(count))


def sampled_trajectories(problem, grid_size, rule):
    grid = SpatialGrid(grid_size)
    window = TimeWindow.with_uniform_outputs(0.0, 1.0, 11)
    return solve_ensemble(problem, rule.nodes, problem.initial_condition(grid.points),
                          window, grid)


def assert_matches_direct_svd(trajectories, threshold, rule):
    """truncate_pod against an SVD of the whole trajectory matrix."""
    basis = truncate_pod(trajectories, threshold, rule)
    # x-major rows: row i * n_t + j holds u(x_i, t_j) at every node
    n_t, k, m = trajectories.shape
    matrix = trajectories.transpose(2, 0, 1).reshape(m * n_t, k)
    _, sigma, vt = scipy.linalg.svd(matrix, full_matrices=False)
    assert basis.singular_values.shape == sigma.shape
    np.testing.assert_allclose(basis.singular_values, sigma, rtol=0, atol=1e-12 * sigma[0])
    assert basis.size == max(1, np.count_nonzero(sigma / sigma[0] >= threshold))
    expected = vt[:basis.size].T
    np.testing.assert_allclose(basis.values @ basis.values.T, expected @ expected.T,
                               rtol=0, atol=1e-10)
    return basis, sigma


class TestTruncatePod:
    def test_rank_one_keeps_single_function(self):
        rule = small_rule(5)
        field = np.arange(1.0, 13.0).reshape(3, 1, 4)  # (n_t=3, 1, M=4)
        trajectories = field * np.array([1.0, 2.0, -1.0, 0.5, 3.0])[:, None]
        basis = truncate_pod(trajectories, 1e-4, rule)
        assert basis.size == 1

    def test_orthogonal_block_keeps_everything(self):
        rule = small_rule(4)
        block = np.linalg.qr(np.random.default_rng(1).normal(size=(4, 4)))[0]
        trajectories = np.stack([block.T, block.T])  # T^T T = 2 I
        basis = truncate_pod(trajectories, 1e-4, rule)
        assert basis.size == 4
        np.testing.assert_allclose(basis.singular_values,
                                   basis.singular_values[0], rtol=1e-12)

    def test_cap_limits_basis_count(self):
        rule = small_rule(6)
        trajectories = np.random.default_rng(2).normal(size=(3, 6, 6))
        basis = truncate_pod(trajectories, 1e-12, rule, cap=2)
        assert basis.size == 2

    def test_least_keeps_weaker_directions(self):
        rule = small_rule(6)
        scale = np.array([1.0, 1e-6, 1e-7, 1, 1, 1])[:, None]
        trajectories = np.random.default_rng(2).normal(size=(3, 6, 6)) * scale
        strong = truncate_pod(trajectories, 1e-3, rule)
        assert strong.size == 4
        basis = truncate_pod(trajectories, 1e-3, rule, least=5)
        assert basis.size == 5
        np.testing.assert_allclose(np.abs(basis.values[:, :4].T @ strong.values),
                                   np.eye(4), atol=1e-10)
        # no more directions than singular values
        assert truncate_pod(trajectories, 1e-3, rule, least=9).size == 6

    def test_rejects_zero_matrix(self):
        rule = small_rule(3)
        with pytest.raises(ValueError):
            truncate_pod(np.zeros((2, 3, 3)), 1e-4, rule)

    def test_rejects_overflowing_squares(self):
        # finite entries whose squared norm overflows cannot be ranked by energy
        rule = small_rule(3)
        with pytest.raises(ValueError, match="overflows"):
            truncate_pod(np.full((2, 3, 3), 1e160), 1e-4, rule)

    def test_rejects_bad_threshold(self):
        rule = small_rule(3)
        with pytest.raises(ValueError):
            truncate_pod(np.ones((2, 3, 3)), 0.0, rule)

    def test_rejects_node_count_mismatch(self):
        with pytest.raises(ValueError):
            truncate_pod(np.ones((2, 3, 3)), 1e-4, small_rule(4))

    @pytest.mark.parametrize("entry, shape, message", [
        (np.nan, (2, 3, 4), "non-finite"),
        (np.inf, (2, 3, 4), "non-finite"),
        (1.0, (6, 3), "time count, node count, grid size"),
        (1.0, (2, 4, 4), "node count must equal"),
    ], ids=["nan", "inf", "2-d", "node-count"])
    def test_rejects_malformed_trajectories(self, entry, shape, message):
        trajectories = np.ones(shape)
        trajectories[1, 2] = entry
        # the transform of an inf is nan: numpy's warning is expected
        with pytest.raises(ValueError, match=message), np.errstate(invalid="ignore"):
            truncate_pod(trajectories, 1e-4, small_rule(3))

    def test_wave_first_window_spectrum(self, wave, rule_120):
        # singular values decay steeply: few functions capture the window,
        # comfortably at most 9 at the 1e-4 threshold
        trajectories = sampled_trajectories(wave, 128, rule_120)
        basis = truncate_pod(trajectories, 1e-4, rule_120)
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
        basis = truncate_pod(states, 1e-4, rule_120)
        gram = basis.values.T @ basis.values
        np.testing.assert_allclose(gram, np.eye(basis.size), atol=1e-10)

    def test_deterministic_initial_condition_one_direction(self, wave):
        # at t = 0 every sample is the shared initial condition: the step-0
        # rows are one field at every node, so a lone t = 0 output is rank one
        grid = SpatialGrid(32)
        u0 = np.cos(grid.points)
        states = solve_ensemble(wave, np.array([-1.0, 0.0, 1.0]), u0,
                                TimeWindow(0.0, 1.0, (0.0,)), grid, step=1e-2)
        np.testing.assert_allclose(states[0], np.broadcast_to(u0, (3, 32)))
        basis = truncate_pod(states, 1e-4, small_rule(3))
        assert basis.size == 1
        np.testing.assert_allclose(np.abs(basis.values[:, 0]), np.full(3, 3**-0.5))


class TestFourierRows:
    """truncate_pod decomposes T's energetic Fourier rows; T^T T is unchanged."""

    def test_wave_window_grid_128(self, wave, rule_120):
        trajectories = sampled_trajectories(wave, 128, rule_120)
        assert_matches_direct_svd(trajectories, 1e-4, rule_120)

    def test_advection_reaction_window_grid_256(self, advection_reaction, rule_300):
        trajectories = sampled_trajectories(advection_reaction, 256, rule_300)
        assert_matches_direct_svd(trajectories, 1e-4, rule_300)

    @pytest.mark.parametrize("grid_size", [32, 33], ids=["nyquist", "odd-no-nyquist"])
    def test_every_mode_energetic(self, grid_size):
        # random rows put energy in every mode, the Nyquist mode of an even grid too
        rule = small_rule(9)
        trajectories = np.random.default_rng(grid_size).normal(size=(3, 9, grid_size))
        assert_matches_direct_svd(trajectories, 1e-4, rule)

    def test_roundoff_mode_dropped_small_mode_kept(self):
        # three spatial modes with relative energies 1, 1e-20 and 1e-30, each
        # carried by its own sample direction
        m, n_t, k = 16, 2, 12
        x = 2 * np.pi * np.arange(m) / m
        samples = np.linalg.qr(np.random.default_rng(7).normal(size=(k, 3)))[0]
        spatial = [np.cos(x), 1e-10 * np.cos(3 * x), 1e-15 * np.sin(5 * x)]
        times = np.array([1.0, 0.5])
        trajectories = sum(np.einsum("t,k,x->tkx", times, samples[:, i], f)
                           for i, f in enumerate(spatial))
        basis, sigma = assert_matches_direct_svd(trajectories, 1e-4, small_rule(k))
        # the 1e-20 mode survives the tail: its singular value matches above, and
        # its sample direction enters a basis at a low threshold (to ~1e-16 / 1e-10,
        # the conditioning of a direction that weak)
        assert basis.singular_values[1] == pytest.approx(sigma[1], rel=1e-6)
        fine = truncate_pod(trajectories, 1e-12, small_rule(k))
        assert fine.size == 2
        assert abs(fine.values[:, 1] @ samples[:, 1]) == pytest.approx(1.0, abs=1e-5)
        # the 1e-30 mode is dropped: Weyl's bound, and a zero-padded tail past
        # the 2 * n_t rows of each of the two kept modes
        bound = pod._TAIL * np.linalg.norm(trajectories)
        assert np.max(np.abs(basis.singular_values - sigma)) <= bound
        assert np.all(basis.singular_values[2 * 2 * n_t:] == 0.0)

    @pytest.mark.parametrize("points", [32, 2], ids=["rows-above-k", "rows-below-k"])
    def test_decomposes_the_square_part_of_r(self, monkeypatch, points):
        # R has A's row count, and below its leading K x K block it is zero:
        # 3 output times of 9 samples give 96 energetic rows at 32 grid
        # points, and 6 at 2
        rule = small_rule(9)
        trajectories = np.random.default_rng(points).normal(size=(3, 9, points))
        rows = pod._energetic_rows(trajectories).shape[0]
        assert rows == 3 * points
        shapes = []
        svd = scipy.linalg.svd

        def spy(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)
        monkeypatch.setattr(scipy.linalg, "svd", spy)
        truncate_pod(trajectories, 1e-4, rule)
        assert shapes == [(min(rows, 9), 9)]
        monkeypatch.undo()
        assert_matches_direct_svd(trajectories, 1e-4, rule)

    @pytest.mark.parametrize("per_chunk", [1, 2, 5])
    def test_rows_do_not_depend_on_the_spectrum_chunks(self, wave, monkeypatch, per_chunk):
        # 11 output times; 5 per chunk leaves a last chunk of one
        rule = small_rule(6)
        trajectories = sampled_trajectories(wave, 32, rule)
        whole = pod._energetic_rows(trajectories)
        assert whole.shape[0] < 32 * 11  # some modes dropped
        monkeypatch.setattr(pod, "_SPECTRUM_BYTES", per_chunk * 16 * 6 * 17)
        np.testing.assert_array_equal(pod._energetic_rows(trajectories), whole)


# (n_t = 3, K, M) trajectories
random_trajectories = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(2, 4), st.integers(2, 5)).map(lambda s: (3, *s)),
    elements=st.floats(-10.0, 10.0),
)


class TestProjectionResidual:
    def test_untruncated_basis_zero_residual(self):
        rule = small_rule(4)
        trajectories = np.random.default_rng(3).normal(size=(2, 4, 4))
        basis = truncate_pod(trajectories, 1e-15, rule)
        assert basis.size == 4
        assert projection_residual(trajectories, basis) < 1e-10 * np.linalg.norm(trajectories)

    def test_rank_two_truncated_to_one(self):
        rule = small_rule(4)
        # orthonormal (n_t=2, M=4) fields u and sample vectors v
        u = np.linalg.qr(np.random.default_rng(4).normal(size=(8, 2)))[0].reshape(2, 4, 2)
        v = np.linalg.qr(np.random.default_rng(5).normal(size=(4, 2)))[0]
        trajectories = np.einsum("txr,r,kr->tkx", u, [5.0, 2.0], v)
        basis = truncate_pod(trajectories, 0.5, rule)
        assert basis.size == 1
        assert projection_residual(trajectories, basis) == pytest.approx(2.0, rel=1e-10)

    def test_rejects_dimension_mismatch(self):
        rule = small_rule(4)
        trajectories = np.random.default_rng(6).normal(size=(2, 4, 4))
        basis = truncate_pod(trajectories, 1e-4, rule)
        with pytest.raises(ValueError):
            projection_residual(np.ones((3, 3, 3)), basis)

    @given(trajectories=random_trajectories)
    @settings(deadline=None, max_examples=40)
    def test_eckart_young_identity(self, trajectories):
        # residual equals the root of the sum of squared discarded values
        if np.linalg.norm(trajectories) < 1e-9:
            return
        rule = small_rule(trajectories.shape[1])
        basis = truncate_pod(trajectories, 1e-2, rule)
        discarded = basis.singular_values[basis.size:]
        expected = float(np.sqrt(np.sum(discarded**2)))
        assert projection_residual(trajectories, basis) == pytest.approx(
            expected, rel=1e-8, abs=1e-8 * basis.singular_values[0])

    @given(trajectories=random_trajectories)
    @settings(deadline=None, max_examples=40)
    def test_per_column_error_bounded_by_residual(self, trajectories):
        if np.linalg.norm(trajectories) < 1e-9:
            return
        k = trajectories.shape[1]
        rule = small_rule(k)
        basis = truncate_pod(trajectories, 1e-2, rule)
        residual = projection_residual(trajectories, basis)
        projector = basis.values @ basis.values.T  # acts on node-space vectors
        for row in trajectories.transpose(0, 2, 1).reshape(-1, k):
            err = np.linalg.norm(row - projector @ row)
            assert err <= residual + 1e-12
