import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from empchaos import pde_core, pod
from empchaos.driver import EmpiricalConfig, run_schedule
from empchaos.pde_core import (
    AdvectionSpectrum,
    SpatialGrid,
    TimeWindow,
    default_step,
    solve_ensemble,
    wave_problem,
)
from empchaos.pod import truncate_pod, truncate_spectrum
from empchaos.random_space import chebyshev_nodes, trapezoid_rule


def small_rule(count):
    return trapezoid_rule(chebyshev_nodes(count))


def projection_residual(trajectories, basis):
    """Frobenius norm of T - T*P with P the Euclidean projector onto the basis.

    ``trajectories`` is the (n_t, K, M) array that T is read from (see the
    ``pod`` module docstring). For a basis produced by ``truncate_pod`` this
    equals sqrt(sum of squared discarded singular values).
    """
    if basis.values.shape[0] != trajectories.shape[1]:
        raise ValueError("basis node count does not match the trajectories' node count")
    t = trajectories.transpose(0, 2, 1)
    projected = (t @ basis.values) @ basis.values.T
    return float(np.linalg.norm(t - projected))


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
        rows = pod._pod_rows(trajectories).shape[0]
        assert rows == 3 * points
        shapes = []
        svd = np.linalg.svd

        def spy(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, "svd", spy)
        truncate_pod(trajectories, 1e-4, rule)
        assert shapes == [(min(rows, 9), 9)]
        monkeypatch.undo()
        assert_matches_direct_svd(trajectories, 1e-4, rule)

    @pytest.mark.parametrize("path", ["samples", "spectrum"])
    def test_rows_reach_lapack_in_fortran_order(self, monkeypatch, path):
        # the layout LAPACK reads, so nothing copies them: 96 rows of 9
        # samples go to the QR, 22 rows of 120 nodes straight to the SVD
        handed = []

        def spy(lapack):
            def call(a, *args, **kwargs):
                handed.append(a)
                return lapack(a, *args, **kwargs)
            return call
        monkeypatch.setattr(np.linalg, "qr", spy(np.linalg.qr))
        monkeypatch.setattr(np.linalg, "svd", spy(np.linalg.svd))
        if path == "samples":
            truncate_pod(np.random.default_rng(3).normal(size=(3, 9, 32)), 1e-4, small_rule(9))
        else:
            rule, grid, u_nodes, window, _ = wave_window("window-0")
            truncate_spectrum(AdvectionSpectrum(rule.nodes, u_nodes, window, grid,
                                                default_step(grid)), 1e-4, rule)
        rows = handed[0]
        assert rows.shape == ((96, 9) if path == "samples" else (22, 120))
        assert rows.flags.f_contiguous and not rows.flags.c_contiguous


SPECTRUM_CASES = ["window-0", "later-window", "odd-grid", "ragged", "cap-3", "every-mode"]


def wave_window(case):
    """(rule, grid, u_nodes, window, cap) of one wave resample window."""
    rule = small_rule(120)
    grid = SpatialGrid(127 if case == "odd-grid" else 128)
    u_nodes = np.broadcast_to(np.cos(grid.points), (120, grid.point_count))
    window = TimeWindow.with_uniform_outputs(0.0, 1.0, 11)
    if case == "later-window":
        archive, _ = run_schedule(EmpiricalConfig(problem=wave_problem(), grid=grid,
                                                  rule=rule, t_final=3.0))
        before = archive.records[1]
        u_nodes = before.basis.reconstruct(before.coefficients[-1])
        window = archive.records[2].window
    elif case == "ragged":
        # outputs 0.1 apart to t = 10, then 0.037 apart to 10.37
        times = np.concatenate([np.linspace(9.0, 10.0, 11), np.linspace(10.0, 10.37, 11)[1:]])
        window = TimeWindow(9.0, 10.37, tuple(times))
    elif case == "every-mode":
        # mode m holds about 0.25^m of the energy, with a random phase per node
        m = np.arange(1, 64)
        phases = np.random.default_rng(4).uniform(0, 2 * np.pi, size=(120, m.size, 1))
        u_nodes = np.einsum("m,kmx->kx", 0.5 ** m, np.cos(m[:, None] * grid.points + phases))
    return rule, grid, u_nodes, window, 3 if case == "cap-3" else None


def spectrum_rows(spectrum):
    """The rows that truncate_spectrum decomposes."""
    shape = (len(spectrum.plan), spectrum.spectrum.shape[0], spectrum.grid.point_count)
    return pod._fourier_rows(spectrum.energy.sum(axis=0), spectrum.march, shape)


class TestTruncateSpectrum:
    """truncate_spectrum against truncate_pod of the sampled ensemble."""

    @pytest.mark.parametrize("case", SPECTRUM_CASES)
    def test_matches_truncate_pod_of_the_samples(self, case):
        rule, grid, u_nodes, window, cap = wave_window(case)
        step = default_step(grid)
        trajectories = solve_ensemble(wave_problem(), rule.nodes, u_nodes, window, grid, step)
        spectrum = AdvectionSpectrum(rule.nodes, u_nodes, window, grid, step)
        # the same kept modes, in the same rows
        rows = pod._pod_rows(trajectories)
        new_rows = spectrum_rows(spectrum)
        assert new_rows.shape == rows.shape
        np.testing.assert_allclose(new_rows, rows, rtol=0, atol=1e-13 * np.abs(rows).max())
        expected = truncate_pod(trajectories, 1e-4, rule, cap=cap)
        basis = truncate_spectrum(spectrum, 1e-4, rule, cap=cap)
        assert basis.size == expected.size
        if cap is not None:
            assert basis.size == cap
        sigma = expected.singular_values
        assert basis.singular_values.shape == sigma.shape
        np.testing.assert_allclose(basis.singular_values, sigma, rtol=0, atol=1e-13 * sigma[0])
        projector = basis.values @ basis.values.T - expected.values @ expected.values.T
        assert np.linalg.norm(projector, 2) <= 1e-12

    @pytest.mark.parametrize("case", SPECTRUM_CASES)
    def test_eckart_young_on_the_sampled_trajectories(self, case):
        rule, grid, u_nodes, window, cap = wave_window(case)
        step = default_step(grid)
        trajectories = solve_ensemble(wave_problem(), rule.nodes, u_nodes, window, grid, step)
        basis = truncate_spectrum(AdvectionSpectrum(rule.nodes, u_nodes, window, grid, step),
                                  1e-4, rule, cap=cap)
        discarded = float(np.sqrt(np.sum(basis.singular_values[basis.size:] ** 2)))
        scale = basis.singular_values[0]
        assert abs(projection_residual(trajectories, basis) - discarded) <= 1e-10 * scale

    def test_few_rows_skip_the_qr(self, monkeypatch):
        # one kept mode of 11 output times gives 22 rows, fewer than 120 nodes
        rule, grid, u_nodes, window, _ = wave_window("window-0")
        spectrum = AdvectionSpectrum(rule.nodes, u_nodes, window, grid, default_step(grid))
        assert spectrum_rows(spectrum).shape == (22, 120)

        def no_qr(*args, **kwargs):
            raise AssertionError("QR of rows that it cannot shrink")
        monkeypatch.setattr(np.linalg, "qr", no_qr)
        assert truncate_spectrum(spectrum, 1e-4, rule).singular_values.shape == (120,)

    def test_one_power_per_distinct_step(self, monkeypatch):
        # 11 uniform outputs from the start: every output takes the same (dt, n)
        rule, grid, u_nodes, window, _ = wave_window("window-0")
        spectrum = AdvectionSpectrum(rule.nodes, u_nodes, window, grid, default_step(grid))
        assert len(set(spectrum.plan[1:])) == 1
        calls, growth = [], pde_core._growth

        def counted(z):
            calls.append(z.shape)
            return growth(z)
        monkeypatch.setattr(pde_core, "_growth", counted)
        truncate_spectrum(spectrum, 1e-4, rule)
        assert len(calls) == 1

    def test_rejects_bad_threshold_and_node_count(self):
        rule, grid, u_nodes, window, _ = wave_window("window-0")
        spectrum = AdvectionSpectrum(rule.nodes, u_nodes, window, grid, default_step(grid))
        with pytest.raises(ValueError, match="threshold"):
            truncate_spectrum(spectrum, 1.0, rule)
        with pytest.raises(ValueError, match="node count"):
            truncate_spectrum(spectrum, 1e-4, small_rule(7))

    def test_rejects_zero_spectrum(self):
        rule, grid, _, window, _ = wave_window("window-0")
        spectrum = AdvectionSpectrum(rule.nodes, np.zeros((120, 128)), window, grid, 1e-2)
        with pytest.raises(ValueError, match="degenerate"):
            truncate_spectrum(spectrum, 1e-4, rule)


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
