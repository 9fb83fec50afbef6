import numpy as np
import pytest
import scipy.linalg

from empchaos import gpc
from empchaos.galerkin import (
    ExpansionArchive,
    IllConditionedBasis,
    WindowRecord,
    assemble_matrices,
    project_node_values,
    propagate_window,
)
from empchaos.pde_core import (
    PdeProblem,
    SpatialGrid,
    TimeWindow,
    solve_ensemble,
    wave_exact_mean_square,
)
from empchaos.pod import BasisSet, truncate_pod
from empchaos.random_space import (
    chebyshev_nodes,
    expectation,
    gauss_legendre_rule,
    legendre_table,
    trapezoid_rule,
)


def constant_basis(rule):
    return BasisSet(values=np.ones((len(rule), 1)), rule=rule)


def legendre_basis(n_terms, rule):
    return BasisSet(values=legendre_table(n_terms, rule.nodes), rule=rule)


def initial_field(problem, basis, grid, matrices=None):
    """The deterministic initial condition, shared by every node, projected."""
    u0 = problem.initial_condition(grid.points)
    return project_node_values(np.broadcast_to(u0, (len(basis.rule), u0.size)),
                               basis, matrices)


def pod_basis(problem, rule, grid, window, threshold=1e-4):
    u0 = problem.initial_condition(grid.points)
    states = solve_ensemble(problem, rule.nodes, u0, window, grid)
    return truncate_pod(states, threshold, rule)


class TestAssembleMatrices:
    def test_constant_basis(self, rule_300):
        matrices = assemble_matrices(constant_basis(rule_300))
        np.testing.assert_allclose(matrices.mass, [[1.0]], atol=1e-12)
        np.testing.assert_allclose(matrices.advection, [[0.0]], atol=1e-14)

    def test_two_term_legendre(self, rule_300):
        matrices = assemble_matrices(legendre_basis(2, rule_300))
        np.testing.assert_allclose(matrices.mass, np.eye(2), atol=1e-4)
        assert matrices.advection[0, 1] == pytest.approx(1 / np.sqrt(3), abs=1e-4)
        np.testing.assert_allclose(np.diag(matrices.advection), 0.0, atol=1e-14)

    def test_symmetry_and_psd(self, wave, rule_120):
        grid = SpatialGrid(64)
        window = TimeWindow.with_uniform_outputs(0.0, 1.0, 6)
        matrices = assemble_matrices(pod_basis(wave, rule_120, grid, window))
        np.testing.assert_allclose(matrices.mass, matrices.mass.T, atol=1e-12)
        np.testing.assert_allclose(matrices.advection, matrices.advection.T, atol=1e-12)
        eigenvalues = np.linalg.eigvalsh(matrices.mass)
        assert np.min(eigenvalues) >= -1e-10 * np.max(eigenvalues)

    def test_ill_conditioned_mass_raises(self, rule_300):
        # two nearly identical basis functions make the mass nearly singular
        values = np.column_stack([np.ones(len(rule_300)),
                                  np.ones(len(rule_300)) + 1e-15 * rule_300.nodes])
        basis = BasisSet(values=values, rule=rule_300)
        with pytest.raises(IllConditionedBasis):
            assemble_matrices(basis)

    def test_solve_uses_factorization(self, rule_300):
        matrices = assemble_matrices(legendre_basis(3, rule_300))
        rhs = np.arange(3.0)
        np.testing.assert_allclose(matrices.mass @ matrices.solve(rhs), rhs,
                                   atol=1e-12)


def project_column(values, basis):
    """Coefficients of one function of xi, given as a single grid column."""
    return project_node_values(values[:, None], basis)[:, 0]


class TestProjectFunction:
    def test_projects_basis_member(self, rule_300):
        basis = legendre_basis(4, rule_300)
        coeffs = project_column(basis.values[:, 1], basis)
        np.testing.assert_allclose(coeffs, [0.0, 1.0, 0.0, 0.0], atol=1e-12)

    def test_orthogonal_function_projects_to_zero(self, rule_300):
        basis = legendre_basis(2, rule_300)
        # degree-2 orthonormal Legendre is quadrature-orthogonal to degrees 0, 1
        values = legendre_table(3, rule_300.nodes)[:, 2]
        coeffs = project_column(values, basis)
        np.testing.assert_allclose(coeffs, 0.0, atol=1e-4)

    def test_linearity(self, rule_300):
        basis = legendre_basis(5, rule_300)
        combo = 2.0 * basis.values[:, 0] + 3.0 * basis.values[:, 1]
        coeffs = project_column(combo, basis)
        np.testing.assert_allclose(coeffs, [2.0, 3.0, 0.0, 0.0, 0.0], atol=1e-10)

    def test_rejects_wrong_node_count(self, rule_300):
        basis = legendre_basis(2, rule_300)
        with pytest.raises(ValueError):
            project_node_values(np.ones((5, 1)), basis)
        with pytest.raises(ValueError):
            project_node_values(np.ones(len(rule_300)), basis)


class TestProjectInitialCondition:
    def test_gpc_basis_loads_mode_zero(self, wave):
        rule = gauss_legendre_rule(16)
        grid = SpatialGrid(32)
        basis = legendre_basis(5, rule)
        field = initial_field(wave, basis, grid)
        np.testing.assert_allclose(field[0], np.cos(grid.points), atol=1e-12)
        np.testing.assert_allclose(field[1:], 0.0, atol=1e-12)

    def test_constant_containing_basis_reproduces_ic(self, wave, rule_120):
        grid = SpatialGrid(32)
        basis = constant_basis(rule_120)
        field = initial_field(wave, basis, grid)
        reconstructed = basis.reconstruct(field)
        np.testing.assert_allclose(reconstructed,
                                   np.broadcast_to(np.cos(grid.points), (120, 32)),
                                   atol=1e-12)


class TestChangeBasis:
    """A seam: the field's node values projected onto the next basis."""

    def test_identity_change(self, wave, rule_120):
        grid = SpatialGrid(32)
        window = TimeWindow.with_uniform_outputs(0.0, 1.0, 6)
        basis = pod_basis(wave, rule_120, grid, window)
        field = initial_field(wave, basis, grid)
        moved = project_node_values(basis.reconstruct(field), basis)
        np.testing.assert_allclose(moved, field, atol=1e-12)

    def test_permuted_basis_permutes_coefficients(self, wave, rule_120):
        grid = SpatialGrid(32)
        window = TimeWindow.with_uniform_outputs(0.0, 1.0, 6)
        basis = pod_basis(wave, rule_120, grid, window)
        perm = np.arange(basis.size)[::-1]
        permuted = BasisSet(values=basis.values[:, perm], rule=basis.rule)
        field = initial_field(wave, basis, grid)
        moved = project_node_values(basis.reconstruct(field), permuted)
        np.testing.assert_allclose(moved, field[perm], atol=1e-10)

    def test_superspace_preserves_reconstruction(self, rule_300):
        small = legendre_basis(3, rule_300)
        large = legendre_basis(6, rule_300)
        coeffs = np.array([[1.0, 0.5], [-2.0, 1.0], [0.25, 0.0]])
        moved = project_node_values(small.reconstruct(coeffs), large)
        np.testing.assert_allclose(large.reconstruct(moved),
                                   small.reconstruct(coeffs), atol=1e-8)


class TestGalerkinRhs:
    def test_reaction_projection_on_constant_basis(self, advection_reaction, rule_300):
        grid = SpatialGrid(32)
        basis = constant_basis(rule_300)
        matrices = assemble_matrices(basis)
        field = np.full((1, 32), 4.0)
        window = TimeWindow.with_uniform_outputs(0.0, 0.5, 3)
        states = propagate_window(advection_reaction, field, basis, window,
                                  grid, 1e-2, matrices)
        # u constant in x: the advection term vanishes and u' = 0.1*sqrt(u)
        # from u = 4 gives u(t) = (2 + 0.05 t)^2
        for t, coeffs in zip(window.output_times, states):
            np.testing.assert_allclose(coeffs, (2.0 + 0.05 * t) ** 2, atol=1e-12)

    def test_matches_gpc_rhs_on_legendre_basis(self):
        # the mass-solved advection operator of the general Galerkin rhs is the
        # dedicated gPC coupling matrix on a normalized Legendre basis
        order = 8
        matrices = assemble_matrices(legendre_basis(order, gauss_legendre_rule(16)))
        np.testing.assert_allclose(matrices.solve(matrices.advection),
                                   gpc.legendre_advection_matrix(order), atol=1e-10)


class TestPropagateWindow:
    def test_constant_basis_stays_frozen(self, wave, rule_300):
        grid = SpatialGrid(32)
        basis = constant_basis(rule_300)
        matrices = assemble_matrices(basis)
        field = np.cos(grid.points)[None, :]
        window = TimeWindow.with_uniform_outputs(0.0, 1.0, 5)
        states = propagate_window(wave, field, basis, window, grid, 1e-2, matrices)
        np.testing.assert_allclose(states[-1], field, atol=1e-12)

    def test_full_span_matches_per_node_solves(self, wave):
        rule = trapezoid_rule(chebyshev_nodes(24))
        grid = SpatialGrid(64)
        window = TimeWindow.with_uniform_outputs(0.0, 1.0, 6)
        basis = pod_basis(wave, rule, grid, window, threshold=1e-13)
        matrices = assemble_matrices(basis)
        field = initial_field(wave, basis, grid)
        states = propagate_window(wave, field, basis, window, grid, 1e-2, matrices)
        reconstructed = basis.reconstruct(states[-1])
        # the ensemble solve is the per-node solves, sample for sample
        direct = solve_ensemble(wave, rule.nodes, np.cos(grid.points), window, grid,
                                step=1e-2)
        np.testing.assert_allclose(reconstructed, direct[-1], atol=1e-3)

    def test_empirical_window_statistic(self, wave, rule_120):
        grid = SpatialGrid(128)
        window = TimeWindow.with_uniform_outputs(0.0, 1.0, 11)
        basis = pod_basis(wave, rule_120, grid, window)
        matrices = assemble_matrices(basis)
        field = initial_field(wave, basis, grid)
        states = propagate_window(wave, field, basis, window, grid, 1e-2, matrices)
        u_hat = states[-1][:, 0]
        mse = float(u_hat @ matrices.mass @ u_hat)
        assert mse == pytest.approx(wave_exact_mean_square(1.0), abs=1e-2)

    @pytest.mark.parametrize("problem_name", ["wave", "advection_reaction"])
    @pytest.mark.parametrize("shape, bad, match", [
        ((3, 32), None, "basis count, grid size"),
        ((2, 31), None, "basis count, grid size"),
        ((2, 32), np.nan, "non-finite"),
    ], ids=["row-count", "grid-length", "nan-entry"])
    def test_rejects_bad_coefficients(self, request, rule_300, problem_name, shape, bad,
                                      match):
        problem = request.getfixturevalue(problem_name)
        grid = SpatialGrid(32)
        basis = legendre_basis(2, rule_300)
        coefficients = np.ones(shape)
        if bad is not None:
            coefficients[1, 7] = bad
        window = TimeWindow.with_uniform_outputs(0.0, 0.1, 2)
        with pytest.raises(ValueError, match=match):
            propagate_window(problem, coefficients, basis, window, grid, 1e-2)


def sampled_reaction_window(problem, grid_size, node_count, t_final):
    """A reaction window sampled from the initial condition: its POD basis,
    the projected initial coefficients, and the reaction snapshots' right
    singular vectors and values from a direct SVD."""
    grid = SpatialGrid(grid_size)
    rule = trapezoid_rule(chebyshev_nodes(node_count))
    window = TimeWindow.with_uniform_outputs(0.0, t_final, 11)
    u0 = np.broadcast_to(problem.initial_condition(grid.points), (node_count, grid_size))
    states = solve_ensemble(problem, rule.nodes, u0, window, grid)
    basis = truncate_pod(states, 1e-4, rule)
    snapshots = problem.reaction(states).transpose(1, 0, 2).reshape(node_count, -1)
    _, sigma, vt = np.linalg.svd(snapshots.T, full_matrices=False)
    return grid, window, basis, project_node_values(u0, basis), sigma, vt.T


class TestReactionInterpolation:
    def test_every_node_reproduces_full_projection(self, advection_reaction):
        grid, window, basis, field, _, _ = sampled_reaction_window(
            advection_reaction, 32, 40, 0.5)
        k = len(basis.rule)
        full = propagate_window(advection_reaction, field, basis, window, grid, 1e-2)
        identity = propagate_window(advection_reaction, field, basis, window, grid, 1e-2,
                                    interpolation=(np.arange(k), np.eye(k)))
        np.testing.assert_array_equal(identity, full)
        # every node in another order, through a full orthonormal basis U:
        # U * U[p]^-1 is the permutation's transpose
        rng = np.random.default_rng(3)
        u = np.linalg.qr(rng.normal(size=(k, k)))[0]
        points = rng.permutation(k)
        lift = u @ np.linalg.inv(u[points])
        permuted = propagate_window(advection_reaction, field, basis, window, grid, 1e-2,
                                    interpolation=(points, lift))
        np.testing.assert_allclose(permuted, full, rtol=0, atol=1e-12 * np.max(np.abs(full)))

    def test_hyperreduced_window_close_to_full(self, advection_reaction):
        grid, window, basis, field, sigma, v = sampled_reaction_window(
            advection_reaction, 32, 60, 1.0)
        u = v[:, :max(basis.size, int(np.count_nonzero(sigma >= 1e-8 * sigma[0])))]
        _, pivots = scipy.linalg.qr(u.T, mode="r", pivoting=True)
        points = pivots[:u.shape[1]]
        assert points.size < len(basis.rule) // 4
        full = propagate_window(advection_reaction, field, basis, window, grid, 1e-2)
        shapes = []

        class Recorded(PdeProblem):
            def reaction(self, u, out=None):
                shapes.append(u.shape)
                return super().reaction(u, out)

        problem = Recorded(**vars(advection_reaction))
        reduced = propagate_window(problem, field, basis, window, grid, 1e-2,
                                   interpolation=(points, u @ np.linalg.inv(u[points])))
        assert np.max(np.abs(reduced - full)) <= 1e-8 * np.max(np.abs(full))
        # the reaction is evaluated at the points only
        assert shapes and set(shapes) == {(points.size, grid.point_count)}

    def test_rejects_lift_of_wrong_shape(self, advection_reaction, rule_300):
        grid = SpatialGrid(32)
        basis = legendre_basis(2, rule_300)
        window = TimeWindow.with_uniform_outputs(0.0, 0.1, 2)
        with pytest.raises(ValueError, match="lift"):
            propagate_window(advection_reaction, np.ones((2, 32)), basis, window, grid, 1e-2,
                             interpolation=(np.arange(3), np.ones((300, 4))))


def build_archive(problem, rule, grid, t_final=2.0):
    archive = ExpansionArchive()
    field = None
    basis = None
    t = 0.0
    while t < t_final - 1e-12:
        window = TimeWindow.with_uniform_outputs(t, t + 1.0, 11)
        new_basis = pod_basis(problem, rule, grid, window)
        matrices = assemble_matrices(new_basis)
        if field is None:
            field = initial_field(problem, new_basis, grid, matrices)
        else:
            field = project_node_values(basis.reconstruct(field),
                                        new_basis, matrices)
        basis = new_basis
        states = propagate_window(problem, field, basis, window, grid, 1e-2, matrices)
        archive.append(WindowRecord(window=window, basis=basis,
                                    coefficients=states, matrices=matrices))
        field = states[-1]
        t += 1.0
    return archive


class TestArchiveStatistics:
    def test_initial_mean_square_wave(self, wave, rule_120):
        grid = SpatialGrid(64)
        archive = build_archive(wave, rule_120, grid, t_final=1.0)
        times, values = archive.statistic_series(0, "mean_square")
        assert times[0] == 0.0
        assert values[0] == pytest.approx(1.0, abs=1e-10)

    def test_initial_mean_square_advection_reaction(self, advection_reaction,
                                                    rule_300):
        grid = SpatialGrid(64)
        archive = build_archive(advection_reaction, rule_300, grid, t_final=1.0)
        times, values = archive.statistic_series(0, "mean_square")
        assert times[0] == 0.0
        assert values[0] == pytest.approx(6.25, abs=1e-9)

    def test_initial_mean_is_ic(self, wave, rule_120):
        grid = SpatialGrid(64)
        archive = build_archive(wave, rule_120, grid, t_final=1.0)
        times, values = archive.statistic_series(3, "mean")
        assert times[0] == 0.0
        assert values[0] == pytest.approx(np.cos(grid.points[3]), abs=1e-9)

    def test_unknown_statistic_raises(self, wave, rule_120):
        grid = SpatialGrid(32)
        archive = build_archive(wave, rule_120, grid, t_final=1.0)
        with pytest.raises(ValueError, match="statistic"):
            archive.statistic_series(0, "variance")

    def test_reconstruction_consistency(self, wave, rule_120):
        # u_hat^T M u_hat equals the quadrature expectation of the squared
        # node reconstruction: two evaluation orders of one bilinear form,
        # checked at every output time of a three-window archive
        grid = SpatialGrid(64)
        archive = build_archive(wave, rule_120, grid, t_final=3.0)
        assert len(archive.records) == 3
        times, values = archive.statistic_series(5)
        expected_times, direct = [], []
        for k, record in enumerate(archive.records):
            # a seam time belongs to the earlier window
            first = 0 if k == 0 else 1
            for t, coeffs in zip(record.window.output_times[first:],
                                 record.coefficients[first:]):
                values_at_nodes = record.basis.reconstruct(coeffs)
                expected_times.append(t)
                direct.append(float(expectation(values_at_nodes[:, 5] ** 2,
                                                record.basis.rule)))
        np.testing.assert_array_equal(times, expected_times)
        np.testing.assert_allclose(values, direct, rtol=0.0, atol=1e-10)
        # at a seam the value is the earlier window's, bit for bit
        for prev, nxt in zip(archive.records, archive.records[1:]):
            (index,) = np.flatnonzero(times == prev.window.end)
            earlier = prev.coefficients[-1][:, 5]
            later = nxt.coefficients[0][:, 5]
            assert values[index] == float(earlier @ prev.matrices.mass @ earlier)
            assert values[index] != float(later @ nxt.matrices.mass @ later)

    def test_contiguity_enforced(self, wave, rule_120):
        grid = SpatialGrid(64)
        archive = build_archive(wave, rule_120, grid, t_final=1.0)
        basis = archive.records[0].basis
        gap_window = TimeWindow(5.0, 6.0)
        states = archive.records[0].coefficients
        with pytest.raises(ValueError):
            archive.append(WindowRecord(window=gap_window, basis=basis,
                                        coefficients=states,
                                        matrices=archive.records[0].matrices))

    def test_statistic_series_covers_all_windows(self, wave, rule_120):
        grid = SpatialGrid(32)
        archive = build_archive(wave, rule_120, grid, t_final=2.0)
        times, values = archive.statistic_series(0)
        assert times[0] == 0.0 and times[-1] == pytest.approx(2.0)
        assert np.all(np.diff(times) > 0)
        assert values.shape == times.shape


class TestProjectNodeValues:
    def test_round_trips_representable_values(self, wave, rule_120):
        grid = SpatialGrid(32)
        window = TimeWindow.with_uniform_outputs(0.0, 1.0, 6)
        basis = pod_basis(wave, rule_120, grid, window)
        coeffs = np.random.default_rng(7).normal(size=(basis.size, 32))
        values = basis.reconstruct(coeffs)
        field = project_node_values(values, basis)
        np.testing.assert_allclose(field, coeffs, atol=1e-8)
