import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from empchaos.random_space import (
    QuadratureRule,
    chebyshev_nodes,
    gauss_legendre_rule,
    legendre_table,
    trapezoid_rule,
)


def expectation(values, rule):
    """Quadrature expectation of node values (leading axis runs over nodes)."""
    values = np.asarray(values, dtype=float)
    if values.shape[0] != len(rule):
        raise ValueError(
            f"values length {values.shape[0]} does not match rule with {len(rule)} nodes"
        )
    return np.tensordot(rule.weights, values, axes=(0, 0))


class TestChebyshevNodes:
    def test_three_nodes_symmetric(self):
        np.testing.assert_allclose(chebyshev_nodes(3), [-1.0, 0.0, 1.0], atol=1e-15)

    def test_two_nodes_endpoints(self):
        np.testing.assert_allclose(chebyshev_nodes(2), [-1.0, 1.0], atol=1e-15)

    def test_rejects_single_node(self):
        with pytest.raises(ValueError):
            chebyshev_nodes(1)

    @given(count=st.integers(2, 200))
    @settings(deadline=None)
    def test_sorted_and_symmetric(self, count):
        nodes = chebyshev_nodes(count)
        assert np.all(np.diff(nodes) > 0)
        np.testing.assert_allclose(nodes, -nodes[::-1], atol=1e-14)


class TestTrapezoidRule:
    def test_uniform_three_node_weights(self):
        rule = trapezoid_rule(np.array([-1.0, 0.0, 1.0]))
        np.testing.assert_allclose(rule.weights, [0.25, 0.5, 0.25], atol=1e-15)

    def test_rejects_unsorted_nodes(self):
        with pytest.raises(ValueError):
            trapezoid_rule(np.array([0.0, -1.0, 1.0]))

    def test_rejects_duplicate_nodes(self):
        with pytest.raises(ValueError):
            trapezoid_rule(np.array([-1.0, 0.0, 0.0, 1.0]))

    def test_second_moment_of_uniform(self, rule_120):
        # E[xi^2] = 1/3 for xi uniform on [-1, 1]
        assert expectation(rule_120.nodes**2, rule_120) == pytest.approx(1 / 3, abs=1e-4)

    @given(count=st.integers(2, 60))
    @settings(deadline=None)
    def test_partition_of_unity(self, count):
        rule = trapezoid_rule(chebyshev_nodes(count))
        assert abs(rule.weights.sum() - 1.0) < 1e-12
        assert np.all(rule.weights >= 0)


class TestGaussLegendreRule:
    def test_partition_of_unity(self):
        rule = gauss_legendre_rule(16)
        assert abs(rule.weights.sum() - 1.0) < 1e-12

    def test_exact_polynomial_moments(self):
        # an n-point rule integrates degree 2n-1 exactly; check E[xi^k]
        rule = gauss_legendre_rule(8)
        for k in range(0, 15):
            exact = 0.0 if k % 2 else 1.0 / (k + 1)
            assert expectation(rule.nodes**k, rule) == pytest.approx(exact, abs=1e-14)


class TestExpectation:
    def test_constant(self, rule_300):
        assert expectation(np.ones(len(rule_300)), rule_300) == pytest.approx(1.0)

    def test_odd_function_vanishes(self, rule_300):
        assert abs(expectation(rule_300.nodes, rule_300)) < 1e-14

    def test_cosine_squared_at_half_pi(self, rule_300):
        values = np.cos(rule_300.nodes * np.pi / 2.0) ** 2
        assert expectation(values, rule_300) == pytest.approx(0.5, abs=1e-4)

    def test_rejects_length_mismatch(self, rule_300):
        with pytest.raises(ValueError):
            expectation(np.ones(5), rule_300)

    def test_vectorizes_over_trailing_axes(self, rule_300):
        values = np.ones((len(rule_300), 4))
        np.testing.assert_allclose(expectation(values, rule_300), np.ones(4))


class TestNormalizedLegendre:
    def test_order_zero_is_one(self):
        assert legendre_table(1, 0.37)[0, 0] == pytest.approx(1.0)

    def test_order_one_scaling(self):
        assert legendre_table(2, 0.5)[0, 1] == pytest.approx(np.sqrt(3.0) * 0.5)

    def test_orthonormal_under_exact_quadrature(self):
        # a Gauss-Legendre rule integrates the degree-40 products exactly
        rule = gauss_legendre_rule(21)
        table = legendre_table(21, rule.nodes)
        gram = table.T @ (rule.weights[:, None] * table)
        np.testing.assert_allclose(gram, np.eye(21), atol=1e-12)

    def test_near_orthonormal_under_trapezoid_quadrature(self, rule_300):
        # the trapezoid rule is second order, so the Gram matrix only
        # approximates the identity; the deviation grows with the degree
        table = legendre_table(21, rule_300.nodes)
        gram = table.T @ (rule_300.weights[:, None] * table)
        np.testing.assert_allclose(gram, np.eye(21), atol=1e-3)

    def test_table_matches_scalar_evaluation(self, rule_300):
        # independent reference: numpy's Legendre series times sqrt(2n + 1)
        table = legendre_table(6, rule_300.nodes)
        for order in range(6):
            unit = np.zeros(order + 1)
            unit[order] = 1.0
            expected = (np.sqrt(2 * order + 1)
                        * np.polynomial.legendre.legval(rule_300.nodes[:10], unit))
            np.testing.assert_allclose(table[:10, order], expected, atol=1e-13)


class TestQuadratureRuleValidation:
    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            QuadratureRule(nodes=np.array([-1.0, 1.0]),
                           weights=np.array([1.5, -0.5]))

    def test_rejects_weights_not_summing_to_one(self):
        with pytest.raises(ValueError):
            QuadratureRule(nodes=np.array([-1.0, 1.0]),
                           weights=np.array([0.4, 0.4]))

    def test_rejects_nodes_outside_the_support(self):
        with pytest.raises(ValueError, match="within"):
            QuadratureRule(nodes=np.array([-1.0, 1.5]),
                           weights=np.array([0.5, 0.5]))
