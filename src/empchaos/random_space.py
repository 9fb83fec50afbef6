"""Random-variable support: quadrature rules and normalized Legendre polynomials.

The random input is a single uniform variable on an interval. Expectations are
discretized as weighted sums over a fixed node set, with the probability
density folded into the weights, so every inner product downstream is a plain
dot product.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "RandomInterval",
    "QuadratureRule",
    "chebyshev_nodes",
    "trapezoid_rule",
    "gauss_legendre_rule",
    "expectation",
    "legendre_table",
]


@dataclass(frozen=True)
class RandomInterval:
    """Support of a uniform random variable, with density 1/(upper - lower)."""

    lower: float = -1.0
    upper: float = 1.0

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValueError(f"need lower < upper, got [{self.lower}, {self.upper}]")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def density(self) -> float:
        return 1.0 / self.width

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)


@dataclass(frozen=True)
class QuadratureRule:
    """Discrete expectation rule: E[f] = sum_l weights[l] * f(nodes[l]).

    Weights include the probability density, so they form a partition of
    unity. Immutable after construction.
    """

    nodes: np.ndarray
    weights: np.ndarray
    interval: RandomInterval = field(default_factory=RandomInterval)

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.ndim != 1 or weights.shape != nodes.shape:
            raise ValueError("nodes and weights must be 1-d arrays of equal length")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        tol = 1e-9 * self.interval.width
        if nodes[0] < self.interval.lower - tol or nodes[-1] > self.interval.upper + tol:
            raise ValueError("nodes must lie within the interval")
        if np.any(weights < 0):
            raise ValueError("weights must be nonnegative")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {weights.sum()!r}")

    def __len__(self) -> int:
        return self.nodes.size

    def same_nodes(self, other: "QuadratureRule") -> bool:
        return self.nodes.shape == other.nodes.shape and np.array_equal(
            self.nodes, other.nodes
        )


def chebyshev_nodes(count: int, interval: RandomInterval | None = None) -> np.ndarray:
    """Chebyshev-Gauss-Lobatto points on the interval, ascending.

    Cosine-spaced with both endpoints included, so a composite trapezoid rule
    built on them covers the whole interval.
    """
    if count < 2:
        raise ValueError(f"need at least 2 nodes, got {count}")
    if interval is None:
        interval = RandomInterval()
    k = np.arange(count)
    # cos(pi*k/(n-1)) descends from 1 to -1; reverse for ascending order.
    ref = np.cos(np.pi * k / (count - 1))[::-1]
    nodes = interval.midpoint + 0.5 * interval.width * ref
    # pin the endpoints to avoid roundoff just outside the interval
    nodes[0] = interval.lower
    nodes[-1] = interval.upper
    return nodes


def trapezoid_rule(nodes: np.ndarray, interval: RandomInterval | None = None) -> QuadratureRule:
    """Composite trapezoid rule on (possibly nonuniform) nodes.

    Weights are the trapezoid panel weights multiplied by the uniform density,
    so they sum to 1 up to roundoff.
    """
    if interval is None:
        interval = RandomInterval()
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 1 or nodes.size < 2:
        raise ValueError("need a 1-d array of at least 2 nodes")
    if np.any(np.diff(nodes) <= 0):
        raise ValueError("nodes must be strictly increasing")
    tol = 1e-9 * interval.width
    if abs(nodes[0] - interval.lower) > tol or abs(nodes[-1] - interval.upper) > tol:
        raise ValueError("node set must include both interval endpoints")
    weights = np.zeros_like(nodes)
    gaps = np.diff(nodes)
    weights[:-1] += 0.5 * gaps
    weights[1:] += 0.5 * gaps
    weights *= interval.density
    return QuadratureRule(nodes=nodes, weights=weights, interval=interval)


def gauss_legendre_rule(count: int, interval: RandomInterval | None = None) -> QuadratureRule:
    """Gauss-Legendre rule with density-scaled weights.

    Exact for polynomials up to degree 2*count - 1, which makes Gram matrices
    of polynomial bases exact to roundoff (the trapezoid rule is only
    second-order accurate).
    """
    if count < 1:
        raise ValueError(f"need at least 1 node, got {count}")
    if interval is None:
        interval = RandomInterval()
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(count)
    nodes = interval.midpoint + 0.5 * interval.width * ref_nodes
    weights = 0.5 * ref_weights  # reference weights sum to 2
    return QuadratureRule(nodes=nodes, weights=weights, interval=interval)


def expectation(values: np.ndarray, rule: QuadratureRule) -> float | np.ndarray:
    """Quadrature expectation of node values (leading axis runs over nodes)."""
    values = np.asarray(values, dtype=float)
    if values.shape[0] != len(rule):
        raise ValueError(
            f"values length {values.shape[0]} does not match rule with {len(rule)} nodes"
        )
    return np.tensordot(rule.weights, values, axes=(0, 0))


def legendre_table(n_terms: int, x: np.ndarray) -> np.ndarray:
    """Table of the first ``n_terms`` orthonormal Legendre polynomials.

    Returns shape (len(x), n_terms): column i holds degree-i values, matching
    the node-value layout of empirical basis sets.
    """
    if n_terms < 1:
        raise ValueError("need at least one term")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    table = np.empty((x.size, n_terms))
    table[:, 0] = 1.0
    if n_terms > 1:
        table[:, 1] = x
    for n in range(1, n_terms - 1):
        table[:, n + 1] = ((2 * n + 1) * x * table[:, n] - n * table[:, n - 1]) / (n + 1)
    table *= np.sqrt(2 * np.arange(n_terms) + 1)
    return table
