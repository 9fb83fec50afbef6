"""Random-variable support: quadrature rules and normalized Legendre polynomials.

The random input is a single uniform variable on [-1, 1]. Expectations are
discretized as weighted sums over a fixed node set, with the probability
density folded into the weights, so every inner product downstream is a plain
dot product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LOWER",
    "UPPER",
    "QuadratureRule",
    "chebyshev_nodes",
    "trapezoid_rule",
    "gauss_legendre_rule",
    "legendre_table",
]


# support of the uniform random variable xi, whose density is 1/(UPPER - LOWER)
LOWER = -1.0
UPPER = 1.0
_WIDTH = UPPER - LOWER


@dataclass(frozen=True)
class QuadratureRule:
    """Discrete expectation rule: E[f] = sum_l weights[l] * f(nodes[l]).

    Weights include the probability density, so they form a partition of
    unity. Immutable after construction.
    """

    nodes: np.ndarray
    weights: np.ndarray

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
        tol = 1e-9 * _WIDTH
        if nodes[0] < LOWER - tol or nodes[-1] > UPPER + tol:
            raise ValueError(f"nodes must lie within [{LOWER}, {UPPER}]")
        if np.any(weights < 0):
            raise ValueError("weights must be nonnegative")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {weights.sum()!r}")

    def __len__(self) -> int:
        return self.nodes.size


def chebyshev_nodes(count: int) -> np.ndarray:
    """Chebyshev-Gauss-Lobatto points on [-1, 1], ascending.

    Cosine-spaced with both endpoints included, so a composite trapezoid rule
    built on them covers the whole interval.
    """
    if count < 2:
        raise ValueError(f"need at least 2 nodes, got {count}")
    # cos(pi*k/(n-1)) descends from 1 to -1 as k rises; k falls for ascending order.
    nodes = np.cos(np.pi * np.arange(count - 1, -1, -1) / (count - 1))
    # pin the endpoints to avoid roundoff just outside the interval
    nodes[0] = LOWER
    nodes[-1] = UPPER
    return nodes


def trapezoid_rule(nodes: np.ndarray) -> QuadratureRule:
    """Composite trapezoid rule on (possibly nonuniform) nodes spanning [-1, 1].

    Weights are the trapezoid panel weights multiplied by the uniform density,
    so they sum to 1 up to roundoff.
    """
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 1 or nodes.size < 2:
        raise ValueError("need a 1-d array of at least 2 nodes")
    if np.any(np.diff(nodes) <= 0):
        raise ValueError("nodes must be strictly increasing")
    tol = 1e-9 * _WIDTH
    if abs(nodes[0] - LOWER) > tol or abs(nodes[-1] - UPPER) > tol:
        raise ValueError("node set must include both interval endpoints")
    weights = np.zeros_like(nodes)
    gaps = np.diff(nodes)
    weights[:-1] += 0.5 * gaps
    weights[1:] += 0.5 * gaps
    weights /= _WIDTH
    return QuadratureRule(nodes=nodes, weights=weights)


def gauss_legendre_rule(count: int) -> QuadratureRule:
    """Gauss-Legendre rule on [-1, 1] with density-scaled weights.

    Exact for polynomials up to degree 2*count - 1, which makes Gram matrices
    of polynomial bases exact to roundoff (the trapezoid rule is only
    second-order accurate).
    """
    if count < 1:
        raise ValueError(f"need at least 1 node, got {count}")
    nodes, weights = np.polynomial.legendre.leggauss(count)
    # the weights sum to the interval's width
    return QuadratureRule(nodes=nodes, weights=weights / _WIDTH)


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
