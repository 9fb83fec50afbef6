import pytest

from empchaos import pde_core, random_space


@pytest.fixture(scope="session")
def rule_300():
    """300-node composite trapezoid rule on Chebyshev nodes over [-1, 1]."""
    return random_space.trapezoid_rule(random_space.chebyshev_nodes(300))


@pytest.fixture(scope="session")
def rule_120():
    return random_space.trapezoid_rule(random_space.chebyshev_nodes(120))


@pytest.fixture(scope="session")
def small_grid():
    return pde_core.SpatialGrid(64)


@pytest.fixture(scope="session")
def wave():
    return pde_core.wave_problem()


@pytest.fixture(scope="session")
def advection_reaction():
    return pde_core.advection_reaction_problem()
