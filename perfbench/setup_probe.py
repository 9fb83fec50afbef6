"""Child process timed by the ``setup_s`` metric.

Does what a fresh ``empchaos run`` process does before its first solve can
begin: start the interpreter, import the library and build the config, grid
and quadrature rule of the workload's first solve. It then prints ``ready``.
Usage: ``python3 perfbench/setup_probe.py '<ExperimentConfig fields as JSON>'``
from the repository root.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from empchaos import cli, gpc, pde_core, random_space  # noqa: E402

config = cli.ExperimentConfig(**json.loads(sys.argv[1]))
config.validate()
grid = pde_core.SpatialGrid(config.grid_size)
if config.solver == "gpc":
    rule = gpc.default_rule(config.resolved_node_count)
elif config.solver.startswith("empirical"):
    rule = random_space.trapezoid_rule(
        random_space.chebyshev_nodes(config.resolved_node_count))
print("ready", flush=True)
