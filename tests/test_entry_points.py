"""The module entry point, the package import and the experiment scripts, each
run in a fresh interpreter, and the names each module exports."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import empchaos

SRC = Path(empchaos.__file__).resolve().parents[1]
SCRIPTS = SRC.parent / "scripts"


def python(*args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_module_entry_point_runs_without_warning(tmp_path):
    result = python("-W", "error::RuntimeWarning", "-m", "empchaos.cli", "exact",
                    "--t-final", "1", "--grid-size", "16",
                    "--output-dir", str(tmp_path / "exact"), cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "exact" / "manifest.json").exists()


def test_every_exported_name_is_defined():
    for name in [*empchaos.__all__, "cli"]:
        module = importlib.import_module(f"empchaos.{name}")
        missing = [item for item in module.__all__ if not hasattr(module, item)]
        assert not missing, f"empchaos.{name}.__all__ names undefined {missing}"


def test_package_import_leaves_cli_unloaded(tmp_path):
    result = python("-c", "import sys, empchaos; print('empchaos.cli' in sys.modules)",
                    cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_advection_reaction_script(tmp_path):
    # 2.37 ends in a ragged window, which the Monte Carlo reference also marches
    for t_final in ("2", "2.37"):
        out = tmp_path / t_final
        result = python(str(SCRIPTS / "advection_reaction_experiment.py"),
                        "--t-final", t_final, "--grid-size", "64", "--node-count", "60",
                        "--samples", "200", "--output-dir", str(out), cwd=tmp_path)
        assert result.returncode == 0, result.stdout + result.stderr
        assert {"empirical_mean_square.csv", "mc_mean_square.csv"} <= set(os.listdir(out))


def test_advection_reaction_script_rejects_an_unwritable_output_dir(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    result = python(str(SCRIPTS / "advection_reaction_experiment.py"),
                    "--t-final", "2", "--grid-size", "16", "--node-count", "10",
                    "--samples", "20", "--output-dir", str(blocker / "sub"), cwd=tmp_path)
    assert result.returncode == 1, result.stdout + result.stderr
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("error: ")
    assert result.stderr.count("\n") == 1 and "cannot write" in result.stderr
    assert result.stdout == ""


def test_basis_evolution_script(tmp_path):
    result = python(str(SCRIPTS / "basis_evolution_experiment.py"),
                    "--t-final", "2", "--grid-size", "32", "--node-count", "40",
                    cwd=tmp_path)
    assert result.returncode == 0, result.stdout + result.stderr
    assert len(result.stdout.splitlines()) == 4
