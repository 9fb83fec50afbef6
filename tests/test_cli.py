import argparse
import contextlib
import ctypes
import dataclasses
import json
import os
import platform
import resource
import time
import tracemalloc
import types

import numpy as np
import pytest

from empchaos import cli
from empchaos.basis_evolution import SingularBlock
from empchaos.cli import ConfigError, ExperimentConfig
from empchaos.pde_core import wave_exact_mean_square


# what numpy's MemoryError says of an array too large for the host
ALLOCATION_ERROR = ("Unable to allocate 7.28 TiB for an array with shape "
                    "(1000000000000,) and data type float64")


def _exit_at_once(*args):
    os._exit(1)


@pytest.fixture(autouse=True)
def _three_timing_rounds(monkeypatch):
    """Scaling studies here run the minimum of three empirical rounds: their
    solves take a few ms, and the time budget that steadies criterion 7's
    fit would only repeat them."""
    monkeypatch.setattr(cli, "_TIMING_SECONDS", 0.0)


@pytest.fixture
def two_blas_threads():
    """Every loaded OpenBLAS set to two threads through ctypes; yields a
    function that reads their counts by library basename, and restores the
    counts found afterwards."""
    try:
        with open("/proc/self/maps") as handle:
            paths = sorted({line.split()[-1] for line in handle
                            if "openblas" in line.lower() and ".so" in line})
    except OSError:
        pytest.skip("no /proc/self/maps")
    pools = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix, suffix in [("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")]:
            if hasattr(lib, f"{prefix}_get_num_threads{suffix}"):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                put = getattr(lib, f"{prefix}_set_num_threads{suffix}")
                get.restype, put.argtypes = ctypes.c_int, [ctypes.c_int]
                pools[os.path.basename(path)] = (get, put)
                break
    if not pools:
        pytest.skip("no OpenBLAS with a thread-count setter is loaded")
    found = {name: get() for name, (get, _) in pools.items()}
    for _, put in pools.values():
        put(2)

    def read():
        return {name: get() for name, (get, _) in pools.items()}

    yield read
    for name, (_, put) in pools.items():
        put(found[name])


def read_csv(path):
    with open(path) as handle:
        header = handle.readline().strip().split(",")
        rows = [line.strip().split(",") for line in handle if line.strip()]
    columns = np.array(rows, dtype=float).T
    return header, columns


class TestConfigValidation:
    @pytest.mark.parametrize("field,value", [
        ("problem", "heat"),
        ("solver", "spectral"),
        ("schedule", "random"),
        ("grid_size", 2),
        ("node_count", 1),
        ("order", 0),
        ("order", 61),
        ("window_length", -1.0),
        ("window_length", float("inf")),
        ("threshold", 1.5),
        ("basis_cap", 0),
        ("t_final", 0.0),
        ("t_final", float("inf")),
        ("t_start", float("-inf")),
        ("step", 0.0),
        ("step", float("inf")),
        ("seed", -1),
        ("sample_count", 0),
        ("outputs_per_window", 1),
        ("x_index", -1),
    ])
    def test_bad_field_rejected_by_name(self, field, value):
        config = ExperimentConfig(**{field: value})
        with pytest.raises(ConfigError, match=field):
            config.validate()

    @pytest.mark.parametrize("flag,solver", [
        ("--t-final", "empirical"),
        ("--t-final", "gpc"),
        ("--t-final", "mc"),
        ("--t-final", "exact"),
        ("--t-start", "empirical"),
        ("--window-length", "empirical"),
        ("--step", "gpc"),
    ])
    def test_nan_exits_validation_by_name(self, tmp_path, capsys, flag, solver):
        code = cli.main(["run", "--solver", solver, flag, "nan",
                         "--output-dir", str(tmp_path)])
        assert code == cli.EXIT_VALIDATION
        field = flag[2:].replace("-", "_")
        assert f"{field}: must be finite" in capsys.readouterr().err

    def test_exact_solver_requires_wave(self):
        config = ExperimentConfig(problem="advection-reaction", solver="exact")
        with pytest.raises(ConfigError):
            config.validate()

    def test_evolve_solver_requires_wave(self):
        config = ExperimentConfig(problem="advection-reaction",
                                  solver="empirical-evolve")
        with pytest.raises(ConfigError):
            config.validate()

    def test_problem_specific_defaults(self):
        wave = ExperimentConfig(problem="wave")
        reaction = ExperimentConfig(problem="advection-reaction")
        assert wave.resolved_node_count == 120
        assert reaction.resolved_node_count == 300
        assert wave.resolved_window_length == 1.0
        assert reaction.resolved_window_length == 2.0
        assert ExperimentConfig(node_count=50).resolved_node_count == 50


class TestConfigFile:
    def test_json_round_trip_with_flag_override(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"problem": "wave", "t_final": 3.0,
                                    "grid_size": 64}))
        code = cli.main(["run", "--config", str(path), "--solver", "exact",
                         "--t-final", "2.0",
                         "--output-dir", str(tmp_path / "out")])
        assert code == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["config"]["t_final"] == 2.0
        assert manifest["config"]["grid_size"] == 64

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"probelm": "wave"}))
        assert cli.main(["run", "--config", str(path)]) == 1

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        assert cli.main(["run", "--config", str(path)]) == 1

    def test_unknown_flag_exits_validation(self):
        assert cli.main(["run", "--frobnicate"]) == 1

    @pytest.mark.parametrize("field,value", [
        ("grid_size", "64"),
        ("grid_size", 32.5),
        ("grid_size", True),
        ("t_final", False),
        ("order", None),
        ("problem", 5),
        ("output_dir", ["results"]),
    ], ids=["grid_size-str", "grid_size-float", "grid_size-bool", "t_final-bool",
            "order-null", "problem-int", "output_dir-list"])
    def test_value_of_wrong_type_rejected_by_name(self, tmp_path, field, value):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({field: value}))
        with pytest.raises(ConfigError, match=field):
            ExperimentConfig.from_json(str(path))

    @pytest.mark.parametrize("payload", [5, [], None], ids=["int", "list", "null"])
    def test_non_object_payload_rejected(self, tmp_path, payload):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match="object"):
            ExperimentConfig.from_json(str(path))

    def test_wrong_type_exits_validation(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"grid_size": "64"}))
        assert cli.main(["run", "--config", str(path)]) == 1
        assert "grid_size" in capsys.readouterr().err

    def test_int_for_float_and_null_for_optional_accepted(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"t_final": 2, "node_count": None,
                                    "step": None}))
        config = ExperimentConfig.from_json(str(path))
        assert config.t_final == 2
        assert config.node_count is None and config.step is None

    def test_missing_config_file_exits_validation(self, tmp_path, capsys):
        path = tmp_path / "missing.json"
        assert cli.main(["run", "--config", str(path)]) == 1
        assert str(path) in capsys.readouterr().err


class TestFlags:
    # every config field's flag, written out so that renaming a field
    # cannot silently rename its flag: (flag, dest, type, choices, value)
    FLAGS = [
        ("--problem", "problem", str, ["advection-reaction", "wave"], "wave"),
        ("--solver", "solver", str,
         ["empirical", "empirical-evolve", "gpc", "mc", "exact"], "gpc"),
        ("--grid-size", "grid_size", int, None, "64"),
        ("--node-count", "node_count", int, None, "40"),
        ("--order", "order", int, None, "12"),
        ("--window-length", "window_length", float, None, "0.5"),
        ("--threshold", "threshold", float, None, "1e-5"),
        ("--basis-cap", "basis_cap", int, None, "9"),
        ("--schedule", "schedule", str, ["alternating", "always-resample"],
         "always-resample"),
        ("--t-final", "t_final", float, None, "3"),
        ("--t-start", "t_start", float, None, "0.5"),
        ("--step", "step", float, None, "0.01"),
        ("--seed", "seed", int, None, "7"),
        ("--sample-count", "sample_count", int, None, "500"),
        ("--outputs-per-window", "outputs_per_window", int, None, "6"),
        ("--x-index", "x_index", int, None, "3"),
        ("--output-dir", "output_dir", str, None, "results/x"),
    ]

    @staticmethod
    def subparser(command):
        parser = cli._build_parser()
        (commands,) = [action for action in parser._actions
                       if isinstance(action, argparse._SubParsersAction)]
        return commands.choices[command]

    @pytest.mark.parametrize("command", ["run", "exact", "scaling-study"])
    def test_config_flags_listed(self, command):
        flags = {action.option_strings[0]: (action.dest, action.choices)
                 for action in self.subparser(command)._actions
                 if action.option_strings}
        for extra in ("-h", "--config", "--horizons", "--no-gpc", "--order-factor"):
            flags.pop(extra, None)
        assert flags == {flag: (dest, choices)
                         for flag, dest, _, choices, _ in self.FLAGS}

    @pytest.mark.parametrize("flag,dest,kind,choices,value", FLAGS,
                             ids=[row[0] for row in FLAGS])
    def test_flag_parses_its_type(self, flag, dest, kind, choices, value):
        args = cli._build_parser().parse_args(["run", flag, value])
        parsed = getattr(args, dest)
        assert type(parsed) is kind
        assert parsed == kind(value)
        if choices is not None:
            with pytest.raises(ConfigError, match="invalid choice"):
                cli._build_parser().parse_args(["run", flag, "bogus"])


class TestExactCommand:
    def test_matches_closed_form(self, tmp_path):
        out = tmp_path / "exact"
        code = cli.main(["exact", "--t-final", "4.0", "--grid-size", "32",
                         "--output-dir", str(out)])
        assert code == 0
        header, (times, values) = read_csv(out / "mean_square.csv")
        assert header == ["t", "value"]
        np.testing.assert_allclose(values, wave_exact_mean_square(times),
                                   atol=1e-14)

    def test_starts_from_the_initial_condition_at_t_start(self, tmp_path):
        common = ["--t-start", "5", "--t-final", "7", "--grid-size", "256"]
        assert cli.main(["exact", *common, "--output-dir", str(tmp_path / "exact")]) == 0
        assert cli.main(["run", "--solver", "gpc", "--order", "20", *common,
                         "--output-dir", str(tmp_path / "gpc")]) == 0
        _, (times, values) = read_csv(tmp_path / "exact" / "mean_square.csv")
        _, (gpc_times, gpc_values) = read_csv(tmp_path / "gpc" / "mean_square.csv")
        assert times[0] == 5.0 and values[0] == 1.0
        np.testing.assert_array_equal(times, gpc_times)
        np.testing.assert_allclose(values, gpc_values, rtol=0.0, atol=1e-3)

    def test_rejected_for_reaction_problem(self, tmp_path):
        code = cli.main(["exact", "--problem", "advection-reaction",
                         "--output-dir", str(tmp_path)])
        assert code == 1


class TestRunCommand:
    def test_empirical_artifact_bundle(self, tmp_path):
        out = tmp_path / "emp"
        code = cli.main(["run", "--solver", "empirical", "--grid-size", "64",
                         "--node-count", "40", "--t-final", "2.0",
                         "--output-dir", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        expected = {"mean_square.csv", "mean.csv", "basis_counts.csv",
                    "singular_values_window_0000.csv",
                    "singular_values_window_0001.csv"}
        assert expected <= set(manifest["files"])
        for name in manifest["files"]:
            assert (out / name).exists()
        header, columns = read_csv(out / "basis_counts.csv")
        assert header == ["window", "t_start", "t_end", "basis_count"]
        assert columns.shape[1] == 2  # one row per window

    def test_singular_values_only_for_pod_windows(self, tmp_path):
        # windows [0, 1] and [2, 3] resample; [1, 2] evolves in ten 0.1
        # sub-windows (records 1-10), whose bases come from no SVD
        out = tmp_path / "evolve"
        code = cli.main(["run", "--solver", "empirical-evolve",
                         "--schedule", "alternating", "--grid-size", "32",
                         "--node-count", "20", "--t-final", "3.0",
                         "--output-dir", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        _, columns = read_csv(out / "basis_counts.csv")
        assert columns.shape[1] == 12
        sigma_files = {name for name in manifest["files"]
                       if name.startswith("singular_values_window_")}
        assert sigma_files == {"singular_values_window_0000.csv",
                               "singular_values_window_0011.csv"}
        assert set(manifest["files"]) == set(os.listdir(out)) - {"manifest.json"}

    @pytest.mark.parametrize("error", [
        SingularBlock("zero diagonal entry at index 2"),
    ], ids=["singular-block"])
    def test_basis_evolution_failure_writes_manifest(self, tmp_path, monkeypatch,
                                                     error):
        def failing_evolve(basis, pair, dt):
            raise error

        monkeypatch.setattr("empchaos.basis_evolution.evolve_basis", failing_evolve)
        out = tmp_path / "evolve"
        code = cli.main(["run", "--solver", "empirical-evolve", "--grid-size", "32",
                         "--node-count", "20", "--t-final", "2.0",
                         "--output-dir", str(out)])
        assert code == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "solver-error"
        assert manifest["error"] == str(error)

    def test_failed_window_names_the_first_unsolved_window(self, tmp_path, monkeypatch):
        from empchaos.pde_core import IntegrationDiverged

        calls = []
        propagate = cli.driver.propagate_window

        def diverge_third(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise IntegrationDiverged(2.5)
            return propagate(*args, **kwargs)

        monkeypatch.setattr(cli.driver, "propagate_window", diverge_third)
        out = tmp_path / "run"
        code = cli.main(["run", "--grid-size", "32", "--node-count", "20", "--t-final", "4",
                         "--output-dir", str(out)])
        assert code == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "solver-error"
        assert manifest["failed_window"] == {"index": 2, "t_start": 2.0, "t_end": 3.0}
        # every file is written at the end, so a failed run leaves none
        assert os.listdir(out) == ["manifest.json"]

    @pytest.mark.parametrize("fields", [
        dict(solver="empirical"),
        dict(solver="empirical-evolve", schedule="alternating"),
        dict(problem="advection-reaction", node_count=60, window_length=1.0),
    ], ids=["wave", "alternating", "reaction"])
    def test_statistic_csvs_equal_the_archive_series(self, tmp_path, fields):
        # the run's series, reduced window by window, and the archive's
        # share one seam rule
        run = ExperimentConfig(grid_size=32, t_final=3.0, x_index=3,
                               output_dir=str(tmp_path), **fields)
        assert cli.run_experiment(run) == 0
        assert "failed_window" not in json.loads((tmp_path / "manifest.json").read_text())
        archive, _ = cli.driver.run_schedule(cli._empirical_config(run))
        for statistic in ("mean_square", "mean"):
            _, (times, values) = read_csv(tmp_path / f"{statistic}.csv")
            expected_times, expected = archive.statistic_series(3, statistic)
            np.testing.assert_array_equal(times, expected_times)
            np.testing.assert_array_equal(values, expected)

    def test_stage_timings_sum_close_to_total(self, tmp_path):
        out = tmp_path / "emp"
        code = cli.main(["run", "--solver", "empirical", "--grid-size", "64",
                         "--node-count", "60", "--t-final", "3.0",
                         "--output-dir", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        staged = sum(manifest["stage_seconds"].values())
        total = manifest["total_seconds"]
        assert staged <= total
        assert staged >= 0.95 * total

    def test_reruns_are_byte_identical(self, tmp_path, monkeypatch):
        def run(out, args, cpus):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            assert cli.main(["run", "--solver", "empirical", *args,
                             "--output-dir", str(out)]) == 0
            return {name: (out / name).read_bytes()
                    for name in os.listdir(out) if name != "manifest.json"}

        # the reaction rerun on one CPU: its 25,600 state entries are marched
        # as 2 blocks on 2 CPUs and as 1 block on 1
        for name, args, cpus in [
            ("wave", ["--grid-size", "64", "--node-count", "40", "--t-final", "2.0"], 2),
            ("reaction", ["--problem", "advection-reaction", "--grid-size", "128",
                          "--node-count", "200", "--t-final", "4.0"], 1),
        ]:
            first = run(tmp_path / name / "a", args, 2)
            second = run(tmp_path / name / "b", args, cpus)
            assert len(first) >= 5 and first == second

    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask-022", "umask-077"])
    def test_artifacts_get_the_mode_open_gives(self, tmp_path, umask, mode):
        found = os.umask(umask)
        try:
            assert cli.main(["run", "--solver", "exact", "--t-final", "1", "--grid-size",
                             "16", "--output-dir", str(tmp_path / "run")]) == 0
            assert cli.main(["scaling-study", "--grid-size", "32", "--node-count", "20",
                             "--horizons", "1", "2", "3", "--no-gpc",
                             "--output-dir", str(tmp_path / "study")]) == 0
        finally:
            os.umask(found)
        paths = [*(tmp_path / "run").iterdir(), *(tmp_path / "study").iterdir()]
        assert len(paths) == 5
        assert {path.stat().st_mode & 0o777 for path in paths} == {mode}

    @pytest.mark.parametrize("command", [
        ["run", "--solver", "exact", "--t-final", "1", "--grid-size", "16",
         "--output-dir", "{file}/sub"],
        ["compare", "{file}", "{file}", "--report", "{missing}/report.json"],
        ["scaling-study", "--grid-size", "32", "--node-count", "20", "--horizons", "1",
         "2", "3", "--no-gpc", "--output-dir", "{file}"],
    ], ids=["run", "compare-report", "scaling-study"])
    def test_unwritable_output_exits_validation(self, tmp_path, capsys, command):
        # the file is a series, so compare reads it and fails only on the report
        series = tmp_path / "series.csv"
        cli.write_series(str(series), [0.0, 1.0], [1.0, 1.0])
        args = [arg.format(file=series, missing=tmp_path / "missing") for arg in command]
        assert cli.main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "cannot write" in err
        assert "Traceback" not in err and err.count("\n") == 1

    def test_mc_writes_stderr_column(self, tmp_path):
        out = tmp_path / "mc"
        code = cli.main(["run", "--solver", "mc", "--grid-size", "32",
                         "--sample-count", "200", "--t-final", "1.0",
                         "--seed", "4", "--output-dir", str(out)])
        assert code == 0
        header, columns = read_csv(out / "mean_square.csv")
        assert header == ["t", "value", "stderr"]
        assert np.all(columns[2][1:] > 0)

    def test_mc_seed_reproducible(self, tmp_path):
        args = ["run", "--solver", "mc", "--grid-size", "32",
                "--sample-count", "100", "--t-final", "1.0", "--seed", "9"]
        assert cli.main(args + ["--output-dir", str(tmp_path / "a")]) == 0
        assert cli.main(args + ["--output-dir", str(tmp_path / "b")]) == 0
        assert ((tmp_path / "a" / "mean_square.csv").read_bytes()
                == (tmp_path / "b" / "mean_square.csv").read_bytes())

    def test_mc_manifest_records_sample_counts(self, tmp_path):
        out = tmp_path / "mc"
        code = cli.main(["run", "--solver", "mc", "--grid-size", "32",
                         "--sample-count", "50", "--t-final", "1.0",
                         "--output-dir", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["monte_carlo"] == {"sample_count": 50, "diverged_count": 0,
                                           "workers": 1}

    def test_mc_manifest_records_divergence(self, tmp_path, monkeypatch):
        solve = cli.montecarlo.mc_statistics

        def losing_three(config):
            result = solve(config)
            return dataclasses.replace(result, sample_count=result.sample_count - 3,
                                       diverged_count=3)

        monkeypatch.setattr(cli.montecarlo, "mc_statistics", losing_three)
        out = tmp_path / "mc"
        assert cli.main(["run", "--solver", "mc", "--grid-size", "32",
                         "--sample-count", "20", "--t-final", "1.0",
                         "--output-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["monte_carlo"] == {"sample_count": 17, "diverged_count": 3,
                                           "workers": 1}

    def test_mc_dead_worker_writes_solver_error_manifest(self, tmp_path, monkeypatch):
        # the forked workers inherit the patched chunk solver
        monkeypatch.setattr(cli.montecarlo, "_chunk_moments", _exit_at_once)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        out = tmp_path / "mc"
        code = cli.main(["run", "--solver", "mc", "--grid-size", "32",
                         "--sample-count", "5001", "--t-final", "1.0",
                         "--output-dir", str(out)])
        assert code == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "solver-error"
        assert "terminated abruptly" in manifest["error"]

    def test_mc_all_diverged_writes_solver_error_manifest(self, tmp_path, monkeypatch):
        def all_diverged(config):
            raise cli.montecarlo.AllSamplesDiverged(config.sample_count,
                                                    config.window.end)

        monkeypatch.setattr(cli.montecarlo, "mc_statistics", all_diverged)
        out = tmp_path / "mc"
        code = cli.main(["run", "--solver", "mc", "--grid-size", "32",
                         "--sample-count", "20", "--t-final", "1.0",
                         "--output-dir", str(out)])
        assert code == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "solver-error"
        assert manifest["error"] == "all 20 Monte Carlo samples diverged by t = 1"

    def test_gpc_run(self, tmp_path):
        out = tmp_path / "gpc"
        code = cli.main(["run", "--solver", "gpc", "--order", "8",
                         "--grid-size", "64", "--t-final", "2.0",
                         "--output-dir", str(out)])
        assert code == 0
        _, (times, values) = read_csv(out / "mean_square.csv")
        np.testing.assert_allclose(values, wave_exact_mean_square(times),
                                   atol=1e-3)

    def test_solver_divergence_exit_code(self, tmp_path, monkeypatch):
        from empchaos.pde_core import IntegrationDiverged

        def exploding_solve(config, emp_config, out, manifest):
            raise IntegrationDiverged(0.75)

        monkeypatch.setattr(cli, "_solve", exploding_solve)
        out = tmp_path / "blow"
        code = cli.main(["run", "--solver", "empirical", "--t-final", "1.0",
                         "--output-dir", str(out)])
        assert code == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "solver-error"
        assert "diverged" in manifest["error"]

    @pytest.mark.parametrize("target,args", [
        ("empchaos.driver.run_schedule", ["--outputs-per-window", "11"]),
        ("empchaos.montecarlo._draw_samples", ["--solver", "mc", "--sample-count", "20"]),
        ("empchaos.random_space.chebyshev_nodes", ["--node-count", "20"]),
    ], ids=["outputs", "samples", "nodes"])
    def test_failed_allocation_writes_solver_error_manifest(self, tmp_path, capsys,
                                                            monkeypatch, target, args):
        # a raise, not a real huge size: whether one fails before touching
        # memory depends on the host's overcommit policy
        def too_large(*args, **kwargs):
            raise MemoryError(ALLOCATION_ERROR)

        monkeypatch.setattr(target, too_large)
        out = tmp_path / "run"
        code = cli.main(["run", *args, "--grid-size", "16", "--t-final", "1",
                         "--output-dir", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {ALLOCATION_ERROR}\n"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "solver-error"
        assert manifest["error"] == ALLOCATION_ERROR

    @pytest.mark.parametrize("solver,step,message", [
        ("empirical", "1.0", "CFL number 0.509"),
        ("empirical", "1e-320", "step 1e-320 is too small"),
        ("gpc", "1e-320", "step 1e-320 is too small"),
        ("gpc", "1e-9", "1000000000 steps of 128 state entries exceed the limit"),
    ], ids=["empirical", "empirical-uncountable", "gpc-uncountable", "gpc-too-many-steps"])
    def test_invalid_step_exits_validation(self, tmp_path, capsys, solver, step,
                                           message):
        # a unit step, fitted to the 0.1 output spacing, is still CFL 0.509
        # on 32 grid points; a 1e-320 step has no finite step count; 1e-9
        # plans 1e9 RK4 steps, rejected before the march
        out = tmp_path / solver
        tic = time.perf_counter()
        code = cli.main(["run", "--solver", solver, "--grid-size", "32",
                         "--node-count", "20", "--order", "4", "--t-final", "1",
                         "--step", step, "--output-dir", str(out)])
        assert time.perf_counter() - tic < 10.0
        assert code == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "invalid-input"
        assert message in manifest["error"]
        assert "step" in manifest["error"].lower()
        assert f"error: {message}" in capsys.readouterr().err

    def test_gpc_step_beyond_the_cfl_bound_exits_validation(self, tmp_path):
        # a 0.1 step on 256 points is CFL 3.97 at the largest node of the
        # default order's Gauss-Legendre rule, the speed of its fastest mode
        code = cli.main(["run", "--solver", "gpc", "--grid-size", "256", "--step", "0.1",
                         "--t-final", "1", "--output-dir", str(tmp_path)])
        assert code == 1
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "invalid-input"
        assert "CFL number 3.968" in manifest["error"]
        assert not (tmp_path / "mean_square.csv").exists()

    def test_step_is_fitted_to_the_output_times(self, tmp_path):
        def run(step):
            out = tmp_path / step
            assert cli.main(["run", "--solver", "gpc", "--grid-size", "32",
                             "--order", "4", "--t-final", "1", "--step", step,
                             "--output-dir", str(out)]) == 0
            return {name: (out / name).read_bytes()
                    for name in os.listdir(out) if name != "manifest.json"}

        assert run("1.0") == run("0.1")

    @pytest.mark.parametrize("solver", ["gpc", "mc"])
    def test_fine_grid_default_step_runs(self, tmp_path, solver):
        # the default step 0.5*h = 0.00307 does not divide the 0.1 spacing
        code = cli.main(["run", "--solver", solver, "--grid-size", "1024",
                         "--t-final", "2", "--sample-count", "200",
                         "--output-dir", str(tmp_path)])
        assert code == 0

    def test_cfl_checked_against_the_fitted_step(self, tmp_path):
        # 0.0124 is CFL 0.505 on 256 points; the fitted 0.1/9 is CFL 0.453
        code = cli.main(["run", "--solver", "empirical", "--grid-size", "256",
                         "--node-count", "40", "--t-final", "1", "--step", "0.0124",
                         "--output-dir", str(tmp_path)])
        assert code == 0

    @pytest.mark.parametrize("solver", ["gpc", "mc"])
    def test_short_last_window_with_a_common_step_runs(self, tmp_path, solver):
        # outputs 0.1 apart, then 0.03 apart in [10, 10.3]: 0.01 holds them all
        code = cli.main(["run", "--solver", solver, "--grid-size", "32", "--order", "4",
                         "--sample-count", "50", "--t-final", "10.3",
                         "--output-dir", str(tmp_path)])
        assert code == 0
        times = read_csv(tmp_path / "mean_square.csv")[1][0]
        assert times[-2:] == pytest.approx([10.27, 10.3])

    def test_ragged_last_window_has_no_common_step(self, tmp_path):
        # outputs 0.1 apart, then 0.037 apart in [10, 10.37]: no step fits both
        # gaps, so each run of outputs gets its own, and the reference solvers
        # report at the empirical solver's output times
        def times(solver):
            out = tmp_path / solver
            assert cli.main(["run", "--solver", solver, "--grid-size", "32", "--order", "4",
                             "--node-count", "40", "--sample-count", "50",
                             "--t-final", "10.37", "--output-dir", str(out)]) == 0
            return read_csv(out / "mean_square.csv")[1][0]

        empirical = times("empirical")
        assert empirical[-2:] == pytest.approx([10.333, 10.37])
        for solver in ("gpc", "mc"):
            np.testing.assert_array_equal(times(solver), empirical)


def traced_peak(tmp_path, **fields) -> int:
    """Peak bytes that tracemalloc sees during one ``run_experiment``."""
    tracemalloc.start()
    try:
        assert cli.run_experiment(ExperimentConfig(output_dir=str(tmp_path), **fields)) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    def test_empirical_peak_does_not_grow_with_the_horizon(self, tmp_path):
        # a run holds one window at a time; holding all of them would add
        # about 50 kB a window here, 9 MB from t = 20 to t = 200
        short = traced_peak(tmp_path / "short", grid_size=64, t_final=20.0)
        long = traced_peak(tmp_path / "long", grid_size=64, t_final=200.0)
        assert long - short < 2**20

    def test_gpc_peak_is_below_one_coefficient_array(self, tmp_path):
        # the 501 outputs of (order, M) = (10, 64) coefficients are 2.6 MB;
        # a run keeps only each output's column at x_index
        peak = traced_peak(tmp_path, solver="gpc", grid_size=64, order=10, t_final=50.0)
        assert peak < 501 * 10 * 64 * 8


class TestBlasThreads:
    """The CLI solves on one BLAS thread and restores the counts it found."""

    @pytest.mark.parametrize("step,code,status", [
        (None, 0, "ok"),
        # a unit step breaks the CFL bound on 32 grid points
        ("1.0", 1, "invalid-input"),
    ])
    def test_run_restores_thread_counts(self, tmp_path, two_blas_threads, step, code,
                                        status):
        argv = ["run", "--solver", "empirical", "--grid-size", "32",
                "--node-count", "20", "--t-final", "1", "--output-dir", str(tmp_path)]
        assert cli.main(argv + (["--step", step] if step else [])) == code
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == status
        assert manifest["blas_threads"] == {name: 1 for name in two_blas_threads()}
        assert set(two_blas_threads().values()) == {2}

    @pytest.mark.parametrize("step,outcome", [
        (None, contextlib.nullcontext()),
        (1.0, pytest.raises(ValueError, match="step")),
    ])
    def test_scaling_study_restores_thread_counts(self, two_blas_threads, step, outcome):
        config = ExperimentConfig(grid_size=32, node_count=20, outputs_per_window=3,
                                  step=step)
        with outcome:
            cli.run_scaling_study(config, [1.0, 2.0, 3.0])
        assert set(two_blas_threads().values()) == {2}

    def test_solve_starts_without_idle_workers(self, two_blas_threads):
        # threaded work, or a pool restarted by a count being set, leaves
        # workers that spin for a while; the one-thread body runs without them,
        # restoring the counts leaves none, and threaded work restarts them
        if not all(shutdown for _, _, shutdown in cli._blas_pools().values()):
            pytest.skip("an OpenBLAS without blas_thread_shutdown_")
        a = np.random.default_rng(0).normal(size=(300, 300))
        product = a @ a
        running = len(os.listdir("/proc/self/task"))
        with cli._one_blas_thread():
            inside = len(os.listdir("/proc/self/task"))
        assert inside < running
        assert len(os.listdir("/proc/self/task")) == inside
        np.testing.assert_allclose(a @ a, product, rtol=1e-12)
        assert len(os.listdir("/proc/self/task")) > inside

    def test_manifest_records_environment(self, tmp_path):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        assert cli.main(["run", "--solver", "exact", "--grid-size", "32",
                         "--t-final", "1", "--output-dir", str(tmp_path)]) == 0
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["python"] == platform.python_version()
        assert manifest["numpy"] == np.__version__
        assert "scipy" not in manifest
        assert before <= manifest["peak_rss_mb"] <= after


class TestWriteSeries:
    SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e16, 0.1,
               np.finfo(float).max, np.finfo(float).tiny, 2.0 ** 53 + 2.0]

    @pytest.mark.parametrize("with_stderr", [False, True])
    def test_bytes_match_the_fstring_form(self, tmp_path, with_stderr):
        rng = np.random.default_rng(5)
        values = np.concatenate([self.SPECIAL, rng.standard_normal(500)
                                 * 10.0 ** rng.integers(-300, 300, 500)])
        times = np.arange(values.size) / 7.0
        columns = [times, values, values[::-1]] if with_stderr else [times, values]
        path = tmp_path / "series.csv"
        cli.write_series(str(path), *columns)
        header = "t,value,stderr" if with_stderr else "t,value"
        lines = [header] + [",".join(f"{v:.17g}" for v in row) for row in zip(*columns)]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


class TestCompareCommand:
    def test_identical_series_pass(self, tmp_path):
        path = tmp_path / "series.csv"
        times = np.linspace(0.0, 2.0, 9)
        cli.write_series(str(path), times, np.cos(times))
        assert cli.main(["compare", str(path), str(path)]) == 0

    def test_mismatch_exits_comparison_code(self, tmp_path, capsys):
        times = np.linspace(0.0, 2.0, 9)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        cli.write_series(str(a), times, np.cos(times))
        cli.write_series(str(b), times, np.cos(times) + 0.5)
        report_path = tmp_path / "report.json"
        code = cli.main(["compare", str(a), str(b), "--tolerance", "1e-2",
                         "--report", str(report_path)])
        assert code == 3
        report = json.loads(report_path.read_text())
        assert report["max_abs"] == pytest.approx(0.5, abs=1e-12)
        assert not report["passed"]

    def test_missing_file_exits_validation(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        cli.write_series(str(a), [0.0, 1.0], [1.0, 1.0])
        missing = tmp_path / "missing.csv"
        assert cli.main(["compare", str(missing), str(a)]) == 1
        assert str(missing) in capsys.readouterr().err

    def test_non_numeric_row_exits_validation(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        cli.write_series(str(a), [0.0, 1.0], [1.0, 1.0])
        b.write_text("t,value\n0,1\n1,one\n")
        assert cli.main(["compare", str(a), str(b)]) == 1
        assert str(b) in capsys.readouterr().err

    def test_disjoint_ranges_exit_validation(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        cli.write_series(str(a), [0.0, 1.0], [1.0, 1.0])
        cli.write_series(str(b), [5.0, 6.0], [1.0, 1.0])
        assert cli.main(["compare", str(a), str(b)]) == 1

    @pytest.mark.parametrize("rows", [
        "t,value\n2,0.5\n0,1\n1,0\n",
        "t,value\n0,1\n1,0\n1,0\n2,0.5\n",
        "t,value\n0,1\nnan,0\n2,0.5\n",
    ], ids=["reordered", "repeated", "nan-time"])
    def test_unordered_times_exit_validation(self, tmp_path, capsys, rows):
        # the same series as a.csv, rows reordered, is not a mismatch to report
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        cli.write_series(str(a), [0.0, 1.0, 2.0], [1.0, 0.0, 0.5])
        b.write_text(rows)
        assert cli.main(["compare", str(a), str(b)]) == 1
        assert "strictly increasing" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_value_exits_validation(self, tmp_path, capsys, value):
        # a NaN deviation would print "max_abs": NaN, which is not JSON
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        cli.write_series(str(a), [0.0, 1.0, 2.0], [1.0, 0.0, 0.5])
        b.write_text(f"t,value\n0,1\n1,{value}\n2,0.5\n")
        report_path = tmp_path / "report.json"
        assert cli.main(["compare", str(a), str(b), "--report", str(report_path)]) == 1
        assert "values must be finite" in capsys.readouterr().err
        assert not report_path.exists()

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
    def test_invalid_tolerance_exits_validation(self, tmp_path, capsys, tolerance):
        a = tmp_path / "a.csv"
        cli.write_series(str(a), [0.0, 1.0], [1.0, 1.0])
        report_path = tmp_path / "report.json"
        assert cli.main(["compare", str(a), str(a), "--tolerance", tolerance,
                         "--report", str(report_path)]) == 1
        assert "tolerance" in capsys.readouterr().err
        assert not report_path.exists()

    def test_interpolates_between_grids(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        dense = np.linspace(0.0, 1.0, 101)
        coarse = np.linspace(0.0, 1.0, 11)
        cli.write_series(str(a), coarse, coarse**2)
        cli.write_series(str(b), dense, dense**2)
        report = cli.compare_series(str(a), str(b), 1e-8)
        assert report["passed"]
        assert report["points"] == 11


def window_of_basis_size(size: int):
    """Stand-in for a solved window of ``run_schedule``, as a scaling study reads it."""
    return types.SimpleNamespace(basis=types.SimpleNamespace(size=size))


class TestScalingStudy:
    def test_rejects_too_few_horizons(self):
        config = ExperimentConfig(grid_size=32, node_count=20)
        with pytest.raises(ConfigError, match="horizons"):
            cli.run_scaling_study(config, [1.0, 2.0])

    @pytest.mark.parametrize("horizons,order_factor,field", [
        ([1.0, 2.0, float("nan")], 1.1, "horizons"),
        ([1.0, 2.0, 3.0], float("nan"), "order_factor"),
        ([1.0, 2.0, 3.0], float("inf"), "order_factor"),
        ([1.0, 2.0, 3.0], 0.0, "order_factor"),
        ([1.0, 2.0, 3.0], -1.0, "order_factor"),
    ])
    def test_rejects_bad_horizons_and_order_factor(self, horizons, order_factor,
                                                   field):
        config = ExperimentConfig(grid_size=32, node_count=20)
        with pytest.raises(ConfigError, match=field):
            cli.run_scaling_study(config, horizons, order_factor=order_factor)

    @pytest.mark.parametrize("step,message", [
        ("1.0", "CFL number 0.509"),
        ("1e-320", "step 1e-320 is too small"),
    ], ids=["cfl", "uncountable"])
    def test_rejected_step_exits_validation(self, tmp_path, capsys, step, message):
        code = cli.main(["scaling-study", "--grid-size", "32", "--node-count", "20",
                         "--step", step, "--horizons", "1", "2", "3",
                         "--output-dir", str(tmp_path / "study")])
        assert code == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "study").exists()

    def test_failed_allocation_exits_solver_error(self, tmp_path, capsys, monkeypatch):
        def too_large(config, record):
            raise MemoryError(ALLOCATION_ERROR)

        monkeypatch.setattr("empchaos.driver.run_schedule", too_large)
        code = cli.main(["scaling-study", "--grid-size", "16", "--horizons", "1", "2", "3",
                         "--no-gpc", "--output-dir", str(tmp_path / "study")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {ALLOCATION_ERROR}\n"
        assert not (tmp_path / "study").exists()

    def test_horizons_past_the_default_t_final_run(self, tmp_path):
        # the study never reads t_final, which defaults to 10
        code = cli.main(["scaling-study", "--t-start", "12", "--horizons", "13", "14", "15",
                         "--grid-size", "32", "--node-count", "20", "--no-gpc",
                         "--output-dir", str(tmp_path / "study")])
        assert code == 0
        _, columns = read_csv(tmp_path / "study" / "scaling.csv")
        assert list(columns[0]) == [13.0, 14.0, 15.0]

    def test_solver_failure_exits_diverged(self, tmp_path, capsys, monkeypatch):
        from empchaos.pde_core import IntegrationDiverged

        def exploding_schedule(config, record):
            raise IntegrationDiverged(0.75)

        monkeypatch.setattr(cli.driver, "run_schedule", exploding_schedule)
        code = cli.main(["scaling-study", "--grid-size", "32", "--node-count", "20",
                         "--horizons", "1", "2", "3",
                         "--output-dir", str(tmp_path / "study")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_empirical_time_is_the_least_of_rounds(self, monkeypatch):
        # each round solves every horizon once; a slow spell (the 9 s) in one
        # round does not set that horizon's time
        durations = iter([1.0, 2.0, 9.0, 1.5, 2.5, 3.0, 1.2, 9.0, 3.5])
        clock = [0.0]
        solved = []

        def timed_schedule(config, record):
            solved.append(config.t_final)
            clock[0] += next(durations)
            for size in (4, 5):
                record(window_of_basis_size(size))
            return None, None
        monkeypatch.setattr(cli.driver, "run_schedule", timed_schedule)
        monkeypatch.setattr(cli.time, "perf_counter", lambda: clock[0])
        report = cli.run_scaling_study(ExperimentConfig(grid_size=32, node_count=20),
                                       [3.0, 1.0, 2.0], with_gpc=False)
        assert solved == [1.0, 2.0, 3.0] * 3
        assert [row["empirical_seconds"] for row in report["rows"]] == [1.0, 2.0, 3.0]
        assert [row["max_basis_count"] for row in report["rows"]] == [5, 5, 5]
        assert report["empirical_rounds"] == 3

    def test_short_solves_get_rounds_until_their_time_adds_up(self, monkeypatch):
        # the shortest horizon takes 1/64 s a solve, so 0.25 s takes 16 rounds
        clock = [0.0]
        solved = []

        def timed_schedule(config, record):
            solved.append(config.t_final)
            clock[0] += config.t_final / 64
            record(window_of_basis_size(4))
            return None, None
        monkeypatch.setattr(cli, "_TIMING_SECONDS", 0.25)
        monkeypatch.setattr(cli.driver, "run_schedule", timed_schedule)
        monkeypatch.setattr(cli.time, "perf_counter", lambda: clock[0])
        report = cli.run_scaling_study(ExperimentConfig(grid_size=32, node_count=20),
                                       [1.0, 2.0, 4.0], with_gpc=False)
        assert solved == [1.0, 2.0, 4.0] * 16
        assert report["empirical_rounds"] == 16
        assert [row["empirical_seconds"] for row in report["rows"]] == [1 / 64, 2 / 64, 4 / 64]

    def test_report_structure_and_artifacts(self, tmp_path):
        config = ExperimentConfig(grid_size=32, node_count=20,
                                  outputs_per_window=3,
                                  output_dir=str(tmp_path))
        report = cli.run_scaling_study(config, [1.0, 2.0, 3.0])
        assert {"rows", "empirical_fit", "gpc_fit",
                "crossover_exists"} <= set(report)
        assert len(report["rows"]) == 3
        assert all(row["empirical_seconds"] > 0 for row in report["rows"])
        cli.write_scaling_artifacts(report, str(tmp_path))
        header, columns = read_csv(tmp_path / "scaling.csv")
        assert header[:3] == ["t_final", "empirical_seconds", "max_basis_count"]
        assert columns.shape[1] == 3
        assert (tmp_path / "scaling_report.json").exists()
