"""Tests of the benchmark itself: tracing arithmetic, restoration, checks, references.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import inspect
import json
import os

import numpy as np
import pytest

import empchaos
import run
import tracing
import workloads
from empchaos import cli


def span(id, name, parent, start, end, cpu=None, counts=None):
    cpu_start, cpu_end = cpu if cpu is not None else (start, end)
    return tracing.Span(id, name, parent, 0, start, end, cpu_start, cpu_end, counts)


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        span(0, "root", None, 0.0, 10.0, cpu=(0.0, 20.0)),
        span(1, "a", 0, 1.0, 4.0, cpu=(1.0, 7.0)),
        span(2, "b", 0, 3.0, 6.0, cpu=(5.0, 9.0)),   # overlaps a
        span(3, "c", 0, 8.0, 12.0, cpu=(18.0, 24.0)),  # runs past the parent's end
        span(4, "leaf", 1, 1.5, 2.5, cpu=(2.0, 3.0)),  # grandchild: only a loses it
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx((10.0 - (5.0 + 2.0), 20.0 - (8.0 + 2.0)))
    assert selfs[1] == pytest.approx((3.0 - 1.0, 6.0 - 1.0))
    assert selfs[2] == pytest.approx((3.0, 4.0))
    assert selfs[4] == pytest.approx((1.0, 1.0))


def test_layer_metrics_are_per_solve_and_ratios_pool_calls():
    spans = [
        span(0, "pod.truncate_pod", None, 0.0, 2.0, counts={"kept": 3, "computed": 10}),
        span(1, "pod.truncate_pod", None, 2.0, 3.0, counts={"kept": 1, "computed": 10}),
        span(2, "montecarlo.mc_statistics", None, 3.0, 9.0,
             counts={"good": 90, "attempted": 100}),
        span(3, "pde_core.solve_ensemble", 2, 4.0, 8.0, counts={"out_bytes": 640}),
        span(4, "pde_core.solve_ensemble", None, 9.0, 10.0, counts={"out_bytes": 9999}),
    ]
    metrics = tracing.layer_metrics(spans, runs=2)
    assert metrics["pod.truncate_pod.self_s"] == pytest.approx(1.5)
    assert metrics["pod.truncate_pod.calls"] == 1.0
    assert metrics["pod.kept_ratio"] == pytest.approx(4 / 20)
    assert metrics["montecarlo.ok_ratio"] == pytest.approx(0.9)
    assert metrics["montecarlo.mc_statistics.self_s"] == pytest.approx((6.0 - 4.0) / 2)
    # only the block produced under mc_statistics counts
    assert metrics["montecarlo.block_bytes"] == 640
    assert metrics["gpc.solve_gpc.incl_s"] == 0.0


def _bindings():
    """Identity snapshot of every module and public-class attribute of the package."""
    owners = [m for m in vars(empchaos).values() if inspect.ismodule(m)]
    owners += [v for m in list(owners) for v in vars(m).values() if inspect.isclass(v)]
    return {(id(owner), attr): value for owner in owners for attr, value in vars(owner).items()}


def test_traced_run_restores_every_wrapped_attribute(tmp_path):
    before = _bindings()
    tracer = tracing.Tracer(empchaos)
    configs = [dict(problem="wave", solver="empirical", grid_size=16, node_count=12,
                    t_final=1.0)]
    sample = run.solve(cli, configs, str(tmp_path), tracer=tracer)
    assert not sample.failures
    names = {s.name for s in tracer.spans}
    # a function bound in another module is traced at that binding site
    assert {"driver.run_schedule", "pod.truncate_pod", "pde_core.spatial_derivative",
            "galerkin.ExpansionArchive.to_json", "cli.run_experiment"} <= names
    assert tracing.layer_metrics(tracer.spans, 1)["driver.windows"] == 1.0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_wrappers_are_removed_when_a_traced_call_raises():
    before = _bindings()
    with pytest.raises(ValueError):
        with tracing.Tracer(empchaos):
            empchaos.pde_core.spatial_derivative(np.zeros(3), empchaos.pde_core.SpatialGrid(4))
    after = _bindings()
    assert all(after[key] is value for key, value in before.items())


def _output(times, values, stderr=None, basis_max=None):
    return workloads.Output(exit_code=0, status="ok", times=np.asarray(times),
                            mean_square=np.asarray(values), stderr=stderr,
                            basis_max=basis_max)


def test_perturbed_series_fail_their_checks_and_count_as_failed():
    ref = workloads.load_reference("ar-montecarlo")
    good = _output(ref.times, ref.mean_square, ref.stderr)
    err, failures = workloads.evaluate("ar-montecarlo", [good], ref)
    assert failures == [] and err == pytest.approx(np.max(ref.stderr))
    shifted = ref.mean_square.copy()
    shifted[5] += 10 * ref.stderr[5]
    _, failures = workloads.evaluate("ar-montecarlo",
                                     [_output(ref.times, shifted, ref.stderr)], ref)
    assert failures

    times = np.linspace(0.0, 50.0, 501)
    exact = workloads._exact_mean_square(times)
    wave = [_output(times, exact, basis_max=7), _output(times[:251], exact[:251])]
    assert workloads.evaluate("wave", wave, None) == (0.0, [])
    wave[1] = _output(times[:251], exact[:251] + 0.02)
    err, failures = workloads.evaluate("wave", wave, None)
    assert err == pytest.approx(0.02) and failures

    samples = [run.Sample(wall=1.0, cpu=1.0, err=0.0),
               run.Sample(wall=1.0, cpu=1.0, err=err, failures=failures)]
    assert run.failure_counts(samples) == (2, 1)


def test_a_raising_solve_is_a_failed_solve(tmp_path):
    sample = run.solve(cli, [dict(grid_size=1)], str(tmp_path),
                       check=lambda outputs: (0.0, []))
    assert sample.failures and "ConfigError" in sample.failures[0]


@pytest.mark.parametrize("name", ["ar-empirical", "ar-montecarlo"])
def test_stored_reference_matches_its_recorded_config(name):
    ref = workloads.load_reference(name)
    (kw,) = workloads.configs(name, seed=0)
    assert ref.config == {"problem": kw["problem"], "grid_size": kw["grid_size"],
                          "t_final": kw["t_final"], "x_index": 0}
    assert ref.provenance["seed"] == 0 and ref.provenance["sample_count"] == 10_000
    assert ref.provenance["diverged_count"] == 0
    config = cli.ExperimentConfig(**kw)
    starts = np.arange(0.0, config.t_final, config.resolved_window_length)
    grid = np.unique(np.concatenate([
        np.linspace(s, min(s + config.resolved_window_length, config.t_final),
                    config.outputs_per_window) for s in starts]))
    np.testing.assert_allclose(ref.times, grid, atol=1e-12)
    assert ref.mean_square.shape == ref.stderr.shape == grid.shape
    assert ref.stderr[0] == 0.0 and np.all(ref.stderr[1:] > 0.0)


def test_every_declared_metric_is_reported_with_its_declared_unit():
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    layer_names = set(tracing.layer_metrics([], runs=1)) | {"cli.export_bytes",
                                                             "trace.overhead_s"}
    assert {m["name"] for m in declared["per_layer"]} == layer_names
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert run.unit_of(metric["name"]) == metric["unit"], metric["name"]
