"""The benchmark in perfbench/ reaches into the package by name: its workloads
call package functions as module attributes, and its tracer wraps named
functions and methods.  A name that goes missing would fail a benchmark run,
so every one of them must resolve; and a hook that reads what the package no
longer returns would fail a traced run, so one traced unit of every workload
runs here.
"""

import ast
import contextlib
import importlib.util
import io
import json
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

from multinoise import baselines, cli, experiments, system_model
from multinoise.presets import get_preset

from conftest import standard_normal_inputs

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(stem):
    name = f"_perfbench_{stem}"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{stem}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses and pickling look a module up by name
        spec.loader.exec_module(module)
    return sys.modules[name]


def test_every_package_name_the_workloads_call_resolves():
    workloads = _load("workloads")
    package_modules = {
        alias: module
        for alias, module in vars(workloads).items()
        if isinstance(module, types.ModuleType) and module.__name__.split(".")[0] == "multinoise"
    }
    called = {
        (node.value.id, node.attr)
        for node in ast.walk(ast.parse((PERFBENCH / "workloads.py").read_text()))
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in package_modules
    }
    assert {("mn", "mals"), ("experiments", "run_baseline_comparison"), ("cli", "main")} <= called
    missing = [f"{alias}.{attr}" for alias, attr in sorted(called) if not hasattr(package_modules[alias], attr)]
    assert not missing, missing


def _resolves(name):
    layer, _, qualname = name.partition(".")
    obj = sys.modules[f"multinoise.{layer}"]
    for part in qualname.split("."):
        obj = getattr(obj, part, None)
    return obj is not None


def test_every_name_the_tracer_wraps_resolves():
    layertrace = _load("layertrace")
    _load("workloads")  # imports the experiments and cli layers
    names = [f"{layer}.{extra}" for layer in layertrace.LAYERS for extra in layertrace.EXTRA.get(layer, ())]
    missing = [name for name in names + list(layertrace.HOOKS) if not _resolves(name)]
    assert not missing, missing


def test_traced_rls_reports_its_steps_and_frozen_runs():
    layertrace = _load("layertrace")
    _load("workloads")
    system = get_preset("paper-4.2-rho1.0").system
    law = standard_normal_inputs(system.m)
    T, reps, seed = 400, 4, 3
    states, inputs, _ = baselines.simulate_single_trajectories(system, law, T, reps, seed)
    phi_n = np.concatenate([states[:, :-1], inputs], axis=2)
    frozen = baselines._rls_batch(phi_n, states[:, 1:], [T])[1].sum()
    frozen += baselines._rls_batch(*baselines.second_moment_regressors(states, inputs), [T])[1].sum()
    assert frozen > 0

    original = baselines._rls_batch
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert baselines._rls_batch is not original
        traced = baselines.rls_batch_estimates(system, law, T, reps, seed, [T])
    finally:
        tracer.uninstall()
    assert baselines._rls_batch is original
    metrics = layertrace.layer_metrics(tracer.spans, 1.0)
    assert metrics["baselines.rls_steps"] == 2 * reps * T
    assert metrics["baselines.diverged_runs"] == frozen
    assert metrics["baselines.rls_s"] > 0 and metrics["baselines.simulate_s"] > 0
    plain = baselines.rls_batch_estimates(system, law, T, reps, seed, [T])
    for a, b in zip(traced, plain):
        assert np.array_equal(a, b)


def test_traced_bound_grids_complete_and_match_untraced_runs(tmp_path):
    # the tracer reads a float from every bounds.delta*/eta* result, so the eps-grid
    # evaluations of the bounds command and the tail envelope must not go through those names
    layertrace = _load("layertrace")
    _load("workloads")
    config = experiments.ExperimentConfig(
        preset="paper-4.1", input_laws=("uniform",), tail_grid=(50, 100), tail_reps=10, seed=3
    )

    def run(out):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["bounds", "--preset", "paper-4.1", "--out", str(out / "bounds")])
        experiments.run_tail_frequency(config, with_bounds=True).write(out / "tail")
        return code, {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*.csv"))}

    tracer = layertrace.Tracer()
    tracer.install()
    try:
        traced = run(tmp_path / "traced")
    finally:
        tracer.uninstall()
    metrics = layertrace.layer_metrics(tracer.spans, 1.0)
    assert metrics["cli.commands"] == 1 and metrics["bounds.context_s"] > 0
    assert traced[0] == 0
    assert len(traced[1]) == 4  # delta/eta bounds, tail frequencies, bound envelope
    assert traced == run(tmp_path / "plain")


#: Size constants of each workload, shrunk so that a unit takes a fraction of a second.
_SMALL_UNITS = {
    "mals-bulk": {"N_R": 2000},
    "experiment-sweep": {"CONV_GRID": (20, 40), "CONV_REPS": 2, "TAIL_GRID": (20, 40), "TAIL_REPS": 3},
    "rls-baseline": {"REPS": 2, "GRID": (5, 10)},
    "cli-roundtrip": {"N_R": 200},
}


@pytest.mark.parametrize("name", sorted(_SMALL_UNITS))
def test_a_traced_unit_of_every_workload_records_what_an_untraced_one_does(monkeypatch, tmp_path, name):
    # the tracer keeps one span stack per process, so the rollout blocks run on the calling thread
    layertrace = _load("layertrace")
    workloads = _load("workloads")
    assert sorted(workloads.WORKLOADS) == sorted(_SMALL_UNITS)
    cls = workloads.WORKLOADS[name]
    for attr, value in _SMALL_UNITS[name].items():
        monkeypatch.setattr(cls, attr, value)
    monkeypatch.setattr(system_model, "_usable_cpus", lambda: 1)
    wl = cls(tmp_path, 7)
    seed = workloads.derive_seed(7, "unit", 0)

    tracer = layertrace.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        payload = wl.unit(seed)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    metrics = layertrace.layer_metrics(tracer.spans, wall)
    traced = wl.record(payload)  # before the untraced unit writes over the outputs
    plain = wl.record(wl.unit(seed))
    assert traced[1:] == plain[1:]  # counts and digests
    bench = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in bench["per_layer"]} - {"trace.overhead_s"}  # run.py takes it from two runs
    assert per_layer <= set(metrics), sorted(per_layer - set(metrics))
