"""The benchmark in perfbench/ reaches into the package by name: its workloads
call package functions as module attributes, and its tracer wraps named
functions and methods.  A name that goes missing would fail a benchmark run,
so every one of them must resolve.
"""

import ast
import contextlib
import importlib.util
import io
import sys
import types
from pathlib import Path

import numpy as np

from multinoise import baselines, cli, experiments
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
