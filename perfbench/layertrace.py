"""Per-layer spans for multinoise, recorded from outside the package.

``Tracer.install`` replaces every public function of each layer module (the
names in its ``__all__``, or its module-level functions without a leading
underscore) with a timing wrapper, in *every* ``multinoise`` namespace that
holds the function.  ``from .system_model import simulate_rollouts`` in
``mals.py`` binds its own name, so wrapping only the defining module would miss
those calls.  A few methods and one private helper that carry a layer metric are
wrapped as well (``EXTRA``).  ``uninstall`` puts every original back.

Spans are kept in memory as ``[name, start, end, parent, extra]`` lists and
reduced by ``layer_metrics``.  A span's self time is its duration minus the
durations of its direct children; spans nest strictly because the package is
single-threaded.
"""

from __future__ import annotations

import functools
import sys
import time
import types

PACKAGE = "multinoise"

LAYERS = (
    "rngstream",
    "system_model",
    "mals",
    "moment_oracle",
    "identifiability",
    "bounds",
    "baselines",
    "experiments",
    "cli",
    "presets",
    "shape_ops",
)

#: Methods (``Class.name``) and private helpers timed besides the public functions.
EXTRA = {
    "system_model": ("RolloutSet.to_json", "RolloutSet.from_json"),
    "baselines": ("_rls_batch",),
    "experiments": ("ExperimentReport.write",),
    "presets": ("PresetBundle.with_input_law", "PresetBundle.equivalence"),
    "identifiability": ("EquivalenceClass.to_json",),
}


def _text_arg(args, kwargs):
    return args[1] if len(args) > 1 else kwargs["text"]


def _bound_hook(args, kwargs, result):
    """A bound function's value; for a family dict, its final bound."""
    if isinstance(result, dict):
        return float(result["delta_AB"] if "delta_AB" in result else result["eta"])
    return float(result)


#: Per-span payloads, computed from arguments and results after the call returns.
HOOKS = {
    "rngstream.uniform01": lambda a, k, r: int(r.size),
    "system_model.simulate_rollouts": lambda a, k, r: int(r.n_r * r.ell),
    "system_model.RolloutSet.to_json": lambda a, k, r: len(r),
    "system_model.RolloutSet.from_json": lambda a, k, r: len(_text_arg(a, k)),
    "mals.mals": lambda a, k, r: int(r.diagnostics["used_pinv_z"]) + int(r.diagnostics["used_pinv_d"]),
    "baselines._rls_batch": lambda a, k, r: (int(a[0].shape[0] * a[0].shape[1]), int(r[1].sum())),
    "experiments.ExperimentReport.write": lambda a, k, r: sum(
        p.stat().st_size for p in r if p.suffix == ".csv"
    ),
}


def _is_bound_eval(name):
    layer, _, func = name.partition(".")
    return layer == "bounds" and func.startswith(("delta", "eta"))


#: Stage metrics: total time of the outermost spans among the named functions
#: (inclusive of whatever those functions call).
STAGES = {
    "system_model.simulate_s": ("system_model.simulate_rollouts",),
    "system_model.json_write_s": ("system_model.RolloutSet.to_json",),
    "system_model.json_read_s": ("system_model.RolloutSet.from_json",),
    "mals.moments_s": ("mals.empirical_moments",),
    "mals.solve_s": ("mals.estimate_nominal", "mals.estimate_covariance", "mals.estimate_from_population"),
    "mals.attach_errors_s": ("mals.attach_errors",),
    "moment_oracle.lift_s": ("moment_oracle.lift", "moment_oracle.lift_nominal"),
    "moment_oracle.propagate_s": (
        "moment_oracle.propagate_first",
        "moment_oracle.propagate_second",
        "moment_oracle.propagate_second_reduced",
    ),
    "bounds.context_s": ("bounds.bound_context",),
    "baselines.simulate_s": ("baselines.simulate_single_trajectories",),
    "baselines.regressors_s": ("baselines.second_moment_regressors",),
    "baselines.rls_s": ("baselines._rls_batch", "baselines.rls_nominal", "baselines.rls_second_moment"),
    "experiments.csv_write_s": ("experiments.ExperimentReport.write",),
    "presets.get_preset_s": ("presets.get_preset",),
}


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for n in names:
        obj = getattr(module, n)
        if isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__:
            yield n, obj


class Tracer:
    """Timing wrappers over the package's layers; one instance per traced unit."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = HOOKS.get(name, _bound_hook if _is_bound_eval(name) else None)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                span[4] = hook(args, kwargs, result)
            return result

        return timed

    def install(self):
        pkg = PACKAGE
        namespaces = [m for n, m in sys.modules.items() if n == pkg or n.startswith(pkg + ".")]
        holders = {}
        for ns in namespaces:
            for attr, obj in vars(ns).items():
                if isinstance(obj, types.FunctionType):
                    holders.setdefault(id(obj), []).append((ns, attr))
        for layer in LAYERS:
            module = sys.modules[f"{pkg}.{layer}"]
            targets = list(_public_functions(module))
            for extra in EXTRA.get(layer, ()):
                if "." in extra:
                    self._wrap_method(module, layer, extra)
                else:
                    targets.append((extra, getattr(module, extra)))
            for attr, fn in targets:
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for ns, ns_attr in holders.get(id(fn), ()):
                    self._restore.append((ns, ns_attr, fn))
                    setattr(ns, ns_attr, wrapped)

    def _wrap_method(self, module, layer, qualname):
        cls_name, meth = qualname.split(".")
        cls = getattr(module, cls_name)
        raw = cls.__dict__[meth]
        name = f"{layer}.{qualname}"
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(name, raw.__func__))
        else:
            wrapped = self._wrap(name, raw)
        self._restore.append((cls, meth, raw))
        setattr(cls, meth, wrapped)

    def uninstall(self):
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()


def _outermost(spans, names):
    """Spans named in ``names`` that have no ancestor named in ``names``."""
    inside = [False] * len(spans)
    picked = []
    for i, (name, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            inside[i] = inside[parent] or spans[parent][0] in names
        if name in names and not inside[i]:
            picked.append(spans[i])
    return picked


def _total(spans):
    return sum(s[2] - s[1] for s in spans)


def layer_metrics(spans, unit_wall):
    """Reduce one unit's spans to the per-layer metrics (see perfbench/README.md)."""
    self_time = {layer: 0.0 for layer in LAYERS}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for (name, start, end, _, _), children in zip(spans, child_time):
        self_time[name.partition(".")[0]] += (end - start) - children

    def named(name):
        return [s for s in spans if s[0] == name]

    out = {f"{layer}.self_s": self_time[layer] for layer in ("rngstream", "experiments", "cli", "identifiability", "shape_ops")}
    for metric, names in STAGES.items():
        out[metric] = _total(_outermost(spans, set(names)))

    draws = named("rngstream.uniform01")
    out["rngstream.calls"] = len(draws)
    out["rngstream.draws"] = sum(s[4] for s in draws)
    out["rngstream.draws_per_call"] = out["rngstream.draws"] / len(draws) if draws else 0.0
    out["system_model.rollout_steps"] = sum(s[4] for s in named("system_model.simulate_rollouts"))
    out["system_model.json_bytes"] = sum(
        s[4] for s in named("system_model.RolloutSet.to_json") + named("system_model.RolloutSet.from_json")
    )
    mals_calls = named("mals.mals")
    out["mals.calls"] = len(mals_calls)
    out["mals.pinv_fallbacks"] = sum(s[4] for s in mals_calls)
    out["moment_oracle.lift_calls"] = len(_outermost(spans, set(STAGES["moment_oracle.lift_s"])))
    evals = _outermost(spans, {s[0] for s in spans if _is_bound_eval(s[0])})
    out["bounds.eval_s"] = _total(evals)
    out["bounds.evals"] = len(evals)
    out["bounds.vacuous_fraction"] = sum(s[4] >= 1.0 for s in evals) / len(evals) if evals else 0.0
    rls = named("baselines._rls_batch")
    out["baselines.rls_steps"] = sum(s[4][0] for s in rls)
    out["baselines.diverged_runs"] = sum(s[4][1] for s in rls)
    out["experiments.csv_bytes"] = sum(s[4] for s in named("experiments.ExperimentReport.write"))
    out["cli.commands"] = len(named("cli.main"))
    out["trace.unattributed_s"] = unit_wall - _total([s for s in spans if s[3] < 0])
    return out


def write_spans(path, spans, unit):
    """One CSV line per span: unit, id, parent, name, start, end (seconds)."""
    with open(path, "w") as fh:
        fh.write("unit,id,parent,name,start_s,end_s\n")
        t0 = spans[0][1] if spans else 0.0
        for i, (name, start, end, parent, _) in enumerate(spans):
            fh.write(f"{unit},{i},{parent},{name},{start - t0:.9f},{end - t0:.9f}\n")
