"""multinoise benchmark: one workload per process, metrics by name and unit.

    python3 perfbench/run.py --workload mals-bulk --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 18

A run is a closed loop with one caller.  It repeats the workload's fixed unit of
work, each unit with inputs derived from ``--seed`` and the unit index, until
``--seconds`` have passed, checking every unit's outputs.  With ``--trace 0``
it reports the end-to-end metrics of BENCHMARK.json, timing each unit against
the host-speed probe of ``hostprobe`` and measuring set-up in fresh child
processes started between units.  With ``--trace 1`` it
alternates traced and untraced units and reports the per-layer metrics.  The
last line of standard output is the JSON result; the line before it is the
full record (environment, samples, exact-repeat counts, output digests), which
is also written to ``.perfbench_out/<workload>/``.

BLAS is held to one thread, so the run uses one core of the machine.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import layertrace

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("mals-bulk", "experiment-sweep", "rls-baseline", "cli-roundtrip")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
SETUP_SPAWNS = 6


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, help="run length; default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def load_package():
    """Import multinoise from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "multinoise" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import multinoise

    if Path(multinoise.__file__).resolve().parent != (src / "multinoise").resolve():
        return None
    return multinoise


def git_commit():
    """HEAD of this checkout read from .git without leaving it; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest():
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def environment(seed):
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "workload_seed": seed,
    }


def setup_once(workload, seed):
    """Wall time of a fresh process that imports the package, builds the
    workload's presets and makes one warm-up call."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--setup-only"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
    return elapsed


def run_units(wl, seed, seconds, trace):
    """The closed loop.  Returns per-unit records, the failure list, the spans
    of the first traced unit, the peak RSS in MB of the warm-up and the units,
    read before the deep check so that its own allocations stay out, and the
    set-up samples.

    Untraced runs measure set-up SETUP_SPAWNS times, spread evenly over the
    run between units, so that the set-up median sees the same drift of the
    host's speed as the units do.  Time spent on set-up does not count
    towards ``seconds``."""
    import hostprobe  # numpy loads here, after main() has set the BLAS thread count
    from workloads import derive_seed

    units, failures, first_spans = [], [], None
    probe = None if trace else hostprobe.Probe(wl.probe_kernels)
    setup_samples = []
    spawns = 0 if trace else SETUP_SPAWNS
    start = time.perf_counter()
    payload = None
    i = 0

    def elapsed():
        return time.perf_counter() - start - sum(setup_samples)

    while i < (2 if trace else 1) or elapsed() < seconds:
        traced = bool(trace) and i % 2 == 0
        tracer = layertrace.Tracer() if traced else None
        if tracer:
            tracer.install()
        payload = None  # the previous unit's outputs are not held during this one
        if probe:
            probe.start()
        t0 = time.perf_counter()
        try:
            payload = wl.unit(derive_seed(seed, "unit", i))
        except Exception:  # a raising unit is a failed unit; the run reports it and stops
            wall = time.perf_counter() - t0
            failures.append(f"unit {i} raised:\n{traceback.format_exc()}")
            units.append({"index": i, "traced": traced, "wall": wall, "failed": wl.ops})
            payload = None
            break
        finally:
            if tracer:
                tracer.uninstall()
            if probe:
                probe.stop()
        wall = time.perf_counter() - t0
        reference = {}
        if probe:
            wall -= probe.handler_s
            reference = {"reference_s": probe.reference_s()}
        work, counts, digests = wl.record(payload)
        unit_failures = wl.check(payload)
        failures += [f"unit {i}: {f}" for f in unit_failures]
        rec = {"index": i, "traced": traced, "wall": wall, "work": work, "counts": counts, "digests": digests,
               "failed": min(wl.ops, len(unit_failures)), **reference}
        if tracer:
            rec["layers"] = layertrace.layer_metrics(tracer.spans, wall)
            if first_spans is None:
                first_spans = (i, tracer.spans)
        units.append(rec)
        i += 1
        if len(setup_samples) < spawns and elapsed() >= len(setup_samples) * seconds / spawns:
            setup_samples.append(setup_once(wl.name, seed))
    while len(setup_samples) < spawns:
        setup_samples.append(setup_once(wl.name, seed))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if payload is not None:
        deep = wl.deep_check(payload)
        failures += [f"unit {i - 1} (deep check): {f}" for f in deep]
        units[-1]["failed"] = min(wl.ops, units[-1]["failed"] + len(deep))
    return units, failures, first_spans, peak_rss_mb, setup_samples


def end_to_end(plain, setup_samples, peak_rss_mb):
    median = statistics.median

    def rate(key):
        return median([u["work"][key] / u["wall"] for u in plain])

    out = {
        "setup_s": (median(setup_samples), "s"),
        "wall_norm": (median([u["wall"] / u["reference_s"] for u in plain]), "ratio"),
        "wall_s": (median([u["wall"] for u in plain]), "s"),
        "reference_ms": (1e3 * median([u["reference_s"] for u in plain]), "ms"),
        "rollouts_per_s": (rate("rollouts"), "1/s"),
        "estimates_per_s": (rate("estimates"), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    if "rls_steps" in plain[0]["work"]:
        out["rls_steps_per_s"] = (rate("rls_steps"), "1/s")
    if "json_s" in plain[0]["work"]:
        out["json_mb_per_s"] = (median([u["work"]["json_mb"] / u["work"]["json_s"] for u in plain]), "MB/s")
    return out


def per_layer(traced, plain, layer_units):
    median = statistics.median
    out = {}
    for name, unit in layer_units.items():
        if name == "trace.overhead_s":
            value = median([u["wall"] for u in traced]) - median([u["wall"] for u in plain])
        elif unit == "s":
            value = median([u["layers"][name] for u in traced])
        else:  # counts and ratios repeat exactly; take the first traced unit's
            value = traced[0]["layers"][name]
        out[name] = (value, unit)
    return out


def run_one(args):
    if load_package() is None:
        return fail(f"no multinoise package under {ROOT / 'src'}")
    import workloads

    bench = read_benchmark()
    wl_dir = OUT / args.workload
    if args.setup_only:
        workloads.WORKLOADS[args.workload](wl_dir / "setup", args.seed).warm_up()
        return 0
    wl = workloads.WORKLOADS[args.workload](wl_dir, args.seed)
    wl.warm_up()
    units, failures, first_spans, peak_rss_mb, setup_samples = run_units(wl, args.seed, args.seconds, args.trace)

    attempted = len(units) * wl.ops
    failed = sum(u["failed"] for u in units)
    plain = [u for u in units if not u["traced"] and "work" in u]
    traced = [u for u in units if "layers" in u]
    wanted = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    metrics = {}
    if plain and (traced or not args.trace):  # no metrics from a run whose units all failed
        metrics = per_layer(traced, plain, wanted) if args.trace else end_to_end(plain, setup_samples, peak_rss_mb)
    metrics["failed_fraction"] = (failed / attempted, "ratio")
    first = next((u for u in units if "counts" in u), {})
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "units": len(units),
        "env": environment(args.seed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": {"wall_s": [u["wall"] for u in units if not u["traced"]],
                    "traced_wall_s": [u["wall"] for u in units if u["traced"]],
                    "reference_s": [u["reference_s"] for u in units if "reference_s" in u],
                    "setup_s": setup_samples},
        "counts": {**first.get("counts", {}),
                   **{k: v for k, v in first.get("layers", {}).items() if not k.endswith("_s")}},
        "digests": first.get("digests", {}),
        "failures": failures[:20],
    }
    wl_dir.mkdir(parents=True, exist_ok=True)
    (wl_dir / f"record-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    if first_spans is not None:
        layertrace.write_spans(wl_dir / "spans.csv", first_spans[1], first_spans[0])

    for f in failures[:20]:
        print(f"perfbench: FAILED {f}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:18s} {name:28s} {value:14.6g} {unit}")
    print(json.dumps(record))
    correct = not failures and all(k in metrics for k in wanted)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": wanted[k]} for k in wanted if k in metrics},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args):
    """Each workload in its own fresh process; one table of every metric."""
    ok = True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name:18s} FAILED (exit {proc.returncode})")
            ok = False
            continue
        record = json.loads(lines[-2])
        for metric, m in record["metrics"].items():
            print(f"{name:18s} {metric:28s} {m['value']:14.6g} {m['unit']}")
        ok = ok and json.loads(lines[-1])["correct"]
    return 0 if ok else 1


def read_benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARS:  # before numpy is first imported, here and in child processes
        os.environ[var] = BLAS_THREADS
    if not (ROOT / "BENCHMARK.json").is_file():
        return fail(f"no BENCHMARK.json in {ROOT}")
    if args.seconds is None:
        args.seconds = read_benchmark()["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
