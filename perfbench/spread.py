"""Run-to-run spread of the end-to-end metrics over several workload seeds.

    python3 perfbench/spread.py --workloads rls-baseline --seeds 5
    python3 perfbench/spread.py --seeds 10 --name a              # every workload
    python3 perfbench/spread.py --seeds 10 --name b --against a  # a second set

Runs ``run.py --trace 0`` once per seed and workload, one process at a time,
at the run length in BENCHMARK.json.  For each metric it prints the median and
the quartile spread (Q3 - Q1) / median, from ``statistics.quantiles(n=4)``,
against the metric's bound; the benchmark is steady when every spread, that of
``setup_s`` included, is below a third of its bound.  With ``--against`` it
also prints how much worse each median is than that of an earlier set, which
must stay within the bound.  All values are written to
``.perfbench_out/spread-<name>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from run import OUT, WORKLOAD_NAMES  # noqa: E402


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(WORKLOAD_NAMES))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--name", default="last", help="this set's name, for a later --against")
    ap.add_argument("--against", help="name of an earlier set to compare medians with")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lower_better = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}
    earlier = json.loads((OUT / f"spread-{args.against}.json").read_text()) if args.against else {}
    values = {}
    steady = True
    for workload in args.workloads.split(","):
        values[workload] = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: run failed (exit {proc.returncode})")
                return 1
            for name in bounds:
                values[workload][name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={v[-1]:.5g}" for n, v in values[workload].items()), flush=True)
        for name, vals in values[workload].items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            ok = spread < bounds[name] / 3
            line = (f"  {workload:18s} {name:16s} median {med:12.6g}  spread {spread:7.4f}  "
                    f"bound {bounds[name]:.2f}  {'ok' if ok else 'WIDE'}")
            if workload in earlier:
                before = statistics.median(earlier[workload][name])
                worse = (med - before) / before if lower_better[name] else (before - med) / before
                agree = worse <= bounds[name]
                ok &= agree
                line += f"  worse than '{args.against}' by {worse:+.4f}  {'ok' if agree else 'DRIFT'}"
            steady &= ok
            print(line)
    OUT.mkdir(exist_ok=True)
    (OUT / f"spread-{args.name}.json").write_text(json.dumps(values, indent=1))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
