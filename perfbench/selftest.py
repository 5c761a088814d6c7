"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py [--workloads mals-bulk,rls-baseline]

1. Exact repeat: each workload runs twice with the same seed, untraced and
   traced, at the shortest length (one unit, or two when traced).  The
   exact-repeat counts and the output digests of the first unit must be
   identical between the two runs, and every run must report correct outputs.
2. No program: a copy of only BENCHMARK.json and perfbench/ must make run.py
   exit non-zero without printing a result.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
sys.path.insert(0, str(HERE))
from run import OUT, WORKLOAD_NAMES  # noqa: E402


def run(cwd, workload, seed, trace, seconds=0):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900)


def exact_repeat(workload, seed=12345):
    problems = []
    for trace in (0, 1):
        records = []
        for _ in range(2):
            proc = run(ROOT, workload, seed, trace)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2 or not json.loads(lines[-1])["correct"]:
                problems.append(f"trace {trace}: run failed (exit {proc.returncode}): {proc.stderr.strip()[-400:]}")
                break
            records.append(json.loads(lines[-2]))
        if len(records) == 2:
            for key in ("counts", "digests"):
                a, b = records[0][key], records[1][key]
                if not a or a != b:
                    diff = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k)) or ["<empty>"]
                    problems.append(f"trace {trace}: {key} differ between identical runs: {diff}")
    return problems


def no_program():
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, WORKLOAD_NAMES[0], 0, 0, seconds=1)
    shutil.rmtree(bare, ignore_errors=True)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    if proc.returncode == 0 or '"correct"' in last:
        return [f"run without the program exited {proc.returncode} and printed {last[:200]!r}"]
    return []


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(WORKLOAD_NAMES))
    args = ap.parse_args(argv)
    failed = False
    for workload in args.workloads.split(","):
        problems = exact_repeat(workload)
        print(f"{workload:18s} exact repeat: {'ok' if not problems else 'FAILED'}")
        for p in problems:
            print(f"    {p}")
        failed |= bool(problems)
    problems = no_program()
    print(f"{'no program':18s} non-zero exit, no result: {'ok' if not problems else 'FAILED'}")
    for p in problems:
        print(f"    {p}")
    failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
