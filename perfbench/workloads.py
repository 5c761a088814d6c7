"""The four multinoise benchmark workloads.

A workload builds what it needs once (its set-up), then runs one fixed unit of
work per ``unit(seed)`` call.  ``record`` turns a unit's outputs into work
counts, exact-repeat counts and output digests; ``check`` verifies them from
the written files and returned values; ``deep_check`` is the costlier
verification made once per run, on the last unit.  ``probe_kernels`` names
the ``hostprobe`` kernel set whose speed tracks the workload's kind of work.
Every seed handed to the package is derived from the workload seed, and every
check must hold for any workload seed.

Package functions are looked up as module attributes at call time
(``mn.mals``, ``experiments.run_convergence``), so the timing wrappers that
``layertrace`` installs see these calls too.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import statistics
import time
from pathlib import Path

import numpy as np

import multinoise as mn
from multinoise import cli, experiments


def derive_seed(seed, *tags):
    """A 63-bit package seed derived from the workload seed and tags."""
    text = ":".join(str(part) for part in (seed, *tags))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big") >> 1


def sha256_hex(data):
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


def file_digests(directory):
    """sha256 of every output file; ``*_summary.json`` carries a runtime and is left out."""
    base = Path(directory)
    return {
        str(p.relative_to(base)): sha256_hex(p.read_bytes())
        for p in sorted(base.rglob("*"))
        if p.is_file() and not p.name.endswith("_summary.json")
    }


def close(a, b, rel=1e-9):
    """Equal up to summation-order rounding: ||a - b|| <= rel * ||b||."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.linalg.norm(a - b) <= rel * np.linalg.norm(b))


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class MalsBulk:
    """One estimator call at a million rollouts."""

    name = "mals-bulk"
    # Each call makes passes over arrays of about 100 MB; the mixed kernels
    # tracked its drift worse (per-unit spread of wall/reference 0.074 against
    # 0.046 over 47 units).
    probe_kernels = "stream"
    N_R = 10**6
    # Spectral errors scaled by sqrt(n_r) have medians of about 6.4 (nominal) and
    # 44 (covariances) on paper-4.1; the tolerances are ten times those.
    ERR_AB_SCALE = 65.0
    ERR_SIGMA_SCALE = 450.0
    # Monte-Carlo moments must match the exact oracle within this many standard errors.
    MC_SIGMAS = 6.0
    # The timed estimate against this check's own least squares on the same rollouts.
    REF_REL = 1e-8
    ops = 1

    def __init__(self, outdir, seed):
        self.bundle = mn.get_preset("paper-4.1")
        self.seed = seed

    def warm_up(self):
        b = self.bundle
        mn.mals(b.system, b.schedule, b.init, 1000, seed=derive_seed(self.seed, "warm-up"))

    def unit(self, seed):
        b = self.bundle
        call_seed = derive_seed(seed, "mals")
        return call_seed, mn.mals(b.system, b.schedule, b.init, self.N_R, seed=call_seed)

    def record(self, payload):
        result = payload[1]
        work = {"rollouts": self.N_R, "estimates": 1}
        counts = {
            **work,
            "pinv_fallbacks": int(result.diagnostics["used_pinv_z"]) + int(result.diagnostics["used_pinv_d"]),
        }
        return work, counts, {"estimate.json": sha256_hex(result.to_json())}

    def check(self, payload):
        failures = []
        root_n = math.sqrt(self.N_R)
        e_ab, e_sig = payload[1].errors["err_AB"], payload[1].errors["err_Sigma"]
        if not (e_ab <= self.ERR_AB_SCALE / root_n):
            failures.append(f"err_AB {e_ab:.3g} above {self.ERR_AB_SCALE:g}/sqrt(n_r)")
        if not (e_sig <= self.ERR_SIGMA_SCALE / root_n):
            failures.append(f"err_Sigma {e_sig:.3g} above {self.ERR_SIGMA_SCALE:g}/sqrt(n_r)")
        return failures

    def deep_check(self, payload):
        """Re-simulate the call's rollouts: moments against the exact oracle,
        [A B] against an independent least-squares solve on them, and the
        estimate as a function of the rollouts alone."""
        call_seed, result = payload
        b = self.bundle
        rollouts = mn.simulate_rollouts(b.system, b.schedule, b.init, self.N_R, call_seed)
        exact = mn.propagate_second(b.system, b.schedule, np.zeros(b.system.n))
        failures = []
        n_r, n = rollouts.n_r, rollouts.n
        for t in range(rollouts.ell + 1):
            x = rollouts.states[:, t, :]
            mean, se = x.mean(axis=0), x.std(axis=0, ddof=1) / math.sqrt(n_r)
            if np.any(np.abs(mean - exact.mu[t]) > self.MC_SIGMAS * se + 1e-12):
                failures.append(f"t={t}: rollout mean off the oracle by more than {self.MC_SIGMAS:g} se")
            second = mn.smat(exact.x_t[t], n)
            for i in range(n):
                for k in range(i + 1):
                    prod = x[:, i] * x[:, k]
                    se2 = prod.std(ddof=1) / math.sqrt(n_r)
                    if abs(prod.mean() - second[i, k]) > self.MC_SIGMAS * se2 + 1e-12:
                        failures.append(f"t={t}: E[x{i} x{k}] off the oracle by more than {self.MC_SIGMAS:g} se")
        mu = rollouts.states.mean(axis=0)
        Z = np.vstack([mu[:-1].T, b.schedule.nu.T])
        nominal_ref = np.linalg.lstsq(Z.T, mu[1:], rcond=None)[0].T
        if not close(result.nominal(), nominal_ref, self.REF_REL):
            failures.append("[A_hat B_hat] differs from least squares on the averaged rollouts")
        again = mn.mals(rollouts)
        if not (close(again.nominal(), result.nominal()) and close(again.covariance(), result.covariance())):
            failures.append("mals on the re-simulated rollouts differs from the timed estimate")
        return failures


class ExperimentSweep:
    """The experiment runners at reduced size, writing their CSVs."""

    name = "experiment-sweep"
    probe_kernels = "mixed"
    LAWS = ("gaussian", "uniform", "deterministic")
    CONV_GRID = (100, 1000)
    CONV_REPS = 50
    TAIL_GRID = (100, 400)
    TAIL_REPS = 300
    ENVELOPE_EPS = 10  # epsilon points per metric and n_r in the bound envelope
    EQUIV_TOL = 1e-12

    def __init__(self, outdir, seed):
        self.out = Path(outdir) / "sweep"
        self.seed = seed
        self.bundle = mn.get_preset("paper-4.1")
        demo_n_r = experiments.ExperimentConfig().demo_n_r
        self.estimates = len(self.LAWS) * len(self.CONV_GRID) * self.CONV_REPS + len(self.TAIL_GRID) * self.TAIL_REPS + 1
        self.rollouts = (
            len(self.LAWS) * self.CONV_REPS * sum(self.CONV_GRID) + self.TAIL_REPS * sum(self.TAIL_GRID) + demo_n_r
        )
        self.bound_evals = 2 * len(self.TAIL_GRID) * self.ENVELOPE_EPS
        self.ops = self.estimates + self.bound_evals

    def _configs(self, seed):
        cfg = experiments.ExperimentConfig
        return (
            cfg(preset="paper-4.1", input_laws=self.LAWS, n_r_grid=self.CONV_GRID, reps=self.CONV_REPS,
                seed=derive_seed(seed, "convergence"), out=str(self.out)),
            cfg(preset="paper-4.1", input_laws=("uniform",), tail_grid=self.TAIL_GRID, tail_reps=self.TAIL_REPS,
                seed=derive_seed(seed, "tail"), out=str(self.out)),
            cfg(preset="paper-4.1", seed=derive_seed(seed, "equivalence"), out=str(self.out)),
        )

    def warm_up(self):
        b = self.bundle
        mn.mals(b.system, b.schedule, b.init, 100, seed=derive_seed(self.seed, "warm-up"))
        mn.bound_context(b.system, b.schedule, b.init, 100)

    def unit(self, seed):
        conv_cfg, tail_cfg, equiv_cfg = self._configs(seed)
        reports = (
            experiments.run_convergence(conv_cfg),
            experiments.run_tail_frequency(tail_cfg, with_bounds=True),
            experiments.run_equivalence_demo(equiv_cfg),
        )
        for report in reports:
            report.write(self.out)
        return reports

    def record(self, payload):
        digests = file_digests(self.out)
        envelope = read_rows(self.out / "bound_envelope.csv")
        work = {"rollouts": self.rollouts, "estimates": self.estimates}
        counts = {
            **work,
            "bound_evals": len(envelope),
            "vacuous_evals": sum(float(r["bound"]) >= 1.0 for r in envelope),
            "csv_bytes": sum(p.stat().st_size for p in self.out.glob("*.csv")),
        }
        return work, counts, digests

    def check(self, payload):
        failures = []
        raw = read_rows(self.out / "convergence_raw.csv")
        if len(raw) != len(self.LAWS) * len(self.CONV_GRID) * self.CONV_REPS:
            failures.append(f"convergence_raw.csv has {len(raw)} rows")
        for law in self.LAWS:
            for key in ("err_AB", "err_Sigma"):
                medians = [
                    statistics.median(float(r[key]) for r in raw if r["law"] == law and int(r["n_r"]) == n_r)
                    for n_r in self.CONV_GRID
                ]
                if not all(a > b for a, b in zip(medians, medians[1:])):
                    failures.append(f"convergence {law} {key}: medians {medians} not decreasing")
        tail_summary = payload[1].summary["metrics"]
        freq = read_rows(self.out / "tail_frequencies.csv")
        for metric, info in tail_summary.items():
            eps_star = info["eps_star"]
            series = [
                float(r["frequency"])
                for n_r in self.TAIL_GRID
                for r in freq
                if r["metric"] == metric and int(r["n_r"]) == n_r and float(r["epsilon"]) == eps_star
            ]
            if len(series) != len(self.TAIL_GRID) or any(a < b for a, b in zip(series, series[1:])) or not series[-1] < series[0]:
                failures.append(f"tail {metric}: frequencies at eps* {series} not decreasing")
        envelope = read_rows(self.out / "bound_envelope.csv")
        if len(envelope) != self.bound_evals:
            failures.append(f"bound_envelope.csv has {len(envelope)} rows, expected {self.bound_evals}")
        for r in envelope:
            if r["holds"] != "1" or not float(r["frequency"]) <= float(r["bound"]):
                failures.append(f"bound envelope broken: {r}")
        traj = read_rows(self.out / "equivalence_trajectories.csv")
        diff = max(
            abs(float(row[col]) - float(row["equiv_" + col[len("base_"):]]))
            for row in traj
            for col in row
            if col.startswith("base_")
        )
        if not diff <= self.EQUIV_TOL:
            failures.append(f"equivalent covariances differ by {diff:.3g} > {self.EQUIV_TOL:g}")
        return failures

    def deep_check(self, payload):
        return []


class RlsBaseline:
    """Single-trajectory RLS/RLSp against MALS with matched sample counts."""

    name = "rls-baseline"
    probe_kernels = "mixed"
    SYSTEMS = ("paper-4.2-rho0.8", "paper-4.2-rho1.0")
    ALGS = ("RLS", "RLSp")
    REPS = 20
    GRID = (25, 250)
    DIVERGING = "paper-4.2-rho1.0"

    def __init__(self, outdir, seed):
        self.out = Path(outdir) / "baselines"
        self.seed = seed
        self.ell = {name: mn.get_preset(name).schedule.ell for name in self.SYSTEMS}
        self.estimates = len(self.SYSTEMS) * len(self.GRID) * self.REPS
        self.rollouts = len(self.SYSTEMS) * self.REPS * sum(self.GRID)
        # trajectory steps x reps x {RLS, RLSp}
        self.rls_steps = sum(self.ell.values()) * self.GRID[-1] * self.REPS * len(self.ALGS)
        self.ops = self.estimates + len(self.SYSTEMS) * len(self.ALGS) * self.REPS

    def _config(self, seed, reps, grid):
        return experiments.ExperimentConfig(
            preset="paper-4.1", reps=reps, baseline_grid=grid, baseline_systems=self.SYSTEMS,
            seed=seed, out=str(self.out),
        )

    def warm_up(self):
        experiments.run_baseline_comparison(self._config(derive_seed(self.seed, "warm-up"), 2, (10,)))

    def unit(self, seed):
        report = experiments.run_baseline_comparison(self._config(derive_seed(seed, "baselines"), self.REPS, self.GRID))
        report.write(self.out)
        return report

    def _final_rows(self, raw, system, alg):
        last = max(int(r["samples"]) for r in raw if r["system"] == system)
        return [r for r in raw if r["system"] == system and r["algorithm"] == alg and int(r["samples"]) == last]

    def record(self, payload):
        raw = read_rows(self.out / "baseline_raw.csv")
        work = {"rollouts": self.rollouts, "estimates": self.estimates, "rls_steps": self.rls_steps}
        counts = {
            **work,
            "diverged_runs": sum(
                r["diverged"] == "1" for s in self.SYSTEMS for a in self.ALGS for r in self._final_rows(raw, s, a)
            ),
            "csv_bytes": sum(p.stat().st_size for p in self.out.glob("*.csv")),
        }
        return work, counts, file_digests(self.out)

    def check(self, payload):
        failures = []
        raw = read_rows(self.out / "baseline_raw.csv")
        if any(r["diverged"] != "0" for r in raw if r["algorithm"] == "MALS"):
            failures.append("a MALS run diverged")
        for system in self.SYSTEMS:
            samples = [self.ell[system] * n_r for n_r in self.GRID]
            for key in ("err_AB", "err_Sigma"):
                medians = [
                    statistics.median(
                        float(r[key]) for r in raw
                        if r["system"] == system and r["algorithm"] == "MALS" and int(r["samples"]) == s
                    )
                    for s in samples
                ]
                if not all(a > b for a, b in zip(medians, medians[1:])):
                    failures.append(f"{system} MALS {key}: medians {medians} not decreasing along the grid")
        for alg in self.ALGS:
            rows = self._final_rows(raw, self.DIVERGING, alg)
            frac = sum(r["diverged"] == "1" for r in rows) / max(len(rows), 1)
            if not frac >= 0.5:
                failures.append(f"{self.DIVERGING} {alg}: diverged fraction {frac:.2f} < 0.5 at the last grid point")
        return failures

    def deep_check(self, payload):
        return []


class CliRoundtrip:
    """In-process CLI: simulate to JSON, estimate from it, then the analysis commands."""

    name = "cli-roundtrip"
    probe_kernels = "mixed"
    N_R = 20_000
    PRESET = "paper-4.1"
    ANALYSES = ("oracle", "identifiability", "bounds")
    OUTPUTS = {
        "oracle": ("moments.csv",),
        "identifiability": ("equivalence_class.json", "uniqueness.json"),
        "bounds": ("delta_bounds.csv", "eta_bounds.csv"),
    }

    def __init__(self, outdir, seed):
        self.out = Path(outdir) / "cli"
        self.warm_out = Path(outdir) / "cli-warm-up"
        self.seed = seed
        self.bundles = {name: mn.get_preset(name) for name in mn.PRESET_NAMES}
        self.ops = 2 + len(self.ANALYSES) * len(mn.PRESET_NAMES)

    @staticmethod
    def _run(argv):
        """cli.main with its output captured: (exit code or None, seconds, stderr)."""
        err = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception as exc:  # an escaped exception is a failed command, reported below
                code = None
                print(f"{type(exc).__name__}: {exc}", file=err)
        return code, time.perf_counter() - t0, err.getvalue()

    def warm_up(self):
        self._run(["oracle", "--preset", self.PRESET, "--seed", str(derive_seed(self.seed, "warm-up")),
                   "--out", str(self.warm_out)])

    def unit(self, seed):
        s = str(derive_seed(seed, "cli"))
        rollouts = self.out / "rollouts.json"
        commands = [
            ["simulate", "--preset", self.PRESET, "--n-r", str(self.N_R), "--seed", s, "--out", str(self.out)],
            ["estimate", "--preset", self.PRESET, "--rollouts", str(rollouts), "--seed", s, "--out", str(self.out)],
        ]
        for preset in mn.PRESET_NAMES:
            for cmd in self.ANALYSES:
                commands.append([cmd, "--preset", preset, "--seed", s, "--out", str(self.out / preset)])
        return int(s), [(argv, *self._run(argv)) for argv in commands]

    def record(self, payload):
        _, runs = payload
        json_bytes = (self.out / "rollouts.json").stat().st_size
        json_s = runs[0][2] + runs[1][2]
        work = {"rollouts": self.N_R, "estimates": 1, "json_mb": 2 * json_bytes / 1e6, "json_s": json_s}
        counts = {
            "rollouts": self.N_R,
            "commands": len(runs),
            "json_bytes": json_bytes,
            "bytes_written": sum(p.stat().st_size for p in self.out.rglob("*") if p.is_file()),
        }
        return work, counts, file_digests(self.out)

    def check(self, payload):
        _, runs = payload
        failures = [f"{' '.join(argv[:3])}: exit {code} {err.strip()}" for argv, code, _, err in runs if code != 0]
        for preset in mn.PRESET_NAMES:
            for cmd in self.ANALYSES:
                for fname in self.OUTPUTS[cmd]:
                    p = self.out / preset / fname
                    if not (p.is_file() and p.stat().st_size > 0):
                        failures.append(f"{cmd} --preset {preset} wrote no {fname}")
        est = json.loads((self.out / "estimation.json").read_text())
        if not all(np.all(np.isfinite(est[k])) for k in ("A_hat", "B_hat", "SigmaA_tilde_hat", "SigmaB_tilde_hat")):
            failures.append("estimation.json holds non-finite values")
        return failures

    def deep_check(self, payload):
        """The rollout file round-trips exactly and matches an in-memory simulation;
        the estimate from the file equals the in-memory estimate for the same seed."""
        seed, _ = payload
        b = self.bundles[self.PRESET]
        failures = []
        text = (self.out / "rollouts.json").read_text()
        loaded = mn.RolloutSet.from_json(text)
        if loaded.to_json() != text:
            failures.append("rollouts.json does not round-trip to identical text")
        sim = mn.simulate_rollouts(b.system, b.schedule, b.init, self.N_R, seed)
        if not (np.array_equal(loaded.states, sim.states) and np.array_equal(loaded.inputs, sim.inputs)):
            failures.append("rollouts.json differs from an in-memory simulation with the same seed")
        est = json.loads((self.out / "estimation.json").read_text())
        ref = mn.mals(b.system, b.schedule, b.init, self.N_R, seed=seed)
        for key, attr in (("A_hat", "A_hat"), ("B_hat", "B_hat"), ("SigmaA_tilde_hat", "sigma_a_tilde_hat"),
                          ("SigmaB_tilde_hat", "sigma_b_tilde_hat")):
            if not close(est[key], getattr(ref, attr)):
                failures.append(f"estimate from the file differs from in-memory mals in {key}")
        return failures


WORKLOADS = {w.name: w for w in (MalsBulk, ExperimentSweep, RlsBaseline, CliRoundtrip)}
