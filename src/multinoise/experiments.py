"""Config-driven experiment runners producing CSV data and JSON summaries.

Four experiments mirror the bundled benchmark study: estimation-error
convergence across rollout counts, tail frequencies of normalized errors,
the equivalence-class trajectory demo, and the single-trajectory baseline
comparison with matched sample counts.
"""

from __future__ import annotations

import csv
import json
import numbers
import time
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import rngstream as rs
from .baselines import rls_batch_estimates
from .bounds import bound_context, bound_curves
from .identifiability import sigma_from_class
from .mals import EstimationResult, attach_errors, mals, simulated_moments, solve
from .moment_oracle import propagate_second, propagate_second_reduced
from .presets import PRESET_NAMES, get_preset
from .shape_ops import svec_index_pairs
from .system_model import CovarianceNoise, InputSchedule, is_integer, make_system

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ExperimentReport",
    "run_convergence",
    "run_tail_frequency",
    "run_equivalence_demo",
    "run_baseline_comparison",
    "write_table",
]

_LAWS = ("gaussian", "uniform", "deterministic")


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exit code 2)."""


def _is_positive_real(v):
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and 0 < v < np.inf


def _entries(value):
    """The entries of a config list as a tuple; None for a string or a non-iterable."""
    return tuple(value) if isinstance(value, Iterable) and not isinstance(value, str) else None


def _known_names(config, field_name, known, what):
    """Config list ``field_name`` as a tuple of distinct names, each one of ``known``."""
    value = getattr(config, field_name)
    names = _entries(value)
    if names is None:
        raise ConfigError(f"{field_name} must be a list of names, got {value!r}")
    for i, name in enumerate(names):
        if name not in known:
            raise ConfigError(f"unknown {what} {name!r}")
        if name in names[:i]:
            raise ConfigError(f"{field_name} names {name!r} more than once")
    return names


@dataclass
class ExperimentConfig:
    """Mirrors the JSON config file accepted by the CLI."""

    preset: str = "paper-4.1"
    input_laws: tuple = ("gaussian", "uniform", "deterministic")
    noise_law: str = "uniform"
    n_r_grid: tuple = (100, 1000, 10000, 100000)
    baseline_grid: tuple = (100, 1000, 10000)
    tail_grid: tuple = (100, 200, 400, 800)
    reps: int = 50
    tail_reps: int = 500
    bound_n_r: int = 2000
    seed: int = 0
    out: str = "results"
    demo_periods: int = 3
    demo_n_r: int = 100000
    eps_grid: tuple = ()
    baseline_systems: tuple = (
        "paper-4.2-rho0.6-nonoise",
        "paper-4.2-rho0.6",
        "paper-4.2-rho0.8",
        "paper-4.2-rho1.0",
    )

    def __post_init__(self):
        if self.preset not in PRESET_NAMES:
            raise ConfigError(f"unknown preset {self.preset!r}; known: {', '.join(PRESET_NAMES)}")
        self.input_laws = _known_names(self, "input_laws", _LAWS, "input law")
        if self.noise_law not in ("uniform", "gaussian"):
            raise ConfigError(f"unknown noise law {self.noise_law!r}")
        # numpy integers are accepted and stored as int, so seeds hash and summaries serialize alike
        for name in ("n_r_grid", "baseline_grid", "tail_grid"):
            g = _entries(getattr(self, name))
            if not g or not all(is_integer(v) and v >= 1 for v in g) or any(a >= b for a, b in zip(g, g[1:])):
                raise ConfigError(f"{name} must be a nonempty strictly ascending list of positive integers")
            setattr(self, name, tuple(map(int, g)))
        for name in ("reps", "tail_reps", "bound_n_r", "demo_n_r", "demo_periods"):
            value = getattr(self, name)
            if not (is_integer(value) and value >= 1):
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
            setattr(self, name, int(value))
        if not is_integer(self.seed):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        self.seed = int(self.seed)
        if not isinstance(self.out, str):
            raise ConfigError(f"out must be a directory path string, got {self.out!r}")
        eps = _entries(self.eps_grid)
        if eps is None or not all(_is_positive_real(v) for v in eps):
            raise ConfigError(f"eps_grid must be a list of finite positive numbers, got {self.eps_grid!r}")
        self.eps_grid = tuple(int(v) if is_integer(v) else float(v) for v in eps)
        self.baseline_systems = _known_names(self, "baseline_systems", PRESET_NAMES, "baseline system")

    @classmethod
    def from_dict(cls, d):
        known = set(cls.__dataclass_fields__)
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)

    @classmethod
    def from_json_file(cls, path):
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        return cls.from_dict(data)


def _fmt(v):
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


@dataclass
class ExperimentReport:
    """Tables (header + rows) plus a JSON-serializable summary."""

    name: str
    summary: dict
    tables: dict = field(default_factory=dict)

    def write(self, outdir):
        out = Path(outdir)
        out.mkdir(parents=True, exist_ok=True)
        paths = []
        for tname, (header, rows) in self.tables.items():
            p = out / f"{tname}.csv"
            write_table(p, header, rows)
            paths.append(p)
        p = out / f"{self.name}_summary.json"
        with open(p, "w") as fh:
            json.dump(self.summary, fh, indent=2, sort_keys=True)
        paths.append(p)
        return paths


def write_table(path, header, rows):
    """Write one CSV table: the header, then each row with floats at .17g."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def _rep_seeds(master, index):
    """Derived 64-bit seeds for repetition indices ``index``."""
    return rs.stream_keys(master, index, 0, rs.ROLE_REPETITION)


_ERROR_KEYS = ("err_AB", "err_Sigma", "err_AB_norm", "err_Sigma_norm")


def _sweep(bundle, grid, seeds):
    """``mals`` at every (n_r, repetition) of a grid, one stacked estimate per n_r.

    seeds: (len(grid), reps) array.  Returns each of ``_ERROR_KEYS`` as a
    (len(grid), reps) array, each entry bit for bit its own ``mals`` call.
    Every runner repeats the estimator through here.
    """
    system, schedule, init = bundle.system, bundle.schedule, bundle.init
    res = [attach_errors(solve(simulated_moments(system, schedule, init, n_r, row)), system)
           for n_r, row in zip(grid, seeds)]
    return {key: np.stack([r.errors[key] for r in res]) for key in _ERROR_KEYS}


# ---------------------------------------------------------------------------
# convergence (error-vs-rollouts curves)


def run_convergence(config):
    """Median/mean estimation errors across the rollout grid per input law."""
    t0 = time.perf_counter()
    bundle = get_preset(config.preset, noise_law=config.noise_law)
    grid = list(config.n_r_grid)
    lg = np.log10(np.asarray(grid, dtype=float))
    # one seed counter runs over laws x grid x reps
    counters = np.arange(len(config.input_laws) * len(grid) * config.reps)
    raw_rows = []
    summary_rows = []
    summary = {"config": asdict(config), "laws": {}}
    for law, counter in zip(config.input_laws, counters.reshape(-1, len(grid), config.reps)):
        seeds = _rep_seeds(config.seed, counter)
        errs = _sweep(bundle.with_input_law(law), grid, seeds)
        for (gi, rep), seed in np.ndenumerate(seeds):
            raw_rows.append([law, grid[gi], rep, int(seed)] + [errs[k][gi, rep] for k in _ERROR_KEYS])
        for gi, n_r in enumerate(grid):
            summary_rows.append(
                [law, n_r]
                + [np.mean(errs[k][gi]) for k in _ERROR_KEYS]
                + [np.median(errs[k][gi]) for k in _ERROR_KEYS]
            )
        law_summary = {}
        for key in ("err_AB", "err_Sigma"):
            series = [float(np.median(row)) for row in errs[key]]
            law_summary[f"median_{key}"] = series
            law_summary[f"slope_{key}"] = float(np.polyfit(lg, np.log10(series), 1)[0])
            law_summary[f"monotone_{key}"] = bool(
                all(a >= b for a, b in zip(series, series[1:]))
            )
        summary["laws"][law] = law_summary
    summary["runtime_s"] = time.perf_counter() - t0
    raw_header = ["law", "n_r", "rep", "seed", *_ERROR_KEYS]
    sum_header = (
        ["law", "n_r"]
        + [f"mean_{k}" for k in _ERROR_KEYS]
        + [f"median_{k}" for k in _ERROR_KEYS]
    )
    return ExperimentReport(
        name="convergence",
        summary=summary,
        tables={
            "convergence_raw": (raw_header, raw_rows),
            "convergence_summary": (sum_header, summary_rows),
        },
    )


# ---------------------------------------------------------------------------
# tail frequencies (exceedance-vs-rollouts), optional bound envelope


def run_tail_frequency(config, with_bounds=False):
    """Relative frequencies of normalized errors exceeding fixed levels.

    Uses the first configured input law.  With ``with_bounds`` the population
    bound envelope (nominal and covariance tails) is evaluated on the same
    epsilon grid against *unnormalized* spectral errors.
    """
    t0 = time.perf_counter()
    law = config.input_laws[0] if config.input_laws else "uniform"
    bundle = get_preset(config.preset, noise_law=config.noise_law).with_input_law(law)
    grid, reps = config.tail_grid, config.tail_reps
    seeds = _rep_seeds(config.seed ^ 0xA5, np.arange(len(grid) * reps).reshape(-1, reps))
    errs = _sweep(bundle, grid, seeds)
    freq_rows = []
    summary = {"config": asdict(config), "law": law, "metrics": {}}
    for key in ("err_AB_norm", "err_Sigma_norm"):
        eps_star = float(np.median(errs[key][0]))
        eps_grid = (np.asarray(config.eps_grid, dtype=float) if config.eps_grid
                    else np.geomspace(0.25 * eps_star, 4.0 * eps_star, 10))
        if eps_star not in eps_grid:
            eps_grid = np.sort(np.append(eps_grid, eps_star))
        for eps in eps_grid:
            for gi, n_r in enumerate(grid):
                freq = float(np.mean(errs[key][gi] >= eps))
                freq_rows.append([key, n_r, eps, freq])
        star_freqs = [float(np.mean(errs[key][gi] >= eps_star)) for gi in range(len(grid))]
        pos = [(n_r, f) for n_r, f in zip(grid, star_freqs) if f > 0]
        slope = None
        if len(pos) >= 2:
            slope = float(np.polyfit([p[0] for p in pos], np.log([p[1] for p in pos]), 1)[0])
        summary["metrics"][key] = {
            "eps_star": eps_star,
            "frequencies_at_eps_star": star_freqs,
            "strictly_decreasing": bool(
                all(a > b for a, b in zip(star_freqs, star_freqs[1:]))
            ),
            "log_freq_slope_per_rollout": slope,
        }
    tables = {"tail_frequencies": (["metric", "n_r", "epsilon", "frequency"], freq_rows)}
    if with_bounds:
        tables["bound_envelope"] = _bound_envelope(bundle, errs, grid)
        summary["bound_envelope"] = {"columns": "see bound_envelope.csv"}
    summary["runtime_s"] = time.perf_counter() - t0
    return ExperimentReport(name="tail", summary=summary, tables=tables)


def _bound_envelope(bundle, errs, grid):
    """Observed exceedance vs min(1, bound) on a shared epsilon grid."""
    rows = []
    ctx0 = bound_context(bundle.system, bundle.schedule, bundle.init, grid[0])
    for gi, n_r in enumerate(grid):
        ctx = ctx0.with_rollouts(n_r)
        for key, bound in (("err_AB", "delta_AB"), ("err_Sigma", "eta")):
            base = float(np.median(errs[key][0]))
            eps_grid = np.geomspace(0.5 * base, 8.0 * base, 10)
            for eps, value in zip(eps_grid, bound_curves(ctx, eps_grid, [bound])[bound]):
                freq = float(np.mean(errs[key][gi] >= eps))
                bound_val = min(1.0, float(value))
                rows.append([key, n_r, eps, freq, bound_val, int(freq <= bound_val)])
    return (["metric", "n_r", "epsilon", "frequency", "bound", "holds"], rows)


# ---------------------------------------------------------------------------
# equivalence-class trajectory demo


def run_equivalence_demo(config):
    """Reduced second-moment trajectories: true, equivalent, estimate-driven."""
    t0 = time.perf_counter()
    bundle = get_preset(config.preset, noise_law=config.noise_law)
    system = bundle.system
    if system.n != 2 or system.m != 1:
        raise ConfigError("the equivalence demo runs on the 2-state benchmark presets")
    ec = bundle.equivalence()
    # preferred member: class coordinate 1/40 (strictly positive for the
    # noisy benchmark); fall back to the base point when that member leaves
    # the PSD cone (e.g. for the zero-noise class, where the base is the
    # only member and all trajectories coincide)
    for alpha in (1.0 / 40.0, 0.0):
        sa_alt, sb_alt, psd_a, psd_b = sigma_from_class(ec, [alpha], np.zeros(0))
        if psd_a and psd_b:
            break
    alt = make_system(system.A, system.B, CovarianceNoise(sa_alt, sb_alt, law=config.noise_law))
    periods = config.demo_periods
    sched = replace(bundle.schedule, nu=np.tile(bundle.schedule.nu, (periods, 1)),
                    ubar=np.tile(bundle.schedule.ubar, (periods, 1, 1)))
    mu0 = np.zeros(system.n)
    base_tr = propagate_second(system, sched, mu0)
    alt_tr = propagate_second(alt, sched, mu0)
    est = mals(system, bundle.schedule, bundle.init, config.demo_n_r,
               seed=int(_rep_seeds(config.seed ^ 0x3C, 0)))
    est_tr = propagate_second_reduced(
        est.A_hat, est.B_hat, est.sigma_a_tilde_hat, est.sigma_b_tilde_hat, sched, mu0
    )
    labels = [f"Xt_{i}{j}" for i, j in svec_index_pairs(system.n)]
    header = ["t"]
    for tag in ("base", "equiv", "estimate"):
        header += [f"{tag}_{lab}" for lab in labels]
    rows = []
    for t in range(sched.ell + 1):
        rows.append([t] + list(base_tr.x_t[t]) + list(alt_tr.x_t[t]) + list(est_tr.x_t[t]))
    max_diff = float(np.max(np.abs(base_tr.x_t - alt_tr.x_t)))
    scale = float(np.max(np.abs(base_tr.x_t)))
    est_rel = float(np.max(np.abs(base_tr.x_t - est_tr.x_t))) / max(scale, 1e-300)
    summary = {
        "config": asdict(config),
        "equivalent_member_psd": [bool(psd_a), bool(psd_b)],
        "max_abs_diff_base_vs_equiv": max_diff,
        "max_rel_diff_base_vs_estimate": est_rel,
        "estimation_errors": est.errors,
        "runtime_s": time.perf_counter() - t0,
    }
    return ExperimentReport(
        name="equivalence",
        summary=summary,
        tables={"equivalence_trajectories": (header, rows)},
    )


# ---------------------------------------------------------------------------
# baseline comparison (matched sample counts)


def run_baseline_comparison(config):
    """MALS vs single-trajectory RLS/RLSp across the benchmark systems."""
    t0 = time.perf_counter()
    grid, reps = config.baseline_grid, config.reps
    # MALS seed index: sys_idx * sys_stride + gi * row_stride + rep, distinct for every
    # (system, grid point, rep); the strides are 1_000_000 and 10_000 unless the config outgrows them
    row_stride = max(10_000, reps)
    sys_stride = max(1_000_000, len(grid) * row_stride)
    rep_index = row_stride * np.arange(len(grid))[:, None] + np.arange(reps)
    raw_rows = []
    curve_tables = {}
    summary = {"config": asdict(config), "systems": {}}
    for sys_idx, sys_name in enumerate(config.baseline_systems):
        bundle = get_preset(sys_name, noise_law=config.noise_law).with_input_law("gaussian")
        system = bundle.system
        samples = [bundle.schedule.ell * n_r for n_r in grid]
        # --- MALS on n_r rollouts of length ell
        errs = _sweep(bundle, grid, _rep_seeds(config.seed ^ 0x88, sys_idx * sys_stride + rep_index))
        # (err_AB, err_Sigma, diverged) per algorithm, each indexed [checkpoint, rep]
        per_alg = {"MALS": (errs["err_AB"], errs["err_Sigma"], np.zeros(rep_index.shape, dtype=bool))}
        # --- RLS (i.i.d. standard normal inputs) and RLSp (the schedule, repeated), simulated and fitted together
        standard_normal = InputSchedule(nu=np.zeros((1, system.m)), ubar=np.eye(system.m), law="gaussian")
        laws = {"RLS": standard_normal, "RLSp": bundle.schedule}
        law_seeds = _rep_seeds(config.seed ^ 0x77, sys_idx * 10 + np.arange(len(laws)))
        cps, ab, sa, sb, div = rls_batch_estimates(
            system, tuple(laws.values()), samples[-1], reps, law_seeds, samples
        )
        assert cps == samples, "sample-count parity violated"
        rls = attach_errors(EstimationResult(ab[..., : system.n], ab[..., system.n :], sa, sb, {}), system)
        for i, alg in enumerate(laws):
            runs = slice(i * reps, (i + 1) * reps)
            per_alg[alg] = (rls.errors["err_AB"][:, runs], rls.errors["err_Sigma"][:, runs], div[:, runs])
        sys_summary = {}
        for alg, (e_ab, e_sig, div) in per_alg.items():
            curve = []
            alg_sum = {}
            for ci, c in enumerate(samples):
                for r in range(reps):
                    raw_rows.append([sys_name, alg, c, r, e_ab[ci, r], e_sig[ci, r], div[ci, r]])
                mean_ab = float(np.mean(e_ab[ci]))
                mean_sig = float(np.mean(e_sig[ci]))
                div_frac = float(np.mean(div[ci]))
                curve.append([c, mean_ab, mean_sig, div_frac])
                alg_sum[str(c)] = {
                    "mean_err_AB": mean_ab,
                    "median_err_AB": float(np.median(e_ab[ci])),
                    "mean_err_Sigma": mean_sig,
                    "median_err_Sigma": float(np.median(e_sig[ci])),
                    "diverged_fraction": div_frac,
                }
            curve_tables[f"baseline_{sys_name}_{alg}"] = (
                ["samples", "err_AB", "err_Sigma", "diverged"],
                curve,
            )
            sys_summary[alg] = alg_sum
        summary["systems"][sys_name] = sys_summary
    summary["runtime_s"] = time.perf_counter() - t0
    tables = {
        "baseline_raw": (
            ["system", "algorithm", "samples", "rep", "err_AB", "err_Sigma", "diverged"],
            raw_rows,
        ),
        **curve_tables,
    }
    return ExperimentReport(name="baselines", summary=summary, tables=tables)
