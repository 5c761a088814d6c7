"""Command-line front end.

Subcommands: simulate, estimate, oracle, identifiability, bounds, and
experiment {convergence|tail|equivalence|baselines}.  Exit codes: 0 success,
1 any other failure (its traceback under --debug), 2 configuration error or
unreadable, undecodable or malformed rollout file (or one of another system
than --preset), 3 assertion failure inside a run.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import traceback
from pathlib import Path

import numpy as np

from .bounds import bound_context, bound_curves
from .experiments import (
    ConfigError,
    ExperimentConfig,
    run_baseline_comparison,
    run_convergence,
    run_equivalence_demo,
    run_tail_frequency,
    write_table,
)
from .identifiability import classify_uniqueness
from .mals import mals
from .moment_oracle import assemble_population, check_excitation, controllable
from .presets import PRESET_NAMES, get_preset
from .shape_ops import svec_index_pairs
from .system_model import InputError, RolloutSet, simulate_rollouts


def _add_common(parser):
    parser.add_argument("--config", type=str, default=None, help="JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="master seed")
    parser.add_argument("--out", type=str, default=None, help="output directory")
    parser.add_argument("--preset", type=str, default=None, help=f"one of {', '.join(PRESET_NAMES)}")
    parser.add_argument("--debug", action="store_true", help="print the traceback of an unexpected error")


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _load_config(args):
    config = ExperimentConfig.from_json_file(args.config) if args.config else ExperimentConfig()
    overrides = {key: getattr(args, key, None) for key in ("seed", "out", "reps", "preset")}
    return dataclasses.replace(config, **{k: v for k, v in overrides.items() if v is not None})


def _outdir(config):
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(args, config):
    bundle = get_preset(config.preset, noise_law=config.noise_law)
    n_r = args.n_r or config.n_r_grid[0]
    rollouts = simulate_rollouts(bundle.system, bundle.schedule, bundle.init, int(n_r), config.seed)
    out = _outdir(config) / "rollouts.json"
    out.write_text(rollouts.to_json())
    print(f"wrote {out} ({rollouts.n_r} rollouts, ell={rollouts.ell})")
    return 0


def cmd_estimate(args, config):
    bundle = get_preset(config.preset, noise_law=config.noise_law)
    if args.rollouts:
        try:
            text = Path(args.rollouts).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read rollouts {args.rollouts}: {exc}") from None
        rollouts = RolloutSet.from_json(text)
        truth = bundle.system if args.preset else None
        if truth is not None and (rollouts.n, rollouts.m) != (truth.n, truth.m):
            raise InputError(
                f"rollouts have (n, m) = ({rollouts.n}, {rollouts.m}) but preset {config.preset} "
                f"has (n, m) = ({truth.n}, {truth.m})"
            )
        result = mals(rollouts, truth=truth)
    else:
        n_r = args.n_r or config.n_r_grid[0]
        result = mals(bundle.system, bundle.schedule, bundle.init, int(n_r), seed=config.seed)
    out = _outdir(config) / "estimation.json"
    out.write_text(result.to_json())
    print(f"wrote {out}")
    return 0


def cmd_oracle(args, config):
    bundle = get_preset(config.preset, noise_law=config.noise_law)
    reg, tr = assemble_population(bundle.system, bundle.schedule, np.zeros(bundle.system.n))
    out = _outdir(config) / "moments.csv"
    n = bundle.system.n
    header = ["t"] + [f"mu_{i}" for i in range(1, n + 1)] + [f"Xt_{i}{j}" for i, j in svec_index_pairs(n)]
    write_table(out, header, ([t, *mu, *x_t] for t, (mu, x_t) in enumerate(zip(tr.mu, tr.x_t))))
    rep = check_excitation(reg, bundle.system.n, bundle.system.m)
    summary = {
        "controllable_nominal": controllable(bundle.system.A, bundle.system.B),
        "excitation": {
            "pass_Z": rep.pass_z,
            "pass_D": rep.pass_d,
            "lambda_min_ZZ": rep.lambda_min_zz,
            "lambda_min_DD": rep.lambda_min_dd,
        },
    }
    (_outdir(config) / "oracle_summary.json").write_text(json.dumps(summary, indent=2))
    print(f"wrote {out}")
    return 0


def cmd_identifiability(args, config):
    bundle = get_preset(config.preset, noise_law=config.noise_law)
    ec = bundle.equivalence()
    verdict = classify_uniqueness(
        bundle.system.n, bundle.system.m, bundle.system.sigma_a, bundle.system.sigma_b
    )
    out = _outdir(config) / "equivalence_class.json"
    out.write_text(ec.to_json())
    (_outdir(config) / "uniqueness.json").write_text(json.dumps(dataclasses.asdict(verdict), indent=2))
    print(f"wrote {out}")
    return 0


def cmd_bounds(args, config):
    bundle = get_preset(config.preset, noise_law="uniform")  # bound machinery needs a.s. bounds
    n_r = args.n_r or config.bound_n_r
    ctx = bound_context(bundle.system, bundle.schedule, bundle.init, int(n_r))
    eps_grid = np.asarray(config.eps_grid, dtype=float) if config.eps_grid else np.geomspace(0.05, 5.0, 10)
    outdir = _outdir(config)
    for name, columns in (
        ("delta_bounds.csv", ["delta_Y", "delta_YZ", "delta_ZZ", "delta_AB"]),
        ("eta_bounds.csv", ["eta_D", "eta_C", "eta_CD", "eta_DD", "eta"]),
    ):
        curves = bound_curves(ctx, eps_grid, columns)
        rows = np.column_stack([eps_grid] + [curves[c] for c in columns])
        write_table(outdir / name, ["epsilon"] + columns, rows)
    print(f"wrote {outdir}/delta_bounds.csv and {outdir}/eta_bounds.csv")
    return 0


_EXPERIMENTS = {
    "convergence": run_convergence,
    "tail": run_tail_frequency,
    "equivalence": run_equivalence_demo,
    "baselines": run_baseline_comparison,
}


def cmd_experiment(args, config):
    runner = _EXPERIMENTS[args.which]
    report = runner(config)
    paths = report.write(_outdir(config))
    for p in paths:
        print(f"wrote {p}")
    return 0


def build_parser():
    ap = argparse.ArgumentParser(prog="multinoise",
                                 description="multiplicative-noise system identification toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate rollouts to JSON")
    _add_common(p)
    p.add_argument("--n-r", type=_positive_int, default=None)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("estimate", help="run the averaging least-squares estimator")
    _add_common(p)
    p.add_argument("--n-r", type=_positive_int, default=None)
    p.add_argument("--rollouts", type=str, default=None, help="ingest a rollout JSON file")
    p.set_defaults(fn=cmd_estimate)

    p = sub.add_parser("oracle", help="exact moment propagation and excitation checks")
    _add_common(p)
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("identifiability", help="export the covariance equivalence class")
    _add_common(p)
    p.set_defaults(fn=cmd_identifiability)

    p = sub.add_parser("bounds", help="evaluate the finite-sample bound curves")
    _add_common(p)
    p.add_argument("--n-r", type=_positive_int, default=None)
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("experiment", help="run a bundled experiment")
    p.add_argument("which", choices=sorted(_EXPERIMENTS))
    _add_common(p)
    p.add_argument("--reps", type=int, default=None, help="repetition count")
    p.set_defaults(fn=cmd_experiment)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args, _load_config(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"assertion failure: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # the command-line boundary: report, do not crash
        if args.debug:
            traceback.print_exc()
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
