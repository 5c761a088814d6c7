import csv
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from multinoise.cli import main
from multinoise.experiments import (
    ConfigError,
    ExperimentConfig,
    run_baseline_comparison,
    run_convergence,
    run_equivalence_demo,
    run_tail_frequency,
)
from multinoise.mals import mals
from multinoise.presets import get_preset


SMALL = dict(
    preset="paper-4.1",
    input_laws=("uniform",),
    n_r_grid=(50, 200),
    reps=3,
    seed=7,
)


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        ExperimentConfig.from_dict({"presett": "paper-4.1"})


def test_config_rejects_unknown_preset():
    with pytest.raises(ConfigError, match="unknown preset"):
        ExperimentConfig.from_dict({"preset": "paper-9.9"})


@pytest.mark.parametrize("name", ["paper-4.2-rho.6", "paper-4.2-rho0.60", "paper-4.2-rhox"])
def test_get_preset_rejects_names_it_does_not_list(name):
    # spellings of a listed rho, and a rho that is not a number, are unknown names
    with pytest.raises(ValueError, match=rf"unknown preset '{name}'; known: paper-4.1, "):
        get_preset(name)


def test_config_rejects_descending_grid():
    with pytest.raises(ConfigError, match="ascending"):
        ExperimentConfig.from_dict({"n_r_grid": [100, 10]})
    with pytest.raises(ConfigError, match="ascending"):
        ExperimentConfig.from_dict({"n_r_grid": [100, 100]})


def test_config_rejects_bad_law():
    with pytest.raises(ConfigError, match="input law"):
        ExperimentConfig.from_dict({"input_laws": ["lognormal"]})


@pytest.mark.parametrize("key", ["n_r_grid", "baseline_grid", "tail_grid"])
@pytest.mark.parametrize("grid", [[20.5, 40], [True, 40], ["20", "40"], [0, 40]])
def test_config_rejects_non_integer_grid_entries(key, grid):
    with pytest.raises(ConfigError, match=f"{key} must be .* positive integers"):
        ExperimentConfig.from_dict({key: grid})


@pytest.mark.parametrize("key", ["reps", "tail_reps", "bound_n_r", "demo_n_r", "demo_periods"])
@pytest.mark.parametrize("value", [2.5, 2.0, True, "3", 0, None])
def test_config_rejects_non_integer_counts(key, value):
    with pytest.raises(ConfigError, match=f"{key} must be a positive integer"):
        ExperimentConfig.from_dict({key: value})


@pytest.mark.parametrize("value", [1.5, True, "7", None])
def test_config_rejects_non_integer_seed(value):
    with pytest.raises(ConfigError, match="seed must be an integer"):
        ExperimentConfig.from_dict({"seed": value})


def test_config_accepts_numpy_integer_counts():
    cfg = ExperimentConfig.from_dict(
        {"n_r_grid": [np.int64(20), 40], "reps": np.int32(2), "seed": np.uint64(5)}
    )
    assert cfg.reps == 2 and cfg.n_r_grid == (20, 40)


def test_numpy_integer_config_runs_like_int_config(tmp_path):
    np_cfg = ExperimentConfig(preset="paper-4.1", input_laws=("uniform",), n_r_grid=(np.int64(20), np.uint32(40)),
                              reps=np.int64(2), tail_grid=(np.int16(10),), tail_reps=np.int32(3),
                              seed=np.int64(3))
    cfg = ExperimentConfig(preset="paper-4.1", input_laws=("uniform",), n_r_grid=(20, 40), reps=2,
                           tail_grid=(10,), tail_reps=3, seed=3)
    for name in ("n_r_grid", "reps", "tail_grid", "tail_reps", "seed", "bound_n_r"):
        value = getattr(np_cfg, name)
        assert all(type(v) is int for v in (value if isinstance(value, tuple) else (value,))), name
    for run in (run_convergence, run_tail_frequency):
        run(np_cfg).write(tmp_path / "np")  # the summary JSON holds the config
        run(cfg).write(tmp_path / "int")
    for p in sorted((tmp_path / "int").glob("*.csv")):
        assert (tmp_path / "np" / p.name).read_bytes() == p.read_bytes(), p.name


def test_mals_accepts_numpy_integer_seeds():
    b = get_preset("paper-4.1")
    want = mals(b.system, b.schedule, b.init, 30, seed=5).to_json()
    for seed in (np.int64(5), np.uint64(5), np.int32(5)):
        assert mals(b.system, b.schedule, b.init, 30, seed=seed).to_json() == want


def test_sweep_csvs_keep_their_pinned_bytes(tmp_path):
    pins = json.loads((Path(__file__).parent / "csv_pins.json").read_text())
    cfg = ExperimentConfig.from_dict(pins["config"])
    run_convergence(cfg).write(tmp_path)
    run_tail_frequency(cfg).write(tmp_path)
    for name, digest in pins["sha256"].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def _assert_baseline_pins(tmp_path, key):
    pins = json.loads((Path(__file__).parent / "csv_pins.json").read_text())[key]
    run_baseline_comparison(ExperimentConfig.from_dict(pins["config"])).write(tmp_path)
    for name, digest in pins["sha256"].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_baseline_csvs_keep_their_pinned_bytes(tmp_path):
    # the config freezes runs of rho 1.0 and of the additive embedding, by out-of-range states and regressors
    _assert_baseline_pins(tmp_path, "baselines")


def test_baseline_csvs_keep_their_pinned_bytes_when_the_simulation_stops_early(tmp_path):
    # every single trajectory diverges, by step 971 on rho 1.0 (T = 4000) and by step 1245 on the
    # additive embedding (T = 6000), so the simulation stops long before the horizon
    _assert_baseline_pins(tmp_path, "baselines_all_diverged")


def test_cli_non_string_out_is_a_config_error(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"out": 5}))
    assert main(["oracle", "--config", str(p)]) == 2
    assert capsys.readouterr().err == "config error: out must be a directory path string, got 5\n"


def test_cli_non_integer_count_is_a_config_error(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"preset": "paper-4.1", "input_laws": ["uniform"],
                             "n_r_grid": [20, 40], "reps": 2.5, "out": str(tmp_path)}))
    assert main(["experiment", "convergence", "--config", str(p)]) == 2
    assert capsys.readouterr().err == "config error: reps must be a positive integer, got 2.5\n"


def test_cli_reps_overrides_the_config_of_experiment_and_no_other_command(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"preset": "paper-4.1", "input_laws": ["uniform"], "n_r_grid": [50, 200], "reps": 3}))
    out = tmp_path / "convergence"
    assert main(["experiment", "convergence", "--config", str(p), "--reps", "2", "--out", str(out)]) == 0
    with open(out / "convergence_raw.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert len(rows) == 4  # 2 grid points x 2 reps
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--preset", "paper-4.1", "--reps", "3", "--out", str(tmp_path / "oracle")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --reps 3" in capsys.readouterr().err
    assert not (tmp_path / "oracle").exists()


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"input_laws": 5}, "input_laws must be a list of names, got 5"),
        ({"input_laws": "uniform"}, "input_laws must be a list of names, got 'uniform'"),
        ({"baseline_systems": 7}, "baseline_systems must be a list of names, got 7"),
        ({"input_laws": ["uniform", "gaussian", "uniform"]}, "input_laws names 'uniform' more than once"),
        ({"baseline_systems": ["paper-4.2-rho0.8", "paper-4.2-rho0.8"]},
         "baseline_systems names 'paper-4.2-rho0.8' more than once"),
        ({"eps_grid": 0.5}, "eps_grid must be a list of finite positive numbers, got 0.5"),
        ({"eps_grid": ["x"]}, "eps_grid must be a list of finite positive numbers"),
        ({"eps_grid": [[1, 2]]}, "eps_grid must be a list of finite positive numbers"),
        ({"eps_grid": [-1, 0.5]}, "eps_grid must be a list of finite positive numbers"),
        ({"eps_grid": [0.1, 0]}, "eps_grid must be a list of finite positive numbers"),
        ({"eps_grid": [0.1, float("nan")]}, "eps_grid must be a list of finite positive numbers"),
        ({"eps_grid": [0.1, float("inf")]}, "eps_grid must be a list of finite positive numbers"),
        ({"eps_grid": [True]}, "eps_grid must be a list of finite positive numbers"),
    ],
    ids=["laws-int", "laws-str", "systems-int", "laws-repeated", "systems-repeated", "eps-float", "eps-str",
         "eps-nested", "eps-negative", "eps-zero", "eps-nan", "eps-inf", "eps-bool"],
)
def test_cli_malformed_list_field_is_a_config_error(tmp_path, capsys, entry, message):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(entry))
    assert main(["bounds", "--config", str(p), "--n-r", "500", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert not (tmp_path / "out").exists()


def test_config_eps_grid_keeps_ints_and_unwraps_numpy_scalars():
    cfg = ExperimentConfig(eps_grid=[1, np.float32(0.5), np.int64(2), 0.25])
    assert cfg.eps_grid == (1, 0.5, 2, 0.25)
    assert [type(v) for v in cfg.eps_grid] == [int, float, int, float]
    assert ExperimentConfig.from_dict({"input_laws": ["uniform"]}).input_laws == ("uniform",)


@pytest.mark.parametrize("grid, reps, systems", [((1, 2), 10_001, 1), (tuple(range(1, 102)), 1, 2)])
def test_baseline_mals_seeds_are_distinct(monkeypatch, grid, reps, systems):
    # more than 10,000 reps, or more than 100 grid points, once gave two MALS runs one seed
    import multinoise.experiments as ex

    seen = []

    def spy(bundle, grid, seeds):
        seen.append(np.array(seeds))
        return {key: np.zeros(np.shape(seeds)) for key in ex._ERROR_KEYS}

    monkeypatch.setattr(ex, "_sweep", spy)
    cfg = ExperimentConfig(baseline_grid=grid, reps=reps,
                           baseline_systems=ExperimentConfig().baseline_systems[:systems])
    run_baseline_comparison(cfg)
    seeds = np.concatenate([s.ravel() for s in seen])
    assert seeds.size == systems * len(grid) * reps
    assert np.unique(seeds).size == seeds.size


def test_config_file_roundtrip(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"preset": "paper-4.2-rho0.8", "reps": 5}))
    cfg = ExperimentConfig.from_json_file(p)
    assert cfg.preset == "paper-4.2-rho0.8"
    assert cfg.reps == 5


def test_convergence_report_and_determinism(tmp_path):
    cfg = ExperimentConfig.from_dict(SMALL)
    rep1 = run_convergence(cfg)
    rep2 = run_convergence(cfg)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    rep1.write(out1)
    rep2.write(out2)
    for name in ("convergence_raw.csv", "convergence_summary.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    with open(out1 / "convergence_raw.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header[:4] == ["law", "n_r", "rep", "seed"]
    assert len(rows) == len(SMALL["n_r_grid"]) * SMALL["reps"]
    assert "uniform" in rep1.summary["laws"]
    assert "slope_err_AB" in rep1.summary["laws"]["uniform"]


def test_convergence_rows_are_direct_mals_calls():
    cfg = ExperimentConfig.from_dict(
        dict(preset="paper-4.2-rho0.8", input_laws=("gaussian", "deterministic"), n_r_grid=(20, 40),
             reps=2, seed=5)
    )
    header, rows = run_convergence(cfg).tables["convergence_raw"]
    assert len(rows) == 2 * 2 * 2 and len({row[3] for row in rows}) == len(rows)
    for law, n_r, _, seed, *errs in rows:
        b = get_preset(cfg.preset).with_input_law(law)
        res = mals(b.system, b.schedule, b.init, n_r, seed=seed)
        assert errs == [res.errors[k] for k in header[4:]]


def test_csv_round_trips_through_import(tmp_path):
    cfg = ExperimentConfig.from_dict(SMALL)
    rep = run_convergence(cfg)
    paths = rep.write(tmp_path)
    csvs = [p for p in paths if p.suffix == ".csv"]
    for p in csvs:
        with open(p, newline="") as fh:
            header, *rows = csv.reader(fh)
        # rewrite from the imported values and compare bytes
        import csv as _csv

        q = tmp_path / ("re_" + p.name)
        with open(q, "w", newline="") as fh:
            w = _csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)
        assert q.read_bytes() == p.read_bytes()


def test_tail_report_shape():
    cfg = ExperimentConfig.from_dict(
        dict(preset="paper-4.1", input_laws=("uniform",), tail_grid=(50, 100), tail_reps=40, seed=3)
    )
    rep = run_tail_frequency(cfg)
    header, rows = rep.tables["tail_frequencies"]
    assert header == ["metric", "n_r", "epsilon", "frequency"]
    freqs = [float(r[3]) for r in rows]
    assert all(0.0 <= f <= 1.0 for f in freqs)
    for metric in ("err_AB_norm", "err_Sigma_norm"):
        md = rep.summary["metrics"][metric]
        assert len(md["frequencies_at_eps_star"]) == 2
        # at eps = median of the small-n_r errors, frequency starts near 1/2
        assert md["frequencies_at_eps_star"][0] == pytest.approx(0.5, abs=0.051)


def test_tail_with_bound_envelope_cross_check():
    cfg = ExperimentConfig.from_dict(
        dict(preset="paper-4.1", input_laws=("uniform",), tail_grid=(100,), tail_reps=50, seed=4)
    )
    rep = run_tail_frequency(cfg, with_bounds=True)
    header, rows = rep.tables["bound_envelope"]
    assert header == ["metric", "n_r", "epsilon", "frequency", "bound", "holds"]
    assert rows and all(int(r[5]) == 1 for r in rows)  # envelope holds everywhere
    assert all(0.0 <= float(r[4]) <= 1.0 for r in rows)  # bounds clipped to [0, 1]


def test_tail_frequency_zero_beyond_worst_error():
    cfg = ExperimentConfig.from_dict(
        dict(preset="paper-4.1", input_laws=("uniform",), tail_grid=(50,), tail_reps=20, seed=3,
             eps_grid=(1e9,))
    )
    rep = run_tail_frequency(cfg)
    header, rows = rep.tables["tail_frequencies"]
    big = [float(r[3]) for r in rows if float(r[2]) == 1e9]
    assert big and all(f == 0.0 for f in big)


def test_equivalence_demo_summary():
    cfg = ExperimentConfig.from_dict(dict(preset="paper-4.1", demo_n_r=3000, seed=2))
    rep = run_equivalence_demo(cfg)
    assert rep.summary["max_abs_diff_base_vs_equiv"] <= 1e-12
    assert rep.summary["equivalent_member_psd"] == [True, True]
    header, rows = rep.tables["equivalence_trajectories"]
    assert header[0] == "t"
    assert len(rows) == 3 * 4 + 1  # demo_periods * ell + 1


def test_equivalence_demo_zero_noise_coincides():
    cfg = ExperimentConfig.from_dict(
        dict(preset="paper-4.2-rho0.6-nonoise", demo_n_r=500, seed=2)
    )
    rep = run_equivalence_demo(cfg)
    assert rep.summary["max_abs_diff_base_vs_equiv"] <= 1e-12


def test_baseline_comparison_small(tmp_path):
    cfg = ExperimentConfig.from_dict(
        dict(
            preset="paper-4.1",
            baseline_grid=(50, 200),
            reps=3,
            seed=11,
            baseline_systems=("paper-4.2-rho0.6-nonoise", "paper-4.2-rho1.0"),
        )
    )
    rep = run_baseline_comparison(cfg)
    paths = rep.write(tmp_path)
    names = {p.name for p in paths}
    assert "baseline_paper-4.2-rho1.0_RLS.csv" in names
    with open(tmp_path / "baseline_paper-4.2-rho1.0_RLS.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["samples", "err_AB", "err_Sigma", "diverged"]
    # matched sample counts: 4 * n_r
    assert [int(float(r[0])) for r in rows] == [200, 800]
    sysnames = set(rep.summary["systems"])
    assert sysnames == {"paper-4.2-rho0.6-nonoise", "paper-4.2-rho1.0"}
    for alg in ("MALS", "RLS", "RLSp"):
        assert alg in rep.summary["systems"]["paper-4.2-rho1.0"]


def test_baseline_curves_and_summary_reduce_the_raw_rows():
    cfg = ExperimentConfig.from_dict(
        dict(baseline_grid=(50, 300), reps=4, seed=3,
             baseline_systems=("paper-4.2-rho0.6", "paper-4.2-rho1.0"))
    )
    rep = run_baseline_comparison(cfg)
    _, raw = rep.tables["baseline_raw"]
    assert any(row[6] for row in raw)  # the rho 1.0 runs diverge: the flags are exercised
    for sys_name, algs in rep.summary["systems"].items():
        for alg, per_count in algs.items():
            _, curve = rep.tables[f"baseline_{sys_name}_{alg}"]
            assert [row[0] for row in curve] == [4 * 50, 4 * 300]
            for (samples, mean_ab, mean_sig, div_frac), (key, s) in zip(curve, per_count.items()):
                sel = [row for row in raw if row[:3] == [sys_name, alg, samples]]
                assert key == str(samples) and [row[3] for row in sel] == list(range(4))
                e_ab, e_sig, div = ([row[i] for row in sel] for i in (4, 5, 6))
                assert mean_ab == s["mean_err_AB"] == np.mean(e_ab)
                assert mean_sig == s["mean_err_Sigma"] == np.mean(e_sig)
                assert div_frac == s["diverged_fraction"] == np.mean(div)
                assert s["median_err_AB"] == np.median(e_ab)
                assert s["median_err_Sigma"] == np.median(e_sig)


# --- CLI ------------------------------------------------------------------------


def test_cli_simulate_estimate_roundtrip(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["simulate", "--preset", "paper-4.1", "--seed", "3", "--n-r", "20",
               "--out", str(out)])
    assert rc == 0
    rc = main(["estimate", "--preset", "paper-4.1", "--rollouts", str(out / "rollouts.json"),
               "--out", str(out)])
    assert rc == 0
    est = json.loads((out / "estimation.json").read_text())
    assert np.array(est["A_hat"]).shape == (2, 2)


def test_cli_malformed_rollout_file_exit_2(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["simulate", "--preset", "paper-4.1", "--n-r", "3", "--out", str(out)]) == 0
    d = json.loads((out / "rollouts.json").read_text())
    del d["rollouts"][0]["u"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    assert main(["estimate", "--rollouts", str(bad), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "input error: rollout 0 has no 'u' field\n"


def test_cli_schedule_mismatch_is_an_input_error(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["simulate", "--preset", "paper-4.1", "--n-r", "3", "--out", str(out)]) == 0
    d = json.loads((out / "rollouts.json").read_text())
    for key in ("nu", "Ubar"):
        d["schedule"][key].pop()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    assert main(["estimate", "--rollouts", str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: rollout JSON field schedule.nu has shape (3, 1)"), err


def test_cli_non_finite_schedule_is_an_input_error(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["simulate", "--preset", "paper-4.1", "--n-r", "3", "--out", str(out)]) == 0
    d = json.loads((out / "rollouts.json").read_text())
    d["schedule"]["nu"][1][0] = float("nan")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    assert main(["estimate", "--rollouts", str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "input error: rollout JSON field schedule.nu[1, 0] is not finite\n", err


def test_cli_rollouts_of_another_system_are_an_input_error(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["simulate", "--preset", "paper-4.1-additive", "--n-r", "3", "--out", str(out)]) == 0
    rollouts = str(out / "rollouts.json")
    assert main(["estimate", "--preset", "paper-4.1", "--rollouts", rollouts, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "input error: rollouts have (n, m) = (2, 2) but preset paper-4.1 has (n, m) = (2, 1)\n", err


def test_cli_undecodable_rollout_file_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "latin-1.json"
    bad.write_bytes(b'{"n": 2, "law": "\xe9"}')
    assert main(["estimate", "--rollouts", str(bad), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: cannot read rollouts {bad}: 'utf-8' codec can't decode byte 0xe9"), err


@pytest.mark.parametrize(
    "where, number, message",
    [
        (("rollouts", 1, "x", 2), str(10**400), "rollout 1: states are ragged, not numeric or too large"),
        (("schedule", "nu", 0), str(10**400), "rollout JSON field schedule.nu is ragged, not numeric or too large"),
        (("rollouts", 0, "u", 1), "9" * 5000, "rollout JSON does not parse: Exceeds the limit (4300 digits)"
         if hasattr(sys, "get_int_max_str_digits") else "rollout 0: inputs are ragged, not numeric or too large"),
    ],
    ids=["x", "nu", "digit-limit"],
)
def test_cli_out_of_range_number_in_rollouts_is_an_input_error(tmp_path, capsys, where, number, message):
    out = tmp_path / "run"
    assert main(["simulate", "--preset", "paper-4.1", "--n-r", "3", "--out", str(out)]) == 0
    d = json.loads((out / "rollouts.json").read_text())
    entry = d
    for key in where:
        entry = entry[key]
    entry[0] = "NUMBER"
    for indent in (None, 2):  # the chunked layout, and one read whole
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(d, indent=indent).replace('"NUMBER"', number))
        assert main(["estimate", "--rollouts", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {message}"), err


def test_cli_unknown_preset_exit_2(tmp_path):
    assert main(["oracle", "--preset", "nope", "--out", str(tmp_path)]) == 2


def test_cli_bad_config_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"n_r_grid": [5, 1]}')
    assert main(["experiment", "convergence", "--config", str(p), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: n_r_grid must be")


@pytest.mark.parametrize("debug", [False, True])
def test_cli_unexpected_error_exit_1_traceback_under_debug(tmp_path, monkeypatch, capsys, debug):
    import multinoise.cli as cli

    def boom(cfg):
        raise ValueError("matrices are not aligned")  # as from a numpy failure inside a run

    monkeypatch.setitem(cli._EXPERIMENTS, "baselines", boom)
    argv = ["experiment", "baselines", "--out", str(tmp_path)] + ["--debug"] * debug
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.endswith("error: ValueError: matrices are not aligned\n")
    assert ("Traceback (most recent call last)" in err) == debug


def test_cli_assertion_failure_exit_3(tmp_path, monkeypatch):
    import multinoise.cli as cli

    def boom(cfg):
        raise AssertionError("sample-count parity violated")

    monkeypatch.setitem(cli._EXPERIMENTS, "baselines", boom)
    assert main(["experiment", "baselines", "--out", str(tmp_path)]) == 3


def test_cli_bounds_outputs(tmp_path):
    rc = main(["bounds", "--preset", "paper-4.1", "--n-r", "500", "--out", str(tmp_path)])
    assert rc == 0
    with open(tmp_path / "delta_bounds.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["epsilon", "delta_Y", "delta_YZ", "delta_ZZ", "delta_AB"]
    with open(tmp_path / "eta_bounds.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["epsilon", "eta_D", "eta_C", "eta_CD", "eta_DD", "eta"]
    assert len(rows) == 10


def test_cli_identifiability_outputs(tmp_path):
    rc = main(["identifiability", "--preset", "paper-4.1", "--out", str(tmp_path)])
    assert rc == 0
    ec = json.loads((tmp_path / "equivalence_class.json").read_text())
    assert ec["d_alpha"] == 1 and ec["d_beta"] == 0
    ver = json.loads((tmp_path / "uniqueness.json").read_text())
    assert ver["overall"] == "InfinitelyMany"
