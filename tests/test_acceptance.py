"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line (run with ``pytest -s tests/test_acceptance.py -v``).
"""

import time

import numpy as np
import pytest

from multinoise import bounds as bnd
from multinoise.experiments import (
    ExperimentConfig,
    run_baseline_comparison,
    run_convergence,
    run_tail_frequency,
)
from multinoise.identifiability import build_E_alpha, off_pairs
from multinoise.mals import attach_errors, mals, solve
from multinoise.moment_oracle import (
    assemble_population,
    check_excitation,
    lift,
    propagate_first,
    propagate_second,
)
from multinoise.presets import benchmark_sigma_a_alpha
from multinoise.shape_ops import (
    reshape_F,
    reshape_G,
    selection_matrices,
    svec,
    svec_dim,
    vec,
)
from multinoise.system_model import CovarianceNoise, make_system, simulate_rollouts

from conftest import (
    BENCH_A,
    BENCH_B,
    BENCH_SIGMA_A,
    BENCH_SIGMA_B,
    BENCH_SIGMA_A_TILDE,
    BENCH_SIGMA_B_TILDE,
)


def _ok(num, msg):
    print(f"\n[criterion {num:02d}] PASS - {msg}")


def test_criterion_01_exact_reduction(bench_system):
    t_best = min(_timed(lambda: lift(bench_system)) for _ in range(20))
    ld = lift(bench_system)
    assert np.max(np.abs(ld.sigma_a_tilde - BENCH_SIGMA_A_TILDE)) <= 1e-12
    assert np.max(np.abs(ld.sigma_b_tilde - BENCH_SIGMA_B_TILDE)) <= 1e-12
    assert t_best < 1e-3
    _ok(1, f"benchmark reduced covariances exact to 1e-12; lift in {t_best * 1e6:.0f} us")


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_02_selection_golden():
    sm = selection_matrices(2)
    P = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
    Q = [[1, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1]]
    T = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
    assert np.array_equal(sm.P, P) and np.array_equal(sm.Q, Q) and np.array_equal(sm.T, T)
    _ok(2, "selection matrices for n=2 match the displayed golden values exactly")


def test_criterion_03_operator_algebra():
    t0 = time.perf_counter()
    rng = np.random.default_rng(123)
    for n in range(1, 7):
        sm = selection_matrices(n)
        assert np.array_equal(sm.P @ sm.Q, np.eye(svec_dim(n)))
        assert np.array_equal(sm.Q @ sm.P, sm.T)
    for _ in range(20):
        m, n, p, q = rng.integers(1, 4, size=4)
        X = rng.standard_normal((m * p, n * q))
        Y = rng.standard_normal((m * n, p * q))
        assert np.max(np.abs(reshape_G(reshape_F(X, m, n, p, q), m, n, p, q) - X)) <= 1e-12
        assert np.max(np.abs(reshape_F(reshape_G(Y, m, n, p, q), m, n, p, q) - Y)) <= 1e-12
        A = rng.standard_normal((m, n))
        v = vec(A)
        assert np.max(np.abs(reshape_F(np.kron(A, A), m, n, m, n) - np.outer(v, v))) <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _ok(3, f"operator algebra identities hold to 1e-12 in {elapsed:.2f} s")


def test_criterion_04_population_recovery(bench_system, bench_schedule):
    reg, tr = assemble_population(bench_system, bench_schedule, np.zeros(2))
    rep = check_excitation(reg, 2, 1)
    assert rep.pass_z and rep.pass_d
    res = attach_errors(solve(tr), bench_system)
    assert res.errors["err_AB"] <= 1e-9
    assert res.errors["err_Sigma"] <= 1e-9
    _ok(4, f"population moments recover truth: err_AB={res.errors['err_AB']:.2e}, "
           f"err_Sigma={res.errors['err_Sigma']:.2e}")


def test_criterion_05_monte_carlo_agreement(bench_system, bench_schedule, zero_init):
    t0 = time.perf_counter()
    n_r = 100_000
    rollouts = simulate_rollouts(bench_system, bench_schedule, zero_init, n_r, seed=12)
    mu = propagate_first(BENCH_A, BENCH_B, bench_schedule, np.zeros(2))
    tr = propagate_second(bench_system, bench_schedule, np.zeros(2))
    for t in range(bench_schedule.ell + 1):
        se = rollouts.states[:, t, :].std(axis=0, ddof=1) / np.sqrt(n_r)
        assert np.all(np.abs(rollouts.states[:, t, :].mean(axis=0) - mu[t]) <= 3 * se + 1e-12)
    worst = 0.0
    for t in range(1, bench_schedule.ell + 1):
        emp = rollouts.states[:, t, :].T @ rollouts.states[:, t, :] / n_r
        rel = np.linalg.norm(svec(emp) - tr.x_t[t]) / np.linalg.norm(tr.x_t[t])
        worst = max(worst, rel)
        assert rel <= 0.02
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _ok(5, f"1e5-rollout moments match the oracle (worst rel 2nd-moment err "
           f"{worst:.4f} <= 0.02) in {elapsed:.1f} s")


def test_criterion_06_consistency_slope():
    t0 = time.perf_counter()
    cfg = ExperimentConfig.from_dict(
        dict(preset="paper-4.1", reps=20, seed=0, n_r_grid=(100, 1000, 10000, 100000))
    )
    rep = run_convergence(cfg)
    for law, d in rep.summary["laws"].items():
        assert d["monotone_err_AB"], law
        assert d["monotone_err_Sigma"], law
        assert -0.65 <= d["slope_err_AB"] <= -0.35, (law, d["slope_err_AB"])
        assert -0.65 <= d["slope_err_Sigma"] <= -0.35, (law, d["slope_err_Sigma"])
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    slopes = {law: round(d["slope_err_AB"], 3) for law, d in rep.summary["laws"].items()}
    _ok(6, f"20-rep medians nonincreasing, log-log slopes in [-0.65,-0.35] "
           f"(AB slopes {slopes}) in {elapsed:.0f} s")


def test_criterion_07_equivalence_identity(bench_schedule):
    s1 = make_system(BENCH_A, BENCH_B, CovarianceNoise(BENCH_SIGMA_A, BENCH_SIGMA_B))
    s2 = make_system(BENCH_A, BENCH_B, CovarianceNoise(benchmark_sigma_a_alpha(1.0), BENCH_SIGMA_B))
    t1 = propagate_second(s1, bench_schedule, np.zeros(2))
    t2 = propagate_second(s2, bench_schedule, np.zeros(2))
    diff = np.max(np.abs(t1.x_t - t2.x_t))
    assert diff <= 1e-12
    rng = np.random.default_rng(7)
    for n in (2, 3, 4):
        sm = selection_matrices(n)
        alpha = rng.standard_normal(len(off_pairs(n)) ** 2)
        assert np.max(np.abs(sm.P @ build_E_alpha(alpha, n) @ sm.Q)) == 0.0
    _ok(7, f"equivalent covariances give identical dynamics (max diff {diff:.1e}); "
           "P1 E_alpha Q1 = 0 for random alpha")


def test_criterion_08_tail_decay():
    cfg = ExperimentConfig.from_dict(dict(preset="paper-4.1", input_laws=("uniform",), seed=0))
    rep = run_tail_frequency(cfg)
    for metric, d in rep.summary["metrics"].items():
        assert d["strictly_decreasing"], (metric, d["frequencies_at_eps_star"])
        assert d["log_freq_slope_per_rollout"] is not None
        assert d["log_freq_slope_per_rollout"] < 0.0
    freqs = rep.summary["metrics"]["err_AB_norm"]["frequencies_at_eps_star"]
    _ok(8, f"exceedance frequency strictly decreasing across the grid ({freqs}), "
           "log-frequency slope negative")


def test_criterion_09_bound_envelope(bench_system, bench_schedule, zero_init):
    n_r = 2000
    reps = 200
    errs_ab = np.empty(reps)
    errs_sig = np.empty(reps)
    for r in range(reps):
        res = mals(bench_system, bench_schedule, zero_init, n_r, seed=40_000 + r)
        errs_ab[r] = res.errors["err_AB"]
        errs_sig[r] = res.errors["err_Sigma"]
    ctx = bnd.bound_context(bench_system, bench_schedule, zero_init, n_r)

    def bound(name, ctx, eps):
        return float(bnd.bound_curves(ctx, eps, [name])[name])

    for errs, name in ((errs_ab, "delta_AB"), (errs_sig, "eta")):
        grid = np.geomspace(0.5 * np.median(errs), 8.0 * np.median(errs), 10)
        for eps in grid:
            freq = float(np.mean(errs >= eps))
            assert freq <= min(1.0, bound(name, ctx, float(eps))) + 1e-12
    # monotonicity of every bound function in eps and in n_r
    names = [k for fam in (bnd.delta_family(ctx, 0.3), bnd.eta_family(ctx, 0.3)) for k in fam
             if k not in ("valid_AB", "valid_sigma")]
    eps_grid = np.geomspace(1e-3, 0.9 * ctx.eps_max, 10)
    for name in names:
        vals = [bound(name, ctx, float(e)) for e in eps_grid]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
        nr_vals = [bound(name, ctx.with_rollouts(k), 0.3) for k in (10**3, 10**4, 10**5, 10**6)]
        assert all(a >= b for a, b in zip(nr_vals, nr_vals[1:]))
    _ok(9, f"observed tails stay under min(1, bound) on 10-point grids over {reps} runs; "
           f"all {len(names)} bounds non-increasing on a 10-point eps grid up to 0.9 eps_max "
           f"at n_r = {n_r} and over n_r 1e3-1e6 at eps = 0.3")


def test_criterion_10_baseline_ordering():
    t0 = time.perf_counter()
    cfg = ExperimentConfig.from_dict(
        dict(preset="paper-4.1", reps=20, seed=0, baseline_grid=(100, 1000, 10000))
    )
    rep = run_baseline_comparison(cfg)
    systems = rep.summary["systems"]

    def series(sysname, alg, key):
        pts = systems[sysname][alg]
        return [pts[k][key] for k in sorted(pts, key=int)]

    # (a) no-noise system: all three algorithms converge
    for alg in ("MALS", "RLS", "RLSp"):
        s = series("paper-4.2-rho0.6-nonoise", alg, "median_err_AB")
        assert s[-1] < s[0]
        assert s[-1] < 0.05
    # (b) marginally stable with noise: RLS/RLSp diverge, MALS improves >= 5x
    for alg in ("RLS", "RLSp"):
        assert series("paper-4.2-rho1.0", alg, "diverged_fraction")[-1] >= 0.9
    mals_ab = series("paper-4.2-rho1.0", "MALS", "mean_err_AB")
    assert series("paper-4.2-rho1.0", "MALS", "diverged_fraction") == [0.0, 0.0, 0.0]
    assert mals_ab[-1] <= mals_ab[0] / 5.0
    # (c) rho = 0.8: MALS covariance error decreases, RLS covariance error does not
    mals_sig = series("paper-4.2-rho0.8", "MALS", "median_err_Sigma")
    rls_sig = series("paper-4.2-rho0.8", "RLS", "median_err_Sigma")
    assert all(a > b for a, b in zip(mals_sig, mals_sig[1:]))
    assert rls_sig[-1] >= rls_sig[0]
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _ok(10, f"baseline orderings reproduced with matched sample counts in {elapsed:.0f} s "
            f"(MALS rho=1.0 gain {mals_ab[0] / mals_ab[-1]:.1f}x)")


def test_criterion_11_additive_embedding():
    cfg = ExperimentConfig.from_dict(
        dict(preset="paper-4.1-additive", reps=20, seed=1, input_laws=("gaussian",),
             n_r_grid=(100, 1000, 10000, 100000))
    )
    rep = run_convergence(cfg)
    d = rep.summary["laws"]["gaussian"]
    assert d["monotone_err_AB"] and d["monotone_err_Sigma"]
    assert -0.65 <= d["slope_err_AB"] <= -0.35
    assert -0.65 <= d["slope_err_Sigma"] <= -0.35
    _ok(11, f"additive-noise embedding (ell=6) converges: slopes "
            f"AB={d['slope_err_AB']:.3f}, Sigma={d['slope_err_Sigma']:.3f}")


def test_criterion_12_determinism(tmp_path):
    cfg_dict = dict(preset="paper-4.1", input_laws=("uniform", "deterministic"),
                    n_r_grid=(50, 200), reps=3, seed=99)
    outs = []
    for tag in ("x", "y"):
        cfg = ExperimentConfig.from_dict(cfg_dict)
        out = tmp_path / tag
        run_convergence(cfg).write(out)
        cfg_t = ExperimentConfig.from_dict(
            dict(preset="paper-4.1", input_laws=("uniform",), tail_grid=(50, 100),
                 tail_reps=30, seed=99)
        )
        run_tail_frequency(cfg_t).write(out)
        outs.append(out)
    for name in ("convergence_raw.csv", "convergence_summary.csv", "tail_frequencies.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    _ok(12, "re-runs with identical (config, seed) produce byte-identical CSV output")
