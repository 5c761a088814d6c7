import json
import tracemalloc

import numpy as np
import pytest

from multinoise.mals import (
    attach_errors,
    design_inputs,
    empirical_moments,
    mals,
    simulated_moments,
    solve,
)
from multinoise.moment_oracle import lift, propagate_first, propagate_second
from multinoise import system_model
from multinoise.presets import PRESET_NAMES, get_preset
from multinoise.shape_ops import selection_matrices, vec
from multinoise.system_model import (
    ROLLOUT_LEAF,
    CovarianceNoise,
    FixedInitial,
    InputSchedule,
    RolloutSet,
    SimulationDiverged,
    ZeroNoise,
    make_system,
    simulate_rollouts,
)

from conftest import BENCH_A, BENCH_B, BENCH_SIGMA_A, BENCH_SIGMA_B


# --- input design ---------------------------------------------------------


def test_design_inputs_deterministic_zero_cov():
    sched = design_inputs(1, 4, seed=3, input_law="deterministic")
    assert np.all(sched.ubar == 0)
    assert sched.law == "deterministic"


def test_design_inputs_uniform_means_support():
    sched = design_inputs(3, 50, seed=1)
    assert np.all(sched.nu >= 0.0) and np.all(sched.nu <= 1.0)


def test_design_inputs_wishart_scalar_mean():
    # 1-dim Wishart W(0.1, 1) is 0.1 * chi^2_1: mean 0.1, var 0.02
    sched = design_inputs(1, 100_000, seed=5)
    draws = sched.ubar[:, 0, 0]
    assert np.all(draws >= 0)
    se = np.sqrt(0.02 / len(draws))
    assert abs(draws.mean() - 0.1) <= 3 * se


def test_design_inputs_wishart_matrix_psd():
    sched = design_inputs(3, 200, seed=6)
    for U in sched.ubar:
        assert np.min(np.linalg.eigvalsh(U)) >= -1e-12


def test_design_inputs_rejects_bad_args():
    with pytest.raises(ValueError):
        design_inputs(0, 4)
    # the mean law and the Wishart scale are fixed, no longer keyword options
    with pytest.raises(TypeError):
        design_inputs(1, 4, mean_law="cauchy")
    with pytest.raises(TypeError):
        design_inputs(1, 4, wishart_scale=-1.0)


# --- empirical moments ------------------------------------------------------


def test_single_noiseless_rollout_moments_exact(zero_init):
    s = make_system(BENCH_A, BENCH_B, ZeroNoise())
    sched = design_inputs(1, 4, seed=48, input_law="deterministic")
    rollouts = simulate_rollouts(s, sched, zero_init, 1, seed=0)
    em = empirical_moments(rollouts)
    mu = propagate_first(BENCH_A, BENCH_B, sched, np.zeros(2))
    assert np.allclose(em.mu, mu, atol=1e-14)


def test_mirrored_rollouts_cancel_mean_not_second_moment(bench_schedule):
    x = np.linspace(1.0, 10.0, (bench_schedule.ell + 1) * 2).reshape(-1, 2)
    states = np.stack([x, -x])
    inputs = np.zeros((2, bench_schedule.ell, 1))
    rollouts = RolloutSet(states=states, inputs=inputs, schedule=bench_schedule, seed=0)
    em = empirical_moments(rollouts)
    assert np.all(em.mu == 0)
    assert np.all(np.abs(em.x_t[1:]) > 0)


def test_empirical_mean_within_three_se(bench_system, bench_schedule, zero_init):
    n_r = 100_000
    rollouts = simulate_rollouts(bench_system, bench_schedule, zero_init, n_r, seed=31)
    em = empirical_moments(rollouts)
    mu = propagate_first(BENCH_A, BENCH_B, bench_schedule, np.zeros(2))
    for t in range(bench_schedule.ell + 1):
        se = rollouts.states[:, t, :].std(axis=0, ddof=1) / np.sqrt(n_r)
        assert np.all(np.abs(em.mu[t] - mu[t]) <= 3 * se + 1e-12)


def test_empirical_moments_rejects_empty(bench_schedule):
    rollouts = RolloutSet(
        states=np.zeros((0, 5, 2)), inputs=np.zeros((0, 4, 1)), schedule=bench_schedule, seed=0
    )
    with pytest.raises(ValueError):
        empirical_moments(rollouts)


LEAF = ROLLOUT_LEAF
MOMENT_FIELDS = ("mu", "x_t", "w", "w_p", "u_t", "nu")


@pytest.mark.parametrize("n_r", [1, LEAF - 1, LEAF, LEAF + 1, 3 * LEAF + 5])
def test_streamed_moments_equal_in_memory_moments(bench_system, bench_schedule, n_r):
    init = get_preset("paper-4.1").init
    streamed = simulated_moments(bench_system, bench_schedule, init, n_r, 21)
    in_memory = empirical_moments(simulate_rollouts(bench_system, bench_schedule, init, n_r, 21))
    for name in MOMENT_FIELDS:
        assert np.array_equal(getattr(streamed, name), getattr(in_memory, name)), name
    via_system = mals(bench_system, bench_schedule, init, n_r, seed=21)
    via_set = mals(simulate_rollouts(bench_system, bench_schedule, init, n_r, 21), truth=bench_system)
    assert np.array_equal(via_system.nominal(), via_set.nominal())
    assert np.array_equal(via_system.covariance(), via_set.covariance())
    assert via_system.diagnostics == via_set.diagnostics


@pytest.mark.parametrize("n_r", [1, 100, LEAF])
def test_single_leaf_moments_equal_whole_array_formulas(bench_system, bench_schedule, zero_init, n_r):
    # one leaf is one sum over the rollout axis and one product per step, as
    # before the leaves existed; this keeps every output at n_r <= LEAF unchanged
    rollouts = simulate_rollouts(bench_system, bench_schedule, zero_init, n_r, 5)
    em = empirical_moments(rollouts)
    assert np.array_equal(em.mu, rollouts.states.mean(axis=0))
    kept = selection_matrices(2).kept
    for t in range(bench_schedule.ell + 1):
        xt = rollouts.states[:, t, :]
        second = xt.T @ xt / n_r
        assert np.array_equal(em.x_t[t], vec(0.5 * (second + second.T))[kept])


def test_mals_memory_does_not_grow_with_rollouts():
    b = get_preset("paper-4.1")
    mals(b.system, b.schedule, b.init, 10, seed=0)  # first-call allocations
    peaks = {}
    for n_r in (4 * LEAF, 32 * LEAF):
        tracemalloc.start()
        try:
            mals(b.system, b.schedule, b.init, n_r, seed=3)
            peaks[n_r] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # the state array alone would take 80 B per rollout (ell + 1 = 5 steps of n = 2)
    assert peaks[32 * LEAF] < 2 * peaks[4 * LEAF], peaks


# --- the two least-squares solves -------------------------------------------


def test_oracle_moments_recover_exactly(bench_system, bench_schedule):
    tr = propagate_second(bench_system, bench_schedule, np.zeros(2))
    res = solve(tr)
    assert np.linalg.norm(res.nominal() - np.hstack([BENCH_A, BENCH_B]), 2) <= 1e-10
    assert not res.diagnostics["used_pinv_z"]
    ld = lift(bench_system)
    err = np.linalg.norm(res.covariance() - np.hstack([ld.sigma_a_tilde, ld.sigma_b_tilde]), 2)
    assert err <= 1e-10
    assert not res.diagnostics["used_pinv_d"]


def test_zero_noise_any_nr_exact_recovery(zero_init):
    # deterministic inputs: noiseless rollouts equal their means, so the
    # averaged moments are exact and both solves recover the truth
    s = make_system(BENCH_A, BENCH_B, ZeroNoise())
    sched = design_inputs(1, 4, seed=48, input_law="deterministic")
    from multinoise.moment_oracle import assemble_population, check_excitation

    reg, _ = assemble_population(s, sched, np.zeros(2))
    assert check_excitation(reg, 2, 1).pass_d
    for n_r in (1, 3):
        res = mals(s, sched, zero_init, n_r, seed=2)
        assert res.errors["err_AB"] <= 1e-9
        assert res.errors["err_Sigma"] <= 1e-8


def test_zero_noise_covariance_estimate_shrinks(zero_init):
    # with stochastic inputs the only estimation noise is input sampling;
    # the covariance estimate still tends to zero as rollouts accumulate
    s = make_system(BENCH_A, BENCH_B, ZeroNoise())
    sched = design_inputs(1, 4, seed=48)
    med = {}
    for n_r in (1000, 100_000):
        runs = [mals(s, sched, zero_init, n_r, seed=300 + r).errors["err_Sigma"] for r in range(5)]
        med[n_r] = np.median(runs)
    assert med[100_000] < med[1000]
    assert med[100_000] <= 0.1


def test_benchmark_relative_error_at_1e5(bench_system, bench_schedule, zero_init):
    res = mals(bench_system, bench_schedule, zero_init, 100_000, seed=90000)
    assert res.errors["err_Sigma_norm"] <= 0.15
    assert res.errors["err_AB_norm"] <= 0.05


def test_error_shrinks_by_roughly_sqrt_nr(bench_system, bench_schedule, zero_init):
    errs = {}
    for n_r in (100, 10_000):
        runs = [
            mals(bench_system, bench_schedule, zero_init, n_r, seed=500 + r).errors["err_AB"]
            for r in range(8)
        ]
        errs[n_r] = np.median(runs)
    ratio = errs[100] / errs[10_000]
    assert 3.0 <= ratio <= 35.0  # nominal rate sqrt(100) = 10


def test_rollout_ingestion_bitwise_identical(bench_system, bench_schedule, zero_init):
    rollouts = simulate_rollouts(bench_system, bench_schedule, zero_init, 500, seed=7)
    direct = mals(bench_system, bench_schedule, zero_init, 500, seed=7)
    via_set = mals(rollouts, truth=bench_system)
    assert np.array_equal(direct.A_hat, via_set.A_hat)
    assert np.array_equal(direct.sigma_a_tilde_hat, via_set.sigma_a_tilde_hat)
    via_json = mals(RolloutSet.from_json(rollouts.to_json()), truth=bench_system)
    assert np.array_equal(direct.A_hat, via_json.A_hat)
    assert np.array_equal(direct.sigma_b_tilde_hat, via_json.sigma_b_tilde_hat)


def test_rollout_permutation_invariance(bench_system, bench_schedule, zero_init):
    rollouts = simulate_rollouts(bench_system, bench_schedule, zero_init, 400, seed=8)
    perm = np.random.default_rng(0).permutation(400)
    shuffled = RolloutSet(
        states=rollouts.states[perm],
        inputs=rollouts.inputs[perm],
        schedule=rollouts.schedule,
        seed=rollouts.seed,
    )
    a = mals(rollouts, truth=bench_system)
    b = mals(shuffled, truth=bench_system)
    assert np.allclose(a.nominal(), b.nominal(), atol=1e-12)
    assert np.allclose(a.covariance(), b.covariance(), atol=1e-10)


def test_pseudoinverse_fallback_recorded():
    s = make_system(BENCH_A, BENCH_B, CovarianceNoise(BENCH_SIGMA_A, BENCH_SIGMA_B))
    sched = InputSchedule(nu=np.zeros((4, 1)), ubar=np.zeros((4, 1, 1)), law="deterministic")
    res = mals(s, sched, FixedInitial(np.zeros(2)), 50, seed=1)
    assert res.diagnostics["used_pinv_z"]
    assert res.diagnostics["used_pinv_d"]
    assert res.diagnostics["lambda_min_zz"] <= 1e-10 * max(res.diagnostics["lambda_max_zz"], 0.0)
    assert np.all(np.isfinite(res.nominal()))


def test_estimation_result_json(bench_system, bench_schedule, zero_init):
    res = mals(bench_system, bench_schedule, zero_init, 200, seed=4)
    d = json.loads(res.to_json())
    assert set(d) == {
        "A_hat",
        "B_hat",
        "SigmaA_tilde_hat",
        "SigmaB_tilde_hat",
        "diagnostics",
        "errors",
    }
    assert np.array(d["A_hat"]).shape == (2, 2)
    assert np.array(d["SigmaA_tilde_hat"]).shape == (3, 3)
    assert "lambda_min_zz" in d["diagnostics"]


# --- stacked repetitions ----------------------------------------------------

# repetition counts that do not divide ROLLOUT_LEAF; at n_r = 100 the 83
# repetitions fill one block of 81 and start a second one
STACK_REPS = {1: 5, 2: 7, 100: 83, LEAF: 3, LEAF + 1: 2}


@pytest.mark.parametrize("law", ["gaussian", "uniform", "deterministic"])
@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_stacked_repetitions_equal_one_call_per_seed(preset, law):
    b = get_preset(preset).with_input_law(law)
    for n_r, reps in STACK_REPS.items():
        seeds = np.arange(reps, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15) + np.uint64(n_r)
        stacked_moments = simulated_moments(b.system, b.schedule, b.init, n_r, seeds)
        stacked = attach_errors(solve(stacked_moments), b.system)
        for r, seed in enumerate(seeds.tolist()):
            one = mals(b.system, b.schedule, b.init, n_r, seed=seed)
            moments = simulated_moments(b.system, b.schedule, b.init, n_r, seed)
            for name in ("mu", "x_t", "w", "w_p"):
                assert np.array_equal(getattr(stacked_moments, name)[r], getattr(moments, name)), (n_r, r, name)
            for name in ("A_hat", "B_hat", "sigma_a_tilde_hat", "sigma_b_tilde_hat"):
                assert np.array_equal(getattr(stacked, name)[r], getattr(one, name)), (n_r, r, name)
            for group in ("diagnostics", "errors"):
                for key, got in getattr(stacked, group).items():
                    assert np.array_equal(got[r], getattr(one, group)[key]), (n_r, r, key)


def test_stacked_blocks_stay_within_the_leaf(monkeypatch):
    rows = []
    simulate = system_model._run_trajectories

    def spy(system, law, init, ks, T, seed, ws):
        rows.append(len(ks))
        return simulate(system, law, init, ks, T, seed, ws)

    monkeypatch.setattr(system_model, "_run_trajectories", spy)
    b = get_preset("paper-4.1")
    for workers in (1, 2):
        monkeypatch.setattr(system_model, "_usable_cpus", lambda: workers)
        for n_r, reps, blocks in ((100, 83, [8100, 200]), (LEAF, 3, [LEAF] * 3),
                                  (LEAF + 1, 2, [LEAF, 1, 2, LEAF, 1, 2]), (3000, 5, [6000, 6000, 3000]), (1, 3, [3])):
            rows.clear()
            simulated_moments(b.system, b.schedule, b.init, n_r, np.arange(reps))
            # a lone rollout is run as two rows, which the spy sees as a second
            # call; two workers make the same calls, in any order
            assert sorted(rows) == sorted(blocks) and max(rows) <= LEAF, (n_r, rows)
            assert workers == 2 or rows == blocks, (n_r, rows)


def test_stacked_divergence_names_the_first_failing_repetition():
    s = make_system([[1.25]], [[1.0]], CovarianceNoise([[1.0]], [[0.0]], law="gaussian"))
    sched, init = design_inputs(1, 150, seed=0), FixedInitial([1.0])
    seeds = [3, 4, 9, 6, 7]
    messages = []
    for seed in seeds:
        try:
            mals(s, sched, init, 40, seed=seed)
        except SimulationDiverged as exc:
            messages.append(str(exc))
        else:
            messages.append(None)
    # the first failing repetition is not the first one, and a later one diverges at an earlier step
    assert messages[:2] == [None, None] and messages[2] is not None and messages[3] is not None
    assert messages[3] != messages[2]
    with pytest.raises(SimulationDiverged) as exc:
        simulated_moments(s, sched, init, 40, np.array(seeds))
    assert str(exc.value) == messages[2]


def test_errors_against_a_truth_of_another_shape_are_rejected():
    b, other = get_preset("paper-4.2-rho0.8"), get_preset("paper-4.1-additive").system
    rollouts = simulate_rollouts(b.system, b.schedule, b.init, 20, seed=3)
    message = r"^estimate has \(n, m\) = \(2, 1\) but the truth has \(n, m\) = \(2, 2\)$"
    with pytest.raises(ValueError, match=message):
        attach_errors(solve(empirical_moments(rollouts)), other)
    with pytest.raises(ValueError, match=message):
        mals(rollouts, truth=other)
