import copy
import json
import re
import sys
import textwrap
import threading
import time
import warnings

import numpy as np
import pytest

from multinoise import system_model
from multinoise.baselines import simulate_single_trajectories
from multinoise.moment_oracle import propagate_first, propagate_second
from multinoise.shape_ops import svec, vec
from multinoise.system_model import (
    ROLLOUT_LEAF,
    CovarianceNoise,
    EigenStructuredNoise,
    FixedInitial,
    InputError,
    InputSchedule,
    RolloutSet,
    SimulationDiverged,
    TruncatedGaussianInitial,
    UniformBoxInitial,
    ZeroNoise,
    augment_schedule,
    embed_additive_noise,
    iter_rollout_blocks,
    make_system,
    simulate_rollouts,
    simulate_trajectories,
)
from multinoise.mals import design_inputs, mals, simulated_moments
from multinoise.presets import PRESET_NAMES, get_preset

from conftest import (
    BENCH_A,
    BENCH_B,
    BENCH_SIGMA_A,
    BENCH_SIGMA_B,
    assert_same_rollouts,
    run_fresh,
    standard_normal_inputs,
)


def test_make_system_benchmark(bench_system):
    assert bench_system.n == 2 and bench_system.m == 1
    assert np.array_equal(bench_system.sigma_a, BENCH_SIGMA_A)
    assert bench_system.c_abar is not None


def test_make_system_zero_noise():
    s = make_system(BENCH_A, BENCH_B, ZeroNoise())
    assert np.all(s.sigma_a == 0) and np.all(s.sigma_b == 0)
    assert s.c_abar == 0.0


def test_make_system_rejects_non_psd():
    bad = BENCH_SIGMA_A.copy()
    bad[0, 0] = -1.0
    with pytest.raises(ValueError, match="positive semidefinite"):
        make_system(BENCH_A, BENCH_B, CovarianceNoise(bad, BENCH_SIGMA_B))


def test_make_system_rejects_wide_B():
    with pytest.raises(ValueError, match="m <= n"):
        make_system(np.eye(2), np.ones((2, 3)), ZeroNoise())


def _with(a, index, value):
    a = np.array(a, dtype=float)
    a[index] = value
    return a


_BOUNDED = CovarianceNoise(BENCH_SIGMA_A, BENCH_SIGMA_B)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: CovarianceNoise(_with(BENCH_SIGMA_A, (0, 1), np.nan), BENCH_SIGMA_B), "SigmaA[0, 1]"),
        (lambda: CovarianceNoise(BENCH_SIGMA_A, _with(BENCH_SIGMA_B, (1, 0), -np.inf)), "SigmaB[1, 0]"),
        (lambda: InputSchedule(nu=np.zeros((3, 1)), ubar=_with(np.ones((3, 1, 1)), 2, np.inf)), "Ubar[2, 0, 0]"),
        (lambda: InputSchedule(nu=_with(np.zeros((3, 1)), 1, np.nan), ubar=np.ones((3, 1, 1))), "nu[1, 0]"),
        (lambda: TruncatedGaussianInitial([0.0, 0.0], _with(np.eye(2), (1, 1), np.nan)), "initial covariance[1, 1]"),
        (lambda: embed_additive_noise(make_system(BENCH_A, BENCH_B, _BOUNDED), _with(np.eye(2), (0, 0), np.inf)), "sigma_w[0, 0]"),
        (lambda: make_system(_with(BENCH_A, (1, 0), np.nan), BENCH_B, _BOUNDED), "A[1, 0]"),
        (lambda: make_system(BENCH_A, _with(BENCH_B, (1, 0), np.inf), _BOUNDED), "B[1, 0]"),
        (lambda: InputSchedule(nu=np.zeros((2, 1)), ubar=np.full((2, 1, 1), np.nan), law="deterministic"),
         "Ubar[0, 0, 0]"),
        (lambda: FixedInitial([np.nan, 0.0]), "x0[0]"),
        (lambda: UniformBoxInitial([0.0, -np.inf], [1.0, 1.0]), "center[1]"),
        (lambda: UniformBoxInitial([0.0, 0.0], [np.inf, 1.0]), "half_width[0]"),
        (lambda: TruncatedGaussianInitial([np.nan, 0.0], np.eye(2)), "mean[0]"),
        (lambda: TruncatedGaussianInitial([0.0, 0.0], np.eye(2), radius=np.inf), "radius"),
        (lambda: TruncatedGaussianInitial([0.0, 0.0], np.eye(2), radius=np.nan), "radius"),
        (lambda: EigenStructuredNoise([np.eye(2)], [np.nan], [], []), "sigmas[0]"),
        (lambda: EigenStructuredNoise([], [], [np.ones((2, 1))] * 2, [0.1, np.inf]), "deltas[1]"),
        (lambda: EigenStructuredNoise([np.eye(2), _with(np.eye(2), (1, 0), np.nan)], [0.1, 0.2], [], []),
         "a_dirs[1][1, 0]"),
        (lambda: EigenStructuredNoise([], [], [_with(np.ones((2, 1)), (0, 0), -np.inf)], [0.1]), "b_dirs[0][0, 0]"),
    ],
    ids=["SigmaA", "SigmaB", "Ubar", "nu", "initial-covariance", "sigma_w", "A", "B", "deterministic-Ubar",
         "fixed-x0", "box-center", "box-half-width", "truncated-mean", "truncated-radius-inf",
         "truncated-radius-nan", "eigen-sigmas", "eigen-deltas", "eigen-a-direction", "eigen-b-direction"],
)
def test_a_non_finite_model_input_fails_where_it_enters(build, message):
    with pytest.raises(ValueError, match=re.escape(message) + " is not finite$"):
        build()


def test_an_initial_law_of_another_dimension_is_rejected():
    bundle = get_preset("paper-4.1")
    assert bundle.system.n == 2
    with pytest.raises(ValueError, match="^initial state dim 3 != system n 2$"):
        mals(bundle.system, bundle.schedule, FixedInitial(np.zeros(3)), 10)
    with pytest.raises(ValueError, match="^initial state dim 1 != system n 2$"):
        simulate_rollouts(bundle.system, bundle.schedule, FixedInitial(np.zeros(1)), 10, seed=0)


def test_eigen_structured_implied_covariance():
    A1 = np.zeros((2, 2))
    A1[0, 0] = 1.0  # e1 e1'
    noise = EigenStructuredNoise([A1], [np.sqrt(0.1)], [], [], law="uniform")
    s = make_system(BENCH_A, BENCH_B, noise)
    expected = 0.1 * np.outer(vec(A1), vec(A1))
    assert np.allclose(s.sigma_a, expected, atol=1e-15)
    assert np.all(s.sigma_b == 0)


def test_eigen_structured_sampling_covariance():
    A1 = np.array([[1.0, 0.0], [0.5, -1.0]])
    B1 = np.array([[1.0], [2.0]])
    noise = EigenStructuredNoise([A1], [0.3], [B1], [0.2], law="uniform")
    s = make_system(BENCH_A, BENCH_B, noise)
    Abar, Bbar = noise.sample(3, np.arange(200_000), 0, 2, 1)
    va = Abar.transpose(0, 2, 1).reshape(len(Abar), -1)  # vec per sample
    emp_cov = va.T @ va / len(va)
    assert np.allclose(emp_cov, s.sigma_a, atol=5e-3)


def test_zero_noise_rollouts_equal_deterministic_recursion(zero_init):
    s = make_system(BENCH_A, BENCH_B, ZeroNoise())
    sched = design_inputs(1, 4, seed=48, input_law="deterministic")
    rollouts = simulate_rollouts(s, sched, zero_init, 5, seed=1)
    mu = propagate_first(BENCH_A, BENCH_B, sched, np.zeros(2))
    for k in range(5):
        assert np.allclose(rollouts.states[k], mu, atol=1e-14)
    assert np.ptp(rollouts.states, axis=0).max() == 0.0  # all rollouts identical


def test_reproducibility_bitwise(bench_system, bench_schedule, zero_init):
    a = simulate_rollouts(bench_system, bench_schedule, zero_init, 64, seed=9)
    b = simulate_rollouts(bench_system, bench_schedule, zero_init, 64, seed=9)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.inputs, b.inputs)


def test_rollout_subset_stability(bench_system, bench_schedule, zero_init):
    big = simulate_rollouts(bench_system, bench_schedule, zero_init, 40, seed=9)
    small = simulate_rollouts(bench_system, bench_schedule, zero_init, 7, seed=9)
    assert np.array_equal(big.states[:7], small.states)
    assert np.array_equal(big.inputs[:7], small.inputs)


def test_simulate_rollouts_rejects_a_seed_vector(bench_system, bench_schedule, zero_init):
    # the repetitions of a seed vector would overwrite one another's rows of one array
    with pytest.raises(ValueError, match="one scalar seed"):
        simulate_rollouts(bench_system, bench_schedule, zero_init, 5, seed=[1, 2])


@pytest.mark.parametrize("k", [ROLLOUT_LEAF - 1, ROLLOUT_LEAF + 1, ROLLOUT_LEAF + 3])
def test_rollouts_do_not_depend_on_their_block(bench_system, bench_schedule, k):
    init = UniformBoxInitial([0.5, -0.5], [1.0, 2.0])  # a drawn x_0, unlike zero_init
    big = simulate_rollouts(bench_system, bench_schedule, init, 2 * ROLLOUT_LEAF + 7, seed=9)
    small = simulate_rollouts(bench_system, bench_schedule, init, k, seed=9)
    assert np.array_equal(big.states[:k], small.states)
    assert np.array_equal(big.inputs[:k], small.inputs)


@pytest.mark.parametrize("noise_law", ["uniform", "gaussian"])
@pytest.mark.parametrize(
    "init",
    [
        FixedInitial(np.zeros(2)),
        UniformBoxInitial([0.5, -0.5], [1.0, 2.0]),
        TruncatedGaussianInitial([0.3, -0.1], np.array([[0.5, 0.2], [0.2, 0.4]])),
    ],
    ids=["fixed", "box", "truncated-gaussian"],
)
def test_every_rollout_prefix_equals_the_larger_set(noise_law, init):
    # a lone rollout takes the same matrix products as a batch, so even k = 1 keeps its bits
    b = get_preset("paper-4.1", noise_law=noise_law)
    for seed in range(8):
        full = simulate_rollouts(b.system, b.schedule, init, 5, seed=seed)
        for k in (1, 2, 3):
            part = simulate_rollouts(b.system, b.schedule, init, k, seed=seed)
            assert np.array_equal(part.states, full.states[:k]), (seed, k)
            assert np.array_equal(part.inputs, full.inputs[:k]), (seed, k)


def test_mean_matches_first_moment_oracle(bench_system, bench_schedule, zero_init):
    n_r = 100_000
    rollouts = simulate_rollouts(bench_system, bench_schedule, zero_init, n_r, seed=12)
    mu = propagate_first(BENCH_A, BENCH_B, bench_schedule, np.zeros(2))
    for t in range(bench_schedule.ell + 1):
        se = rollouts.states[:, t, :].std(axis=0, ddof=1) / np.sqrt(n_r)
        diff = np.abs(rollouts.states[:, t, :].mean(axis=0) - mu[t])
        assert np.all(diff <= 3.0 * se + 1e-12)


def test_second_moment_matches_oracle(bench_system, bench_schedule, zero_init):
    n_r = 100_000
    rollouts = simulate_rollouts(bench_system, bench_schedule, zero_init, n_r, seed=12)
    tr = propagate_second(bench_system, bench_schedule, np.zeros(2))
    t = 2
    emp = rollouts.states[:, t, :].T @ rollouts.states[:, t, :] / n_r
    emp_red = svec(emp)
    rel = np.linalg.norm(emp_red - tr.x_t[t]) / np.linalg.norm(tr.x_t[t])
    assert rel <= 0.02


def test_sampled_noise_respects_declared_bound(bench_system):
    Abar, Bbar = bench_system.noise.sample(5, np.arange(5000), 1, 2, 1)
    spec_a = np.linalg.norm(Abar, ord=2, axis=(1, 2))
    spec_b = np.linalg.norm(Bbar, ord=2, axis=(1, 2))
    assert spec_a.max() <= bench_system.c_abar + 1e-9
    assert spec_b.max() <= bench_system.c_bbar + 1e-9


def test_eigen_structured_draws_within_spectral_bound_pass_the_check():
    # Abar_t = p_t I: the spectral norm |p_t| stays within c_abar = sqrt(3) 0.2,
    # while the Frobenius norm sqrt(3) |p_t| exceeds it for most draws
    noise = EigenStructuredNoise([np.eye(3)], [0.2], [], [])
    s = make_system(0.5 * np.eye(3), np.ones((3, 1)), noise)
    Abar, _ = noise.sample(2, np.arange(100), 0, 3, 1)
    assert np.linalg.norm(Abar, "fro", axis=(1, 2)).max() > s.c_abar
    sched = InputSchedule(nu=np.ones((4, 1)), ubar=np.ones((4, 1, 1)))
    rollouts = simulate_rollouts(s, sched, FixedInitial(np.zeros(3)), 100, seed=2)
    assert np.isfinite(rollouts.states).all()


def test_gaussian_noise_has_no_declared_bound():
    s = make_system(BENCH_A, BENCH_B, CovarianceNoise(BENCH_SIGMA_A, BENCH_SIGMA_B, law="gaussian"))
    assert s.c_abar is None
    with pytest.raises(ValueError, match="bound"):
        s.require_bounded()


def test_simulation_divergence_guard():
    s = make_system(1e6 * np.eye(2), BENCH_B, ZeroNoise())
    sched = InputSchedule(nu=np.ones((4, 1)), ubar=np.zeros((4, 1, 1)), law="deterministic")
    with pytest.raises(SimulationDiverged, match="exceeded"):
        simulate_rollouts(s, sched, FixedInitial(np.ones(2)), 3, seed=0)


class _ZeroThenOnes:
    """Initial states 0 for rollouts below ``first``, ones from it on."""

    mean = np.zeros(2)  # only its size is read, by the dimension check

    def __init__(self, first):
        self.first = first

    def sample(self, seed, ks):
        return np.repeat((np.asarray(ks) >= self.first)[:, None], 2, axis=1).astype(float)


def test_simulation_divergence_names_global_rollout_past_first_block():
    s = make_system(1e6 * np.eye(2), BENCH_B, ZeroNoise())
    sched = InputSchedule(nu=np.zeros((4, 1)), ubar=np.zeros((4, 1, 1)), law="deterministic")
    n_r = 2 * ROLLOUT_LEAF
    # only rollouts from ROLLOUT_LEAF + 3 on grow, as 1e6^t, past 1e12 at t = 3
    with pytest.raises(SimulationDiverged, match=rf"at t=3, rollout {ROLLOUT_LEAF + 3}$"):
        simulate_rollouts(s, sched, _ZeroThenOnes(ROLLOUT_LEAF + 3), n_r, seed=0)


def test_diverged_trajectories_raise_no_floating_point_warning():
    # diverged rows run on past overflow until every row has diverged, their states overwritten by NaN
    s = make_system(1e6 * np.eye(2), BENCH_B, ZeroNoise())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        states, inputs, diverged_at = simulate_single_trajectories(s, standard_normal_inputs(1), 600, 3, seed=0)
    assert (diverged_at <= 600).all()
    for r, d in enumerate(diverged_at):
        assert np.isfinite(states[r, :d]).all() and np.isnan(states[r, d:]).all()
        assert np.isfinite(inputs[r, :d]).all() and np.isnan(inputs[r, d:]).all()


_ZERO_SCHEDULE = InputSchedule(nu=np.zeros((4, 1)), ubar=np.zeros((4, 1, 1)), law="deterministic")


@pytest.mark.parametrize("chunk", [1, 2, 3, 256])
def test_a_state_that_leaves_the_limit_and_comes_back_stays_frozen(monkeypatch, chunk):
    # x_1 = [1e13, 0] is beyond the limit and x_2 = [0, 1] is back within it:
    # the last state of a chunk does not show the exit
    s = make_system(np.array([[0.0, 1e13], [1e-13, 0.0]]), np.zeros((2, 1)), ZeroNoise())
    init = FixedInitial([0.0, 1.0])
    monkeypatch.setattr(system_model, "TIME_CHUNK", chunk)
    states, inputs, diverged_at = simulate_trajectories(s, _ZERO_SCHEDULE, init, np.arange(2), 8, seed=0)
    assert diverged_at.tolist() == [1, 1]
    assert (states[:, 0] == [0.0, 1.0]).all() and np.isnan(states[:, 1:]).all()
    assert (inputs[:, 0] == 0.0).all() and np.isnan(inputs[:, 1:]).all()
    with pytest.raises(SimulationDiverged, match=r"at t=1, rollout 0$"):
        simulate_rollouts(s, _ZERO_SCHEDULE, init, 1, seed=0)


@pytest.mark.parametrize("chunk", [1, 2, 3, 256])
def test_a_frozen_trajectory_keeps_its_first_exit_while_others_run_on(monkeypatch, chunk):
    # rollout 1 grows as 1e6^t, past the limit at t = 3, and runs on past
    # overflow while rollout 0 stays at 0 to the horizon
    s = make_system(1e6 * np.eye(2), np.zeros((2, 1)), ZeroNoise())
    monkeypatch.setattr(system_model, "TIME_CHUNK", chunk)
    states, inputs, diverged_at = simulate_trajectories(s, _ZERO_SCHEDULE, _ZeroThenOnes(1), np.arange(2), 10, seed=0)
    assert diverged_at.tolist() == [11, 3]
    assert (states[0] == 0).all() and (inputs[0] == 0).all()
    assert np.array_equal(states[1, :, 0], [1.0, 1e6, 1e12] + [np.nan] * 8, equal_nan=True)
    assert np.array_equal(inputs[1, :, 0], [0.0] * 3 + [np.nan] * 7, equal_nan=True)


# --- additive-noise embedding -------------------------------------------------


def test_embed_zero_noise_is_equivalent(zero_init):
    base = make_system(BENCH_A, BENCH_B, CovarianceNoise(BENCH_SIGMA_A, BENCH_SIGMA_B))
    emb = embed_additive_noise(base, np.zeros((2, 2)))
    assert emb.m == 2
    assert np.array_equal(emb.B, np.hstack([BENCH_B, np.zeros((2, 1))]))
    sched = design_inputs(1, 3, seed=2)
    aug = augment_schedule(sched)
    assert np.all(aug.nu[:, -1] == 1.0)
    r_base = simulate_rollouts(base, sched, zero_init, 50, seed=3)
    r_emb = simulate_rollouts(emb, aug, zero_init, 50, seed=3)
    # same noise covariance block, zero w-block: identical state laws
    assert np.allclose(r_emb.inputs[:, :, -1], 1.0, atol=0)
    assert r_base.states.shape == r_emb.states.shape


def test_embedded_length_requirement():
    from multinoise.moment_oracle import check_excitation, assemble_population

    base = make_system(BENCH_A, BENCH_B, CovarianceNoise(BENCH_SIGMA_A, BENCH_SIGMA_B))
    emb = embed_additive_noise(base, 0.1 * np.eye(2))
    aug = augment_schedule(design_inputs(1, 6, seed=18))
    reg, _ = assemble_population(emb, aug, np.zeros(2))
    rep = check_excitation(reg, emb.n, emb.m)
    assert rep.ell_needed_d == 6  # m -> 2 raises the required length to 6
    assert rep.pass_d


def test_embedded_one_step_second_moment_matches_sigma_w():
    sigma_w = np.array([[0.3, 0.1], [0.1, 0.2]])
    base = make_system(BENCH_A, BENCH_B, ZeroNoise())
    emb = embed_additive_noise(base, sigma_w, law="uniform")
    sched = InputSchedule(nu=np.array([[0.0, 1.0]]), ubar=np.zeros((1, 2, 2)), law="deterministic")
    rollouts = simulate_rollouts(emb, sched, FixedInitial(np.zeros(2)), 100_000, seed=4)
    x1 = rollouts.states[:, 1, :]
    emp = x1.T @ x1 / len(x1)
    assert np.linalg.norm(emp - sigma_w, "fro") / np.linalg.norm(sigma_w, "fro") <= 0.03


def test_embed_rejects_non_psd_sigma_w():
    base = make_system(BENCH_A, BENCH_B, ZeroNoise())
    with pytest.raises(ValueError):
        embed_additive_noise(base, np.array([[1.0, 0.0], [0.0, -0.5]]))


# --- initial-state distributions ---------------------------------------------


def test_uniform_box_moments():
    init = UniformBoxInitial([1.0, -2.0], [0.5, 1.0])
    xs = init.sample(7, np.arange(200_000))
    assert np.allclose(xs.mean(axis=0), init.mean, atol=0.01)
    emp = xs.T @ xs / len(xs)
    assert np.allclose(emp, init.second_moment, atol=0.02)
    assert np.all(np.abs(xs - init.mean) <= np.array([0.5, 1.0]) + 1e-12)


def test_truncated_gaussian_moments():
    cov = np.array([[0.5, 0.2], [0.2, 0.4]])
    init = TruncatedGaussianInitial([0.3, -0.1], cov, radius=2.5)
    xs = init.sample(8, np.arange(200_000))
    assert np.allclose(xs.mean(axis=0), init.mean, atol=0.01)
    emp = xs.T @ xs / len(xs)
    assert np.allclose(emp, init.second_moment, atol=0.02)
    c_x, c_mu, _ = init.bounds()
    assert np.all(np.linalg.norm(xs, axis=1) <= c_x + 1e-9)


def test_truncated_gaussian_variance_equals_scipy():
    from scipy.stats import truncnorm

    for r in np.linspace(0.5, 8.0, 151):
        init = TruncatedGaussianInitial([0.0], [[1.0]], radius=r)
        assert init.second_moment[0, 0] == pytest.approx(truncnorm.var(-r, r), rel=1e-14, abs=0), r


# --- schedules and serialization ----------------------------------------------


def test_deterministic_schedule_rejects_nonzero_cov():
    with pytest.raises(ValueError, match="deterministic"):
        InputSchedule(nu=np.ones((2, 1)), ubar=np.full((2, 1, 1), 0.1), law="deterministic")


def test_truncated_gaussian_rejects_mismatched_covariance():
    with pytest.raises(ValueError, match="initial covariance must be 2 x 2"):
        TruncatedGaussianInitial([0.3, -0.1], np.eye(3))


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_schedule_factors_equal_per_matrix_factors(m):
    ubar = design_inputs(m, 2000, seed=m).ubar
    sched = InputSchedule(nu=np.zeros((2000, m)), ubar=ubar)
    for t, U in enumerate(ubar):
        w, V = np.linalg.eigh(0.5 * (U + U.T))
        assert np.array_equal(sched._factors[t], V * np.sqrt(np.clip(w, 0.0, None))), t
    c_nu = max(float(np.linalg.norm(M, 2)) * np.sqrt(3.0) * np.sqrt(m) for M in sched._factors)
    assert sched.deviation_bounds()[1] == c_nu


def test_schedule_names_its_first_non_psd_covariance():
    ubar = np.full((5, 1, 1), 0.1)
    ubar[[2, 4]] = -1.0
    with pytest.raises(ValueError, match=r"^Ubar\[2\] is not positive semidefinite"):
        InputSchedule(nu=np.zeros((5, 1)), ubar=ubar)


def test_schedule_deviation_bounds():
    sched = design_inputs(1, 4, seed=48)
    c_u, c_nu = sched.deviation_bounds()
    draws = np.vstack([sched.sample(3, np.arange(2000), t) for t in range(4)])
    assert np.max(np.linalg.norm(draws, axis=1)) <= c_u + 1e-9
    gsched = design_inputs(1, 4, seed=48, input_law="gaussian")
    assert gsched.deviation_bounds() == (None, None)


def test_rollout_set_json_roundtrip(bench_system, bench_schedule, zero_init):
    rollouts = simulate_rollouts(bench_system, bench_schedule, zero_init, 10, seed=5)
    text = rollouts.to_json()
    back = RolloutSet.from_json(text)
    assert np.array_equal(back.states, rollouts.states)
    assert np.array_equal(back.inputs, rollouts.inputs)
    assert back.seed == rollouts.seed
    d = json.loads(text)
    assert set(d) == {"n", "m", "ell", "n_r", "seed", "schedule", "rollouts"}
    assert len(d["rollouts"]) == 10
    assert set(d["rollouts"][0]) == {"x", "u"}


@pytest.mark.parametrize(
    "noise",
    [
        ZeroNoise(),
        CovarianceNoise(BENCH_SIGMA_A, BENCH_SIGMA_B),
        CovarianceNoise(BENCH_SIGMA_A, BENCH_SIGMA_B, law="gaussian"),
        EigenStructuredNoise([np.eye(2), np.diag([1.0, -1.0])], [0.3, 0.1], [BENCH_B], [0.2]),
    ],
)
def test_noise_sample_time_array_equals_stacked_steps(noise):
    ks, ts = np.arange(5), np.arange(9)
    whole = noise.sample(7, ks, ts, 2, 1)
    for got, shape in zip(whole, ((9, 5, 2, 2), (9, 5, 2, 1))):
        assert got.shape == shape
    for t in ts:
        step = noise.sample(7, ks, int(t), 2, 1)
        assert np.array_equal(whole[0][t], step[0]) and np.array_equal(whole[1][t], step[1])


@pytest.mark.parametrize("law", ["uniform", "gaussian", "deterministic"])
def test_schedule_inputs_time_array_is_periodic_and_equals_stacked_steps(law):
    sched = design_inputs(2, 3, seed=5, input_law=law)
    ks, ts = np.arange(4), np.arange(8)
    whole = sched.sample(11, ks, ts)
    assert whole.shape == (8, 4, 2)
    for t in ts:
        assert np.array_equal(whole[t], sched.sample(11, ks, int(t)))
    if law == "deterministic":
        assert np.array_equal(whole[5], np.tile(sched.nu[2], (4, 1)))


def _nan_state(d):
    d["rollouts"][1]["x"][2][0] = float("nan")


def _inf_input(d):
    d["rollouts"][2]["u"][0][0] = float("inf")


def _wide_inputs(d):  # inputs (3, 3, 2) where ell = 4, m = 1 needs (3, 4, 1)
    for r in d["rollouts"]:
        r["u"] = [[0.0, 0.0]] * 3


def _short_rollout(d):
    d["rollouts"][2]["x"].pop()


def _ragged_rollout(d):
    d["rollouts"][1]["x"][3].append(0.0)


def _missing_rollout(d):
    d["rollouts"].pop()


@pytest.mark.parametrize(
    "edit, message",
    [
        (_nan_state, "rollout 1: states hold a non-finite value"),
        (_inf_input, "rollout 2: inputs hold a non-finite value"),
        (_wide_inputs, r"rollout 0: inputs have shape \(3, 2\), expected \(4, 1\)"),
        (_short_rollout, r"rollout 2: states have shape \(4, 2\), expected \(5, 2\)"),
        (_ragged_rollout, "rollout 1: states are ragged"),
        (_missing_rollout, "holds 2 rollouts, its header says 3"),
    ],
)
def test_rollout_json_rejects_bad_rollouts(bench_system, bench_schedule, zero_init, edit, message):
    d = json.loads(simulate_rollouts(bench_system, bench_schedule, zero_init, 3, seed=5).to_json())
    edit(d)
    with pytest.raises(ValueError, match=message):
        RolloutSet.from_json(json.dumps(d))


def _no_input_field(d):
    del d["rollouts"][1]["u"]
    return d


def _no_ell(d):
    del d["ell"]
    return d


def _no_schedule(d):
    del d["schedule"]
    return d


def _rollouts_not_a_list(d):
    d["rollouts"] = {"0": d["rollouts"][0]}
    return d


def _top_level_list(d):
    return [d]


def _short_schedule(d):  # schedule of ell - 1 steps under an ell-step header
    for key in ("nu", "Ubar"):
        d["schedule"][key].pop()
    return d


def _wide_schedule_means(d):
    d["schedule"]["nu"] = [row + [0.0] for row in d["schedule"]["nu"]]
    return d


def _short_schedule_covariances(d):
    d["schedule"]["Ubar"].pop()
    return d


def _unknown_schedule_law(d):
    d["schedule"]["law"] = "cauchy"
    return d


def _not_json(d):
    return "{"


def _no_rollouts(d):
    d["n_r"], d["rollouts"] = 0, []
    return d


def _schedule_entry(key, index, value):
    def edit(d):
        row = d["schedule"][key]
        for i in index[:-1]:
            row = row[i]
        row[index[-1]] = value
        return d

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (_no_input_field, "rollout 1 has no 'u' field"),
        (_no_ell, "rollout JSON has no 'ell' field"),
        (_no_schedule, "rollout JSON has no 'schedule' field"),
        (_rollouts_not_a_list, "rollout JSON field 'rollouts' must be a list"),
        (_top_level_list, "rollout JSON must be an object, got list"),
        (_short_schedule, r"schedule\.nu has shape \(3, 1\), the header's ell = 4 and m = 1 need \(4, 1\)"),
        (_wide_schedule_means, r"schedule\.nu has shape \(4, 2\), the header's ell = 4 and m = 1 need \(4, 1\)"),
        (_short_schedule_covariances, r"schedule\.Ubar has shape \(3, 1, 1\), .* need \(4, 1, 1\)"),
        (_unknown_schedule_law, "'schedule': unknown input law 'cauchy'"),
        (_not_json, "rollout JSON does not parse"),
        (_no_rollouts, "rollout JSON field 'n_r' must be a positive integer"),
        (_schedule_entry("nu", (2, 0), float("nan")), r"schedule\.nu\[2, 0\] is not finite"),
        (_schedule_entry("nu", (0, 0), float("inf")), r"schedule\.nu\[0, 0\] is not finite"),
        (_schedule_entry("Ubar", (1, 0, 0), float("nan")), r"schedule\.Ubar\[1, 0, 0\] is not finite"),
        (_schedule_entry("Ubar", (3, 0, 0), float("inf")), r"schedule\.Ubar\[3, 0, 0\] is not finite"),
    ],
)
def test_rollout_json_names_missing_or_mistyped_fields(
    bench_system, bench_schedule, zero_init, edit, message
):
    d = json.loads(simulate_rollouts(bench_system, bench_schedule, zero_init, 3, seed=5).to_json())
    edited = edit(d)
    with pytest.raises(InputError, match=message):
        RolloutSet.from_json(edited if isinstance(edited, str) else json.dumps(edited))


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("seed", "abc", "field 'seed' must be an integer"),
        ("seed", 1.5, "field 'seed' must be an integer"),
        ("seed", True, "field 'seed' must be an integer"),
        ("seed", None, "field 'seed' must be an integer"),
        ("schedule.seed", "abc", r"field schedule\.seed must be an integer or null"),
        ("schedule.seed", 1.5, r"field schedule\.seed must be an integer or null"),
        ("schedule.seed", True, r"field schedule\.seed must be an integer or null"),
    ],
)
def test_rollout_json_seeds_must_be_integers(bench_system, bench_schedule, zero_init, key, value, message):
    d = json.loads(simulate_rollouts(bench_system, bench_schedule, zero_init, 3, seed=5).to_json())
    if key == "seed":
        d["seed"] = value
    else:
        d["schedule"]["seed"] = value
    for text in (json.dumps(d), json.dumps(d, indent=2)):  # the chunked layout, and one read whole
        with pytest.raises(InputError, match=message):
            RolloutSet.from_json(text)


def test_rollout_json_schedule_seed_may_be_null(bench_system, bench_schedule, zero_init):
    d = json.loads(simulate_rollouts(bench_system, bench_schedule, zero_init, 3, seed=5).to_json())
    d["schedule"]["seed"] = None
    assert RolloutSet.from_json(json.dumps(d)).schedule.seed is None


def _whole_json(rollouts):
    """The rollout file as one ``json.dumps`` of the whole object."""
    return {
        "n": rollouts.n,
        "m": rollouts.m,
        "ell": rollouts.ell,
        "n_r": rollouts.n_r,
        "seed": rollouts.seed,
        "schedule": rollouts.schedule.to_json_dict(),
        "rollouts": [{"x": x, "u": u} for x, u in zip(rollouts.states.tolist(), rollouts.inputs.tolist())],
    }


def _header_swapped(d):
    """The object with "n" and "m" swapped in key order, "rollouts" still last."""
    return {"m": d["m"], "n": d["n"], **{k: v for k, v in d.items() if k not in ("n", "m")}}


_C = system_model._JSON_CHUNK


@pytest.mark.parametrize("n_r", [1, _C - 1, _C, _C + 1, 3 * _C + 5])
def test_rollout_json_is_written_and_read_a_chunk_at_a_time_as_one_document(
    bench_system, bench_schedule, zero_init, n_r
):
    rollouts = simulate_rollouts(bench_system, bench_schedule, zero_init, n_r, seed=5)
    whole = _whole_json(rollouts)
    text = rollouts.to_json()
    assert text == json.dumps(whole)
    assert system_model._read_chunked(text) is not None
    assert_same_rollouts(RolloutSet.from_json(text), rollouts)
    for variant in (
        json.dumps(whole, indent=2),
        json.dumps(dict(reversed(whole.items()))),
        json.dumps(_header_swapped(whole)),
        json.dumps(whole, separators=(",", ":")),
        text.replace('{"n": ', '{"n":  ', 1),  # a header that is not its own json.dumps
    ):
        assert system_model._read_chunked(variant) is None  # read whole
        assert_same_rollouts(RolloutSet.from_json(variant), rollouts)


def _rss_growth(path, steps):
    """How many times the text's size ``steps`` grow ru_maxrss by, in a fresh interpreter.

    Linux keeps ru_maxrss across exec, and a child starts from its parent's
    peak, so the measuring interpreter is started by a bare one, whose own
    peak lies below what the measurement starts from.
    """
    script = textwrap.dedent(
        f"""
        import json, resource, sys
        from pathlib import Path
        import numpy as np
        import multinoise as mn

        def peak():
            return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * (1 if sys.platform == "darwin" else 1024)

        path = Path({path!r})
        """
    ) + textwrap.dedent(steps)
    return run_fresh(f"import subprocess, sys; subprocess.run([sys.executable, '-c', {script!r}], check=True)")


def test_rollout_json_write_and_read_take_at_most_three_times_the_text(tmp_path):
    """ru_maxrss growth of ``to_json``, and of ``read_text`` plus ``from_json``, at 2e4 rollouts of paper-4.1's shape."""
    pytest.importorskip("resource")
    path = str(tmp_path / "rollouts.json")
    grew = _rss_growth(
        path,
        """
        # random values, as long as simulated ones, without a simulation's peak to hide the growth
        rng, b = np.random.default_rng(7), mn.get_preset("paper-4.1")
        n_r, ell, n, m = 20_000, b.schedule.ell, b.system.n, b.system.m
        states, inputs = rng.standard_normal((n_r, ell + 1, n)), rng.standard_normal((n_r, ell, m))
        rollouts = mn.RolloutSet(states=states, inputs=inputs, schedule=b.schedule, seed=7)
        before = peak()
        text = rollouts.to_json()
        print(json.dumps((peak() - before) / len(text)))
        path.write_text(text)
        """,
    )
    assert grew <= 3.0, f"to_json grew ru_maxrss by {grew:.2f} x the text"
    grew = _rss_growth(
        path,
        """
        before = peak()
        text = path.read_text()
        mn.RolloutSet.from_json(text)
        print(json.dumps((peak() - before) / len(text)))
        """,
    )
    assert grew <= 3.0, f"read_text and from_json grew ru_maxrss by {grew:.2f} x the text"


def test_a_noise_direction_of_another_shape_is_rejected():
    with pytest.raises(ValueError, match=re.escape("a_dirs[0] has shape (3, 3), the system needs (2, 2)")):
        make_system(BENCH_A, BENCH_B, EigenStructuredNoise([np.eye(3)], [0.1], [], []))
    with pytest.raises(ValueError, match=re.escape("b_dirs[1] has shape (2, 2), the system needs (2, 1)")):
        make_system(BENCH_A, BENCH_B, EigenStructuredNoise([], [], [np.ones((2, 1)), np.eye(2)], [0.1, 0.1]))


@pytest.mark.parametrize("seed", [np.ones((2, 2), int), np.array([], int)], ids=["matrix", "empty"])
def test_a_seed_must_be_a_scalar_or_a_non_empty_vector(seed):
    bundle = get_preset("paper-4.1")
    message = re.escape(f"seed must be a scalar or a non-empty 1-D vector, got shape {seed.shape}")
    for call in (mals, simulated_moments, lambda *a: next(iter_rollout_blocks(*a))):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(bundle.system, bundle.schedule, bundle.init, 10, seed)


# --- leaves on several workers ------------------------------------------------


def _workers(monkeypatch, count):
    """Run leaves on ``count`` workers, whatever the machine's usable CPUs."""
    monkeypatch.setattr(system_model, "_usable_cpus", lambda: count)


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_one_and_two_workers_give_the_same_bits(monkeypatch, preset):
    b = get_preset(preset)
    threads = set()
    simulate = system_model._run_trajectories

    def spy(*args):
        threads.add(threading.get_ident())
        return simulate(*args)

    monkeypatch.setattr(system_model, "_run_trajectories", spy)

    def run(call, *args, **kwargs):
        """The call's result; no more threads than workers simulated its leaves."""
        threads.clear()
        result = call(b.system, b.schedule, b.init, *args, **kwargs)
        assert len(threads) <= workers
        return result

    runs = {}
    for workers in (1, 2):
        _workers(monkeypatch, workers)
        runs[workers] = []
        for n_r in (1, ROLLOUT_LEAF - 1, ROLLOUT_LEAF + 1, 3 * ROLLOUT_LEAF + 5):
            stack = list(range(90)) if n_r == 1 else [7, 2**64 - 1]
            rollouts = run(simulate_rollouts, n_r, seed=11)
            moments = run(simulated_moments, n_r, 11)
            est = run(mals, n_r, seed=stack)
            runs[workers].append((rollouts.states, rollouts.inputs, moments.mu, moments.x_t, est.nominal(),
                                  est.covariance(), *est.diagnostics.values(), *est.errors.values()))
    for got, want in zip(runs[2], runs[1]):
        for x, y in zip(got, want):
            assert np.array_equal(x, y)


def test_the_first_diverging_leaf_in_order_is_named(monkeypatch):
    # rollout LEAF + 5 grows from 1 and passes the limit at t = 3; rollout
    # 2 LEAF + 7 grows from 1e7 and passes it at t = 1, in a leaf that the
    # delay below lets finish first
    s = make_system(1e6 * np.eye(2), BENCH_B, ZeroNoise())
    sched = InputSchedule(nu=np.zeros((4, 1)), ubar=np.zeros((4, 1, 1)), law="deterministic")

    class Init:
        mean = np.zeros(2)

        def sample(self, seed, ks):
            x = np.zeros((len(ks), 2))
            x[ks == ROLLOUT_LEAF + 5] = 1.0
            x[ks == 2 * ROLLOUT_LEAF + 7] = 1e7
            if ks[0] == ROLLOUT_LEAF:
                time.sleep(0.2)
            return x

    _workers(monkeypatch, 2)
    message = rf"^state exceeded 1e\+12 at t=3, rollout {ROLLOUT_LEAF + 5}$"
    for call in (simulate_rollouts, simulated_moments):
        with pytest.raises(SimulationDiverged, match=message):
            call(s, sched, Init(), 3 * ROLLOUT_LEAF, 0)


class _BeyondOffTheCaller:
    """The wrapped noise, but 100 times beyond its bound when drawn off the calling thread.

    Every block of a call with more than one worker is drawn on a pool
    thread, so a pool thread raises the noise-bound error.  Were a draw made
    on the calling thread, it would wait until a pool thread had drawn.
    """

    def __init__(self, noise):
        self.noise, self.helper_drew = noise, threading.Event()

    def sample(self, seed, ks, t, n, m):
        Abar, Bbar = self.noise.sample(seed, ks, t, n, m)
        if threading.current_thread() is threading.main_thread():
            assert self.helper_drew.wait(timeout=30)
            return Abar, Bbar
        self.helper_drew.set()
        return 100 * Abar, Bbar


def test_a_noise_bound_error_in_a_helper_reaches_the_caller(monkeypatch):
    b = get_preset("paper-4.1")
    system = copy.copy(b.system)
    system.noise = _BeyondOffTheCaller(system.noise)
    _workers(monkeypatch, 2)
    before = threading.active_count()
    with pytest.raises(AssertionError, match="sampled Abar exceeded its declared a.s. bound"):
        mals(system, b.schedule, b.init, 2 * ROLLOUT_LEAF, seed=0)
    assert threading.active_count() == before


class _Beyond:
    """The wrapped noise, 100 times beyond its bound."""

    def __init__(self, noise):
        self.noise = noise

    def sample(self, seed, ks, t, n, m):
        Abar, Bbar = self.noise.sample(seed, ks, t, n, m)
        return 100 * Abar, Bbar


def test_a_block_that_raises_gives_its_workspace_back():
    # a worker's later blocks take their temporaries from where a failed block found the workspace
    b = get_preset("paper-4.1")
    beyond = copy.copy(b.system)
    beyond.noise = _Beyond(b.system.noise)
    ks, ell = np.arange(ROLLOUT_LEAF), b.schedule.ell
    ws = system_model._Workspace()
    empty = ws.mark()
    want = system_model._run_trajectories(b.system, b.schedule, b.init, ks, ell, 4, ws)
    segments = list(ws._segments)
    for _ in range(8):
        with pytest.raises(AssertionError, match="sampled Abar exceeded its declared a.s. bound"):
            system_model._run_trajectories(beyond, b.schedule, b.init, ks, ell, 4, ws)
        assert ws.mark() == empty
    got = system_model._run_trajectories(b.system, b.schedule, b.init, ks, ell, 4, ws)
    assert ws.mark() == empty
    assert len(ws._segments) == len(segments) and all(a is b for a, b in zip(ws._segments, segments))
    for x, y in zip(got, want):
        assert np.array_equal(x, y)


def test_closing_the_blocks_early_leaves_no_thread_behind(monkeypatch):
    b = get_preset("paper-4.1")
    _workers(monkeypatch, 2)
    before = threading.active_count()
    blocks = iter_rollout_blocks(b.system, b.schedule, b.init, 6 * ROLLOUT_LEAF, 3)
    r, k0, states, _ = next(blocks)
    assert (r, k0, len(states)) == (0, 0, ROLLOUT_LEAF)
    blocks.close()
    assert threading.active_count() == before


def test_closing_after_one_leaf_simulated_no_more_than_the_window(monkeypatch):
    b = get_preset("paper-4.1")
    simulated = []
    simulate = system_model._run_trajectories

    def spy(*args):
        simulated.append(args[3][0])
        return simulate(*args)

    monkeypatch.setattr(system_model, "_run_trajectories", spy)
    workers = 2
    _workers(monkeypatch, workers)
    before = threading.active_count()
    blocks = iter_rollout_blocks(b.system, b.schedule, b.init, 12 * ROLLOUT_LEAF, 3)
    assert next(blocks)[:2] == (0, 0)
    window = 1 + 2 * workers  # the leaf yielded, and 2 * workers blocks submitted past the next one
    deadline = time.monotonic() + 30
    while len(simulated) < window and time.monotonic() < deadline:
        time.sleep(0.01)
    time.sleep(0.2)  # time for a block beyond the window to start, were one submitted
    blocks.close()
    assert threading.active_count() == before
    assert len(simulated) == window, simulated


def test_a_one_leaf_call_starts_no_thread(monkeypatch):
    b = get_preset("paper-4.1")
    counts = []
    simulate = system_model._run_trajectories

    def spy(*args):
        counts.append(threading.active_count())
        return simulate(*args)

    monkeypatch.setattr(system_model, "_run_trajectories", spy)
    _workers(monkeypatch, 2)
    before = threading.active_count()
    mals(b.system, b.schedule, b.init, ROLLOUT_LEAF, seed=1)
    mals(b.system, b.schedule, b.init, 100, seed=list(range(81)))  # 81 repetitions fill one block
    simulate_rollouts(b.system, b.schedule, b.init, 1, seed=1)
    assert counts and set(counts) == {before}


def test_each_entry_of_a_seed_vector_follows_the_lone_seed_rule():
    b = get_preset("paper-4.1")
    for seeds in ([-1, 2**64 - 1, 5], np.array([-1, 5]), [np.uint64(2**64 - 1), 2**64 + 5]):
        stacked = mals(b.system, b.schedule, b.init, 10, seed=seeds)
        for r, seed in enumerate(seeds):
            one = mals(b.system, b.schedule, b.init, 10, seed=seed)
            assert np.array_equal(stacked.nominal()[r], one.nominal()), (seeds, r)
            assert np.array_equal(stacked.covariance()[r], one.covariance()), (seeds, r)
    for seeds, index in (([1.5, 5], 0), ([5, np.float64(2.0)], 1)):
        with pytest.raises(ValueError, match=f"^seed {index} must be an integer, got "):
            mals(b.system, b.schedule, b.init, 10, seed=seeds)


@pytest.mark.parametrize("n_r", [2.5, 3.0, np.float64(3.0), "10", True, False, 0, -2, None])
def test_a_rollout_count_that_is_not_a_positive_integer_fails_where_it_enters(n_r):
    b = get_preset("paper-4.1")
    with pytest.raises(ValueError, match=r"^n_r must be a positive integer, got "):
        next(iter_rollout_blocks(b.system, b.schedule, b.init, n_r, 1))
    if n_r is not None:  # mals reads a missing n_r as "not simulating"
        with pytest.raises(ValueError, match=r"^n_r must be a positive integer, got "):
            mals(b.system, b.schedule, b.init, n_r)


def test_a_numpy_integer_rollout_count_is_a_count():
    b = get_preset("paper-4.1")
    got, want = mals(b.system, b.schedule, b.init, np.int64(7), seed=3), mals(b.system, b.schedule, b.init, 7, seed=3)
    assert np.array_equal(got.nominal(), want.nominal()) and np.array_equal(got.covariance(), want.covariance())


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="the bounds are Linux's minor fault counts")
def test_blocks_after_the_first_call_fault_in_almost_no_fresh_pages():
    # Each worker reuses one workspace across a call's blocks.  Allocating
    # every block's temporaries afresh made 580 (two workers) to 700 (one)
    # minor faults per block of a 16-block call on paper-4.1.  A call now
    # faults in its workspaces' pages once (about 645 per worker) and then
    # almost nothing per block.  So a 16-block call may take 64 faults per
    # block and worker: a tenth of the old figure on one worker, but about a
    # fifth on two, whose two workspaces each fault in once.  The 16 blocks
    # a 32-block call adds to a 16-block one take a tenth at most.
    faults = run_fresh(
        """
        import json, resource
        from unittest import mock
        import multinoise as mn
        from multinoise import system_model

        def faults(n_r, seed):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            mn.mals(b.system, b.schedule, b.init, n_r, seed=seed)
            return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

        b = mn.get_preset("paper-4.1")
        leaf = system_model.ROLLOUT_LEAF
        out = {}
        for workers in (1, 2):
            with mock.patch.object(system_model, "_usable_cpus", lambda: workers):
                faults(16 * leaf, 1)
                out[workers] = [faults(16 * leaf, 2), faults(32 * leaf, 3)]
        print(json.dumps(out))
        """
    )
    for workers, (sixteen, thirty_two) in faults.items():
        assert sixteen / 16 <= 64 * int(workers) and (thirty_two - sixteen) / 16 <= 64, faults
