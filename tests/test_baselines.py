import re

import numpy as np
import pytest

from multinoise.baselines import (
    INIT_COV,
    _rls_batch,
    covariance_from_fit,
    rls_batch_estimates,
    rls_fit,
    second_moment_regressors,
    simulate_single_trajectories,
)
from multinoise import system_model
from multinoise.mals import design_inputs
from multinoise.moment_oracle import lift, lift_nominal
from multinoise.presets import get_preset
from multinoise.shape_ops import outer_vec, svec_dim
from multinoise.system_model import (
    DIVERGENCE_LIMIT,
    CovarianceNoise,
    EigenStructuredNoise,
    FixedInitial,
    InputSchedule,
    SimulationDiverged,
    ZeroNoise,
    beyond_limit,
    make_system,
    simulate_rollouts,
)

from conftest import BENCH_B, BENCH_SIGMA_A, BENCH_SIGMA_B, standard_normal_inputs

A_STABLE = np.array([[0.6, 0.2], [0.0, 0.6]])
A_MARGINAL = np.array([[1.0, 0.2], [0.0, 1.0]])


# ---------------------------------------------------------------------------
# reference oracles: the plain per-step simulator, which the library must
# reproduce bit for bit, and per-run ridge least squares for the RLS fits


def _ref_too_big(a, axis):
    finite = np.where(np.isfinite(a), a, np.inf)
    return ~np.isfinite(a).all(axis=axis) | (np.max(np.abs(finite), axis=axis) > DIVERGENCE_LIMIT)


def _ref_simulate(system, input_law, T, reps, seed):
    n, m = system.n, system.m
    ks = np.arange(reps)
    states = np.zeros((reps, T + 1, n))
    inputs = np.zeros((reps, T, m))
    x = np.zeros((reps, n))
    alive = np.ones(reps, dtype=bool)
    diverged_at = np.full(reps, T + 1, dtype=int)
    for t in range(T):
        u = input_law.sample(seed, ks, t)
        Abar, Bbar = system.noise.sample(seed, ks, t, n, m)
        x_new = (
            np.einsum("kij,kj->ki", Abar, x)
            + x @ system.A.T
            + np.einsum("kij,kj->ki", Bbar, u)
            + u @ system.B.T
        )
        blown = alive & _ref_too_big(x_new, 1)
        diverged_at[blown] = t + 1
        inputs[:, t, :] = np.where(alive[:, None], u, np.nan)  # u_t is NaN once x_t has diverged
        alive &= ~blown
        x = np.where(alive[:, None], x_new, np.nan)
        states[:, t + 1, :] = x
    return states, inputs, diverged_at


def _ref_freeze_steps(phi, target):
    """The data rule one step at a time: each run's 1-based first step with an out-of-range entry, T + 1 if none."""
    R, T, _ = phi.shape
    freeze = np.full(R, T + 1, dtype=int)
    for t in range(T):
        bad = (freeze == T + 1) & (_ref_too_big(phi[:, t], 1) | _ref_too_big(target[:, t], 1))
        freeze[bad] = t + 1
    return freeze


def _ref_ridge(phi, target, checkpoints):
    """Per-run ridge least squares on [I/sqrt(INIT_COV); Phi] over the steps before each run's freeze."""
    R, T, d = phi.shape
    p = target.shape[2]
    cps = sorted(set(int(c) for c in checkpoints))
    freeze = _ref_freeze_steps(phi, target)
    out = np.empty((len(cps), R, p, d))
    for i, c in enumerate(cps):
        for r in range(R):
            n = min(c, freeze[r] - 1)
            lhs = np.vstack([np.eye(d) / np.sqrt(INIT_COV), phi[r, :n]])
            rhs = np.vstack([np.zeros((d, p)), target[r, :n]])
            out[i, r] = np.linalg.lstsq(lhs, rhs, rcond=None)[0].T
    return out, freeze <= T, cps, freeze


def _rel_err(est, ref):
    """Largest relative Frobenius error over the leading (checkpoint, run) axes."""
    err = np.linalg.norm(est - ref, axis=(-2, -1)) / np.maximum(np.linalg.norm(ref, axis=(-2, -1)), 1e-300)
    return float(err.max())


def _ref_regression_data(states, inputs, diverged_at):
    """Nominal and second-moment RLS data, masked past divergence, one trajectory at a time."""
    phi_n = np.concatenate([states[:, :-1], inputs], axis=2)
    tgt_n = states[:, 1:].copy()
    pairs = [second_moment_regressors(s, u) for s, u in zip(states, inputs)]
    phi_2 = np.stack([p for p, _ in pairs])
    tgt_2 = np.stack([tg for _, tg in pairs])
    for arr in (phi_n, tgt_n, phi_2, tgt_2):
        for r, d in enumerate(diverged_at):
            if d < arr.shape[1]:
                arr[r, d:] = np.inf
    return (phi_n, tgt_n), (phi_2, tgt_2)


def _assert_rls_matches_reference(phi, target, checkpoints):
    """_rls_batch against the ridge reference: the estimates to 1e-10 relative,
    the diverged flags, checkpoints and freeze steps exactly."""
    got = _rls_batch(phi, target, checkpoints)
    ref = _ref_ridge(phi, target, checkpoints)
    assert len(got) == 4
    for g, r in zip(got[1:], ref[1:]):
        assert np.array_equal(g, r)
    assert _rel_err(got[0], ref[0]) <= 1e-10
    return got


def _eigen_system():
    A = np.array([[0.5, 0.1, 0.0], [0.0, 0.6, 0.2], [0.1, 0.0, 0.4]])
    B = np.array([[1.0, 0.0], [0.3, 1.0], [0.0, 0.5]])
    noise = EigenStructuredNoise(
        [np.eye(3), np.diag([1.0, -1.0, 0.0])], [0.2, 0.1], [np.ones((3, 2))], [0.15]
    )
    return make_system(A, B, noise), design_inputs(2, 3, seed=4)


def _oracle_case(name):
    if name == "zero":
        return make_system(A_STABLE, BENCH_B, ZeroNoise()), design_inputs(1, 4, seed=48)
    if name == "eigen":
        return _eigen_system()
    bundle = get_preset(name).with_input_law("gaussian")
    return bundle.system, bundle.schedule


@pytest.mark.parametrize("law", ["gaussian", "periodic"])
@pytest.mark.parametrize("case", ["paper-4.2-rho0.8", "paper-4.2-rho1.0", "zero", "eigen"])
def test_simulation_and_rls_match_per_step_reference(case, law):
    system, schedule = _oracle_case(case)
    input_law = standard_normal_inputs(system.m) if law == "gaussian" else schedule
    T, reps = 1200, 5
    got = simulate_single_trajectories(system, input_law, T, reps, seed=23)
    ref = _ref_simulate(system, input_law, T, reps, seed=23)
    for g, r in zip(got, ref):
        assert np.array_equal(g, r, equal_nan=True)
    states, inputs, diverged_at = got
    if case == "paper-4.2-rho1.0":
        assert np.all(diverged_at <= T)
    (phi_n, tgt_n), (phi_2, tgt_2) = _ref_regression_data(states, inputs, diverged_at)
    # the batched regressors reproduce the per-trajectory forms on the steps before divergence,
    # where the response of step d - 1 is NaN in both
    phi_b, tgt_b = second_moment_regressors(states, inputs)
    before = np.arange(T) < diverged_at[:, None]
    assert np.array_equal(phi_b[before], phi_2[before]) and np.array_equal(tgt_b[before], tgt_2[before], equal_nan=True)
    assert np.array_equal(states[:, 1:][before], tgt_n[before], equal_nan=True)
    cps = [7, 600, T]
    _assert_rls_matches_reference(phi_n, tgt_n, cps)
    _assert_rls_matches_reference(phi_2, tgt_2, cps)


def test_early_exits_when_every_run_freezes_before_the_last_checkpoint():
    system, _ = _oracle_case("paper-4.2-rho1.0")
    T, reps = 2500, 4
    law = standard_normal_inputs(1)
    states, inputs, diverged_at = simulate_single_trajectories(system, law, T, reps, 8)
    ref = _ref_simulate(system, law, T, reps, 8)
    assert np.array_equal(states, ref[0], equal_nan=True) and np.array_equal(inputs, ref[1], equal_nan=True)
    assert np.array_equal(diverged_at, ref[2])
    assert diverged_at.max() < T - 100  # the simulator stops early
    cps = [50, diverged_at.max() + 20, T - 1, T]
    for phi, target in _ref_regression_data(states, inputs, diverged_at):
        out, diverged, _, freeze = _assert_rls_matches_reference(phi, target, cps)
        assert diverged.all() and freeze.max() < cps[-2]  # every run freezes before the last two checkpoints
        assert np.array_equal(out[-1], out[-2])


def test_frozen_baseline_estimates_use_only_real_transitions():
    # a diverged trajectory's states are NaN from x_d on, so its RLS runs must
    # freeze after the last real transition, pair d-2
    system, _ = _oracle_case("paper-4.2-rho1.0")
    T, reps, law = 2000, 6, standard_normal_inputs(1)
    states, inputs, diverged_at = simulate_single_trajectories(system, law, T, reps, 8)
    _, nominal, sigma_a, sigma_b, diverged = rls_batch_estimates(system, law, T, reps, 8, [T])
    frozen = np.flatnonzero(diverged_at <= T)
    assert frozen.size and diverged[0, frozen].all()
    for r in frozen:
        d = diverged_at[r]
        _, est, sa, sb, _ = rls_fit(states[r : r + 1, :d], inputs[r : r + 1, : d - 1], [d - 1])
        assert np.array_equal(nominal[0, r], est[0, 0])
        assert np.array_equal(sigma_a[0, r], sa[0, 0]) and np.array_equal(sigma_b[0, r], sb[0, 0])


def test_rls_estimate_blowup_freezes_like_reference():
    # only out-of-range data freeze a run: an in-range response that drives the
    # estimate out of range is fitted like any other, as the ridge reference fits it
    rng = np.random.default_rng(0)
    phi = rng.standard_normal((4, 60, 3))
    target = rng.standard_normal((4, 60, 2))
    phi[1, :5] *= 1e-3  # tiny regressors under the diffuse prior ...
    target[1, 3] = 9e11  # ... let an in-range response drive the estimate out of range
    target[2, 30] = np.nan
    phi[3, 40, 0] = np.inf
    phi[0, 50] = 2e12
    phi[1, 20, 2] = np.nan
    cps = [2, 4, 10, 45, 60]
    out, diverged, _, freeze = _assert_rls_matches_reference(phi, target, cps)
    assert freeze.tolist() == [51, 21, 31, 41] and diverged.all()
    assert beyond_limit(out[1, 1]) and not beyond_limit(out[2, 1])  # run 1 is not frozen at step 4
    # each row of the batch is the same run alone
    for r in range(4):
        alone = _rls_batch(phi[r : r + 1], target[r : r + 1], cps)
        assert np.array_equal(alone[0][:, 0], out[:, r]) and alone[3][0] == freeze[r]
    # runs whose estimates leave the range with in-range data never freeze
    phi, target = _runs_blowing_up_at_4_6_8(rng)
    out, diverged, _, freeze = _assert_rls_matches_reference(phi, target, [4, 6, 8, 60])
    assert freeze.tolist() == [61] * 3 and not diverged.any()
    assert beyond_limit(out[0, 0]) and beyond_limit(out[1, 1]) and beyond_limit(out[2, 2])


def _runs_blowing_up_at_4_6_8(rng):
    """Regressors (3, 60, 3) and responses (3, 60, 2), all in range, whose estimates leave the range at steps 4, 6 and 8."""
    phi = rng.standard_normal((3, 60, 3))
    target = rng.standard_normal((3, 60, 2))
    phi[:, :8] *= 1e-3
    target[np.arange(3), [3, 5, 7]] = 9e11
    return phi, target


def test_rls_stops_once_every_run_has_blown_up(monkeypatch):
    C = system_model.TIME_CHUNK
    rng = np.random.default_rng(1)
    T = 3 * C + 5
    phi = rng.standard_normal((3, T, 3))
    target = rng.standard_normal((3, T, 2))
    target[0, 3, 0] = 2e12  # out-of-range data at steps 4, 6 and C + 3
    phi[1, 5, 2] = -np.inf
    target[2, C + 2, 1] = np.nan
    qr, seen = np.linalg.qr, []

    def counting(a, mode="reduced"):
        seen.append(a.shape[1] - 5)  # the rows of data under the (5, 5) factors
        return qr(a, mode)

    monkeypatch.setattr(np.linalg, "qr", counting)
    cps = [2, 10, C + 5, T]
    out, diverged, _, freeze = _rls_batch(phi, target, cps)
    monkeypatch.undo()
    assert freeze.tolist() == [4, 6, C + 3] and diverged.all()
    # the segments up to the last freeze, at step C + 3; every later row would be zero data
    assert seen == [2, 8, C - 10, 5]
    assert np.array_equal(out[-1], out[-2])
    _assert_rls_matches_reference(phi, target, cps)


@pytest.mark.parametrize("name", ["paper-4.2-rho0.6-nonoise", "paper-4.2-rho0.6", "paper-4.2-rho0.8"])
def test_rls_is_the_ridge_fit_on_long_trajectories(name):
    # a covariance-form (P) recursion misses the ridge fit here: it squares the regressions' condition number
    system = get_preset(name).system
    T = 10_000
    states, inputs, diverged_at = simulate_single_trajectories(system, standard_normal_inputs(system.m), T, 2, seed=3)
    assert (diverged_at == T + 1).all()
    phi_n = np.concatenate([states[:, :-1], inputs], axis=2)
    cps = [T // 10, T]
    _assert_rls_matches_reference(phi_n, states[:, 1:], cps)
    _assert_rls_matches_reference(*second_moment_regressors(states, inputs), cps)


@pytest.mark.parametrize("name", ["paper-4.2-rho0.6", "paper-4.2-rho0.8"])
def test_second_moment_regressors_have_full_column_rank(name):
    system = get_preset(name).system
    states, inputs, _ = simulate_single_trajectories(system, standard_normal_inputs(system.m), 10_000, 1, seed=3)
    phi, _ = second_moment_regressors(states, inputs)
    assert phi.shape[-1] == svec_dim(system.n) + svec_dim(system.m) + system.n * system.m
    # with unit columns, so the scales of x x', u u' and x u' do not enter
    assert np.linalg.cond(phi[0] / np.linalg.norm(phi[0], axis=0)) <= 1e5


@pytest.mark.parametrize("name", ["paper-4.2-rho0.6", "paper-4.2-rho0.8"])
def test_reduced_fit_equals_the_fit_with_both_cross_terms(name):
    # beside vec(x u'), the columns vec(u x') = K_nm vec(x u') add nothing: only the prior splits the
    # cross coefficient between them, and the two parts sum to the reduced fit's cross block
    system = get_preset(name).system
    n, m, T = system.n, system.m, 10_000
    states, inputs, _ = simulate_single_trajectories(system, standard_normal_inputs(m), T, 2, seed=3)
    phi, target = second_moment_regressors(states, inputs)
    both = np.concatenate([phi, outer_vec(inputs, states[:, :-1])], axis=2)
    reduced, _, _, freeze = _rls_batch(phi, target, [T])
    full, _, _, freeze_full = _rls_batch(both, target, [T])
    assert np.array_equal(freeze, freeze_full)
    k = svec_dim(n) + svec_dim(m)  # the At + St_A and Bt + St_B columns
    assert _rel_err(reduced[..., :k], full[..., :k]) <= 1e-9
    to_ux = np.arange(n * m).reshape(n, m).ravel(order="F")  # the vec(u x') column of each vec(x u') column
    assert _rel_err(reduced[..., k:], full[..., k : k + n * m] + full[..., k + n * m :][..., to_ux]) <= 1e-9


def _data_freezing_across_chunks(rng):
    """Regressors (6, T, 3) and responses (6, T, 2) whose runs freeze at steps 1, C, C + 1, C + 7, 2C + 3 and never."""
    C = system_model.TIME_CHUNK
    T = 2 * C + 40
    phi = rng.standard_normal((6, T, 3))
    target = rng.standard_normal((6, T, 2))
    phi[0, 0, 0] = np.nan
    target[1, C - 1, 1] = 2e12
    phi[2, C] = np.inf
    target[3, C + 6, 0] = -np.inf
    phi[4, 2 * C + 2, 2] = -3e12
    return phi, target


def test_frozen_run_keeps_its_estimate_bit_for_bit():
    rng = np.random.default_rng(7)
    phi, target = _data_freezing_across_chunks(rng)
    C, T = system_model.TIME_CHUNK, phi.shape[1]
    cps = sorted({*range(1, T + 1, 23), C - 1, C, C + 1, C + 6, 2 * C + 2, T})
    out, _, _, freeze = _assert_rls_matches_reference(phi, target, cps)
    assert freeze.tolist() == [1, C, C + 1, C + 7, 2 * C + 3, T + 1]
    for r, f in enumerate(freeze[:-1]):
        later = out[np.array(cps) >= f - 1, r]  # every checkpoint after the last step the run uses
        assert len(later) > 1 and all(np.array_equal(e, later[0]) for e in later)
    # whatever the data after a freeze hold, the run's estimates stay the same
    for r, f in enumerate(freeze[:-1]):
        phi[r, f:] = rng.standard_normal(phi[r, f:].shape) * 1e6
        target[r, f:] = np.nan
    again = _rls_batch(phi, target, cps)
    assert np.array_equal(again[0], out) and np.array_equal(again[3], freeze)


def test_run_estimates_do_not_depend_on_their_stack():
    phi, target = _data_freezing_across_chunks(np.random.default_rng(8))
    cps = [5, 100, system_model.TIME_CHUNK + 3, phi.shape[1]]
    whole = _rls_batch(phi, target, cps)
    # alone, with the runs in reverse, and beside runs that all freeze earlier or later
    for runs in ([0], [1], [2], [3], [4], [5], [5, 4, 3, 2, 1, 0], [4, 0], [1, 5], [2, 3, 0]):
        part = _rls_batch(phi[runs], target[runs], cps)
        assert np.array_equal(part[0], whole[0][:, runs]) and np.array_equal(part[3], whole[3][runs])
        assert np.array_equal(part[1], whole[1][runs])


def test_rls_rejects_malformed_input():
    states, inputs = np.zeros((2, 11, 2)), np.zeros((2, 10, 1))
    for st, ip in ((states[:, :-1], inputs), (states, inputs[:1]), (states[0], inputs[0])):
        with pytest.raises(ValueError, match=re.escape(f"states {st.shape} and inputs {ip.shape} must")):
            rls_fit(st, ip, [5])
    with pytest.raises(ValueError, match="non-empty"):
        _rls_batch(np.zeros((2, 10, 3)), np.zeros((2, 10, 2)), [])
    with pytest.raises(ValueError, match=r"in 1\.\.10"):
        _rls_batch(np.zeros((2, 10, 3)), np.zeros((2, 10, 2)), [0, 5])


def test_rls_zero_noise_converges():
    s = make_system(A_STABLE, BENCH_B, ZeroNoise())
    st, ip, div = simulate_single_trajectories(s, standard_normal_inputs(1), 10_000, 1, seed=5)
    _, est, _, _, frozen = rls_fit(st, ip, [10_000])
    assert not frozen.any()
    assert np.linalg.norm(est[-1, 0] - np.hstack([A_STABLE, BENCH_B]), 2) <= 1e-6


def test_rls_equals_batch_ols():
    s = make_system(A_STABLE, BENCH_B, CovarianceNoise(BENCH_SIGMA_A, BENCH_SIGMA_B))
    T = 400
    st, ip, _ = simulate_single_trajectories(s, standard_normal_inputs(1), T, 1, seed=9)
    _, est, _, _, _ = rls_fit(st, ip, [T])
    phi = np.concatenate([st[0][:-1], ip[0]], axis=1)
    ols = np.linalg.lstsq(phi, st[0][1:], rcond=None)[0].T
    rel = np.linalg.norm(est[-1, 0] - ols, 2) / max(np.linalg.norm(ols, 2), 1e-300)
    assert rel <= 1e-8


def test_rls_covariance_zero_noise_tends_to_zero():
    s = make_system(A_STABLE, BENCH_B, ZeroNoise())
    T = 5000
    st, ip, _ = simulate_single_trajectories(s, standard_normal_inputs(1), T, 1, seed=6)
    _, _, sa, sb, frozen = rls_fit(st, ip, [T])
    assert not frozen.any()
    assert np.linalg.norm(np.hstack([sa[-1, 0], sb[-1, 0]]), 2) <= 1e-5


def test_rls_covariance_error_decreases_when_second_moment_stable():
    s = make_system(A_STABLE, BENCH_B, CovarianceNoise(BENCH_SIGMA_A, BENCH_SIGMA_B))
    ld = lift(s)
    truth = np.hstack([ld.sigma_a_tilde, ld.sigma_b_tilde])
    T = 40_000
    cps = [400, 40_000]
    st, ip, _ = simulate_single_trajectories(s, standard_normal_inputs(1), T, 1, seed=13)
    _, _, sa, sb, _ = rls_fit(st, ip, cps)
    errs = [np.linalg.norm(np.hstack([a, b]) - truth, 2) for a, b in zip(sa[:, 0], sb[:, 0])]
    assert errs[-1] < errs[0]


def test_marginally_stable_divergence_flag_and_freeze():
    s = make_system(A_MARGINAL, BENCH_B, CovarianceNoise(BENCH_SIGMA_A, BENCH_SIGMA_B))
    T = 3000
    st, ip, div = simulate_single_trajectories(s, standard_normal_inputs(1), T, 2, seed=11)
    assert np.all(div <= T)  # both trajectories blow up well before T
    # estimates freeze after divergence: checkpoints past the blowup agree
    traj = st[0].copy()
    uu = ip[0].copy()
    traj[div[0]:] = np.inf
    cps = [div[0] + 10, T]
    _, est, _, _, frozen = rls_fit(traj[None], uu[None], cps)
    assert frozen.all()
    assert np.array_equal(est[0, 0], est[1, 0])


def test_simulated_divergence_is_monotone():
    s = make_system(A_MARGINAL, BENCH_B, CovarianceNoise(BENCH_SIGMA_A, BENCH_SIGMA_B))
    st, ip, div = simulate_single_trajectories(s, standard_normal_inputs(1), 2000, 3, seed=21)
    for r, d in enumerate(div):
        if d <= 2000:
            # NaN from the divergence step on, within the limit before it
            assert np.isnan(st[r, d:]).all() and np.isnan(ip[r, d:]).all()
            assert np.max(np.abs(st[r, :d])) <= 1e12 and np.isfinite(ip[r, :d]).all()


def test_periodic_draws_follow_periodic_moments():
    law = design_inputs(1, 4, seed=48)
    ks = np.arange(100_000)
    for t in (0, 5, 11):
        u = law.sample(3, ks, t)
        tt = t % 4
        assert abs(u.mean() - law.nu[tt, 0]) <= 0.02
        assert abs(u.var() - law.ubar[tt, 0, 0]) <= 0.02
    # law repeats, draws do not
    u0 = law.sample(3, np.arange(10), 0)
    u4 = law.sample(3, np.arange(10), 4)
    assert not np.array_equal(u0, u4)


@pytest.mark.parametrize("reps", [1, 5, 8193])
@pytest.mark.parametrize("input_law", ["uniform", "gaussian", "deterministic"])
@pytest.mark.parametrize("preset", ["paper-4.1", "paper-4.2-rho0.8"])
def test_single_trajectories_equal_rollouts_from_zero(preset, input_law, reps):
    bundle = get_preset(preset).with_input_law(input_law)
    system, schedule = bundle.system, bundle.schedule
    states, inputs, diverged_at = simulate_single_trajectories(
        system, schedule, schedule.ell, reps, seed=31
    )
    rollouts = simulate_rollouts(system, schedule, FixedInitial(np.zeros(system.n)), reps, seed=31)
    assert np.array_equal(states, rollouts.states) and np.array_equal(inputs, rollouts.inputs)
    assert np.all(diverged_at == schedule.ell + 1)


@pytest.mark.parametrize("law", ["schedule", "gaussian"])
def test_lone_single_trajectory_equals_the_first_of_three(law):
    bundle = get_preset("paper-4.2-rho0.8")
    input_law = standard_normal_inputs(1) if law == "gaussian" else bundle.schedule
    for seed in range(8):
        one = simulate_single_trajectories(bundle.system, input_law, 200, 1, seed=seed)
        three = simulate_single_trajectories(bundle.system, input_law, 200, 3, seed=seed)
        for a, b in zip(one, three):
            assert np.array_equal(a, b[:1]), seed


def test_single_trajectory_divergence_step_is_the_one_rollouts_name():
    system = make_system(8.0 * np.eye(2), BENCH_B, CovarianceNoise(BENCH_SIGMA_A, BENCH_SIGMA_B))
    ell = 20
    schedule = InputSchedule(nu=np.zeros((ell, 1)), ubar=np.ones((ell, 1, 1)), law="gaussian")
    _, _, diverged_at = simulate_single_trajectories(system, schedule, ell, 50, seed=4)
    first = int(diverged_at.min())
    assert first <= ell and len(set(diverged_at.tolist())) > 1  # rollouts diverge at different steps
    rollout = int(np.argmax(diverged_at == first))
    with pytest.raises(SimulationDiverged, match=rf"at t={first}, rollout {rollout}$"):
        simulate_rollouts(system, schedule, FixedInitial(np.zeros(2)), 50, seed=4)


class _UnderstatedBound(CovarianceNoise):
    """Uniform covariance noise declaring a bound its draws exceed for one of Abar, Bbar."""

    def __init__(self, which):
        super().__init__(BENCH_SIGMA_A, BENCH_SIGMA_B)
        self.which = which

    def bounds(self, n, m):
        ca, cb = super().bounds(n, m)
        return (0.01, cb) if self.which == "Abar" else (ca, 0.01)


@pytest.mark.parametrize("which", ["Abar", "Bbar"])
def test_noise_beyond_its_declared_bound_fails_both_simulators(which):
    system = make_system(A_STABLE, BENCH_B, _UnderstatedBound(which))
    schedule = design_inputs(1, 4, seed=48)
    message = f"sampled {which} exceeded its declared a.s. bound"
    with pytest.raises(AssertionError, match=message):
        simulate_rollouts(system, schedule, FixedInitial(np.zeros(2)), 5, seed=1)
    with pytest.raises(AssertionError, match=message):
        simulate_single_trajectories(system, standard_normal_inputs(1), 50, 2, seed=1)


def test_covariance_from_fit_batch_axes_match_single_calls():
    rng = np.random.default_rng(9)
    n, m = 2, 1
    fit = rng.standard_normal((3, 5, 3, 6))  # nt = 3 rows; blocks 3 + 1 + 2 wide
    nominal = rng.standard_normal((3, 5, n, n + m))
    sa, sb = covariance_from_fit(fit, nominal, n)
    for idx in np.ndindex(3, 5):
        sa1, sb1 = covariance_from_fit(fit[idx], nominal[idx], n)
        assert np.array_equal(sa[idx], sa1) and np.array_equal(sb[idx], sb1)
        A_t, B_t, _, _ = lift_nominal(nominal[idx][:, :n], nominal[idx][:, n:])
        assert np.array_equal(sa1, fit[idx][:, :3] - A_t)
        assert np.array_equal(sb1, fit[idx][:, 3:4] - B_t)


# ---------------------------------------------------------------------------
# stacking and chunking: several input laws in one pass, horizons in chunks


_STACK_SYSTEMS = [
    "paper-4.2-rho0.6-nonoise",
    "paper-4.2-rho0.6",
    "paper-4.2-rho0.8",
    "paper-4.2-rho1.0",
    "paper-4.1-additive",
]


@pytest.mark.parametrize("name", _STACK_SYSTEMS)
def test_stacked_laws_equal_their_one_law_fits(name):
    bundle = get_preset(name).with_input_law("gaussian")
    system = bundle.system
    laws = (standard_normal_inputs(system.m), bundle.schedule)
    seeds = np.array([2**63 + 23, 5], dtype=np.uint64)
    T, reps, cps = 1200, 3, [6, 300, 1200]
    stacked_sim = simulate_single_trajectories(system, laws, T, reps, seeds)
    stacked_fit = rls_batch_estimates(system, laws, T, reps, seeds, cps)
    assert stacked_fit[0] == cps
    for i, (law, seed) in enumerate(zip(laws, seeds)):
        runs = slice(i * reps, (i + 1) * reps)
        alone_sim = simulate_single_trajectories(system, law, T, reps, int(seed))
        for a, b in zip(stacked_sim, alone_sim):
            assert np.array_equal(a[runs], b, equal_nan=True)
        alone_fit = rls_batch_estimates(system, law, T, reps, int(seed), cps)
        for a, b in zip(stacked_fit[1:], alone_fit[1:]):
            assert np.array_equal(a[:, runs], b)
    if name == "paper-4.2-rho1.0":
        assert (stacked_sim[2] <= T).all() and stacked_fit[-1][-1].all()  # every run froze


def test_stacked_fit_with_an_estimate_blowup_equals_each_group_alone():
    system = get_preset("paper-4.2-rho0.8").system
    T, cps = 300, [2, 4, 10, 150, 300]
    states, inputs, _ = simulate_single_trajectories(system, standard_normal_inputs(1), T, 6, 4)
    # run 4: tiny data under the diffuse prior, then an in-range state the nominal estimate cannot absorb
    states[4, :4] *= 1e-3
    inputs[4, :4] *= 1e-3
    states[4, 4] = 9e11
    phi_n = np.concatenate([states[4:5, :-1], inputs[4:5]], axis=2)
    est, _, _, freeze = _rls_batch(phi_n, states[4:5, 1:], cps)
    assert freeze[0] == T + 1 and beyond_limit(est[1]) and not beyond_limit(states[4]) and not beyond_limit(inputs[4])
    # ... so only the second-moment fit, whose response x_4 x_4' is out of range, freezes at step 4
    stacked = rls_fit(states, inputs, cps)
    assert stacked[-1][:, 4].tolist() == [False, True, True, True, True] and not stacked[-1][-1, :4].any()
    for runs in (slice(0, 3), slice(3, 6)):
        alone = rls_fit(states[runs], inputs[runs], cps)
        for a, b in zip(stacked[1:], alone[1:]):
            assert np.array_equal(a[:, runs], b)


def test_stacked_laws_need_one_seed_each():
    system = get_preset("paper-4.2-rho0.8").system
    with pytest.raises(ValueError, match="2 input laws need as many seeds, got 3"):
        simulate_single_trajectories(system, (standard_normal_inputs(1), standard_normal_inputs(1)), 10, 2, [1, 2, 3])


def test_a_law_and_its_seeds_must_both_be_one_or_both_be_sequences():
    system, law = get_preset("paper-4.2-rho0.8").system, standard_normal_inputs(1)
    for call in (simulate_single_trajectories, lambda *a: rls_batch_estimates(*a, [10])):
        with pytest.raises(ValueError, match="^one input law needs one seed, got 2 seeds$"):
            call(system, law, 10, 2, [1, 2])
        with pytest.raises(ValueError, match="^2 input laws need as many seeds, got the single seed 7$"):
            call(system, (law, law), 10, 2, 7)


def test_an_empty_sequence_of_laws_is_rejected():
    system = get_preset("paper-4.2-rho0.8").system
    for call in (simulate_single_trajectories, lambda *a: rls_batch_estimates(*a, [10])):
        with pytest.raises(ValueError, match="^the sequence of input laws is empty$"):
            call(system, (), 10, 2, [])


def test_reps_and_each_laws_input_dimension_are_checked():
    system, law, wide = get_preset("paper-4.2-rho0.8").system, standard_normal_inputs(1), standard_normal_inputs(2)
    for call in (simulate_single_trajectories, lambda *a: rls_batch_estimates(*a, [10])):
        for reps in (0, -1):
            with pytest.raises(ValueError, match=f"^reps must be a positive integer, got {reps}$"):
                call(system, law, 50, reps, 7)
        with pytest.raises(ValueError, match="^input law 0 has m = 2 but the system has m = 1$"):
            call(system, wide, 50, 2, 7)
        with pytest.raises(ValueError, match="^input law 1 has m = 2 but the system has m = 1$"):
            call(system, (law, wide), 50, 2, [7, 8])


@pytest.mark.parametrize(
    "chunk",
    [
        lambda first, last: first - 1,  # the first freezing state is made at the first step of a chunk
        lambda first, last: first,  # ... at the last step of a chunk
        lambda first, last: first + 3,  # ... mid-chunk
        lambda first, last: last - 1,  # the last trajectory freezes at the first step of a chunk
        lambda first, last: last,  # ... at the last step of a chunk, so the simulation stops at the next chunk
        lambda first, last: system_model.TIME_CHUNK,
    ],
    ids=["first-opens", "first-closes", "first-mid", "last-opens", "last-closes", "module"],
)
def test_chunked_simulation_equals_the_whole_horizon(monkeypatch, chunk):
    bundle = get_preset("paper-4.2-rho1.0").with_input_law("gaussian")
    laws, seeds = (standard_normal_inputs(1), bundle.schedule), [23, 5]
    T, reps = 1200, 3
    with monkeypatch.context() as m:
        m.setattr(system_model, "TIME_CHUNK", T)
        whole = simulate_single_trajectories(bundle.system, laws, T, reps, seeds)
    diverged_at = whole[2]
    first, last = int(diverged_at.min()), int(diverged_at.max())
    assert last <= T and first < last  # every trajectory freezes, at different steps
    monkeypatch.setattr(system_model, "TIME_CHUNK", chunk(first, last))
    chunked = simulate_single_trajectories(bundle.system, laws, T, reps, seeds)
    for a, b in zip(chunked, whole):
        assert np.array_equal(a, b, equal_nan=True)


@pytest.mark.parametrize("chunk", [1, 3, 256])
def test_diverged_trajectories_are_nan_from_their_divergence_step_on(monkeypatch, chunk):
    system, _ = _oracle_case("paper-4.2-rho1.0")
    T, reps, law = 1200, 5, standard_normal_inputs(1)
    ref = _ref_simulate(system, law, T, reps, 23)
    monkeypatch.setattr(system_model, "TIME_CHUNK", chunk)
    states, inputs, diverged_at = simulate_single_trajectories(system, law, T, reps, 23)
    assert diverged_at.tolist() == [242, 536, 806, 336, 635]  # as the held-state simulator found them
    assert np.array_equal(diverged_at, ref[2])
    for r, d in enumerate(diverged_at):
        assert np.array_equal(states[r, :d], ref[0][r, :d]) and np.array_equal(inputs[r, :d], ref[1][r, :d])
        assert np.isnan(states[r, d:]).all() and np.isnan(inputs[r, d:]).all()


@pytest.mark.parametrize("chunk", [64, 256])
def test_no_draw_is_made_once_every_trajectory_has_diverged(monkeypatch, chunk):
    system, _ = _oracle_case("paper-4.2-rho1.0")
    law, drawn = standard_normal_inputs(1), {"input": set(), "noise": set()}

    def recording(key, draw):
        # the kernel draws through ``draw``, from the step keys of the steps t
        def wrapped(keys, t, *args):
            drawn[key].update(np.atleast_1d(t).tolist())
            return draw(keys, t, *args)

        return wrapped

    monkeypatch.setattr(law, "draw", recording("input", law.draw))
    monkeypatch.setattr(system.noise, "draw", recording("noise", system.noise.draw))
    monkeypatch.setattr(system_model, "TIME_CHUNK", chunk)
    T = 2500
    _, _, diverged_at = simulate_single_trajectories(system, law, T, 4, 8)
    stop = -(-int(diverged_at.max()) // chunk) * chunk  # the first chunk start at or after the last divergence
    assert stop < T
    assert drawn["input"] == drawn["noise"] == set(range(stop))


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_rls_bad_entry_at_a_chunk_boundary_freezes_like_reference(offset):
    C = system_model.TIME_CHUNK
    rng = np.random.default_rng(5)
    T = 2 * C + 8
    phi = rng.standard_normal((6, T, 3))
    target = rng.standard_normal((6, T, 2))
    at = C + offset  # 0-based data index near the first chunk boundary
    phi[0, at, 1] = np.nan
    target[1, at, 0] = np.inf
    phi[2, C + at] = 2e12  # near the second boundary
    phi[3, : at + 1] *= 1e-4  # tiny regressors, then a large in-range response: no freeze
    target[3, at] = 9e11
    target[4, C + at, 1] = -np.inf
    out, diverged, _, freeze = _assert_rls_matches_reference(phi, target, [1, C - 1, C, C + 1, T])
    assert freeze.tolist() == [at + 1, at + 1, C + at + 1, T + 1, C + at + 1, T + 1]
    assert diverged.tolist() == [True, True, True, False, True, False]


def test_stacked_law_seeds_follow_the_one_law_rule():
    bundle = get_preset("paper-4.2-rho0.8")
    system, law, T, reps = bundle.system, bundle.schedule, 10, 2
    seeds = [-1, 2**64 - 1, 2**64, np.uint64(7)]
    stacked = simulate_single_trajectories(system, (law,) * len(seeds), T, reps, seeds)
    for i, seed in enumerate(seeds):
        alone = simulate_single_trajectories(system, law, T, reps, seed)
        for a, b in zip(stacked, alone):
            assert np.array_equal(a[i * reps : (i + 1) * reps], b)
    assert np.array_equal(stacked[0][:reps], stacked[0][reps : 2 * reps])  # -1 is 2^64 - 1
    for seed, index in (([1.5, 5], 0), ([5, np.float64(2.0)], 1)):
        with pytest.raises(ValueError, match=f"^seed {index} must be an integer, got "):
            simulate_single_trajectories(system, (law, law), T, reps, seed)
    with pytest.raises(ValueError, match="^seed 0 must be an integer, got 1.5$"):
        simulate_single_trajectories(system, law, T, reps, 1.5)
