import re

import numpy as np
import pytest

from multinoise.mals import design_inputs, empirical_moments, solve
from multinoise.moment_oracle import (
    assemble_population,
    check_excitation,
    controllable,
    lift,
    lift_nominal,
    propagate_first,
    propagate_second,
    propagate_second_reduced,
    input_moments,
)
from multinoise.bounds import bound_context
from multinoise.cli import main
from multinoise.identifiability import equivalence_class, sigma_from_class
from multinoise.presets import get_preset
from multinoise.shape_ops import selection_matrices, smat, svec, vec
from multinoise.system_model import (
    CovarianceNoise,
    FixedInitial,
    InputSchedule,
    ZeroNoise,
    PSD_SLACK,
    is_psd,
    make_system,
    simulate_rollouts,
)

from conftest import (
    BENCH_A,
    BENCH_B,
    BENCH_SIGMA_A,
    BENCH_SIGMA_B,
    BENCH_SIGMA_A_TILDE,
    BENCH_SIGMA_B_TILDE,
)


def test_lift_benchmark_reduced_covariances(bench_system):
    ld = lift(bench_system)
    assert np.max(np.abs(ld.sigma_a_tilde - BENCH_SIGMA_A_TILDE)) <= 1e-12
    assert np.max(np.abs(ld.sigma_b_tilde - BENCH_SIGMA_B_TILDE)) <= 1e-12
    # roundtrip: F(sigma_a_prime) = sigma_a
    from multinoise.shape_ops import reshape_F

    assert np.allclose(reshape_F(ld.sigma_a_prime, 2, 2, 2, 2), BENCH_SIGMA_A, atol=0)


def test_lift_zero_noise():
    ld = lift(make_system(BENCH_A, BENCH_B, ZeroNoise()))
    assert np.all(ld.sigma_a_tilde == 0) and np.all(ld.sigma_b_tilde == 0)


def test_lifted_nominal_matrices_symbolic_forms():
    # n = 2, m = 1 closed forms of the reduced nominal matrices
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    B = np.array([[5.0], [6.0]])
    a11, a12, a21, a22 = 1.0, 2.0, 3.0, 4.0
    b1, b2 = 5.0, 6.0
    A_t, B_t, K_BA, K_AB = lift_nominal(A, B)
    expect_A = np.array(
        [
            [a11 * a11, a11 * a12 + a12 * a11, a12 * a12],
            [a11 * a21, a11 * a22 + a12 * a21, a12 * a22],
            [a21 * a21, a21 * a22 + a22 * a21, a22 * a22],
        ]
    )
    expect_B = np.array([[b1 * b1], [b1 * b2], [b2 * b2]])
    # K_BA = P1 (B kron A) multiplies vec(E x u'); K_AB = P1 (A kron B)
    expect_K_BA = np.array([[a11 * b1, a12 * b1], [a21 * b1, a22 * b1], [a21 * b2, a22 * b2]])
    expect_K_AB = np.array([[a11 * b1, a12 * b1], [a11 * b2, a12 * b2], [a21 * b2, a22 * b2]])
    assert np.allclose(A_t, expect_A, atol=0)
    assert np.allclose(B_t, expect_B, atol=0)
    assert np.allclose(K_BA, expect_K_BA, atol=0)
    assert np.allclose(K_AB, expect_K_AB, atol=0)


def test_propagate_first_trivial():
    sched = InputSchedule(nu=np.zeros((5, 1)), ubar=np.zeros((5, 1, 1)), law="deterministic")
    mu = propagate_first(BENCH_A, BENCH_B, sched, np.zeros(2))
    assert np.all(mu == 0)
    sched2 = InputSchedule(nu=np.ones((5, 1)), ubar=np.zeros((5, 1, 1)), law="deterministic")
    mu2 = propagate_first(np.eye(2), np.zeros((2, 1)), sched2, np.array([1.0, -1.0]))
    assert np.all(mu2 == np.array([1.0, -1.0]))


def test_propagate_second_zero_everything(bench_schedule):
    s = make_system(BENCH_A, BENCH_B, CovarianceNoise(BENCH_SIGMA_A, BENCH_SIGMA_B))
    sched = InputSchedule(nu=np.zeros((4, 1)), ubar=np.zeros((4, 1, 1)), law="deterministic")
    tr = propagate_second(s, sched, np.zeros(2))
    assert np.all(tr.x_t == 0) and np.all(tr.mu == 0)


def test_propagate_second_full_vec_cross_check(bench_system, bench_schedule):
    """Independent oracle: run the unreduced n^2-dimensional recursion."""
    tr = propagate_second(bench_system, bench_schedule, np.zeros(2))
    ld = lift(bench_system)
    n = 2
    AA = np.kron(BENCH_A, BENCH_A) + ld.sigma_a_prime
    BB = np.kron(BENCH_B, BENCH_B) + ld.sigma_b_prime
    BA = np.kron(BENCH_B, BENCH_A)
    AB = np.kron(BENCH_A, BENCH_B)
    X = vec(np.zeros((n, n)))
    mu = np.zeros(n)
    for t in range(bench_schedule.ell):
        nu = bench_schedule.nu[t]
        U = vec(bench_schedule.input_second_moment(t))
        W = vec(np.outer(mu, nu))
        Wp = vec(np.outer(nu, mu))
        X = AA @ X + BB @ U + BA @ W + AB @ Wp
        mu = BENCH_A @ mu + BENCH_B @ nu
        assert np.allclose(svec(X.reshape(n, n, order="F")), tr.x_t[t + 1], atol=1e-12)
        assert np.allclose(mu, tr.mu[t + 1], atol=1e-13)


def test_input_moments_equal_the_per_step_loop():
    rng = np.random.default_rng(12)
    for n, m in ((1, 1), (3, 2), (5, 5)):
        sched = design_inputs(m, 7, seed=n)
        mu = rng.standard_normal((sched.ell + 1, n))
        w, w_p, u_t = input_moments(mu, sched)
        for t in range(sched.ell):
            assert np.array_equal(w[t], vec(np.outer(mu[t], sched.nu[t])))
            assert np.array_equal(w_p[t], vec(np.outer(sched.nu[t], mu[t])))
            assert u_t[t].tobytes() == svec(sched.ubar[t] + np.outer(sched.nu[t], sched.nu[t])).tobytes()


@pytest.mark.parametrize("min_eig, accepted", [(-0.5 * PSD_SLACK, True), (-2.0 * PSD_SLACK, False)])
def test_one_psd_rule_for_noise_initial_moments_and_class_members(bench_schedule, min_eig, accepted):
    # an initial covariance, a noise covariance and a class member of unit
    # scale whose smallest eigenvalue is min_eig get the same verdict
    cov = np.diag([1.0, min_eig])
    assert is_psd(cov) == accepted
    mu0 = np.array([0.5, -0.25])
    x_t0 = svec(cov + np.outer(mu0, mu0))
    cov0 = smat(x_t0, 2) - np.outer(mu0, mu0)
    assert is_psd(cov0) == accepted
    if accepted:
        propagate_second_reduced(
            BENCH_A, BENCH_B, BENCH_SIGMA_A_TILDE, BENCH_SIGMA_B_TILDE, bench_schedule, mu0, x_t0
        )
        CovarianceNoise(np.diag([1.0, 1.0, 1.0, min_eig]), np.eye(2))
    else:
        with pytest.raises(ValueError, match="PSD"):
            propagate_second_reduced(
                BENCH_A, BENCH_B, BENCH_SIGMA_A_TILDE, BENCH_SIGMA_B_TILDE, bench_schedule, mu0, x_t0
            )
        with pytest.raises(ValueError, match="positive semidefinite"):
            CovarianceNoise(np.diag([1.0, 1.0, 1.0, min_eig]), np.eye(2))
    ec = equivalence_class(np.array([[min_eig]]), np.ones((1, 1)), 1, 1)
    assert sigma_from_class(ec, np.zeros(0), np.zeros(0))[2] == accepted


def test_propagate_second_rejects_bad_initial_moment(bench_system, bench_schedule):
    with pytest.raises(ValueError, match="PSD"):
        propagate_second(bench_system, bench_schedule, np.array([1.0, 0.0]), np.zeros(3))
    with pytest.raises(ValueError, match="PSD"):
        propagate_second_reduced(
            BENCH_A, BENCH_B, BENCH_SIGMA_A_TILDE, BENCH_SIGMA_B_TILDE, bench_schedule,
            np.array([1.0, 0.0]), np.zeros(3),
        )


def test_lift_nominal_batch_axes_match_single_calls():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((4, 3, 3, 3))
    B = rng.standard_normal((4, 3, 3, 2))
    batched = lift_nominal(A, B)
    P1, Q1 = selection_matrices(3).P, selection_matrices(3).Q
    for idx in np.ndindex(4, 3):
        single = lift_nominal(A[idx], B[idx])
        for got, one in zip(batched, single):
            assert np.array_equal(got[idx], one)
        assert np.array_equal(single[0], P1 @ np.kron(A[idx], A[idx]) @ Q1)


def test_equivalence_class_gives_identical_dynamics(bench_schedule):
    from multinoise.presets import benchmark_sigma_a_alpha

    s1 = make_system(BENCH_A, BENCH_B, CovarianceNoise(BENCH_SIGMA_A, BENCH_SIGMA_B))
    s2 = make_system(
        BENCH_A, BENCH_B, CovarianceNoise(benchmark_sigma_a_alpha(1.0), BENCH_SIGMA_B)
    )
    t1 = propagate_second(s1, bench_schedule, np.zeros(2))
    t2 = propagate_second(s2, bench_schedule, np.zeros(2))
    assert np.max(np.abs(t1.x_t - t2.x_t)) <= 1e-12


def test_second_moment_psd_preservation():
    rng = np.random.default_rng(11)
    for trial in range(10):
        n, m = 3, 2
        A = 0.6 * rng.standard_normal((n, n))
        B = rng.standard_normal((n, m))
        La = 0.3 * rng.standard_normal((n * n, n * n))
        Lb = 0.3 * rng.standard_normal((n * m, n * m))
        s = make_system(A, B, CovarianceNoise(La @ La.T, Lb @ Lb.T))
        sched = design_inputs(m, 8, seed=trial)
        x0 = rng.standard_normal(n)
        cov0 = rng.standard_normal((n, n))
        xt0 = svec(np.outer(x0, x0) + cov0 @ cov0.T)
        tr = propagate_second(s, sched, x0, xt0)
        for t in range(sched.ell + 1):
            gap = smat(tr.x_t[t], n) - np.outer(tr.mu[t], tr.mu[t])
            assert np.min(np.linalg.eigvalsh(gap)) >= -1e-9


def test_population_recovery_identities(bench_system, bench_schedule):
    reg, tr = assemble_population(bench_system, bench_schedule, np.zeros(2))
    rep = check_excitation(reg, 2, 1)
    assert rep.pass_z and rep.pass_d
    res = solve(tr)
    ld = lift(bench_system)
    assert np.linalg.norm(res.nominal() - np.hstack([BENCH_A, BENCH_B]), 2) <= 1e-10
    truth = np.hstack([ld.sigma_a_tilde, ld.sigma_b_tilde])
    assert np.linalg.norm(res.covariance() - truth, 2) <= 1e-10


def test_degenerate_zero_input_fails_excitation():
    s = make_system(BENCH_A, BENCH_B, CovarianceNoise(BENCH_SIGMA_A, BENCH_SIGMA_B))
    sched = InputSchedule(nu=np.zeros((6, 1)), ubar=np.zeros((6, 1, 1)), law="deterministic")
    reg, _ = assemble_population(s, sched, np.zeros(2))
    rep = check_excitation(reg, 2, 1)
    assert not rep.pass_z and not rep.pass_d
    assert np.all(reg.Z[:2] == 0)  # mu rows identically zero


def test_short_schedule_fails_z_threshold():
    s = make_system(BENCH_A, BENCH_B, CovarianceNoise(BENCH_SIGMA_A, BENCH_SIGMA_B))
    sched = design_inputs(1, 2, seed=0)  # ell = 2 < n + m = 3
    reg, _ = assemble_population(s, sched, np.zeros(2))
    rep = check_excitation(reg, 2, 1)
    assert not rep.pass_z


def test_stationary_schedule_fails_d_rank():
    """Start at the fixed point of both moment recursions with constant inputs:
    every column of D repeats, so D D' is singular."""
    A = np.array([[0.6, 0.2], [0.0, 0.6]])
    s = make_system(A, BENCH_B, CovarianceNoise(BENCH_SIGMA_A, BENCH_SIGMA_B))
    ld = lift(s)
    nu = np.array([0.7])
    ell = 12
    sched = InputSchedule(nu=np.tile(nu, (ell, 1)), ubar=np.zeros((ell, 1, 1)), law="deterministic")
    mu_star = np.linalg.solve(np.eye(2) - A, BENCH_B @ nu)
    At = ld.A_t + ld.sigma_a_tilde
    Bt = ld.B_t + ld.sigma_b_tilde
    ut = svec(np.outer(nu, nu))
    w = vec(np.outer(mu_star, nu))
    wp = vec(np.outer(nu, mu_star))
    rhs = Bt @ ut + ld.K_BA @ w + ld.K_AB @ wp
    xt_star = np.linalg.solve(np.eye(3) - At, rhs)
    reg, tr = assemble_population(s, sched, mu_star, xt_star)
    assert np.max(np.abs(tr.x_t - xt_star)) <= 1e-10  # really stationary
    rep = check_excitation(reg, 2, 1)
    assert not rep.pass_d


def test_excitation_ell_thresholds(bench_system, bench_schedule):
    reg, _ = assemble_population(bench_system, bench_schedule, np.zeros(2))
    rep = check_excitation(reg, 2, 1)
    assert rep.ell_needed_z == 3
    assert rep.ell_needed_d == 4
    assert rep.ell == 4


def test_controllable():
    assert controllable(BENCH_A, BENCH_B)
    assert not controllable(np.eye(2), np.array([[1.0], [0.0]]))


def test_lifted_pair_controllable(bench_system):
    ld = lift(bench_system)
    assert controllable(ld.A_t + ld.sigma_a_tilde, ld.B_t + ld.sigma_b_tilde)


def test_monte_carlo_error_shrinks(bench_system, bench_schedule, zero_init):
    tr = propagate_second(bench_system, bench_schedule, np.zeros(2))
    errs = []
    for n_r in (1000, 100_000):
        rollouts = simulate_rollouts(bench_system, bench_schedule, zero_init, n_r, seed=77)
        em = empirical_moments(rollouts)
        errs.append(np.linalg.norm(em.x_t - tr.x_t))
    assert errs[1] < errs[0]


def test_trajectory_csv_export(tmp_path, bench_system, bench_schedule):
    tr = propagate_second(bench_system, bench_schedule, np.zeros(2))
    assert main(["oracle", "--preset", "paper-4.1", "--out", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "moments.csv")
    assert header == ["t", "mu_1", "mu_2", "Xt_11", "Xt_21", "Xt_22"]
    assert len(rows) == bench_schedule.ell + 1
    got = np.array([[float(v) for v in row[1:]] for row in rows])
    assert np.allclose(got[:, :2], tr.mu, atol=0)
    assert np.allclose(got[:, 2:], tr.x_t, atol=0)


def test_reduced_propagation_checks_the_reduced_covariance_shapes():
    bundle = get_preset("paper-4.1")
    system, schedule, mu0 = bundle.system, bundle.schedule, bundle.init.mean
    ld = lift(system)
    with pytest.raises(ValueError, match=re.escape("SigmaA_tilde shape (2, 2) != (3, 3)")):
        propagate_second_reduced(system.A, system.B, np.eye(2), ld.sigma_b_tilde, schedule, mu0)
    with pytest.raises(ValueError, match=re.escape("SigmaB_tilde shape (3, 3) != (3, 1)")):
        propagate_second_reduced(system.A, system.B, ld.sigma_a_tilde, np.eye(3), schedule, mu0)


def _read_csv(path):
    import csv

    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r)
        return header, list(r)


def test_exact_moment_functions_check_the_dimensions_first():
    bundle = get_preset("paper-4.1")
    system, init, wide = bundle.system, bundle.init, get_preset("paper-4.1-additive").schedule
    calls = (
        lambda sched, init: propagate_second(system, sched, init.mean, svec(init.second_moment)),
        lambda sched, init: assemble_population(system, sched, init.mean, svec(init.second_moment)),
        lambda sched, init: bound_context(system, sched, init, 100),
    )
    for call in calls:
        with pytest.raises(ValueError, match="^schedule input dim 2 != system m 1$"):
            call(wide, init)
        with pytest.raises(ValueError, match="^initial state dim 3 != system n 2$"):
            call(bundle.schedule, FixedInitial(np.zeros(3)))
