import json

import numpy as np
import pytest

from multinoise.identifiability import (
    IndependenceConstraints,
    build_E_alpha,
    build_E_beta,
    classify_uniqueness,
    entry_map,
    equivalence_class,
    off_pairs,
    project_psd,
    recover_under_constraints,
    reduced_from_full,
    sigma_from_class,
)
from multinoise.moment_oracle import lift
from multinoise.shape_ops import selection_matrices, svec_dim
from multinoise.system_model import CovarianceNoise, make_system

from conftest import (
    BENCH_SIGMA_A,
    BENCH_SIGMA_B,
    BENCH_SIGMA_A_TILDE,
    BENCH_SIGMA_B_TILDE,
)


def _random_psd(rng, d, scale=1.0):
    L = rng.standard_normal((d, d)) * scale
    return L @ L.T


# --- entry map ---------------------------------------------------------------


def test_entry_map_off_diagonal_single_term():
    em = entry_map(1, 2, 1, 1, 2)
    assert (em.row, em.col) == (2, 1)
    assert em.case == "col-aligned"
    # single term E{Abar_11 Abar_21}: positions (1,1) of vec pairs -> SigmaA[1, 2] 1-based
    assert em.terms == [(1.0, (1, 2))]


def test_entry_map_coefficient_two():
    em = entry_map(1, 1, 1, 2, 2)
    assert (em.row, em.col) == (1, 2)
    assert em.case == "row-coupled"
    assert em.terms == [(2.0, (1, 3))]  # 2 E{Abar_11 Abar_12}


def test_entry_map_coupled_sum():
    em = entry_map(1, 2, 1, 2, 2)
    assert (em.row, em.col) == (2, 2)
    assert em.case == "coupled-sum"
    assert em.terms == [(1.0, (1, 4)), (1.0, (3, 2))]  # E{A11 A22} + E{A12 A21}


def test_entry_map_rejects_bad_indices():
    with pytest.raises(ValueError):
        entry_map(2, 1, 1, 1, 2)
    with pytest.raises(ValueError):
        entry_map(1, 3, 1, 1, 2)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_entry_map_positions_are_a_bijection(n):
    seen = {}
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            for k in range(1, n + 1):
                for l in range(k, n + 1):
                    em = entry_map(i, j, k, l, n)
                    assert (em.row, em.col) not in seen
                    seen[(em.row, em.col)] = (i, j, k, l)
    d = svec_dim(n)
    assert len(seen) == d * d
    assert set(seen) == {(r, c) for r in range(1, d + 1) for c in range(1, d + 1)}


def test_reduced_from_full_matches_lift(bench_system):
    ld = lift(bench_system)
    assert np.allclose(reduced_from_full(BENCH_SIGMA_A, 2), ld.sigma_a_tilde, atol=1e-14)
    assert np.allclose(reduced_from_full(BENCH_SIGMA_B, 2, m=1), ld.sigma_b_tilde, atol=1e-14)


def test_reduced_from_full_matches_lift_random():
    rng = np.random.default_rng(13)
    n, m = 3, 2
    sa = _random_psd(rng, n * n)
    sb = _random_psd(rng, n * m)
    s = make_system(0.3 * rng.standard_normal((n, n)), rng.standard_normal((n, m)),
                    CovarianceNoise(sa, sb))
    ld = lift(s)
    assert np.allclose(reduced_from_full(sa, n), ld.sigma_a_tilde, atol=1e-12)
    assert np.allclose(reduced_from_full(sb, n, m=m), ld.sigma_b_tilde, atol=1e-12)


# --- E_alpha / E_beta ----------------------------------------------------------


def test_build_E_alpha_single_summand_n2():
    E = build_E_alpha([1.0], 2)
    expect = np.zeros((4, 4))
    expect[1, 1] = expect[2, 2] = 1.0
    expect[1, 2] = expect[2, 1] = -1.0
    assert np.array_equal(E, expect)


def test_build_E_alpha_zero():
    assert np.all(build_E_alpha(np.zeros(9), 3) == 0)


def test_build_E_alpha_linear():
    rng = np.random.default_rng(14)
    a1, a2 = rng.standard_normal(9), rng.standard_normal(9)
    assert np.allclose(
        build_E_alpha(a1 + a2, 3), build_E_alpha(a1, 3) + build_E_alpha(a2, 3), atol=0
    )


def test_build_E_beta_empty_when_m1():
    E = build_E_beta(np.zeros(0), 2, 1)
    assert E.shape == (4, 1)
    assert np.all(E == 0)


def test_E_alpha_reduces_to_zero():
    rng = np.random.default_rng(15)
    for n in (2, 3, 4):
        sm = selection_matrices(n)
        alpha = rng.standard_normal(len(off_pairs(n)) ** 2)
        assert np.max(np.abs(sm.P @ build_E_alpha(alpha, n) @ sm.Q)) == 0.0


def test_E_beta_reduces_to_zero():
    rng = np.random.default_rng(16)
    n, m = 3, 2
    smn, smm = selection_matrices(n), selection_matrices(m)
    beta = rng.standard_normal(len(off_pairs(n)) * len(off_pairs(m)))
    assert np.max(np.abs(smn.P @ build_E_beta(beta, n, m) @ smm.Q)) == 0.0


def test_shape_checks():
    with pytest.raises(ValueError):
        build_E_alpha([1.0, 2.0], 2)
    with pytest.raises(ValueError):
        build_E_beta([1.0], 2, 1)


# --- the class ------------------------------------------------------------------


def test_class_dimensions(bench_system):
    ec = equivalence_class(BENCH_SIGMA_A_TILDE, BENCH_SIGMA_B_TILDE, 2, 1)
    assert ec.d_alpha == 1 and ec.d_beta == 0


def test_benchmark_class_members():
    ec = equivalence_class(BENCH_SIGMA_A_TILDE, BENCH_SIGMA_B_TILDE, 2, 1)
    # class coordinate -1/40 reproduces the original pair
    sa, sb, psd_a, psd_b = sigma_from_class(ec, [-1.0 / 40.0], [])
    assert np.allclose(sa, BENCH_SIGMA_A, atol=1e-14)
    assert np.allclose(sb, BENCH_SIGMA_B, atol=1e-14)
    assert psd_a and psd_b
    # +1/40 is the displayed strictly positive member
    from multinoise.presets import benchmark_sigma_a_alpha

    sa1, _, psd1, _ = sigma_from_class(ec, [1.0 / 40.0], [])
    assert np.allclose(sa1, benchmark_sigma_a_alpha(1.0), atol=1e-14)
    assert psd1
    assert np.min(np.linalg.eigvalsh(sa1)) > 0  # strictly positive definite


def test_class_members_re_reduce_exactly():
    rng = np.random.default_rng(17)
    n, m = 3, 2
    sa = _random_psd(rng, n * n)
    sb = _random_psd(rng, n * m)
    sat = reduced_from_full(sa, n)
    sbt = reduced_from_full(sb, n, m=m)
    ec = equivalence_class(sat, sbt, n, m)
    for _ in range(5):
        alpha = 0.1 * rng.standard_normal(ec.d_alpha)
        beta = 0.1 * rng.standard_normal(ec.d_beta)
        ca, cb, _, _ = sigma_from_class(ec, alpha, beta)
        assert np.max(np.abs(reduced_from_full(ca, n) - sat)) <= 1e-12
        assert np.max(np.abs(reduced_from_full(cb, n, m=m) - sbt)) <= 1e-12


def test_class_json_export():
    ec = equivalence_class(BENCH_SIGMA_A_TILDE, BENCH_SIGMA_B_TILDE, 2, 1)
    d = json.loads(ec.to_json())
    assert set(d) == {
        "n", "m", "SigmaA_tilde", "SigmaB_tilde", "d_alpha", "d_beta",
        "base_SigmaA", "base_SigmaB",
    }
    assert d["d_alpha"] == 1 and d["d_beta"] == 0
    base = np.array(d["base_SigmaA"])
    assert np.allclose(reduced_from_full(base, 2), BENCH_SIGMA_A_TILDE, atol=1e-14)


# --- uniqueness ------------------------------------------------------------------


def test_uniqueness_scalar_system():
    v = classify_uniqueness(1, 1, np.array([[0.5]]), np.array([[0.2]]))
    assert v.overall == "Unique"


def test_uniqueness_benchmark():
    v = classify_uniqueness(2, 1, BENCH_SIGMA_A, BENCH_SIGMA_B)
    assert v.a_part == "InfinitelyMany"
    assert v.b_part == "Unique"
    assert v.overall == "InfinitelyMany"


def test_uniqueness_degenerate_zero_sigma_a():
    from multinoise.identifiability import scan_psd_feasible

    v = classify_uniqueness(2, 1, np.zeros((4, 4)), BENCH_SIGMA_B)
    assert v.a_part == "UndeterminedByProp2"
    # numerical scan: with a zero base only alpha = 0 stays PSD
    ec = equivalence_class(np.zeros((3, 3)), BENCH_SIGMA_B_TILDE, 2, 1)
    assert scan_psd_feasible(ec, np.linspace(-1.0, 1.0, 41)) == [0.0]


def test_uniqueness_requires_covariances_of_the_system_size():
    with pytest.raises(ValueError, match=r"^SigmaA shape \(3, 3\) != \(4, 4\)$"):
        classify_uniqueness(2, 1, np.eye(3), np.eye(2))
    with pytest.raises(ValueError, match=r"^SigmaB shape \(2, 2\) != \(4, 4\)$"):
        classify_uniqueness(2, 2, np.eye(4), np.eye(2))


def test_the_class_and_the_verdict_check_their_sizes_where_they_enter():
    with pytest.raises(ValueError, match=r"^SigmaA_tilde shape \(2, 2\) != \(3, 3\)$"):
        equivalence_class(np.zeros((2, 2)), np.zeros((3, 1)), 2, 1)
    with pytest.raises(ValueError, match=r"^SigmaB_tilde shape \(3, 2\) != \(3, 1\)$"):
        equivalence_class(np.zeros((3, 3)), np.zeros((3, 2)), 2, 1)
    for n, m, bad in ((0, 1, "n"), (1, 0, "m"), (2.0, 1, "n"), (2, True, "m")):
        with pytest.raises(ValueError, match=f"^{bad} must be a positive integer, got "):
            equivalence_class(np.zeros((3, 3)), np.zeros((3, 1)), n, m)
        with pytest.raises(ValueError, match=f"^{bad} must be a positive integer, got "):
            classify_uniqueness(n, m, np.zeros((0, 0)), np.zeros((0, 0)))
    ec = equivalence_class(BENCH_SIGMA_A_TILDE.tolist(), BENCH_SIGMA_B_TILDE, np.int64(2), np.int64(1))
    assert ec.to_json() == equivalence_class(BENCH_SIGMA_A_TILDE, BENCH_SIGMA_B_TILDE, 2, 1).to_json()


# --- constrained recovery ----------------------------------------------------------


def test_recovery_with_supplied_tau():
    # tau = E{A11 A22} - E{A12 A21} = (0 - 2)/40 pins the benchmark pair
    cons = IndependenceConstraints(2, gamma=1.0, delta=-1.0, tau=np.array([[-2.0 / 40.0]]))
    rec, psd = recover_under_constraints(BENCH_SIGMA_A_TILDE, cons)
    assert np.allclose(rec, BENCH_SIGMA_A, atol=1e-14)
    assert psd


@pytest.mark.parametrize("n", [2, 3, 4])
def test_diagonal_preset_recovers_diagonal_sigma(n):
    rng = np.random.default_rng(18 + n)
    diag = np.diag(rng.random(n * n))
    sat = reduced_from_full(diag, n)
    rec, psd = recover_under_constraints(sat, IndependenceConstraints(n))
    assert np.allclose(rec, diag, atol=1e-12)
    assert psd


def test_recovery_n1_trivial():
    sat = np.array([[0.7]])
    rec, psd = recover_under_constraints(sat, IndependenceConstraints(1))
    assert rec.shape == (1, 1)
    assert rec[0, 0] == pytest.approx(0.7)
    assert psd


def test_constraints_reject_gamma_equal_delta():
    with pytest.raises(ValueError):
        IndependenceConstraints(2, gamma=1.0, delta=1.0)


def test_recovery_rejects_a_reduced_matrix_of_the_wrong_shape():
    # three rows fit n = 2, but a reduced SigmaA must be square
    with pytest.raises(ValueError, match="reduced matrix size does not match"):
        recover_under_constraints(np.ones((3, 2)), IndependenceConstraints(2))


# --- PSD projection -------------------------------------------------------------


def test_project_psd_keeps_psd_input():
    rng = np.random.default_rng(20)
    S = _random_psd(rng, 4)
    assert np.allclose(project_psd(S), S, atol=1e-12)


def test_project_psd_clips_diagonal():
    assert np.allclose(project_psd(np.diag([1.0, -0.5])), np.diag([1.0, 0.0]), atol=0)


def test_project_psd_idempotent_and_minimal():
    rng = np.random.default_rng(21)
    R = rng.standard_normal((4, 4))
    S = R + R.T  # indefinite almost surely
    P = project_psd(S)
    assert np.min(np.linalg.eigvalsh(P)) >= -1e-12
    assert np.allclose(project_psd(P), P, atol=1e-12)
    dist = np.linalg.norm(P - S, "fro")
    for _ in range(100):
        Q = _random_psd(rng, 4)
        assert dist <= np.linalg.norm(Q - S, "fro") + 1e-12
