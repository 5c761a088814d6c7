"""Property test: on exact population moments, ``solve`` recovers the truth
whenever both Grams pass the excitation check.

The nominal error is measured relative to ||[A B]||.  The residuals C are
differences of second moments that can be far larger than the noise, and
they are formed with (A_hat, B_hat), so the covariance error is measured
relative to the whole reduced second-moment map [At + sigma_a_tilde,
Bt + sigma_b_tilde] and scaled by the worse of the two Grams' conditions.
"""

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from multinoise.mals import design_inputs, solve
from multinoise.moment_oracle import assemble_population, check_excitation, lift
from multinoise.system_model import CovarianceNoise, make_system

#: Relative error allowed per unit of the Gram's condition number lambda_max / lambda_min.
REL_TOL_PER_KAPPA = 1e-12

#: Entries on a grid of step 1/64 in [-1, 1], so no draw is vanishingly small but nonzero.
unit = st.integers(min_value=-64, max_value=64).map(lambda k: k / 64)


def arrays(shape):
    return hnp.arrays(np.float64, shape, elements=unit)


@st.composite
def excited_setups(draw):
    """A random system with n <= 4, m <= n, PSD noise covariances and a designed schedule."""
    n = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=1, max_value=n))
    A = draw(arrays((n, n)))
    B = draw(arrays((n, m)))
    scale = draw(st.floats(min_value=0.0, max_value=0.3))
    # G G' is PSD of any rank up to the full size
    ga = draw(arrays((n * n, draw(st.integers(1, n * n)))))
    gb = draw(arrays((n * m, draw(st.integers(1, n * m)))))
    system = make_system(A, B, CovarianceNoise(scale * ga @ ga.T, scale * gb @ gb.T))
    ell_needed = (n * (n + 1) + m * (m + 1)) // 2
    ell = draw(st.integers(min_value=ell_needed, max_value=ell_needed + 6))
    schedule = design_inputs(m, ell, seed=draw(st.integers(0, 2**31)))
    mu0 = draw(arrays((n,)))
    return system, schedule, mu0


def rel_err(est, truth):
    return np.linalg.norm(est - truth, 2) / np.linalg.norm(truth, 2)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(excited_setups())
def test_solve_recovers_truth_from_exact_moments(setup):
    system, schedule, mu0 = setup
    reg, tr = assemble_population(system, schedule, mu0)
    rep = check_excitation(reg, system.n, system.m)
    nominal = np.hstack([system.A, system.B])
    assume(rep.pass_z and rep.pass_d and np.any(nominal))  # a relative error needs a nonzero truth
    ld = lift(system)
    covariance = np.hstack([ld.sigma_a_tilde, ld.sigma_b_tilde])
    second_moment_map = np.hstack([ld.A_t + ld.sigma_a_tilde, ld.B_t + ld.sigma_b_tilde])
    res = solve(tr)
    diag = res.diagnostics
    kappa_z = diag["lambda_max_zz"] / diag["lambda_min_zz"]
    kappa_d = diag["lambda_max_dd"] / diag["lambda_min_dd"]
    assert not diag["used_pinv_z"] and not diag["used_pinv_d"]
    assert rel_err(res.nominal(), nominal) <= REL_TOL_PER_KAPPA * kappa_z
    cov_err = np.linalg.norm(res.covariance() - covariance, 2) / np.linalg.norm(second_moment_map, 2)
    assert cov_err <= REL_TOL_PER_KAPPA * max(kappa_z, kappa_d)
