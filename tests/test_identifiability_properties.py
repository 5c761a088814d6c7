"""Property tests of the covariance equivalence class over random systems.

``lift`` must agree with the entrywise moment formulas of
``reduced_from_full``, and every PSD member of the class built from the lifted
reduced covariances must drive exactly the same second-moment trajectory as
the system it came from.
"""

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from multinoise.identifiability import equivalence_class, reduced_from_full, sigma_from_class
from multinoise.mals import design_inputs
from multinoise.moment_oracle import lift, propagate_second
from multinoise.system_model import CovarianceNoise, make_system


def _positive_definite(rng, d):
    L = rng.standard_normal((d, d))
    return L @ L.T / d + 0.5 * np.eye(d)


@st.composite
def systems(draw):
    """A random system with n in {2, 3, 4}, m <= n and positive-definite noise covariances."""
    n = draw(st.integers(min_value=2, max_value=4))
    m = draw(st.integers(min_value=1, max_value=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((n, n)) / np.sqrt(n)
    B = rng.standard_normal((n, m))
    noise = CovarianceNoise(_positive_definite(rng, n * n), _positive_definite(rng, n * m))
    return make_system(A, B, noise), rng


@settings(max_examples=100, deadline=None)
@given(systems())
def test_lift_equals_the_entrywise_formulas(drawn):
    system, _ = drawn
    ld = lift(system)
    for got, sigma, m in ((ld.sigma_a_tilde, system.sigma_a, None),
                          (ld.sigma_b_tilde, system.sigma_b, system.m)):
        assert np.max(np.abs(got - reduced_from_full(sigma, system.n, m=m))) <= 1e-14 * np.max(np.abs(sigma))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(systems())
def test_every_psd_class_member_has_the_same_second_moments(drawn):
    system, rng = drawn
    n, m = system.n, system.m
    ld = lift(system)
    ec = equivalence_class(ld.sigma_a_tilde, ld.sigma_b_tilde, n, m)
    sa, sb, psd_a, psd_b = sigma_from_class(
        ec, 0.05 * rng.standard_normal(ec.d_alpha), 0.05 * rng.standard_normal(ec.d_beta)
    )
    assume(psd_a and psd_b)
    member = make_system(system.A, system.B, CovarianceNoise(sa, sb))
    schedule = design_inputs(m, 6)
    mu0 = rng.standard_normal(n)
    base = propagate_second(system, schedule, mu0).x_t
    assert np.max(np.abs(propagate_second(member, schedule, mu0).x_t - base)) <= 1e-13 * np.max(np.abs(base))
