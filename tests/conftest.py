import numpy as np
import pytest

from multinoise.system_model import CovarianceNoise, FixedInitial, InputSchedule, make_system
from multinoise.mals import design_inputs

BENCH_A = np.array([[1.0, 0.2], [0.0, 1.0]])
BENCH_B = np.array([[0.8], [1.0]])
BENCH_SIGMA_A = np.array(
    [
        [8.0, -2.0, 0.0, 0.0],
        [-2.0, 16.0, 2.0, 0.0],
        [0.0, 2.0, 2.0, 0.0],
        [0.0, 0.0, 0.0, 8.0],
    ]
) / 40.0
BENCH_SIGMA_B = np.array([[5.0, -2.0], [-2.0, 20.0]]) / 40.0

# reduced covariances implied by the benchmark pair (checked exactly in tests)
BENCH_SIGMA_A_TILDE = np.array([[8.0, 0.0, 2.0], [-2.0, 2.0, 0.0], [16.0, 0.0, 8.0]]) / 40.0
BENCH_SIGMA_B_TILDE = np.array([[5.0], [-2.0], [20.0]]) / 40.0


def standard_normal_inputs(m):
    """The plain RLS baseline's input law: i.i.d. standard normal u_t, as a one-step schedule."""
    return InputSchedule(nu=np.zeros((1, m)), ubar=np.eye(m), law="gaussian")


@pytest.fixture(scope="session")
def bench_system():
    return make_system(BENCH_A, BENCH_B, CovarianceNoise(BENCH_SIGMA_A, BENCH_SIGMA_B, law="uniform"))


@pytest.fixture(scope="session")
def bench_schedule():
    return design_inputs(1, 4, seed=48)


@pytest.fixture(scope="session")
def zero_init():
    return FixedInitial(np.zeros(2))
