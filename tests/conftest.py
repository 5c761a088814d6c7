import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

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


SRC = Path(__file__).resolve().parent.parent / "src"


def run_fresh(script):
    """Run ``script`` in a fresh interpreter on src/ and return the JSON on its last stdout line."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def assert_same_rollouts(got, want):
    """Two RolloutSets hold the same arrays, seed and schedule."""
    assert np.array_equal(got.states, want.states) and np.array_equal(got.inputs, want.inputs)
    assert got.seed == want.seed
    assert np.array_equal(got.schedule.nu, want.schedule.nu)
    assert np.array_equal(got.schedule.ubar, want.schedule.ubar)
    assert (got.schedule.law, got.schedule.seed) == (want.schedule.law, want.schedule.seed)


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
