"""Properties of rollouts and their file.

A rollout file read a chunk at a time gives what the whole-text read gives,
whatever one edit does to it; the first k rollouts of a larger set keep their
bits on one worker or two.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from multinoise import system_model
from multinoise.mals import design_inputs
from multinoise.system_model import (
    ROLLOUT_LEAF,
    CovarianceNoise,
    InputError,
    RolloutSet,
    UniformBoxInitial,
    make_system,
    simulate_rollouts,
)

from conftest import assert_same_rollouts

_JSON_CHARACTERS = '0123456789.-+eE[]{},: "\\xunlNIaf'


@settings(max_examples=300, deadline=None)
@given(
    chunk=st.sampled_from([1, 2, system_model._JSON_CHUNK]),
    at=st.integers(min_value=0),
    edit=st.sampled_from(["insert", "replace", "delete"]),
    char=st.sampled_from(_JSON_CHARACTERS),
)
def test_an_edited_rollout_file_reads_as_it_does_whole(bench_system, bench_schedule, zero_init, chunk, at, edit, char):
    """From a one-character edit, the chunked read gives the whole read's set or its InputError, and nothing else."""
    text = simulate_rollouts(bench_system, bench_schedule, zero_init, 3, seed=5).to_json()
    i = at % len(text)
    text = text[:i] + {"insert": char + text[i], "replace": char, "delete": ""}[edit] + text[i + 1 :]

    def read():
        try:
            return RolloutSet.from_json(text)
        except InputError as exc:
            return exc

    with mock.patch.object(system_model, "_JSON_CHUNK", chunk):
        got = read()
    with mock.patch.object(system_model, "_read_chunked", lambda text: None):
        want = read()
    if isinstance(want, InputError):
        assert isinstance(got, InputError) and str(got) == str(want)
    else:
        assert_same_rollouts(got, want)


#: Entries on a grid of step 1/64 in [-1, 1].
_unit = st.integers(min_value=-64, max_value=64).map(lambda k: k / 64)


@st.composite
def _rollout_setups(draw):
    """A random system with n <= 5, m <= n and PSD noise covariances, a schedule of ell <= 4 steps and an initial box."""
    n = draw(st.integers(min_value=1, max_value=5))
    m = draw(st.integers(min_value=1, max_value=n))
    A, B = draw(hnp.arrays(float, (n, n), elements=_unit)), draw(hnp.arrays(float, (n, m), elements=_unit))
    # G G' is PSD of any rank up to the full size
    ga = draw(hnp.arrays(float, (n * n, draw(st.integers(1, n * n))), elements=_unit))
    gb = draw(hnp.arrays(float, (n * m, draw(st.integers(1, n * m))), elements=_unit))
    noise = CovarianceNoise(0.1 * ga @ ga.T, 0.1 * gb @ gb.T, law=draw(st.sampled_from(["uniform", "gaussian"])))
    law = draw(st.sampled_from(["uniform", "gaussian", "deterministic"]))
    schedule = design_inputs(m, draw(st.integers(1, 4)), input_law=law, seed=draw(st.integers(0, 2**31)))
    center = draw(hnp.arrays(float, (n,), elements=_unit))
    half = draw(hnp.arrays(float, (n,), elements=_unit.map(abs)))
    return make_system(A, B, noise), schedule, UniformBoxInitial(center, half)


@settings(max_examples=20, deadline=None)
@given(
    setup=_rollout_setups(),
    extra=st.integers(min_value=1, max_value=ROLLOUT_LEAF),
    k=st.integers(min_value=1, max_value=ROLLOUT_LEAF + 1),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
)
def test_the_first_rollouts_of_a_larger_set_on_one_or_two_workers_are_the_same(setup, extra, k, seed):
    """The first k rollouts of a set of more than ROLLOUT_LEAF keep their bits, on one worker or two."""
    system, schedule, init = setup
    want = simulate_rollouts(system, schedule, init, k, seed)
    for workers in (1, 2):
        with mock.patch.object(system_model, "_usable_cpus", lambda: workers):
            got = simulate_rollouts(system, schedule, init, ROLLOUT_LEAF + extra, seed)
        assert np.array_equal(got.states[:k], want.states) and np.array_equal(got.inputs[:k], want.inputs), workers
