"""Properties of rollouts, their draws and their file.

A rollout file read a chunk at a time gives what the whole-text read gives,
whatever one edit does to it; the first k rollouts of a larger set keep their
bits on one worker or two; draws taken from shared step keys in a reused
workspace are the seeded draws bit for bit.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from multinoise import rngstream as rs
from multinoise import system_model
from multinoise.mals import design_inputs
from multinoise.system_model import (
    ROLLOUT_LEAF,
    CovarianceNoise,
    EigenStructuredNoise,
    FixedInitial,
    InputError,
    RolloutSet,
    TruncatedGaussianInitial,
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


def _dirty_workspace():
    """A workspace whose memory a few earlier takes filled with NaN: a draw must not read what it finds there."""
    ws = system_model._Workspace()
    empty = ws.mark()
    for size in (1 << 10, 1 << 17, 1 << 17, 1 << 15):
        ws.take((size,)).fill(np.nan)
    ws.release(empty)
    return ws


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(min_value=-(2**63), max_value=2**64 - 1),
    vector=st.booleans(),
    k0=st.integers(min_value=0, max_value=2**40),
    rows=st.integers(min_value=1, max_value=50),
    ts=st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=4),
    scalar_t=st.booleans(),
    count=st.integers(min_value=0, max_value=12),
    role=st.sampled_from([rs.ROLE_X0, rs.ROLE_INPUT, rs.ROLE_NOISE_A, rs.ROLE_NOISE_B]),
    law=st.sampled_from(["uniform", "gaussian"]),
)
def test_draws_from_shared_step_keys_equal_the_seeded_draws(seed, vector, k0, rows, ts, scalar_t, count, role, law):
    """Role keys and keyed draws at shared step keys are stream_keys, uniform01 and the keyed draws at fresh step keys, per step too."""
    ks = np.arange(k0, k0 + rows)
    seed = (np.arange(rows, dtype=np.uint64) * np.uint64(7919) + np.uint64(seed % 2**64)) if vector else seed
    t = ts[0] if scalar_t else np.array(ts)
    steps = rs.step_keys(seed, ks, t)
    assert np.array_equal(rs.role_keys(steps, role), rs.stream_keys(seed, ks, t, role))
    ws = _dirty_workspace()
    out = ws.take(steps.shape + (count,))
    scratch = ws.take((rs.scratch_words(steps.size, count),), np.uint64)
    got = rs.keyed_uniform01(steps, role, count, out=out, scratch=scratch)
    assert got is out and np.array_equal(got, rs.uniform01(seed, ks, t, role, count))
    got = rs.keyed_unit_variance(steps, role, count, law, out=out, scratch=scratch)
    want = rs.keyed_unit_variance(rs.step_keys(seed, ks, t), role, count, law)
    assert np.array_equal(got, want)
    if not scalar_t:  # a step's draws do not depend on the other steps drawn with it
        for i, ti in enumerate(ts):
            assert np.array_equal(want[i], rs.keyed_unit_variance(rs.step_keys(seed, ks, ti), role, count, law))


@st.composite
def _samplers(draw):
    """n <= 4, m <= n; noise with full covariances or with 0-3 directions per part; an input schedule; an initial law."""
    n = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=1, max_value=n))
    law = draw(st.sampled_from(["uniform", "gaussian"]))
    if draw(st.booleans()):
        ga = draw(hnp.arrays(float, (n * n, draw(st.integers(1, n * n))), elements=_unit))
        gb = draw(hnp.arrays(float, (n * m, draw(st.integers(1, n * m))), elements=_unit))
        noise = CovarianceNoise(0.1 * ga @ ga.T, 0.1 * gb @ gb.T, law=law)
    else:
        r, s = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        a_dirs = [draw(hnp.arrays(float, (n, n), elements=_unit)) for _ in range(r)]
        b_dirs = [draw(hnp.arrays(float, (n, m), elements=_unit)) for _ in range(s)]
        scales = hnp.arrays(float, (), elements=_unit.map(abs))
        noise = EigenStructuredNoise(a_dirs, [draw(scales) for _ in range(r)], b_dirs, [draw(scales) for _ in range(s)], law)
    input_law = draw(st.sampled_from(["uniform", "gaussian", "deterministic"]))
    schedule = design_inputs(m, draw(st.integers(1, 4)), input_law=input_law, seed=draw(st.integers(0, 2**31)))
    center = draw(hnp.arrays(float, (n,), elements=_unit))
    init = draw(
        st.sampled_from(
            [
                FixedInitial(center),
                UniformBoxInitial(center, np.abs(center[::-1])),
                TruncatedGaussianInitial(center, 0.1 * np.eye(n), radius=2.0),
            ]
        )
    )
    return n, m, noise, schedule, init


@settings(max_examples=60, deadline=None)
@given(
    samplers=_samplers(),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    vector=st.booleans(),
    rows=st.integers(min_value=1, max_value=30),
    ts=st.lists(st.integers(min_value=0, max_value=300), min_size=1, max_size=4),
)
def test_sampler_draws_from_shared_step_keys_equal_their_samples(samplers, seed, vector, rows, ts):
    """draw(step keys, ...) of every sampler, in a reused workspace, is sample(seed, ks, t, ...) bit for bit."""
    n, m, noise, schedule, init = samplers
    ks = np.arange(3, 3 + rows)
    seed = np.arange(rows, dtype=np.uint64) + np.uint64(seed % 2**63) if vector else seed
    t = np.array(ts)
    keys = rs.step_keys(seed, ks, t)
    ws = _dirty_workspace()
    u = schedule.draw(keys, t, ws.take(keys.shape + (m,)), ws)
    assert np.array_equal(u, schedule.sample(seed, ks, t))
    Abar, Bbar = noise.draw(keys, t, n, m, ws.take(keys.shape + (n * n,)), ws.take(keys.shape + (n * m,)), ws)
    want_a, want_b = noise.sample(seed, ks, t, n, m)
    assert np.array_equal(Abar, want_a) and np.array_equal(Bbar, want_b)
    x0 = init.draw(rs.step_keys(seed, ks, 0), ws.take((rows, n)), ws)
    assert np.array_equal(x0, init.sample(seed, ks))
