import numpy as np
import pytest
import scipy.special
import scipy.stats

from multinoise import rngstream as rs


def test_subset_stability():
    full = rs.uniform01(11, np.arange(8), 3, rs.ROLE_NOISE_A, 5)
    part = rs.uniform01(11, np.arange(3), 3, rs.ROLE_NOISE_A, 5)
    assert np.array_equal(full[:3], part)


def test_streams_distinct_across_roles_and_times():
    keys = set()
    for t in range(10):
        for role in range(4):
            keys.update(np.asarray(rs.stream_keys(7, np.arange(50), t, role)).tolist())
    assert len(keys) == 10 * 4 * 50


def test_draws_are_pure_functions_of_the_key():
    # stream accounting: a draw depends only on (seed, k, t, role, i), so
    # interleaving other draws cannot move it
    a = rs.uniform01(3, np.array([5]), 2, rs.ROLE_INPUT, 4)
    rs.uniform01(3, np.arange(100), 9, rs.ROLE_NOISE_B, 16)
    b = rs.uniform01(3, np.array([5]), 2, rs.ROLE_INPUT, 4)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = rs.uniform01(1, np.arange(4), 0, 0, 3)
    b = rs.uniform01(2, np.arange(4), 0, 0, 3)
    assert not np.array_equal(a, b)


def test_uniform_unit_variance_moments_and_support():
    z = rs.keyed_unit_variance(rs.step_keys(42, np.arange(200_000), 0), rs.ROLE_NOISE_A, 2, "uniform")
    assert np.max(np.abs(z)) <= np.sqrt(3.0) + 1e-12
    assert abs(z.mean()) < 0.01
    assert abs(z.var() - 1.0) < 0.01


def test_gaussian_unit_variance_moments():
    z = rs.keyed_unit_variance(rs.step_keys(42, np.arange(100_000), 1), rs.ROLE_NOISE_B, 2, "gaussian")
    assert abs(z.mean()) < 0.01
    assert abs(z.var() - 1.0) < 0.02


def test_truncated_normal_support_and_variance():
    r = 1.5
    z = rs.keyed_truncated_normal(rs.step_keys(9, np.arange(100_000), 0), rs.ROLE_X0, 2, r)
    assert np.max(np.abs(z)) <= r + 1e-12
    expected = scipy.stats.truncnorm.var(-r, r)
    assert abs(z.var() - expected) < 0.01


def test_time_array_draws_equal_stacked_scalar_draws():
    ks, ts = np.arange(6), np.array([0, 1, 2, 7, 40, 1000])
    draws = {
        "uniform01": lambda k, t: rs.uniform01(5, k, t, rs.ROLE_NOISE_A, 3),
        "uniform": lambda k, t: rs.keyed_unit_variance(rs.step_keys(5, k, t), rs.ROLE_INPUT, 2, "uniform"),
        "gaussian": lambda k, t: rs.keyed_unit_variance(rs.step_keys(5, k, t), rs.ROLE_INPUT, 2, "gaussian"),
        "truncated": lambda k, t: rs.keyed_truncated_normal(rs.step_keys(5, k, t), rs.ROLE_X0, 4, 1.5),
    }
    for name, draw in draws.items():
        whole = draw(ks, ts)
        assert whole.shape[:2] == (len(ts), len(ks)), name
        assert np.array_equal(whole, np.stack([draw(ks, int(t)) for t in ts])), name
        # a scalar rollout index with a time array gives (len(t), count)
        assert np.array_equal(draw(4, ts), whole[:, 4]), name
    assert np.array_equal(
        rs.stream_keys(5, ks, ts, rs.ROLE_INPUT),
        np.stack([rs.stream_keys(5, ks, int(t), rs.ROLE_INPUT) for t in ts]),
    )


_GAMMA, _M1, _M2 = (np.uint64(v) for v in (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB))


def _reference_mix64(z):
    """The SplitMix64 finalizer written out of place."""
    z = (z ^ (z >> np.uint64(30))) * _M1
    z = (z ^ (z >> np.uint64(27))) * _M2
    return z ^ (z >> np.uint64(31))


def _reference_uniform01(seed, k, t, role, count):
    """uniform01 written out of place, hashing (seed, k), then t, then role."""
    k = np.asarray(k, dtype=np.uint64)
    t = np.asarray(t, dtype=np.uint64)
    if t.ndim:
        t = t.reshape((-1,) + (1,) * k.ndim)
    with np.errstate(over="ignore"):
        s = _reference_mix64(np.uint64(seed) + _GAMMA)
        s = _reference_mix64(s ^ ((k + np.uint64(1)) * _GAMMA))
        s = _reference_mix64(s ^ ((t + np.uint64(1)) * _M1))
        s = _reference_mix64(s ^ ((np.uint64(role) + np.uint64(1)) * _M2))
        words = _reference_mix64(np.asarray(s)[..., None] + np.arange(1, count + 1, dtype=np.uint64) * _GAMMA)
    return ((words >> np.uint64(11)).astype(np.float64) + 0.5) * (2.0**-53)


def test_in_place_mixing_draws_equal_out_of_place_reference():
    seed, role = 2**63 + 11, rs.ROLE_NOISE_B
    for k, t in ((np.arange(7), 3), (5, 2), (np.arange(4), np.array([0, 9]))):
        u = _reference_uniform01(seed, k, t, role, 3)
        assert np.array_equal(rs.uniform01(seed, k, t, role, 3), u)
        assert np.array_equal(rs.keyed_unit_variance(rs.step_keys(seed, k, t), role, 3, "uniform"), (2.0 * u - 1.0) * np.sqrt(3.0))
        assert np.array_equal(rs.keyed_unit_variance(rs.step_keys(seed, k, t), role, 3, "gaussian"), scipy.special.ndtri(u))
        lo, hi = scipy.special.ndtr(-1.5), scipy.special.ndtr(1.5)
        assert np.array_equal(rs.keyed_truncated_normal(rs.step_keys(seed, k, t), role, 3, 1.5), scipy.special.ndtri(lo + u * (hi - lo)))


@pytest.mark.parametrize(
    "k, t, count",
    [(np.arange(5000), np.arange(9), 2), (np.arange(3), 1, 40000), (np.arange(4), np.array([0, 9]), 0), (np.arange(0), 0, 3)],
    ids=["many-chunks", "wider-than-a-chunk", "no-draws", "no-streams"],
)
def test_chunked_draws_equal_the_whole_array_reference(k, t, count):
    # uniform01 mixes its words one scratch chunk at a time
    got = rs.uniform01(2**63 + 11, k, t, rs.ROLE_NOISE_A, count)
    want = _reference_uniform01(2**63 + 11, k, t, rs.ROLE_NOISE_A, count)
    assert got.shape == want.shape and np.array_equal(got, want)


def test_seed_array_keys_equal_scalar_seed_keys():
    seeds = np.array([0, 1, 2**63, 2**64 - 1, 77], dtype=np.uint64)
    ks, ts = np.array([0, 3, 3, 9, 0]), np.array([0, 1, 40])
    for t in (0, 7, ts):
        got = rs.stream_keys(seeds, ks, t, rs.ROLE_NOISE_A)
        want = np.stack([rs.stream_keys(int(s), k, t, rs.ROLE_NOISE_A) for s, k in zip(seeds, ks)], axis=-1)
        assert np.array_equal(got, want)
    # signed integer arrays and a one-seed array broadcast like the scalar
    assert np.array_equal(rs.stream_keys(np.array([5, 6]), ks[:2], 2, 0),
                          [rs.stream_keys(5, ks[0], 2, 0), rs.stream_keys(6, ks[1], 2, 0)])
    assert np.array_equal(rs.stream_keys(np.array([5]), ks, 2, 0), rs.stream_keys(5, ks, 2, 0))
    # the draws follow their keys
    assert np.array_equal(rs.uniform01(seeds, ks, ts, rs.ROLE_INPUT, 3),
                          np.stack([rs.uniform01(int(s), k, ts, rs.ROLE_INPUT, 3) for s, k in zip(seeds, ks)], axis=1))


def test_scalar_seed_of_any_integer_type():
    ks = np.arange(4)
    for seed in (np.int64(5), np.int32(5), np.uint64(5), np.array(5)):
        assert np.array_equal(rs.stream_keys(seed, ks, 1, 0), rs.stream_keys(5, ks, 1, 0))
    # Python integers are taken mod 2^64, numpy ones too
    assert np.array_equal(rs.stream_keys(np.int64(-1), ks, 1, 0), rs.stream_keys(2**64 - 1, ks, 1, 0))
    assert np.array_equal(rs.stream_keys(-1, ks, 1, 0), rs.stream_keys(2**64 - 1, ks, 1, 0))


@pytest.mark.parametrize(
    "seed, match",
    [
        (np.array([1, -2, 3]), "must hold non-negative integers"),
        (np.array([1.0, 2.0, 3.0]), "must hold non-negative integers"),
        (np.array([1, 2]), r"seed array of shape \(2,\) does not broadcast against k \(3,\)"),
    ],
)
def test_malformed_seed_arrays_are_rejected(seed, match):
    with pytest.raises(ValueError, match=match):
        rs.stream_keys(seed, np.arange(3), 0, 0)
