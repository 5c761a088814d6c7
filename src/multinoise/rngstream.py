"""Counter-based random streams keyed by (seed, rollout, time, role).

Every (rollout k, time t, role) tuple owns an independent SplitMix64 stream
whose seed is derived by hashing the tuple into 64 bits.  Draw i of a stream
is a pure function of (master seed, k, t, role, i), so simulation output does
not depend on execution order or batching: simulating rollouts 0..2 produces
bit-identical values whether or not rollouts 3.. are generated alongside.

SplitMix64 is the finalizer-based generator of Steele et al.; the stream
position is a plain counter, which is what makes the scheme order-free.
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = [
    "ROLE_X0",
    "ROLE_INPUT",
    "ROLE_NOISE_A",
    "ROLE_NOISE_B",
    "ROLE_REPETITION",
    "stream_keys",
    "uniform01",
    "unit_variance",
    "truncated_normal",
]

ROLE_X0 = 0
ROLE_INPUT = 1
ROLE_NOISE_A = 2
ROLE_NOISE_B = 3
#: Role of the derived per-repetition seeds of the experiment runners.
ROLE_REPETITION = 17

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_S30, _S27, _S31, _S11 = (np.uint64(v) for v in (30, 27, 31, 11))
_SQRT3 = np.sqrt(3.0)


def _mix64(z):
    """SplitMix64 finalizer (bijective avalanche on uint64, wrapping mod 2^64).

    A uint64 array is mixed in place and returned; a numpy scalar gives a new
    scalar.  Scalar products warn on wrapping, so callers hold
    ``np.errstate(over="ignore")``.
    """
    z ^= z >> _S30
    z *= _M1
    z ^= z >> _S27
    z *= _M2
    z ^= z >> _S31
    return z


def stream_keys(seed, k, t, role):
    """64-bit stream seeds for rollout indices ``k`` (scalar or array).

    ``seed`` is an integer (taken mod 2^64) or an array of non-negative
    integers broadcasting against ``k``: key j is stream_keys(seed[j], k[j],
    t, role).  ``t`` is a time index or a 1-D array of them; an array adds a
    leading time axis, giving shape (len(t),) + shape(k).  The hash is the
    same either way, so key [i, j] equals stream_keys(seed, k[j], t[i], role).
    """
    k = np.asarray(k, dtype=np.uint64)
    if np.ndim(seed):
        seed = np.asarray(seed)
        if seed.dtype.kind not in "ui" or (seed < 0).any():
            raise ValueError(f"seed array must hold non-negative integers: {np.array2string(seed, threshold=8)}")
        try:
            seed, k = np.broadcast_arrays(seed.astype(np.uint64), k)
        except ValueError:
            raise ValueError(f"seed array of shape {seed.shape} does not broadcast against k {k.shape}") from None
    else:
        seed = np.uint64(operator.index(seed) & 0xFFFFFFFFFFFFFFFF)
    with np.errstate(over="ignore"):
        s = _mix64(seed + _GAMMA)
        s = _mix64(s ^ ((k + np.uint64(1)) * _GAMMA))
        t = np.uint64(t)
        if t.ndim:
            t = t.reshape((-1,) + (1,) * k.ndim)
        s = _mix64(s ^ ((t + np.uint64(1)) * _M1))
        return _mix64(s ^ ((np.uint64(role) + np.uint64(1)) * _M2))


def uniform01(seed, k, t, role, count):
    """``count`` U(0,1) draws per stream; shape (len(k), count) or (count,).

    An array ``t`` adds a leading time axis: (len(t), len(k), count).
    Draw i of a stream with seed s is mix64(s + (i+1)*gamma), i.e. SplitMix64
    advanced by a counter.  Values lie strictly inside (0, 1).
    """
    keys = stream_keys(seed, k, t, role)
    with np.errstate(over="ignore"):
        idx = (np.arange(1, count + 1, dtype=np.uint64)) * _GAMMA
        words = _mix64(keys[..., None] + idx)
    # 53-bit mantissa, offset by half a ulp so 0 is excluded
    words >>= _S11
    u = words.astype(np.float64)
    u += 0.5
    u *= 2.0**-53
    return u


def unit_variance(seed, k, t, role, count, law):
    """Zero-mean unit-variance i.i.d. components per stream (shapes as uniform01).

    law = "uniform": uniform on [-sqrt(3), sqrt(3)] (bounded a.s.);
    law = "gaussian": standard normal via inverse CDF.  scipy is imported
    only here and in truncated_normal, so bounded laws never load it.
    """
    u = uniform01(seed, k, t, role, count)
    if law == "uniform":
        u *= 2.0
        u -= 1.0
        u *= _SQRT3
        return u
    if law == "gaussian":
        from scipy.special import ndtri

        return ndtri(u, out=u)
    raise ValueError(f"unknown component law {law!r}")


def truncated_normal(seed, k, t, role, count, radius):
    """Standard normal conditioned on |z| <= radius, per component (shapes as uniform01)."""
    from scipy.special import ndtr, ndtri

    u = uniform01(seed, k, t, role, count)
    lo = ndtr(-radius)
    hi = ndtr(radius)
    u *= hi - lo
    u += lo
    return ndtri(u, out=u)
