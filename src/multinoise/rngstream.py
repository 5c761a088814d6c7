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
    "UNIFORM_BOUND",
    "seed_words",
    "step_keys",
    "role_keys",
    "stream_keys",
    "scratch_words",
    "keyed_uniform01",
    "uniform01",
    "keyed_unit_variance",
    "keyed_truncated_normal",
]

ROLE_X0 = 0
ROLE_INPUT = 1
ROLE_NOISE_A = 2
ROLE_NOISE_B = 3
#: Role of the derived per-repetition seeds of the experiment runners.
ROLE_REPETITION = 17
#: A.s. bound of a unit-variance "uniform" component, which lies in [-sqrt(3), sqrt(3)].
UNIFORM_BOUND = np.sqrt(3.0)

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_S30, _S27, _S31, _S11 = (np.uint64(v) for v in (30, 27, 31, 11))
_MASK64 = 0xFFFFFFFFFFFFFFFF
#: Words a keyed draw mixes at once (256 kB).
_WORD_CHUNK = 1 << 15


def _mix64(z, tmp=None):
    """SplitMix64 finalizer (bijective avalanche on uint64, wrapping mod 2^64).

    A uint64 array is mixed in place and returned, its shifted words held in
    ``tmp`` (an array of its shape) when one is given and in a temporary
    otherwise; a numpy scalar gives a new scalar.  Scalar products warn on
    wrapping, so callers hold ``np.errstate(over="ignore")``.
    """
    z ^= np.right_shift(z, _S30, out=tmp)
    z *= _M1
    z ^= np.right_shift(z, _S27, out=tmp)
    z *= _M2
    z ^= np.right_shift(z, _S31, out=tmp)
    return z


def seed_words(seeds):
    """A sequence of seeds as uint64 words, each taken as ``stream_keys`` takes a lone seed.

    Every entry is an integer taken mod 2^64; any other entry is a ValueError
    naming its index.
    """
    words = []
    for i, seed in enumerate(seeds):
        try:
            words.append(operator.index(seed) & _MASK64)
        except TypeError:
            raise ValueError(f"seed {i} must be an integer, got {seed!r}") from None
    return np.array(words, dtype=np.uint64)


def step_keys(seed, k, t, out=None, tmp=None):
    """The (seed, rollout, time) part of the stream keys, before the role is mixed in.

    ``role_keys(step_keys(seed, k, t), role)`` is ``stream_keys(seed, k, t,
    role)``, so draws of several roles at the same steps hash (seed, k, t)
    once.  Arguments and shape are those of ``stream_keys``.  ``out`` (uint64,
    of the result's shape) receives the keys, and ``tmp`` (likewise) holds
    the mixing's shifted words.
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
        seed = np.uint64(operator.index(seed) & _MASK64)
    with np.errstate(over="ignore"):
        s = _mix64(seed + _GAMMA)
        s = _mix64(s ^ ((k + np.uint64(1)) * _GAMMA))
        t = np.uint64(t)
        if t.ndim:
            t = t.reshape((-1,) + (1,) * k.ndim)
        return _mix64(np.bitwise_xor(s, (t + np.uint64(1)) * _M1, out=out), tmp)


def role_keys(steps, role, out=None, tmp=None):
    """Stream keys of ``role`` from step keys (``step_keys``), of their shape; ``out`` and ``tmp`` as there."""
    with np.errstate(over="ignore"):
        return _mix64(np.bitwise_xor(steps, (np.uint64(role) + np.uint64(1)) * _M2, out=out), tmp)


def stream_keys(seed, k, t, role):
    """64-bit stream seeds for rollout indices ``k`` (scalar or array).

    ``seed`` is an integer (taken mod 2^64) or an array of non-negative
    integers broadcasting against ``k``: key j is stream_keys(seed[j], k[j],
    t, role).  ``t`` is a time index or a 1-D array of them; an array adds a
    leading time axis, giving shape (len(t),) + shape(k).  The hash is the
    same either way, so key [i, j] equals stream_keys(seed, k[j], t[i], role).
    """
    return role_keys(step_keys(seed, k, t), role)


def _streams_at_once(count):
    """Streams a keyed draw mixes together: _WORD_CHUNK words, or half as many streams at one word each.

    Their role keys, words and mixing temporaries then take at most
    5/2 _WORD_CHUNK words of scratch.
    """
    return max(1, _WORD_CHUNK // max(count, 2))


def scratch_words(streams, count):
    """Length of the uint64 scratch with which a keyed draw of ``count`` from each of ``streams`` streams allocates nothing."""
    rows = min(_streams_at_once(count), streams)
    return rows * (1 + 2 * max(count, 1))


def keyed_uniform01(steps, role, count, out=None, scratch=None):
    """``count`` U(0,1) draws per stream of ``role`` at step keys ``steps``: shape steps.shape + (count,).

    Draw i of a stream with key s is mix64(s + (i+1)*gamma), i.e. SplitMix64
    advanced by a counter.  Values lie strictly inside (0, 1).  The streams
    are taken _WORD_CHUNK words at a time: their role keys and then their
    words are mixed in ``scratch`` (``scratch_words(steps.size, count)``
    uint64 words; a temporary when it is missing or shorter) and written
    straight into the float result, ``out`` when given (C-contiguous
    float64).
    """
    u = _half_ulps(steps, role, count, out, scratch)
    u *= 2.0**-53
    return u


def _half_ulps(steps, role, count, out, scratch):
    """``keyed_uniform01`` before its scaling by 2^-53: each draw's top 53 bits plus 0.5."""
    steps = np.asarray(steps, dtype=np.uint64)
    if out is None:
        out = np.empty(steps.shape + (count,))
    elif not out.flags.c_contiguous or out.dtype != np.float64 or out.shape != steps.shape + (count,):
        raise ValueError(f"out must be C-contiguous float64 of shape {steps.shape + (count,)}")
    if not out.size:
        return out
    n = steps.size
    rows = min(_streams_at_once(count), n)
    if scratch is None or len(scratch) < scratch_words(n, count):
        scratch = np.empty(scratch_words(n, count), dtype=np.uint64)
    keys = scratch[:rows]
    words = scratch[rows : rows * (1 + count)].reshape(rows, count)
    spare = scratch[rows * (1 + count) : rows * (1 + 2 * count)]
    tmp = spare.reshape(rows, count)
    steps, flat = steps.reshape(-1), out.reshape(n, count)
    with np.errstate(over="ignore"):
        idx = (np.arange(1, count + 1, dtype=np.uint64)) * _GAMMA
        for a in range(0, n, rows):
            r = min(rows, n - a)
            role_keys(steps[a : a + r], role, out=keys[:r], tmp=spare[:r])
            _mix64(np.add(keys[:r, None], idx, out=words[:r]), tmp[:r])
            # 53-bit mantissa, offset by half a ulp so 0 is excluded; the
            # words are below 2^53, so the conversion is exact
            words[:r] >>= _S11
            np.add(words[:r], 0.5, out=flat[a : a + r])
    return out


def uniform01(seed, k, t, role, count):
    """``count`` U(0,1) draws per stream; shape (len(k), count) or (count,).

    An array ``t`` adds a leading time axis: (len(t), len(k), count).  The
    draws are ``keyed_uniform01`` at ``step_keys(seed, k, t)``.
    """
    return keyed_uniform01(step_keys(seed, k, t), role, count)


def keyed_unit_variance(steps, role, count, law, out=None, scratch=None):
    """Zero-mean unit-variance i.i.d. components per stream (arguments as keyed_uniform01).

    law = "uniform": uniform on [-sqrt(3), sqrt(3)] (bounded a.s.);
    law = "gaussian": standard normal via inverse CDF.  scipy is imported
    only here and in keyed_truncated_normal, so bounded laws never load it.
    """
    if law == "uniform":
        u = _half_ulps(steps, role, count, out, scratch)
        u *= 2.0**-52  # the uniform draw times 2, both exact scalings by a power of 2
        u -= 1.0
        u *= UNIFORM_BOUND
        return u
    if law != "gaussian":
        raise ValueError(f"unknown component law {law!r}")
    u = keyed_uniform01(steps, role, count, out, scratch)
    from scipy.special import ndtri

    return ndtri(u, out=u)


def keyed_truncated_normal(steps, role, count, radius, out=None, scratch=None):
    """Standard normal conditioned on |z| <= radius, per component (arguments as keyed_uniform01)."""
    from scipy.special import ndtr, ndtri

    u = keyed_uniform01(steps, role, count, out, scratch)
    lo = ndtr(-radius)
    hi = ndtr(radius)
    u *= hi - lo
    u += lo
    return ndtri(u, out=u)
