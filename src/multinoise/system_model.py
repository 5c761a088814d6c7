"""Multiplicative-noise linear systems and independent-rollout simulation.

The plant is x_{t+1} = (A + Abar_t) x_t + (B + Bbar_t) u_t with i.i.d.
zero-mean matrix noise (Abar_t, Bbar_t) independent of the inputs.  Noise is
described by vec-covariances SigmaA = E{vec(Abar) vec(Abar)'} (n^2 x n^2) and
SigmaB likewise (nm x nm).
"""

from __future__ import annotations

import json
import math
import mmap
import operator
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import rngstream as rs
from .shape_ops import vec

__all__ = [
    "ZeroNoise",
    "CovarianceNoise",
    "EigenStructuredNoise",
    "FixedInitial",
    "UniformBoxInitial",
    "TruncatedGaussianInitial",
    "InputSchedule",
    "MultNoiseSystem",
    "make_system",
    "embed_additive_noise",
    "augment_schedule",
    "RolloutSet",
    "InputError",
    "ROLLOUT_LEAF",
    "TIME_CHUNK",
    "beyond_limit",
    "is_psd",
    "simulate_trajectories",
    "iter_rollout_blocks",
    "simulate_rollouts",
    "SimulationDiverged",
]

#: Allowed negative slack on covariance eigenvalues before declaring non-PSD.
PSD_SLACK = 1e-10

#: Absolute slack on a bounded noise draw's norm before it counts as beyond
#: its declared a.s. bound: absorbs the rounding of the draw and of its norm.
NOISE_BOUND_SLACK = 1e-9

#: Magnitude beyond which a state (or an RLS regressor or estimate) is
#: declared diverged.
DIVERGENCE_LIMIT = 1e12


def beyond_limit(a, axis=None, scratch=None):
    """Whether any entry along ``axis`` (default: all) is NaN, infinite or > DIVERGENCE_LIMIT.

    ``scratch``, a float array of a's shape, receives |a|.
    """
    return ~(np.abs(a, out=scratch) <= DIVERGENCE_LIMIT).all(axis=axis)


#: Rollouts simulated together as one block, and summed together as one leaf
#: of the moment reduction tree.  At this size a block's arrays stay in
#: cache, and memory does not grow with the number of rollouts.
ROLLOUT_LEAF = 8192

#: Time steps whose draws a single-trajectory simulation, and whose data an RLS
#: recursion, holds at once: memory does not grow with the horizon, and every
#: rollout horizon (ell <= 6 in the presets) is one chunk.
TIME_CHUNK = 256


class SimulationDiverged(RuntimeError):
    """A state entry exceeded DIVERGENCE_LIMIT during simulation."""


class InputError(ValueError):
    """A rollout file that is malformed or inconsistent with its own header."""


def _psd_eigenvalues(w):
    """The PSD rule on ascending eigenvalues, over leading axes: w[0] >= -PSD_SLACK * max(|w[0]|, |w[-1]|, 1)."""
    lo, hi = w[..., 0], w[..., -1]
    return lo >= -PSD_SLACK * np.fmax(np.fmax(np.abs(lo), np.abs(hi)), 1.0)


def is_psd(S):
    """Whether the symmetric part of S is positive semidefinite up to PSD_SLACK."""
    S = np.asarray(S, dtype=float)
    return bool(_psd_eigenvalues(np.linalg.eigvalsh(0.5 * (S + S.T))))


def _require_finite(a, name):
    """Raise a ValueError naming the first NaN or infinite entry of ``a``, if any."""
    if not np.isfinite(a).all():
        index = ", ".join(str(int(i)) for i in np.argwhere(~np.isfinite(a))[0])
        raise ValueError(f"{name}[{index}] is not finite")


def _psd_factor(S, name):
    """Return L with L L' = S for symmetric PSD S (eigenvalue clipping), over leading axes.

    Non-finite entries, and matrices that fail the PSD rule of ``is_psd``,
    are an error naming the first of them; small negative eigenvalues are
    clipped to zero (empirical covariances carry rounding noise).
    """
    S = np.asarray(S, dtype=float)
    if S.ndim < 2 or S.shape[-2] != S.shape[-1]:
        raise ValueError(f"{name} must be square, got {S.shape}")
    _require_finite(S, name)
    w, V = np.linalg.eigh(0.5 * (S + S.swapaxes(-1, -2)))
    bad = np.argwhere(~_psd_eigenvalues(w))
    if len(bad):
        at = "".join(f"[{i}]" for i in bad[0])
        raise ValueError(f"{name}{at} is not positive semidefinite (min eig {w[tuple(bad[0])][0]:.3e})")
    return V * np.sqrt(np.clip(w, 0.0, None))[..., None, :]


class CovarianceNoise:
    """Noise specified by full vec-covariances (SigmaA, SigmaB).

    vec(Abar) = L_A z with L_A L_A' = SigmaA and z i.i.d. zero-mean
    unit-variance components; law "uniform" (bounded a.s.) by default,
    "gaussian" optionally (then no a.s. bound exists).
    """

    def __init__(self, sigma_a, sigma_b, law="uniform"):
        if law not in ("uniform", "gaussian"):
            raise ValueError(f"unknown noise law {law!r}")
        self.sigma_a = np.asarray(sigma_a, dtype=float)
        self.sigma_b = np.asarray(sigma_b, dtype=float)
        self.law = law
        self._LA = _psd_factor(self.sigma_a, "SigmaA")
        self._LB = _psd_factor(self.sigma_b, "SigmaB")

    def implied_sigma_a(self, n):
        if self.sigma_a.shape != (n * n, n * n):
            raise ValueError(f"SigmaA shape {self.sigma_a.shape} != {(n * n, n * n)}")
        return self.sigma_a

    def implied_sigma_b(self, n, m):
        if self.sigma_b.shape != (n * m, n * m):
            raise ValueError(f"SigmaB shape {self.sigma_b.shape} != {(n * m, n * m)}")
        return self.sigma_b

    def bounds(self, n, m):
        """A.s. spectral-norm bounds (via ||.||_F <= ||L||_2 ||z||); None if unbounded."""
        if self.law != "uniform":
            return None, None
        ca = float(np.linalg.norm(self._LA, 2)) * rs.UNIFORM_BOUND * np.sqrt(n * n)
        cb = float(np.linalg.norm(self._LB, 2)) * rs.UNIFORM_BOUND * np.sqrt(n * m)
        return ca, cb

    def sample(self, seed, ks, t, n, m):
        return _sample_noise(self, seed, ks, t, n, m)

    def draw(self, keys, t, n, m, out_a, out_b, ws):
        """(Abar_t, Bbar_t) at step keys ``keys`` of steps ``t``, as views of ``out_a`` and ``out_b``.

        ``out_a`` and ``out_b`` are float arrays of keys.shape + (n*n,) and
        keys.shape + (n*m,), which receive vec(Abar) and vec(Bbar); the
        temporaries come from the workspace ``ws``.
        """
        for role, out, L in ((rs.ROLE_NOISE_A, out_a, self._LA), (rs.ROLE_NOISE_B, out_b, self._LB)):
            _factor_in_place(_keyed(rs.keyed_unit_variance, keys, role, out.shape[-1], self.law, out=out, ws=ws), L, ws)
        Abar = out_a.reshape(keys.shape + (n, n)).swapaxes(-1, -2)  # undo column stacking
        Bbar = out_b.reshape(keys.shape + (m, n)).swapaxes(-1, -2)
        return Abar, Bbar


def _sample_noise(noise, seed, ks, t, n, m):
    """``noise.draw`` at the step keys of (seed, ks, t), into fresh arrays."""
    keys = rs.step_keys(seed, ks, t)
    return noise.draw(keys, t, n, m, np.empty(keys.shape + (n * n,)), np.empty(keys.shape + (n * m,)), _Fresh())


def _keyed(draw, keys, role, count, *args, out, ws):
    """``draw(keys, role, count, *args)``, a keyed rngstream draw, into ``out`` with its scratch from ``ws``."""
    mark = ws.mark()
    draw(keys, role, count, *args, out=out, scratch=ws.take((rs.scratch_words(keys.size, count),), np.uint64))
    ws.release(mark)
    return out


def _factor_in_place(z, L, ws):
    """z @ L.T over z's last axis, written over z a slab of time steps at a time.

    A slab holds about ROLLOUT_LEAF rows: it is copied to an array of the
    workspace ``ws`` and multiplied back into z.  Each time step is the
    product that ``z @ L.T`` takes for it, so the bits are those of the
    whole product.
    """
    steps = z.reshape((-1,) + z.shape[-2:])
    per_slab = max(1, ROLLOUT_LEAF // steps.shape[1])
    mark = ws.mark()
    slab = ws.take((min(per_slab, len(steps)),) + steps.shape[1:])
    for a in range(0, len(steps), per_slab):
        b = min(a + per_slab, len(steps))
        np.copyto(slab[: b - a], steps[a:b])
        np.matmul(slab[: b - a], L.T, out=steps[a:b])
    ws.release(mark)
    return z


class EigenStructuredNoise:
    """Abar_t = sum_i A_i p_{i,t}, Bbar_t = sum_j B_j q_{j,t}.

    p_i, q_j are independent scalar zero-mean draws with variances sigma_i^2,
    delta_j^2; the implied covariances are rank-sum outer products of the
    vectorized directions.
    """

    def __init__(self, a_dirs, sigmas, b_dirs, deltas, law="uniform"):
        if law not in ("uniform", "gaussian"):
            raise ValueError(f"unknown noise law {law!r}")
        self.a_dirs = [np.asarray(M, dtype=float) for M in a_dirs]
        self.b_dirs = [np.asarray(M, dtype=float) for M in b_dirs]
        self.sigmas = np.asarray(sigmas, dtype=float)
        self.deltas = np.asarray(deltas, dtype=float)
        if len(self.a_dirs) != self.sigmas.size or len(self.b_dirs) != self.deltas.size:
            raise ValueError("direction/variance counts do not match")
        for name, dirs in (("a_dirs", self.a_dirs), ("b_dirs", self.b_dirs)):
            for i, M in enumerate(dirs):
                _require_finite(M, f"{name}[{i}]")
        _require_finite(self.sigmas, "sigmas")
        _require_finite(self.deltas, "deltas")
        self.law = law

    def implied_sigma_a(self, n):
        return _direction_sum(self.a_dirs, self.sigmas, (n, n), "a_dirs")

    def implied_sigma_b(self, n, m):
        return _direction_sum(self.b_dirs, self.deltas, (n, m), "b_dirs")

    def bounds(self, n, m):
        if self.law != "uniform":
            return None, None
        ca = rs.UNIFORM_BOUND * sum(abs(s) * np.linalg.norm(M, 2) for M, s in zip(self.a_dirs, self.sigmas))
        cb = rs.UNIFORM_BOUND * sum(abs(d) * np.linalg.norm(M, 2) for M, d in zip(self.b_dirs, self.deltas))
        return float(ca), float(cb)

    def sample(self, seed, ks, t, n, m):
        return _sample_noise(self, seed, ks, t, n, m)

    def draw(self, keys, t, n, m, out_a, out_b, ws):
        """(Abar_t, Bbar_t) at step keys ``keys``, written over ``out_a`` and ``out_b`` (as CovarianceNoise.draw)."""
        Abar, Bbar = out_a.reshape(keys.shape + (n, n)), out_b.reshape(keys.shape + (n, m))
        for role, dirs, scales, out in (
            (rs.ROLE_NOISE_A, self.a_dirs, self.sigmas, Abar),
            (rs.ROLE_NOISE_B, self.b_dirs, self.deltas, Bbar),
        ):
            if not dirs:
                out.fill(0.0)
                continue
            mark = ws.mark()
            p = ws.take(keys.shape + (len(dirs),))
            _keyed(rs.keyed_unit_variance, keys, role, len(dirs), self.law, out=p, ws=ws)
            p *= scales
            np.einsum("...r,rij->...ij", p, np.stack(dirs), out=out)
            ws.release(mark)
        return Abar, Bbar


def _direction_sum(dirs, scales, shape, name):
    """sum_i s_i^2 vec(M_i) vec(M_i)' over directions M_i, each of ``shape``."""
    S = np.zeros((shape[0] * shape[1],) * 2)
    for i, (M, s) in enumerate(zip(dirs, scales)):
        if M.shape != shape:
            raise ValueError(f"{name}[{i}] has shape {M.shape}, the system needs {shape}")
        v = vec(M)
        S += s * s * np.outer(v, v)
    return S


class ZeroNoise(EigenStructuredNoise):
    """No multiplicative noise: the eigen-structured model with no directions."""

    def __init__(self):
        super().__init__([], [], [], [])


# ---------------------------------------------------------------------------
# initial-state distributions


class FixedInitial:
    """Deterministic initial state."""

    def __init__(self, x0):
        self.x0 = np.asarray(x0, dtype=float).ravel()
        _require_finite(self.x0, "x0")
        self.mean = self.x0
        self.second_moment = np.outer(self.x0, self.x0)

    def sample(self, seed, ks):
        return np.tile(self.x0, (len(ks), 1))

    def draw(self, keys, out, ws):
        """x_0 for the rows of step keys ``keys`` (t = 0), written into ``out`` (len(keys), n)."""
        out[...] = self.x0
        return out

    def bounds(self):
        c_x = float(np.linalg.norm(self.x0))
        return c_x, 0.0, 0.0  # c_X, c_mu, c_DeltaX


class UniformBoxInitial:
    """Independent per-component uniform on [center - half, center + half]."""

    def __init__(self, center, half_width):
        self.center = np.asarray(center, dtype=float).ravel()
        self.half = np.asarray(half_width, dtype=float).ravel()
        _require_finite(self.center, "center")
        _require_finite(self.half, "half_width")
        if self.half.shape != self.center.shape or np.any(self.half < 0):
            raise ValueError("half_width must be nonnegative and match center")
        self.mean = self.center
        self.second_moment = np.outer(self.center, self.center) + np.diag(self.half**2 / 3.0)

    def sample(self, seed, ks):
        return _sample_initial(self, seed, ks)

    def draw(self, keys, out, ws):
        """x_0 for the rows of step keys ``keys`` (t = 0), written into ``out`` (len(keys), n)."""
        u = _keyed(rs.keyed_uniform01, keys, rs.ROLE_X0, self.center.size, out=out, ws=ws)
        u *= 2.0
        u -= 1.0
        u *= self.half
        u += self.center
        return u

    def bounds(self):
        c_x = float(np.linalg.norm(self.center) + np.linalg.norm(self.half))
        c_mu = float(np.linalg.norm(self.half))
        c_dx = c_x * c_x + float(np.linalg.norm(self.second_moment, "fro"))
        return c_x, c_mu, c_dx


class TruncatedGaussianInitial:
    """x0 = mean + L z with z i.i.d. standard normal truncated to |z_i| <= radius.

    Componentwise truncation keeps the components independent, so the second
    moment stays closed-form: cov = L L' * var(truncnorm(radius)).
    """

    def __init__(self, mean, cov, radius=3.0):
        self.mu = np.asarray(mean, dtype=float).ravel()
        self.cov = np.asarray(cov, dtype=float)
        self.radius = float(radius)
        _require_finite(self.mu, "mean")
        if not math.isfinite(self.radius):
            raise ValueError("radius is not finite")
        if self.radius <= 0:
            raise ValueError("truncation radius must be positive")
        if self.cov.shape != (self.mu.size,) * 2:
            raise ValueError(f"initial covariance must be {self.mu.size} x {self.mu.size}, got {self.cov.shape}")
        self._L = _psd_factor(self.cov, "initial covariance")
        r = self.radius
        # var(truncnorm(-r, r)) = 1 - 2 r phi(r) / (2 Phi(r) - 1), with 2 Phi(r) - 1 = erf(r / sqrt 2):
        # scipy's value bit for bit at r in {2, 2.5, 3}, within 1e-14 relative on [0.5, 8]
        phi = math.exp(-r * r / 2) / math.sqrt(2 * math.pi)
        self._zvar = 1 - 2 * r * phi / math.erf(r / math.sqrt(2))
        self.mean = self.mu
        self.second_moment = np.outer(self.mu, self.mu) + self._L @ self._L.T * self._zvar

    def sample(self, seed, ks):
        return _sample_initial(self, seed, ks)

    def draw(self, keys, out, ws):
        """x_0 for the rows of step keys ``keys`` (t = 0), written into ``out`` (len(keys), n)."""
        mark = ws.mark()
        z = _keyed(rs.keyed_truncated_normal, keys, rs.ROLE_X0, self.mu.size, self.radius, out=ws.take(out.shape), ws=ws)
        np.add(self.mu, np.matmul(z, self._L.T, out=out), out=out)
        ws.release(mark)
        return out

    def bounds(self):
        c_mu = float(np.linalg.norm(self._L, 2)) * self.radius * np.sqrt(self.mu.size)
        c_x = float(np.linalg.norm(self.mu)) + c_mu
        c_dx = c_x * c_x + float(np.linalg.norm(self.second_moment, "fro"))
        return c_x, c_mu, c_dx


def _sample_initial(init, seed, ks):
    """``init.draw`` at the step keys of (seed, ks, t = 0), into a fresh array."""
    keys = rs.step_keys(seed, ks, 0)
    return init.draw(keys, np.empty(keys.shape + (init.mean.size,)), _Fresh())


# ---------------------------------------------------------------------------
# input schedules


@dataclass
class InputSchedule:
    """Designed per-step input moments: means nu_t and central covariances Ubar_t.

    law controls how u_t is drawn around (nu_t, Ubar_t): "uniform" (bounded),
    "gaussian", or "deterministic" (u_t = nu_t exactly; Ubar must be zero).
    """

    nu: np.ndarray          # (ell, m)
    ubar: np.ndarray        # (ell, m, m)
    law: str = "uniform"
    seed: int | None = None
    _factors: np.ndarray = field(init=False, default=None, repr=False, compare=False)  # (ell, m, m)

    def __post_init__(self):
        self.nu = np.atleast_2d(np.asarray(self.nu, dtype=float))
        self.ubar = np.asarray(self.ubar, dtype=float)
        if self.ubar.ndim == 2:  # single matrix -> broadcast
            self.ubar = np.repeat(self.ubar[None], self.nu.shape[0], axis=0)
        if self.law not in ("uniform", "gaussian", "deterministic"):
            raise ValueError(f"unknown input law {self.law!r}")
        if self.nu.shape[0] != self.ubar.shape[0] or self.ubar.shape[1:] != (self.m, self.m):
            raise ValueError("schedule shapes inconsistent")
        _require_finite(self.nu, "nu")
        _require_finite(self.ubar, "Ubar")
        if self.law == "deterministic" and np.any(self.ubar != 0):
            raise ValueError("deterministic schedule requires zero input covariances")
        self._factors = _psd_factor(self.ubar, "Ubar")

    @property
    def ell(self):
        return self.nu.shape[0]

    @property
    def m(self):
        return self.nu.shape[1]

    def input_second_moment(self, t):
        """E{u_t u_t'} = Ubar_t + nu_t nu_t' for a time index, or stacked for an index array."""
        nu = self.nu[t]
        return self.ubar[t] + nu[..., :, None] * nu[..., None, :]

    def sample(self, seed, ks, t):
        """Draw u_t for rollout indices ks; mean nu_t, central second moment Ubar_t.

        ``t`` is a time index or a 1-D array of them (adding a leading time
        axis).  Past the schedule the moments repeat with period ell; the
        draws do not, since every step keys its own stream by ``t``.
        """
        keys = rs.step_keys(seed, ks, t)
        return self.draw(keys, t, np.empty(keys.shape + (self.m,)), _Fresh())

    def draw(self, keys, t, out, ws):
        """u_t at step keys ``keys`` (shape of t + rows), written into ``out`` (keys.shape + (m,)).

        The temporaries come from the workspace ``ws``.
        """
        tt = t % self.ell
        if self.law == "deterministic":
            out[...] = self.nu[tt, None]
            return out
        mark = ws.mark()
        z = _keyed(rs.keyed_unit_variance, keys, rs.ROLE_INPUT, self.m, self.law, out=ws.take(out.shape), ws=ws)
        np.add(self.nu[tt, None], np.matmul(z, self._factors[tt].swapaxes(-1, -2), out=out), out=out)
        ws.release(mark)
        return out

    def deviation_bounds(self):
        """(c_U, c_nu): a.s. bounds on ||u_t|| and ||u_t - nu_t||; None if unbounded."""
        if self.law == "gaussian":
            return None, None
        if self.law == "deterministic":
            c_nu = 0.0
        else:
            c_nu = float(np.linalg.norm(self._factors, 2, axis=(-2, -1)).max()) * rs.UNIFORM_BOUND * np.sqrt(self.m)
        c_u = max(float(np.linalg.norm(v)) for v in self.nu) + c_nu
        return c_u, c_nu

    def to_json_dict(self):
        return {
            "ell": self.ell,
            "m": self.m,
            "law": self.law,
            "seed": self.seed,
            "nu": self.nu.tolist(),
            "Ubar": self.ubar.tolist(),
        }


# ---------------------------------------------------------------------------
# the system


class MultNoiseSystem:
    """Nominal (A, B) plus a noise model; derived covariances validated PSD."""

    def __init__(self, A, B, noise):
        self.A = np.asarray(A, dtype=float)
        self.B = np.asarray(B, dtype=float)
        if self.A.ndim != 2 or self.A.shape[0] != self.A.shape[1]:
            raise ValueError(f"A must be square, got {self.A.shape}")
        if self.B.ndim != 2 or self.B.shape[0] != self.A.shape[0]:
            raise ValueError(f"B must be n x m with n = {self.A.shape[0]}, got {self.B.shape}")
        if self.B.shape[1] > self.A.shape[0]:
            raise ValueError("input dimension m must satisfy m <= n")
        _require_finite(self.A, "A")
        _require_finite(self.B, "B")
        self.noise = noise
        n, m = self.n, self.m
        self.sigma_a = noise.implied_sigma_a(n)
        self.sigma_b = noise.implied_sigma_b(n, m)
        _psd_factor(self.sigma_a, "SigmaA")  # validation only
        _psd_factor(self.sigma_b, "SigmaB")
        self.c_abar, self.c_bbar = noise.bounds(n, m)

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B.shape[1]

    def require_bounded(self):
        """Error out if the noise law admits no a.s. bound (Gaussian components)."""
        if self.c_abar is None or self.c_bbar is None:
            raise ValueError(
                "noise model has no almost-sure bound (gaussian law); "
                "the finite-sample bound machinery requires a bounded law"
            )


def make_system(A, B, noise):
    """Build and validate a multiplicative-noise system."""
    return MultNoiseSystem(A, B, noise)


def embed_additive_noise(system, sigma_w, law=None):
    """Fold additive noise w_t (cov sigma_w) into the input channel.

    Returns a system with m+1 inputs whose nominal input matrix is [B 0] and
    whose vec(Bbar) covariance is blockdiag(SigmaB, sigma_w); driving it with
    inputs [u_t; 1] reproduces the original system plus additive noise.
    Use ``augment_schedule`` to extend an input schedule accordingly.
    """
    sigma_w = np.asarray(sigma_w, dtype=float)
    n, m = system.n, system.m
    if sigma_w.shape != (n, n):
        raise ValueError(f"sigma_w must be {n} x {n}, got {sigma_w.shape}")
    _psd_factor(sigma_w, "sigma_w")
    if m + 1 > n:
        raise ValueError("embedding needs m + 1 <= n")
    B_aug = np.hstack([system.B, np.zeros((n, 1))])
    nm = n * m
    sigma_b_aug = np.zeros((nm + n, nm + n))
    sigma_b_aug[:nm, :nm] = system.sigma_b
    sigma_b_aug[nm:, nm:] = sigma_w
    noise = CovarianceNoise(system.sigma_a, sigma_b_aug, law=law or system.noise.law)
    return MultNoiseSystem(system.A, B_aug, noise)


def augment_schedule(schedule):
    """Schedule for the additive-noise embedding: nu -> [nu; 1], Ubar zero-padded."""
    ell, m = schedule.ell, schedule.m
    nu = np.hstack([schedule.nu, np.ones((ell, 1))])
    ubar = np.zeros((ell, m + 1, m + 1))
    ubar[:, :m, :m] = schedule.ubar
    return InputSchedule(nu=nu, ubar=ubar, law=schedule.law, seed=schedule.seed)


# ---------------------------------------------------------------------------
# rollouts


@dataclass
class RolloutSet:
    """n_r independent rollouts sharing one input schedule."""

    states: np.ndarray  # (n_r, ell + 1, n)
    inputs: np.ndarray  # (n_r, ell, m)
    schedule: InputSchedule
    seed: int

    @property
    def n_r(self):
        return self.states.shape[0]

    @property
    def ell(self):
        return self.states.shape[1] - 1

    @property
    def n(self):
        return self.states.shape[2]

    @property
    def m(self):
        return self.inputs.shape[2]

    def to_json(self):
        """The set as one JSON object, its ``rollouts`` list last.

        The text is that of ``json.dumps`` of the whole object, built from
        the ``json.dumps`` of _JSON_CHUNK rollouts at a time, so no nested-list
        copy of the whole set is held.
        """
        head = json.dumps(
            {
                "n": self.n,
                "m": self.m,
                "ell": self.ell,
                "n_r": self.n_r,
                "seed": self.seed,
                "schedule": self.schedule.to_json_dict(),
            }
        )
        parts = [head[:-1], _ROLLOUTS_OPEN]
        for k0 in range(0, self.n_r, _JSON_CHUNK):
            if k0:
                parts.append(", ")
            rows = slice(k0, k0 + _JSON_CHUNK)
            chunk = [{"x": x, "u": u} for x, u in zip(self.states[rows].tolist(), self.inputs[rows].tolist())]
            parts.append(json.dumps(chunk)[1:-1])  # the items, without the list's brackets
        parts.append("]}")
        return "".join(parts)

    @classmethod
    def from_json(cls, text):
        """Parse ``to_json`` output.

        Text in the layout ``to_json`` writes is parsed a chunk of rollouts
        at a time (``_read_chunked``); any other text is parsed whole.  Both
        give the same set.  Malformed JSON, missing fields, a seed that is
        not an integer, ragged, mis-shaped or non-finite data and a schedule
        that disagrees with the header raise InputError.
        """
        d, states, inputs = _read_chunked(text) or _read_whole(text)
        sched, ell, m = d["schedule"], d["ell"], d["m"]
        nu = _schedule_array(sched, "nu", (ell, m))
        ubar = _schedule_array(sched, "Ubar", (ell, m, m))
        try:
            schedule = InputSchedule(nu=nu, ubar=ubar, law=sched["law"], seed=sched.get("seed"))
        except ValueError as exc:
            raise InputError(f"rollout JSON field 'schedule': {exc}") from None
        return cls(states=states, inputs=inputs, schedule=schedule, seed=d["seed"])


#: Rollouts that ``RolloutSet.to_json`` encodes, and ``from_json`` decodes, at
#: once: each then holds about the file's size plus one chunk's lists.  At
#: paper-4.1 a chunk is about 18 kB of text, and sizes from 16 to 64 were the
#: fastest on 2e4 rollouts (CHANGES.md).
_JSON_CHUNK = 64

_HEADER_KEYS = ("n", "m", "ell", "n_r", "seed", "schedule")

#: What ``to_json`` writes between the header's last field and the first rollout.
_ROLLOUTS_OPEN = ', "rollouts": ['


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _check_header(d):
    """Raise InputError unless the header fields of ``d``, an object holding them all, are valid."""
    for key in ("n", "m", "ell", "n_r"):
        if not _is_int(d[key]) or d[key] < 1:
            raise InputError(f"rollout JSON field {key!r} must be a positive integer")
    if not _is_int(d["seed"]):
        raise InputError("rollout JSON field 'seed' must be an integer")
    _require_fields(d["schedule"], ("nu", "Ubar", "law"), "rollout JSON field 'schedule'")
    if d["schedule"].get("seed") is not None and not _is_int(d["schedule"]["seed"]):
        raise InputError("rollout JSON field schedule.seed must be an integer or null")


def _read_whole(text):
    """The header, states and inputs of a rollout file parsed as one JSON document.

    This is the reference reading: every malformed file is reported here.
    """
    try:
        d = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer beyond int's digit limit
        raise InputError(f"rollout JSON does not parse: {exc}") from None
    _require_fields(d, _HEADER_KEYS + ("rollouts",), "rollout JSON")
    _check_header(d)
    if not isinstance(d["rollouts"], list):
        raise InputError("rollout JSON field 'rollouts' must be a list")
    n_r, ell = d["n_r"], d["ell"]
    states = _rollout_array(d["rollouts"], "x", "state", (n_r, ell + 1, d["n"]))
    inputs = _rollout_array(d["rollouts"], "u", "input", (n_r, ell, d["m"]))
    return d, states, inputs


def _read_chunked(text):
    """What ``_read_whole`` returns, for text in the layout ``to_json`` writes; None for other text.

    The header, up to ``_ROLLOUTS_OPEN``, must be the ``json.dumps`` of its
    own fields, and the text must end with the rollouts list.  The list is
    cut after the ``}`` of every _JSON_CHUNK-th ``}, {``, and each piece is
    parsed on its own into preallocated arrays.  A cut inside a string or a
    nested value leaves a piece that does not parse, so whenever every piece
    parses, the pieces hold the items of the whole list.  Text that
    ``_read_whole`` would reject returns None, so it is reported there.
    """
    start = text.find(_ROLLOUTS_OPEN) if isinstance(text, str) else -1
    if start < 0 or not text.endswith("]}"):
        return None
    head = text[:start] + "}"
    try:
        d = json.loads(head)
    except ValueError:
        return None
    if tuple(d) != _HEADER_KEYS or json.dumps(d) != head:  # head, ending in }, is an object
        return None
    try:
        _check_header(d)
    except InputError:
        return None
    n_r, ell, n, m = d["n_r"], d["ell"], d["n"], d["m"]
    if n_r * ((ell + 1) * n + ell * m) > len(text):  # a number takes a character at least
        return None
    states, inputs = np.empty((n_r, ell + 1, n)), np.empty((n_r, ell, m))
    k0, pos, close = 0, start + len(_ROLLOUTS_OPEN), len(text) - 2
    while pos < close:
        cut = pos
        for _ in range(_JSON_CHUNK):
            cut = text.find("}, {", cut + 1, close)
            if cut < 0:
                break
        end = close if cut < 0 else cut + 1
        try:
            items = json.loads("[" + text[pos:end] + "]")
            xs = np.array([r["x"] for r in items], dtype=float)
            us = np.array([r["u"] for r in items], dtype=float)
        except (KeyError, TypeError, ValueError, OverflowError):
            return None
        k1 = k0 + len(items)
        if k1 > n_r or xs.shape[1:] != states.shape[1:] or us.shape[1:] != inputs.shape[1:]:
            return None
        if not (np.isfinite(xs).all() and np.isfinite(us).all()):
            return None
        states[k0:k1], inputs[k0:k1], k0, pos = xs, us, k1, end + 2
    return (d, states, inputs) if k0 == n_r else None


def _require_fields(d, keys, what):
    """Raise InputError unless ``d`` is a JSON object holding every key."""
    if not isinstance(d, dict):
        raise InputError(f"{what} must be an object, got {type(d).__name__}")
    for key in keys:
        if key not in d:
            raise InputError(f"{what} has no {key!r} field")


def _schedule_array(sched, key, shape):
    """Schedule field ``key`` as a float array of ``shape`` (the header's ell and m)."""
    try:
        arr = np.array(sched[key], dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise InputError(f"rollout JSON field schedule.{key} is ragged, not numeric or too large") from None
    if arr.shape != shape:
        raise InputError(
            f"rollout JSON field schedule.{key} has shape {arr.shape}, "
            f"the header's ell = {shape[0]} and m = {shape[1]} need {shape}"
        )
    if not np.isfinite(arr).all():
        index = ", ".join(str(int(i)) for i in np.argwhere(~np.isfinite(arr))[0])
        raise InputError(f"rollout JSON field schedule.{key}[{index}] is not finite")
    return arr


def _rollout_array(rollouts, key, what, shape):
    """Stack field ``key`` of every rollout into a finite float array of ``shape``."""
    try:
        arr = np.array([r[key] for r in rollouts], dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError):  # a missing field; ragged, non-numeric or huge data
        arr = None
    if arr is None or arr.shape != shape:
        if len(rollouts) != shape[0]:
            raise InputError(
                f"rollout JSON holds {len(rollouts)} rollouts, its header says {shape[0]}"
            )
        for k, r in enumerate(rollouts):
            _require_fields(r, (key,), f"rollout {k}")
            try:
                got = np.shape(np.asarray(r[key], dtype=float))
            except (TypeError, ValueError, OverflowError):
                raise InputError(f"rollout {k}: {what}s are ragged, not numeric or too large") from None
            if got != shape[1:]:
                raise InputError(f"rollout {k}: {what}s have shape {got}, expected {shape[1:]}")
        raise InputError(f"rollout JSON has inconsistent {what} shapes")
    if not np.isfinite(arr).all():
        k = int(np.argmin(np.isfinite(arr).all(axis=(1, 2))))
        raise InputError(f"rollout {k}: {what}s hold a non-finite value")
    return arr


#: Byte alignment of the arrays a workspace hands out.
_ALIGN = 64

#: Address space a workspace segment maps, unless one array needs more; only
#: the pages a block uses are ever touched.  Every rollout block of the
#: presets fits in one segment.
_SEGMENT = 8 << 20


class _Workspace:
    """Scratch memory that one worker reuses across the blocks of a call: a stack of arrays.

    ``take`` hands out the next free bytes as an array, and ``release(mark)``
    frees everything taken since ``mark()``.  The bytes lie in segments of
    _SEGMENT bytes, or of the array's size if larger; an array that does not
    fit in the rest of the current segment starts the next one, which is
    mapped (or replaced by a larger one) when it is missing or too small.  A
    segment is an anonymous memory map, unmapped when the workspace is
    dropped: it never enters malloc's heaps, so it leaves no freed memory
    behind in a thread's heap and does not move malloc's mmap threshold.
    The first block of a size maps the segments and faults in their pages;
    the worker's later blocks allocate nothing here.
    """

    def __init__(self):
        self._segments = []
        self._top = (0, 0)  # (segment, byte offset) of the next free byte

    def mark(self):
        return self._top

    def release(self, mark):
        self._top = mark

    def take(self, shape, dtype=float):
        dtype = np.dtype(dtype)
        size = math.prod(shape) * dtype.itemsize
        i, start = self._top
        if i < len(self._segments) and start + size > self._segments[i].size:
            i, start = i + 1, 0
        if i == len(self._segments) or size > self._segments[i].size:  # a replaced segment holds nothing in use
            self._segments[i : i + 1] = [np.frombuffer(_anonymous_map(max(size, _SEGMENT)), dtype=np.uint8)]
        self._top = (i, start + -(-size // _ALIGN) * _ALIGN)
        return self._segments[i][start : start + size].view(dtype).reshape(shape)


class _Fresh:
    """The workspace of a call that reuses nothing: every ``take`` is a new array.

    A lone ``simulate_trajectories`` call, an ``iter_rollout_blocks`` call of
    one block per worker and a sampler's ``sample`` use it.  Their temporaries come from
    malloc, whose heap is warm from earlier calls, where a memory map of
    their own would fault its pages in afresh on every call.
    """

    def mark(self):
        return None

    def release(self, mark):
        pass

    def take(self, shape, dtype=float):
        return np.empty(shape, dtype)


def _anonymous_map(size):
    """``size`` bytes of private anonymous memory, unmapped when the last array over it is dropped."""
    if hasattr(mmap, "MAP_PRIVATE"):
        return mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    return mmap.mmap(-1, size)


def iter_rollout_blocks(system, schedule, init, n_r, seed, reduce=lambda *leaf: leaf):
    """Simulate rollouts 0..n_r-1 for a seed, or for each repetition r of a 1-D vector seed[r].

    Yields ``reduce(r, k0, states, inputs)`` per leaf of ROLLOUT_LEAF
    consecutive rollouts k0..k0+b-1 of repetition r (0 for a scalar seed),
    with states (b, ell+1, n) and inputs (b, ell, m), in (repetition,
    rollout) order; by default the tuple ``(r, k0, states, inputs)``.  Blocks
    of at most ROLLOUT_LEAF rows are simulated at once: whole repetitions
    share one when n_r <= ROLLOUT_LEAF.  With one block or one usable CPU
    the calling thread simulates the blocks in turn and starts no thread.
    Otherwise a thread pool, one thread per usable CPU and at most one per
    block, simulates them while the caller waits.  At most 2 * workers
    blocks past the next one to yield are submitted; the blocks not yet
    started are cancelled and the threads joined when the generator
    returns, raises or is closed.  ``reduce`` runs on the thread that
    simulated its leaf, so a caller that keeps only a leaf's sums holds at
    most the leaves of that window.  Every (seed, rollout, time, role) tuple
    draws from its own keyed stream, so a rollout depends neither on its
    block nor on the thread that ran it.  Each entry of a seed vector is an
    integer taken mod 2^64, as a lone seed is (``rngstream.seed_words``).
    The arguments are checked when iteration starts: n_r must be a positive
    integer (a bool is not one); a diverged state raises SimulationDiverged
    naming, for the first diverging repetition, the earliest step at which a
    rollout of its first diverging leaf diverged, and the lowest rollout
    index that diverged at that step.

    In a call of more blocks than workers each worker (the calling thread,
    or a pool thread) has one workspace, built when it simulates its first
    block and dropped when the generator ends: the temporaries of its
    blocks (see ``simulate_trajectories``) reuse it, so after that first
    block a worker allocates only the fresh states, inputs and divergence
    steps it hands to ``reduce``.  A workspace is as large as a block's temporaries at their
    peak: 2.5 MB on paper-4.1 at ROLLOUT_LEAF rows, beside the block's
    0.9 MB of outputs.  In a call of one block per worker the temporaries
    are fresh arrays.
    """
    try:
        if isinstance(n_r, bool):
            raise TypeError
        n_r = operator.index(n_r)
    except TypeError:
        raise ValueError(f"n_r must be a positive integer, got {n_r!r}") from None
    if n_r < 1:
        raise ValueError(f"n_r must be a positive integer, got {n_r!r}")
    if schedule.ell < 1:
        raise ValueError("schedule length must be >= 1")
    if schedule.m != system.m:
        raise ValueError(f"schedule input dim {schedule.m} != system m {system.m}")
    if init.mean.size != system.n:
        raise ValueError(f"initial state dim {init.mean.size} != system n {system.n}")
    if np.ndim(seed) > 1 or np.size(seed) == 0:
        raise ValueError(f"seed must be a scalar or a non-empty 1-D vector, got shape {np.shape(seed)}")
    ell, seeds = schedule.ell, rs.seed_words(seed) if np.ndim(seed) else [seed]
    per_block = max(1, ROLLOUT_LEAF // n_r)  # repetitions per block
    # one leaf per repetition when per_block > 1
    blocks = [(r0, k0) for r0 in range(0, len(seeds), per_block) for k0 in range(0, n_r, ROLLOUT_LEAF)]
    workers = min(_usable_cpus(), len(blocks))
    spaces = {}  # thread id -> that worker's workspace, dropped with the generator's frame

    def simulate(block):
        """The block's leaves, reduced; SimulationDiverged for its first diverged repetition."""
        r0, k0 = block
        b, block_seeds = min(ROLLOUT_LEAF, n_r - k0), seeds[r0 : r0 + per_block]
        ks = np.tile(np.arange(k0, k0 + b), len(block_seeds))
        row_seed = np.repeat(block_seeds, b) if np.ndim(seed) else seed
        # a workspace pays only when a worker may reuse it
        ws = spaces.setdefault(threading.get_ident(), _Workspace()) if len(blocks) > workers else _Fresh()
        states, inputs, diverged_at = _run_trajectories(system, schedule, init, ks, ell, row_seed, ws)
        leaves = []
        for i in range(len(block_seeds)):
            rows = slice(i * b, (i + 1) * b)
            t = int(diverged_at[rows].min())
            if t <= ell:
                bad = k0 + int(np.argmax(diverged_at[rows] == t))
                raise SimulationDiverged(f"state exceeded {DIVERGENCE_LIMIT:g} at t={t}, rollout {bad}")
            leaves.append(reduce(r0 + i, k0, states[rows], inputs[rows]))
        return leaves

    if workers == 1:
        for block in blocks:
            yield from simulate(block)
        return
    pool = ThreadPoolExecutor(workers)
    try:
        submitted = []
        for block in blocks:
            submitted.append(pool.submit(simulate, block))
            if len(submitted) > 2 * workers:  # bounds the results held
                yield from submitted.pop(0).result()
        while submitted:
            yield from submitted.pop(0).result()
    finally:
        pool.shutdown(cancel_futures=True)


def _usable_cpus():
    """How many CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def simulate_rollouts(system, schedule, init, n_r, seed):
    """Generate n_r independent rollouts; bit-reproducible from the seed.

    The rollouts are simulated block by block (``iter_rollout_blocks``), and
    every (rollout, time, role) tuple draws from its own keyed stream, so the
    result is independent of batching and of how many rollouts are requested:
    the first k rollouts of any larger set are identical.  ``seed`` is one
    scalar seed: repetitions under a seed vector go through ``iter_rollout_blocks``.
    """
    if np.ndim(seed):
        raise ValueError(f"simulate_rollouts takes one scalar seed, got an array of shape {np.shape(seed)}")
    states = inputs = None
    for _, k0, xs, us in iter_rollout_blocks(system, schedule, init, n_r, seed):
        if states is None:
            states = np.empty((n_r,) + xs.shape[1:])
            inputs = np.empty((n_r,) + us.shape[1:])
        states[k0 : k0 + len(xs)] = xs
        inputs[k0 : k0 + len(us)] = us
    return RolloutSet(states=states, inputs=inputs, schedule=schedule, seed=seed)


def simulate_trajectories(system, input_law, init, ks, T, seed):
    """Run the trajectories with rollout indices ks for T steps from x_0 = init.sample(seed, ks).

    This is the one state recursion, shared by the rollout and the
    single-trajectory simulators.  ``input_law.draw(keys, t, out, ws)`` draws
    u_t from step keys (an InputSchedule is such a law, as is baselines'
    stack of them).  Inputs and noise are drawn
    TIME_CHUNK steps at a time, which does not change a draw, since the keyed
    streams do not depend on the order of draws, and bounded noise draws are
    checked against their declared a.s. bound.  Per chunk the (seed, k, t)
    part of every stream key is hashed once (``rngstream.step_keys``), and
    the samplers take those keys, mixing only their role on top.  An initial
    law or a noise law without a ``draw`` method is called as
    ``init.sample(seed, ks)`` and ``noise.sample(seed, ks, t, n, m)``, with
    the same bits.
    A trajectory ends at its first
    state beyond DIVERGENCE_LIMIT, at step d: its states from x_d and its
    inputs from u_d on are NaN.  Each step tests the whole batch, and once the
    test has fired each row's first step beyond the limit is found at the end
    of every chunk; rows past it run on, and their steps are overwritten by
    NaN there.  The recursion stops
    at the first chunk start at which every trajectory has ended, so no later
    input or noise is drawn.  Returns states (len(ks), T+1, n), inputs
    (len(ks), T, m) and diverged_at (len(ks),), the first step index whose
    state went beyond the limit (T + 1 if none).

    Workspace: the step keys, the draws' scratch, the input and noise draws,
    the factor products, the bound check's norms, B u, u B' and the
    recursion's per-step arrays are taken from a workspace and given back at
    the end of each chunk, or when the call raises.  Here each is a fresh
    array.  Under an ``iter_rollout_blocks`` call of more blocks than workers
    the workspace is the worker's, reused across the worker's blocks; its
    peak is a chunk's temporaries, 2.5 MB on paper-4.1 at ROLLOUT_LEAF rows.
    The returned arrays are always fresh and the caller's own.
    """
    return _run_trajectories(system, input_law, init, ks, T, seed, _Fresh())


def _run_trajectories(system, input_law, init, ks, T, seed, ws):
    """simulate_trajectories with its temporaries taken from workspace ``ws``, left as it was found."""
    if len(ks) == 1:
        # numpy takes a one-row matrix product through gemv, which rounds
        # differently from the gemm of a larger batch, so a lone trajectory
        # is run twice and keeps the bits it has in any larger set.
        states, inputs, diverged_at = _run_trajectories(system, input_law, init, np.repeat(ks, 2), T, seed, ws)
        return states[:1], inputs[:1], diverged_at[:1]
    n, m, rows, noise = system.n, system.m, len(ks), system.noise
    states = np.empty((rows, T + 1, n))
    inputs = np.empty((rows, T, m))
    diverged_at = np.full(rows, T + 1, dtype=int)
    fired = False  # whether a state has gone beyond the limit: from then on every chunk is searched
    top = ws.mark()
    try:
        for c0 in range(0, max(T, 1), TIME_CHUNK):  # at least one chunk, which draws x_0
            if diverged_at.max() <= c0:  # every trajectory has ended
                states[:, c0 + 1 :] = np.nan
                inputs[:, c0:] = np.nan
                break
            c1 = min(c0 + TIME_CHUNK, T)
            ts = np.arange(c0, c1)
            lead = (c1 - c0, rows)
            chunk = ws.mark()
            # taken first, as they outlive the keys
            vec_a, vec_b, x = ws.take(lead + (n * n,)), ws.take(lead + (n * m,)), ws.take((rows, n))
            keyed = ws.mark()
            keys = ws.take(lead, np.uint64)
            mixed = ws.mark()
            rs.step_keys(seed, ks, ts, out=keys, tmp=ws.take(lead, np.uint64))
            ws.release(mixed)
            if c0:
                x[...] = states[:, c0]
            elif hasattr(init, "draw"):
                states[:, 0] = init.draw(keys[0] if len(ts) else rs.step_keys(seed, ks, 0), x, ws)
            else:
                states[:, 0] = x[...] = init.sample(seed, ks)
            u = inputs[:, c0:c1].swapaxes(0, 1)  # drawn in place
            input_law.draw(keys, ts, u, ws)
            if hasattr(noise, "draw"):
                Abar, Bbar = noise.draw(keys, ts, n, m, vec_a, vec_b, ws)
            else:
                Abar, Bbar = noise.sample(seed, ks, ts, n, m)
            ws.release(keyed)  # the keys are spent
            _check_noise_bound(system, Abar, Bbar, ws)
            Bu = np.einsum("tkij,tkj->tki", Bbar, u, out=ws.take(lead + (n,)))
            # Bbar is spent: u B' goes into its memory
            uB = np.matmul(u, system.B.T, out=vec_b.reshape(-1)[: math.prod(lead) * n].reshape(lead + (n,)))
            nxt, scratch = ws.take((rows, n)), ws.take((rows, n))
            with np.errstate(over="ignore", invalid="ignore"):  # rows beyond the limit run on, overwritten by NaN
                for i in range(c1 - c0):
                    # ((Abar x + x A') + B u) + u B', added in the order of the expression it replaces
                    np.einsum("kij,kj->ki", Abar[i], x, out=nxt)
                    nxt += np.matmul(x, system.A.T, out=scratch)
                    nxt += Bu[i]
                    nxt += uB[i]
                    states[:, c0 + i + 1] = nxt
                    fired = fired or beyond_limit(nxt, scratch=scratch)
                    x, nxt = nxt, x
            ws.release(chunk)
            if fired:
                steps = np.arange(c0 + 1, c1 + 1)
                first = np.where(beyond_limit(states[:, c0 + 1 : c1 + 1], 2), steps, T + 1).min(1)
                diverged_at = np.minimum(diverged_at, first)
                states[:, c0 + 1 : c1 + 1][steps >= diverged_at[:, None]] = np.nan
                inputs[:, c0:c1][steps > diverged_at[:, None]] = np.nan
    finally:
        ws.release(top)  # also when a draw or the bound check raises, as the worker's later blocks reuse ws
    return states, inputs, diverged_at


def _check_noise_bound(system, Abar, Bbar, ws):
    """Hard check of bounded noise draws against their declared a.s. spectral-norm bounds.

    The Frobenius norm bounds the spectral norm from above and is cheap, so
    only the draws it does not clear have their spectral norm computed.
    """
    for name, draws, bound in (("Abar", Abar, system.c_abar), ("Bbar", Bbar, system.c_bbar)):
        if bound is None:
            continue
        limit = bound + NOISE_BOUND_SLACK
        mark = ws.mark()
        norms = np.einsum("...ij,...ij->...", draws, draws, out=ws.take(draws.shape[:-2]))
        over = np.sqrt(norms, out=norms) > limit
        ws.release(mark)
        if over.any() and np.linalg.norm(draws[over], 2, axis=(-2, -1)).max() > limit:
            raise AssertionError(f"sampled {name} exceeded its declared a.s. bound")
