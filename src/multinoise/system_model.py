"""Multiplicative-noise linear systems and independent-rollout simulation.

The plant is x_{t+1} = (A + Abar_t) x_t + (B + Bbar_t) u_t with i.i.d.
zero-mean matrix noise (Abar_t, Bbar_t) independent of the inputs.  Noise is
described by vec-covariances SigmaA = E{vec(Abar) vec(Abar)'} (n^2 x n^2) and
SigmaB likewise (nm x nm).
"""

from __future__ import annotations

import json
import math
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


def beyond_limit(a, axis=None):
    """Whether any entry along ``axis`` (default: all) is NaN, infinite or > DIVERGENCE_LIMIT."""
    return ~(np.abs(a) <= DIVERGENCE_LIMIT).all(axis=axis)


#: Rollouts simulated together as one block, and summed together as one leaf
#: of the moment reduction tree.  At this size a block's arrays stay in
#: cache, and memory does not grow with the number of rollouts.
ROLLOUT_LEAF = 8192

#: Time steps whose draws a single-trajectory simulation, and whose data an RLS
#: recursion, holds at once: memory does not grow with the horizon, and every
#: rollout horizon (ell <= 6 in the presets) is one chunk.
TIME_CHUNK = 256

_SQRT3 = np.sqrt(3.0)


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


def _psd_factor(S, name):
    """Return L with L L' = S for symmetric PSD S (eigenvalue clipping), over leading axes.

    Matrices that fail the PSD rule of ``is_psd`` are an error naming the
    first of them; small negative eigenvalues are clipped to zero (empirical
    covariances carry rounding noise).
    """
    S = np.asarray(S, dtype=float)
    if S.ndim < 2 or S.shape[-2] != S.shape[-1]:
        raise ValueError(f"{name} must be square, got {S.shape}")
    w, V = np.linalg.eigh(0.5 * (S + S.swapaxes(-1, -2)))
    bad = np.argwhere(~_psd_eigenvalues(w))
    if len(bad):
        at = "".join(f"[{i}]" for i in bad[0])
        raise ValueError(f"{name}{at} is not positive semidefinite (min eig {w[tuple(bad[0])][0]:.3e})")
    return V * np.sqrt(np.clip(w, 0.0, None))[..., None, :]


class ZeroNoise:
    """No multiplicative noise."""

    law = "uniform"

    def implied_sigma_a(self, n):
        return np.zeros((n * n, n * n))

    def implied_sigma_b(self, n, m):
        return np.zeros((n * m, n * m))

    def bounds(self, n, m):
        return 0.0, 0.0

    def sample(self, seed, ks, t, n, m):
        lead = np.shape(t) + (len(ks),)
        return np.zeros(lead + (n, n)), np.zeros(lead + (n, m))


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
        ca = float(np.linalg.norm(self._LA, 2)) * _SQRT3 * np.sqrt(n * n)
        cb = float(np.linalg.norm(self._LB, 2)) * _SQRT3 * np.sqrt(n * m)
        return ca, cb

    def sample(self, seed, ks, t, n, m):
        za = rs.unit_variance(seed, ks, t, rs.ROLE_NOISE_A, n * n, self.law)
        zb = rs.unit_variance(seed, ks, t, rs.ROLE_NOISE_B, n * m, self.law)
        veca = za @ self._LA.T
        vecb = zb @ self._LB.T
        Abar = veca.reshape(veca.shape[:-1] + (n, n)).swapaxes(-1, -2)  # undo column stacking
        Bbar = vecb.reshape(vecb.shape[:-1] + (m, n)).swapaxes(-1, -2)
        return Abar, Bbar


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
        self.law = law

    def implied_sigma_a(self, n):
        S = np.zeros((n * n, n * n))
        for M, s in zip(self.a_dirs, self.sigmas):
            v = vec(M)
            S += s * s * np.outer(v, v)
        return S

    def implied_sigma_b(self, n, m):
        S = np.zeros((n * m, n * m))
        for M, d in zip(self.b_dirs, self.deltas):
            v = vec(M)
            S += d * d * np.outer(v, v)
        return S

    def bounds(self, n, m):
        if self.law != "uniform":
            return None, None
        ca = _SQRT3 * sum(abs(s) * np.linalg.norm(M, 2) for M, s in zip(self.a_dirs, self.sigmas))
        cb = _SQRT3 * sum(abs(d) * np.linalg.norm(M, 2) for M, d in zip(self.b_dirs, self.deltas))
        return float(ca), float(cb)

    def sample(self, seed, ks, t, n, m):
        lead = np.shape(t) + (len(ks),)
        r, s = len(self.a_dirs), len(self.b_dirs)
        Abar = np.zeros(lead + (n, n))
        if r:
            p = rs.unit_variance(seed, ks, t, rs.ROLE_NOISE_A, r, self.law) * self.sigmas
            Abar = np.einsum("...r,rij->...ij", p, np.stack(self.a_dirs))
        Bbar = np.zeros(lead + (n, m))
        if s:
            q = rs.unit_variance(seed, ks, t, rs.ROLE_NOISE_B, s, self.law) * self.deltas
            Bbar = np.einsum("...s,sij->...ij", q, np.stack(self.b_dirs))
        return Abar, Bbar


# ---------------------------------------------------------------------------
# initial-state distributions


class FixedInitial:
    """Deterministic initial state."""

    def __init__(self, x0):
        self.x0 = np.asarray(x0, dtype=float).ravel()
        self.mean = self.x0
        self.second_moment = np.outer(self.x0, self.x0)

    def sample(self, seed, ks):
        return np.tile(self.x0, (len(ks), 1))

    def bounds(self):
        c_x = float(np.linalg.norm(self.x0))
        return c_x, 0.0, 0.0  # c_X, c_mu, c_DeltaX


class UniformBoxInitial:
    """Independent per-component uniform on [center - half, center + half]."""

    def __init__(self, center, half_width):
        self.center = np.asarray(center, dtype=float).ravel()
        self.half = np.asarray(half_width, dtype=float).ravel()
        if self.half.shape != self.center.shape or np.any(self.half < 0):
            raise ValueError("half_width must be nonnegative and match center")
        self.mean = self.center
        self.second_moment = np.outer(self.center, self.center) + np.diag(self.half**2 / 3.0)

    def sample(self, seed, ks):
        u = rs.uniform01(seed, ks, 0, rs.ROLE_X0, self.center.size)
        return self.center + (2.0 * u - 1.0) * self.half

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
        z = rs.truncated_normal(seed, ks, 0, rs.ROLE_X0, self.mu.size, self.radius)
        return self.mu + z @ self._L.T

    def bounds(self):
        c_mu = float(np.linalg.norm(self._L, 2)) * self.radius * np.sqrt(self.mu.size)
        c_x = float(np.linalg.norm(self.mu)) + c_mu
        c_dx = c_x * c_x + float(np.linalg.norm(self.second_moment, "fro"))
        return c_x, c_mu, c_dx


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
        tt = t % self.ell
        if self.law == "deterministic":
            return np.repeat(self.nu[tt, None], len(ks), axis=-2)
        z = rs.unit_variance(seed, ks, t, rs.ROLE_INPUT, self.m, self.law)
        return self.nu[tt, None] + z @ self._factors[tt].swapaxes(-1, -2)

    def deviation_bounds(self):
        """(c_U, c_nu): a.s. bounds on ||u_t|| and ||u_t - nu_t||; None if unbounded."""
        if self.law == "gaussian":
            return None, None
        if self.law == "deterministic":
            c_nu = 0.0
        else:
            c_nu = float(np.linalg.norm(self._factors, 2, axis=(-2, -1)).max()) * _SQRT3 * np.sqrt(self.m)
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
        return json.dumps(
            {
                "n": self.n,
                "m": self.m,
                "ell": self.ell,
                "n_r": self.n_r,
                "seed": self.seed,
                "schedule": self.schedule.to_json_dict(),
                "rollouts": [
                    {"x": self.states[k].tolist(), "u": self.inputs[k].tolist()}
                    for k in range(self.n_r)
                ],
            }
        )

    @classmethod
    def from_json(cls, text):
        """Parse ``to_json`` output.

        Malformed JSON, missing fields, ragged, mis-shaped or non-finite data
        and a schedule that disagrees with the header raise InputError.
        """
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"rollout JSON does not parse: {exc}") from None
        _require_fields(d, ("n", "m", "ell", "n_r", "seed", "schedule", "rollouts"), "rollout JSON")
        for key in ("n", "m", "ell", "n_r"):
            if not isinstance(d[key], int) or isinstance(d[key], bool) or d[key] < 1:
                raise InputError(f"rollout JSON field {key!r} must be a positive integer")
        if not isinstance(d["rollouts"], list):
            raise InputError("rollout JSON field 'rollouts' must be a list")
        _require_fields(d["schedule"], ("nu", "Ubar", "law"), "rollout JSON field 'schedule'")
        n_r, ell, m = d["n_r"], d["ell"], d["m"]
        states = _rollout_array(d["rollouts"], "x", "state", (n_r, ell + 1, d["n"]))
        inputs = _rollout_array(d["rollouts"], "u", "input", (n_r, ell, m))
        sched = d["schedule"]
        nu = _schedule_array(sched, "nu", (ell, m))
        ubar = _schedule_array(sched, "Ubar", (ell, m, m))
        try:
            schedule = InputSchedule(nu=nu, ubar=ubar, law=sched["law"], seed=sched.get("seed"))
        except ValueError as exc:
            raise InputError(f"rollout JSON field 'schedule': {exc}") from None
        return cls(states=states, inputs=inputs, schedule=schedule, seed=d["seed"])


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
    except (TypeError, ValueError):
        raise InputError(f"rollout JSON field schedule.{key} is ragged or not numeric") from None
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
    except (KeyError, TypeError, ValueError):  # a missing field, ragged or non-numeric data
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
            except (TypeError, ValueError):
                raise InputError(f"rollout {k}: {what}s are ragged or not numeric") from None
            if got != shape[1:]:
                raise InputError(f"rollout {k}: {what}s have shape {got}, expected {shape[1:]}")
        raise InputError(f"rollout JSON has inconsistent {what} shapes")
    if not np.isfinite(arr).all():
        k = int(np.argmin(np.isfinite(arr).all(axis=(1, 2))))
        raise InputError(f"rollout {k}: {what}s hold a non-finite value")
    return arr


def iter_rollout_blocks(system, schedule, init, n_r, seed):
    """Simulate rollouts 0..n_r-1 for a seed, or for each repetition r of a 1-D vector seed[r].

    Yields ``(r, k0, states, inputs)`` per leaf of ROLLOUT_LEAF consecutive
    rollouts k0..k0+b-1 of repetition r (0 for a scalar seed), with states
    (b, ell+1, n) and inputs (b, ell, m), in (repetition, rollout) order.
    Blocks of at most ROLLOUT_LEAF rows are simulated at once: whole
    repetitions share one when n_r <= ROLLOUT_LEAF.  Every (seed, rollout,
    time, role) tuple draws from its own keyed stream, so a rollout does not
    depend on its block.  The arguments are checked when iteration starts; a
    diverged state raises SimulationDiverged naming, for the first diverging
    repetition, the earliest step at which a rollout of its first diverging
    leaf diverged, and the lowest rollout index that diverged at that step.
    """
    if n_r < 1:
        raise ValueError("n_r must be >= 1")
    if schedule.ell < 1:
        raise ValueError("schedule length must be >= 1")
    if schedule.m != system.m:
        raise ValueError(f"schedule input dim {schedule.m} != system m {system.m}")
    ell, seeds = schedule.ell, np.atleast_1d(seed)
    per_block = max(1, ROLLOUT_LEAF // n_r)  # repetitions per block
    for r0 in range(0, len(seeds), per_block):
        for k0 in range(0, n_r, ROLLOUT_LEAF):  # one leaf per repetition when per_block > 1
            b, block_seeds = min(ROLLOUT_LEAF, n_r - k0), seeds[r0 : r0 + per_block]
            ks = np.tile(np.arange(k0, k0 + b), len(block_seeds))
            row_seed = np.repeat(block_seeds, b) if np.ndim(seed) else seed
            states, inputs, diverged_at = simulate_trajectories(system, schedule, init, ks, ell, row_seed)
            for i in range(len(block_seeds)):
                rows = slice(i * b, (i + 1) * b)
                t = int(diverged_at[rows].min())
                if t <= ell:
                    bad = k0 + int(np.argmax(diverged_at[rows] == t))
                    raise SimulationDiverged(f"state exceeded {DIVERGENCE_LIMIT:g} at t={t}, rollout {bad}")
                yield r0 + i, k0, states[rows], inputs[rows]


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
    single-trajectory simulators.  ``input_law.sample(seed, ks, t)`` draws
    u_t (an InputSchedule is such a law).  Inputs and noise are drawn
    TIME_CHUNK steps at a time, which does not change a draw, since the keyed
    streams do not depend on the order of draws, and bounded noise draws are
    checked against their declared a.s. bound.  A trajectory whose state goes
    beyond DIVERGENCE_LIMIT freezes at its last state within it: each step
    tests the whole batch, and each row's first step beyond the limit is found
    at the end of a chunk, once the test has fired.  The recursion stops once
    every trajectory has frozen: from the next chunk on only the inputs are
    drawn, so later noise is neither drawn nor checked.  Returns states
    (len(ks), T+1, n), inputs (len(ks), T, m) and diverged_at (len(ks),), the
    first step index whose state went beyond the limit (T + 1 if none).
    """
    if len(ks) == 1:
        # numpy takes a one-row matrix product through gemv, which rounds
        # differently from the gemm of a larger batch, so a lone trajectory
        # is run twice and keeps the bits it has in any larger set.
        states, inputs, diverged_at = simulate_trajectories(system, input_law, init, np.repeat(ks, 2), T, seed)
        return states[:1], inputs[:1], diverged_at[:1]
    n, m = system.n, system.m
    x = init.sample(seed, ks)
    diverged_at = np.full(len(ks), T + 1, dtype=int)
    fired = False  # whether a state has gone beyond the limit: from then on every chunk is searched
    states = inputs = None
    for c0 in range(0, max(T, 1), TIME_CHUNK):  # at least one chunk, which allocates the outputs
        c1 = min(c0 + TIME_CHUNK, T)
        ts = np.arange(c0, c1)
        u = input_law.sample(seed, ks, ts)  # (c1 - c0, len(ks), m)
        live = diverged_at.max() > c0
        if live:
            Abar, Bbar = system.noise.sample(seed, ks, ts, n, m)
        if states is None:
            # allocated after the first draws: allocated before them, a rollout
            # block of paper-4.1-additive took about 6% longer
            states = np.empty((len(ks), T + 1, n))
            inputs = np.empty((len(ks), T, m))
            states[:, 0, :] = x
        inputs[:, c0:c1] = u.swapaxes(0, 1)
        if not live:
            continue
        _check_noise_bound(system, Abar, Bbar)
        Bu = np.einsum("tkij,tkj->tki", Bbar, u)
        uB = u @ system.B.T
        with np.errstate(over="ignore", invalid="ignore"):  # rows beyond the limit run on to the chunk's end
            for i in range(c1 - c0):
                x = np.einsum("kij,kj->ki", Abar[i], x) + x @ system.A.T + Bu[i] + uB[i]
                states[:, c0 + i + 1, :] = x
                fired = fired or beyond_limit(x)
        if not fired:
            continue
        steps = np.arange(c0 + 1, c1 + 1)
        first = np.where(beyond_limit(states[:, c0 + 1 : c1 + 1], 2), steps, T + 1).min(1)
        diverged_at = np.minimum(diverged_at, first)
        # each row's last state within the limit (its state at c1 if it has not frozen)
        x = states[np.arange(len(ks)), np.minimum(diverged_at, c1 + 1) - 1]
        np.copyto(states[:, c0 + 1 : c1 + 1], x[:, None, :], where=(steps >= diverged_at[:, None])[:, :, None])
        if diverged_at.max() <= c1:
            states[:, c1 + 1 :, :] = x[:, None, :]  # every trajectory is frozen
    return states, inputs, diverged_at


def _check_noise_bound(system, Abar, Bbar):
    """Hard check of bounded noise draws against their declared a.s. spectral-norm bounds.

    The Frobenius norm bounds the spectral norm from above and is cheap, so
    only the draws it does not clear have their spectral norm computed.
    """
    for name, draws, bound in (("Abar", Abar, system.c_abar), ("Bbar", Bbar, system.c_bbar)):
        if bound is None:
            continue
        limit = bound + NOISE_BOUND_SLACK
        over = np.sqrt(np.einsum("...ij,...ij->...", draws, draws)) > limit
        if over.any() and np.linalg.norm(draws[over], 2, axis=(-2, -1)).max() > limit:
            raise AssertionError(f"sampled {name} exceeded its declared a.s. bound")
