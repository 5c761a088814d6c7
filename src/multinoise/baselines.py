"""Single-trajectory baselines: recursive least squares for the nominal
system and for the lifted second-moment regression, on long trajectories
whose sample counts match the multi-rollout estimator's.  The RLSp baseline
drives them with the MALS input schedule itself, repeating with its period.
"""

from __future__ import annotations

import numpy as np

from . import rngstream as rs
from .moment_oracle import lift_nominal
from .shape_ops import outer_svec, outer_vec, svec_dim
from .system_model import TIME_CHUNK, FixedInitial, beyond_limit, simulate_trajectories

__all__ = [
    "rls_fit",
    "second_moment_regressors",
    "covariance_from_fit",
    "rls_batch_estimates",
    "simulate_single_trajectories",
]

#: Diffuse ridge prior: every run's information factor starts as I / sqrt(INIT_COV),
#: so each row of theta has prior covariance INIT_COV * I.
INIT_COV = 1e6


def _rls_batch(phi, target, checkpoints):
    """Unit-forgetting RLS over batched trajectories, in square-root information form.

    phi: (R, T, d) regressors, target: (R, T, p) responses.  Returns
    (estimates at checkpoints: (len(cp), R, p, d), diverged: (R,), cps,
    freeze_step: (R,), the 1-based step of each run's freeze, T + 1 if none).
    Each run keeps the upper-triangular factor S (d+p, d+p) of its data so far
    stacked under the prior, [I/sqrt(INIT_COV) 0; Phi Y], and S takes one
    batched QR per segment of data: the TIME_CHUNK windows, split at the
    checkpoints.  At a checkpoint theta' solves S11 theta' = S12, the exact
    ridge estimate.  A run freezes at its first regressor or response outside
    the finite range (|entry| > DIVERGENCE_LIMIT), and its rows are zero from
    there on.  Zero rows leave S unchanged bit for bit (a Householder step
    with nothing below the diagonal is the identity), and each factor in the
    stack is updated apart from the others, so a run's estimates do not
    depend on its stack.  The QR updates stop once every run has frozen.
    """
    R, T, d = phi.shape
    p = target.shape[2]
    cps = sorted(set(int(c) for c in checkpoints))
    if not cps or cps[0] < 1 or cps[-1] > T:
        raise ValueError(f"checkpoints must be a non-empty list in 1..{T}, got {list(checkpoints)}")
    S = np.zeros((R, d + p, d + p))
    S[:, :d, :d] = np.eye(d) / np.sqrt(INIT_COV)
    out = np.empty((len(cps), R, p, d))
    freeze_step = np.full(R, T + 1)
    a = 0
    for b in sorted(set(range(TIME_CHUNK, T, TIME_CHUNK)).union(cps, [T])):
        if a < freeze_step.max() - 1:  # else every run is frozen: the rest is zero data
            bad = beyond_limit(phi[:, a:b], 2) | beyond_limit(target[:, a:b], 2)  # (R, b - a)
            freeze_step = np.minimum(freeze_step, np.where(bad.any(axis=1), a + bad.argmax(axis=1) + 1, T + 1))
            rows = np.concatenate([phi[:, a:b], target[:, a:b]], axis=2)
            rows[np.arange(a, b) >= freeze_step[:, None] - 1] = 0.0
            S = np.linalg.qr(np.concatenate([S, rows], axis=1), mode="r")
        if b in cps:
            out[cps.index(b)] = np.linalg.solve(S[:, :d, :d], S[:, :d, d:]).swapaxes(1, 2)
        a = b
    return out, freeze_step <= T, cps, freeze_step


def rls_fit(states, inputs, checkpoints):
    """Nominal and covariance RLS on single trajectories.

    states (R, T+1, n) and inputs (R, T, m).  The nominal recursion regresses
    x_{t+1} on (x_t, u_t); the second-moment recursion fits the reduced
    quadratic regression, from which the lifted nominal part is subtracted at
    every checkpoint.  Returns (cps, nominal, sigma_a, sigma_b, frozen),
    indexed [checkpoint, run]: [A_hat B_hat], the reduced-covariance
    estimates (SigmaA_tilde', SigmaB_tilde'), and whether either recursion
    froze at or before the checkpoint.
    """
    states = np.asarray(states, dtype=float)
    inputs = np.asarray(inputs, dtype=float)
    if states.ndim != 3 or inputs.ndim != 3 or states.shape[:2] != (inputs.shape[0], inputs.shape[1] + 1):
        raise ValueError(f"states {states.shape} and inputs {inputs.shape} must be (R, T+1, n) and (R, T, m)")
    phi_n = np.concatenate([states[:, :-1], inputs], axis=2)
    est_n, _, cps, freeze_n = _rls_batch(phi_n, states[:, 1:], checkpoints)
    del phi_n  # the second-moment regressors are larger; hold one set at a time
    est_2, _, _, freeze_2 = _rls_batch(*second_moment_regressors(states, inputs), checkpoints)
    sa, sb = covariance_from_fit(est_2, est_n, states.shape[2])
    return cps, est_n, sa, sb, np.minimum(freeze_n, freeze_2) <= np.array(cps)[:, None]


def second_moment_regressors(states, inputs):
    """Reduced quadratic regressors of the single-trajectory covariance dynamic.

    Per step: target P1 vec(x_{t+1} x_{t+1}'), regressor blocks
    [P1 vec(x x'); P2 vec(u u'); vec(x u')], nt + mt + nm columns.  The cross
    terms enter once: vec(u x') = K_nm vec(x u') for the commutation matrix
    K_nm, so the last block's coefficient is their sum, K_BA + K_AB K_nm, and
    no column repeats another.  states (..., T+1, n) and inputs (..., T, m)
    may carry leading batch axes, kept in the outputs.
    """
    states = np.asarray(states, dtype=float)
    x0, x1, u = states[..., :-1, :], states[..., 1:, :], np.asarray(inputs, dtype=float)
    n, m = x0.shape[-1], u.shape[-1]
    nt, mt = svec_dim(n), svec_dim(m)
    phi = np.empty(u.shape[:-1] + (nt + mt + n * m,))
    phi[..., :nt] = outer_svec(x0)
    phi[..., nt : nt + mt] = outer_svec(u)
    phi[..., nt + mt :] = outer_vec(x0, u)
    return phi, outer_svec(x1)


def covariance_from_fit(fit, nominal, n):
    """Reduced-covariance estimates from a fitted second-moment regression.

    fit (..., nt, d) holds the fitted blocks [At + St_A, Bt + St_B, K], with
    K = K_BA + K_AB K_nm the summed cross term of second_moment_regressors,
    and nominal (..., n, n+m) the matching [A_hat B_hat]; leading batch axes
    are kept.  The lifted nominal parts P1 (A_hat kron A_hat) Q1 and
    P1 (B_hat kron B_hat) Q2 are subtracted, giving (SigmaA_tilde,
    SigmaB_tilde); K is not read.
    """
    A_t, B_t, _, _ = lift_nominal(nominal[..., :n], nominal[..., n:])
    nt, mt = A_t.shape[-1], B_t.shape[-1]
    return fit[..., :nt] - A_t, fit[..., nt : nt + mt] - B_t


def rls_batch_estimates(system, input_law, T, reps, seed, checkpoints):
    """rls_fit on reps single trajectories of length T simulated from x_0 = 0.

    ``input_law`` and ``seed`` are one law and one seed, or sequences of
    equal length, each seed an integer taken mod 2^64 (see
    simulate_single_trajectories); the runs are stacked
    law-major, law i's at runs i*reps .. (i+1)*reps - 1, in one simulation
    pass and one rls_fit call, each bit for bit its one-law call.  A diverged
    trajectory's states from x_d (d = diverged_at) on are NaN, so its pair
    d-1 has an out-of-range response and both recursions freeze after the
    last real transition.  Returns rls_fit's (cps, nominal, sigma_a, sigma_b,
    frozen).
    """
    states, inputs, _ = simulate_single_trajectories(system, input_law, T, reps, seed)
    return rls_fit(states, inputs, checkpoints)


class _LawMajor:
    """Input laws stacked law-major: law i draws the i-th of len(laws) equal blocks of rows, with their seeds."""

    def __init__(self, laws):
        self.laws = laws

    def draw(self, keys, t, out, ws):
        """u_t at step keys ``keys`` (t's axis, then rows) into ``out``: each law draws its block, as alone."""
        blocks = zip(self.laws, np.split(keys, len(self.laws), axis=-1), np.split(out, len(self.laws), axis=-2))
        for law, k, o in blocks:
            mark = ws.mark()
            own = ws.take(k.shape, np.uint64)
            own[...] = k  # contiguous keys, and a contiguous block of u below
            o[...] = law.draw(own, t, ws.take(o.shape), ws)
            ws.release(mark)
        return out


def simulate_single_trajectories(system, input_law, T, reps, seed):
    """reps independent length-T trajectories from x_0 = 0 under each input law.

    ``input_law`` draws u_t: an InputSchedule, whose moments repeat with its
    period ell.  Unlike the multi-rollout simulator
    this records divergence instead of raising: diverged_at[r] is the first
    step index whose state went beyond the limit (T + 1 if none), and
    trajectory r's states from it on and its inputs from it on are NaN
    (see simulate_trajectories).  ``input_law`` is one law with one seed, or
    a sequence of laws with one seed per law; one law is the one-law
    sequence.  Every seed is an integer taken mod 2^64, as stream_keys takes
    a lone seed; any other seed is a ValueError naming its index.  Law i's
    trajectories are rows i*reps .. (i+1)*reps - 1, each row keyed by its own
    law's seed, so each is bit for bit what law i gives alone with seed[i].
    """
    if not isinstance(input_law, (list, tuple)):
        if np.ndim(seed):
            raise ValueError(f"one input law needs one seed, got {np.size(seed)} seeds")
        input_law, seed = (input_law,), [seed]
    if not len(input_law):
        raise ValueError("the sequence of input laws is empty")
    if np.ndim(seed) != 1 or len(seed) != len(input_law):
        got = len(seed) if np.ndim(seed) == 1 else f"the single seed {seed!r}"
        raise ValueError(f"{len(input_law)} input laws need as many seeds, got {got}")
    if reps < 1:
        raise ValueError(f"reps must be a positive integer, got {reps}")
    for i, law in enumerate(input_law):
        if law.m != system.m:
            raise ValueError(f"input law {i} has m = {law.m} but the system has m = {system.m}")
    seeds = rs.seed_words(seed).repeat(reps)
    ks = np.tile(np.arange(reps), len(input_law))
    return simulate_trajectories(system, _LawMajor(input_law), FixedInitial(np.zeros(system.n)), ks, T, seeds)
