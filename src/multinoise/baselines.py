"""Single-trajectory baselines: recursive least squares for the nominal
system and for the lifted second-moment regression, on long trajectories
whose sample counts match the multi-rollout estimator's.  The RLSp baseline
drives them with the MALS input schedule itself, repeating with its period.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rngstream as rs
from .moment_oracle import lift_nominal
from .shape_ops import outer_svec, outer_vec
from .system_model import FixedInitial, beyond_limit, simulate_trajectories

__all__ = [
    "RlsState",
    "rls_nominal",
    "rls_second_moment",
    "second_moment_regressors",
    "covariance_from_fit",
    "rls_batch_estimates",
    "GaussianInputLaw",
    "simulate_single_trajectories",
]

#: Diffuse-prior initialization for the information matrix, P0 = INIT_COV * I.
INIT_COV = 1e6


@dataclass
class RlsState:
    """Final recursion state of one RLS run."""

    theta: np.ndarray
    P: np.ndarray
    steps: int
    diverged: bool


def _rls_batch(phi, target, checkpoints):
    """Unit-forgetting RLS over batched trajectories, frozen on divergence.

    phi: (R, T, d) regressors, target: (R, T, p) responses.  Returns
    (estimates at checkpoints: (len(cp), R, p, d), diverged: (R,), states, cps).
    A run freezes once its regressor, response or updated estimate leaves the
    finite range (|entry| > DIVERGENCE_LIMIT): the estimate rolls back to the
    last valid value and the divergence flag persists.
    """
    R, T, d = phi.shape
    p = target.shape[2]
    theta = np.zeros((R, p, d))
    P = np.tile(INIT_COV * np.eye(d), (R, 1, 1))
    alive = np.ones(R, dtype=bool)
    freeze_step = np.full(R, T + 1, dtype=int)  # 1-based step of first freeze
    cps = sorted(set(int(c) for c in checkpoints))
    if any(c < 1 or c > T for c in cps):
        raise ValueError(f"checkpoints must lie in 1..{T}")
    out = np.empty((len(cps), R, p, d))
    phi_t = phi.swapaxes(0, 1)  # time-major views: step t is phi_t[t]
    target_t = target.swapaxes(0, 1)
    bad_data = (beyond_limit(phi, 2) | beyond_limit(target, 2)).T  # (T, R)
    any_bad = bad_data.any(axis=1).tolist()
    all_alive = True  # while set, the masking and freeze bookkeeping are no-ops
    nxt = 0
    for t in range(T):
        ph, y = phi_t[t], target_t[t]
        if not all_alive or any_bad[t]:
            bad = bad_data[t]
            freeze_step[alive & bad] = t + 1
            alive &= ~bad
            all_alive = False
            if not alive.any():
                break
            ph = np.where(alive[:, None], ph, 0.0)
            y = np.where(alive[:, None], y, 0.0)
        Pph = np.einsum("rij,rj->ri", P, ph)
        denom = 1.0 + np.einsum("ri,ri->r", ph, Pph)
        gain = Pph / denom[:, None]
        resid = y - np.einsum("rpd,rd->rp", theta, ph)
        theta_new = theta + np.einsum("rp,rd->rpd", resid, gain)
        P_new = P - np.einsum("ri,rj->rij", gain, Pph)
        P_new = 0.5 * (P_new + P_new.swapaxes(1, 2))
        if all_alive and not (beyond_limit(theta_new) or beyond_limit(P_new)):
            theta, P = theta_new, P_new
        else:
            blown = alive & (beyond_limit(theta_new, (1, 2)) | beyond_limit(P_new, (1, 2)))
            freeze_step[blown] = t + 1
            keep = (alive & ~blown)[:, None, None]
            theta = np.where(keep, theta_new, theta)
            P = np.where(keep, P_new, P)
            alive &= ~blown
            all_alive = False
        while nxt < len(cps) and cps[nxt] == t + 1:
            out[nxt] = theta
            nxt += 1
        if not all_alive and not alive.any():
            break
    # every run is frozen from here on: later checkpoints repeat the frozen estimates
    out[nxt:] = theta
    states = [
        RlsState(theta=theta[r], P=P[r], steps=T, diverged=bool(~alive[r])) for r in range(R)
    ]
    return out, ~alive, states, cps, freeze_step


def rls_nominal(states, inputs, checkpoints=None):
    """RLS for [A B] on one trajectory: regressor (x_t, u_t), target x_{t+1}.

    Returns (estimates, diverged, final_state) where estimates is a list of
    (samples, [A_hat B_hat]) pairs at the requested sample counts
    (default: the full length only).
    """
    states = np.asarray(states, dtype=float)
    inputs = np.asarray(inputs, dtype=float)
    T = inputs.shape[0]
    if checkpoints is None:
        checkpoints = [T]
    phi = np.concatenate([states[:-1], inputs], axis=1)[None]
    target = states[1:][None].copy()
    out, div, st, cps, _ = _rls_batch(phi, target, checkpoints)
    return [(c, out[i, 0]) for i, c in enumerate(cps)], bool(div[0]), st[0]


def second_moment_regressors(states, inputs):
    """Reduced quadratic regressors of the single-trajectory covariance dynamic.

    Per step: target P1 vec(x_{t+1} x_{t+1}'), regressor blocks
    [P1 vec(x x'); P2 vec(u u'); vec(x u'); vec(u x')].  states (..., T+1, n)
    and inputs (..., T, m) may carry leading batch axes, kept in the outputs.
    """
    states = np.asarray(states, dtype=float)
    x0, x1, u = states[..., :-1, :], states[..., 1:, :], np.asarray(inputs, dtype=float)
    phi = np.concatenate([outer_svec(x0), outer_svec(u), outer_vec(x0, u), outer_vec(u, x0)], axis=-1)
    return phi, outer_svec(x1)


def rls_second_moment(states, inputs, nominal_estimates, checkpoints=None):
    """RLS covariance estimation on one trajectory, coupled to nominal estimates.

    nominal_estimates: list of (samples, [A_hat B_hat]) at the same sample
    counts (from rls_nominal).  At every checkpoint the lifted nominal part
    P1 (A_hat kron A_hat) Q1 (resp. B) is subtracted from the fitted
    second-moment blocks to give (SigmaA_tilde', SigmaB_tilde') estimates.
    Returns (list of (samples, SA_tilde, SB_tilde), diverged, final_state).
    """
    states = np.asarray(states, dtype=float)
    inputs = np.asarray(inputs, dtype=float)
    T = inputs.shape[0]
    if checkpoints is None:
        checkpoints = [T]
    phi, target = second_moment_regressors(states, inputs)
    out, div, st, cps, _ = _rls_batch(phi[None], target[None], checkpoints)
    nom = dict(nominal_estimates)
    for c in cps:
        if c not in nom:
            raise ValueError(f"no nominal estimate at sample count {c}")
    sa, sb = covariance_from_fit(out[:, 0], np.stack([nom[c] for c in cps]), states.shape[-1])
    return [(c, sa[i], sb[i]) for i, c in enumerate(cps)], bool(div[0]), st[0]


def covariance_from_fit(fit, nominal, n):
    """Reduced-covariance estimates from a fitted second-moment regression.

    fit (..., nt, d) holds the fitted blocks [At + St_A, Bt + St_B, K_BA, K_AB]
    and nominal (..., n, n+m) the matching [A_hat B_hat]; leading batch axes
    are kept.  The lifted nominal parts P1 (A_hat kron A_hat) Q1 and
    P1 (B_hat kron B_hat) Q2 are subtracted, giving (SigmaA_tilde, SigmaB_tilde).
    """
    A_t, B_t, _, _ = lift_nominal(nominal[..., :n], nominal[..., n:])
    nt, mt = A_t.shape[-1], B_t.shape[-1]
    return fit[..., :nt] - A_t, fit[..., nt : nt + mt] - B_t


def rls_batch_estimates(system, input_law, T, reps, seed, checkpoints):
    """Nominal and covariance RLS on reps single trajectories of length T.

    Data past a trajectory's divergence point is invalidated so the recursions
    freeze there.  Returns (cps, nominal, sigma_a, sigma_b, diverged), indexed
    [checkpoint, rep]: [A_hat B_hat], the reduced-covariance estimates, and
    whether the trajectory or either recursion froze at or before the checkpoint.
    """
    states, inputs, diverged_at = simulate_single_trajectories(system, input_law, T, reps, seed)
    # a diverged trajectory stores x_{d-1} again as x_d (d = diverged_at), so
    # pair d-1 already regresses that frozen copy: invalidate from d-1 on
    last_pair = diverged_at - 1
    phi_n = np.concatenate([states[:, :-1], inputs], axis=2)
    tgt_n = states[:, 1:].copy()
    _mask_after(phi_n, last_pair)
    _mask_after(tgt_n, last_pair)
    est_n, _, _, cps, freeze_n = _rls_batch(phi_n, tgt_n, checkpoints)
    phi2, tgt2 = second_moment_regressors(states, inputs)
    _mask_after(phi2, last_pair)
    _mask_after(tgt2, last_pair)
    est_2, _, _, _, freeze_2 = _rls_batch(phi2, tgt2, checkpoints)
    sa, sb = covariance_from_fit(est_2, est_n, system.n)
    first_freeze = np.minimum(np.minimum(diverged_at, freeze_n), freeze_2)
    return cps, est_n, sa, sb, first_freeze <= np.array(cps)[:, None]


def _mask_after(arr, diverged_at):
    """Invalidate regression data past each trajectory's divergence point."""
    arr[np.arange(arr.shape[1]) >= diverged_at[:, None]] = np.inf


class GaussianInputLaw:
    """i.i.d. standard normal inputs (the plain RLS baseline).

    Input laws draw u_t for rollout indices ``ks`` at a time index ``t`` or a
    1-D array of them (which adds a leading time axis).
    """

    def __init__(self, m):
        self.m = m

    def sample(self, seed, ks, t):
        return rs.unit_variance(seed, ks, t, rs.ROLE_INPUT, self.m, "gaussian")


def simulate_single_trajectories(system, input_law, T, reps, seed):
    """reps independent length-T trajectories from x_0 = 0 under an input law.

    ``input_law.sample(seed, ks, t)`` draws u_t (GaussianInputLaw, or an
    InputSchedule, whose moments repeat with its period ell).  Unlike the
    multi-rollout simulator this records divergence instead of raising: a
    trajectory freezes at its last in-range state and diverged_at[r] is the
    first invalid step index (T + 1 if none).
    """
    return simulate_trajectories(system, input_law, FixedInitial(np.zeros(system.n)), np.arange(reps), T, seed)
