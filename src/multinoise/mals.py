"""Multiple-trajectory averaging least squares: input design, moment
averaging over rollouts, and the two closed-form least-squares solves.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .moment_oracle import MomentTrajectory, lift, lift_nominal
from .shape_ops import selection_matrices, svec, svec_dim, vec
from .system_model import InputSchedule, RolloutSet, simulate_rollouts

__all__ = [
    "design_inputs",
    "empirical_moments",
    "estimate_nominal",
    "estimate_covariance",
    "estimate_from_population",
    "attach_errors",
    "EstimationResult",
    "mals",
]

#: Pseudoinverse trigger: lambda_min <= RANK_TOL * lambda_max of the Gram matrix.
RANK_TOL = 1e-10


def design_inputs(m, ell, mean_law="uniform", wishart_scale=0.1, input_law="uniform", seed=0):
    """Draw and fix an input schedule.

    Means nu_t are i.i.d. from ``mean_law`` ("uniform" on [0,1]^m, or
    "gaussian" standard normal).  Covariances Ubar_t are i.i.d. Wishart with
    scale wishart_scale * I_m and m degrees of freedom (Bartlett draw), or
    identically zero when input_law = "deterministic".
    """
    if m < 1 or ell < 1:
        raise ValueError("need m >= 1 and ell >= 1")
    if wishart_scale < 0:
        raise ValueError("wishart_scale must be nonnegative")
    rng = np.random.default_rng(np.random.SeedSequence([0x5EED, seed]))
    if mean_law == "uniform":
        nu = rng.random((ell, m))
    elif mean_law == "gaussian":
        nu = rng.standard_normal((ell, m))
    else:
        raise ValueError(f"unknown mean law {mean_law!r}")
    ubar = np.zeros((ell, m, m))
    if input_law != "deterministic":
        for t in range(ell):
            ubar[t] = _wishart_bartlett(rng, m, wishart_scale)
    return InputSchedule(nu=nu, ubar=ubar, law=input_law, seed=seed)


def _wishart_bartlett(rng, m, scale):
    """Wishart(scale * I_m, df=m) via the Bartlett lower-triangular draw."""
    L = np.zeros((m, m))
    for i in range(m):
        L[i, i] = np.sqrt(rng.chisquare(m - i))
        L[i, :i] = rng.standard_normal(i)
    W = L @ L.T
    return scale * W


def empirical_moments(rollouts):
    """Averaged moments per the estimator: mu_hat, reduced Xt_hat, W, W', Ut.

    W_hat uses the designed means (vec(mu_hat nu')), and Ut the designed input
    moments, not sampled input statistics.  Sums run over the rollout axis
    (numpy's pairwise mean, a BLAS product for the second moments), so the
    results depend on rollout order in the last bits: permuting the rollouts
    can change mu_hat, Xt_hat and W by rounding.
    """
    if rollouts.n_r < 1:
        raise ValueError("empty rollout set")
    states = rollouts.states
    sched = rollouts.schedule
    n_r, ell = rollouts.n_r, rollouts.ell
    n = rollouts.n
    kept = selection_matrices(n).kept
    mu = states.mean(axis=0)  # (ell+1, n)
    x_t = np.empty((ell + 1, svec_dim(n)))
    for t in range(ell + 1):
        xt = states[:, t, :]
        second = xt.T @ xt / n_r
        x_t[t] = vec(0.5 * (second + second.T))[kept]
    w = np.empty((ell, n * sched.m))
    w_p = np.empty((ell, n * sched.m))
    u_t = np.empty((ell, svec_dim(sched.m)))
    for t in range(ell):
        w[t] = vec(np.outer(mu[t], sched.nu[t]))
        w_p[t] = vec(np.outer(sched.nu[t], mu[t]))
        u_t[t] = svec(sched.input_second_moment(t))
    return MomentTrajectory(
        mu=mu, x_t=x_t, w=w, w_p=w_p, u_t=u_t, nu=sched.nu.copy(), source="empirical"
    )


def _gram_solve(Mmat, Gram):
    """Solve X = Mmat @ Gram^+ via symmetric eigendecomposition.

    Returns (X, lambda_min, lambda_max, used_pinv); the pseudoinverse path
    (singular values below RANK_TOL * lambda_max dropped) triggers exactly
    when lambda_min <= RANK_TOL * lambda_max.
    """
    G = 0.5 * (Gram + Gram.T)
    w, V = np.linalg.eigh(G)
    lam_min, lam_max = float(w[0]), float(w[-1])
    tol = RANK_TOL * max(lam_max, 0.0)
    used_pinv = bool(lam_min <= tol)
    if used_pinv:
        w_inv = np.where(w > tol, 1.0 / np.where(w > tol, w, 1.0), 0.0)
    else:
        w_inv = 1.0 / w
    X = (Mmat @ V) * w_inv @ V.T
    return X, lam_min, lam_max, used_pinv


def estimate_nominal(moments):
    """[A_hat B_hat] = Y_hat Z_hat' (Z_hat Z_hat')^+ from averaged moments."""
    ell = moments.ell
    Y = moments.mu[ell:0:-1].T
    Z = np.vstack([moments.mu[ell - 1 :: -1].T, moments.nu[::-1].T])
    theta, lam_min, lam_max, used_pinv = _gram_solve(Y @ Z.T, Z @ Z.T)
    n = moments.mu.shape[1]
    diag = {"lambda_min_zz": lam_min, "lambda_max_zz": lam_max, "used_pinv_z": used_pinv}
    return theta[:, :n], theta[:, n:], diag


def estimate_covariance(moments, A_hat, B_hat):
    """Residual regression for the reduced covariances, coupled through (A_hat, B_hat).

    Residual columns use the lifted matrices built from the nominal estimates;
    the solve is C_hat D_hat' (D_hat D_hat')^+.
    """
    A_hat = np.asarray(A_hat, dtype=float)
    B_hat = np.asarray(B_hat, dtype=float)
    n, m = A_hat.shape[0], B_hat.shape[1]
    A_t, B_t, K_BA, K_AB = lift_nominal(A_hat, B_hat)
    pred = (
        moments.x_t[:-1] @ A_t.T
        + moments.w @ K_BA.T
        + moments.w_p @ K_AB.T
        + moments.u_t @ B_t.T
    )
    C = (moments.x_t[1:] - pred)[::-1].T
    D = np.vstack([moments.x_t[:-1][::-1].T, moments.u_t[::-1].T])
    sol, lam_min, lam_max, used_pinv = _gram_solve(C @ D.T, D @ D.T)
    nt = svec_dim(n)
    diag = {"lambda_min_dd": lam_min, "lambda_max_dd": lam_max, "used_pinv_d": used_pinv}
    return sol[:, :nt], sol[:, nt:], diag


@dataclass
class EstimationResult:
    """MALS output: nominal and reduced-covariance estimates plus diagnostics."""

    A_hat: np.ndarray
    B_hat: np.ndarray
    sigma_a_tilde_hat: np.ndarray
    sigma_b_tilde_hat: np.ndarray
    diagnostics: dict
    errors: dict = field(default_factory=dict)

    def nominal(self):
        return np.hstack([self.A_hat, self.B_hat])

    def covariance(self):
        return np.hstack([self.sigma_a_tilde_hat, self.sigma_b_tilde_hat])

    def to_json(self):
        return json.dumps(
            {
                "A_hat": self.A_hat.tolist(),
                "B_hat": self.B_hat.tolist(),
                "SigmaA_tilde_hat": self.sigma_a_tilde_hat.tolist(),
                "SigmaB_tilde_hat": self.sigma_b_tilde_hat.tolist(),
                "diagnostics": self.diagnostics,
                "errors": self.errors,
            }
        )


def attach_errors(result, system):
    """Record spectral-norm errors against the true system."""
    ld = lift(system)
    truth_ab = np.hstack([system.A, system.B])
    truth_sig = np.hstack([ld.sigma_a_tilde, ld.sigma_b_tilde])
    err_ab = float(np.linalg.norm(result.nominal() - truth_ab, 2))
    err_sig = float(np.linalg.norm(result.covariance() - truth_sig, 2))
    nrm_ab = float(np.linalg.norm(truth_ab, 2))
    nrm_sig = float(np.linalg.norm(truth_sig, 2))
    result.errors = {
        "err_AB": err_ab,
        "err_Sigma": err_sig,
        # absolute error stands in for the normalized one when the truth is zero
        "err_AB_norm": err_ab / nrm_ab if nrm_ab > 0 else err_ab,
        "err_Sigma_norm": err_sig / nrm_sig if nrm_sig > 0 else err_sig,
    }
    return result


def mals(source, schedule=None, init=None, n_r=None, seed=0, truth=None):
    """Run the full estimator.

    ``source`` is either a MultNoiseSystem (rollouts are simulated with the
    given schedule/init/n_r/seed) or a RolloutSet (ingested as-is).  When
    ``truth`` (a system) is supplied, spectral errors are attached.
    """
    if isinstance(source, RolloutSet):
        rollouts = source
    else:
        if schedule is None or init is None or n_r is None:
            raise ValueError("simulating requires schedule, init and n_r")
        rollouts = simulate_rollouts(source, schedule, init, n_r, seed)
        if truth is None:
            truth = source
    moments = empirical_moments(rollouts)
    A_hat, B_hat, diag_z = estimate_nominal(moments)
    sa, sb, diag_d = estimate_covariance(moments, A_hat, B_hat)
    result = EstimationResult(
        A_hat=A_hat,
        B_hat=B_hat,
        sigma_a_tilde_hat=sa,
        sigma_b_tilde_hat=sb,
        diagnostics={**diag_z, **diag_d, "n_r": rollouts.n_r, "ell": rollouts.ell},
    )
    if truth is not None:
        attach_errors(result, truth)
    return result


def estimate_from_population(reg):
    """Oracle feed: solve the two least-squares problems on exact population blocks."""
    theta, lam_min_z, lam_max_z, pinv_z = _gram_solve(reg.Y @ reg.Z.T, reg.Z @ reg.Z.T)
    sol, lam_min_d, lam_max_d, pinv_d = _gram_solve(reg.C @ reg.D.T, reg.D @ reg.D.T)
    n = reg.Y.shape[0]
    nt = reg.C.shape[0]
    diag = {
        "lambda_min_zz": lam_min_z,
        "lambda_max_zz": lam_max_z,
        "used_pinv_z": pinv_z,
        "lambda_min_dd": lam_min_d,
        "lambda_max_dd": lam_max_d,
        "used_pinv_d": pinv_d,
    }
    return EstimationResult(
        A_hat=theta[:, :n],
        B_hat=theta[:, n:],
        sigma_a_tilde_hat=sol[:, :nt],
        sigma_b_tilde_hat=sol[:, nt:],
        diagnostics=diag,
    )
