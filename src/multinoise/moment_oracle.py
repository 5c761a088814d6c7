"""Exact first/second-moment propagation and population regression matrices.

The reduced second-moment dynamic is

    Xt_{t+1} = (At + St'_A) Xt_t + (Bt + St'_B) Ut_t + K_BA W_t + K_AB W'_t

with Xt = svec(E{x x'}), Ut = svec(Ubar + nu nu'), W = vec(mu nu'),
W' = vec(nu mu'), and the lifted matrices built from (A, B) and the
vec-covariances through the selection matrices P, Q and the reshaping G.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .shape_ops import (
    outer_vec,
    reduce_both,
    reduce_rows,
    reshape_G,
    smat,
    svec,
    svec_dim,
)
from .system_model import is_psd

__all__ = [
    "LiftedDynamics",
    "lift",
    "lift_nominal",
    "MomentTrajectory",
    "propagate_first",
    "propagate_second",
    "propagate_second_reduced",
    "input_moments",
    "RegressionMatrices",
    "assemble_population",
    "nominal_blocks",
    "covariance_blocks",
    "ExcitationReport",
    "check_excitation",
    "controllable",
]

#: Gram-matrix rank tolerance, relative to the largest eigenvalue.
RANK_TOL = 1e-10


@dataclass
class LiftedDynamics:
    """Reduced-coordinate matrices of the second-moment dynamic."""

    A_t: np.ndarray        # P1 (A kron A) Q1
    B_t: np.ndarray        # P1 (B kron B) Q2
    K_BA: np.ndarray       # P1 (B kron A)
    K_AB: np.ndarray       # P1 (A kron B)
    sigma_a_prime: np.ndarray        # G(SigmaA) = E{Abar kron Abar}
    sigma_b_prime: np.ndarray        # G(SigmaB) = E{Bbar kron Bbar}
    sigma_a_tilde: np.ndarray        # P1 sigma_a_prime Q1
    sigma_b_tilde: np.ndarray        # P1 sigma_b_prime Q2


def _kron(a, b):
    """np.kron over the last two axes, broadcasting leading batch axes."""
    (p, q), (r, s) = a.shape[-2:], b.shape[-2:]
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    return prod.reshape(prod.shape[:-4] + (p * r, q * s))


def lift_nominal(A, B):
    """Lifted matrices that depend on (A, B) only (no covariances).

    A (..., n, n) and B (..., n, m) may carry leading batch axes, kept in the outputs.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n, m = A.shape[-1], B.shape[-1]
    return (
        reduce_both(_kron(A, A), n, n),
        reduce_both(_kron(B, B), n, m),
        reduce_rows(_kron(B, A), n),
        reduce_rows(_kron(A, B), n),
    )


def lift(system):
    """Full lifted dynamics of a MultNoiseSystem."""
    n, m = system.n, system.m
    A_t, B_t, K_BA, K_AB = lift_nominal(system.A, system.B)
    sap = reshape_G(system.sigma_a, n, n, n, n)
    sbp = reshape_G(system.sigma_b, n, m, n, m)
    return LiftedDynamics(
        A_t=A_t,
        B_t=B_t,
        K_BA=K_BA,
        K_AB=K_AB,
        sigma_a_prime=sap,
        sigma_b_prime=sbp,
        sigma_a_tilde=reduce_both(sap, n, n),
        sigma_b_tilde=reduce_both(sbp, n, m),
    )


@dataclass
class MomentTrajectory:
    """Exact or empirical moment sequences along a schedule; the state moments may carry a repetition axis."""

    mu: np.ndarray       # (..., ell + 1, n)
    x_t: np.ndarray      # (..., ell + 1, n(n+1)/2) reduced second moments
    w: np.ndarray        # (..., ell, n*m)  vec(mu nu')
    w_p: np.ndarray      # (..., ell, n*m)  vec(nu mu')
    u_t: np.ndarray      # (ell, m(m+1)/2) reduced input second moments
    nu: np.ndarray       # (ell, m) designed input means

    @property
    def ell(self):
        return self.mu.shape[-2] - 1

    @property
    def n(self):
        return self.mu.shape[-1]


def propagate_first(A, B, schedule, mu0):
    """mu_{t+1} = A mu_t + B nu_t, t = 0..ell-1."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    mu = np.empty((schedule.ell + 1, A.shape[0]))
    mu[0] = np.asarray(mu0, dtype=float).ravel()
    for t in range(schedule.ell):
        mu[t + 1] = A @ mu[t] + B @ schedule.nu[t]
    return mu


def propagate_second(system, schedule, mu0, x_t0=None):
    """Exact moment trajectory from (mu0, svec(E{x0 x0'})); see propagate_second_reduced."""
    ld = lift(system)
    return propagate_second_reduced(
        system.A, system.B, ld.sigma_a_tilde, ld.sigma_b_tilde, schedule, mu0, x_t0
    )


def propagate_second_reduced(A, B, sigma_a_tilde, sigma_b_tilde, schedule, mu0, x_t0=None):
    """Propagate the reduced dynamic for explicitly given lifted covariances.

    Also runs the recursion under *estimated* quantities, where no full
    covariance pair is available.  x_t0 defaults to svec(mu0 mu0')
    (deterministic start); smat(x_t0) - mu0 mu0' must be PSD.  The schedule's
    m and mu0's n must match (A, B).
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n = A.shape[0]
    mu0 = np.asarray(mu0, dtype=float).ravel()
    if schedule.m != B.shape[1]:
        raise ValueError(f"schedule input dim {schedule.m} != system m {B.shape[1]}")
    if mu0.size != n:
        raise ValueError(f"initial state dim {mu0.size} != system n {n}")
    A_t, B_t, K_BA, K_AB = lift_nominal(A, B)
    if x_t0 is None:
        x_t0 = svec(np.outer(mu0, mu0))
    x_t0 = np.asarray(x_t0, dtype=float).ravel()
    cov0 = smat(x_t0, n) - np.outer(mu0, mu0)
    if not is_psd(cov0):
        raise ValueError("initial second moment minus mu0 mu0' is not PSD")
    mu = propagate_first(A, B, schedule, mu0)
    w, w_p, u_t = input_moments(mu, schedule)
    x_t = np.empty((schedule.ell + 1, svec_dim(n)))
    x_t[0] = x_t0
    At = A_t + np.asarray(sigma_a_tilde, dtype=float)
    Bt = B_t + np.asarray(sigma_b_tilde, dtype=float)
    for t in range(schedule.ell):
        x_t[t + 1] = At @ x_t[t] + Bt @ u_t[t] + K_BA @ w[t] + K_AB @ w_p[t]
    return MomentTrajectory(mu=mu, x_t=x_t, w=w, w_p=w_p, u_t=u_t, nu=schedule.nu.copy())


def input_moments(mu, schedule):
    """W_t = vec(mu_t nu_t'), W'_t = vec(nu_t mu_t') and Ut_t = svec(E{u_t u_t'}) for t < ell."""
    mu, nu = mu[..., : schedule.ell, :], schedule.nu
    u_t = svec(schedule.input_second_moment(np.arange(schedule.ell)))
    return outer_vec(mu, nu), outer_vec(nu, mu), u_t


@dataclass
class RegressionMatrices:
    """Population least-squares data blocks Y, Z, C, D.

    Columns run backwards in time as in the estimator displays:
    Y = [mu_ell ... mu_1], Z stacks [mu_{ell-1} ... mu_0] over [nu_{ell-1} ... nu_0],
    C = [C_ell ... C_1], D stacks [Xt_{ell-1} ... Xt_0] (its first n(n+1)/2
    rows) over [Ut_{ell-1} ... Ut_0].
    """

    Y: np.ndarray
    Z: np.ndarray
    C: np.ndarray
    D: np.ndarray


def _vstack(top, bottom):
    """np.vstack([top, bottom]) with ``bottom`` (no leading axes) repeated over those of ``top``."""
    return np.concatenate([top, np.broadcast_to(bottom, top.shape[:-2] + bottom.shape)], axis=-2)


def nominal_blocks(tr):
    """Nominal least-squares blocks (Y, Z) of a (exact or empirical, maybe stacked) moment trajectory."""
    Y = tr.mu.swapaxes(-1, -2)[..., tr.ell : 0 : -1]  # columns mu_ell .. mu_1
    Z = _vstack(tr.mu.swapaxes(-1, -2)[..., tr.ell - 1 :: -1], tr.nu[::-1].T)
    return Y, Z


def covariance_blocks(tr, A, B):
    """Covariance least-squares blocks (C, D), coupled to the nominal (A, B).

    Residual columns C_t are formed with the lifted matrices of (A, B); with
    exact moments and the true (A, B) they equal
    [sigma_a_tilde  sigma_b_tilde] @ D column-for-column.  A stacked
    trajectory takes stacked (A, B).
    """
    A_tT, B_tT, K_BAT, K_ABT = (M.swapaxes(-1, -2) for M in lift_nominal(A, B))
    pred = tr.x_t[..., :-1, :] @ A_tT + tr.w @ K_BAT + tr.w_p @ K_ABT + tr.u_t @ B_tT
    C = (tr.x_t[..., 1:, :] - pred)[..., ::-1, :].swapaxes(-1, -2)  # columns C_ell .. C_1
    D = _vstack(tr.x_t[..., -2::-1, :].swapaxes(-1, -2), tr.u_t[::-1].T)
    return C, D


def assemble_population(system, schedule, mu0, x_t0=None):
    """Exact regression matrices and the exact moment trajectory they are built from.

    C is coupled to the true (A, B), so C = [sigma_a_tilde  sigma_b_tilde] D;
    ``mals.solve`` of the trajectory recovers the truth when both Grams invert.
    """
    tr = propagate_second(system, schedule, mu0, x_t0)
    Y, Z = nominal_blocks(tr)
    C, D = covariance_blocks(tr, system.A, system.B)
    return RegressionMatrices(Y=Y, Z=Z, C=C, D=D), tr


@dataclass
class ExcitationReport:
    rank_z: int
    lambda_min_zz: float
    lambda_max_zz: float
    rank_d: int
    lambda_min_dd: float
    lambda_max_dd: float
    ell: int
    ell_needed_z: int
    ell_needed_d: int
    pass_z: bool
    pass_d: bool


def _gram_rank(X, ell, ell_needed, tag):
    """Rank, extreme eigenvalues and pass flag of X X' (tolerance RANK_TOL), keyed by ``tag``."""
    gram = X @ X.T
    w = np.linalg.eigvalsh(0.5 * (gram + gram.T))
    tol = RANK_TOL * max(w[-1], 0.0)
    return {
        f"rank_{tag}": int(np.sum(w > tol)),
        f"lambda_min_{tag}{tag}": float(w[0]),
        f"lambda_max_{tag}{tag}": float(w[-1]),
        f"ell_needed_{tag}": ell_needed,
        f"pass_{tag}": bool(ell >= ell_needed and w[0] > tol),
    }


def check_excitation(reg, n, m):
    """Numerical full-row-rank checks of Z Z' and D D' plus length thresholds."""
    ell = reg.Y.shape[1]
    return ExcitationReport(
        ell=ell,
        **_gram_rank(reg.Z, ell, n + m, "z"),
        **_gram_rank(reg.D, ell, (n * (n + 1) + m * (m + 1)) // 2, "d"),
    )


def controllable(A, B):
    """True iff [B AB ... A^{n-1}B] has full row rank n (relative tolerance)."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n = A.shape[0]
    blocks = [B]
    for _ in range(n - 1):
        blocks.append(A @ blocks[-1])
    ctrb = np.hstack(blocks)
    s = np.linalg.svd(ctrb, compute_uv=False)
    return bool(s.size >= n and s[n - 1] > RANK_TOL * s[0])
