"""Multiple-trajectory averaging least squares: input design, moment
averaging over rollouts, and ``solve``, which runs the two closed-form
least-squares solves on any moment trajectory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .moment_oracle import (
    RANK_TOL,
    MomentTrajectory,
    covariance_blocks,
    input_moments,
    lift,
    nominal_blocks,
)
from .shape_ops import svec, svec_dim
from .system_model import ROLLOUT_LEAF, InputSchedule, RolloutSet, iter_rollout_blocks, positive_int

__all__ = [
    "design_inputs",
    "empirical_moments",
    "simulated_moments",
    "solve",
    "attach_errors",
    "EstimationResult",
    "mals",
]

#: Scale of the Wishart input covariances drawn by ``design_inputs``.
WISHART_SCALE = 0.1


def design_inputs(m, ell, input_law="uniform", seed=0):
    """Draw and fix an input schedule.

    Means nu_t are i.i.d. uniform on [0,1]^m.  Covariances Ubar_t are i.i.d.
    Wishart with scale WISHART_SCALE * I_m and m degrees of freedom (Bartlett
    draw), or identically zero when input_law = "deterministic".
    """
    m, ell = positive_int(m, "m"), positive_int(ell, "ell")
    rng = np.random.default_rng(np.random.SeedSequence([0x5EED, seed]))
    nu = rng.random((ell, m))
    ubar = np.zeros((ell, m, m))
    if input_law != "deterministic":
        for t in range(ell):
            ubar[t] = _wishart_bartlett(rng, m, WISHART_SCALE)
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
    moments, not sampled input statistics.  The rollouts are cut into leaves
    of ROLLOUT_LEAF consecutive rollouts (``_leaf_moments``), so the bits
    equal those of ``simulated_moments`` for the same rollouts, however they
    were produced or blocked; they still depend on rollout order, since
    permuting the rollouts changes the sums' rounding.
    """
    if rollouts.n_r < 1:
        raise ValueError("empty rollout set")
    leaves = ((0, _leaf_sums(rollouts.states[k : k + ROLLOUT_LEAF])) for k in range(0, rollouts.n_r, ROLLOUT_LEAF))
    return _leaf_moments(leaves, rollouts.n_r, rollouts.schedule)


def simulated_moments(system, schedule, init, n_r, seed):
    """``empirical_moments`` of ``simulate_rollouts(...)``, bit for bit, in O(block) memory.

    A 1-D vector of seeds adds a leading repetition axis to the state
    moments; entry r equals the call with seed[r] bit for bit.
    """
    leaves = iter_rollout_blocks(system, schedule, init, n_r, seed, lambda r, k0, xs, us: (r, _leaf_sums(xs)))
    return _leaf_moments(leaves, n_r, schedule, np.shape(seed))


def _tree_sum(parts):
    """Sum ``parts`` in a fixed pairwise tree: adjacent pairs left to right, level by level."""
    while len(parts) > 1:
        paired = [a + b for a, b in zip(parts[::2], parts[1::2])]
        parts = paired + parts[-1:] if len(parts) % 2 else paired
    return parts[0]


def _leaf_sums(xs):
    """Sums over a leaf's rollouts of x_t and of x_t x_t', per step, from its states (b, ell+1, n)."""
    xt = xs.swapaxes(0, 1)
    return xs.sum(axis=0), xt.swapaxes(1, 2) @ xt


def _leaf_moments(leaves, n_r, schedule, shape=()):
    """MomentTrajectory from (repetition, ``_leaf_sums``) leaves in (repetition, rollout) order.

    A repetition's leaf sums are added in a fixed pairwise tree and divided by
    n_r once; the state moments get the leading axes ``shape`` of the seeds.
    """
    sums = {}  # repetition -> leaf sums, in the order the leaves come
    for r, leaf in leaves:
        sums.setdefault(r, []).append(leaf)
    mu = np.stack([_tree_sum([s1 for s1, _ in parts]) for parts in sums.values()]) / n_r
    x_t = np.stack([_tree_sum([s2 for _, s2 in parts]) for parts in sums.values()]) / n_r
    mu, x_t = mu.reshape(shape + mu.shape[1:]), svec(x_t.reshape(shape + x_t.shape[1:]))
    w, w_p, u_t = input_moments(mu, schedule)
    return MomentTrajectory(mu=mu, x_t=x_t, w=w, w_p=w_p, u_t=u_t, nu=schedule.nu.copy())


def _solve(Y, Z, tag):
    """Least-squares solution Y Z' (Z Z')^+ via symmetric eigendecomposition, per matrix of a stack.

    Returns the solution and its diagnostics lambda_min_<tag><tag>,
    lambda_max_<tag><tag> and used_pinv_<tag>.  The pseudoinverse path
    (eigenvalues at or below RANK_TOL * lambda_max dropped) triggers exactly
    when lambda_min <= RANK_TOL * lambda_max.
    """
    gram = Z @ Z.swapaxes(-1, -2)
    w, V = np.linalg.eigh(0.5 * (gram + gram.swapaxes(-1, -2)))
    lam_min, lam_max = w[..., 0], w[..., -1]
    tol = RANK_TOL * np.maximum(lam_max, 0.0)
    keep = w > tol[..., None]
    # without the fallback every eigenvalue exceeds tol and this is exactly 1 / w
    w_inv = np.where(keep, 1.0 / np.where(keep, w, 1.0), 0.0)
    X = (Y @ Z.swapaxes(-1, -2) @ V) * w_inv[..., None, :] @ V.swapaxes(-1, -2)
    diag = {
        f"lambda_min_{tag}{tag}": lam_min,
        f"lambda_max_{tag}{tag}": lam_max,
        f"used_pinv_{tag}": lam_min <= tol,
    }
    return X, diag


@dataclass
class EstimationResult:
    """MALS output: nominal and reduced-covariance estimates plus diagnostics.

    A stacked solve adds a leading repetition axis to each estimate and makes
    each diagnostic and error an array over the repetitions.
    """

    A_hat: np.ndarray
    B_hat: np.ndarray
    sigma_a_tilde_hat: np.ndarray
    sigma_b_tilde_hat: np.ndarray
    diagnostics: dict
    errors: dict = field(default_factory=dict)

    def nominal(self):
        return np.concatenate([self.A_hat, self.B_hat], axis=-1)

    def covariance(self):
        return np.concatenate([self.sigma_a_tilde_hat, self.sigma_b_tilde_hat], axis=-1)

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


def _scalars(values):
    """``values`` with each 0-d array as a Python scalar; the arrays of a stacked result stay."""
    return {key: v.tolist() if np.ndim(v) == 0 else v for key, v in values.items()}


def attach_errors(result, system):
    """Record spectral-norm errors against the true system, per repetition of a stacked result."""
    n, m = result.B_hat.shape[-2:]
    if (n, m) != (system.n, system.m):
        raise ValueError(f"estimate has (n, m) = ({n}, {m}) but the truth has (n, m) = ({system.n}, {system.m})")
    ld = lift(system)
    truth_ab = np.hstack([system.A, system.B])
    truth_sig = np.hstack([ld.sigma_a_tilde, ld.sigma_b_tilde])
    err_ab = np.linalg.norm(result.nominal() - truth_ab, 2, axis=(-2, -1))
    err_sig = np.linalg.norm(result.covariance() - truth_sig, 2, axis=(-2, -1))
    nrm_ab = float(np.linalg.norm(truth_ab, 2))
    nrm_sig = float(np.linalg.norm(truth_sig, 2))
    result.errors = _scalars({
        "err_AB": err_ab,
        "err_Sigma": err_sig,
        # absolute error stands in for the normalized one when the truth is zero
        "err_AB_norm": err_ab / nrm_ab if nrm_ab > 0 else err_ab,
        "err_Sigma_norm": err_sig / nrm_sig if nrm_sig > 0 else err_sig,
    })
    return result


def solve(moments):
    """MALS on averaged (or exact) moments: both least-squares solves.

    First [A_hat B_hat] = Y Z' (Z Z')^+; then the residual columns C are
    formed with the lifted matrices of that (A_hat, B_hat), and the reduced
    covariances are C D' (D D')^+.  Exact moments recover the truth whenever
    both Grams invert.  Stacked moments give each repetition its own call's bits.
    """
    n, nt = moments.n, svec_dim(moments.n)
    theta, diag_z = _solve(*nominal_blocks(moments), "z")
    A_hat, B_hat = theta[..., :n], theta[..., n:]
    sol, diag_d = _solve(*covariance_blocks(moments, A_hat, B_hat), "d")
    return EstimationResult(
        A_hat=A_hat,
        B_hat=B_hat,
        sigma_a_tilde_hat=sol[..., :nt],
        sigma_b_tilde_hat=sol[..., nt:],
        diagnostics=_scalars({**diag_z, **diag_d}),
    )


def mals(source, schedule=None, init=None, n_r=None, seed=0, truth=None):
    """Run the full estimator: averaged moments, ``solve``, then errors against the truth.

    ``source`` is either a MultNoiseSystem (rollouts are simulated with the
    given schedule/init/n_r/seed and reduced block by block, in O(block)
    memory, by ``simulated_moments``) or a RolloutSet (ingested as-is).  Both
    give the same bits for the same rollouts.  When ``truth`` (a system) is
    supplied, spectral errors are attached.
    """
    if isinstance(source, RolloutSet):
        moments = empirical_moments(source)
        n_r = source.n_r
    else:
        if schedule is None or init is None or n_r is None:
            raise ValueError("simulating requires schedule, init and n_r")
        moments = simulated_moments(source, schedule, init, n_r, seed)
        if truth is None:
            truth = source
    result = solve(moments)
    result.diagnostics.update(n_r=int(n_r), ell=moments.ell)
    if truth is not None:
        attach_errors(result, truth)
    return result

