"""Equivalence class of noise covariances sharing one second-moment dynamic.

Coupled entry pairs E{Abar_ik Abar_jl} and E{Abar_il Abar_jk} (i<j, k<l)
enter the reduced dynamic only through their sum, so the class of full
covariances reproducing given reduced matrices is the affine family

    SigmaA(alpha) = F(Q1 SigmaA_tilde Q1' D_n + E_alpha),

intersected with the PSD cone; E_alpha is a sum of rank-one difference terms
that the reduction P1 (.) Q1 annihilates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .shape_ops import expand_both, outer_vec, require_shape, reshape_F, svec_dim, svec_index
from .system_model import is_psd, positive_int

__all__ = [
    "entry_map",
    "EntryMap",
    "off_pairs",
    "build_E_alpha",
    "build_E_beta",
    "EquivalenceClass",
    "equivalence_class",
    "sigma_from_class",
    "scan_psd_feasible",
    "UniquenessVerdict",
    "classify_uniqueness",
    "IndependenceConstraints",
    "recover_under_constraints",
    "project_psd",
]

#: Strict-positivity threshold: lambda_min > STRICT_TOL * lambda_max counts as > 0.
STRICT_TOL = 1e-8


@dataclass
class EntryMap:
    """Where a full-covariance moment lands in the reduced matrix.

    row/col are 1-based reduced coordinates; case is one of "variance"
    (coefficient 1, single term), "row-coupled" (coefficient 2, single term),
    "col-aligned" (coefficient 1, single term), "coupled-sum" (two terms).
    terms lists the contributing 1-based positions of SigmaA as
    ((k-1)n+i, (l-1)n+j) index pairs, with their coefficients.
    """

    row: int
    col: int
    case: str
    terms: list


def entry_map(i, j, k, l, n):
    """Reduced position and formula shape for the (i<=j, k<=l) moment block."""
    if not (1 <= i <= j <= n and 1 <= k <= l <= n):
        raise ValueError("entry_map needs 1 <= i <= j <= n and 1 <= k <= l <= n")
    return _entry_map_rect(i, j, k, l, n, n)


def reduced_from_full(sigma, n, m=None):
    """Rebuild the reduced covariance entrywise from the moment formulas.

    Independent of the P/Q/G route; used as a cross-check oracle for lift().
    With m given, sigma is treated as a SigmaB (nm x nm) and the column pairs
    range over [m].
    """
    sigma = np.asarray(sigma, dtype=float)
    cols = m if m is not None else n
    out = np.zeros((svec_dim(n), svec_dim(cols)))
    for j in range(1, n + 1):
        for i in range(1, j + 1):
            for l in range(1, cols + 1):
                for k in range(1, l + 1):
                    em = _entry_map_rect(i, j, k, l, n, cols)
                    val = sum(c * sigma[a - 1, b - 1] for c, (a, b) in em.terms)
                    out[em.row - 1, em.col - 1] = val
    return out


def _entry_map_rect(i, j, k, l, n, m):
    """entry_map generalized to an n x m noise matrix (SigmaB case)."""
    row = int(svec_index(i - 1, j - 1, n)) + 1
    col = int(svec_index(k - 1, l - 1, m)) + 1
    p = lambda a, b: (b - 1) * n + a
    if i == j and k == l:
        return EntryMap(row, col, "variance", [(1.0, (p(i, k), p(i, k)))])
    if i == j:
        return EntryMap(row, col, "row-coupled", [(2.0, (p(i, k), p(i, l)))])
    if k == l:
        return EntryMap(row, col, "col-aligned", [(1.0, (p(i, k), p(j, k)))])
    return EntryMap(
        row, col, "coupled-sum", [(1.0, (p(i, k), p(j, l))), (1.0, (p(i, l), p(j, k)))]
    )


def off_pairs(n):
    """(i, j) with 1 <= i < j <= n in lexicographic order."""
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def build_E_alpha(alpha, n):
    """Sum of alpha_{ij,kl} (e_{(i-1)n+j} - e_{(j-1)n+i})(e_{(k-1)n+l} - e_{(l-1)n+k})'.

    alpha is indexed by ((i,j) pair, (k,l) pair) in lexicographic order,
    flattened row-major; length n^2 (n-1)^2 / 4.  P1 E_alpha Q1 = 0 always.
    """
    return build_E_beta(alpha, n, n)


def build_E_beta(beta, n, m):
    """Analogue of build_E_alpha for the input-noise block; shape n^2 x m^2."""
    beta = np.asarray(beta, dtype=float).ravel()
    p_n, p_m = n * (n - 1) // 2, m * (m - 1) // 2
    if beta.size != p_n * p_m:
        raise ValueError(f"coefficients must have length {p_n * p_m}, got {beta.size}")
    return _pair_basis(n) @ beta.reshape(p_n, p_m) @ _pair_basis(m).T


def _pair_basis(k):
    """k^2 x k(k-1)/2 matrix whose column for the pair i < j (off_pairs order) is vec(e_j e_i' - e_i e_j')."""
    eye = np.eye(k)
    i, j = np.triu_indices(k, 1)
    return (outer_vec(eye[j], eye[i]) - outer_vec(eye[i], eye[j])).T


def _member(sigma_tilde, coeffs, n, m):
    """Class member F(Q1 sigma_tilde Q1' D + E) of an n x m noise block at class coordinates coeffs."""
    return reshape_F(expand_both(sigma_tilde, n, m) + build_E_beta(coeffs, n, m), n, m, n, m)


@dataclass
class EquivalenceClass:
    """All PSD covariance pairs reproducing (sigma_a_tilde, sigma_b_tilde)."""

    n: int
    m: int
    sigma_a_tilde: np.ndarray
    sigma_b_tilde: np.ndarray

    def __post_init__(self):
        """n and m as positive ints, and the reduced matrices as float arrays of their shapes, or a ValueError."""
        self.n, self.m = positive_int(self.n, "n"), positive_int(self.m, "m")
        nt, mt = svec_dim(self.n), svec_dim(self.m)
        self.sigma_a_tilde = require_shape("SigmaA_tilde", self.sigma_a_tilde, (nt, nt))
        self.sigma_b_tilde = require_shape("SigmaB_tilde", self.sigma_b_tilde, (nt, mt))

    @property
    def d_alpha(self):
        return self.n**2 * (self.n - 1) ** 2 // 4

    @property
    def d_beta(self):
        return self.n * self.m * (self.n - 1) * (self.m - 1) // 4

    def base_point(self):
        """(SigmaA(0), SigmaB(0)): the symmetric split of every coupled sum."""
        return self.sigma_pair(np.zeros(self.d_alpha), np.zeros(self.d_beta))

    def sigma_pair(self, alpha, beta):
        return (
            _member(self.sigma_a_tilde, alpha, self.n, self.n),
            _member(self.sigma_b_tilde, beta, self.n, self.m),
        )

    def to_json(self):
        base_a, base_b = self.base_point()
        return json.dumps(
            {
                "n": self.n,
                "m": self.m,
                "SigmaA_tilde": self.sigma_a_tilde.tolist(),
                "SigmaB_tilde": self.sigma_b_tilde.tolist(),
                "d_alpha": self.d_alpha,
                "d_beta": self.d_beta,
                "base_SigmaA": base_a.tolist(),
                "base_SigmaB": base_b.tolist(),
            }
        )


def equivalence_class(sigma_a_tilde, sigma_b_tilde, n, m):
    return EquivalenceClass(n=n, m=m, sigma_a_tilde=sigma_a_tilde, sigma_b_tilde=sigma_b_tilde)


def sigma_from_class(ec, alpha, beta):
    """Class member (SigmaA(alpha), SigmaB(beta)) with PSD membership flags."""
    sa, sb = ec.sigma_pair(alpha, beta)
    return sa, sb, is_psd(sa), is_psd(sb)


def scan_psd_feasible(ec, alphas):
    """Grid search over scalar A-class coordinates; returns the PSD-feasible ones.

    Only meaningful at desk scale (d_alpha = 1); estimated classes whose base
    point leaves the cone should be handled with project_psd instead.
    """
    if ec.d_alpha != 1:
        raise ValueError("scalar feasibility scan needs d_alpha = 1")
    return [float(a) for a in alphas if is_psd(_member(ec.sigma_a_tilde, [float(a)], ec.n, ec.n))]


@dataclass
class UniquenessVerdict:
    """How much of (SigmaA, SigmaB) the second-moment dynamic pins down."""

    a_part: str  # "Unique" | "InfinitelyMany" | "UndeterminedByProp2"
    b_part: str
    overall: str
    reasons: list


def _block_uniqueness(dim, sigma, symbol, kind, name):
    """(verdict, reason) for one noise block: SigmaA over n states or SigmaB over m inputs."""
    if dim == 1:
        return "Unique", f"{symbol} = 1: no coupled {kind} pairs exist"
    w = np.linalg.eigvalsh(0.5 * (sigma + sigma.T))
    if w[0] > STRICT_TOL * max(w[-1], 0.0) and w[-1] > 0:
        return "InfinitelyMany", f"{symbol} >= 2 and {name} strictly positive definite"
    return "UndeterminedByProp2", f"{symbol} >= 2 but {name} not strictly positive definite"


def classify_uniqueness(n, m, sigma_a, sigma_b):
    """Uniqueness of the equivalence class per the definiteness conditions.

    n and m must be positive integers, sigma_a (n^2, n^2) and sigma_b (nm, nm).
    """
    n, m = positive_int(n, "n"), positive_int(m, "m")
    sigma_a = require_shape("SigmaA", sigma_a, (n * n, n * n))
    sigma_b = require_shape("SigmaB", sigma_b, (n * m, n * m))
    a_part, a_reason = _block_uniqueness(n, sigma_a, "n", "state", "SigmaA")
    b_part, b_reason = _block_uniqueness(m, sigma_b, "m", "input", "SigmaB")
    reasons = [a_reason, b_reason]
    if a_part == "Unique" and b_part == "Unique":
        overall = "Unique"
    elif "InfinitelyMany" in (a_part, b_part):
        overall = "InfinitelyMany"
    else:
        overall = "UndeterminedByProp2"
    return UniquenessVerdict(a_part=a_part, b_part=b_part, overall=overall, reasons=reasons)


class IndependenceConstraints:
    """Per-pair linear constraints pinning the coupled entries.

    For every (i<j, k<l) the constraint is
    gamma * E{Abar_ik Abar_jl} + delta * E{Abar_il Abar_jk} = tau with
    gamma != delta.  The defaults (gamma=1, delta=-1, tau=0) encode mutually
    independent entries of Abar.  n must be a positive integer, and tau
    hold one entry per pair of pairs, in any shape of that size.
    """

    def __init__(self, n, gamma=1.0, delta=-1.0, tau=None):
        if gamma == delta:
            raise ValueError("constraints need gamma != delta for every pair")
        self.n = positive_int(n, "n")
        pairs = len(off_pairs(self.n))
        self.gamma = float(gamma)
        self.delta = float(delta)
        self.tau = np.zeros((pairs, pairs)) if tau is None else np.asarray(tau, dtype=float)
        if self.tau.size != pairs * pairs:
            raise ValueError(f"tau shape {self.tau.shape} != {(pairs, pairs)}")
        self.tau = self.tau.reshape(pairs, pairs)


def recover_under_constraints(sigma_a_tilde, constraints):
    """Unique class member satisfying per-pair constraints on coupled entries.

    Solves, per (i<j, k<l), the 2x2 system {sum = reduced entry, constraint}
    and materializes the resulting SigmaA(alpha).  Returns (SigmaA, is_psd);
    a non-PSD result is reported, not raised.
    """
    sigma_a_tilde = np.asarray(sigma_a_tilde, dtype=float)
    n = constraints.n
    if sigma_a_tilde.shape != (svec_dim(n), svec_dim(n)):
        raise ValueError("reduced matrix size does not match the constraint dimension")
    pos = svec_index(*np.triu_indices(n, 1), n)
    s = sigma_a_tilde[np.ix_(pos, pos)]  # reduced entry of each ((i,j), (k,l)) pair
    g, d = constraints.gamma, constraints.delta
    u = (constraints.tau - d * s) / (g - d)  # E{Abar_ik Abar_jl}
    sa = _member(sigma_a_tilde, u - 0.5 * s, n, n)
    return sa, is_psd(sa)


def project_psd(S):
    """Nearest (Frobenius) PSD matrix: symmetrize and clip eigenvalues at 0."""
    S = np.asarray(S, dtype=float)
    Ssym = 0.5 * (S + S.T)
    w, V = np.linalg.eigh(Ssym)
    return (V * np.clip(w, 0.0, None)) @ V.T
