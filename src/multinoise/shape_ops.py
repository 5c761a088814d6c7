"""Vectorization, half-vectorization and block-reshaping matrix calculus.

Conventions (all position formulas below are 1-based, matching the usual
matrix-calculus literature; storage is 0-based numpy):

* ``vec`` stacks columns: component ``(j-1)*rows + i`` of ``vec(M)`` is
  ``M[i, j]``.
* The elimination matrix ``P`` keeps the lower-triangle-inclusive-diagonal
  positions of a vectorized n x n matrix in column-major order, i.e. the
  positions ``(j-1)*n + i`` with ``i >= j``.  ``svec(S) = P @ vec(S)``.
* The duplication matrix ``Q`` rebuilds ``vec(S)`` from ``svec(S)`` for
  symmetric ``S``; ``Q @ P`` equals the symmetrizer-selection matrix ``T``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "vec",
    "mat",
    "svec",
    "smat",
    "svec_dim",
    "svec_index_pairs",
    "SelectionMatrices",
    "selection_matrices",
    "reshape_F",
    "reshape_G",
]

#: Relative symmetry tolerance used by ``svec`` (w.r.t. max |entry|).
SYM_TOL = 1e-9

#: Largest n for which P/Q/T/D are materialized as dense arrays.
DENSE_LIMIT = 32


def vec(M):
    """Column-stacking vectorization of a matrix."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"vec expects a matrix, got ndim={M.ndim}")
    return M.ravel(order="F")


def mat(v, p, q):
    """Inverse of ``vec``: reshape a length p*q vector into a p x q matrix."""
    v = np.asarray(v, dtype=float).ravel()
    if v.size != p * q:
        raise ValueError(f"mat: vector length {v.size} != {p}*{q}")
    return v.reshape(p, q, order="F")


def svec_dim(n):
    """Length of the half-vectorization of an n x n symmetric matrix."""
    return n * (n + 1) // 2


def svec_index_pairs(n):
    """(row, col) pairs (1-based, row >= col) in the order kept by P.

    Column-major traversal of the lower triangle including the diagonal:
    (1,1), (2,1), ..., (n,1), (2,2), ..., (n,n).
    """
    return [(i, j) for j in range(1, n + 1) for i in range(j, n + 1)]


class SelectionMatrices:
    """Elimination/duplication/symmetrizer/half-weight matrices for size n.

    Attributes (dense, materialized for n <= 32; larger n should use the
    ``kept``/``mirror`` index arrays as gathers):

    P : (n(n+1)/2, n^2) elimination matrix, 0/1 valued
    Q : (n^2, n(n+1)/2) duplication matrix, 0/1 valued
    T : (n^2, n^2) symmetrizer-selection matrix, T = Q @ P
    D : (n^2, n^2) diagonal matrix with 1 at positions (i-1)n+i, 1/2 elsewhere
    """

    def __init__(self, n):
        if n < 1:
            raise ValueError("selection matrices need n >= 1")
        self.n = n
        # kept vec positions (0-based): (j-1)n+i with i >= j, ascending
        self.kept = np.array([p for p in range(n * n) if p % n >= p // n])
        # mirror[p] = position of the symmetric partner of vec position p
        pos = np.arange(n * n)
        i, j = pos % n, pos // n
        self.mirror = i * n + j
        self._P = self._Q = self._T = self._D = None

    def _dense_ok(self):
        if self.n > DENSE_LIMIT:
            raise ValueError(
                f"dense selection matrices are only materialized for n <= {DENSE_LIMIT}; "
                "use the kept/mirror index arrays instead"
            )

    @property
    def P(self):
        if self._P is None:
            self._dense_ok()
            self._P = np.eye(self.n * self.n)[self.kept]
        return self._P

    @property
    def T(self):
        if self._T is None:
            self._dense_ok()
            nn = self.n * self.n
            T = np.zeros((nn, nn))
            src = np.where(np.isin(np.arange(nn), self.kept), np.arange(nn), self.mirror)
            T[np.arange(nn), src] = 1.0
            self._T = T
        return self._T

    @property
    def Q(self):
        if self._Q is None:
            self._Q = self.T[:, self.kept]
        return self._Q

    @property
    def D(self):
        if self._D is None:
            self._dense_ok()
            d = np.full(self.n * self.n, 0.5)
            d[[i * self.n + i for i in range(self.n)]] = 1.0
            self._D = np.diag(d)
        return self._D


_selection_cache: dict[int, SelectionMatrices] = {}


def selection_matrices(n):
    """Cached SelectionMatrices for dimension n."""
    sm = _selection_cache.get(n)
    if sm is None:
        sm = SelectionMatrices(n)
        _selection_cache[n] = sm
    return sm


def svec(S, tol=SYM_TOL):
    """Half-vectorization of a symmetric matrix, svec(S) = P @ vec(S).

    The input is symmetrized as (S + S.T)/2 before reduction; asymmetry
    beyond ``tol`` (relative to max |entry|) is an error.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError(f"svec expects a square matrix, got shape {S.shape}")
    scale = np.max(np.abs(S)) if S.size else 0.0
    asym = np.max(np.abs(S - S.T)) if S.size else 0.0
    if asym > tol * max(scale, 1e-300):
        raise ValueError(f"svec: input asymmetric beyond tolerance ({asym:.3e} rel {tol:.1e})")
    n = S.shape[0]
    Ssym = 0.5 * (S + S.T)
    # P @ vec(Ssym), applied as an index gather
    return vec(Ssym)[selection_matrices(n).kept]


def smat(v, n):
    """Inverse of ``svec``: rebuild the symmetric n x n matrix."""
    v = np.asarray(v, dtype=float).ravel()
    if v.size != svec_dim(n):
        raise ValueError(f"smat: vector length {v.size} != n(n+1)/2 = {svec_dim(n)}")
    S = np.zeros((n, n))
    k = 0
    for j in range(n):
        for i in range(j, n):
            S[i, j] = v[k]
            S[j, i] = v[k]
            k += 1
    return S


def reshape_F(B, m, n, p, q):
    """Block reshaping operator F: R^{mp x nq} -> R^{mn x pq}.

    Views B as an m x n grid of p x q blocks; row (j-1)m+i of the result is
    vec(B_ij)^T (blocks taken in column-major order).  F(A kron A, m, n, m, n)
    equals vec(A) vec(A)^T.
    """
    B = np.asarray(B, dtype=float)
    if B.shape != (m * p, n * q):
        raise ValueError(f"reshape_F: expected shape {(m * p, n * q)}, got {B.shape}")
    B4 = B.reshape(m, p, n, q)  # [i, a, j, b] = block (i,j) entry (a,b)
    return B4.transpose(2, 0, 3, 1).reshape(m * n, p * q)


def reshape_G(B, m, n, p, q):
    """Inverse block reshaping operator G: R^{mn x pq} -> R^{mp x nq}.

    Row (j-1)m+i of B becomes block (i,j) of the result via mat_{p x q}.
    G(vec(A) vec(A)^T, m, n, m, n) equals A kron A.
    """
    B = np.asarray(B, dtype=float)
    if B.shape != (m * n, p * q):
        raise ValueError(f"reshape_G: expected shape {(m * n, p * q)}, got {B.shape}")
    B4 = B.reshape(n, m, q, p)  # [j, i, b, a] = row (j-1)m+i, vec position (b-1)p+a
    return B4.transpose(1, 3, 0, 2).reshape(m * p, n * q)
