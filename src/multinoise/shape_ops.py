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

from functools import cache, cached_property

import numpy as np

__all__ = [
    "vec",
    "mat",
    "svec",
    "smat",
    "svec_dim",
    "svec_index_pairs",
    "svec_index",
    "outer_vec",
    "outer_svec",
    "reduce_rows",
    "reduce_both",
    "expand_both",
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
    """Column-stacking vectorization of a matrix, over leading batch axes."""
    M = np.asarray(M, dtype=float)
    if M.ndim < 2:
        raise ValueError(f"vec expects a matrix, got ndim={M.ndim}")
    return M.swapaxes(-1, -2).reshape(M.shape[:-2] + (M.shape[-2] * M.shape[-1],))


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


def svec_index(i, j, n):
    """0-based svec position of entry (i, j) (0-based, either triangle) of symmetric n x n matrices."""
    col, row = np.minimum(i, j), np.maximum(i, j)  # the lower-triangle partner
    return col * (2 * n - col - 1) // 2 + row


class SelectionMatrices:
    """Index maps of the reduced coordinates for size n, and the dense
    elimination/duplication/symmetrizer/half-weight matrices built from them.

    kept : (n(n+1)/2,) vec positions kept by svec, ascending
    svec_pos : (n^2,) svec index of every vec position (its lower-triangle partner's)

    Dense, built on first use for n <= DENSE_LIMIT only:

    P : (n(n+1)/2, n^2) elimination matrix, 0/1 valued
    Q : (n^2, n(n+1)/2) duplication matrix, 0/1 valued
    T : (n^2, n^2) symmetrizer-selection matrix, T = Q @ P
    D : (n^2, n^2) diagonal matrix with 1 at positions (i-1)n+i, 1/2 elsewhere
    """

    def __init__(self, n):
        if n < 1:
            raise ValueError("selection matrices need n >= 1")
        self.n = n
        j, i = np.divmod(np.arange(n * n), n)  # vec position p = j n + i holds entry (i, j)
        self.kept = np.flatnonzero(i >= j)
        self.svec_pos = svec_index(i, j, n)

    def _unit_rows(self, size, rows):
        """Rows ``rows`` of the size x size identity, refused for n > DENSE_LIMIT."""
        if self.n > DENSE_LIMIT:
            raise ValueError(
                f"dense selection matrices are only materialized for n <= {DENSE_LIMIT}; "
                "use the kept/svec_pos index arrays instead"
            )
        return np.eye(size)[rows]

    @cached_property
    def P(self):
        return self._unit_rows(self.n * self.n, self.kept)

    @cached_property
    def Q(self):
        return self._unit_rows(svec_dim(self.n), self.svec_pos)

    @cached_property
    def T(self):
        return self._unit_rows(self.n * self.n, self.kept[self.svec_pos])

    @cached_property
    def D(self):
        nn = self.n * self.n
        d = np.full(nn, 0.5)
        d[:: self.n + 1] = 1.0  # diagonal positions (i-1)n+i
        return self._unit_rows(nn, np.arange(nn)) * d


@cache
def selection_matrices(n):
    """Cached SelectionMatrices for dimension n."""
    return SelectionMatrices(n)


def svec(S):
    """Half-vectorization of symmetric matrices, svec(S) = P @ vec(S), over leading batch axes.

    Each matrix is symmetrized as (S + S.T)/2 before reduction; asymmetry
    beyond SYM_TOL (relative to its max |entry|) is an error.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim < 2 or S.shape[-1] != S.shape[-2]:
        raise ValueError(f"svec expects square matrices, got shape {S.shape}")
    kept = selection_matrices(S.shape[-1]).kept
    St = S.swapaxes(-1, -2)
    scale = np.abs(S).max(axis=(-2, -1))
    asym = np.abs(S - St).max(axis=(-2, -1))
    if np.any(asym > SYM_TOL * np.maximum(scale, 1e-300)):
        raise ValueError(
            f"svec: input asymmetric beyond tolerance ({np.max(asym):.3e} rel {SYM_TOL:.1e})"
        )
    # the index maps are in range by construction; mode="clip" only skips the bounds check
    return np.take(vec(0.5 * (S + St)), kept, axis=-1, mode="clip")


def smat(v, n):
    """Inverse of ``svec``: rebuild symmetric n x n matrices, over leading batch axes."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (svec_dim(n),):
        raise ValueError(f"smat: vector length {v.shape[-1:]} != n(n+1)/2 = {svec_dim(n)}")
    # the gather yields vec(S); S is symmetric, so its row-major reshape is S itself
    gathered = np.take(v, selection_matrices(n).svec_pos, axis=-1, mode="clip")
    return gathered.reshape(v.shape[:-1] + (n, n))


def outer_vec(a, b):
    """vec(a b') for vectors a (..., p) and b (..., q), over leading batch axes."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    # einsum index order (j, i) then row-major reshape = column-stacking vec
    prod = np.einsum("...i,...j->...ji", a, b)
    return prod.reshape(prod.shape[:-2] + (a.shape[-1] * b.shape[-1],))


def outer_svec(a):
    """svec(a a') for vectors a (..., n), over leading batch axes.

    a a' is symmetric by construction, so no symmetry check is made.
    """
    a = np.asarray(a, dtype=float)
    return np.take(outer_vec(a, a), selection_matrices(a.shape[-1]).kept, axis=-1, mode="clip")


def reduce_rows(M, n):
    """P_n M: the svec rows of M, whose rows are indexed by vec positions of n x n matrices."""
    return selection_matrices(n).P @ M


def reduce_both(M, n, m):
    """P_n M Q_m: the reduced form of an (n^2, m^2) matrix acting on vec of symmetric m x m matrices."""
    return selection_matrices(n).P @ M @ selection_matrices(m).Q


def expand_both(S, n, m):
    """Q_n S Q_m' D_m: an (n^2, m^2) matrix whose reduction P_n (.) Q_m gives back S."""
    smm = selection_matrices(m)
    return selection_matrices(n).Q @ S @ smm.Q.T @ smm.D


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
