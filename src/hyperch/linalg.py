"""Sparse linear algebra for the time-constant coupled system.

The system matrix is held in compressed-sparse-row form (scipy).  The
matrix never changes within a run, so it is factorized once by a sparse
direct LU and every step pays one pair of triangular solves, held to a
relative-residual contract.

SuperLU factors compressed-sparse-column input.  The CSR arrays of a are
the CSC arrays of a^T, so the LU is taken of a^T, without a format copy,
and each solve runs it transposed to solve a x = b.  On the scheme's
Schur matrix in its mirror-sector basis that factor also solves faster
than the LU of a itself, with the same ordering: 0.24 against 0.35 ms at
n = 50 and 11.9 against 14.8 ms at n = 200 (one BLAS thread).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class SolveError(RuntimeError):
    """Linear solve missed its residual contract; carries the solution and its stats."""

    def __init__(self, message: str, x: np.ndarray | None = None, stats: "SolveStats | None" = None):
        super().__init__(message)
        self.x = x
        self.stats = stats


@dataclass
class SolveStats:
    rel_residual: float

    def __post_init__(self):
        if self.rel_residual < 0:
            raise ValueError("residual must be nonnegative")


def check_csr(a: sp.csr_matrix) -> sp.csr_matrix:
    """Validate CSR structure: square, monotone offsets, in-range columns.

    Returns a in canonical form, column indices sorted and duplicates
    summed; an input that is not canonical is copied, never modified.
    """
    if not sp.issparse(a) or a.format != "csr":
        raise TypeError("expected a scipy CSR matrix")
    m, n = a.shape
    if m != n:
        raise ValueError(f"matrix must be square, got {a.shape}")
    if a.indptr[0] != 0 or a.indptr[-1] != a.nnz or np.any(np.diff(a.indptr) < 0):
        raise ValueError("row offsets must be nondecreasing and span the value array")
    if a.nnz and (a.indices.min() < 0 or a.indices.max() >= n):
        raise ValueError("column index out of range")
    if not a.has_canonical_format:
        a = a.copy()
        a.sum_duplicates()
    return a


def check_residual(
    r: np.ndarray, b: np.ndarray, x: np.ndarray, tol: float
) -> tuple[np.ndarray, SolveStats]:
    """Stats of a direct solution x of A x = b, given its residual r = b - A x.

    Raises a SolveError carrying x and the stats unless the relative
    residual ||r|| / ||b|| (the absolute one when b = 0) is at most tol;
    a NaN residual or tol fails.
    """
    b_norm = float(np.linalg.norm(b))
    resid = float(np.linalg.norm(r))
    rel = resid / b_norm if b_norm else resid
    stats = SolveStats(rel)
    if not rel <= tol:
        raise SolveError(
            f"direct solve residual {rel:.3e} > tol {tol:.3e}", x=x, stats=stats
        )
    return x, stats


class DirectFactorization:
    """Reusable sparse LU of a time-constant matrix (residual-checked).

    ``_lu`` is the LU of a^T: the transpose of the CSR matrix ``a`` is a
    CSC view of the same arrays, which SuperLU takes without a copy, and
    ``solve`` runs it transposed to solve a x = b.  splu sums duplicate
    entries of its input in place, so ``a`` is canonicalized first
    (``check_csr``): the view must not rewrite the caller's arrays.
    SuperLU orders the columns by minimum degree on the pattern of
    A^T + A; on the scheme's sector matrix that leaves 12% (n = 50) and
    35% (n = 200) less fill than the default COLAMD ordering.
    ``relax=1`` and ``panel_size=1`` keep SuperLU from padding small
    supernodes, which made the sector matrix's n = 50 solve 0.38 ms
    against 0.24.
    """

    def __init__(self, a: sp.csr_matrix):
        self.a = check_csr(a)
        self._lu = spla.splu(self.a.T, permc_spec="MMD_AT_PLUS_A", relax=1, panel_size=1)

    def solve(self, b: np.ndarray, tol: float = 1e-10) -> tuple[np.ndarray, SolveStats]:
        b = np.asarray(b, dtype=float)
        x = self._lu.solve(b, trans="T")
        return check_residual(b - self.a @ x, b, x, tol)
