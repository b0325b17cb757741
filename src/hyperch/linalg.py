"""Sparse linear algebra for the time-constant coupled system.

The matrix never changes within a run, so it is factorized once by a
sparse direct LU and every step pays one set of triangular solves, held
to a relative-residual contract.  A block-diagonal matrix is held as its
distinct blocks, in compressed-sparse-row form (scipy), and never
expanded: each is factored once, a block that repeats solves the
right-hand sides of all its copies as the columns of one call, and the
residual is formed one copy of a block at a time.

SuperLU factors compressed-sparse-column input.  The CSR arrays of a
block are the CSC arrays of its transpose, so the LU is taken of the
transpose, without a format copy, and each solve runs it transposed.  On
the scheme's Schur matrix in its D4 basis (blocks A and B, one and two
columns) that factor also has less fill and solves faster than the LU of
the blocks themselves, with the same ordering: 3.19M against 3.90M fill
and 4.4 against 4.9 ms at n = 200, 87,518 against 87,521 and 0.133
against 0.146 ms at n = 50 (medians, one BLAS thread).
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


class BlockLU:
    """SuperLU factors of the distinct diagonal blocks of a block-diagonal
    matrix a, block k repeated ``copies[k]`` times in a row along the
    diagonal.  ``factors[k]`` is the LU of block k's transpose, and
    ``solve`` runs it transposed.  ``L`` and ``U`` are block-diagonal over
    the distinct factors, so their nnz is the fill the factors store."""

    def __init__(self, factors: list[spla.SuperLU], copies: list[int]):
        self.factors, self.copies = factors, copies

    @property
    def L(self) -> sp.csc_matrix:
        return sp.block_diag([f.L for f in self.factors], format="csc")

    @property
    def U(self) -> sp.csc_matrix:
        return sp.block_diag([f.U for f in self.factors], format="csc")

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with a x = b: each factor solves the parts of b that meet its
        copies as the columns of one call."""
        x, start = np.empty_like(b), 0
        for f, c in zip(self.factors, self.copies):
            stop = start + c * f.shape[0]
            x[start:stop] = f.solve(b[start:stop].reshape(c, -1).T, trans="T").T.ravel()
            start = stop
        return x


class DirectFactorization:
    """Reusable sparse LU of a time-constant block-diagonal matrix
    (residual-checked).

    The matrix ``a`` is blockdiag(``copies[0]`` copies of ``blocks[0]``,
    then ``copies[1]`` of ``blocks[1]``, ...); a single matrix is one block
    with one copy.  Only the distinct blocks are held (``blocks``): ``a``
    is built on each read, for the benchmark's size counts and the tests,
    and ``solve`` forms the residual one copy at a time.  Each block is
    factored once (``_lu``, a BlockLU), as its transpose, a CSC view of
    its arrays.  splu sums duplicate entries of its input in place, so
    every block is canonicalized first (``check_csr``): the view must not
    rewrite the caller's arrays.  SuperLU orders the columns by minimum
    degree on the pattern of A^T + A: on the scheme's D4 blocks that leaves
    6% (n = 50) and 31% (n = 200) less fill than the default COLAMD
    ordering.  ``relax=1`` and ``panel_size=1`` keep SuperLU from padding
    small supernodes, which made the D4 blocks' solve 0.173 against
    0.133 ms at n = 50 and 6.3 against 4.4 ms at n = 200 (medians, one
    BLAS thread).
    """

    def __init__(self, blocks: list[sp.csr_matrix], copies: list[int]):
        if len(blocks) != len(copies) or not all(c >= 1 for c in copies):
            raise ValueError(f"need one copy count >= 1 per block, got {list(copies)}")
        self.blocks = blocks = [check_csr(b) for b in blocks]
        self._lu = BlockLU(
            [spla.splu(b.T, permc_spec="MMD_AT_PLUS_A", relax=1, panel_size=1) for b in blocks],
            list(copies),
        )

    @property
    def a(self) -> sp.csr_matrix:
        diagonal = [b for b, c in zip(self.blocks, self._lu.copies) for _ in range(c)]
        return sp.block_diag(diagonal, format="csr")

    def solve(self, b: np.ndarray, tol: float = 1e-10) -> tuple[np.ndarray, SolveStats]:
        """x with a x = b and its stats; b - a x is formed one copy at a time
        (vectors beat columns here), each row summed in the order of a @ x."""
        b = np.asarray(b, dtype=float)
        x = self._lu.solve(b)
        ax, start = np.empty_like(x), 0
        for blk, c in zip(self.blocks, self._lu.copies):
            for _ in range(c):
                stop = start + blk.shape[0]
                ax[start:stop] = blk @ x[start:stop]
                start = stop
        return check_residual(b - ax, b, x, tol)
