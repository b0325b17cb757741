"""Dense linear algebra for the time-constant boundary system.

The matrix never changes within a run, so it is factored once by
LAPACK's LU with partial pivoting (getrf) and every step pays one set of
triangular solves (getrs), held to a relative-residual contract.  A
block-diagonal matrix is held as its distinct dense blocks and never
expanded: each is factored once, a block that repeats solves the
right-hand sides of all its copies as the columns of one call, and the
residual is formed one distinct block at a time.  The scheme factors its
boundary capacitance matrix this way: the four sector blocks of A, 4n - 4
wide in all, and the block B, 2n - 2 wide, with two copies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import get_lapack_funcs

_getrf, _getrs = get_lapack_funcs(("getrf", "getrs"), (np.empty((1, 1)),))


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


def _block_diag(blocks: list[sp.spmatrix]) -> sp.spmatrix:
    """blockdiag(blocks) of square blocks, all CSR or all CSC, built from
    the blocks' own arrays in their order (no COO round trip)."""
    dims = np.cumsum([0] + [b.shape[0] for b in blocks]).tolist()  # Python ints keep
    nnz = np.cumsum([0] + [b.nnz for b in blocks]).tolist()  # the index dtype
    indptr = [blocks[0].indptr[:1]] + [b.indptr[1:] + z for b, z in zip(blocks, nnz)]
    return type(blocks[0])(
        (
            np.concatenate([b.data for b in blocks]),
            np.concatenate([b.indices + d for b, d in zip(blocks, dims)]),
            np.concatenate(indptr),
        ),
        (dims[-1],) * 2,
    )


class BlockLU:
    """LAPACK LU factors (getrf's packed ``lu`` and ``piv``) of the distinct
    diagonal blocks of a block-diagonal matrix a, block k repeated
    ``copies[k]`` times in a row along the diagonal.  ``L`` (its unit
    diagonal implicit, as LAPACK keeps it) and ``U`` are block-diagonal
    over the distinct factors, exact zeros dropped, so their nnz is what
    the packed factors store."""

    def __init__(self, factors: list[tuple[np.ndarray, np.ndarray]], copies: list[int]):
        self.factors, self.copies = factors, copies

    @property
    def L(self) -> sp.csc_matrix:
        return _block_diag([sp.csc_matrix(np.tril(lu, -1)) for lu, _ in self.factors])

    @property
    def U(self) -> sp.csc_matrix:
        return _block_diag([sp.csc_matrix(np.triu(lu)) for lu, _ in self.factors])

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with a x = b: each factor solves the parts of b that meet its
        copies as the columns of one call."""
        x, start = np.empty_like(b), 0
        for (lu, piv), c in zip(self.factors, self.copies):
            stop = start + c * lu.shape[0]
            x[start:stop] = _getrs(lu, piv, b[start:stop].reshape(c, -1).T)[0].T.ravel()
            start = stop
        return x


class DirectFactorization:
    """Reusable dense LU of a time-constant block-diagonal matrix
    (residual-checked).

    The matrix ``a`` is blockdiag(``copies[0]`` copies of ``blocks[0]``,
    then ``copies[1]`` of ``blocks[1]``, ...); a single matrix is one block
    with one copy.  Only the distinct square blocks are held (``blocks``,
    dense): ``a`` is built on each read, for the benchmark's size counts
    and the tests, exact zeros dropped, and ``solve`` forms the residual
    one distinct block at a time.  Each block is factored once (``_lu``, a
    BlockLU) from a copy, so the caller's arrays are never rewritten; an
    exactly zero pivot raises a SolveError that names the block and the
    pivot.
    """

    def __init__(self, blocks: list[np.ndarray], copies: list[int]):
        if len(blocks) != len(copies) or not all(c >= 1 for c in copies):
            raise ValueError(f"need one copy count >= 1 per block, got {list(copies)}")
        self.blocks = blocks = [np.asarray(b, dtype=float) for b in blocks]
        if not all(b.ndim == 2 and b.shape[0] == b.shape[1] for b in blocks):
            raise ValueError(f"blocks must be square, got shapes {[b.shape for b in blocks]}")
        factors = []
        for k, blk in enumerate(blocks):
            lu, piv, info = _getrf(blk)
            if info > 0:
                raise SolveError(f"block {k} is singular: pivot {info - 1} of its LU is exactly 0")
            factors.append((lu, piv))
        self._lu = BlockLU(factors, list(copies))

    @property
    def a(self) -> sp.csr_matrix:
        return _block_diag(
            [sp.csr_matrix(b) for b, c in zip(self.blocks, self._lu.copies) for _ in range(c)]
        )

    def solve(self, b: np.ndarray, tol: float = 1e-10) -> tuple[np.ndarray, SolveStats]:
        """x with a x = b and its stats; b - a x is formed one distinct
        block at a time, its copies as the columns of one product."""
        b = np.asarray(b, dtype=float)
        x = self._lu.solve(b)
        ax, start = np.empty_like(x), 0
        for blk, c in zip(self.blocks, self._lu.copies):
            stop = start + c * blk.shape[0]
            ax[start:stop] = (x[start:stop].reshape(c, -1) @ blk.T).ravel()
            start = stop
        return check_residual(b - ax, b, x, tol)
