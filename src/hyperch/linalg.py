"""Dense linear algebra for the time-constant boundary system.

The matrix never changes within a run, so each distinct diagonal block
of it is inverted once (bordered elimination, ``_inverse``), and every
step pays one matrix product per block, held to a relative-residual
contract.  A block-diagonal matrix is held as its distinct dense blocks
and never expanded: a block that repeats applies its inverse to the
right-hand sides of all its copies as the columns of one product.  The
scheme holds its boundary capacitance matrix this way: the four sector
blocks of A, 4n - 4 wide in all, and the block B, 2n - 2 wide, with two
copies.  Only the expansions ``a``, ``L`` and ``U``, for the benchmark's
counts and the tests, build scipy matrices, importing scipy themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


def _inverse(a: np.ndarray, f: int, k: int) -> np.ndarray:
    """Inverse of block k, a = [[A11, A12], [A21, A22]] split after its
    first f rows and columns: with E = A11^-1 A12, F = A21 A11^-1 and the
    Schur complement S = A22 - A21 E, it is [[A11^-1 + E S^-1 F, -E S^-1],
    [-S^-1 F, S^-1]], two inversions of about half the width and six
    products, near half the time of one inversion of a.  A part that
    numpy's LU finds exactly singular raises a SolveError naming it."""
    part = f"leading {f}x{f} part"
    try:
        x11 = np.linalg.inv(a[:f, :f])
        e, fr = x11 @ a[:f, f:], a[f:, :f] @ x11
        part = f"Schur complement on its last {a.shape[0] - f} rows"
        s_inv = np.linalg.inv(a[f:, f:] - a[f:, :f] @ e)
    except np.linalg.LinAlgError:
        raise SolveError(f"block {k} is singular: its {part} is") from None
    e_s = e @ s_inv
    return np.block([[x11 + e_s @ fr, -e_s], [-(s_inv @ fr), s_inv]])


class BlockInverse:
    """The distinct blocks' inverses and copy counts.  ``L`` and ``U``, the
    block diagonals of the inverses' strict lower and upper triangles
    (exact zeros dropped), exist for the benchmark's fill count alone."""

    def __init__(self, inverses: list[np.ndarray], copies: list[int]):
        self.inverses, self.copies = inverses, copies

    @property
    def L(self) -> "scipy.sparse.csc_matrix":
        from scipy.sparse import block_diag, csc_matrix

        return block_diag([csc_matrix(np.tril(inv, -1)) for inv in self.inverses], format="csc")

    @property
    def U(self) -> "scipy.sparse.csc_matrix":
        from scipy.sparse import block_diag, csc_matrix

        return block_diag([csc_matrix(np.triu(inv)) for inv in self.inverses], format="csc")


class DirectFactorization:
    """Reusable dense inverse of a time-constant block-diagonal matrix
    (residual-checked).

    The matrix ``a`` is blockdiag(``copies[0]`` copies of ``blocks[0]``,
    then ``copies[1]`` of ``blocks[1]``, ...); a single matrix is one block
    with one copy.  Only the distinct square blocks are held (``blocks``,
    dense, never rewritten).  Block k is inverted once, eliminated after
    its first ``splits[k]`` rows and columns (none by default), into
    ``_lu``, a BlockInverse.  ``a`` (built on each read, exact zeros
    dropped), ``_lu.L``, ``_lu.U`` and ``solve``'s ``tol`` and residual
    on ``a`` serve the benchmark's counts and the tests.
    """

    def __init__(self, blocks: list[np.ndarray], copies: list[int],
                 splits: list[int] | None = None):
        if len(blocks) != len(copies) or not all(c >= 1 for c in copies):
            raise ValueError(f"need one copy count >= 1 per block, got {list(copies)}")
        self.blocks = blocks = [np.asarray(b, dtype=float) for b in blocks]
        if not all(b.ndim == 2 and b.shape[0] == b.shape[1] for b in blocks):
            raise ValueError(f"blocks must be square, got shapes {[b.shape for b in blocks]}")
        splits = [0] * len(blocks) if splits is None else splits
        inverses = [_inverse(b, f, k) for k, (b, f) in enumerate(zip(blocks, splits, strict=True))]
        self._lu = BlockInverse(inverses, list(copies))

    @property
    def a(self) -> "scipy.sparse.csr_matrix":
        from scipy.sparse import block_diag, csr_matrix

        copies = zip(self.blocks, self._lu.copies)
        return block_diag([csr_matrix(b) for b, c in copies for _ in range(c)], format="csr")

    def solve(self, b: np.ndarray, tol: float = 1e-10) -> tuple[np.ndarray, SolveStats]:
        """x with a x = b and its stats: each distinct block applies its
        inverse to the parts of b that meet its copies as the columns of
        one product, then forms its part of b - a x as one product."""
        b = np.asarray(b, dtype=float)
        x, r, start = np.empty_like(b), np.empty_like(b), 0
        for blk, inv, c in zip(self.blocks, self._lu.inverses, self._lu.copies):
            stop = start + c * blk.shape[0]
            x_k = x[start:stop].reshape(c, -1)
            np.matmul(b[start:stop].reshape(c, -1), inv.T, out=x_k)
            np.subtract(b[start:stop], (x_k @ blk.T).ravel(), out=r[start:stop])
            start = stop
        return check_residual(r, b, x, tol)
