"""Discrete differential operators and zero-mean Poisson solvers.

This module owns the stencils of the discretization.  The scheme's
potential rows are the gradient of the discrete energy, built from one
matrix: ``dirichlet_hessian``, the Hessian of ``dirichlet_energy_bulk``
on the stacked fields [phi | psi].  Its interior rows are the 5-point
Laplacian (``apply_bulk_laplacian``) and its loop rows the variational
outward normal derivative (``normal_derivative``).  Square-grid stencils
lift one 1-D operator, the free-end second difference a, to both axes as
a Kronecker sum: the Hessian on the (n+1)^2 vertex grid, weighted by the
trapezoid weights, and the mirror-ghost Neumann Laplacian on the interior
grid.  They commute with the eight symmetries of the square, its mirror
maps and the diagonal swap, so the D4-adapted basis ``mirror_basis``
splits them into one block per sector, two of them equal.
The Poisson solvers invert the Neumann Laplacian (bulk) and the
periodic loop Laplacian on mean-free right-hand sides, the operators of
the scheme's evolution rows.  They back ``model.modified_energy``, the
reference the tests hold a run's kinetic terms to; runs read those terms
from the potentials the step carries and never call the solvers.
Every matrix is built afresh per call and belongs to its caller; a module
cache holds only a read-only per-n array that the step or the diagnostic
row reads, plus the Poisson solvers' pinned factors.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import Grid


class PoissonSolveError(RuntimeError):
    """Raised when a zero-mean Poisson solve misses its residual target."""


def _check_bulk(phi: np.ndarray, grid: Grid) -> np.ndarray:
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (grid.n_int,):
        raise ValueError(f"bulk field has shape {phi.shape}, expected ({grid.n_int},)")
    return phi


def _check_loop(psi: np.ndarray, grid: Grid) -> np.ndarray:
    psi = np.asarray(psi, dtype=float)
    if psi.shape != (grid.n_loop,):
        raise ValueError(f"loop field has shape {psi.shape}, expected ({grid.n_loop},)")
    return psi


def to_full_grid(phi: np.ndarray, psi: np.ndarray, grid: Grid) -> np.ndarray:
    """Assemble the (n+1)x(n+1) vertex array, boundary values from psi.

    Axis 0 is the x index i, axis 1 the y index j.
    """
    phi = _check_bulk(phi, grid)
    psi = _check_loop(psi, grid)
    n = grid.n
    full = np.empty((n + 1, n + 1))
    full[1:n, 1:n] = phi.reshape(n - 1, n - 1)
    full[grid.loop_ij[:, 0], grid.loop_ij[:, 1]] = psi
    return full


def trapezoid_weights(n: int) -> np.ndarray:
    """Trapezoid weights (1/2, 1, ..., 1, 1/2) of the n+1 vertices of a
    side; every vertex-grid quadrature derives from them."""
    w = np.ones(n + 1)
    w[0] = w[-1] = 0.5
    return w


def _free_end_second_difference(m: int) -> sp.csr_matrix:
    """D^T D for the forward difference D along a chain of m nodes:
    tridiag(-1, 2, -1) with 1 in both end entries."""
    d = sp.diags([-1.0, 1.0], [0, 1], shape=(m - 1, m))
    return (d.T @ d).tocsr()


def _kron_sum(a: sp.spmatrix, t: sp.spmatrix) -> sp.csr_matrix:
    """kron(a, t) + kron(t, a): the 1-D operator a along both axes of a
    square grid, weighted by t along the other; x index i is slow."""
    return (sp.kron(a, t) + sp.kron(t, a)).tocsr()


def _vertex_index(grid: Grid) -> np.ndarray:
    """Flat (n+1)^2 vertex-grid indices, row-major in (i, j), in the order
    of [phi | psi]: interior vertices, then the loop (``grid.loop_ij``)."""
    n1, inner = grid.n + 1, np.arange(1, grid.n)
    return np.concatenate([(inner[:, None] * n1 + inner).ravel(), grid.loop_ij @ [n1, 1]])


def mirror_basis(grid: Grid) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
    """(Q, sector, vertex): the orthonormal basis of [phi | psi] adapted to
    the symmetry group D4 of the square, which its mirror maps x -> 1-x,
    y -> 1-y and the diagonal swap (x, y) -> (y, x) generate.

    sector[t] of column t is nondecreasing over six contiguous blocks:
    0 ++even, 1 ++odd, 2 --even, 3 --odd (x and y parities, then the swap
    parity), then the two copies 4 (+-) and 5 (-+) of the 2-D irreducible
    representation E; column t of copy 5 is the swap of column t of copy
    4.  Every column is the sign pattern of its x, y parities on the mirror
    orbit of a vertex, divided by the root of the orbit size; in sectors 0
    to 3 the patterns on the orbits of (i, j) and (j, i), when these
    differ, are mixed as (e_1 +- e_2)/sqrt(2), and a diagonal orbit is
    swap-even only.  vertex[t] is the [phi | psi] index of a vertex where
    column t is positive, in the quadrant of its x, y parities (mirror
    lines belong to the low halves); in sectors 0 to 3, min(i, n - i) <=
    min(j, n - j) there if the column is swap-even and > if odd.  These
    vertices are distinct, and each of sectors 0 to 4 lists them in
    [phi | psi] order.  Q is not symmetric: a column of E has four entries
    and a mixed one eight, so no pairing of columns with vertices gives
    Q = Q^T, and a caller that applies Q^T holds it once."""
    n = grid.n
    order = _vertex_index(grid).astype(np.int32)  # halves the (dim, 6) index stacks
    at = np.empty_like(order)
    at[order] = np.arange(order.size)  # [phi | psi] index of every vertex
    i, j = np.divmod(order, n + 1)
    hx, hy = 2 * i > n, 2 * j > n  # in the high half of x, of y
    ri, rj = np.minimum(i, n - i), np.minimum(j, n - j)
    lo, hi, ox, oy = np.minimum(ri, rj), np.maximum(ri, rj), 2 * ri < n, 2 * rj < n
    # the sector of the column whose vertex[t] each vertex is
    own = np.where(hx == hy, 2 * hx + (ri > rj), 4 + hx)
    vertex = np.argsort(own, kind="stable")
    e = own.size - np.count_nonzero(own == 5)  # copy 5 starts at e, copy 4 at 2e - size
    vertex[e:] = at[j * (n + 1) + i][vertex[2 * e - own.size : e]]
    col = np.empty_like(vertex, dtype=np.int32)
    col[vertex] = np.arange(vertex.size)
    # row m of Q, per sector: the vertex[t] of the column on vertex m's
    # orbit, that column's value at m, and whether the sector has one
    owner = [(lo, hi), (hi, lo), (n - lo, n - hi), (n - hi, n - lo), (ri, n - rj), (n - ri, rj)]
    cols = col[at][np.stack([a * (n + 1) + b for a, b in owner], axis=1)]
    mix = np.where(ri == rj, 1.0, np.sqrt(0.5))
    odd, sign = np.where(ri > rj, mix, -mix), 1 - 2 * (hx ^ hy)
    vals = np.stack([mix, odd, sign * mix, sign * odd, 2 * hy - 1, 2 * hx - 1], axis=1)
    vals /= np.sqrt((1 + ox) * (1 + oy))[:, None]
    pair = ri != rj
    valid = np.stack([np.ones_like(pair), pair, ox & oy, ox & oy & pair, oy, ox], axis=1)
    q = sp.csr_matrix(
        (vals[valid], cols[valid], np.r_[0, valid.sum(axis=1).cumsum()]), (order.size,) * 2
    )
    return q, np.repeat(np.arange(6), np.bincount(own, minlength=6)), vertex


def dirichlet_hessian(grid: Grid) -> sp.csr_matrix:
    """Hessian H of ``dirichlet_energy_bulk`` on [phi | psi]: the energy
    is y^T H y / 2.

    kron(a, T) + kron(T, a) on the vertex grid, T = diag(trapezoid
    weights), rows and columns in [phi | psi] order, indices sorted.
    Symmetric, zero row sums.  Interior rows are the 5-point stencil; an
    edge row is 2 at its node, -1/2 at its loop neighbors and -1 inside;
    a corner row is 1 at the corner and -1/2 at its loop neighbors.
    """
    order, a = _vertex_index(grid), _free_end_second_difference(grid.n + 1)
    hess = _kron_sum(a, sp.diags(trapezoid_weights(grid.n)))[order][:, order]
    hess.sort_indices()
    return hess


def _fields(phi: np.ndarray, psi: np.ndarray, grid: Grid) -> np.ndarray:
    return np.concatenate([_check_bulk(phi, grid), _check_loop(psi, grid)])


def apply_bulk_laplacian(phi: np.ndarray, psi: np.ndarray, grid: Grid) -> np.ndarray:
    """5-point Laplacian of the bulk field at every interior vertex, trace
    values from the loop field: -H y / h^2 on the interior rows."""
    hess = dirichlet_hessian(grid)[: grid.n_int]
    return -(hess / (grid.h * grid.h)) @ _fields(phi, psi, grid)


def apply_loop_laplacian(psi: np.ndarray, grid: Grid) -> np.ndarray:
    """Periodic Laplace-Beltrami operator on the perimeter loop."""
    return loop_laplacian_matrix(grid.n) @ _check_loop(psi, grid)


def normal_derivative(phi: np.ndarray, psi: np.ndarray, grid: Grid) -> np.ndarray:
    """Variational outward normal derivative at every loop node, H y / h
    on the loop rows: (psi_k - phi_in)/h - h/2 times the tangential second
    difference at an edge node, (2 psi_c - psi_a - psi_b)/(2h) at a corner
    (the mean of its two sides).  Exact on affine fields."""
    hess = dirichlet_hessian(grid)[grid.n_int :]
    return (hess / grid.h) @ _fields(phi, psi, grid)


def dirichlet_energy_bulk(phi: np.ndarray, psi: np.ndarray, grid: Grid) -> float:
    """Edge-based quadrature of (1/2) * integral of |grad phi|^2.

    Each grid edge contributes ((difference)/h)^2 * h^2; edges lying on
    the domain boundary carry transverse trapezoid weight 1/2, which makes
    the quadrature exact on fields linear in x and y.
    """
    full = to_full_grid(phi, psi, grid)
    dx = full[1:] - full[:-1]
    dy = full[:, 1:] - full[:, :-1]
    wx, wy = _edge_weights(grid.n)
    return 0.5 * (float(np.vdot(wx, dx * dx)) + float(np.vdot(wy, dy * dy)))


@lru_cache(maxsize=8)
def _edge_weights(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Transverse trapezoid weights of the x-edges (n, n+1) and y-edges
    (n+1, n) of the vertex grid: 1/2 on edges along the boundary, else 1.
    Cached, so read-only."""
    wx = np.repeat(trapezoid_weights(n)[None, :], n, axis=0)
    wy = np.ascontiguousarray(wx.T)
    for w in (wx, wy):
        w.setflags(write=False)
    return wx, wy


def dirichlet_energy_loop(psi: np.ndarray, grid: Grid) -> float:
    """Edge-based quadrature of (1/2) * integral over the loop of |grad psi|^2."""
    return 0.5 * grad_norm_sq_loop(psi, grid)


# ---- Laplacian matrices and cached Poisson factorizations -------------


def neumann_laplacian_matrix(n: int) -> sp.csr_matrix:
    """Mirror-ghost Neumann 5-point Laplacian on the (n-1)^2 interior grid.

    Symmetric with zero row sums; the ghost value outside each side equals
    the first inside value, which realizes a homogeneous Neumann closure.
    It is the operator the scheme's bulk evolution rows apply to mu, and
    the one the bulk Poisson solver inverts.
    """
    h2 = (1.0 / n) ** 2
    return -_kron_sum(_free_end_second_difference(n - 1), sp.identity(n - 1)) / h2


def loop_laplacian_matrix(n: int) -> sp.csr_matrix:
    """Periodic second-difference matrix on the 4n-node perimeter loop;
    the offsets +-(4n - 1) close the chain."""
    nl = 4 * n
    lap = sp.diags([1.0, 1.0, -2.0, 1.0, 1.0], [1 - nl, -1, 0, 1, nl - 1], shape=(nl, nl))
    return (lap / (1.0 / n) ** 2).tocsr()


@lru_cache(maxsize=8)
def _pinned_factor(n: int, which: str) -> tuple[sp.csr_matrix, spla.SuperLU]:
    """The ``which`` ("bulk" or "loop") Laplacian and the LU
    factorization of it with row 0 pinned.

    For a symmetric operator with constants in the kernel and a mean-free
    right-hand side (with rhs[0] set to 0), the pinned solve is exact: the
    dropped row's residual vanishes automatically.  Ordered by minimum
    degree on A^T + A, as linalg.DirectFactorization orders the scheme's
    factor; at n = 50 the bulk factor's fill is 40% below COLAMD's.
    """
    lap = neumann_laplacian_matrix(n) if which == "bulk" else loop_laplacian_matrix(n)
    pinned = lap.tolil()
    pinned[0, :] = 0.0
    pinned[0, 0] = 1.0
    return lap, spla.splu(pinned.tocsc(), permc_spec="MMD_AT_PLUS_A")


def _solve_zeromean(w: np.ndarray, n: int, which: str, tol: float) -> np.ndarray:
    """Pinned solve, its residual checked against the factored Laplacian."""
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    lap, factor = _pinned_factor(n, which)
    w_free = w - w.mean()
    rhs = w_free.copy()
    rhs[0] = 0.0
    p = factor.solve(rhs)
    p -= p.mean()
    resid = float(np.abs(lap @ p - w_free).max())
    scale = max(1.0, float(np.abs(w_free).max()))
    if not resid <= tol * scale:
        raise PoissonSolveError(
            f"zero-mean Poisson solve residual {resid:.3e} exceeds tol {tol:.3e}"
        )
    return p


def solve_poisson_neumann_zeromean(w: np.ndarray, grid: Grid, tol: float = 1e-10) -> np.ndarray:
    """Solve lap(p) = w - mean(w) with the mirror-ghost Neumann Laplacian.

    The right-hand side is projected to zero mean (the operator's range)
    and the solution is returned with zero mean.
    """
    return _solve_zeromean(_check_bulk(w, grid), grid.n, "bulk", tol)


def solve_poisson_loop_zeromean(w: np.ndarray, grid: Grid, tol: float = 1e-10) -> np.ndarray:
    """Solve the periodic loop Poisson problem on mean-free data."""
    return _solve_zeromean(_check_loop(w, grid), grid.n, "loop", tol)


def grad_norm_sq_interior(p: np.ndarray, grid: Grid) -> float:
    """Squared gradient norm of an interior-grid field over its own edges.

    Equals -h^2 * p^T L p for the mirror-ghost Neumann Laplacian L (ghost
    edges carry zero difference), so it pairs with the Poisson solve in a
    discrete summation-by-parts identity.
    """
    p = _check_bulk(p, grid)
    m = grid.n - 1
    arr = p.reshape(m, m)
    dx = arr[1:] - arr[:-1]
    dy = arr[:, 1:] - arr[:, :-1]
    return float(np.vdot(dx, dx)) + float(np.vdot(dy, dy))


def grad_norm_sq_loop(q: np.ndarray, grid: Grid) -> float:
    """Squared gradient norm of a loop field over the closed chain.

    Equals -h * q^T L q for the periodic loop Laplacian L, pairing with
    the loop Poisson solve in a summation-by-parts identity.
    """
    q = _check_loop(q, grid)
    d = q[1:] - q[:-1]
    wrap = float(q[0] - q[-1])
    return (float(d @ d) + wrap * wrap) / grid.h
