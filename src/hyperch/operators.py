"""Discrete differential operators and zero-mean Poisson solvers.

This module owns the stencils of the discretization.  The scheme's
potential rows are the gradient of the discrete energy, built from one
matrix: ``dirichlet_hessian``, the Hessian of ``dirichlet_energy_bulk``
on the stacked fields [phi | psi].  Its interior rows are the 5-point
Laplacian (``apply_bulk_laplacian``) and its loop rows the variational
outward normal derivative (``normal_derivative``).  Square-grid stencils
lift one 1-D operator, the free-end second difference a, to both axes as
the Kronecker sum kron(a, T) + kron(T, a): the Hessian on the (n+1)^2
vertex grid, T the trapezoid weights, and the mirror-ghost Neumann
Laplacian on the interior grid, T the identity.  Each is built as its
written-out 5-point stencil, directly in the caller's node order and in
final CSR form (``_kron_sum``).  They commute with the eight symmetries
of the square, its mirror maps and the diagonal swap, so the D4-adapted
basis ``mirror_basis`` splits them into one block per sector, two of
them equal.  The Dirichlet 5-point Laplacian is diagonal in the 2-D
sine basis of the interior grid (``dirichlet_modes``).
The Poisson solvers invert the Neumann Laplacian (bulk) and the
periodic loop Laplacian on mean-free right-hand sides, the operators of
the scheme's evolution rows.  Both are diagonal in a known basis, the
2-D cosine basis of the interior grid (``neumann_modes``) and the
Fourier basis of the loop (``loop_eigenvalues``), so each solve is two
transforms and a division that drops the constant mode.  They back
``model.modified_energy``, the reference the tests hold a run's kinetic
terms to; runs read those terms from the potentials the step carries and
never call the solvers.  Every matrix is built afresh per call and
belongs to its caller; a module cache holds only a read-only per-n array
that the step or the diagnostic row reads.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import scipy.sparse as sp

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


def _kron_sum(m: int, t: np.ndarray, order: np.ndarray) -> sp.csr_matrix:
    """kron(a, T) + kron(T, a) on an m x m grid, with T = diag(t) and a the
    free-end second difference (tridiag(-1, 2, -1) with 1 in both end
    entries), written out as its 5-point stencil: node (i, j), flat index
    i m + j, couples to (i +- 1, j) with -t[j], to (i, j +- 1) with -t[i],
    and to itself with a_ii t[j] + t[i] a_jj, which zeroes the row sum.
    Rows and columns are in ``order``, a permutation of the flat indices;
    each row's columns are sorted."""
    i, j = np.divmod(order, m)
    w = m + 2
    at = np.full((w, w), order.size, order.dtype)  # a border of missing neighbors
    at[i + 1, j + 1] = np.arange(order.size, dtype=order.dtype)
    # a row's keys 8 * column + k of the neighbors at grid offsets (-1, 0),
    # (0, -1), (0, 0), (0, 1) and (1, 0), sorted; missing ones sort last
    key = at.ravel()[(i * w + j + w + 1)[:, None] + np.array([-w, -1, 0, 1, w], order.dtype)]
    key <<= 3
    key += np.arange(5, dtype=order.dtype)
    key.sort(axis=1)
    key = key[key < order.size << 3]
    # a_ii and a_jj: the node's chain neighbors along i and along j
    ai, aj = (i > 0).astype(order.dtype) + (i < m - 1), (j > 0).astype(order.dtype) + (j < m - 1)
    ti, tj = t[i], t[j]
    vals = np.stack([-tj, -ti, ai * tj + ti * aj, -ti, -tj], axis=1).ravel()
    count = ai + aj + 1
    pick = np.repeat(np.arange(0, vals.size, 5, dtype=order.dtype), count)
    pick += key & 7  # row r's entry at offset k is vals[5 r + k]
    key >>= 3
    return sp.csr_matrix(
        (vals[pick], key, np.r_[0, count.cumsum()].astype(order.dtype)), (order.size,) * 2
    )


def _vertex_index(grid: Grid) -> np.ndarray:
    """Flat (n+1)^2 vertex-grid indices, row-major in (i, j), in the order
    of [phi | psi]: interior vertices, then the loop (``grid.loop_ij``)."""
    n1, inner = grid.n + 1, np.arange(1, grid.n)
    order = np.concatenate([(inner[:, None] * n1 + inner).ravel(), grid.loop_ij @ [n1, 1]])
    return order.astype(np.int32)  # halves the index arrays built on it


def dirichlet_modes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(sigma, lam): the orthonormal DST-I matrix of the n - 1 interior
    nodes of a side, sigma[a, k] = sqrt(2/n) sin(pi (a+1)(k+1) / n), which
    is symmetric and its own inverse, and the eigenvalues lam[k] =
    -4 sin^2(pi (k+1) / 2n) / h^2 of the second difference with zero values
    beyond both ends.  The Dirichlet 5-point Laplacian on the interior grid
    (values on the loop set to zero), the interior block of -H / h^2 for H
    ``dirichlet_hessian``, is (sigma x sigma) diag(lam_k + lam_l) (sigma x
    sigma).  Row m - 1 - a of sigma is (-1)^k times row a, so mode k is
    even under the mirror of its axis if k is even and odd if k is odd."""
    k, h = np.arange(1, n), 1.0 / n
    # sin(pi j / n) with j reduced mod 2n, so the argument stays below 2 pi
    sigma = np.sqrt(2.0 / n) * np.sin(np.pi / n * (np.outer(k, k) % (2 * n)))
    return sigma, -4.0 * np.sin(0.5 * np.pi / n * k) ** 2 / (h * h)


def mirror_basis(grid: Grid, nodes: np.ndarray) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
    """(Q, sector, vertex): the orthonormal basis of the fields on
    ``nodes`` adapted to the symmetry group D4 of the square, which its
    mirror maps x -> 1-x, y -> 1-y and the diagonal swap (x, y) -> (y, x)
    generate.  ``nodes`` are [phi | psi] indices of a node set that D4 maps
    onto itself (the whole grid, or layers at fixed distances from the
    boundary); Q's rows, and the positions vertex[t] below, follow their
    order.

    sector[t] of column t is nondecreasing over six contiguous blocks:
    0 ++even, 1 ++odd, 2 --even, 3 --odd (x and y parities, then the swap
    parity), then the two copies 4 (+-) and 5 (-+) of the 2-D irreducible
    representation E; column t of copy 5 is the swap of column t of copy
    4.  Every column is the sign pattern of its x, y parities on the mirror
    orbit of a vertex, divided by the root of the orbit size; in sectors 0
    to 3 the patterns on the orbits of (i, j) and (j, i), when these
    differ, are mixed as (e_1 +- e_2)/sqrt(2), and a diagonal orbit is
    swap-even only.  vertex[t] is the position in ``nodes`` of a vertex
    where column t is positive, in the quadrant of its x, y parities
    (mirror lines belong to the low halves); in sectors 0 to 3, min(i, n -
    i) <= min(j, n - j) there if the column is swap-even and > if odd.
    These vertices are distinct, and each of sectors 0 to 4 lists them in
    the order of ``nodes``.  Q is not symmetric: a column of E has four
    entries and a mixed one eight, so no pairing of columns with vertices
    gives Q = Q^T.  Q's index arrays, sector and vertex are int32."""
    n = grid.n
    order = _vertex_index(grid)[nodes]
    at = np.zeros((n + 1) ** 2, dtype=order.dtype)
    at[order] = np.arange(order.size, dtype=order.dtype)  # position of every node
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
    sector = np.repeat(np.arange(6, dtype=np.int32), np.bincount(own, minlength=6))
    return q, sector, vertex.astype(np.int32)


def dirichlet_hessian(grid: Grid) -> sp.csr_matrix:
    """Hessian H of ``dirichlet_energy_bulk`` on [phi | psi]: the energy
    is y^T H y / 2.

    kron(a, T) + kron(T, a) on the vertex grid, T = diag(trapezoid
    weights), written out with rows and columns in [phi | psi] order,
    indices sorted.
    Symmetric, zero row sums.  Interior rows are the 5-point stencil; an
    edge row is 2 at its node, -1/2 at its loop neighbors and -1 inside;
    a corner row is 1 at the corner and -1/2 at its loop neighbors.
    """
    return _kron_sum(grid.n + 1, trapezoid_weights(grid.n), _vertex_index(grid))


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


# ---- Laplacian matrices and zero-mean Poisson solves -------------------


def neumann_laplacian_matrix(n: int) -> sp.csr_matrix:
    """Mirror-ghost Neumann 5-point Laplacian on the (n-1)^2 interior grid.

    Symmetric with zero row sums; the ghost value outside each side equals
    the first inside value, which realizes a homogeneous Neumann closure:
    -(kron(a, I) + kron(I, a)) / h^2, written out in row-major order.  It
    is the operator the scheme's bulk evolution rows apply to mu, and
    the one the bulk Poisson solver inverts.
    """
    m = n - 1
    lap = _kron_sum(m, np.ones(m), np.arange(m * m, dtype=np.int32))
    lap.data *= -1.0 / (1.0 / n) ** 2
    return lap


def loop_laplacian_matrix(n: int) -> sp.csr_matrix:
    """Periodic second-difference matrix on the 4n-node perimeter loop;
    the offsets +-(4n - 1) close the chain."""
    nl = 4 * n
    lap = sp.diags([1.0, 1.0, -2.0, 1.0, 1.0], [1 - nl, -1, 0, 1, nl - 1], shape=(nl, nl))
    return (lap / (1.0 / n) ** 2).tocsr()


def neumann_modes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(c, mu): the orthonormal DCT-II matrix of the m = n - 1 interior
    nodes of a side, c[a, k] = sqrt(2/m) cos(pi (a + 1/2) k / m) with
    column 0 equal to sqrt(1/m), and the eigenvalues mu[k] =
    -4 sin^2(pi k / 2m) / h^2 of the second difference with mirror ghosts.
    ``neumann_laplacian_matrix(n)`` is (c x c) diag(mu_k + mu_l) (c x c)^T;
    mode (0, 0), the constants, is its kernel."""
    m, h = n - 1, 1.0 / n
    k = np.arange(m)
    # cos(pi j / 2m) with j = (2a + 1) k reduced mod 4m, so the argument
    # stays below 2 pi
    c = np.sqrt(2.0 / m) * np.cos(0.5 * np.pi / m * (np.outer(2 * k + 1, k) % (4 * m)))
    c[:, 0] = np.sqrt(1.0 / m)
    return c, -4.0 * np.sin(0.5 * np.pi / m * k) ** 2 / (h * h)


def loop_eigenvalues(n: int) -> np.ndarray:
    """Eigenvalues -4 sin^2(pi k / 4n) / h^2, k = 0..2n, of
    ``loop_laplacian_matrix(n)`` on the Fourier modes exp(2 pi i k s / 4n)
    that ``np.fft.rfft`` resolves; mode 4n - k has the eigenvalue of k."""
    h = 1.0 / n
    return -4.0 * np.sin(0.25 * np.pi / n * np.arange(2 * n + 1)) ** 2 / (h * h)


def _check_tol(tol: float) -> None:
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")


def _check_residual(lap_p: np.ndarray, w_free: np.ndarray, tol: float) -> None:
    """Raise unless the operator's image of the solution is the mean-free
    data to ``tol`` relative to max(1, max |data|)."""
    resid = float(np.abs(lap_p - w_free).max())
    scale = max(1.0, float(np.abs(w_free).max()))
    if not resid <= tol * scale:
        raise PoissonSolveError(
            f"zero-mean Poisson solve residual {resid:.3e} exceeds tol {tol:.3e}"
        )


def solve_poisson_neumann_zeromean(w: np.ndarray, grid: Grid, tol: float = 1e-10) -> np.ndarray:
    """Solve lap(p) = w - mean(w) with the mirror-ghost Neumann Laplacian.

    The right-hand side is projected to zero mean (the operator's range)
    and the solution is returned with zero mean: in the cosine basis of
    ``neumann_modes`` every mode but the constant one is divided by its
    eigenvalue.  The residual is checked against the 5-point stencil with
    mirror ghosts.
    """
    w = _check_bulk(w, grid)
    _check_tol(tol)
    m, h = grid.n - 1, grid.h
    c, mu = neumann_modes(grid.n)
    w_free = (w - w.mean()).reshape(m, m)
    eig = np.add.outer(mu, mu)
    eig[0, 0] = np.inf  # the constant mode drops out
    p = c @ ((c.T @ w_free @ c) / eig) @ c.T
    ghost = np.pad(p, 1, mode="edge")  # each ghost equals its inside neighbor
    lap_p = ghost[:-2, 1:-1] + ghost[2:, 1:-1] + ghost[1:-1, :-2] + ghost[1:-1, 2:] - 4.0 * p
    _check_residual(lap_p / (h * h), w_free, tol)
    return p.ravel()


def solve_poisson_loop_zeromean(w: np.ndarray, grid: Grid, tol: float = 1e-10) -> np.ndarray:
    """Solve the periodic loop Poisson problem on mean-free data.

    Every Fourier mode but k = 0 is divided by its eigenvalue
    (``loop_eigenvalues``); the residual is checked against the periodic
    second difference.
    """
    w = _check_loop(w, grid)
    _check_tol(tol)
    w_free = w - w.mean()
    eig = loop_eigenvalues(grid.n)
    eig[0] = np.inf  # the constant mode drops out
    q = np.fft.irfft(np.fft.rfft(w_free) / eig, grid.n_loop)
    lap_q = np.roll(q, 1) + np.roll(q, -1) - 2.0 * q
    _check_residual(lap_q / (grid.h * grid.h), w_free, tol)
    return q


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
