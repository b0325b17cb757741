"""Discrete differential operators and zero-mean Poisson solvers.

This module owns the stencils of the discretization.  The bulk 5-point
Laplacian, split into interior and trace columns, the one-sided outward
normal derivative, the mirror-ghost Neumann Laplacian and the periodic
loop Laplacian are built here as sparse matrices;
``scheme.assemble_system`` assembles the step system from them, and
``apply_bulk_laplacian``, ``normal_derivative`` and
``apply_loop_laplacian`` are products with the same matrices.  The
Poisson solvers invert the Neumann Laplacian (bulk) and the loop
Laplacian on mean-free right-hand sides, so they invert the operators of
the scheme's evolution rows.  They back ``model.modified_energy``, the
reference the tests hold a run's kinetic terms to; runs read those terms
from the potentials the step carries and never call the solvers.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import Grid, inward_normal_stencil


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


def bulk_laplacian_matrices(grid: Grid) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """5-point Laplacian split into interior-interior and interior-loop parts.

    Returns (l_ii, l_il): the Laplacian of the bulk field at every
    interior vertex is l_ii @ phi + l_il @ psi, the trace values read from
    the loop field.  l_il never touches a corner loop node.
    """
    n = grid.n
    m = n - 1
    h2 = grid.h * grid.h
    ii, jj = np.meshgrid(np.arange(1, n), np.arange(1, n), indexing="ij")
    ii, jj = ii.ravel(), jj.ravel()
    rows_r = (ii - 1) * m + (jj - 1)

    rows_ii, cols_ii, vals_ii = [rows_r], [rows_r], [np.full(grid.n_int, -4.0 / h2)]
    rows_il, cols_il = [], []
    # neighbor offsets and the loop index each boundary side maps to
    for di, dj, loop_col in (
        (1, 0, lambda i, j: n + j),        # i+1 == n: right edge
        (-1, 0, lambda i, j: 4 * n - j),   # i-1 == 0: left edge
        (0, 1, lambda i, j: 3 * n - i),    # j+1 == n: top edge
        (0, -1, lambda i, j: i),           # j-1 == 0: bottom edge
    ):
        a, b = ii + di, jj + dj
        inside = (1 <= a) & (a <= m) & (1 <= b) & (b <= m)
        rows_ii.append(rows_r[inside])
        cols_ii.append((a[inside] - 1) * m + (b[inside] - 1))
        vals_ii.append(np.full(inside.sum(), 1.0 / h2))
        out = ~inside
        rows_il.append(rows_r[out])
        cols_il.append(loop_col(ii[out], jj[out]))
    l_ii = sp.csr_matrix(
        (np.concatenate(vals_ii), (np.concatenate(rows_ii), np.concatenate(cols_ii))),
        shape=(grid.n_int, grid.n_int),
    )
    l_il = sp.csr_matrix(
        (
            np.full(sum(len(r) for r in rows_il), 1.0 / h2),
            (np.concatenate(rows_il), np.concatenate(cols_il)),
        ),
        shape=(grid.n_int, grid.n_loop),
    )
    return l_ii, l_il


def normal_derivative_matrices(grid: Grid) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Outward normal derivative of the bulk field at every loop node.

    Returns (nd_phi, nd_psi): the derivative is nd_phi @ phi + nd_psi @ psi.
    Edge node: one-sided second-order formula (3*psi_k - 4*v1 + v2)/(2h)
    with v1, v2 the first and second vertices along the inward normal.
    Corner node: average of the two one-sided edge-direction values.
    """
    nd_phi = sp.lil_matrix((grid.n_loop, grid.n_int))
    nd_psi = sp.lil_matrix((grid.n_loop, grid.n_loop))
    inv2h = 1.0 / (2.0 * grid.h)
    for k in range(grid.n_loop):
        st = inward_normal_stencil(grid, k)
        w = 1.0 / len(st.triples)
        for (b, v1, v2) in st.triples:
            for ref, coef in ((b, 3.0), (v1, -4.0), (v2, 1.0)):
                kind, idx = ref
                target = nd_phi if kind == "int" else nd_psi
                target[k, idx] += w * coef * inv2h
    return nd_phi.tocsr(), nd_psi.tocsr()


def apply_bulk_laplacian(phi: np.ndarray, psi: np.ndarray, grid: Grid) -> np.ndarray:
    """5-point Laplacian of the bulk field at every interior vertex."""
    l_ii, l_il = bulk_laplacian_matrices(grid)
    return l_ii @ _check_bulk(phi, grid) + l_il @ _check_loop(psi, grid)


def apply_loop_laplacian(psi: np.ndarray, grid: Grid) -> np.ndarray:
    """Periodic Laplace-Beltrami operator on the perimeter loop."""
    return loop_laplacian_matrix(grid.n) @ _check_loop(psi, grid)


def normal_derivative(phi: np.ndarray, psi: np.ndarray, grid: Grid, k: int) -> float:
    """Outward normal derivative of the bulk field at loop node k
    (``normal_derivative_matrices``)."""
    phi = _check_bulk(phi, grid)
    psi = _check_loop(psi, grid)
    if not 0 <= k < grid.n_loop:
        raise IndexError(f"loop index {k} out of range")
    nd_phi, nd_psi = normal_derivative_matrices(grid)
    return float((nd_phi @ phi + nd_psi @ psi)[k])


def dirichlet_energy_bulk(phi: np.ndarray, psi: np.ndarray, grid: Grid) -> float:
    """Edge-based quadrature of (1/2) * integral of |grad phi|^2.

    Each grid edge contributes ((difference)/h)^2 * h^2; edges lying on
    the domain boundary carry transverse trapezoid weight 1/2, which makes
    the quadrature exact on fields linear in x and y.
    """
    full = to_full_grid(phi, psi, grid)
    dx = np.diff(full, axis=0)
    dy = np.diff(full, axis=1)
    wx = np.ones_like(dx)
    wx[:, 0] = wx[:, -1] = 0.5
    wy = np.ones_like(dy)
    wy[0, :] = wy[-1, :] = 0.5
    return 0.5 * (float((wx * dx * dx).sum()) + float((wy * dy * dy).sum()))


def dirichlet_energy_loop(psi: np.ndarray, grid: Grid) -> float:
    """Edge-based quadrature of (1/2) * integral over the loop of |grad psi|^2."""
    return 0.5 * grad_norm_sq_loop(psi, grid)


# ---- Laplacian matrices and cached Poisson factorizations -------------


@lru_cache(maxsize=8)
def neumann_laplacian_matrix(n: int) -> sp.csr_matrix:
    """Mirror-ghost Neumann 5-point Laplacian on the (n-1)^2 interior grid.

    Symmetric with zero row sums; the ghost value outside each side equals
    the first inside value, which realizes a homogeneous Neumann closure.
    It is the operator the scheme's bulk evolution rows apply to mu, and
    the one the bulk Poisson solver inverts.  The matrix is cached and
    shared: callers must not modify it.
    """
    m = n - 1
    h2 = (1.0 / n) ** 2
    e = np.ones(m)
    t = sp.diags([e[:-1], e[:-1]], offsets=[-1, 1], shape=(m, m), format="csr")
    deg1d = np.asarray(t.sum(axis=1)).ravel()
    l1d = t - sp.diags(deg1d)
    eye = sp.identity(m, format="csr")
    return ((sp.kron(l1d, eye) + sp.kron(eye, l1d)) / h2).tocsr()


@lru_cache(maxsize=8)
def loop_laplacian_matrix(n: int) -> sp.csr_matrix:
    """Periodic second-difference matrix on the 4n-node perimeter loop."""
    nl = 4 * n
    h2 = (1.0 / n) ** 2
    main = -2.0 * np.ones(nl)
    off = np.ones(nl - 1)
    lap = sp.diags([off, main, off], offsets=[-1, 0, 1], format="lil")
    lap[0, nl - 1] = 1.0
    lap[nl - 1, 0] = 1.0
    return (lap / h2).tocsr()


@lru_cache(maxsize=8)
def _pinned_factor(n: int, which: str):
    """LU factorization of the singular Laplacian with row 0 pinned.

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
    return spla.splu(pinned.tocsc(), permc_spec="MMD_AT_PLUS_A")


def _solve_zeromean(w: np.ndarray, lap: sp.csr_matrix, factor, tol: float) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if tol <= 0:
        raise ValueError("tol must be positive")
    w_free = w - w.mean()
    rhs = w_free.copy()
    rhs[0] = 0.0
    p = factor.solve(rhs)
    p -= p.mean()
    resid = float(np.abs(lap @ p - w_free).max())
    scale = max(1.0, float(np.abs(w_free).max()))
    if resid > tol * scale:
        raise PoissonSolveError(
            f"zero-mean Poisson solve residual {resid:.3e} exceeds tol {tol:.3e}"
        )
    return p


def solve_poisson_neumann_zeromean(w: np.ndarray, grid: Grid, tol: float = 1e-10) -> np.ndarray:
    """Solve lap(p) = w - mean(w) with the mirror-ghost Neumann Laplacian.

    The right-hand side is projected to zero mean (the operator's range)
    and the solution is returned with zero mean.
    """
    w = _check_bulk(w, grid)
    return _solve_zeromean(w, neumann_laplacian_matrix(grid.n), _pinned_factor(grid.n, "bulk"), tol)


def solve_poisson_loop_zeromean(w: np.ndarray, grid: Grid, tol: float = 1e-10) -> np.ndarray:
    """Solve the periodic loop Poisson problem on mean-free data."""
    w = _check_loop(w, grid)
    return _solve_zeromean(w, loop_laplacian_matrix(grid.n), _pinned_factor(grid.n, "loop"), tol)


def grad_norm_sq_interior(p: np.ndarray, grid: Grid) -> float:
    """Squared gradient norm of an interior-grid field over its own edges.

    Equals -h^2 * p^T L p for the mirror-ghost Neumann Laplacian L (ghost
    edges carry zero difference), so it pairs with the Poisson solve in a
    discrete summation-by-parts identity.
    """
    p = _check_bulk(p, grid)
    m = grid.n - 1
    arr = p.reshape(m, m)
    dx = np.diff(arr, axis=0)
    dy = np.diff(arr, axis=1)
    return float((dx * dx).sum()) + float((dy * dy).sum())


def grad_norm_sq_loop(q: np.ndarray, grid: Grid) -> float:
    """Squared gradient norm of a loop field over the closed chain.

    Equals -h * q^T L q for the periodic loop Laplacian L, pairing with
    the loop Poisson solve in a summation-by-parts identity.
    """
    q = _check_loop(q, grid)
    d = np.roll(q, -1) - q
    return float((d * d).sum()) / grid.h
