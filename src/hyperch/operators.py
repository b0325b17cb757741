"""Discrete differential operators and zero-mean Poisson solvers.

This module owns the stencils of the discretization.  The bulk 5-point
Laplacian, the one-sided outward normal derivative, the mirror-ghost
Neumann Laplacian and the periodic loop Laplacian are built here as
sparse matrices; ``scheme.assemble_system`` assembles the step system
from them, and ``apply_bulk_laplacian``, ``normal_derivative`` and
``apply_loop_laplacian`` are products with the same matrices, returning
the vector at every node they cover.  The square-grid stencils are one
construction: a 1-D operator a lifted to a square grid as
kron(a, I) + kron(I, a).  The Neumann Laplacian lives on the interior
grid; the bulk Laplacian and the normal derivative live on the (n+1)^2
vertex grid, keep its interior and loop rows respectively, and take
their columns in the stacked field order [phi | psi] through
``Grid.loop_ij``, the map ``to_full_grid`` fills.  The
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


def _kron_sum(a: sp.spmatrix) -> sp.csr_matrix:
    """The 1-D operator a applied along both axes of a square grid,
    kron(a, I) + kron(I, a), with the x index i as the slow axis."""
    eye = sp.identity(a.shape[0], format="csr")
    return (sp.kron(a, eye) + sp.kron(eye, a)).tocsr()


def _vertex_index(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Flat (n+1)^2 vertex-grid indices, row-major in (i, j), of the
    interior vertices in flat interior order and of the loop vertices in
    loop order (``grid.loop_ij``, the map ``to_full_grid`` fills)."""
    n1 = grid.n + 1
    inner = np.arange(1, grid.n)
    return (inner[:, None] * n1 + inner).ravel(), grid.loop_ij[:, 0] * n1 + grid.loop_ij[:, 1]


def _field_columns(op: sp.csr_matrix, grid: Grid) -> sp.csr_matrix:
    """An operator on the vertex grid with its columns in [phi | psi]
    order, interior vertices then loop vertices, indices sorted."""
    op = op[:, np.concatenate(_vertex_index(grid))]
    op.sort_indices()
    return op


def bulk_laplacian_matrix(grid: Grid) -> sp.csr_matrix:
    """5-point Laplacian of the bulk field at every interior vertex.

    Acts on [phi | psi]: the trace values read from the loop field.
    Built as the second difference along both axes of the vertex grid,
    restricted to interior rows; no row touches a corner loop node.
    """
    d2 = sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(grid.n + 1, grid.n + 1))
    interior, _ = _vertex_index(grid)
    return _field_columns(_kron_sum(d2)[interior] / (grid.h * grid.h), grid)


def normal_derivative_matrix(grid: Grid) -> sp.csr_matrix:
    """Outward normal derivative of the bulk field at every loop node.

    Acts on [phi | psi].  The 1-D operator holds the one-sided
    second-order row (3 v0 - 4 v1 + v2)/(2h) at both ends, counted from
    the end inwards, and zero rows between; lifted to the vertex grid it
    gives an edge node its one normal stencil and a corner the sum of its
    two edge stencils, which the corner rows weight by 1/2 to average.
    """
    n = grid.n
    inv2h = 1.0 / (2.0 * grid.h)
    coef = np.array([3.0, -4.0, 1.0]) * inv2h
    a = sp.csr_matrix(
        (np.tile(coef, 2), ([0, 0, 0, n, n, n], [0, 1, 2, n, n - 1, n - 2])),
        shape=(n + 1, n + 1),
    )
    _, loop = _vertex_index(grid)
    corner_w = np.where(grid.is_corner_k(np.arange(grid.n_loop)), 0.5, 1.0)
    return _field_columns(sp.diags(corner_w) @ _kron_sum(a)[loop], grid)


def _fields(phi: np.ndarray, psi: np.ndarray, grid: Grid) -> np.ndarray:
    return np.concatenate([_check_bulk(phi, grid), _check_loop(psi, grid)])


def apply_bulk_laplacian(phi: np.ndarray, psi: np.ndarray, grid: Grid) -> np.ndarray:
    """5-point Laplacian of the bulk field at every interior vertex."""
    return bulk_laplacian_matrix(grid) @ _fields(phi, psi, grid)


def apply_loop_laplacian(psi: np.ndarray, grid: Grid) -> np.ndarray:
    """Periodic Laplace-Beltrami operator on the perimeter loop."""
    return loop_laplacian_matrix(grid.n) @ _check_loop(psi, grid)


def normal_derivative(phi: np.ndarray, psi: np.ndarray, grid: Grid) -> np.ndarray:
    """Outward normal derivative of the bulk field at every loop node, in
    loop order (``normal_derivative_matrix``)."""
    return normal_derivative_matrix(grid) @ _fields(phi, psi, grid)


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
    Cached and shared, so read-only."""
    wx = np.ones((n, n + 1))
    wx[:, 0] = wx[:, -1] = 0.5
    wy = np.ascontiguousarray(wx.T)
    for w in (wx, wy):
        w.setflags(write=False)
    return wx, wy


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
    return _kron_sum(t - sp.diags(deg1d)) / h2


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
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
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
