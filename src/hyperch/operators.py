"""Discrete differential operators and zero-mean Poisson solvers.

The stencils of the discretization, as slice stencils on numpy arrays.  H,
the Hessian of ``dirichlet_energy_bulk`` on [phi | psi], has -h^2 times the
5-point Laplacian as its interior rows (``apply_bulk_laplacian``) and h
times the variational normal derivative as its loop rows
(``normal_derivative``); the mirror-ghost Neumann Laplacian is the same
``_five_point`` stencil on the interior grid padded with its edge values.
Each stencil sums neighbors less a multiple of the center, so a constant
gives zeros.  They commute with the square's symmetries, so the D4 basis
``mirror_basis`` splits them into one block per sector; the Dirichlet
Laplacian is diagonal in the sine basis (``dirichlet_modes``).  The Poisson
solvers, each a division in a known basis, are the reference the tests
hold a run's kinetic terms to; runs never call them.  The matrix builders,
for the tests, import scipy themselves, so a run never loads it.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

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


def _vertex_values(phi: np.ndarray, psi: np.ndarray, loop_flat: np.ndarray, out: np.ndarray
                   ) -> np.ndarray:
    """Write phi into the interior of the (n+1, n+1) vertex array ``out``
    and psi at the loop's flat indices ``loop_flat`` (``_loop_flat``)."""
    n = out.shape[0] - 1
    out[1:n, 1:n] = phi.reshape(n - 1, n - 1)
    np.put(out, loop_flat, psi)
    return out


def _loop_flat(grid: Grid) -> np.ndarray:
    """Flat (n+1)^2 vertex-array index of each loop node, at ``grid.loop_ij``."""
    return grid.loop_ij @ np.array([grid.n + 1, 1])


def to_full_grid(phi: np.ndarray, psi: np.ndarray, grid: Grid) -> np.ndarray:
    """Assemble the (n+1)x(n+1) vertex array, boundary values from psi.

    Axis 0 is the x index i, axis 1 the y index j.
    """
    return _vertex_values(_check_bulk(phi, grid), _check_loop(psi, grid), _loop_flat(grid),
                          np.empty((grid.n + 1, grid.n + 1)))


def trapezoid_weights(n: int) -> np.ndarray:
    """Trapezoid weights (1/2, 1, ..., 1, 1/2) of the n+1 vertices of a
    side; every vertex-grid quadrature derives from them."""
    w = np.ones(n + 1)
    w[0] = w[-1] = 0.5
    return w


def _five_point(full: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The four neighbors' sum less four times the center at the interior
    nodes of the square padded array ``full`` (w x w), unscaled: -H y on
    the vertex array.  Each pass is contiguous, over the flattened rows,
    into ``out`` (w (w - 2) long); returns the interior's view in it."""
    w = full.shape[0]
    out = np.empty(w * (w - 2)) if out is None else out
    f, size = full.ravel(), w * (w - 2) - 2  # the span from node (1, 1) to (w-2, w-2)
    o = out[:size]
    np.multiply(f[w + 1 : w + 1 + size], -4.0, out=o)
    o += f[1 : 1 + size]
    o += f[2 * w + 1 : 2 * w + 1 + size]
    o += f[w : w + size]
    o += f[w + 2 : w + 2 + size]
    return out.reshape(w - 2, w)[:, : w - 2]


# weights on ``loop_stencil_index``'s columns of h^2 l_loop psi and h d_n y:
# every loop row here and in the scheme's R is built from them
_LOOP_TANGENTIAL, _LOOP_NORMAL = np.array([1.0, 1.0, -2.0, 0.0]), np.array([-0.5, -0.5, 2.0, -1.0])


def loop_stencil_index(grid: Grid) -> np.ndarray:
    """(4n, 4) flat indices in the (n+1)^2 vertex array of each loop node's
    previous and next node, itself and its inward neighbor; a corner has
    none and gets its own index, so its normal difference is zero."""
    n, ij, flat = grid.n, grid.loop_ij, _loop_flat(grid)
    corner = (np.arange(grid.n_loop) % n == 0)[:, None]
    inward = np.where(corner, ij, np.clip(ij, 1, n - 1)) @ np.array([n + 1, 1])
    return np.stack([np.roll(flat, 1), np.roll(flat, -1), flat, inward], axis=1)


def _vertex_index(grid: Grid) -> np.ndarray:
    """Flat (n+1)^2 vertex-grid indices, row-major in (i, j), in the order
    of [phi | psi]: interior vertices, then the loop (``grid.loop_ij``)."""
    n1, inner = grid.n + 1, np.arange(1, grid.n)
    order = np.concatenate([(inner[:, None] * n1 + inner).ravel(), _loop_flat(grid)])
    return order.astype(np.int32)  # halves the index arrays built on it


def dirichlet_modes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(sigma, lam): the orthonormal DST-I matrix of the n - 1 interior
    nodes of a side, sigma[a, k] = sqrt(2/n) sin(pi (a+1)(k+1) / n), which
    is symmetric and its own inverse, and the eigenvalues lam[k] =
    -4 sin^2(pi (k+1) / 2n) / h^2 of the second difference with zero values
    beyond both ends.  The Dirichlet 5-point Laplacian on the interior grid
    (``apply_bulk_laplacian`` with psi = 0) is (sigma x sigma) diag(lam_k +
    lam_l) (sigma x sigma).  Row m - 1 - a of sigma is (-1)^k times row a,
    so mode k is even under the mirror of its axis if k is even."""
    k, h = np.arange(1, n), 1.0 / n
    # sin(pi j / n) with j reduced mod 2n, so the argument stays below 2 pi
    sigma = np.sqrt(2.0 / n) * np.sin(np.pi / n * (np.outer(k, k) % (2 * n)))
    return sigma, -4.0 * np.sin(0.5 * np.pi / n * k) ** 2 / (h * h)


def mirror_basis(grid: Grid, nodes: np.ndarray) -> tuple[np.ndarray, ...]:
    """(cols, vals, sector, vertex): the orthonormal basis Q of the fields on
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
    gives Q = Q^T.  A row of Q has at most one entry per sector: row m's
    entry in sector s is vals[m, s] in column cols[m, s], both (N, 6), or
    vals[m, s] = cols[m, s] = 0.  cols is of numpy's index type, which
    gathers take without a cast; sector and vertex are int32."""
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
    cols = col[at][np.stack([a * (n + 1) + b for a, b in owner], axis=1)].astype(np.intp)
    mix = np.where(ri == rj, 1.0, np.sqrt(0.5))
    odd, sign = np.where(ri > rj, mix, -mix), 1 - 2 * (hx ^ hy)
    vals = np.stack([mix, odd, sign * mix, sign * odd, 2 * hy - 1, 2 * hx - 1], axis=1)
    vals /= np.sqrt((1 + ox) * (1 + oy))[:, None]
    pair = ri != rj
    valid = np.stack([np.ones_like(pair), pair, ox & oy, ox & oy & pair, oy, ox], axis=1)
    sector = np.repeat(np.arange(6, dtype=np.int32), np.bincount(own, minlength=6))
    return np.where(valid, cols, 0), np.where(valid, vals, 0.0), sector, vertex.astype(np.int32)


def basis_apply(cols: np.ndarray, vals: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Q y for Q held as ``mirror_basis``'s padded arrays: a gather."""
    return np.einsum("ij,ij->i", vals, y[cols])


def basis_apply_t(cols: np.ndarray, vals: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Q^T x for Q held as ``mirror_basis``'s padded arrays: a scatter."""
    return np.bincount(cols.ravel(), (vals * x[:, None]).ravel(), minlength=x.size)


def apply_bulk_laplacian(phi: np.ndarray, psi: np.ndarray, grid: Grid) -> np.ndarray:
    """5-point Laplacian of the bulk field at every interior vertex, trace
    values from the loop field: -H y / h^2 on the interior rows."""
    return (_five_point(to_full_grid(phi, psi, grid)) * float(grid.n * grid.n)).ravel()


def apply_loop_laplacian(psi: np.ndarray, grid: Grid) -> np.ndarray:
    """Periodic Laplace-Beltrami operator on the perimeter loop."""
    psi = _check_loop(psi, grid)
    return (np.roll(psi, 1) + np.roll(psi, -1) - 2.0 * psi) * float(grid.n * grid.n)


def normal_derivative(phi: np.ndarray, psi: np.ndarray, grid: Grid) -> np.ndarray:
    """Variational outward normal derivative at every loop node, H y / h
    on the loop rows: (psi_k - phi_in)/h - h/2 times the tangential second
    difference at an edge node, (2 psi_c - psi_a - psi_b)/(2h) at a corner
    (the mean of its two sides).  Exact on affine fields."""
    near = to_full_grid(phi, psi, grid).ravel()[loop_stencil_index(grid)]
    return near @ (grid.n * _LOOP_NORMAL)


def dirichlet_energy_bulk(phi: np.ndarray, psi: np.ndarray, grid: Grid) -> float:
    """Edge-based quadrature of (1/2) * integral of |grad phi|^2.

    Each grid edge contributes ((difference)/h)^2 * h^2; edges lying on
    the domain boundary carry transverse trapezoid weight 1/2, which makes
    the quadrature exact on fields linear in x and y.
    """
    full = to_full_grid(phi, psi, grid)
    wx, wy = _edge_weights(grid.n)
    dx = full[1:] - full[:-1]  # squared in place, and freed before dy
    ex = float(np.vdot(wx, np.square(dx, out=dx)))
    del dx
    dy = full[:, 1:] - full[:, :-1]
    return 0.5 * (ex + float(np.vdot(wy, np.square(dy, out=dy))))


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


def neumann_laplacian_matrix(n: int) -> "scipy.sparse.csr_matrix":
    """Mirror-ghost Neumann 5-point Laplacian on the (n-1)^2 interior grid,
    a scipy sparse matrix.

    Symmetric with zero row sums; the ghost value outside each side equals
    the first inside value, which realizes a homogeneous Neumann closure:
    -(kron(a, I) + kron(I, a)) / h^2 in row-major order, with a the
    free-end second difference (tridiag(-1, 2, -1) with 1 in both end
    entries).  It is the operator the scheme's bulk evolution rows apply
    to mu, and the one the bulk Poisson solver inverts.
    """
    import scipy.sparse as sp

    m = n - 1
    d = sp.diags([-1.0, 1.0], [0, 1], shape=(m - 1, m))  # the forward difference
    a, eye = d.T @ d, sp.identity(m)
    return (-float(n * n) * (sp.kron(a, eye) + sp.kron(eye, a))).tocsr()


def loop_laplacian_matrix(n: int) -> "scipy.sparse.csr_matrix":
    """Periodic second-difference matrix on the 4n-node perimeter loop, a
    scipy sparse matrix; the offsets +-(4n - 1) close the chain."""
    import scipy.sparse as sp

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
    lap_p = _five_point(np.pad(p, 1, mode="edge"))  # each ghost its inside neighbor
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
