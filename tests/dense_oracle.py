"""Naive dense assembly of the coupled step system.

Written node by node with explicit neighbor arithmetic, independent of
the package's sparse assembly, to serve as an oracle for it.  The oracle
keeps mu unknowns at the non-corner edge nodes (mu_edge) with explicit
mirror closure rows (b') mu_edge = mu_1.  Its unknowns are ordered
[phi | mu_int | mu_edge | psi | mu_loop] (``offsets``);
``eliminate_mu_edge`` reduces it to the package's stacked unknowns
[phi | psi | mu_int | mu_loop], rows and columns alike.  The package
applies its blocks as stencils and never forms a matrix of the fields:
``probe`` reads a product's matrix off its columns (``probed_hessian``,
``probed_blocks``), and ``coupled_matrix`` places the probed blocks in
the coupled form.  ``reference_hessian``,
``reference_neumann_stencil``, ``reference_loop_stencil`` and
``reference_blocks`` are sparse formulas for the same stencils and for
the blocks L and R: Kronecker products permuted by fancy indexing,
scipy's block_diag and vstack.  ``schur_matrix`` is their Schur
complement K + L R, and ``capacitance_matrix`` the bordered boundary
system the package factors, from dense inverses.  ``basis_matrix``
expands the padded arrays of the package's D4 basis into a sparse matrix.
"""

import numpy as np
import scipy.sparse as sp

from hyperch.model import loop_well_weights
from hyperch.operators import (
    apply_bulk_laplacian,
    loop_laplacian_matrix,
    normal_derivative,
    trapezoid_weights,
)


def offsets(grid):
    ni, ne, nl = grid.n_int, 4 * (grid.n - 1), grid.n_loop
    return {
        "phi": 0,
        "mu_int": ni,
        "mu_edge": 2 * ni,
        "psi": 2 * ni + ne,
        "mu_loop": 2 * ni + ne + nl,
        "dim": 2 * ni + ne + 2 * nl,
    }


def _edge_slot(grid, k):
    """Index of loop node k among the non-corner loop nodes, None at corners."""
    if k % grid.n == 0:
        return None
    return k - k // grid.n - 1


def _mu_col(grid, off, i, j):
    if grid.is_interior(i, j):
        return off["mu_int"] + grid.interior_index(i, j)
    slot = _edge_slot(grid, grid.loop_index(i, j))
    assert slot is not None, "mu has no corner unknowns"
    return off["mu_edge"] + slot


def _phi_col(grid, off, i, j):
    if grid.is_interior(i, j):
        return off["phi"] + grid.interior_index(i, j)
    return off["psi"] + grid.loop_index(i, j)


def _inward(grid, k):
    """Vertex one step along the inward normal from edge node k."""
    n = grid.n
    i, j = (int(v) for v in grid.loop_ij[k])
    if j == 0:
        return i, 1
    if i == n:
        return n - 1, j
    if j == n:
        return i, n - 1
    return 1, j


def _neighbors(grid, i, j):
    """Grid neighbors (p, q) of vertex (i, j) with the transverse
    trapezoid weight of the edge to each: 1/2 along the boundary, else 1."""
    n = grid.n
    for p, q in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
        if 0 <= p <= n and 0 <= q <= n:
            along = (p == i and i in (0, n)) or (q == j and j in (0, n))
            yield p, q, 0.5 if along else 1.0


def _well_weight(grid, k):
    """Trapezoid weight of loop node k: 1/4 at a corner, 1/2 on an edge."""
    return 0.25 if k % grid.n == 0 else 0.5


def dense_matrix(grid, params):
    n, h = grid.n, grid.h
    off = offsets(grid)
    ni, nl = grid.n_int, grid.n_loop
    a = np.zeros((off["dim"], off["dim"]))
    k1 = (params.beta1 / params.tau + 1.0) / params.tau
    k2 = (params.beta2 / params.tau + 1.0) / params.tau
    inv_h2 = 1.0 / (h * h)

    # (a) interior bulk evolution rows
    for i in range(1, n):
        for j in range(1, n):
            r = grid.interior_index(i, j)
            a[r, off["phi"] + r] += k1
            a[r, _mu_col(grid, off, i, j)] += 4.0 * params.M1 * inv_h2
            for p, q in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
                a[r, _mu_col(grid, off, p, q)] -= params.M1 * inv_h2

    # (b) interior chemical potential rows
    for i in range(1, n):
        for j in range(1, n):
            r = ni + grid.interior_index(i, j)
            a[r, off["mu_int"] + grid.interior_index(i, j)] += 1.0
            a[r, off["phi"] + grid.interior_index(i, j)] += -4.0 * inv_h2 - params.s1
            for p, q in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
                a[r, _phi_col(grid, off, p, q)] += inv_h2

    # (b') mirror Neumann closure rows mu_edge - mu_1 = 0 at edge nodes
    for k in range(nl):
        slot = _edge_slot(grid, k)
        if slot is None:
            continue
        r = off["mu_edge"] + slot
        a[r, _mu_col(grid, off, *grid.loop_ij[k])] += 1.0
        a[r, _mu_col(grid, off, *_inward(grid, k))] += -1.0

    # (c) loop evolution rows
    for k in range(nl):
        r = off["psi"] + k
        a[r, off["psi"] + k] += k2
        a[r, off["mu_loop"] + k] += 2.0 * params.M2 * inv_h2
        a[r, off["mu_loop"] + (k + 1) % nl] -= params.M2 * inv_h2
        a[r, off["mu_loop"] + (k - 1) % nl] -= params.M2 * inv_h2

    # (d) loop chemical potential rows: (1/h) d/d psi_k of the bulk
    # Dirichlet energy, summed edge by edge over the node's grid edges,
    # plus the loop Laplacian and the stabilizers of both wells
    for k in range(nl):
        r = off["mu_loop"] + k
        i, j = (int(v) for v in grid.loop_ij[k])
        a[r, off["mu_loop"] + k] += 1.0
        a[r, off["psi"] + k] += -2.0 * inv_h2 - params.s2 - params.s1 * h * _well_weight(grid, k)
        a[r, off["psi"] + (k + 1) % nl] += inv_h2
        a[r, off["psi"] + (k - 1) % nl] += inv_h2
        for p, q, w in _neighbors(grid, i, j):
            a[r, off["psi"] + k] -= w / h
            a[r, _phi_col(grid, off, p, q)] += w / h
    return a


def dense_rhs(grid, params, phi, psi, Phi, Psi):
    off = offsets(grid)
    h = grid.h
    tau = params.tau
    k1 = (params.beta1 / tau + 1.0) / tau
    k2 = (params.beta2 / tau + 1.0) / tau
    b = np.zeros(off["dim"])
    f = (phi**3 - phi) / params.eps**2
    g = (psi**3 - psi) / params.delta**2
    b[: grid.n_int] = k1 * phi + (params.beta1 / tau) * Phi
    b[grid.n_int : 2 * grid.n_int] = f - params.s1 * phi
    b[off["psi"] : off["psi"] + grid.n_loop] = k2 * psi + (params.beta2 / tau) * Psi
    well = np.array([h * _well_weight(grid, k) for k in range(grid.n_loop)])
    f_loop = (psi**3 - psi) / params.eps**2
    b[off["mu_loop"] :] = g - params.s2 * psi + well * (f_loop - params.s1 * psi)
    return b


def eliminate_mu_edge(grid, a, b=None):
    """Reduce the oracle system to the unknowns [phi | psi | mu_int | mu_loop].

    The closure rows' diagonal block is the identity, so eliminating
    mu_edge is exact: the reduced matrix is a_kk - a_ke a_ek and the
    reduced right-hand side b_k - a_ke b_e (b defaults to zero), with the
    kept rows and columns k in the package's order.  Returns (matrix, rhs).
    """
    off = offsets(grid)
    edge = np.arange(off["mu_edge"], off["psi"])
    keep = np.r_[
        off["phi"] : off["mu_int"],
        off["psi"] : off["mu_loop"],
        off["mu_int"] : off["mu_edge"],
        off["mu_loop"] : off["dim"],
    ]
    assert np.array_equal(a[np.ix_(edge, edge)], np.eye(edge.size))
    b = np.zeros(off["dim"]) if b is None else b
    a_ke = a[np.ix_(keep, edge)]
    return a[np.ix_(keep, keep)] - a_ke @ a[np.ix_(edge, keep)], b[keep] - a_ke @ b[edge]


def probe(apply, size):
    """The dense matrix of the linear map ``apply`` on vectors of length
    ``size``, column by column."""
    return np.column_stack([apply(col) for col in np.eye(size)])


def probed_hessian(grid):
    """H, the Hessian of the bulk Dirichlet energy on [phi | psi], dense,
    read off the package's stencils: -h^2 apply_bulk_laplacian on the
    interior rows and h normal_derivative on the loop rows (both divisions
    below are exact)."""
    n, ni = grid.n, grid.n_int
    return probe(lambda y: np.concatenate([
        -apply_bulk_laplacian(y[:ni], y[ni:], grid) / float(n * n),
        normal_derivative(y[:ni], y[ni:], grid) / float(n)]), ni + grid.n_loop)


def probed_blocks(system):
    """(L, R), dense, read off the products ``system.apply_lap`` and
    ``system.apply_rows`` on [y | mu]'s halves."""
    ni = system.sigma.shape[0] ** 2
    return tuple(probe(lambda v: f(v[:ni], v[ni:]), system.k.size)
                 for f in (system.apply_lap, system.apply_rows))


def coupled_matrix(system):
    """The coupled operator [[diag(k), -L], [R, I]] on [y | mu], dense,
    from the blocks a ``SparseSystem`` applies."""
    lap, rows = probed_blocks(system)
    return np.block([[np.diag(system.k), -lap], [rows, np.eye(system.k.size)]])


def schur_matrix(grid, params):
    """The Schur complement diag(k) + L R on [y], in canonical CSR, from
    the reference blocks."""
    lap, rows = reference_blocks(grid, params)
    tau = params.tau
    k1 = (params.beta1 / tau + 1.0) / tau
    k2 = (params.beta2 / tau + 1.0) / tau
    k = np.r_[np.full(grid.n_int, k1), np.full(grid.n_loop, k2)]
    schur = (sp.diags(k) + lap @ rows).tocsr()
    schur.sort_indices()
    return schur


def basis_matrix(cols, vals):
    """Q as a CSR matrix from ``operators.mirror_basis``'s padded arrays."""
    valid = vals != 0.0
    indptr = np.r_[0, valid.sum(axis=1).cumsum()]
    return sp.csr_matrix((vals[valid], cols[valid], indptr), (cols.shape[0],) * 2)


def _free_end_second_difference(m):
    """D^T D for the forward difference D along a chain of m nodes:
    tridiag(-1, 2, -1) with 1 in both end entries."""
    d = sp.diags([-1.0, 1.0], [0, 1], shape=(m - 1, m))
    return (d.T @ d).tocsr()


def _kron_sum(a, t):
    """kron(a, t) + kron(t, a) on a square grid; x index i is slow."""
    return (sp.kron(a, t) + sp.kron(t, a)).tocsr()


def reference_hessian(grid):
    """kron(a, T) + kron(T, a) on the (n+1)^2 vertex grid, T the trapezoid
    weights, restricted to [phi | psi] order by fancy indexing; sorted."""
    n1, inner = grid.n + 1, np.arange(1, grid.n)
    order = np.concatenate([(inner[:, None] * n1 + inner).ravel(), grid.loop_ij @ [n1, 1]])
    hess = _kron_sum(_free_end_second_difference(n1), sp.diags(trapezoid_weights(grid.n)))
    hess = hess[order][:, order]
    hess.sort_indices()
    return hess


def reference_neumann_stencil(n):
    """kron(a, I) + kron(I, a) on the (n-1)^2 interior grid, unscaled."""
    return _kron_sum(_free_end_second_difference(n - 1), sp.identity(n - 1))


def reference_neumann_laplacian(n):
    """-(kron(a, I) + kron(I, a)) / h^2 on the (n-1)^2 interior grid."""
    return -reference_neumann_stencil(n) / (1.0 / n) ** 2


def reference_loop_stencil(n):
    """The periodic second difference on the 4n-node loop, unscaled."""
    nl = 4 * n
    return sp.diags([1.0, 1.0, -2.0, 1.0, 1.0], [1 - nl, -1, 0, 1, nl - 1], shape=(nl, nl)).tocsr()


def reference_blocks(grid, params):
    """(lap, rows) of ``assemble_system`` from scipy's block_diag and vstack:
    lap = blockdiag(M1 l_mu, M2 l_loop) and
    rows = -[H_int / h^2 ; H_loop / h] - blockdiag(s1 I, diag(s2 + s1 h w) - l_loop)."""
    h, ni = grid.h, grid.n_int
    hess, l_loop = reference_hessian(grid), loop_laplacian_matrix(grid.n)
    lap = sp.block_diag(
        [params.M1 * reference_neumann_laplacian(grid.n), params.M2 * l_loop], format="csr"
    )
    loop_diag = sp.diags(params.s2 + params.s1 * loop_well_weights(grid.n))
    rows = (
        -sp.vstack([hess[:ni] / (h * h), hess[ni:] / h])
        - sp.block_diag([params.s1 * sp.identity(ni, format="csr"), loop_diag - l_loop])
    ).tocsr()
    return lap, rows


def capacitance_matrix(grid, params, ring):
    """The bordered capacitance matrix C on [F | loop] (F = ``ring``, the
    first interior layer as ``SparseSystem.ring`` lists it)
    from the dense Schur complement S and the reference Laplacians: with
    L_D = -H_int,int / h^2 the Dirichlet and l_mu the Neumann Laplacian,
    U = M1 (l_mu - L_D)[:, F], V^T = (L_D - s1 I)[F, :] and P = S_pp - U V^T,

        C = [[I + V^T P^-1 U,    V^T P^-1 S_p,psi],
             [-S_psi,p P^-1 U,   S_psi,psi - S_psi,p P^-1 S_p,psi]],

    with P inverted densely.  Also returns P."""
    s = schur_matrix(grid, params).toarray()
    ni = grid.n_int
    l_d = -reference_hessian(grid)[:ni, :ni].toarray() / (grid.h * grid.h)
    u = params.M1 * (reference_neumann_laplacian(grid.n).toarray() - l_d)[:, ring]
    vt = (l_d - params.s1 * np.eye(ni))[ring]
    p = s[:ni, :ni] - u @ vt
    p_inv = np.linalg.inv(p)
    s_pq, s_qp = s[:ni, ni:], s[ni:, :ni]
    c = np.block([
        [np.eye(ring.size) + vt @ p_inv @ u, vt @ p_inv @ s_pq],
        [-s_qp @ p_inv @ u, s[ni:, ni:] - s_qp @ p_inv @ s_pq],
    ])
    return c, p
