"""Naive dense assembly of the coupled step system.

Written node by node with explicit neighbor arithmetic, independent of
the package's sparse assembly, to serve as an oracle for it.  The oracle
keeps mu unknowns at the non-corner edge nodes (mu_edge) with explicit
mirror closure rows (b') mu_edge = mu_1.  Its unknowns are ordered
[phi | mu_int | mu_edge | psi | mu_loop] (``offsets``);
``eliminate_mu_edge`` reduces it to the package's stacked unknowns
[phi | psi | mu_int | mu_loop], rows and columns alike.  ``coupled_matrix``
places the package's blocks in that coupled form, which the package never
assembles itself, and ``schur_matrix`` their Schur complement K + L R,
which the package forms only row by row inside its factor;
``gathered_blocks`` gathers the factored blocks from it in one pass.
"""

import numpy as np
import scipy.sparse as sp


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


def coupled_matrix(system):
    """The coupled operator [[diag(k), -lap], [rows, I]] on [y | mu],
    assembled from the blocks a ``SparseSystem`` holds."""
    eye = sp.identity(system.k.size)
    return sp.bmat([[sp.diags(system.k), -system.lap], [system.rows, eye]], format="csr")


def schur_matrix(system):
    """The Schur complement diag(k) + lap @ rows on [y], in canonical CSR,
    assembled from the blocks a ``SparseSystem`` holds."""
    schur = (sp.diags(system.k) + system.lap @ system.rows).tocsr()
    schur.sort_indices()
    return schur


def gathered_blocks(system):
    """[A, B] gathered in one pass from the rows of the sorted
    ``schur_matrix``, as the package did while it held K + L R whole: row
    t is (S Q)[p, columns of t's sector] / Q[p, t] with p = vertex[t];
    duplicates summed in the sorted order, zeros dropped."""
    schur, q, sector = schur_matrix(system), system.basis, system.sector
    dim = q.shape[0]
    na, m = np.searchsorted(sector, [4, 5])
    slot = sector[q.indices] * dim + np.repeat(np.arange(dim), np.diff(q.indptr))
    col, val = np.zeros(6 * dim, dtype=q.indices.dtype), np.zeros(6 * dim)
    col[slot], val[slot] = q.indices, q.data
    p = system.vertex[:m]
    rows = schur[p]
    t = np.repeat(np.arange(m), np.diff(rows.indptr))
    at = sector[t] * dim + rows.indices
    data = rows.data * val[at] / val[sector[:m] * dim + p][t]
    g = sp.csr_matrix((data, col[at], rows.indptr), (m, m))
    g.sum_duplicates()
    g.eliminate_zeros()
    k = g.indptr[na]
    a = sp.csr_matrix((g.data[:k], g.indices[:k], g.indptr[: na + 1]), (na, na))
    b = sp.csr_matrix((g.data[k:], g.indices[k:] - na, g.indptr[na:] - k), (m - na,) * 2)
    return [a, b]
