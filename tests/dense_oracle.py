"""Naive dense assembly of the coupled step system.

Written node by node with explicit neighbor arithmetic, independent of
the package's sparse assembly, to serve as an oracle for it.  The oracle
keeps mu unknowns at the non-corner edge nodes (mu_edge) with explicit
mirror closure rows (b') mu_edge = mu_1.  Its unknowns are ordered
[phi | mu_int | mu_edge | psi | mu_loop] (``offsets``);
``eliminate_mu_edge`` reduces it to the package's stacked unknowns
[phi | psi | mu_int | mu_loop], rows and columns alike.
"""

import numpy as np


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


def _triples(grid, k):
    n = grid.n
    i, j = (int(v) for v in grid.loop_ij[k])
    if k % n != 0:
        if j == 0:
            return [((i, 0), (i, 1), (i, 2))]
        if i == n:
            return [((n, j), (n - 1, j), (n - 2, j))]
        if j == n:
            return [((i, n), (i, n - 1), (i, n - 2))]
        return [((0, j), (1, j), (2, j))]
    if (i, j) == (0, 0):
        return [((0, 0), (1, 0), (2, 0)), ((0, 0), (0, 1), (0, 2))]
    if (i, j) == (n, 0):
        return [((n, 0), (n - 1, 0), (n - 2, 0)), ((n, 0), (n, 1), (n, 2))]
    if (i, j) == (n, n):
        return [((n, n), (n - 1, n), (n - 2, n)), ((n, n), (n, n - 1), (n, n - 2))]
    return [((0, n), (1, n), (2, n)), ((0, n), (0, n - 1), (0, n - 2))]


def dense_matrix(grid, params):
    n, h = grid.n, grid.h
    off = offsets(grid)
    ni, nl = grid.n_int, grid.n_loop
    a = np.zeros((off["dim"], off["dim"]))
    k1 = (params.beta1 / params.tau + 1.0) / params.tau
    k2 = (params.beta2 / params.tau + 1.0) / params.tau
    inv_h2 = 1.0 / (h * h)
    inv_2h = 1.0 / (2.0 * h)

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
        ((b, v1, _),) = _triples(grid, k)
        a[r, _mu_col(grid, off, *b)] += 1.0
        a[r, _mu_col(grid, off, *v1)] += -1.0

    # (c) loop evolution rows
    for k in range(nl):
        r = off["psi"] + k
        a[r, off["psi"] + k] += k2
        a[r, off["mu_loop"] + k] += 2.0 * params.M2 * inv_h2
        a[r, off["mu_loop"] + (k + 1) % nl] -= params.M2 * inv_h2
        a[r, off["mu_loop"] + (k - 1) % nl] -= params.M2 * inv_h2

    # (d) loop chemical potential rows
    for k in range(nl):
        r = off["mu_loop"] + k
        a[r, off["mu_loop"] + k] += 1.0
        a[r, off["psi"] + k] += -2.0 * inv_h2 - params.s2
        a[r, off["psi"] + (k + 1) % nl] += inv_h2
        a[r, off["psi"] + (k - 1) % nl] += inv_h2
        trips = _triples(grid, k)
        w = 1.0 / len(trips)
        for (b, v1, v2) in trips:
            a[r, _phi_col(grid, off, *b)] -= w * 3.0 * inv_2h
            a[r, _phi_col(grid, off, *v1)] -= w * (-4.0) * inv_2h
            a[r, _phi_col(grid, off, *v2)] -= w * 1.0 * inv_2h
    return a


def dense_rhs(grid, params, phi, psi, Phi, Psi):
    off = offsets(grid)
    tau = params.tau
    k1 = (params.beta1 / tau + 1.0) / tau
    k2 = (params.beta2 / tau + 1.0) / tau
    b = np.zeros(off["dim"])
    f = (phi**3 - phi) / params.eps**2
    g = (psi**3 - psi) / params.delta**2
    b[: grid.n_int] = k1 * phi + (params.beta1 / tau) * Phi
    b[grid.n_int : 2 * grid.n_int] = f - params.s1 * phi
    b[off["psi"] : off["psi"] + grid.n_loop] = k2 * psi + (params.beta2 / tau) * Psi
    b[off["mu_loop"] :] = g - params.s2 * psi
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
