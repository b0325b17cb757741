import numpy as np
import pytest

from hyperch import build_grid
from hyperch.operators import dirichlet_hessian


def test_counting_n4():
    g = build_grid(4)
    assert g.n_int == 9
    assert g.n_loop == 16
    assert g.h == 0.25


def test_counting_n100():
    g = build_grid(100)
    assert g.n_int == 9801
    assert g.n_loop == 400
    assert g.h == 0.01


def test_rejects_small_n():
    with pytest.raises(ValueError):
        build_grid(3)
    with pytest.raises(TypeError):
        build_grid(4.0)


@pytest.mark.parametrize("n", [4, 5, 10, 17])
def test_interior_map_bijective(n):
    g = build_grid(n)
    seen = set()
    for i in range(1, n):
        for j in range(1, n):
            idx = g.interior_index(i, j)
            assert g.interior_ij(idx) == (i, j)
            seen.add(idx)
    assert seen == set(range(g.n_int))


@pytest.mark.parametrize("n", [4, 5, 10, 17])
def test_loop_map_bijective(n):
    g = build_grid(n)
    ks = set()
    for k in range(g.n_loop):
        i, j = g.loop_ij[k]
        assert g.loop_index(int(i), int(j)) == k
        ks.add(k)
    assert ks == set(range(4 * n))


@pytest.mark.parametrize("n", [4, 5, 10])
def test_index_maps_reject_other_vertices(n):
    # loop_index takes the 4n perimeter vertices only: every interior
    # vertex and every coordinate pair off the grid raises, including those
    # whose other coordinate alone would place them on a side
    g = build_grid(n)
    perimeter = {tuple(int(v) for v in ij) for ij in g.loop_ij}
    for i in range(-2, n + 3):
        for j in range(-2, n + 3):
            if (i, j) in perimeter:
                continue
            with pytest.raises(IndexError):
                g.loop_index(i, j)
    for i, j in [(0, 1), (1, 0), (n, 1), (1, n), (-1, 1), (1, -1), (n + 1, 2)]:
        with pytest.raises(IndexError):
            g.interior_index(i, j)
    for idx in (-1, g.n_int, g.n_int + 5):
        with pytest.raises(IndexError):
            g.interior_ij(idx)


@pytest.mark.parametrize("n", [4, 9, 12])
def test_loop_adjacency_spacing(n):
    g = build_grid(n)
    xy = g.loop_ij * g.h
    nxt = np.roll(xy, -1, axis=0)
    dist = np.hypot(*(nxt - xy).T)
    assert np.allclose(dist, g.h, rtol=0, atol=1e-15)


def test_loop_starts_at_origin_counterclockwise():
    g = build_grid(4)
    assert tuple(g.loop_ij[0]) == (0, 0)
    assert tuple(g.loop_ij[1]) == (1, 0)       # +x first: counterclockwise
    assert tuple(g.loop_ij[4]) == (4, 0)
    assert tuple(g.loop_ij[8]) == (4, 4)
    assert tuple(g.loop_ij[12]) == (0, 4)
    assert tuple(g.loop_ij[15]) == (0, 1)


# ---- stencils restricted from the vertex grid through the index maps ----


def _row(m, r):
    """Row r of a sparse matrix as {column: value}."""
    row = m.getrow(r)
    return dict(zip(row.indices.tolist(), row.data.tolist()))


def test_edge_stencil_bottom():
    g = build_grid(10)
    hess = dirichlet_hessian(g)
    k = g.loop_index(3, 0)
    assert _row(hess, g.n_int + k) == {g.n_int + k: 2.0,
                                       g.n_int + g.loop_index(2, 0): -0.5,
                                       g.n_int + g.loop_index(4, 0): -0.5,
                                       g.interior_index(3, 1): -1.0}


def test_edge_stencil_right():
    g = build_grid(10)
    hess = dirichlet_hessian(g)
    k = g.loop_index(10, 5)
    assert _row(hess, g.n_int + k) == {g.n_int + k: 2.0,
                                       g.n_int + g.loop_index(10, 4): -0.5,
                                       g.n_int + g.loop_index(10, 6): -0.5,
                                       g.interior_index(9, 5): -1.0}


def test_corner_stencil_origin():
    # the two boundary edges at the corner, each at transverse weight 1/2,
    # all on the loop
    g = build_grid(10)
    hess = dirichlet_hessian(g)
    psi_col = g.n_int  # column of loop node 0
    assert _row(hess, psi_col) == {
        psi_col: 1.0,
        psi_col + g.loop_index(1, 0): -0.5,
        psi_col + g.loop_index(0, 1): -0.5,
    }


def test_interior_neighbors_interior_or_loop():
    g = build_grid(6)
    lap = dirichlet_hessian(g)[: g.n_int]
    # every interior vertex sees itself and four neighbors, interior or loop
    assert np.array_equal(np.diff(lap.indptr), np.full(g.n_int, 5))
    # interior stencils never touch corner loop nodes
    corners = [g.n_int + g.loop_index(i, j) for i in (0, g.n) for j in (0, g.n)]
    assert lap[:, corners].nnz == 0
