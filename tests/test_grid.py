import numpy as np
import pytest

from hyperch import build_grid
from hyperch.operators import bulk_laplacian_matrix, normal_derivative_matrix


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


def test_corner_classification():
    g = build_grid(5)
    corners = {k for k in range(g.n_loop) if g.is_corner_k(k)}
    assert corners == {0, 5, 10, 15}
    assert {tuple(g.loop_ij[k]) for k in corners} == {(0, 0), (5, 0), (5, 5), (0, 5)}


# ---- stencils restricted from the vertex grid through the index maps ----


def _row(m, r):
    """Row r of a sparse matrix as {column: value}."""
    row = m.getrow(r)
    return dict(zip(row.indices.tolist(), row.data.tolist()))


def test_edge_stencil_bottom():
    g = build_grid(10)
    nd = normal_derivative_matrix(g)
    inv2h = 1.0 / (2.0 * g.h)
    k = g.loop_index(3, 0)
    assert _row(nd, k) == {g.n_int + k: 3.0 * inv2h,
                           g.interior_index(3, 1): -4.0 * inv2h,
                           g.interior_index(3, 2): 1.0 * inv2h}


def test_edge_stencil_right():
    g = build_grid(10)
    nd = normal_derivative_matrix(g)
    inv2h = 1.0 / (2.0 * g.h)
    k = g.loop_index(10, 5)
    assert _row(nd, k) == {g.n_int + k: 3.0 * inv2h,
                           g.interior_index(9, 5): -4.0 * inv2h,
                           g.interior_index(8, 5): 1.0 * inv2h}


def test_corner_stencil_origin():
    # the average of the stencils along both incident edges, all on the loop
    g = build_grid(10)
    nd = normal_derivative_matrix(g)
    inv2h = 1.0 / (2.0 * g.h)
    psi_col = g.n_int  # column of loop node 0
    assert _row(nd, 0) == {
        psi_col: 3.0 * inv2h,
        psi_col + g.loop_index(1, 0): -2.0 * inv2h,
        psi_col + g.loop_index(2, 0): 0.5 * inv2h,
        psi_col + g.loop_index(0, 1): -2.0 * inv2h,
        psi_col + g.loop_index(0, 2): 0.5 * inv2h,
    }


def test_interior_neighbors_interior_or_loop():
    g = build_grid(6)
    lap = bulk_laplacian_matrix(g)
    # every interior vertex sees itself and four neighbors, interior or loop
    assert np.array_equal(np.diff(lap.indptr), np.full(g.n_int, 5))
    # interior stencils never touch corner loop nodes
    corners = [g.n_int + k for k in range(g.n_loop) if g.is_corner_k(k)]
    assert lap[:, corners].nnz == 0
