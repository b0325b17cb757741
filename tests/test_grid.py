import numpy as np
import pytest

from hyperch import build_grid, inward_normal_stencil


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


def test_edge_stencil_bottom():
    g = build_grid(10)
    st = inward_normal_stencil(g, g.loop_index(3, 0))
    assert not st.is_corner
    assert st.normals == ((0, 1),)
    (b, v1, v2), = st.triples
    assert b == ("loop", g.loop_index(3, 0))
    assert v1 == ("int", g.interior_index(3, 1))
    assert v2 == ("int", g.interior_index(3, 2))


def test_edge_stencil_right():
    g = build_grid(10)
    st = inward_normal_stencil(g, g.loop_index(10, 5))
    assert st.normals == ((-1, 0),)
    (b, v1, v2), = st.triples
    assert v1 == ("int", g.interior_index(9, 5))
    assert v2 == ("int", g.interior_index(8, 5))


def test_corner_stencil_origin():
    g = build_grid(10)
    st = inward_normal_stencil(g, 0)
    assert st.is_corner
    assert len(st.triples) == 2
    along_x, along_y = st.triples
    assert along_x == (("loop", 0), ("loop", g.loop_index(1, 0)), ("loop", g.loop_index(2, 0)))
    assert along_y == (("loop", 0), ("loop", g.loop_index(0, 1)), ("loop", g.loop_index(0, 2)))


@pytest.mark.parametrize("n", [4, 7, 10])
def test_stencil_reach_inside_square(n):
    g = build_grid(n)
    for k in range(g.n_loop):
        st = inward_normal_stencil(g, k)
        for triple in st.triples:
            for kind, idx in triple:
                if kind == "int":
                    i, j = g.interior_ij(idx)
                else:
                    i, j = g.loop_ij[idx]
                assert 0 <= i * g.h <= 1 and 0 <= j * g.h <= 1


def test_interior_neighbors_interior_or_loop():
    g = build_grid(6)
    for i in range(1, 6):
        for j in range(1, 6):
            for a, b in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
                kind, idx = g.node_ref(a, b)
                assert kind in ("int", "loop")
                if kind == "loop":
                    # interior stencils never touch corner loop nodes
                    assert not g.is_corner_k(idx)


def test_stencil_index_bounds():
    g = build_grid(4)
    with pytest.raises(IndexError):
        inward_normal_stencil(g, 16)
    with pytest.raises(IndexError):
        inward_normal_stencil(g, -1)
