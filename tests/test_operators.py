import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as hst

from hyperch import (
    PoissonSolveError,
    apply_bulk_laplacian,
    apply_loop_laplacian,
    assemble_system,
    build_grid,
    dirichlet_energy_bulk,
    dirichlet_energy_loop,
    normal_derivative,
    solve_poisson_loop_zeromean,
    solve_poisson_neumann_zeromean,
    to_full_grid,
)
from hyperch import model, operators
from hyperch.operators import (
    dirichlet_hessian,
    grad_norm_sq_interior,
    grad_norm_sq_loop,
    loop_laplacian_matrix,
    neumann_laplacian_matrix,
)


@pytest.fixture
def g10():
    return build_grid(10)


def fields(grid, fn):
    xi, yi = grid.interior_xy()
    xl, yl = grid.loop_xy()
    return fn(xi, yi), fn(xl, yl)


# ---- bulk Laplacian ----------------------------------------------------


def test_bulk_laplacian_constant(g10):
    phi, psi = fields(g10, lambda x, y: np.full_like(x, 3.7))
    assert np.abs(apply_bulk_laplacian(phi, psi, g10)).max() < 1e-12


def test_bulk_laplacian_exact_on_quadratic(g10):
    # 5-point stencil reproduces the Laplacian of x^2 + y^2 exactly
    phi, psi = fields(g10, lambda x, y: x * x + y * y)
    lap = apply_bulk_laplacian(phi, psi, g10)
    assert np.abs(lap - 4.0).max() < 1e-10


def test_bulk_laplacian_linear(g10):
    phi, psi = fields(g10, lambda x, y: x)
    assert np.abs(apply_bulk_laplacian(phi, psi, g10)).max() < 1e-12


def test_bulk_laplacian_size_mismatch(g10):
    with pytest.raises(ValueError):
        apply_bulk_laplacian(np.zeros(5), np.zeros(g10.n_loop), g10)


def test_bulk_laplacian_second_order():
    # max-norm consistency error on a smooth field decays at order 2
    errs = []
    ns = [16, 32, 64]
    for n in ns:
        g = build_grid(n)
        phi, psi = fields(g, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
        exact = -2 * np.pi**2 * phi
        errs.append(np.abs(apply_bulk_laplacian(phi, psi, g) - exact).max())
    slope = -np.polyfit(np.log(ns), np.log(errs), 1)[0]
    assert abs(slope - 2.0) < 0.2


# ---- loop Laplacian ------------------------------------------------------


def test_loop_laplacian_constant(g10):
    assert np.abs(apply_loop_laplacian(np.full(g10.n_loop, 2.5), g10)).max() == 0.0


def test_periodic_laplacian_four_node_chain():
    # the four-node pattern (1, 0, -1, 0) repeated around the n = 4 loop,
    # h^2 = 1/16: second differences -2/h^2, 0, 2/h^2, 0, also across the
    # wrap from node 15 to node 0
    g = build_grid(4)
    out = apply_loop_laplacian(np.tile([1.0, 0.0, -1.0, 0.0], 4), g)
    assert out[0] == -32.0
    assert np.array_equal(out, np.tile([-32.0, 0.0, 32.0, 0.0], 4))


def test_loop_laplacian_linear_along_edge(g10):
    # values linear in the loop index over the bottom edge: zero second
    # difference at that edge's interior nodes
    psi = np.zeros(g10.n_loop)
    psi[:11] = np.arange(11.0)  # k=0..10 covers the bottom edge and (n,0)
    lap = apply_loop_laplacian(psi, g10)
    assert np.abs(lap[1:10]).max() < 1e-12


def test_loop_laplacian_conservative():
    g = build_grid(8)
    rng = np.random.default_rng(42)
    for _ in range(20):
        psi = rng.uniform(-1, 1, g.n_loop)
        assert abs(apply_loop_laplacian(psi, g).sum()) < 1e-12


# ---- normal derivative ---------------------------------------------------


def test_normal_derivative_linear_field(g10):
    phi, psi = fields(g10, lambda x, y: y)
    nd = normal_derivative(phi, psi, g10)
    assert nd.shape == (g10.n_loop,)
    assert nd[g10.loop_index(3, 0)] == pytest.approx(-1.0, abs=1e-12)
    assert nd[g10.loop_index(3, 10)] == pytest.approx(1.0, abs=1e-12)


def test_normal_derivative_constant(g10):
    phi, psi = fields(g10, lambda x, y: np.full_like(x, 4.0))
    assert np.abs(normal_derivative(phi, psi, g10)).max() <= 1e-12


def test_normal_derivative_exact_on_affine(g10):
    phi, psi = fields(g10, lambda x, y: 2.0 + 3.0 * x - 5.0 * y)
    nd = normal_derivative(phi, psi, g10)
    n = g10.n
    # outward derivative of an affine field on each side the node lies on:
    # -3 left, +3 right, +5 bottom, -5 top; corners average their two sides
    for k, (i, j) in enumerate(g10.loop_ij):
        sides = [d for on_side, d in ((i == 0, -3.0), (i == n, 3.0),
                                      (j == 0, 5.0), (j == n, -5.0)) if on_side]
        assert nd[k] == pytest.approx(np.mean(sides), abs=1e-12)


# ---- Dirichlet energies --------------------------------------------------


def test_dirichlet_energy_bulk_constant(g10):
    phi, psi = fields(g10, lambda x, y: np.full_like(x, 9.0))
    assert dirichlet_energy_bulk(phi, psi, g10) == 0.0


def test_dirichlet_energy_bulk_linear_exact(g10):
    phi, psi = fields(g10, lambda x, y: x)
    assert dirichlet_energy_bulk(phi, psi, g10) == pytest.approx(0.5, abs=1e-14)
    phi, psi = fields(g10, lambda x, y: x + y)
    assert dirichlet_energy_bulk(phi, psi, g10) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("n", [5, 8])
def test_dirichlet_energy_bulk_matches_edge_loop(n):
    g = build_grid(n)
    rng = np.random.default_rng(n)
    phi, psi = rng.standard_normal(g.n_int), rng.standard_normal(g.n_loop)
    full = to_full_grid(phi, psi, g)
    want = 0.0
    for i in range(n + 1):
        for j in range(n + 1):
            # the x-edge from (i, j) and the y-edge from (i, j), each at
            # transverse weight 1/2 when it lies along the boundary
            if i < n:
                want += (0.5 if j in (0, n) else 1.0) * (full[i + 1, j] - full[i, j]) ** 2
            if j < n:
                want += (0.5 if i in (0, n) else 1.0) * (full[i, j + 1] - full[i, j]) ** 2
    assert dirichlet_energy_bulk(phi, psi, g) == pytest.approx(0.5 * want, rel=1e-13)


def test_cached_weights_are_read_only():
    # a module cache holds only read-only per-n arrays, or tuples of
    # them; the Poisson solvers' pinned factor is the one exception
    cached = {
        f"{mod.__name__}.{name}": f
        for mod in (operators, model)
        for name, f in vars(mod).items()
        if hasattr(f, "cache_info")
    }
    del cached["hyperch.operators._pinned_factor"]
    assert len(cached) == 4, sorted(cached)
    for name, f in cached.items():
        out = f(6)
        for w in out if isinstance(out, tuple) else (out,):
            assert isinstance(w, np.ndarray), name
            with pytest.raises(ValueError, match="read-only"):
                w[(0,) * w.ndim] = 2.0


def test_matrices_belong_to_their_caller():
    # scaling a returned matrix in place reaches no later assembly
    g = build_grid(8)
    params = model.ModelParams.with_defaults(g.h, beta1=0.1, beta2=0.1)
    want = assemble_system(g, params).schur
    for mat in (neumann_laplacian_matrix(8), loop_laplacian_matrix(8), dirichlet_hessian(g)):
        mat.data *= 3.0
    got = assemble_system(g, params).schur
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, part), getattr(want, part))


def test_weights_share_one_trapezoid_vector():
    # the edge weights, the full-grid well weights and the loop well
    # weights are all read off (1/2, 1, ..., 1, 1/2)
    n = 6
    t = operators.trapezoid_weights(n)
    assert np.array_equal(t, [0.5, 1, 1, 1, 1, 1, 0.5])
    wx, wy = operators._edge_weights(n)
    assert np.array_equal(wx, np.tile(t, (n, 1))) and np.array_equal(wy, wx.T)
    assert np.array_equal(model._trapezoid_weights(n), np.outer(t, t))
    g = build_grid(n)
    corner = np.arange(g.n_loop) % n == 0
    assert np.array_equal(model.loop_well_weights(g.n), g.h * np.where(corner, 0.25, 0.5))


# ---- Dirichlet Hessian -----------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(n=hst.integers(4, 20), seed=hst.integers(0, 2**16))
def test_dirichlet_hessian_is_the_energy_hessian(n, seed):
    # (1/2) y^T H y is the bulk Dirichlet energy, H annihilates constants
    # and is symmetric
    g = build_grid(n)
    rng = np.random.default_rng(seed)
    phi, psi = rng.standard_normal(g.n_int), rng.standard_normal(g.n_loop)
    y = np.concatenate([phi, psi])
    hess = dirichlet_hessian(g)
    assert 0.5 * float(y @ (hess @ y)) == pytest.approx(
        dirichlet_energy_bulk(phi, psi, g), rel=1e-13)
    assert np.array_equal(np.asarray(hess.sum(axis=1)).ravel(), np.zeros(y.size))
    assert (hess - hess.T).nnz == 0


# ---- mirror basis ----------------------------------------------------------


@pytest.mark.parametrize("n", [4, 5, 8, 9, 50, 51])
def test_mirror_basis_is_orthonormal(n):
    # and symmetric, so an involution: Q^T Q = Q Q = I
    q, _ = operators.mirror_basis(build_grid(n))
    assert abs(q - q.T).max() == 0.0
    assert abs(q.T @ q - sp.identity(q.shape[0])).max() <= 1e-15


@pytest.mark.parametrize("n, sizes", [
    (4, [9, 6, 6, 4]), (5, [9] * 4), (50, [676, 650, 650, 625]), (51, [676] * 4),
])
def test_mirror_basis_sector_sizes(n, sizes):
    # (n/2 + 1) vertices per axis in a low half, n/2 in a high one at even n
    q, quadrant = operators.mirror_basis(build_grid(n))
    assert quadrant.shape == (q.shape[0],)
    assert np.bincount(quadrant, minlength=4).tolist() == sizes


@pytest.mark.parametrize("n", [4, 5, 8, 9])
def test_mirror_basis_columns_have_their_sector_parities(n):
    # on the vertex grid, column m of sector (sx, sy) = quadrant[m] is a
    # pattern on the mirror orbit of vertex m that x -> 1-x multiplies by
    # sx and y -> 1-y by sy, and vertex m lies in quadrant[m]
    g = build_grid(n)
    q, quadrant = operators.mirror_basis(g)
    dense, eye = q.toarray(), np.eye(q.shape[0])
    parities = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    for m, s in enumerate(quadrant):
        sx, sy = parities[s]
        full = to_full_grid(dense[: g.n_int, m], dense[g.n_int :, m], g)
        assert np.array_equal(full[::-1], sx * full) and np.array_equal(full[:, ::-1], sy * full)
        i, j = np.nonzero(full)
        assert len(set(zip(np.minimum(i, n - i), np.minimum(j, n - j)))) == 1
        (vi, vj), = np.argwhere(to_full_grid(eye[m, : g.n_int], eye[m, g.n_int :], g))
        assert full[vi, vj] != 0.0 and s == 2 * (2 * vi > n) + (2 * vj > n)


def test_dirichlet_energy_loop_values():
    # n = 4 loop, h = 1/4: (1/2) * sum over the 16 links of diff^2 / h
    g = build_grid(4)
    # alternating 1, 0: every diff is +-1, sum of squares 16
    assert dirichlet_energy_loop(np.tile([1.0, 0.0], 8), g) == 32.0
    # 0, 1, ..., 15: fifteen diffs 1 and the wrap diff -15, sum of squares 240
    assert dirichlet_energy_loop(np.arange(16.0), g) == 480.0


def test_dirichlet_energy_loop_constant(g10):
    assert dirichlet_energy_loop(np.full(g10.n_loop, 1.3), g10) == 0.0


# ---- zero-mean Poisson solves -------------------------------------------


def test_poisson_neumann_zero_rhs(g10):
    p = solve_poisson_neumann_zeromean(np.zeros(g10.n_int), g10)
    assert np.abs(p).max() == 0.0


def test_poisson_neumann_round_trip():
    # cos(pi x) has zero normal flux; recover it from its own discrete image
    g = build_grid(16)
    xi, _ = g.interior_xy()
    p0 = np.cos(np.pi * xi)
    lap = neumann_laplacian_matrix(g.n)
    w = lap @ p0
    p = solve_poisson_neumann_zeromean(w, g, tol=1e-10)
    assert np.abs(p - (p0 - p0.mean())).max() < 1e-9


def test_poisson_neumann_projects_nonzero_mean():
    g = build_grid(8)
    rng = np.random.default_rng(3)
    w = rng.standard_normal(g.n_int) + 5.0
    p = solve_poisson_neumann_zeromean(w, g, tol=1e-10)
    lap = neumann_laplacian_matrix(g.n)
    img = lap @ p
    assert abs(img.sum()) < 1e-9                 # image is mean-free
    assert np.abs(img - (w - w.mean())).max() < 1e-9
    assert abs(p.mean()) < 1e-12


def test_poisson_loop_round_trip():
    g = build_grid(8)
    rng = np.random.default_rng(4)
    q0 = rng.standard_normal(g.n_loop)
    w = apply_loop_laplacian(q0, g)
    q = solve_poisson_loop_zeromean(w, g, tol=1e-10)
    assert np.abs(q - (q0 - q0.mean())).max() < 1e-9


def test_poisson_loop_constant_rhs_gives_zero():
    g = build_grid(8)
    q = solve_poisson_loop_zeromean(np.full(g.n_loop, 2.0), g)
    assert np.abs(q).max() < 1e-12


def test_poisson_rejects_bad_tol(g10):
    with pytest.raises(ValueError):
        solve_poisson_neumann_zeromean(np.zeros(g10.n_int), g10, tol=0.0)


# ---- summation-by-parts pairing -----------------------------------------


def test_grad_norms_match_quadratic_forms():
    g = build_grid(8)
    rng = np.random.default_rng(5)
    p = rng.standard_normal(g.n_int)
    q = rng.standard_normal(g.n_loop)
    h = g.h
    ln = neumann_laplacian_matrix(g.n)
    lg = loop_laplacian_matrix(g.n)
    assert grad_norm_sq_interior(p, g) == pytest.approx(-h * h * (p @ (ln @ p)), rel=1e-12)
    assert grad_norm_sq_loop(q, g) == pytest.approx(-h * (q @ (lg @ q)), rel=1e-12)


def test_to_full_grid_roundtrip(g10):
    rng = np.random.default_rng(6)
    phi = rng.standard_normal(g10.n_int)
    psi = rng.standard_normal(g10.n_loop)
    full = to_full_grid(phi, psi, g10)
    assert np.array_equal(full[1:-1, 1:-1].ravel(), phi)
    for k in range(g10.n_loop):
        i, j = g10.loop_ij[k]
        assert full[i, j] == psi[k]


def test_poisson_rejects_nan_data(g10):
    w = np.zeros(g10.n_int)
    w[3] = np.nan
    with pytest.raises(PoissonSolveError):
        solve_poisson_neumann_zeromean(w, g10)
    with pytest.raises(PoissonSolveError):
        solve_poisson_loop_zeromean(np.full(g10.n_loop, np.nan), g10)


def test_poisson_rejects_nan_tol(g10):
    with pytest.raises(ValueError, match="tol must be positive"):
        solve_poisson_neumann_zeromean(np.zeros(g10.n_int), g10, tol=np.nan)
