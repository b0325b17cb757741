import os
import subprocess
import sys
from pathlib import Path

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
    # a module cache holds only read-only per-n arrays, or tuples of them
    cached = {
        f"{mod.__name__}.{name}": f
        for mod in (operators, model)
        for name, f in vars(mod).items()
        if hasattr(f, "cache_info")
    }
    assert len(cached) == 3, sorted(cached)
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
    want = assemble_system(g, params)
    for mat in (neumann_laplacian_matrix(8), loop_laplacian_matrix(8), dirichlet_hessian(g)):
        mat.data *= 3.0
    got = assemble_system(g, params)
    for name in ("lap", "rows"):
        a, b = getattr(got, name), getattr(want, name)
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(a, part), getattr(b, part))


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
    # Q^T Q = I; Q is not symmetric (its docstring says why), so Q^-1 = Q^T
    g = build_grid(n)
    q, _, _ = operators.mirror_basis(g, np.arange(g.n_int + g.n_loop))
    assert abs(q.T @ q - sp.identity(q.shape[0])).max() <= 1e-15
    assert abs(q - q.T).max() > 0.0


@pytest.mark.parametrize("n, sizes", [
    (4, [6, 3, 3, 1, 6, 6]), (5, [6, 3, 6, 3, 9, 9]),
    (50, [351, 325, 325, 300, 650, 650]), (51, [351, 325, 351, 325, 676, 676]),
])
def test_mirror_basis_sector_sizes(n, sizes):
    # m = n//2 + 1 fundamental indices per axis, m' = (n+1)//2 of them off
    # the mirror line: ++ has the m(m+1)/2 orbits of pairs lo <= hi, odd
    # ones only the m(m-1)/2 with lo < hi; -- likewise with m'; each copy
    # of E has m m' columns.  Sectors are contiguous, in order.
    g = build_grid(n)
    q, sector, vertex = operators.mirror_basis(g, np.arange(g.n_int + g.n_loop))
    m, m_off = n // 2 + 1, (n + 1) // 2
    closed = [m * (m + 1) // 2, m * (m - 1) // 2, m_off * (m_off + 1) // 2,
              m_off * (m_off - 1) // 2, m * m_off, m * m_off]
    assert sizes == closed
    assert sector.shape == vertex.shape == (q.shape[0],)
    assert np.array_equal(sector, np.repeat(np.arange(6), sizes))
    assert np.array_equal(np.sort(vertex), np.arange(q.shape[0]))


@pytest.mark.parametrize("n", [4, 5, 8, 9, 50, 51])
def test_mirror_basis_of_the_boundary_layers(n):
    # on the first interior layer F and the loop, the scheme's capacitance
    # nodes, the basis is that of the whole grid restricted to the columns
    # on those orbits: orthonormal, 8n - 8 wide, each E copy 2n - 2 wide
    # (n - 2 on F, n on the loop), and each sector lists F's columns first
    g = build_grid(n)
    m = n - 1
    inner = np.arange(1, m - 1) * m
    ring = np.concatenate([np.arange(m), (m - 1) * m + np.arange(m), inner, inner + m - 1])
    nodes = np.concatenate([ring, g.n_int + np.arange(g.n_loop)])
    q, sector, vertex = operators.mirror_basis(g, nodes)
    assert q.shape == (8 * n - 8,) * 2
    assert abs(q.T @ q - sp.identity(q.shape[0])).max() <= 1e-15
    assert np.count_nonzero(sector == 4) == np.count_nonzero(sector == 5) == 2 * n - 2
    assert np.count_nonzero(vertex[sector == 4] < ring.size) == n - 2
    for s in range(6):
        on_f = vertex[sector == s] < ring.size
        assert np.array_equal(on_f, np.sort(on_f)[::-1])
    full, full_sector, _ = operators.mirror_basis(g, np.arange(g.n_int + g.n_loop))
    rows = full[nodes].tocsc()
    keep = np.flatnonzero(np.diff(rows.indptr) > 0)  # the whole grid's columns on these orbits
    assert np.array_equal(full_sector[keep], sector)
    assert abs(rows[:, keep] - q).max() == 0.0


@pytest.mark.parametrize("n", [4, 5, 8, 9])
def test_mirror_basis_columns_have_their_sector_parities(n):
    # on the vertex grid, column t is a pattern on one D4 orbit that
    # x -> 1-x multiplies by sx and y -> 1-y by sy; sectors 0 to 3 are even
    # or odd under the swap (i, j) -> (j, i), and column t of copy 5 is the
    # swap of column t of copy 4.  Column t is positive at vertex[t], which
    # lies in the quadrant of its parities; in sectors 0 to 3 its
    # min(i, n - i) <= min(j, n - j) if swap-even and > if odd.
    g = build_grid(n)
    q, sector, vertex = operators.mirror_basis(g, np.arange(g.n_int + g.n_loop))
    dense, eye = q.toarray(), np.eye(q.shape[0])
    parities = [(1, 1, 1), (1, 1, -1), (-1, -1, 1), (-1, -1, -1), (1, -1, 0), (-1, 1, 0)]
    n_e = np.count_nonzero(sector == 5)
    for t, s in enumerate(sector):
        sx, sy, swap = parities[s]
        full = to_full_grid(dense[: g.n_int, t], dense[g.n_int :, t], g)
        assert np.array_equal(full[::-1], sx * full) and np.array_equal(full[:, ::-1], sy * full)
        if swap:
            assert np.array_equal(full.T, swap * full)
        if s == 5:
            first = dense[:, t - n_e]
            assert np.array_equal(full, to_full_grid(first[: g.n_int], first[g.n_int :], g).T)
        i, j = np.nonzero(full)
        ri, rj = np.minimum(i, n - i), np.minimum(j, n - j)
        assert len(set(zip(np.minimum(ri, rj), np.maximum(ri, rj)))) == 1
        (vi, vj), = np.argwhere(to_full_grid(eye[vertex[t], : g.n_int], eye[vertex[t], g.n_int :], g))
        assert full[vi, vj] > 0.0 and (2 * vi > n, 2 * vj > n) == (sx < 0, sy < 0)
        if swap:
            assert (min(vi, n - vi) > min(vj, n - vj)) == (swap < 0)


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
    for tol in (0.0, np.nan, -1.0):
        with pytest.raises(ValueError, match="tol must be positive"):
            solve_poisson_neumann_zeromean(np.zeros(g10.n_int), g10, tol=tol)
        with pytest.raises(ValueError, match="tol must be positive"):
            solve_poisson_loop_zeromean(np.zeros(g10.n_loop), g10, tol=tol)


# a run and both Poisson references in a fresh interpreter (this one has
# imported scipy.sparse.linalg already): none of them loads SuperLU's
# package, and the references meet their tolerance
NO_SUPERLU = """
import sys
import numpy as np
import hyperch
from hyperch import cli, operators
assert cli.main(["run", "n=8", "beta1=0.1", "beta2=0.1", "t_end=0.0005",
                 "snapshot_times=0.0002", "output_dir=" + sys.argv[1]]) == 0
g = hyperch.build_grid(8)
rng = np.random.default_rng(5)
w, v = rng.standard_normal(g.n_int), rng.standard_normal(g.n_loop)
p = hyperch.solve_poisson_neumann_zeromean(w, g, tol=1e-10)
q = hyperch.solve_poisson_loop_zeromean(v, g, tol=1e-10)
assert "scipy.sparse.linalg" not in sys.modules, "scipy.sparse.linalg was loaded"
for lap, x, rhs in [(operators.neumann_laplacian_matrix(8), p, w - w.mean()),
                    (operators.loop_laplacian_matrix(8), q, v - v.mean())]:
    err = np.abs(lap @ x - rhs).max()
    assert err <= 1e-10 * max(1.0, np.abs(rhs).max()), err
"""


def test_runs_and_the_poisson_references_never_load_superlu(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(operators.__file__).resolve().parents[1]))
    out = tmp_path / "o"
    done = subprocess.run([sys.executable, "-c", NO_SUPERLU, str(out)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert {f.name for f in out.iterdir()} >= {
        "diag.csv", "final.vtk", "effective.cfg", "snap_step0000002.vtk"}


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


@pytest.mark.parametrize("n", [4, 5, 8, 9, 50])
def test_dirichlet_modes_diagonalize_the_interior_block_of_the_hessian(n):
    # sigma is symmetric and orthogonal, its rows a and m - 1 - a differ by
    # the sign (-1)^k, and (sigma x sigma) diag(lam_k + lam_l) (sigma x
    # sigma) is -H / h^2 on the interior, the Dirichlet 5-point Laplacian
    g = build_grid(n)
    sigma, lam = operators.dirichlet_modes(n)
    m = n - 1
    assert np.array_equal(sigma, sigma.T)
    assert np.abs(sigma @ sigma - np.eye(m)).max() <= 1e-15 * m
    assert np.abs(sigma[::-1] - sigma * (-1.0) ** np.arange(m)).max() <= 1e-15
    l_d = -operators.dirichlet_hessian(g)[: g.n_int, : g.n_int].toarray() / (g.h * g.h)
    modes = np.kron(sigma, sigma)
    want = modes @ np.diag(np.add.outer(lam, lam).ravel()) @ modes
    assert np.abs(l_d - want).max() <= 1e-13 * np.abs(l_d).max()


@pytest.mark.parametrize("n", [4, 5, 8, 9, 50])
def test_neumann_modes_diagonalize_the_neumann_laplacian(n):
    # c is orthogonal, its column 0 is constant, and (c x c) diag(mu_k +
    # mu_l) (c x c)^T is the mirror-ghost Neumann Laplacian
    c, mu = operators.neumann_modes(n)
    m = n - 1
    assert np.abs(c.T @ c - np.eye(m)).max() <= 1e-15 * m
    assert np.all(c[:, 0] == c[0, 0]) and mu[0] == 0.0
    lap = neumann_laplacian_matrix(n).toarray()
    modes = np.kron(c, c)
    want = modes @ np.diag(np.add.outer(mu, mu).ravel()) @ modes.T
    assert np.abs(lap - want).max() <= 1e-13 * np.abs(lap).max()


@pytest.mark.parametrize("n", [4, 5, 8, 9, 50])
def test_loop_eigenvalues_are_those_of_the_loop_laplacian(n):
    # Fourier mode k of the 4n-node loop is an eigenvector of the periodic
    # second difference with eigenvalue lam[k] (lam[4n - k] for k > 2n),
    # and these are the matrix's whole spectrum
    lam = operators.loop_eigenvalues(n)
    nl = 4 * n
    full = np.concatenate([lam, lam[-2:0:-1]])
    lap = loop_laplacian_matrix(n).toarray()
    s = np.arange(nl)
    modes = np.exp(2j * np.pi / nl * (np.outer(s, s) % nl))  # argument below 2 pi
    scale = np.abs(lap).max()
    assert np.abs(lap @ modes - modes * full).max() <= 1e-13 * scale
    assert np.abs(np.sort(full) - np.linalg.eigvalsh(lap)).max() <= 1e-13 * scale


@pytest.mark.parametrize("n", [4, 5, 8, 13, 16])
def test_poisson_solvers_match_the_pseudoinverse(n):
    # the minimum-norm solution of the singular system on mean-free data,
    # which is the zero-mean one, by the dense pseudoinverse
    g = build_grid(n)
    rng = np.random.default_rng(n)
    for solve, lap, size in [
        (solve_poisson_neumann_zeromean, neumann_laplacian_matrix(n), g.n_int),
        (solve_poisson_loop_zeromean, loop_laplacian_matrix(n), g.n_loop),
    ]:
        w = rng.standard_normal(size) + 2.0
        want = np.linalg.pinv(lap.toarray()) @ (w - w.mean())
        assert np.abs(solve(w, g) - want).max() <= 1e-12 * np.abs(want).max()
