import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from dense_oracle import (
    capacitance_matrix,
    coupled_matrix,
    dense_matrix,
    dense_rhs,
    eliminate_mu_edge,
    offsets,
    reference_blocks,
    reference_hessian,
    reference_neumann_laplacian,
    schur_matrix,
)

from hyperch import (
    F_val,
    G_val,
    CaseSpec,
    ModelParams,
    NonFiniteStateError,
    SolveError,
    State,
    assemble_rhs,
    assemble_system,
    beta_sweep,
    build_grid,
    bulk_quadrature_weights,
    dirichlet_energy_bulk,
    dirichlet_energy_loop,
    f_val,
    g_val,
    init_case,
    init_state,
    modified_energy,
    run,
    step,
)
from hyperch import model, operators, scheme
from hyperch.linalg import DirectFactorization
from hyperch.operators import (
    dirichlet_hessian,
    grad_norm_sq_interior,
    grad_norm_sq_loop,
    loop_laplacian_matrix,
    neumann_laplacian_matrix,
)
from hyperch.scheme import diag_record, num_steps, split_unknowns


@pytest.fixture
def g4():
    return build_grid(4)


def params_for(grid, **kw):
    return ModelParams.with_defaults(grid.h, **kw)


def increment_rhs(state, system, grid, params):
    """The right-hand side ``step`` solves for [y_new - y | mu]: R y
    subtracted from the potential rows of ``assemble_rhs``."""
    y = np.concatenate([state.phi, state.psi])
    b = assemble_rhs(state, grid, params)
    b[y.size :] -= system.rows @ y
    return b


# (n, beta) of the dense-oracle comparisons; the n = 4 cases keep the
# bare beta id
ORACLE_CASES = [
    pytest.param(n, beta, id=f"{beta}" if n == 4 else f"n{n}-{beta}")
    for n in (4, 5, 7)
    for beta in (0.0, 0.5)
]


# ---- state ---------------------------------------------------------------


def test_init_state_zero_rates(g4):
    rng = np.random.default_rng(0)
    st = init_state(rng.standard_normal(g4.n_int), rng.standard_normal(g4.n_loop), g4)
    assert st.Phi.sum() == 0.0 and st.Psi.sum() == 0.0
    assert st.t == 0.0 and st.step == 0


def test_init_state_case1_data():
    g = build_grid(10)
    phi0, psi0 = init_case(CaseSpec(case=1), g)
    st = init_state(phi0, psi0, g)
    assert np.array_equal(st.phi, np.zeros(81))
    assert np.array_equal(st.psi, np.ones(40))


def test_init_state_size_mismatch(g4):
    with pytest.raises(ValueError):
        init_state(np.zeros(5), np.zeros(g4.n_loop), g4)
    with pytest.raises(ValueError):
        init_state(np.zeros(g4.n_int), np.zeros(3), g4)


# ---- stacked unknowns and assembly -------------------------------------------


def test_layout_dimension(g4):
    x = np.arange(50)  # 2*9 + 2*16
    phi, psi, mu_int, mu_loop = split_unknowns(x, g4)
    assert [p.size for p in (phi, psi, mu_int, mu_loop)] == [9, 16, 9, 16]
    # the pieces tile [0, dim) in the order [phi | psi | mu_int | mu_loop]
    assert np.array_equal(np.concatenate([phi, psi, mu_int, mu_loop]), x)
    assert all(np.shares_memory(p, x) for p in (phi, psi, mu_int, mu_loop))
    with pytest.raises(ValueError):
        split_unknowns(np.zeros(49), g4)


def test_constant_vector_row_sums(g4):
    params = params_for(g4, beta1=0.3, beta2=0.7)
    system = assemble_system(g4, params)
    c = 1.7
    matrix = coupled_matrix(system)
    x = np.zeros(matrix.shape[0])
    phi, psi, _, _ = split_unknowns(x, g4)
    phi[:] = c
    psi[:] = c
    y = matrix @ x
    tau = params.tau
    k1 = (params.beta1 / tau + 1.0) / tau
    k2 = (params.beta2 / tau + 1.0) / tau
    # Laplacians and normal derivatives annihilate constants
    y_phi, y_psi, _, _ = split_unknowns(y, g4)
    assert np.allclose(y_phi, k1 * c, rtol=1e-12)
    assert np.allclose(y_psi, k2 * c, rtol=1e-12)


@pytest.mark.parametrize("n, beta", ORACLE_CASES)
def test_matrix_matches_dense_oracle(n, beta):
    g = build_grid(n)
    params = params_for(g, beta1=beta, beta2=beta)
    system = assemble_system(g, params)
    oracle, _ = eliminate_mu_edge(g, dense_matrix(g, params))
    assert np.allclose(coupled_matrix(system).toarray(), oracle, rtol=1e-13, atol=1e-9)


@pytest.mark.parametrize("beta", [0.0, 0.5])
def test_rhs_matches_dense_oracle(g4, beta):
    params = params_for(g4, beta1=beta, beta2=beta)
    rng = np.random.default_rng(1)
    st = State(
        phi=rng.standard_normal(g4.n_int),
        psi=rng.standard_normal(g4.n_loop),
        Phi=rng.standard_normal(g4.n_int),
        Psi=rng.standard_normal(g4.n_loop),
        P=np.zeros(g4.n_int),
        Q=np.zeros(g4.n_loop),
        t=0.0,
        step=0,
    )
    # the oracle writes the full-form rows, K y_new - L mu = k y + r Phi
    got = assemble_rhs(st, g4, params)
    got[: g4.n_int + g4.n_loop] += assemble_system(g4, params).k * np.concatenate([st.phi, st.psi])
    _, want = eliminate_mu_edge(
        g4, dense_matrix(g4, params), dense_rhs(g4, params, st.phi, st.psi, st.Phi, st.Psi)
    )
    assert np.allclose(got, want, rtol=1e-13, atol=1e-13)


def test_rhs_well_roots_leave_stabilizer_only(g4):
    # at phi = psi = 1 the well derivatives vanish, so the potential rows
    # carry just the -s terms, the loop rows both wells' with the bulk
    # well's trapezoid weight h w_k (1/2 on edges, 1/4 at corners)
    params = params_for(g4)
    st = init_state(np.ones(g4.n_int), np.ones(g4.n_loop), g4)
    _, _, b_mu_int, b_mu_loop = split_unknowns(assemble_rhs(st, g4, params), g4)
    w = np.where(np.arange(g4.n_loop) % g4.n == 0, 0.25, 0.5)
    assert np.array_equal(b_mu_int, np.full(g4.n_int, -params.s1))
    assert np.array_equal(b_mu_loop, -params.s2 - params.s1 * (g4.h * w))


def test_rhs_no_rate_memory_without_relaxation(g4):
    # with beta = 0 the evolution rows of the increment form are exactly 0,
    # whatever the fields and the last rates
    params = params_for(g4)
    rng = np.random.default_rng(3)
    st = State(
        phi=rng.standard_normal(g4.n_int), psi=rng.standard_normal(g4.n_loop),
        Phi=rng.standard_normal(g4.n_int), Psi=rng.standard_normal(g4.n_loop),
        P=np.zeros(g4.n_int), Q=np.zeros(g4.n_loop),
        t=0.0, step=0,
    )
    b = assemble_rhs(st, g4, params)
    assert np.array_equal(b[: g4.n_int + g4.n_loop], np.zeros(g4.n_int + g4.n_loop))


@pytest.mark.parametrize("beta", [0.0, 0.5])
def test_step_matches_dense_direct_solve(g4, beta):
    # one step from smooth initial data, all unknown blocks compared
    params = params_for(g4, beta1=beta, beta2=beta)
    phi0, psi0 = init_case(CaseSpec(case=3), g4)
    st = init_state(phi0, psi0, g4)
    system = assemble_system(g4, params)
    x_dense = np.linalg.solve(*eliminate_mu_edge(
        g4, dense_matrix(g4, params), dense_rhs(g4, params, st.phi, st.psi, st.Phi, st.Psi)
    ))
    # the increment solve's [y_new - y | mu], moved back to [y_new | mu]
    x_sparse, _ = system.solve(increment_rhs(st, system, g4, params))
    x_sparse[: g4.n_int + g4.n_loop] += np.concatenate([st.phi, st.psi])
    assert np.abs(x_sparse - x_dense).max() < 1e-10
    new, _ = step(st, system, g4, params)
    phi_dense, psi_dense, _, _ = split_unknowns(x_dense, g4)
    assert np.abs(new.phi - phi_dense).max() < 1e-10
    assert np.abs(new.psi - psi_dense).max() < 1e-10
    assert np.allclose(new.Phi, (new.phi - st.phi) / params.tau)
    assert np.allclose(new.Psi, (new.psi - st.psi) / params.tau)
    assert new.step == 1 and new.t == pytest.approx(params.tau)


def test_clock_stays_on_the_step_lattice(g4):
    # summing tau 2000 times lands off 2000 * tau in the last bits
    params = params_for(g4, beta1=0.1, beta2=0.1)
    phi0, psi0 = init_case(CaseSpec(case=1, n=4), g4)
    final, records = run(init_state(phi0, psi0, g4), g4, params, 0.2, diag_cadence=2000)
    assert records[-1].step == 2000
    assert records[-1].time == final.t == 2000 * params.tau


@pytest.mark.parametrize("n, beta", ORACLE_CASES)
def test_schur_matches_dense_schur_complement(n, beta):
    # eliminating every mu block of the naive dense matrix, mu_edge
    # included, must give the reduced [phi | psi] matrix the direct path
    # factors
    g = build_grid(n)
    params = params_for(g, beta1=beta, beta2=beta)
    system = assemble_system(g, params)
    a = dense_matrix(g, params)
    off = offsets(g)
    keep = np.r_[off["phi"] : off["phi"] + g.n_int, off["psi"] : off["psi"] + g.n_loop]
    mu = np.setdiff1d(np.arange(off["dim"]), keep)
    want = a[np.ix_(keep, keep)] - a[np.ix_(keep, mu)] @ np.linalg.solve(
        a[np.ix_(mu, mu)], a[np.ix_(mu, keep)]
    )
    got = schur_matrix(system).toarray()
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


@settings(max_examples=20, deadline=None)
@given(n=hst.integers(4, 16), beta=hst.floats(0.0, 1.0))
def test_weighted_potential_rows_are_symmetric(n, beta):
    # W R, with W = blockdiag(h^2 I, h I) the field quadrature weights, is
    # the (negated, stabilized) energy Hessian, so it is symmetric
    g = build_grid(n)
    system = assemble_system(g, params_for(g, beta1=beta, beta2=beta))
    w = np.concatenate([np.full(g.n_int, g.h * g.h), np.full(g.n_loop, g.h)])
    wr = (sp.diags(w) @ system.rows).toarray()
    assert np.abs(wr - wr.T).max() <= 1e-14 * np.abs(wr).max()


def test_operators_are_the_blocks_the_scheme_solves_with():
    # apply_bulk_laplacian, normal_derivative and apply_loop_laplacian are
    # products with the matrices the step system is assembled from: rows
    # (b), (d) and (c) of the coupled matrix, up to roundoff
    g = build_grid(6)
    params = params_for(g, beta1=0.3, beta2=0.3)
    matrix = coupled_matrix(assemble_system(g, params))
    rng = np.random.default_rng(8)
    phi, psi, q = (rng.standard_normal(k) for k in (g.n_int, g.n_loop, g.n_loop))
    x = np.concatenate([phi, psi, np.zeros(g.n_int + g.n_loop)])
    _, _, y_mu_int, y_mu_loop = split_unknowns(matrix @ x, g)
    x_q = np.concatenate([np.zeros(2 * g.n_int + g.n_loop), q])
    _, y_q_psi, _, _ = split_unknowns(matrix @ x_q, g)
    lap_loop = operators.apply_loop_laplacian(psi, g)
    nd = operators.normal_derivative(phi, psi, g)
    scale = 1e-13 * (1.0 / g.h**2 + params.s1 + params.s2)
    # mu_int rows on [phi | psi]: lap y - s1 phi
    assert np.abs(operators.apply_bulk_laplacian(phi, psi, g)
                  - (y_mu_int + params.s1 * phi)).max() <= scale * np.abs(x).max()
    # mu_loop rows: -nd y + (l_loop - s2 I - s1 h w_k) psi
    stab = params.s2 + params.s1 * model.loop_well_weights(g.n)
    assert np.abs(nd - (lap_loop - stab * psi - y_mu_loop)).max() <= (
        scale * np.abs(x).max())
    # psi rows on mu_loop: -M2 l_loop q
    assert np.abs(operators.apply_loop_laplacian(q, g) + y_q_psi / params.M2).max() <= (
        scale * np.abs(q).max())


def _rough_rhs(grid, params):
    rng = np.random.default_rng(7)
    st = State(
        phi=rng.uniform(-1, 1, grid.n_int), psi=rng.uniform(-1, 1, grid.n_loop),
        Phi=rng.standard_normal(grid.n_int), Psi=rng.standard_normal(grid.n_loop),
        P=np.zeros(grid.n_int), Q=np.zeros(grid.n_loop),
        t=0.0, step=0,
    )
    return assemble_rhs(st, grid, params)


def test_direct_solve_reports_full_system_residual(monkeypatch):
    # a factor whose solution is off by a known relative 1e-4, component
    # by component, puts the coupled residual near 1e-4, far above
    # roundoff: the reported residual must be that of the dense oracle's
    # coupled matrix on the returned x, within 1e-12.  The two summation
    # orders differ by about 2e-17 ||b||, which is up to 1.1e-11 of a
    # residual near 1e-6, hence the larger delta
    g = build_grid(8)
    params = params_for(g, beta1=0.5, beta2=0.5)
    system = assemble_system(g, params)
    b = _rough_rhs(g, params)
    fac = system.direct()
    exact = fac.solve
    noise = np.random.default_rng(9).standard_normal(system.basis.shape[0])

    def off(rhs, tol):
        x, _ = exact(rhs, tol)
        return x * (1.0 + 1e-4 * noise), None

    monkeypatch.setattr(fac, "solve", off)
    with pytest.raises(SolveError) as err:
        system.solve(b)
    x = err.value.x
    assert x.shape == (2 * (g.n_int + g.n_loop),)
    oracle, _ = eliminate_mu_edge(g, dense_matrix(g, params))
    want = np.linalg.norm(b - oracle @ x) / np.linalg.norm(b)
    assert 1e-5 < want < 1e-3
    assert err.value.stats.rel_residual == pytest.approx(want, rel=1e-12, abs=0)


def test_full_residual_check_does_not_trust_the_factor():
    # blocks off by a relative 1e-6 are solved to roundoff by their own
    # factor; the coupled rows, formed from k, lap and rows, see it
    g = build_grid(8)
    params = params_for(g, beta1=0.5, beta2=0.5)
    system = assemble_system(g, params)
    blocks = [blk * (1.0 + 1e-6) for blk in system.direct().blocks]
    system._direct = DirectFactorization(blocks, [1, 1, 1, 1, 2])
    with pytest.raises(SolveError) as err:
        system.solve(_rough_rhs(g, params))
    assert err.value.stats.rel_residual > 1e-8


def test_system_holds_only_field_sized_matrices():
    # the coupled matrix on [y | mu] and K + L R are never assembled: the
    # only matrices the system keeps on the fields are the coupled blocks
    # lap and rows, before and after factoring, and no matrix it keeps is
    # wider than the fields.  The others act on F and the loop or on one
    # grid line (test_system_holds_only_field_and_boundary_sized_matrices)
    g = build_grid(9)
    system = assemble_system(g, params_for(g, beta1=0.1, beta2=0.1))
    dim = g.n_int + g.n_loop
    for _ in range(2):
        held = {k: v.shape for k, v in vars(system).items()
                if sp.issparse(v) or (isinstance(v, np.ndarray) and v.ndim == 2)}
        assert {k: s for k, s in held.items() if dim in s} == {
            "lap": (dim, dim), "rows": (dim, dim)}
        assert max(max(s) for s in held.values()) == dim
        assert system.k.shape == (dim,)
        system.direct()


def test_system_holds_only_field_and_boundary_sized_matrices():
    # the coupled matrix on [y | mu] and K + L R are never assembled: the
    # system keeps the coupled blocks on the fields, the D4 basis of F and
    # the loop (8n - 8 wide), and, once factored, the two maps into and out
    # of the factor; the factor holds only the distinct blocks, A's four
    # sector blocks and B (test_factoring_holds_only_its_blocks)
    g = build_grid(5)
    system = assemble_system(g, params_for(g, beta1=0.1, beta2=0.1))
    dim, wide = g.n_int + g.n_loop, 8 * g.n - 8
    sizes = {"lap": (dim, dim), "rows": (dim, dim), "basis": (wide, wide)}
    assert {k: v.shape for k, v in vars(system).items() if sp.issparse(v)} == sizes
    fac = system.direct()
    nf = system.ring.size
    sizes.update(_enter=(wide, 2 * nf + g.n_loop), _leave=(2 * nf + g.n_loop, wide))
    assert {k: v.shape for k, v in vars(system).items() if sp.issparse(v)} == sizes
    assert system.k.shape == (dim,)
    assert [b.shape for b in fac.blocks] == [(k, k) for k in np.bincount(system.sector)[:5]]
    assert sum(b.shape[0] for b in fac.blocks[:4]) == 4 * g.n - 4
    assert fac.blocks[4].shape == (2 * g.n - 2,) * 2


def test_factoring_holds_only_its_blocks():
    # factoring keeps the distinct blocks, A's four sector blocks and B,
    # and their dense LU factors, with no expanded blockdiag(A, B, B).  C is
    # built sector by sector from products of width n, so factoring's
    # transients stay below one dense (8n - 8)^2 matrix, C's nodal form:
    # 0.62 of its 2.0 MB at n = 64, most of it the sparse couplings in the
    # D4 basis, which grow like n; the blocks and their LUs take 0.125 each
    g = build_grid(64)
    system = assemble_system(g, params_for(g, beta1=0.1, beta2=0.1))
    square = (8 * g.n - 8) ** 2 * 8
    tracemalloc.start()
    try:
        fac = system.direct()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.75 * square
    assert [b.shape for b in fac.blocks] == [(k, k) for k in np.bincount(system.sector)[:5]]
    assert not [v for obj in (fac, fac._lu) for v in vars(obj).values() if sp.issparse(v)]


def test_solve_holds_few_grid_sized_temporaries():
    # a factored solve holds x and its residual r, each 2 (n-1)^2 + 8n
    # long, and besides them one grid-sized product at a time, R y and
    # then L mu; before them, the right-hand side, the transforms and the
    # correction, a product of two (12, n - 1) stacks, take at most three
    # grids.  6.49 (n-1)^2 doubles at n = 64 (5.45 at n = 200), against
    # 12.0 with the symbol of L_D held and F's line transforms as
    # (2, n - 1, n - 1) arrays
    g = build_grid(64)
    system = assemble_system(g, params_for(g, beta1=0.1, beta2=0.1))
    b = np.random.default_rng(2).standard_normal(2 * system.k.size)
    system.solve(b)  # factors
    tracemalloc.start()
    try:
        system.solve(b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7.5 * (g.n - 1) ** 2 * 8


def test_solve_rejects_a_mis_shaped_rhs():
    g = build_grid(6)
    system = assemble_system(g, params_for(g))
    dim = 2 * (g.n_int + g.n_loop)
    for b in (np.ones(dim - 1), np.ones((2, dim // 2)), np.ones(dim + 1)):
        with pytest.raises(ValueError, match=re.escape(f"shape {b.shape}, expected ({dim},)")):
            system.solve(b)
    assert system._direct is None  # nothing factored for it


@pytest.mark.parametrize("n", [4, 8, 9, 21, 51])
@pytest.mark.parametrize("betas", [(0.0, 0.0), (0.1, 0.3)])
def test_capacitance_blocks_match_the_dense_oracle(n, betas):
    # S's bulk block is P + U V^T with P diagonal in the sine basis, and
    # C from dense inverses, restricted to each D4 sector, is the block
    # built from the separable structure, sector 5's the one built for
    # sector 4; C has no entry between sectors.  The factored matrix is
    # blockdiag(A, B, B), its two E blocks one block to the bit
    g = build_grid(n)
    params = params_for(g, beta1=betas[0], beta2=betas[1])
    system = assemble_system(g, params)
    c, p = capacitance_matrix(system, g, params)
    modes = np.kron(system.sigma, system.sigma)
    assert np.abs(modes @ p @ modes - np.diag(1.0 / system.inv_p.ravel())).max() <= (
        1e-12 * np.abs(p).max())
    q, sector = system.basis.toarray(), system.sector
    full, scale = q.T @ c @ q, np.abs(c).max()
    assert np.abs(full[sector[:, None] != sector]).max() <= 1e-12 * scale
    blocks = system.capacitance_blocks()
    for s, built in enumerate(blocks + blocks[4:]):
        cols = sector == s
        assert np.abs(built - full[np.ix_(cols, cols)]).max() <= 1e-12 * scale
        # and each of its quadrants, F and loop rows and columns, on its own
        # scale: the loop block's 1e8 entries do not hide the others
        f = np.count_nonzero(system.vertex[cols] < system.ring.size)
        for rows, part in ((slice(0, f), slice(0, f)), (slice(0, f), slice(f, None)),
                           (slice(f, None), slice(0, f)), (slice(f, None), slice(f, None))):
            want = full[np.ix_(cols, cols)][rows, part]
            err = np.abs(built[rows, part] - want).max(initial=0.0)
            assert err <= 1e-12 * np.abs(want).max(initial=0.0)
    a = system.direct().a.toarray()
    e4, e5 = sector == 4, sector == 5
    assert np.array_equal(a[np.ix_(e4, e4)], a[np.ix_(e5, e5)])
    assert not a[sector[:, None] != sector].any()


def check_solve_against_nodal_lu(n, beta1, beta2, seed):
    # the capacitance-matrix solve, one D4 sector at a time, against
    # scipy's nodal LU of K + L R, the Schur matrix assembled by the dense
    # oracle's formula: the coupled residual holds its contract, and y and
    # mu agree to 1e-12 relative
    g = build_grid(n)
    system = assemble_system(g, params_for(g, beta1=beta1, beta2=beta2))
    b = np.random.default_rng(seed).standard_normal(2 * system.k.size)
    b_y, b_mu = np.split(b, 2)
    y = spla.splu(schur_matrix(system).tocsc()).solve(b_y + system.lap @ b_mu)
    want = np.concatenate([y, b_mu - system.rows @ y])
    got, stats = system.solve(b)
    assert stats.rel_residual <= scheme.RESIDUAL_TOL
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("n", [4, 5, 8, 9, 50, 51])
def test_sector_solve_matches_nodal_factor(n):
    check_solve_against_nodal_lu(n, 0.1, 0.1, seed=n)


@settings(max_examples=30, deadline=None)
@given(
    n=hst.integers(4, 24),
    beta1=hst.floats(0.0, 1.0),
    beta2=hst.floats(0.0, 1.0),
    seed=hst.integers(0, 2**32 - 1),
)
@example(n=4, beta1=0.0, beta2=0.0, seed=0)
@example(n=24, beta1=1.0, beta2=0.0, seed=1)
@example(n=10, beta1=0.0, beta2=0.94, seed=0)
def test_sector_solve_matches_nodal_factor_property(n, beta1, beta2, seed):
    check_solve_against_nodal_lu(n, beta1, beta2, seed)


@pytest.mark.parametrize("n", [4, 5, 8, 9, 21, 51])
@pytest.mark.parametrize("betas", [(0.0, 0.0), (0.1, 0.3)])
def test_written_out_stencils_match_the_kronecker_formulas_to_the_bit(n, betas):
    # H and the Neumann Laplacian are written out as their 5-point stencils
    # in the caller's order, and lap and rows concatenated from their
    # blocks' arrays; the Kronecker products, fancy-index permutation,
    # block_diag and vstack they replace give the same arrays
    g = build_grid(n)
    params = params_for(g, beta1=betas[0], beta2=betas[1])
    system = assemble_system(g, params)
    lap, rows = reference_blocks(g, params)
    pairs = [
        (dirichlet_hessian(g), reference_hessian(g)),
        (neumann_laplacian_matrix(n), reference_neumann_laplacian(n)),
        (system.lap, lap),
        (system.rows, rows),
    ]
    for got, ref in pairs:
        assert got.format == "csr" and got.shape == ref.shape
        for part in ("data", "indices", "indptr"):
            want = getattr(ref, part)
            assert getattr(got, part).dtype == want.dtype
            assert np.array_equal(getattr(got, part), want)


def test_assembly_builds_its_blocks_in_place():
    # every block is built in its final CSR arrays, with no Kronecker
    # product, permutation or COO round trip, so set-up's transients stay
    # near the size of what the system keeps, its sparse blocks and its
    # arrays: 1.86x at n = 64
    g = build_grid(64)
    params = params_for(g, beta1=0.1, beta2=0.1)
    assemble_system(g, params)  # the per-n caches are not set-up's transients
    tracemalloc.start()
    try:
        system = assemble_system(g, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = (system.lap, system.rows, system.basis)
    own = sum(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes for m in held)
    own += sum(v.nbytes for v in vars(system).values() if isinstance(v, np.ndarray))
    assert peak <= 2.4 * own
    # the factor's set-up indexes with these as they are, without a cast
    assert system.sector.dtype == system.vertex.dtype == np.int32
    assert all(m.indices.dtype == m.indptr.dtype == np.int32 for m in held)


def test_rows_are_held_at_their_exact_size():
    # a CSR difference is allocated for the sum of its operands' nnz; R
    # keeps no such slack for the run
    g = build_grid(200)
    rows = assemble_system(g, params_for(g)).rows
    for part in (rows.data, rows.indices):
        while part.base is not None:
            part = part.base
        assert part.size == rows.nnz


def test_factoring_leaves_the_blocks_untouched():
    # C is built from products with k, lap, rows and the basis, which
    # must not rewrite the arrays it read
    g = build_grid(8)
    system = assemble_system(g, params_for(g, beta1=0.1, beta2=0.1))
    names = ("lap", "rows", "basis")
    held = [getattr(system, name).copy() for name in names]
    k = system.k.copy()
    system.direct()
    assert np.array_equal(system.k, k)
    for before, name in zip(held, names):
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(before, part), getattr(getattr(system, name), part))


def test_direct_solve_raises_with_full_solution_and_stats(monkeypatch):
    g = build_grid(8)
    params = params_for(g)
    system = assemble_system(g, params)
    b = _rough_rhs(g, params)
    x, _ = system.solve(b)
    state = init_state(np.full(g.n_int, 0.3), np.full(g.n_loop, -0.2), g)
    state = replace(state, step=6)
    x_step, stats_step = system.solve(increment_rhs(state, system, g, params))
    monkeypatch.setattr(scheme, "RESIDUAL_TOL", 1e-300)
    with pytest.raises(SolveError) as err:
        system.solve(b)
    assert np.array_equal(err.value.x, x)
    assert err.value.stats.rel_residual > 1e-300
    assert err.value.stats.rel_residual <= 1e-10
    # through step: the same solution and stats, and the step is named
    with pytest.raises(SolveError, match=r"direct solve residual .* at step 7$") as err:
        step(state, system, g, params)
    assert np.array_equal(err.value.x, x_step)
    assert err.value.stats == stats_step


# ---- D4 basis --------------------------------------------------------------


def vertex_permutation(grid, fi, fj):
    """The permutation of [phi | psi] that sends vertex (i, j) to
    (fi(i, j), fj(i, j)): perm[m] is where vertex m goes."""
    n1 = grid.n + 1
    order = np.concatenate([np.argwhere(np.ones((grid.n - 1, grid.n - 1))) + 1, grid.loop_ij])
    at = np.empty(n1 * n1, dtype=int)
    at[order @ [n1, 1]] = np.arange(len(order))
    i, j = order.T
    return at[fi(i, j) * n1 + fj(i, j)]


@pytest.mark.parametrize("n", [4, 5, 8, 9, 50, 51])
def test_schur_commutes_with_the_symmetries_of_the_square(n):
    # exactly, for both mirror maps and the diagonal swap (i, j) -> (j, i);
    # the swap reverses the loop's orientation, which the periodic loop
    # Laplacian and the normal derivative do not see
    g = build_grid(n)
    schur = schur_matrix(assemble_system(g, params_for(g, beta1=0.1, beta2=0.3)))
    for fi, fj in ((lambda i, j: n - i, lambda i, j: j), (lambda i, j: i, lambda i, j: n - j),
                   (lambda i, j: j, lambda i, j: i)):
        perm = vertex_permutation(g, fi, fj)
        p = sp.csr_matrix((np.ones(perm.size), (perm, np.arange(perm.size))))
        moved = (p @ schur @ p.T).tocsr()
        moved.sort_indices()
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(moved, part), getattr(schur, part))


# ---- fixed points and invariants -------------------------------------------


@pytest.mark.parametrize("value", [0.0, 1.0])
@settings(max_examples=20, deadline=None)
@given(n=hst.integers(4, 12), beta=hst.floats(0.0, 1.0))
@example(n=4, beta=0.0)
def test_constant_fixed_points(value, n, beta):
    g = build_grid(n)
    params = params_for(g, beta1=beta, beta2=beta)
    system = assemble_system(g, params)
    st = init_state(np.full(g.n_int, value), np.full(g.n_loop, value), g)
    for _ in range(5):
        st, _ = step(st, system, g, params)
    assert np.abs(st.phi - value).max() < 1e-12
    assert np.abs(st.psi - value).max() < 1e-12


@settings(max_examples=30, deadline=None)
@given(
    value=hst.sampled_from([-1.0, 0.0, 1.0]),
    n=hst.integers(4, 12),
    beta=hst.floats(0.0, 1.0),
)
@example(value=1.0, n=8, beta=0.1)
def test_constant_states_are_bitwise_fixed(value, n, beta):
    # in increment form the right-hand side of a constant state at a well
    # root is [r Phi | mu(y)] = [0 | 0] up to the rounding of R's entries,
    # so the increment rounds away: the fields do not move by one bit.  At
    # 0 it is exactly zero, and so are the solve's residual and the rates
    g = build_grid(n)
    params = params_for(g, beta1=beta, beta2=beta)
    system = assemble_system(g, params)
    phi0, psi0 = np.full(g.n_int, value), np.full(g.n_loop, value)
    st = init_state(phi0, psi0, g)
    for _ in range(5):
        st, stats = step(st, system, g, params)
        assert np.array_equal(st.phi, phi0) and np.array_equal(st.psi, psi0)
        if value == 0.0:
            assert stats.rel_residual == 0.0
            assert not (st.Phi.any() or st.Psi.any() or st.P.any() or st.Q.any())


def test_masses_exact_to_roundoff():
    # K y never enters floating point, so each step changes the bulk and
    # surface sums only by the roundoff of the increment's own sums
    from hyperch import bulk_mass, surface_mass

    g = build_grid(8)
    for beta in (0.0, 0.1, 1.0):
        params = params_for(g, beta1=beta, beta2=beta)
        system = assemble_system(g, params)
        for case in (1, 2, 3, 4):
            phi0, psi0 = init_case(CaseSpec(case=case, seed=7, n=8), g)
            st = init_state(phi0, psi0, g)
            mb0, ms0 = bulk_mass(st.phi, g), surface_mass(st.psi, g)
            for _ in range(50):
                st, _ = step(st, system, g, params)
                assert abs(bulk_mass(st.phi, g) - mb0) <= 1e-13, (case, beta)
                assert abs(surface_mass(st.psi, g) - ms0) <= 1e-13, (case, beta)


@settings(max_examples=15, deadline=None)
@given(
    n=hst.integers(4, 32),
    case=hst.integers(1, 4),
    seed=hst.integers(0, 2**16),
    beta1=hst.floats(0.0, 1.0),
    beta2=hst.floats(0.0, 1.0),
)
def test_per_step_mass_roundoff_over_grids_cases_and_relaxations(n, case, seed, beta1, beta2):
    # the bound of test_masses_exact_to_roundoff, on each step's change of
    # either mass, over random grid sizes, initial states and relaxations
    from hyperch import bulk_mass, surface_mass

    g = build_grid(n)
    params = params_for(g, beta1=beta1, beta2=beta2)
    system = assemble_system(g, params)
    phi0, psi0 = init_case(CaseSpec(case=case, seed=seed, n=n), g)
    st = init_state(phi0, psi0, g)
    masses = bulk_mass(st.phi, g), surface_mass(st.psi, g)
    for _ in range(10):
        st, _ = step(st, system, g, params)
        new = bulk_mass(st.phi, g), surface_mass(st.psi, g)
        assert abs(new[0] - masses[0]) <= 1e-13
        assert abs(new[1] - masses[1]) <= 1e-13
        masses = new


def test_rate_mean_recurrence():
    # weighted bulk-rate sum contracts by beta/(beta+tau) each step;
    # the loop-rate sum does the same with plain summation
    g = build_grid(8)
    params = params_for(g, beta1=0.5, beta2=0.5)
    system = assemble_system(g, params)
    rng = np.random.default_rng(2)
    st = init_state(rng.uniform(-0.5, 0.5, g.n_int), rng.uniform(-0.5, 0.5, g.n_loop), g)
    w = bulk_quadrature_weights(g)
    tau = params.tau
    for _ in range(5):
        new, _ = step(st, system, g, params)
        lhs = (params.beta1 / tau + 1.0) * float(w @ new.Phi)
        rhs = (params.beta1 / tau) * float(w @ st.Phi)
        assert lhs == pytest.approx(rhs, abs=1e-6)  # rates are O(1/tau)
        lhs_l = (params.beta2 / tau + 1.0) * g.h * float(new.Psi.sum())
        rhs_l = (params.beta2 / tau) * g.h * float(st.Psi.sum())
        assert lhs_l == pytest.approx(rhs_l, abs=1e-6)
        st = new


@settings(max_examples=20, deadline=None)
@given(
    n=hst.integers(4, 12),
    case=hst.integers(1, 4),
    beta=hst.floats(0.0, 1.0),
    seed=hst.integers(0, 2**16),
)
@example(n=16, case=1, beta=0.0, seed=0)
def test_mass_invariants_over_run(n, case, beta, seed):
    from hyperch import bulk_mass, surface_mass

    g = build_grid(n)
    params = params_for(g, beta1=beta, beta2=beta)
    phi0, psi0 = init_case(CaseSpec(case=case, seed=seed, n=n), g)
    st = init_state(phi0, psi0, g)
    mb0, ms0 = bulk_mass(st.phi, g), surface_mass(st.psi, g)
    final, _ = run(st, g, params, t_end=50 * params.tau, diag_cadence=50)
    assert abs(bulk_mass(final.phi, g) - mb0) < 1e-10
    assert abs(surface_mass(final.psi, g) - ms0) < 1e-10


def test_energy_monotone_default_params():
    g = build_grid(16)
    params = params_for(g)
    phi0, psi0 = init_case(CaseSpec(case=1), g)
    _, records = run(init_state(phi0, psi0, g), g, params, t_end=100 * params.tau)
    e = [r.e_modified for r in records]
    assert all(b <= a + 1e-8 * (1 + abs(e[0])) for a, b in zip(e, e[1:]))


def _energy_law_defect(old, new, grid, params):
    """E_mod(new) - E_mod(old) plus every dissipated and stabilizing term
    of the scheme's energy identity, minus the wells' remainders; each
    term is an existing energy kernel."""
    h = grid.h
    d_phi, d_psi = new.phi - old.phi, new.psi - old.psi
    # the trapezoid weights total_energy gives the bulk well on the loop
    w_loop = np.where(np.arange(grid.n_loop) % grid.n == 0, 0.25, 0.5)

    def e_mod(st):
        return diag_record(st, grid, params).e_modified

    def remainder(val, der, width, a, b):
        return val(b, width) - val(a, width) - der(a, width) * (b - a)

    dissipated = (
        params.tau / params.M1 * grad_norm_sq_interior(new.P, grid)
        + params.tau / params.M2 * grad_norm_sq_loop(new.Q, grid)
        + params.beta1 / (2 * params.M1) * grad_norm_sq_interior(new.P - old.P, grid)
        + params.beta2 / (2 * params.M2) * grad_norm_sq_loop(new.Q - old.Q, grid)
        + dirichlet_energy_bulk(d_phi, d_psi, grid) + dirichlet_energy_loop(d_psi, grid)
        + params.s1 * h * h * float(d_phi @ d_phi) + params.s2 * h * float(d_psi @ d_psi)
        + params.s1 * h * h * float(w_loop @ (d_psi * d_psi))
    )
    wells = (
        h * h * remainder(F_val, f_val, params.eps, old.phi, new.phi).sum()
        + h * h * float(w_loop @ remainder(F_val, f_val, params.eps, old.psi, new.psi))
        + h * remainder(G_val, g_val, params.delta, old.psi, new.psi).sum()
    )
    return e_mod(new) - e_mod(old) + dissipated - wells, e_mod(new)


@settings(max_examples=20, deadline=None)
@given(
    n=hst.integers(4, 12),
    case=hst.integers(1, 4),
    beta=hst.floats(0.0, 1.0),
    seed=hst.integers(0, 2**16),
)
def test_energy_law_is_an_identity(n, case, beta, seed):
    # the potential rows are the gradient of the discrete energy, so the
    # change of the modified energy over a step is exactly minus the
    # dissipation and the stabilizers' terms, plus the wells' Taylor
    # remainders: criterion 2's sign, closed to roundoff
    g = build_grid(n)
    params = params_for(g, beta1=beta, beta2=beta)
    system = assemble_system(g, params)
    phi0, psi0 = init_case(CaseSpec(case=case, seed=seed, n=n), g)
    state = init_state(phi0, psi0, g)
    for _ in range(20):
        new, _ = step(state, system, g, params)
        defect, e_mod = _energy_law_defect(state, new, g, params)
        assert abs(defect) <= 1e-12 * (1.0 + abs(e_mod))
        state = new


@pytest.mark.parametrize("n", [4, 5, 7])
def test_mu_closure_pairs_with_neumann_laplacian(n):
    # eliminating the oracle's mu_edge through its node-by-node closure
    # rows must leave exactly the symmetric mirror-ghost Neumann Laplacian
    # that the bulk evolution rows apply and the modified energy's kinetic term
    # inverts; otherwise the discrete energy law cannot close
    g = build_grid(n)
    params = params_for(g)
    phi, _, mu_int, _ = split_unknowns(np.arange(2 * (g.n_int + g.n_loop)), g)
    a, _ = eliminate_mu_edge(g, dense_matrix(g, params))
    reduced = a[np.ix_(phi, mu_int)]
    want = -params.M1 * neumann_laplacian_matrix(g.n).toarray()
    assert np.abs(reduced - want).max() <= 1e-12 * np.abs(want).max()


def test_energy_monotone_strong_relaxation_rough_data():
    # rough data under relaxation: the kinetic term ramps up during the
    # initial transient, so any mismatch between the mu closure and the
    # kinetic term's Laplacian shows as a rise of the modified energy
    g = build_grid(16)
    params = params_for(g, beta1=0.1, beta2=0.1)
    phi0, psi0 = init_case(CaseSpec(case=1), g)
    _, records = run(init_state(phi0, psi0, g), g, params, t_end=300 * params.tau)
    e = np.array([r.e_modified for r in records])
    assert len(e) == 301
    assert float(np.diff(e).max()) <= 1e-8 * (1.0 + abs(e[0]))


@settings(max_examples=40, deadline=None)
@given(
    n=hst.integers(4, 12),
    case=hst.integers(1, 4),
    beta=hst.one_of(hst.just(0.0), hst.floats(0.0, 1.0, exclude_min=True)),
    seed=hst.integers(0, 2**16),
)
@example(n=4, case=4, beta=0.7890625, seed=0)  # computed residual ~1e-23, below Phi's roundoff
def test_carried_potentials_match_poisson_oracle(n, case, beta, seed):
    # every row's modified energy, read from the potentials the step
    # carries, equals the Poisson-solve definition.  The potentials invert
    # the rates up to the solve residual: l_mu P - (Phi - mean Phi) is at
    # most 2 max_k ||r_k||_2, with r_k the full-system residual of step k,
    # plus the roundoff of the difference quotient Phi (eps |phi|/tau) and
    # of l_mu P (eps ||l_mu|| |P|).  Measured over 400 random runs: at
    # most 0.33 of that bound.
    eps = np.finfo(float).eps
    g = build_grid(n)
    params = params_for(g, beta1=beta, beta2=beta)
    phi0, psi0 = init_case(CaseSpec(case=case, seed=seed, n=n), g)
    state = init_state(phi0, psi0, g)
    system = assemble_system(g, params)
    laps = (neumann_laplacian_matrix(n), loop_laplacian_matrix(n))
    lap_norms = [float(abs(lap).sum(axis=1).max()) for lap in laps]
    field_max = [float(np.abs(phi0).max()), float(np.abs(psi0).max())]
    resid = 0.0
    for _ in range(30):
        b = increment_rhs(state, system, g, params)
        state, stats = step(state, system, g, params)
        resid = max(resid, stats.rel_residual * float(np.linalg.norm(b)))
        row = diag_record(state, g, params, stats)
        want = modified_energy(state, g, params)
        assert abs(row.e_modified - want) <= 1e-10 * (1.0 + abs(row.e_total))
        blocks = zip((state.phi, state.psi), (state.Phi, state.Psi), (state.P, state.Q))
        for j, (fld, rate, pot) in enumerate(blocks):
            field_max[j] = max(field_max[j], float(np.abs(fld).max()))
            defect = float(np.abs(laps[j] @ pot - (rate - rate.mean())).max())
            roundoff = eps * (field_max[j] / params.tau + lap_norms[j] * float(np.abs(pot).max())
                              + float(np.abs(rate).max()))
            assert defect <= 2.0 * resid + roundoff


def test_run_with_relaxation_makes_no_poisson_solve(monkeypatch):
    # diagnostic rows and beta-sweep probes read the carried potentials;
    # the Poisson solvers are only the oracle
    def refuse(*args, **kwargs):
        raise AssertionError("a diagnostic row called a Poisson solver")

    monkeypatch.setattr(operators, "solve_poisson_neumann_zeromean", refuse)
    monkeypatch.setattr(operators, "solve_poisson_loop_zeromean", refuse)
    g = build_grid(8)
    params = params_for(g, beta1=0.1, beta2=0.1)
    phi0, psi0 = init_case(CaseSpec(case=2, seed=5, n=8), g)
    _, records = run(init_state(phi0, psi0, g), g, params, t_end=20 * params.tau)
    assert len(records) == 21
    assert all(r.e_modified > r.e_total for r in records[1:])
    res = beta_sweep(CaseSpec(case=1, n=8), [0.1], 10 * params.tau, [5 * params.tau])
    assert len(res.probes) == 1


def test_nan_rhs_fails_solve_and_step_names_it(g4):
    # NaN compares false with every tolerance: the solve must reject it
    # rather than report a NaN residual as met
    params = params_for(g4)
    system = assemble_system(g4, params)
    st = init_state(np.zeros(g4.n_int), np.zeros(g4.n_loop), g4)
    b = assemble_rhs(st, g4, params)
    b[-1] = np.nan
    with pytest.raises(SolveError) as err:
        system.solve(b)
    assert np.isnan(err.value.stats.rel_residual)
    bad = replace(st, Psi=np.full(g4.n_loop, np.nan), step=6)
    with pytest.raises(NonFiniteStateError, match=r"right-hand side at step 7$"):
        step(bad, system, g4, params)


def test_non_finite_state_aborts(g4):
    params = params_for(g4)
    system = assemble_system(g4, params)
    st = init_state(np.zeros(g4.n_int), np.zeros(g4.n_loop), g4)
    bad = State(
        phi=np.full(g4.n_int, np.nan), psi=st.psi, Phi=st.Phi, Psi=st.Psi, P=st.P, Q=st.Q,
        t=0.0, step=0,
    )
    with pytest.raises(NonFiniteStateError):
        step(bad, system, g4, params)


# ---- run loop ----------------------------------------------------------------


def test_num_steps_policy():
    assert num_steps(0.0, 1e-4) == 0
    assert num_steps(10e-4, 1e-4) == 10
    assert num_steps(0.1, 2e-3) == 50  # guard against 50.0000000000001 ceiling
    assert num_steps(9.5e-4, 1e-4) == 10
    with pytest.raises(ValueError):
        num_steps(-1.0, 1e-4)


def test_run_zero_time(g4):
    params = params_for(g4)
    st = init_state(np.zeros(g4.n_int), np.zeros(g4.n_loop), g4)
    final, records = run(st, g4, params, t_end=0.0)
    assert final.step == 0
    assert len(records) == 1
    assert records[0].solver_residual == 0.0


def test_run_ten_steps_cadence_one(g4):
    params = params_for(g4)
    st = init_state(np.zeros(g4.n_int), np.ones(g4.n_loop), g4)
    final, records = run(st, g4, params, t_end=10 * params.tau)
    assert final.step == 10
    assert [r.step for r in records] == list(range(11))


def test_run_cadence_and_final_record(g4):
    params = params_for(g4)
    st = init_state(np.zeros(g4.n_int), np.ones(g4.n_loop), g4)
    _, records = run(st, g4, params, t_end=7 * params.tau, diag_cadence=3)
    assert [r.step for r in records] == [0, 3, 6, 7]

