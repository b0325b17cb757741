import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from dense_oracle import dense_matrix, dense_rhs, eliminate_mu_edge, offsets

from hyperch import (
    CaseSpec,
    ModelParams,
    NonFiniteStateError,
    SolveError,
    State,
    UnknownLayout,
    assemble_rhs,
    assemble_system,
    beta_sweep,
    build_grid,
    bulk_quadrature_weights,
    init_case,
    init_state,
    modified_energy,
    run,
    step,
)
from hyperch import operators, scheme
from hyperch.operators import loop_laplacian_matrix, neumann_laplacian_matrix
from hyperch.scheme import diag_record, num_steps


@pytest.fixture
def g4():
    return build_grid(4)


def params_for(grid, **kw):
    return ModelParams.with_defaults(grid.h, **kw)


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


# ---- layout and assembly ---------------------------------------------------


def test_layout_dimension(g4):
    lay = UnknownLayout.for_grid(g4)
    assert lay.dim == 50  # 2*9 + 2*16
    blocks = [
        (lay.off_phi, lay.n_int),
        (lay.off_mu_int, lay.n_int),
        (lay.off_psi, lay.n_loop),
        (lay.off_mu_loop, lay.n_loop),
    ]
    covered = []
    for off, size in blocks:
        covered.extend(range(off, off + size))
    assert sorted(covered) == list(range(lay.dim))


def test_constant_vector_row_sums(g4):
    params = params_for(g4, beta1=0.3, beta2=0.7)
    system = assemble_system(g4, params)
    lay = system.layout
    c = 1.7
    x = np.zeros(lay.dim)
    x[: lay.n_int] = c
    x[lay.off_psi : lay.off_psi + lay.n_loop] = c
    y = system.matrix @ x
    tau = params.tau
    k1 = (params.beta1 / tau + 1.0) / tau
    k2 = (params.beta2 / tau + 1.0) / tau
    # Laplacians and normal derivatives annihilate constants
    assert np.allclose(y[: lay.n_int], k1 * c, rtol=1e-12)
    assert np.allclose(y[lay.off_psi : lay.off_psi + lay.n_loop], k2 * c, rtol=1e-12)


@pytest.mark.parametrize("n, beta", ORACLE_CASES)
def test_matrix_matches_dense_oracle(n, beta):
    g = build_grid(n)
    params = params_for(g, beta1=beta, beta2=beta)
    system = assemble_system(g, params)
    oracle, _ = eliminate_mu_edge(g, dense_matrix(g, params))
    assert np.allclose(system.matrix.toarray(), oracle, rtol=1e-13, atol=1e-9)


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
    got = assemble_rhs(st, g4, params)
    _, want = eliminate_mu_edge(
        g4, dense_matrix(g4, params), dense_rhs(g4, params, st.phi, st.psi, st.Phi, st.Psi)
    )
    assert np.allclose(got, want, rtol=1e-13, atol=1e-13)


def test_rhs_well_roots_leave_stabilizer_only(g4):
    # at phi = psi = 1 the well derivatives vanish, so the potential rows
    # carry just the -s terms
    params = params_for(g4)
    st = init_state(np.ones(g4.n_int), np.ones(g4.n_loop), g4)
    b = assemble_rhs(st, g4, params)
    lay = UnknownLayout.for_grid(g4)
    assert np.allclose(b[lay.off_mu_int : lay.off_mu_int + lay.n_int], -params.s1)
    assert np.allclose(b[lay.off_mu_loop :], -params.s2)


def test_rhs_no_rate_memory_without_relaxation(g4):
    # with beta1 = 0 the bulk evolution row reads phi/tau regardless of Phi
    params = params_for(g4)
    rng = np.random.default_rng(3)
    phi = rng.standard_normal(g4.n_int)
    st = State(
        phi=phi, psi=np.zeros(g4.n_loop),
        Phi=rng.standard_normal(g4.n_int), Psi=np.zeros(g4.n_loop),
        P=np.zeros(g4.n_int), Q=np.zeros(g4.n_loop),
        t=0.0, step=0,
    )
    b = assemble_rhs(st, g4, params)
    assert np.allclose(b[: g4.n_int], phi / params.tau)


@pytest.mark.parametrize("beta", [0.0, 0.5])
def test_step_matches_dense_direct_solve(g4, beta):
    # one step from smooth initial data, all unknown blocks compared
    params = params_for(g4, beta1=beta, beta2=beta)
    phi0, psi0 = init_case(CaseSpec(case=3), g4)
    st = init_state(phi0, psi0, g4)
    system = assemble_system(g4, params)
    b = assemble_rhs(st, g4, params)
    x_dense = np.linalg.solve(*eliminate_mu_edge(
        g4, dense_matrix(g4, params), dense_rhs(g4, params, st.phi, st.psi, st.Phi, st.Psi)
    ))
    x_sparse, _ = system.solve(b)
    assert np.abs(x_sparse - x_dense).max() < 1e-10
    new, _ = step(st, system, g4, params)
    lay = system.layout
    assert np.abs(new.phi - lay.phi_of(x_dense)).max() < 1e-10
    assert np.abs(new.psi - lay.psi_of(x_dense)).max() < 1e-10
    assert np.allclose(new.Phi, (new.phi - st.phi) / params.tau)
    assert np.allclose(new.Psi, (new.psi - st.psi) / params.tau)
    assert new.step == 1 and new.t == pytest.approx(params.tau)


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
    got = system.schur.toarray()
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


def test_operators_are_the_blocks_the_scheme_solves_with():
    # apply_bulk_laplacian, normal_derivative and apply_loop_laplacian are
    # products with the matrices the step system is assembled from: rows
    # (b), (d) and (c) of system.matrix, up to roundoff
    g = build_grid(6)
    params = params_for(g, beta1=0.3, beta2=0.3)
    system = assemble_system(g, params)
    lay = system.layout
    rng = np.random.default_rng(8)
    phi, psi, q = (rng.standard_normal(k) for k in (g.n_int, g.n_loop, g.n_loop))
    x = np.zeros(lay.dim)
    x[lay.off_phi : lay.off_phi + lay.n_int] = phi
    x[lay.off_psi : lay.off_psi + lay.n_loop] = psi
    y = system.matrix @ x
    x_q = np.zeros(lay.dim)
    x_q[lay.off_mu_loop :] = q
    y_q = system.matrix @ x_q
    lap_loop = operators.apply_loop_laplacian(psi, g)
    nd = np.array([operators.normal_derivative(phi, psi, g, k) for k in range(g.n_loop)])
    scale = 1e-13 * (1.0 / g.h**2 + params.s1 + params.s2)
    # rows (b) on [phi | psi]: (l_ii - s1 I) phi + l_il psi
    assert np.abs(operators.apply_bulk_laplacian(phi, psi, g)
                  - (lay.mu_int_of(y) + params.s1 * phi)).max() <= scale * np.abs(x).max()
    # rows (d): -nd_phi phi + (l_loop - s2 I - nd_psi) psi
    assert np.abs(nd - (lap_loop - params.s2 * psi - lay.mu_loop_of(y))).max() <= (
        scale * np.abs(x).max())
    # rows (c) on mu_loop: -M2 l_loop q
    assert np.abs(operators.apply_loop_laplacian(q, g) + lay.psi_of(y_q) / params.M2).max() <= (
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


def test_direct_solve_reports_full_system_residual():
    g = build_grid(8)
    params = params_for(g, beta1=0.5, beta2=0.5)
    system = assemble_system(g, params)
    b = _rough_rhs(g, params)
    x, stats = system.solve(b)
    want = np.linalg.norm(b - system.matrix @ x) / np.linalg.norm(b)
    assert x.shape == (system.layout.dim,)
    assert stats.rel_residual == want


def test_direct_solve_raises_with_full_solution_and_stats(monkeypatch):
    g = build_grid(8)
    params = params_for(g)
    system = assemble_system(g, params)
    b = _rough_rhs(g, params)
    x, _ = system.solve(b)
    monkeypatch.setattr(scheme, "RESIDUAL_TOL", 1e-300)
    with pytest.raises(SolveError) as err:
        system.solve(b)
    assert np.array_equal(err.value.x, x)
    assert err.value.stats.rel_residual > 1e-300
    assert err.value.stats.rel_residual <= 1e-10


# ---- fixed points and invariants -------------------------------------------


@pytest.mark.parametrize("value", [0.0, 1.0])
def test_constant_fixed_points(g4, value):
    params = params_for(g4)
    system = assemble_system(g4, params)
    st = init_state(np.full(g4.n_int, value), np.full(g4.n_loop, value), g4)
    for _ in range(5):
        st, _ = step(st, system, g4, params)
    assert np.abs(st.phi - value).max() < 1e-12
    assert np.abs(st.psi - value).max() < 1e-12


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


def test_mass_invariants_over_run():
    from hyperch import bulk_mass, surface_mass

    g = build_grid(16)
    params = params_for(g)
    phi0, psi0 = init_case(CaseSpec(case=1), g)
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


@pytest.mark.parametrize("n", [4, 5, 7])
def test_mu_closure_pairs_with_neumann_laplacian(n):
    # eliminating the oracle's mu_edge through its node-by-node closure
    # rows must leave exactly the symmetric mirror-ghost Neumann Laplacian
    # that row (a) applies and the modified energy's kinetic term
    # inverts; otherwise the discrete energy law cannot close
    g = build_grid(n)
    params = params_for(g)
    lay = UnknownLayout.for_grid(g)
    a, _ = eliminate_mu_edge(g, dense_matrix(g, params))
    reduced = a[lay.off_phi : lay.off_phi + lay.n_int, lay.off_mu_int : lay.off_mu_int + lay.n_int]
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
        b = assemble_rhs(state, g, params)
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

