"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

The heavy fixture runs all twelve production-scale simulations (cases 1-4
times relaxation strengths 0, 0.1, 1 at n=50 for 2000 steps) once and
shares the per-step diagnostics across the energy, mass, ordering and
solver-health criteria.  Solver health is the full coupled system's
relative residual (the ``solver_residual`` of every step), which the
Schur-reduced direct solve must hold to 1e-10.
"""

import numpy as np
import pytest

from dense_oracle import dense_matrix, dense_rhs, eliminate_mu_edge

import hyperch as hc
from hyperch.operators import loop_laplacian_matrix, neumann_laplacian_matrix
from hyperch.scheme import split_unknowns

N_RUN = 50
STEPS = 2000
BETAS = (0.0, 0.1, 1.0)
CASES = (1, 2, 3, 4)
CASE2_SEED = 7


def report(criterion: str, ok: bool, detail: str):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def case_for(case: int, n: int = N_RUN) -> hc.CaseSpec:
    return hc.CaseSpec(case=case, seed=CASE2_SEED if case == 2 else None, n=n)


@pytest.fixture(scope="session")
def production_runs():
    """Diagnostics series for every (case, beta) at n=50, 2000 steps."""
    grid = hc.build_grid(N_RUN)
    out = {}
    for beta in BETAS:
        params = hc.ModelParams.with_defaults(grid.h, beta1=beta, beta2=beta)
        system = hc.assemble_system(grid, params)
        for case in CASES:
            phi0, psi0 = hc.init_case(case_for(case), grid)
            state = hc.init_state(phi0, psi0, grid)
            _, records = hc.run(
                state, grid, params, t_end=STEPS * params.tau,
                diag_cadence=1, system=system,
            )
            assert len(records) == STEPS + 1
            out[(case, beta)] = records
    return out


def test_criterion_1_temporal_convergence():
    res = hc.convergence_study(
        n=32,
        taus=[4e-3, 2e-3, 1e-3, 5e-4],
        tau_ref=2.5e-5,
        t_end=0.1,
        case=case_for(1, n=32),
    )
    monotone_phi = all(a > b for a, b in zip(res.err_phi, res.err_phi[1:]))
    monotone_psi = all(a > b for a, b in zip(res.err_psi, res.err_psi[1:]))
    ok = (
        0.85 <= res.slope_phi <= 1.15
        and 0.85 <= res.slope_psi <= 1.15
        and monotone_phi
        and monotone_psi
    )
    report(
        "criterion 1 (first-order temporal convergence)",
        ok,
        f"slope_phi={res.slope_phi:.4f}, slope_psi={res.slope_psi:.4f} "
        f"(window [0.85, 1.15]), errors monotone: phi={monotone_phi}, psi={monotone_psi}; "
        f"pairwise orders phi {', '.join(f'{p:.3f}' for p in res.orders_phi)}, "
        f"psi {', '.join(f'{p:.3f}' for p in res.orders_psi)}",
    )


def test_criterion_2_energy_dissipation(production_runs):
    failures = []
    worst = 0.0
    for (case, beta), records in production_runs.items():
        e = np.array([r.e_modified for r in records])
        tol = 1e-8 * (1.0 + abs(e[0]))
        viol = float((e[1:] - e[:-1]).max())
        worst = max(worst, viol)
        if viol > tol:
            failures.append(f"case {case} beta {beta}: max rise {viol:.3e} > {tol:.2e}")
    report(
        "criterion 2 (modified-energy dissipation, 12 runs x 2000 steps)",
        not failures,
        f"worst per-step rise {worst:.3e}; " + ("; ".join(failures) if failures else "all monotone"),
    )


def test_criterion_3_mass_conservation(production_runs):
    failures = []
    worst_b = worst_s = 0.0
    for (case, beta), records in production_runs.items():
        mb = np.array([r.mass_bulk for r in records])
        ms = np.array([r.mass_surf for r in records])
        db = float(np.abs(mb - mb[0]).max())
        ds = float(np.abs(ms - ms[0]).max())
        worst_b, worst_s = max(worst_b, db), max(worst_s, ds)
        if db > 1e-6 * (1 + abs(mb[0])):
            failures.append(f"case {case} beta {beta}: bulk drift {db:.3e}")
        if ds > 1e-8 * (1 + abs(ms[0])):
            failures.append(f"case {case} beta {beta}: surface drift {ds:.3e}")
    report(
        "criterion 3 (mass conservation, 12 runs x 2000 steps)",
        not failures,
        f"worst drift bulk {worst_b:.3e} (tol 1e-6 scale), "
        f"surface {worst_s:.3e} (tol 1e-8 scale)"
        + ("; " + "; ".join(failures) if failures else ""),
    )


def test_criterion_4_beta_retardation(production_runs):
    probe_step = round(0.05 / 1e-4)
    e = {beta: production_runs[(1, beta)][probe_step].e_modified for beta in BETAS}
    e0 = production_runs[(1, 0.0)][0].e_modified
    margin = 1e-6 * abs(e0)
    ok = e[1.0] >= e[0.1] + margin and e[0.1] >= e[0.0] + margin
    report(
        "criterion 4 (relaxation retards energy decay)",
        ok,
        f"E(beta=1)={e[1.0]:.6g} >= E(beta=0.1)={e[0.1]:.6g} >= E(beta=0)={e[0.0]:.6g} "
        f"with margin {margin:.2e} at T=0.05",
    )


@pytest.mark.parametrize("value", [1.0, 0.0])
def test_criterion_5_fixed_points(value):
    grid = hc.build_grid(N_RUN)
    params = hc.ModelParams.with_defaults(grid.h)
    system = hc.assemble_system(grid, params)
    state = hc.init_state(
        np.full(grid.n_int, value), np.full(grid.n_loop, value), grid
    )
    for _ in range(100):
        state, _ = hc.step(state, system, grid, params)
    dev = max(
        float(np.abs(state.phi - value).max()), float(np.abs(state.psi - value).max())
    )
    report(
        f"criterion 5 (constant state {value} is a fixed point)",
        dev <= 1e-9,
        f"max deviation {dev:.3e} after 100 steps (tol 1e-9)",
    )


def test_criterion_6_operator_consistency():
    # second-order bulk Laplacian
    errs, ns = [], [16, 32, 64]
    for n in ns:
        g = hc.build_grid(n)
        xi, yi = g.interior_xy()
        xl, yl = g.loop_xy()
        smooth = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
        lap = hc.apply_bulk_laplacian(smooth(xi, yi), smooth(xl, yl), g)
        errs.append(float(np.abs(lap + 2 * np.pi**2 * smooth(xi, yi)).max()))
    slope = -float(np.polyfit(np.log(ns), np.log(errs), 1)[0])
    ok_slope = abs(slope - 2.0) <= 0.2

    # normal derivative exact on affine fields
    g = hc.build_grid(12)
    xi, yi = g.interior_xy()
    xl, yl = g.loop_xy()
    phi, psi = 1.5 - 2.0 * xi + 0.75 * yi, 1.5 - 2.0 * xl + 0.75 * yl
    nd = hc.normal_derivative(phi, psi, g)
    # outward derivative on each side a node lies on; corners average two
    nd_err = 0.0
    for k, (i, j) in enumerate(g.loop_ij):
        sides = [d for on_side, d in ((i == 0, 2.0), (i == g.n, -2.0),
                                      (j == 0, -0.75), (j == g.n, 0.75)) if on_side]
        nd_err = max(nd_err, abs(float(nd[k]) - float(np.mean(sides))))
    ok_nd = nd_err <= 1e-12

    # loop Laplacian conservativity
    g8 = hc.build_grid(8)
    rng = np.random.default_rng(11)
    lap_sum = max(
        abs(float(hc.apply_loop_laplacian(rng.uniform(-1, 1, g8.n_loop), g8).sum()))
        for _ in range(25)
    )
    ok_sum = lap_sum < 1e-12

    report(
        "criterion 6 (operator consistency)",
        ok_slope and ok_nd and ok_sum,
        f"laplacian slope {slope:.3f} (2 +- 0.2), affine normal-derivative error "
        f"{nd_err:.2e} (tol 1e-12), loop-laplacian sum {lap_sum:.2e} (tol 1e-12)",
    )


@pytest.mark.parametrize("beta", [0.0, 0.5])
def test_criterion_7_oracle_equivalence(beta):
    g = hc.build_grid(4)
    params = hc.ModelParams.with_defaults(g.h, beta1=beta, beta2=beta)
    phi0, psi0 = hc.init_case(hc.CaseSpec(case=3, n=4), g)
    state = hc.init_state(phi0, psi0, g)
    system = hc.assemble_system(g, params)
    # step solves for the increment: [y_new - y | mu], moved back to [y_new | mu]
    y = np.concatenate([state.phi, state.psi])
    b = hc.assemble_rhs(state, g, params)
    b[y.size :] -= system.apply_rows(state.phi, state.psi)
    x_sparse, _ = system.solve(b)
    x_sparse[: y.size] += y
    dense = dense_matrix(g, params)
    rhs = dense_rhs(g, params, state.phi, state.psi, state.Phi, state.Psi)
    x_dense = np.linalg.solve(*eliminate_mu_edge(g, dense, rhs))
    devs = {
        name: np.abs(got - want).max()
        for name, got, want in zip(
            ("phi", "psi", "mu_int", "mu_loop"),
            split_unknowns(x_sparse, g),
            split_unknowns(x_dense, g),
        )
    }
    worst = max(devs.values())
    report(
        f"criterion 7 (dense-oracle equivalence, beta={beta})",
        worst < 1e-10,
        "max |sparse - dense| per block: "
        + ", ".join(f"{k}={v:.2e}" for k, v in devs.items())
        + " (tol 1e-10)",
    )


def test_criterion_8_inverse_laplacian_diagnostics():
    g = hc.build_grid(32)
    rng = np.random.default_rng(13)
    w = rng.standard_normal(g.n_int)
    w -= w.mean()
    p = hc.solve_poisson_neumann_zeromean(w, g, tol=1e-9)
    rb = float(np.abs(neumann_laplacian_matrix(g.n) @ p - w).max())
    wl = rng.standard_normal(g.n_loop)
    wl -= wl.mean()
    q = hc.solve_poisson_loop_zeromean(wl, g, tol=1e-9)
    rl = float(np.abs(loop_laplacian_matrix(g.n) @ q - wl).max())

    params = hc.ModelParams.with_defaults(g.h)  # beta = 0
    st = hc.init_state(rng.uniform(-1, 1, g.n_int), rng.uniform(-1, 1, g.n_loop), g)
    st = hc.State(
        phi=st.phi, psi=st.psi,
        Phi=rng.standard_normal(g.n_int), Psi=rng.standard_normal(g.n_loop),
        P=st.P, Q=st.Q, t=0.0, step=0,
    )
    _, _, e_total = hc.total_energy(st.phi, st.psi, g, params)
    exact_equal = hc.modified_energy(st, g, params) == e_total
    report(
        "criterion 8 (inverse-Laplacian diagnostics)",
        rb <= 1e-9 and rl <= 1e-9 and exact_equal,
        f"round-trip residuals bulk {rb:.2e}, loop {rl:.2e} (tol 1e-9); "
        f"modified == total at beta=0: {exact_equal}",
    )


def test_criterion_9_solver_health(production_runs):
    # every step of the production runs meets the 1e-10 residual
    # contract on the full coupled system
    worst_resid = max(
        max(r.solver_residual for r in records)
        for records in production_runs.values()
    )
    report(
        "criterion 9 (solver health)",
        worst_resid <= 1e-10,
        f"direct residual max {worst_resid:.2e} over 12 runs x 2000 steps (contract 1e-10)",
    )
