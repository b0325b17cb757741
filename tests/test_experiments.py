import numpy as np
import pytest

from hyperch import (
    CaseSpec,
    ModelParams,
    beta_sweep,
    build_grid,
    bulk_mass,
    convergence_study,
    fit_slope,
    init_case,
    init_state,
    run,
)
from hyperch import scheme


# ---- initial conditions -----------------------------------------------------


def test_case1_values():
    g = build_grid(10)
    phi, psi = init_case(CaseSpec(case=1), g)
    assert phi.shape == (81,) and (phi == 0.0).all()
    assert psi.shape == (40,) and (psi == 1.0).all()


def test_case2_determinism_and_ranges():
    g = build_grid(10)
    a_phi, a_psi = init_case(CaseSpec(case=2, seed=7), g)
    b_phi, b_psi = init_case(CaseSpec(case=2, seed=7), g)
    c_phi, c_psi = init_case(CaseSpec(case=2, seed=8), g)
    assert np.array_equal(a_phi, b_phi) and np.array_equal(a_psi, b_psi)
    assert not np.array_equal(a_phi, c_phi)
    assert not np.array_equal(a_psi, c_psi)
    assert (np.abs(a_phi) <= 0.1).all()
    assert ((0.4 <= a_psi) & (a_psi <= 0.6)).all()


def test_case3_samples_formula():
    g = build_grid(10)
    phi, psi = init_case(CaseSpec(case=3), g)
    assert phi[g.interior_index(2, 5)] == pytest.approx(
        np.sin(2 * np.pi * 0.2) * np.cos(2 * np.pi * 0.5)
    )
    k = g.loop_index(3, 0)
    assert psi[k] == pytest.approx(np.sin(2 * np.pi * 0.3))


def test_case4_indicator():
    g = build_grid(10)
    phi, psi = init_case(CaseSpec(case=4), g)
    # bottom-edge loop nodes with 0.3 <= x <= 0.7 are inside the droplet
    for k in range(g.n_loop):
        i, j = g.loop_ij[k]
        x, y = i * g.h, j * g.h
        want = 1.0 if (0.3 <= x <= 0.7 and y <= 0.5) else 0.0
        assert psi[k] == want
    xi, yi = g.interior_xy()
    want_int = ((0.3 <= xi) & (xi <= 0.7) & (yi <= 0.5)).astype(float)
    assert np.array_equal(phi, want_int)


@pytest.mark.parametrize("n", [10, 50])
def test_case4_initial_mass_near_droplet_area(n):
    g = build_grid(n)
    phi, _ = init_case(CaseSpec(case=4), g)
    assert abs(bulk_mass(phi, g) - 0.2) <= 2.0 * g.h


def test_case_spec_validation():
    with pytest.raises(ValueError):
        CaseSpec(case=5)
    with pytest.raises(ValueError):
        CaseSpec(case=2)  # no seed
    with pytest.raises(ValueError, match="seed must be >= 0"):
        CaseSpec(case=2, seed=-1)


# ---- slope fitting -----------------------------------------------------------


def test_fit_slope_first_order():
    assert fit_slope([(0.1, 0.1), (0.01, 0.01)]) == pytest.approx(1.0, abs=1e-12)


def test_fit_slope_second_order():
    assert fit_slope([(0.1, 0.01), (0.01, 0.0001)]) == pytest.approx(2.0, abs=1e-12)


def test_fit_slope_synthetic_tables():
    taus = [4e-3, 2e-3, 1e-3, 5e-4]
    assert fit_slope([(t, 3 * t) for t in taus]) == pytest.approx(1.0, abs=1e-12)
    assert fit_slope([(t, 3 * t * t) for t in taus]) == pytest.approx(2.0, abs=1e-12)


def test_fit_slope_rejects_bad_input():
    with pytest.raises(ValueError):
        fit_slope([(0.1, 0.1)])
    with pytest.raises(ValueError):
        fit_slope([(0.1, 0.0), (0.01, 0.01)])


def test_fit_slope_rejects_non_finite():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            fit_slope([(0.1, bad), (0.01, 0.01)])
        with pytest.raises(ValueError, match="finite"):
            fit_slope([(bad, 0.1), (0.01, 0.01)])


# ---- convergence study (smoke scale) ----------------------------------------


def test_convergence_smoke():
    res = convergence_study(
        n=8, taus=[4e-3, 2e-3, 1e-3], tau_ref=2.5e-4, t_end=0.02,
        case=CaseSpec(case=1, n=8),
    )
    assert res.err_phi[0] > res.err_phi[1] > res.err_phi[2]
    assert res.err_psi[0] > res.err_psi[1] > res.err_psi[2]
    assert 0.6 < res.slope_phi < 1.6
    assert 0.6 < res.slope_psi < 1.6


def test_convergence_pairwise_orders_are_two_point_slopes():
    # each pairwise order is the slope fitted through two consecutive points
    res = convergence_study(
        n=8, taus=[4e-3, 2e-3, 1e-3], tau_ref=2.5e-4, t_end=0.02,
        case=CaseSpec(case=2, seed=1, n=8),
    )
    for errs, orders in ((res.err_phi, res.orders_phi), (res.err_psi, res.orders_psi)):
        assert len(orders) == len(res.taus) - 1
        for i, p in enumerate(orders):
            pair = [(res.taus[i], errs[i]), (res.taus[i + 1], errs[i + 1])]
            assert p == pytest.approx(fit_slope(pair), rel=1e-12)


def test_convergence_rejects_coarse_reference():
    with pytest.raises(ValueError, match="reference tau"):
        convergence_study(8, [2e-3, 1e-3], 1e-3, 0.01, CaseSpec(case=1, n=8))


@pytest.mark.parametrize("taus", [[], [2e-3]])
def test_convergence_rejects_fewer_than_two_taus_before_stepping(monkeypatch, taus):
    # one tested step cannot give a slope: the study must say so, naming
    # taus, before it runs the reference
    calls = []
    real_step = scheme.step

    def counted_step(*args, **kwargs):
        calls.append(1)
        return real_step(*args, **kwargs)

    monkeypatch.setattr(scheme, "step", counted_step)
    with pytest.raises(ValueError, match="^taus: "):
        convergence_study(16, taus, 1e-4, 0.01, CaseSpec(case=1, n=16))
    assert len(calls) == 0


def test_convergence_rejects_off_lattice_t_end(monkeypatch):
    # 0.0101 is a multiple of tau_ref = 2.5e-5 but of none of the tested
    # steps; the study must fail before it takes a step
    def no_step(*args, **kwargs):
        raise AssertionError("stepped before checking t_end")

    monkeypatch.setattr(scheme, "step", no_step)
    with pytest.raises(ValueError, match="t_end"):
        convergence_study(8, [4e-3, 2e-3], 2.5e-5, 0.0101, CaseSpec(case=1, n=8))


def test_convergence_rejects_case_on_another_grid(monkeypatch):
    # the study's grid is built from n: a case of another n must fail,
    # naming n, before the study takes a step
    def no_step(*args, **kwargs):
        raise AssertionError("stepped before checking n")

    monkeypatch.setattr(scheme, "step", no_step)
    with pytest.raises(ValueError, match="^n: "):
        convergence_study(8, [4e-3, 2e-3], 2.5e-5, 0.004, CaseSpec(case=1, n=16))


# ---- beta sweep ---------------------------------------------------------------


def test_beta_sweep_single_beta_matches_plain_run():
    n = 8
    spec = CaseSpec(case=1, n=n)
    t_end = 20e-4
    probes = [10e-4, 20e-4]
    res = beta_sweep(spec, [0.0], t_end, probes)
    g = build_grid(n)
    params = ModelParams.with_defaults(g.h)
    phi0, psi0 = init_case(spec, g)
    _, records = run(init_state(phi0, psi0, g), g, params, t_end)
    by_step = {r.step: r for r in records}
    for probe in probes:
        rec = res.at(0.0, probe)
        k = round(probe / params.tau)
        assert rec.e_modified == pytest.approx(by_step[k].e_modified, rel=1e-12)
        assert rec.e_total == pytest.approx(by_step[k].e_total, rel=1e-12)
        assert rec.mass_bulk == pytest.approx(by_step[k].mass_bulk, rel=1e-12, abs=1e-14)


def test_beta_sweep_computes_only_probe_rows(monkeypatch):
    # rows only at the probes, and no step after the last probe
    steps = []
    solves = []
    record, advance = scheme.diag_record, scheme.step

    def counted(state, *args, **kwargs):
        steps.append(state.step)
        return record(state, *args, **kwargs)

    def counted_step(state, *args, **kwargs):
        solves.append(state.step + 1)
        return advance(state, *args, **kwargs)

    monkeypatch.setattr(scheme, "diag_record", counted)
    monkeypatch.setattr(scheme, "step", counted_step)
    res = beta_sweep(CaseSpec(case=1, n=8), [0.1], 20e-4, [5e-4, 10e-4])
    assert steps == [5, 10]
    assert solves == list(range(1, 11))
    assert [r.time for r in res.probes] == [5e-4, 10e-4]


def test_beta_sweep_masses_constant_across_probes():
    spec = CaseSpec(case=1, n=8)
    res = beta_sweep(spec, [0.0, 0.1], 20e-4, [5e-4, 10e-4, 20e-4])
    for beta in (0.0, 0.1):
        recs = [r for r in res.probes if r.beta == beta]
        mb = [r.mass_bulk for r in recs]
        ms = [r.mass_surf for r in recs]
        assert max(mb) - min(mb) < 1e-10
        assert max(ms) - min(ms) < 1e-10


def test_beta_sweep_rejects_probe_beyond_end():
    with pytest.raises(ValueError):
        beta_sweep(CaseSpec(case=1, n=8), [0.0], 1e-3, [2e-3])


def test_beta_sweep_rejects_probe_before_start():
    with pytest.raises(ValueError, match="probe_times: time -0.0002 is before"):
        beta_sweep(CaseSpec(case=1, n=8), [0.0], 1e-3, [-2e-4, 5e-4])


def test_runs_are_deterministic():
    spec = CaseSpec(case=2, seed=123, n=8)
    g = build_grid(8)
    params = ModelParams.with_defaults(g.h)
    phi0, psi0 = init_case(spec, g)
    a, _ = run(init_state(phi0, psi0, g), g, params, 10 * params.tau, diag_cadence=10)
    b, _ = run(init_state(phi0, psi0, g), g, params, 10 * params.tau, diag_cadence=10)
    assert np.array_equal(a.phi, b.phi)
    assert np.array_equal(a.psi, b.psi)
