import numpy as np
import pytest

from hyperch import (
    F_val,
    G_val,
    ModelParams,
    build_grid,
    bulk_mass,
    bulk_quadrature_weights,
    f_val,
    g_val,
    init_state,
    modified_energy,
    surface_mass,
    total_energy,
)
from hyperch.operators import neumann_laplacian_matrix


# ---- potentials ----------------------------------------------------------


def test_well_roots():
    for e in (0.02, 1.0):
        assert F_val(1.0, e) == 0.0
        assert F_val(-1.0, e) == 0.0
        assert G_val(1.0, e) == 0.0
    assert f_val(0.0, 0.5) == 0.0
    assert f_val(1.0, 0.5) == 0.0
    assert f_val(-1.0, 0.5) == 0.0
    assert g_val(0.0, 2.0) == 0.0


def test_well_hand_values():
    assert F_val(0.0, 0.02) == pytest.approx(625.0, rel=1e-14)
    assert G_val(0.0, 0.02) == pytest.approx(625.0, rel=1e-14)
    assert f_val(0.5, 1.0) == pytest.approx(-0.375, rel=1e-14)
    assert g_val(2.0, 1.0) == pytest.approx(6.0, rel=1e-14)


def test_wells_nonnegative():
    rng = np.random.default_rng(0)
    x = rng.uniform(-5, 5, 1000)
    assert (F_val(x, 0.3) >= 0).all()
    assert (G_val(x, 0.7) >= 0).all()


def test_f_is_derivative_of_F():
    x = np.linspace(-2, 2, 41)
    for e in (1e-4, 1e-5):
        fd = (F_val(x + e, 0.7) - F_val(x - e, 0.7)) / (2 * e)
        # central difference error is ~ e^2 * F'''/6 with F''' = 6 phi / eps^2
        bound = 10.0 * e * e * np.abs(x) / 0.7**2 + 1e-12
        assert (np.abs(fd - f_val(x, 0.7)) <= bound).all()


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(M1=0.0)
    with pytest.raises(ValueError):
        ModelParams(beta1=-0.1)
    with pytest.raises(ValueError):
        ModelParams(tau=0.0)
    p = ModelParams.with_defaults(h=0.01)
    assert p.eps == 0.02 and p.delta == 0.02
    assert p.s1 == pytest.approx(5000.0) and p.s2 == pytest.approx(5000.0)


# ---- masses --------------------------------------------------------------


def test_bulk_quadrature_weights_structure():
    g = build_grid(5)
    w = bulk_quadrature_weights(g).reshape(4, 4)
    # uniform 1/(n-1)^2 per interior node, boundary-adjacent rows included
    assert np.array_equal(w, np.full((4, 4), 1.0 / 16))
    assert w.sum() == pytest.approx(1.0, abs=1e-14)


def test_bulk_mass_constant_exact():
    g = build_grid(10)
    assert bulk_mass(np.full(g.n_int, 0.3), g) == pytest.approx(0.3, abs=1e-14)


def test_bulk_mass_linear_in_field():
    g = build_grid(6)
    rng = np.random.default_rng(1)
    a, b = rng.standard_normal((2, g.n_int))
    m = bulk_mass(a + 2.5 * b, g)
    assert m == pytest.approx(bulk_mass(a, g) + 2.5 * bulk_mass(b, g), rel=1e-12, abs=1e-14)


def test_bulk_mass_odd_symmetry():
    # sin(2 pi x) cos(2 pi y) integrates to zero by symmetry
    g = build_grid(12)
    xi, yi = g.interior_xy()
    assert abs(bulk_mass(np.sin(2 * np.pi * xi) * np.cos(2 * np.pi * yi), g)) < 1e-13


def test_surface_mass_values():
    g = build_grid(10)
    assert surface_mass(np.ones(g.n_loop), g) == pytest.approx(4.0, abs=1e-14)
    assert surface_mass(np.zeros(g.n_loop), g) == 0.0
    xl, yl = g.loop_xy()
    assert abs(surface_mass(np.sin(2 * np.pi * xl) * np.cos(2 * np.pi * yl), g)) < 1e-13


def test_surface_mass_linear_in_field():
    g = build_grid(6)
    rng = np.random.default_rng(2)
    a, b = rng.standard_normal((2, g.n_loop))
    got = surface_mass(3.0 * a - b, g)
    assert got == pytest.approx(3 * surface_mass(a, g) - surface_mass(b, g), rel=1e-12, abs=1e-14)


# ---- energies ------------------------------------------------------------


def test_total_energy_constant_zero_state():
    g = build_grid(10)
    p = ModelParams(eps=0.02, delta=0.02)
    eb, es, et = total_energy(np.zeros(g.n_int), np.zeros(g.n_loop), g, p)
    assert eb == pytest.approx(625.0, rel=1e-12)
    assert es == pytest.approx(2500.0, rel=1e-12)
    assert et == pytest.approx(3125.0, rel=1e-12)


def test_total_energy_minimizer_is_zero():
    g = build_grid(10)
    p = ModelParams(eps=0.1, delta=0.1)
    eb, es, et = total_energy(np.ones(g.n_int), np.ones(g.n_loop), g, p)
    assert eb == 0.0 and es == 0.0 and et == 0.0


def test_total_energy_linear_field_matches_1d_quadrature():
    g = build_grid(10)
    p = ModelParams(eps=0.5, delta=0.5)
    xi, yi = g.interior_xy()
    xl, yl = g.loop_xy()
    eb, _, _ = total_energy(xi, xl, g, p)
    # F(x) is y-independent: the full-grid trapezoid factorizes into the
    # 1-D trapezoid of F along x times the unit weight in y
    x = np.linspace(0, 1, g.n + 1)
    expected_potential = np.trapezoid(F_val(x, p.eps), dx=g.h)
    assert eb == pytest.approx(expected_potential + 0.5, rel=1e-12)


def test_total_energy_nonnegative_random():
    g = build_grid(8)
    p = ModelParams(eps=0.1, delta=0.2)
    rng = np.random.default_rng(3)
    for _ in range(10):
        phi = rng.uniform(-2, 2, g.n_int)
        psi = rng.uniform(-2, 2, g.n_loop)
        eb, es, et = total_energy(phi, psi, g, p)
        assert eb >= 0 and es >= 0 and et >= 0


# ---- modified energy -----------------------------------------------------


def test_modified_energy_zero_rates():
    g = build_grid(8)
    p = ModelParams.with_defaults(g.h, beta1=1.0, beta2=1.0)
    rng = np.random.default_rng(4)
    st = init_state(rng.uniform(-1, 1, g.n_int), rng.uniform(-1, 1, g.n_loop), g)
    _, _, et = total_energy(st.phi, st.psi, g, p)
    assert modified_energy(st, g, p) == et


def test_modified_energy_beta_zero_ignores_rates():
    g = build_grid(8)
    p = ModelParams.with_defaults(g.h)  # beta = 0
    rng = np.random.default_rng(5)
    st = init_state(rng.uniform(-1, 1, g.n_int), rng.uniform(-1, 1, g.n_loop), g)
    st = type(st)(
        phi=st.phi, psi=st.psi,
        Phi=rng.standard_normal(g.n_int), Psi=rng.standard_normal(g.n_loop),
        P=st.P, Q=st.Q, t=0.0, step=0,
    )
    _, _, et = total_energy(st.phi, st.psi, g, p)
    assert modified_energy(st, g, p) == et


def test_modified_energy_summation_by_parts():
    # dense oracle: kinetic term equals -(beta/2M) (p, Phi)_h for mean-free Phi
    g = build_grid(4)
    p = ModelParams.with_defaults(g.h, beta1=0.8, beta2=0.0)
    rng = np.random.default_rng(6)
    Phi = rng.standard_normal(g.n_int)
    Phi -= Phi.mean()
    st = init_state(np.zeros(g.n_int), np.zeros(g.n_loop), g)
    st = type(st)(phi=st.phi, psi=st.psi, Phi=Phi, Psi=st.Psi, P=st.P, Q=st.Q, t=0.0, step=0)
    dense = neumann_laplacian_matrix(g.n).toarray()
    sol, *_ = np.linalg.lstsq(dense, Phi, rcond=None)
    sol -= sol.mean()
    kinetic = -p.beta1 / (2 * p.M1) * g.h**2 * float(sol @ Phi)
    _, _, et = total_energy(st.phi, st.psi, g, p)
    assert modified_energy(st, g, p) == pytest.approx(et + kinetic, rel=1e-10)


def test_modified_energy_dominates_total():
    g = build_grid(8)
    p = ModelParams.with_defaults(g.h, beta1=0.5, beta2=0.5)
    rng = np.random.default_rng(7)
    st = init_state(rng.uniform(-1, 1, g.n_int), rng.uniform(-1, 1, g.n_loop), g)
    st = type(st)(
        phi=st.phi, psi=st.psi,
        Phi=rng.standard_normal(g.n_int), Psi=rng.standard_normal(g.n_loop),
        P=st.P, Q=st.Q, t=0.0, step=0,
    )
    _, _, et = total_energy(st.phi, st.psi, g, p)
    assert modified_energy(st, g, p) >= et
