import numpy as np
import pytest
import scipy.sparse as sp

from hyperch import ModelParams, assemble_system, build_grid
from hyperch.linalg import DirectFactorization, SolveError, check_csr, check_residual


def csr(dense):
    return sp.csr_matrix(np.asarray(dense, dtype=float))


def test_check_csr_rejects_nonsquare():
    with pytest.raises(ValueError):
        check_csr(sp.csr_matrix(np.ones((2, 3))))


# ---- direct solve -----------------------------------------------------------


def test_solve_hand_system():
    a = csr([[2.0, 1.0], [1.0, 2.0]])
    x, _ = DirectFactorization(a).solve(np.array([3.0, 3.0]), tol=1e-12)
    assert np.allclose(x, [1.0, 1.0], rtol=1e-10)


def test_solve_nonsymmetric_hand_system():
    # a^T x = b has the solution (3/2, 1/2): a solve of the transpose fails
    a = csr([[2.0, 1.0], [0.0, 3.0]])
    x, _ = DirectFactorization(a).solve(np.array([3.0, 3.0]), tol=1e-12)
    assert np.allclose(x, [1.0, 1.0], rtol=1e-14)


def test_duplicate_entries_summed_without_touching_input():
    # [[2, 1], [0, 3]] with its (0, 0) entry stored as 1.5 + 0.5: sorted
    # column indices, so only the duplicate makes the input non-canonical
    data, indices, indptr = np.array([1.5, 0.5, 1.0, 3.0]), np.array([0, 0, 1, 1]), np.array([0, 3, 4])
    a = sp.csr_matrix((data, indices, indptr), shape=(2, 2))
    kept = [arr.copy() for arr in (a.data, a.indices, a.indptr)]
    x, stats = DirectFactorization(a).solve(np.array([3.0, 3.0]), tol=1e-12)
    assert np.allclose(x, [1.0, 1.0], rtol=1e-14)
    assert stats.rel_residual <= 1e-15
    for arr, before in zip((a.data, a.indices, a.indptr), kept):
        assert np.array_equal(arr, before)


def test_schur_solve_matches_dense():
    g = build_grid(8)
    system = assemble_system(g, ModelParams.with_defaults(g.h, beta1=0.1, beta2=0.3))
    b = np.random.default_rng(8).standard_normal(system.schur.shape[0])
    x, _ = DirectFactorization(system.schur).solve(b)
    want = np.linalg.solve(system.schur.toarray(), b)
    assert np.abs(x - want).max() <= 1e-12 * np.abs(want).max()


def test_solve_zero_rhs():
    a = csr([[2.0, 1.0], [1.0, 2.0]])
    x, stats = DirectFactorization(a).solve(np.zeros(2), tol=1e-12)
    assert np.array_equal(x, np.zeros(2))
    assert stats.rel_residual == 0.0


def test_solve_residual_contract_posthoc():
    rng = np.random.default_rng(2)
    n = 50
    dense = np.eye(n) * 4 + (rng.random((n, n)) < 0.1) * rng.standard_normal((n, n)) * 0.3
    a = csr(dense)
    b = rng.standard_normal(n)
    tol = 1e-11
    x, stats = DirectFactorization(a).solve(b, tol=tol)
    assert np.linalg.norm(b - a @ x) / np.linalg.norm(b) <= tol
    assert stats.rel_residual <= tol


def test_direct_factorization_contract():
    rng = np.random.default_rng(5)
    n = 30
    dense = np.eye(n) * 3 + rng.standard_normal((n, n)) * 0.2
    fac = DirectFactorization(csr(dense))
    for _ in range(3):
        b = rng.standard_normal(n)
        x, stats = fac.solve(b, tol=1e-10)
        assert np.linalg.norm(b - dense @ x) / np.linalg.norm(b) <= 1e-10
        assert stats.rel_residual <= 1e-10


def test_nan_fails_residual_check():
    # NaN compares false with every tolerance, so a NaN residual must
    # fail the contract instead of slipping through a `>` test
    a = csr([[2.0, 1.0], [0.0, 3.0]])
    with pytest.raises(SolveError) as err:
        DirectFactorization(a).solve(np.array([np.nan, 1.0]))
    assert np.isnan(err.value.stats.rel_residual)
    # a zero right-hand side holds x to the absolute residual
    x = np.array([np.nan, 0.0])
    with pytest.raises(SolveError):
        check_residual(-(a @ x), np.zeros(2), x, 1e-10)


def test_nan_tol_fails_residual_check():
    a = csr([[2.0, 1.0], [0.0, 3.0]])
    with pytest.raises(SolveError):
        DirectFactorization(a).solve(np.array([3.0, 3.0]), tol=np.nan)
