import numpy as np
import pytest
import scipy.sparse as sp

from hyperch.linalg import DirectFactorization, check_csr


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
