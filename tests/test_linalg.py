import numpy as np
import pytest
import scipy.sparse as sp

from dense_oracle import schur_matrix

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
    x, _ = DirectFactorization([a], [1]).solve(np.array([3.0, 3.0]), tol=1e-12)
    assert np.allclose(x, [1.0, 1.0], rtol=1e-10)


def test_solve_nonsymmetric_hand_system():
    # a^T x = b has the solution (3/2, 1/2): a solve of the transpose fails
    a = csr([[2.0, 1.0], [0.0, 3.0]])
    x, _ = DirectFactorization([a], [1]).solve(np.array([3.0, 3.0]), tol=1e-12)
    assert np.allclose(x, [1.0, 1.0], rtol=1e-14)


def test_duplicate_entries_summed_without_touching_input():
    # [[2, 1], [0, 3]] with its (0, 0) entry stored as 1.5 + 0.5: sorted
    # column indices, so only the duplicate makes the input non-canonical
    data, indices, indptr = np.array([1.5, 0.5, 1.0, 3.0]), np.array([0, 0, 1, 1]), np.array([0, 3, 4])
    a = sp.csr_matrix((data, indices, indptr), shape=(2, 2))
    kept = [arr.copy() for arr in (a.data, a.indices, a.indptr)]
    x, stats = DirectFactorization([a], [1]).solve(np.array([3.0, 3.0]), tol=1e-12)
    assert np.allclose(x, [1.0, 1.0], rtol=1e-14)
    assert stats.rel_residual <= 1e-15
    for arr, before in zip((a.data, a.indices, a.indptr), kept):
        assert np.array_equal(arr, before)


def test_schur_solve_matches_dense():
    g = build_grid(8)
    schur = schur_matrix(assemble_system(g, ModelParams.with_defaults(g.h, beta1=0.1, beta2=0.3)))
    b = np.random.default_rng(8).standard_normal(schur.shape[0])
    x, _ = DirectFactorization([schur], [1]).solve(b)
    want = np.linalg.solve(schur.toarray(), b)
    assert np.abs(x - want).max() <= 1e-12 * np.abs(want).max()


def test_repeated_blocks_solve_matches_dense():
    # blockdiag(A, B, B): A factored once with one column, B once with the
    # two copies' right-hand sides as the columns of one solve
    rng = np.random.default_rng(3)
    blocks = [np.eye(m) * 3 + rng.standard_normal((m, m)) * 0.3 for m in (7, 5)]
    fac = DirectFactorization([csr(blk) for blk in blocks], [1, 2])
    dense = sp.block_diag([blocks[0], blocks[1], blocks[1]]).toarray()
    assert np.array_equal(fac.a.toarray(), dense)
    b = rng.standard_normal(17)
    x, _ = fac.solve(b, tol=1e-12)
    want = np.linalg.solve(dense, b)
    assert np.abs(x - want).max() <= 1e-12 * np.abs(want).max()


def test_fill_counts_each_distinct_block_once():
    g = build_grid(8)
    system = assemble_system(g, ModelParams.with_defaults(g.h, beta1=0.1, beta2=0.3))
    fac = system.direct()
    fill = [f.L.nnz + f.U.nnz for f in fac._lu.factors]
    assert len(fill) == 2 and fac._lu.copies == [1, 2]
    assert fac._lu.L.nnz + fac._lu.U.nnz == sum(fill)
    dims = [f.shape[0] for f in fac._lu.factors]
    assert fac._lu.L.shape == fac._lu.U.shape == (sum(dims),) * 2
    assert fac.a.shape == (dims[0] + 2 * dims[1],) * 2


def test_expansions_are_the_block_diagonals():
    # a, L and U are concatenated from their blocks' own arrays: a equals
    # scipy's block_diag to the bit, and L and U equal it as matrices (the
    # entries of a column may come in another order)
    g = build_grid(8)
    fac = assemble_system(g, ModelParams.with_defaults(g.h, beta1=0.1, beta2=0.3)).direct()
    want = sp.block_diag([fac.blocks[0], fac.blocks[1], fac.blocks[1]], format="csr")
    for part in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(fac.a, part), getattr(want, part))
    for name in ("L", "U"):
        got = getattr(fac._lu, name)
        ref = sp.block_diag([getattr(f, name) for f in fac._lu.factors], format="csc")
        assert got.format == "csc" and got.shape == ref.shape and got.nnz == ref.nnz
        assert (got != ref).nnz == 0


def test_factor_fill_at_n50():
    # the D4 blocks of the capacitance matrix, A (four sectors) and B,
    # factored once each: dense within their sectors, in their natural
    # order, they fill as dense LUs do, 19,255 against sum k^2 = 19,216
    # (the nodal Schur factor held 87,518)
    g = build_grid(50)
    system = assemble_system(g, ModelParams.with_defaults(g.h, beta1=0.1, beta2=0.1))
    fac = system.direct()
    sizes = np.bincount(system.sector)
    assert fac.a.shape == (8 * g.n - 8,) * 2
    assert fac._lu.L.nnz + fac._lu.U.nnz <= 1.01 * (sizes[:5] ** 2).sum()


def test_solve_zero_rhs():
    a = csr([[2.0, 1.0], [1.0, 2.0]])
    x, stats = DirectFactorization([a], [1]).solve(np.zeros(2), tol=1e-12)
    assert np.array_equal(x, np.zeros(2))
    assert stats.rel_residual == 0.0


def test_solve_residual_contract_posthoc():
    rng = np.random.default_rng(2)
    n = 50
    dense = np.eye(n) * 4 + (rng.random((n, n)) < 0.1) * rng.standard_normal((n, n)) * 0.3
    a = csr(dense)
    b = rng.standard_normal(n)
    tol = 1e-11
    x, stats = DirectFactorization([a], [1]).solve(b, tol=tol)
    assert np.linalg.norm(b - a @ x) / np.linalg.norm(b) <= tol
    assert stats.rel_residual <= tol


def test_direct_factorization_contract():
    rng = np.random.default_rng(5)
    n = 30
    dense = np.eye(n) * 3 + rng.standard_normal((n, n)) * 0.2
    fac = DirectFactorization([csr(dense)], [1])
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
        DirectFactorization([a], [1]).solve(np.array([np.nan, 1.0]))
    assert np.isnan(err.value.stats.rel_residual)
    # a zero right-hand side holds x to the absolute residual
    x = np.array([np.nan, 0.0])
    with pytest.raises(SolveError):
        check_residual(-(a @ x), np.zeros(2), x, 1e-10)


def test_nan_tol_fails_residual_check():
    a = csr([[2.0, 1.0], [0.0, 3.0]])
    with pytest.raises(SolveError):
        DirectFactorization([a], [1]).solve(np.array([3.0, 3.0]), tol=np.nan)
