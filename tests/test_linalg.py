import numpy as np
import pytest
import scipy.linalg as sla

from dense_oracle import schur_matrix

from hyperch import ModelParams, assemble_system, build_grid, linalg
from hyperch.linalg import DirectFactorization, SolveError, check_residual


def dense(rows):
    return np.asarray(rows, dtype=float)


def test_nonsquare_block_rejected_with_the_shapes():
    with pytest.raises(ValueError, match=r"\(2, 3\)"):
        DirectFactorization([np.eye(2), np.ones((2, 3))], [1, 1])


def test_singular_block_names_block_and_part():
    # numpy's LU reports an exactly zero pivot as a LinAlgError with no
    # index; the factor must not return an inverse of Inf or NaN.  Block 1
    # splits after its first row: [[1]] is regular and its Schur
    # complement 4 - 2 * 2 is exactly 0
    with pytest.raises(SolveError, match=r"^block 1 is singular: its Schur complement on its last "
                                         r"1 rows is$"):
        DirectFactorization([np.eye(2), dense([[1.0, 2.0], [2.0, 4.0]])], [1, 2], [1, 1])
    # a 3x3 block split after two rows: its leading part I is regular, and
    # the Schur complement 2 - [1, 1] . [1, 1] is exactly 0
    third = dense([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 2.0]])
    with pytest.raises(SolveError, match=r"^block 0 is singular: its Schur complement"):
        DirectFactorization([third], [1], [2])
    # a leading part that is singular on its own, in a regular block
    with pytest.raises(SolveError, match=r"^block 0 is singular: its leading 1x1 part is$"):
        DirectFactorization([dense([[0.0, 1.0], [1.0, 0.0]])], [1], [1])
    # unsplit, the whole block is the Schur complement of an empty part
    with pytest.raises(SolveError, match=r"^block 1 is singular: its Schur complement on its last "
                                         r"2 rows is$"):
        DirectFactorization([np.eye(2), dense([[1.0, 2.0], [2.0, 4.0]])], [1, 2])


@pytest.mark.parametrize("k", [1, 2, 7, 12])
def test_bordered_inverse_at_every_split(k):
    # the inverse assembled from the leading part and its Schur complement
    # is the inverse, wherever the block is split, the empty parts included
    rng = np.random.default_rng(k)
    a = np.eye(k) * 3 + rng.standard_normal((k, k)) * 0.3
    want = np.linalg.inv(a)
    for f in range(k + 1):
        got = DirectFactorization([a], [1], [f])._lu.inverses[0]
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_splits_need_one_per_block():
    with pytest.raises(ValueError):
        DirectFactorization([np.eye(2), np.eye(3)], [1, 1], [1])


# ---- direct solve -----------------------------------------------------------


def test_solve_hand_system():
    a = dense([[2.0, 1.0], [1.0, 2.0]])
    x, _ = DirectFactorization([a], [1]).solve(np.array([3.0, 3.0]), tol=1e-12)
    assert np.allclose(x, [1.0, 1.0], rtol=1e-10)


def test_solve_nonsymmetric_hand_system():
    # a^T x = b has the solution (3/2, 1/2): a solve of the transpose fails
    a = dense([[2.0, 1.0], [0.0, 3.0]])
    x, _ = DirectFactorization([a], [1]).solve(np.array([3.0, 3.0]), tol=1e-12)
    assert np.allclose(x, [1.0, 1.0], rtol=1e-14)


def test_factor_and_solve_leave_the_inputs_untouched():
    # the inverse and the products read the inputs only: neither the
    # caller's blocks nor b are rewritten, C-ordered or Fortran-ordered
    rng = np.random.default_rng(4)
    blocks = [np.eye(m) * 3 + rng.standard_normal((m, m)) for m in (6, 4)]
    blocks[1] = np.asfortranarray(blocks[1])
    kept = [blk.copy() for blk in blocks]
    fac = DirectFactorization(blocks, [1, 2])
    b = rng.standard_normal(14)
    b_kept = b.copy()
    x, stats = fac.solve(b, tol=1e-12)
    for blk, before in zip(blocks, kept):
        assert np.array_equal(blk, before)
    assert np.array_equal(b, b_kept)
    assert stats.rel_residual <= 1e-15


def test_schur_solve_matches_dense():
    g = build_grid(8)
    schur = schur_matrix(g, ModelParams.with_defaults(g.h, beta1=0.1, beta2=0.3))
    b = np.random.default_rng(8).standard_normal(schur.shape[0])
    x, _ = DirectFactorization([schur.toarray()], [1]).solve(b)
    want = np.linalg.solve(schur.toarray(), b)
    assert np.abs(x - want).max() <= 1e-12 * np.abs(want).max()


def test_repeated_blocks_solve_matches_dense():
    # blockdiag(A, B, B): A inverted once and applied to one column, B
    # once to the two copies' right-hand sides as the columns of one product
    rng = np.random.default_rng(3)
    blocks = [np.eye(m) * 3 + rng.standard_normal((m, m)) * 0.3 for m in (7, 5)]
    fac = DirectFactorization(blocks, [1, 2])
    full = sla.block_diag(blocks[0], blocks[1], blocks[1])
    assert np.array_equal(fac.a.toarray(), full)
    b = rng.standard_normal(17)
    x, _ = fac.solve(b, tol=1e-12)
    want = np.linalg.solve(full, b)
    assert np.abs(x - want).max() <= 1e-12 * np.abs(want).max()


def test_fill_counts_each_distinct_block_once():
    # A's four sector blocks and B, each inverted once; L and U store what
    # the dense inverses hold, exact zeros left out, each entry once
    g = build_grid(8)
    system = assemble_system(g, ModelParams.with_defaults(g.h, beta1=0.1, beta2=0.3))
    fac = system.direct()
    fill = [np.count_nonzero(inv) for inv in fac._lu.inverses]
    assert len(fill) == 5 and fac._lu.copies == [1, 1, 1, 1, 2]
    assert fac._lu.L.nnz + fac._lu.U.nnz == sum(fill)
    dims = [inv.shape[0] for inv in fac._lu.inverses]
    assert [b.shape[0] for b in fac.blocks] == dims
    assert fac._lu.L.shape == fac._lu.U.shape == (sum(dims),) * 2
    assert fac.a.shape == (sum(dims) + dims[-1],) * 2


def test_expansions_are_the_block_diagonals():
    # a is blockdiag(blocks, each copy in turn), L and U the block
    # diagonals of each inverse's strict lower and upper triangles
    g = build_grid(8)
    fac = assemble_system(g, ModelParams.with_defaults(g.h, beta1=0.1, beta2=0.3)).direct()
    blocks = fac.blocks + fac.blocks[4:]
    assert np.array_equal(fac.a.toarray(), sla.block_diag(*blocks))
    invs = fac._lu.inverses
    assert np.array_equal(fac._lu.L.toarray(), sla.block_diag(*[np.tril(v, -1) for v in invs]))
    assert np.array_equal(fac._lu.U.toarray(), sla.block_diag(*[np.triu(v) for v in invs]))


@pytest.mark.parametrize("n", [4, 5, 8, 21])
@pytest.mark.parametrize("betas", [(0.0, 0.0), (0.1, 0.1), (0.0, 0.94), (1.0, 1.0)])
def test_capacitance_inverses_match_numpy(n, betas):
    # each capacitance block is split after its columns on F, where it is
    # I plus a smoothing operator; its bordered inverse agrees with
    # np.linalg.inv of the whole block (to at most 5.8e-16 of its largest
    # entry at these points), and its residual on a random right-hand
    # side stays within a small factor of numpy's.  At n = 4 some
    # sectors have no column on F: their leading part is empty
    g = build_grid(n)
    system = assemble_system(g, ModelParams.with_defaults(g.h, beta1=betas[0], beta2=betas[1]))
    fac, splits = system.direct(), system._f_columns()[:5]
    assert (n == 4) == (0 in splits)
    rng = np.random.default_rng(n)
    for blk, inv in zip(fac.blocks, fac._lu.inverses):
        want = np.linalg.inv(blk)
        assert np.abs(inv - want).max() <= 1e-14 * np.abs(want).max()
        b = rng.standard_normal(blk.shape[0])
        res = [np.linalg.norm(b - blk @ (v @ b)) / np.linalg.norm(b) for v in (inv, want)]
        assert res[0] <= 4.0 * res[1] + 4e-16


def test_factor_fill_at_n50():
    # the D4 blocks of the capacitance matrix, A's four sector blocks and
    # B, inverted once each: dense, their inverses store at most sum k^2
    # = 19,216 entries (the nodal Schur factor held 87,518)
    g = build_grid(50)
    system = assemble_system(g, ModelParams.with_defaults(g.h, beta1=0.1, beta2=0.1))
    fac = system.direct()
    sizes = np.bincount(system.sector)
    assert fac.a.shape == (8 * g.n - 8,) * 2
    assert fac._lu.L.nnz + fac._lu.U.nnz <= 1.01 * (sizes[:5] ** 2).sum()


def test_solve_zero_rhs():
    a = dense([[2.0, 1.0], [1.0, 2.0]])
    x, stats = DirectFactorization([a], [1]).solve(np.zeros(2), tol=1e-12)
    assert np.array_equal(x, np.zeros(2))
    assert stats.rel_residual == 0.0


def test_solve_residual_contract_posthoc():
    rng = np.random.default_rng(2)
    n = 50
    a = np.eye(n) * 4 + (rng.random((n, n)) < 0.1) * rng.standard_normal((n, n)) * 0.3
    b = rng.standard_normal(n)
    tol = 1e-11
    x, stats = DirectFactorization([a], [1]).solve(b, tol=tol)
    assert np.linalg.norm(b - a @ x) / np.linalg.norm(b) <= tol
    assert stats.rel_residual <= tol


def test_direct_factorization_contract():
    rng = np.random.default_rng(5)
    n = 30
    a = np.eye(n) * 3 + rng.standard_normal((n, n)) * 0.2
    fac = DirectFactorization([a], [1])
    for _ in range(3):
        b = rng.standard_normal(n)
        x, stats = fac.solve(b, tol=1e-10)
        assert np.linalg.norm(b - a @ x) / np.linalg.norm(b) <= 1e-10
        assert stats.rel_residual <= 1e-10


def test_nan_fails_residual_check():
    # NaN compares false with every tolerance, so a NaN residual must
    # fail the contract instead of slipping through a `>` test
    a = dense([[2.0, 1.0], [0.0, 3.0]])
    with pytest.raises(SolveError) as err:
        DirectFactorization([a], [1]).solve(np.array([np.nan, 1.0]))
    assert np.isnan(err.value.stats.rel_residual)
    # a zero right-hand side holds x to the absolute residual
    x = np.array([np.nan, 0.0])
    with pytest.raises(SolveError):
        check_residual(-(a @ x), np.zeros(2), x, 1e-10)


def test_nan_tol_fails_residual_check():
    a = dense([[2.0, 1.0], [0.0, 3.0]])
    with pytest.raises(SolveError):
        DirectFactorization([a], [1]).solve(np.array([3.0, 3.0]), tol=np.nan)


# the package imports numpy alone and the factor inverts its blocks with
# numpy, so neither the import nor a run with a snapshot loads any of
# scipy, and the expansions the benchmark counts (which import
# scipy.sparse) do not load scipy.linalg, 8.2 MB of peak memory; one fresh
# interpreter (conftest's fresh_runs) serves the import-footprint tests
def test_runs_never_load_scipy_linalg(fresh_runs):
    assert fresh_runs.loaded("import", "scipy") == []
    assert fresh_runs.loaded("case-1 run", "scipy") == []
    assert {"diag.csv", "final.vtk", "snap_step0000002.vtk"} <= fresh_runs.files["case-1 run"]
    a_nnz, lu_nnz = fresh_runs.expanded
    assert a_nnz and lu_nnz
    assert fresh_runs.loaded("expansions", "scipy.linalg") == []
