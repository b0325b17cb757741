"""Coupled linear scheme: assembly, per-step right-hand side, stepping.

One time step solves the coupled linear system for the stacked unknowns
x = [d | mu]: the increment d = y_new - y of the fields y = [phi | psi]
and their chemical potentials mu = [mu_int | mu_loop].  The bulk
chemical potential has unknowns at interior nodes only; its no-flux
condition enters the bulk evolution rows as the mirror-ghost Neumann
Laplacian.  Every chemical potential is an explicit sparse function of
the fields, so the coupled system is the 2x2 block saddle-point form
[[K, -L], [R, I]] and the solve eliminates mu exactly: it factors the
Schur complement K + L R on the fields, half the unknowns, and rebuilds
mu by one matrix-vector product after each solve; the full residual is
taken on the block rows, never on an assembled coupled matrix.  K + L R
commutes with the eight symmetries of the square, the group D4, so it is
factored in the D4-adapted orthonormal basis Q: Q^T (K + L R) Q =
blockdiag(A, B, B), with A the blocks of the four one-dimensional
representations and B that of the two-dimensional one, which appears
twice and is factored once.  Only the rows of K + L R the blocks are
gathered from are formed.  The explicit wells plus the linear
stabilizers keep every block constant in time, so the blocks are
assembled and factorized once per run.  The increment form keeps K y
out of floating point, so the masses are conserved to roundoff and a
constant state at a well root does not move.  The rate fields are the
increments over tau, exact difference quotients, and start at zero,
which realizes the mass-conservation initialization.  The step also carries the
inverse-Laplacian potentials of the rate fields, read off the solved mu,
so a diagnostic row prices the modified energy's kinetic terms without a
Poisson solve.  The stencils are the ``operators`` module's matrices;
this module only places them in blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp

from . import linalg
from . import model as mdl
from . import operators as ops
from .grid import Grid

# relative residual ||b - [[K, -L], [R, I]] x|| / ||b|| every solve is held to
RESIDUAL_TOL = 1e-10


class NonFiniteStateError(RuntimeError):
    """A step produced NaN or Inf values."""


@dataclass(frozen=True)
class State:
    """Simulation state: fields, rates, potentials, and the clock.

    Phi and Psi are the backward difference quotients of phi and psi over
    the last step, the solved increments over tau (identically zero in a
    fresh state).  P and Q are their inverse-Laplacian potentials,
    l_mu P = Phi and l_loop Q = Psi up to the solve residual, which
    ``step`` updates from the solved chemical potentials (zero in a fresh
    state); the diagnostic rows read the modified energy's kinetic terms
    from them.
    """

    phi: np.ndarray
    psi: np.ndarray
    Phi: np.ndarray
    Psi: np.ndarray
    P: np.ndarray
    Q: np.ndarray
    t: float = 0.0
    step: int = 0


def init_state(phi0: np.ndarray, psi0: np.ndarray, grid: Grid) -> State:
    """Fresh state with zero rate fields and potentials at t = 0."""
    phi0 = ops._check_bulk(phi0, grid).copy()
    psi0 = ops._check_loop(psi0, grid).copy()
    return State(
        phi=phi0,
        psi=psi0,
        Phi=np.zeros(grid.n_int),
        Psi=np.zeros(grid.n_loop),
        P=np.zeros(grid.n_int),
        Q=np.zeros(grid.n_loop),
    )


def split_unknowns(x: np.ndarray, grid: Grid) -> tuple[np.ndarray, ...]:
    """(phi, psi, mu_int, mu_loop): views of the blocks of a stacked
    vector x = [phi | psi | mu_int | mu_loop]."""
    dim = 2 * (grid.n_int + grid.n_loop)
    if x.shape != (dim,):
        raise ValueError(f"stacked vector has shape {x.shape}, expected ({dim},)")
    return tuple(np.split(x, np.cumsum([grid.n_int, grid.n_loop, grid.n_int])))


def _relaxation(params: mdl.ModelParams) -> tuple[float, float, float, float]:
    """(r1, r2, k1, k2): r_i = beta_i/tau weighs the previous rate in the
    evolution rows and k_i = (r_i + 1)/tau is their diagonal."""
    tau = params.tau
    r1, r2 = params.beta1 / tau, params.beta2 / tau
    return r1, r2, (r1 + 1.0) / tau, (r2 + 1.0) / tau


@dataclass
class SparseSystem:
    """Time-constant blocks of the coupled system and the reusable factor
    of its Schur complement on the fields.

    The coupled system [[K, -L], [R, I]] acts on x = [y | mu].  The
    evolution rows are K y - L mu, with K = diag(``k``) = blockdiag(k1 I,
    k2 I) and the mobility Laplacians L = blockdiag(M1 l_mu, M2 l_loop)
    (``lap``); the potential rows R y + mu (R is ``rows``) define mu as an
    explicit function of the fields.  Eliminating mu leaves K + L R on y;
    it is never held whole: only its distinct blocks in the D4 basis Q
    (``basis``, ``sector`` and ``vertex`` from ``operators.mirror_basis``;
    ``basis_t`` = Q^T is a view of Q's arrays) are formed and factored, and
    every solution's residual is formed on the coupled rows from the blocks.
    """

    k: np.ndarray
    lap: sp.csr_matrix = field(repr=False)
    rows: sp.csr_matrix = field(repr=False)
    basis: sp.csr_matrix = field(repr=False)
    basis_t: sp.csc_matrix = field(repr=False)
    sector: np.ndarray = field(repr=False)
    vertex: np.ndarray = field(repr=False)
    _direct: linalg.DirectFactorization | None = field(default=None, repr=False)

    def direct(self) -> linalg.DirectFactorization:
        """Factor of Q^T (K + L R) Q = blockdiag(A, B, B), built on first use."""
        if self._direct is None:
            self._direct = linalg.DirectFactorization(self._gather(), [1, 2])
        return self._direct

    def _gather(self) -> list[sp.csr_matrix]:
        """[A, B]: A holds sectors 0 to 3 and B sector 4; sector 5's block
        equals B, so it is never formed.  The blocks are gathered from rows
        of S = K + L R: for every v in the span of sector s, Q[:, t] . v =
        v[p] / Q[p, t] with p = ``vertex``[t], since a vertex lies on at
        most one column of a sector; so row t is (S Q)[p, columns of s] /
        Q[p, t].  Only the gathered rows p of S are formed, one block at a
        time, and no off-block entry."""
        q, dim, sector = self.basis, self.k.size, self.sector
        na, m = np.searchsorted(sector, [4, 5])  # A's rows end at na, B's at m
        # the sector-s entry of row p of Q, stored at s * dim + p (or a zero)
        slot = sector[q.indices] * dim
        slot += np.repeat(np.arange(dim, dtype=sector.dtype), np.diff(q.indptr))  # entry's row
        col, val = np.zeros(6 * dim, dtype=q.indices.dtype), np.zeros(6 * dim)
        col[slot], val[slot] = q.indices, q.data

        def block(lo: int, hi: int) -> sp.csr_matrix:  # its temporaries die on return
            p, s, r = self.vertex[lo:hi], sector[lo:hi], np.arange(hi - lo, dtype=np.int32)
            rows = self.lap[p] @ self.rows + sp.csr_matrix((self.k[p], (r, p)), (r.size, dim))
            rows.sort_indices()  # sum_duplicates below then adds in a fixed order
            t = np.repeat(r, np.diff(rows.indptr))  # row of every entry
            at = s[t] * dim + rows.indices
            data = rows.data * val[at] / val[s * dim + p][t]
            g = sp.csr_matrix((data, col[at], rows.indptr), (r.size, m))
            g.sum_duplicates()  # rows within two nodes of a mirror or diagonal line
            g.eliminate_zeros()  # S columns without an entry in the row's sector
            return sp.csr_matrix((g.data, g.indices - lo, g.indptr), (r.size,) * 2)

        return [block(0, na), block(na, m)]

    def solve(self, b: np.ndarray) -> tuple[np.ndarray, linalg.SolveStats]:
        """Solve [[K, -L], [R, I]] x = b for x = [y | mu]: y = Q z with z
        from the block factor on Q^T (b_y + L b_mu), then mu = b_mu - R y.
        The residual [b_y - (K y - L mu) | b_mu - (R y + mu)] reuses R y
        and never forms K + L R; x is returned with ||residual|| / ||b||
        <= RESIDUAL_TOL, or a SolveError carries x and its stats."""
        b = np.asarray(b, dtype=float)
        b_y, b_mu = np.split(b, [self.k.size])
        # the coupled rows' residual below, not the reduced one, is checked
        z, _ = self.direct().solve(self.basis_t @ (b_y + self.lap @ b_mu), tol=math.inf)
        y = self.basis @ z
        ry = self.rows @ y
        mu = b_mu - ry
        r = np.concatenate([b_y - (self.k * y - self.lap @ mu), b_mu - (ry + mu)])
        return linalg.check_residual(r, b, np.concatenate([y, mu]), RESIDUAL_TOL)


def assemble_system(grid: Grid, params: mdl.ModelParams) -> SparseSystem:
    """Assemble the blocks of the coupled system for one (grid, params)
    pair; entries depend only on grid and params.

    The evolution rows apply to mu_int the mirror-ghost Neumann Laplacian
    l_mu: the ghost value of mu outside each side is the first interior
    value, which realizes the no-flux condition.  l_mu is symmetric with
    zero column sums, so the uniform interior quadrature of phi is
    conserved, and since l_mu is the operator the modified energy's
    kinetic term inverts, the modified energy dissipates.  The potential
    rows are the gradient of the discrete energy in the field weights
    W = blockdiag(h^2 I, h I), so W R is symmetric:
    R = -W^-1 H - blockdiag(s1 I, diag(s2 + s1 h w_k) - l_loop), with H
    ``operators.dirichlet_hessian`` and h w_k ``model.loop_well_weights``.
    Every block is built in its final CSR arrays: H is scaled in place, and
    the block-diagonal parts are concatenated from their blocks' arrays.
    """
    _, _, k1, k2 = _relaxation(params)
    h, ni = grid.h, grid.n_int
    k = np.concatenate([np.full(ni, k1), np.full(grid.n_loop, k2)])
    l_loop = ops.loop_laplacian_matrix(grid.n)
    hess = ops.dirichlet_hessian(grid)  # scaled in place into -W^-1 H
    cut = hess.indptr[ni]
    hess.data[:cut] *= -1.0 / (h * h)
    hess.data[cut:] *= -1.0 / h
    loop_diag = sp.diags(params.s2 + params.s1 * mdl.loop_well_weights(grid.n))
    rows = hess - linalg._block_diag(
        [params.s1 * sp.identity(ni, format="csr"), loop_diag - l_loop]
    )
    l_mu = ops.neumann_laplacian_matrix(grid.n)
    l_mu.data *= params.M1
    l_loop.data *= params.M2
    lap = linalg._block_diag([l_mu, l_loop])
    del hess, l_mu, l_loop  # freed before the basis's transients: a lower heap peak
    basis, sector, vertex = ops.mirror_basis(grid)
    return SparseSystem(
        k=k, lap=lap, rows=rows, basis=basis, basis_t=basis.T, sector=sector, vertex=vertex
    )


def assemble_rhs(state: State, grid: Grid, params: mdl.ModelParams) -> np.ndarray:
    """Per-step right-hand side [r Phi | c(y)]: the last rates times
    r = beta/tau, and the wells minus the stabilizers, the loop rows with
    the bulk well's f - s1 psi at weight h w_k.  ``step`` subtracts R y."""
    phi = ops._check_bulk(state.phi, grid)
    psi = ops._check_loop(state.psi, grid)
    r1, r2, _, _ = _relaxation(params)
    y = np.concatenate([phi, psi])
    f_y = mdl.f_val(y, params.eps) - params.s1 * y
    return np.concatenate(
        [
            r1 * state.Phi,
            r2 * state.Psi,
            f_y[: grid.n_int],
            mdl.g_val(psi, params.delta) - params.s2 * psi
            + mdl.loop_well_weights(grid.n) * f_y[grid.n_int :],
        ]
    )


def step(
    state: State,
    system: SparseSystem,
    grid: Grid,
    params: mdl.ModelParams,
) -> tuple[State, linalg.SolveStats]:
    """Advance one time step by its increment d = y_new - y.

    The rows K d - L mu = r Phi and R d + mu = c(y) - R y, the state's
    explicit chemical potential, keep K y out of floating point; the rates
    are d / tau.  The evolution rows read (r + 1) Phi_new - r Phi =
    M1 l_mu mu_int with r = beta1/tau, and likewise on the loop, so the
    potentials

        P_new = (M1 mu_int + r P) / (1 + r),   Q_new alike with M2, mu_loop,

    keep l_mu P = Phi and l_loop Q = Psi from the zero start onwards.
    The clock reads k * tau after step k, as ``lattice_steps`` assumes.
    A non-finite right-hand side raises a NonFiniteStateError, and a
    solve that misses ``RESIDUAL_TOL`` (a non-finite solution included) a
    SolveError with the solution and its stats; both name the step.
    """
    b = assemble_rhs(state, grid, params)
    b[system.k.size :] -= system.rows @ np.concatenate([state.phi, state.psi])
    if not np.all(np.isfinite(b)):
        raise NonFiniteStateError(f"non-finite right-hand side at step {state.step + 1}")
    try:
        x, stats = system.solve(b)
    except linalg.SolveError as exc:
        raise linalg.SolveError(
            f"{exc} at step {state.step + 1}", x=exc.x, stats=exc.stats
        ) from exc
    d_phi, d_psi, mu_int, mu_loop = split_unknowns(x, grid)
    r1, r2, _, _ = _relaxation(params)
    tau = params.tau
    new = State(
        phi=state.phi + d_phi,
        psi=state.psi + d_psi,
        Phi=d_phi / tau,
        Psi=d_psi / tau,
        P=(params.M1 / (1.0 + r1)) * mu_int + (r1 / (1.0 + r1)) * state.P,
        Q=(params.M2 / (1.0 + r2)) * mu_loop + (r2 / (1.0 + r2)) * state.Q,
        t=(state.step + 1) * tau,
        step=state.step + 1,
    )
    return new, stats


@dataclass(frozen=True)
class DiagRecord:
    """Per-step diagnostics: energies, masses, solve residual."""

    step: int
    time: float
    e_bulk: float
    e_surf: float
    e_total: float
    e_modified: float
    mass_bulk: float
    mass_surf: float
    solver_residual: float


def diag_record(
    state: State,
    grid: Grid,
    params: mdl.ModelParams,
    stats: linalg.SolveStats | None = None,
) -> DiagRecord:
    """Diagnostic row of a state the scheme produced.

    The modified energy is the total energy plus (beta1/2M1)|grad P|^2
    and (beta2/2M2)|grad_loop Q|^2, read from the potentials the step
    carries; ``model.modified_energy`` computes the same terms with
    Poisson solves.  ``stats`` is the solve that produced the state
    (None at step 0, residual 0).
    """
    e_bulk, e_surf, e_total = mdl.total_energy(state.phi, state.psi, grid, params)
    e_mod = e_total
    if params.beta1 > 0.0:
        e_mod += params.beta1 / (2.0 * params.M1) * ops.grad_norm_sq_interior(state.P, grid)
    if params.beta2 > 0.0:
        e_mod += params.beta2 / (2.0 * params.M2) * ops.grad_norm_sq_loop(state.Q, grid)
    return DiagRecord(
        step=state.step,
        time=state.t,
        e_bulk=e_bulk,
        e_surf=e_surf,
        e_total=e_total,
        e_modified=e_mod,
        mass_bulk=mdl.bulk_mass(state.phi, grid),
        mass_surf=mdl.surface_mass(state.psi, grid),
        solver_residual=0.0 if stats is None else stats.rel_residual,
    )


def num_steps(t_end: float, tau: float) -> int:
    """Step count covering [0, t_end]: ceiling with a roundoff guard so
    that divisors of t_end are not overcounted."""
    if not 0 <= t_end < math.inf:
        raise ValueError(f"t_end must be nonnegative and finite, got {t_end}")
    return max(0, math.ceil(t_end / tau - 1e-9))


def lattice_steps(times, tau: float, t_end: float, key: str) -> dict[int, float]:
    """Map each output time t = k * tau of a run to t_end to its step k.

    Raises a ValueError naming the config ``key`` when a time is not
    finite, lies more than 1e-9 * tau off the step lattice, falls before
    step 0 or after the run's last step, or shares its step with another.
    """
    steps: dict[int, float] = {}
    for t in times:
        if not math.isfinite(t):
            raise ValueError(f"{key}: time {t!r} is not finite")
        k = round(t / tau)
        if k < 0:
            raise ValueError(f"{key}: time {t!r} is before the run starts at 0")
        if abs(t - k * tau) > 1e-9 * tau:
            raise ValueError(f"{key}: time {t!r} is not a multiple of tau = {tau!r}")
        if k > num_steps(t_end, tau):
            raise ValueError(f"{key}: time {t!r} is beyond t_end = {t_end!r}")
        if k in steps:
            raise ValueError(f"{key}: times {steps[k]!r} and {t!r} both fall on step {k}")
        steps[k] = t
    return steps


def run(
    initial: State,
    grid: Grid,
    params: mdl.ModelParams,
    t_end: float,
    diag_cadence: int = 1,
    on_step: Callable[[State], None] | None = None,
    system: SparseSystem | None = None,
) -> tuple[State, list[DiagRecord]]:
    """March the scheme to t_end, collecting diagnostics.

    Diagnostics are recorded at step 0, every ``diag_cadence`` steps, and
    at the final step unconditionally (``diag_record``).  Every solve is
    held to ``RESIDUAL_TOL``.  ``on_step`` is invoked with every state, the
    initial one included.
    """
    if diag_cadence < 1:
        raise ValueError("diag_cadence must be >= 1")
    if system is None:
        system = assemble_system(grid, params)
    state = initial
    records = [diag_record(state, grid, params)]
    if on_step is not None:
        on_step(state)
    total = num_steps(t_end, params.tau)
    for k in range(1, total + 1):
        state, stats = step(state, system, grid, params)
        if k % diag_cadence == 0 or k == total:
            records.append(diag_record(state, grid, params, stats))
        if on_step is not None:
            on_step(state)
    return state, records
