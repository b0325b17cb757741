"""Coupled linear scheme: assembly, per-step right-hand side, stepping.

One time step solves the coupled linear system for the stacked unknowns
x = [y | mu]: the fields y = [phi | psi] and their chemical potentials
mu = [mu_int | mu_loop].  The bulk chemical potential has unknowns at
interior nodes only; its no-flux condition enters the bulk evolution
rows as the mirror-ghost Neumann Laplacian.  Every chemical potential is
an explicit sparse function of the fields, so the coupled matrix is the
2x2 block saddle-point form [[K, -L], [R, I]] and the solve eliminates
mu exactly: it factors the Schur complement K + L R on the fields, half
the unknowns, and rebuilds mu by one matrix-vector product after each
solve.  The explicit treatment of the well derivatives plus the linear
stabilizers keeps both matrices constant in time, so they are assembled
once per run and the Schur matrix is factorized once.  The rate fields
are maintained as exact difference quotients of consecutive states and
start at zero, which realizes the mass-conservation initialization.
The step also carries the inverse-Laplacian potentials of the rate
fields, read off the solved mu, so a diagnostic row prices the modified
energy's kinetic terms without a Poisson solve.  The stencils are the
``operators`` module's matrices; this module only places them in blocks.
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

# relative residual ||b - matrix x|| / ||b|| every solve is held to
RESIDUAL_TOL = 1e-10


class NonFiniteStateError(RuntimeError):
    """A step produced NaN or Inf values."""


@dataclass(frozen=True)
class State:
    """Simulation state: fields, rates, potentials, and the clock.

    Phi and Psi are the backward difference quotients of phi and psi over
    the last step (identically zero in a fresh state).  P and Q are their
    inverse-Laplacian potentials, l_mu P = Phi and l_loop Q = Psi up to
    the solve residual, which ``step`` updates from the solved chemical
    potentials (zero in a fresh state); the diagnostic rows read the
    modified energy's kinetic terms from them.
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
    """Time-constant coupled matrix, its Schur complement on the fields
    and the reusable factor of the latter.

    ``matrix`` = [[K, -L], [R, I]] acts on x = [y | mu].  The evolution
    rows are K y - L mu, with K = blockdiag(k1 I, k2 I) and the mobility
    Laplacians L = blockdiag(M1 l_mu, M2 l_loop) (``lap``); the potential
    rows R y + mu (R is ``rows``) define mu as an explicit function of
    the fields.
    ``schur`` = K + L R is what eliminating mu leaves on y.  Only
    ``schur`` is factored; ``matrix`` is the system every solution's
    residual is checked against.
    """

    matrix: sp.csr_matrix
    schur: sp.csr_matrix
    lap: sp.csr_matrix = field(repr=False)
    rows: sp.csr_matrix = field(repr=False)
    _direct: linalg.DirectFactorization | None = field(default=None, repr=False)

    def direct(self) -> linalg.DirectFactorization:
        if self._direct is None:
            self._direct = linalg.DirectFactorization(self.schur)
        return self._direct

    def solve(self, b: np.ndarray) -> tuple[np.ndarray, linalg.SolveStats]:
        """Solve ``matrix @ x = b`` for the stacked unknowns.

        Solves schur y = b_y + L b_mu with the factor of ``schur``,
        rebuilds mu = b_mu - R y, and returns x = [y | mu] with
        ||b - matrix x|| / ||b|| <= RESIDUAL_TOL or raises a SolveError
        carrying x and its stats.
        """
        b = np.asarray(b, dtype=float)
        b_y, b_mu = np.split(b, [self.rows.shape[1]])
        # no check on the reduced residual: the full system's residual
        # below is what the solve is held to
        y, _ = self.direct().solve(b_y + self.lap @ b_mu, tol=math.inf)
        x = np.concatenate([y, b_mu - self.rows @ y])
        return linalg.check_residual(self.matrix, b, x, RESIDUAL_TOL)


def assemble_system(grid: Grid, params: mdl.ModelParams) -> SparseSystem:
    """Assemble the coupled matrix and its Schur complement for one
    (grid, params) pair; entries depend only on grid and params.

    The evolution rows apply to mu_int the mirror-ghost Neumann Laplacian
    l_mu: the ghost value of mu outside each side is the first interior
    value, which realizes the no-flux condition.  l_mu is symmetric with
    zero column sums, so the uniform interior quadrature of phi is
    conserved, and since l_mu is the operator the modified energy's
    kinetic term inverts, the modified energy dissipates.  The potential
    rows are R = [[lap], [-nd]] - blockdiag(s1 I, s2 I - l_loop), with
    the bulk Laplacian lap and the outward normal derivative nd on
    [phi | psi]: up to the explicit right-hand side,
    mu_int = -lap y + s1 phi and mu_loop = -l_loop psi + nd y + s2 psi.
    """
    _, _, k1, k2 = _relaxation(params)
    l_loop = ops.loop_laplacian_matrix(grid.n)
    eye_i = sp.identity(grid.n_int, format="csr")
    eye_l = sp.identity(grid.n_loop, format="csr")
    k = sp.block_diag([k1 * eye_i, k2 * eye_l], format="csr")
    lap = sp.block_diag(
        [params.M1 * ops.neumann_laplacian_matrix(grid.n), params.M2 * l_loop], format="csr"
    )
    rows = (
        sp.vstack([ops.bulk_laplacian_matrix(grid), -ops.normal_derivative_matrix(grid)])
        - sp.block_diag([params.s1 * eye_i, params.s2 * eye_l - l_loop])
    ).tocsr()
    matrix = sp.bmat([[k, -lap], [rows, sp.identity(k.shape[0])]], format="csr")
    matrix.sort_indices()
    schur = (k + lap @ rows).tocsr()
    schur.sort_indices()
    return SparseSystem(matrix=matrix, schur=schur, lap=lap, rows=rows)


def assemble_rhs(state: State, grid: Grid, params: mdl.ModelParams) -> np.ndarray:
    """Per-step right-hand side [b_y | b_mu] from the current state."""
    phi = ops._check_bulk(state.phi, grid)
    psi = ops._check_loop(state.psi, grid)
    r1, r2, k1, k2 = _relaxation(params)
    return np.concatenate(
        [
            k1 * phi + r1 * state.Phi,
            k2 * psi + r2 * state.Psi,
            mdl.f_val(phi, params.eps) - params.s1 * phi,
            mdl.g_val(psi, params.delta) - params.s2 * psi,
        ]
    )


def step(
    state: State,
    system: SparseSystem,
    grid: Grid,
    params: mdl.ModelParams,
) -> tuple[State, linalg.SolveStats]:
    """Advance one time step; rates become exact difference quotients.

    The evolution rows read (r + 1) Phi_new - r Phi = M1 l_mu mu_int with
    r = beta1/tau, and likewise on the loop, so the potentials

        P_new = (M1 mu_int + r P) / (1 + r),   Q_new alike with M2, mu_loop,

    keep l_mu P = Phi and l_loop Q = Psi from the zero start onwards.
    A non-finite right-hand side raises a NonFiniteStateError, and a
    solve that misses ``RESIDUAL_TOL`` (a non-finite solution included) a
    SolveError with the solution and its stats; both name the step.
    """
    b = assemble_rhs(state, grid, params)
    if not np.all(np.isfinite(b)):
        raise NonFiniteStateError(f"non-finite right-hand side at step {state.step + 1}")
    try:
        x, stats = system.solve(b)
    except linalg.SolveError as exc:
        raise linalg.SolveError(
            f"{exc} at step {state.step + 1}", x=exc.x, stats=exc.stats
        ) from exc
    phi, psi, mu_int, mu_loop = split_unknowns(x, grid)
    phi_new, psi_new = phi.copy(), psi.copy()
    r1, r2, _, _ = _relaxation(params)
    tau = params.tau
    new = State(
        phi=phi_new,
        psi=psi_new,
        Phi=(phi_new - state.phi) / tau,
        Psi=(psi_new - state.psi) / tau,
        P=(params.M1 / (1.0 + r1)) * mu_int + (r1 / (1.0 + r1)) * state.P,
        Q=(params.M2 / (1.0 + r2)) * mu_loop + (r2 / (1.0 + r2)) * state.Q,
        t=state.t + tau,
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


def lattice_step(t: float, tau: float, t_end: float, key: str) -> int:
    """Step index k of an output time t = k * tau in a run to t_end.

    Raises a ValueError naming the config ``key`` when t is not finite,
    lies more than 1e-9 * tau off the step lattice, or falls before
    step 0 or after the run's last step.
    """
    if not math.isfinite(t):
        raise ValueError(f"{key}: time {t!r} is not finite")
    k = round(t / tau)
    if k < 0:
        raise ValueError(f"{key}: time {t!r} is before the run starts at 0")
    if abs(t - k * tau) > 1e-9 * tau:
        raise ValueError(f"{key}: time {t!r} is not a multiple of tau = {tau!r}")
    if k > num_steps(t_end, tau):
        raise ValueError(f"{key}: time {t!r} is beyond t_end = {t_end!r}")
    return k


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
