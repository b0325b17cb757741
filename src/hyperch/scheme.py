"""Coupled linear scheme: assembly, per-step right-hand side, stepping.

One time step solves the coupled linear system for the stacked unknowns
[phi | mu_int | psi | mu_loop].  The bulk chemical potential has unknowns
at interior nodes only; its no-flux condition enters the bulk evolution
rows as the mirror-ghost Neumann Laplacian.  Every chemical potential is
an explicit sparse function of (phi, psi), so the solve eliminates them
exactly: it factors the Schur-reduced system on [phi | psi], half the
unknowns, and rebuilds mu by matrix-vector products after each solve.
The explicit treatment of the well derivatives plus the linear
stabilizers keeps both matrices constant in time, so they are assembled
once per run and the reduced one is factorized once.  The rate fields
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


@dataclass(frozen=True)
class UnknownLayout:
    """Block offsets of the stacked unknown vector."""

    n_int: int
    n_loop: int

    @classmethod
    def for_grid(cls, grid: Grid) -> "UnknownLayout":
        return cls(n_int=grid.n_int, n_loop=grid.n_loop)

    @property
    def off_phi(self) -> int:
        return 0

    @property
    def off_mu_int(self) -> int:
        return self.n_int

    @property
    def off_psi(self) -> int:
        return 2 * self.n_int

    @property
    def off_mu_loop(self) -> int:
        return 2 * self.n_int + self.n_loop

    @property
    def dim(self) -> int:
        return 2 * self.n_int + 2 * self.n_loop

    def phi_of(self, x: np.ndarray) -> np.ndarray:
        return x[self.off_phi : self.off_phi + self.n_int]

    def mu_int_of(self, x: np.ndarray) -> np.ndarray:
        return x[self.off_mu_int : self.off_mu_int + self.n_int]

    def psi_of(self, x: np.ndarray) -> np.ndarray:
        return x[self.off_psi : self.off_psi + self.n_loop]

    def mu_loop_of(self, x: np.ndarray) -> np.ndarray:
        return x[self.off_mu_loop : self.off_mu_loop + self.n_loop]


@dataclass
class SparseSystem:
    """Time-constant coupled matrix, its Schur-reduced (phi, psi) matrix
    and the reusable factor of the latter.

    ``matrix`` is the coupled system of the stacked unknowns.  Its
    chemical-potential rows (b) and (d) have identity diagonal blocks, so
    every mu is an explicit sparse function of (phi, psi) and of the
    right-hand side; ``schur`` is the Schur complement that eliminating
    them leaves on [phi | psi].  Only ``schur`` is factored; ``matrix`` is
    the system every solution's residual is checked against.
    """

    matrix: sp.csr_matrix
    schur: sp.csr_matrix
    layout: UnknownLayout
    params: mdl.ModelParams
    # sub-operators of the elimination (see assemble_system): the
    # Laplacians of the evolution rows (a) and (c), and rows (b) and (d)
    # restricted to the [phi | psi] columns
    l_mu: sp.csr_matrix = field(repr=False)
    l_loop: sp.csr_matrix = field(repr=False)
    rows_mu_int: sp.csr_matrix = field(repr=False)
    rows_mu_loop: sp.csr_matrix = field(repr=False)
    _direct: linalg.DirectFactorization | None = field(default=None, repr=False)

    def direct(self) -> linalg.DirectFactorization:
        if self._direct is None:
            self._direct = linalg.DirectFactorization(self.schur)
        return self._direct

    def solve(self, b: np.ndarray) -> tuple[np.ndarray, linalg.SolveStats]:
        """Solve ``matrix @ x = b`` for the stacked unknowns.

        Eliminates mu from b, solves with the factor of ``schur``, rebuilds
        mu from rows (b) and (d), and returns x with
        ||b - matrix x|| / ||b|| <= RESIDUAL_TOL or raises a SolveError
        carrying x and its stats.
        """
        b = np.asarray(b, dtype=float)
        lay, p = self.layout, self.params
        rhs = np.concatenate([
            lay.phi_of(b) + p.M1 * (self.l_mu @ lay.mu_int_of(b)),
            lay.psi_of(b) + p.M2 * (self.l_loop @ lay.mu_loop_of(b)),
        ])
        # no check on the reduced residual: the full system's residual
        # below is what the solve is held to
        y, _ = self.direct().solve(rhs, tol=math.inf)
        x = np.concatenate([
            y[: lay.n_int],
            lay.mu_int_of(b) - self.rows_mu_int @ y,
            y[lay.n_int :],
            lay.mu_loop_of(b) - self.rows_mu_loop @ y,
        ])
        return linalg.check_residual(self.matrix, b, x, RESIDUAL_TOL)


def assemble_system(grid: Grid, params: mdl.ModelParams) -> SparseSystem:
    """Assemble the coupled matrix and its Schur complement for one
    (grid, params) pair.

    Row blocks: (a) bulk evolution at interior nodes, (b) bulk chemical
    potential, (c) loop evolution, (d) loop chemical potential with the
    normal derivative coupling.  Entries depend only on grid and params.
    The stencils are the operators module's: the Neumann Laplacian l_mu,
    the bulk Laplacian (l_ii, l_il), the normal derivative
    (nd_phi, nd_psi) and the loop Laplacian l_loop.

    Row (a) applies to mu the mirror-ghost Neumann Laplacian l_mu: the
    ghost value of mu outside each side is the first interior value,
    which realizes the no-flux condition.  l_mu is symmetric with zero
    column sums, so the uniform interior quadrature of phi is conserved,
    and since l_mu is the operator the modified energy's kinetic term
    inverts, the modified energy dissipates.  Eliminating mu_int through
    (b) and mu_loop through (d) leaves, with k_i = (beta_i/tau + 1)/tau,

        schur = [[k1 I, 0], [0, k2 I]]
                + [[M1 l_mu, 0], [0, M2 l_loop]] @ [[rows (b)], [rows (d)]],

    where rows (b) = [l_ii - s1 I | l_il] and rows (d) =
    [-nd_phi | l_loop - s2 I - nd_psi] act on [phi | psi].  Both matrices
    are built from the same blocks, so ``schur`` is the Schur complement
    of ``matrix`` by construction.
    """
    layout = UnknownLayout.for_grid(grid)
    l_ii, l_il = ops.bulk_laplacian_matrices(grid)
    nd_phi, nd_psi = ops.normal_derivative_matrices(grid)
    l_loop = ops.loop_laplacian_matrix(grid.n)
    tau = params.tau
    k1 = (params.beta1 / tau + 1.0) / tau
    k2 = (params.beta2 / tau + 1.0) / tau
    eye_i = sp.identity(layout.n_int, format="csr")
    eye_l = sp.identity(layout.n_loop, format="csr")
    l_mu = ops.neumann_laplacian_matrix(grid.n)
    b_phi = l_ii - params.s1 * eye_i
    d_psi = l_loop - params.s2 * eye_l - nd_psi
    matrix = sp.bmat(
        [
            [k1 * eye_i, -params.M1 * l_mu, None, None],
            [b_phi, eye_i, l_il, None],
            [None, None, k2 * eye_l, -params.M2 * l_loop],
            [-nd_phi, None, d_psi, eye_l],
        ],
        format="csr",
    )
    matrix.sort_indices()
    rows_mu_int = sp.hstack([b_phi, l_il], format="csr")
    rows_mu_loop = sp.hstack([-nd_phi, d_psi], format="csr")
    schur = (
        sp.block_diag([k1 * eye_i, k2 * eye_l])
        + sp.block_diag([params.M1 * l_mu, params.M2 * l_loop])
        @ sp.vstack([rows_mu_int, rows_mu_loop])
    ).tocsr()
    schur.sort_indices()
    return SparseSystem(
        matrix=matrix,
        schur=schur,
        layout=layout,
        params=params,
        l_mu=l_mu,
        l_loop=l_loop,
        rows_mu_int=rows_mu_int,
        rows_mu_loop=rows_mu_loop,
    )


def assemble_rhs(state: State, grid: Grid, params: mdl.ModelParams) -> np.ndarray:
    """Per-step right-hand side from the current state."""
    phi = ops._check_bulk(state.phi, grid)
    psi = ops._check_loop(state.psi, grid)
    tau = params.tau
    k1 = (params.beta1 / tau + 1.0) / tau
    k2 = (params.beta2 / tau + 1.0) / tau
    return np.concatenate(
        [
            k1 * phi + (params.beta1 / tau) * state.Phi,
            mdl.f_val(phi, params.eps) - params.s1 * phi,
            k2 * psi + (params.beta2 / tau) * state.Psi,
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
    A solve that misses ``RESIDUAL_TOL`` raises a SolveError naming the
    step, with the solution and its stats.
    """
    b = assemble_rhs(state, grid, params)
    try:
        x, stats = system.solve(b)
    except linalg.SolveError as exc:
        raise linalg.SolveError(
            f"{exc} at step {state.step + 1}", x=exc.x, stats=exc.stats
        ) from exc
    if not np.all(np.isfinite(x)):
        raise NonFiniteStateError(f"non-finite solution at step {state.step + 1}")
    lay = system.layout
    phi_new = lay.phi_of(x).copy()
    psi_new = lay.psi_of(x).copy()
    tau = params.tau
    r1, r2 = params.beta1 / tau, params.beta2 / tau
    new = State(
        phi=phi_new,
        psi=psi_new,
        Phi=(phi_new - state.phi) / tau,
        Psi=(psi_new - state.psi) / tau,
        P=(params.M1 / (1.0 + r1)) * lay.mu_int_of(x) + (r1 / (1.0 + r1)) * state.P,
        Q=(params.M2 / (1.0 + r2)) * lay.mu_loop_of(x) + (r2 / (1.0 + r2)) * state.Q,
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
