"""Coupled linear scheme: assembly, per-step right-hand side, stepping.

One time step solves the coupled linear system for the stacked unknowns
x = [d | mu]: the increment d = y_new - y of the fields y = [phi | psi]
and their chemical potentials mu = [mu_int | mu_loop].  The bulk
chemical potential has unknowns at interior nodes only; its no-flux
condition enters the bulk evolution rows as the mirror-ghost Neumann
Laplacian.  Every chemical potential is an explicit sparse function of
the fields, so the coupled system is the 2x2 block saddle-point form
[[K, -L], [R, I]] and the solve eliminates mu exactly: it solves the
Schur complement K + L R on the fields, half the unknowns, and rebuilds
mu by one matrix-vector product after each solve; the full residual is
taken on the block rows, never on an assembled coupled matrix.  K + L R
is never formed either.  Away from the boundary it is a polynomial in
the Dirichlet Laplacian, diagonal in the 2-D sine basis, so a solve is
two sine transforms plus the capacitance-matrix correction of Buzbee,
Dorr, George & Golub (SIAM J. Numer. Anal. 8, 1971) on the first
interior layer and the loop: a bordered system 8n - 8 wide.  That system
commutes with the eight symmetries of the square, the group D4, so it is
factored in the D4-adapted orthonormal basis Q of those nodes: Q^T C Q =
blockdiag(A, B, B), with A the blocks of the four one-dimensional
representations and B that of the two-dimensional one, which appears
twice and is factored once.  The explicit wells plus the linear
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


# (x, y) parities of sectors 0 to 4 of ``operators.mirror_basis``
_PARITIES = ((1, 1), (1, 1), (-1, -1), (-1, -1), (1, -1))


def _ring(n: int) -> np.ndarray:
    """Interior indices of the first layer F, the 4n - 8 interior nodes
    next to the loop, line by line: the rows a = 0 and a = m - 1 of the
    (m, m) interior grid, corners included, then the columns b = 0 and
    b = m - 1 between them (m = n - 1)."""
    m = n - 1
    row, inner = np.arange(m), np.arange(1, m - 1) * m
    return np.concatenate([row, (m - 1) * m + row, inner, inner + m - 1]).astype(np.int32)


def _dense(a: sp.coo_matrix, r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
    """a[r0:r1, c0:c1] as a dense array, from the entries of a, which has
    no duplicates."""
    keep = (a.row >= r0) & (a.row < r1) & (a.col >= c0) & (a.col < c1)
    out = np.zeros((r1 - r0, c1 - c0))
    out[a.row[keep] - r0, a.col[keep] - c0] = a.data[keep]
    return out


@dataclass
class SparseSystem:
    """Time-constant blocks of the coupled system and the reusable factor
    of its boundary capacitance matrix.

    The coupled system [[K, -L], [R, I]] acts on x = [y | mu].  The
    evolution rows are K y - L mu, with K = diag(``k``) = blockdiag(k1 I,
    k2 I) and the mobility Laplacians L = blockdiag(M1 l_mu, M2 l_loop)
    (``lap``); the potential rows R y + mu (R is ``rows``) define mu as an
    explicit function of the fields.  Eliminating mu leaves S = K + L R on
    y, which is never formed.  With L_D the Dirichlet 5-point Laplacian
    (L_D - s1 I is R's bulk block), S's bulk block is P + U V^T:

    - P = k1 I + M1 L_D (L_D - s1 I) is diagonal in the 2-D sine basis
      sigma x sigma (``sigma`` from ``operators.dirichlet_modes``); ``ell``
      holds the eigenvalues of the 1-D second difference, so L_D's symbol
      is lam_kl = ell_k + ell_l, never held, and ``inv_p`` is that of P^-1;
    - U = M1 J, where J = l_mu - L_D is diagonal and nonzero only on the
      first layer F (``ring``): 1/h^2 for each neighbor a node has on the
      loop;
    - V^T = (L_D - s1 I)[F, :].

    S's loop rows read the bulk on F only, and its loop columns are
    M1 l_mu R[:, loop] with R[:, loop] nonzero in F's rows only.  So
    S y = r is solved by the capacitance-matrix method: z = V^T y_phi and
    y_psi solve the bordered system

        C [z | y_psi] = [V^T P^-1 r_phi | r_psi - S_psi,phi P^-1 r_phi]

    of width |F| + 4n = 8n - 8, and y_phi = P^-1 (r_phi - U z - S_phi,psi
    y_psi).  C commutes with D4, so in the D4 basis Q of F and the loop
    (``basis``, ``sector`` and ``vertex`` from ``operators.mirror_basis``)
    it is blockdiag(A, B, B).  The factor holds A's four sector blocks and
    B once each, and the maps ``_enter`` and ``_leave`` into and out of it
    carry Q and C's sparse couplings.
    Every solution's residual is formed on the coupled rows from k, lap
    and rows.
    """

    k: np.ndarray
    lap: sp.csr_matrix = field(repr=False)
    rows: sp.csr_matrix = field(repr=False)
    m1: float
    s1: float
    sigma: np.ndarray = field(repr=False)
    ell: np.ndarray = field(repr=False)
    inv_p: np.ndarray = field(repr=False)
    ring: np.ndarray = field(repr=False)
    basis: sp.csr_matrix = field(repr=False)
    sector: np.ndarray = field(repr=False)
    vertex: np.ndarray = field(repr=False)
    _direct: linalg.DirectFactorization | None = field(default=None, repr=False)
    _enter: sp.csc_matrix | None = field(default=None, repr=False)
    _leave: sp.csr_matrix | None = field(default=None, repr=False)

    def direct(self) -> linalg.DirectFactorization:
        """Factor of Q^T C Q = blockdiag(A, B, B), with A the blocks of
        sectors 0 to 3 and B that of sector 4, each factored once, built on
        first use with the maps into and out of it:

        - ``_enter`` takes [V^T P^-1 r_phi | P^-1 r_phi on F | r_psi] to
          Q^T of C's right-hand side;
        - ``_leave`` takes the factor's solution to [U (z + R_F,psi
          y_psi) | R_F,psi y_psi | y_psi], what y_phi and y read."""
        if self._direct is None:
            u, r_f, lr, _ = couplings = self._couplings()
            blocks = self.capacitance_blocks(couplings)
            nf, q = self.ring.size, self.basis
            self._enter = sp.hstack([q[:nf].T, -(q[nf:].T @ lr).tocsc(), q[nf:].T], format="csc")
            v = (r_f @ q[nf:]).tocsr()
            self._leave = sp.vstack([sp.diags(u) @ (q[:nf] + v), v, q[nf:]], format="csr")
            self._direct = linalg.DirectFactorization(blocks, [1, 1, 1, 1, 2])
        return self._direct

    def _couplings(self) -> tuple[np.ndarray, sp.csr_matrix, sp.csr_matrix, sp.csr_matrix]:
        """C's sparse parts (u, R_F,psi, LR, S_psi,psi): U's diagonal on F,
        R's block from the loop to F, S_psi,phi's columns on F (LR = M2
        l_loop R[loop, F]) and S's loop block."""
        m, ring = self.sigma.shape[0], self.ring
        ni = m * m
        corner = np.isin(np.arange(ring.size), [0, m - 1, m, 2 * m - 1])  # two loop neighbors
        u = self.m1 * (m + 1.0) ** 2 * np.where(corner, 2.0, 1.0)
        loop_rows = self.lap[ni:] @ self.rows  # S's loop rows, less K
        s_pp = loop_rows[:, ni:] + sp.diags(self.k[ni:])
        return u, self.rows[ring][:, ni:], loop_rows[:, ring], s_pp

    def capacitance_blocks(self, couplings: tuple | None = None) -> list[np.ndarray]:
        """Q_s^T C Q_s, dense, for the sectors s = 0 to 4: A's four blocks
        and B; sector 5's block equals B and is never formed.

        With G_g the operator of symbol g in the sine basis (P^-1 is G_1/p)
        and every operator restricted to the sector's columns, the block is

            [[I + G_rho U,  (M1 G_lam,rho + G_rho U) R_F,psi],
             [-LR G_1 U,    S_psi,psi - LR (M1 G_lam + G_1 U) R_F,psi]]

        with symbols 1/p, lam/p, rho = (lam - s1)/p and lam rho, since
        P^-1 l_mu = G_lam/p + G_1/p J.  A column on F is fixed by its values
        v on the row a = 0 and w on the column b = 0, the corners halved
        between the two; the other two lines are these times the sector's
        parities (sx, sy).  Its sine transform is 2 s0_k (sigma v)_l +
        2 (sigma w)_k s0_l on the modes k, l of those parities (s0 is
        sigma's first row) and zero elsewhere, so each G_g block is a few
        products of width n, and no (8n - 8)^2 matrix is formed."""
        s, m = self.sigma, self.sigma.shape[0]
        symbols = np.empty((4, m, m))  # filled in place: set-up's peak memory at large n
        symbols[0] = self.inv_p
        lam = np.add(self.ell[:, None], self.ell, out=symbols[1])  # scaled by 1/p last
        np.multiply(np.subtract(lam, self.s1, out=symbols[2]), self.inv_p, out=symbols[2])
        np.multiply(symbols[2], lam, out=symbols[3])
        lam *= self.inv_p
        u, r_f, lr, s_pp = self._couplings() if couplings is None else couplings
        # C's sparse parts on [F | loop], which Q keeps apart: its columns
        # lie on F or on the loop
        sparse = sp.bmat([[sp.diags(u), r_f], [lr, s_pp]], format="csr")
        sparse = (self.basis.T @ sparse @ self.basis).tocoo()
        # Q's rows on the row a = 0 and on the column b = 0 of F; the corners,
        # rows 0, m - 1, m and 2m - 1 of ``lines``, are halved between them
        lines = self.basis[np.r_[0:m, 0, 2 * m : 3 * m - 2, m]].tocoo()
        lines.data[np.isin(lines.row, [0, m - 1, m, 2 * m - 1])] *= 0.5
        even = np.arange(m) % 2 == 0
        blocks = []
        for sec, (sx, sy) in enumerate(_PARITIES):
            lo, hi = np.searchsorted(self.sector, [sec, sec + 1])
            f = np.count_nonzero(self.vertex[lo:hi] < self.ring.size)  # F's columns come first
            kx, ly = np.flatnonzero(even == (sx > 0)), np.flatnonzero(even == (sy > 0))
            vw = _dense(lines, 0, 2 * m, lo, lo + f)
            x, w = s[ly] @ vw[:m], s[kx] @ vw[m:]
            sk, sl = s[0, kx], s[0, ly]
            # the four symbols' blocks at once: products over modes (kx, ly)
            gs = symbols[:, kx[:, None], ly]
            t = w.T @ ((sk[:, None] * gs * sl) @ x)
            g = x.T @ ((sk * sk @ gs)[..., None] * x)
            g += w.T @ ((gs @ (sl * sl))[..., None] * w)
            g += t
            g += t.transpose(0, 2, 1)
            g *= 4.0
            g1, g_lam, g_rho, g_lr = g
            part = _dense(sparse, lo, hi, lo, hi)
            du, rh, lrh, sh = part[:f, :f], part[:f, f:], part[f:, :f], part[f:, f:]
            blocks.append(np.block([
                [np.eye(f) + g_rho @ du, (self.m1 * g_lr + g_rho @ du) @ rh],
                [-lrh @ (g1 @ du), sh - lrh @ ((self.m1 * g_lam + g1 @ du) @ rh)],
            ]))
        return blocks

    def solve(self, b: np.ndarray) -> tuple[np.ndarray, linalg.SolveStats]:
        """Solve [[K, -L], [R, I]] x = b for x = [y | mu], b of shape
        (2 * (n_int + n_loop),) (else a ValueError): y solves S y = b_y +
        L b_mu by the capacitance-matrix method, then mu = b_mu - R y.  Two
        sine transforms of the (n-1)^2 grid; as lam_kl = ell_k + ell_l, the
        rest is on F's four lines: products with [e; e ell], e sigma's rows
        0 and m - 1, and the correction P^-1 (L^T R) of two (12, m) stacks.
        x and the residual [b_y - (K y - L mu) | b_mu - (R y + mu)] fill one
        array each; x is returned with ||residual|| / ||b|| <= RESIDUAL_TOL,
        or a SolveError carries x and its stats."""
        b = np.asarray(b, dtype=float)
        n_y = self.k.size
        if b.shape != (2 * n_y,):
            raise ValueError(f"right-hand side has shape {b.shape}, expected ({2 * n_y},)")
        b_y, b_mu = b[:n_y], b[n_y:]
        fac = self.direct()  # built on first use, with _enter and _leave
        s, ell, m, nf = self.sigma, self.ell, self.sigma.shape[0], self.ring.size
        rhs = b_y + self.lap @ b_mu
        c = s @ rhs[: m * m].reshape(m, m) @ s
        c *= self.inv_p  # P^-1 r_phi in the sine basis
        # F's lines e g sigma and e g^T sigma of g = c (lam - s1) and of c, e
        # sigma's rows 0 and m - 1: e (c (lam - s1)) = (e ell) c + (e c) (ell - s1)
        e4 = np.concatenate([s[:: m - 1], s[:: m - 1] * ell])
        g = [np.concatenate([t[2:] + t[:2] * (ell - self.s1), t[:2]]) for t in (e4 @ c, e4 @ c.T)]
        on_f = np.concatenate([(g[0] @ s).reshape(2, -1), (g[1] @ s[:, 1:-1]).reshape(2, -1)], 1)
        # the coupled rows' residual below, not the capacitance one, is checked
        sol, _ = fac.solve(self._enter @ np.concatenate([on_f.ravel(), rhs[m * m :]]), tol=math.inf)
        del rhs  # freed before x and r: a lower peak
        uz_v_y = self._leave @ sol
        # the factor's field f_i on F transforms to d_i = left_i^T right_i:
        # e by the transforms of f_i's rows, and those of its columns by e
        f = uz_v_y[: 2 * nf].reshape(2, nf)
        e2 = np.broadcast_to(e4[:2], (2, 2, m))
        left = np.concatenate([e2, f[:, 2 * m :].reshape(2, 2, m - 2) @ s[1:-1]], axis=1)
        right = np.concatenate([f[:, : 2 * m].reshape(2, 2, m) @ s, e2], axis=1)
        # d_0 + M1 lam d_1, lam d_1 = (ell left_1)^T right_1 + left_1^T (right_1 ell)
        lf = np.concatenate([left[0], self.m1 * ell * left[1], self.m1 * left[1]])
        corr = lf.T @ np.concatenate([right[0], right[1], right[1] * ell])
        corr *= self.inv_p
        c -= corr
        x = np.empty_like(b)
        np.matmul(np.matmul(s, c, out=corr), s, out=x[: m * m].reshape(m, m))
        del c, corr  # freed before r, as rhs
        x[m * m : n_y] = uz_v_y[2 * nf :]
        y, mu = x[:n_y], x[n_y:]
        ry = self.rows @ y
        np.subtract(b_mu, ry, out=mu)
        r = np.empty_like(b)
        r_y, r_mu = r[:n_y], r[n_y:]
        np.subtract(b_mu, np.add(ry, mu, out=r_mu), out=r_mu)
        del ry
        np.multiply(self.k, y, out=r_y)
        r_y -= self.lap @ mu
        np.subtract(b_y, r_y, out=r_y)
        return linalg.check_residual(r, b, x, RESIDUAL_TOL)


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
    The solver's time-constant parts are set here too: the sine basis, the
    1-D eigenvalues ell and P^-1's symbol on the (n-1)^2 interior grid, and
    the D4 basis of the first layer F and the loop (``SparseSystem``).
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
    # scipy sizes the difference for nnz(H) + nnz(blockdiag) and keeps views
    # of those arrays; the copy holds R at its exact size for the run
    rows = (hess - linalg._block_diag(
        [params.s1 * sp.identity(ni, format="csr"), loop_diag - l_loop]
    )).copy()
    l_mu = ops.neumann_laplacian_matrix(grid.n)
    l_mu.data *= params.M1
    l_loop.data *= params.M2
    lap = linalg._block_diag([l_mu, l_loop])
    del hess, l_mu, l_loop  # freed before the solver's arrays: a lower heap peak
    sigma, ell = ops.dirichlet_modes(grid.n)
    lam = ell[:, None] + ell
    ring = _ring(grid.n)
    basis, sector, vertex = ops.mirror_basis(grid, np.r_[ring, ni : ni + grid.n_loop])
    return SparseSystem(
        k=k, lap=lap, rows=rows, m1=params.M1, s1=params.s1, sigma=sigma, ell=ell,
        inv_p=1.0 / (k1 + params.M1 * lam * (lam - params.s1)), ring=ring, basis=basis,
        sector=sector, vertex=vertex,
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
