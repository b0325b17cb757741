"""Coupled linear scheme: assembly, per-step right-hand side, stepping.

One time step solves the coupled linear system for x = [d | mu]: the
increment d = y_new - y of the fields y = [phi | psi] and their chemical
potentials mu = [mu_int | mu_loop].  The bulk chemical potential lives
on interior nodes only; its no-flux condition enters the bulk evolution
rows as the mirror-ghost Neumann Laplacian.  Every chemical potential is
an explicit linear function of the fields, so the system is the block
form [[K, -L], [R, I]], and the solve eliminates mu exactly: it solves
the Schur complement K + L R on the fields and rebuilds mu by one product.
K + L R is never formed.  Away from the boundary it is a polynomial in
the Dirichlet Laplacian, diagonal in the 2-D sine basis, so a solve is
two sine transforms plus the capacitance-matrix correction of Buzbee,
Dorr, George & Golub (SIAM J. Numer. Anal. 8, 1971) on the first
interior layer and the loop, 8n - 8 wide.  That system commutes with the
symmetry group D4 of the square, so in its D4-adapted basis Q it is
blockdiag(A, B, B), inverted once per run: the explicit wells and the
linear stabilizers keep every block constant in time.  The increment
form keeps K y out of floating point, so the masses are conserved to
roundoff and a constant state at a well root does not move.  The rates
are the increments over tau, zero at the start, and the step carries
their inverse-Laplacian potentials, read off the solved mu, so a
diagnostic row prices the modified energy's kinetic terms without a
Poisson solve.  The blocks L and R are slice stencils of ``operators``
run into buffers the system holds; set-up and steps use numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import linalg
from . import model as mdl
from . import operators as ops
from .grid import Grid, _check_ints

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
    ni, n_y = grid.n_int, grid.n_int + grid.n_loop
    return x[:ni], x[ni:n_y], x[n_y : n_y + ni], x[n_y + ni :]


def _relaxation(params: mdl.ModelParams) -> tuple[float, float, float, float]:
    """(r1, r2, k1, k2): r_i = beta_i/tau weighs the previous rate in the
    evolution rows and k_i = (r_i + 1)/tau is their diagonal."""
    tau = params.tau
    r1, r2 = params.beta1 / tau, params.beta2 / tau
    return r1, r2, (r1 + 1.0) / tau, (r2 + 1.0) / tau


# (x, y) parities of sectors 0 to 4 of ``operators.mirror_basis``
_PARITIES = ((1, 1), (1, 1), (-1, -1), (-1, -1), (1, -1))


class SparseSystem:
    """Time-constant blocks of the coupled system for one (grid, params)
    pair, applied as stencils, and the factor of its boundary capacitance
    matrix.  The constructor derives every array from (grid, params) and
    the products and solves only read them, so one system serves any
    number of runs; the factor is built in the first ``solve``.  The name
    is from when the blocks were sparse matrices; the benchmark traces
    ``SparseSystem.solve``.

    The coupled system [[K, -L], [R, I]] acts on x = [y | mu]: K =
    diag(``k``), L = blockdiag(M1 l_mu, M2 l_loop) (``apply_lap``) and
    R y = [L_D phi + trace - s1 phi | -d_n y + l_loop psi - stab psi]
    (``apply_rows``), with L_D the Dirichlet 5-point Laplacian and ``stab``
    = s2 + s1 h w_k.  Eliminating mu leaves S = K + L R on y, never formed.
    S's bulk block is P + U V^T: P = k1 I + M1 L_D (L_D - s1 I) is diagonal
    in the sine basis sigma x sigma, with symbol lam_kl = ell_k + ell_l and
    ``inv_p`` that of P^-1; U = M1 (l_mu - L_D) is diagonal on the first
    layer F (``ring``), ``u``, M1/h^2 per loop neighbor; V^T = (L_D - s1
    I)[F, :].  F and the loop couple only through each edge node's inward
    neighbor (``loop_to_f``, its position in F, or |F| at a corner), so
    S y = r is solved by the capacitance-matrix method: z = V^T y_phi and
    y_psi solve C [z | y_psi] = [V^T P^-1 r_phi | r_psi - S_psi,phi P^-1
    r_phi], 8n - 8 wide, and y_phi = P^-1 (r_phi - U z - S_phi,psi y_psi).
    C commutes with D4, so in the D4 basis Q of F and the loop (``q_cols``,
    ``q_vals``, ``sector``, ``vertex`` from ``operators.mirror_basis``) it
    is blockdiag(A, B, B); the factor holds the inverses of A's four sector
    blocks and of B, and ``_enter`` and ``_leave`` apply Q and C's
    couplings as gathers.  The products run through held buffers into
    ``out``, a new array unless given (``solve`` and ``step`` give ``_out``).
    """

    def __init__(self, grid: Grid, params: mdl.ModelParams):
        _, _, k1, k2 = _relaxation(params)
        self.n = n = grid.n
        m, ni, nl = n - 1, grid.n_int, grid.n_loop
        self.m1, self.m2, self.s1 = params.M1, params.M2, params.s1
        self.k = np.concatenate([np.full(ni, k1), np.full(nl, k2)])
        self.stab = params.s2 + params.s1 * mdl.loop_well_weights(n)
        self.sigma, self.ell = ops.dirichlet_modes(n)
        lam = self.ell[:, None] + self.ell
        self.inv_p = 1.0 / (k1 + params.M1 * lam * (lam - params.s1))
        # F, the 4n - 8 interior nodes next to the loop, line by line: the
        # rows a = 0 and a = m - 1 of the (m, m) interior grid, corners
        # included, then the columns b = 0 and b = m - 1 between them
        row, inner = np.arange(m), np.arange(1, m - 1) * m
        ring = np.concatenate([row, (m - 1) * m + row, inner, inner + m - 1]).astype(np.int32)
        self.ring = ring
        self.q_cols, self.q_vals, self.sector, self.vertex = ops.mirror_basis(
            grid, np.r_[ring, ni : ni + nl])
        self.loop_index = ops.loop_stencil_index(grid)
        at_f = np.full((n + 1) ** 2, ring.size)  # a vertex's position in F, else |F|
        i, j = np.divmod(ring, m)
        at_f[(i + 1) * (n + 1) + j + 1] = np.arange(ring.size)
        self.loop_to_f = at_f[self.loop_index[:, 3]]  # a corner's inward index is its own
        neighbors = np.bincount(self.loop_to_f, minlength=ring.size + 1)[:-1]  # on the loop
        self.u = params.M1 * float(n * n) * neighbors
        # R's loop rows on loop_index, less stab, and h^2 l_loop on _loop3
        self._w_rows = float(n * n) * ops._LOOP_TANGENTIAL - n * ops._LOOP_NORMAL
        self._second = ops._LOOP_TANGENTIAL[:3]
        loop = np.arange(nl)  # each loop node's two neighbors and itself
        self._loop3 = np.stack([(loop - 1) % nl, (loop + 1) % nl, loop], axis=1)
        self._lr_index = self.loop_to_f[self._loop3]  # their F neighbors, for LR
        e = self.sigma[:: n - 2]  # sigma's rows 0 and m - 1, solve's line data
        self._e4, self._e2 = np.concatenate([e, e * self.ell]), np.broadcast_to(e, (2, 2, m))
        self._full = np.empty((n + 1, n + 1))
        self._flat = np.empty((n + 1) * m)  # the five-point stencil's output
        self._tmp = np.empty(m * m)
        self._out = np.empty(self.k.size)
        self._direct: linalg.DirectFactorization | None = None

    def apply_rows(self, phi: np.ndarray, psi: np.ndarray, out: np.ndarray | None = None
                   ) -> np.ndarray:
        """R [phi | psi]: the 5-point Laplacian less s1 phi, and on the loop
        (1/h^2 + 1/2h) times the tangential second difference, less (psi -
        phi_in)/h and stab psi.  The stencils' weights sum to zero exactly
        and the stabilizers come on their own, so at a constant well root
        these are the right-hand side's potential rows to the bit."""
        n, mm = self.n, (self.n - 1) ** 2
        out = np.empty(self.k.size) if out is None else out
        full = ops._vertex_values(phi, psi, self.loop_index[:, 2], self._full)
        np.copyto(out[:mm].reshape(n - 1, n - 1), ops._five_point(full, self._flat))
        out[:mm] *= float(n * n)
        out[:mm] -= np.multiply(phi, self.s1, out=self._tmp)
        loop = np.matmul(full.ravel()[self.loop_index], self._w_rows, out=out[mm:])
        loop -= self.stab * psi
        return out

    def apply_lap(self, mu_int: np.ndarray, mu_loop: np.ndarray, out: np.ndarray | None = None
                  ) -> np.ndarray:
        """L [mu_int | mu_loop]: the 5-point stencil with mirror ghosts and
        the loop's periodic second difference."""
        n, mm = self.n, (self.n - 1) ** 2
        out = np.empty(self.k.size) if out is None else out
        full, p = self._full, mu_int.reshape(n - 1, n - 1)
        full[1:n, 1:n], full[0, 1:n], full[n, 1:n] = p, p[0], p[-1]  # the mirror ghosts:
        full[1:n, 0], full[1:n, n] = p[:, 0], p[:, -1]  # each the first inside value
        np.copyto(out[:mm].reshape(n - 1, n - 1), ops._five_point(full, self._flat))
        out[:mm] *= self.m1 * n * n
        np.matmul(mu_loop[self._loop3], self._second, out=out[mm:])
        out[mm:] *= self.m2 * n * n
        return out

    def _enter(self, on_f: np.ndarray, r_psi: np.ndarray) -> np.ndarray:
        """Q^T [a | r_psi - LR b] for on_f = [a; b] on F: the factor's
        right-hand side, LR = M2 l_loop R[loop, F], R[loop, F] an edge
        node's inward neighbor at R's inward weight, 1/h."""
        nf = self.ring.size
        nodes = np.empty(self.q_cols.shape[0])
        nodes[:nf] = on_f[0]  # then b, a zero appended for the corners, gathered for LR
        np.matmul(np.append(on_f[1], 0.0)[self._lr_index], self._second, out=nodes[nf:])
        nodes[nf:] *= -self.m2 * float(self.n**2) * self._w_rows[3]
        nodes[nf:] += r_psi
        return ops.basis_apply_t(self.q_cols, self.q_vals, nodes)

    def _leave(self, sol: np.ndarray) -> np.ndarray:
        """[U (z + R_F,psi y_psi) | R_F,psi y_psi | y_psi] for [z | y_psi] =
        Q sol, R[F, loop] a node's loop neighbors at weight 1/h^2."""
        nf = self.ring.size
        nodes = ops.basis_apply(self.q_cols, self.q_vals, sol)
        out = np.empty(nf + nodes.size)
        v = np.bincount(self.loop_to_f, nodes[nf:], minlength=nf + 1)[:nf]
        np.multiply(v, float(self.n**2), out=out[nf : 2 * nf])
        np.multiply(self.u, np.add(nodes[:nf], out[nf : 2 * nf], out=out[:nf]), out=out[:nf])
        out[2 * nf :] = nodes[nf:]
        return out

    def direct(self) -> linalg.DirectFactorization:
        """Inverse of Q^T C Q = blockdiag(A, B, B), built on first use: A's
        four sector blocks and B, each inverted once by bordered elimination
        after its columns on F, where it is I plus a smoothing operator."""
        if self._direct is None:
            self._direct = linalg.DirectFactorization(
                self.capacitance_blocks(), [1, 1, 1, 1, 2], self._f_columns()[:5])
        return self._direct

    def _f_columns(self) -> np.ndarray:
        """Each sector's count of columns on F, which come first in it."""
        return np.bincount(self.sector[self.vertex < self.ring.size], minlength=6)

    def _couplings(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """C's sparse parts [[U, R_F,psi], [LR, S_psi,psi]] on [F | loop] as
        (row, column, value) triplets, duplicates summed.  LR and S_psi,psi
        - k2 I are M2 l_loop R[loop, :]: an entry (p, q, r) of R gives
        (p + d, q, M2 r c_d / h^2) for d = -1, 1, 0 and c = ``_second``."""
        n, nf, nl = self.n, self.ring.size, self.stab.size
        loop, edge = np.arange(nl), np.flatnonzero(self.loop_to_f < nf)
        # R[loop, :] on loop_index's columns; a corner's inward one is itself
        inward = np.where(self.loop_to_f < nf, self.loop_to_f, nf + loop)
        p = np.concatenate([np.repeat(loop, 4), loop])
        q = np.concatenate([np.column_stack([nf + self._loop3, inward]).ravel(), nf + loop])
        r = self.m2 * float(n * n) * np.concatenate([np.tile(self._w_rows, nl), -self.stab])
        rows = [np.arange(nf), self.loop_to_f[edge]] + [nf + (p + d) % nl for d in (-1, 1, 0)]
        vals = [self.u, np.full(edge.size, float(n * n))] + [r * c for c in self._second]
        cols = [np.arange(nf), nf + edge, q, q, q, nf + loop]
        return (np.concatenate(rows + [nf + loop]), np.concatenate(cols),
                np.concatenate(vals + [np.full(nl, self.k[-1])]))

    def capacitance_blocks(self) -> list[np.ndarray]:
        """Q_s^T C Q_s, dense, for the sectors s = 0 to 4: A's four blocks
        and B (sector 5's equals B).  With G_g the operator of symbol g in
        the sine basis (P^-1 is G_1/p), restricted to the sector, the block
        is [[I + G_rho U, (M1 G_lam,rho + G_rho U) R_F,psi], [-LR G_1 U,
        S_psi,psi - LR (M1 G_lam + G_1 U) R_F,psi]] with symbols 1/p, lam/p,
        rho = (lam - s1)/p and lam rho; G_rho = G_lam - s1 G_1, and U's
        diagonal block scales columns.  F's columns, ``_f_columns()`` of
        them, come first; one is fixed by its values v on F's row a = 0 and
        w on its column b = 0 (corners halved), the other lines being these
        times the sector's parities, so its sine transform is 2 s0_k (sigma
        v)_l + 2 (sigma w)_k s0_l on the modes of those parities, and each
        G_g block is a few products of width n.  The sparse parts' block X
        is read off at the sector's vertices: C Q_s = Q_s X, and row
        vertex[t] of Q_s is nonzero in column t alone, so X[t] is row
        vertex[t] of C Q_s over that entry, one pass over ``_couplings``."""
        s, m = self.sigma, self.sigma.shape[0]
        symbols = np.empty((3, m, m))  # filled in place: set-up's peak memory at large n
        symbols[0] = self.inv_p
        lam = np.add(self.ell[:, None], self.ell, out=symbols[1])  # scaled by 1/p last
        np.multiply(np.subtract(lam, self.s1, out=symbols[2]), self.inv_p, out=symbols[2])
        symbols[2] *= lam
        lam *= self.inv_p
        i, j, c = self._couplings()
        # Q's rows on the row a = 0 and on the column b = 0 of F; the corners,
        # rows 0, m - 1, m and 2m - 1 of ``lines``, are halved between them
        lines = np.r_[0:m, 0, 2 * m : 3 * m - 2, m]
        half = np.where(np.isin(np.arange(2 * m), [0, m - 1, m, 2 * m - 1]), 0.5, 1.0)
        at = np.empty(self.q_cols.shape[0], dtype=np.int64)  # a node's row in its sector's block
        even = np.arange(m) % 2 == 0
        blocks = []
        for sec, ((sx, sy), f) in enumerate(zip(_PARITIES, self._f_columns())):
            lo, hi = np.searchsorted(self.sector, [sec, sec + 1])
            cols, vals = self.q_cols[:, sec] - lo, self.q_vals[:, sec]
            kx, ly = np.flatnonzero(even == (sx > 0)), np.flatnonzero(even == (sy > 0))
            vw = np.zeros((2 * m, f))
            on = np.flatnonzero(vals[lines])
            vw[on, cols[lines[on]]] = vals[lines[on]] * half[on]
            x, w = s[ly] @ vw[:m], s[kx] @ vw[m:]
            sk, sl = s[0, kx], s[0, ly]
            # the three symbols' blocks at once: products over modes (kx, ly)
            gs = symbols[:, kx[:, None], ly]
            t = w.T @ ((sk[:, None] * gs * sl) @ x)
            g = x.T @ ((sk * sk @ gs)[..., None] * x)
            g += w.T @ ((gs @ (sl * sl))[..., None] * w)
            g += t
            g += t.transpose(0, 2, 1)
            g *= 4.0
            g1, g_lam, g_lr = g
            at.fill(-1)
            at[self.vertex[lo:hi]] = np.arange(hi - lo)
            keep = (at[i] >= 0) & (vals[j] != 0.0)
            ik, jk = i[keep], j[keep]
            part = np.bincount(at[ik] * (hi - lo) + cols[jk], c[keep] * vals[jk] / vals[ik],
                               minlength=(hi - lo) ** 2).reshape(hi - lo, hi - lo)
            du, rh, lrh, sh = part.diagonal()[:f], part[:f, f:], part[f:, :f], part[f:, f:]
            g_rho_u, g1_u = (g_lam - self.s1 * g1) * du, g1 * du  # U's block is diagonal
            blocks.append(np.block([
                [np.eye(f) + g_rho_u, (self.m1 * g_lr + g_rho_u) @ rh],
                [-lrh @ g1_u, sh - lrh @ ((self.m1 * g_lam + g1_u) @ rh)],
            ]))
        return blocks

    def solve(self, b: np.ndarray) -> tuple[np.ndarray, linalg.SolveStats]:
        """Solve [[K, -L], [R, I]] x = b for x = [y | mu] (b of the wrong
        shape is a ValueError): y solves S y = b_y + L b_mu by two sine
        transforms and, on F's four lines, the capacitance correction, then
        mu = b_mu - R y.  x is returned with its coupled residual's norm at
        most RESIDUAL_TOL ||b||, or a SolveError carries x and its stats."""
        b = np.asarray(b, dtype=float)
        n_y = self.k.size
        if b.shape != (2 * n_y,):
            raise ValueError(f"right-hand side has shape {b.shape}, expected ({2 * n_y},)")
        b_y, b_mu = b[:n_y], b[n_y:]
        fac = self.direct()  # built on first use
        s, ell, m, nf = self.sigma, self.ell, self.sigma.shape[0], self.ring.size
        mm = m * m
        rhs = self.apply_lap(b_mu[:mm], b_mu[mm:], out=self._out)
        rhs += b_y
        c = s @ rhs[:mm].reshape(m, m) @ s
        c *= self.inv_p  # P^-1 r_phi in the sine basis
        # F's lines e g sigma and e g^T sigma of g = c (lam - s1) and of c, e
        # sigma's rows 0 and m - 1: e (c (lam - s1)) = (e ell) c + (e c) (ell - s1)
        e4, ell_s1 = self._e4, ell - self.s1
        g = [np.concatenate([t[2:] + t[:2] * ell_s1, t[:2]]) for t in (e4 @ c, e4 @ c.T)]
        on_f = np.concatenate([(g[0] @ s).reshape(2, -1), (g[1] @ s[:, 1:-1]).reshape(2, -1)], 1)
        # the coupled rows' residual below, not the capacitance one, is checked
        sol, _ = fac.solve(self._enter(on_f, rhs[mm:]), tol=math.inf)
        uz_v_y = self._leave(sol)
        # the factor's field f_i on F transforms to d_i = left_i^T right_i:
        # e by the transforms of f_i's rows, and those of its columns by e
        f = uz_v_y[: 2 * nf].reshape(2, nf)
        left = np.concatenate([self._e2, f[:, 2 * m :].reshape(2, 2, m - 2) @ s[1:-1]], axis=1)
        right = np.concatenate([f[:, : 2 * m].reshape(2, 2, m) @ s, self._e2], axis=1)
        # d_0 + M1 lam d_1, lam d_1 = (ell left_1)^T right_1 + left_1^T (right_1 ell)
        lf = np.concatenate([left[0], self.m1 * ell * left[1], self.m1 * left[1]])
        corr = lf.T @ np.concatenate([right[0], right[1], right[1] * ell])
        corr *= self.inv_p
        c -= corr
        x = np.empty_like(b)
        np.matmul(np.matmul(s, c, out=corr), s, out=x[:mm].reshape(m, m))
        del c, corr  # freed before r: a lower peak
        x[mm:n_y] = uz_v_y[2 * nf :]
        y, mu = x[:n_y], x[n_y:]
        ry = self.apply_rows(y[:mm], y[mm:], out=self._out)
        np.subtract(b_mu, ry, out=mu)
        r = np.empty_like(b)
        r_y, r_mu = r[:n_y], r[n_y:]
        np.subtract(b_mu, np.add(ry, mu, out=r_mu), out=r_mu)
        np.multiply(self.k, y, out=r_y)
        r_y -= self.apply_lap(mu[:mm], mu[mm:], out=self._out)
        np.subtract(b_y, r_y, out=r_y)
        return linalg.check_residual(r, b, x, RESIDUAL_TOL)


def assemble_system(grid: Grid, params: mdl.ModelParams) -> SparseSystem:
    """The blocks of the coupled system for one (grid, params) pair.

    The evolution rows apply to mu_int the mirror-ghost Neumann Laplacian
    l_mu, with zero column sums, so the interior sum of phi is conserved;
    the modified energy's kinetic term inverts it, so that energy
    dissipates.  The potential rows are the gradient of the discrete energy
    in the field weights W = blockdiag(h^2 I, h I): W R is symmetric.
    """
    return SparseSystem(grid, params)


def _check_size(name: str, value: np.ndarray, size: int) -> None:
    """ValueError naming the state's field ``name`` unless its shape is
    (size,): numpy would broadcast a one-element array over every node."""
    if np.shape(value) != (size,):
        raise ValueError(f"state.{name} has shape {np.shape(value)}, expected ({size},)")


def assemble_rhs(state: State, grid: Grid, params: mdl.ModelParams) -> np.ndarray:
    """Per-step right-hand side [r Phi | c(y)], filled in place: the last
    rates times r = beta/tau, and the wells minus the stabilizers, the loop
    rows with the bulk well's f - s1 psi at weight h w_k.  ``step``
    subtracts R y.  A mis-shaped field is a ValueError."""
    phi = ops._check_bulk(state.phi, grid)
    psi = ops._check_loop(state.psi, grid)
    _check_size("Phi", state.Phi, grid.n_int)
    _check_size("Psi", state.Psi, grid.n_loop)
    r1, r2, _, _ = _relaxation(params)
    ni, n_y = grid.n_int, grid.n_int + grid.n_loop
    b = np.empty(2 * n_y)
    np.multiply(state.Phi, r1, out=b[:ni])
    np.multiply(state.Psi, r2, out=b[ni:n_y])
    y = b[n_y:]
    y[:ni], y[ni:] = phi, psi
    f_y = mdl.f_val(y, params.eps)
    np.subtract(f_y, np.multiply(y, params.s1, out=y), out=y)
    del f_y
    loop = y[ni:]
    loop *= mdl.loop_well_weights(grid.n)
    g = mdl.g_val(psi, params.delta)
    g -= params.s2 * psi
    loop += g
    return b


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
    SolveError with the solution and its stats; both name the step.  A
    mis-shaped field or potential is a ValueError that names it.
    """
    _check_size("P", state.P, grid.n_int)
    _check_size("Q", state.Q, grid.n_loop)
    b = assemble_rhs(state, grid, params)
    b[system.k.size :] -= system.apply_rows(state.phi, state.psi, out=system._out)
    if not np.all(np.isfinite(b)):
        raise NonFiniteStateError(f"non-finite right-hand side at step {state.step + 1}")
    try:
        x, stats = system.solve(b)
    except linalg.SolveError as exc:
        raise linalg.SolveError(
            f"{exc} at step {state.step + 1}", x=exc.x, stats=exc.stats
        ) from exc
    del b  # freed before the new state's arrays: a lower peak
    d_phi, d_psi, mu_int, mu_loop = split_unknowns(x, grid)
    r1, r2, _, _ = _relaxation(params)
    tau = params.tau
    p, q = mu_int * (params.M1 / (1.0 + r1)), mu_loop * (params.M2 / (1.0 + r2))
    p += (r1 / (1.0 + r1)) * state.P
    q += (r2 / (1.0 + r2)) * state.Q
    new = State(phi=state.phi + d_phi, psi=state.psi + d_psi, Phi=d_phi / tau, Psi=d_psi / tau,
                P=p, Q=q, t=(state.step + 1) * tau, step=state.step + 1)
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
    at the final step unconditionally (``diag_record``); a ``diag_cadence``
    that is not an integer is a TypeError.  Every solve is
    held to ``RESIDUAL_TOL``.  ``on_step`` is invoked with every state, the
    initial one included.
    """
    _check_ints(diag_cadence=diag_cadence)
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
