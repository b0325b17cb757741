"""Model parameters, double-well potentials, energies and mass ledgers.

The free energy splits into a bulk part (quartic well F plus Dirichlet
energy over the square) and a surface part (quartic well G plus Dirichlet
energy over the perimeter loop).  The modified energy augments the total
by kinetic-like terms built from inverse Laplacians of the rate fields;
it is the quantity the hyperbolic relaxation dissipates.  Runs read those
inverses from the potentials the step carries (``scheme.diag_record``);
``modified_energy`` here computes them afresh by the zero-mean Poisson
solves of ``operators`` (cosine and Fourier transforms) and is the
reference the run's rows are tested against.  Module caches hold only
read-only per-n arrays that the step or the diagnostic row reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from . import operators as ops
from .grid import Grid

if TYPE_CHECKING:  # pragma: no cover
    from .scheme import State


@dataclass(frozen=True)
class ModelParams:
    """Physical and scheme parameters.

    M1, M2 are the bulk/surface mobilities, beta1, beta2 the hyperbolic
    relaxation coefficients, eps and delta the interface widths of the
    bulk and surface wells, s1, s2 the linear stabilizers and tau the time
    step.
    """

    M1: float = 0.001
    M2: float = 0.001
    beta1: float = 0.0
    beta2: float = 0.0
    eps: float = 0.02
    delta: float = 0.02
    s1: float = 5000.0
    s2: float = 5000.0
    tau: float = 1e-4

    def __post_init__(self):
        # written so that NaN fails every check
        for name in ("M1", "M2", "eps", "delta", "tau"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        for name in ("eps", "delta"):
            if not _stabilizer(getattr(self, name)) < math.inf:
                raise ValueError(
                    f"{name} must be large enough that 2/{name}^2 is finite, "
                    f"got {getattr(self, name)}"
                )
        for name in ("beta1", "beta2", "s1", "s2"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be nonnegative and finite, got {getattr(self, name)}")
        for name in ("beta1", "beta2"):
            # the diagonal (beta/tau + 1)/tau of the scheme's evolution rows
            if not (getattr(self, name) / self.tau + 1.0) / self.tau < math.inf:
                raise ValueError(
                    f"tau must be large enough that ({name}/tau + 1)/tau is finite, "
                    f"got tau={self.tau} with {name}={getattr(self, name)}"
                )

    @classmethod
    def with_defaults(cls, h: float, **overrides) -> "ModelParams":
        """Default parameters tied to the mesh width: eps = delta = 2h and
        stabilizers 2/eps^2, 2/delta^2 unless overridden."""
        eps = overrides.pop("eps", 2.0 * h)
        delta = overrides.pop("delta", 2.0 * h)
        s1 = overrides.pop("s1", _stabilizer(eps))
        s2 = overrides.pop("s2", _stabilizer(delta))
        return cls(eps=eps, delta=delta, s1=s1, s2=s2, **overrides)


def _stabilizer(width: float) -> float:
    """Default stabilizer 2/width^2 of a well: inf where width^2 underflows
    to zero, 0 where it overflows."""
    try:
        return 2.0 / width**2
    except ZeroDivisionError:
        return math.inf
    except OverflowError:
        return 0.0


# ---- potentials --------------------------------------------------------


def F_val(phi, eps: float):
    """Bulk double-well potential (phi^2 - 1)^2 / (4 eps^2)."""
    phi = np.asarray(phi, dtype=float)
    return (phi * phi - 1.0) ** 2 / (4.0 * eps * eps)


def f_val(phi, eps: float):
    """Derivative of F: (phi^3 - phi) / eps^2.

    Written phi * (phi^2 - 1): numpy's float power is far slower than two
    products.
    """
    phi = np.asarray(phi, dtype=float)
    return phi * (phi * phi - 1.0) / (eps * eps)


def G_val(psi, delta: float):
    """Surface double-well potential (psi^2 - 1)^2 / (4 delta^2)."""
    psi = np.asarray(psi, dtype=float)
    return (psi * psi - 1.0) ** 2 / (4.0 * delta * delta)


def g_val(psi, delta: float):
    """Derivative of G: (psi^3 - psi) / delta^2, written as in f_val."""
    psi = np.asarray(psi, dtype=float)
    return psi * (psi * psi - 1.0) / (delta * delta)


# ---- quadratures and masses -------------------------------------------


def bulk_quadrature_weights(grid: Grid) -> np.ndarray:
    """Per-node weights of the conserved bulk-mass quadrature.

    Uniform weight 1/(n-1)^2 per interior node, so the total weight is
    exactly 1 and a constant field's mass is exact.  The mirror closure
    of the chemical potential makes the bulk update's mu-Laplacian the
    mirror-ghost Neumann Laplacian, whose columns sum to zero; so the
    plain interior sum, and with it this quadrature, is an exact
    invariant of the discretization, kept to roundoff by the step's
    increment form.
    """
    return np.full(grid.n_int, 1.0 / grid.n_int)


def bulk_mass(phi: np.ndarray, grid: Grid) -> float:
    """Quadrature of the bulk order parameter over the square.

    Bulk and surface masses are separately conserved quantities of the
    model (no mass exchange across the boundary), so the bulk ledger is a
    functional of the interior values alone: the mean over the interior
    nodes, the quadrature the scheme conserves exactly; see
    bulk_quadrature_weights.
    """
    phi = ops._check_bulk(phi, grid)
    return float(bulk_quadrature_weights(grid) @ phi)


def surface_mass(psi: np.ndarray, grid: Grid) -> float:
    """h * sum of the loop values (rectangle rule on the closed chain)."""
    psi = ops._check_loop(psi, grid)
    return grid.h * float(psi.sum())


@lru_cache(maxsize=8)
def _trapezoid_weights(n: int) -> np.ndarray:
    """Full-grid trapezoid weights: 1 interior, 1/2 edges, 1/4 corners."""
    t = ops.trapezoid_weights(n)
    w = np.outer(t, t)
    w.setflags(write=False)
    return w


@lru_cache(maxsize=8)
def loop_well_weights(n: int) -> np.ndarray:
    """h w_k per loop node: the bulk well's weight h^2 w_k there in
    ``total_energy`` over the loop weight h.  Each loop side runs from a
    corner along a boundary edge, where w_k is half the side's trapezoid
    weight.  Read-only."""
    w = (1.0 / n) * (0.5 * np.tile(ops.trapezoid_weights(n)[:-1], 4))
    w.setflags(write=False)
    return w


def total_energy(
    phi: np.ndarray, psi: np.ndarray, grid: Grid, params: ModelParams
) -> tuple[float, float, float]:
    """Bulk, surface and total free energies.

    The potential terms use the full-grid trapezoid rule (boundary values
    from psi), matching the edge-based gradient quadratures.
    """
    full = ops.to_full_grid(phi, psi, grid)
    h = grid.h
    e_bulk = h * h * float(np.vdot(_trapezoid_weights(grid.n), F_val(full, params.eps)))
    e_bulk += ops.dirichlet_energy_bulk(phi, psi, grid)
    e_surf = h * float(G_val(psi, params.delta).sum())
    e_surf += ops.dirichlet_energy_loop(psi, grid)
    return e_bulk, e_surf, e_bulk + e_surf


def modified_energy(state: "State", grid: Grid, params: ModelParams, tol: float = 1e-10) -> float:
    """Total energy plus the hyperbolic kinetic terms, by Poisson solves.

    Adds (beta1/2M1)*|grad inv-lap Phi|^2 and (beta2/2M2)*|grad-loop
    inv-lap Psi|^2, with the inverse Laplacians from the zero-mean Poisson
    solves of the rate fields alone (the state's carried potentials are
    not read).  Reduces exactly to the total energy when beta1 = beta2 =
    0.  This is the definition the run's diagnostic rows, which read the
    carried potentials instead, are checked against.
    """
    _, _, e_total = total_energy(state.phi, state.psi, grid, params)
    e = e_total
    if params.beta1 > 0.0:
        p = ops.solve_poisson_neumann_zeromean(state.Phi, grid, tol)
        e += params.beta1 / (2.0 * params.M1) * ops.grad_norm_sq_interior(p, grid)
    if params.beta2 > 0.0:
        q = ops.solve_poisson_loop_zeromean(state.Psi, grid, tol)
        e += params.beta2 / (2.0 * params.M2) * ops.grad_norm_sq_loop(q, grid)
    return e
