"""Initial conditions, temporal convergence study, and beta sweeps.

Case 1: zero in the interior, one on the boundary loop.
Case 2: seeded uniform noise, [-0.1, 0.1] inside and [0.4, 0.6] on the loop.
Case 3: sin(2 pi x) cos(2 pi y) sampled everywhere.
Case 4: indicator of the rectangle [0.3, 0.7] x [0, 0.5].
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import model as mdl
from . import scheme
from .grid import Grid, build_grid

RNG_KIND = "pcg64"  # numpy default_rng bit generator, recorded in output metadata


@dataclass(frozen=True)
class CaseSpec:
    """One experiment: initial-condition id plus run geometry."""

    case: int
    seed: int | None = None
    n: int = 100

    def __post_init__(self):
        if self.case not in (1, 2, 3, 4):
            raise ValueError(f"unknown case id {self.case}")
        if self.case == 2 and self.seed is None:
            raise ValueError("case 2 requires a seed")
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def init_case(case: CaseSpec, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Initial (bulk, loop) fields for the given case."""
    xi, yi = grid.interior_xy()
    xl, yl = grid.loop_xy()
    if case.case == 1:
        return np.zeros(grid.n_int), np.ones(grid.n_loop)
    if case.case == 2:
        rng = np.random.default_rng(case.seed)
        phi = rng.uniform(-0.1, 0.1, grid.n_int)
        psi = rng.uniform(0.4, 0.6, grid.n_loop)
        return phi, psi
    if case.case == 3:
        sample = lambda x, y: np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
        return sample(xi, yi), sample(xl, yl)
    # case 4: rectangle-shaped droplet, 1 inside, 0 elsewhere
    inside = lambda x, y: (0.3 <= x) & (x <= 0.7) & (y <= 0.5)
    return inside(xi, yi).astype(float), inside(xl, yl).astype(float)


def fit_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(error) against log(tau)."""
    if len(points) < 2:
        raise ValueError("need at least two points to fit a slope")
    taus = np.array([p[0] for p in points], dtype=float)
    errs = np.array([p[1] for p in points], dtype=float)
    if not np.all(np.isfinite(taus) & np.isfinite(errs) & (taus > 0) & (errs > 0)):
        raise ValueError("slope fit requires positive, finite tau and error values")
    return float(np.polyfit(np.log(taus), np.log(errs), 1)[0])


@dataclass(frozen=True)
class ConvergenceResult:
    taus: tuple[float, ...]
    err_phi: tuple[float, ...]
    err_psi: tuple[float, ...]
    slope_phi: float
    slope_psi: float


def _final_fields(
    grid: Grid,
    phi0: np.ndarray,
    psi0: np.ndarray,
    params: mdl.ModelParams,
    tau: float,
    t_end: float,
) -> tuple[np.ndarray, np.ndarray]:
    params = replace(params, tau=tau)
    system = scheme.assemble_system(grid, params)
    state = scheme.init_state(phi0, psi0, grid)
    for _ in range(scheme.num_steps(t_end, tau)):
        state, _ = scheme.step(state, system, grid, params)
    return state.phi, state.psi


def convergence_study(
    n: int,
    taus: list[float],
    tau_ref: float,
    t_end: float,
    case: CaseSpec,
    params: mdl.ModelParams | None = None,
) -> ConvergenceResult:
    """Cauchy temporal-convergence study against a fine reference.

    Runs the reference once and each tau once, measures the discrete
    L2(bulk) and L2(loop) errors at t_end, and fits log-log slopes.
    t_end must be a step of every run (``scheme.lattice_step``), so that
    all of them end at the same time.
    Every run uses ``params`` (default: ``ModelParams.with_defaults`` on
    the grid of n) with its tau replaced by the run's step.
    """
    if tau_ref >= min(taus):
        raise ValueError("reference tau must be smaller than every tested tau")
    for tau in (tau_ref, *taus):
        scheme.lattice_step(t_end, tau, t_end, "t_end")
    grid = build_grid(n)
    phi0, psi0 = init_case(case, grid)
    if params is None:
        params = mdl.ModelParams.with_defaults(grid.h)
    phi_ref, psi_ref = _final_fields(grid, phi0, psi0, params, tau_ref, t_end)
    h = grid.h
    err_phi, err_psi = [], []
    for tau in taus:
        phi, psi = _final_fields(grid, phi0, psi0, params, tau, t_end)
        err_phi.append(float(np.sqrt(h * h * ((phi - phi_ref) ** 2).sum())))
        err_psi.append(float(np.sqrt(h * ((psi - psi_ref) ** 2).sum())))
    return ConvergenceResult(
        taus=tuple(taus),
        err_phi=tuple(err_phi),
        err_psi=tuple(err_psi),
        slope_phi=fit_slope(list(zip(taus, err_phi))),
        slope_psi=fit_slope(list(zip(taus, err_psi))),
    )


@dataclass(frozen=True)
class ProbeRecord:
    beta: float
    time: float
    e_modified: float
    e_total: float
    mass_bulk: float
    mass_surf: float


@dataclass(frozen=True)
class BetaSweepResult:
    betas: tuple[float, ...]
    probes: tuple[ProbeRecord, ...] = field(default=())

    def at(self, beta: float, time: float) -> ProbeRecord:
        for rec in self.probes:
            if rec.beta == beta and abs(rec.time - time) <= 1e-9 * max(1.0, time):
                return rec
        raise KeyError(f"no probe for beta={beta}, t={time}")


def beta_sweep(
    case: CaseSpec,
    betas: list[float],
    t_end: float,
    probe_times: list[float],
    params: mdl.ModelParams | None = None,
) -> BetaSweepResult:
    """One run per beta from shared initial data, probed at fixed times.

    Every run uses ``params`` (default: ``ModelParams.with_defaults`` on
    the case's grid) with beta1 = beta2 = beta and steps to its last
    probe.  Each probe time must be a step of a run to t_end
    (``scheme.lattice_step``); a probe is that step's diagnostic row
    (``scheme.diag_record``), and no other row is computed.
    """
    grid = build_grid(case.n)
    phi0, psi0 = init_case(case, grid)
    base = mdl.ModelParams.with_defaults(grid.h) if params is None else params
    probes: list[ProbeRecord] = []
    for beta in betas:
        params = replace(base, beta1=beta, beta2=beta)
        probe_steps = {
            scheme.lattice_step(t, params.tau, t_end, "probe_times"): t for t in probe_times
        }
        system = scheme.assemble_system(grid, params)
        state = scheme.init_state(phi0, psi0, grid)
        for k in range(max(probe_steps, default=0) + 1):
            if k > 0:
                state, _ = scheme.step(state, system, grid, params)
            if k in probe_steps:
                row = scheme.diag_record(state, grid, params)
                probes.append(
                    ProbeRecord(
                        beta=beta,
                        time=probe_steps[k],
                        e_modified=row.e_modified,
                        e_total=row.e_total,
                        mass_bulk=row.mass_bulk,
                        mass_surf=row.mass_surf,
                    )
                )
    return BetaSweepResult(betas=tuple(betas), probes=tuple(probes))
