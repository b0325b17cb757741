"""Initial conditions, temporal convergence study, and beta sweeps.

Case 1: zero in the interior, one on the boundary loop.
Case 2: seeded uniform noise, [-0.1, 0.1] inside and [0.4, 0.6] on the loop.
        The draws reproduce numpy's ``default_rng(seed).uniform`` stream
        (PCG64) bit for bit without importing numpy's random package, so a
        run of any case loads numpy alone.
Case 3: sin(2 pi x) cos(2 pi y) sampled everywhere.
Case 4: indicator of the rectangle [0.3, 0.7] x [0, 0.5].
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from . import model as mdl
from . import scheme
from .grid import Grid, build_grid

# case 2's generator, recorded in output metadata: numpy's default_rng
# (PCG64), whose stream _pcg64_doubles reproduces bit for bit without
# importing numpy's random package, so a run of any case loads numpy alone
RNG_KIND = "pcg64"


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
        if self.seed is None:
            return
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


# ---- case 2's draws: numpy's PCG64 stream -----------------------------------

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG multiplier
_BLOCK = 256  # draws per block of the jump-ahead


def _hasher(const: int, mult: int):
    """numpy SeedSequence's 32-bit hashmix, its constant advancing per call."""

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16

    return hashmix


def _pcg64_seed(seed: int) -> tuple[int, int]:
    """PCG64's state and increment after ``default_rng(seed)``:
    SeedSequence(seed).generate_state(4, uint64), then srandom."""
    words = [seed >> b & _M32 for b in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hashmix = _hasher(0x8B51F9DD, 0x58F38DED)
    w = [hashmix(pool[i % 4]) for i in range(8)]
    # uint64 k is w[2k] | w[2k+1] << 32; uint64s 0, 1 are the state's high
    # and low halves, 2, 3 the sequence's
    init_state = w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2]
    inc = (w[5] << 96 | w[4] << 64 | w[7] << 32 | w[6]) << 1 & _M128 | 1
    return ((init_state + inc) * _PCG_MULT + inc) & _M128, inc


def _halves(values: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """128-bit integers as uint64 arrays of their high and low halves."""
    return (np.array([v >> 64 for v in values], dtype=np.uint64),
            np.array([v & _M64 for v in values], dtype=np.uint64))


@lru_cache(maxsize=1)
def _pcg64_jumps() -> tuple[np.ndarray, np.ndarray, tuple[int, ...], int]:
    """Jump-ahead constants of PCG64's step s -> M s + inc mod 2^128:
    s_{k+r} = A_r s_k + G_r inc with A_r = M^r and G_r = 1 + M + ... +
    M^(r-1), for r = 1..256.  A_r's high and low halves (read-only), the
    G_r, and A_256."""
    a, g = [1], [0]
    for _ in range(_BLOCK):
        a.append(a[-1] * _PCG_MULT & _M128)
        g.append((g[-1] * _PCG_MULT + 1) & _M128)
    a_hi, a_lo = _halves(a[1:])
    for arr in (a_hi, a_lo):
        arr.setflags(write=False)
    return a_hi, a_lo, tuple(g[1:]), a[-1]


def _mulhi64(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """High 64 bits of the products of uint64 arrays, by 32-bit limbs."""
    x1, x0, y1, y0 = x >> 32, x & _M32, y >> 32, y & _M32
    p00, p01, p10 = x0 * y0, x0 * y1, x1 * y0
    mid = (p00 >> 32) + (p01 & _M32) + (p10 & _M32)
    return x1 * y1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _pcg64_doubles(seed: int, count: int) -> np.ndarray:
    """The first ``count`` doubles of numpy's ``default_rng(seed)`` stream
    (its ``random()``, which ``uniform`` scales), bit for bit.

    Draw k (from 0) is the output of state s_{k+1}.  With k = 256 q + r,
    s_{k+1} = A_{r+1} t_q + G_{r+1} inc, where t_q = s_{256 q}: a loop of
    block jumps gives the t_q, and one outer product of 128-bit numbers,
    held as uint64 halves (arithmetic mod 2^64), gives every state.
    """
    state, inc = _pcg64_seed(seed)
    a_hi, a_lo, g, a_block = _pcg64_jumps()
    g_block = g[-1] * inc & _M128
    starts = [state]
    for _ in range(-(-count // _BLOCK) - 1):
        starts.append((a_block * starts[-1] + g_block) & _M128)
    t_hi, t_lo = (half[:, None] for half in _halves(starts))
    c_hi, c_lo = _halves([gr * inc & _M128 for gr in g])
    # (block q, offset r) arrays of s = A t + c mod 2^128
    lo = a_lo * t_lo
    hi = _mulhi64(a_lo, t_lo)
    hi += a_hi * t_lo
    hi += a_lo * t_hi
    lo += c_lo
    hi += c_hi
    hi += lo < c_lo  # the carry out of the low half
    # XSL-RR output: (hi ^ lo) rotated right by the top 6 bits
    rot = hi >> 58
    hi ^= lo
    out = (hi >> rot) | (hi << ((64 - rot) & 63))
    # next_double: the top 53 bits times 2^-53
    return ((out >> 11).astype(np.float64) * 2.0**-53).ravel()[:count]


def init_case(case: CaseSpec, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Initial (bulk, loop) fields for the given case."""
    xi, yi = grid.interior_xy()
    xl, yl = grid.loop_xy()
    if case.case == 1:
        return np.zeros(grid.n_int), np.ones(grid.n_loop)
    if case.case == 2:
        # numpy's uniform(low, high, size) is low + (high - low) d, and phi
        # draws first from the one stream
        d = _pcg64_doubles(case.seed, grid.n_int + grid.n_loop)
        phi = -0.1 + (0.1 - -0.1) * d[: grid.n_int]
        psi = 0.4 + (0.6 - 0.4) * d[grid.n_int :]
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


def pairwise_orders(taus: list[float], errs: list[float]) -> tuple[float, ...]:
    """Observed order log(e_i / e_i+1) / log(tau_i / tau_i+1) between
    consecutive steps: a trend in them shows a pre-asymptotic regime that
    one fitted slope averages over."""
    return tuple(
        float(np.log(e0 / e1) / np.log(t0 / t1))
        for t0, t1, e0, e1 in zip(taus, taus[1:], errs, errs[1:])
    )


@dataclass(frozen=True)
class ConvergenceResult:
    taus: tuple[float, ...]
    err_phi: tuple[float, ...]
    err_psi: tuple[float, ...]
    slope_phi: float
    slope_psi: float
    orders_phi: tuple[float, ...]
    orders_psi: tuple[float, ...]


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
    L2(bulk) and L2(loop) errors at t_end, fits log-log slopes and takes
    the pairwise orders of consecutive steps.
    t_end must be a step of every run (``scheme.lattice_steps``), so that
    all of them end at the same time.
    Every run uses ``params`` (default: ``ModelParams.with_defaults`` on
    the grid of n) with its tau replaced by the run's step.  ``case.n``
    must equal n.
    """
    if case.n != n:
        raise ValueError(f"n: the study's grid has n = {n} but the case has n = {case.n}")
    if len(taus) < 2:
        raise ValueError(f"taus: a slope needs at least two tested steps, got {list(taus)}")
    if tau_ref >= min(taus):
        raise ValueError("reference tau must be smaller than every tested tau")
    for tau in (tau_ref, *taus):
        scheme.lattice_steps([t_end], tau, t_end, "t_end")
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
        orders_phi=pairwise_orders(taus, err_phi),
        orders_psi=pairwise_orders(taus, err_psi),
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
    probe.  Each probe time must be its own step of a run to t_end
    (``scheme.lattice_steps``), checked before any run; a probe is that
    step's diagnostic row (``scheme.diag_record``), and no other row is
    computed.
    """
    grid = build_grid(case.n)
    phi0, psi0 = init_case(case, grid)
    base = mdl.ModelParams.with_defaults(grid.h) if params is None else params
    probe_steps = scheme.lattice_steps(probe_times, base.tau, t_end, "probe_times")
    probes: list[ProbeRecord] = []
    for beta in betas:
        params = replace(base, beta1=beta, beta2=beta)
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
