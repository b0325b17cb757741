"""Benchmark workloads: what each one runs, times and checks.

Every workload drives hyperch through its public modules, the way
``hyperch run``, ``hyperch convergence`` and the acceptance suite's
production fixture do.  Calls go through module attributes
(``scheme.run``, ``model.ModelParams``...), so the tracer in ``spans``
sees them when it is installed.

Why these three: each is dominated by a different layer.

* ``diag-n50``: the acceptance production run (n=50, case 1, beta=0.1,
  a diagnostic row every step).  Diagnostics -- two energies and two
  Poisson solves per row -- cost about as much as the solve.
* ``solve-n200``: n=200, case 2 seeded from ``--seed``, beta=0, rows only
  at the first and last step.  The factorization and the triangular
  solves dominate; diagnostics do not show.
* ``converge-n32``: the desk-scale temporal-convergence study (n=32,
  T=0.1, four taus against a 2.5e-5 reference).  Thousands of tiny
  steps through ``scheme.step`` without ``run`` and without diagnostics,
  so fixed per-step Python overhead dominates.  Runnable by hand; it is
  not listed in BENCHMARK.json (see README.md).

``smoke`` is a tiny run used by the benchmark's own tests.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np

from hyperch import cli, experiments, linalg, model, operators, scheme
from hyperch import grid as grid_mod

WORKLOADS = {
    "diag-n50": {"kind": "run", "n": 50, "case": 1, "beta": 0.1, "t_end": 0.2,
                 "diag_cadence": 1, "gate_e_total": False},
    "solve-n200": {"kind": "run", "n": 200, "case": 2, "beta": 0.0, "t_end": 0.02,
                   "diag_cadence": 200, "gate_e_total": True},
    "converge-n32": {"kind": "convergence", "n": 32, "case": 1, "t_end": 0.1,
                     "taus": (4e-3, 2e-3, 1e-3, 5e-4), "tau_ref": 2.5e-5},
    "smoke": {"kind": "run", "n": 8, "case": 2, "beta": 0.1, "t_end": 0.001,
              "diag_cadence": 1, "gate_e_total": False},
}

# a raised error of these types fails its step and every later one
STEP_ERRORS = (linalg.SolveError, scheme.NonFiniteStateError, operators.PoissonSolveError)

# thresholds of the acceptance suite (criteria 2, 3 and 9)
MASS_BULK_TOL = 1e-6
MASS_SURF_TOL = 1e-8
RESIDUAL_TOL = 1e-10
ENERGY_TOL = 1e-8


def cli_keys(cfg: dict, seed: int) -> list[str]:
    """``hyperch run`` overrides that select the same run as ``cfg``."""
    return [f"n={cfg['n']}", f"case={cfg['case']}", f"seed={seed}",
            f"beta1={cfg['beta']!r}", f"beta2={cfg['beta']!r}", f"t_end={cfg['t_end']!r}",
            f"diag_cadence={cfg['diag_cadence']}"]


def expected_rows(total: int, cadence: int) -> int:
    """Diagnostic rows ``scheme.run`` records: step 0, every cadence step, the last."""
    return len({0, total} | set(range(cadence, total + 1, cadence)))


def run_workload(cfg: dict, seed: int, out_dir: str) -> dict:
    """Run one repetition; return timings, counts, gates and informational values."""
    if cfg["kind"] == "run":
        return _run_sim(cfg, seed, out_dir)
    return _run_convergence(cfg)


def _run_sim(cfg: dict, seed: int, out_dir: str) -> dict:
    n = cfg["n"]
    t0 = time.perf_counter()
    grid = grid_mod.build_grid(n)
    params = model.ModelParams.with_defaults(grid.h, beta1=cfg["beta"], beta2=cfg["beta"])
    spec = experiments.CaseSpec(case=cfg["case"], seed=seed if cfg["case"] == 2 else None, n=n)
    phi0, psi0 = experiments.init_case(spec, grid)
    state = scheme.init_state(phi0, psi0, grid)
    system = scheme.assemble_system(grid, params)
    system.direct()  # factor now, not lazily inside step 1
    t_setup = time.perf_counter()

    total = scheme.num_steps(cfg["t_end"], params.tau)
    stamps: list[float] = []
    final, records, error = None, [], None
    try:
        final, records = scheme.run(
            state, grid, params, cfg["t_end"], diag_cadence=cfg["diag_cadence"],
            on_step=lambda st: stamps.append(time.perf_counter()), system=system,
        )
    except STEP_ERRORS as exc:
        error = f"{type(exc).__name__}: {exc}"
    t_stepped = time.perf_counter()
    paths = [os.path.join(out_dir, "diag.csv"), os.path.join(out_dir, "final.vtk")]
    if final is not None:
        cli.write_diag_csv(records, paths[0])
        cli.write_vtk_snapshot(final, grid, paths[1])
    t_end = time.perf_counter()

    completed = max(0, len(stamps) - 1)
    paths.append(cli.trace_csv_path(paths[1]))
    gates = _sim_gates(cfg, records, final, total)
    mb = np.array([r.mass_bulk for r in records])
    ms = np.array([r.mass_surf for r in records])
    em = np.array([r.e_modified for r in records])
    return {
        "setup_s": t_setup - t0,
        "wall_s": t_end - t0,
        "stepping_s": t_stepped - t_setup,
        "steps_expected": total,
        "steps_completed": completed,
        "step_samples_s": list(np.diff(stamps)),
        "error": error,
        "gates": gates,
        "counts": {
            "scheme.steps": completed,
            "model.diag_rows": len(records),
            "cli.output_bytes": sum(os.path.getsize(p) for p in paths if os.path.exists(p)),
        },
        "info": {
            "model.mass_drift_bulk": float(np.abs(mb - mb[0]).max()) if len(mb) else 0.0,
            "model.mass_drift_surf": float(np.abs(ms - ms[0]).max()) if len(ms) else 0.0,
            "model.energy_rise_max": float(np.diff(em).max()) if len(em) > 1 else 0.0,
            "experiments.slope_phi": 0.0,
            "experiments.slope_psi": 0.0,
        },
        "system": system,
    }


def _sim_gates(cfg: dict, records, final, total: int) -> list[tuple[str, bool, str]]:
    if final is None:
        return [(name, False, "run raised before finishing") for name in
                ("fields_finite", "record_count", "mass_bulk_drift", "mass_surf_drift",
                 "solver_residual") + (("e_total_nonincreasing",) if cfg["gate_e_total"] else ())]
    values = np.array([[r.e_bulk, r.e_surf, r.e_total, r.e_modified, r.mass_bulk,
                        r.mass_surf, r.solver_residual] for r in records])
    finite = bool(np.isfinite(final.phi).all() and np.isfinite(final.psi).all()
                  and np.isfinite(values).all())
    rows = expected_rows(total, cfg["diag_cadence"])
    mb = values[:, 4]
    ms = values[:, 5]
    db = float(np.abs(mb - mb[0]).max())
    ds = float(np.abs(ms - ms[0]).max())
    resid = float(values[:, 6].max())
    gates = [
        ("fields_finite", finite, "phi, psi and every diagnostic finite"),
        ("record_count", len(records) == rows, f"{len(records)} rows, expected {rows}"),
        ("mass_bulk_drift", db <= MASS_BULK_TOL * (1 + abs(mb[0])),
         f"drift {db:.3e}, limit {MASS_BULK_TOL:g}*(1+|m0|)"),
        ("mass_surf_drift", ds <= MASS_SURF_TOL * (1 + abs(ms[0])),
         f"drift {ds:.3e}, limit {MASS_SURF_TOL:g}*(1+|m0|)"),
        ("solver_residual", resid <= RESIDUAL_TOL, f"max {resid:.3e}, limit {RESIDUAL_TOL:g}"),
    ]
    if cfg["gate_e_total"]:
        e = values[:, 2]
        rise = float(np.diff(e).max()) if len(e) > 1 else 0.0
        gates.append(("e_total_nonincreasing", rise <= ENERGY_TOL * (1 + abs(e[0])),
                      f"max rise {rise:.3e} over {len(e)} rows, limit "
                      f"{ENERGY_TOL:g}*(1+|E0|)"))
    return gates


def _run_convergence(cfg: dict) -> dict:
    n, taus, tau_ref, t_end = cfg["n"], list(cfg["taus"]), cfg["tau_ref"], cfg["t_end"]
    spec = experiments.CaseSpec(case=cfg["case"], n=n)
    # set-up as in the other workloads: the study repeats it inside for
    # each tau and has no hook that exposes it
    t0 = time.perf_counter()
    grid = grid_mod.build_grid(n)
    experiments.init_case(spec, grid)
    system = scheme.assemble_system(grid, model.ModelParams.with_defaults(grid.h, tau=tau_ref))
    system.direct()
    t_setup = time.perf_counter()

    # the study calls scheme.step directly; time each call from outside
    samples: list[float] = []
    inner = scheme.step

    def timed_step(*args, **kwargs):
        start = time.perf_counter()
        out = inner(*args, **kwargs)
        samples.append(time.perf_counter() - start)
        return out

    total = sum(scheme.num_steps(t_end, tau) for tau in [tau_ref] + taus)
    res, error = None, None
    scheme.step = timed_step
    try:
        res = experiments.convergence_study(n, taus, tau_ref, t_end, spec)
    except STEP_ERRORS as exc:
        error = f"{type(exc).__name__}: {exc}"
    finally:
        scheme.step = inner
    t_end_clock = time.perf_counter()

    if res is None:
        gates = [("errors_finite", False, "study raised"), ("errors_decreasing", False, "study raised")]
    else:
        errs = res.err_phi + res.err_psi
        finite = all(math.isfinite(e) for e in errs)
        decreasing = all(a > b for es in (res.err_phi, res.err_psi) for a, b in zip(es, es[1:]))
        gates = [("errors_finite", finite, f"{len(errs)} errors"),
                 ("errors_decreasing", decreasing, "strictly decreasing in tau, phi and psi")]
    return {
        "setup_s": t_setup - t0,
        "wall_s": t_end_clock - t0,
        "stepping_s": t_end_clock - t_setup,
        "steps_expected": total,
        "steps_completed": len(samples),
        "step_samples_s": samples,
        "error": error,
        "gates": gates,
        "counts": {"scheme.steps": len(samples), "model.diag_rows": 0, "cli.output_bytes": 0},
        "info": {
            "model.mass_drift_bulk": 0.0,
            "model.mass_drift_surf": 0.0,
            "model.energy_rise_max": 0.0,
            "experiments.slope_phi": res.slope_phi if res else 0.0,
            "experiments.slope_psi": res.slope_psi if res else 0.0,
        },
        "system": system,
    }
