"""Configuration parsing, run orchestration, and bit-stable output.

Config files are flat ``key = value`` text, one pair per line, with '#'
comments.  Unknown keys are rejected.  Diagnostics go to a CSV with full
double precision; snapshots go to legacy-VTK structured-points files plus
a boundary-trace CSV, so every figure-style artifact of a run can be
rebuilt from disk.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, fields, replace

from . import experiments as exps
from . import model as mdl
from . import scheme
from .grid import Grid, build_grid
from .operators import to_full_grid


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration (defaults follow the standard
    experiment setup: unit square at n=100, tau=1e-4, mobilities 1e-3,
    no hyperbolic relaxation, eps = delta = 2h, stabilizers 2/eps^2)."""

    n: int = 100
    tau: float = 1e-4
    t_end: float = 0.1
    case: int = 1
    seed: int = 0
    M1: float = 0.001
    M2: float = 0.001
    beta1: float = 0.0
    beta2: float = 0.0
    eps: float = 0.02
    delta: float = 0.02
    s1: float = 5000.0
    s2: float = 5000.0
    solver_tol: float = 1e-10
    diag_cadence: int = 1
    snapshot_times: tuple[float, ...] = ()
    betas: tuple[float, ...] = (1.0, 0.1, 0.0)
    probe_times: tuple[float, ...] = ()
    output_dir: str = "hyperch_out"
    provided: frozenset[str] = frozenset()

    @property
    def h(self) -> float:
        return 1.0 / self.n

    def model_params(self) -> mdl.ModelParams:
        return mdl.ModelParams(
            M1=self.M1, M2=self.M2, beta1=self.beta1, beta2=self.beta2,
            eps=self.eps, delta=self.delta, s1=self.s1, s2=self.s2, tau=self.tau,
        )

    def solver_config(self) -> scheme.SolverConfig:
        return scheme.SolverConfig(tol=self.solver_tol)

    def case_spec(self) -> exps.CaseSpec:
        return exps.CaseSpec(
            case=self.case,
            seed=self.seed if self.case == 2 else None,
            betas=self.betas,
            n=self.n,
            t_end=self.t_end,
            snapshot_times=self.snapshot_times,
        )


def _parse_float_list(text: str) -> tuple[float, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(float(tok) for tok in text.split(","))


_PARSERS = {
    "n": int,
    "tau": float,
    "t_end": float,
    "case": int,
    "seed": int,
    "M1": float,
    "M2": float,
    "beta1": float,
    "beta2": float,
    "eps": float,
    "delta": float,
    "s1": float,
    "s2": float,
    "solver_tol": float,
    "diag_cadence": int,
    "snapshot_times": _parse_float_list,
    "betas": _parse_float_list,
    "probe_times": _parse_float_list,
    "output_dir": str,
}

_CONSTRAINTS = {
    "n": lambda v: v >= 4 or "n must be >= 4",
    "tau": lambda v: v > 0 or "tau must be positive",
    "t_end": lambda v: v >= 0 or "t_end must be nonnegative",
    "case": lambda v: v in (1, 2, 3, 4) or "case must be one of 1, 2, 3, 4",
    "M1": lambda v: v > 0 or "M1 must be positive",
    "M2": lambda v: v > 0 or "M2 must be positive",
    "beta1": lambda v: v >= 0 or "beta1 must be nonnegative",
    "beta2": lambda v: v >= 0 or "beta2 must be nonnegative",
    "eps": lambda v: v > 0 or "eps must be positive",
    "delta": lambda v: v > 0 or "delta must be positive",
    "s1": lambda v: v >= 0 or "s1 must be nonnegative",
    "s2": lambda v: v >= 0 or "s2 must be nonnegative",
    "solver_tol": lambda v: v > 0 or "solver_tol must be positive",
    "diag_cadence": lambda v: v >= 1 or "diag_cadence must be >= 1",
    "snapshot_times": lambda v: all(t >= 0 for t in v) or "snapshot_times must be nonnegative",
    "betas": lambda v: all(b >= 0 for b in v) or "betas must be nonnegative",
    "probe_times": lambda v: all(t >= 0 for t in v) or "probe_times must be nonnegative",
}


def _apply_pairs(pairs: list[tuple[int, str, str]]) -> RunConfig:
    values: dict = {}
    provided: set[str] = set()
    for lineno, key, raw in pairs:
        if key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            val = _PARSERS[key](raw)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {key}: cannot parse {raw!r}") from exc
        check = _CONSTRAINTS.get(key)
        if check is not None:
            verdict = check(val)
            if verdict is not True:
                raise ConfigError(f"line {lineno}: {key}: {verdict}")
        values[key] = val
        provided.add(key)
    # derived defaults: interface widths track the mesh, stabilizers track
    # the widths, unless given explicitly
    n = values.get("n", RunConfig.n)
    h = 1.0 / n
    if "eps" not in values:
        values["eps"] = 2.0 * h
    if "delta" not in values:
        values["delta"] = 2.0 * h
    if "s1" not in values:
        values["s1"] = 2.0 / values["eps"] ** 2
    if "s2" not in values:
        values["s2"] = 2.0 / values["delta"] ** 2
    return RunConfig(provided=frozenset(provided), **values)


def parse_config(text: str) -> RunConfig:
    """Parse flat key = value configuration text into a RunConfig."""
    pairs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = body.partition("=")
        pairs.append((lineno, key.strip(), raw.strip()))
    return _apply_pairs(pairs)


def load_config(path: str | None, overrides: list[str]) -> RunConfig:
    """Config file plus command-line ``key=value`` overrides."""
    text = ""
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    cfg = parse_config(text)
    if overrides:
        pairs = []
        for i, ov in enumerate(overrides, start=1):
            if "=" not in ov:
                raise ConfigError(f"override {i}: expected key=value, got {ov!r}")
            key, _, raw = ov.partition("=")
            pairs.append((i, key.strip(), raw.strip()))
        # overrides are re-parsed on top of the file's explicit pairs so
        # that derived defaults (eps, s1, ...) track overridden keys
        file_pairs = [(0, k, _format_value(getattr(cfg, k))) for k in sorted(cfg.provided)]
        cfg = _apply_pairs(file_pairs + pairs)
    return cfg


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(repr(float(v)) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def config_text(cfg: RunConfig) -> str:
    """Echo the effective configuration as parseable key = value text."""
    lines = [
        "# effective configuration (parse to reproduce this run)",
        f"# rng: {exps.RNG_KIND}",
    ]
    for f in fields(RunConfig):
        if f.name == "provided":
            continue
        lines.append(f"{f.name} = {_format_value(getattr(cfg, f.name))}")
    return "\n".join(lines) + "\n"


# ---- writers -----------------------------------------------------------

_CSV_HEADER = "step,time,E_bulk,E_surf,E_total,E_modified,mass_bulk,mass_surf,solver_residual"


def write_diag_csv(records: list[scheme.DiagRecord], path: str) -> None:
    """Diagnostics CSV, one row per record, full double precision."""
    if not records:
        raise ValueError("diagnostics series is empty")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_CSV_HEADER + "\n")
        for r in records:
            fh.write(
                f"{r.step},{r.time:.17e},{r.e_bulk:.17e},{r.e_surf:.17e},"
                f"{r.e_total:.17e},{r.e_modified:.17e},{r.mass_bulk:.17e},"
                f"{r.mass_surf:.17e},{r.solver_residual:.17e}\n"
            )


def trace_csv_path(vtk_path: str) -> str:
    stem, ext = os.path.splitext(vtk_path)
    return stem + "_trace.csv"


def write_vtk_snapshot(state: scheme.State, grid: Grid, path: str) -> None:
    """Legacy-VTK ASCII structured-points snapshot plus boundary trace.

    The scalar field ``phi`` covers all (n+1)^2 vertices, boundary values
    taken from psi; a sibling CSV holds (arc_length, psi) along the loop.
    """
    full = to_full_grid(state.phi, state.psi, grid)
    n = grid.n
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# vtk DataFile Version 2.0\n")
        fh.write(f"phase field at t={state.t:.17e}\n")
        fh.write("ASCII\n")
        fh.write("DATASET STRUCTURED_POINTS\n")
        fh.write(f"DIMENSIONS {n + 1} {n + 1} 1\n")
        fh.write("ORIGIN 0 0 0\n")
        fh.write(f"SPACING {grid.h:.17e} {grid.h:.17e} 1\n")
        fh.write(f"POINT_DATA {(n + 1) * (n + 1)}\n")
        fh.write("SCALARS phi double 1\n")
        fh.write("LOOKUP_TABLE default\n")
        for j in range(n + 1):  # x varies fastest in structured points
            for i in range(n + 1):
                fh.write(f"{full[i, j]:.17e}\n")
    s = grid.loop_arc_length()
    with open(trace_csv_path(path), "w", encoding="utf-8") as fh:
        fh.write("arc_length,psi\n")
        for k in range(grid.n_loop):
            fh.write(f"{s[k]:.17e},{state.psi[k]:.17e}\n")


# ---- commands ----------------------------------------------------------


def _snapshot_steps(cfg: RunConfig) -> dict[int, float]:
    return {
        scheme.lattice_step(t, cfg.tau, cfg.t_end, "snapshot_times"): t
        for t in cfg.snapshot_times
    }


def _run_one(cfg: RunConfig, out_dir: str, params: mdl.ModelParams, label: str = "") -> list[scheme.DiagRecord]:
    grid = build_grid(cfg.n)
    phi0, psi0 = exps.init_case(cfg.case_spec(), grid)
    state = scheme.init_state(phi0, psi0, grid)
    snap_steps = _snapshot_steps(cfg)

    def on_step(st: scheme.State):
        if st.step in snap_steps:
            write_vtk_snapshot(st, grid, os.path.join(out_dir, f"snap_step{st.step:07d}.vtk"))

    final, records = scheme.run(
        state, grid, params, cfg.t_end,
        solver=cfg.solver_config(),
        diag_cadence=cfg.diag_cadence,
        poisson_tol=min(1e-10, cfg.solver_tol),
        on_step=on_step if snap_steps else None,
    )
    write_diag_csv(records, os.path.join(out_dir, "diag.csv"))
    write_vtk_snapshot(final, grid, os.path.join(out_dir, "final.vtk"))
    tag = f"[{label}] " if label else ""
    print(
        f"{tag}ran case {cfg.case} to t={final.t:g} ({final.step} steps): "
        f"E_total {records[0].e_total:.6g} -> {records[-1].e_total:.6g}, "
        f"mass_bulk {records[-1].mass_bulk:.6g}, mass_surf {records[-1].mass_surf:.6g}"
    )
    return records


def cmd_run(cfg: RunConfig) -> int:
    os.makedirs(cfg.output_dir, exist_ok=True)
    with open(os.path.join(cfg.output_dir, "effective.cfg"), "w", encoding="utf-8") as fh:
        fh.write(config_text(cfg))
    _run_one(cfg, cfg.output_dir, cfg.model_params())
    return 0


def cmd_convergence(cfg: RunConfig, full_scale: bool = False) -> int:
    if full_scale:
        n, t_end = 50, 1.0
        taus = [0.01, 0.005, 0.0025, 0.00125, 0.000625, 0.0003125]
        tau_ref = 1e-6
    else:
        n = cfg.n if "n" in cfg.provided else 32
        t_end = cfg.t_end if "t_end" in cfg.provided else 0.1
        taus = [4e-3, 2e-3, 1e-3, 5e-4]
        tau_ref = 2.5e-5
    case = exps.CaseSpec(case=cfg.case, seed=cfg.seed if cfg.case == 2 else None, n=n)
    print(f"temporal convergence: n={n}, T={t_end}, reference tau={tau_ref:g}")
    res = exps.convergence_study(n, taus, tau_ref, t_end, case, solver=cfg.solver_config())
    print(f"{'tau':>12} {'err_phi':>14} {'err_psi':>14}")
    for tau, ep, es in zip(res.taus, res.err_phi, res.err_psi):
        print(f"{tau:>12g} {ep:>14.6e} {es:>14.6e}")
    print(f"fitted slopes: phi {res.slope_phi:.4f}, psi {res.slope_psi:.4f}")
    return 0


def cmd_beta_sweep(cfg: RunConfig) -> int:
    os.makedirs(cfg.output_dir, exist_ok=True)
    probes = list(cfg.probe_times) if cfg.probe_times else [cfg.t_end]
    res = exps.beta_sweep(
        cfg.case_spec(), list(cfg.betas), cfg.t_end, probes,
        solver=cfg.solver_config(), poisson_tol=min(1e-10, cfg.solver_tol),
        params=cfg.model_params(),
    )
    path = os.path.join(cfg.output_dir, "beta_sweep.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("beta,time,E_modified,E_total,mass_bulk,mass_surf\n")
        for r in res.probes:
            fh.write(
                f"{r.beta:.17e},{r.time:.17e},{r.e_modified:.17e},"
                f"{r.e_total:.17e},{r.mass_bulk:.17e},{r.mass_surf:.17e}\n"
            )
    print(f"{'beta':>8} {'time':>10} {'E_modified':>14} {'E_total':>14} {'mass_bulk':>12} {'mass_surf':>12}")
    for r in res.probes:
        print(
            f"{r.beta:>8g} {r.time:>10g} {r.e_modified:>14.6e} {r.e_total:>14.6e} "
            f"{r.mass_bulk:>12.5e} {r.mass_surf:>12.5e}"
        )
    print(f"wrote {path}")
    return 0


def cmd_cases(cfg: RunConfig) -> int:
    for case in (1, 2, 3, 4):
        sub = replace(cfg, case=case)
        out_dir = os.path.join(cfg.output_dir, f"case{case}")
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "effective.cfg"), "w", encoding="utf-8") as fh:
            fh.write(config_text(sub))
        _run_one(sub, out_dir, sub.model_params(), label=f"case {case}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hyperch",
        description="Phase-field simulator on the unit square with a dynamic "
        "boundary condition and optional hyperbolic relaxation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "run one simulation"),
        ("convergence", "run the temporal-convergence study"),
        ("beta-sweep", "compare runs across relaxation strengths"),
        ("cases", "run the four standard cases with defaults"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("args", nargs="*", default=[], metavar="config|key=value",
                       help="config file path and/or key=value overrides")
        if name == "convergence":
            p.add_argument("--full-scale", action="store_true",
                           help="full-size study (h=1/50, T=1, reference tau=1e-6)")
    try:
        args = parser.parse_args(argv)
        paths = [a for a in args.args if "=" not in a]
        overrides = [a for a in args.args if "=" in a]
        if len(paths) > 1:
            raise ConfigError(f"expected at most one config path, got {paths}")
        cfg = load_config(paths[0] if paths else None, overrides)
        if args.command == "run":
            return cmd_run(cfg)
        if args.command == "convergence":
            return cmd_convergence(cfg, full_scale=args.full_scale)
        if args.command == "beta-sweep":
            return cmd_beta_sweep(cfg)
        return cmd_cases(cfg)
    except (ConfigError, OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
