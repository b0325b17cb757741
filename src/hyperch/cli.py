"""Configuration parsing, run orchestration, and bit-stable output.

Config files are flat ``key = value`` text, one pair per line, with '#'
comments.  Unknown keys are rejected.  Diagnostics go to a CSV with full
double precision; snapshots go to legacy-VTK structured-points files plus
a boundary-trace CSV, so every figure-style artifact of a run can be
rebuilt from disk.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace

from . import experiments as exps
from . import model as mdl
from . import scheme
from .grid import Grid, build_grid
from .operators import to_full_grid


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration.

    ``params`` holds the model keys, with ModelParams's defaults; a parsed
    configuration derives eps, delta, s1 and s2 from n unless they are
    given (``ModelParams.with_defaults``).  The other defaults follow the
    standard experiment setup: unit square at n=100, case 1, T = 0.1.
    """

    n: int = 100
    t_end: float = 0.1
    case: int = 1
    seed: int = 0
    params: mdl.ModelParams = field(default_factory=mdl.ModelParams)
    diag_cadence: int = 1
    snapshot_times: tuple[float, ...] = ()
    betas: tuple[float, ...] = (1.0, 0.1, 0.0)
    probe_times: tuple[float, ...] = ()
    output_dir: str = "hyperch_out"

    def case_spec(self) -> exps.CaseSpec:
        return exps.CaseSpec(case=self.case, seed=self.seed if self.case == 2 else None, n=self.n)


_MODEL_KEYS = frozenset(f.name for f in fields(mdl.ModelParams))

# every config key, in the order effective.cfg lists them
_KEYS = (
    "n", "tau", "t_end", "case", "seed", "M1", "M2", "beta1", "beta2", "eps", "delta",
    "s1", "s2", "diag_cadence", "snapshot_times", "betas", "probe_times", "output_dir",
)


def _values(cfg: RunConfig) -> dict:
    """Value of every config key, the model keys read from ``cfg.params``."""
    return {key: getattr(cfg.params if key in _MODEL_KEYS else cfg, key) for key in _KEYS}


_DEFAULTS = _values(RunConfig())

# range checks of the keys that no domain type validates while the config is read
_CONSTRAINTS = {
    "n": lambda v: v >= 4 or "n must be >= 4",
    "t_end": lambda v: 0 <= v < math.inf or "t_end must be nonnegative and finite",
    "diag_cadence": lambda v: v >= 1 or "diag_cadence must be >= 1",
    "betas": lambda v: (bool(v) and all(0 <= b < math.inf for b in v))
    or "betas must be a nonempty list of nonnegative finite values",
    "output_dir": lambda v: ("#" not in v and v.splitlines() == [v])  # as effective.cfg echoes it
    or "output_dir must be a nonempty path on one line, without '#'",
}


def _parse_float_list(text: str) -> tuple[float, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(float(tok) for tok in text.split(","))


def _parse_value(key: str, raw: str):
    """Parse raw text by the type of the key's RunConfig default."""
    kind = type(_DEFAULTS[key])
    return _parse_float_list(raw) if kind is tuple else kind(raw)


def _check_value(key: str, value) -> None:
    """Raise ValueError when value is out of range for key.

    The domain type that owns a key checks it: ModelParams the model
    keys and CaseSpec ``case`` and ``seed``.
    """
    if key in _MODEL_KEYS:
        mdl.ModelParams(**{key: value})
    elif key == "case":
        exps.CaseSpec(case=value, seed=0)
    elif key == "seed":
        exps.CaseSpec(case=2, seed=value)
    elif key in _CONSTRAINTS and (verdict := _CONSTRAINTS[key](value)) is not True:
        raise ValueError(verdict)


def _apply_pairs(pairs: list[tuple[str, str, str]]) -> RunConfig:
    """Apply (where, key, raw) pairs in order, later pairs winning.

    eps, delta, s1 and s2 that no pair sets are derived from n by
    ``ModelParams.with_defaults``.  A step count t_end/tau of 2**53 or
    more is rejected, naming tau.
    """
    values: dict = {}
    for where, key, raw in pairs:
        if key not in _DEFAULTS:
            raise ConfigError(f"{where}: unknown key {key!r}")
        try:
            value = _parse_value(key, raw)
        except ValueError as exc:
            raise ConfigError(f"{where}: {key}: cannot parse {raw!r}") from exc
        try:
            _check_value(key, value)
        except ValueError as exc:
            raise ConfigError(f"{where}: {key}: {exc}") from exc
        values[key] = value
    given = {k: values.pop(k) for k in _MODEL_KEYS & values.keys()}
    params = mdl.ModelParams.with_defaults(1.0 / values.get("n", RunConfig.n), **given)
    cfg = RunConfig(**values, params=params)
    steps = cfg.t_end / params.tau
    if not steps < 2**53:
        raise ConfigError(
            f"tau: t_end/tau = {steps:.3g} steps is 2**53 or more, where the step "
            f"times k*tau are no longer exact; got tau={params.tau!r}"
        )
    return cfg


def _pair(where: str, text: str) -> tuple[str, str, str]:
    if "=" not in text:
        raise ConfigError(f"{where}: expected 'key = value', got {text!r}")
    key, _, raw = text.partition("=")
    return where, key.strip(), raw.strip()


def _text_pairs(text: str) -> list[tuple[str, str, str]]:
    pairs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if body:
            pairs.append(_pair(f"line {lineno}", body))
    return pairs


def parse_config(text: str) -> RunConfig:
    """Parse flat key = value configuration text into a RunConfig."""
    return _apply_pairs(_text_pairs(text))


def load_config(
    path: str | None, overrides: list[str], leading: tuple[tuple[str, str, str], ...] = ()
) -> RunConfig:
    """Config file plus command-line ``key=value`` overrides.

    The ``leading`` (where, key, raw) pairs of a subcommand, the file's
    pairs and then the overrides are applied in one pass; later pairs win.
    Errors name the key and where it was set (``line 3``, ``override 2``).
    """
    text = ""
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    given = [_pair(f"override {i}", ov) for i, ov in enumerate(overrides, start=1)]
    return _apply_pairs([*leading, *_text_pairs(text), *given])


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
    for key, value in _values(cfg).items():
        lines.append(f"{key} = {_format_value(value)}")
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
        line = "%.17e\n" * (n + 1)  # one grid row: x varies fastest in structured points
        fh.writelines(line % tuple(row) for row in full.T)
    with open(trace_csv_path(path), "w", encoding="utf-8") as fh:
        fh.write("arc_length,psi\n")
        fh.writelines("%.17e,%.17e\n" % pair for pair in zip(grid.loop_arc_length(), state.psi))


# ---- commands ----------------------------------------------------------


def _run_one(cfg: RunConfig, out_dir: str, label: str = "") -> list[scheme.DiagRecord]:
    """Run one simulation, writing effective.cfg and its outputs to out_dir;
    a bad snapshot time fails before anything is written."""
    snap_steps = scheme.lattice_steps(
        cfg.snapshot_times, cfg.params.tau, cfg.t_end, "snapshot_times"
    )
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "effective.cfg"), "w", encoding="utf-8") as fh:
        fh.write(config_text(cfg))
    grid = build_grid(cfg.n)
    phi0, psi0 = exps.init_case(cfg.case_spec(), grid)
    state = scheme.init_state(phi0, psi0, grid)

    def on_step(st: scheme.State):
        if st.step in snap_steps:
            write_vtk_snapshot(st, grid, os.path.join(out_dir, f"snap_step{st.step:07d}.vtk"))

    final, records = scheme.run(
        state, grid, cfg.params, cfg.t_end,
        diag_cadence=cfg.diag_cadence,
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
    _run_one(cfg, cfg.output_dir)
    return 0


# scale of the convergence study by --full-scale: leading config pairs,
# tested steps and reference step
_CONVERGENCE_SCALE = {
    False: ((("convergence default", "n", "32"),), [4e-3, 2e-3, 1e-3, 5e-4], 2.5e-5),
    True: (
        (("--full-scale", "n", "50"), ("--full-scale", "t_end", "1.0")),
        [0.01, 0.005, 0.0025, 0.00125, 0.000625, 0.0003125],
        1e-6,
    ),
}


def cmd_convergence(cfg: RunConfig, full_scale: bool = False) -> int:
    """Temporal-convergence study under the config's case and model keys.

    The study's scale enters the config as leading pairs (desk scale
    n = 32; full scale n = 50, T = 1), so the file and the overrides win
    over it and the derived eps, delta, s1 and s2 track the study's n.
    ``tau`` is replaced by each tested step.
    """
    _, taus, tau_ref = _CONVERGENCE_SCALE[full_scale]
    print(f"temporal convergence: n={cfg.n}, T={cfg.t_end}, reference tau={tau_ref:g}")
    res = exps.convergence_study(
        cfg.n, taus, tau_ref, cfg.t_end, cfg.case_spec(), params=cfg.params,
    )
    print(f"{'tau':>12} {'err_phi':>14} {'err_psi':>14}")
    for tau, ep, es in zip(res.taus, res.err_phi, res.err_psi):
        print(f"{tau:>12g} {ep:>14.6e} {es:>14.6e}")
    print(f"fitted slopes: phi {res.slope_phi:.4f}, psi {res.slope_psi:.4f}")
    for name, orders in (("phi", res.orders_phi), ("psi", res.orders_psi)):
        print(f"pairwise orders {name}: " + ", ".join(f"{p:.4f}" for p in orders))
    return 0


def cmd_beta_sweep(cfg: RunConfig) -> int:
    probes = list(cfg.probe_times) if cfg.probe_times else [cfg.t_end]
    res = exps.beta_sweep(
        cfg.case_spec(), list(cfg.betas), cfg.t_end, probes, params=cfg.params,
    )
    # made only now, so a probe time the sweep rejects leaves nothing behind
    os.makedirs(cfg.output_dir, exist_ok=True)
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
        _run_one(sub, os.path.join(cfg.output_dir, f"case{case}"), label=f"case {case}")
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
                           help="full-size study (n=50 and T=1 unless set, reference tau=1e-6)")
    try:
        args = parser.parse_args(argv)
        paths = [a for a in args.args if "=" not in a]
        overrides = [a for a in args.args if "=" in a]
        if len(paths) > 1:
            raise ConfigError(f"expected at most one config path, got {paths}")
        path = paths[0] if paths else None
        leading = ()
        if args.command == "convergence":
            leading = _CONVERGENCE_SCALE[args.full_scale][0]
        cfg = load_config(path, overrides, leading)
        if args.command == "convergence":
            return cmd_convergence(cfg, args.full_scale)
        if args.command == "run":
            return cmd_run(cfg)
        if args.command == "beta-sweep":
            return cmd_beta_sweep(cfg)
        return cmd_cases(cfg)
    except (ConfigError, OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
