"""In-memory span tracing of hyperch's public functions, from outside the package.

A span is one call of a wrapped function: its name, an id, the id of the
span that was open when it started (its parent, -1 at the top), its start
and end time, and the exception type that ended it, if any.  Spans are
kept in a list while the workload runs and written out when it ends.

A span's self time is its duration minus the durations of its children.
Calls are synchronous and single-threaded, so children never overlap and
their durations add up to the part of the parent's interval they cover.
"""

from __future__ import annotations

import functools
import json
import time

from hyperch import cli, experiments, grid, linalg, model, operators, scheme

MODULES = (grid, operators, model, linalg, scheme, experiments, cli)

# (owner, attribute, span name).  Module functions are patched in every
# hyperch module that holds a reference to them (``cli`` imports
# ``build_grid`` and ``to_full_grid`` by name, for example), so calls
# through any binding are traced.
TRACED = (
    (grid, "build_grid", "grid.build_grid"),
    (experiments, "init_case", "experiments.init_case"),
    (experiments, "convergence_study", "experiments.convergence_study"),
    (scheme, "assemble_system", "scheme.assemble_system"),
    (scheme, "assemble_rhs", "scheme.assemble_rhs"),
    (scheme, "step", "scheme.step"),
    (scheme, "run", "scheme.run"),
    (scheme.SparseSystem, "solve", "scheme.SparseSystem.solve"),
    (linalg.DirectFactorization, "__init__", "linalg.DirectFactorization.factor"),
    (linalg.DirectFactorization, "solve", "linalg.DirectFactorization.solve"),
    (model, "f_val", "model.f_val"),
    (model, "g_val", "model.g_val"),
    (model, "total_energy", "model.total_energy"),
    (model, "modified_energy", "model.modified_energy"),
    (model, "bulk_mass", "model.bulk_mass"),
    (model, "surface_mass", "model.surface_mass"),
    (operators, "solve_poisson_neumann_zeromean", "operators.solve_poisson_neumann_zeromean"),
    (operators, "solve_poisson_loop_zeromean", "operators.solve_poisson_loop_zeromean"),
    (operators, "dirichlet_energy_bulk", "operators.dirichlet_energy_bulk"),
    (operators, "dirichlet_energy_loop", "operators.dirichlet_energy_loop"),
    (operators, "to_full_grid", "operators.to_full_grid"),
    (cli, "write_diag_csv", "cli.write_diag_csv"),
    (cli, "write_vtk_snapshot", "cli.write_vtk_snapshot"),
)

NAME, ID, PARENT, START, END, ERROR = range(6)


class Tracer:
    """Records spans around the functions in TRACED while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.residuals: list[float] = []  # rel_residual of every direct solve
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for owner, attr, name in TRACED:
            orig = getattr(owner, attr)
            wrapped = self._wrap(orig, name)
            owners = [owner] if isinstance(owner, type) else [
                m for m in MODULES if getattr(m, attr, None) is orig
            ]
            for o in owners:
                self._patches.append((o, attr, orig))
                setattr(o, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, orig, name: str):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        if name == "linalg.DirectFactorization.solve":
            keep = self.residuals.append

            def observe(args, result):
                keep(result[1].rel_residual)
        else:
            observe = None

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            span = [name, len(spans), stack[-1][ID] if stack else -1, clock(), None, None]
            spans.append(span)
            stack.append(span)
            try:
                result = orig(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def write(self, path: str, rep: str) -> None:
        """Write the spans as JSON; ``rep`` identifies the repetition."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"rep": rep, "fields": ["name", "id", "parent", "start", "end", "error"],
                       "spans": self.spans}, fh)


def self_times(spans: list[list]) -> list[float]:
    """Self time of every span: its duration minus its children's."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: call count, per-call and total self times, errors."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for s, st in zip(spans, selfs):
        d = out.setdefault(s[NAME], {"calls": 0, "self": [], "errors": 0})
        d["calls"] += 1
        d["self"].append(st)
        d["errors"] += s[ERROR] is not None
    for d in out.values():
        d["self_s"] = sum(d["self"])
    return out


def root_total(spans: list[list]) -> float:
    """Time covered by top-level spans (equal to the sum of all self times)."""
    return sum(s[END] - s[START] for s in spans if s[PARENT] < 0)


def _median_ms(summary: dict, *names: str) -> float:
    """Sum over ``names`` of the median per-call self time, in ms (0 if never called)."""
    total = 0.0
    for name in names:
        vals = sorted(summary.get(name, {}).get("self", []))
        if vals:
            k = len(vals) // 2
            total += vals[k] if len(vals) % 2 else 0.5 * (vals[k - 1] + vals[k])
    return 1e3 * total


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced repetition."""
    s = summarize(tracer.spans)

    def total(name):
        return s.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return s.get(name, {}).get("calls", 0)

    factor = "linalg.DirectFactorization.factor"
    solve = "linalg.DirectFactorization.solve"
    poisson = ("operators.solve_poisson_neumann_zeromean", "operators.solve_poisson_loop_zeromean")
    return {
        "linalg.factor_s": total(factor),
        "linalg.solve_ms": _median_ms(s, solve),
        "linalg.solve_max_rel_residual": max(tracer.residuals, default=0.0),
        "linalg.solve_failures": s.get(solve, {}).get("errors", 0),
        "scheme.assemble_system_s": total("scheme.assemble_system"),
        "scheme.assemble_rhs_ms": _median_ms(s, "scheme.assemble_rhs"),
        "model.f_val_ms": _median_ms(s, "model.f_val"),
        "model.g_val_ms": _median_ms(s, "model.g_val"),
        "scheme.step_self_ms": _median_ms(s, "scheme.step"),
        "scheme.run_self_s": total("scheme.run"),
        "model.total_energy_self_ms": _median_ms(s, "model.total_energy"),
        "model.modified_energy_self_ms": _median_ms(s, "model.modified_energy"),
        "model.mass_ms": _median_ms(s, "model.bulk_mass", "model.surface_mass"),
        "operators.poisson_solves": sum(calls(p) for p in poisson),
        "operators.poisson_bulk_ms": _median_ms(s, poisson[0]),
        "operators.poisson_loop_ms": _median_ms(s, poisson[1]),
        "operators.dirichlet_energy_ms": _median_ms(
            s, "operators.dirichlet_energy_bulk", "operators.dirichlet_energy_loop"),
        "operators.to_full_grid_ms": _median_ms(s, "operators.to_full_grid"),
        "cli.write_diag_csv_s": total("cli.write_diag_csv"),
        "cli.write_vtk_s": total("cli.write_vtk_snapshot"),
        "grid.build_s": total("grid.build_grid"),
        "experiments.init_case_s": total("experiments.init_case"),
        "experiments.convergence_study_self_s": total("experiments.convergence_study"),
        "trace.unattributed_frac": (wall_s - root_total(tracer.spans)) / wall_s,
    }


def factor_counts(f: linalg.DirectFactorization) -> dict[str, int]:
    """Dimension, nnz and L+U fill of a factorization."""
    return {
        "linalg.matrix_dim": f.a.shape[0],
        "linalg.matrix_nnz": f.a.nnz,
        # explicit nonzeros of L (its unit diagonal included) plus U
        "linalg.factor_fill_nnz": f._lu.L.nnz + f._lu.U.nnz,
    }


def breakdown(tracer: Tracer, wall_s: float) -> list[tuple[str, int, float]]:
    """(name, calls, self seconds) per span name, largest first, plus the
    unwrapped remainder of ``wall_s``; the self seconds add up to wall_s."""
    s = summarize(tracer.spans)
    rows = sorted(((k, d["calls"], d["self_s"]) for k, d in s.items()), key=lambda r: -r[2])
    rows.append(("(unwrapped)", 0, wall_s - root_total(tracer.spans)))
    return rows
