"""Tests of the benchmark itself: self-time arithmetic, exact counts, contract."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads
from hyperch import experiments, grid, linalg, model, scheme

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def by_name(tracer):
    out = {}
    for s in tracer.spans:
        out.setdefault(s[spans.NAME], []).append(s)
    return out


def check_self_times(tracer):
    """Every self time is nonnegative and they add up to the top-level spans."""
    selfs = spans.self_times(tracer.spans)
    assert min(selfs) >= 0.0
    assert sum(selfs) == pytest.approx(spans.root_total(tracer.spans), rel=1e-9, abs=1e-12)
    return selfs


def children(tracer, span):
    return [s for s in tracer.spans if s[spans.PARENT] == span[spans.ID]]


def test_self_time_synthetic():
    # root [0, 10] with children [1, 4] and [5, 6]; the first has a child [2, 3]
    sp = [["a", 0, -1, 0.0, 10.0, None], ["b", 1, 0, 1.0, 4.0, None],
          ["c", 2, 1, 2.0, 3.0, None], ["d", 3, 0, 5.0, 6.0, None]]
    assert spans.self_times(sp) == [6.0, 2.0, 1.0, 1.0]
    assert spans.root_total(sp) == 10.0
    summary = spans.summarize(sp)
    assert summary["a"]["self_s"] == 6.0 and summary["b"]["calls"] == 1


@pytest.fixture()
def small():
    g = grid.build_grid(8)
    params = model.ModelParams.with_defaults(g.h, beta1=0.1, beta2=0.1)
    phi0, psi0 = experiments.init_case(experiments.CaseSpec(case=2, seed=1, n=8), g)
    return g, params, scheme.init_state(phi0, psi0, g)


def test_lazy_factor_nests_in_first_solve(small):
    g, params, state = small
    system = scheme.assemble_system(g, params)
    with spans.Tracer() as tracer:
        state, _ = scheme.step(state, system, g, params)
        scheme.step(state, system, g, params)
    selfs = check_self_times(tracer)
    named = by_name(tracer)
    (factor,) = named["linalg.DirectFactorization.factor"]
    first, second = named["scheme.SparseSystem.solve"]
    assert factor[spans.PARENT] == first[spans.ID]
    kids = children(tracer, first)
    assert [k[spans.NAME] for k in kids] == ["linalg.DirectFactorization.factor",
                                              "linalg.DirectFactorization.solve"]
    dur = first[spans.END] - first[spans.START]
    kid_dur = sum(k[spans.END] - k[spans.START] for k in kids)
    assert selfs[first[spans.ID]] == pytest.approx(dur - kid_dur)
    assert [k[spans.NAME] for k in children(tracer, second)] == ["linalg.DirectFactorization.solve"]
    assert len(tracer.residuals) == 2 and max(tracer.residuals) <= 1e-10


def test_f_val_nests_in_assemble_rhs(small):
    g, params, state = small
    with spans.Tracer() as tracer:
        scheme.assemble_rhs(state, g, params)
    check_self_times(tracer)
    (rhs,) = by_name(tracer)["scheme.assemble_rhs"]
    assert [k[spans.NAME] for k in children(tracer, rhs)] == ["model.f_val", "model.g_val"]


def test_energy_nestings(small):
    g, params, state = small
    system = scheme.assemble_system(g, params)
    state, _ = scheme.step(state, system, g, params)  # nonzero rates
    with spans.Tracer() as tracer:
        model.modified_energy(state, g, params)
    selfs = check_self_times(tracer)
    named = by_name(tracer)
    (mod,) = named["model.modified_energy"]
    assert [k[spans.NAME] for k in children(tracer, mod)] == [
        "model.total_energy", "operators.solve_poisson_neumann_zeromean",
        "operators.solve_poisson_loop_zeromean"]
    (tot,) = named["model.total_energy"]
    assert [k[spans.NAME] for k in children(tracer, tot)] == [
        "operators.to_full_grid", "operators.dirichlet_energy_bulk",
        "operators.dirichlet_energy_loop"]
    # dirichlet_energy_bulk builds the full grid itself: a grandchild
    (bulk,) = named["operators.dirichlet_energy_bulk"]
    assert [k[spans.NAME] for k in children(tracer, bulk)] == ["operators.to_full_grid"]
    mod_dur = mod[spans.END] - mod[spans.START]
    kid_dur = sum(k[spans.END] - k[spans.START] for k in children(tracer, mod))
    assert selfs[mod[spans.ID]] == pytest.approx(mod_dur - kid_dur)


def test_uninstall_restores_every_binding():
    from hyperch import cli
    before = (grid.build_grid, cli.build_grid, experiments.build_grid, cli.to_full_grid,
              linalg.DirectFactorization.__init__)
    with spans.Tracer():
        assert cli.build_grid is grid.build_grid is experiments.build_grid
        assert cli.build_grid is not before[0]
    assert (grid.build_grid, cli.build_grid, experiments.build_grid, cli.to_full_grid,
            linalg.DirectFactorization.__init__) == before


def worker(tmp_path, name, traced):
    out = tmp_path / name
    out.mkdir()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", "smoke", "--seed", "3",
           "--out", str(out)] + (["--trace"] if traced else [])
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_exact_counts_repeat_and_metrics_match_benchmark_json(tmp_path):
    a, b = worker(tmp_path, "a", True), worker(tmp_path, "b", True)
    assert set(run.EXACT_COUNTS) <= set(a["counts"])
    assert run.count_mismatches([a, b]) == []
    assert all(ok for _, ok, _ in a["gates"])
    assert (tmp_path / "a" / "spans.json").is_file()
    c = dict(b, counts=dict(b["counts"], **{"scheme.steps": b["counts"]["scheme.steps"] + 1}))
    assert run.count_mismatches([a, c]) == ["scheme.steps: [10, 11]"]

    listed = json.loads((ROOT / "BENCHMARK.json").read_text())
    produced = set(a["layers"]) | set(a["counts"]) | set(a["info"])
    produced |= {"trace.overhead_frac", "step_ms_p50"}
    assert produced == {m["name"] for m in listed["per_layer"]}
    plain = worker(tmp_path, "plain", False)
    e2e, _ = run.end_to_end([plain])
    assert set(e2e) == {m["name"] for m in listed["end_to_end"]} | {"step_ms_p50"}


def test_expected_rows():
    assert workloads.expected_rows(2000, 1) == 2001
    assert workloads.expected_rows(200, 200) == 2
    assert workloads.expected_rows(10, 3) == 5  # 0, 3, 6, 9, 10
    assert workloads.expected_rows(0, 1) == 1


def test_refuses_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed",
                           "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
