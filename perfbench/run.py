"""hyperch benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload diag-n50 --seed 1 --seconds 55 --trace 0

Repeats the workload, one fresh interpreter (``worker.py``) at a time, for
about ``--seconds`` seconds, and prints one JSON object as the last line
of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics, with
``trace.overhead_frac`` from the two kinds of repetition.  Workloads and
metrics are described in ``BENCHMARK.json`` and ``workloads.py``.

An operation is a step or a correctness gate; ``failed`` counts the
steps a raised solver error prevented and the gates that did not hold.
The command exits 1 if any gate fails, any repetition fails, the exact
counts differ between repetitions of one kind, or (on ``diag-n50``) the
benchmark's diag.csv differs from ``hyperch run``'s.  It exits 2 without
a result if the checkout has no ``src/hyperch``.

Every child runs with one BLAS thread: the thread count changes the last
digits of the results as well as their spread.  The manifest (versions,
machine, seed, repetition counts, percentiles and sample counts) and
every repetition's raw result are written to
``perfbench/.work/<workload>-trace<0|1>/result.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EQUIVALENCE_WORKLOAD = "diag-n50"
BLAS_THREADS = "1"
DEADLINE_S = 170.0  # the whole command stays under 180 s
PERCENTILES = {"step_ms_p50": 50.0, "step_ms_p95": 95.0}
# counts that must repeat exactly between repetitions of one kind
EXACT_COUNTS = ("linalg.matrix_dim", "linalg.matrix_nnz", "linalg.factor_fill_nnz",
                "scheme.steps", "operators.poisson_solves", "model.diag_rows",
                "cli.output_bytes")


def run_child(cmd: list[str], deadline: float) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))


def run_rep(workload: str, seed: int, out_dir: Path, traced: bool, deadline: float) -> dict:
    """One repetition in a fresh interpreter; its parsed result, or an error entry."""
    out_dir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out_dir)] + (["--trace"] if traced else [])
    start = time.monotonic()
    try:
        proc = run_child(cmd, deadline)
    except subprocess.TimeoutExpired:
        return {"traced": traced, "crash": "timed out", "duration_s": time.monotonic() - start}
    duration = time.monotonic() - start
    if proc.returncode != 0:
        return {"traced": traced, "crash": f"exit {proc.returncode}: {proc.stderr[-2000:]}",
                "duration_s": duration}
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res.update(traced=traced, duration_s=duration)
    return res


def equivalence_check(keys: list[str], bench_dir: Path, work: Path, deadline: float):
    """Gate: ``hyperch run`` with the same keys writes byte-identical files."""
    cli_dir = work / "cli"
    cmd = [sys.executable, "-m", "hyperch.cli", "run", *keys, f"output_dir={cli_dir}"]
    try:
        proc = run_child(cmd, deadline)
    except subprocess.TimeoutExpired:
        return ("cli_equivalence", False, "hyperch run timed out")
    if proc.returncode != 0:
        return ("cli_equivalence", False, f"hyperch run exit {proc.returncode}")
    differ = [name for name in ("diag.csv", "final.vtk", "final_trace.csv")
              if (cli_dir / name).read_bytes() != (bench_dir / name).read_bytes()]
    return ("cli_equivalence", not differ,
            "byte-identical diag.csv, final.vtk, final_trace.csv" if not differ
            else "differ: " + ", ".join(differ))


def end_to_end(reps: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics: the median over repetitions of each repetition's value."""
    import numpy as np

    m = {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "steps_per_s": statistics.median(r["steps_completed"] / r["stepping_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    samples = [r["step_samples_s"] for r in reps]
    for name, q in PERCENTILES.items():
        m[name] = statistics.median(
            1e3 * float(np.percentile(s, q)) if s else 0.0 for s in samples)
    stats = {"repetitions": len(reps),
             "step_samples_per_repetition": min(len(s) for s in samples),
             "step_samples_beyond_p95_per_repetition": min(
                 int(np.sum(np.asarray(s) > np.percentile(s, 95))) if s else 0 for s in samples),
             "percentiles": list(PERCENTILES.values()), "percentile_method": "numpy linear",
             "aggregate": "median over repetitions of each repetition's value"}
    return m, stats


def layer_metrics(untraced: list[dict], traced: list[dict]) -> dict:
    """Per-layer metrics: medians over traced repetitions, plus trace overhead."""
    merged = [{**r["layers"], **r["counts"], **r["info"]} for r in traced]
    m = {name: statistics.median(d[name] for d in merged) for name in merged[0]}
    wall_plain = statistics.median(r["wall_s"] for r in untraced)
    m["trace.overhead_frac"] = (statistics.median(r["wall_s"] for r in traced)
                                - wall_plain) / wall_plain
    return m


def count_mismatches(reps: list[dict]) -> list[str]:
    """Names of exact counts that differ between the given repetitions."""
    out = []
    for name in EXACT_COUNTS:
        values = {r["counts"][name] for r in reps if name in r["counts"]}
        if len(values) > 1:
            out.append(f"{name}: {sorted(values)}")
    return out


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "hyperch").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def manifest(args, reps: list[dict], stats: dict) -> dict:
    import numpy as np
    import scipy

    commit = None
    try:  # a checkout without .git has no commit; git would look in parent directories
        if (ROOT / ".git").exists():
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        pass
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": commit,
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "blas_threads": int(BLAS_THREADS),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "repetitions_untraced": sum(not r["traced"] for r in reps),
        "repetitions_traced": sum(r["traced"] for r in reps),
        "step_metrics": stats,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="hyperch benchmark")
    parser.add_argument("--workload", required=True, help="a name in workloads.WORKLOADS")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "hyperch" / "__init__.py").is_file():
        print(f"error: no hyperch sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    # children inherit: hyperch from this checkout, one BLAS thread
    os.environ.update(PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=BLAS_THREADS,
                      OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")

    deadline = time.monotonic() + DEADLINE_S
    work = HERE / ".work" / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    # alternate untraced and traced repetitions in trace mode; start a new
    # one only if it is expected to end within --seconds
    kinds = [False, True] if args.trace else [False]
    reps: list[dict] = []
    start = time.monotonic()
    while True:
        traced = kinds[len(reps) % len(kinds)]
        reps.append(run_rep(args.workload, args.seed, work / f"rep{len(reps)}", traced, deadline))
        if "crash" in reps[-1]:
            break
        elapsed = time.monotonic() - start
        longest = max(r["duration_s"] for r in reps)
        if len(reps) >= len(kinds) and elapsed + longest > args.seconds:
            break
        if time.monotonic() + 2 * longest > deadline:
            break

    problems: list[str] = []
    gates: list[tuple] = []
    attempted = failed = 0
    for r in reps:
        if "crash" in r:
            problems.append(f"repetition crashed: {r['crash']}")
            attempted, failed = attempted + 1, failed + 1
            continue
        attempted += r["steps_expected"] + len(r["gates"])
        failed += r["steps_expected"] - r["steps_completed"]
        failed += sum(not ok for _, ok, _ in r["gates"])
        gates.extend(r["gates"])
        if r["error"]:
            problems.append(r["error"])
    ok_reps = [r for r in reps if "crash" not in r]
    for traced in set(kinds):
        mismatch = count_mismatches([r for r in ok_reps if r["traced"] == traced])
        problems.extend(f"count differs between repetitions: {m}" for m in mismatch)

    if args.workload == EQUIVALENCE_WORKLOAD and not args.trace and ok_reps:
        keys = workloads.cli_keys(workloads.WORKLOADS[args.workload], args.seed)
        gate = equivalence_check(keys, work / "rep0", work, deadline)
        gates.append(gate)
        attempted += 1
        failed += not gate[1]
    for name, ok, detail in gates:
        if not ok:
            problems.append(f"gate {name} failed: {detail}")

    untraced = [r for r in ok_reps if not r["traced"]]
    traced_reps = [r for r in ok_reps if r["traced"]]
    complete = bool(untraced) and (bool(traced_reps) or not args.trace)
    metrics: dict = {}
    stats: dict = {}
    if complete:
        metrics, stats = end_to_end(untraced)
        if args.trace:
            # the median step time is a per-layer metric: see BENCHMARK.json
            metrics = {**layer_metrics(untraced, traced_reps),
                       "step_ms_p50": metrics["step_ms_p50"]}
    else:
        problems.append("no complete repetition")
    correct = not problems

    listed = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = listed["per_layer"] if args.trace else listed["end_to_end"]
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in listed} if complete else {}}
    man = manifest(args, reps, stats)
    (work / "result.json").write_text(json.dumps(
        {"manifest": man, "result": result, "gates": gates, "problems": problems,
         "repetitions": [{k: v for k, v in r.items() if k != "step_samples_s"} for r in reps]},
        indent=1))

    # human-readable report; the JSON result is the last line
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {len(untraced)} untraced, {len(traced_reps)} traced")
    for name, m in result["metrics"].items():
        print(f"  {name:<40} {m['value']:>16.6g} {m['unit']}")
    if complete and not args.trace:
        print(f"  {'step_ms_p50':<40} {metrics['step_ms_p50']:>16.6g} ms (not bounded; "
              "a per-layer metric)")
    print(f"  {'failed_frac':<40} {failed / max(attempted, 1):>16.6g} fraction "
          f"({failed} of {attempted} operations)")
    if stats:
        print(f"  step percentiles per repetition over {stats['step_samples_per_repetition']} "
              f"samples ({stats['step_samples_beyond_p95_per_repetition']} beyond p95), "
              f"median over {stats['repetitions']} repetitions")
    for r in traced_reps[:1]:
        print("  traced breakdown of one repetition (self seconds; they add up to wall_s "
              f"{r['wall_s']:.4f}):")
        for name, calls, self_s in r["breakdown"]:
            print(f"    {name:<44} {calls:>8} calls {self_s:>10.4f} s "
                  f"{100 * self_s / r['wall_s']:6.1f}%")
    for p in problems:
        print(f"  PROBLEM: {p}")
    print("manifest " + json.dumps(man))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
