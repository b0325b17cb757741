"""Run the benchmark over several seeds and write a BENCH_*.json summary.

Usage (from the root of a checkout):

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/BENCH_<name>.json
    python3 perfbench/collect.py --seeds 1-5 --workloads solve-n200 --no-trace

For each workload, runs ``run.py --trace 0`` once per seed with the
``run_seconds`` of BENCHMARK.json, and reports for every end-to-end metric
its median, quartiles and spread (interquartile distance over the
median, from ``statistics.quantiles(values, n=4)``) next to its bound.
Unless ``--no-trace`` is given, one ``--trace 1`` run per workload (first
seed) adds the per-layer metrics.  The manifest of the last run is kept.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    saved = json.loads((HERE / ".work" / f"{workload}-trace{trace}" / "result.json").read_text())
    return result, saved["manifest"]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="seed range, e.g. 1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--out", help="where to write the summary JSON")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            result, man = bench(workload, seed, spec["run_seconds"], 0)
            runs.append({"seed": seed, "attempted": result["attempted"],
                         "failed": result["failed"],
                         "repetitions": man["repetitions_untraced"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            summary["manifest"] = man
        e2e = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            e2e[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                         "bound": bound, "values": values}
            flag = "" if (q3 - q1) / med < bound / 3 else "  <-- spread >= bound/3"
            print(f"{workload:<14} {name:<14} median {med:<14.6g} spread {(q3 - q1) / med:8.4f} "
                  f"bound {bound}{flag}", flush=True)
        entry = {"runs": runs, "end_to_end": e2e}
        if not args.no_trace:
            result, _ = bench(workload, seeds[0], spec["run_seconds"], 1)
            entry["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
