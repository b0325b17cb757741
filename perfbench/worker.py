"""One repetition of a benchmark workload, in a fresh interpreter.

Usage: python3 perfbench/worker.py --workload NAME --seed N --out DIR [--trace]

Imports hyperch from the checkout's ``src`` directory (``run.py`` sets
PYTHONPATH), runs the workload once, and prints one JSON object on its
last line of standard output: timings, per-step samples, exact counts,
correctness gates and, with ``--trace``, the per-layer metrics.  With
``--trace`` the spans are written to DIR/spans.json after the clock stops.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import hyperch

    src = (ROOT / "src").resolve()
    if src not in Path(hyperch.__file__).resolve().parents:
        print(f"error: hyperch imported from {hyperch.__file__}, not from {src}", file=sys.stderr)
        return 2

    import spans
    import workloads

    tracer = spans.Tracer() if args.trace else None
    with tracer or contextlib.nullcontext():
        res = workloads.run_workload(workloads.WORKLOADS[args.workload], args.seed, args.out)
    # read the high-water mark before anything below allocates
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    system = res.pop("system")
    res["peak_rss_mb"] = peak_rss_mb
    res["counts"].update(spans.factor_counts(system.direct()))
    res["gates"] = [[name, bool(ok), detail] for name, ok, detail in res["gates"]]
    if tracer is not None:
        layers = spans.layer_metrics(tracer, res["wall_s"])
        res["counts"]["operators.poisson_solves"] = layers.pop("operators.poisson_solves")
        res["layers"] = layers
        res["breakdown"] = spans.breakdown(tracer, res["wall_s"])
        tracer.write(str(Path(args.out) / "spans.json"), rep=args.out)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
