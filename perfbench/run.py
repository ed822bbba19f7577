"""End-to-end benchmark of the graphon_hawkes CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  A run generates every input from the seed
(model YAMLs and an initial-history NDJSON), then calls
`graphon_hawkes.cli.main(argv)` in-process with `--threads 1`, one
invocation after another (a closed loop with one client), repeating the
workload's pass until S seconds have been measured.  Every invocation's
outputs are checked against oracles, and every pass must reproduce the
first pass's artifacts byte for byte (manifest.json excluded).

With --trace 0 the last stdout line carries the end-to-end metrics (times
are medians over the run):
  setup_s      fresh interpreter: import the CLI, load and validate the
               workload's models (5 samples spread over the run);
  wall_s       one pass: the sum of the workload's invocation times;
  peak_rss_mb  peak resident memory of the benchmark process.
Per-invocation times (simulate_s, stability_step_s, ...) and events_per_s
exist on one workload each, so they are reported per layer, not gated.
With --trace 1 it carries the per-layer metrics of an outside-in traced
run (tracing.py), whose passes alternate with untraced ones; per-invocation
times and events_per_s come from the untraced passes.  The line before the
result is a report with the machine, per-invocation times, the failures
and, when traced, which times each layer should move.  --tiny shrinks every
size, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

NPROC = len(os.sched_getaffinity(0))
# BLAS uses at most one thread per available core; set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, str(NPROC))

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "graphon_hawkes" / "cli.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench

    if args.workload not in bench.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    return bench.run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)


if __name__ == "__main__":
    sys.exit(main())
