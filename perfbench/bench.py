"""Passes, timing, checks and metric assembly for perfbench/run.py."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from graphon_hawkes import cli

import checks
from inputs import WORKLOADS, plan, write_inputs
from tracing import LAYER_MOVES, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
SETUP_CODE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import graphon_hawkes.cli\n"
    "from graphon_hawkes.config import load_model\n"
    "from graphon_hawkes.model import validate_model\n"
    "sys.exit(int(any(validate_model(load_model(p)) for p in sys.argv[2:])))\n"
)

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
INVOCATION_METRICS = tuple(inv.metric for w in WORKLOADS for inv in plan(w))
# Invocations whose summary.json lists per-replication event counts.
SIMULATING = ("simulate_s", "thinning_s", "thinning_hist_s")

_UNIT_SUFFIXES = (
    (".calls", "count"), ("_frac", "fraction"), ("us_per_event", "us"),
    ("ms_per_sweep", "ms"), ("ns_per_event", "ns"), ("bytes_written", "bytes"),
    ("events_per_s", "1/s"), ("_s", "s"),
)


def unit_of(name: str) -> str:
    """Unit of a metric, from its name; work counts default to `count`."""
    if name in END_TO_END:
        return END_TO_END[name]
    for suffix, unit in _UNIT_SUFFIXES:
        if name.endswith(suffix):
            return unit
    return "count"


@dataclass
class Pass:
    """One closed-loop pass over a workload's invocations."""

    times: dict[str, float] = field(default_factory=dict)
    failures: dict[str, list[str]] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    events: int = 0
    layers: dict[str, float] | None = None

    @property
    def wall(self) -> float:
        return sum(self.times.values())

    def events_per_s(self) -> float:
        sim = sum(t for m, t in self.times.items() if m in SIMULATING)
        return self.events / sim if sim else 0.0


def _digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            h.update(str(path.relative_to(out)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_pass(invocations, paths, seed, work: Path, oracle, tracer=None) -> Pass:
    """Call the CLI once per invocation, timing, checking and hashing each."""
    p = Pass()
    with tracer or contextlib.nullcontext():
        for inv in invocations:
            out = work / inv.metric
            shutil.rmtree(out, ignore_errors=True)
            argv = ["--model", str(paths[inv.model]), "--seed", str(seed),
                    "--threads", "1", "--out", str(out)]
            argv += [a.format(history=paths["history"]) for a in inv.args]
            sink = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = cli.main(argv)
            except Exception:  # a crash is one failed operation, not the end of the run
                code = traceback.format_exc(limit=4)
            p.times[inv.metric] = time.perf_counter() - t0
            if code != 0:
                p.failures[inv.metric] = [f"{inv.metric}: exit {code} {sink.getvalue()[-400:]}"]
                continue
            p.failures[inv.metric] = checks.check(inv.metric, out, oracle)
            p.digests[inv.metric] = _digest(out)
            if inv.metric in SIMULATING:
                summary = json.loads((out / "summary.json").read_text())
                p.events += sum(row["events"] for row in summary["counts"])
    if tracer is not None:
        p.layers = tracer.layer_metrics()
    return p


def measure_setup(model_paths) -> tuple[float, bool]:
    """Time one fresh-interpreter set-up: import the CLI, load and validate
    each model.  Returns the wall time and whether it failed."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), *map(str, model_paths)],
            cwd=ROOT, capture_output=True, timeout=120,
        )
        failed = proc.returncode != 0
    except subprocess.TimeoutExpired:
        failed = True
    return time.perf_counter() - t0, failed


def _cpu_model() -> str:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or platform.machine()


def machine() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _invocation_metrics(passes) -> dict[str, float]:
    out = {m: _median(p.times[m] for p in passes if m in p.times) for m in INVOCATION_METRICS}
    out["events_per_s"] = _median(p.events_per_s() for p in passes)
    return out


def _mark_nondeterminism(passes, reference: Pass) -> None:
    for i, p in enumerate(passes):
        for metric, digest in p.digests.items():
            if digest != reference.digests.get(metric):
                p.failures[metric].append(f"{metric}: pass {i} artifacts differ from pass 0")


def _layer_moves(invocations) -> dict[str, list[str]]:
    """Per layer, the times on this workload it should move.  events_per_s
    counts only for a layer that runs one of the simulating invocations."""
    present = {"setup_s", "wall_s", *(inv.metric for inv in invocations)}
    out = {}
    for layer, moves in LAYER_MOVES.items():
        hit = [m for m in moves if m in present]
        if "events_per_s" in moves and present & set(moves) & set(SIMULATING):
            hit.append("events_per_s")
        if hit:
            out[layer] = hit
    return out


def _emit(metrics: dict[str, float]) -> dict:
    return {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()}


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> int:
    invocations = plan(workload, tiny)
    oracle = checks.oracles(seed)
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as tmp:
        tmp = Path(tmp)
        paths = write_inputs(seed, tmp / "inputs", tiny)
        warm_paths = write_inputs(seed, tmp / "warm-inputs", tiny=True)
        # Warm-up: lazy imports and first-touch allocations finish before timing.
        run_pass(plan(workload, tiny=True), warm_paths, seed, tmp / "warm", oracle)

        # Set-up samples are spread between the passes, so that they meet the
        # same machine states as the passes do.
        models = sorted({paths[inv.model] for inv in invocations})
        setups: list[tuple[float, bool]] = []
        passes: list[Pass] = []
        measured = 0.0
        while len(passes) < (2 if trace else 1) or measured < seconds:
            tracer = Tracer() if trace and len(passes) % 2 == 1 else None
            passes.append(run_pass(invocations, paths, seed, tmp / "out", oracle, tracer))
            measured += passes[-1].wall
            if not trace and len(setups) < SETUP_REPEATS:
                setups.append(measure_setup(models))
        while not trace and len(setups) < SETUP_REPEATS:
            setups.append(measure_setup(models))

    _mark_nondeterminism(passes, passes[0])
    untraced = [p for p in passes if p.layers is None]
    traced = [p for p in passes if p.layers is not None]
    messages = [m for p in passes for fails in p.failures.values() for m in fails]
    attempted = sum(len(p.times) for p in passes) + len(setups)
    failed = (sum(bool(f) for p in passes for f in p.failures.values())
              + sum(bad for _, bad in setups))
    per_invocation = _invocation_metrics(untraced)

    if trace:
        metrics = {k: _median(p.layers[k] for p in traced) for k in traced[0].layers}
        metrics.update(per_invocation)
        # Each traced pass against the untraced pass before it, so that slow
        # drift of the machine's speed cancels.
        metrics["trace.overhead_frac"] = _median(
            t.wall / u.wall for u, t in zip(untraced, traced)) - 1.0
    else:
        metrics = {
            "setup_s": _median(t for t, _ in setups),
            "wall_s": _median(p.wall for p in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    report = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "tiny": tiny,
        "passes": len(passes),
        "pass_wall_s": [p.wall for p in passes],
        "machine": machine(),
        "invocations": {
            inv.metric: {"argv": [inv.model, *inv.args],
                         "median_s": per_invocation[inv.metric],
                         "samples_s": [p.times[inv.metric] for p in untraced]}
            for inv in invocations
        },
        "events_per_s": per_invocation["events_per_s"],
        "failed_frac": failed / attempted,
        "failures": messages[:20],
    }
    if trace:
        report["layer_moves"] = _layer_moves(invocations)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": _emit(metrics),
    }))
    return 0
