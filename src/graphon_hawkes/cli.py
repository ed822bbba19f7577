"""Command-line entry point: wires configs, seeds and subcommands to the
library with machine-readable outputs.

Artifacts land in the output directory: events as NDJSON, experiment
samples as CSV, summaries as JSON, plus manifest.json recording the full
resolved configuration (sufficient to re-run), versions and wall time.
All NDJSON/CSV/JSON artifacts except the manifest's wall_time field are
byte-stable for a fixed seed, independent of --threads.

Exit codes: 0 success, 1 validation/config failure, 2 unstable model where
stability is required, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import load_model, model_digest, spec_config
from .cluster_sim import DEFAULT_EVENT_CAP, simulate_processes
from .errors import (
    GraphonHawkesError,
    InvalidArgumentError,
    OutdegreeConditionError,
    PrelimitUnstableError,
    UnstableModelError,
)
from .events import Realization
from .limits import _pmap, divergence_experiment, fclt_experiment, flln_experiment
from .metrics import pp_distance
from .model import validate_model
from .operators import stability_report
from .prelimit import average_models, build_partition, sample_quenched_graph, simulate_coupled
from .rng import SplitStream
from .thinning_sim import simulate_thinning
from .transforms import (
    TestFunction,
    fixed_point,
    laplace_of_Q,
    mc_transform_oracle,
)

_VALIDATION_EXIT = 1
_UNSTABLE_EXIT = 2
_IO_EXIT = 3
# the flags before the subcommand; the manifest's options are the rest
_GLOBAL_FLAGS = {"model", "seed", "out", "threads", "grid_n", "subcommand"}


def _json_default(o):
    if isinstance(o, (np.integer, np.floating, np.ndarray)):  # as Python ints and floats
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o)}")


def _dump_json(obj, path: Path):
    path.write_text(json.dumps(obj, sort_keys=True, indent=1, default=_json_default) + "\n")


def _number(text: str, kind, flag: str):
    """One number of a command-line value, typed as `kind`."""
    try:
        return kind(text)
    except ValueError:
        raise InvalidArgumentError(f"{flag}: {text!r} is not a number") from None


_RANGES = (  # (flags' keys, test, what the test asks)
    (("threads", "grid_n", "reps", "n", "cap"), lambda v: v >= 1, "at least 1"),
    (("n_u",), lambda v: v >= 2, "at least 2"),
    (("oracle",), lambda v: v >= 0, "at least 0"),
    (("horizon", "t_list", "t", "tol"), lambda v: 0 < v < np.inf, "positive and finite"),
    (("burn_in", "eps"), lambda v: 0 <= v < np.inf, "nonnegative and finite"),
)


def _check_ranges(args: argparse.Namespace):
    """Refuse a numeric argument out of its range, naming its flag."""
    for keys, ok, need in _RANGES:
        for key in keys:
            value = getattr(args, key, None)
            for v in value if isinstance(value, list) else [value]:
                if v is not None and not ok(v):
                    flag = "--" + key.replace("_", "-")
                    raise InvalidArgumentError(f"{flag} must be {need}, not {v!r}")


def _parse_box(text: str | None, dim: int):
    if not text:
        return None
    parts = [_number(v, float, "--set") for v in text.split(",")]
    if len(parts) != 2 * dim:
        raise InvalidArgumentError(f"--set needs 2*dim={2 * dim} comma-separated numbers")
    lo, hi = parts[:dim], parts[dim:]
    if not all(-np.inf < a <= b < np.inf for a, b in zip(lo, hi)):  # NaN fails too
        raise InvalidArgumentError(f"--set needs finite bounds with lo <= hi, not {text!r}")
    return (lo, hi)


def _load_spec(path: str, grid_n: int | None):
    """The validated model of the config at `path`, on `grid_n` if given."""
    spec = load_model(path)
    if grid_n is not None:
        spec = dataclasses.replace(spec, grid_n=grid_n)
    report = validate_model(spec)
    if report:
        raise GraphonHawkesError("model validation failed: " + "; ".join(report))
    return spec


def _write_manifest(args: argparse.Namespace, spec, artifacts: list[str], t0: float):
    manifest = {
        "subcommand": args.subcommand,
        "seed": args.seed,
        "threads": args.threads,
        "options": {k: v for k, v in sorted(vars(args).items()) if k not in _GLOBAL_FLAGS},
        "config": spec_config(spec),
        "config_digest": model_digest(spec),
        "versions": {
            "graphon_hawkes": __version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
        "artifacts": sorted(artifacts),
        "wall_time_s": round(time.time() - t0, 3),
    }
    _dump_json(manifest, args.out / "manifest.json")


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_simulate(args: argparse.Namespace, spec) -> list[str]:
    horizon, with_lt = args.horizon, args.lifetimes == "on"
    stream = SplitStream(args.seed)
    artifacts = []

    history = None
    if args.history:
        if args.method != "thinning":
            raise InvalidArgumentError("--history needs --method thinning")
        history = Realization.from_ndjson(Path(args.history).read_text())

    def chunk(idx: range) -> list[Realization]:
        subs = [stream.child(r) for r in idx]
        if args.method == "thinning":
            return [simulate_thinning(spec, horizon, initial=history, rng=sub,
                                      with_lifetimes=with_lt, cap=args.cap) for sub in subs]
        return simulate_processes(spec, horizon, subs, with_lifetimes=with_lt, cap=args.cap)

    reals = _pmap(chunk, args.reps, args.threads)

    counts = []
    for r, real in enumerate(reals):
        name = f"events_r{r:04d}.ndjson"
        (args.out / name).write_text(real.to_ndjson())
        artifacts.append(name)
        counts.append({"rep": r, "events": len(real), "censored": real.censored})
    _dump_json(
        {"reps": args.reps, "horizon": horizon, "method": args.method, "counts": counts},
        args.out / "summary.json",
    )
    artifacts.append("summary.json")
    return artifacts


def _cmd_stability(args: argparse.Namespace, spec) -> list[str]:
    payload = dataclasses.asdict(stability_report(spec, args.n))
    print(json.dumps(payload, sort_keys=True))
    _dump_json(payload, args.out / "stability.json")
    return ["stability.json"]


def _cmd_analyze(args: argparse.Namespace, spec) -> list[str]:
    real_a = Realization.from_ndjson(Path(args.events_a).read_text())
    real_b = Realization.from_ndjson(Path(args.events_b).read_text())
    spec_b = _load_spec(args.model2, args.grid_n) if args.model2 else spec
    breakdown = pp_distance(
        real_a, real_b, spec, spec_b, matching=args.matching, eps=args.eps
    )
    payload = {
        "simultaneous_location_term": breakdown.simultaneous_location_term,
        "simultaneous_mark_term": breakdown.simultaneous_mark_term,
        "nonsimultaneous_term": breakdown.nonsimultaneous_term,
        "total": breakdown.total,
        "matching": args.matching,
    }
    if args.matching == "time-tolerance":
        payload["mode_note"] = "best-effort extension for uncoupled realizations"
    print(json.dumps(payload, sort_keys=True))
    _dump_json(payload, args.out / "distance.json")
    return ["distance.json"]


def _cmd_converge(args: argparse.Namespace, spec) -> list[str]:
    stream = SplitStream(args.seed)
    modes = ["annealed", "quenched"] if args.mode == "both" else [args.mode]
    rows = []
    summary: dict = {}
    # one averaged model per d, shared by both modes with its gate grids
    avgs = average_models(spec, (build_partition(spec.domain, d, args.scheme)
                                 for d in args.d_list))
    for mode in modes:
        for di, (d, avg) in enumerate(zip(args.d_list, avgs)):
            frozen = None
            if mode == "quenched" and args.freeze_graph:
                frozen = sample_quenched_graph(avg, stream.child(90, di))

            def one(rep: int):
                pair = simulate_coupled(
                    avg, args.horizon, mode=mode,
                    rng=stream.child(0 if mode == "annealed" else 1, di, rep),
                    quenched_graph=frozen,
                )
                dist = pp_distance(pair.n, pair.nd, spec, pair.avg.spec).total
                return dist, pair.shared_fraction, pair.one_event_per_cell

            results = _pmap(lambda idx: [one(i) for i in idx], args.reps, args.threads)
            for rep, (dist, frac, occ) in enumerate(results):
                rows.append((d, mode, rep, dist, frac, occ))
            summary.setdefault(mode, {})[str(d)] = {
                "mean_distance": float(np.mean([r[0] for r in results])),
                "one_event_per_cell_fraction": float(np.mean([r[2] for r in results])),
            }
    lines = ["d,mode,rep,distance,shared_fraction,one_event_per_cell"]
    for d, mode, rep, dist, frac, occ in rows:
        lines.append(f"{d},{mode},{rep},{dist!r},{frac!r},{str(occ).lower()}")
    (args.out / "converge.csv").write_text("\n".join(lines) + "\n")
    _dump_json(summary, args.out / "summary.json")
    return ["converge.csv", "summary.json"]


def _cmd_limits(args: argparse.Namespace, spec) -> list[str]:
    stream = SplitStream(args.seed)
    box = _parse_box(args.set, spec.domain.dim)
    if args.subcommand == "flln":
        report = flln_experiment(
            spec, box, args.horizon, args.reps, stream, threads=args.threads,
            threshold_median=args.threshold_median,
        )
        key = "sup_statistic"
    elif args.subcommand == "fclt":
        report = fclt_experiment(
            spec, box, args.horizon, args.reps, stream,
            burn_in=args.burn_in, threads=args.threads,
        )
        key = "normalized"
    else:
        report = divergence_experiment(
            spec, box, args.t_list, args.reps, stream,
            cap=args.cap, threads=args.threads,
        )
        key = None
    if key is not None:
        lines = [f"rep,{key}"] + [f"{i},{v!r}" for i, v in enumerate(report.samples[key])]
    else:
        lines = ["T,rep,rate"]
        for t in args.t_list:
            for i, v in enumerate(report.samples[f"rate_T{t:g}"]):
                lines.append(f"{t:g},{i},{v!r}")
    (args.out / "samples.csv").write_text("\n".join(lines) + "\n")
    _dump_json(report.to_dict(), args.out / "summary.json")
    print(json.dumps(report.summary, sort_keys=True, default=_json_default))
    return ["samples.csv", "summary.json"]


def _cmd_transform(args: argparse.Namespace, spec) -> list[str]:
    fspec = args.f
    if fspec.startswith("const:"):
        f = TestFunction.constant(_number(fspec.split(":", 1)[1], float, "--f const"))
    elif fspec.startswith("grid:"):
        vals = np.loadtxt(fspec.split(":", 1)[1], delimiter=",").ravel()
        f = TestFunction.from_values(vals)
    else:
        raise InvalidArgumentError("--f must be const:<z> or grid:<file>")
    eta, log = fixed_point(spec, f, args.t, tol=args.tol, n_u=args.n_u)
    lq = laplace_of_Q(eta, spec, args.t)
    payload = {
        "L_Q": lq,
        "grid_n": eta.grid_n,
        "iterations": log.iterations,
        "envelope_ok": log.envelope_ok,
        "converged": log.converged,
        "oracle_estimate": None,
        "oracle_se": None,
    }
    if args.oracle:  # at the node of largest baseline mass, at u = t
        nodes, weights = spec.std_grid
        i_star = int(np.argmax(spec.baseline_on(nodes) * weights))
        est = mc_transform_oracle(
            spec, nodes[i_star], f, args.t, args.oracle, SplitStream(args.seed).child(7)
        )
        payload.update(oracle_estimate=est.estimate, oracle_se=est.stderr,
                       eta_at_oracle_point=float(eta.values[i_star, -1]))
    print(json.dumps(payload, sort_keys=True))
    _dump_json(payload, args.out / "transform.json")
    return ["transform.json"]


# ---------------------------------------------------------------------------


def run(args: argparse.Namespace) -> int:
    """Run the parsed command line, its seed and output directory resolved."""
    t0 = time.time()
    try:
        for key, kind, flag in (("d_list", int, "--d-list"), ("t_list", float, "--t-list")):
            if hasattr(args, key):
                setattr(args, key, [_number(v, kind, flag) for v in getattr(args, key).split(",")])
        _check_ranges(args)
        args.out.mkdir(parents=True, exist_ok=True)
        spec = _load_spec(args.model, args.grid_n)
        handler = {
            "simulate": _cmd_simulate,
            "stability": _cmd_stability,
            "analyze": _cmd_analyze,
            "converge": _cmd_converge,
            "flln": _cmd_limits,
            "fclt": _cmd_limits,
            "diverge": _cmd_limits,
            "transform": _cmd_transform,
        }[args.subcommand]
        artifacts = handler(args, spec)
        _write_manifest(args, spec, artifacts, t0)
        return 0
    except (UnstableModelError, PrelimitUnstableError, OutdegreeConditionError) as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return _UNSTABLE_EXIT
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return _IO_EXIT
    except (GraphonHawkesError, ValueError, KeyError) as exc:
        code = getattr(exc, "code", "invalid")
        print(f"error[{code}]: {exc}", file=sys.stderr)
        return _VALIDATION_EXIT


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process on first use; `parse_args`
    leaves it unchanged and returns a fresh namespace on each call."""
    p = argparse.ArgumentParser(
        prog="graphon-hawkes",
        description="Simulation and numerical analysis of spatiotemporal "
        "self-exciting processes with graphon connectivity.",
    )
    p.add_argument("--model", required=True, help="YAML model configuration")
    p.add_argument("--seed", type=int, default=None,
                   help="master seed (default: $GRAPHON_HAWKES_SEED or 0)")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--threads", type=int, default=1,
                   help="threads, each running a contiguous chunk of the replications "
                   "(same bytes for any count)")
    p.add_argument("--grid-n", type=int, default=None, help="override standard grid size")
    sub = p.add_subparsers(dest="subcommand", required=True)

    s = sub.add_parser("simulate", help="simulate realizations to NDJSON")
    s.add_argument("--horizon", type=float, required=True)
    s.add_argument("--reps", type=int, default=1)
    s.add_argument("--lifetimes", choices=["on", "off"], default="off")
    s.add_argument("--method", choices=["cluster", "thinning"], default="cluster")
    s.add_argument("--history", default=None, help="NDJSON initial history (thinning)")
    s.add_argument("--cap", type=int, default=DEFAULT_EVENT_CAP)

    s = sub.add_parser("stability", help="spectral diagnostics as JSON")
    s.add_argument("--n", type=int, default=256,
                   help="operator grid size for a model with no exact form; a model "
                   "with cells reports on its cell grid and a 1-d bilinear graphon "
                   "on its hats, as the output's form field says")

    s = sub.add_parser("analyze", help="distance between two NDJSON realizations")
    s.add_argument("events_a")
    s.add_argument("events_b")
    s.add_argument("--model2", default=None, help="model config for the second realization")
    s.add_argument("--matching", choices=["shared-ids", "time-tolerance"],
                   default="shared-ids")
    s.add_argument("--eps", type=float, default=1e-9)

    s = sub.add_parser("converge", help="coupled prelimit convergence scan")
    s.add_argument("--d-list", required=True, help="comma-separated cell counts")
    s.add_argument("--mode", choices=["annealed", "quenched", "both"], default="annealed")
    s.add_argument("--reps", type=int, default=100)
    s.add_argument("--horizon", type=float, default=1.0)
    s.add_argument("--scheme", choices=["uniform-dyadic", "per-axis-counts"],
                   default="per-axis-counts")
    s.add_argument("--freeze-graph", action="store_true",
                   help="sample the quenched graph once per d instead of per rep")

    s = sub.add_parser("flln", help="law-of-large-numbers experiment")
    s.add_argument("--horizon", type=float, required=True)
    s.add_argument("--reps", type=int, default=100)
    s.add_argument("--set", default=None, help="interval mask a,b")
    s.add_argument("--threshold-median", type=float, default=None, dest="threshold_median")

    s = sub.add_parser("fclt", help="central-limit experiment")
    s.add_argument("--horizon", type=float, required=True)
    s.add_argument("--burn-in", type=float, default=0.0, dest="burn_in")
    s.add_argument("--reps", type=int, default=100)
    s.add_argument("--set", default=None)

    s = sub.add_parser("diverge", help="supercritical growth experiment")
    s.add_argument("--t-list", required=True, help="comma-separated horizons")
    s.add_argument("--reps", type=int, default=50)
    s.add_argument("--set", default=None)
    s.add_argument("--cap", type=int, default=300_000)

    s = sub.add_parser("transform", help="Laplace-functional fixed point")
    s.add_argument("--f", required=True, help="const:<z> or grid:<csv>")
    s.add_argument("--t", type=float, required=True)
    s.add_argument("--tol", type=float, default=1e-10)
    s.add_argument("--n-u", type=int, default=257, dest="n_u")
    s.add_argument("--oracle", type=int, default=0, help="MC oracle sample count")
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.seed is None:
        args.seed = int(os.environ.get("GRAPHON_HAWKES_SEED", "0"))
    args.out = Path(args.out or f"out-{args.subcommand}")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
