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
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .config import load_model, model_digest, spec_config
from .cluster_sim import DEFAULT_EVENT_CAP, simulate_process
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
from .prelimit import build_partition, sample_quenched_graph, simulate_coupled, average_model
from .rng import SplitStream
from .thinning_sim import HistorySnapshot, simulate_thinning
from .transforms import (
    TestFunction,
    fixed_point,
    laplace_of_Q,
    mc_transform_oracle,
)

_VALIDATION_EXIT = 1
_UNSTABLE_EXIT = 2
_IO_EXIT = 3


@dataclass
class RunConfig:
    subcommand: str
    model_path: str | None
    seed: int
    out_dir: Path
    threads: int = 1
    grid_n: int | None = None
    options: dict = field(default_factory=dict)


def _json_default(o):
    if isinstance(o, (np.integer,)):
        return int(o)
    if isinstance(o, (np.floating,)):
        return float(o)
    if isinstance(o, np.ndarray):
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


def _parse_box(text: str | None, dim: int):
    if not text:
        return None
    parts = [_number(v, float, "--set") for v in text.split(",")]
    if len(parts) == 2 and dim == 1:
        return ([parts[0]], [parts[1]])
    if len(parts) == 2 * dim:
        return (parts[:dim], parts[dim:])
    raise InvalidArgumentError(f"--set needs 2*dim={2 * dim} comma-separated numbers")


def _load_spec(cfg: RunConfig):
    spec = load_model(cfg.model_path)
    if cfg.grid_n:
        spec = dataclasses.replace(spec, grid_n=cfg.grid_n)
    report = validate_model(spec)
    if report:
        raise GraphonHawkesError("model validation failed: " + "; ".join(report))
    return spec


def _write_manifest(cfg: RunConfig, spec, artifacts: list[str], t0: float):
    manifest = {
        "subcommand": cfg.subcommand,
        "seed": cfg.seed,
        "threads": cfg.threads,
        "options": {k: v for k, v in sorted(cfg.options.items())},
        "config": spec_config(spec) if spec is not None else None,
        "config_digest": model_digest(spec) if spec is not None else None,
        "versions": {
            "graphon_hawkes": __version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
        "artifacts": sorted(artifacts),
        "wall_time_s": round(time.time() - t0, 3),
    }
    _dump_json(manifest, cfg.out_dir / "manifest.json")


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_simulate(cfg: RunConfig, spec) -> list[str]:
    opt = cfg.options
    reps, horizon = opt["reps"], opt["horizon"]
    with_lt = opt["lifetimes"] == "on"
    stream = SplitStream(cfg.seed)
    artifacts = []

    history = None
    if opt.get("history"):
        hist_real = Realization.from_ndjson(Path(opt["history"]).read_text())
        history = HistorySnapshot.from_realization(hist_real, t_ref=0.0)

    def one(r: int) -> Realization:
        sub = stream.child(r)
        if opt["method"] == "thinning":
            return simulate_thinning(
                spec, horizon, initial=history, rng=sub, with_lifetimes=with_lt,
                cap=opt["cap"],
            )
        return simulate_process(
            spec, horizon, sub, with_lifetimes=with_lt, cap=opt["cap"]
        )

    reals = _pmap(one, reps, cfg.threads)

    counts = []
    for r, real in enumerate(reals):
        name = f"events_r{r:04d}.ndjson"
        (cfg.out_dir / name).write_text(real.to_ndjson())
        artifacts.append(name)
        counts.append({"rep": r, "events": len(real), "censored": real.censored})
    _dump_json(
        {"reps": reps, "horizon": horizon, "method": opt["method"], "counts": counts},
        cfg.out_dir / "summary.json",
    )
    artifacts.append("summary.json")
    return artifacts


def _cmd_stability(cfg: RunConfig, spec) -> list[str]:
    payload = dataclasses.asdict(stability_report(spec, cfg.options["n"]))
    print(json.dumps(payload, sort_keys=True))
    _dump_json(payload, cfg.out_dir / "stability.json")
    return ["stability.json"]


def _cmd_analyze(cfg: RunConfig, spec) -> list[str]:
    opt = cfg.options
    real_a = Realization.from_ndjson(Path(opt["events_a"]).read_text())
    real_b = Realization.from_ndjson(Path(opt["events_b"]).read_text())
    spec_b = load_model(opt["model2"]) if opt.get("model2") else spec
    breakdown = pp_distance(
        real_a, real_b, spec, spec_b, matching=opt["matching"], eps=opt["eps"]
    )
    payload = {
        "simultaneous_location_term": breakdown.simultaneous_location_term,
        "simultaneous_mark_term": breakdown.simultaneous_mark_term,
        "nonsimultaneous_term": breakdown.nonsimultaneous_term,
        "total": breakdown.total,
        "matching": opt["matching"],
    }
    if opt["matching"] == "time-tolerance":
        payload["mode_note"] = "best-effort extension for uncoupled realizations"
    print(json.dumps(payload, sort_keys=True))
    _dump_json(payload, cfg.out_dir / "distance.json")
    return ["distance.json"]


def _cmd_converge(cfg: RunConfig, spec) -> list[str]:
    opt = cfg.options
    stream = SplitStream(cfg.seed)
    modes = ["annealed", "quenched"] if opt["mode"] == "both" else [opt["mode"]]
    rows = []
    summary: dict = {}
    # one averaged model per d, shared by both modes with its gate grids
    avgs = [average_model(spec, build_partition(spec.domain, d, opt["scheme"]))
            for d in opt["d_list"]]
    for mode in modes:
        for di, (d, avg) in enumerate(zip(opt["d_list"], avgs)):
            frozen = None
            if mode == "quenched" and opt["freeze_graph"]:
                frozen = sample_quenched_graph(avg, stream.child(90, di))

            def one(rep: int):
                pair = simulate_coupled(
                    avg, opt["horizon"], mode=mode,
                    rng=stream.child(0 if mode == "annealed" else 1, di, rep),
                    quenched_graph=frozen,
                )
                dist = pp_distance(pair.n, pair.nd, spec, pair.avg.spec).total
                return dist, pair.shared_fraction, pair.one_event_per_cell

            results = _pmap(one, opt["reps"], cfg.threads)
            for rep, (dist, frac, occ) in enumerate(results):
                rows.append((d, mode, rep, dist, frac, occ))
            summary.setdefault(mode, {})[str(d)] = {
                "mean_distance": float(np.mean([r[0] for r in results])),
                "one_event_per_cell_fraction": float(np.mean([r[2] for r in results])),
            }
    lines = ["d,mode,rep,distance,shared_fraction,one_event_per_cell"]
    for d, mode, rep, dist, frac, occ in rows:
        lines.append(f"{d},{mode},{rep},{dist!r},{frac!r},{str(occ).lower()}")
    (cfg.out_dir / "converge.csv").write_text("\n".join(lines) + "\n")
    _dump_json(summary, cfg.out_dir / "summary.json")
    return ["converge.csv", "summary.json"]


def _cmd_limits(cfg: RunConfig, spec) -> list[str]:
    opt = cfg.options
    stream = SplitStream(cfg.seed)
    box = _parse_box(opt.get("set"), spec.domain.dim)
    if cfg.subcommand == "flln":
        report = flln_experiment(
            spec, box, opt["horizon"], opt["reps"], stream, threads=cfg.threads,
            threshold_median=opt.get("threshold_median"),
        )
        key = "sup_statistic"
    elif cfg.subcommand == "fclt":
        report = fclt_experiment(
            spec, box, opt["horizon"], opt["reps"], stream,
            burn_in=opt["burn_in"], threads=cfg.threads,
        )
        key = "normalized"
    else:
        report = divergence_experiment(
            spec, box, opt["t_list"], opt["reps"], stream,
            cap=opt["cap"], threads=cfg.threads,
        )
        key = None
    if key is not None:
        lines = [f"rep,{key}"] + [
            f"{i},{v!r}" for i, v in enumerate(report.samples[key])
        ]
    else:
        lines = ["T,rep,rate"]
        for t in opt["t_list"]:
            for i, v in enumerate(report.samples[f"rate_T{t:g}"]):
                lines.append(f"{t:g},{i},{v!r}")
    (cfg.out_dir / "samples.csv").write_text("\n".join(lines) + "\n")
    _dump_json(report.to_dict(), cfg.out_dir / "summary.json")
    print(json.dumps(report.summary, sort_keys=True, default=_json_default))
    return ["samples.csv", "summary.json"]


def _cmd_transform(cfg: RunConfig, spec) -> list[str]:
    opt = cfg.options
    fspec = opt["f"]
    if fspec.startswith("const:"):
        f = TestFunction.constant(_number(fspec.split(":", 1)[1], float, "--f const"))
    elif fspec.startswith("grid:"):
        vals = np.loadtxt(fspec.split(":", 1)[1], delimiter=",").ravel()
        f = TestFunction.from_values(vals)
    else:
        raise InvalidArgumentError("--f must be const:<z> or grid:<file>")
    eta, log = fixed_point(spec, f, opt["t"], tol=opt["tol"], n_u=opt["n_u"])
    lq = laplace_of_Q(eta, spec, opt["t"])
    payload = {
        "L_Q": lq,
        "grid_n": eta.grid_n,
        "iterations": log.iterations,
        "envelope_ok": log.envelope_ok,
        "converged": log.converged,
        "oracle_estimate": None,
        "oracle_se": None,
    }
    if opt["oracle"]:  # at the node of largest baseline mass, at u = t
        nodes, weights = spec.std_grid
        i_star = int(np.argmax(spec.baseline_on(nodes) * weights))
        est = mc_transform_oracle(
            spec, nodes[i_star], f, opt["t"], opt["oracle"], SplitStream(cfg.seed).child(7)
        )
        payload.update(oracle_estimate=est.estimate, oracle_se=est.stderr,
                       eta_at_oracle_point=float(eta.values[i_star, -1]))
    print(json.dumps(payload, sort_keys=True))
    _dump_json(payload, cfg.out_dir / "transform.json")
    return ["transform.json"]


# ---------------------------------------------------------------------------


def run(cfg: RunConfig) -> int:
    t0 = time.time()
    spec = None
    try:
        for key, kind, flag in (("d_list", int, "--d-list"), ("t_list", float, "--t-list")):
            if key in cfg.options:
                cfg.options[key] = [_number(v, kind, flag) for v in cfg.options[key].split(",")]
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        spec = _load_spec(cfg)
        handler = {
            "simulate": _cmd_simulate,
            "stability": _cmd_stability,
            "analyze": _cmd_analyze,
            "converge": _cmd_converge,
            "flln": _cmd_limits,
            "fclt": _cmd_limits,
            "diverge": _cmd_limits,
            "transform": _cmd_transform,
        }[cfg.subcommand]
        artifacts = handler(cfg, spec)
        _write_manifest(cfg, spec, artifacts, t0)
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


def _build_parser() -> argparse.ArgumentParser:
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
                   help="threads that run replications in parallel (same bytes for any count)")
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
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("GRAPHON_HAWKES_SEED", "0"))
    out = Path(args.out) if args.out else Path(f"out-{args.subcommand}")
    options = {
        k: v
        for k, v in vars(args).items()
        if k not in {"model", "seed", "out", "threads", "grid_n", "subcommand"}
    }
    cfg = RunConfig(
        subcommand=args.subcommand,
        model_path=args.model,
        seed=seed,
        out_dir=out,
        threads=args.threads,
        grid_n=args.grid_n,
        options=options,
    )
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
