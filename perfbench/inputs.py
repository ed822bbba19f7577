"""Seeded inputs and invocation plans for the three benchmark workloads.

Every input the CLI sees is written here from the workload seed: the model
YAMLs and the initial-history NDJSON.  The same seed always gives the same
bytes.  Random step and grid graphons are rescaled to a fixed spectral
radius, so the work per run varies little with the seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

CELLS = 16
RHO_TARGET = 0.55
HISTORY_EVENTS = 1500


def step_matrix(seed: int, stream: int) -> np.ndarray:
    """Random positive 16x16 cell matrix whose cell operator has radius RHO_TARGET.

    On [0, 1] a piecewise-constant graphon with cell values V acts on
    cell-constant functions as the matrix V / 16.
    """
    raw = np.random.default_rng([seed, stream]).uniform(0.2, 1.0, (CELLS, CELLS))
    rho = float(np.max(np.abs(np.linalg.eigvals(raw / CELLS))))
    return raw * (RHO_TARGET / rho)


def _grid_graphon(values: np.ndarray, interp: str) -> dict:
    return {
        "family": "grid",
        "values": values.tolist(),
        "axis_counts": [CELLS],
        "interp": interp,
    }


def _model(graphon: dict, excitation: dict, nonlinearity: dict | None = None) -> dict:
    return {
        "domain": {"lower": [0.0], "upper": [1.0]},
        "baseline": {"family": "constant", "value": 1.0},
        "graphon": graphon,
        "excitation": excitation,
        "nonlinearity": nonlinearity or {"family": "identity"},
        "grid_n": 512,
    }


EXPONENTIAL = {"family": "exponential", "rate": 1.0, "l1": 1.0}
POWER_LAW = {"family": "power-law", "exponent": 2.5, "cutoff": 1.0, "l1": 1.0}


def model_configs(seed: int) -> dict[str, dict]:
    """The five benchmark models as config mappings."""
    step = step_matrix(seed, 1)
    return {
        "step16": _model(_grid_graphon(step, "pw-constant"), EXPONENTIAL),
        "const": _model({"family": "constant", "value": 0.5}, EXPONENTIAL),
        "rank1": _model(
            {"family": "rank-one", "coeff": 1.5, "profile": {"family": "identity"}},
            EXPONENTIAL,
        ),
        "smooth16": _model(_grid_graphon(step_matrix(seed, 2), "bilinear"), EXPONENTIAL),
        "nl-powerlaw": _model(
            _grid_graphon(step, "pw-constant"),
            POWER_LAW,
            {"family": "clipped-linear", "cap": 3.0},
        ),
    }


def history_ndjson(seed: int, events: int = HISTORY_EVENTS) -> str:
    """Unmarked immigrant history at rate 2: uniform times on [-events/2, 0),
    uniform locations."""
    gen = np.random.default_rng([seed, 3])
    times = np.sort(-0.5 * events * gen.random(events))
    locs = gen.random(events)
    lines = [
        json.dumps(
            {"id": i, "t": float(t), "x": [float(x)], "gen": 0, "parent": None,
             "xi": 1.0, "lifetime": None},
            separators=(",", ":"),
        )
        for i, (t, x) in enumerate(zip(times, locs))
    ]
    return "\n".join(lines) + "\n"


def write_inputs(seed: int, directory: Path, tiny: bool = False) -> dict[str, Path]:
    """Write the model YAMLs and the history file; return name -> path.
    `tiny` shortens the history tenfold."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, cfg in model_configs(seed).items():
        path = directory / f"{name}.yaml"
        path.write_text(yaml.safe_dump(cfg, sort_keys=True))
        paths[name] = path
    paths["history"] = directory / "history.ndjson"
    paths["history"].write_text(
        history_ndjson(seed, HISTORY_EVENTS // 10 if tiny else HISTORY_EVENTS))
    return paths


# ---------------------------------------------------------------------------
# Invocation plans


@dataclass(frozen=True)
class Invocation:
    """One CLI call on `model`; `metric` names its wall time."""

    metric: str
    model: str
    args: tuple[str, ...]


def plan(workload: str, tiny: bool = False) -> list[Invocation]:
    """The invocations of one pass of `workload`; `tiny` shrinks every size."""
    if workload == "sim-experiments":
        sim_t, flln_t, fclt_t = (30, 30, 30) if tiny else (600, 200, 200)
        return [
            Invocation("simulate_s", "step16",
                       ("simulate", "--reps", "2", "--horizon", f"{sim_t:g}")),
            Invocation("flln_s", "step16",
                       ("flln", "--horizon", f"{flln_t:g}", "--reps", "4" if tiny else "10")),
            Invocation("fclt_s", "const",
                       ("fclt", "--horizon", f"{fclt_t:g}", "--burn-in", "20",
                        "--reps", "8" if tiny else "20")),
            Invocation("converge_s", "rank1",
                       ("converge", "--d-list", "4,16,64", "--mode", "both",
                        "--reps", "6" if tiny else "10", "--horizon", "5")),
        ]
    if workload == "operator-analysis":
        n = "128" if tiny else "512"
        return [
            Invocation("stability_step_s", "step16", ("stability", "--n", n)),
            Invocation("stability_smooth_s", "smooth16", ("stability", "--n", n)),
            Invocation("transform_s", "step16",
                       ("transform", "--f", "const:1", "--t", "4",
                        "--n-u", "65" if tiny else "513",
                        "--oracle", "400" if tiny else "4000")),
        ]
    if workload == "thinning-history":
        # Eight replications keep the seed-to-seed spread of a cost that is
        # quadratic in the event count near that of the other invocations.
        thin_t, hist_t = (60, 20) if tiny else (300, 200)
        return [
            Invocation("thinning_s", "const",
                       ("simulate", "--method", "thinning", "--reps", "2" if tiny else "8",
                        "--horizon", f"{thin_t:g}")),
            Invocation("thinning_hist_s", "nl-powerlaw",
                       ("simulate", "--method", "thinning", "--horizon", f"{hist_t:g}",
                        "--history", "{history}")),
        ]
    raise KeyError(workload)


WORKLOADS = ("sim-experiments", "operator-analysis", "thinning-history")
