"""Output checks for every benchmark invocation, against oracles the
benchmark computes itself.

Exact checks compare with small dense linear algebra on the generating
matrices.  Stochastic checks allow four standard errors or more.  Each
check returns a list of failure messages; an empty list means it passed.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from inputs import CELLS, model_configs

SMOOTH_DENSE_N = 96
SMOOTH_RHO_TOL = 1e-4  # midpoint-rule gap between the CLI grid and SMOOTH_DENSE_N


def _bilinear_dense(values: np.ndarray, n: int) -> np.ndarray:
    """Bilinear interpolation of a cell-midpoint table at the n-point midpoint grid."""
    d = values.shape[0]
    mids = (np.arange(d) + 0.5) / d
    nodes = (np.arange(n) + 0.5) / n
    f = np.clip(np.interp(nodes, mids, np.arange(d)), 0, d - 1)
    i0 = f.astype(int)
    i1 = np.minimum(i0 + 1, d - 1)
    t = f - i0
    rows = values[i0] * (1 - t)[:, None] + values[i1] * t[:, None]
    return rows[:, i0] * (1 - t)[None, :] + rows[:, i1] * t[None, :]


def oracles(seed: int) -> dict[str, float]:
    """Reference values for the models generated from `seed`."""
    cfgs = model_configs(seed)
    step = np.asarray(cfgs["step16"]["graphon"]["values"])
    a = step / CELLS
    smooth = np.asarray(cfgs["smooth16"]["graphon"]["values"])
    dense = _bilinear_dense(smooth, SMOOTH_DENSE_N) / SMOOTH_DENSE_N
    return {
        "step_rho": float(np.max(np.abs(np.linalg.eigvals(a)))),
        "step_lam_bar_A": float(np.mean(np.linalg.solve(np.eye(CELLS) - a, np.ones(CELLS)))),
        "smooth_rho": float(np.max(np.abs(np.linalg.eigvals(dense)))),
        "const_lam_bar_A": 2.0,
        "const_sigma_A": 2.0 * math.sqrt(2.0),
    }


def _load(out: Path, name: str) -> dict:
    return json.loads((out / name).read_text())


def _close(label: str, got: float, want: float, tol: float) -> list[str]:
    if abs(got - want) <= tol:
        return []
    return [f"{label}: got {got!r}, want {want!r} within {tol:g}"]


def _simulate(out: Path, _oracle) -> list[str]:
    summary = _load(out, "summary.json")
    fails = []
    for row in summary["counts"]:
        lines = (out / f"events_r{row['rep']:04d}.ndjson").read_text().count("\n")
        if row["censored"]:
            fails.append(f"rep {row['rep']} censored")
        if lines != row["events"]:
            fails.append(f"rep {row['rep']}: {lines} NDJSON lines, summary says {row['events']}")
    return fails


def _thinning_rates(out: Path) -> tuple[list[float], float, list[str]]:
    summary = _load(out, "summary.json")
    horizon = float(summary["horizon"])
    rows = summary["counts"]
    fails = [f"rep {row['rep']} censored" for row in rows if row["censored"]]
    return [row["events"] / horizon for row in rows], horizon, fails


def _thinning(out: Path, _oracle) -> list[str]:
    # E[N_T]/T from an empty history for W=0.5, unit baseline and unit exponential kernel.
    rates, t, fails = _thinning_rates(out)
    want = 2.0 - 2.0 * (1.0 - math.exp(-t / 2.0)) / t
    for rate in rates:
        fails += _close("N_T/T", rate, want, 4.0 * math.sqrt(8.0 / t))
    return fails


def _thinning_hist(out: Path, _oracle) -> list[str]:
    # The rate lies between the unit baseline and the clipping cap of 3.
    rates, t, fails = _thinning_rates(out)
    slack = 4.0 * math.sqrt(3.0 / t)
    for rate in rates:
        if not 1.0 - slack <= rate <= 3.0 + slack:
            fails.append(f"N_T/T = {rate!r} outside [1, 3] widened by {slack:.3f}")
    return fails


def _flln(out: Path, oracle) -> list[str]:
    got = _load(out, "summary.json")["summary"]["lam_bar_A"]
    return _close("flln lam_bar_A", got, oracle["step_lam_bar_A"], 1e-8)


def _fclt(out: Path, oracle) -> list[str]:
    summary = _load(out, "summary.json")["summary"]
    fails = _close("fclt lam_bar_A", summary["lam_bar_A"], oracle["const_lam_bar_A"], 1e-6)
    fails += _close("fclt sigma_A", summary["sigma_A"], oracle["const_sigma_A"], 1e-6)
    if summary["sigma_label"] != "exact-piecewise-constant":
        fails.append(f"fclt sigma_label {summary['sigma_label']!r}")
    return fails


def _converge(out: Path, _oracle) -> list[str]:
    # Per-rep distances are heavy-tailed (mostly 0, sometimes large): at 10-20
    # reps the d=4 vs d=64 gap is only 1-2.5 standard errors, so the check
    # fails only when d=64 exceeds d=4 by more than four standard errors.
    rows = list(csv.DictReader((out / "converge.csv").read_text().splitlines()))
    fails = []
    for mode in ("annealed", "quenched"):
        dist = {d: np.array([float(r["distance"]) for r in rows
                             if r["mode"] == mode and r["d"] == d]) for d in ("4", "64")}
        se = math.sqrt(sum(v.var(ddof=1) / v.size for v in dist.values()))
        coarse, fine = dist["4"].mean(), dist["64"].mean()
        if not fine <= coarse + 4.0 * se:
            fails.append(f"{mode}: mean distance {fine!r} at d=64 exceeds {coarse!r} "
                         f"at d=4 by more than 4 SE ({se!r})")
    return fails


def _stability_step(out: Path, oracle) -> list[str]:
    rep = _load(out, "stability.json")
    rho = oracle["step_rho"]
    fails = _close("step16 rho_power", rep["rho_power"], rho, 1e-6)
    bound = rep["cluster_size_bound"]
    if bound is None or bound < 1.0 / (1.0 - rho):
        fails.append(f"cluster_size_bound {bound!r} below 1/(1-rho) = {1.0 / (1.0 - rho)!r}")
    return fails


def _stability_smooth(out: Path, oracle) -> list[str]:
    rep = _load(out, "stability.json")
    fails = _close("smooth16 rho_power", rep["rho_power"], oracle["smooth_rho"], SMOOTH_RHO_TOL)
    if rep["rho_power"] > rep["op_norm"]:
        fails.append(f"rho_power {rep['rho_power']!r} exceeds op_norm {rep['op_norm']!r}")
    return fails


def _transform(out: Path, _oracle) -> list[str]:
    rep = _load(out, "transform.json")
    fails = [f"{key} is false" for key in ("converged", "envelope_ok") if not rep[key]]
    return fails + _close(
        "oracle vs fixed point", rep["oracle_estimate"], rep["eta_at_oracle_point"],
        4.0 * rep["oracle_se"],
    )


CHECKS = {
    "simulate_s": _simulate,
    "flln_s": _flln,
    "fclt_s": _fclt,
    "converge_s": _converge,
    "stability_step_s": _stability_step,
    "stability_smooth_s": _stability_smooth,
    "transform_s": _transform,
    "thinning_s": _thinning,
    "thinning_hist_s": _thinning_hist,
}


def check(metric: str, out: Path, oracle: dict[str, float]) -> list[str]:
    """Failures of the invocation timed as `metric`, whose artifacts are in `out`."""
    try:
        return CHECKS[metric](out, oracle)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        return [f"unreadable output: {exc!r}"]
