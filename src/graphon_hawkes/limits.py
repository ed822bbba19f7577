"""Desk-scale experiment harnesses for the long-run limit theorems.

Each harness returns an `ExperimentReport` whose samples are reproducible
from the model digest plus the seed: replications draw from per-index
substreams, and aggregation is a fixed-order reduction, so thread counts
never change the output.  A thread's chunk of replications (`_pmap`) grows
in one lockstep branching in `flln` and `fclt`; `diverge` grows one per
call, since its replications run to the cap by design.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .cluster_sim import simulate_process, simulate_processes
from .config import model_digest
from .errors import OutdegreeConditionError
from .events import box_mask
from .model import ModelSpec
from .operators import (
    box_share,
    discretize_kernel,
    fclt_sigma,
    outdegree_norm,
    require_stable,
    stationary_rate,
)
from .rng import SplitStream


@dataclass(eq=False)
class ExperimentReport:
    name: str
    model_digest: str
    params: dict
    samples: dict[str, list]
    summary: dict
    passed: bool | None = None
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        """Every field but the samples."""
        return {k: v for k, v in vars(self).items() if k != "samples"}


def _pmap(fn, count: int, threads: int) -> list:
    """`fn` over min(threads, count) contiguous chunks of range(count), one
    thread each: a chunk (a range) gives a list, and the lists are joined."""
    chunks = max(min(threads, count), 1)
    parts = [range(count * c // chunks, count * (c + 1) // chunks) for c in range(chunks)]
    if chunks == 1:
        return fn(parts[0])
    with ThreadPoolExecutor(max_workers=chunks) as pool:
        return [result for part in pool.map(fn, parts) for result in part]


def _operator_grid(spec: ModelSpec, n_op: int):
    """The gate of a model with cells (`ModelSpec.form`), else the n_op-grid."""
    return spec.gate if spec.form.kind == "cells" else discretize_kernel(spec, n_op)


def _operator_setup(spec: ModelSpec, box, grid):
    """Verdict, stationary rate, the box's share of each grid cell, lam_bar(A)."""
    est = require_stable(grid)
    rate = stationary_rate(grid, spec.baseline_on(grid.nodes))
    share = box_share(spec.domain, grid.n, box)
    lam_a = float(np.sum(rate.values * (share * grid.weights)))
    return est, rate, share, lam_a


def _summary(samples: np.ndarray) -> dict:
    if samples.size == 0:
        return {"count": 0}
    qs = np.quantile(samples, [0.05, 0.25, 0.5, 0.75, 0.95])
    return {
        "count": int(samples.size),
        "mean": float(samples.mean()),
        "sd": float(samples.std(ddof=1)) if samples.size > 1 else 0.0,
        "median": float(qs[2]),
        "quantiles": {"q05": float(qs[0]), "q25": float(qs[1]), "q50": float(qs[2]),
                      "q75": float(qs[3]), "q95": float(qs[4])},
    }


def flln_sup_statistic(times_in_a: np.ndarray, horizon: float, lam_a: float) -> float:
    """sup_v |N_{Tv}(A)/T - v lam_bar(A)|, evaluated exactly at event times."""
    t = np.sort(np.asarray(times_in_a, float))
    k = t.shape[0]
    vend = abs(k / horizon - lam_a)
    if k == 0:
        return max(vend, 0.0)
    vs = t / horizon
    counts = np.arange(1, k + 1)
    at_jump = np.abs(counts / horizon - vs * lam_a)
    before_jump = np.abs((counts - 1) / horizon - vs * lam_a)
    return float(max(at_jump.max(), before_jump.max(), vend))


def flln_experiment(
    spec: ModelSpec,
    box,
    horizon: float,
    reps: int,
    stream: SplitStream,
    threads: int = 1,
    n_op: int = 256,
    threshold_median: float | None = None,
) -> ExperimentReport:
    """FLLN check: sup-statistic samples against the stationary rate."""
    est, _, _, lam_a = _operator_setup(spec, box, _operator_grid(spec, n_op))

    def one(real) -> float:
        sel = box_mask(real.locations, box)
        return flln_sup_statistic(real.times[sel], horizon, lam_a)

    def chunk(idx: range) -> list[float]:
        return [one(real) for real in simulate_processes(
            spec, horizon, [stream.child(i) for i in idx], with_lifetimes=False)]

    samples = np.asarray(_pmap(chunk, reps, threads))
    summary = _summary(samples)
    summary["lam_bar_A"] = lam_a
    summary["rho"] = est.rho
    passed = None
    if threshold_median is not None:
        passed = bool(summary["median"] <= threshold_median)
    return ExperimentReport(
        name="flln",
        model_digest=model_digest(spec),
        params={"T": horizon, "A": _box_param(box), "reps": reps, "seed": stream.describe()},
        samples={"sup_statistic": samples.tolist()},
        summary=summary,
        passed=passed,
    )


def _box_param(box):
    return None if box is None else [np.atleast_1d(np.asarray(b, float)).tolist() for b in box]


def divergence_experiment(
    spec: ModelSpec,
    box,
    t_list,
    reps: int,
    stream: SplitStream,
    cap: int = 300_000,
    threads: int = 1,
) -> ExperimentReport:
    """Supercritical growth scan: N_T(A)/T per horizon, censored at the cap.

    Each horizon T in `t_list` runs `reps` replications from an empty
    history; `samples["rate_T<T>"]` holds their N_T(A)/T and
    `summary["per_T"][T]` their `mean_rate` and `censored_fraction`.

    A replication that reaches the cap stops there and counts exactly `cap`
    events, fewer than the process would have.  Its N_T(A)/T is then a lower
    bound, and so is `mean_rate` whenever `censored_fraction` > 0.

    `summary["strictly_increasing"]` says whether `mean_rate` rises along
    `t_list`.  It is not a regime verdict: from an empty history E[N_T]/T
    also rises in the stable regime (towards lam_bar(A), with an O(1/T)
    bias), and censoring at the cap can hide growth in the unstable one.
    """
    samples: dict[str, list] = {}
    summary: dict = {"per_T": {}}
    notes: list[str] = []
    for ti, horizon in enumerate(t_list):
        def one(i: int):
            real = simulate_process(spec, horizon, stream.child(ti, i),
                                    with_lifetimes=False, cap=cap)
            sel = box_mask(real.locations, box)
            n_a = int(np.count_nonzero(real.times[sel] <= horizon))
            return n_a / horizon, real.censored

        rows = _pmap(lambda idx: [one(i) for i in idx], reps, threads)
        vals = np.asarray([r[0] for r in rows])
        cens = np.asarray([r[1] for r in rows])
        samples[f"rate_T{horizon:g}"] = vals.tolist()
        summary["per_T"][f"{horizon:g}"] = {
            "mean_rate": float(vals.mean()),
            "censored_fraction": float(cens.mean()),
        }
        if cens.all():
            notes.append(f"all-censored at T={horizon:g}")
    means = [summary["per_T"][f"{t:g}"]["mean_rate"] for t in t_list]
    summary["strictly_increasing"] = bool(
        all(b > a for a, b in zip(means, means[1:]))
    )
    return ExperimentReport(
        name="diverge",
        model_digest=model_digest(spec),
        params={"T_list": [float(t) for t in t_list], "A": _box_param(box),
                "reps": reps, "cap": cap, "seed": stream.describe()},
        samples=samples,
        summary=summary,
        notes=notes,
    )


def _ks_normal(samples: np.ndarray, sigma: float) -> tuple[float, float]:
    """Two-sided one-sample KS test of `samples` against N(0, sigma^2): (D, p)."""
    x = np.sort(samples)
    n = x.size
    cdf = np.array([0.5 * math.erfc(-v / (sigma * math.sqrt(2.0))) for v in x])
    d = float(max((np.arange(1, n + 1) / n - cdf).max(), (cdf - np.arange(n) / n).max()))
    return d, _kolmogorov_sf(n, d)


def _kolmogorov_sf(n: int, d: float) -> float:
    """P(D_n >= d) for the two-sided statistic of n samples under the null."""
    lf = np.array([math.lgamma(g + 1.0) for g in range(n + 1)])  # log g!
    if n * d * d >= 4.0 or d >= 0.5:  # 2 P(D_n^+ >= d), Birnbaum-Tingey sum
        j = np.flatnonzero(1.0 - d - np.arange(n + 1) / n > 0)  # none when d >= 1
        t = (lf[n] - lf[j] - lf[n - j] + (n - j) * np.log(1.0 - d - j / n)
             + (j - 1) * np.log(d + j / n))
        top = t.max(initial=-math.inf)
        return min(1.0, 2.0 * d * math.exp(top) * float(np.exp(t - top).sum()))
    k = math.ceil(n * d)  # 1 - K_n(d) with the Durbin matrix H, K_n = n!/n^n (H^n)_kk
    m, h = 2 * k - 1, k - n * d
    w = np.exp(-lf[: m + 1])  # 1/g!
    hw = w[1:] * h ** np.arange(1, m + 1)  # h^g/g!, g = 1..m
    g = np.subtract.outer(np.arange(m), np.arange(m)) + 1
    a = np.where(g >= 0, w[np.clip(g, 0, m)], 0.0)
    a[:, 0] -= hw
    a[-1, :] -= hw[::-1]
    a[-1, 0] += max(2.0 * h - 1.0, 0.0) ** m * w[m]
    q, eq = a, 0  # H^n = q 10^eq, squaring along the bits of n
    for bit in bin(n)[3:]:
        q, eq = q @ q, 2 * eq
        if bit == "1":
            q = q @ a
        if q.max() > 1e140:
            q, eq = q * 1e-140, eq + 140
    kn = float(q[k - 1, k - 1])
    for i in range(1, n + 1):  # times n!/n^n, one factor i/n at a time
        kn = kn * i / n
        if 0.0 < kn < 1e-140:
            kn, eq = kn * 1e140, eq - 140
    return min(1.0, max(0.0, 1.0 - kn * 10.0 ** eq))


def fclt_experiment(
    spec: ModelSpec,
    box,
    horizon: float,
    reps: int,
    stream: SplitStream,
    burn_in: float = 0.0,
    threads: int = 1,
    n_op: int = 256,
) -> ExperimentReport:
    """FCLT check: sqrt(T)-normalized window counts against N(0, sigma_A^2),
    a KS test at p > 0.001.

    Requires the outdegree condition |h|_1 sup_y int W(x,y) dx < 1.
    Stationarity is approximated by discarding [0, burn_in] and counting on
    (burn_in, burn_in + T].  sigma_A and the outdegree are computed on one
    grid (`_operator_grid`): sigma_A is exact on a model with cells and
    extrapolated from the n_op-grid otherwise.

    The p-value is P(D_n >= D) under the exact two-sided Kolmogorov law, split
    as Simard & L'Ecuyer (J. Stat. Softw. 39(11), 2011) do for n <= 140: where
    n D^2 < 4 and D < 1/2, 1 - K_n(D) by the Durbin matrix power of Marsaglia,
    Tsang & Wang (J. Stat. Softw. 8(18), 2003); else twice the one-sided
    Smirnov tail (Birnbaum-Tingey sum), exact for D >= 1/2 and within 3e-11
    of p below.  The test is skipped (`passed` None, no `ks_*` field) for
    fewer than 2 replications or sigma_A = 0, a box of zero measure.
    """
    grid = _operator_grid(spec, n_op)
    deg = outdegree_norm(spec, grid.n)
    if deg >= 1.0:
        raise OutdegreeConditionError(
            f"|h|_1 sup-outdegree = {deg:.4f} >= 1; FCLT assumptions fail"
        )
    est, rate, share, lam_a = _operator_setup(spec, box, grid)
    sigma = fclt_sigma(grid, rate, share)
    total_t = burn_in + horizon

    def one(real) -> float:
        sel = (real.times > burn_in) & (real.times <= total_t) & box_mask(real.locations, box)
        count = int(np.count_nonzero(sel))
        return math.sqrt(horizon) * (count / horizon - lam_a)

    def chunk(idx: range) -> list[float]:
        return [one(real) for real in simulate_processes(
            spec, total_t, [stream.child(i) for i in idx], with_lifetimes=False)]

    samples = np.asarray(_pmap(chunk, reps, threads))
    summary = _summary(samples)
    summary.update(
        {
            "sigma_A": sigma,
            "sigma_label": "exact-piecewise-constant" if spec.form.n else "extrapolated",
            "lam_bar_A": lam_a,
            "outdegree": deg,
            "rho": est.rho,
        }
    )
    passed = None
    notes = []
    if reps < 2:
        notes.append("test skipped: fewer than 2 replications")
    elif sigma == 0.0:
        notes.append("test skipped: sigma_A = 0, the limit law is a point mass")
    else:
        summary["ks_statistic"], summary["ks_pvalue"] = _ks_normal(samples, sigma)
        passed = summary["ks_pvalue"] > 0.001
    return ExperimentReport(
        name="fclt",
        model_digest=model_digest(spec),
        params={"T": horizon, "burn_in": burn_in, "A": _box_param(box),
                "reps": reps, "seed": stream.describe()},
        samples={"normalized": samples.tolist()},
        summary=summary,
        passed=passed,
        notes=notes,
    )
