"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances are pinned to the stated values; stochastic checks run at the
stated replication counts with fixed seeds.  Runtime budgets are asserted
with the stated limits.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
import yaml
from scipy import stats
from scipy.linalg import expm

import graphon_hawkes as gh
from graphon_hawkes.cli import main as cli_main
from graphon_hawkes.cluster_sim import simulate_process
from graphon_hawkes.limits import divergence_experiment, fclt_experiment, flln_experiment
from graphon_hawkes.metrics import poincare_check, pp_distance
from graphon_hawkes.model import MarkModel, PairFunction
from graphon_hawkes.operators import (
    cluster_size_bound,
    discretize_kernel,
    fclt_sigma,
    operator_norm_l1,
    spectral_radius,
    stationary_rate,
)
from graphon_hawkes.prelimit import average_model, build_partition, simulate_coupled
from graphon_hawkes.thinning_sim import simulate_thinning
from graphon_hawkes.transforms import (
    TestFunction,
    fixed_point,
    interchange_experiment,
    laplace_of_Q,
    mc_population_transform,
    mc_transform_oracle,
)

LN2 = math.log(2)


def report(number: int, ok: bool, detail: str, started: float, budget_s: float):
    elapsed = time.time() - started
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {status} ({elapsed:6.1f}s / {budget_s:.0f}s budget) {detail}")
    assert elapsed < budget_s, f"criterion {number} exceeded its runtime budget"
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_operator_suite():
    t0 = time.time()
    msgs = []
    ok = True

    spec = gh.constant_model(0.5, grid_n=256)
    grid = discretize_kernel(spec, 256)
    est = spectral_radius(grid, 32)
    sr = stationary_rate(grid, np.ones(256))
    kb = cluster_size_bound(grid)
    checks = [
        abs(operator_norm_l1(grid) - 0.5) <= 1e-6,
        abs(est.rho_power_iteration - 0.5) <= 1e-6,
        abs(min(est.rho_gelfand_sequence) - 0.5) <= 1e-6,
        np.max(np.abs(sr.values - 2.0)) <= 1e-6,
        abs(kb - 2.0) <= 1e-6,
    ]
    ok &= all(checks)
    msgs.append(f"const: |T|={operator_norm_l1(grid):.6f} rho={est.rho_power_iteration:.6f} K={kb:.6f}")

    ro = gh.rank_one_model(1.5, grid_n=256)
    grid2 = discretize_kernel(ro, 256)
    est2 = spectral_radius(grid2, 32)
    sr2 = stationary_rate(grid2, np.ones(256))
    dense_rho = float(np.max(np.abs(np.linalg.eigvals(grid2.action))))
    dense_rate = np.linalg.solve(np.eye(256) - grid2.action, np.ones(256))
    sup_err = float(np.max(np.abs(sr2.values - (1 + 1.5 * grid2.nodes[:, 0]))))
    checks2 = [
        abs(est2.rho_power_iteration - 0.5) <= 1e-3,
        abs(est2.rho_power_iteration - dense_rho) <= 1e-8,  # dense eigen oracle
        abs(operator_norm_l1(grid2) - 0.75) <= 1e-2,
        sup_err <= 1e-3,
        np.max(np.abs(sr2.values - dense_rate)) <= 1e-7,  # dense solve oracle
    ]
    ok &= all(checks2)
    msgs.append(f"rank-one: rho={est2.rho_power_iteration:.5f} |T|={operator_norm_l1(grid2):.4f} sup-err={sup_err:.2e}")
    report(1, ok, "; ".join(msgs), t0, 10.0)


def test_criterion_02_simulator_law_equivalence():
    t0 = time.time()
    spec = gh.constant_model(0.5, grid_n=256)
    reps, horizon = 10_000, 5.0
    s = gh.SplitStream(2026)
    counts_c, counts_t = np.empty(reps), np.empty(reps)
    first_c, first_t, locs_c, locs_t = [], [], [], []
    for i in range(reps):
        rc = simulate_process(spec, horizon, s.child(0, i), with_lifetimes=False)
        rt = simulate_thinning(spec, horizon, rng=s.child(1, i), with_lifetimes=False)
        counts_c[i], counts_t[i] = len(rc), len(rt)
        if len(rc):
            first_c.append(rc.times[0])
            locs_c.append(rc.locations[:, 0])
        if len(rt):
            first_t.append(rt.times[0])
            locs_t.append(rt.locations[:, 0])
    p_counts = stats.ks_2samp(counts_c, counts_t).pvalue
    p_first = stats.ks_2samp(np.asarray(first_c), np.asarray(first_t)).pvalue
    edges = np.linspace(0, 1, 21)
    h_c, _ = np.histogram(np.concatenate(locs_c), edges)
    h_t, _ = np.histogram(np.concatenate(locs_t), edges)
    p_space = stats.chi2_contingency(np.vstack([h_c, h_t])).pvalue
    ok = p_counts > 0.001 and p_first > 0.001 and p_space > 0.001
    report(2, ok,
           f"KS counts p={p_counts:.3f}, first-event p={p_first:.3f}, spatial chi2 p={p_space:.3f}",
           t0, 300.0)


def _poincare_family(n=4096):
    xs = (np.arange(n) + 0.5) / n
    rng = np.random.default_rng(5)
    fams = [xs, xs**2, 3 * xs**3 - 2 * xs, (xs > 1 / 3).astype(float), (xs > 0.5).astype(float)]
    fams += [np.sin(k * xs) for k in (1, 2, 4, 8, 16)]
    fams.append(rng.random(n // 256).repeat(256) + 0.2 * np.sin(7 * xs))
    fams.append(np.cumsum(rng.normal(size=16)).repeat(n // 16))
    return fams


def test_criterion_03_poincare_bound():
    t0 = time.time()
    dom = gh.SpatialDomain((0.0,), (1.0,))
    all_hold = True
    for d in (2, 4, 8, 16, 32, 64, 128, 256):
        part = build_partition(dom, d, "per-axis-counts")
        for f in _poincare_family():
            all_hold &= poincare_check(f, part).holds
    part10 = build_partition(dom, 10, "per-axis-counts")
    xs = (np.arange(4000) + 0.5) / 4000
    rec = poincare_check(xs, part10, var=1.0)
    exact = abs(rec.lhs - 0.025) <= 1e-6 and abs(rec.rhs - 0.05) <= 1e-12
    ok = all_hold and exact and rec.holds
    report(3, ok, f"family holds={all_hold}; f=x,d=10: lhs={rec.lhs:.7f} rhs={rec.rhs:.3f}",
           t0, 30.0)


def test_criterion_04_prelimit_convergence():
    t0 = time.time()
    spec = gh.constant_model(0.5, grid_n=256)
    s = gh.SplitStream(4)
    ok = True
    details = []
    for mode in ("annealed", "quenched"):
        means = []
        exact_zero = True
        for d in (2, 8, 32):
            part = build_partition(spec.domain, d, "per-axis-counts")
            avg = average_model(spec, part)
            dists = []
            for rep in range(200):
                pair = simulate_coupled(
                    avg, 1.0, mode=mode,
                    rng=s.child(0 if mode == "annealed" else 1, d, rep),
                )
                dists.append(pp_distance(pair.n, pair.nd, spec, avg.spec).total)
            means.append(float(np.mean(dists)))
            if mode == "annealed":
                exact_zero &= all(x == 0.0 for x in dists)
        noninc = all(b <= a + 1e-12 for a, b in zip(means, means[1:]))
        ok &= noninc
        if mode == "annealed":
            ok &= exact_zero  # model is P^d-measurable, coupling shares every draw
            details.append(f"annealed means={means} exact-zero={exact_zero}")
        else:
            details.append(f"quenched means={[round(m, 4) for m in means]}")
    report(4, ok, "; ".join(details), t0, 600.0)


def test_criterion_05_flln():
    t0 = time.time()
    spec = gh.constant_model(0.5, grid_n=256)
    base = gh.SplitStream(5)
    r50 = flln_experiment(spec, None, 50.0, 100, base, n_op=128)
    r200 = flln_experiment(spec, None, 200.0, 100, base, n_op=128)
    med50, med200 = r50.summary["median"], r200.summary["median"]
    poisson = gh.constant_model(0.0, grid_n=256)
    rp = flln_experiment(poisson, None, 400.0, 100, gh.SplitStream(55), n_op=128)
    ok = med200 < med50 and rp.summary["median"] < 0.15
    report(
        5, ok,
        f"median T=50: {med50:.4f} > T=200: {med200:.4f}; Poisson T=400 median "
        f"{rp.summary['median']:.4f} < 0.15",
        t0, 600.0,
    )


# Criterion 6: the stable/unstable dichotomy on the constant model W = w on
# [0, 1] with baseline LAM and kernel BETA e^{-BETA t}, run from an empty
# history at T = 20, 40 and 10.
#
# Mean.  m(t) = E intensity solves m(t) = LAM + w BETA int_0^t e^{-BETA(t-s)} m(s) ds,
# so m(t) = lam_bar (1 - w e^{-c t}) with lam_bar = LAM/(1-w), c = (1-w) BETA, and
#     E[N_T]/T = lam_bar (1 - w (1 - e^{-c T}) / (c T)).
# For w < 1 this *rises* to lam_bar with an O(1/T) bias (w = 0.5: 1.900 at
# T=20, 1.950 at T=40), so N_T/T does not fall in the stable regime.  For
# w > 1 the same formula (lam_bar < 0, c < 0) grows like e^{(w-1) BETA T} / T.
#
# Stable level.  The FCLT gives sd(N_T/T) ~ sigma_A / sqrt(T), so the mean of
# `reps` runs has SE sigma_A / sqrt(T reps), a band that shrinks in T.  From
# an empty history the variance is below its stationary value (the moment
# equations of `_count_variance` give Var N_T / T = 5.84, 6.90, 7.45 at
# T = 10, 20, 40 against sigma_A^2 = 8), so the band is conservative.
#
# Unstable level.  No FCLT holds for w > 1; the SE at the anchor T0 = 10 comes
# from the exact Var N_T0 of `_count_variance`.  T0 = 10 is the added horizon:
# it is the one where no w = 1.5 run reaches the cap (E N_10 = 864), so its
# mean is a measurement.  At T = 20 some runs are censored; at T = 40 all are.
#
# Unstable growth.  For w <= 1 the resolvent w BETA e^{-(1-w) BETA t} is
# nonincreasing, so m is concave, int_0^T m >= T m(T) / 2 and E[N_T]/T^2 is
# nonincreasing: E[N_T]/T <= (T/T0) E[N_T0]/T0.  No stable or critical model
# lets N_T/T grow faster than linearly in T.  A censored run counts exactly
# `cap` events, fewer than the process has, so the mean at T is a lower bound
# and can only understate growth.  Growth is shown when that lower bound
# exceeds (T/T0) times the anchor mean by Z standard errors, taken from the
# sample spreads (the horizons draw independent runs).
#
# Z = 4: the six comparisons (three stable levels, one unstable level, two
# growth steps) fail a correct simulator with probability at most
# 6 * 2 * Phi(-4) = 3.8e-4 (Bonferroni).
LAM, BETA, Z, ANCHOR_T = 1.0, 1.0, 4.0, 10.0


def _mean_rate(lam_bar: float, w: float, horizon: float) -> float:
    """E[N_T]/T from an empty history for the constant model, w != 1."""
    c = (1.0 - w) * BETA
    return lam_bar * (1.0 - w * (1.0 - math.exp(-c * horizon)) / (c * horizon))


def _count_variance(w: float, horizon: float) -> float:
    """Var N_T from an empty history for the constant model.

    The total intensity L relaxes to LAM at rate BETA and jumps by w BETA at
    each event, so d/dt E f(N, L) = E[BETA (LAM - L) df/dL + L (f(N+1, L+w BETA) - f)].
    For f in (1, N, L, L^2, LN, N^2) this is a closed linear system.
    """
    g = w * BETA
    gen = np.array([
        [0, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0],
        [BETA * LAM, 0, g - BETA, 0, 0, 0],
        [0, 0, 2 * BETA * LAM + g * g, 2 * (g - BETA), 0, 0],
        [0, BETA * LAM, g, 1, g - BETA, 0],
        [0, 0, 1, 0, 2, 0],
    ], float)
    m = expm(gen * horizon) @ np.array([1.0, 0.0, LAM, LAM * LAM, 0.0, 0.0])
    return float(m[5] - m[1] ** 2)


def _stable_level(rep, lam_bar: float, sigma: float, w: float) -> tuple[bool, str]:
    """Each horizon's mean N_T/T within Z sigma_A / sqrt(T reps) of E[N_T]/T."""
    ok, parts = True, []
    for t in sorted(rep.params["T_list"]):
        per = rep.summary["per_T"][f"{t:g}"]
        expect = _mean_rate(lam_bar, w, t)
        half = Z * sigma / math.sqrt(t * rep.params["reps"])
        ok &= per["censored_fraction"] == 0 and abs(per["mean_rate"] - expect) <= half
        parts.append(f"T={t:g} {per['mean_rate']:.3f} vs {expect:.3f}+-{half:.3f}")
    return ok, ", ".join(parts)


def _unstable_growth(rep, w: float) -> tuple[bool, bool, str]:
    """Anchor level against the exact moments, then faster-than-linear growth."""
    reps = rep.params["reps"]
    rates = {t: np.asarray(rep.samples[f"rate_T{t:g}"]) for t in rep.params["T_list"]}
    m0 = rates[ANCHOR_T].mean()
    # lam_bar = LAM / (1 - w) is formal (negative) here: no stationary rate exists
    expect = _mean_rate(LAM / (1.0 - w), w, ANCHOR_T)
    se = math.sqrt(_count_variance(w, ANCHOR_T) / reps) / ANCHOR_T
    level_ok = (rep.summary["per_T"][f"{ANCHOR_T:g}"]["censored_fraction"] == 0
                and abs(m0 - expect) <= Z * se)
    parts = [f"T={ANCHOR_T:g} {m0:.1f} vs {expect:.1f}+-{Z * se:.1f}"]
    se0 = rates[ANCHOR_T].std(ddof=1) / math.sqrt(reps)
    growth_ok = True
    for t in sorted(t for t in rates if t > ANCHOR_T):
        k = t / ANCHOR_T
        lower = rates[t].mean()
        se_t = rates[t].std(ddof=1) / math.sqrt(reps)
        growth_ok &= lower - k * m0 > Z * math.hypot(se_t, k * se0)
        parts.append(f"T={t:g} >={lower:.1f} vs linear {k * m0:.1f}")
    return level_ok, growth_ok, ", ".join(parts)


def _criterion_06(stream) -> tuple[bool, str]:
    specs = {w: gh.constant_model(w, lam=LAM, beta=BETA, grid_n=256) for w in (0.5, 1.5)}
    # T=10 goes last so that T=20 and T=40 keep their substreams
    runs = {
        w: divergence_experiment(spec, None, [20.0, 40.0, ANCHOR_T], 50,
                                 stream.child(int(10 * w)), cap=300_000)
        for w, spec in specs.items()
    }
    grid = discretize_kernel(specs[0.5], 128)
    rate = stationary_rate(grid, specs[0.5].baseline_on(grid.nodes))
    lam_bar = float(np.sum(rate.values * grid.weights))
    sigma = fclt_sigma(grid, rate, np.ones(grid.nodes.shape[0], dtype=bool))

    stable_ok, stable_msg = _stable_level(runs[0.5], lam_bar, sigma, 0.5)
    level_ok, growth_ok, unstable_msg = _unstable_growth(runs[1.5], 1.5)
    # negative control on the same samples: each check must reject the other arm
    swapped_level, _ = _stable_level(runs[1.5], lam_bar, sigma, 0.5)
    _, swapped_growth, _ = _unstable_growth(runs[0.5], 1.5)
    ok = stable_ok and level_ok and growth_ok and not swapped_level and not swapped_growth
    detail = (
        f"w=0.5 level {'ok' if stable_ok else 'FAIL'} ({stable_msg}); "
        f"w=1.5 level {'ok' if level_ok else 'FAIL'}, growth "
        f"{'ok' if growth_ok else 'FAIL'} ({unstable_msg}); swapped arms rejected: "
        f"level {not swapped_level}, growth {not swapped_growth}"
    )
    return ok, detail


def test_criterion_06_dichotomy():
    t0 = time.time()
    ok, detail = _criterion_06(gh.SplitStream(6))
    report(6, ok, detail, t0, 600.0)


def test_criterion_07_fclt():
    t0 = time.time()
    spec = gh.constant_model(0.5, grid_n=256)
    rep = fclt_experiment(spec, None, 500.0, 500, gh.SplitStream(7), burn_in=100.0,
                          n_op=128)
    sigma_ok = abs(rep.summary["sigma_A"] - 2 * math.sqrt(2)) <= 1e-4
    p_main = rep.summary["ks_pvalue"]
    poisson = gh.constant_model(0.0, grid_n=256)
    repp = fclt_experiment(poisson, None, 500.0, 500, gh.SplitStream(77), burn_in=100.0,
                           n_op=128)
    sigma_p_ok = abs(repp.summary["sigma_A"] - 1.0) <= 1e-9
    p_pois = repp.summary["ks_pvalue"]
    ok = sigma_ok and sigma_p_ok and p_main > 0.001 and p_pois > 0.001
    report(
        7, ok,
        f"sigma={rep.summary['sigma_A']:.5f} KS p={p_main:.3f}; Poisson sigma="
        f"{repp.summary['sigma_A']:.1f} KS p={p_pois:.3f}",
        t0, 1800.0,
    )


def _builtin_models():
    marked = gh.ModelSpec(
        domain=gh.SpatialDomain((0.0,), (1.0,)),
        baseline=gh.SpatialProfile("constant", value=1.0),
        graphon=gh.PairFunction("constant", value=0.5),
        excitation=gh.ExcitationKernel("exponential", rate=1.0, l1=1.0),
        marks=MarkModel(kind="scaled-profile", xi_family="exponential", xi_value=1.0,
                        profile=PairFunction("constant", value=1.0)),
        c_w=0.5, grid_n=128,
    )
    table = gh.ModelSpec(
        domain=gh.SpatialDomain((0.0,), (1.0,)),
        baseline=gh.SpatialProfile("constant", value=1.0),
        graphon=gh.PairFunction("constant", value=0.4),
        excitation=gh.ExcitationKernel(
            "table", breaks=np.array([0.0, 0.5, 1.5]), table_values=np.array([1.0, 0.3])
        ),
        c_w=0.4, grid_n=128,
    )
    return [
        gh.constant_model(0.5, grid_n=128),
        gh.constant_model(0.0, grid_n=128),
        gh.rank_one_model(1.2, grid_n=128),
        marked,
        table,
    ]


def test_criterion_08_transform_fixed_point():
    t0 = time.time()
    ok = True
    details = []
    f = TestFunction.constant(LN2)

    # per-iteration envelope for every built-in model at t = 2
    env_ok = True
    for spec in _builtin_models():
        _, log = fixed_point(spec, f, 2.0, n_u=257)
        env_ok &= log.envelope_ok
    ok &= env_ok
    details.append(f"envelope ok={env_ok}")

    # fixed point vs MC oracle at nsim = 1e5
    spec = gh.constant_model(0.5, grid_n=128)
    eta, _ = fixed_point(spec, f, 2.0, n_u=257)
    est = mc_transform_oracle(spec, [0.5], f, 2.0, 100_000, gh.SplitStream(8))
    idx = int(np.argmin(np.abs(spec.std_grid[0][:, 0] - 0.5)))
    gap = abs(est.estimate - eta.values[idx, -1])
    oracle_ok = gap <= 3 * est.stderr + 1e-3
    ok &= oracle_ok
    details.append(f"eta vs MC gap={gap:.4f} (3se+1e-3={3 * est.stderr + 1e-3:.4f})")

    # population transform vs direct MC
    fq = TestFunction.constant(0.9)
    etaq, _ = fixed_point(spec, fq, 2.0, n_u=257)
    lq = laplace_of_Q(etaq, spec, 2.0)
    estq = mc_population_transform(spec, fq, 2.0, 100_000, gh.SplitStream(88))
    gapq = abs(estq.estimate - lq)
    pop_ok = gapq <= 3 * estq.stderr
    ok &= pop_ok
    details.append(f"L_Q vs MC gap={gapq:.4f} (3se={3 * estq.stderr:.4f})")

    # W = 0 closed form
    z, t = 0.7, 2.0
    spec0 = gh.constant_model(0.0, grid_n=128)
    eta0, _ = fixed_point(spec0, TestFunction.constant(z), t, n_u=513)
    closed = math.exp(-(1 - math.exp(-z)) * (1 - math.exp(-t)))
    gap0 = abs(laplace_of_Q(eta0, spec0, t) - closed)
    ok &= gap0 <= 1e-3
    details.append(f"M/G/inf gap={gap0:.2e}")
    report(8, ok, "; ".join(details), t0, 900.0)


def test_criterion_09_limit_interchange():
    t0 = time.time()
    spec = gh.constant_model(0.5, grid_n=256)
    rep = interchange_experiment(spec, [2, 4, 8, 16], TestFunction.constant(0.7),
                                 t_large=30.0, tol=1e-11, n_u=513)
    diffs = [e.abs_diff for e in rep.entries]
    nonincreasing = all(b <= a + 1e-12 for a, b in zip(diffs, diffs[1:]))
    tail_ok = rep.tail_mass < 1e-3
    ok = nonincreasing and tail_ok
    report(
        9, ok,
        f"diffs={[f'{d:.2e}' for d in diffs]} tail={rep.tail_mass:.2e}",
        t0, 900.0,
    )


CONST_MODEL_CFG = {
    "domain": {"lower": [0.0], "upper": [1.0]},
    "baseline": {"family": "constant", "value": 1.0},
    "graphon": {"family": "constant", "value": 0.5, "c_w": 0.5, "symmetric": True},
    "excitation": {"family": "exponential", "rate": 1.0, "l1": 1.0},
    "marks": {"kind": "unmarked"},
    "lifetimes": {"family": "exponential", "rate": 1.0},
    "nonlinearity": {"family": "identity"},
    "grid_n": 128,
}

SUPER_MODEL_CFG = dict(CONST_MODEL_CFG, graphon={"family": "constant", "value": 1.5, "c_w": 1.5})


def _artifacts(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())
            if p.name != "manifest.json"}


def _manifest_stable(out_a: Path, out_b: Path) -> bool:
    ma = json.loads((out_a / "manifest.json").read_text())
    mb = json.loads((out_b / "manifest.json").read_text())
    ma.pop("wall_time_s"), mb.pop("wall_time_s")
    mb["threads"] = ma["threads"]  # thread count is allowed to differ
    return ma == mb


def test_criterion_10_determinism(tmp_path):
    t0 = time.time()
    model = tmp_path / "model.yaml"
    model.write_text(yaml.safe_dump(CONST_MODEL_CFG))
    super_model = tmp_path / "super.yaml"
    super_model.write_text(yaml.safe_dump(SUPER_MODEL_CFG))

    sim_out = tmp_path / "sim0"
    cli_main(["--model", str(model), "--seed", "1", "--out", str(sim_out),
              "simulate", "--horizon", "4", "--reps", "4"])

    commands = {
        "simulate": (model, ["simulate", "--horizon", "4", "--reps", "4",
                             "--lifetimes", "on"]),
        "simulate-thinning": (model, ["simulate", "--horizon", "3", "--reps", "3",
                                      "--method", "thinning"]),
        "stability": (model, ["stability", "--n", "128"]),
        "analyze": (model, ["analyze", str(sim_out / "events_r0000.ndjson"),
                            str(sim_out / "events_r0001.ndjson"),
                            "--matching", "time-tolerance", "--eps", "0.01"]),
        "converge": (model, ["converge", "--d-list", "2,4", "--mode", "both",
                             "--reps", "5", "--horizon", "1"]),
        "flln": (model, ["flln", "--horizon", "20", "--reps", "8"]),
        "fclt": (model, ["fclt", "--horizon", "30", "--burn-in", "5",
                         "--reps", "8"]),
        "diverge": (super_model, ["diverge", "--t-list", "4,8", "--reps", "4",
                                  "--cap", "50000"]),
        "transform": (model, ["transform", "--f", "const:0.7", "--t", "2",
                              "--oracle", "2000"]),
    }
    ok = True
    failures = []
    for name, (mfile, args) in commands.items():
        outs = []
        for run, threads in (("r1", "1"), ("r2", "1"), ("r8", "8")):
            out = tmp_path / f"{name}-{run}"
            rc = cli_main(["--model", str(mfile), "--seed", "9",
                           "--out", str(out), "--threads", threads] + args)
            if rc != 0:
                failures.append(f"{name}: exit {rc}")
                ok = False
                break
            outs.append(out)
        else:
            same = (_artifacts(outs[0]) == _artifacts(outs[1]) == _artifacts(outs[2]))
            stable = _manifest_stable(outs[0], outs[1]) and _manifest_stable(outs[0], outs[2])
            if not (same and stable):
                failures.append(f"{name}: bytes differ")
                ok = False
    report(10, ok, "all subcommands byte-identical" if ok else "; ".join(failures),
           t0, 300.0)
