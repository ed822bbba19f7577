"""Limit-theorem experiment harnesses."""

import dataclasses
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import graphon_hawkes as gh
from graphon_hawkes import limits
from graphon_hawkes.errors import OutdegreeConditionError, UnstableModelError
from graphon_hawkes.limits import (
    divergence_experiment,
    fclt_experiment,
    flln_experiment,
    flln_sup_statistic,
    _kolmogorov_sf,
    _ks_normal,
)


def test_flln_sup_statistic_exact_values():
    # hand-computed path: events at 1 and 3 on [0, 4] with lam = 0.5
    stat = flln_sup_statistic(np.array([1.0, 3.0]), 4.0, 0.5)
    # candidates: |1/4 - 0.125|, |0 - 0.125|, |2/4 - 0.375|, |1/4 - 0.375|, |2/4 - 0.5|
    assert stat == pytest.approx(0.125)
    assert flln_sup_statistic(np.array([]), 4.0, 0.5) == pytest.approx(0.5)
    assert flln_sup_statistic(np.array([]), 4.0, 0.0) == 0.0


def test_flln_zero_baseline_statistic_zero():
    base = gh.constant_model(0.5, grid_n=128)
    spec = gh.ModelSpec(
        domain=base.domain, baseline=gh.SpatialProfile("constant", value=0.0),
        graphon=base.graphon, excitation=base.excitation, c_w=0.5, grid_n=128,
    )
    rep = flln_experiment(spec, None, 10.0, 20, gh.SplitStream(1), n_op=64)
    assert max(rep.samples["sup_statistic"]) == 0.0


def test_flln_statistic_shrinks_with_horizon():
    spec = gh.constant_model(0.5, grid_n=128)
    r50 = flln_experiment(spec, None, 50.0, 40, gh.SplitStream(2), n_op=64)
    r200 = flln_experiment(spec, None, 200.0, 40, gh.SplitStream(2), n_op=64)
    assert r200.summary["median"] < r50.summary["median"]
    assert r50.summary["lam_bar_A"] == pytest.approx(2.0, abs=1e-6)


def test_flln_unstable_model_rejected():
    spec = gh.constant_model(1.5, grid_n=128)
    with pytest.raises(UnstableModelError):
        flln_experiment(spec, None, 10.0, 5, gh.SplitStream(3), n_op=64)


def test_flln_interval_mask():
    spec = gh.constant_model(0.5, grid_n=128)
    rep = flln_experiment(spec, ([0.0], [0.5]), 50.0, 20, gh.SplitStream(4), n_op=64)
    assert rep.summary["lam_bar_A"] == pytest.approx(1.0, abs=1e-6)


def test_divergence_poisson_control_flat():
    spec = gh.constant_model(0.0, grid_n=64)
    rep = divergence_experiment(spec, None, [5.0, 10.0, 20.0], 60, gh.SplitStream(5))
    means = [rep.summary["per_T"][k]["mean_rate"] for k in ("5", "10", "20")]
    assert all(abs(m - 1.0) < 0.2 for m in means)
    assert all(rep.summary["per_T"][k]["censored_fraction"] == 0.0 for k in ("5", "10", "20"))


# Growth over linear, as in criterion 6 (tests/test_acceptance.py): for w <= 1
# the constant model's E[N_T]/T^2 is nonincreasing, so E[N_T]/T <= (T/T0)
# E[N_T0]/T0 and no stable or critical model grows N_T/T faster than
# linearly.  A rising mean alone cannot tell the regimes apart, because from
# an empty history E[N_T]/T rises for w < 1 too.  The anchor T0 = 10 is
# uncensored (E N_10 = 864 at w = 1.5, against cap = 100_000); at T = 20
# (E N_20 = 132,000) runs hit the cap, count exactly `cap` events, and the
# mean is a lower bound, which only understates growth.
GROWTH_Z, GROWTH_ANCHOR = 4.0, 10.0


def _grows_faster_than_linear(rep) -> bool:
    """Mean N_T/T beyond the anchor exceeds (T/T0) times the anchor mean by
    GROWTH_Z sample SEs at every later horizon; the anchor is uncensored."""
    reps = rep.params["reps"]
    rates = {t: np.asarray(rep.samples[f"rate_T{t:g}"]) for t in rep.params["T_list"]}
    m0 = rates[GROWTH_ANCHOR].mean()
    se0 = rates[GROWTH_ANCHOR].std(ddof=1) / math.sqrt(reps)
    ok = rep.summary["per_T"][f"{GROWTH_ANCHOR:g}"]["censored_fraction"] == 0
    for t in (t for t in rates if t > GROWTH_ANCHOR):
        k = t / GROWTH_ANCHOR
        se = rates[t].std(ddof=1) / math.sqrt(reps)
        ok &= rates[t].mean() - k * m0 > GROWTH_Z * math.hypot(se, k * se0)
    return ok


def _supercritical_and_control(box, reps, seed):
    """(w=1.5, w=0.5) runs at T = 5, 10, 20 on the same substreams."""
    return [
        divergence_experiment(gh.constant_model(w, grid_n=64), box, [5.0, 10.0, 20.0],
                              reps, gh.SplitStream(seed), cap=100_000)
        for w in (1.5, 0.5)
    ]


def test_divergence_supercritical_increasing():
    rep, control = _supercritical_and_control(None, 20, 6)
    means = [rep.summary["per_T"][k]["mean_rate"] for k in ("5", "10", "20")]
    assert means[0] < means[1] < means[2]
    assert rep.summary["strictly_increasing"]
    assert _grows_faster_than_linear(rep)
    # negative control: the stable model's rising mean must fail the check
    assert not _grows_faster_than_linear(control)


def test_divergence_positive_measure_subset():
    rep, control = _supercritical_and_control(([0.0], [0.1]), 15, 7)
    means = [rep.summary["per_T"][k]["mean_rate"] for k in ("5", "10", "20")]
    assert means[0] < means[1] < means[2]
    assert _grows_faster_than_linear(rep)
    assert not _grows_faster_than_linear(control)


def test_fclt_outdegree_condition():
    spec = gh.constant_model(1.2, grid_n=64)
    with pytest.raises(OutdegreeConditionError):
        fclt_experiment(spec, None, 10.0, 5, gh.SplitStream(8), n_op=64)


def test_fclt_single_rep_skips_test():
    spec = gh.constant_model(0.5, grid_n=128)
    rep = fclt_experiment(spec, None, 20.0, 1, gh.SplitStream(9), burn_in=5.0, n_op=64)
    assert rep.passed is None
    assert any("skipped" in n for n in rep.notes)


def _grid_graphon_model(cells: int) -> gh.ModelSpec:
    values = np.full((cells, cells), 0.4) + 0.2 * np.eye(cells)
    return dataclasses.replace(
        gh.constant_model(0.5, grid_n=128),
        graphon=gh.PairFunction("grid", values=values, axis_counts=(cells,)), c_w=0.6,
    )


def test_fclt_sigma_label():
    spec = gh.constant_model(0.5, grid_n=128)
    rep = fclt_experiment(spec, None, 20.0, 4, gh.SplitStream(10), burn_in=5.0, n_op=64)
    assert rep.summary["sigma_label"] == "exact-piecewise-constant"
    assert rep.summary["sigma_A"] == pytest.approx(2 * math.sqrt(2), abs=1e-4)
    ro = gh.rank_one_model(1.2, grid_n=128)
    rep2 = fclt_experiment(ro, None, 20.0, 4, gh.SplitStream(11), burn_in=5.0, n_op=64)
    assert rep2.summary["sigma_label"] == "extrapolated"

    # a model with cells is computed on its own cells whatever n_op is: a 4-cell
    # and a 3-cell graphon are exact and equal across n_op; a rank-one mark
    # profile has no cells, so its sigma_A is extrapolated and moves with n_op
    def label_and_sigma(spec, n_op):
        rep = fclt_experiment(spec, None, 20.0, 4, gh.SplitStream(12), burn_in=5.0, n_op=n_op)
        return rep.summary["sigma_label"], rep.summary["sigma_A"]

    for cells in (4, 3):
        pair = [label_and_sigma(_grid_graphon_model(cells), n) for n in (64, 256)]
        assert [lab for lab, _ in pair] == ["exact-piecewise-constant"] * 2
        assert pair[0][1] == pytest.approx(pair[1][1], rel=1e-12)
    marked = dataclasses.replace(spec, marks=gh.MarkModel(
        kind="scaled-profile",
        profile=gh.PairFunction("rank-one", profile=gh.SpatialProfile("identity"))))
    (label, coarse), (label_256, fine) = (label_and_sigma(marked, n) for n in (64, 256))
    assert label == label_256 == "extrapolated"
    assert coarse != pytest.approx(fine, rel=1e-9)


def test_fclt_sample_mean_near_zero():
    spec = gh.constant_model(0.5, grid_n=128)
    rep = fclt_experiment(spec, None, 100.0, 150, gh.SplitStream(12), burn_in=30.0,
                          n_op=64)
    sigma = rep.summary["sigma_A"]
    assert abs(rep.summary["mean"]) <= 4 * sigma / math.sqrt(150)


def test_reports_are_reproducible_across_threads():
    spec = gh.constant_model(0.5, grid_n=128)
    r1 = flln_experiment(spec, None, 20.0, 16, gh.SplitStream(13), threads=1, n_op=64)
    r8 = flln_experiment(spec, None, 20.0, 16, gh.SplitStream(13), threads=8, n_op=64)
    assert r1.samples == r8.samples


@pytest.mark.parametrize("n_op", [1, 64, 256])
def test_fclt_box_is_exact_on_the_cell_grid(n_op):
    # lam_bar = 2 everywhere, so lam_bar(A) = 0.6 and sigma_A = 0.3 * 2 sqrt(2)
    # on [0, 0.3], a box whose face cuts a cell of every n_op-grid but the
    # model's one cell is computed exactly
    spec = gh.constant_model(0.5, grid_n=128)
    rep = fclt_experiment(spec, ([0.0], [0.3]), 20.0, 4, gh.SplitStream(14), burn_in=5.0,
                          n_op=n_op)
    assert rep.summary["sigma_label"] == "exact-piecewise-constant"
    assert rep.summary["lam_bar_A"] == pytest.approx(0.6, rel=1e-12)
    assert rep.summary["sigma_A"] == pytest.approx(0.3 * 2 * math.sqrt(2), rel=1e-12)


def test_fclt_zero_measure_box_skips_test():
    # a box of zero measure has N_T(A) = 0 and sigma_A = 0: no law to test
    spec = gh.constant_model(0.5, grid_n=128)
    rep = fclt_experiment(spec, ([0.3], [0.3]), 20.0, 8, gh.SplitStream(15), n_op=64)
    assert rep.summary["sigma_A"] == 0.0
    assert rep.passed is None
    assert not any(k.startswith("ks_") for k in rep.summary)
    assert any("skipped" in n for n in rep.notes)


@settings(max_examples=200)
@given(n=st.integers(2, 140), seed=st.integers(0, 2**32 - 1),
       shift=st.floats(-1.5, 1.5), scale=st.floats(0.3, 2.5), sigma=st.floats(0.2, 3.0))
def test_ks_matches_scipy_exact_law_up_to_140(n, seed, shift, scale, sigma):
    x = np.random.default_rng(seed).normal(shift * sigma, scale * sigma, n)
    d, p = _ks_normal(x, sigma)
    ref = stats.kstest(x, "norm", args=(0.0, sigma))
    assert d == pytest.approx(ref.statistic, rel=1e-12)
    if ref.pvalue >= 1e-10:
        assert p == pytest.approx(ref.pvalue, rel=1e-9)


@pytest.mark.parametrize("n", [141, 500, 2000, 10_000])
def test_ks_near_scipy_above_140(n):
    # scipy switches to the Pelz-Good approximation above n = 140
    rng = np.random.default_rng(n)
    for scale in (1.0, 1.1):
        x = rng.normal(0.0, scale, n)
        assert _ks_normal(x, 1.0)[1] == pytest.approx(
            stats.kstest(x, "norm").pvalue, rel=1e-4)


@given(n=st.integers(2, 140), u=st.floats(0.0, 1.0, exclude_max=True))
def test_kolmogorov_ruben_gambino_edges(n, u):
    # 1/(2n) < D <= 1/n: P(D_n >= D) = 1 - n!/n^n (2nD - 1)^n, exactly
    d = (1.0 + u) / (2 * n)
    exact = 1 - Fraction(math.factorial(n), n**n) * (2 * n * Fraction(d) - 1) ** n
    assert _kolmogorov_sf(n, d) == pytest.approx(float(exact), rel=1e-12)
    # (n - 1)/n <= D < 1: P(D_n >= D) = 2 (1 - D)^n, exactly
    d = (n - 1 + u) / n
    assert _kolmogorov_sf(n, d) == pytest.approx(float(2 * (1 - Fraction(d)) ** n),
                                                 rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("wrong", ["none", "scale", "shift"])
def test_fclt_ks_rejects_a_wrong_law(wrong, monkeypatch):
    # Poisson counts on [0, 1] at rate 1: sigma_A = 1.  The claimed law is
    # made too narrow by 1.5 or its mean off by sigma_A / 2, so the samples
    # are drawn with sigma x 1.5 or shifted by 0.5 sigma against it
    horizon = 200.0
    if wrong == "scale":
        real_sigma = limits.fclt_sigma
        monkeypatch.setattr(limits, "fclt_sigma", lambda *a: real_sigma(*a) / 1.5)
    elif wrong == "shift":
        real_setup = limits._operator_setup

        def setup(*a):
            *rest, lam_a = real_setup(*a)
            return (*rest, lam_a - 0.5 / math.sqrt(horizon))

        monkeypatch.setattr(limits, "_operator_setup", setup)
    poisson = gh.constant_model(0.0, grid_n=64)
    rep = fclt_experiment(poisson, None, horizon, 500, gh.SplitStream(21), n_op=64)
    if wrong == "none":
        assert rep.passed is True and rep.summary["ks_pvalue"] > 0.01
    else:
        assert rep.passed is False and rep.summary["ks_pvalue"] < 1e-3


def test_ks_exact_law_is_fast_at_ten_thousand():
    x = np.random.default_rng(4).normal(0.0, 1.0, 10_000)
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        _ks_normal(x, 1.0)
        best = min(best, time.perf_counter() - t0)
    assert best < 0.2
