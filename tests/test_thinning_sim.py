"""Thinning simulation: intensity evaluation, laws, nonlinear rates."""

import math

import numpy as np
import pytest
from scipy import stats

import graphon_hawkes as gh
from graphon_hawkes import thinning_sim
from graphon_hawkes.cluster_sim import simulate_process
from graphon_hawkes.errors import AcausalHistoryError, ThinningBoundError
from graphon_hawkes.model import Nonlinearity
from graphon_hawkes.thinning_sim import (
    HistorySnapshot,
    conditional_intensity,
    simulate_thinning,
)


def clipped_model(cap, w=0.5, grid_n=128):
    base = gh.constant_model(w, grid_n=grid_n)
    return gh.ModelSpec(
        domain=base.domain, baseline=base.baseline, graphon=base.graphon,
        excitation=base.excitation, lifetimes=base.lifetimes,
        nonlinearity=Nonlinearity("clipped-linear", cap=cap), c_w=w, grid_n=grid_n,
    )


def test_conditional_intensity_empty_history():
    spec = gh.constant_model(0.5, grid_n=128)
    vals = conditional_intensity(spec, HistorySnapshot(t_ref=0.0), 1.0)
    assert np.allclose(vals, 1.0)


def test_conditional_intensity_one_event():
    spec = gh.constant_model(0.5, grid_n=128)
    hist = HistorySnapshot(times=[0.0], locations=[[0.5]], mark_scalars=[1.0], t_ref=0.5)
    vals = conditional_intensity(spec, hist, 1.0)
    assert np.allclose(vals, 1 + 0.5 * math.exp(-1), atol=1e-12)


def test_conditional_intensity_clipped():
    spec = clipped_model(1.1)
    hist = HistorySnapshot(times=[0.0], locations=[[0.5]], mark_scalars=[1.0], t_ref=0.5)
    vals = conditional_intensity(spec, hist, 1.0)
    assert np.allclose(vals, 1.1)


def test_conditional_intensity_acausal():
    spec = gh.constant_model(0.5, grid_n=64)
    hist = HistorySnapshot(times=[0.0], locations=[[0.5]], mark_scalars=[1.0], t_ref=0.5)
    with pytest.raises(AcausalHistoryError):
        conditional_intensity(spec, hist, -1.0)


def test_history_snapshot_rejects_future_events():
    with pytest.raises(AcausalHistoryError):
        HistorySnapshot(times=[1.0], locations=[[0.5]], mark_scalars=[1.0], t_ref=0.5)


def test_thinning_poisson_mean():
    spec = gh.constant_model(0.0, grid_n=64)
    s = gh.SplitStream(30)
    counts = np.asarray(
        [len(simulate_thinning(spec, 1.0, rng=s.child(i))) for i in range(10_000)]
    )
    se = counts.std(ddof=1) / math.sqrt(counts.size)
    assert abs(counts.mean() - 1.0) <= 3 * se


def test_thinning_matches_cluster_sim_linear():
    # two-sample KS on counts for the linear constant model
    spec = gh.constant_model(0.5, grid_n=128)
    s = gh.SplitStream(31)
    n = 2000
    thin = np.asarray([len(simulate_thinning(spec, 5.0, rng=s.child(0, i))) for i in range(n)])
    clus = np.asarray([len(simulate_process(spec, 5.0, s.child(1, i))) for i in range(n)])
    assert stats.ks_2samp(thin, clus).pvalue > 0.001


def test_thinning_clipped_at_baseline_is_poisson():
    # cap exactly at lam_inf pins the rate at the baseline regardless of W
    spec = clipped_model(1.0, w=0.9)
    s = gh.SplitStream(32)
    counts = np.asarray(
        [len(simulate_thinning(spec, 4.0, rng=s.child(i))) for i in range(4000)]
    )
    se = counts.std(ddof=1) / math.sqrt(counts.size)
    assert abs(counts.mean() - 4.0) <= 3 * se
    # variance should match Poisson too
    assert abs(counts.var(ddof=1) - 4.0) <= 5 * 4.0 * math.sqrt(2 / counts.size)


def test_monotonicity_in_history():
    spec = gh.constant_model(0.5, grid_n=128)
    h1 = HistorySnapshot(times=[0.0], locations=[[0.2]], mark_scalars=[1.0], t_ref=0.6)
    h2 = HistorySnapshot(
        times=[0.0, 0.5], locations=[[0.2], [0.8]], mark_scalars=[1.0, 1.0], t_ref=0.6
    )
    v1 = conditional_intensity(spec, h1, 1.0)
    v2 = conditional_intensity(spec, h2, 1.0)
    assert (v2 >= v1 - 1e-12).all()


def test_thinning_with_initial_history_raises_rate():
    spec = gh.constant_model(0.5, grid_n=128)
    hist = HistorySnapshot(
        times=[-0.1] * 20, locations=[[0.5]] * 20, mark_scalars=[1.0] * 20, t_ref=0.0
    )
    s = gh.SplitStream(33)
    with_hist = np.mean(
        [len(simulate_thinning(spec, 1.0, initial=hist, rng=s.child(0, i))) for i in range(800)]
    )
    without = np.mean(
        [len(simulate_thinning(spec, 1.0, rng=s.child(1, i))) for i in range(800)]
    )
    assert with_hist > without + 1.0


def test_thinning_initial_history_must_be_past():
    spec = gh.constant_model(0.5, grid_n=64)
    hist = HistorySnapshot(times=[0.5], locations=[[0.5]], mark_scalars=[1.0], t_ref=1.0)
    with pytest.raises(AcausalHistoryError):
        simulate_thinning(spec, 2.0, initial=hist, rng=gh.SplitStream(0))


def test_thinning_nonlinear_sigmoid_runs_and_bounds():
    base = gh.constant_model(0.9, grid_n=128)
    spec = gh.ModelSpec(
        domain=base.domain, baseline=base.baseline, graphon=base.graphon,
        excitation=base.excitation, nonlinearity=Nonlinearity("sigmoid-scaled", scale=2.0),
        c_w=0.9, grid_n=128,
    )
    real = simulate_thinning(spec, 10.0, rng=gh.SplitStream(34))
    # rate is capped by scale = 2, so counts stay near or below 2 * T
    assert len(real) < 2 * 10.0 * 2.5
    assert not real.censored


def test_thinning_table_kernel_nonmonotone():
    # delayed-peak table kernel exercises the nonincreasing envelope bound
    base = gh.constant_model(0.5, grid_n=128)
    spec = gh.ModelSpec(
        domain=base.domain, baseline=base.baseline, graphon=base.graphon,
        excitation=gh.ExcitationKernel(
            "table",
            breaks=np.array([0.0, 0.5, 1.0, 2.0]),
            table_values=np.array([0.2, 1.2, 0.1]),
        ),
        c_w=0.5, grid_n=128,
    )
    s = gh.SplitStream(35)
    reals = [simulate_thinning(spec, 6.0, rng=s.child(i)) for i in range(200)]
    assert all(not r.censored for r in reals)
    # branching ratio 0.5 * l1(h) = 0.45: mean in the right ballpark
    mean = np.mean([len(r) for r in reals])
    assert 6.0 < mean < 6.0 / (1 - 0.45) * 1.3


def test_thinning_bound_violation_raises_typed_error(monkeypatch):
    # a dominating rate at half the true total rate must be caught, also under -O
    real = thinning_sim._ThinningState.total_bound
    monkeypatch.setattr(thinning_sim._ThinningState, "total_bound",
                        lambda self, t: 0.5 * real(self, t))
    with pytest.raises(ThinningBoundError) as exc:
        simulate_thinning(gh.constant_model(0.5, grid_n=64), 20.0, rng=gh.SplitStream(0))
    assert exc.value.code == "thinning-bound-violated"
