"""Thinning simulation: intensity evaluation, laws, nonlinear rates."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
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


def test_same_stream_object_repeats_the_run():
    spec = gh.constant_model(0.5, grid_n=64)
    stream = gh.SplitStream(6)
    a = simulate_thinning(spec, 10.0, rng=stream)
    b = simulate_thinning(spec, 10.0, rng=stream)
    assert len(a) > 0 and np.array_equal(a.times, b.times)
    assert np.array_equal(a.locations, b.locations)


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


# ---------------------------------------------------------------------------
# Property tests: the carried excitation against the direct-sum oracle

KERNELS = {
    "exponential": gh.ExcitationKernel("exponential", rate=1.7, l1=0.8),
    "power-law": gh.ExcitationKernel("power-law", exponent=2.5, cutoff=0.7, l1=0.6),
    "table": gh.ExcitationKernel(  # delayed peak: not monotone
        "table", breaks=np.array([0.0, 0.5, 1.0, 2.0]), table_values=np.array([0.2, 1.2, 0.1])
    ),
}
NONLINEARITIES = {
    "identity": Nonlinearity(),
    "clipped-linear": Nonlinearity("clipped-linear", cap=1.6),
    "sigmoid-scaled": Nonlinearity("sigmoid-scaled", scale=2.0),
}


def _graphon(family, values):
    if family == "constant":
        return gh.PairFunction("constant", value=float(values[0]))
    interp = "pw-constant" if family == "pw-constant" else "bilinear"
    return gh.PairFunction("grid", values=np.reshape(values, (4, 4)), axis_counts=(4,),
                           interp=interp)


unit = st.floats(0.0, 1.0)
events = st.tuples(st.floats(0.01, 1.0), unit, st.floats(0.1, 3.0))  # (gap, x, xi)


@settings(max_examples=60)
@given(
    kernel=st.sampled_from(sorted(KERNELS)),
    family=st.sampled_from(["constant", "pw-constant", "bilinear"]),
    f=st.sampled_from(sorted(NONLINEARITIES)),
    values=st.lists(unit, min_size=16, max_size=16),
    history=st.lists(st.tuples(st.floats(-4.0, -1e-3), unit, st.floats(0.1, 3.0)),
                     max_size=25),
    pushed=st.lists(events, max_size=40),
    fractions=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=3),
)
# a long table-kernel run: the row buffer outgrows its first allocation twice
@example(kernel="table", family="pw-constant", f="identity",
         values=[0.1 * (i % 7) for i in range(16)], history=[(-3.0, 0.5, 1.0)] * 3,
         pushed=[(0.3, (i % 8) / 8, 1.0 + i % 3) for i in range(40)], fractions=[0.5])
def test_carried_intensity_matches_direct_sum_and_bound_dominates(
    kernel, family, f, values, history, pushed, fractions
):
    spec = gh.ModelSpec(
        domain=gh.SpatialDomain((0.0,), (1.0,)),
        baseline=gh.SpatialProfile("constant", value=0.7),
        graphon=_graphon(family, values),
        excitation=KERNELS[kernel],
        nonlinearity=NONLINEARITIES[f],
        c_w=1.0,
        grid_n=16,
    )
    times = [s for s, _, _ in history]  # unsorted: the snapshot sorts them
    locs = [[x] for _, x, _ in history]
    xis = [xi for _, _, xi in history]
    state = thinning_sim._ThinningState(spec)
    state.load(HistorySnapshot(times=times, locations=locs, mark_scalars=xis, t_ref=0.0))
    t = 0.0
    # after each push, probe the times up to the next one (and past the last)
    for gap, x, xi in pushed + [(1.0, None, None)]:
        bound = state.total_bound(t)
        for frac in sorted(fractions):
            s = t + frac * gap
            snapshot = HistorySnapshot(times=times, locations=locs, mark_scalars=xis,
                                       t_ref=s)
            lam = state.intensity(s)
            np.testing.assert_allclose(lam, conditional_intensity(spec, snapshot, s),
                                       rtol=1e-12, atol=1e-12)
            assert float(np.sum(lam * state.weights)) <= bound * (1 + 1e-12)
        if x is None:
            break
        t += gap
        state.push(t, np.array([x]), xi)
        times, locs, xis = times + [t], locs + [[x]], xis + [xi]


def test_exponential_thinning_memory_is_bounded_by_the_grid():
    # a stack of every history row would take 5,000 x 128 x 8 bytes = 5.1 MB
    n, grid_n = 5000, 128
    spec = gh.constant_model(0.5, grid_n=grid_n)
    gen = np.random.default_rng(0)
    hist = HistorySnapshot(times=-0.5 * n * gen.random(n), locations=gen.random((n, 1)),
                           mark_scalars=np.ones(n), t_ref=0.0)
    tracemalloc.start()
    try:
        simulate_thinning(spec, 5.0, initial=hist, rng=gh.SplitStream(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * grid_n * 8  # 64 grid vectors, whatever the history length


def test_power_law_thinning_builds_one_column_per_cell(monkeypatch):
    vals = 0.2 + 0.4 * np.random.default_rng(0).random((16, 16))
    spec = gh.ModelSpec(
        domain=gh.SpatialDomain((0.0,), (1.0,)),
        baseline=gh.SpatialProfile("constant", value=1.0),
        graphon=gh.PairFunction("grid", values=vals, axis_counts=(16,)),
        excitation=KERNELS["power-law"],
        nonlinearity=Nonlinearity("clipped-linear", cap=3.0),
        c_w=float(vals.max()),
        grid_n=128,
    )
    built = []
    column = gh.ModelSpec.excitation_column
    monkeypatch.setattr(gh.ModelSpec, "excitation_column",
                        lambda self, zs, y: built.append(y) or column(self, zs, y))
    real = simulate_thinning(spec, 100.0, rng=gh.SplitStream(36))
    assert len(real) > 100
    assert len(built) <= 16
