"""Thinning simulation: intensity evaluation, laws, nonlinear rates."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

import graphon_hawkes as gh
from graphon_hawkes import cluster_sim, thinning_sim
from graphon_hawkes.cluster_sim import sample_location, simulate_process
from graphon_hawkes.errors import AcausalHistoryError, ThinningBoundError
from graphon_hawkes.model import Nonlinearity, _cell_index
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
    if family == "rank-one":  # an affine profile of one sign, either one
        sign = 1.0 if values[3] < 0.5 else -1.0
        return gh.PairFunction("rank-one", coeff=float(values[0]), profile=gh.SpatialProfile(
            "affine", intercept=sign * values[1], slope=(sign * values[2],)))
    interp = "pw-constant" if family == "pw-constant" else "bilinear"
    return gh.PairFunction("grid", values=np.reshape(values, (4, 4)), axis_counts=(4,),
                           interp=interp)


def on_standard_grid(state, spec, vals):
    """The state's cell values at every standard-grid node of `spec`; the
    state runs on the model's cells, or on the standard grid without them."""
    n = state.spec.grid_n
    assert n == (spec.form.n or spec.grid_n)
    return vals[_cell_index(spec.std_grid[0], spec.domain, (n,) * spec.domain.dim)]


unit = st.floats(0.0, 1.0)
events = st.tuples(st.floats(0.01, 1.0), unit, st.floats(0.1, 3.0))  # (gap, x, xi)


@settings(max_examples=80)
@given(
    kernel=st.sampled_from(sorted(KERNELS)),
    family=st.sampled_from(["constant", "pw-constant", "bilinear", "rank-one"]),
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
            np.testing.assert_allclose(on_standard_grid(state, spec, lam),
                                       conditional_intensity(spec, snapshot, s),
                                       rtol=1e-12, atol=1e-12)
            assert float(np.sum(lam * state.weights)) <= bound * (1 + 1e-12)
            # an identity f with an exponential h carries the total and forms
            # no cell vector for it; any other model sums the vector it forms
            total, vals = state.total(s)
            assert (vals is None) == (kernel == "exponential" and f == "identity")
            np.testing.assert_allclose(total, lam @ state.weights, rtol=1e-12)
        if x is None:
            break
        t += gap
        state.push(t, np.array([x]), xi)
        times, locs, xis = times + [t], locs + [[x]], xis + [xi]


def _cells(x, counts):
    return min(int(x * counts), counts - 1)


@settings(max_examples=40)
@given(
    kernel=st.sampled_from(sorted(KERNELS)),
    f=st.sampled_from(sorted(NONLINEARITIES)),
    g_values=st.lists(unit, min_size=16, max_size=16),
    b_values=st.lists(st.floats(0.1, 2.0), min_size=4, max_size=4),
    history=st.lists(st.tuples(st.floats(-4.0, -1e-3), unit, st.floats(0.1, 3.0)),
                     max_size=25),
    pushed=st.lists(events, max_size=40),
    fractions=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=3),
)
def test_column_table_matches_direct_sum_with_step_graphon_and_step_marks(
    kernel, f, g_values, b_values, history, pushed, fractions
):
    # two grid key families: a 4-cell graphon and a 2-cell mark profile b
    spec = gh.ModelSpec(
        domain=gh.SpatialDomain((0.0,), (1.0,)),
        baseline=gh.SpatialProfile("constant", value=0.7),
        graphon=_graphon("pw-constant", g_values),
        excitation=KERNELS[kernel],
        marks=gh.MarkModel(kind="scaled-profile", xi_family="exponential",
                           profile=gh.PairFunction("grid", values=np.reshape(b_values, (2, 2)),
                                                   axis_counts=(2,))),
        nonlinearity=NONLINEARITIES[f],
        c_w=1.0,
        grid_n=16,
    )
    times = [s for s, _, _ in history]
    locs = [[x] for _, x, _ in history]
    xis = [xi for _, _, xi in history]
    state = thinning_sim._ThinningState(spec)
    state.load(HistorySnapshot(times=times, locations=locs, mark_scalars=xis, t_ref=0.0))
    t = 0.0
    for gap, x, xi in pushed + [(1.0, None, None)]:
        for frac in sorted(fractions):
            s = t + frac * gap
            snapshot = HistorySnapshot(times=times, locations=locs, mark_scalars=xis,
                                       t_ref=s)
            np.testing.assert_allclose(on_standard_grid(state, spec, state.intensity(s)),
                                       conditional_intensity(spec, snapshot, s),
                                       rtol=1e-12, atol=1e-12)
        if x is None:
            break
        t += gap
        state.push(t, np.array([x]), xi)
        times, locs, xis = times + [t], locs + [[x]], xis + [xi]
    if kernel != "exponential":  # one table column per (graphon cell, b cell) seen
        assert state._k == len({(_cells(y, 4), _cells(y, 2)) for [y] in locs})


@settings(max_examples=60)
@given(
    j=st.integers(0, 10),
    lo=st.floats(-1e3, 1e3),
    width=st.floats(1e-3, 1e3),
    u=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=20),
)
def test_flat_draw_equals_the_inverse_cdf_draw_on_power_of_two_grids(j, lo, width, u):
    domain = gh.SpatialDomain((lo,), (lo + width,))
    u = np.asarray(u)[:, None]
    flat = sample_location(None, domain, u)
    assert np.array_equal(flat, sample_location(np.ones(2**j), domain, u))


def test_flat_model_takes_the_flat_draw_with_unchanged_bytes(monkeypatch):
    spec = gh.constant_model(0.5, grid_n=64)
    before = simulate_thinning(spec, 20.0, rng=gh.SplitStream(7))
    densities = []

    def grid_draw(density, domain, u):  # the inverse-CDF draw the flat one replaces
        densities.append(density)
        return sample_location(np.ones(64) if density is None else density, domain, u)

    monkeypatch.setattr(thinning_sim, "sample_location", grid_draw)
    after = simulate_thinning(spec, 20.0, rng=gh.SplitStream(7))
    assert len(densities) == len(before) > 10
    assert all(d is None for d in densities)
    assert np.array_equal(before.times, after.times)
    assert np.array_equal(before.locations, after.locations)


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


def step_power_law_model(cells=16, grid_n=128):
    vals = 0.2 + 0.4 * np.random.default_rng(0).random((cells, cells))
    return gh.ModelSpec(
        domain=gh.SpatialDomain((0.0,), (1.0,)),
        baseline=gh.SpatialProfile("constant", value=1.0),
        graphon=gh.PairFunction("grid", values=vals, axis_counts=(cells,)),
        excitation=KERNELS["power-law"],
        nonlinearity=Nonlinearity("clipped-linear", cap=3.0),
        c_w=float(vals.max()),
        grid_n=grid_n,
    )


def test_power_law_thinning_memory_is_bounded_by_history_plus_cells():
    # a stack of every history row would take 5,000 x 128 x 8 bytes = 5.1 MB,
    # twice that once the buffer doubles; the column table holds 16 columns
    n, d, grid_n = 5000, 16, 128
    spec = step_power_law_model(d, grid_n)
    gen = np.random.default_rng(0)
    hist = HistorySnapshot(times=-0.5 * n * gen.random(n), locations=gen.random((n, 1)),
                           mark_scalars=np.ones(n), t_ref=0.0)
    tracemalloc.start()
    try:
        simulate_thinning(spec, 5.0, initial=hist, rng=gh.SplitStream(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 8 * (n + d * grid_n)  # 16 vectors of N + d n doubles


def test_power_law_thinning_builds_one_column_per_cell(monkeypatch):
    spec = step_power_law_model()
    built = []
    column = gh.ModelSpec.excitation_column
    monkeypatch.setattr(gh.ModelSpec, "excitation_column",
                        lambda self, zs, y: built.append(y) or column(self, zs, y))
    real = simulate_thinning(spec, 100.0, rng=gh.SplitStream(36))
    assert len(real) > 100
    assert len(built) <= 16


def test_rank_one_power_law_thinning_keeps_one_table_row_per_sign(monkeypatch):
    # W = 1.5 x y is a scale 1.5 y times the shape x: the column table holds
    # that one shape, not a grid column per event, and the run keeps the law
    # of the cluster simulator.  For this kernel K(x, y) = 1.5 x y the
    # descendants of an event at y, itself included, number g(y) = 1 + 1.5 y
    # on average, as does the stationary rate, so Var N_T / T tends to
    # int rate g^2 = ((5/2)^4 - 1) / 6 (the clusters form a compound Poisson
    # count); the band is 4 SEs of the difference of the two means
    spec = dataclasses.replace(gh.rank_one_model(1.5, grid_n=128), excitation=gh.ExcitationKernel(
        "power-law", exponent=2.5, cutoff=1.0, l1=1.0))
    states = []

    class Recorded(thinning_sim._ThinningState):
        def __init__(self, spec):
            super().__init__(spec)
            states.append(self)

    monkeypatch.setattr(thinning_sim, "_ThinningState", Recorded)
    real = simulate_thinning(spec, 400.0, rng=gh.SplitStream(45))
    assert len(real) >= 500 and states[0]._n == len(real)
    assert states[0]._k <= 2
    horizon, reps = 100.0, 30
    s = gh.SplitStream(46)
    thin = [len(simulate_thinning(spec, horizon, rng=s.child(0, i))) for i in range(reps)]
    clus = [len(simulate_process(spec, horizon, s.child(1, i))) for i in range(reps)]
    se = math.sqrt(2 * (2.5**4 - 1) / 6 / (horizon * reps))
    assert abs(np.mean(thin) - np.mean(clus)) / horizon <= 4 * se


def test_history_is_keyed_in_one_call(monkeypatch):
    # the column table keys a whole initial history in one `_cell_index` call
    # and holds what pushing it one event at a time holds
    spec = step_power_law_model()
    gen = np.random.default_rng(3)
    hist = HistorySnapshot(times=-np.sort(gen.random(300))[::-1] * 100,
                           locations=gen.random((300, 1)), mark_scalars=np.ones(300))
    one_by_one = thinning_sim._ThinningState(spec)
    for s, y, xi in zip(hist.times, hist.locations, hist.mark_scalars):
        one_by_one.push(float(s), y, float(xi))
    calls = []
    real = cluster_sim._cell_index
    monkeypatch.setattr(cluster_sim, "_cell_index",
                        lambda pts, *args: calls.append(pts.shape[0]) or real(pts, *args))
    state = thinning_sim._ThinningState(spec)
    state.load(hist)
    assert calls == [300]
    n, k = state._n, state._k
    assert (n, k) == (one_by_one._n, one_by_one._k) == (300, 16)
    assert np.array_equal(state._ids[:n], one_by_one._ids[:n])
    assert np.array_equal(state._table[:k], one_by_one._table[:k])


def test_flat_model_key_builds_no_key_array(monkeypatch):
    columns = cluster_sim.OffspringColumns(gh.constant_model(0.5, grid_n=64))
    monkeypatch.setattr(columns, "_keys", None)  # any key array would fail
    assert columns.form.flat and columns.law_at(np.array([0.3])) == (0, 1.0)


def test_rejected_linear_candidates_form_no_cell_vector(monkeypatch):
    # an identity f with an exponential h carries its total: only an accepted
    # candidate forms the cell vector, to draw its location, and a flat model
    # (one cell) forms none
    step = gh.ModelSpec(
        domain=gh.SpatialDomain((0.0,), (1.0,)),
        baseline=gh.SpatialProfile("constant", value=1.0),
        graphon=_graphon("pw-constant", [0.1 * (i % 7) for i in range(16)]),
        excitation=KERNELS["exponential"],
        c_w=1.0,
        grid_n=64,
    )
    formed, candidates = [], []
    intensity, total = thinning_sim._ThinningState.intensity, thinning_sim._ThinningState.total

    def counting_total(self, t, envelope=False):
        if not envelope:
            candidates.append(t)
        return total(self, t, envelope)

    monkeypatch.setattr(thinning_sim._ThinningState, "total", counting_total)
    monkeypatch.setattr(thinning_sim._ThinningState, "intensity",
                        lambda self, t, envelope=False:
                        formed.append(t) or intensity(self, t, envelope))
    real = simulate_thinning(step, 60.0, rng=gh.SplitStream(8))
    assert len(candidates) > len(real) + 20 and len(real) > 50
    assert formed == real.times.tolist()
    formed.clear()
    assert len(simulate_thinning(gh.constant_model(0.5, grid_n=64), 60.0,
                                 rng=gh.SplitStream(8))) > 50
    assert formed == []


def three_cell_law_pvalue(points, values):
    """Chi^2 p value of the 1-d `points` against the exact law on [0, 1] of
    density values[c] on the c-th of 3 cells, on the pieces between the faces
    of the cells and of the 64-node grid."""
    faces = np.union1d(np.arange(4) / 3, np.arange(65) / 64)
    counts = np.histogram(points, faces)[0]
    mids = 0.5 * (faces[:-1] + faces[1:])
    mass = values[_cell_index(mids[:, None], gh.SpatialDomain((0.0,), (1.0,)), (3,))]
    mass *= np.diff(faces)
    assert counts.sum() == len(points)
    return stats.chisquare(counts, len(points) * mass / mass.sum()).pvalue


def test_three_cell_model_thins_with_the_exact_cell_law():
    # 3 cells do not divide 64 nodes: a density on the grid's nodes gives the
    # cells 21:22:21 nodes, and the nodes next to a cell face carry one
    # cell's value across the whole node cell.  Without excitation the events
    # are Poisson, located by the exact law: uniform in each cell c, with mass
    # lam_c |c|.  Both simulators draw the immigrants.
    lam = np.array([1.0, 2.0, 1.0])
    spec = gh.ModelSpec(
        domain=gh.SpatialDomain((0.0,), (1.0,)),
        baseline=gh.SpatialProfile("grid", values=lam, axis_counts=(3,)),
        graphon=gh.PairFunction("constant", value=0.0),
        excitation=KERNELS["exponential"],
        c_w=0.0,
        grid_n=64,
    )
    for real in (
        simulate_thinning(spec, 15_000.0, rng=gh.SplitStream(37), with_lifetimes=False),
        simulate_process(spec, 15_000.0, gh.SplitStream(37), with_lifetimes=False),
    ):
        assert len(real) > 15_000
        assert three_cell_law_pvalue(real.locations[:, 0], lam) > 1e-3


def test_three_cell_graphon_branches_with_the_exact_cell_law():
    # the children of a parent at y = 0.1 land with density W(., y): the exact
    # law is uniform in each cell c with mass W[c, 0] |c|, which the 64-node
    # grid misses as in the test above
    w = np.array([[0.3, 0.2, 0.4], [0.1, 0.5, 0.2], [0.3, 0.1, 0.3]])
    spec = gh.ModelSpec(
        domain=gh.SpatialDomain((0.0,), (1.0,)),
        baseline=gh.SpatialProfile("constant", value=1.0),
        graphon=gh.PairFunction("grid", values=w, axis_counts=(3,)),
        excitation=KERNELS["exponential"],
        c_w=0.5,
        grid_n=64,
    )
    engine = cluster_sim.ClusterEngine(spec)
    masses, columns = engine.offspring_mass(np.array([[0.1]]))
    assert masses[0] == pytest.approx(w[:, 0].sum() / 3, rel=1e-12)
    children = np.zeros(60_000, dtype=np.int64)
    locs = engine.sample_offspring_locations(columns, children, gh.SplitStream(38).generator())
    assert three_cell_law_pvalue(locs[:, 0], w[:, 0]) > 1e-3
