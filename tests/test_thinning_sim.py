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
from graphon_hawkes.errors import (
    AcausalHistoryError,
    InvalidArgumentError,
    OutOfDomainError,
    ShapeError,
    ThinningBoundError,
)
from graphon_hawkes.model import Nonlinearity, _cell_index
from graphon_hawkes.thinning_sim import HistorySnapshot, _check_history, simulate_thinning


def conditional_intensity(spec: gh.ModelSpec, history: HistorySnapshot, t: float) -> np.ndarray:
    """lambda_t on the standard grid given the history before t, summed event
    by event: the direct-sum oracle of the carried excitation."""
    _check_history(spec, history)
    if history.times.size and history.times.max() > t:
        raise AcausalHistoryError("history contains events after the evaluation time")
    nodes, _ = spec.std_grid
    total = spec.baseline_on(nodes).astype(float)
    past = history.times < t
    for s, y, xi in zip(
        history.times[past], history.locations[past], history.mark_scalars[past]
    ):
        total += xi * spec.excitation_column(nodes, y) * float(spec.excitation.h(t - s))
    return spec.nonlinearity(total)


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


def test_history_snapshot_needs_one_mark_scalar_per_event():
    with pytest.raises(ShapeError):
        HistorySnapshot(times=[-2.0, -1.0], locations=[[0.5]] * 2, mark_scalars=[1.0])


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


@pytest.mark.parametrize("times,locations,marks,error", [
    ([-1.0, math.nan], [[0.5]] * 2, [1.0] * 2, InvalidArgumentError),
    ([-math.inf, -1.0], [[0.5]] * 2, [1.0] * 2, InvalidArgumentError),
    ([-2.0, -1.0], [[0.5]] * 2, [1.0, math.nan], InvalidArgumentError),
    ([-2.0, -1.0], [[0.5]] * 2, [1.0, -0.5], InvalidArgumentError),
    ([-2.0, -1.0], [[0.5, 0.5]] * 2, [1.0] * 2, ShapeError),
    ([-2.0, -1.0], [[0.5], [5.0]], [1.0] * 2, OutOfDomainError),
], ids=["nan-time", "minus-inf-time", "nan-mark", "negative-mark", "2-d", "outside"])
def test_a_history_the_model_cannot_read_is_refused(times, locations, marks, error):
    # each was read before: a NaN or -inf time ended in a NaN bound, a 2-d
    # history ran a 1-d model, and points at x = 5 extrapolated the graphon
    spec = gh.rank_one_model(1.5, grid_n=64)
    hist = HistorySnapshot(times=times, locations=locations, mark_scalars=marks, t_ref=0.0)
    with pytest.raises(error):
        simulate_thinning(spec, 5.0, initial=hist, rng=gh.SplitStream(0))
    with pytest.raises(error):
        conditional_intensity(spec, hist, 0.0)


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
    # a one-cell run places its events as lo + u (hi - lo) itself; a state
    # that does not say it is flat draws them through `sample_point`, here
    # the 64-node inverse-CDF draw, and every byte stays the same
    spec = gh.constant_model(0.5, grid_n=64)
    before = simulate_thinning(spec, 20.0, rng=gh.SplitStream(7))
    densities = []

    def grid_draw(density, domain, u):  # the inverse-CDF draw the flat one replaces
        densities.append(density)
        return sample_location(np.ones(64), domain, u[None, :])[0]

    class Unflat(thinning_sim._ThinningState):
        def __init__(self, spec):
            super().__init__(spec)
            self.flat = False

    monkeypatch.setattr(thinning_sim, "sample_point", grid_draw)
    monkeypatch.setattr(thinning_sim, "_ThinningState", Unflat)
    after = simulate_thinning(spec, 20.0, rng=gh.SplitStream(7))
    assert len(densities) == len(before) > 10
    assert all(d.shape == (1,) for d in densities)
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


def _held(state, t):
    """The bytes of everything a column-table state holds, and what it reads
    at t and after it."""
    n, k = state._n, state._k
    totals = [(state.total(s)[0], state.total(s)[1].tobytes(), state.total_bound(s))
              for s in (t, t + 0.25, t + 3.0)]
    return ((n, k, state._unit, dict(state._row_of)),
            tuple(a[:n].tobytes() for a in (state._times, state._event_w, state._ids)),
            state._table[:k].tobytes(), totals)


@pytest.mark.parametrize("kernel", ["power-law", "table"])
@pytest.mark.parametrize("family", ["pw-constant", "rank-one", "bilinear"])  # key, sign, none
@pytest.mark.parametrize("events,marked", [(0, False), (1, False), (1, True), (60, False),
                                           (60, True)])
def test_a_loaded_history_leaves_the_state_of_one_push_per_event(kernel, family, events,
                                                                  marked):
    spec = gh.ModelSpec(
        domain=gh.SpatialDomain((0.0,), (1.0,)),
        baseline=gh.SpatialProfile("constant", value=0.7),
        graphon=_graphon(family, [0.05 + 0.1 * (i % 7) for i in range(16)]),
        excitation=KERNELS[kernel],
        nonlinearity=NONLINEARITIES["clipped-linear"],
        c_w=1.0,
        grid_n=16,
    )
    gen = np.random.default_rng([events, marked])
    hist = HistorySnapshot(times=-20 * gen.random(events), locations=gen.random((events, 1)),
                           mark_scalars=0.1 + 3 * gen.random(events) if marked
                           else np.ones(events))
    loaded, pushed = thinning_sim._ThinningState(spec), thinning_sim._ThinningState(spec)
    loaded.load(hist)
    for s, y, xi in zip(hist.times, hist.locations, hist.mark_scalars):
        pushed.push(float(s), y, float(xi))
    assert loaded._unit == bool((loaded._event_w[:loaded._n] == 1.0).all())
    last = float(hist.times[-1]) if events else -1.0  # probed at the last event and after
    assert _held(loaded, last) == _held(pushed, last)
    # and the events accepted after it
    xi = 2.0 if marked else 1.0
    for state in (loaded, pushed):
        state.push(3.5, np.array([0.3]), xi)
        state.push(3.9, np.array([0.8]), 1.0)
    # at an event's own time its kernel value is masked: lambda is left-continuous
    snapshot = HistorySnapshot(times=[*hist.times, 3.5, 3.9],
                               locations=[*hist.locations, [0.3], [0.8]],
                               mark_scalars=[*hist.mark_scalars, xi, 1.0], t_ref=4.0)
    np.testing.assert_allclose(on_standard_grid(loaded, spec, loaded.intensity(3.9)),
                               conditional_intensity(spec, snapshot, 3.9), rtol=1e-12, atol=1e-12)
    assert _held(loaded, 3.9) == _held(pushed, 3.9)


@settings(max_examples=60)
@given(
    law=st.sampled_from(["flat", "rank-one", "no-key"]),
    w=st.floats(0.05, 0.9),
    rate=st.floats(0.1, 5.0),
    history=st.lists(st.tuples(st.floats(-4.0, -1e-3), unit, st.floats(0.0, 3.0)), max_size=10),
    pushed=st.lists(st.tuples(st.floats(1e-3, 2.0), unit, st.floats(0.0, 3.0)), max_size=30),
)
def test_one_cell_linear_pushes_equal_the_general_recursion(law, w, rate, history, pushed):
    # a one-cell linear push is the float recursion on the one cell's mass,
    # bit for bit what `_push` does with the law's key and scale; a rank-one
    # or no-key law on one node keeps its scale or column of y, so it takes
    # `_push` itself
    kernel = gh.ExcitationKernel("exponential", rate=rate, l1=0.9)
    model = gh.constant_model(w, grid_n=64) if law == "flat" else gh.rank_one_model(w, grid_n=1)
    if law == "no-key":
        model = dataclasses.replace(model, graphon=_graphon("bilinear", [w * (1 + i % 3) / 3
                                                                        for i in range(16)]))
    spec = dataclasses.replace(model, excitation=kernel)
    flat, general = thinning_sim._ThinningState(spec), thinning_sim._ThinningState(spec)
    assert flat.flat and (flat._s is None) == (law == "flat")
    general._s = np.zeros(1)  # the array recursion of every other law
    snapshot = HistorySnapshot(times=[s for s, _, _ in history],
                               locations=[[y] for _, y, _ in history],
                               mark_scalars=[xi for _, _, xi in history])
    flat.load(snapshot)
    for s, y, xi in zip(snapshot.times, snapshot.locations, snapshot.mark_scalars):
        general._push(float(s), y, float(xi), *general._engine.law_at(y))
    assert (flat._s_total, flat._t_ref) == (general._s_total, general._t_ref)
    t, past = 0.0, list(history)
    for gap, y, xi in pushed:
        t += gap
        y = np.array([y])
        flat.push(t, y, xi)
        general._push(t, y, xi, *general._engine.law_at(y))
        past.append((t, y[0], xi))
        assert (flat._s_total, flat._t_ref) == (general._s_total, general._t_ref)
        assert flat.total_bound(t) == general.total(t, envelope=True)[0]
        assert flat.total(t + gap)[0] == general.total(t + gap)[0]
    # and the direct sum over every event, each with its own scale
    later = HistorySnapshot(times=[s for s, _, _ in past], locations=[[y] for _, y, _ in past],
                            mark_scalars=[xi for _, _, xi in past], t_ref=t + 1.0)
    oracle = conditional_intensity(spec, later, t + 0.5) @ spec.std_grid[1]
    assert flat.total(t + 0.5)[0] == pytest.approx(oracle, rel=1e-9, abs=1e-12)


def test_a_bound_at_a_candidates_time_reuses_its_kernel_values(monkeypatch):
    # a bound right after a candidate at t evaluates h only at the events
    # pushed at t, none after a rejection, and equals, bit for bit, the bound
    # of a state that evaluates every event at once
    spec = step_power_law_model()
    gen = np.random.default_rng(5)
    hist = HistorySnapshot(times=-np.sort(gen.random(200))[::-1] * 50,
                           locations=gen.random((200, 1)), mark_scalars=np.ones(200))
    state, fresh = thinning_sim._ThinningState(spec), thinning_sim._ThinningState(spec)
    state.load(hist)
    fresh.load(hist)
    sizes = []
    h = gh.ExcitationKernel.h
    monkeypatch.setattr(gh.ExcitationKernel, "h",
                        lambda self, lags: sizes.append(np.size(lags)) or h(self, lags))
    state.total(0.5)  # a candidate, accepted
    state.push(0.5, np.array([0.3]), 1.5)
    bound = state.total_bound(0.5)
    state.total(0.8)  # a candidate, rejected
    refreshed = state.total_bound(0.8)
    assert sizes == [200, 1, 201]
    fresh.push(0.5, np.array([0.3]), 1.5)
    assert bound == fresh.total_bound(0.5)
    assert refreshed == fresh.total_bound(0.8)


def test_flat_model_key_builds_no_key_array(monkeypatch):
    engine = cluster_sim.ClusterEngine(gh.constant_model(0.5, grid_n=64))
    monkeypatch.setattr(cluster_sim, "_cell_index", None)  # any key array would fail
    assert engine.form.flat and engine.law_at(np.array([0.3])) == (0, 1.0)


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
    locs = engine.place_offspring(columns, children,
                                  gh.SplitStream(38).generator().random((children.size, 1)))
    assert three_cell_law_pvalue(locs[:, 0], w[:, 0]) > 1e-3
