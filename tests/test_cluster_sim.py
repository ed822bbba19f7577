"""Cluster (branching) simulation: means, laws, sampling and reproducibility."""

import dataclasses
import itertools
import math
import types

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats

import graphon_hawkes as gh
from graphon_hawkes import cluster_sim
from graphon_hawkes.cluster_sim import (
    ClusterEngine,
    population_count,
    sample_location,
    simulate_cluster,
    simulate_process,
)
from graphon_hawkes.errors import (
    DegenerateDensityError,
    InvalidArgumentError,
    NoLifetimesError,
    RequiresThinningError,
)
from graphon_hawkes.model import Nonlinearity, SpatialProfile, _cell_index
from graphon_hawkes.operators import discretize_kernel


def test_pure_poisson_mean_count():
    # W = 0: immigrants only, mean count = alpha * T within 3 se
    spec = gh.constant_model(0.0, grid_n=128)
    s = gh.SplitStream(1)
    counts = [len(simulate_process(spec, 1.0, s.child(i), with_lifetimes=False))
              for i in range(10_000)]
    counts = np.asarray(counts)
    se = counts.std(ddof=1) / math.sqrt(counts.size)
    assert abs(counts.mean() - 1.0) <= 3 * se


def test_zero_baseline_always_empty():
    spec = gh.ModelSpec(
        domain=gh.SpatialDomain((0.0,), (1.0,)),
        baseline=SpatialProfile("constant", value=0.0),
        graphon=gh.PairFunction("constant", value=0.5),
        excitation=gh.ExcitationKernel("exponential", rate=1.0, l1=1.0),
        c_w=0.5,
        grid_n=64,
    )
    s = gh.SplitStream(2)
    assert all(len(simulate_process(spec, 5.0, s.child(i))) == 0 for i in range(50))


def test_single_cluster_mean_progeny():
    # subcritical branching: mean total progeny 1/(1-0.5) = 2 within 3 se
    spec = gh.constant_model(0.5, grid_n=128)
    s = gh.SplitStream(3)
    engine = ClusterEngine(spec)
    sizes = np.asarray(
        [len(simulate_cluster([0.3], 0.0, spec, np.inf, s.child(i), engine=engine))
         for i in range(10_000)]
    )
    se = sizes.std(ddof=1) / math.sqrt(sizes.size)
    assert abs(sizes.mean() - 2.0) <= 3 * se


def test_cluster_root_only_when_w_zero():
    spec = gh.constant_model(0.0, grid_n=64)
    real = simulate_cluster([0.4], 0.0, spec, np.inf, gh.SplitStream(4))
    assert len(real) == 1 and real.generations[0] == 0


def test_cluster_rank_one_zero_column():
    # offspring intensity prop to W(., 0) = 0: root only
    spec = gh.rank_one_model(1.5, grid_n=128)
    real = simulate_cluster([0.0], 0.0, spec, np.inf, gh.SplitStream(5))
    assert len(real) == 1


def test_cluster_generation_means_match_branching():
    # generation-n mean count = 0.5^n for the constant kernel
    spec = gh.constant_model(0.5, grid_n=128)
    s = gh.SplitStream(6)
    engine = ClusterEngine(spec)
    reps = 20_000
    per_gen = np.zeros(5)
    for i in range(reps):
        real = simulate_cluster([0.5], 0.0, spec, np.inf, s.child(i), engine=engine)
        for g in range(1, 5):
            per_gen[g] += np.count_nonzero(real.generations == g)
    for g in range(1, 5):
        mean = per_gen[g] / reps
        se = math.sqrt(0.5**g * (1 + 0.5**g) / reps) + 1e-9  # crude Poissonish se
        assert abs(mean - 0.5**g) <= 4 * se


def test_generation_counts_match_kernel_powers_rank_one():
    # E[gen-n count | root at x0] = column sums of K^n applied to delta_x0
    spec = gh.rank_one_model(1.2, grid_n=128)
    grid = discretize_kernel(spec, 128)
    x0 = 0.75
    j = int(np.argmin(np.abs(grid.nodes[:, 0] - x0)))
    delta = np.zeros(128)
    delta[j] = 1.0 / grid.weights[j]
    expected = []
    vec = delta
    for _ in range(1, 4):
        vec = grid.action @ vec
        expected.append(float(np.sum(vec * grid.weights)))
    s = gh.SplitStream(7)
    engine = ClusterEngine(spec)
    reps = 30_000
    got = np.zeros(4)
    for i in range(reps):
        real = simulate_cluster([x0], 0.0, spec, np.inf, s.child(i), engine=engine)
        for g in range(1, 4):
            got[g] += np.count_nonzero(real.generations == g)
    for g in range(1, 4):
        mean = got[g] / reps
        se = math.sqrt(max(expected[g - 1], 1e-9) * 2 / reps) + 1e-9
        assert abs(mean - expected[g - 1]) <= 4 * se, (g, mean, expected[g - 1])


def test_nonlinear_spec_rejected():
    spec = gh.constant_model(0.5)
    nl = gh.ModelSpec(
        domain=spec.domain, baseline=spec.baseline, graphon=spec.graphon,
        excitation=spec.excitation, nonlinearity=Nonlinearity("clipped-linear", cap=2.0),
        c_w=0.5,
    )
    with pytest.raises(RequiresThinningError):
        simulate_process(nl, 1.0, gh.SplitStream(0))


def test_explosion_guard_flags_partial():
    spec = gh.constant_model(1.5, grid_n=64)
    real = simulate_process(spec, 30.0, gh.SplitStream(8), cap=5000)
    assert real.censored and len(real) <= 5000


def test_sample_location_linear_density():
    dom = gh.SpatialDomain((0.0,), (1.0,))
    dens = 2 * (np.arange(1024) + 0.5) / 1024
    pt = sample_location(dens, dom, np.array([[0.25]]))[0]
    assert abs(pt[0] - 0.5) < 1e-3


def test_sample_location_uniform_identity():
    dom = gh.SpatialDomain((0.0,), (1.0,))
    pt = sample_location(np.ones(1000), dom, np.array([[0.73]]))[0]
    assert abs(pt[0] - 0.73) < 1e-9


def test_sample_location_indicator_support():
    dom = gh.SpatialDomain((0.0,), (1.0,))
    xs = (np.arange(1000) + 0.5) / 1000
    dens = ((xs >= 0.4) & (xs <= 0.6)).astype(float)
    pt = sample_location(dens, dom, np.array([[0.5]]))[0]
    assert abs(pt[0] - 0.5) < 2e-3


def test_sample_location_zero_density():
    dom = gh.SpatialDomain((0.0,), (1.0,))
    with pytest.raises(DegenerateDensityError):
        sample_location(np.zeros(64), dom, np.array([[0.5]]))


def test_sample_location_nan_density():
    dom = gh.SpatialDomain((0.0,), (1.0,))
    with pytest.raises(DegenerateDensityError):
        sample_location(np.array([0.5, np.nan, 1.0]), dom, np.array([[0.5]]))


def test_sample_location_2d_mean():
    dom = gh.SpatialDomain((0.0, 0.0), (1.0, 1.0))
    n = 32
    nodes, _ = dom.grid(n)
    dens = nodes[:, 0] + nodes[:, 1]
    rng = np.random.default_rng(9)
    pts = sample_location(dens, dom, rng.random((4000, 2)))
    # mean of x+y under density prop. to (x+y): E = 7/6 vs uniform 1
    m = (pts[:, 0] + pts[:, 1]).mean()
    assert abs(m - 7 / 6) < 0.02


def test_sample_location_2d_asymmetric_chi_square():
    # x + 3y^2 on [0,1]x[0,2] is not symmetric under swapping the axes, so a
    # transposed (column-major) cell unravel fails this test
    dom = gh.SpatialDomain((0.0, 0.0), (1.0, 2.0))
    nodes, _ = dom.grid(16)
    dens = nodes[:, 0] + 3 * nodes[:, 1] ** 2
    pts = sample_location(dens, dom, np.random.default_rng(31).random((200_000, 2)))
    assert ((pts >= dom.lo) & (pts <= dom.hi)).all()
    obs = np.bincount(_cell_index(pts, dom, (16, 16)), minlength=256)
    p = stats.chisquare(obs, dens / dens.sum() * pts.shape[0]).pvalue
    assert p > 0.001


@st.composite
def grid_densities(draw):
    """(domain, density with some zero cells and positive total, uniforms)."""
    m = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(1, 24 if m == 1 else 6))
    lo = draw(st.lists(st.floats(-5, 5), min_size=m, max_size=m))
    span = draw(st.lists(st.floats(0.1, 10), min_size=m, max_size=m))
    dens = np.array(draw(st.lists(st.just(0.0) | st.floats(0.0, 1e3, exclude_min=True),
                                  min_size=n**m, max_size=n**m)))
    assume(dens.sum() > 0)
    u = draw(hnp.arrays(float, (draw(st.integers(1, 20)), m),
                        elements=st.floats(0, 1, exclude_max=True)))
    return gh.SpatialDomain(tuple(lo), tuple(a + b for a, b in zip(lo, span))), dens, u


@settings(max_examples=300)
@given(grid_densities())
# u * total reaches past cum[-1] (pairwise sum vs sequential cumsum) before a
# zero cell: the draw must stop at the last positive cell
@example((gh.SpatialDomain((0.0,), (1.0,)), np.r_[np.full(10, 0.7), 0.0],
          np.array([[np.nextafter(1.0, 0.0)]])))
# a positive density whose cell masses underflow unless normalised first
@example((gh.SpatialDomain((0.0,), (1.0,)), np.array([0.0, 0.0, 0.0, 5e-324]),
          np.array([[0.5]])))
def test_sample_location_lands_in_positive_cells(case):
    dom, dens, u = case
    m, n = dom.dim, round(dens.size ** (1 / dom.dim))
    pts = sample_location(dens, dom, u)
    assert pts.shape == u.shape
    assert ((pts >= dom.lo) & (pts <= dom.hi)).all()
    # a point on a shared cell face belongs to both cells (a null set)
    r = (pts - dom.lo) / (dom.hi - dom.lo) * n
    near = [np.clip(np.floor(r + s), 0, n - 1).astype(int) for s in (-1e-9, 1e-9)]
    for i in range(pts.shape[0]):
        cells = itertools.product(*[{int(c[i, a]) for c in near} for a in range(m)])
        assert any(dens[np.ravel_multi_index(c, (n,) * m)] > 0 for c in cells)
    if m == 1:
        order = np.argsort(u[:, 0], kind="stable")
        assert (np.diff(pts[order, 0]) >= 0).all()


def _chi_square_4x4(pts, spec, density):
    """p-value of 2-d points against a density on the standard grid, binned 4x4."""
    nodes, _ = spec.std_grid
    cells = _cell_index(nodes, spec.domain, (4, 4))
    probs = np.bincount(cells, weights=density, minlength=16) / density.sum()
    obs = np.bincount(_cell_index(pts, spec.domain, (4, 4)), minlength=16)
    return stats.chisquare(obs, probs * pts.shape[0]).pvalue


def model_2d(graphon, baseline=SpatialProfile("constant", value=1.0)):
    return gh.ModelSpec(
        domain=gh.SpatialDomain((0.0, 0.0), (1.0, 1.0)),
        baseline=baseline,
        graphon=graphon,
        excitation=gh.ExcitationKernel("exponential", rate=1.0, l1=1.0),
        c_w=1.0,
        grid_n=32,
    )


def test_2d_immigrants_chi_square_affine_baseline():
    spec = model_2d(gh.PairFunction("constant", value=0.0),
                    SpatialProfile("affine", intercept=0.5, slope=(1.0, 3.0)))
    engine = ClusterEngine(spec)
    pts = engine.sample_immigrant_locations(50_000, gh.SplitStream(41).generator())
    assert _chi_square_4x4(pts, spec, spec.baseline_on(spec.std_grid[0])) > 0.001


def test_2d_step_graphon_offspring_chi_square():
    vals = np.random.default_rng(42).uniform(0.1, 1.0, (4, 4))  # 2x2 cells per axis
    spec = model_2d(gh.PairFunction("grid", values=vals, axis_counts=(2, 2)))
    engine = ClusterEngine(spec)
    parents = np.array([[0.2, 0.7], [0.8, 0.3]])
    rep = np.repeat([0, 1], 30_000)
    _, cols = engine.offspring_mass(parents)
    pts = engine.sample_offspring_locations(cols, rep, gh.SplitStream(42).generator())
    assert len(engine._columns) == 2  # per-parent column path, keyed by cell
    nodes, _ = spec.std_grid
    for p in range(2):
        col = spec.excitation_column(nodes, parents[p])
        assert _chi_square_4x4(pts[rep == p], spec, col) > 0.001


def test_2d_rank_one_offspring_chi_square_separable():
    prof = SpatialProfile("affine", intercept=0.2, slope=(1.0, 2.0))
    spec = model_2d(gh.PairFunction("rank-one", coeff=0.3, profile=prof))
    engine = ClusterEngine(spec)
    parents = np.array([[0.1, 0.9], [0.6, 0.4]])
    rep = np.repeat([0, 1], 30_000)
    mass, cols = engine.offspring_mass(parents)
    pts = engine.sample_offspring_locations(cols, rep, gh.SplitStream(43).generator())
    assert cols is None and len(engine._columns) == 0  # separable: no columns
    nodes, weights = spec.std_grid
    for p in range(2):
        col = spec.excitation_column(nodes, parents[p])
        assert mass[p] == pytest.approx(np.sum(col * weights), rel=1e-12)
        assert _chi_square_4x4(pts[rep == p], spec, col) > 0.001


def test_population_count_mginfty_mean():
    # W = 0, J ~ Exp(1): alive-count mean at t=2 is 1 - e^{-2}
    spec = gh.constant_model(0.0, grid_n=64)
    s = gh.SplitStream(10)
    vals = np.asarray(
        [population_count(simulate_process(spec, 2.0, s.child(i)), 2.0)
         for i in range(10_000)]
    )
    target = 1 - math.exp(-2)
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - target) <= 3 * se


def test_population_count_at_zero_and_empty_box():
    spec = gh.constant_model(0.5, grid_n=64)
    real = simulate_process(spec, 2.0, gh.SplitStream(11))
    assert population_count(real, 0.0) == 0
    assert population_count(real, 1.0, box=((0.7,), (0.2,))) == 0


def test_population_count_requires_lifetimes():
    spec = gh.constant_model(0.5, grid_n=64)
    real = simulate_process(spec, 2.0, gh.SplitStream(12), with_lifetimes=False)
    if len(real):
        with pytest.raises(NoLifetimesError):
            population_count(real, 1.0)


def test_immigrant_spatial_chi_square():
    # empirical immigrant locations vs lam_inf / alpha over 20 bins
    spec = gh.ModelSpec(
        domain=gh.SpatialDomain((0.0,), (1.0,)),
        baseline=SpatialProfile("affine", intercept=0.5, slope=(1.0,)),
        graphon=gh.PairFunction("constant", value=0.0),
        excitation=gh.ExcitationKernel("exponential", rate=1.0, l1=1.0),
        c_w=0.0,
        grid_n=512,
    )
    engine = ClusterEngine(spec)
    rng = gh.SplitStream(13).generator()
    pts = engine.sample_immigrant_locations(100_000, rng)[:, 0]
    edges = np.linspace(0, 1, 21)
    obs, _ = np.histogram(pts, edges)
    cdf = 0.5 * edges + 0.5 * edges**2  # integral of 0.5 + x
    expected = np.diff(cdf) / cdf[-1] * pts.size
    p = stats.chisquare(obs, expected).pvalue
    assert p > 0.001


def test_sampling_lemma_mixture_equivalence():
    # two-stage mixture selection vs direct sampling from lam1 + lam2
    dom = gh.SpatialDomain((0.0,), (1.0,))
    xs = (np.arange(1024) + 0.5) / 1024
    lam1 = 1.0 + np.sin(2 * np.pi * xs) ** 2
    lam2 = 2.0 * xs
    rng = np.random.default_rng(21)
    n = 100_000
    direct = sample_location(lam1 + lam2, dom, rng.random((n, 1)))[:, 0]
    m1, m2 = lam1.sum(), lam2.sum()
    pick = rng.random(n) < m1 / (m1 + m2)
    two_stage = np.empty(n)
    two_stage[pick] = sample_location(lam1, dom, rng.random((int(pick.sum()), 1)))[:, 0]
    two_stage[~pick] = sample_location(lam2, dom, rng.random((int((~pick).sum()), 1)))[:, 0]
    edges = np.linspace(0, 1, 21)
    obs1, _ = np.histogram(direct, edges)
    obs2, _ = np.histogram(two_stage, edges)
    p = stats.chi2_contingency(np.vstack([obs1, obs2])).pvalue
    assert p > 0.001


def test_bit_reproducible_across_runs():
    spec = gh.rank_one_model(1.2, grid_n=128)
    a = simulate_process(spec, 4.0, gh.SplitStream(99).child(5))
    b = simulate_process(spec, 4.0, gh.SplitStream(99).child(5))
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.locations, b.locations)
    assert np.array_equal(a.lifetimes, b.lifetimes)
    assert np.array_equal(a.parent_ids, b.parent_ids)


def test_same_stream_object_repeats_the_replication():
    spec = gh.constant_model(0.5, grid_n=64)
    stream = gh.SplitStream(5)
    a = simulate_process(spec, 10.0, stream)
    b = simulate_process(spec, 10.0, stream)
    assert len(a) > 0 and np.array_equal(a.times, b.times)
    assert np.array_equal(a.locations, b.locations)


def test_same_stream_object_repeats_the_cluster():
    spec = gh.constant_model(0.5, grid_n=64)
    stream = gh.SplitStream(5)
    a = simulate_cluster([0.3], 0.0, spec, 50.0, stream)
    b = simulate_cluster([0.3], 0.0, spec, 50.0, stream)
    assert len(a) > 1 and np.array_equal(a.times, b.times)
    assert np.array_equal(a.locations, b.locations)


def test_cluster_cap_below_one_is_refused():
    # a cluster always holds its root, so no cap below 1 can be met
    spec = gh.constant_model(0.5, grid_n=64)
    with pytest.raises(InvalidArgumentError):
        simulate_cluster([0.3], 0.0, spec, 50.0, gh.SplitStream(5), cap=0)
    assert len(simulate_cluster([0.3], 0.0, spec, 50.0, gh.SplitStream(5), cap=1)) == 1


def test_realization_invariants():
    spec = gh.constant_model(0.5, grid_n=128)
    real = simulate_process(spec, 5.0, gh.SplitStream(14))
    assert (np.diff(real.times) >= 0).all()
    assert real.times.min(initial=1.0) > 0 and real.times.max(initial=0.0) <= 5.0
    for i in range(len(real)):
        pid = real.parent_ids[i]
        assert (pid == -1) == (real.generations[i] == 0)
        if pid >= 0:
            j = int(np.nonzero(real.ids == pid)[0][0])
            assert real.times[j] < real.times[i]


def test_ndjson_roundtrip():
    spec = gh.constant_model(0.5, grid_n=128)
    real = simulate_process(spec, 3.0, gh.SplitStream(15))
    back = gh.Realization.from_ndjson(real.to_ndjson(), horizon=3.0)
    assert np.array_equal(back.times, real.times)
    assert np.array_equal(back.locations, real.locations)
    assert np.array_equal(back.parent_ids, real.parent_ids)


def step_model(grid_n=128):
    vals = 0.2 + 0.4 * np.random.default_rng(0).random((16, 16))  # rho <= 0.6
    return gh.ModelSpec(
        domain=gh.SpatialDomain((0.0,), (1.0,)),
        baseline=SpatialProfile("constant", value=1.0),
        graphon=gh.PairFunction("grid", values=vals, axis_counts=(16,)),
        excitation=gh.ExcitationKernel("exponential", rate=1.0, l1=1.0),
        c_w=float(vals.max()),
        grid_n=grid_n,
    )


def test_column_cache_holds_one_column_per_cell_for_step_graphon():
    spec = step_model()
    engine = ClusterEngine(spec)
    real = simulate_process(spec, 100.0, gh.SplitStream(21), engine=engine,
                            with_lifetimes=False)
    assert len(real) > 100
    assert len(engine._columns) <= 16
    # built per parent instead, the same stream gives the same events
    by_parent = ClusterEngine(spec)
    by_parent._key_counts = None
    again = simulate_process(spec, 100.0, gh.SplitStream(21), engine=by_parent,
                             with_lifetimes=False)
    assert np.array_equal(real.times, again.times)
    assert np.array_equal(real.locations, again.locations)


def test_smooth_graphon_engine_keeps_no_columns():
    # bilinear columns depend on the parent's exact location: one generation
    # builds them, and none outlives the branching call
    vals = 0.2 + 0.4 * np.random.default_rng(1).random((8, 8))
    spec = gh.ModelSpec(
        domain=gh.SpatialDomain((0.0,), (1.0,)),
        baseline=SpatialProfile("constant", value=1.0),
        graphon=gh.PairFunction("grid", values=vals, axis_counts=(8,), interp="bilinear"),
        excitation=gh.ExcitationKernel("exponential", rate=1.0, l1=1.0),
        c_w=float(vals.max()),
        grid_n=64,
    )
    engine = ClusterEngine(spec)
    reals = [simulate_process(spec, 50.0, gh.SplitStream(22).child(i), engine=engine)
             for i in range(2)]
    assert all((r.generations > 0).any() for r in reals)
    assert engine._columns == {}


def step_marked_model():
    """step_model() with a 4-cell step mark profile: two grid families."""
    b = gh.PairFunction("grid", values=0.5 + np.random.default_rng(3).random((4, 4)),
                        axis_counts=(4,))
    return dataclasses.replace(step_model(64), marks=gh.MarkModel(kind="scaled-profile",
                                                                  profile=b))


def step_model_2d():
    vals = 0.1 + 0.2 * np.random.default_rng(4).random((16, 16))  # 4x4 cells
    return model_2d(gh.PairFunction("grid", values=vals, axis_counts=(4, 4)))


def bilinear_model():
    vals = 0.2 + 0.4 * np.random.default_rng(1).random((8, 8))
    return dataclasses.replace(step_model(64), graphon=gh.PairFunction(
        "grid", values=vals, axis_counts=(8,), interp="bilinear"))


@pytest.mark.parametrize("model, families", [(step_model, 1), (step_marked_model, 2)])
def test_one_generation_keys_once_and_draws_once_per_source_cell(monkeypatch, model, families):
    # 240 parents over the 16 source cells of a step graphon: one key lookup
    # per grid family, one location draw per source cell that has children
    spec = model()
    engine = ClusterEngine(spec)
    xs = np.random.default_rng(5).random((240, 1))
    calls = {"key": 0, "draw": 0, "uniforms": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(cluster_sim, "_cell_index", counted("key", cluster_sim._cell_index))
    monkeypatch.setattr(cluster_sim, "sample_location",
                        counted("draw", cluster_sim.sample_location))
    masses, columns = engine.offspring_mass(xs)
    assert calls["key"] == families
    counts = np.random.default_rng(6).poisson(4 * masses)
    rng = types.SimpleNamespace(random=counted("uniforms", np.random.default_rng(7).random))
    engine.sample_offspring_locations(columns, np.repeat(np.arange(240), counts), rng)
    assert calls["uniforms"] == 1
    cells = np.unique(_cell_index(xs[counts > 0], spec.domain, (16,)))
    assert 1 < calls["draw"] <= cells.size < (counts > 0).sum()


GENERATION_MODELS = {
    "1-d step": step_model(64),
    "1-d step, step marks": step_marked_model(),
    "2-d step": step_model_2d(),
    "1-d bilinear": bilinear_model(),
}
# cell faces of every model's grids, the domain boundary included
FACES = sorted({i / n for n in (4, 8, 16) for i in range(n + 1)})


@st.composite
def generations(draw):
    """(model, parents, children per parent, child order, seed)."""
    name = draw(st.sampled_from(sorted(GENERATION_MODELS)))
    m = GENERATION_MODELS[name].domain.dim
    k = draw(st.integers(1, 40))
    coord = st.sampled_from(FACES) | st.floats(0.0, 1.0)
    xs = np.array(draw(st.lists(st.lists(coord, min_size=m, max_size=m),
                                min_size=k, max_size=k)))
    counts = np.array(draw(st.lists(st.integers(0, 4), min_size=k, max_size=k)))
    perm = np.array(draw(st.permutations(range(int(counts.sum())))), dtype=np.int64)
    return name, xs, counts, perm, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(generations())
def test_grouped_offspring_draw_equals_per_parent_draws_bit_for_bit(case):
    name, xs, counts, perm, seed = case
    spec = GENERATION_MODELS[name]
    engine = ClusterEngine(spec)
    m = spec.domain.dim
    parent_idx = np.repeat(np.arange(xs.shape[0]), counts)[perm]  # unsorted
    masses, columns = engine.offspring_mass(xs)
    gen = np.random.Generator(np.random.Philox(seed))
    out = engine.sample_offspring_locations(columns, parent_idx, gen)
    # the reference: one column and one uniform block per parent, in
    # ascending parent order, each child in stable order
    nodes, weights = spec.std_grid
    rng = np.random.Generator(np.random.Philox(seed))
    ref = np.empty((parent_idx.size, m))
    order = np.argsort(parent_idx, kind="stable")
    for p, y in enumerate(xs):
        col = np.maximum(spec.excitation_column(nodes, y), 0.0)
        assert masses[p] == float(np.sum(col * weights))
        span = order[parent_idx[order] == p]
        if span.size:
            ref[span] = sample_location(col, spec.domain, rng.random((span.size, m)))
    assert out.tobytes() == ref.tobytes()
    assert gen.random() == rng.random()  # both consumed the same doubles


def test_cap_below_immigrant_count_keeps_earliest_immigrants():
    # W = 0: about 200 immigrants and no offspring, so a cap of 50 cuts
    # the immigrant stream itself
    spec = gh.constant_model(0.0, grid_n=64)
    full = simulate_process(spec, 200.0, gh.SplitStream(23))
    real = simulate_process(spec, 200.0, gh.SplitStream(23), cap=50)
    assert len(full) > 50 and not full.censored
    assert real.censored and len(real) == 50
    assert np.array_equal(real.times, full.times[:50])


REALIZATION_MODELS = {
    "const": lambda: gh.constant_model(0.5, grid_n=64),
    "rank1": lambda: gh.rank_one_model(1.2, grid_n=64),
    "step16": lambda: step_model(grid_n=64),
}


def _check_realization(real, t0, horizon, cap):
    n = len(real)
    assert n <= cap and (not real.censored or n == cap)
    t = real.times
    assert (np.diff(t) >= 0).all() and ((t >= t0) & (t <= horizon)).all()
    assert np.unique(real.ids).size == n
    child = np.nonzero(real.parent_ids >= 0)[0]
    pos = {int(e): i for i, e in enumerate(real.ids)}
    parent = np.array([pos[int(p)] for p in real.parent_ids[child]], dtype=np.int64)
    assert (parent < child).all() and (t[parent] <= t[child]).all()
    assert (real.generations[child] == real.generations[parent] + 1).all()
    assert (np.delete(real.generations, child) == 0).all()
    back = gh.Realization.from_ndjson(real.to_ndjson(), horizon=horizon)
    for name in ("times", "locations", "generations", "parent_ids", "mark_scalars",
                 "lifetimes", "ids"):
        a, b = getattr(back, name), getattr(real, name)
        assert a.shape == b.shape and a.dtype == b.dtype
        assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), name


@settings(max_examples=60)
@given(model=st.sampled_from(sorted(REALIZATION_MODELS)),
       seed=st.integers(0, 2**32 - 1),
       horizon=st.floats(0.1, 30.0),
       cap=st.integers(0, 80),
       x0=st.floats(0.0, 1.0),
       t0_frac=st.floats(0.0, 1.0),
       lifetimes=st.booleans())
def test_realization_invariants_hold_for_every_model_and_cap(
        model, seed, horizon, cap, x0, t0_frac, lifetimes):
    spec = REALIZATION_MODELS[model]()
    real = simulate_process(spec, horizon, gh.SplitStream(seed), with_lifetimes=lifetimes,
                            cap=cap)
    _check_realization(real, 0.0, horizon, cap)
    t0 = t0_frac * horizon
    one = simulate_cluster([x0], t0, spec, horizon, gh.SplitStream(seed),
                           with_lifetimes=lifetimes, cap=max(cap, 1))
    _check_realization(one, t0, horizon, max(cap, 1))
    assert one.generations[0] == 0 and one.times[0] == t0
