"""Cluster (branching) simulation: means, laws, sampling and reproducibility."""

import dataclasses
import itertools
import json
import math
import sys
import types

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats

import graphon_hawkes as gh
from graphon_hawkes import cluster_sim, limits, prelimit
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
from graphon_hawkes.limits import flln_experiment
from graphon_hawkes.operators import discretize_kernel
from graphon_hawkes.prelimit import average_model, build_partition, simulate_coupled
from graphon_hawkes.thinning_sim import simulate_thinning


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
    sizes = np.asarray(
        [len(simulate_cluster([0.3], 0.0, spec, np.inf, s.child(i))) for i in range(10_000)]
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
    reps = 20_000
    per_gen = np.zeros(5)
    for i in range(reps):
        real = simulate_cluster([0.5], 0.0, spec, np.inf, s.child(i))
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
    reps = 30_000
    got = np.zeros(4)
    for i in range(reps):
        real = simulate_cluster([x0], 0.0, spec, np.inf, s.child(i))
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
# the largest uniform below 1 in the last cell: i + u rounds to n, and
# n * width lands past hi
@example((gh.SpatialDomain((0.0, 0.0), (1.0, 0.88060495211218)), np.r_[np.zeros(35), 1.0],
          np.full((1, 2), np.nextafter(1.0, 0.0))))
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
    # a positive profile, and a nonpositive one whose every scale is negative
    for intercept, slope, sign_key in ((0.2, (1.0, 2.0), 0), (-0.2, (-1.0, -2.0), 1)):
        prof = SpatialProfile("affine", intercept=intercept, slope=slope)
        spec = model_2d(gh.PairFunction("rank-one", coeff=0.3, profile=prof))
        engine = ClusterEngine(spec)
        parents = np.array([[0.1, 0.9], [0.6, 0.4]])
        rep = np.repeat([0, 1], 30_000)
        mass, cols = engine.offspring_mass(parents)
        pts = engine.sample_offspring_locations(cols, rep, gh.SplitStream(43).generator())
        # one shape per sign present, keyed by that sign
        assert len(cols[0]) == 1 and list(engine._columns) == [sign_key]
        nodes, weights = spec.std_grid
        for p in range(2):
            col = spec.excitation_column(nodes, parents[p])
            assert mass[p] == pytest.approx(np.sum(col * weights), rel=1e-12)
            assert _chi_square_4x4(pts[rep == p], spec, col) > 0.001


def test_nonpositive_rank_one_profile_branches_at_the_stationary_rate():
    # W = 0.5 (-1)(-1) = 0.5: every scale s(y) = 0.5 * -1 is negative, and
    # the column is |s| max(-a, 0) = 0.5.  From an empty history at rate
    # lambda = 1 with h = e^{-t}, E N_T / T = lambda/(1-w) - lambda w
    # (1 - e^{-(1-w)T}) / ((1-w)^2 T), and Var N_T / T tends to
    # lambda/(1-w)^3 = 8 (Hawkes 1971): the band is 4 of those SEs
    prof = SpatialProfile("affine", intercept=-1.0, slope=(0.0,))
    spec = dataclasses.replace(
        gh.constant_model(0.5, grid_n=64),
        graphon=gh.PairFunction("rank-one", coeff=0.5, profile=prof))
    assert gh.validate_model(spec) == []
    horizon, reps, w = 200.0, 20, 0.5
    mean = 1 / (1 - w) - w * (1 - math.exp(-(1 - w) * horizon)) / ((1 - w) ** 2 * horizon)
    se = math.sqrt(1 / (1 - w) ** 3 / (horizon * reps))
    s = gh.SplitStream(44)
    for simulate in (lambda i: simulate_process(spec, horizon, s.child(0, i)),
                     lambda i: simulate_thinning(spec, horizon, rng=s.child(1, i))):
        rates = [len(simulate(i)) / horizon for i in range(reps)]
        assert abs(np.mean(rates) - mean) <= 4 * se


# values rounded to 1e-6, so that no product of them underflows
law_values = st.floats(-2, 2).map(lambda v: round(v, 6))


def _law_profile(draw):
    """A rank-one profile of either sign: constant, affine or identity."""
    kind = draw(st.sampled_from(["constant", "affine", "identity"]))
    a, b = draw(law_values), draw(law_values)
    if kind == "constant":
        return SpatialProfile("constant", value=a)
    if kind == "affine":
        return SpatialProfile("affine", intercept=a, slope=(b,))
    return SpatialProfile("identity")


@st.composite
def offspring_laws(draw):
    """(model, parents): constant, rank-one or grid graphons (pw-constant and
    bilinear) times constant or rank-one mark profiles, of either sign."""
    def pair(kind):
        if kind == "constant":
            return gh.PairFunction("constant", value=draw(law_values))
        if kind == "rank-one":
            return gh.PairFunction("rank-one", coeff=draw(law_values),
                                   profile=_law_profile(draw))
        cells = draw(st.sampled_from([2, 4]))
        vals = draw(hnp.arrays(float, (cells, cells), elements=law_values))
        return gh.PairFunction("grid", values=vals, axis_counts=(cells,),
                               interp=kind.removeprefix("grid-"))
    graphon = pair(draw(st.sampled_from(["constant", "rank-one", "grid-pw-constant",
                                         "grid-bilinear"])))
    b = pair(draw(st.sampled_from(["constant", "rank-one"])))
    spec = gh.ModelSpec(
        domain=gh.SpatialDomain((0.0,), (1.0,)),
        baseline=SpatialProfile("constant", value=1.0),
        graphon=graphon,
        excitation=gh.ExcitationKernel("exponential", rate=1.0, l1=1.0),
        marks=gh.MarkModel(kind="scaled-profile", profile=b),
        grid_n=draw(st.sampled_from([8, 32])),
    )
    k = draw(st.integers(1, 12))
    parents = draw(hnp.arrays(float, (k, 1),
                              elements=st.floats(0.0, 1.0).map(lambda v: round(v, 6))))
    return spec, parents


@settings(max_examples=200, deadline=None)
@given(offspring_laws())
def test_offspring_law_equals_the_clipped_excitation_column(case):
    # the one law, scale times a cached shape, against the reference column
    spec, parents = case
    engine = ClusterEngine(spec)
    columns = cluster_sim.OffspringColumns(spec)
    masses, _ = engine.offspring_mass(parents)
    for grid, law in ((spec.std_grid, columns), (engine.spec.std_grid, engine)):
        nodes, weights = grid
        for p, y in enumerate(parents):
            key, scale = law.law_at(y)
            ref = np.maximum(spec.excitation_column(nodes, y), 0.0)
            col = scale * law.column_of(key, y)[1]
            np.testing.assert_allclose(col, ref, rtol=1e-12, atol=0)
            if law is engine:
                assert masses[p] == pytest.approx(np.sum(col * weights), rel=1e-12, abs=0)
        key_cells = spec.form.keys
        if key_cells:  # one shape per key cell
            assert len(law._columns) <= math.prod(key_cells)
        elif "grid" in (spec.graphon.family, spec.marks.b.family):  # rebuilt per parent
            assert law._columns == {}
        else:  # a rank-one product: one shape per sign
            assert set(law._columns) <= {0, 1}


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


def per_event_ndjson(real) -> str:
    """NDJSON written one json.dumps per event, with numpy scalar indexing."""
    lines = []
    for i in range(len(real)):
        pid, lt = int(real.parent_ids[i]), float(real.lifetimes[i])
        rec = {"id": int(real.ids[i]), "t": float(real.times[i]),
               "x": [float(v) for v in np.atleast_1d(real.locations[i])],
               "gen": int(real.generations[i]), "parent": None if pid < 0 else pid,
               "xi": float(real.mark_scalars[i]), "lifetime": None if math.isnan(lt) else lt}
        lines.append(json.dumps(rec, separators=(",", ":")))
    return "\n".join(lines) + ("\n" if lines else "")


@pytest.mark.parametrize("spec,lifetimes", [
    (gh.constant_model(0.5, grid_n=128), True),
    (gh.constant_model(0.5, grid_n=128), False),
    (gh.ModelSpec(domain=gh.SpatialDomain((0.0, 0.0), (1.0, 2.0)),
                  baseline=SpatialProfile("constant", value=1.0),
                  graphon=gh.PairFunction("constant", value=0.2),
                  excitation=gh.ExcitationKernel("exponential", rate=1.0, l1=1.0),
                  c_w=0.2, grid_n=8), True),
])
def test_ndjson_equals_per_event_encoding(spec, lifetimes):
    real = simulate_process(spec, 30.0, gh.SplitStream(16), with_lifetimes=lifetimes)
    assert len(real) > 1 and (real.parent_ids >= 0).any()
    assert real.to_ndjson() == per_event_ndjson(real)
    empty = gh.Realization.empty(spec.domain.dim, 4.0)
    assert empty.to_ndjson() == per_event_ndjson(empty) == ""


def _realization(times, locations, gens, parents, xis, lifetimes, ids) -> gh.Realization:
    return gh.Realization(times=times, locations=locations, generations=gens,
                          parent_ids=parents, mark_scalars=xis, lifetimes=lifetimes,
                          ids=ids, horizon=1.0)


any_float = st.floats(width=64)  # -0.0, subnormals, huge values, NaN and +-inf
int64 = st.integers(-(2**63), 2**63 - 1)


@settings(max_examples=200)
@given(data=st.data(), n=st.integers(0, 8), m=st.integers(1, 3))
def test_ndjson_writer_equals_per_event_encoding_on_any_values(data, n, m):
    def draw(dtype, shape):
        elements = any_float if dtype is np.float64 else int64
        return data.draw(hnp.arrays(dtype, shape, elements=elements))

    f, i = np.float64, np.int64
    real = _realization(draw(f, n), draw(f, (n, m)), draw(i, n), draw(i, n), draw(f, n),
                        draw(f, n), draw(i, n))
    assert real.to_ndjson() == per_event_ndjson(real)


def test_ndjson_writer_equals_per_event_encoding_at_the_extremes():
    real = _realization(
        np.array([-0.0, 5e-324, 1e300, -1e300]),
        np.array([[np.nan, np.inf], [-np.inf, 2.2250738585072014e-308], [-5e-324, 0.1],
                  [1e-310, -0.0]]),
        np.array([0, 1, 2**62, 2**63 - 1]), np.array([-1, 0, -(2**63), 2**63 - 1]),
        np.array([np.inf, np.nan, -0.0, 1e300]), np.array([np.nan, np.inf, -0.0, 3.5]),
        np.array([2**63 - 1, 0, 7, 2**40]))
    assert real.to_ndjson() == per_event_ndjson(real)
    assert '"lifetime":null' in real.to_ndjson() and "Infinity" in real.to_ndjson()


def test_ndjson_roundtrip():
    spec = gh.constant_model(0.5, grid_n=128)
    real = simulate_process(spec, 10.0, gh.SplitStream(15))
    assert len(real) > 0
    back = gh.Realization.from_ndjson(real.to_ndjson(), horizon=10.0)
    assert np.array_equal(back.times, real.times)
    assert np.array_equal(back.locations, real.locations)
    assert np.array_equal(back.parent_ids, real.parent_ids)


def test_ndjson_refuses_two_records_on_one_line():
    lines = [json.dumps({"id": i, "t": 0.5 * i, "x": [0.25], "gen": 0, "parent": None,
                         "xi": 1.0, "lifetime": None}) for i in range(3)]
    assert len(gh.Realization.from_ndjson("\n".join(lines) + "\n\n")) == 3
    bad = [
        lines[0] + "," + lines[1] + "\n" + lines[2] + "\n",
        # a record split over two lines while another line holds two: as
        # many records as lines
        '{"id":0,"t":0.0,"x":[0.5\n0.25],"gen":0,"parent":null,"xi":1.0,"lifetime":null},'
        '{"id":1,"t":0.5,"x":[0.5,0.75],"gen":0,"parent":null,"xi":1.0,"lifetime":null}\n',
        lines[0] + "\n[1,2]\n",  # not an object
        # a line that writes the keyed wrapper's own syntax: the next line's
        # key "1" would overwrite record 1 and keep the count equal
        '{"id":0,"t":0.0,"x":[0.5]},"1":{"id":1,"t":1.0,"x":[0.5]}\n{"id":2,"t":2.0,"x":[0.5]}\n',
    ]
    for text in bad:
        with pytest.raises(InvalidArgumentError):
            gh.Realization.from_ndjson(text)


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
    real = simulate_process(spec, 100.0, gh.SplitStream(21), with_lifetimes=False)
    assert len(real) > 100
    assert len(spec.engine._columns) <= 16
    # built per parent instead, by a law whose form has no keys, the same
    # stream gives the same events
    by_parent = dataclasses.replace(spec)
    by_parent.engine.form = dataclasses.replace(spec.form, keys=None)
    assert by_parent.engine.law(np.array([[0.3]])) == (None, None)
    again = simulate_process(by_parent, 100.0, gh.SplitStream(21), with_lifetimes=False)
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
    reals = [simulate_process(spec, 50.0, gh.SplitStream(22).child(i)) for i in range(2)]
    assert all((r.generations > 0).any() for r in reals)
    assert spec.engine._columns == {}


def _counted(monkeypatch, cls) -> list:
    """A list that grows by one on every construction of `cls`."""
    built, init = [], cls.__init__

    def counting(self, *args):
        built.append(None)
        init(self, *args)

    monkeypatch.setattr(cls, "__init__", counting)
    return built


def _coupled_runs(avg) -> list[str]:
    """Both sides of 5 coupled replications in each mode, as NDJSON."""
    pairs = [simulate_coupled(avg, 5.0, mode=mode, rng=gh.SplitStream(33).child(m, r))
             for m, mode in enumerate(("annealed", "quenched")) for r in range(5)]
    return [side.to_ndjson() for pair in pairs for side in (pair.n, pair.nd)]


def test_each_model_builds_one_engine_and_each_average_one_coupling_setup(monkeypatch):
    engines = _counted(monkeypatch, ClusterEngine)
    setups = _counted(monkeypatch, prelimit._CouplingSetup)
    spec = step_model()

    def runs(model):
        reals = [simulate_process(model, 50.0, gh.SplitStream(30).child(r)) for r in range(4)]
        reals += [simulate_thinning(model, 20.0, rng=gh.SplitStream(31).child(r))
                  for r in range(2)]
        flln = flln_experiment(model, None, 20.0, 3, gh.SplitStream(32), n_op=64)
        return [real.to_ndjson() for real in reals], flln.samples

    first = runs(spec)
    assert len(engines) == 1 and not setups
    # a fresh copy of the model builds its own engine and gives the same bytes
    assert runs(dataclasses.replace(spec)) == first
    # a coupling reads the engines of the continuum and of the averaged model
    spec = gh.rank_one_model(1.5, grid_n=64)
    part = build_partition(spec.domain, 4, "per-axis-counts")
    engines.clear()
    first = _coupled_runs(average_model(spec, part))
    assert len(engines) == 2 and len(setups) == 1
    assert _coupled_runs(average_model(dataclasses.replace(spec), part)) == first


def test_shared_engines_and_coupling_setups_give_the_same_bytes_under_threads():
    # 4 threads on 2 cores, switching often, fill each model's column cache
    # and coupling setup at once
    def process(model):
        return lambda r: simulate_process(model, 50.0, gh.SplitStream(34).child(r)).to_ndjson()

    def coupled(avg):
        def one(r):
            pair = simulate_coupled(avg, 5.0, mode=("annealed", "quenched")[r % 2],
                                    rng=gh.SplitStream(35).child(r))
            return pair.n.to_ndjson() + pair.nd.to_ndjson()
        return one

    def runs(threads):
        out = []
        for spec in (step_model(), gh.rank_one_model(1.5, grid_n=64)):
            avg = average_model(spec, build_partition(spec.domain, 4, "per-axis-counts"))
            out.append(limits._pmap(process(spec), 8, threads))
            out.append(limits._pmap(coupled(avg), 8, threads))
        return out

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = runs(4)
    finally:
        sys.setswitchinterval(interval)
    assert threaded == runs(1)


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
    # on the lcm grid of every grid family, one location draw per source cell
    # that has children
    spec = model()
    assert len([f for f in (spec.graphon, spec.marks.b) if f.family == "grid"]) == families
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
    assert calls["key"] == 1
    counts = np.random.default_rng(6).poisson(4 * masses)
    rng = types.SimpleNamespace(random=counted("uniforms", np.random.default_rng(7).random))
    engine.sample_offspring_locations(columns, np.repeat(np.arange(240), counts), rng)
    assert calls["uniforms"] == 1
    cells = np.unique(_cell_index(xs[counts > 0], spec.domain, (16,)))
    assert 1 < calls["draw"] <= cells.size < (counts > 0).sum()


def test_a_parent_on_a_cell_face_shares_the_column_of_its_key_cell():
    # on this domain the key grid (the lcm, 210, of 35 graphon and 6 mark
    # cells) and the graphon's own 35 cells round the face point into
    # neighbouring cells; the key cell's column is built at its midpoint, so
    # a parent inside that cell reads its own column whichever comes first
    lo, hi = 4.486494471372438, 7.611690676957188
    gen = np.random.default_rng(9)
    b = gh.PairFunction("grid", values=0.5 + gen.random((6, 6)), axis_counts=(6,))
    spec = gh.ModelSpec(
        domain=gh.SpatialDomain((lo,), (hi,)),
        baseline=SpatialProfile("constant", value=1.0),
        graphon=gh.PairFunction("grid", values=0.1 * gen.random((35, 35)), axis_counts=(35,)),
        excitation=gh.ExcitationKernel("exponential", rate=1.0, l1=1.0),
        marks=gh.MarkModel(kind="scaled-profile", profile=b),
        c_w=0.1,
        grid_n=64,
    )
    face = np.array([5.290116352808517])
    engine = ClusterEngine(spec)
    key, _ = engine.law_at(face)
    assert _cell_index(face[None, :], spec.domain, (35,))[0] != key // 6
    inside = lo + (key + 0.5) * (hi - lo) / 210
    _, (cols, of_parent) = engine.offspring_mass(np.array([face, [inside]]))
    assert of_parent[0] == of_parent[1]
    nodes = engine.nodes
    assert np.array_equal(cols[of_parent[1]],
                          np.maximum(spec.excitation_column(nodes, np.array([inside])), 0.0))


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
    # the reference: one column on the engine's grid and one uniform block
    # per parent, in ascending parent order, each child in stable order
    nodes, weights = engine.nodes, engine.weights
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
