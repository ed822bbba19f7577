"""Partitioning, averaging, quenched graphs and the coupled simulation."""

import dataclasses
import functools
import hashlib
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats

import graphon_hawkes as gh
from graphon_hawkes.cluster_sim import simulate_process
from graphon_hawkes import cluster_sim, operators
from graphon_hawkes.errors import (
    BadCellCountError,
    InvalidArgumentError,
    PrelimitUnstableError,
    ResolutionTooCoarseError,
    UnstableModelError,
)
from graphon_hawkes.metrics import pp_distance
from graphon_hawkes.model import SpatialProfile
from graphon_hawkes.operators import discretize_kernel, operator_norm_l1, spectral_radius
from graphon_hawkes.prelimit import (
    _cell_model,
    average_model,
    average_models,
    build_partition,
    sample_quenched_graph,
    simulate_coupled,
)


def quenched_spec(avg, graph):
    """The quenched prelimit as a piecewise-constant model, the oracle of the
    quenched marginal: graphon Z with mark profile scaled by R * b_cell (so
    mean dynamics match annealed)."""
    return _cell_model(avg, graph.Z.astype(float), graph.rescale * avg.b_cell, 1.0)


def affine_rank_one_model(grid_n=512):
    return gh.ModelSpec(
        domain=gh.SpatialDomain((0.0,), (1.0,)),
        baseline=SpatialProfile("affine", intercept=0.5, slope=(1.0,)),
        graphon=gh.PairFunction("rank-one", coeff=1.2, profile=SpatialProfile("identity")),
        excitation=gh.ExcitationKernel("exponential", rate=1.0, l1=1.0),
        c_w=1.2,
        grid_n=grid_n,
    )


def test_partition_1d_two_cells():
    dom = gh.SpatialDomain((0.0,), (1.0,))
    p = build_partition(dom, 2, "per-axis-counts")
    assert p.cell_of(np.array([[0.25], [0.75]])).tolist() == [0, 1]
    assert p.mesh == pytest.approx(0.5)


def test_partition_2d_dyadic():
    dom = gh.SpatialDomain((0.0, 0.0), (1.0, 1.0))
    p = build_partition(dom, 4, "uniform-dyadic")
    assert p.d == 4
    assert p.mesh == pytest.approx(0.5 * math.sqrt(2))


def test_partition_single_cell():
    dom = gh.SpatialDomain((0.0,), (1.0,))
    p = build_partition(dom, 1, "uniform-dyadic")
    assert p.d == 1 and p.mesh == pytest.approx(1.0)


def test_partition_bad_cell_count():
    dom = gh.SpatialDomain((0.0, 0.0), (1.0, 1.0))
    with pytest.raises(BadCellCountError):
        build_partition(dom, 8, "uniform-dyadic")
    with pytest.raises(BadCellCountError):
        build_partition(dom, 6, "per-axis-counts")


def test_partition_mesh_monotone_along_dyadic():
    dom = gh.SpatialDomain((0.0,), (2.0,))
    meshes = [build_partition(dom, 2**k, "uniform-dyadic").mesh for k in range(7)]
    assert all(b < a for a, b in zip(meshes, meshes[1:]))


def test_average_model_linear_baseline():
    spec = affine_rank_one_model()
    lam_x = gh.ModelSpec(
        domain=spec.domain, baseline=SpatialProfile("affine", intercept=0.0, slope=(1.0,)),
        graphon=spec.graphon, excitation=spec.excitation, c_w=1.2, grid_n=512,
    )
    avg = average_model(lam_x, build_partition(spec.domain, 2, "per-axis-counts"))
    assert np.allclose(avg.lambda_cell, [0.25, 0.75])


def test_average_model_rank_one_graphon():
    spec = gh.rank_one_model(1.0, grid_n=512)
    avg = average_model(spec, build_partition(spec.domain, 2, "per-axis-counts"))
    assert np.allclose(avg.W_cell, [[0.0625, 0.1875], [0.1875, 0.5625]], atol=1e-12)


def test_average_model_identity_on_constants():
    spec = gh.constant_model(0.5, grid_n=256)
    avg = average_model(spec, build_partition(spec.domain, 8, "per-axis-counts"))
    assert np.allclose(avg.lambda_cell, 1.0)
    assert np.allclose(avg.W_cell, 0.5)
    # averaging an averaged (piecewise constant) model changes nothing
    again = average_model(avg.spec, build_partition(spec.domain, 8, "per-axis-counts"))
    assert np.allclose(again.W_cell, avg.W_cell)
    assert np.allclose(again.lambda_cell, avg.lambda_cell)


def test_one_averaging_call_builds_each_pair_matrix_once(monkeypatch):
    # the graphon and the mark profile are evaluated on the standard grid
    # once for every partition, and each average holds the doubles of a
    # call of its own; 2-d nodes are not in cell order
    b = gh.PairFunction("rank-one", coeff=1.0,
                        profile=SpatialProfile("affine", intercept=0.5, slope=(1.0,)))
    marked = dataclasses.replace(gh.rank_one_model(1.5, grid_n=64),
                                 marks=gh.MarkModel(kind="scaled-profile", profile=b))
    two_d = dataclasses.replace(gh.constant_model(0.5, grid_n=8),
                                domain=gh.SpatialDomain((0.0, 0.0), (1.0, 2.0)))
    matrix = gh.PairFunction.matrix
    for spec, pairs, ds in ((gh.rank_one_model(1.5, grid_n=64), 1, (2, 4, 16)),
                            (marked, 2, (2, 4, 16)), (two_d, 1, ((2, 2), (4, 2)))):
        parts = [build_partition(spec.domain, d, "per-axis-counts") for d in ds]
        one_each = [average_model(spec, part) for part in parts]
        built = []
        monkeypatch.setattr(gh.PairFunction, "matrix",
                            lambda self, *a: built.append(self) or matrix(self, *a))
        avgs = average_models(spec, iter(parts))
        monkeypatch.undo()
        assert len(built) == pairs
        for avg, ref in zip(avgs, one_each, strict=True):
            for name in ("lambda_cell", "W_cell", "b_cell"):
                assert getattr(avg, name).tobytes() == getattr(ref, name).tobytes()


def test_a_one_sided_cluster_cut_by_the_cap_draws_nothing_more():
    # the pass draws on from its generator after a one-sided cluster fills
    # the cap: the cut generation's children draw no counts of their own
    spec = gh.constant_model(0.7, grid_n=64)
    avg = average_model(spec, build_partition(spec.domain, 16, "per-axis-counts"))
    pair = simulate_coupled(avg, 30.0, mode="quenched", rng=gh.SplitStream(62).child(2), cap=200)
    assert pair.n.censored
    digest = hashlib.sha256((pair.n.to_ndjson() + pair.nd.to_ndjson()).encode()).hexdigest()
    assert digest == "3f641a2c3feea01efc369d840bd078296d4d2f493cd9c07d705419f3523f7735"


def test_average_model_resolution_guard():
    spec = gh.constant_model(0.5, grid_n=256)
    with pytest.raises(ResolutionTooCoarseError):
        average_model(spec, build_partition(spec.domain, 100, "per-axis-counts"))


def test_quenched_graph_trivial_cases():
    spec = gh.constant_model(1.0, grid_n=128)
    avg = average_model(spec, build_partition(spec.domain, 4, "per-axis-counts"))
    g = sample_quenched_graph(avg, gh.SplitStream(1))
    assert np.all(g.Z == 1)
    spec0 = gh.constant_model(0.0, grid_n=128)
    avg0 = average_model(spec0, build_partition(spec0.domain, 4, "per-axis-counts"))
    g0 = sample_quenched_graph(avg0, gh.SplitStream(2))
    assert np.all(g0.Z == 0)


def test_quenched_graph_bernoulli_mean():
    spec = gh.constant_model(0.5, grid_n=128)
    avg = average_model(spec, build_partition(spec.domain, 2, "per-axis-counts"))
    s = gh.SplitStream(3)
    zs = np.stack([sample_quenched_graph(avg, s.child(i)).Z for i in range(10_000)])
    means = zs.mean(axis=0)
    se = math.sqrt(0.25 / zs.shape[0])
    assert np.all(np.abs(means - 0.5) <= 3 * se + 1e-12)


def test_quenched_rescale_above_one():
    spec = gh.constant_model(1.5, grid_n=128)
    avg = average_model(spec, build_partition(spec.domain, 2, "per-axis-counts"))
    g = sample_quenched_graph(avg, gh.SplitStream(4))
    assert g.rescale == pytest.approx(1.5)
    qs = quenched_spec(avg, g)
    # mean offspring kernel value is preserved: R * b * P(edge) = W
    assert qs.marks.profile.values[0, 0] == pytest.approx(1.5)


def test_stepping_contraction_operator_norms():
    # |P_d T P_d| <= |T| + grid tolerance
    spec = affine_rank_one_model()
    norm_fine = operator_norm_l1(discretize_kernel(spec, 512))
    for d in (2, 4, 8, 16):
        avg = average_model(spec, build_partition(spec.domain, d, "per-axis-counts"))
        norm_avg = operator_norm_l1(discretize_kernel(avg.spec, 512))
        assert norm_avg <= norm_fine + 1e-9


def test_rho_converges_along_dyadic_refinement():
    spec = gh.rank_one_model(1.5, grid_n=512)
    rho_fine = spectral_radius(discretize_kernel(spec, 512), 16).rho_power_iteration
    errs = []
    for d in (2, 4, 8, 16, 32, 64):
        avg = average_model(spec, build_partition(spec.domain, d, "per-axis-counts"))
        rho_d = spectral_radius(discretize_kernel(avg.spec, 512), 16).rho_power_iteration
        errs.append(abs(rho_d - rho_fine))
    assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:])), errs
    assert errs[-1] < 1e-3


def test_coupled_shared_ids_consistent():
    spec = affine_rank_one_model()
    part = build_partition(spec.domain, 4, "per-axis-counts")
    pair = simulate_coupled(average_model(spec, part), 2.0, mode="annealed",
                            rng=gh.SplitStream(5))
    ids_n = {int(i): float(t) for i, t in zip(pair.n.ids, pair.n.times)}
    ids_m = {int(i): float(t) for i, t in zip(pair.nd.ids, pair.nd.times)}
    for sid in pair.shared_ids:
        assert ids_n[int(sid)] == ids_m[int(sid)]
    # shared locations lie in the same partition cell
    for sid in pair.shared_ids:
        i = int(np.nonzero(pair.n.ids == sid)[0][0])
        j = int(np.nonzero(pair.nd.ids == sid)[0][0])
        assert part.cell_of(pair.n.locations[i : i + 1])[0] == part.cell_of(
            pair.nd.locations[j : j + 1]
        )[0]


def test_coupled_pw_constant_model_distance_zero_annealed():
    spec = gh.constant_model(0.5, grid_n=256)
    avg = average_model(spec, build_partition(spec.domain, 8, "per-axis-counts"))
    for rep in range(20):
        pair = simulate_coupled(avg, 1.0, mode="annealed", rng=gh.SplitStream(6).child(rep))
        assert pp_distance(pair.n, pair.nd, spec, pair.avg.spec).total == 0.0


def test_coupled_w_zero_bound():
    spec = gh.ModelSpec(
        domain=gh.SpatialDomain((0.0,), (1.0,)),
        baseline=SpatialProfile("affine", intercept=0.5, slope=(1.0,)),
        graphon=gh.PairFunction("constant", value=0.0),
        excitation=gh.ExcitationKernel("exponential", rate=1.0, l1=1.0),
        c_w=0.0, grid_n=256,
    )
    part = build_partition(spec.domain, 8, "per-axis-counts")
    avg = average_model(spec, part)
    for rep in range(30):
        pair = simulate_coupled(avg, 2.0, mode="annealed", rng=gh.SplitStream(7).child(rep))
        b = pp_distance(pair.n, pair.nd, spec, pair.avg.spec)
        assert b.nonsimultaneous_term == 0.0
        assert b.total <= len(pair.n) * part.mesh + 1e-12


def test_coupled_annealed_side_marginal_law():
    spec = gh.constant_model(0.5, grid_n=256)
    part = build_partition(spec.domain, 4, "per-axis-counts")
    avg = average_model(spec, part)
    n = 1500
    cpl = [
        len(simulate_coupled(avg, 4.0, rng=gh.SplitStream(8).child(r)).nd)
        for r in range(n)
    ]
    direct = [len(simulate_process(avg.spec, 4.0, gh.SplitStream(9).child(r))) for r in range(n)]
    assert stats.ks_2samp(cpl, direct).pvalue > 0.001


def test_coupled_continuum_side_marginal_law_rank_one():
    # the continuum side of a rank-one model draws each parent's children
    # from its scale times the cached shape: it has the law of the cluster
    # simulator on the continuum model
    spec = gh.rank_one_model(1.5, grid_n=64)
    part = build_partition(spec.domain, 4, "per-axis-counts")
    avg = average_model(spec, part)
    n = 1500
    cpl = [len(simulate_coupled(avg, 4.0, rng=gh.SplitStream(14).child(r)).n) for r in range(n)]
    direct = [len(simulate_process(spec, 4.0, gh.SplitStream(15).child(r))) for r in range(n)]
    assert stats.ks_2samp(cpl, direct).pvalue > 0.001


def test_coupled_quenched_side_marginal_law():
    spec = gh.constant_model(0.5, grid_n=256)
    part = build_partition(spec.domain, 4, "per-axis-counts")
    avg = average_model(spec, part)
    n = 1500
    cpl = [
        len(simulate_coupled(avg, 4.0, mode="quenched",
                             rng=gh.SplitStream(10).child(r)).nd)
        for r in range(n)
    ]

    def direct(r):
        s = gh.SplitStream(11).child(r)
        g = sample_quenched_graph(avg, s.child(0))
        return len(simulate_process(quenched_spec(avg, g), 4.0, s.child(1)))

    assert stats.ks_2samp(cpl, [direct(r) for r in range(n)]).pvalue > 0.001


def test_quenched_equals_annealed_conditionally_on_occupancy():
    # event-count law agrees between modes when no cell holds two events
    spec = gh.constant_model(0.5, grid_n=256)
    avg = average_model(spec, build_partition(spec.domain, 16, "per-axis-counts"))
    ann, que = [], []
    for r in range(2500):
        a = simulate_coupled(avg, 1.0, rng=gh.SplitStream(12).child(r))
        if a.one_event_per_cell:
            ann.append(len(a.nd))
        q = simulate_coupled(avg, 1.0, mode="quenched",
                             rng=gh.SplitStream(13).child(r))
        if q.one_event_per_cell:
            que.append(len(q.nd))
    assert stats.ks_2samp(ann, que).pvalue > 0.001


def test_coupled_distance_nonincreasing_in_d_both_modes():
    spec = gh.constant_model(0.5, grid_n=256)
    for mode in ("annealed", "quenched"):
        means = []
        for d in (2, 8, 32):
            avg = average_model(spec, build_partition(spec.domain, d, "per-axis-counts"))
            ds = [
                pp_distance(
                    (p := simulate_coupled(avg, 1.0, mode=mode,
                                           rng=gh.SplitStream(14).child(d, r))).n,
                    p.nd, spec, avg.spec,
                ).total
                for r in range(60)
            ]
            means.append(np.mean(ds))
        assert all(b <= a + 1e-12 for a, b in zip(means, means[1:])), (mode, means)


def test_freeze_graph_reuses_edges():
    spec = gh.constant_model(0.5, grid_n=256)
    part = build_partition(spec.domain, 4, "per-axis-counts")
    avg = average_model(spec, part)
    frozen = sample_quenched_graph(avg, gh.SplitStream(15))
    pair = simulate_coupled(avg, 2.0, mode="quenched", rng=gh.SplitStream(16),
                            quenched_graph=frozen)
    assert pair.graph is frozen


def test_coupling_gate_work_shared_across_replications(monkeypatch):
    spec = gh.rank_one_model(1.5, grid_n=64)
    part = build_partition(spec.domain, 4, "per-axis-counts")
    avg = average_model(spec, part)
    # one verdict solve per gate grid (continuum and average), none after
    calls: list[int] = []
    real = operators._certified_stable
    monkeypatch.setattr(operators, "_certified_stable",
                        lambda a: calls.append(a.shape[0]) or real(a))
    simulate_coupled(avg, 1.0, rng=gh.SplitStream(3).child(0))
    first = len(calls)
    for r in range(1, 4):
        simulate_coupled(avg, 1.0, rng=gh.SplitStream(3).child(r))
    assert first == 2 == len(calls)


def test_coupling_gate_typed_errors():
    unstable = gh.constant_model(1.5, grid_n=64)
    part = build_partition(unstable.domain, 2, "per-axis-counts")
    with pytest.raises(UnstableModelError):
        simulate_coupled(average_model(unstable, part), 1.0, rng=gh.SplitStream(4))
    # a stable continuum whose averaged model is pushed past criticality
    spec = gh.constant_model(0.5, grid_n=64)
    avg = average_model(spec, build_partition(spec.domain, 2, "per-axis-counts"))
    avg.W_cell = avg.W_cell * 3.0
    with pytest.raises(PrelimitUnstableError):
        simulate_coupled(avg, 1.0, rng=gh.SplitStream(4))


def test_coupling_unknown_mode_is_typed():
    spec = gh.constant_model(0.5, grid_n=64)
    avg = average_model(spec, build_partition(spec.domain, 2, "per-axis-counts"))
    with pytest.raises(InvalidArgumentError):
        simulate_coupled(avg, 1.0, mode="bogus", rng=gh.SplitStream(4))


def test_coupling_without_a_stream_is_typed():
    spec = gh.constant_model(0.5, grid_n=64)
    avg = average_model(spec, build_partition(spec.domain, 2, "per-axis-counts"))
    with pytest.raises(InvalidArgumentError):
        simulate_coupled(avg, 1.0)


def marked_rank_one_model():
    b = gh.PairFunction("grid", values=np.array([[1.0, 0.6], [0.8, 1.2]]), axis_counts=(2,))
    return gh.ModelSpec(
        domain=gh.SpatialDomain((0.0,), (1.0,)),
        baseline=SpatialProfile("affine", intercept=0.5, slope=(1.0,)),
        graphon=gh.PairFunction("rank-one", coeff=1.2, profile=SpatialProfile("identity")),
        excitation=gh.ExcitationKernel("exponential", rate=1.0, l1=1.0),
        marks=gh.MarkModel(kind="scaled-profile", profile=b, xi_family="gamma",
                           xi_value=0.4, xi_shape=2.0),
        c_w=1.2, grid_n=64,
    )


def grid_2d_model():
    values = 1.5 * np.array([[0.5, 0.2, 0.1, 0.3], [0.2, 0.6, 0.2, 0.1],
                             [0.1, 0.2, 0.7, 0.2], [0.3, 0.1, 0.2, 0.5]])
    return gh.ModelSpec(
        domain=gh.SpatialDomain((0.0, 0.0), (1.0, 2.0)),
        baseline=SpatialProfile("affine", intercept=0.5, slope=(0.5, 0.25)),
        graphon=gh.PairFunction("grid", values=values, axis_counts=(2, 2)),
        excitation=gh.ExcitationKernel("exponential", rate=1.0, l1=1.0),
        c_w=float(values.max()), grid_n=8,
    )


COUPLED_MODELS = {"marked-1d": marked_rank_one_model, "grid-2d": grid_2d_model}


@functools.lru_cache(maxsize=None)
def _coupled_setup(model, level):
    spec = COUPLED_MODELS[model]()
    part = build_partition(spec.domain, 2 ** (level * spec.domain.dim), "uniform-dyadic")
    avg = average_model(spec, part)
    return spec, part, avg, sample_quenched_graph(avg, gh.SplitStream(level))


@settings(max_examples=60)
@given(model=st.sampled_from(sorted(COUPLED_MODELS)),
       level=st.integers(1, 3),
       graph=st.sampled_from(["annealed", "lazy", "frozen"]),
       seed=st.integers(0, 2**32 - 1),
       horizon=st.floats(0.5, 6.0),
       cap=st.integers(1, 400))
def test_coupled_pair_invariants(model, level, graph, seed, horizon, cap):
    spec, part, avg, frozen = _coupled_setup(model, level)
    quenched = graph != "annealed"
    pair = simulate_coupled(avg, horizon, mode="quenched" if quenched else "annealed",
                            rng=gh.SplitStream(seed), cap=cap,
                            quenched_graph=frozen if graph == "frozen" else None)
    n, nd = pair.n, pair.nd
    pos_n = {int(e): i for i, e in enumerate(n.ids)}
    pos_m = {int(e): i for i, e in enumerate(nd.ids)}
    assert len(pos_n) == len(n) and len(pos_m) == len(nd)
    assert set(pair.shared_ids.tolist()) == pos_n.keys() & pos_m.keys()
    # a shared event is one event: same time, mark, lifetime, lineage and cell
    for sid in pair.shared_ids.tolist():
        i, j = pos_n[sid], pos_m[sid]
        for name in ("times", "mark_scalars", "lifetimes", "generations", "parent_ids"):
            assert getattr(n, name)[i] == getattr(nd, name)[j], name
        assert part.cell_of(n.locations[i]) == part.cell_of(nd.locations[j])
    # every child's parent is an earlier event on its own side, one generation up
    for real, pos in ((n, pos_n), (nd, pos_m)):
        child = np.flatnonzero(real.parent_ids >= 0)
        parent = np.array([pos[int(p)] for p in real.parent_ids[child]], dtype=np.int64)
        assert (parent < child).all() and (real.times[parent] <= real.times[child]).all()
        assert (real.generations[child] == real.generations[parent] + 1).all()
        assert (np.delete(real.generations, child) == 0).all()
    if not quenched:
        assert pair.graph is None
        return
    # a quenched prelimit child only runs through an edge of the graph
    assert graph == "lazy" or pair.graph is frozen
    child = np.flatnonzero(nd.parent_ids >= 0)
    parent = np.array([pos_m[int(p)] for p in nd.parent_ids[child]], dtype=np.int64)
    cells = part.cell_of(nd.locations)
    assert (pair.graph.Z[cells[child], cells[parent]] == 1).all()


def _uncached_pick(setup, col, k, u_cell, u_jit):
    """The within-cell pick with the cell's table built from col on every call."""
    idx = np.flatnonzero(setup.cell_idx == k)
    wts = np.maximum(col[idx], 0.0)
    cum = np.cumsum(wts)
    top = np.searchsorted(cum, cum[-1], side="left")
    pos = min(np.searchsorted(cum, u_cell * wts.sum(), side="right"), top)
    return setup.nodes[idx[pos]] + (u_jit - 0.5) * setup.grid_width


@functools.lru_cache(maxsize=None)
def _pick_setup(model, level):
    """`_coupled_setup`'s models, and a rank-one one keyed by its sign."""
    if model != "rank-one":
        return _coupled_setup(model, level)[:3]
    spec = gh.rank_one_model(grid_n=64)
    part = build_partition(spec.domain, 2**level, "uniform-dyadic")
    return spec, part, average_model(spec, part)


@settings(max_examples=300, deadline=None)
@given(model=st.sampled_from(sorted(COUPLED_MODELS) + ["rank-one"]),
       level=st.integers(1, 3),
       cell=st.integers(0, 63),
       y=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2),
       u_cell=st.floats(0.0, 1.0, exclude_max=True),
       scale=st.floats(1e-3, 1e3))
def test_cached_pick_equals_the_uncached_pick(model, level, cell, y, u_cell, scale):
    spec, part, avg = _pick_setup(model, level)
    setup, k, m = avg.coupling, cell % part.d, spec.domain.dim
    u_jit = np.full(m, 0.375)
    idx = np.flatnonzero(setup.cell_idx == k)

    def same(name, col, ref):
        if col[idx].max() > 0:  # a cell is only drawn where its column has mass
            for _ in range(2):  # the first call builds the tables, the second reads them
                got = setup.pick(name, col, k, [u_cell, *u_jit.tolist()])
                assert np.array(got).tobytes() == ref.tobytes()

    for name in ("lam", "lam_m", "ones"):
        col = {"lam": setup.lam_vals, "lam_m": setup.lam_m_vals, "ones": setup.ones_col}[name]
        same(name, col, _uncached_pick(setup, col, k, u_cell, u_jit))
    # a keyed parent picks from its shape: a positive scale moves the table
    # by rounding only, which can cross a boundary only where u * total lies
    # within rounding of a cumulative sum; that case is excluded
    parent = spec.domain.lo + np.array(y[:m]) * (spec.domain.hi - spec.domain.lo)
    key, _, shape = setup.shape_of(parent)
    cum = np.cumsum(shape[idx])
    if key is not None and not np.isclose(cum, u_cell * cum[-1], rtol=1e-12, atol=0).any():
        same(key, shape, _uncached_pick(setup, scale * shape, k, u_cell, u_jit))


@st.composite
def coupling_bases(draw):
    """(base, partition counts): a cell base (a pw-constant graphon, baseline
    and, when marked, mark profile, each with its own count per axis, which
    may or may not divide grid_n), a rank-one base or a bilinear base."""
    kind = draw(st.sampled_from(["cells", "cells", "cells-2d", "rank-one", "bilinear"]))
    m = 2 if kind == "cells-2d" else 1
    domain = gh.SpatialDomain((0.0,) * m, (1.0, 2.0)[:m])
    parts = draw(st.lists(st.sampled_from([1, 2, 3, 4]), min_size=m, max_size=m))
    # up to 480 nodes in 1-d and 24 per axis in 2-d: small pair matrices
    grid_n = math.lcm(*parts) * draw(st.integers(1, 40 if m == 1 else 24 // math.lcm(*parts)))
    vals = st.floats(0.0, 0.5).map(lambda v: round(v, 6))

    def counts():
        return tuple(draw(st.lists(st.integers(1, 12 if m == 1 else 5), min_size=m, max_size=m)))

    def pair(cells):
        k = math.prod(cells)
        return gh.PairFunction("grid", values=draw(hnp.arrays(float, (k, k), elements=vals)),
                               axis_counts=cells)

    marks = gh.MarkModel(kind="unmarked")
    if kind.startswith("cells"):
        graphon, cells = pair(counts()), counts()
        baseline = SpatialProfile("grid", axis_counts=cells, values=draw(
            hnp.arrays(float, math.prod(cells), elements=st.floats(0.1, 2.0))))
        if draw(st.booleans()):
            marks = gh.MarkModel(kind="scaled-profile", profile=pair(counts()))
    else:
        baseline = SpatialProfile("affine", intercept=1.0, slope=(draw(st.floats(-0.5, 0.5)),))
        if kind == "rank-one":
            sign = draw(st.sampled_from([1.0, -1.0]))
            graphon = gh.PairFunction("rank-one", coeff=draw(st.floats(0.2, 1.0)),
                                      profile=SpatialProfile("affine", intercept=sign * 0.3,
                                                             slope=(-sign * 0.5,)))
        else:
            r = draw(st.integers(1, 6))
            graphon = gh.PairFunction("grid", values=draw(hnp.arrays(float, (r, r), elements=vals)),
                                      axis_counts=(r,), interp="bilinear")
    spec = gh.ModelSpec(domain=domain, baseline=baseline, graphon=graphon, marks=marks,
                        excitation=gh.ExcitationKernel("exponential", rate=1.0, l1=1.0),
                        grid_n=grid_n)
    return spec, tuple(parts)


def _face_nodes(functions, domain, nodes):
    """Nodes within rounding of a face of the cells of any pw-constant grid
    among `functions` (a count that does not divide grid_n can put a node
    there); elsewhere each of them reads one cell."""
    rel = (nodes - domain.lo) / (domain.hi - domain.lo)
    near = np.zeros(nodes.shape[0], bool)
    for f in functions:
        if f.family == "grid" and f.interp == "pw-constant":
            x = rel * np.asarray(f.cell_counts)
            near |= (np.abs(x - np.round(x)) < 1e-9).any(axis=1)
    return near


def _either_side(values_at, nodes, read, near):
    """Byte-equal off the faces; on a face, the value of a side of it."""
    assert read[~near].tobytes() == values_at(nodes)[~near].tobytes()
    if near.any():
        sides = [values_at(nodes[near] + sgn * 1e-7) for sgn in (-1.0, 1.0)]
        assert ((read[near] == sides[0]) | (read[near] == sides[1])).all()


# 10 graphon cells on 15 nodes: the node at 0.7 lies on a face, within
# rounding, and the engine's 90 cells put it on the other side of it
_ON_A_FACE = gh.ModelSpec(
    domain=gh.SpatialDomain((0.0,), (1.0,)),
    baseline=SpatialProfile("grid", values=np.linspace(0.5, 2.0, 9), axis_counts=(9,)),
    graphon=gh.PairFunction("grid", values=np.linspace(0.0, 0.1, 100).reshape(10, 10),
                            axis_counts=(10,)),
    excitation=gh.ExcitationKernel("exponential", rate=1.0, l1=1.0),
    grid_n=15,
)


@settings(max_examples=150, deadline=None)
@given(case=coupling_bases(), ys=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=8))
@example(case=(_ON_A_FACE, (5,)), ys=[0.05, 0.75])
def test_coupling_reads_both_baselines_and_the_shapes_from_the_engines(case, ys):
    spec, parts = case
    avg = average_model(spec, build_partition(spec.domain, parts, "per-axis-counts"))
    setup, domain = avg.coupling, spec.domain
    nodes, _ = spec.std_grid
    assert setup.engine is spec.engine  # the continuum law is the engine's
    pair_fns = (spec.graphon, spec.marks.b)
    near = _face_nodes(pair_fns, domain, nodes)
    _either_side(lambda z: np.maximum(spec.baseline_on(z), 0.0), nodes, setup.lam_vals,
                 _face_nodes([spec.baseline], domain, nodes))
    # the partition's cells divide grid_n: no node on a face of the average's
    ref_m = np.maximum(avg.spec.baseline_on(nodes), 0.0)
    assert setup.lam_m_vals.tobytes() == ref_m.tobytes()
    form, m = spec.form, domain.dim
    ys = np.resize(np.asarray(ys), (len(ys), m))
    for y in domain.lo + ys * (domain.hi - domain.lo):
        key, scale, shape = setup.shape_of(y)
        # the parent's law on the standard grid
        if key is not None and form.keys is None:  # its sign's rank-one shape
            sign = np.full(nodes.shape[0], -1.0 if key else 1.0)
            for profile in form.profiles:
                sign = sign * profile(nodes, domain)
            assert shape.tobytes() == np.maximum(sign, 0.0).tobytes()
        else:  # its own column, or its key cell's midpoint column
            law_y = y
            if key is not None:
                cell = np.add(np.unravel_index(key, form.keys), 0.5) / form.keys
                law_y = domain.lo + cell * (domain.hi - domain.lo)
            _either_side(lambda z: np.maximum(spec.excitation_column(z, law_y), 0.0),
                         nodes, shape, near)
        # off the faces, a parent's column is its scale times its shape
        ref = np.maximum(spec.excitation_column(nodes, y), 0.0)
        if not _face_nodes(pair_fns, domain, y[None, :])[0]:
            np.testing.assert_allclose((scale * shape)[~near], ref[~near], rtol=1e-12, atol=0)


def test_coupling_cache_holds_a_table_per_fixed_column_and_cell():
    # the setup's tables: the two baselines, the ones column and each keyed
    # shape, one per partition cell, however many pairs are run
    for model in sorted(COUPLED_MODELS):
        spec, part, avg, _ = _coupled_setup(model, 2)
        for rep in range(100):
            for mode in ("annealed", "quenched"):
                simulate_coupled(avg, 4.0, mode=mode, rng=gh.SplitStream(rep))
        laws = avg.coupling._laws
        keys = set(spec.engine._columns)
        assert {"lam", "lam_m", "ones"} <= set(laws) <= {"lam", "lam_m", "ones"} | keys
        assert all(len(rows) == part.d for law in laws.values() for rows in law)


@settings(max_examples=60, deadline=None)
@given(level=st.integers(1, 3),
       rescales=st.lists(st.sampled_from([None, 1.0, 1.05, 1.75, 3.0]), min_size=1,
                         max_size=5))
def test_cached_unit_masses_equal_a_fresh_cell_law(level, rescales):
    # each mode and R reads its own rows, whatever was cached before: a row
    # holds the masses a parent in cell j builds with xi = 1.0 and the
    # `cell_law` of its potential masses
    _, part, avg, _ = _coupled_setup("grid-2d", level)
    setup = avg.coupling
    for rescale in rescales:
        rows = setup.unit_masses(rescale)
        assert len(rows) == part.d
        for j in range(part.d):
            ref = 1.0 * avg.b_cell[:, j] * avg.W_cell[:, j] * part.cell_volume
            ref_hat = (ref if rescale is None
                       else 1.0 * rescale * avg.b_cell[:, j] * part.cell_volume)
            assert rows[j][0].tobytes() == ref.tobytes()
            total, cum, top = cluster_sim.cell_law(ref_hat)
            got_total, got_cum, got_top = rows[j][1]
            assert np.float64(got_total).tobytes() == total.tobytes()
            assert np.array(got_cum).tobytes() == cum.tobytes() and got_top == top


def test_unit_cache_holds_one_table_per_mode_and_rescale():
    # at most d rows per (mode, R) after 100 pairs: annealed, a lazy graph's
    # R and a frozen graph's own R
    spec = grid_2d_model()
    part = build_partition(spec.domain, 16, "uniform-dyadic")
    avg = average_model(spec, part)
    frozen = dataclasses.replace(sample_quenched_graph(avg, gh.SplitStream(2)), rescale=2.5)
    for rep in range(100):
        for mode, graph in (("annealed", None), ("quenched", None), ("quenched", frozen)):
            simulate_coupled(avg, 4.0, mode=mode, rng=gh.SplitStream(rep), quenched_graph=graph)
    unit = avg.coupling._unit
    assert set(unit) == {None, avg.coupling.rescale, 2.5}
    assert all(len(rows) == part.d for rows in unit.values())


def test_cell_law_caches_shared_by_threads_keep_every_byte():
    # more threads than cores fill one engine's and one setup's caches at
    # once, switching often; every run must equal its run on a fresh model
    def step16():
        vals = 0.2 + 0.4 * np.random.default_rng(3).random((16, 16))
        return dataclasses.replace(gh.rank_one_model(grid_n=64), c_w=float(vals.max()),
                                   graphon=gh.PairFunction("grid", values=vals,
                                                           axis_counts=(16,)))

    def runs(spec, avg, reps):
        out = []
        for r in reps:
            out.append(simulate_process(spec, 40.0, gh.SplitStream(r)).to_ndjson())
            pair = simulate_coupled(avg, 5.0, mode=("annealed", "quenched")[r % 2],
                                    rng=gh.SplitStream(r))
            out.append(pair.n.to_ndjson() + pair.nd.to_ndjson())
        return out

    def fresh():
        spec = step16()
        return spec, average_model(spec, build_partition(spec.domain, 8, "per-axis-counts"))

    serial = runs(*fresh(), range(24))
    spec, avg = fresh()
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(runs, spec, avg, range(t, 24, 6)) for t in range(6)]
            shared = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(switch)
    assert [shared[r % 6][2 * (r // 6) + i] for r in range(24) for i in range(2)] == serial
    assert len(spec.engine._laws[0]) <= 16 and len(avg.coupling._laws) <= 3 + 16


def test_near_critical_average_is_gated_on_its_cells():
    # rho = 2.997 / 3 = 0.999 for the continuum, and a little less for its
    # 64-cell average; a 96-node gate samples the 64 cells unevenly and reads
    # that average above 1
    spec = gh.rank_one_model(2.997)
    avg = average_model(spec, build_partition(spec.domain, 64, "per-axis-counts"))
    rho = float(np.max(np.abs(np.linalg.eigvals(avg.W_cell / 64))))
    assert 0.998 < rho < 0.999
    grid = operators.gate_grid(avg.spec)
    assert grid.n == 64
    operators.require_stable(grid, PrelimitUnstableError, "averaged model")
    assert not discretize_kernel(avg.spec, 96).stable
