"""Realization metric, total variation, and the averaging bound."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphon_hawkes as gh
from graphon_hawkes.errors import DomainMismatchError, ResolutionTooCoarseError
from graphon_hawkes.metrics import poincare_check, pp_distance, total_variation
from graphon_hawkes.model import MarkModel, PairFunction
from graphon_hawkes.prelimit import average_model, build_partition


def make_real(times, locs, ids, xis=None, horizon=5.0):
    n = len(times)
    return gh.Realization(
        times=np.asarray(times, float),
        locations=np.asarray(locs, float).reshape(n, 1),
        generations=np.zeros(n, np.int64),
        parent_ids=np.full(n, -1, np.int64),
        mark_scalars=np.asarray(xis if xis is not None else np.ones(n), float),
        lifetimes=np.full(n, np.nan),
        ids=np.asarray(ids, np.int64),
        horizon=horizon,
    )


@pytest.fixture(scope="module")
def spec():
    return gh.constant_model(0.5, grid_n=256)


def test_distance_identity(spec):
    n = make_real([0.5, 1.0], [0.1, 0.9], [0, 1])
    assert pp_distance(n, n, spec).total == 0.0


def test_distance_shared_location_gap(spec):
    n = make_real([1.0], [0.2], [0])
    m = make_real([1.0], [0.3], [0])
    b = pp_distance(n, m, spec)
    assert b.total == pytest.approx(0.1)
    assert b.simultaneous_mark_term == 0.0


def test_distance_nonsimultaneous_penalty(spec):
    n = make_real([1.0], [0.5], [0])
    m = make_real([], [], [])
    assert pp_distance(n, m, spec).total == pytest.approx(2.5)


def test_distance_symmetry(spec):
    n = make_real([0.3, 0.6], [0.2, 0.9], [0, 1])
    m = make_real([0.3, 0.8], [0.25, 0.4], [0, 2])
    assert pp_distance(n, m, spec).total == pytest.approx(pp_distance(m, n, spec).total)


def test_distance_triangle_inequality_random_triples(spec):
    rng = np.random.default_rng(17)
    for _ in range(1000):
        reals = []
        for _k in range(3):
            n_ev = rng.integers(0, 5)
            ids = rng.choice(np.arange(8), size=n_ev, replace=False)
            reals.append(
                make_real(rng.uniform(0, 5, n_ev), rng.random(n_ev), np.sort(ids))
            )
        a, b, c = reals
        ab = pp_distance(a, b, spec).total
        bc = pp_distance(b, c, spec).total
        ac = pp_distance(a, c, spec).total
        assert ac <= ab + bc + 1e-9


def test_distance_marked_term():
    base = gh.constant_model(0.5, grid_n=256)
    marked = gh.ModelSpec(
        domain=base.domain, baseline=base.baseline, graphon=base.graphon,
        excitation=base.excitation,
        marks=MarkModel(kind="scaled-profile", xi_family="deterministic", xi_value=1.0,
                        profile=PairFunction("constant", value=1.0)),
        c_w=0.5, grid_n=256,
    )
    n = make_real([1.0], [0.2], [0], xis=[2.0])
    m = make_real([1.0], [0.2], [0], xis=[0.5])
    b = pp_distance(n, m, marked, marked)
    # |2 * 1 - 0.5 * 1| integrated over [0,1] = 1.5
    assert b.simultaneous_mark_term == pytest.approx(1.5)
    assert b.simultaneous_location_term == 0.0


def test_distance_domain_mismatch(spec):
    other = gh.constant_model(0.5)
    wide = gh.ModelSpec(
        domain=gh.SpatialDomain((0.0,), (2.0,)), baseline=other.baseline,
        graphon=other.graphon, excitation=other.excitation, c_w=0.5,
    )
    n = make_real([1.0], [0.5], [0])
    with pytest.raises(DomainMismatchError):
        pp_distance(n, n, spec, wide)


def test_distance_checks_domains_only_when_they_are_distinct_objects(spec, monkeypatch):
    # the coupled pass compares two models on one domain object: no check;
    # an equal domain built apart is checked and passes, an unequal one raises
    checks = []
    allclose = np.allclose
    monkeypatch.setattr(np, "allclose", lambda *a: checks.append(a) or allclose(*a))
    n = make_real([1.0], [0.5], [0])
    avg = average_model(spec, build_partition(spec.domain, 4, "per-axis-counts"))
    assert avg.spec.domain is spec.domain
    assert pp_distance(n, n, spec, avg.spec).total == 0.0 and checks == []
    apart = dataclasses.replace(spec, domain=gh.SpatialDomain((0.0,), (1.0,)))
    assert pp_distance(n, n, spec, apart).total == 0.0 and len(checks) == 2
    wide = dataclasses.replace(spec, domain=gh.SpatialDomain((0.0,), (2.0,)))
    with pytest.raises(DomainMismatchError):
        pp_distance(n, n, spec, wide)


def test_distance_time_tolerance_greedy(spec):
    n = make_real([1.0, 2.0], [0.2, 0.4], [0, 1])
    m = make_real([1.004, 2.5], [0.2, 0.4], [7, 8])
    b = pp_distance(n, m, spec, matching="time-tolerance", eps=0.01)
    # only the first pair matches; the others pay the nonsimultaneous penalty
    assert b.simultaneous_location_term == pytest.approx(0.0)
    assert b.nonsimultaneous_term == pytest.approx((1 + 0.4 + 1) * 2)


def test_total_variation_examples(spec):
    dom = spec.domain
    xs = (np.arange(512) + 0.5) / 512
    assert total_variation(xs, dom) == pytest.approx(1.0, abs=2e-3)
    assert total_variation((xs > 0.5).astype(float), dom) == pytest.approx(1.0)
    sin_vals = np.sin(2 * np.pi * (np.arange(1024) + 0.5) / 1024)
    assert total_variation(sin_vals, dom) == pytest.approx(4.0, abs=1e-2)


def test_total_variation_refinement_monotone(spec):
    dom = spec.domain
    rng = np.random.default_rng(3)
    coeffs = rng.normal(size=4)
    vals = []
    for n in (64, 128, 256, 512, 1024):
        xs = (np.arange(n) + 0.5) / n
        f = sum(c * np.sin((k + 1) * np.pi * xs) for k, c in enumerate(coeffs))
        vals.append(total_variation(f, dom))
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_total_variation_2d_directional_surrogate():
    dom = gh.SpatialDomain((0.0, 0.0), (1.0, 1.0))
    n = 64
    nodes, _ = dom.grid(n)
    f = nodes[:, 0]  # variation 1 along axis 0, none along axis 1
    assert total_variation(f, dom, axis_mode="multi-directional-sum") == pytest.approx(
        1.0, abs=2e-2
    )


def test_poincare_linear_function():
    dom = gh.SpatialDomain((0.0,), (1.0,))
    part = build_partition(dom, 10, "per-axis-counts")
    xs = (np.arange(4000) + 0.5) / 4000
    rec = poincare_check(xs, part, var=1.0)
    assert rec.lhs == pytest.approx(0.025, abs=1e-6)
    assert rec.rhs == pytest.approx(0.05)
    assert rec.holds


def test_poincare_constant_function():
    dom = gh.SpatialDomain((0.0,), (1.0,))
    part = build_partition(dom, 4, "uniform-dyadic")
    rec = poincare_check(np.full(256, 2.5), part)
    assert rec.lhs == pytest.approx(0.0, abs=1e-12)
    assert rec.holds


def test_poincare_aligned_step():
    dom = gh.SpatialDomain((0.0,), (1.0,))
    part = build_partition(dom, 2, "uniform-dyadic")
    xs = (np.arange(256) + 0.5) / 256
    rec = poincare_check((xs > 0.5).astype(float), part)
    assert rec.lhs == pytest.approx(0.0, abs=1e-12)
    assert rec.holds


def test_poincare_resolution_guard():
    dom = gh.SpatialDomain((0.0,), (1.0,))
    part = build_partition(dom, 128, "per-axis-counts")
    with pytest.raises(ResolutionTooCoarseError):
        poincare_check(np.ones(256), part)


def _test_family(n=4096):
    xs = (np.arange(n) + 0.5) / n
    rng = np.random.default_rng(5)
    fams = [xs, xs**2, 3 * xs**3 - 2 * xs, (xs > 1 / 3).astype(float)]
    fams += [np.sin(k * xs) for k in (1, 4, 16)]
    mix = rng.random(n // 256).repeat(256) + 0.2 * np.sin(7 * xs)
    fams.append(mix)
    return fams


@pytest.mark.parametrize("d", [2, 4, 8, 16, 32, 64, 128, 256])
def test_poincare_family_all_dyadic(d):
    dom = gh.SpatialDomain((0.0,), (1.0,))
    part = build_partition(dom, d, "per-axis-counts")
    for f in _test_family():
        assert poincare_check(f, part).holds


def test_poincare_2d():
    dom = gh.SpatialDomain((0.0, 0.0), (1.0, 1.0))
    part = build_partition(dom, 16, "uniform-dyadic")
    n = 64
    nodes, _ = dom.grid(n)
    f = np.sin(3 * nodes[:, 0]) + nodes[:, 1] ** 2
    assert poincare_check(f, part).holds


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_location_term_is_the_sum_of_per_pair_norms_in_pair_order(data):
    # the 1-d term is computed at once; it keeps each pair's norm (tiny gaps
    # included, where |gap| and the norm differ) and the order of the sum
    locs = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 5e-324, 1e-160, 1.0]))
    n_loc = data.draw(st.lists(locs, min_size=0, max_size=12))
    m_loc = data.draw(st.lists(locs, min_size=len(n_loc), max_size=len(n_loc)))
    ids = data.draw(st.permutations(range(len(n_loc))))
    spec = gh.constant_model(0.5, grid_n=8)
    n = make_real(np.linspace(0.1, 1.0, len(n_loc)), n_loc, range(len(n_loc)))
    m = make_real(np.linspace(0.1, 1.0, len(m_loc)), m_loc, ids)
    ref = 0.0
    for k, i in enumerate(ids):
        ref += float(np.linalg.norm(n.locations[i] - m.locations[k]))
    got = pp_distance(n, m, spec).simultaneous_location_term
    assert np.float64(got).tobytes() == np.float64(ref).tobytes()
