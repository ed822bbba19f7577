"""Model parameterization, validation, and pointwise evaluation."""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
import yaml
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import graphon_hawkes as gh
from graphon_hawkes import config
from graphon_hawkes.config import build_spec, load_model, model_digest, spec_config
from graphon_hawkes.errors import (GraphonHawkesError, InvalidParameterError, NegativeTimeError,
                                   OutOfDomainError)
from graphon_hawkes.model import (
    ExcitationKernel,
    LifetimeModel,
    MarkModel,
    ModelSpec,
    Nonlinearity,
    PairFunction,
    SpatialDomain,
    SpatialProfile,
)
from test_cli import CONST_MODEL, GOLDEN_MODELS


def test_validate_constant_model_clean():
    spec = gh.constant_model(0.5)
    assert gh.validate_model(spec) == []


@pytest.mark.parametrize("grid_n", [0, -4])
def test_validate_reports_a_grid_n_below_one(grid_n):
    # no standard grid to integrate on: reported, not a ZeroDivisionError
    for spec in (gh.constant_model(0.5, grid_n=grid_n), gh.rank_one_model(grid_n=grid_n)):
        assert gh.validate_model(spec) == [
            f"invalid-parameter: grid_n must be at least 1, not {grid_n}"]


def test_validate_negative_graphon_grid():
    vals = np.full((4, 4), 0.3)
    vals[1, 2] = -0.1
    spec = gh.ModelSpec(
        domain=gh.SpatialDomain((0.0,), (1.0,)),
        baseline=SpatialProfile("constant", value=1.0),
        graphon=PairFunction("grid", values=vals, axis_counts=(4,)),
        excitation=ExcitationKernel("exponential", rate=1.0, l1=1.0),
        c_w=0.3,
    )
    assert "negativity: graphon" in gh.validate_model(spec)


@pytest.mark.parametrize("cells", [16, 64])
@pytest.mark.parametrize("family,interp", [("graphon", "pw-constant"), ("graphon", "bilinear"),
                                           ("baseline", "pw-constant"), ("baseline", "linear"),
                                           ("marks", "pw-constant")])
def test_validate_reads_every_cell_of_a_grid_table(family, interp, cells):
    # more cells than the 33-node probe grid: the table itself is checked, since
    # every interpolation takes its minimum and maximum there
    table = np.full((cells, cells), 0.3)
    table[1] = -0.2
    node = {"family": "grid", "values": table.tolist(), "axis_counts": [cells],
            "interp": interp, "c_w": 0.3}
    cfg = {"graphon": {"family": "constant", "value": 0.3, "c_w": 0.3},
           "excitation": {"family": "exponential", "rate": 1.0, "l1": 1.0}}
    bare = {k: v for k, v in node.items() if k != "c_w"}  # C_W bounds the graphon only
    if family == "baseline":
        cfg["baseline"] = {**bare, "values": table[:, 0].tolist()}
    elif family == "marks":
        cfg["marks"] = {"kind": "scaled-profile", "profile": bare}
    else:
        cfg["graphon"] = node
    assert gh.validate_model(build_spec(cfg)) == [f"negativity: {family}"]
    if family == "graphon":
        table[1] = 0.3
        table[2, 5] = 0.5
        cfg["graphon"] = {**node, "values": table.tolist(), "symmetric": True}
        assert gh.validate_model(build_spec(cfg)) == [
            "invalid-parameter: graphon exceeds C_W", "invalid-parameter: graphon asymmetric"]


@pytest.mark.parametrize("node", [
    {"baseline": {"family": "grid", "values": [1.0, 2.0, 3.0], "axis_counts": [2]}},
    {"graphon": {"family": "grid", "values": [[0.2] * 4] * 4, "axis_counts": [8]}},
    {"graphon": {"family": "grid", "values": [[0.2] * 3] * 4}},
    {"marks": {"kind": "scaled-profile", "profile": {"family": "grid", "values": [[1.0]],
                                                     "axis_counts": [2]}}},
])
def test_validate_refuses_a_table_that_does_not_match_its_counts(node):
    # evaluation would index past the table (or never read part of it)
    assert gh.validate_model(build_spec(node)) == [
        "invalid-parameter: grid values do not match axis_counts"]


@pytest.mark.parametrize("m,kind,interp", [
    (1, "graphon", "bilnear"), (2, "graphon", "bilinear"), (1, "graphon", "linear"),
    (2, "baseline", "linear"), (1, "baseline", "bilinear"), (1, "marks", "cubic"),
    (1, "profile", "lineer"),
])
def test_validate_refuses_unsupported_grid_interpolation(m, kind, interp):
    # evaluated as pw-constant, such a grid would silently lose the model's cells
    name = {"graphon": "PairFunction", "marks": "PairFunction"}.get(kind, "SpatialProfile")
    counts = [2] * m
    pair = {"family": "grid", "values": np.full((2**m, 2**m), 0.3).tolist(),
            "axis_counts": counts, "interp": interp}
    cfg = {"domain": {"lower": [0.0] * m, "upper": [1.0] * m},
           "graphon": {"family": "constant", "value": 0.3}}
    if kind == "graphon":
        cfg["graphon"] = pair
    elif kind == "marks":
        cfg["marks"] = {"kind": "scaled-profile", "profile": pair}
    else:
        prof = {"family": "grid", "values": [1.0] * 2**m, "axis_counts": counts,
                "interp": interp}
        if kind == "baseline":
            cfg["baseline"] = prof
        else:
            cfg["graphon"] = {"family": "rank-one", "coeff": 0.3, "profile": prof}
    assert gh.validate_model(build_spec(cfg)) == [
        f"invalid-parameter: unsupported grid interpolation {interp!r} for a {name} "
        f"on a {m}-d domain"]


def test_validate_non_l1_excitation():
    spec = gh.constant_model(0.5)
    bad = gh.ModelSpec(
        domain=spec.domain,
        baseline=spec.baseline,
        graphon=spec.graphon,
        excitation=ExcitationKernel("exponential", rate=1.0, l1=math.inf),
        c_w=0.5,
    )
    assert "invalid-parameter: excitation not L1" in gh.validate_model(bad)


@pytest.mark.parametrize("table,error", [
    ({"breaks": [0.5, 1.0], "values": [1.0]}, "breaks must start at 0"),
    ({"breaks": [0.0, 1.0, 0.5], "values": [1.0, 1.0]}, "breaks must increase"),
    ({"breaks": [0.0, 1.0, 1.0], "values": [1.0, 1.0]}, "breaks must increase"),
    ({"breaks": [0.0, 1.0], "values": [1.0, 2.0]},
     "needs one value per segment between breaks"),
])
def test_validate_refuses_a_table_kernel_off_its_segment_lookup(table, error):
    # the lookup assumes breaks from 0 that increase, one value per segment;
    # else H(0.25) reads -0.25, or the l1 norm 0.5 or 3.0 where h is 1 on [0, 1)
    cfg = {"excitation": {"family": "table", **table}}
    assert gh.validate_model(build_spec(cfg)) == [f"invalid-parameter: excitation table {error}"]
    good = {"excitation": {"family": "table", "breaks": [0.0, 0.5, 1.0], "values": [1.0, 2.0]}}
    assert gh.validate_model(build_spec(good)) == []


@pytest.mark.parametrize("scale", [0.0, -1.0, math.inf, math.nan])
def test_validate_refuses_a_sigmoid_scale_that_is_not_positive(scale):
    # scale 0 gives f(0) = 0 tanh(0 / 0) = NaN; the check runs before f is probed
    cfg = {"nonlinearity": {"family": "sigmoid-scaled", "scale": scale}}
    assert gh.validate_model(build_spec(cfg)) == [
        "invalid-parameter: sigmoid scale must be positive and finite"]
    cfg["nonlinearity"]["scale"] = 2.0
    assert gh.validate_model(build_spec(cfg)) == []


def test_validate_refuses_a_nonlinearity_that_is_not_finite():
    cfg = {"nonlinearity": {"family": "clipped-linear", "cap": math.nan}}
    assert gh.validate_model(build_spec(cfg)) == ["invalid-parameter: nonlinearity not finite"]


def test_validate_is_pure():
    spec = gh.rank_one_model(1.5)
    assert gh.validate_model(spec) == gh.validate_model(spec)


def test_kernel_density_constant():
    spec = gh.constant_model(0.5)
    assert gh.eval_kernel_density(spec, [0.3], [0.7]) == pytest.approx(0.5)


def test_kernel_density_rank_one():
    spec = gh.rank_one_model(1.5)
    assert gh.eval_kernel_density(spec, [0.5], [0.5]) == pytest.approx(0.375)


def test_kernel_density_exponential_marks():
    spec = gh.constant_model(0.5)
    marked = gh.ModelSpec(
        domain=spec.domain,
        baseline=spec.baseline,
        graphon=spec.graphon,
        excitation=spec.excitation,
        marks=MarkModel(
            kind="scaled-profile",
            profile=PairFunction("constant", value=1.0),
            xi_family="exponential",
            xi_value=2.0,
        ),
        c_w=0.5,
    )
    assert gh.eval_kernel_density(marked, [0.2], [0.8]) == pytest.approx(1.0)


def test_kernel_density_out_of_domain():
    spec = gh.constant_model(0.5)
    with pytest.raises(OutOfDomainError):
        gh.eval_kernel_density(spec, [1.5], [0.5])


def test_integrated_excitation_exponential():
    h = ExcitationKernel("exponential", rate=1.0, l1=1.0)
    assert gh.integrated_excitation(h, 1.0) == pytest.approx(1 - math.exp(-1))
    assert gh.integrated_excitation(h, 0.0) == 0.0


def test_integrated_excitation_table_rectangle():
    h = ExcitationKernel(
        "table", breaks=np.array([0.0, 0.5]), table_values=np.array([2.0])
    )
    assert gh.integrated_excitation(h, 0.25) == pytest.approx(0.5)
    assert h.l1_norm == pytest.approx(1.0)


def test_integrated_excitation_negative_time():
    h = ExcitationKernel("exponential", rate=1.0, l1=1.0)
    with pytest.raises(NegativeTimeError):
        gh.integrated_excitation(h, -0.5)


@pytest.mark.parametrize(
    "kernel",
    [
        ExcitationKernel("exponential", rate=1.7, l1=0.8),
        ExcitationKernel("power-law", exponent=2.5, cutoff=0.7, l1=0.6),
        ExcitationKernel(
            "table",
            breaks=np.array([0.0, 0.3, 1.0, 2.5]),
            table_values=np.array([1.2, 0.4, 0.1]),
        ),
    ],
)
def test_integrated_excitation_matches_quadrature(kernel):
    # closed form H vs numerical quadrature of h, 100 random probe points
    rng = np.random.default_rng(7)
    us = rng.uniform(0.0, 4.0, 100)
    jumps = list(kernel.breaks) if kernel.family == "table" else None
    for u in us:
        pts = [p for p in jumps if p < u] if jumps else None
        ref, _ = quad(lambda s: float(kernel.h(s)), 0.0, u, limit=200, points=pts)
        assert abs(float(kernel.H(u)) - ref) < 1e-8


def test_table_delay_inverts_H_exactly():
    # H is piecewise linear, so the delay is its exact inverse up to the
    # rounding of s: H(s) = q H(tau) to rtol 1e-12 wherever the target is not
    # tiny against h(s) ulp(s).  Zero-valued segments never hold a delay's target
    rng = np.random.default_rng(11)
    for _ in range(200):
        k = int(rng.integers(1, 7))
        breaks = np.r_[0.0, np.cumsum(rng.uniform(0.25, 1.0, k))]
        values = np.where(rng.random(k) < 0.4, 0.0, rng.uniform(0.5, 2.0, k))
        values[rng.integers(k)] = 1.0
        kernel = ExcitationKernel("table", breaks=breaks, table_values=values)
        tau = rng.uniform(0.0, 1.5 * breaks[-1], 200)
        tau = tau[kernel.H(tau) >= 0.5 * kernel.l1_norm][:50]
        q = 1.0 - 0.9 * rng.random(tau.size)
        s = kernel.sample_delay(q, tau)
        assert ((s >= 0) & (s <= np.minimum(tau, breaks[-1]))).all()
        np.testing.assert_allclose(kernel.H(s), q * kernel.H(tau), rtol=1e-12, atol=0)


@settings(max_examples=400)
@given(family=st.sampled_from(["exponential", "power-law"]),
       rate=st.floats(1e-3, 1e3),
       exponent=st.one_of(st.sampled_from([1.5, 2.0, 3.0]), st.floats(1.05, 6.0)),
       cutoff=st.floats(1e-3, 1e3),
       l1=st.floats(1e-2, 10.0),
       tau=st.one_of(st.sampled_from([0.0, 5e-324, 2.2e-308, 1e300]),
                     st.floats(0.0, 1e6)),
       q=st.floats(1e-300, 0.999))
@example("power-law", 1.0, 1.5, 1.0, 1.0, 5e-324, 0.5)  # exponent 0.5: `**` is sqrt
def test_H_and_delay_at_one_tau_are_the_array_doubles(family, rate, exponent, cutoff, l1, tau,
                                                      q):
    # a float tau runs the array's ufuncs on float64 scalars; alone or among
    # other lanes, the array gives the same double
    kernel = ExcitationKernel(family, rate=rate, exponent=exponent, cutoff=cutoff, l1=l1)
    lanes = np.array([tau, 0.5, 3.0, 1e-3, 7.0, 40.0, 0.1, 2.0, 9.0])
    H = kernel.H_at(tau)
    assert type(H) is float
    assert np.float64(H).tobytes() == kernel.H(lanes[:1])[0].tobytes()
    assert kernel.H(lanes[:1])[0].tobytes() == kernel.H(lanes)[0].tobytes()
    delay = kernel.sample_delay(q, tau)
    ref = kernel.sample_delay(np.full(lanes.size, q), lanes)[0]
    assert np.float64(delay).tobytes() == ref.tobytes()
    assert ref.tobytes() == kernel.sample_delay(np.array([q]), lanes[:1])[0].tobytes()


@settings(max_examples=200)
@given(seed=st.integers(0, 2**63 - 1),
       family=st.sampled_from(["exponential", "deterministic"]),
       rate=st.floats(1e-3, 1e3),
       tau=st.floats(1e-3, 1e3))
def test_one_lifetime_is_a_draw_of_one_bit_for_bit(seed, family, rate, tau):
    # the same double and the same generator state after it
    model = LifetimeModel(family, tau=tau, rate=rate)
    one, many = (np.random.Generator(np.random.Philox(seed)) for _ in range(2))
    lifetime = model.sample_one(one)
    assert type(lifetime) is float
    assert np.float64(lifetime).tobytes() == model.sample(many, 1)[0].tobytes()
    state = [json.dumps(g.bit_generator.state, default=np.ndarray.tolist, sort_keys=True)
             for g in (one, many)]
    assert state[0] == state[1]


def test_h_nondecreasing_and_limits():
    for kernel in (
        ExcitationKernel("exponential", rate=2.0, l1=0.5),
        ExcitationKernel("power-law", exponent=3.0, cutoff=1.0, l1=2.0),
    ):
        us = np.linspace(0, 50, 400)
        hs = kernel.H(us)
        assert (np.diff(hs) >= -1e-12).all()
        assert hs[0] == 0.0
        assert hs[-1] == pytest.approx(kernel.l1_norm, rel=1e-3)


@pytest.mark.parametrize(
    "marks",
    [
        MarkModel(kind="unmarked"),
        MarkModel(kind="scaled-profile", xi_family="deterministic", xi_value=1.5,
                  profile=PairFunction("constant", value=1.0)),
        MarkModel(kind="scaled-profile", xi_family="exponential", xi_value=2.0,
                  profile=PairFunction("constant", value=1.0)),
        MarkModel(kind="scaled-profile", xi_family="gamma", xi_shape=2.0, xi_value=0.7,
                  profile=PairFunction("constant", value=1.0)),
    ],
)
def test_mark_mean_monte_carlo(marks):
    # MC estimate of E[B_xy] agrees with the kernel-density mean within 3 se
    rng = np.random.default_rng(11)
    draws = marks.sample_xi(rng, 10_000)
    se = draws.std(ddof=1) / math.sqrt(draws.size) if draws.std() > 0 else 1e-12
    assert abs(draws.mean() - marks.mean_xi) <= 3 * se + 1e-12


def test_laplace_xi_closed_forms():
    exp_marks = MarkModel(kind="scaled-profile", xi_family="exponential", xi_value=1.0,
                          profile=PairFunction("constant", value=1.0))
    assert float(exp_marks.laplace_xi(1.0)) == pytest.approx(0.5)
    det = MarkModel(kind="scaled-profile", xi_family="deterministic", xi_value=2.0,
                    profile=PairFunction("constant", value=1.0))
    assert float(det.laplace_xi(0.5)) == pytest.approx(math.exp(-1.0))


def test_grid_profile_and_pair_eval():
    dom = gh.SpatialDomain((0.0,), (1.0,))
    prof = SpatialProfile("grid", values=np.array([1.0, 3.0]), axis_counts=(2,))
    pts = np.array([[0.2], [0.8]])
    assert np.allclose(prof(pts, dom), [1.0, 3.0])
    pf = PairFunction("grid", values=np.array([[1.0, 2.0], [3.0, 4.0]]), axis_counts=(2,))
    assert pf.pairs(np.array([[0.1]]), np.array([[0.9]]), dom)[0] == pytest.approx(2.0)
    assert pf.column(pts, np.array([0.1]), dom) == pytest.approx([1.0, 3.0])


@pytest.mark.parametrize("pf", [
    PairFunction("constant", value=0.3),
    PairFunction("rank-one", coeff=1.5, profile=SpatialProfile("identity")),
    PairFunction("grid", values=np.arange(16.0).reshape(4, 4), axis_counts=(4,),
                 interp="bilinear"),
])
def test_pair_matrix_matches_pointwise_pairs(pf):
    dom = gh.SpatialDomain((0.0,), (1.0,))
    nodes, _ = dom.grid(7)
    mat = pf.matrix(nodes, dom)
    assert mat.shape == (7, 7)
    for i in range(7):
        for j in range(7):
            assert mat[i, j] == pf.pairs(nodes[i], nodes[j], dom)[0]


def meshgrid_pairs(pf, xs, ys, dom):
    """The pair evaluation before the per-point evaluator, one pair per row."""
    if pf.family == "constant":
        return np.full(xs.shape[0], float(pf.value))
    if pf.family == "rank-one":
        a = pf.profile or SpatialProfile("identity")
        return pf.coeff * a(xs, dom) * a(ys, dom)
    vals, counts = np.asarray(pf.values, float), pf.cell_counts
    if pf.interp == "bilinear":
        n = counts[0]
        mids = dom.lo[0] + (np.arange(n) + 0.5) * (dom.hi[0] - dom.lo[0]) / n
        fi = np.clip(np.interp(xs[:, 0], mids, np.arange(n)), 0, n - 1)
        fj = np.clip(np.interp(ys[:, 0], mids, np.arange(n)), 0, n - 1)
        i0, j0 = fi.astype(int), fj.astype(int)
        i1, j1 = np.minimum(i0 + 1, n - 1), np.minimum(j0 + 1, n - 1)
        ti, tj = fi - i0, fj - j0
        return (vals[i0, j0] * (1 - ti) * (1 - tj) + vals[i1, j0] * ti * (1 - tj)
                + vals[i0, j1] * (1 - ti) * tj + vals[i1, j1] * ti * tj)
    cells = [np.minimum(np.maximum(((p - dom.lo) / (dom.hi - dom.lo) * counts).astype(int),
                                   0), np.asarray(counts) - 1) for p in (xs, ys)]
    flat = [np.ravel_multi_index(tuple(c.T), counts) for c in cells]
    return vals[flat[0], flat[1]]


moderate = st.floats(-1e3, 1e3, allow_nan=False)


@st.composite
def evaluator_cases(draw):
    m = draw(st.integers(1, 3))
    lo = np.array(draw(st.lists(st.floats(-10, 10), min_size=m, max_size=m)))
    span = np.array(draw(st.lists(st.floats(0.01, 10), min_size=m, max_size=m)))
    dom = SpatialDomain(tuple(lo), tuple(lo + span))
    counts = tuple(draw(st.lists(st.integers(1, 4), min_size=m, max_size=m)))
    k = math.prod(counts)
    fam = draw(st.sampled_from(["constant", "rank-one", "grid"]))
    if fam == "constant":
        pf = PairFunction("constant", value=draw(moderate))
    elif fam == "grid":
        interp = draw(st.sampled_from(["pw-constant", "bilinear"] if m == 1 else ["pw-constant"]))
        table = np.array(draw(st.lists(moderate, min_size=k * k, max_size=k * k)))
        pf = PairFunction("grid", values=table.reshape(k, k), axis_counts=counts, interp=interp)
    else:
        kind = draw(st.sampled_from(["none", "constant", "identity", "affine", "grid"]))
        prof = {
            "none": None,
            "constant": SpatialProfile("constant", value=draw(moderate)),
            "identity": SpatialProfile("identity"),
            "affine": SpatialProfile("affine", intercept=draw(moderate), slope=tuple(
                draw(st.lists(moderate, min_size=m, max_size=m)))),
            "grid": SpatialProfile(
                "grid", values=np.array(draw(st.lists(moderate, min_size=k, max_size=k))),
                axis_counts=counts, interp=draw(st.sampled_from(
                    ["pw-constant", "linear"] if m == 1 else ["pw-constant"]))),
        }[kind]
        pf = PairFunction("rank-one", coeff=draw(moderate), profile=prof)
    n = draw(st.integers(1, [24, 8, 4][m - 1]))
    return pf, dom, n


@settings(max_examples=300)
@given(evaluator_cases(), st.data())
def test_pair_matrix_equals_meshgrid_pairs_bit_for_bit(case, data):
    pf, dom, n = case
    nodes, _ = dom.grid(n)
    k = nodes.shape[0]
    ii, jj = np.meshgrid(np.arange(k), np.arange(k), indexing="ij")
    old = meshgrid_pairs(pf, nodes[ii.ravel()], nodes[jj.ravel()], dom).reshape(k, k)
    new = pf.matrix(nodes, dom)
    assert new.shape == old.shape and new.dtype == old.dtype
    assert new.tobytes() == old.tobytes()
    # pairs at matched rows and a column at one source point: the same evaluator
    perm = np.array(data.draw(st.permutations(range(k))))
    assert pf.pairs(nodes, nodes[perm], dom).tobytes() == old[np.arange(k), perm].tobytes()
    j = data.draw(st.integers(0, k - 1))
    assert pf.column(nodes, nodes[j], dom).tobytes() == old[:, j].tobytes()


# ---------------------------------------------------------------------------
# Config round trip: spec_config -> YAML file -> load_model keeps the digest

# Bounded magnitudes and small tables keep a failing example's shrink short;
# the extreme doubles are pinned as examples of the round-trip test below.
# The explain phase, which re-runs a failure once per drawn value (hundreds
# for one model), is off for the tests that draw whole models: with it, a
# failure took 30 s to report instead of 4.
finite = st.floats(-1e3, 1e3)
positive = st.floats(1e-6, 1e6)
model_settings = settings(phases=[p for p in Phase if p is not Phase.explain])


def cell_counts(m: int):
    """Per-axis cell counts of a grid table: at most 3 values in 1-d, 4 in 2-d."""
    return st.lists(st.integers(1, 3 if m == 1 else 2), min_size=m, max_size=m).map(tuple)


@st.composite
def grid_values(draw, size):
    return np.array(draw(st.lists(finite, min_size=size, max_size=size)))


@st.composite
def profiles(draw, m):
    fam = draw(st.sampled_from(["constant", "identity", "affine", "grid"]))
    if fam == "constant":
        return SpatialProfile("constant", value=draw(finite))
    if fam == "identity":
        return SpatialProfile("identity")
    if fam == "affine":
        return SpatialProfile("affine", intercept=draw(finite),
                              slope=tuple(draw(st.lists(finite, min_size=m, max_size=m))))
    counts = draw(cell_counts(m))
    interp = draw(st.sampled_from(["pw-constant", "linear"])) if m == 1 else "pw-constant"
    return SpatialProfile("grid", values=draw(grid_values(math.prod(counts))),
                          axis_counts=counts, interp=interp)


@st.composite
def pair_functions(draw, m):
    fam = draw(st.sampled_from(["constant", "rank-one", "grid"]))
    if fam == "constant":
        return PairFunction("constant", value=draw(finite))
    if fam == "rank-one":
        return PairFunction("rank-one", coeff=draw(finite), profile=draw(profiles(m)))
    counts = draw(cell_counts(m))
    k = math.prod(counts)
    interp = draw(st.sampled_from(["pw-constant", "bilinear"])) if m == 1 else "pw-constant"
    return PairFunction("grid", values=draw(grid_values(k * k)).reshape(k, k),
                        axis_counts=counts, interp=interp)


@st.composite
def model_specs(draw):
    m = draw(st.sampled_from([1, 2]))
    lo = draw(st.lists(st.floats(-1e3, 1e3), min_size=m, max_size=m))
    span = draw(st.lists(st.floats(1e-3, 1e3), min_size=m, max_size=m))
    exc = draw(st.sampled_from(["exponential", "power-law", "table"]))
    if exc == "exponential":
        excitation = ExcitationKernel("exponential", rate=draw(positive), l1=draw(positive))
    elif exc == "power-law":
        excitation = ExcitationKernel("power-law", exponent=draw(st.floats(1.01, 10.0)),
                                      cutoff=draw(positive), l1=draw(positive))
    else:
        k = draw(st.integers(1, 3))
        breaks = np.r_[0.0, np.cumsum(draw(st.lists(positive, min_size=k, max_size=k)))]
        excitation = ExcitationKernel("table", breaks=breaks,
                                      table_values=draw(grid_values(k)))
    xi = draw(st.sampled_from(["unmarked", "deterministic", "exponential", "gamma"]))
    marks = MarkModel() if xi == "unmarked" else MarkModel(
        kind="scaled-profile", profile=draw(pair_functions(m)), xi_family=xi,
        xi_value=draw(positive), xi_shape=draw(positive) if xi == "gamma" else 1.0)
    lifetimes = draw(st.builds(LifetimeModel, st.just("deterministic"), tau=positive)
                     | st.builds(LifetimeModel, st.just("exponential"), rate=positive))
    nl = draw(st.sampled_from(["identity", "clipped-linear", "sigmoid-scaled"]))
    nonlinearity = Nonlinearity(
        nl, lipschitz=draw(positive),
        cap=draw(positive) if nl == "clipped-linear" else math.inf,
        scale=draw(positive) if nl == "sigmoid-scaled" else 1.0)
    return ModelSpec(
        domain=SpatialDomain(tuple(lo), tuple(a + b for a, b in zip(lo, span))),
        baseline=draw(profiles(m)),
        graphon=draw(pair_functions(m)),
        excitation=excitation,
        marks=marks,
        lifetimes=lifetimes,
        nonlinearity=nonlinearity,
        c_w=draw(st.just(math.inf) | positive),
        symmetric=draw(st.booleans()),
        grid_n=draw(st.integers(1, 1024)),
    )


BIG, TINY, NORMAL = 1.7976931348623157e308, 5e-324, 2.2250738585072014e-308
EXTREME_SPECS = [
    ModelSpec(
        domain=SpatialDomain((-1e3,), (1e3,)),
        baseline=SpatialProfile("affine", intercept=BIG, slope=(-TINY,)),
        graphon=PairFunction("rank-one", coeff=-0.0,
                             profile=SpatialProfile("constant", value=NORMAL)),
        excitation=ExcitationKernel("table", breaks=np.array([0.0, TINY, BIG]),
                                    table_values=np.array([-BIG, 2.0**53 + 1])),
        c_w=BIG, grid_n=1),
    ModelSpec(
        domain=SpatialDomain((0.0, -TINY), (1e-3, 1.0)),
        baseline=SpatialProfile("grid", values=np.array([TINY, -BIG, -0.0, 1e-300]),
                                axis_counts=(2, 2)),
        graphon=PairFunction("grid", values=np.array([BIG, -NORMAL, 0.1, -1e300]).reshape(2, 2),
                             axis_counts=(1, 2)),
        excitation=ExcitationKernel("power-law", exponent=10.0, cutoff=1e-6, l1=1e6),
        marks=MarkModel(kind="scaled-profile", profile=PairFunction("constant", value=-BIG),
                        xi_family="gamma", xi_value=1e6, xi_shape=1e-6),
        nonlinearity=Nonlinearity("sigmoid-scaled", lipschitz=TINY, scale=BIG)),
]


@model_settings
@given(spec=model_specs())
@example(spec=EXTREME_SPECS[0])
@example(spec=EXTREME_SPECS[1])
def test_config_round_trip_keeps_digest(tmp_path_factory, spec):
    path = tmp_path_factory.mktemp("cfg") / "model.yaml"
    path.write_text(yaml.safe_dump(spec_config(spec), sort_keys=True))
    back = load_model(path)
    assert spec_config(back) == spec_config(spec)
    assert model_digest(back) == model_digest(spec)


@pytest.mark.parametrize("loader", ["SafeLoader", "CSafeLoader"])
def test_malformed_yaml_is_an_invalid_parameter(tmp_path, monkeypatch, loader):
    if not hasattr(yaml, loader):
        pytest.skip(f"PyYAML built without {loader}")
    monkeypatch.setattr(config, "_LOADER", getattr(yaml, loader))
    path = tmp_path / "broken.yaml"
    path.write_text("a: [1, 2\n")
    with pytest.raises(InvalidParameterError, match="broken.yaml"):
        load_model(path)


# ---------------------------------------------------------------------------
# One schema: pinned digests, its defaults, and what it refuses

# one model per family that the CLI's golden models do not cover
HAND_MODELS = {
    "affine-baseline": {**CONST_MODEL, "baseline": {"family": "affine", "intercept": 0.5,
                                                    "slope": [1.0]}},
    "grid-baseline": {**CONST_MODEL, "baseline": {"family": "grid", "values": [1.0, 2.0, 0.5, 1.5],
                                                  "axis_counts": [4], "interp": "linear"}},
    "grid-marks": {**CONST_MODEL, "marks": {"kind": "scaled-profile", "profile": {
        "family": "grid", "values": [[1.0, 0.5], [0.5, 1.0]], "axis_counts": [2]}}},
    "table-kernel": {**CONST_MODEL, "excitation": {"family": "table", "breaks": [0.0, 0.5, 2.0],
                                                   "values": [1.0, 0.2]}},
    "xi-deterministic": {**CONST_MODEL, "marks": {"kind": "scaled-profile",
                                                  "xi": {"family": "deterministic", "value": 0.8}}},
    "xi-gamma": {**CONST_MODEL, "marks": {"kind": "scaled-profile", "profile": {
        "family": "rank-one", "coeff": 0.5, "profile": {"family": "affine", "intercept": 1.0}},
        "xi": {"family": "gamma", "shape": 2.0, "scale": 0.4}}},
    "sigmoid-scaled": {**CONST_MODEL, "nonlinearity": {"family": "sigmoid-scaled", "scale": 2.0,
                                                       "lipschitz": 0.9}},
    "defaults": {},
    "bare-families": {"baseline": {"family": "constant"}, "graphon": {"family": "rank-one"},
                      "marks": {"kind": "scaled-profile"}, "lifetimes": {"family": "deterministic"}},
}
# (model_digest, sha256 of the sorted spec_config JSON), taken before the schema
# replaced the hand-written reader and writer
PINNED_CONFIGS = {
    "step16": ("f172a5c9377f28af", "6fb508801f81630b"),
    "rank1": ("ed44099aecdab22f", "a61be9bf3791008e"),
    "const": ("fda483c405d75b34", "fcf24dc12004b199"),
    "const-marked": ("cbcbbc01a62dfebf", "f4fa29802d91e37f"),
    "nl-powerlaw": ("5d20a7561e92420c", "5782ae5aa5da5096"),
    "affine-baseline": ("8d454bfb9cc1ab7f", "61df41b559df7dc6"),
    "grid-baseline": ("c27de76e23347cb4", "652a5c34e10fec4f"),
    "grid-marks": ("690b43c4c9e6ffbb", "d63ca6bc769d3eeb"),
    "table-kernel": ("adbaf882d12ae6eb", "7dc16d5bbda04d15"),
    "xi-deterministic": ("900647a8e5c15bda", "9bad731879170caf"),
    "xi-gamma": ("ece5a83ed147aeec", "22fdc1e1d329ae73"),
    "sigmoid-scaled": ("a6c9862fcba62eda", "46b4a28b80e9e02c"),
    "defaults": ("976716892e3b8bfe", "72a6593f1823fa4b"),
    "bare-families": ("4e34e9f1d756b901", "cc217359276b6f2d"),
}


@pytest.mark.parametrize("name", sorted(PINNED_CONFIGS))
def test_config_digests_are_pinned(name):
    spec = build_spec({**GOLDEN_MODELS, **HAND_MODELS}[name])
    text = json.dumps(spec_config(spec), sort_keys=True)
    assert (model_digest(spec), hashlib.sha256(text.encode()).hexdigest()[:16]) == \
        PINNED_CONFIGS[name]


def test_config_defaults_are_written_out():
    # a missing baseline is constant 1 but a bare constant is 0; a missing marks
    # profile is constant 1; a rank-one profile is the identity; an infinite C_W,
    # a table's L1 and the keys of other families are not written
    unit = {"lower": [0.0], "upper": [1.0]}
    assert spec_config(build_spec({})) == {
        "domain": unit, "baseline": {"family": "constant", "value": 1.0},
        "graphon": {"family": "constant", "value": 0.0, "symmetric": False},
        "excitation": {"family": "exponential", "rate": 1.0, "l1": 1.0},
        "marks": {"kind": "unmarked"}, "lifetimes": {"family": "exponential", "rate": 1.0},
        "nonlinearity": {"family": "identity", "lipschitz": 1.0}, "grid_n": 512}
    bare = spec_config(build_spec(HAND_MODELS["bare-families"]))
    assert bare["baseline"] == {"family": "constant", "value": 0.0}
    assert bare["graphon"]["profile"] == {"family": "identity"}
    assert bare["marks"] == {"kind": "scaled-profile",
                             "profile": {"family": "constant", "value": 1.0},
                             "xi": {"family": "deterministic", "value": 1.0}}
    assert bare["lifetimes"] == {"family": "deterministic", "tau": 1.0}
    table = build_spec(HAND_MODELS["table-kernel"])
    assert math.isnan(table.excitation.l1) and "l1" not in spec_config(table)["excitation"]
    unset = dataclasses.replace(table, graphon=PairFunction("rank-one", coeff=1.0))
    assert spec_config(unset)["graphon"]["profile"] == {"family": "identity"}


def test_a_grid_reads_values_or_csv(tmp_path):
    inline = {**HAND_MODELS["grid-baseline"], "marks": HAND_MODELS["grid-marks"]["marks"]}
    (tmp_path / "lam.csv").write_text("1.0\n2.0\n0.5\n1.5\n")
    (tmp_path / "b.csv").write_text("1.0,0.5\n0.5,1.0\n")
    lam = {k: v for k, v in inline["baseline"].items() if k != "values"}
    b = {k: v for k, v in inline["marks"]["profile"].items() if k != "values"}
    cfg = {**inline, "baseline": {**lam, "csv": "lam.csv"},  # relative to the config file
           "marks": {"kind": "scaled-profile", "profile": {**b, "csv": str(tmp_path / "b.csv")}}}
    path = tmp_path / "model.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert model_digest(load_model(path)) == model_digest(build_spec(inline))
    with pytest.raises(InvalidParameterError, match="config.baseline: give 'values' or 'csv'"):
        build_spec({"baseline": {**cfg["baseline"], "values": [1.0]}}, tmp_path)


MUTANTS = ["abc", [1.0, "x"], {"a": 1.0}, None, True, 12.7, -3, [[1.0], [2.0, 3.0]], []]


@model_settings
@given(model_specs(), st.data())
def test_a_mutated_config_is_read_or_refused(spec, data):
    # drop, rename or retype one key at any depth, or put a scalar for a section:
    # the reader returns a spec or raises a typed error, never a bare one
    node = cfg = spec_config(spec)
    while (subs := sorted(k for k, v in node.items() if isinstance(v, dict))) \
            and data.draw(st.booleans()):
        node = node[data.draw(st.sampled_from(subs))]
    key = data.draw(st.sampled_from(sorted(node)))
    how = data.draw(st.sampled_from(["drop", "rename", "retype", "scalar"]))
    if how == "drop":
        del node[key]
    elif how == "rename":
        node[key + "x"] = node.pop(key)
    elif how == "scalar" and subs:
        node[data.draw(st.sampled_from(subs))] = data.draw(st.sampled_from(["exponential", 1.0]))
    else:
        node[key] = data.draw(st.sampled_from(MUTANTS))
    try:
        assert isinstance(build_spec(cfg), ModelSpec)
    except GraphonHawkesError:
        pass
