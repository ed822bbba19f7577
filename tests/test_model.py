"""Model parameterization, validation, and pointwise evaluation."""

import math

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import graphon_hawkes as gh
from graphon_hawkes import config
from graphon_hawkes.config import build_spec, load_model, model_digest, spec_config
from graphon_hawkes.errors import InvalidParameterError, NegativeTimeError, OutOfDomainError
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


def test_validate_constant_model_clean():
    spec = gh.constant_model(0.5)
    assert gh.validate_model(spec) == []


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
    if family == "baseline":
        cfg["baseline"] = {**node, "values": table[:, 0].tolist()}
    elif family == "marks":
        cfg["marks"] = {"kind": "scaled-profile", "profile": node}
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

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(1e-6, 1e6)


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
    counts = tuple(draw(st.lists(st.integers(1, 4), min_size=m, max_size=m)))
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
    counts = tuple(draw(st.lists(st.integers(1, 3), min_size=m, max_size=m)))
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
        k = draw(st.integers(1, 5))
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


@given(model_specs())
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
