"""Model parameterization, validation, and pointwise evaluation."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import graphon_hawkes as gh
from graphon_hawkes.errors import NegativeTimeError, OutOfDomainError
from graphon_hawkes.model import ExcitationKernel, MarkModel, PairFunction, SpatialProfile


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
