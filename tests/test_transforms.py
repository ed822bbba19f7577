"""Transform fixed point, population transform and Monte Carlo oracles."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphon_hawkes as gh
from graphon_hawkes import operators
from graphon_hawkes.config import build_spec
from graphon_hawkes.errors import ShapeError
from graphon_hawkes.model import LifetimeModel, MarkModel, PairFunction
from graphon_hawkes.transforms import (
    TestFunction,
    TransformGrid,
    _baseline_mass,
    _PhiOperator,
    _tail_mass,
    fixed_point,
    interchange_experiment,
    laplace_of_Q,
    mc_population_transform,
    mc_transform_oracle,
    phi_apply,
)

LN2 = math.log(2)


def test_gamma_zero_function():
    # gamma_x(0, u) = Jbar(u) + J(u) = 1, the root's own factor in Phi
    spec = gh.constant_model(0.5, grid_n=8)
    op = _PhiOperator(spec, TestFunction.constant(0.0), np.array([0.0, 0.7, 3.0]), 8)
    np.testing.assert_allclose(op.gamma, 1.0, rtol=1e-15)


def test_gamma_values():
    spec = gh.constant_model(0.5, grid_n=8)  # J ~ Exp(1)
    op = _PhiOperator(spec, TestFunction.constant(LN2), np.array([0.0, 1.0]), 8)
    np.testing.assert_allclose(op.gamma[:, 0], 0.5, rtol=1e-14)
    np.testing.assert_allclose(op.gamma[:, 1], 1 - 0.5 * math.exp(-1), rtol=1e-14)


def test_gamma_grid_function_reads_the_cell():
    # f = LN2 on the cells of [0.5, 1), 0 below; a boundary point takes the upper cell
    spec = gh.constant_model(0.5, grid_n=4)
    f = TestFunction.from_values(np.array([0.0, 0.0, LN2, LN2]))
    np.testing.assert_array_equal(f.at_points(np.array([[0.3], [0.5], [0.9]]), spec),
                                  [0.0, LN2, LN2])


def test_beta_deterministic_and_exponential():
    # from xi = 0, Phi is gamma beta_x(H~(u)) with beta_x(g) = L_xi(int b W g)
    # and H~ the trapezoid H on the time grid; f = 0 makes gamma = 1
    exp_marks = MarkModel(kind="scaled-profile", xi_family="exponential", xi_value=1.0,
                          profile=PairFunction("constant", value=1.0))
    u = np.linspace(0.0, 3.0, 31)
    for marks, w, laplace in ((MarkModel(), 0.5, lambda s: np.exp(-s)),
                              (exp_marks, 1.0, lambda s: 1.0 / (1.0 + s))):
        spec = dataclasses.replace(gh.constant_model(w, grid_n=16), marks=marks)
        op = _PhiOperator(spec, TestFunction.constant(0.0), u, 16)
        h = spec.excitation.h(u)
        h_trap = np.concatenate([[0.0], np.cumsum((h[1:] + h[:-1]) / 2 * (u[1] - u[0]))])
        assert np.max(np.abs(h_trap - spec.excitation.H(u))) < 1e-3  # the trapezoid's O(du^2)
        out = op.apply(np.zeros((16, u.size)))
        np.testing.assert_allclose(out, np.broadcast_to(laplace(w * h_trap), out.shape),
                                   rtol=1e-13)


def test_phi_trivial_cases():
    spec0 = gh.constant_model(0.0, grid_n=64)
    f = TestFunction.constant(LN2)
    u = np.linspace(0, 2, 65)
    nodes, _ = spec0.std_grid
    xi = TransformGrid(values=np.random.default_rng(0).random((64, 65)), u_grid=u, f=f)
    out = phi_apply(xi, spec0, f)
    surv = spec0.lifetimes.survival(u)
    gamma = (1 - surv)[None, :] + surv[None, :] * 0.5
    assert np.allclose(out.values, gamma)  # W = 0: Phi(xi) = gamma for any xi
    ones = TransformGrid(values=np.ones((64, 65)), u_grid=u, f=f)
    spec = gh.constant_model(0.5, grid_n=64)
    out2 = phi_apply(ones, spec, f)
    assert np.allclose(out2.values, gamma)  # xi = 1 kills the excitation term
    f0 = TestFunction.constant(0.0)
    out3 = phi_apply(TransformGrid(values=np.ones((64, 65)), u_grid=u, f=f0), spec, f0)
    assert np.allclose(out3.values, 1.0)


def test_fixed_point_w_zero_equals_gamma_after_one_step():
    spec0 = gh.constant_model(0.0, grid_n=64)
    f = TestFunction.constant(LN2)
    eta, log = fixed_point(spec0, f, 2.0, n_u=65)
    surv = spec0.lifetimes.survival(eta.u_grid)
    gamma = (1 - surv)[None, :] + surv[None, :] * 0.5
    assert np.allclose(eta.values, gamma)
    assert log.iterations <= 3


def test_fixed_point_f_zero_is_one():
    spec = gh.constant_model(0.5, grid_n=64)
    eta, _ = fixed_point(spec, TestFunction.constant(0.0), 2.0, n_u=65)
    assert np.allclose(eta.values, 1.0)


def test_fixed_point_envelope_dominates_changes():
    for build in (lambda: gh.constant_model(0.5, grid_n=64),
                  lambda: gh.rank_one_model(1.2, grid_n=64)):
        spec = build()
        eta, log = fixed_point(spec, TestFunction.constant(LN2), 2.0, n_u=129)
        assert log.envelope_ok
        assert all(c <= e + 1e-9 for c, e in zip(log.sup_changes, log.envelope))


def test_two_starts_within_envelope():
    spec = gh.constant_model(0.5, grid_n=64)
    f = TestFunction.constant(LN2)
    t = 2.0
    n_u = 129
    u = np.linspace(0, t, n_u)
    xi1 = TransformGrid(values=np.ones((64, n_u)), u_grid=u, f=f)
    xi0 = TransformGrid(values=np.zeros((64, n_u)), u_grid=u, f=f)
    c = 2 * spec.excitation.sup_norm * spec.c_b * spec.graphon_bound()
    for n in range(1, 12):
        xi1 = phi_apply(xi1, spec, f)
        xi0 = phi_apply(xi0, spec, f)
        gap = np.abs(xi1.values - xi0.values)
        # at every time u on the grid the gap obeys C^n u^n / n!
        bound = c**n * u**n / math.factorial(n)
        assert np.all(gap <= bound[None, :] + 1e-9), n


def test_range_preservation():
    spec = gh.rank_one_model(1.2, grid_n=64)
    f = TestFunction.constant(1.3)
    u = np.linspace(0, 3, 97)
    rng = np.random.default_rng(4)
    xi = TransformGrid(values=rng.random((64, 97)), u_grid=u, f=f)
    for _ in range(5):
        xi = phi_apply(xi, spec, f)
        assert np.all(xi.values >= 0.0) and np.all(xi.values <= 1.0)


@st.composite
def cell_models(draw):
    """A model with cells on a non-unit 1-d or 2-d box: the graphon is a
    pw-constant grid, the baseline and the mark profile b are constant or one,
    each with its own per-axis counts (1-7 cells in 1-d, 1-3 per axis in 2-d);
    the marks are unmarked or gamma, the lifetimes deterministic or
    exponential; the standard grid is a cell-aligned multiple of the cells."""
    m = draw(st.sampled_from([1, 2]))
    domain = gh.SpatialDomain((-0.5,) * m, (1.0,) * m)

    def counts():
        return tuple(draw(st.integers(1, 7 if m == 1 else 3)) for _ in range(m))

    def table(size, low, high):
        return np.array(draw(st.lists(st.floats(low, high), min_size=size, max_size=size)))

    def grid_pair(low, high):
        c = counts()
        k = math.prod(c)
        return PairFunction("grid", values=table(k * k, low, high).reshape(k, k), axis_counts=c)

    baseline = gh.SpatialProfile("constant", value=draw(st.floats(0.1, 2.0)))
    if draw(st.booleans()):
        cb = counts()
        baseline = gh.SpatialProfile("grid", values=table(math.prod(cb), 0.1, 2.0), axis_counts=cb)
    marks = MarkModel()
    if draw(st.booleans()):
        b = draw(st.just(None) | st.floats(0.2, 1.5))
        marks = MarkModel(kind="scaled-profile", xi_family="gamma",
                          profile=PairFunction("constant", value=b) if b else grid_pair(0.2, 1.5),
                          xi_value=draw(st.floats(0.2, 1.5)), xi_shape=draw(st.floats(0.5, 3.0)))
    lifetimes = draw(st.builds(LifetimeModel, st.just("deterministic"), tau=st.floats(0.2, 3.0))
                     | st.builds(LifetimeModel, st.just("exponential"), rate=st.floats(0.2, 3.0)))
    spec = gh.ModelSpec(
        domain=domain, baseline=baseline, graphon=grid_pair(0.0, 1.0),
        excitation=gh.ExcitationKernel("exponential", rate=draw(st.floats(0.5, 3.0)),
                                       l1=draw(st.floats(0.1, 1.5))),
        marks=marks, lifetimes=lifetimes)
    lcm = spec.form.n
    return dataclasses.replace(spec, grid_n=lcm * draw(st.integers(1, 1 if lcm > 60 else 3)))


@settings(max_examples=60)
@given(cell_models(), st.floats(0.01, 2.0), st.floats(0.5, 3.0), st.integers(2, 33))
def test_cell_fixed_point_equals_dense_iteration(spec, z, t, n_u):
    # the sweeps run on the model's cells; phi_apply on the standard grid, which
    # refines them, is the dense oracle, iterated as many times from ones
    f = TestFunction.constant(z)
    eta, log = fixed_point(spec, f, t, n_u=n_u)
    assert eta.grid_n == spec.form.n == spec.engine.spec.grid_n
    xi = TransformGrid(values=np.ones(eta.values.shape), u_grid=eta.u_grid, f=f)
    for _ in range(log.iterations):
        xi = phi_apply(xi, spec, f)
    np.testing.assert_allclose(eta.values, xi.values, rtol=0.0, atol=1e-12)


@settings(max_examples=30)
@given(cell_models(), st.floats(0.01, 2.0), st.floats(0.5, 3.0), st.integers(2, 33))
def test_laplace_of_q_on_the_swept_rows_equals_the_full_grid_trapezoid(spec, z, t, n_u):
    # the time integral of one row per swept cell, read back by each node of
    # the cell, is the same float as the trapezoid over every standard-grid row
    eta, _ = fixed_point(spec, TestFunction.constant(z), t, n_u=n_u)
    trapz = getattr(np, "trapezoid", None) or np.trapz
    inner = trapz(eta.values - 1.0, eta.u_grid, axis=1)
    lam_w = _baseline_mass(eta, spec)[0]
    assert laplace_of_Q(eta, spec, t) == float(np.exp(np.sum(inner * lam_w)))


def _meshgrid_convolution(h_vals, du):
    """The trapezoid-convolution matrix built from index grids, as the window
    build's reference."""
    n_u = h_vals.shape[0]
    li, ui = np.meshgrid(np.arange(n_u), np.arange(n_u), indexing="ij")
    M = np.where(li <= ui, h_vals[np.clip(ui - li, 0, n_u - 1)], 0.0) * du
    M[0, :] *= 0.5
    M[li == ui] *= 0.5
    M[:, 0] = 0.0
    return M


KERNELS = {
    "exponential": gh.ExcitationKernel("exponential", rate=1.3, l1=0.6),
    "power-law": gh.ExcitationKernel("power-law", exponent=2.5, cutoff=0.7, l1=0.6),
    "table": gh.ExcitationKernel("table", breaks=np.array([0.0, 0.4, 1.1, 2.0]),
                                 table_values=np.array([0.5, 0.2, 0.1])),
}


def _assert_window_build_is_the_meshgrid_build(family, t, n_u):
    spec = dataclasses.replace(gh.constant_model(0.5, grid_n=4), excitation=KERNELS[family])
    u_grid = np.linspace(0.0, t, n_u)
    op = _PhiOperator(spec, TestFunction.constant(1.0), u_grid, spec.grid_n)
    du = float(u_grid[1] - u_grid[0]) if n_u > 1 else 0.0
    ref = _meshgrid_convolution(spec.excitation.h(u_grid), du)
    assert op.M.shape == ref.shape and op.M.dtype == ref.dtype
    assert op.M.tobytes() == ref.tobytes()


@pytest.mark.parametrize("family", sorted(KERNELS))
@pytest.mark.parametrize("n_u", [1, 2, 3])
def test_convolution_matrix_windows_equal_the_meshgrid_build(family, n_u):
    _assert_window_build_is_the_meshgrid_build(family, 2.0, n_u)


@settings(max_examples=40)
@given(st.sampled_from(sorted(KERNELS)), st.floats(0.1, 8.0), st.integers(1, 600))
def test_convolution_matrix_windows_equal_the_meshgrid_build_drawn(family, t, n_u):
    _assert_window_build_is_the_meshgrid_build(family, t, n_u)


def _three_cell_model(grid_n):
    return build_spec({
        "graphon": {"family": "grid", "axis_counts": [3],
                    "values": [[0.6, 0.2, 0.1], [0.3, 0.5, 0.2], [0.1, 0.4, 0.7]]},
        "excitation": {"family": "exponential", "rate": 1.0, "l1": 1.0},
        "grid_n": grid_n,
    })


def test_fixed_point_exact_when_cells_do_not_divide_the_grid():
    # 3 cells do not divide 64 nodes, so midpoint quadrature on the standard grid
    # weighs the cells 21:22:21; the sweeps on the cells are exact at every node
    f = TestFunction.constant(1.0)
    eta, _ = fixed_point(_three_cell_model(64), f, 4.0, n_u=129)
    aligned, _ = fixed_point(_three_cell_model(192), f, 4.0, n_u=129)
    assert eta.grid_n == aligned.grid_n == 3
    assert eta.values.shape == (64, 129)
    np.testing.assert_allclose(eta.values, aligned.values[1::3], rtol=0.0, atol=1e-12)


def test_laplace_of_q_exact_when_cells_do_not_divide_the_grid():
    # eta is exact per cell, so integrating it per cell with the cell volumes
    # makes L_Q and the tail mass exact too; node weights gave them 21:22:21
    f = TestFunction.constant(1.0)
    coarse, aligned = _three_cell_model(64), _three_cell_model(192)
    eta, _ = fixed_point(coarse, f, 4.0, n_u=129)
    eta_aligned, _ = fixed_point(aligned, f, 4.0, n_u=129)
    assert laplace_of_Q(eta, coarse, 4.0) == pytest.approx(
        laplace_of_Q(eta_aligned, aligned, 4.0), rel=0.0, abs=1e-12)
    assert _tail_mass(eta, coarse) == pytest.approx(
        _tail_mass(eta_aligned, aligned), rel=1e-12, abs=1e-15)


def test_grid_test_function_keeps_the_standard_grid():
    spec = _three_cell_model(64)
    f = TestFunction.from_values(np.linspace(0.0, 1.0, 64))
    eta, log = fixed_point(spec, f, 2.0, n_u=33)
    assert eta.grid_n == 64
    xi = TransformGrid(values=np.ones((64, 33)), u_grid=eta.u_grid, f=f)
    for _ in range(log.iterations):
        xi = phi_apply(xi, spec, f)
    np.testing.assert_array_equal(eta.values, xi.values)


def test_laplace_of_q_trivial():
    spec = gh.constant_model(0.5, grid_n=64)
    eta, _ = fixed_point(spec, TestFunction.constant(0.0), 2.0, n_u=65)
    assert laplace_of_Q(eta, spec, 2.0) == pytest.approx(1.0)


def test_laplace_of_q_mginfty_closed_form():
    z, t = 0.7, 2.0
    spec0 = gh.constant_model(0.0, grid_n=64)
    eta, _ = fixed_point(spec0, TestFunction.constant(z), t, n_u=513)
    val = laplace_of_Q(eta, spec0, t)
    assert val == pytest.approx(math.exp(-(1 - math.exp(-z)) * (1 - math.exp(-t))), abs=1e-6)


def test_laplace_of_q_zero_baseline():
    base = gh.constant_model(0.5, grid_n=64)
    spec = gh.ModelSpec(
        domain=base.domain, baseline=gh.SpatialProfile("constant", value=0.0),
        graphon=base.graphon, excitation=base.excitation, lifetimes=base.lifetimes,
        c_w=0.5, grid_n=64,
    )
    eta, _ = fixed_point(spec, TestFunction.constant(0.9), 2.0, n_u=129)
    assert laplace_of_Q(eta, spec, 2.0) == pytest.approx(1.0)


def test_mc_oracle_w_zero_matches_gamma():
    spec0 = gh.constant_model(0.0, grid_n=64)
    f = TestFunction.constant(LN2)
    est = mc_transform_oracle(spec0, [0.4], f, 1.0, 50_000, gh.SplitStream(1))
    target = 1 - 0.5 * math.exp(-1)
    assert abs(est.estimate - target) <= 3 * est.stderr


def test_mc_oracle_f_zero_degenerate():
    spec = gh.constant_model(0.5, grid_n=64)
    est = mc_transform_oracle(spec, [0.4], TestFunction.constant(0.0), 1.0, 2000,
                              gh.SplitStream(2))
    assert est.estimate == 1.0 and est.stderr == 0.0


def test_mc_oracle_agrees_with_fixed_point():
    spec = gh.constant_model(0.5, grid_n=128)
    f = TestFunction.constant(LN2)
    u = 2.0
    eta, _ = fixed_point(spec, f, u, n_u=257)
    est = mc_transform_oracle(spec, [0.5], f, u, 100_000, gh.SplitStream(3))
    idx = int(np.argmin(np.abs(spec.std_grid[0][:, 0] - 0.5)))
    assert abs(est.estimate - eta.values[idx, -1]) <= 3 * est.stderr + 1e-3


def test_population_transform_mc_matches_solver():
    spec = gh.constant_model(0.5, grid_n=128)
    f = TestFunction.constant(0.9)
    t = 2.0
    eta, _ = fixed_point(spec, f, t, n_u=257)
    solver = laplace_of_Q(eta, spec, t)
    est = mc_population_transform(spec, f, t, 100_000, gh.SplitStream(4))
    assert abs(est.estimate - solver) <= 3 * est.stderr + 1e-3


def test_eta_monotone_in_f():
    spec = gh.constant_model(0.5, grid_n=64)
    eta_small, _ = fixed_point(spec, TestFunction.constant(0.3), 2.0, n_u=129)
    eta_big, _ = fixed_point(spec, TestFunction.constant(1.1), 2.0, n_u=129)
    assert np.all(eta_big.values <= eta_small.values + 1e-12)


def test_interchange_constant_model():
    spec = gh.constant_model(0.5, grid_n=64)
    rep = interchange_experiment(spec, [2, 4], TestFunction.constant(0.7), 12.0,
                                 tol=1e-10, n_u=257)
    diffs = [e.abs_diff for e in rep.entries]
    assert all(b <= a + 1e-12 for a, b in zip(diffs, diffs[1:]))
    assert max(diffs) < 1e-9  # identical piecewise-constant inputs
    assert rep.tail_mass < 1e-2


def test_interchange_affine_model_converges():
    spec = gh.ModelSpec(
        domain=gh.SpatialDomain((0.0,), (1.0,)),
        baseline=gh.SpatialProfile("affine", intercept=0.5, slope=(1.0,)),
        graphon=gh.PairFunction("rank-one", coeff=1.2,
                                profile=gh.SpatialProfile("identity")),
        excitation=gh.ExcitationKernel("exponential", rate=1.0, l1=1.0),
        c_w=1.2, grid_n=64,
    )
    rep = interchange_experiment(spec, [2, 16], TestFunction.constant(0.7), 12.0,
                                 tol=1e-10, n_u=257)
    assert rep.entries[-1].abs_diff < rep.entries[0].abs_diff


def test_interchange_flags_unstable_average():
    rep = interchange_experiment(gh.constant_model(1.2, grid_n=64), [2],
                                 TestFunction.constant(0.7), 2.0, n_u=65)
    assert rep.entries[0].unstable


def test_interchange_propagates_non_stability_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise ShapeError("broken discretization")

    monkeypatch.setattr(operators, "discretize_kernel", broken)
    with pytest.raises(ShapeError):
        interchange_experiment(gh.constant_model(0.5, grid_n=64), [2],
                               TestFunction.constant(0.7), 2.0, n_u=65)
