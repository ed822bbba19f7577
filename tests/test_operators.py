"""Kernel discretization, spectral diagnostics and stationary rates.

Derived expectations come from independent oracles: dense linear solves
and dense dominant eigenvalues on the same grid.
"""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import graphon_hawkes as gh
from graphon_hawkes import limits, operators
from graphon_hawkes.config import build_spec
from graphon_hawkes.errors import GridTooLargeError, ShapeError, UnstableModelError
from graphon_hawkes.events import box_mask
from graphon_hawkes.limits import fclt_experiment, flln_experiment
from graphon_hawkes.model import _cell_index, validate_model
from graphon_hawkes.operators import (
    apply_kernel,
    cluster_size_bound,
    discretize_kernel,
    fclt_sigma,
    operator_norm_l1,
    outdegree_norm,
    spectral_radius,
    stability_report,
    stationary_rate,
)
from graphon_hawkes.transforms import TestFunction, fixed_point


def zero_model(grid_n=256):
    return gh.constant_model(0.0, grid_n=grid_n)


def test_discretize_rank_one_n2():
    grid = discretize_kernel(gh.rank_one_model(1.0), 2)
    assert np.allclose(grid.nodes[:, 0], [0.25, 0.75])
    assert np.allclose(grid.values, [[0.0625, 0.1875], [0.1875, 0.5625]])


def test_discretize_constant():
    grid = discretize_kernel(gh.constant_model(0.5), 7)
    assert np.allclose(grid.values, 0.5)


def test_discretize_zero():
    grid = discretize_kernel(zero_model(), 5)
    assert np.all(grid.values == 0.0)


def test_discretize_memory_cap():
    with pytest.raises(GridTooLargeError):
        discretize_kernel(gh.constant_model(0.5), 5000)


def test_apply_kernel_constant():
    grid = discretize_kernel(gh.constant_model(0.5), 16)
    out = apply_kernel(grid, np.ones(16))
    assert np.allclose(out, 0.5)


def test_apply_kernel_zero():
    grid = discretize_kernel(zero_model(), 16)
    assert np.allclose(apply_kernel(grid, np.random.default_rng(0).random(16)), 0.0)


def test_apply_kernel_rank_one_analytic():
    # (Tf)(x) = int 1.5 x y dy = 0.75 x for f = 1
    grid = discretize_kernel(gh.rank_one_model(1.5), 256)
    out = apply_kernel(grid, np.ones(256))
    assert np.max(np.abs(out - 0.75 * grid.nodes[:, 0])) < 1e-3


def test_apply_kernel_shape_error():
    grid = discretize_kernel(gh.constant_model(0.5), 8)
    with pytest.raises(ShapeError):
        apply_kernel(grid, np.ones(9))


def test_operator_norm():
    assert operator_norm_l1(discretize_kernel(gh.constant_model(0.5), 64)) == pytest.approx(0.5)
    assert operator_norm_l1(discretize_kernel(zero_model(), 16)) == 0.0
    n = operator_norm_l1(discretize_kernel(gh.rank_one_model(1.5), 256))
    assert abs(n - 0.75) < 1e-2


def test_spectral_radius_constant():
    est = spectral_radius(discretize_kernel(gh.constant_model(0.5), 64), 8)
    assert est.rho_power_iteration == pytest.approx(0.5, abs=1e-6)
    assert min(est.rho_gelfand_sequence) == pytest.approx(0.5, abs=1e-6)


def test_spectral_radius_rank_one_vs_dense_eigen_oracle():
    grid = discretize_kernel(gh.rank_one_model(1.5), 256)
    est = spectral_radius(grid, 32)
    dense = np.max(np.abs(np.linalg.eigvals(grid.action)))
    assert est.rho_power_iteration == pytest.approx(dense, abs=1e-8)
    assert est.rho_power_iteration == pytest.approx(0.5, abs=1e-3)


def test_spectral_radius_zero():
    est = spectral_radius(discretize_kernel(zero_model(), 16), 4)
    assert est.rho_power_iteration == 0.0
    assert min(est.rho_gelfand_sequence) == 0.0


def test_gelfand_envelope_monotone_and_dominates_power():
    grid = discretize_kernel(gh.rank_one_model(1.5), 128)
    est = spectral_radius(grid, 24)
    env = np.minimum.accumulate(est.rho_gelfand_sequence)
    assert (np.diff(env) <= 1e-12).all()
    assert env[-1] >= est.rho_power_iteration - 1e-9


def test_stationary_rate_constant():
    grid = discretize_kernel(gh.constant_model(0.5), 64)
    sr = stationary_rate(grid, np.ones(64))
    assert np.max(np.abs(sr.values - 2.0)) < 1e-6
    assert sr.residual <= 1e-8


def test_stationary_rate_rank_one_analytic_and_dense_oracle():
    grid = discretize_kernel(gh.rank_one_model(1.5), 256)
    lam = np.ones(256)
    sr = stationary_rate(grid, lam)
    assert np.max(np.abs(sr.values - (1 + 1.5 * grid.nodes[:, 0]))) < 1e-3
    dense = np.linalg.solve(np.eye(256) - grid.action, lam)
    assert np.max(np.abs(sr.values - dense)) < 10 * 1e-10


def test_stationary_rate_zero_kernel():
    grid = discretize_kernel(zero_model(), 32)
    lam = np.linspace(0.5, 1.5, 32)
    sr = stationary_rate(grid, lam)
    assert np.allclose(sr.values, lam)


def test_stationary_rate_unstable():
    grid = discretize_kernel(gh.constant_model(1.5), 32)
    with pytest.raises(UnstableModelError):
        stationary_rate(grid, np.ones(32))


def test_stationary_rate_dominates_baseline():
    grid = discretize_kernel(gh.rank_one_model(1.2), 128)
    lam = 1.0 + 0.3 * np.sin(2 * np.pi * grid.nodes[:, 0])
    sr = stationary_rate(grid, lam)
    assert (sr.values >= lam - 1e-12).all()


def test_cluster_size_bound_values():
    assert cluster_size_bound(discretize_kernel(gh.constant_model(0.5), 64)) == pytest.approx(2.0, abs=1e-6)
    assert cluster_size_bound(discretize_kernel(zero_model(), 16)) == pytest.approx(1.0)
    k = cluster_size_bound(discretize_kernel(gh.rank_one_model(1.5), 256))
    assert 2.0 <= k <= 4.0


def test_fclt_sigma_constant():
    grid = discretize_kernel(gh.constant_model(0.5), 64)
    sr = stationary_rate(grid, np.ones(64))
    sigma = fclt_sigma(grid, sr, np.ones(64, bool))
    assert sigma == pytest.approx(2 * np.sqrt(2), abs=1e-4)


def test_fclt_sigma_poisson_and_empty_mask():
    grid = discretize_kernel(zero_model(), 64)
    sr = stationary_rate(grid, np.ones(64))
    assert fclt_sigma(grid, sr, np.ones(64, bool)) == pytest.approx(1.0)
    assert fclt_sigma(grid, sr, np.zeros(64, bool)) == 0.0


def test_refinement_consistency_monotone_error_decay():
    # doubling n shrinks the rho / norm / rate errors for the Lipschitz kernel
    errs_rho, errs_norm, errs_rate = [], [], []
    for n in (16, 32, 64, 128):
        spec = gh.rank_one_model(1.5, grid_n=n)
        grid = discretize_kernel(spec, n)
        est = spectral_radius(grid, 16)
        errs_rho.append(abs(est.rho_power_iteration - 0.5))
        errs_norm.append(abs(operator_norm_l1(grid) - 0.75))
        sr = stationary_rate(grid, np.ones(n))
        errs_rate.append(np.max(np.abs(sr.values - (1 + 1.5 * grid.nodes[:, 0]))))
    for errs in (errs_rho, errs_norm, errs_rate):
        assert all(b < a for a, b in zip(errs, errs[1:])), errs


def test_outdegree_norm_matches_operator_norm_unmarked():
    spec = gh.rank_one_model(1.5)
    assert outdegree_norm(spec, 256) == pytest.approx(
        operator_norm_l1(discretize_kernel(spec, 256))
    )


def grid_model(interp: str) -> gh.ModelSpec:
    table = np.random.default_rng(4).uniform(0.2, 1.0, (16, 16)) / 16
    return build_spec({"graphon": {"family": "grid", "values": table.tolist(),
                                   "axis_counts": [16], "interp": interp}})


def marked_model() -> gh.ModelSpec:
    return build_spec({"marks": {"kind": "scaled-profile",
                                 "xi": {"family": "exponential", "mean": 0.5},
                                 "profile": {"family": "grid", "values": [[1.0, 0.5], [0.5, 2.0]],
                                             "axis_counts": [2]}}})


@pytest.mark.parametrize("spec,pairs", [
    (gh.constant_model(0.5), 2), (gh.rank_one_model(1.5), 2),
    (grid_model("pw-constant"), 2), (grid_model("bilinear"), 6), (marked_model(), 6),
], ids=["constant", "rank-one", "pw-constant", "bilinear", "marked"])
def test_discretize_kernel_memory_stays_within_six_pair_matrices(spec, pairs):
    # Alive at once: E[B] and c E[B] while W is formed, and at most three
    # arrays while a bilinear W is summed (running sum, a gathered corner,
    # its weighted product): 5 arrays of k^2 doubles, plus one of margin.
    # A constant mark profile enters as a scalar, so W and c E[B] W are the
    # only pair matrices of a model with constant marks and a gathered W
    # (2, plus a few k-vectors).  Forming the k^2 node pairs first cost 7
    # (constant) to 17 (bilinear), and a matrix of ones for b took 3.
    n = 512
    discretize_kernel(spec, n)  # cached model properties are not counted
    tracemalloc.start()
    try:
        discretize_kernel(spec, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= pairs * 8 * n * n + (16 * 8 * n if pairs == 2 else 0)


def test_stability_report_fields():
    rep = stability_report(gh.constant_model(1.5), 64)
    assert not rep.stable
    assert rep.cluster_size_bound is None
    rep2 = stability_report(gh.constant_model(0.5), 64)
    assert rep2.stable and rep2.cluster_size_bound == pytest.approx(2.0, abs=1e-6)


class MatmulLog(np.ndarray):
    """An array that logs the operand ndims of every matmul it takes part in
    and hands the log on to every array computed from it."""

    def __array_finalize__(self, obj):
        self.log = getattr(obj, "log", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            self.log.append(tuple(np.ndim(x) for x in inputs))
        plain = [x.view(np.ndarray) if isinstance(x, MatmulLog) else x for x in inputs]
        out = getattr(ufunc, method)(*plain, **kwargs)
        if isinstance(out, np.ndarray):
            out = out.view(MatmulLog)
            out.log = self.log
        return out


def log_matmul_operands(monkeypatch) -> list[tuple[int, ...]]:
    """From now on, every kernel grid's values log their matmul operand ndims."""
    log: list[tuple[int, ...]] = []
    real = operators.discretize_kernel

    def discretize(*args, **kwargs):
        grid = real(*args, **kwargs)
        values = grid.values.view(MatmulLog)
        values.log = log
        return dataclasses.replace(grid, values=values)

    for module in (operators, limits):
        monkeypatch.setattr(module, "discretize_kernel", discretize)
    return log


def test_stability_report_forms_each_power_once(monkeypatch):
    # the Gelfand sequence carries a row, the power iteration a column, and
    # the verdict and the cluster size are solves: no power of A is formed
    log = log_matmul_operands(monkeypatch)
    rep = stability_report(gh.rank_one_model(1.5), 64)
    assert rep.stable and rep.cluster_size_bound is not None
    assert log.count((1, 2)) >= operators.GELFAND_POWERS
    assert (2, 1) in log and (2, 2) not in log
    grid = operators.discretize_kernel(gh.rank_one_model(1.5), 8)
    grid.action @ grid.action  # the log does see a product of two matrices
    assert log[-1] == (2, 2)


def test_limit_experiment_operator_setup_forms_each_power_once(monkeypatch):
    # the verdict and the stationary rate are solves: no power of A is formed
    log = log_matmul_operands(monkeypatch)
    flln_experiment(gh.rank_one_model(1.5, grid_n=64), None, 2.0, 2, gh.SplitStream(0), n_op=64)
    assert (2, 1) in log and (2, 2) not in log


def test_gelfand_sequence_matches_plain_power_loop():
    # every product of the constant kernel is exact in either order
    const = discretize_kernel(gh.constant_model(0.5), 64)
    a, w = const.action, const.weights
    m, ref = a, []
    for k in range(1, 49):
        norm = float(np.max((w @ np.abs(m)) / w))
        ref.append(norm ** (1.0 / k))
        m = m @ a
    assert spectral_radius(const).rho_gelfand_sequence == ref
    # elsewhere the row recursion sums in another order: agree to rounding
    grid = discretize_kernel(gh.rank_one_model(1.5), 64)
    a, w = grid.action, grid.weights
    ref = [float(np.max((w @ np.linalg.matrix_power(a, k)) / w)) ** (1.0 / k)
           for k in range(1, 41)]
    seq = spectral_radius(grid, 40).rho_gelfand_sequence
    np.testing.assert_allclose(seq, ref, rtol=1e-13, atol=0.0)
    assert spectral_radius(grid, 8).rho_gelfand_sequence == seq[:8]


@pytest.mark.parametrize("value", [1e-8, 2.38418572e-07, 3e6])
def test_gelfand_terms_of_one_node_grid_equal_its_value(value):
    # T = value: without the row's power-of-two rescaling, 1e-8 underflows
    # to a last term of 0, 2.38418572e-07 loses bits in the subnormal range
    # and ends above |T|, and 3e6 overflows to inf
    spec = build_spec({
        "graphon": {"family": "grid", "values": [[value]], "axis_counts": [1],
                    "interp": "pw-constant"},
        "excitation": {"family": "exponential", "rate": 1.0, "l1": 1.0},
    })
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        terms = spectral_radius(discretize_kernel(spec, 1)).rho_gelfand_sequence
    assert len(terms) == operators.GELFAND_POWERS
    np.testing.assert_allclose(terms, value, rtol=1e-12, atol=0.0)


def test_one_verdict_for_report_and_geometric_tails():
    unstable = discretize_kernel(gh.constant_model(1.5), 32)
    assert not spectral_radius(unstable).stable
    with pytest.raises(UnstableModelError):
        operators.require_stable(unstable)
    with pytest.raises(UnstableModelError):
        cluster_size_bound(unstable)
    assert stability_report(gh.constant_model(1.5), 32).stable is False
    stable = discretize_kernel(gh.constant_model(0.5), 32)
    assert operators.require_stable(stable) is None and stable.stable
    assert "power_iterate" not in vars(stable)  # the verdict alone: no estimate is formed


@pytest.mark.parametrize("n", [32, 64, 96, 128])
def test_critical_constant_model_is_not_stable(n):
    # rho = 1 exactly; at n = 96 the rounded power and Gelfand estimates
    # both read just below 1
    grid = discretize_kernel(gh.constant_model(1.0), n)
    assert not spectral_radius(grid).stable
    with pytest.raises(UnstableModelError):
        operators.require_stable(grid)


def test_critical_gate_grid_is_refused():
    with pytest.raises(UnstableModelError):
        operators.require_stable(operators.gate_grid(gh.constant_model(1.0)))


@st.composite
def grid_kernels(draw):
    """Kernel grid of a random nonnegative `grid` graphon on [0, 1], built like
    the benchmark's step16: a cell table rescaled to a drawn cell radius.
    Some tables have zero rows; some are strictly lower triangular."""
    cells = draw(st.integers(1, 8))
    shape = draw(st.sampled_from(["positive", "zero-rows", "nilpotent"]))
    raw = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=cells**2,
                                 max_size=cells**2))).reshape(cells, cells)
    if shape == "zero-rows":
        raw[draw(st.lists(st.integers(0, cells - 1), min_size=1))] = 0.0
    elif shape == "nilpotent":
        raw = np.tril(raw, -1)
    target = draw(st.floats(0.05, 1.5))
    rho = float(np.max(np.abs(np.linalg.eigvals(raw / cells))))
    # a nilpotent table's computed eigenvalues are rounding noise, not its rho of 0
    if shape != "nilpotent" and rho > 0:
        scale = target / rho
        # a subnormal table's rescale overflows; validate_model refuses a non-finite
        # graphon, and raw * inf would warn of 0 * inf
        assume(np.isfinite(scale))
        values = raw * scale
    else:
        values = raw * target * cells
    return step_kernel_grid(values.tolist(), draw(st.integers(1, 48))), draw(st.floats(0.1, 10.0))


def step_kernel_grid(values: list, n: int):
    """The n-node kernel grid of the pw-constant graphon with cell table `values` on [0, 1]."""
    spec = build_spec({
        "graphon": {"family": "grid", "values": values, "axis_counts": [len(values)],
                    "interp": "pw-constant"},
        "excitation": {"family": "exponential", "rate": 1.0, "l1": 1.0},
    })
    return discretize_kernel(spec, n)


# a certified 26-node grid with cond(I - A) = 1.5e15 and x = (I - A)^{-1} 1 up to
# 1.5e11: its rate and cluster size differ from the dense oracles by 5.5e-8 and
# 3.7e-9 relative, and both solves are right to their rounding
ILL_CONDITIONED = (step_kernel_grid([
    [0.0, 0.0, 0.0, 0.0, 0.0],
    [19438.635189097342, 0.0, 2.2239549754885394e-09, 21641.09856038933, 9502.920264312399],
    [13786.12466045595, 0.0, 5.848365685391034e-09, 0.0006628710751703094, 0.0],
    [3049.3911865655928, 0.0, 21641.09856038933, 1.6442582584603372e-14, 3403.049169561101],
    [0.0, 0.0, 0.0, 0.0, 0.0]], 26), 8.01613735394702)


@settings(max_examples=200)
@given(grid_kernels())
@example(ILL_CONDITIONED)
def test_verdict_rate_and_cluster_size_match_dense_oracles(case):
    grid, level = case
    a, w = grid.action, grid.weights
    dense_rho = float(np.max(np.abs(np.linalg.eigvals(a))))
    # the certificate is complete only while x = (I - A)^{-1} 1 stays below
    # about (1 + gamma) / gamma (see the module docstring); a thousandth of
    # that leaves room for the rounding of x and of (Ax)_i / x_i
    if dense_rho < 1.0 - 1e-6:
        n = a.shape[0]
        gamma = (n + 1) * 2.0**-53 / (1.0 - (n + 1) * 2.0**-53)
        if np.linalg.solve(np.eye(n) - a, np.ones(n)).max() < 1e-3 * (1.0 + gamma) / gamma:
            assert grid.stable
    if grid.stable:
        assert dense_rho < 1.0
        n = a.shape[0]
        lhs = np.eye(n) - a
        resolvent = np.linalg.inv(lhs)
        baseline = level * (1.0 + grid.nodes[:, 0])
        # each solve errs by up to about n u cond(I - A) of its sup norm (u the
        # unit roundoff), so the oracles agree to 1e-9 relative unless that is more
        slack = 8 * n * 2.0**-53 * np.linalg.cond(lhs, np.inf)
        rate, want = stationary_rate(grid, baseline).values, resolvent @ baseline
        assert (np.abs(rate - want) <= np.maximum(1e-9 * want, slack * want.max())).all()
        # however ill-conditioned, the rate solves its system to rounding
        assert np.max(np.abs(lhs @ rate - baseline)) <= 8 * n * 2.0**-53 * (
            np.abs(lhs).sum(axis=1).max() * rate.max() + baseline.max())
        assert cluster_size_bound(grid) == pytest.approx(np.max((w @ resolvent) / w),
                                                         rel=max(1e-9, slack))


def test_a_stable_grid_past_the_certificate_range_is_refused_without_raising():
    # one nonzero row [0, 0, 0, 3.49e129, 3]: rho = 0.6, but x_4 = 1.7e129,
    # so (Ax)_4 / x_4 = 1 - 1/x_4 rounds to 1 and the certificate fails
    table = np.zeros((5, 5))
    table[4] = [0.0, 0.0, 0.0, 3.49e129, 3.0]
    spec = build_spec({
        "graphon": {"family": "grid", "values": table.tolist(), "axis_counts": [5],
                    "interp": "pw-constant"},
        "excitation": {"family": "exponential", "rate": 1.0, "l1": 1.0},
    })
    assert validate_model(spec) == []
    grid = discretize_kernel(spec, 5)
    assert np.max(np.abs(np.linalg.eigvals(grid.action))) == pytest.approx(0.6)
    assert np.linalg.solve(np.eye(5) - grid.action, np.ones(5))[4] > 1e129
    assert not grid.stable
    report = stability_report(spec, 5)
    assert not report.stable and report.cluster_size_bound is None


def structural_nilpotency_index(a: np.ndarray) -> int | None:
    """Least k with A^k = 0 from A's zero pattern alone, or None if no power
    of A vanishes."""
    pattern = (a > 0).astype(np.int64)
    power = np.eye(a.shape[0], dtype=np.int64)
    for k in range(1, a.shape[0] + 1):
        power = np.minimum(power @ pattern, 1)
        if not power.any():
            return k
    return None


# a table whose own |T| is below this is at or near the subnormal range, so
# its entries have already lost precision; its terms are only checked to be
# finite and nonnegative
NORMAL_NORM = np.finfo(float).tiny / np.finfo(float).eps


@settings(max_examples=200)
@given(grid_kernels())
def test_gelfand_terms_lie_between_spectral_radius_and_operator_norm(case):
    # Gelfand: rho <= |T^k|^(1/k); submultiplicativity: |T^k|^(1/k) <= |T|
    grid, _ = case
    terms = spectral_radius(grid).rho_gelfand_sequence
    op_norm = operator_norm_l1(grid)
    assert len(terms) == operators.GELFAND_POWERS
    if op_norm >= NORMAL_NORM:
        assert terms[0] == pytest.approx(op_norm, rel=1e-12, abs=0.0)
    index = structural_nilpotency_index(grid.action)
    if index is not None:
        # zero and nilpotent tables: T^k = 0 exactly from k = index on
        assert all(t == 0.0 for t in terms[index - 1:])
        dense_rho = 0.0
    else:
        dense_rho = float(np.max(np.abs(np.linalg.eigvals(grid.action))))
    for t in terms:
        assert np.isfinite(t) and t >= 0.0
        if op_norm >= NORMAL_NORM:
            assert dense_rho * (1 - 1e-12) <= t <= op_norm * (1 + 1e-12)


@st.composite
def cell_models(draw):
    """A model with cells on a non-unit 1-d or 2-d box: the baseline and the
    mark profile are constant or pw-constant grids, the graphon a pw-constant
    grid, each with its own per-axis counts (non-dyadic, unequal across axes);
    some graphon rows are zero.  Scaled to a drawn radius of the cell matrix."""
    m = draw(st.sampled_from([1, 2]))
    lo, hi = (-0.5,) * m, (1.0,) * m
    domain = gh.SpatialDomain(lo, hi)

    def counts():
        return tuple(draw(st.integers(1, 7 if m == 1 else 3)) for _ in range(m))

    def table(size, low, high):
        return np.array(draw(st.lists(st.floats(low, high), min_size=size, max_size=size)))

    baseline = gh.SpatialProfile("constant", value=draw(st.floats(0.1, 2.0)))
    if draw(st.booleans()):
        cb = counts()
        baseline = gh.SpatialProfile("grid", values=table(math.prod(cb), 0.1, 2.0), axis_counts=cb)
    cg = counts()
    k = math.prod(cg)
    w = table(k * k, 0.0, 1.0).reshape(k, k)
    w[draw(st.lists(st.integers(0, k - 1), max_size=k - 1))] = 0.0
    marks = gh.MarkModel()
    if draw(st.booleans()):
        cm = counts()
        km = math.prod(cm)
        marks = gh.MarkModel(
            kind="scaled-profile", xi_value=draw(st.floats(0.5, 1.5)),
            profile=gh.PairFunction("grid", values=table(km * km, 0.2, 1.5).reshape(km, km),
                                    axis_counts=cm))

    def model(scale):
        return gh.ModelSpec(
            domain=domain, baseline=baseline,
            graphon=gh.PairFunction("grid", values=w * scale, axis_counts=cg),
            excitation=gh.ExcitationKernel("exponential", rate=2.0, l1=0.8),
            marks=marks, grid_n=8)

    unit = model(1.0)
    rho = float(np.max(np.abs(np.linalg.eigvals(
        discretize_kernel(unit, unit.form.n).action))))
    assume(rho > 1e-3)
    return model(draw(st.floats(0.1, 1.5)) / rho)


@settings(max_examples=60, deadline=None)
@given(cell_models(), st.data())
def test_cell_grid_equals_dense_grid_oracle(spec, data):
    # a model with cells is computed on its cells whatever n is asked for; a
    # dense grid that refines them is the oracle, and a box with faces on the
    # dense grid cuts the cells, so the overlap quadrature is checked too
    m, lcm = spec.domain.dim, spec.form.n
    assert spec.form.kind == "cells"
    n_dense = 2 * lcm if m == 2 or lcm > 60 else 3 * lcm
    dense = discretize_kernel(spec, n_dense)
    n_asked = data.draw(st.integers(1, 64 if m == 1 else 16))
    rep = stability_report(spec, n_asked)
    assert rep.grid_n == lcm
    rho = float(np.max(np.abs(np.linalg.eigvals(discretize_kernel(spec, lcm).action))))
    if abs(rho - 1.0) >= 1e-9:
        assert rep.stable == dense.stable == (rho < 1.0)
    if rho > 0.95:  # the resolvent's rounding grows like 1 / (1 - rho)
        return
    assert rep.cluster_size_bound == pytest.approx(cluster_size_bound(dense), rel=1e-12)

    faces = [sorted(data.draw(st.lists(st.integers(0, n_dense), min_size=2, max_size=2,
                                       unique=True))) for _ in range(m)]
    width = (spec.domain.hi - spec.domain.lo) / n_dense
    box = tuple([float(spec.domain.lo[a] + f[end] * width[a]) for a, f in enumerate(faces)]
                for end in (0, 1))
    grid = limits._operator_grid(spec, n_asked)
    _, rate, share, lam_a = limits._operator_setup(spec, box, grid)
    assert grid.n == lcm
    dense_rate = stationary_rate(dense, spec.baseline_on(dense.nodes))
    cell_of_node = _cell_index(dense.nodes, spec.domain, (lcm,) * m)
    np.testing.assert_allclose(rate.values[cell_of_node], dense_rate.values, rtol=1e-12)
    mask = box_mask(dense.nodes, box)
    assert lam_a == pytest.approx(float(np.sum(dense_rate.values[mask] * dense.weights[mask])),
                                  rel=1e-12)
    assert fclt_sigma(grid, rate, share) == pytest.approx(
        fclt_sigma(dense, dense_rate, mask), rel=1e-12)


def test_models_without_cells_keep_the_asked_grid():
    # a smooth graphon and a rank-one mark profile have no cells and no exact form
    marked = dataclasses.replace(gh.constant_model(0.5), marks=gh.MarkModel(
        kind="scaled-profile",
        profile=gh.PairFunction("rank-one", profile=gh.SpatialProfile("identity"))))
    for spec in (gh.rank_one_model(1.5), marked):
        assert spec.form.n is None and spec.form.kind == "grid"
        assert stability_report(spec, 24).grid_n == 24
        assert operators.gate_grid(spec).n == 96
    assert gh.constant_model(0.5).form.n == 1


def bilinear_spec(table, lo=0.0, hi=1.0) -> gh.ModelSpec:
    table = np.asarray(table, float)
    return gh.ModelSpec(
        domain=gh.SpatialDomain((lo,), (hi,)),
        baseline=gh.SpatialProfile("constant", value=1.0),
        graphon=gh.PairFunction("grid", values=table, axis_counts=(table.shape[0],),
                                interp="bilinear"),
        excitation=gh.ExcitationKernel("exponential", rate=1.0, l1=1.0))


def dense_rho(grid) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(grid.action))))


def scaled_bilinear(raw, rho, lo=0.0, hi=1.0) -> gh.ModelSpec:
    """The bilinear model of the table `raw` scaled to the exact radius `rho`."""
    return bilinear_spec(raw * (rho / dense_rho(operators.gate_grid(bilinear_spec(raw, lo, hi)))),
                         lo, hi)


def test_bilinear_graphon_takes_its_hat_form():
    # a 1-d bilinear grid has no cells, but it is a finite-rank kernel on its
    # clamped hats: the report and the gate run on the 2 x 2 form
    spec = bilinear_spec([[0.2, 0.4], [0.4, 0.2]])
    assert spec.form.n is None and spec.form.kind == "hats"
    rep = stability_report(spec, 24)
    assert rep.grid_n == 2 and rep.form == "hats"
    assert operators.gate_grid(spec).n == 2
    # K = 0.3 + 0.1 (phi_0 - phi_1)(phi_1 - phi_0); the hats have mass 1/2
    # and Gram [[5, 1], [1, 5]] / 12, so V G has eigenvalues 0.3 and -1/15
    assert rep.rho_power == pytest.approx(0.3, rel=1e-12)


def test_hat_form_report_and_gate_build_no_grid(monkeypatch):
    calls = []
    real = operators.discretize_kernel
    monkeypatch.setattr(operators, "discretize_kernel",
                        lambda *args: calls.append(args) or real(*args))
    spec = scaled_bilinear(np.random.default_rng(2).uniform(0.2, 1.0, (16, 16)), 0.55)
    assert stability_report(spec, 512).grid_n == 16
    assert operators.gate_grid(spec).n == 16
    assert calls == []


@pytest.mark.parametrize("call", [
    lambda grid: apply_kernel(grid, np.ones(grid.n)),
    lambda grid: stationary_rate(grid, np.ones(grid.n)),
    lambda grid: fclt_sigma(grid, operators.StationaryRate(np.ones(grid.n), 0.0, 0),
                            np.ones(grid.n)),
], ids=["apply_kernel", "stationary_rate", "fclt_sigma"])
def test_nodal_functions_refuse_a_hat_form(call):
    # a hat form's values are basis coefficients, not values at the nodes
    form = operators.gate_grid(bilinear_spec([[0.2, 0.4], [0.4, 0.2]]))
    with pytest.raises(ShapeError):
        call(form)


def test_hat_form_radius_is_the_limit_of_nodal_grids():
    spec = scaled_bilinear(np.random.default_rng(2).uniform(0.2, 1.0, (16, 16)), 0.55)
    form = operators.gate_grid(spec)
    rho = dense_rho(form)
    assert spectral_radius(form).rho_power_iteration == pytest.approx(rho, rel=1e-12)
    # the midpoint rule's error is c n^-2 + O(n^-4): Richardson removes c
    coarse, fine = (discretize_kernel(spec, n).power_iterate[0] for n in (512, 1024))
    assert abs((4 * fine - coarse) / 3 - rho) < 1e-11
    assert abs(fine - rho) > 5e-8
    # negative control: the lumped Gram diag(m) is the midpoint rule on the knots
    lumped = dataclasses.replace(form, gram=np.diag(form.weights))
    assert abs(dense_rho(lumped) - rho) > 1e-5


@pytest.mark.parametrize("offset,stable", [(-1e-6, True), (1e-6, False)])
def test_hat_form_verdict_is_exact_near_one(offset, stable):
    spec = scaled_bilinear(np.random.default_rng(3).uniform(0.0, 1.0, (12, 12)), 1.0 + offset)
    gate = operators.gate_grid(spec)
    assert gate.gram is not None and gate.stable is stable
    if not stable:
        with pytest.raises(UnstableModelError):
            operators.require_stable(gate)


def test_cell_form_keeps_the_nodal_formulas():
    # |T^k| = max_j (w^T A^k)_j / w_j and the cluster size max_j z_j / w_j with
    # (I - A)^T z = w: the V-terminated rows give the same numbers
    table = np.random.default_rng(5).uniform(0.2, 1.0, (16, 16))
    spec = build_spec({"graphon": {"family": "grid", "values": (table / 16).tolist(),
                                   "axis_counts": [16], "interp": "pw-constant"}})
    rep = stability_report(spec, 512)
    grid = discretize_kernel(spec, 16)
    a, w = grid.action, grid.weights
    norms = [float(np.max((w @ np.linalg.matrix_power(a, k)) / w)) ** (1 / k)
             for k in range(1, operators.GELFAND_POWERS + 1)]
    z = np.linalg.solve((np.eye(16) - a).T, w)
    assert rep.form == "cells" and rep.grid_n == 16
    assert rep.op_norm == pytest.approx(norms[0], rel=1e-12)
    assert rep.rho_gelfand == pytest.approx(min(norms), rel=1e-12)
    assert rep.cluster_size_bound == pytest.approx(float(np.max(z / w)), rel=1e-12)


@st.composite
def bilinear_models(draw):
    """A 1-d bilinear grid graphon on a random interval: a nonnegative table
    of 1-12 cells scaled to an exact radius in [0.05, 0.95]."""
    k = draw(st.integers(1, 12))
    lo = draw(st.floats(-2.0, 1.0))
    hi = lo + draw(st.floats(0.1, 3.0))
    raw = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=k * k, max_size=k * k)))
    assume(dense_rho(operators.gate_grid(bilinear_spec(raw.reshape(k, k), lo, hi))) > 1e-3)
    return scaled_bilinear(raw.reshape(k, k), draw(st.floats(0.05, 0.95)), lo, hi)


def column_masses(grid) -> np.ndarray:
    """The rows whose maxima are |T^k| (k = 1..GELFAND_POWERS) and the cluster
    size: sup-norm terms at the nodes, or the hat coefficients of a form."""
    rows = [grid.weights @ grid.values]
    for _ in range(operators.GELFAND_POWERS - 1):
        rows.append(grid.gram_apply(rows[-1]) @ grid.values)
    a = grid.action
    z = np.linalg.solve((np.eye(a.shape[0]) - a).T, grid.weights)
    return np.array(rows + [1.0 + z @ grid.values])


@settings(max_examples=100)
@given(bilinear_models())
def test_hat_form_is_the_limit_of_nodal_grids(spec):
    form = operators.gate_grid(spec)
    k, length = form.n, spec.domain.volume
    np.testing.assert_allclose(form.gram, form.gram.T, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(form.gram.sum(axis=1), form.weights, rtol=1e-12)
    assert form.weights.sum() == pytest.approx(length, rel=1e-12)
    rho, op_norm = dense_rho(form), operator_norm_l1(form)
    for t in spectral_radius(form).rho_gelfand_sequence:
        assert rho * (1 - 1e-12) <= t <= op_norm * (1 + 1e-12)

    # On n-grids with n / k even every knot is a cell face.  Each row is a
    # hat combination in y, piecewise linear; the nodal rows match it at the
    # nodes up to the midpoint rule's O(n^-2) (exactly for |T|), but its peak
    # sits on a knot half a node spacing from the nearest node, so every
    # sup misses by up to slope * h / 2: O(n^-1).
    coef = column_masses(form)
    peak = coef.max(axis=1)
    slope = np.max(np.abs(np.diff(coef, axis=1)), axis=1, initial=0.0) * k / length
    n0 = 2 * k * max(4, math.ceil(16 / k))  # at least 8 nodes per cell and 32 in all
    gaps, errors = [], []
    for n in (n0, 2 * n0):
        grid = discretize_kernel(spec, n)
        at_nodes = np.array([np.interp(grid.nodes[:, 0], form.nodes[:, 0], c) for c in coef])
        errors.append(np.max(np.abs(column_masses(grid) - at_nodes), axis=1) / peak)
        miss = peak - at_nodes.max(axis=1)
        assert (miss >= -1e-12 * peak).all()
        assert (miss <= slope * length / n / 2 + 1e-12 * peak).all()
        gaps.append(abs(dense_rho(grid) - rho))
    assert errors[0][0] < 1e-12
    if gaps[0] > 1e-6 * rho:  # below, c nearly cancels and n^-4 leads
        assert 3.0 <= gaps[0] / gaps[1] <= 5.0
    resolved = errors[0] > 1e-9
    assert (3.0 <= errors[0][resolved] / errors[1][resolved]).all()
    assert (errors[0][resolved] / errors[1][resolved] <= 5.0).all()


@st.composite
def form_cases(draw):
    """A model of each structure the form tells apart, with what the form
    should say, derived from the construction: (spec, kind, n, r, keys,
    the rank-one law's one key or None)."""
    case = draw(st.sampled_from(["fine-baseline", "cells-2d", "over-cap", "bilinear",
                                 "rank-one", "flat-affine"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    one_d = gh.SpatialDomain((0.0,), (1.0,))
    baseline = gh.SpatialProfile("constant", value=1.0)

    def cells(counts):
        k = math.prod(counts)
        return gh.PairFunction("grid", values=rng.uniform(0.0, 0.5, (k, k)), axis_counts=counts)

    def model(graphon, domain=one_d, baseline=baseline, grid_n=32):
        return gh.ModelSpec(domain=domain, baseline=baseline, graphon=graphon,
                            excitation=gh.ExcitationKernel("exponential", rate=1.0, l1=1.0),
                            grid_n=grid_n)

    if case == "fine-baseline":  # a grid baseline finer than the graphon's cells
        g, k = draw(st.integers(1, 4)), draw(st.integers(2, 4))
        fine = gh.SpatialProfile("grid", values=rng.uniform(0.5, 2.0, g * k), axis_counts=(g * k,))
        return model(cells((g,)), baseline=fine), "cells", g * k, None, (g,), None
    if case in ("cells-2d", "over-cap"):  # anisotropic cells on [0, 1] x [0, 2]
        domain = gh.SpatialDomain((0.0, 0.0), (1.0, 2.0))
        if case == "cells-2d":
            a, b = draw(st.sampled_from([(1, 2), (2, 3), (3, 2), (4, 3), (2, 4)]))
            return (model(cells((a, b)), domain, grid_n=8), "cells", math.lcm(a, b), None,
                    (a, b), None)
        # lcm(a, 4, c) per axis is 180 or more, so (lcm)^2 passes the node cap
        a, c = draw(st.sampled_from([5, 7])), draw(st.sampled_from([9, 11]))
        fine = gh.SpatialProfile("grid", values=rng.uniform(0.5, 2.0, c), axis_counts=(c, 1))
        return model(cells((a, 4)), domain, fine, grid_n=8), "grid", None, None, (a, 4), None
    if case == "bilinear":
        r = draw(st.integers(1, 6))
        graphon = gh.PairFunction("grid", values=rng.uniform(0.0, 0.5, (r, r)),
                                  axis_counts=(r,), interp="bilinear")
        return model(graphon), "hats", None, r, None, None
    if case == "rank-one":  # W = c a(x) a(y) with a of either sign: the law's one key
        sign = draw(st.sampled_from([1.0, -1.0]))
        profile = gh.SpatialProfile("affine", intercept=sign * draw(st.floats(0.2, 0.5)),
                                    slope=(sign * draw(st.floats(0.0, 0.4)),))
        graphon = gh.PairFunction("rank-one", coeff=draw(st.floats(0.2, 1.0)), profile=profile)
        return model(graphon), "grid", None, None, None, int(sign < 0)
    # a constant graphon over an affine baseline: flat keys, no model cells
    affine = gh.SpatialProfile("affine", intercept=1.0, slope=(draw(st.floats(0.1, 1.0)),))
    graphon = gh.PairFunction("constant", value=draw(st.floats(0.1, 0.5)))
    return model(graphon, baseline=affine), "grid", None, None, (1,), None


@settings(max_examples=40, deadline=None)
@given(form_cases(), st.integers(2, 8))
def test_every_consumer_reads_the_form(case, n_asked):
    spec, kind, n, r, keys, sign_key = case
    form, m = spec.form, spec.domain.dim
    assert (form.kind, form.n, form.r, form.keys) == (kind, n, r, keys)
    assert form.flat == (keys is not None and math.prod(keys) == 1)
    assert (form.coeff is not None) == (sign_key is not None)
    sim_n = n or spec.grid_n
    assert spec.engine.spec.grid_n == sim_n
    assert fixed_point(spec, TestFunction.constant(0.5), 0.5, n_u=5)[0].grid_n == sim_n
    gate = spec.gate
    assert gate.n == (n or r or (96 if m == 1 else 12))
    assert (gate.gram is not None) == (kind == "hats")
    report = stability_report(spec, n_asked)
    assert (report.grid_n, report.form) == (n or r or n_asked, kind)
    assert limits._operator_grid(spec, n_asked).n == (n or n_asked)
    fclt = fclt_experiment(spec, None, 1.0, 1, gh.SplitStream(0), n_op=n_asked)
    assert fclt.summary["sigma_label"] == (
        "exact-piecewise-constant" if kind == "cells" else "extrapolated")

    # the law keys a parent by the form: its key cell, the sign of its
    # rank-one scale, or nothing; parents at every key cell's midpoint
    counts = keys or (4,) * m
    mids = np.stack(np.meshgrid(*[(np.arange(c) + 0.5) / c for c in counts], indexing="ij"),
                    axis=-1).reshape(-1, m)
    parents = spec.domain.lo + mids * (spec.domain.hi - spec.domain.lo)
    found, scales = spec.engine.law(parents)
    if keys is not None:
        assert scales is None
        np.testing.assert_array_equal(found, _cell_index(parents, spec.domain, keys))
        assert len(set(found.tolist())) == math.prod(keys)
    elif sign_key is not None:
        assert set(found.tolist()) == {sign_key} and (scales > 0).all()
    else:
        assert found is None and scales is None
