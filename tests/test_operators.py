"""Kernel discretization, spectral diagnostics and stationary rates.

Derived expectations come from independent oracles: dense linear solves
and dense dominant eigenvalues on the same grid.
"""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import graphon_hawkes as gh
from graphon_hawkes import limits, operators
from graphon_hawkes.config import build_spec
from graphon_hawkes.errors import GridTooLargeError, ShapeError, UnstableModelError
from graphon_hawkes.limits import flln_experiment
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
    assert operators.require_stable(discretize_kernel(gh.constant_model(0.5), 32)).stable


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
    values = raw * (target / rho) if shape != "nilpotent" and rho > 0 else raw * target * cells
    # a subnormal table's rescale overflows; validate_model refuses a non-finite graphon
    assume(np.isfinite(values).all())
    spec = build_spec({
        "graphon": {"family": "grid", "values": values.tolist(), "axis_counts": [cells],
                    "interp": "pw-constant"},
        "excitation": {"family": "exponential", "rate": 1.0, "l1": 1.0},
    })
    return discretize_kernel(spec, draw(st.integers(1, 48))), draw(st.floats(0.1, 10.0))


@settings(max_examples=200)
@given(grid_kernels())
def test_verdict_rate_and_cluster_size_match_dense_oracles(case):
    grid, level = case
    a, w = grid.action, grid.weights
    dense_rho = float(np.max(np.abs(np.linalg.eigvals(a))))
    if dense_rho < 1.0 - 1e-6:
        assert grid.stable
    if grid.stable:
        assert dense_rho < 1.0
        resolvent = np.linalg.inv(np.eye(a.shape[0]) - a)
        baseline = level * (1.0 + grid.nodes[:, 0])
        np.testing.assert_allclose(stationary_rate(grid, baseline).values,
                                   resolvent @ baseline, rtol=1e-9)
        assert cluster_size_bound(grid) == pytest.approx(np.max((w @ resolvent) / w), rel=1e-9)


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
