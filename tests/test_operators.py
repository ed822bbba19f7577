"""Kernel discretization, spectral diagnostics and stationary rates.

Derived expectations come from independent oracles: dense linear solves
and dense dominant eigenvalues on the same grid.
"""

import sys
import threading

import numpy as np
import pytest

import graphon_hawkes as gh
from graphon_hawkes import operators
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
    sr = stationary_rate(grid, np.ones(64), tol=1e-8)
    assert np.max(np.abs(sr.values - 2.0)) < 1e-6
    assert sr.residual <= 1e-8


def test_stationary_rate_rank_one_analytic_and_dense_oracle():
    grid = discretize_kernel(gh.rank_one_model(1.5), 256)
    lam = np.ones(256)
    sr = stationary_rate(grid, lam, tol=1e-10)
    assert np.max(np.abs(sr.values - (1 + 1.5 * grid.nodes[:, 0]))) < 1e-3
    dense = np.linalg.solve(np.eye(256) - grid.action, lam)
    assert np.max(np.abs(sr.values - dense)) < 10 * 1e-10


def test_stationary_rate_zero_kernel():
    grid = discretize_kernel(zero_model(), 32)
    lam = np.linspace(0.5, 1.5, 32)
    sr = stationary_rate(grid, lam, tol=1e-10)
    assert np.allclose(sr.values, lam)


def test_stationary_rate_unstable():
    grid = discretize_kernel(gh.constant_model(1.5), 32)
    with pytest.raises(UnstableModelError):
        stationary_rate(grid, np.ones(32), tol=1e-8)


def test_stationary_rate_dominates_baseline():
    grid = discretize_kernel(gh.rank_one_model(1.2), 128)
    lam = 1.0 + 0.3 * np.sin(2 * np.pi * grid.nodes[:, 0])
    sr = stationary_rate(grid, lam, tol=1e-9)
    assert (sr.values >= lam - 1e-12).all()


def test_cluster_size_bound_values():
    assert cluster_size_bound(discretize_kernel(gh.constant_model(0.5), 64)) == pytest.approx(2.0, abs=1e-6)
    assert cluster_size_bound(discretize_kernel(zero_model(), 16)) == pytest.approx(1.0)
    k = cluster_size_bound(discretize_kernel(gh.rank_one_model(1.5), 256))
    assert 2.0 <= k <= 4.0


def test_fclt_sigma_constant():
    grid = discretize_kernel(gh.constant_model(0.5), 64)
    sr = stationary_rate(grid, np.ones(64), tol=1e-10)
    sigma = fclt_sigma(grid, sr, np.ones(64, bool))
    assert sigma == pytest.approx(2 * np.sqrt(2), abs=1e-4)


def test_fclt_sigma_poisson_and_empty_mask():
    grid = discretize_kernel(zero_model(), 64)
    sr = stationary_rate(grid, np.ones(64), tol=1e-10)
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
        sr = stationary_rate(grid, np.ones(n), tol=1e-11)
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


def count_power_products(monkeypatch) -> list[int]:
    """Record the size of every n x n power product formed from now on."""
    calls: list[int] = []
    real = operators._power_product

    def counting(power, a):
        calls.append(a.shape[0])
        return real(power, a)

    monkeypatch.setattr(operators, "_power_product", counting)
    return calls


def test_stability_report_forms_each_power_once(monkeypatch):
    # 64 norms need 63 products; the spectral radius, the near-critical tail
    # check and the cluster-size bound all read the same cached powers
    calls = count_power_products(monkeypatch)
    rep = stability_report(gh.rank_one_model(1.5), 64)
    assert rep.stable and rep.cluster_size_bound is not None
    assert len(calls) <= 63


def test_limit_experiment_operator_setup_forms_each_power_once(monkeypatch):
    calls = count_power_products(monkeypatch)
    flln_experiment(gh.rank_one_model(1.5, grid_n=64), None, 2.0, 2, gh.SplitStream(0), n_op=64)
    assert 0 < len(calls) <= 63


def test_cached_analysis_matches_fresh_grid():
    spec = gh.rank_one_model(1.5)
    grid = discretize_kernel(spec, 64)
    long_first = spectral_radius(grid, 40)
    short = spectral_radius(grid, 8)
    fresh = spectral_radius(discretize_kernel(spec, 64), 8)
    assert short.rho_gelfand_sequence == fresh.rho_gelfand_sequence
    assert short.rho_gelfand_sequence == long_first.rho_gelfand_sequence[:8]
    assert short.rho_power_iteration == fresh.rho_power_iteration
    # reference: the plain loop of matrix powers gives the same norms exactly
    a, w = grid.action, grid.weights
    m, ref = a, []
    for _ in range(40):
        ref.append(float(np.max((w @ np.abs(m)) / w)))
        m = m @ a
    assert grid.analysis.norms[:40] == ref


def test_one_verdict_for_report_and_geometric_tails():
    unstable = discretize_kernel(gh.constant_model(1.5), 32)
    assert not spectral_radius(unstable).stable
    with pytest.raises(UnstableModelError):
        operators.require_stable(unstable)
    with pytest.raises(UnstableModelError):
        cluster_size_bound(unstable)
    assert stability_report(gh.constant_model(1.5), 32).stable is False
    assert operators.require_stable(discretize_kernel(gh.constant_model(0.5), 32)).stable


def test_shared_analysis_is_consistent_across_threads():
    # more threads than cores grow one grid's sequences at once; a lost
    # update would repeat or skip a power and shift every later exponent
    spec = gh.rank_one_model(1.5)
    reference = spectral_radius(discretize_kernel(spec, 96), 40).rho_gelfand_sequence
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            grid = discretize_kernel(spec, 96)
            results: dict[int, list[float]] = {}
            start = threading.Barrier(8)

            def work(k, grid=grid, results=results, start=start):
                start.wait(timeout=60)
                results[k] = spectral_radius(grid, 8 + 4 * k).rho_gelfand_sequence

            threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert len(results) == 8
            for k, seq in results.items():
                assert seq == reference[: 8 + 4 * k]
    finally:
        sys.setswitchinterval(old)
