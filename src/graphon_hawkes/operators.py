"""Quadrature discretization of the first-generation offspring operator and
the stability / long-run diagnostics built on it.

The operator maps a spatial density f to
    (Tf)(x) = |h|_1 * c_x * int E[B_xy] W(x, y) f(y) dy,
discretized with midpoint quadrature on a uniform grid.  On grid functions
it acts as the nonnegative matrix A = K diag(w); the L1 operator norm of T^n
is max_j (1/w_j) sum_i w_i (A^n)_ij.

Every stability, rate and cluster-size question is one dense solve with
I - A, the resolvent sum_n A^n of the stable regime rho(A) < 1:

* Verdict (`KernelGrid.stable`, cached per grid).  Solve x = (I - A)^{-1} 1
  and take hi = max_i (Ax)_i / x_i.  For A >= 0 and any x > 0,
  rho(A) <= hi (Collatz-Wielandt), so the grid is stable when x > 0 and
  hi * (1 + gamma) < 1, where gamma = (N+1)u / (1 - (N+1)u), u = 2^-53,
  bounds the rounding of an N-term nonnegative dot product plus one
  division.  An unstable grid cannot pass, however x was computed.  If
  rho < 1 then x = sum_n A^n 1 >= 1 and (Ax)_i / x_i = 1 - 1/x_i < 1, so
  every stable grid passes, zero-row, reducible and nilpotent ones
  included (Berman & Plemmons: rho(A) < 1 iff (I - A)^{-1} >= 0).  A
  singular I - A is not stable.
* Stationary rate: lam_bar = (I - A)^{-1} lam_inf.
* Expected cluster size: the L1 norm of (I - T)^{-1}, one transposed solve.

`require_stable` reads the verdict; simulators call it on the coarse
`gate_grid`.  The Gelfand sequence |T^n|^(1/n) and the power iteration from
the constant function (the dominant eigenfunction is positive, so the
constant seed has nonzero overlap) are reported estimates, not verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import GridTooLargeError, ShapeError, UnstableModelError
from .model import ModelSpec, kernel_density_matrix

MAX_GRID_NODES = 4096
GELFAND_POWERS = 48  # Gelfand sequence length reported by stability_report


@dataclass(frozen=True, eq=False)
class KernelGrid:
    """Midpoint discretization of the offspring operator."""

    n: int
    nodes: np.ndarray
    weights: np.ndarray
    values: np.ndarray  # K[i, j] = |h|_1 c E[B_{x_i x_j}] W(x_i, x_j)

    @property
    def action(self) -> np.ndarray:
        """Matrix A with (Tf)_i = (A f)_i for grid functions f."""
        return self.values * self.weights[None, :]

    @cached_property
    def stable(self) -> bool:
        """The stability verdict: rho(A) < 1, certified by one resolvent solve."""
        return _certified_stable(self.action)

    @cached_property
    def power_iterate(self) -> tuple[float, bool, int]:
        """(L1 growth factor, converged, iterations) of power iteration from 1."""
        a, w = self.action, self.weights
        v = np.ones(w.shape[0])
        lam_prev, lam, iters, converged = None, 0.0, 0, False
        for iters in range(1, 2001):
            u = a @ v
            norm_u = float(np.sum(w * np.abs(u)))
            norm_v = float(np.sum(w * np.abs(v)))
            lam = norm_u / norm_v
            if norm_u == 0.0:
                lam, converged = 0.0, True
                break
            v = u / norm_u
            if lam_prev is not None and abs(lam - lam_prev) <= 1e-13 * max(1.0, lam):
                converged = True
                break
            lam_prev = lam
        return float(lam), converged, iters


def _certified_stable(a: np.ndarray) -> bool:
    """x = (I - A)^{-1} 1 > 0 and max_i (Ax)_i / x_i (1 + gamma) < 1."""
    n = a.shape[0]
    k = (n + 1) * 2.0**-53
    gamma = k / (1.0 - k)
    try:
        x = np.linalg.solve(np.eye(n) - a, np.ones(n))
    except np.linalg.LinAlgError:
        return False
    if not (np.isfinite(x).all() and (x > 0).all()):
        return False
    return float(np.max((a @ x) / x)) * (1.0 + gamma) < 1.0


def _power_product(power: np.ndarray, a: np.ndarray) -> np.ndarray:
    """A^(n+1) = A^n A: the one place a power of a grid matrix is formed."""
    return power @ a


@dataclass(frozen=True, eq=False)
class SpectralEstimate:
    rho_power_iteration: float
    converged: bool
    iterations: int
    grid_n: int
    stable: bool  # the grid's certified verdict
    # |T^n|^(1/n) for n <= max_power; empty from require_stable, which forms no power
    rho_gelfand_sequence: list[float] = field(default_factory=list)

    @property
    def rho(self) -> float:
        """The power-iteration estimate of the spectral radius."""
        return self.rho_power_iteration


@dataclass(frozen=True, eq=False)
class StationaryRate:
    values: np.ndarray
    residual: float
    terms_used: int  # 0: a direct solve sums no series


def discretize_kernel(
    spec: ModelSpec, n: int, max_nodes: int = MAX_GRID_NODES
) -> KernelGrid:
    """K[i][j] = |h|_1 * c * E[B_{x_i x_j}] * W(x_i, x_j) on the midpoint grid."""
    if n < 1:
        raise ShapeError("grid size must be at least 1")
    if n**spec.domain.dim > max_nodes:
        raise GridTooLargeError(
            f"{n}^{spec.domain.dim} nodes exceed the cap of {max_nodes}"
        )
    nodes, weights = spec.domain.grid(n)
    values = spec.excitation.l1_norm * kernel_density_matrix(spec, nodes)
    if (values < -1e-12).any():
        raise ShapeError("kernel values must be nonnegative")
    return KernelGrid(n=n, nodes=nodes, weights=weights, values=np.maximum(values, 0.0))


def apply_kernel(grid: KernelGrid, f: np.ndarray) -> np.ndarray:
    """(Tf)(x_i) = sum_j K[i][j] f(x_j) w_j."""
    f = np.asarray(f, float)
    if f.shape != (grid.nodes.shape[0],):
        raise ShapeError(
            f"grid function has shape {f.shape}, expected ({grid.nodes.shape[0]},)"
        )
    return grid.values @ (f * grid.weights)


def operator_norm_l1(grid: KernelGrid) -> float:
    """|T|_{L1->L1} = max_j sum_i K[i][j] w_i (columns hold fixed sources y)."""
    return float(np.max(grid.weights @ grid.values))


def _estimate(grid: KernelGrid, gelfand: list[float]) -> SpectralEstimate:
    lam, converged, iters = grid.power_iterate
    return SpectralEstimate(
        rho_power_iteration=lam,
        converged=converged,
        iterations=iters,
        grid_n=grid.n,
        stable=grid.stable,
        rho_gelfand_sequence=gelfand,
    )


def spectral_radius(grid: KernelGrid, max_power: int = GELFAND_POWERS) -> SpectralEstimate:
    """Gelfand sequence |T^n|^(1/n), n <= max_power, plus a power-iteration estimate."""
    if max_power < 1:
        raise ShapeError("max_power must be at least 1")
    a, w = grid.action, grid.weights
    power, gelfand = a, []
    for k in range(1, max_power + 1):
        if k > 1:
            power = _power_product(power, a)
        norm = float(np.max((w @ np.abs(power)) / w))
        gelfand.append(norm ** (1.0 / k) if norm > 0 else 0.0)
    return _estimate(grid, gelfand)


def require_stable(
    grid: KernelGrid, error: type[Exception] = UnstableModelError, what: str = "model"
) -> SpectralEstimate:
    """The grid's estimate without the Gelfand sequence; raises `error` unless
    the verdict is stable."""
    est = _estimate(grid, [])
    if not est.stable:
        raise error(
            f"{what} unstable: spectral radius is not certified below 1 "
            f"(power-iteration estimate {est.rho:.4f})"
        )
    return est


def gate_grid(spec: ModelSpec) -> KernelGrid:
    """The coarse grid simulators gate on: 96 nodes per axis in 1-d, 12 in
    higher dimensions, a quarter of that when the node cap is hit."""
    n = 96 if spec.domain.dim == 1 else 12
    try:
        return discretize_kernel(spec, n)
    except GridTooLargeError:
        return discretize_kernel(spec, max(2, n // 4))


def stationary_rate(grid: KernelGrid, baseline: np.ndarray) -> StationaryRate:
    """lam_bar = (I - T)^{-1} lam_inf by one dense solve, with the fixed-point
    residual sup |lam_bar - lam_inf - T lam_bar|."""
    baseline = np.asarray(baseline, float)
    if baseline.shape != (grid.nodes.shape[0],):
        raise ShapeError("baseline grid function does not match the kernel grid")
    require_stable(grid)
    a = grid.action
    values = np.linalg.solve(np.eye(a.shape[0]) - a, baseline)
    residual = float(np.max(np.abs(values - baseline - a @ values)))
    return StationaryRate(values=values, residual=residual, terms_used=0)


def cluster_size_bound(grid: KernelGrid) -> float:
    """Expected cluster size, sup over the root's grid node:
    |(I - T)^{-1}|_{L1} = sum_n |T^n| = max_j z_j / w_j with (I - A)^T z = w.

    Exact on the grid, so at least 1/(1 - rho); the name is kept from the
    submultiplicative bound it replaced.
    """
    require_stable(grid)
    a, w = grid.action, grid.weights
    z = np.linalg.solve((np.eye(a.shape[0]) - a).T, w)
    return float(np.max(z / w))


def fclt_sigma(grid: KernelGrid, lambda_bar: StationaryRate, mask: np.ndarray) -> float:
    """sigma_A = sum_{i in A} ((I - T)^{-1} sqrt(lam_bar))(x_i) w_i."""
    mask = np.asarray(mask, bool)
    if mask.shape != (grid.nodes.shape[0],):
        raise ShapeError("set mask does not match the kernel grid")
    a = grid.action
    try:
        v = np.linalg.solve(np.eye(a.shape[0]) - a, np.sqrt(lambda_bar.values))
    except np.linalg.LinAlgError as exc:
        raise UnstableModelError("I - T is singular at this grid scale") from exc
    return float(np.sum(v[mask] * grid.weights[mask]))


def outdegree_norm(spec: ModelSpec, n: int) -> float:
    """|h|_1 sup_y int W(x, y) dx: the FCLT outdegree condition quantity
    (marks and Lipschitz constants set to one)."""
    nodes, weights = spec.domain.grid(n)
    w = spec.graphon.matrix(nodes, spec.domain)
    return spec.excitation.l1_norm * float(np.max(weights @ w))


@dataclass(frozen=True, eq=False)
class StabilityReport:
    """JSON-ready record for the `stability` CLI subcommand."""

    op_norm: float
    rho_gelfand: float
    rho_power: float
    stable: bool
    cluster_size_bound: float | None
    grid_n: int
    notes: list[str] = field(default_factory=list)


def stability_report(spec: ModelSpec, n: int) -> StabilityReport:
    grid = discretize_kernel(spec, n)
    est = spectral_radius(grid)
    return StabilityReport(
        op_norm=operator_norm_l1(grid),
        rho_gelfand=min(est.rho_gelfand_sequence),
        rho_power=est.rho_power_iteration,
        stable=est.stable,
        cluster_size_bound=cluster_size_bound(grid) if est.stable else None,
        grid_n=n,
        notes=[] if est.converged else ["no-convergence"],
    )
