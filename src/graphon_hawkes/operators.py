"""Quadrature discretization of the first-generation offspring operator and
the stability / long-run diagnostics built on it.

The operator maps a spatial density f to
    (Tf)(x) = |h|_1 * c_x * int E[B_xy] W(x, y) f(y) dy,
discretized with midpoint quadrature on a uniform grid.  On grid functions
it acts as the matrix A = K diag(w); the L1 operator norm of T^n is
max_j (1/w_j) sum_i w_i (A^n)_ij.  Spectral radius estimates combine
Gelfand's sequence |T^n|^(1/n) with power iteration started from the
constant function (the dominant eigenfunction is positive, so the constant
seed always has nonzero overlap).

Each grid caches one `OperatorAnalysis`: the norms |T^n| and the Gelfand
sequence, grown on demand so no power A^n is formed twice, and the power
iterate.  One verdict, `SpectralEstimate.stable` (rho < 1 with the Gelfand
sequence to VERDICT_POWERS), decides every stability question; callers reach
it through `require_stable`, simulators on the coarse `gate_grid`.  The
near-critical rule applies only to the geometric tails of `stationary_rate`
and `cluster_size_bound`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    GridTooLargeError,
    ShapeError,
    SlowConvergenceError,
    UnstableModelError,
)
from .model import ModelSpec, kernel_density_matrix

MAX_GRID_NODES = 4096
NEAR_CRITICAL = 0.995
VERDICT_POWERS = 48  # Gelfand sequence length behind the verdict
BOUND_POWERS = 64  # norms searched by cluster_size_bound


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
    def analysis(self) -> OperatorAnalysis:
        return OperatorAnalysis(self)


def _power_product(power: np.ndarray, a: np.ndarray) -> np.ndarray:
    """A^(n+1) = A^n A: the one place a power of a grid matrix is formed."""
    return power @ a


class OperatorAnalysis:
    """Norms |T^n|, Gelfand sequence |T^n|^(1/n) and power iterate of a grid.

    Grids are shared by worker threads (one averaged model serves every
    coupled replication), so growing the sequences holds a lock.
    """

    def __init__(self, grid: KernelGrid):
        self._a, self._w = grid.action, grid.weights
        self._lock = threading.Lock()
        self._power: np.ndarray | None = None  # A^len(self.norms)
        self.norms: list[float] = []
        self.gelfand: list[float] = []

    def extend(self, count: int) -> OperatorAnalysis:
        """Grow both sequences to at least `count` terms, one product per term."""
        with self._lock:
            while len(self.norms) < count:
                self._power = (
                    self._a if self._power is None else _power_product(self._power, self._a)
                )
                norm = float(np.max((self._w @ np.abs(self._power)) / self._w))
                self.norms.append(norm)
                self.gelfand.append(norm ** (1.0 / len(self.norms)) if norm > 0 else 0.0)
        return self

    @cached_property
    def power_iterate(self) -> tuple[float, bool, int]:
        """(L1 growth factor, converged, iterations) of power iteration from 1."""
        v = np.ones(self._w.shape[0])
        lam_prev, lam, iters, converged = None, 0.0, 0, False
        for iters in range(1, 2001):
            u = self._a @ v
            norm_u = float(np.sum(self._w * np.abs(u)))
            norm_v = float(np.sum(self._w * np.abs(v)))
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


@dataclass(frozen=True, eq=False)
class SpectralEstimate:
    rho_power_iteration: float
    rho_gelfand_sequence: list[float]
    converged: bool
    iterations: int
    grid_n: int

    @property
    def rho(self) -> float:
        """Best available estimate: min of the Gelfand envelope and power value."""
        return min(min(self.rho_gelfand_sequence), self.rho_power_iteration)

    @property
    def stable(self) -> bool:
        """The stability verdict: the estimated spectral radius is below 1."""
        return self.rho < 1.0

    @property
    def gelfand_tail(self) -> float:
        return self.rho_gelfand_sequence[-1]

    @property
    def code(self) -> str | None:
        return None if self.converged else "no-convergence"


@dataclass(frozen=True, eq=False)
class StationaryRate:
    values: np.ndarray
    residual: float
    terms_used: int


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


def spectral_radius(grid: KernelGrid, max_power: int = VERDICT_POWERS) -> SpectralEstimate:
    """Gelfand sequence |T^n|^(1/n), n <= max_power, plus a power-iteration estimate."""
    if max_power < 1:
        raise ShapeError("max_power must be at least 1")
    lam, converged, iters = grid.analysis.power_iterate
    return SpectralEstimate(
        rho_power_iteration=lam,
        rho_gelfand_sequence=grid.analysis.extend(max_power).gelfand[:max_power],
        converged=converged,
        iterations=iters,
        grid_n=grid.n,
    )


def require_stable(
    grid: KernelGrid, error: type[Exception] = UnstableModelError, what: str = "model"
) -> SpectralEstimate:
    """The verdict's estimate of the grid; raises `error` unless it is stable."""
    est = spectral_radius(grid)
    if not est.stable:
        raise error(f"{what} unstable: spectral radius estimate {est.rho:.4f} >= 1")
    return est


def gate_grid(spec: ModelSpec) -> KernelGrid:
    """The coarse grid simulators gate on: 96 nodes per axis in 1-d, 12 in
    higher dimensions, a quarter of that when the node cap is hit."""
    n = 96 if spec.domain.dim == 1 else 12
    try:
        return discretize_kernel(spec, n)
    except GridTooLargeError:
        return discretize_kernel(spec, max(2, n // 4))


def _geometric_tail(grid: KernelGrid) -> float:
    """Gelfand tail q of a stable grid, for geometric tail bounds."""
    tail = require_stable(grid).gelfand_tail
    if tail >= NEAR_CRITICAL:
        raise UnstableModelError(
            f"near-critical model (Gelfand tail {tail:.4f} >= {NEAR_CRITICAL}); "
            "geometric tail bounds are unreliable"
        )
    return tail


def stationary_rate(
    grid: KernelGrid,
    baseline: np.ndarray,
    tol: float = 1e-10,
    max_terms: int = 200_000,
) -> StationaryRate:
    """Neumann series lam_bar = sum_n T^n lam_inf with a geometric tail stop.

    Truncates once the current term's norm times q/(1-q) (q the Gelfand
    tail estimate) drops below tol, then reports the fixed-point residual
    sup |lam_bar - lam_inf - T lam_bar|.
    """
    baseline = np.asarray(baseline, float)
    if baseline.shape != (grid.nodes.shape[0],):
        raise ShapeError("baseline grid function does not match the kernel grid")
    q = _geometric_tail(grid)
    tail_factor = q / (1.0 - q) if q > 0 else 0.0
    a = grid.action
    term = baseline.copy()
    total = baseline.copy()
    terms = 1
    while True:
        term = a @ term
        total += term
        terms += 1
        scale = float(np.max(np.abs(term)))
        if scale * max(tail_factor, 1.0) < tol or scale == 0.0:
            break
        if terms > max_terms:
            raise SlowConvergenceError(
                f"Neumann series did not reach tol={tol} within {max_terms} terms"
            )
    residual = float(np.max(np.abs(total - baseline - a @ total)))
    return StationaryRate(values=total, residual=residual, terms_used=terms)


def cluster_size_bound(grid: KernelGrid) -> float:
    """Upper bound on the expected cluster size: min_N S_N / (1 - |T^N|).

    Uses sum_{n>=0} |T^n| <= (sum_{r<N} |T^r|) / (1 - |T^N|), valid for any
    N with |T^N| < 1 by submultiplicativity in blocks of N.
    """
    _geometric_tail(grid)
    norms = [1.0] + grid.analysis.extend(BOUND_POWERS).norms[:BOUND_POWERS]
    best = np.inf
    partial = 0.0
    for n in range(1, len(norms)):
        partial += norms[n - 1]
        if norms[n] < 1.0:
            best = min(best, partial / (1.0 - norms[n]))
    if not np.isfinite(best):
        raise UnstableModelError("no power of the operator has norm below 1")
    return float(best)


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
    bound = None
    notes = [] if est.converged else ["no-convergence"]
    if est.stable:
        try:
            bound = cluster_size_bound(grid)
        except UnstableModelError as exc:
            notes.append(str(exc))
    return StabilityReport(
        op_norm=operator_norm_l1(grid),
        rho_gelfand=min(est.rho_gelfand_sequence),
        rho_power=est.rho_power_iteration,
        stable=est.stable,
        cluster_size_bound=bound,
        grid_n=n,
        notes=notes,
    )
