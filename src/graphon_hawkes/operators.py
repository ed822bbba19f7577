"""Quadrature discretization of the first-generation offspring operator and
the stability / long-run diagnostics built on it.

The operator maps a spatial density f to
    (Tf)(x) = |h|_1 * c_x * int E[B_xy] W(x, y) f(y) dy,
discretized with midpoint quadrature on a uniform grid.  On grid functions
it acts as the nonnegative matrix A = K diag(w) (K is clipped at 0, w > 0),
so the L1 operator norm of T^n is max_j (w^T A^(n-1) K)_j with no |.|,
read off a row at one O(n^2) vector-matrix product per n (the row is kept
in range by exact power-of-two rescaling; see `spectral_radius`).

Every stability, rate and cluster-size question is one dense solve with
I - A, the resolvent sum_n A^n of the stable regime rho(A) < 1:

* Verdict (`KernelGrid.stable`, cached per grid).  Solve x = (I - A)^{-1} 1
  and take hi = max_i (Ax)_i / x_i.  For A >= 0 and any x > 0,
  rho(A) <= hi (Collatz-Wielandt), so the grid is stable when x > 0 and
  hi * (1 + gamma) < 1, where gamma = (N+1)u / (1 - (N+1)u), u = 2^-53,
  bounds the rounding of an N-term nonnegative dot product plus one
  division.  An unstable grid cannot pass, however x was computed.  If
  rho < 1 then x = sum_n A^n 1 >= 1 and (Ax)_i / x_i = 1 - 1/x_i < 1
  (Berman & Plemmons: rho(A) < 1 iff (I - A)^{-1} >= 0), so a stable grid
  passes, zero-row, reducible and nilpotent ones included, while every x_i
  stays below about (1 + gamma) / gamma; past that (1 - 1/x_i)(1 + gamma)
  rounds to 1 or more and the stable grid is refused (a 5-cell table with
  rho = 0.6 can give x_4 = 1.7e129).  A singular I - A is not stable.
* Stationary rate: lam_bar = (I - A)^{-1} lam_inf.
* Expected cluster size: the L1 norm of (I - T)^{-1}, one transposed solve.

`require_stable` reads the verdict; simulators call it on `gate_grid`.  The
Gelfand sequence |T^n|^(1/n) and the power iteration from the constant
function (the dominant eigenfunction is positive, so the constant seed has
nonzero overlap) are reported estimates, not verdicts.

Which grid: `ModelSpec.form` states every rule.  `gate_grid` is the one
builder of an exact operator, read as `ModelSpec.gate`.  A box A enters a
grid through the share |A & cell_i| / w_i of each grid cell (`box_share`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import GridTooLargeError, ShapeError, UnstableModelError
from .model import MAX_GRID_NODES, ModelSpec, kernel_density_matrix

GELFAND_POWERS = 48  # Gelfand sequence length reported by stability_report


@dataclass(frozen=True, eq=False)
class KernelGrid:
    """The offspring operator on a basis: the midpoint rule on nodes (`gram`
    None, Gram diag(weights)), or a finite-rank form on basis knots."""

    n: int
    nodes: np.ndarray  # the grid nodes, or the basis knots
    weights: np.ndarray  # the quadrature weights, or the basis integrals m_r
    values: np.ndarray  # K[i, j] = |h|_1 c E[B_{x_i x_j}] W(x_i, x_j), or V
    gram: np.ndarray | None = None  # G_sr = int phi_s phi_r

    def gram_apply(self, x: np.ndarray) -> np.ndarray:
        """x G, along the last axis."""
        return x * self.weights if self.gram is None else x @ self.gram

    @property
    def action(self) -> np.ndarray:
        """Matrix A with (Tf)_i = (A f)_i for the coefficients f of a function."""
        return self.gram_apply(self.values)

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


@dataclass(frozen=True, eq=False)
class SpectralEstimate:
    rho_power_iteration: float
    converged: bool
    iterations: int
    stable: bool  # the grid's certified verdict
    rho_gelfand_sequence: list[float]  # |T^n|^(1/n) for n <= max_power


@dataclass(frozen=True, eq=False)
class StationaryRate:
    values: np.ndarray
    residual: float
    terms_used: int  # 0: a direct solve sums no series


def discretize_kernel(spec: ModelSpec, n: int) -> KernelGrid:
    """K[i][j] = |h|_1 * c * E[B_{x_i x_j}] * W(x_i, x_j) on the midpoint grid."""
    if n < 1:
        raise ShapeError("grid size must be at least 1")
    if n**spec.domain.dim > MAX_GRID_NODES:
        raise GridTooLargeError(
            f"{n}^{spec.domain.dim} nodes exceed the cap of {MAX_GRID_NODES}"
        )
    nodes, weights = spec.domain.grid(n)
    return KernelGrid(n=n, nodes=nodes, weights=weights, values=_kernel_values(spec, nodes))


def _kernel_values(spec: ModelSpec, nodes: np.ndarray) -> np.ndarray:
    values = spec.excitation.l1_norm * kernel_density_matrix(spec, nodes)
    if (values < -1e-12).any():
        raise ShapeError("kernel values must be nonnegative")
    return np.maximum(values, 0.0)


def box_share(domain, n: int, box) -> np.ndarray:
    """|A & cell_i| / |cell_i| for the box A = (lo, hi) and every cell of the
    n-grid, row-major like `domain.grid(n)` (exactly 1 inside A); ones when
    `box` is None."""
    if box is None:
        return np.ones(n**domain.dim)
    i, share = np.arange(n), np.ones(1)
    for a in range(domain.dim):  # the overlap of [i, i + 1] with the box in cell units
        lo, hi = ((np.atleast_1d(np.asarray(b, float))[a] - domain.lo[a])
                  * n / (domain.hi[a] - domain.lo[a]) for b in box)
        part = np.clip(np.minimum(i + 1, hi) - np.maximum(i, lo), 0.0, 1.0)
        share = np.multiply.outer(share, part).ravel()
    return share


def _node_values(grid: KernelGrid, f, what: str) -> np.ndarray:
    """`f` as a function on the grid's nodes; a finite-rank form has none, its
    values are basis coefficients."""
    if grid.gram is not None:
        raise ShapeError(f"{what} needs node values; a finite-rank form has coefficients")
    f = np.asarray(f, float)
    if f.shape != (grid.nodes.shape[0],):
        raise ShapeError(f"{what} has shape {f.shape}, expected ({grid.nodes.shape[0]},)")
    return f


def apply_kernel(grid: KernelGrid, f: np.ndarray) -> np.ndarray:
    """(Tf)(x_i) = sum_j K[i][j] f(x_j) w_j: the kernel operator T of the
    paper's stability condition applied to a grid function.  Library API (no
    caller in the package); checked by test_operators.py's
    `test_apply_kernel_rank_one_analytic`."""
    return grid.values @ (_node_values(grid, f, "grid function") * grid.weights)


def operator_norm_l1(grid: KernelGrid) -> float:
    """|T|_{L1->L1} = max_j sum_i K[i][j] w_i (columns hold fixed sources y)."""
    return float(np.max(grid.weights @ grid.values))


def spectral_radius(grid: KernelGrid, max_power: int = GELFAND_POWERS) -> SpectralEstimate:
    """Gelfand sequence |T^n|^(1/n), n <= max_power, plus a power-iteration estimate.

    A = V G >= 0, so |T^n| = max_j r_j exactly for the row r = m^T A^(n-1) V,
    which steps from m^T V as r <- (r G) V: one vector-matrix product per
    term, O(max_power n^2) in all, and no power of A is formed.  Whenever the
    row's maximum leaves [2^-500, 2^500] the row is scaled by an exact power
    of two 2^-e and e is added to the exponent E, so that |T^n| = max_j r_j
    * 2^E never underflows or overflows; the term is reported as
    (max_j r_j)^(1/n) * 2^(E/n), which is the plain root while E = 0.
    """
    if max_power < 1:
        raise ShapeError("max_power must be at least 1")
    row, exp2, gelfand = grid.weights, 0, []
    for k in range(1, max_power + 1):
        row = (grid.gram_apply(row) if k > 1 else row) @ grid.values
        norm = float(np.max(row))
        if norm > 0 and not 2.0**-500 <= norm <= 2.0**500:
            e = math.frexp(norm)[1]  # the max scales exactly: it lands in [1/2, 1)
            row, exp2, norm = np.ldexp(row, -e), exp2 + e, math.ldexp(norm, -e)
        gelfand.append(norm ** (1.0 / k) * 2.0 ** (exp2 / k) if norm > 0 else 0.0)
    return SpectralEstimate(*grid.power_iterate, grid.stable, gelfand)


def require_stable(
    grid: KernelGrid, error: type[Exception] = UnstableModelError, what: str = "model"
) -> None:
    """Raise `error` unless the grid's verdict is stable; the power-iteration
    estimate is formed for the message alone."""
    if not grid.stable:
        raise error(
            f"{what} unstable: spectral radius is not certified below 1 "
            f"(power-iteration estimate {grid.power_iterate[0]:.4f})"
        )


def gate_grid(spec: ModelSpec) -> KernelGrid:
    """The grid simulators gate on, and the one builder of an exact operator
    (`ModelSpec.form`): the cells, so an averaged model on d cells gates on
    its d x d matrix, or the hats, with V the table at the knots, G_sr =
    int phi_s phi_r and A = V G.  Simpson's rule per piece between knots,
    where two hats' product is quadratic, gives G and m_r = int phi_r
    exactly; a nonnegative hat combination peaks at a knot, so every L1 sup
    is a max over coefficients.  Else 96 nodes per axis in 1-d, 12 above, a
    quarter of that at the node cap."""
    form = spec.form
    if form.kind == "cells":
        return discretize_kernel(spec, form.n)
    if form.kind == "hats":
        knots = spec.domain.grid(form.r)[0]
        ends = np.concatenate([spec.domain.lo, knots[:, 0], spec.domain.hi])
        a, b = ends[:-1], ends[1:]
        pts = np.concatenate([a, (a + b) / 2, b])
        q = np.concatenate([b - a, 4 * (b - a), b - a]) / 6  # Simpson's weights
        i0, i1, t = spec.graphon._per_point(pts[:, None], spec.domain)  # two hats a point
        gram, m = np.zeros((form.r, form.r)), np.zeros(form.r)
        for i, u in ((i0, 1 - t), (i1, t)):
            np.add.at(m, i, q * u)
            for j, v in ((i0, 1 - t), (i1, t)):
                np.add.at(gram, (i, j), q * u * v)
        return KernelGrid(n=form.r, nodes=knots, weights=m,
                          values=_kernel_values(spec, knots), gram=gram)
    n = 96 if spec.domain.dim == 1 else 12
    try:
        return discretize_kernel(spec, n)
    except GridTooLargeError:
        return discretize_kernel(spec, max(2, n // 4))


def stationary_rate(grid: KernelGrid, baseline: np.ndarray) -> StationaryRate:
    """lam_bar = (I - T)^{-1} lam_inf by one dense solve, with the fixed-point
    residual sup |lam_bar - lam_inf - T lam_bar|."""
    baseline = _node_values(grid, baseline, "baseline")
    require_stable(grid)
    a = grid.action
    values = np.linalg.solve(np.eye(a.shape[0]) - a, baseline)
    residual = float(np.max(np.abs(values - baseline - a @ values)))
    return StationaryRate(values=values, residual=residual, terms_used=0)


def cluster_size_bound(grid: KernelGrid) -> float:
    """Expected cluster size, sup over the root's location:
    |(I - T)^{-1}|_{L1} = 1 + max_j (sum_n m^T A^(n-1) V)_j
    = 1 + max_j (z^T V)_j with (I - A)^T z = m.

    Exact on the grid, so at least 1/(1 - rho); the name is kept from the
    submultiplicative bound it replaced.
    """
    require_stable(grid)
    a = grid.action
    z = np.linalg.solve((np.eye(a.shape[0]) - a).T, grid.weights)
    return 1.0 + float(np.max(z @ grid.values))


def fclt_sigma(grid: KernelGrid, lambda_bar: StationaryRate, share: np.ndarray) -> float:
    """sigma_A = sum_i ((I - T)^{-1} sqrt(lam_bar))(x_i) |A & cell_i|, with
    `share` the share of each grid cell inside A (`box_share`; a bool mask
    counts whole cells)."""
    share = _node_values(grid, share, "set share")
    a = grid.action
    try:
        v = np.linalg.solve(np.eye(a.shape[0]) - a, np.sqrt(lambda_bar.values))
    except np.linalg.LinAlgError as exc:
        raise UnstableModelError("I - T is singular at this grid scale") from exc
    return float(np.sum(v * (share * grid.weights)))


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
    form: str  # `ModelForm.kind`: "cells", "hats" or "grid" (the n-grid)
    notes: list[str] = field(default_factory=list)


def stability_report(spec: ModelSpec, n: int) -> StabilityReport:
    """The report on the model's gate when its form is exact, else on the
    n-grid; `grid_n` is the size used."""
    form = spec.form.kind
    grid = discretize_kernel(spec, n) if form == "grid" else spec.gate
    est = spectral_radius(grid)
    return StabilityReport(
        op_norm=operator_norm_l1(grid),
        rho_gelfand=min(est.rho_gelfand_sequence),
        rho_power=est.rho_power_iteration,
        stable=est.stable,
        cluster_size_bound=cluster_size_bound(grid) if est.stable else None,
        grid_n=grid.n,
        form=form,
        notes=[] if est.converged else ["no-convergence"],
    )
