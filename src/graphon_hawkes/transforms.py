"""Laplace-functional fixed point for cluster transforms and the
birth-death population transform, with Monte Carlo oracles.

For a test function f, the cluster transform eta_x(f, u) (the transform of
all particles alive at elapsed time u in a cluster rooted at x) is the
unique fixed point of

    Phi_x(xi)(f, u) = gamma_x(f, u) *
        L_xi( int b(y, x) W(y, x) int_0^u (1 - xi_y(f, u - s)) h(s) ds dy ),

where gamma_x(f, u) = Jbar(u) + J(u) e^{-f(x)} handles the root's own
survival and L_xi is the mark scalar's Laplace transform.  Iterates of any
[0,1]-valued start converge with sup-error at most C^n u^n / n!, where
C = 2 |h|_inf C_B C_W; the iteration log records that envelope.

The population transform follows from the immigrant decomposition:
    L_Q(f, t) = exp( int_X int_0^t (eta_x(f, u) - 1) lam_inf(x) du dx ).

Which grid: on a model with cells (`ModelSpec.form`) and a constant f, each
iterate from 1 is constant per cell, so `fixed_point` sweeps on the cells,
else on the standard grid.  `laplace_of_Q` and `_tail_mass` weigh each cell
by its volume, so they stay exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cluster_sim import DEFAULT_EVENT_CAP, _grow
from .errors import InvalidArgumentError, ShapeError
from .model import ModelSpec, _cell_index
from .rng import SplitStream

FIXED_POINT_MAX_ITER = 400


@dataclass(frozen=True, eq=False)
class TestFunction:
    """Bounded nonnegative test function on the domain."""

    __test__ = False  # not a pytest class, despite the name

    kind: str  # "const" | "grid"
    value: float = 0.0
    values: np.ndarray | None = None

    @classmethod
    def constant(cls, z: float) -> "TestFunction":
        if z < 0:
            raise InvalidArgumentError("test functions must be nonnegative")
        return cls(kind="const", value=float(z))

    @classmethod
    def from_values(cls, values: np.ndarray) -> "TestFunction":
        values = np.asarray(values, float)
        if (values < 0).any():
            raise InvalidArgumentError("test functions must be nonnegative")
        return cls(kind="grid", values=values)

    def on(self, nodes: np.ndarray) -> np.ndarray:
        if self.kind == "const":
            return np.full(nodes.shape[0], self.value)
        if self.values.shape[0] != nodes.shape[0]:
            raise ShapeError("grid test function does not match the standard grid")
        return self.values

    def at_points(self, pts: np.ndarray, spec: ModelSpec) -> np.ndarray:
        """f at points (k, m), read from the standard-grid cell holding each."""
        if self.kind == "const":
            return np.full(pts.shape[0], self.value)
        cells = _cell_index(pts, spec.domain, (spec.grid_n,) * spec.domain.dim)
        return self.on(spec.std_grid[0])[cells]


@dataclass(eq=False)
class TransformGrid:
    """xi_x(f, u) on (location grid) x (uniform time grid on [0, t])."""

    values: np.ndarray  # (n_x, n_u) in [0, 1]
    u_grid: np.ndarray  # (n_u,), u_grid[0] = 0
    f: TestFunction
    grid_n: int | None = None  # per-axis size of the grid swept on; None: standard


@dataclass(frozen=True, eq=False)
class FixedPointLog:
    sup_changes: list[float]
    envelope: list[float]
    envelope_constant: float
    converged: bool
    iterations: int

    @property
    def envelope_ok(self) -> bool:
        return all(c <= e + 1e-9 for c, e in zip(self.sup_changes, self.envelope))


class _PhiOperator:
    """Precomputed pieces of Phi for one (spec, f, time grid) on the midpoint
    grid with n cells per axis."""

    def __init__(self, spec: ModelSpec, f: TestFunction, u_grid: np.ndarray, n: int):
        self.spec = spec
        self.nodes, self.weights = spec.domain.grid(n)
        n_u = u_grid.shape[0]
        du = float(u_grid[1] - u_grid[0]) if n_u > 1 else 0.0
        h_vals = spec.excitation.h(u_grid)
        # lower-triangular trapezoid-convolution matrix: C = G @ M with
        # M[l, i] = du * h(u_i - u_l) * (1/2 at the endpoints l in {0, i})
        li, ui = np.meshgrid(np.arange(n_u), np.arange(n_u), indexing="ij")
        self.M = M = np.where(li <= ui, h_vals[np.clip(ui - li, 0, n_u - 1)], 0.0) * du
        M[0, :] *= 0.5
        M[li == ui] *= 0.5
        M[:, 0] = 0.0
        # spatial quadrature: S[x, u] = sum_y b(y,x) W(y,x) C[y, u] w_y
        b, w = (pf.matrix(self.nodes, spec.domain) for pf in (spec.marks.b, spec.graphon))
        self.bw_weighted = b * w * self.weights[:, None]  # rows y, cols x
        f_vals = f.on(self.nodes)
        surv = spec.lifetimes.survival(u_grid)[None, :]
        self.gamma = (1.0 - surv) + surv * np.exp(-f_vals)[:, None]

    def apply(self, values: np.ndarray) -> np.ndarray:
        conv = (1.0 - values) @ self.M  # (n_x, n_u)
        s_arg = self.bw_weighted.T @ conv
        out = self.gamma * self.spec.marks.laplace_xi(np.maximum(s_arg, 0.0))
        return np.clip(out, 0.0, 1.0)


def phi_apply(xi: TransformGrid, spec: ModelSpec, f: TestFunction) -> TransformGrid:
    """One application of the transform operator Phi."""
    if xi.values.shape[0] != spec.grid_n**spec.domain.dim:
        raise ShapeError("transform grid does not match the model's standard grid")
    if (xi.values < -1e-12).any() or (xi.values > 1 + 1e-12).any():
        raise InvalidArgumentError("transform values must lie in [0, 1]")
    op = _PhiOperator(spec, f, xi.u_grid, spec.grid_n)
    return TransformGrid(values=op.apply(xi.values), u_grid=xi.u_grid, f=f)


def envelope_constant(spec: ModelSpec) -> float:
    """C = 2 |h|_inf C_B C_W, the contraction-envelope constant."""
    return 2.0 * spec.excitation.sup_norm * spec.c_b * spec.graphon_bound()


def fixed_point(spec: ModelSpec, f: TestFunction, t: float, tol: float = 1e-10,
                n_u: int = 257) -> tuple[TransformGrid, FixedPointLog]:
    """Iterate Phi from the constant 1 until the sup-change < tol.

    The sweeps run on the grid of the module docstring (`TransformGrid.grid_n`
    says which), expanded once to the standard grid, one row per node.  The
    log pairs each iteration's sup-change with the envelope C^n t^n / n!.
    Hitting the iteration cap returns the last iterate with `converged=False`
    instead of raising.
    """
    n = (spec.form.n if f.kind == "const" else None) or spec.grid_n
    u_grid = np.linspace(0.0, float(t), n_u)
    op = _PhiOperator(spec, f, u_grid, n)
    values = np.ones((op.nodes.shape[0], n_u))
    c_env = envelope_constant(spec)
    sup_changes, envelope = [], []
    log_env = 0.0  # log of C^n t^n / n!
    for k in range(FIXED_POINT_MAX_ITER):
        new = op.apply(values)
        change = float(np.max(np.abs(new - values)))
        sup_changes.append(change)
        envelope.append(min(math.exp(log_env), 1e300))
        log_env += math.log(max(c_env * t, 1e-300)) - math.log(k + 1)
        values = new
        if change < tol:
            break
    if n != spec.grid_n:  # one row per standard-grid node, read from its cell
        values = values[_cell_index(spec.std_grid[0], spec.domain, (n,) * spec.domain.dim)]
    return TransformGrid(values=values, u_grid=u_grid, f=f, grid_n=n), FixedPointLog(
        sup_changes=sup_changes,
        envelope=envelope,
        envelope_constant=c_env,
        converged=sup_changes[-1] < tol,
        iterations=len(sup_changes),
    )


def _baseline_mass(eta: TransformGrid, spec: ModelSpec) -> np.ndarray:
    """lam_inf times each standard-grid node's weight, for integrals of eta over
    X.  Where eta was swept on a coarser grid, so is constant per cell of it, a
    node weighs its cell's volume over the cell's node count: exact."""
    nodes, weights = spec.std_grid
    if eta.values.shape[0] != nodes.shape[0]:
        raise ShapeError("transform grid does not match the model's standard grid")
    n = eta.grid_n or spec.grid_n
    if n < spec.grid_n:
        cell = _cell_index(nodes, spec.domain, (n,) * spec.domain.dim)
        weights = spec.domain.volume / n**spec.domain.dim / np.bincount(cell)[cell]
    return spec.baseline_on(nodes) * weights


def laplace_of_Q(eta: TransformGrid, spec: ModelSpec, t: float) -> float:
    """L_Q(f, t) = exp( int int (eta - 1) lam_inf du dx ) by double quadrature."""
    lam_w = _baseline_mass(eta, spec)
    n_u = int(np.searchsorted(eta.u_grid, t, side="right"))
    trapz = getattr(np, "trapezoid", None) or np.trapz
    inner = trapz(eta.values[:, :n_u] - 1.0, eta.u_grid[:n_u], axis=1)
    return float(np.exp(np.sum(inner * lam_w)))


@dataclass(frozen=True)
class OracleEstimate:
    estimate: float
    stderr: float
    nsim: int
    censored: bool = False


def mc_transform_oracle(
    spec: ModelSpec, x, f: TestFunction, u: float, nsim: int, rng
) -> OracleEstimate:
    """Monte Carlo estimate of eta_x(f, u) = E[exp(-f(S_x, u))].

    Simulates nsim clusters with lifetimes rooted at (0, x) and averages
    exp(-sum of f over particles alive at u).
    """
    gen = rng.generator() if isinstance(rng, SplitStream) else rng
    roots = np.tile(np.atleast_1d(np.asarray(x, float)), (nsim, 1))
    xi0 = spec.marks.sample_xi(gen, nsim)
    grown = _grow(
        spec.engine, np.zeros(nsim), roots, xi0, np.arange(nsim, dtype=np.int64), 0,
        float(u), gen, True, DEFAULT_EVENT_CAP,
    )
    return _alive_transform(grown, spec, f, u, nsim)


def _alive_transform(grown, spec: ModelSpec, f: TestFunction, u: float, nsim: int):
    """The mean and SE over the `nsim` labels of exp(-sum of f over the
    particles of `_grow`'s output alive at u)."""
    (t, xs, _, sim, _, _, lt), censored = grown
    alive = (t <= u) & (u < t + lt)
    sums = np.bincount(sim[alive], weights=f.at_points(xs[alive], spec), minlength=nsim)
    vals = np.exp(-sums)
    se = float(vals.std(ddof=1) / math.sqrt(nsim)) if nsim > 1 else 0.0
    return OracleEstimate(float(vals.mean()), se, nsim, censored)


def mc_population_transform(
    spec: ModelSpec, f: TestFunction, t: float, nsim: int, rng
) -> OracleEstimate:
    """Direct Monte Carlo of E[exp(-f(Q_t))] via immigrants plus clusters."""
    gen = rng.generator() if isinstance(rng, SplitStream) else rng
    engine = spec.engine
    counts = gen.poisson(engine.alpha * t, nsim)
    total = int(counts.sum())
    sim_idx = np.repeat(np.arange(nsim, dtype=np.int64), counts)
    times = t * (1.0 - gen.random(total))
    locs = engine.sample_immigrant_locations(total, gen)
    xis = spec.marks.sample_xi(gen, total)
    grown = _grow(engine, times, locs, xis, sim_idx, 0, float(t), gen, True, DEFAULT_EVENT_CAP)
    return _alive_transform(grown, spec, f, t, nsim)


# ---------------------------------------------------------------------------
# Limit interchange


@dataclass(frozen=True)
class InterchangeEntry:
    d: int
    laplace: float
    abs_diff: float
    unstable: bool
    tail_mass: float


@dataclass(frozen=True)
class InterchangeReport:
    t_large: float
    laplace_continuum: float
    tail_mass: float
    entries: list[InterchangeEntry] = field(default_factory=list)


def _tail_mass(eta: TransformGrid, spec: ModelSpec) -> float:
    """Estimated int_{t}^{inf} int (1 - eta) lam_inf dx du beyond the grid,
    from a log-linear fit over the last decade of the time grid."""
    a = np.maximum((1.0 - eta.values) * _baseline_mass(eta, spec)[:, None], 0.0).sum(axis=0)
    u = eta.u_grid
    lo = int(0.9 * len(u))
    seg_u, seg_a = u[lo:], a[lo:]
    pos = seg_a > 0
    if pos.sum() < 2:
        return 0.0
    slope, intercept = np.polyfit(seg_u[pos], np.log(seg_a[pos]), 1)
    if slope >= 0:
        return float("inf")
    rate = -slope
    return float(math.exp(intercept + slope * u[-1]) / rate)


def interchange_experiment(
    spec: ModelSpec,
    d_list,
    f: TestFunction,
    t_large: float,
    tol: float = 1e-10,
    n_u: int = 513,
) -> InterchangeReport:
    """Compare prelimit transforms L_Q^d against the continuum L_Q at a large
    horizon standing in for t = infinity, with the neglected tail reported.

    An entry is flagged `unstable` when the averaged model fails the
    coupling's stability verdict; any other error propagates."""
    from .prelimit import average_model, build_partition

    eta, _ = fixed_point(spec, f, t_large, tol=tol, n_u=n_u)
    l_cont = laplace_of_Q(eta, spec, t_large)
    tail = _tail_mass(eta, spec)

    entries = []
    for d in d_list:
        part = build_partition(spec.domain, d, "per-axis-counts")
        aspec = average_model(spec, part).spec
        unstable = not aspec.gate.stable
        eta_d, _ = fixed_point(aspec, f, t_large, tol=tol, n_u=n_u)
        l_d = laplace_of_Q(eta_d, aspec, t_large)
        entries.append(
            InterchangeEntry(
                d=int(d),
                laplace=l_d,
                abs_diff=abs(l_d - l_cont),
                unstable=unstable,
                tail_mass=_tail_mass(eta_d, aspec),
            )
        )
    return InterchangeReport(
        t_large=float(t_large),
        laplace_continuum=l_cont,
        tail_mass=tail,
        entries=entries,
    )
