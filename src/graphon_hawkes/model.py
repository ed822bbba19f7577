"""Model parameterization: domain, baseline, graphon, excitation, marks,
lifetimes, nonlinearity, and validation.

A model is a frozen `ModelSpec`; after `validate_model` returns an empty
report it is safe to share across workers.  All spatial functions evaluate
vectorized over arrays of points of shape (k, m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    InvalidParameterError,
    NegativeTimeError,
    OutOfDomainError,
)

DEFAULT_GRID_N = 512
MAX_GRID_NODES = 4096  # node cap of every dense operator grid
PROBE_N = 33  # per-axis size of the grid `validate_model` probes


def _frozen_array(values) -> np.ndarray:
    """A read-only float copy of `values`."""
    out = np.array(values, float)
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# Domain


@dataclass(frozen=True, eq=False)
class SpatialDomain:
    """Compact hyperrectangle [lower, upper] in R^m."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        lo, up = self.lo, self.hi
        if lo.ndim != 1 or lo.shape != up.shape:
            raise InvalidParameterError("domain bounds must be equal-length vectors")
        if not (np.isfinite(lo).all() and np.isfinite(up).all()):
            raise InvalidParameterError("domain bounds must be finite")
        if not (lo < up).all():
            raise InvalidParameterError("domain must satisfy lower < upper")

    @property
    def dim(self) -> int:
        return len(self.lower)

    # the bounds as arrays, built once per domain and read-only

    @cached_property
    def lo(self) -> np.ndarray:
        return _frozen_array(self.lower)

    @cached_property
    def hi(self) -> np.ndarray:
        return _frozen_array(self.upper)

    @property
    def volume(self) -> float:
        return float(np.prod(self.hi - self.lo))

    def contains(self, x: np.ndarray) -> bool:
        x = np.atleast_1d(np.asarray(x, float))
        return bool((x >= self.lo - 1e-12).all() and (x <= self.hi + 1e-12).all())

    def grid(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Midpoint grid with n cells per axis: (nodes (n^m, m), weights (n^m,))."""
        axes = [
            self.lo[a] + (np.arange(n) + 0.5) * (self.hi[a] - self.lo[a]) / n
            for a in range(self.dim)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        nodes = np.stack([m.ravel() for m in mesh], axis=1)
        w = self.volume / n**self.dim
        return nodes, np.full(nodes.shape[0], w)


# ---------------------------------------------------------------------------
# Spatial profiles (functions X -> R) and pair functions (X^2 -> R)


@dataclass(frozen=True, eq=False)
class SpatialProfile:
    """Function on the domain: constant, affine, or grid-backed.

    grid values live on uniform per-axis cells (`axis_counts`), piecewise
    constant, or linearly interpolated between cell midpoints in 1-d.
    """

    family: str  # "constant" | "affine" | "identity" | "grid"
    value: float = 0.0
    intercept: float = 0.0
    slope: tuple[float, ...] = ()
    values: np.ndarray | None = None
    axis_counts: tuple[int, ...] = ()
    interp: str = "pw-constant"  # or "linear" (1-d grids)

    def __call__(self, pts: np.ndarray, domain: SpatialDomain) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, float))
        if self.family == "constant":
            return np.full(pts.shape[0], float(self.value))
        if self.family == "identity":
            # product of coordinates; reduces to a(x)=x in 1-d
            return np.prod(pts, axis=1)
        if self.family == "affine":
            slope = self.slope or (0.0,) * domain.dim
            total = pts[:, 0] * slope[0]
            for a in range(1, pts.shape[1]):  # not a matmul, whose rounding varies by batch
                total = total + pts[:, a] * slope[a]
            return self.intercept + total
        if self.family == "grid":
            return _grid_eval_profile(self, pts, domain)
        raise InvalidParameterError(f"unknown profile family {self.family!r}")

    def at(self, y: list) -> float:
        """`__call__` at one point, a list of coordinates, in Python floats and
        in the same order, so the same double; not on the grid family."""
        if self.family == "constant":
            return float(self.value)
        if self.family == "identity":
            return math.prod(y)
        slope = self.slope or (0.0,) * len(y)
        total = y[0] * slope[0]
        for a in range(1, len(y)):
            total = total + y[a] * slope[a]
        return self.intercept + total

    @property
    def cell_counts(self) -> tuple[int, ...]:
        return self.axis_counts or (np.size(self.values),)


def _cell_index(pts, domain, counts):
    """Flat uniform-cell index of each point; clipped to the boundary cells."""
    counts = np.asarray(counts, int)
    rel = (pts - domain.lo) / (domain.hi - domain.lo)
    # np.minimum/np.maximum: the same integers as np.clip at a third of its call cost
    idx = np.minimum(np.maximum((rel * counts).astype(int), 0), counts - 1)
    flat = idx[:, 0]
    for a in range(1, len(counts)):
        flat = flat * counts[a] + idx[:, a]
    return flat


def _grid_eval_profile(profile, pts, domain):
    vals = np.asarray(profile.values, float).ravel()
    counts = profile.cell_counts
    if profile.interp == "linear" and domain.dim == 1:
        n = counts[0]
        mids = domain.lo[0] + (np.arange(n) + 0.5) * (domain.hi[0] - domain.lo[0]) / n
        return np.interp(pts[:, 0], mids, vals)
    return vals[_cell_index(pts, domain, counts)]


@dataclass(frozen=True, eq=False)
class PairFunction:
    """Function on domain^2: constant, rank-one c*a(x)*a(y), or grid-backed."""

    family: str  # "constant" | "rank-one" | "grid"
    value: float = 0.0
    coeff: float = 1.0
    profile: SpatialProfile | None = None
    values: np.ndarray | None = None  # (ncells, ncells)
    axis_counts: tuple[int, ...] = ()
    interp: str = "pw-constant"  # or "bilinear" (1-d grids)

    def pairs(self, xs: np.ndarray, ys: np.ndarray, domain: SpatialDomain) -> np.ndarray:
        """Evaluate at matched point pairs; xs, ys of shape (k, m)."""
        return self._combine(self._per_point(xs, domain), self._per_point(ys, domain))

    def matrix(self, nodes: np.ndarray, domain: SpatialDomain) -> np.ndarray:
        """F(x_i, x_j) at all node pairs; shape (k, k), rows x, cols y.  The
        per-point terms, computed once on the k nodes, broadcast (k, 1) against
        (1, k) through the operations of `pairs` in the same order: the result
        is byte-identical to `pairs` at the meshgrid of node pairs."""
        terms = self._per_point(nodes, domain)
        return self._combine([t[:, None] for t in terms], [t[None, :] for t in terms])

    def column(self, zs: np.ndarray, y: np.ndarray, domain: SpatialDomain) -> np.ndarray:
        """z -> F(z, y) for a single y over many z; shape (k,)."""
        return self._combine(self._per_point(zs, domain), self._per_point(y, domain))

    @property
    def cell_counts(self) -> tuple[int, ...]:
        return self.axis_counts or (np.shape(self.values)[0],)

    def _per_point(self, pts, domain) -> tuple[np.ndarray, ...]:
        """What the pair formula reads of each point: a(x) (rank-one), the cell
        index or the bilinear indices and weight (grid), the count (constant)."""
        pts = np.atleast_2d(np.asarray(pts, float))
        if self.family == "constant":
            return (np.empty(pts.shape[0]),)
        if self.family == "rank-one":
            return ((self.profile or SpatialProfile("identity"))(pts, domain),)
        if self.family != "grid":
            raise InvalidParameterError(f"unknown pair-function family {self.family!r}")
        if self.interp == "bilinear":
            n = self.cell_counts[0]
            mids = domain.lo[0] + (np.arange(n) + 0.5) * (domain.hi[0] - domain.lo[0]) / n
            f = np.clip(np.interp(pts[:, 0], mids, np.arange(n)), 0, n - 1)
            i0 = f.astype(int)
            return i0, np.minimum(i0 + 1, n - 1), f - i0
        return (_cell_index(pts, domain, self.cell_counts),)

    def _combine(self, x, y) -> np.ndarray:
        """The pair formula on per-point terms, broadcast x against y."""
        if self.family == "constant":
            return np.full(np.broadcast(x[0], y[0]).shape, float(self.value))
        if self.family == "rank-one":
            return self.coeff * x[0] * y[0]
        vals = np.asarray(self.values, float)
        if self.interp == "bilinear":
            (i0, i1, ti), (j0, j1, tj) = x, y
            return (vals[i0, j0] * (1 - ti) * (1 - tj) + vals[i1, j0] * ti * (1 - tj)
                    + vals[i0, j1] * (1 - ti) * tj + vals[i1, j1] * ti * tj)
        return vals[x[0], y[0]]

    def sup_bound(self) -> float:
        if self.family == "constant":
            return abs(float(self.value))
        if self.family == "grid":
            return float(np.max(np.abs(self.values)))
        return math.inf  # rank-one bound depends on the profile; probed in validate


# ---------------------------------------------------------------------------
# Excitation kernel


@dataclass(frozen=True, eq=False)
class ExcitationKernel:
    """Temporal excitation h >= 0 with recorded L1 mass.

    Analytic families are a normalized shape scaled by `l1`:
      exponential(rate):      h(t) = l1 * rate * exp(-rate t)
      power-law(p, cutoff c): h(t) = l1 * (p-1) c^(p-1) (c+t)^(-p)
    Table kernels are piecewise constant on [breaks[k], breaks[k+1]) and 0
    beyond the last breakpoint; their l1 is derived.
    """

    family: str  # "exponential" | "power-law" | "table"
    rate: float = 1.0
    exponent: float = 2.0
    cutoff: float = 1.0
    l1: float = 1.0
    breaks: np.ndarray | None = None  # (K+1,), starting at 0
    table_values: np.ndarray | None = None  # (K,)

    @cached_property
    def l1_norm(self) -> float:
        if self.family == "table":
            return float(np.sum(self.table_values * np.diff(self.breaks)))
        return float(self.l1)

    @cached_property
    def sup_norm(self) -> float:
        if self.family == "exponential":
            return self.l1 * self.rate
        if self.family == "power-law":
            return self.l1 * (self.exponent - 1) / self.cutoff
        return float(np.max(self.table_values)) if len(self.table_values) else 0.0

    @cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """A table kernel's values and nonincreasing majorant, each padded by
        its value before the first break and the 0 after the last (index them
        by `_segment`), H at each break, and the slopes of H with inf for 0."""
        vals = np.asarray(self.table_values, float)
        env = np.maximum.accumulate(vals[::-1])[::-1]
        cum = np.concatenate([[0.0], np.cumsum(vals * np.diff(self.breaks))])
        return (np.r_[0.0, vals, 0.0], np.r_[vals.max(initial=0.0), env, 0.0], cum,
                np.where(vals > 0, vals, np.inf))

    def _segment(self, t) -> np.ndarray:
        """1 + the index k of the table segment [breaks[k], breaks[k+1]) holding t."""
        return np.searchsorted(self.breaks, t, side="right")

    def h(self, t) -> np.ndarray:
        t = np.asarray(t, float)
        if self.family == "exponential":
            return self.l1 * self.rate * np.exp(-self.rate * t)
        if self.family == "power-law":
            p, c = self.exponent, self.cutoff
            return self.l1 * (p - 1) * c ** (p - 1) * (c + t) ** (-p)
        return self._table[0][self._segment(t)]

    def h_envelope(self, t) -> np.ndarray:
        """Nonincreasing majorant of h; equals h for the monotone families."""
        if self.family != "table":
            return self.h(t)
        return self._table[1][self._segment(np.asarray(t, float))]

    def _tail(self, u):
        """1 - H(u) / l1 of an analytic family, at an array or a float u by the
        same ufuncs: a float's 0-d array takes the array's `**` (sqrt at 0.5),
        where `math` or a float's `**` can miss the array's double by an ulp."""
        if self.family == "exponential":
            return np.exp(-self.rate * u)
        return np.asarray(self.cutoff / (self.cutoff + u)) ** (self.exponent - 1)

    def H(self, u) -> np.ndarray:
        """Integrated excitation: H(u) = int_0^u h, nondecreasing, H(inf)=l1."""
        u = np.asarray(u, float)
        if np.any(u < 0):
            raise NegativeTimeError("integrated excitation requires u >= 0")
        if self.family != "table":
            return self.l1 * (1.0 - self._tail(u))
        padded, _, cum, _ = self._table
        k = np.clip(self._segment(u) - 1, 0, cum.size - 2)
        return np.where(u >= self.breaks[-1], cum[-1],
                        cum[k] + padded[k + 1] * (u - self.breaks[k]))

    def H_at(self, u: float) -> float:
        """`H` at one u >= 0 as a float, the double of `H` at [u], without its checks."""
        return float(self.H(u) if self.family == "table" else self.l1 * (1.0 - self._tail(u)))

    def sample_delay(self, q, tau) -> np.ndarray:
        """Invert s -> H(s)/H(tau) at probabilities q in (0, 1]; on floats, the
        doubles of one-element arrays (see `_tail`)."""
        if self.family != "table":
            full = 1.0 - self._tail(tau)
            if self.family == "exponential":
                return -np.log1p(-q * full) / self.rate
            p, c = self.exponent, self.cutoff
            return c * (np.asarray(1.0 - q * full) ** (-1.0 / (p - 1)) - 1.0)
        # table: H is piecewise linear, so invert it on the segment where it
        # first reaches the target; a zero-valued segment never holds it
        _, _, cum, slopes = self._table
        target = q * self.H(tau)
        k = np.clip(np.searchsorted(cum, target, side="left") - 1, 0, cum.size - 2)
        s = self.breaks[k] + (target - cum[k]) / slopes[k]
        return np.clip(s, 0.0, np.minimum(tau, self.breaks[-1]))


# ---------------------------------------------------------------------------
# Marks, lifetimes, nonlinearity


@dataclass(frozen=True, eq=False)
class MarkModel:
    """Separable marks B_xy = xi * b(x, y), xi drawn i.i.d. per event.

    Supported xi laws keep the Laplace transform closed-form:
      deterministic(a), exponential(mean), gamma(shape, scale).
    """

    kind: str = "unmarked"  # or "scaled-profile"
    profile: PairFunction = field(default_factory=lambda: PairFunction("constant", value=1.0))
    xi_family: str = "deterministic"
    xi_value: float = 1.0  # deterministic value / exponential mean / gamma scale
    xi_shape: float = 1.0  # gamma shape

    @property
    def b(self) -> PairFunction:
        if self.kind == "unmarked":
            return PairFunction("constant", value=1.0)
        return self.profile

    @cached_property
    def fixed_xi(self) -> float | None:
        """The one value of xi when its law is a point mass, else None."""
        if self.kind == "unmarked":
            return 1.0
        return float(self.xi_value) if self.xi_family == "deterministic" else None

    @property
    def mean_xi(self) -> float:
        if self.fixed_xi is not None:
            return self.fixed_xi
        if self.xi_family == "exponential":
            return float(self.xi_value)
        if self.xi_family == "gamma":
            return float(self.xi_shape * self.xi_value)
        raise InvalidParameterError(f"unknown mark scalar family {self.xi_family!r}")

    def laplace_xi(self, s) -> np.ndarray:
        """L_xi(s) = E[exp(-s xi)] for s >= 0."""
        s = np.asarray(s, float)
        if self.kind == "unmarked":
            return np.exp(-s)
        if self.xi_family == "deterministic":
            return np.exp(-self.xi_value * s)
        if self.xi_family == "exponential":
            return 1.0 / (1.0 + self.xi_value * s)
        if self.xi_family == "gamma":
            return (1.0 + self.xi_value * s) ** (-self.xi_shape)
        raise InvalidParameterError(f"unknown mark scalar family {self.xi_family!r}")

    def sample_xi(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.fixed_xi is not None:  # draws nothing
            return np.full(size, self.fixed_xi)
        if self.xi_family == "exponential":
            return rng.exponential(self.xi_value, size)
        return rng.gamma(self.xi_shape, self.xi_value, size)


@dataclass(frozen=True, eq=False)
class LifetimeModel:
    """Event lifetimes: deterministic(tau) or exponential(rate)."""

    family: str = "exponential"
    tau: float = 1.0
    rate: float = 1.0

    def survival(self, u) -> np.ndarray:
        u = np.asarray(u, float)
        if self.family == "deterministic":
            return (u < self.tau).astype(float)
        return np.exp(-self.rate * u)

    @cached_property
    def fixed(self) -> float | None:
        """The one lifetime when its law is a point mass, else None."""
        return float(self.tau) if self.family == "deterministic" else None

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.fixed is not None:  # draws nothing
            return np.full(size, self.fixed)
        return rng.exponential(1.0 / self.rate, size)

    def sample_one(self, rng: np.random.Generator) -> float:
        """`sample(rng, 1)[0]` as a float: the same draw and generator state."""
        return self.fixed if self.fixed is not None else rng.exponential(1.0 / self.rate)

    @property
    def mean(self) -> float:
        return self.tau if self.family == "deterministic" else 1.0 / self.rate


@dataclass(frozen=True, eq=False)
class Nonlinearity:
    """Rate function f applied to baseline + excitation; Lipschitz, f >= 0."""

    family: str = "identity"
    cap: float = math.inf  # clipped-linear
    scale: float = 1.0  # sigmoid-scaled
    lipschitz: float = 1.0

    @property
    def is_identity(self) -> bool:
        return self.family == "identity"

    def __call__(self, u) -> np.ndarray:
        u = np.asarray(u, float)
        if self.family == "identity":
            return u
        if self.family == "clipped-linear":
            return np.minimum(u, self.cap)
        if self.family == "sigmoid-scaled":
            return self.scale * np.tanh(u / self.scale)
        raise InvalidParameterError(f"unknown nonlinearity {self.family!r}")


# ---------------------------------------------------------------------------
# The assembled model


@dataclass(frozen=True)
class ModelForm:
    """A model's finite structure, decided once (`ModelSpec.form`) and read
    by every layer.  `kind` is
    * "cells" when the baseline, the graphon and the mark profile are each
      constant or a pw-constant grid with one count per axis, and `n`, the
      lcm of their counts, has n^m within `MAX_GRID_NODES`: the model is the
      d-variate Hawkes process on the n-grid, where the midpoint rule is
      exact.  The simulators (`ModelSpec.engine`), the gate, the stability
      report, the limits and, for a constant f, `fixed_point` run on it;
    * "hats" for a 1-d bilinear grid graphon of `r` cells with a constant
      mark profile, K(z, y) = sum_rs phi_r(z) V_rs phi_s(y) on the clamped
      hats at its cell midpoints.  The gate and the stability report run on
      it; its values are coefficients, so the other consumers stay nodal;
    * "grid" otherwise: the stability report and the limits take the
      caller's n, the gate 96 nodes per axis in 1-d and 12 above, the
      simulators and the fixed point the standard grid.
    `keys`, `flat`, `coeff` and `profiles` decide the offspring law's key;
    `cluster_sim.ClusterEngine` states the rule.
    """

    n: int | None = None
    r: int | None = None
    keys: tuple[int, ...] | None = None
    flat: bool = False
    coeff: float | None = None
    profiles: tuple[SpatialProfile, ...] = ()

    @property
    def kind(self) -> str:
        return "cells" if self.n else "hats" if self.r else "grid"


def _common_cells(functions, m: int) -> tuple[int, ...] | None:
    """Per-axis lcm of the cells of `functions` on an m-d domain, each constant
    (one cell) or a pw-constant grid with one count per axis; else None."""
    counts = [f.cell_counts for f in functions if f.family == "grid"]
    if any(f.family not in ("constant", "grid") or f.interp != "pw-constant"
           for f in functions) or any(len(c) != m for c in counts):
        return None
    return tuple(math.lcm(*axis) for axis in zip((1,) * m, *counts))


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """Complete parameterization of a graphon Hawkes process.

    Immutable after construction; validate with `validate_model` before use.
    `grid_n` is the per-axis resolution of the standard evaluation grid.
    """

    domain: SpatialDomain
    baseline: SpatialProfile
    graphon: PairFunction
    excitation: ExcitationKernel
    marks: MarkModel = field(default_factory=MarkModel)
    lifetimes: LifetimeModel = field(default_factory=LifetimeModel)
    nonlinearity: Nonlinearity = field(default_factory=Nonlinearity)
    c_w: float = math.inf  # uniform bound C_W on the graphon
    symmetric: bool = False
    grid_n: int = DEFAULT_GRID_N

    @cached_property
    def form(self) -> ModelForm:
        """The model's finite structure, decided here once (`ModelForm`)."""
        m, g, b = self.domain.dim, self.graphon, self.marks.b
        keys, base = _common_cells((g, b), m), _common_cells((self.baseline,), m)
        n = math.lcm(*keys, *base) if keys and base else None
        hats = g.family == "grid" and g.interp == "bilinear" and m == 1 and b.family == "constant"
        rank_one = keys is None and all(f.family in ("constant", "rank-one") for f in (g, b))
        return ModelForm(
            n=n if n and n**m <= MAX_GRID_NODES else None,
            r=g.cell_counts[0] if hats and g.cell_counts[0] <= MAX_GRID_NODES else None,
            keys=keys, flat=keys is not None and math.prod(keys) == 1,
            coeff=math.prod(float(f.coeff if f.family == "rank-one" else f.value)
                            for f in (g, b)) if rank_one else None,
            profiles=tuple(f.profile or SpatialProfile("identity")
                           for f in (g, b) if rank_one and f.family == "rank-one"))

    @cached_property
    def engine(self):
        """`cluster_sim.ClusterEngine` of this model, built once: every
        simulator reads its columns, baseline and cell grid."""
        from .cluster_sim import ClusterEngine
        return ClusterEngine(self)

    @cached_property
    def std_grid(self) -> tuple[np.ndarray, np.ndarray]:
        return self.domain.grid(self.grid_n)

    @cached_property
    def gate(self):
        """`operators.gate_grid` of this model, built once with its verdict."""
        from .operators import gate_grid
        return gate_grid(self)

    @cached_property
    def alpha(self) -> float:
        """Total baseline mass, by quadrature on the standard grid."""
        nodes, w = self.std_grid
        return float(np.sum(self.baseline(nodes, self.domain) * w))

    def baseline_on(self, nodes: np.ndarray) -> np.ndarray:
        return self.baseline(nodes, self.domain)

    def excitation_column(self, zs: np.ndarray, y: np.ndarray) -> np.ndarray:
        """z -> b(z, y) W(z, y): the spatial offspring profile of a parent at y."""
        return self.marks.b.column(zs, y, self.domain) * self.graphon.column(
            zs, y, self.domain
        )

    @property
    def c_b(self) -> float:
        """C_B: uniform bound on E[B_xy] (mean scalar times the profile bound)."""
        b_sup = self.marks.b.sup_bound()
        if not math.isfinite(b_sup):
            b_sup = float(np.max(_probe_matrix(self.marks.b, self.domain)))
        return self.marks.mean_xi * b_sup

    def graphon_bound(self) -> float:
        if math.isfinite(self.c_w):
            return self.c_w
        w_sup = self.graphon.sup_bound()
        if not math.isfinite(w_sup):
            w_sup = float(np.max(_probe_matrix(self.graphon, self.domain)))
        return w_sup


def _probe_matrix(pf: PairFunction, domain, cap=4096):
    """pf on all pairs of the probe grid, thinned to at most `cap` pairs; a grid
    pf's own table, where each interpolation has its minimum and maximum."""
    if pf.family == "grid":
        return np.asarray(pf.values, float)
    nodes, _ = domain.grid(PROBE_N)
    k = nodes.shape[0]
    if k * k > cap:
        nodes = nodes[:: max(1, math.ceil(k / math.sqrt(cap)))]
    return pf.matrix(nodes, domain)


# the one interpolation besides pw-constant of each grid kind; 1-d domains only
_SMOOTH_INTERP = {SpatialProfile: "linear", PairFunction: "bilinear"}


def _table_fits(fn) -> bool:
    """A grid's table holds one value per cell, per pair of cells for a pair function."""
    k = math.prod(fn.cell_counts)
    if isinstance(fn, SpatialProfile):
        return np.size(fn.values) == k
    return np.shape(fn.values) == (k, k)


def _table_fault(kernel: ExcitationKernel) -> str | None:
    """Why a table kernel's segment lookup cannot read it, or None."""
    breaks, vals = np.asarray(kernel.breaks, float), np.asarray(kernel.table_values, float)
    if breaks.ndim != 1 or vals.shape != (breaks.size - 1,):
        return "needs one value per segment between breaks"
    return ("breaks must start at 0" if breaks[0] != 0.0
            else None if (np.diff(breaks) > 0).all() else "breaks must increase")


# ---------------------------------------------------------------------------
# Operations


def validate_model(spec: ModelSpec) -> list[str]:
    """Check every type invariant: grid families on their value tables (every
    cell), other spatial functions on a deterministic probe grid.

    Returns a list of violation strings, empty iff the model is valid.
    Pure: identical specs produce identical reports.
    """
    if spec.grid_n < 1:  # no standard grid to integrate on
        return [f"invalid-parameter: grid_n must be at least 1, not {spec.grid_n}"]
    fns = (spec.baseline, spec.graphon, spec.marks.b)
    profiles = [f.profile for f in fns if isinstance(f, PairFunction) and f.profile]
    grids = [f for f in (*fns, *profiles) if f.family == "grid"]
    if not all(_table_fits(f) for f in grids):
        return ["invalid-parameter: grid values do not match axis_counts"]
    m = spec.domain.dim
    report = [f"invalid-parameter: unsupported grid interpolation {f.interp!r} for a "
              f"{type(f).__name__} on a {m}-d domain" for f in grids
              if f.interp != "pw-constant" and (m > 1 or f.interp != _SMOOTH_INTERP[type(f)])]
    nodes, _ = spec.domain.grid(PROBE_N)

    lam = (np.asarray(spec.baseline.values, float) if spec.baseline.family == "grid"
           else spec.baseline(nodes, spec.domain))
    if not np.isfinite(lam).all():
        report.append("invalid-parameter: baseline not finite")
    elif (lam < 0).any():
        report.append("negativity: baseline")
    if not math.isfinite(spec.alpha):
        report.append("invalid-parameter: baseline mass not finite")

    wvals = _probe_matrix(spec.graphon, spec.domain)
    if not np.isfinite(wvals).all():
        report.append("invalid-parameter: graphon not finite")
    elif (wvals < 0).any():
        report.append("negativity: graphon")
    cw = spec.graphon_bound()
    if not math.isfinite(cw):
        report.append("invalid-parameter: graphon unbounded")
    elif np.isfinite(wvals).all() and (wvals > cw + 1e-9).any():
        report.append("invalid-parameter: graphon exceeds C_W")
    if spec.symmetric and np.isfinite(wvals).all():
        if np.max(np.abs(wvals - wvals.T)) > 1e-9:
            report.append("invalid-parameter: graphon asymmetric")

    table = _table_fault(spec.excitation) if spec.excitation.family == "table" else None
    if table:
        report.append(f"invalid-parameter: excitation table {table}")
    elif not math.isfinite(spec.excitation.l1_norm) or spec.excitation.l1_norm < 0:
        report.append("invalid-parameter: excitation not L1")
    else:
        tprobe = np.linspace(0.0, 8.0 / max(spec.excitation.rate, 1e-12), 65)
        if spec.excitation.family == "table":
            tprobe = np.linspace(0.0, float(spec.excitation.breaks[-1]), 65)
        hv = spec.excitation.h(tprobe)
        if not np.isfinite(hv).all():
            report.append("invalid-parameter: excitation not finite")
        elif (hv < 0).any():
            report.append("negativity: excitation")

    bvals = _probe_matrix(spec.marks.b, spec.domain)
    if (bvals < 0).any():
        report.append("negativity: marks")
    if not math.isfinite(spec.c_b) or spec.marks.mean_xi < 0:
        report.append("invalid-parameter: marks C_B not finite")

    if spec.lifetimes.family == "deterministic" and spec.lifetimes.tau <= 0:
        report.append("invalid-parameter: lifetime tau must be positive")
    if spec.lifetimes.family == "exponential" and spec.lifetimes.rate <= 0:
        report.append("invalid-parameter: lifetime rate must be positive")

    f = spec.nonlinearity
    if not math.isfinite(f.lipschitz) or f.lipschitz < 0:
        report.append("invalid-parameter: nonlinearity Lipschitz constant")
    elif f.family == "sigmoid-scaled" and not 0 < f.scale < math.inf:
        report.append("invalid-parameter: sigmoid scale must be positive and finite")
    else:
        fv = f(np.linspace(0.0, 10.0, 41))
        if not np.isfinite(fv).all():
            report.append("invalid-parameter: nonlinearity not finite")
        elif (fv < -1e-12).any():
            report.append("negativity: nonlinearity")

    return report


def eval_kernel_density(spec: ModelSpec, x, y) -> float:
    """c_x * E[B_xy] * W(x, y): the spatial kernel density of T_hom / ||h||_1."""
    x = np.atleast_1d(np.asarray(x, float))
    y = np.atleast_1d(np.asarray(y, float))
    if not (spec.domain.contains(x) and spec.domain.contains(y)):
        raise OutOfDomainError("kernel density evaluated outside the domain")
    c = spec.nonlinearity.lipschitz
    eb = spec.marks.mean_xi * spec.marks.b.pairs(x[None, :], y[None, :], spec.domain)
    w = spec.graphon.pairs(x[None, :], y[None, :], spec.domain)
    return float(c * eb[0] * w[0])


def kernel_density_matrix(spec: ModelSpec, nodes: np.ndarray) -> np.ndarray:
    """c * E[B] * W at all node pairs; shape (k, k), rows=x, cols=y.  A
    constant b enters as the scalar E[B], with the same bytes as its matrix."""
    c, b = spec.nonlinearity.lipschitz, spec.marks.b
    b_vals = float(b.value) if b.family == "constant" else b.matrix(nodes, spec.domain)
    return c * (spec.marks.mean_xi * b_vals) * spec.graphon.matrix(nodes, spec.domain)


def integrated_excitation(h: ExcitationKernel, u) -> np.ndarray | float:
    """H(u) = int_0^u h(v) dv."""
    out = h.H(u)
    return float(out) if np.isscalar(u) or np.ndim(u) == 0 else out


# ---------------------------------------------------------------------------
# Convenience constructors used throughout tests and experiments


def constant_model(
    w: float = 0.5,
    lam: float = 1.0,
    beta: float = 1.0,
    l1: float = 1.0,
    lifetime_rate: float = 1.0,
    grid_n: int = DEFAULT_GRID_N,
) -> ModelSpec:
    """Homogeneous model on [0,1]: W=w, baseline=lam, h = l1*beta*e^(-beta t)."""
    return ModelSpec(
        domain=SpatialDomain((0.0,), (1.0,)),
        baseline=SpatialProfile("constant", value=lam),
        graphon=PairFunction("constant", value=w),
        excitation=ExcitationKernel("exponential", rate=beta, l1=l1),
        lifetimes=LifetimeModel("exponential", rate=lifetime_rate),
        c_w=w,
        symmetric=True,
        grid_n=grid_n,
    )


def rank_one_model(
    coeff: float = 1.5,
    lam: float = 1.0,
    grid_n: int = DEFAULT_GRID_N,
) -> ModelSpec:
    """W(x,y) = coeff * x * y on [0,1] with unit-mass exponential excitation."""
    return ModelSpec(
        domain=SpatialDomain((0.0,), (1.0,)),
        baseline=SpatialProfile("constant", value=lam),
        graphon=PairFunction("rank-one", coeff=coeff, profile=SpatialProfile("identity")),
        excitation=ExcitationKernel("exponential", rate=1.0, l1=1.0),
        c_w=coeff,
        symmetric=True,
        grid_n=grid_n,
    )
