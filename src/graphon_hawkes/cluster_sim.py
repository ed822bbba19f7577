"""Exact simulation via the Poisson branching (cluster) representation.

Immigrants arrive as a homogeneous-in-time Poisson stream with spatial
density lambda_inf / alpha; an event at (t0, x0) with scalar mark xi spawns
children as an inhomogeneous Poisson process with spatial profile
b(z, x0) W(z, x0) and temporal profile h(t - t0).  Child delays invert
H(s)/H(tau); child locations are drawn from the normalized spatial profile.

Every location (immigrants, children, and accepted thinning events) comes
from `sample_location`: the law is a piecewise-constant density on the n^m
cells of the caller's grid; the engine's is `ModelSpec.on_cells`.  One call
draws k points from k x m uniforms.  u[:, 0] inverts the CDF over the
row-major flat cell index, and its residual inside the drawn cell places the
point on axis 0; u[:, 1:] place it uniformly on the other axes.  A flat
density (None), or one cell, is lo + u (hi - lo).  Each output row depends
only on its own uniform row and the density.

Branching runs a generation at a time.  Piecewise-constant offspring
profiles are keyed by the parent's cell on the key grid (`OffspringColumns`):
one `_cell_index` call keys the whole generation, and each distinct cell's
column is fetched or built once.  The children's locations come from one
(total, m) uniform block per generation, with one `sample_location` call per
distinct column.  Row r of the block goes to the r-th child in stable parent
order, the doubles that one draw per parent in ascending parent order would
give, so the grouping by column leaves every location's bytes unchanged.

Only linear (identity nonlinearity) models are supported here; nonlinear
rate functions go through the thinning simulator.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    DegenerateDensityError,
    InvalidArgumentError,
    NoLifetimesError,
    RequiresThinningError,
)
from .events import Realization, box_mask
from .model import ModelSpec, SpatialProfile, _cell_index, lcm_cells
from .rng import SplitStream

DEFAULT_EVENT_CAP = 10**7


# ---------------------------------------------------------------------------
# Location sampling


def _categorical(masses: np.ndarray, total: float, u) -> tuple[np.ndarray, np.ndarray]:
    """Inverse CDF of the discrete law prop. to nonnegative `masses` at
    uniform(s) u: the first index i with u * total < cum[i], and cum.

    `total` is `masses.sum()` > 0.  Its pairwise rounding can put u * total
    past the sequential cum[-1], so the index stops at the last positive
    mass: a zero-mass index is never drawn.
    """
    cum = np.cumsum(masses)
    top = np.searchsorted(cum, cum[-1], side="left")
    return np.minimum(np.searchsorted(cum, u * total, side="right"), top), cum


def sample_location(density: np.ndarray | None, domain, u: np.ndarray) -> np.ndarray:
    """Draw k points, one per row of the (k, m) uniforms `u`, from `density`:
    one nonnegative value per cell of the n^m-cell grid, row-major as
    `domain.grid(n)`, or None for flat.  The draw is set out in the module
    docstring."""
    lo, hi = domain.lo, domain.hi
    if density is None:
        return lo + u * (hi - lo)
    # cells have equal volume, so the masses are the density over its
    # maximum: a positive density never underflows to zero mass
    top = density.max()
    if not 0 < top < math.inf:
        raise DegenerateDensityError(f"cannot sample from a density with maximum {top}")
    if density.size == 1:  # the draw below on one cell, bit for bit
        return lo + u * (hi - lo)
    m = domain.dim
    n = round(density.shape[0] ** (1.0 / m))
    width = (hi - lo) / n
    masses = density / top
    total = masses.sum()
    idx, cum = _categorical(masses, total, u[:, 0])
    prev = np.where(idx > 0, cum[idx - 1], 0.0)
    pos = u.copy()
    # the residual is >= 0, since cum[idx - 1] <= u * total
    pos[:, 0] = np.minimum((u[:, 0] * total - prev) / masses[idx], 1.0)
    for a, i in enumerate(np.unravel_index(idx, (n,) * m)):
        pos[:, a] += i
    return lo + pos * width


# ---------------------------------------------------------------------------
# Offspring columns: the one cache of spatial offspring profiles


class OffspringColumns:
    """(mass, column) of the offspring profile z -> b(z, y) W(z, y) of a parent
    at y on the model's standard grid, the column clipped at 0.

    Piecewise-constant profiles depend on the parent only through its cell on
    the key grid, `lcm_cells` of the graphon and the mark profile, so they are
    cached by that cell and built at its midpoint: one column per cell, also
    for a parent on a cell face.  One `_cell_index` call keys a generation, a
    history or one thinning event.  Smooth profiles are rebuilt on every call,
    so memory never grows with the event count.  `flat` marks one key cell:
    every parent then has the same constant column, key 0.
    """

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self.domain = spec.domain
        self.nodes, self.weights = spec.std_grid
        self._columns: dict[int, tuple[float, np.ndarray]] = {}
        self._key_counts = lcm_cells((spec.graphon, spec.marks.b), spec.domain.dim)
        self.flat = self._key_counts is not None and math.prod(self._key_counts) == 1

    def _keys(self, ys: np.ndarray) -> np.ndarray:
        """The cache key of each row of the (k, m) points `ys`: its key cell."""
        return _cell_index(ys, self.domain, self._key_counts)

    def keys(self, ys: np.ndarray) -> list[int | None]:
        """`key` of each row of the (k, m) points `ys`, in at most one `_keys` call."""
        if self.flat or self._key_counts is None:  # one key for every point
            return [self.key(None)] * ys.shape[0]
        return self._keys(ys).tolist()

    def key(self, y: np.ndarray) -> int | None:
        """The cache key of the point y, None for smooth profiles."""
        if self.flat or self._key_counts is None:
            return 0 if self.flat else None
        return int(self._keys(np.atleast_1d(y)[None, :])[0])

    def column_of(self, key: int | None, y: np.ndarray | None) -> tuple[float, np.ndarray]:
        """The column of the cache key `key`, or of a parent at y if it is None."""
        if key is None:
            return self._build(y)
        hit = self._columns.get(key)
        if hit is None:
            cell = np.add(np.unravel_index(key, self._key_counts), 0.5) / self._key_counts
            lo, hi = self.domain.lo, self.domain.hi
            hit = self._columns[key] = self._build(lo + cell * (hi - lo))  # the midpoint
        return hit

    def _build(self, y: np.ndarray) -> tuple[float, np.ndarray]:
        col = np.maximum(self.spec.excitation_column(self.nodes, y), 0.0)
        return float(np.sum(col * self.weights)), col


# ---------------------------------------------------------------------------
# Engine: cached spatial structure of one model


class ClusterEngine(OffspringColumns):
    """Columns and location samplers of a model on `ModelSpec.on_cells`: its
    cells, where the branching is exact, or else its standard grid."""

    def __init__(self, spec: ModelSpec):
        super().__init__(spec.on_cells)
        g, b = spec.graphon, spec.marks.b
        self._sep_offspring = g.family == "rank-one" and b.family == "constant"
        if self._sep_offspring:
            self._sep_profile = g.profile or SpatialProfile("identity")
            self._sep_shape = np.maximum(self._sep_profile(self.nodes, self.domain), 0.0)
            self._sep_integral = float(np.sum(self._sep_shape * self.weights))
        self._lam_vals = np.maximum(self.spec.baseline_on(self.nodes), 0.0)
        self.alpha = float(np.sum(self._lam_vals * self.weights))

    # -- immigrants ---------------------------------------------------------

    def sample_immigrant_locations(self, k: int, rng) -> np.ndarray:
        if k == 0:
            return np.empty((0, self.domain.dim))
        return sample_location(self._lam_vals, self.domain, rng.random((k, self.domain.dim)))

    # -- offspring ----------------------------------------------------------

    def offspring_mass(self, xs: np.ndarray) -> tuple[np.ndarray, tuple | None]:
        """Gamma(y) = int b(z, y) W(z, y) dz for each parent location y, and
        the generation's columns as (distinct columns, parent -> column
        index): one per key cell for piecewise-constant profiles (keyed in
        one `_keys` call), one per parent for smooth ones, None on the flat
        and separable paths."""
        k = xs.shape[0]
        if self.flat:
            return np.full(k, self.column_of(0, None)[0]), None
        if self._sep_offspring:
            g = self.spec.graphon
            b0 = float(self.spec.marks.b.value)
            return g.coeff * b0 * self._sep_profile(xs, self.domain) * self._sep_integral, None
        if self._key_counts is None:
            pairs, of_parent = [self._build(y) for y in xs], np.arange(k)
        else:
            keys, of_parent = np.unique(self._keys(xs), return_inverse=True)
            pairs = [self.column_of(key, None) for key in keys.tolist()]
        masses = np.array([mass for mass, _ in pairs])
        return masses[of_parent], ([col for _, col in pairs], of_parent)

    def sample_offspring_locations(self, columns, child_parent_idx, rng) -> np.ndarray:
        """Locations for children of the parents `child_parent_idx`, from the
        `columns` of `offspring_mass`: one uniform block, then one
        `sample_location` call per distinct column (see the module docstring
        for why the bytes equal one draw per parent)."""
        total, m = child_parent_idx.shape[0], self.domain.dim
        if total == 0:
            return np.empty((0, m))
        u = rng.random((total, m))
        if columns is None:
            density = None if self.flat else self._sep_shape
            return sample_location(density, self.domain, u)
        cols, of_parent = columns
        child = np.argsort(child_parent_idx, kind="stable")  # uniform row -> child
        col = of_parent[child_parent_idx[child]]  # uniform row -> column
        rows = np.argsort(col, kind="stable")
        out = np.empty((total, m))
        for group in np.split(rows, np.flatnonzero(np.diff(col[rows])) + 1):
            out[child[group]] = sample_location(cols[col[group[0]]], self.domain, u[group])
        return out


# ---------------------------------------------------------------------------
# Branching growth (shared by single clusters, full processes and oracles)


def _grow(
    engine: ClusterEngine,
    t0: np.ndarray,
    x0: np.ndarray,
    xi0: np.ndarray,
    sim0: np.ndarray,
    gen0: int,
    horizon: float,
    rng,
    with_lifetimes: bool,
    budget: int,
):
    """Breadth-first branching from seed events; returns (arrays, censored).

    Seed events are always in the output, so callers pass at most `budget`
    seeds; offspring stop at the budget.  `sim0` carries an opaque
    per-seed label (cluster or replication index) through to all offspring.
    Local parent indices refer to positions in the returned arrays; seeds
    get parent -1.
    """
    spec = engine.spec
    k0 = t0.shape[0]
    seeds_lt = (
        spec.lifetimes.sample(rng, k0) if with_lifetimes else np.full(k0, np.nan)
    )
    out_t = [t0]
    out_x = [x0]
    out_xi = [xi0]
    out_sim = [sim0]
    out_gen = [np.full(k0, gen0, dtype=np.int64)]
    out_par = [np.full(k0, -1, dtype=np.int64)]
    out_lt = [seeds_lt]

    censored = False
    n_out = k0
    cur_t, cur_x, cur_xi, cur_sim = t0, x0, xi0, sim0
    cur_base = 0  # index of current generation's first event in the output
    gen = gen0
    while cur_t.shape[0] > 0:
        tau = (
            np.full(cur_t.shape[0], np.inf)
            if math.isinf(horizon)
            else horizon - cur_t
        )
        h_mass = (
            np.full(cur_t.shape[0], spec.excitation.l1_norm)
            if math.isinf(horizon)
            else spec.excitation.H(np.maximum(tau, 0.0))
        )
        masses, columns = engine.offspring_mass(cur_x)
        mu = cur_xi * masses * h_mass
        counts = rng.poisson(mu)
        total = int(counts.sum())
        if total == 0:
            break
        if n_out + total > budget:
            keep = budget - n_out
            cum = np.cumsum(counts)
            cut = np.searchsorted(cum, keep, side="right")
            counts = counts.copy()
            counts[cut + 1 :] = 0
            if cut < counts.shape[0]:
                counts[cut] = max(0, keep - (cum[cut - 1] if cut > 0 else 0))
            total = int(counts.sum())
            censored = True
        rep = np.repeat(np.arange(cur_t.shape[0]), counts)
        q = 1.0 - rng.random(total)
        delays = spec.excitation.sample_delay(q, tau[rep])
        times = cur_t[rep] + delays
        locs = engine.sample_offspring_locations(columns, rep, rng)
        xis = spec.marks.sample_xi(rng, total)
        lts = (
            spec.lifetimes.sample(rng, total)
            if with_lifetimes
            else np.full(total, np.nan)
        )
        gen += 1
        out_t.append(times)
        out_x.append(locs)
        out_xi.append(xis)
        out_sim.append(cur_sim[rep])
        out_gen.append(np.full(total, gen, dtype=np.int64))
        out_par.append(cur_base + rep)
        out_lt.append(lts)
        cur_base = n_out
        n_out += total
        cur_t, cur_x, cur_xi, cur_sim = times, locs, xis, cur_sim[rep]
        if censored:
            break

    arrays = (
        np.concatenate(out_t),
        np.concatenate(out_x, axis=0),
        np.concatenate(out_xi),
        np.concatenate(out_sim),
        np.concatenate(out_gen),
        np.concatenate(out_par),
        np.concatenate(out_lt),
    )
    return arrays, censored


def _require_linear(spec: ModelSpec):
    if not spec.nonlinearity.is_identity:
        raise RequiresThinningError("cluster simulation covers linear models only; use thinning")


def _as_stream(rng) -> SplitStream:
    if isinstance(rng, SplitStream):
        return rng
    if isinstance(rng, (int, np.integer)):
        return SplitStream(int(rng))
    raise InvalidArgumentError(f"a simulation needs a SplitStream or an integer seed, not {rng!r}")


# ---------------------------------------------------------------------------
# Public operations


def simulate_process(
    spec: ModelSpec,
    horizon: float,
    rng,
    with_lifetimes: bool = True,
    cap: int = DEFAULT_EVENT_CAP,
    engine: ClusterEngine | None = None,
) -> Realization:
    """Simulate the linear process on [0, horizon] from an empty history.

    One generator per replication, the stream's generator, draws the
    immigrants and then grows every immigrant's cluster in one breadth-first
    branching (no per-cluster substreams), so the same (seed, path) gives
    the same bytes in every run and under any `--threads`.  More than `cap`
    events return a partial realization of exactly `cap` events flagged
    `censored`: the `cap` earliest immigrants when they alone exceed it.
    """
    _require_linear(spec)
    stream = _as_stream(rng)
    engine = engine or ClusterEngine(spec)
    # a fresh generator at (seed, path): passing one stream twice repeats it
    gen = stream.child().generator()
    n_imm = int(gen.poisson(engine.alpha * horizon))
    k = min(n_imm, cap)
    times = np.sort(horizon * (1.0 - gen.random(n_imm)))[:k]
    locs = engine.sample_immigrant_locations(k, gen)
    xis = spec.marks.sample_xi(gen, k)
    arrays, censored = _grow(
        engine, times, locs, xis, np.arange(k), 0, horizon, gen, with_lifetimes, cap
    )
    return _assemble(spec, arrays, horizon, stream.describe(), censored or n_imm > k)


def _assemble(spec, arrays, horizon, seed_info, censored) -> Realization:
    """One realization from `_grow`'s arrays, ordered by time, then cluster
    (the `sim` label), then branching order; parent pointers follow."""
    t, x, xi, cl, gen, par, lt = arrays
    if t.shape[0] == 0:
        return Realization.empty(spec.domain.dim, horizon, seed_info, censored)
    seq = np.arange(t.shape[0])
    order = np.lexsort((seq, cl, t))  # time first, cluster then sequence break ties
    inv = np.empty_like(order)
    inv[order] = np.arange(order.shape[0])
    new_par = np.where(par >= 0, inv[np.clip(par, 0, None)], -1)
    return Realization(
        times=t[order],
        locations=x[order],
        generations=gen[order],
        parent_ids=new_par[order],
        mark_scalars=xi[order],
        lifetimes=lt[order],
        ids=np.arange(t.shape[0], dtype=np.int64),
        horizon=float(horizon),
        seed=seed_info,
        censored=censored,
    )


def simulate_cluster(
    x0,
    t0: float,
    spec: ModelSpec,
    horizon: float,
    rng,
    with_lifetimes: bool = True,
    cap: int = DEFAULT_EVENT_CAP,
    engine: ClusterEngine | None = None,
) -> Realization:
    """Simulate one cluster rooted at (t0, x0), root included.

    `horizon` may be inf only for stable models (the event cap, at least 1
    since the root counts, still guards termination).
    """
    _require_linear(spec)
    if cap < 1:
        raise InvalidArgumentError("a cluster holds its root: cap must be at least 1")
    stream = _as_stream(rng)
    engine = engine or ClusterEngine(spec)
    gen = stream.child().generator()
    x0 = np.atleast_1d(np.asarray(x0, float))
    xi0 = spec.marks.sample_xi(gen, 1)
    arrays, censored = _grow(
        engine,
        np.array([float(t0)]),
        x0[None, :],
        xi0,
        np.zeros(1, dtype=np.int64),
        0,
        horizon,
        gen,
        with_lifetimes,
        cap,
    )
    return _assemble(spec, arrays, horizon, stream.describe(), censored)


def population_count(real: Realization, t: float, box=None) -> int:
    """Q_t(A): events born by t and still alive at t with location in the box."""
    if not real.has_lifetimes():
        raise NoLifetimesError("population counts need lifetimes on every event")
    if len(real) == 0:
        return 0
    alive = (real.times <= t) & (t < real.times + real.lifetimes)
    alive &= box_mask(real.locations, box)
    return int(np.count_nonzero(alive))
