"""Exact simulation via the Poisson branching (cluster) representation.

Immigrants arrive as a homogeneous-in-time Poisson stream with spatial
density lambda_inf / alpha; an event at (t0, x0) with scalar mark xi spawns
children as an inhomogeneous Poisson process with spatial profile
b(z, x0) W(z, x0) and temporal profile h(t - t0).  Child delays invert
H(s)/H(tau); child locations are drawn from the normalized spatial profile.

Every location (immigrants, children, and accepted thinning events) comes
from `sample_location`: the law is a piecewise-constant density on the n^m
cells of the caller's grid.  The engine's is the model's cell grid, or its
standard grid when it has no cells, and every simulator reads the one engine
of a model, `ModelSpec.engine`, built on first use.  One call draws k points
from k x m uniforms.  u[:, 0] inverts the CDF over the row-major flat cell
index, and its residual inside the drawn cell places the point on axis 0;
u[:, 1:] place it uniformly on the other axes.  A flat density (None), or
one cell, is lo + u (hi - lo).  Each output row depends only on its own
uniform row and the density.

Branching runs a generation at a time on the offspring law of
`OffspringColumns`: one `law` call keys the generation, a parent's mass is
its scale times its key's shape mass, and each distinct shape is fetched or
built once.  The children's locations come from one (total, m) uniform block
per generation, with one `sample_location` call per distinct shape.  Row r of
the block goes to the r-th child in stable parent order, the doubles that one
draw per parent in ascending parent order would give, so the grouping by
shape leaves every location's bytes unchanged.

Only linear (identity nonlinearity) models are supported here; nonlinear
rate functions go through the thinning simulator.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .errors import (
    DegenerateDensityError,
    InvalidArgumentError,
    NoLifetimesError,
    RequiresThinningError,
)
from .events import Realization, box_mask
from .model import ModelSpec, SpatialProfile, _cell_index, lcm_cells
from .operators import cell_grid_n
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
# Offspring columns: the one law of spatial offspring profiles


class OffspringColumns:
    """The one offspring law: on the model's standard grid, the column
    z -> max(b(z, y) W(z, y), 0) of a parent at y is its scale times the
    cached shape of its key, and its mass the scale times the shape's mass.
    - Cells (`lcm_cells` of the graphon and the mark profile; one if `flat`):
      the key is the parent's key cell, the scale 1, and the shape is built
      at the cell's midpoint, also for a parent on a cell face.
    - A product of constant and rank-one factors, b W = s(y) prod_f a_f(z)
      with s(y) = prod_f c_f a_f(y): the key is the sign of s (1 if s < 0),
      the scale |s| and the shape max(+-prod_f a_f, 0), so that their
      product is max(s prod_f a_f, 0) exactly.
    - Anything else: key None, scale 1, and each parent's column is rebuilt.
    So the cache holds a shape per key cell, or two, never one per event.
    """

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self.domain = spec.domain
        self.nodes, self.weights = spec.std_grid
        self._columns: dict[int, tuple[float, np.ndarray]] = {}
        factors = (spec.graphon, spec.marks.b)
        self._key_counts = lcm_cells(factors, spec.domain.dim)
        self.flat = self._key_counts is not None and math.prod(self._key_counts) == 1
        self._coeff = None  # prod_f c_f of a rank-one product
        if self._key_counts is None and all(f.family in ("constant", "rank-one")
                                            for f in factors):
            self._coeff = math.prod(float(f.coeff if f.family == "rank-one" else f.value)
                                    for f in factors)
        self._profiles = [f.profile or SpatialProfile("identity")
                          for f in factors if f.family == "rank-one"]

    def _keys(self, ys: np.ndarray) -> np.ndarray:
        """The key cell of each row of the (k, m) points `ys`."""
        return _cell_index(ys, self.domain, self._key_counts)

    def _product(self, coeff: float, pts: np.ndarray) -> np.ndarray:
        """coeff times the rank-one profiles at `pts`, in that order."""
        for profile in self._profiles:
            coeff = coeff * profile(pts, self.domain)
        return coeff

    def law(self, ys: np.ndarray) -> tuple[np.ndarray | None, np.ndarray | None]:
        """(keys, scales) of the (k, m) parents `ys`: an int key per row, or
        None when the law has no key, and a scale per row, or None for 1."""
        if self.flat:  # one key: no key-grid arithmetic
            return np.zeros(ys.shape[0], int), None
        if self._key_counts is not None:
            return self._keys(ys), None
        if self._coeff is None:
            return None, None
        s = self._product(self._coeff, ys)
        return (s < 0).astype(int), np.abs(s)

    def law_at(self, y: np.ndarray) -> tuple[int | None, float]:
        """`law` of the one parent y: (key, scale)."""
        if self.flat:
            return 0, 1.0
        keys, scales = self.law(np.atleast_1d(y)[None, :])
        return None if keys is None else int(keys[0]), 1.0 if scales is None else float(scales[0])

    def column_of(self, key: int | None, y: np.ndarray | None) -> tuple[float, np.ndarray]:
        """(mass, column) of the shape of `key`, or of a parent at y if it is None."""
        if key is None:
            return self._build(y)
        hit = self._columns.get(key)
        if hit is None:  # threads sharing the law may both build it: the builds are equal
            if self._key_counts is None:  # the shape of the sign `key`
                hit = self._clip(self._product(-1.0 if key else 1.0, self.nodes))
            else:
                cell = np.add(np.unravel_index(key, self._key_counts), 0.5) / self._key_counts
                lo, hi = self.domain.lo, self.domain.hi
                hit = self._build(lo + cell * (hi - lo))  # the midpoint
            self._columns[key] = hit
        return hit

    def _build(self, y: np.ndarray) -> tuple[float, np.ndarray]:
        return self._clip(self.spec.excitation_column(self.nodes, y))

    def _clip(self, raw: np.ndarray) -> tuple[float, np.ndarray]:
        col = np.maximum(raw, 0.0)
        return float(np.sum(col * self.weights)), col


# ---------------------------------------------------------------------------
# Engine: cached spatial structure of one model


class ClusterEngine(OffspringColumns):
    """Columns and location samplers of a model on a copy of it on its cell
    grid (`operators.cell_grid_n`), where the branching is exact, or else on
    its standard grid.  `ModelSpec.engine` builds it once per model; holding
    the copy, not the model, keeps the two free of a reference cycle."""

    def __init__(self, spec: ModelSpec):
        super().__init__(replace(spec, grid_n=cell_grid_n(spec) or spec.grid_n))
        self.lam_vals = np.maximum(self.spec.baseline_on(self.nodes), 0.0)
        self.alpha = float(np.sum(self.lam_vals * self.weights))

    # -- immigrants ---------------------------------------------------------

    def sample_immigrant_locations(self, k: int, rng) -> np.ndarray:
        if k == 0:
            return np.empty((0, self.domain.dim))
        return sample_location(self.lam_vals, self.domain, rng.random((k, self.domain.dim)))

    # -- offspring ----------------------------------------------------------

    def offspring_mass(self, xs: np.ndarray) -> tuple[np.ndarray, tuple]:
        """Gamma(y) = int b(z, y) W(z, y) dz of each parent y, its scale
        times its shape's mass by the `law`, and the generation's columns as
        (distinct shapes, parent -> shape index): one shape per key present,
        keyed in one `law` call, or one column per parent when the law has
        no key.  A `flat` law has one shape, None, and no index."""
        k = xs.shape[0]
        if self.flat:  # one constant shape: the flat density of `sample_location`
            return np.full(k, self.column_of(0, None)[0]), ([None], None)
        keys, scales = self.law(xs)
        if keys is None:
            pairs, of_parent = [self._build(y) for y in xs], np.arange(k)
        else:
            present = np.flatnonzero(np.bincount(keys))  # np.unique at a third of its cost
            of_parent = np.searchsorted(present, keys)
            pairs = [self.column_of(key, None) for key in present.tolist()]
        masses = np.array([mass for mass, _ in pairs])[of_parent]
        return masses if scales is None else scales * masses, ([c for _, c in pairs], of_parent)

    def sample_offspring_locations(self, columns, child_parent_idx, rng) -> np.ndarray:
        """Locations for children of the parents `child_parent_idx`, from the
        `columns` of `offspring_mass`: one uniform block, then one
        `sample_location` call per distinct shape (see the module docstring
        for why the bytes equal one draw per parent)."""
        total, m = child_parent_idx.shape[0], self.domain.dim
        if total == 0:
            return np.empty((0, m))
        u = rng.random((total, m))
        cols, of_parent = columns
        if of_parent is None:  # a flat law: every child draws from its one shape
            return sample_location(cols[0], self.domain, u)
        child = np.argsort(child_parent_idx, kind="stable")  # uniform row -> child
        out = np.empty((total, m))
        if len(cols) == 1:  # one shape: the one group of the loop below
            out[child] = sample_location(cols[0], self.domain, u)
            return out
        col = of_parent[child_parent_idx[child]]  # uniform row -> column
        rows = np.argsort(col, kind="stable")
        for group in np.split(rows, np.flatnonzero(np.diff(col[rows])) + 1):
            out[child[group]] = sample_location(cols[col[group[0]]], self.domain, u[group])
        return out


# ---------------------------------------------------------------------------
# Branching growth (shared by single clusters, full processes and oracles)


def _grow(engine: ClusterEngine, t0: np.ndarray, x0: np.ndarray, xi0: np.ndarray,
          sim0: np.ndarray, gen0: int, horizon: float, rng, with_lifetimes: bool, budget: int):
    """Breadth-first branching from seed events; returns (arrays, censored).

    Seed events are always in the output, so callers pass at most `budget`
    seeds; offspring stop at the budget.  `sim0` carries an opaque
    per-seed label (cluster or replication index) through to all offspring.
    Local parent indices refer to positions in the returned arrays; seeds
    get parent -1.
    """
    spec = engine.spec

    def lifetimes(k: int) -> np.ndarray:
        return spec.lifetimes.sample(rng, k) if with_lifetimes else np.full(k, np.nan)

    k0 = t0.shape[0]
    # per generation: (times, locations, marks, labels, generations, parents, lifetimes)
    out = [(t0, x0, xi0, sim0, np.full(k0, gen0, dtype=np.int64),
            np.full(k0, -1, dtype=np.int64), lifetimes(k0))]
    censored = False
    n_out, cur_base, gen = k0, 0, gen0  # cur_base: the generation's first output index
    cur_t, cur_x, cur_xi, cur_sim = t0, x0, xi0, sim0
    while cur_t.shape[0] > 0:
        if math.isinf(horizon):
            tau = np.full(cur_t.shape[0], np.inf)
            h_mass = np.full(cur_t.shape[0], spec.excitation.l1_norm)
        else:
            tau = horizon - cur_t
            h_mass = spec.excitation.H(np.maximum(tau, 0.0))
        masses, columns = engine.offspring_mass(cur_x)
        counts = rng.poisson(cur_xi * masses * h_mass)
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
        times = cur_t[rep] + spec.excitation.sample_delay(1.0 - rng.random(total), tau[rep])
        locs = engine.sample_offspring_locations(columns, rep, rng)
        xis = spec.marks.sample_xi(rng, total)
        gen += 1
        out.append((times, locs, xis, cur_sim[rep], np.full(total, gen, dtype=np.int64),
                    cur_base + rep, lifetimes(total)))
        cur_base, n_out = n_out, n_out + total
        cur_t, cur_x, cur_xi, cur_sim = times, locs, xis, cur_sim[rep]
        if censored:
            break
    return tuple(np.concatenate(arrays) for arrays in zip(*out)), censored


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
    engine = spec.engine
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
) -> Realization:
    """Simulate one cluster rooted at (t0, x0), root included.

    `horizon` may be inf only for stable models (the event cap, at least 1
    since the root counts, still guards termination).
    """
    _require_linear(spec)
    if cap < 1:
        raise InvalidArgumentError("a cluster holds its root: cap must be at least 1")
    stream = _as_stream(rng)
    gen = stream.child().generator()
    x0 = np.atleast_1d(np.asarray(x0, float))
    xi0 = spec.marks.sample_xi(gen, 1)
    arrays, censored = _grow(spec.engine, np.array([float(t0)]), x0[None, :], xi0,
                             np.zeros(1, dtype=np.int64), 0, horizon, gen, with_lifetimes, cap)
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
