"""Exact simulation via the Poisson branching (cluster) representation.

Immigrants arrive as a homogeneous-in-time Poisson stream with spatial
density lambda_inf / alpha; an event at (t0, x0) with scalar mark xi spawns
children as an inhomogeneous Poisson process with spatial profile
b(z, x0) W(z, x0) and temporal profile h(t - t0).  Child delays invert
H(s)/H(tau); child locations are drawn from the normalized spatial profile.

Every location (immigrants, children, and accepted thinning events) is an
inverse-CDF draw from the cell law (`density_law`) of a piecewise-constant
density on the n^m cells of the caller's grid.  The engine's is the model's
cell grid, or its standard grid when it has none (`ModelSpec.form` states
the rule), and every simulator reads the one engine of a model,
`ModelSpec.engine`, built on first use.  A draw of k points reads k x m
uniforms.  u[:, 0] inverts the CDF over the row-major flat cell index, and
its residual inside the drawn cell places the point on axis 0; u[:, 1:]
place it uniformly on the other axes.  A flat density (None) is
lo + u (hi - lo), the draw on one cell.  Each output row depends only on
its own uniform row and its law; `sample_point` draws one row, the same
doubles, in Python floats.

Branching runs a generation at a time on the engine's offspring law
(`ClusterEngine` states the rule): one `law` call keys the generation, and
each distinct shape is fetched or built once.  The children's locations
come from one (total, m) uniform block and one draw over the stacked laws
of the shapes with children.  Row r of the block goes to the r-th child in
stable parent order, the doubles that one draw per parent in ascending
parent order would give.  The engine owns the law of each keyed shape,
built when the key first has children and kept for the engine's life, at
most one per key; with no key, each parent's column gets a law in its
generation only.  A row-wise binary search over the stacked cumulative sums
compares the doubles that a per-shape `searchsorted` compares and rounds
nothing, so every location keeps the bytes of one draw per parent.  A
generation spans several replications (`_grow`): each draws from its own
generator what a call of its own would, and the rest runs once, row by row.

Only linear (identity nonlinearity) models are supported here; nonlinear
rate functions go through the thinning simulator.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import replace
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateDensityError,
    InvalidArgumentError,
    NoLifetimesError,
    RequiresThinningError,
)
from .events import Realization, box_mask
from .model import ModelSpec, _cell_index
from .rng import as_stream

DEFAULT_EVENT_CAP = 10**7


# ---------------------------------------------------------------------------
# Location sampling


def cell_law(masses: np.ndarray) -> tuple:
    """The inverse-CDF table (total, cum, top) of the discrete law prop. to
    nonnegative `masses` along the last axis, each row on its own: total =
    the row's sum (> 0 in a row that is drawn), cum its cumulative sums and
    top the first index whose cum is the row's last.  The draw at a uniform
    u is the first index i with u * total < cum[i], capped at top: the
    pairwise rounding of total can put u * total past the sequential
    cum[-1], and the cap keeps an index that adds nothing to cum (a zero
    mass) from being drawn."""
    cum = np.cumsum(masses, axis=-1)
    return masses.sum(axis=-1), cum, (cum < cum[..., -1:]).sum(axis=-1)


def density_law(density: np.ndarray) -> tuple:
    """(masses, total, cum, top): the `cell_law` of a density on cells of
    equal volume, whose masses are the density over its maximum, so that a
    positive density never underflows to zero mass."""
    top = density.max()
    if not 0 < top < math.inf:
        raise DegenerateDensityError(f"cannot sample from a density with maximum {top}")
    masses = density / top
    return (masses, *cell_law(masses))


def sample_location(density: np.ndarray | None, domain, u: np.ndarray) -> np.ndarray:
    """Draw k points, one per row of the (k, m) uniforms `u`, from `density`:
    one nonnegative value per cell of the n^m-cell grid, row-major as
    `domain.grid(n)`, or None for flat.  The draw is set out in the module
    docstring."""
    if density is None:
        return domain.lo + u * (domain.hi - domain.lo)
    return _place(density_law(density), None, domain, u)


def sample_point(density: np.ndarray, domain, u: np.ndarray) -> np.ndarray:
    """`sample_location` of one point from the (m,) uniforms `u`: the same
    doubles, placed in Python floats; only the law is built in numpy."""
    masses, total, cum, top = density_law(density)
    m = domain.dim
    n = round(cum.shape[0] ** (1.0 / m))
    v = float(u[0]) * float(total)
    cum = cum.tolist()
    idx = min(bisect_right(cum, v), int(top))  # searchsorted(cum, v, side="right")
    pos = u.copy()
    pos[0] = min((v - (cum[idx - 1] if idx else 0.0)) / float(masses[idx]), 1.0)
    for a in range(m - 1, 0, -1):  # unravel_index, last axis first
        idx, i = divmod(idx, n)
        pos[a] += i
    pos[0] += idx
    return np.minimum(domain.lo + pos * ((domain.hi - domain.lo) / n), domain.hi)


def _place(law: tuple, rows: np.ndarray | None, domain, u: np.ndarray) -> np.ndarray:
    """The points of the uniforms `u` under one `density_law`, or, given
    `rows`, under a stack of laws (each part stacked on a leading axis), row
    r of u reading law rows[r]."""
    masses, total, cum, top = law
    lo, hi = domain.lo, domain.hi
    cells = cum.shape[-1]
    m = domain.dim
    n = round(cells ** (1.0 / m))
    width = (hi - lo) / n
    if rows is None:
        v = u[:, 0] * total
        at = idx = np.minimum(np.searchsorted(cum, v, side="right"), top)
    else:  # flat tables, law rows[r] from rows[r] * cells on
        masses, cum, base = masses.ravel(), cum.ravel(), rows * cells
        v = u[:, 0] * total[rows]
        # searchsorted(cum row, v, side="right") of every row at once, the
        # count of entries <= v: the entries before `at` are <= v, the count
        # is at most at - base + span, and each step halves the span,
        # reading inside the row only
        at, span = base, cells
        while span > 1:
            half = span // 2
            probe = at + half
            at = np.where(cum[probe] <= v, probe, at)
            span -= half
        idx = np.minimum(at - base + (cum[at] <= v), top[rows])
        at = base + idx
    prev = np.where(idx > 0, cum[at - 1], 0.0)
    pos = u.copy()
    # the residual is >= 0, since cum[idx - 1] <= u * total
    pos[:, 0] = np.minimum((v - prev) / masses[at], 1.0)
    for a, i in enumerate(np.unravel_index(idx, (n,) * m)):
        pos[:, a] += i
    # i + u rounds to i + 1 for u near 1, and lo + n width can pass hi
    return np.minimum(lo + pos * width, hi)


# ---------------------------------------------------------------------------
# Engine: the one offspring law and the location samplers of one model


class ClusterEngine:
    """A model's one offspring law and its location samplers, on a copy of
    the model on its cell grid (`ModelForm.n`), where the branching is exact,
    or else on its standard grid.  `ModelSpec.engine` builds it once; holding
    the copy, not the model, keeps the two free of a reference cycle.

    The offspring law, the model's one law, read by every simulator: a parent
    at y has the column z -> max(b(z, y) W(z, y), 0), its scale times the
    cached shape of its key, and its mass the scale times the shape's.  The
    baseline plays no part.  The form gives the key:
    * a cell of `ModelForm.keys`, the common cells of the graphon and the
      mark profile with no node cap (one key, `flat`, for a constant graphon
      and profile), with scale 1 and the shape built at the cell's midpoint,
      also for a parent on a face;
    * on a product of constant and rank-one factors b W = s(y) prod_f a_f(z),
      s(y) = coeff prod_f a_f(y), the sign of s (1 if s < 0), with scale
      |s| and shape max(+-prod_f a_f, 0), whose product is
      max(s prod_f a_f, 0) exactly;
    * else None, and each column is rebuilt.
    The cache holds a shape per key cell, or two, never one per event."""

    def __init__(self, spec: ModelSpec):
        self.form = spec.form
        self.spec = spec = replace(spec, grid_n=self.form.n or spec.grid_n)
        self.domain = spec.domain
        self.nodes, self.weights = spec.std_grid
        self.lam_vals = np.maximum(spec.baseline_on(self.nodes), 0.0)
        self.alpha = float(np.sum(self.lam_vals * self.weights))
        self._float_product = self.form.coeff is not None and all(
            p.family != "grid" for p in self.form.profiles)
        self._columns: dict[int, tuple[float, np.ndarray]] = {}
        # (key -> row, the stacked `density_law`s of those rows), replaced whole
        self._laws: tuple[dict[int, int], tuple] = ({}, ())

    def _product(self, coeff: float, pts: np.ndarray) -> np.ndarray:
        """coeff times the rank-one profiles at `pts`, in that order."""
        for profile in self.form.profiles:
            coeff = coeff * profile(pts, self.domain)
        return coeff

    def law(self, ys: np.ndarray) -> tuple[np.ndarray | None, np.ndarray | None]:
        """(keys, scales) of the (k, m) parents `ys`: an int key per row, or
        None when the law has no key, and a scale per row, or None for 1."""
        form = self.form
        if form.flat:  # one key: no key-grid arithmetic
            return np.zeros(ys.shape[0], int), None
        if form.keys is not None:
            return _cell_index(ys, self.domain, form.keys), None
        if form.coeff is None:
            return None, None
        s = self._product(form.coeff, ys)
        return (s < 0).astype(int), np.abs(s)

    def law_at(self, y) -> tuple[int | None, float]:
        """`law` of the one parent y (an array or a list of coordinates):
        (key, scale), in Python floats save for a rank-one grid profile."""
        form = self.form
        pt = y if isinstance(y, list) else np.atleast_1d(y).tolist()
        if form.keys is not None:  # `_cell_index` of one point
            key = 0
            for yi, lo, hi, c in zip(pt, self.domain.lo.tolist(),
                                     self.domain.hi.tolist(), form.keys):
                key = key * c + min(max(int((yi - lo) / (hi - lo) * c), 0), c - 1)
            return key, 1.0
        if self._float_product:  # `_product` of one point
            s = form.coeff
            for profile in form.profiles:
                s = s * profile.at(pt)
            return int(s < 0), abs(s)
        keys, scales = self.law(np.atleast_1d(y)[None, :])
        return None if keys is None else int(keys[0]), 1.0 if scales is None else float(scales[0])

    def column_of(self, key: int | None, y: np.ndarray | None) -> tuple[float, np.ndarray]:
        """(mass, column) of the shape of `key`, or of a parent at y if it is None."""
        if key is None:
            return self._build(y)
        hit = self._columns.get(key)
        if hit is None:  # threads sharing the law may both build it: the builds are equal
            counts = self.form.keys
            if counts is None:  # the shape of the sign `key`
                hit = self._clip(self._product(-1.0 if key else 1.0, self.nodes))
            else:
                cell = np.add(np.unravel_index(key, counts), 0.5) / counts
                lo, hi = self.domain.lo, self.domain.hi
                hit = self._build(lo + cell * (hi - lo))  # the midpoint
            self._columns[key] = hit
        return hit

    def _build(self, y: np.ndarray) -> tuple[float, np.ndarray]:
        return self._clip(self.spec.excitation_column(self.nodes, y))

    def _clip(self, raw: np.ndarray) -> tuple[float, np.ndarray]:
        col = np.maximum(raw, 0.0)
        return float(np.sum(col * self.weights)), col

    # -- immigrants ---------------------------------------------------------

    @cached_property
    def immigrant_law(self) -> tuple:
        """The baseline's `density_law`, of `sample_location`, built once."""
        return density_law(self.lam_vals)

    def place_immigrants(self, u: np.ndarray) -> np.ndarray:
        """Immigrants placed by the (k, m) uniforms `u`; k = 0 reads no law (a
        zero baseline has none)."""
        return _place(self.immigrant_law, None, self.domain, u) if u.shape[0] else u

    # -- offspring ----------------------------------------------------------

    def offspring_mass(self, xs: np.ndarray) -> tuple[np.ndarray, tuple]:
        """Gamma(y) = int b(z, y) W(z, y) dz of each parent y, its scale
        times its shape's mass by the `law`, and the generation's columns as
        (shapes, parent -> key): a dict of one shape per key present, keyed
        in one `law` call, or of one column per parent, keyed by its index,
        when the law has no key.  A `flat` law has one shape, None, and no
        parent keys."""
        k = xs.shape[0]
        if self.form.flat:  # one constant shape: the flat density of `sample_location`
            return np.full(k, self.column_of(0, None)[0]), ({0: None}, None)
        keys, scales = self.law(xs)
        if keys is None:
            present, of_parent = list(range(k)), np.arange(k)
            pairs = [self._build(y) for y in xs]
        else:  # np.unique at a third of its cost
            present, of_parent = np.flatnonzero(np.bincount(keys)).tolist(), keys
            pairs = [self.column_of(key, None) for key in present]
        masses = np.array([mass for mass, _ in pairs])[np.searchsorted(present, of_parent)]
        shapes = {key: col for key, (_, col) in zip(present, pairs)}
        return masses if scales is None else scales * masses, (shapes, of_parent)

    def place_offspring(self, columns, child_parent_idx, u) -> np.ndarray:
        """Children of `child_parent_idx` by the `columns` of `offspring_mass`,
        placed by the (total, m) uniforms `u` in one stacked draw (module docstring)."""
        if not u.shape[0]:
            return u
        shapes, of_parent = columns
        if of_parent is None:  # a flat law: every child draws from its one shape
            return sample_location(shapes[0], self.domain, u)
        child = np.argsort(child_parent_idx, kind="stable")  # uniform row -> child
        key = of_parent[child_parent_idx[child]]  # uniform row -> key
        used = np.flatnonzero(np.bincount(key))  # a shape without children gets no law
        laws, row_of = self._stacked_laws(shapes, used.tolist())
        out = np.empty(u.shape)
        if row_of.size == 1:  # one law: its row, drawn by one searchsorted
            out[child] = _place(tuple(part[row_of[0]] for part in laws), None, self.domain, u)
        else:
            out[child] = _place(laws, row_of[np.searchsorted(used, key)], self.domain, u)
        return out

    def _stacked_laws(self, shapes: dict, used: list) -> tuple[tuple, np.ndarray]:
        """The stacked laws holding those of the keys `used` and the row of
        each: the engine's table of keyed shapes, first grown by the keys it
        lacks, or, when the offspring law has no key (the keys are then
        parent indices), the laws of these parents' columns alone."""
        if self.form.keys is None and self.form.coeff is None:
            return _stack([density_law(shapes[k]) for k in used]), np.arange(len(used))
        row_of, laws = self._laws
        new = [k for k in used if k not in row_of]
        if new:  # a new table: threads sharing the engine each read a whole one
            grown = _stack([density_law(shapes[k]) for k in new])
            laws = tuple(map(np.concatenate, zip(laws, grown))) if laws else grown
            row_of = {**row_of, **{k: len(row_of) + i for i, k in enumerate(new)}}
            self._laws = row_of, laws
        return laws, np.array([row_of[k] for k in used])


def _stack(laws: list) -> tuple:
    """Laws stacked part by part on a leading axis."""
    return tuple(map(np.stack, zip(*laws)))


# ---------------------------------------------------------------------------
# Branching growth (shared by single clusters, full processes and oracles)


def _cat(parts: list) -> np.ndarray:
    """The arrays joined on axis 0; one is returned as it is."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _grow(engine: ClusterEngine, t0: np.ndarray, x0: np.ndarray, xi0: np.ndarray,
          sim0: np.ndarray, gen0: int, horizon: float, rngs: list, with_lifetimes: bool,
          budgets: list, sizes: list | None = None):
    """Breadth-first branching from seed events, a generation of every
    replication at a time; returns (arrays, censored, blocks).

    Replication r holds the next sizes[r] seeds (all when `sizes` is None;
    at most budgets[r]) and draws from rngs[r] alone: its seeds' lifetimes,
    then per generation Poisson counts, the cut to budgets[r] events (the
    first children in parent order fill it), delay uniforms, the location
    block, marks and lifetimes.  `arrays` (times, locations, marks, `sim0`
    labels, generations, parents, lifetimes) run by generation, replication
    and parent; seeds have parent -1.  `blocks`: (replication, rows) runs.
    """
    spec, m = engine.spec, engine.domain.dim
    lt_fixed = spec.lifetimes.fixed if with_lifetimes else math.nan

    def draws(sample, fixed, runs: list) -> np.ndarray:
        """`sample(rng, k)` per (replication, k) of `runs`, or one fill of `fixed`."""
        if fixed is not None:
            return np.full(sum(k for _, k in runs), fixed)
        return _cat([sample(rngs[r], k) for r, k in runs])

    k0 = t0.shape[0]
    blocks = list(enumerate([k0] if sizes is None else sizes))
    # per generation: (times, locations, marks, labels, generations, parents, lifetimes)
    out = [(t0, x0, xi0, sim0, np.full(k0, gen0, dtype=np.int64),
            np.full(k0, -1, dtype=np.int64), draws(spec.lifetimes.sample, lt_fixed, blocks))]
    n_out, censored = [k for _, k in blocks], [False] * len(rngs)
    live = [(r, k) for r, k in blocks if k]  # (replication, parents) of the generation
    n_all, cur_base, gen = k0, 0, gen0  # cur_base: the generation's first output index
    cur_t, cur_x, cur_xi, cur_sim = t0, x0, xi0, sim0
    while live:
        if math.isinf(horizon):
            tau = np.full(cur_t.shape[0], np.inf)
            h_mass = np.full(cur_t.shape[0], spec.excitation.l1_norm)
        else:
            tau = horizon - cur_t
            h_mass = spec.excitation.H(np.maximum(tau, 0.0))
        masses, columns = engine.offspring_mass(cur_x)
        lam = cur_xi * masses * h_mass
        counts, delay_u, loc_u, born, at = [], [], [], [], 0
        for r, k in live:  # a censored replication's last children ride along childless
            c = np.zeros(k, np.int64) if censored[r] else rngs[r].poisson(lam[at:at + k])
            at += k
            total = int(c.sum())
            if n_out[r] + total > budgets[r]:  # the first children in parent order fill it
                total, censored[r] = budgets[r] - n_out[r], True
                c = np.diff(np.minimum(np.cumsum(c), total), prepend=0)
            counts.append(c)
            if total:
                n_out[r] += total
                born.append((r, total))
                delay_u.append(rngs[r].random(total))
                loc_u.append(rngs[r].random((total, m)))
        if not born:
            break
        # each generator's marks and then lifetimes follow its uniforms
        xis = draws(spec.marks.sample_xi, spec.marks.fixed_xi, born)
        lts = draws(spec.lifetimes.sample, lt_fixed, born)
        rep = np.repeat(np.arange(cur_t.shape[0]), _cat(counts))
        times = cur_t[rep] + spec.excitation.sample_delay(1.0 - _cat(delay_u), tau[rep])
        locs = engine.place_offspring(columns, rep, _cat(loc_u))
        gen += 1
        out.append((times, locs, xis, cur_sim[rep], np.full(rep.shape[0], gen, dtype=np.int64),
                    cur_base + rep, lts))
        cur_base, n_all = n_all, n_all + rep.shape[0]
        blocks, live = blocks + born, born
        if all(censored[r] for r, _ in born):
            break
        cur_t, cur_x, cur_xi, cur_sim = times, locs, xis, cur_sim[rep]
    return tuple(np.concatenate(arrays) for arrays in zip(*out)), censored, blocks


def _require_linear(spec: ModelSpec):
    """Refuse a nonlinear model: the Poisson cluster representation, which the
    branching, the coupling, the transform's fixed point and its oracles rest
    on, holds for the linear process only."""
    if not spec.nonlinearity.is_identity:
        raise RequiresThinningError("the cluster representation covers linear models only; "
                                    "simulate by thinning")


# ---------------------------------------------------------------------------
# Public operations


def simulate_processes(
    spec: ModelSpec,
    horizon: float,
    streams: list,
    with_lifetimes: bool = True,
    cap: int = DEFAULT_EVENT_CAP,
) -> list[Realization]:
    """Simulate the linear process on [0, horizon] from an empty history, one
    replication per stream (or integer seed), all in one `_grow`; each draws
    only from its stream's generator.  More than `cap` events return a
    partial realization of exactly `cap` events flagged `censored`: the `cap`
    earliest immigrants when they alone exceed it.
    """
    _require_linear(spec)
    streams = [as_stream(rng) for rng in streams]
    if not streams:
        return []
    engine = spec.engine
    gens = [stream.generator() for stream in streams]
    # each generator in turn: the count, times, location uniforms and marks;
    # no immigrant needs no law (a zero baseline has none)
    n_imm = [int(gen.poisson(engine.alpha * horizon)) for gen in gens]
    sizes = [min(n, cap) for n in n_imm]
    times = [np.sort(horizon * (1.0 - g.random(n)))[:k] for g, n, k in zip(gens, n_imm, sizes)]
    u = _cat([g.random((k, engine.domain.dim)) for g, k in zip(gens, sizes)])
    xis = [spec.marks.sample_xi(g, k) for g, k in zip(gens, sizes)]
    grown = _grow(engine, _cat(times), engine.place_immigrants(u), _cat(xis),
                  _cat([np.arange(k) for k in sizes]), 0, horizon, gens, with_lifetimes,
                  [cap] * len(gens), sizes)
    return _realizations(grown, horizon, [s.describe() for s in streams],
                         [n > cap for n in n_imm])


def simulate_process(
    spec: ModelSpec,
    horizon: float,
    rng,
    with_lifetimes: bool = True,
    cap: int = DEFAULT_EVENT_CAP,
) -> Realization:
    """`simulate_processes` of the one stream (or integer seed) `rng`."""
    return simulate_processes(spec, horizon, [rng], with_lifetimes, cap)[0]


def _realizations(grown, horizon, seeds: list, over: list) -> list[Realization]:
    """A realization per replication of `_grow`'s output, censored if `_grow`
    or `over` says so: its events ordered by time, then cluster (the `sim`
    label), then branching order; ids from 0, and parent pointers follow."""
    (t, x, xi, cl, gen, par, lt), censored, blocks = grown
    rep = np.repeat([r for r, _ in blocks], [k for _, k in blocks])
    bounds = np.cumsum([0, *np.bincount(rep, minlength=len(seeds))])
    # each replication's events in branching order, then one stable sort per
    # replication, which small sorts do faster than one sort of all
    runs = np.split(np.argsort(rep, kind="stable"), bounds[1:-1])
    order = _cat([i[np.lexsort((cl[i], t[i]))] for i in runs])
    inv = np.empty_like(order)
    inv[order] = np.arange(order.shape[0])
    new_par = np.where(par >= 0, inv[np.clip(par, 0, None)] - bounds[rep], -1)
    t, x, xi, gen, new_par, lt = (v[order] for v in (t, x, xi, gen, new_par, lt))
    return [Realization.build(t[a:b], x[a:b], xi[a:b], lt[a:b], horizon, seed, c or o,
                              gen[a:b], new_par[a:b])
            for a, b, seed, c, o in zip(bounds[:-1], bounds[1:], seeds, censored, over)]


def simulate_cluster(
    x0,
    t0: float,
    spec: ModelSpec,
    horizon: float,
    rng,
    with_lifetimes: bool = True,
    cap: int = DEFAULT_EVENT_CAP,
) -> Realization:
    """Simulate one cluster rooted at (t0, x0), root included: a cluster of
    the Poisson cluster representation.  Library API; checked by
    `test_single_cluster_mean_progeny` (test_cluster_sim.py).

    `horizon` may be inf only for stable models (the event cap, at least 1
    since the root counts, still guards termination).
    """
    _require_linear(spec)
    if cap < 1:
        raise InvalidArgumentError("a cluster holds its root: cap must be at least 1")
    stream = as_stream(rng)
    gen = stream.generator()
    x0 = np.atleast_1d(np.asarray(x0, float))
    xi0 = spec.marks.sample_xi(gen, 1)
    grown = _grow(spec.engine, np.array([float(t0)]), x0[None, :], xi0,
                  np.zeros(1, dtype=np.int64), 0, horizon, [gen], with_lifetimes, [cap])
    return _realizations(grown, horizon, [stream.describe()], [False])[0]


def population_count(real: Realization, t: float, box=None) -> int:
    """Q_t(A), the population process: events born by t and still alive at t
    with location in the box.  Library API; checked by
    `test_population_count_mginfty_mean` (test_cluster_sim.py)."""
    if not real.has_lifetimes():
        raise NoLifetimesError("population counts need lifetimes on every event")
    if len(real) == 0:
        return 0
    alive = (real.times <= t) & (t < real.times + real.lifetimes)
    alive &= box_mask(real.locations, box)
    return int(np.count_nonzero(alive))
