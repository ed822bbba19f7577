"""Finite-dimensional (multivariate) approximations by partition averaging,
quenched edge sampling, and continuum-vs-prelimit coupled simulation.

The coupling works at the branching level.  Both processes share immigrant
times and cells exactly (cell averaging preserves per-cell baseline mass);
each shared parent's offspring intensity is split per partition cell into a
common component of mass min(p_k, p_tilde_k) plus one-sided residuals.
Shared events carry one id in both realizations, a shared mark scalar and a
shared lifetime, and both locations lie in the same partition cell.  In
quenched mode the prelimit branches through a Bernoulli 0/1 graph sampled
from the averaged graphon (rescaled to [0,1] when needed); the quenched /
annealed laws agree conditionally on no cell ever holding two events, which
the simulation records rather than corrects.

Every event of the coupled pass, immigrant or child, goes through one step:
uniforms pick its location on each side that holds it, then one mark scalar
is drawn.  An event on both sides (or, in quenched mode, on the prelimit
side, whose descendants share the graph) stays in the pass; an event on one
side only grows its whole cluster there with its model's cluster engine,
`ModelSpec.engine`.  A continuum parent's column comes from the base
engine's offspring law (`cluster_sim.ClusterEngine` states the rule), and
the baselines are the engines', read at every
standard-grid node's engine cell (a view when the engine is on that grid):
the standard grid's value save at a node within rounding of a cell face,
which a count not dividing grid_n can give (10 cells on 15 nodes).  The
order of the draws is part of the contract: the same (seed, path) gives the
same pair.

What a pass reads of one average is built once, `AveragedModel.coupling`.
The within-cell pick is an inverse-CDF draw over the grid nodes of one
partition cell (`cluster_sim.cell_law`); the tables of a fixed column (both
baselines, the ones column, each keyed shape), one per cell, are cached on
the column's first pick, at most (3 + keys) x d.  A keyed parent picks from
its shape, not its scaled column: a positive scale changes the table by
rounding only, which moves a pick only where u * total lies within rounding
of a cumulative sum.  A parent's own column (no key) builds its cell's
table per pick.  When every mark scalar is 1.0, a parent's offspring masses
per target cell (p_tilde, p_hat) and p_hat's table depend only on its cell
j, the mode and the quenched graph's R: they are cached per (mode, R), one
row per j, at most d rows each.  1.0 * x is x, the products are elementwise
and a row's sums round as one cell's do, so a row holds the doubles a
parent would build; a parent with another mark scalar builds its own.
Tables are read as Python floats (`bisect_right` is `searchsorted`), and
the per-event reads (the rank-one key and scale, H at one tau, a delay, a
lifetime) take float paths with the doubles and draws of their arrays.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import cluster_sim
from .errors import (
    BadCellCountError,
    GridTooLargeError,
    InvalidArgumentError,
    PrelimitUnstableError,
    RequiresThinningError,
    ResolutionTooCoarseError,
    UnstableModelError,
)
from .events import Realization
from .model import (
    MarkModel,
    ModelSpec,
    PairFunction,
    SpatialDomain,
    SpatialProfile,
    _cell_index,
)
from .operators import require_stable
from .rng import SplitStream


@dataclass(frozen=True, eq=False)
class Partition:
    """Uniform hyperrectangle partition with per-axis cell counts."""

    domain: SpatialDomain
    axis_counts: tuple[int, ...]

    @property
    def d(self) -> int:
        return int(np.prod(self.axis_counts))

    @property
    def mesh(self) -> float:
        widths = (self.domain.hi - self.domain.lo) / np.asarray(self.axis_counts)
        return float(np.linalg.norm(widths))

    @property
    def cell_volume(self) -> float:
        return self.domain.volume / self.d

    def cell_of(self, pts: np.ndarray) -> np.ndarray:
        return _cell_index(np.atleast_2d(pts), self.domain, self.axis_counts)


def build_partition(domain: SpatialDomain, d, scheme: str = "uniform-dyadic") -> Partition:
    """Partition the domain into d hyperrectangles.

    uniform-dyadic needs d = 2^(k*m) and splits every axis into 2^k equal
    parts; per-axis-counts accepts either a per-axis tuple or (in 1-d) a
    plain cell count.
    """
    m = domain.dim
    if scheme == "uniform-dyadic":
        d = int(d)
        per_axis = round(d ** (1.0 / m))
        if per_axis**m != d or per_axis < 1 or (per_axis & (per_axis - 1)) != 0:
            raise BadCellCountError(
                f"uniform-dyadic cannot realize d={d} in dimension {m}"
            )
        return Partition(domain, (per_axis,) * m)
    if scheme == "per-axis-counts":
        if isinstance(d, (int, np.integer)):
            if m != 1:
                raise BadCellCountError(
                    "per-axis-counts needs a tuple of counts in dimension > 1"
                )
            counts = (int(d),)
        else:
            counts = tuple(int(c) for c in d)
        if len(counts) != m or any(c < 1 for c in counts):
            raise BadCellCountError(f"bad per-axis counts {counts} for dimension {m}")
        return Partition(domain, counts)
    raise BadCellCountError(f"unknown partition scheme {scheme!r}")


# ---------------------------------------------------------------------------
# Averaging


@dataclass(eq=False)
class AveragedModel:
    """Cell-averaged (piecewise constant / multivariate) parameters."""

    base: ModelSpec
    partition: Partition
    lambda_cell: np.ndarray  # (d,) averaged baseline density
    W_cell: np.ndarray  # (d, d) averaged graphon
    b_cell: np.ndarray  # (d, d) averaged mark profile

    @cached_property
    def spec(self) -> ModelSpec:
        b = None if self.base.marks.kind == "unmarked" else self.b_cell
        return _cell_model(self, self.W_cell, b, float(self.W_cell.max(initial=0.0)),
                           self.base.symmetric)

    @cached_property
    def coupling(self) -> "_CouplingSetup":
        """What every coupled pass of this model reads, built once."""
        return _CouplingSetup(self)


def _block_mean_matrix(values: np.ndarray, cell: np.ndarray, d: int) -> np.ndarray:
    """Average a pair matrix over the grid nodes' cell-pair blocks -> (d, d);
    `cell` is each node's partition cell, every cell holding as many nodes.
    Nodes already in cell order (always in 1-d) are reshaped without a copy."""
    if (np.diff(cell) < 0).any():
        order = np.argsort(cell, kind="stable")
        values = values[np.ix_(order, order)]
    per_cell = cell.shape[0] // d
    return values.reshape(d, per_cell, d, per_cell).mean(axis=(1, 3))


def average_models(spec: ModelSpec, partitions) -> list[AveragedModel]:
    """Cell means of baseline, graphon and mark profile by grid quadrature,
    per partition of the iterable `partitions`, in turn, from one evaluation
    of the pair functions on the standard grid."""
    n, m = spec.grid_n, spec.domain.dim
    avgs, pairs = [], None
    for partition in partitions:
        for c in partition.axis_counts:
            if n % c != 0:
                raise ResolutionTooCoarseError(
                    f"standard grid {n} does not resolve {c} cells per axis"
                )
        if (n**m) ** 2 > 64_000_000:
            raise GridTooLargeError("pair averaging would exceed the memory cap")
        if pairs is None:
            nodes, _ = spec.std_grid
            lam = spec.baseline_on(nodes)
            pairs = [spec.graphon.matrix(nodes, spec.domain)]
            if spec.marks.kind != "unmarked":
                pairs.append(spec.marks.b.matrix(nodes, spec.domain))
        cell = partition.cell_of(nodes)
        d = partition.d
        per_cell = np.bincount(cell, minlength=d)
        lambda_cell = np.bincount(cell, weights=lam, minlength=d) / per_cell
        W_cell = _block_mean_matrix(pairs[0], cell, d)
        b_cell = np.ones((d, d)) if len(pairs) == 1 else _block_mean_matrix(pairs[1], cell, d)
        avgs.append(AveragedModel(spec, partition, lambda_cell, W_cell, b_cell))
    return avgs


def average_model(spec: ModelSpec, partition: Partition) -> AveragedModel:
    """`average_models` of the one `partition`."""
    return average_models(spec, [partition])[0]


# ---------------------------------------------------------------------------
# Quenched graphs


@dataclass(frozen=True, eq=False)
class QuenchedGraph:
    """Bernoulli 0/1 connectivity sampled from the averaged graphon."""

    Z: np.ndarray  # (d, d) in {0, 1}, looped digraph
    rescale: float  # R >= 1; edge prob = W_cell / R, edge weight gains factor R

    @property
    def d(self) -> int:
        return int(self.Z.shape[0])


def sample_quenched_graph(avg: AveragedModel, rng) -> QuenchedGraph:
    """Independent Bernoulli(W_cell / R) entries, R = max(1, max W_cell)."""
    gen = rng.generator() if isinstance(rng, SplitStream) else rng
    W = avg.W_cell
    rescale = max(1.0, float(W.max(initial=0.0)))
    Z = (gen.random(W.shape) < W / rescale).astype(np.int8)
    return QuenchedGraph(Z=Z, rescale=rescale)


def _cell_model(avg: AveragedModel, W: np.ndarray, b: np.ndarray | None, c_w: float,
                symmetric: bool = False) -> ModelSpec:
    """The model on the partition's cells with the averaged baseline, graphon
    W and mark profile b (None: unmarked; else the base's mark scalar law)."""
    base, counts = avg.base, avg.partition.axis_counts
    marks = MarkModel(kind="unmarked")
    if b is not None:
        scalar = MarkModel() if base.marks.kind == "unmarked" else base.marks
        marks = replace(scalar, kind="scaled-profile",
                        profile=PairFunction("grid", values=b, axis_counts=counts))
    return ModelSpec(
        domain=base.domain,
        baseline=SpatialProfile("grid", values=avg.lambda_cell, axis_counts=counts),
        graphon=PairFunction("grid", values=W, axis_counts=counts),
        excitation=base.excitation,
        marks=marks,
        lifetimes=base.lifetimes,
        nonlinearity=base.nonlinearity,
        c_w=c_w,
        symmetric=symmetric,
        grid_n=base.grid_n,
    )


# ---------------------------------------------------------------------------
# Coupled simulation


@dataclass
class CoupledPair:
    n: Realization
    nd: Realization
    shared_ids: np.ndarray
    one_event_per_cell: bool
    shared_fraction: float
    avg: AveragedModel
    graph: QuenchedGraph | None = None
    censored: bool = False


def _realization(rows: list, dim: int, horizon, seed_info, censored) -> Realization:
    """One side's events from rows (id, t, x, xi, lifetime, generation, parent)
    of Python scalars, ordered by time, then id."""
    ids, t, x, xi, lt, gen, parent = ([np.array(c) for c in zip(*rows)] if rows
                                      else [np.empty(0)] * 7)
    order = np.lexsort((ids, t))
    return Realization.build(t[order], x.reshape(-1, dim)[order], xi[order], lt[order],
                             horizon, seed_info, censored, gen.astype(np.int64)[order],
                             parent.astype(np.int64)[order], ids.astype(np.int64)[order])


def _float_law(masses: np.ndarray) -> tuple:
    """`cluster_sim.cell_law` of a row, or of each row, in Python floats: u
    draws min(bisect_right(cum, u * total), top), searchsorted's index."""
    return tuple(part.tolist() for part in cluster_sim.cell_law(masses))


class _CouplingSetup:
    """What a coupled pass reads of a base model and its average on the
    base's standard grid, built once: the two engines at each node's engine
    cell, the partition-cell baseline masses and their law, the cached
    tables of `pick` and `unit_masses`.  It keeps no reference to the average."""

    def __init__(self, avg: AveragedModel):
        spec, self.d = avg.base, avg.partition.d
        self.nodes, self.weights = spec.std_grid
        self.node_x = self.nodes.tolist()
        domain = spec.domain
        self.grid_width = ((domain.hi - domain.lo) / spec.grid_n).tolist()
        self.cell_idx = avg.partition.cell_of(self.nodes)
        # row k: the grid nodes of partition cell k, which all hold as many
        self.cell_nodes = np.argsort(self.cell_idx, kind="stable").reshape(self.d, -1)
        self.cell_rows = self.cell_nodes.tolist()
        self.engine, engine_m = spec.engine, avg.spec.engine
        # each node's engine cell: a view (no copy) when the engine is on this grid
        self.engine_cells, cells_m = (
            slice(None) if e.spec.grid_n == spec.grid_n
            else _cell_index(self.nodes, domain, (e.spec.grid_n,) * domain.dim)
            for e in (self.engine, engine_m))
        self.lam_vals = self.engine.lam_vals[self.engine_cells]
        self.lam_m_vals = engine_m.lam_vals[cells_m]
        self.lam_cell_mass = self.masses_by_cell(self.lam_vals)
        self.alpha = float(self.lam_cell_mass.sum())
        self.immigrant_law = _float_law(self.lam_cell_mass)
        self.ones_col = np.ones(self.nodes.shape[0])
        self.b_cell, self.W_cell, self.w_rows = avg.b_cell, avg.W_cell, avg.W_cell.tolist()
        self.cell_vol = avg.partition.cell_volume
        self.rescale = max(1.0, float(avg.W_cell.max(initial=0.0)))  # a lazy graph's R
        self._laws: dict = {}  # fixed column name -> its `_float_law` in every cell
        self._unit: dict = {}  # R, or None in annealed mode -> `unit_masses`

    def shape_of(self, y: list) -> tuple[int | None, float, np.ndarray]:
        """(key, scale, shape on the standard grid) of a continuum parent at y."""
        key, scale = self.engine.law_at(y)
        return key, scale, self.engine.column_of(key, y)[1][self.engine_cells]

    def masses_by_cell(self, col: np.ndarray) -> np.ndarray:
        return np.bincount(self.cell_idx, weights=col * self.weights, minlength=self.d)

    def cell_masses(self, j, xi: float, rescale: float | None) -> tuple:
        """(p_tilde, p_hat) of a parent in cell j with mark scalar xi: the annealed
        accepted and the potential offspring mass per target cell, equal when
        `rescale` is None (annealed mode)."""
        p_tilde = xi * self.b_cell[:, j] * self.W_cell[:, j] * self.cell_vol
        if rescale is None:
            return p_tilde, p_tilde
        return p_tilde, xi * rescale * self.b_cell[:, j] * self.cell_vol

    def unit_masses(self, rescale: float | None) -> list:
        """`cell_masses` at xi = 1.0 of every cell j, built once per rescale: row j
        holds p_tilde and p_hat's `_float_law`."""
        hit = self._unit.get(rescale)
        if hit is None:  # threads sharing the setup build equal tables
            p_tilde, p_hat = (np.ascontiguousarray(p.T)
                              for p in self.cell_masses(slice(None), 1.0, rescale))
            hit = self._unit[rescale] = list(zip(p_tilde, zip(*_float_law(p_hat))))
        return hit

    def pick(self, name, col: np.ndarray, k: int, u: list) -> list:
        """One point in cell k with density prop. to col, as a list of coordinates:
        the shared uniform u[0] picks a node, u[1:] place the point in its grid
        cell.  A fixed column has a `name` and cached tables (module docstring);
        a parent's own column has None.  Only a cell where col has mass is drawn."""
        if name is None:
            total, cum, top = _float_law(np.maximum(col[self.cell_nodes[k]], 0.0))
        else:
            law = self._laws.get(name)
            if law is None:  # threads sharing the setup build equal tables
                law = self._laws[name] = _float_law(np.maximum(col[self.cell_nodes], 0.0))
            total, cum, top = law[0][k], law[1][k], law[2][k]
        node = self.node_x[self.cell_rows[k][min(bisect_right(cum, u[0] * total), top)]]
        return [x + (v - 0.5) * w for x, v, w in zip(node, u[1:], self.grid_width)]


class _LazyGraph:
    """Quenched 0/1 edges, sampled on first use unless frozen up front.

    On the first potential offspring through a cell pair (k, j), the
    annealed acceptance is coupled maximally to the edge (both are
    Bernoulli(W_kj / R)); later uses draw fresh annealed acceptances while
    the edge stays fixed, exactly the shared-graph dependence the quenched
    model has.
    """

    def __init__(self, setup: _CouplingSetup, frozen: QuenchedGraph | None, gen):
        self.frozen = frozen
        self.rescale = frozen.rescale if frozen is not None else setup.rescale
        self.w = setup.w_rows  # W_kj / R is numpy's double of (W_cell / R)[k, j]
        self.gen = gen
        self.edges: dict[tuple[int, int], int] = {}

    def decide(self, k: int, j: int) -> tuple[bool, int]:
        """(annealed acceptance, edge) for one potential child through (k, j)."""
        edge = self.edges.get((k, j))
        if edge is None:
            edge = self.edges[k, j] = (
                int(self.frozen.Z[k, j]) if self.frozen is not None
                else int(self.gen.random() < self.w[k][j] / self.rescale)
            )
            return bool(edge), edge
        return bool(self.gen.random() < self.w[k][j] / self.rescale), edge

    def graph(self) -> QuenchedGraph:
        """The frozen graph, or the lazily realized edges (unvisited pairs 0)."""
        if self.frozen is not None:
            return self.frozen
        z = np.zeros((len(self.w),) * 2, dtype=np.int8)
        for (k, j), v in self.edges.items():
            z[k, j] = v
        return QuenchedGraph(Z=z, rescale=self.rescale)


def simulate_coupled(
    avg: AveragedModel,
    horizon: float,
    mode: str = "annealed",
    rng=None,
    quenched_graph: QuenchedGraph | None = None,
    cap: int = cluster_sim.DEFAULT_EVENT_CAP,
) -> CoupledPair:
    """Simulate the continuum process `avg.base` and its prelimit on the
    partition `avg.partition` on shared randomness.

    Both modes run one branching pass.  Prelimit offspring are generated as
    potential children (at the annealed rate in annealed mode, at the full
    R-scaled rate in quenched mode, then thinned by the 0/1 edge); children
    accepted on both sides become shared events carrying one id, a shared
    mark scalar, a shared lifetime and same-cell locations.  Returns both
    realizations plus the one-event-per-cell flag under which the quenched
    and annealed laws agree.  The stability verdicts, the two cluster
    engines and the coupling setup are cached on the two models, so every
    call on one `avg` shares them.
    """
    spec, partition = avg.base, avg.partition
    if not spec.nonlinearity.is_identity:
        raise RequiresThinningError("coupled simulation covers linear models only")
    if mode not in ("annealed", "quenched"):
        raise InvalidArgumentError(f"unknown coupling mode {mode!r}")
    stream = cluster_sim._as_stream(rng)
    gen = stream.generator()

    for gate, error, what in ((spec.gate, UnstableModelError, "continuum model"),
                              (avg.spec.gate, PrelimitUnstableError,
                               "averaged model at this partition")):
        if not gate.stable:  # the cached verdict: a stable gate builds no estimate
            require_stable(gate, error, what)
    setup = avg.coupling
    quenched = mode == "quenched"
    lazy = _LazyGraph(setup, quenched_graph, gen) if quenched else None
    rescale = lazy.rescale if quenched else None
    d, dim = setup.d, spec.domain.dim
    engine_n, engine_m = spec.engine, avg.spec.engine
    fixed_xi, delay = spec.marks.fixed_xi, spec.excitation.sample_delay
    # every mark scalar 1.0: a parent's offspring masses are its cell's cached row
    unit = setup.unit_masses(rescale) if fixed_xi == 1.0 else None

    rows_n: list = []  # (id, t, x, xi, lifetime, generation, parent) per event
    rows_m: list = []
    shared: list[int] = []
    queue = deque()  # (t, continuum location or None, cell, xi, generation, id)
    next_id = 0
    censored = False

    def cells_of(law, count: int) -> list:
        """`count` cells drawn from a `_float_law`."""
        total, cum, top = law
        return [min(bisect_right(cum, u * total), top) for u in gen.random(count).tolist()]

    def offspring(masses, h_mass, t0, tau, law=None):
        """(cell, time) of the Poisson children of a parent with these cell
        masses, whose `_float_law` is given or built only for children."""
        total = float(masses.sum()) if law is None else law[0]
        count = gen.poisson(total * h_mass) if total > 0 else 0
        if not count:
            return ()
        cells = cells_of(law or _float_law(masses), count)
        return zip(cells, [t0 + float(delay(1.0 - u, tau)) for u in gen.random(count).tolist()])

    def step(k, t, src_n, src_m, generation, parent):
        """One event in cell k at time t on the sides whose column is given,
        as the (name, column) arguments of `_CouplingSetup.pick`."""
        nonlocal next_id, censored
        u = gen.random(dim + 1).tolist()  # the node's uniform, then the jitter's
        z_n = None if src_n is None else setup.pick(*src_n, k, u)
        z_m = None if src_m is None else setup.pick(*src_m, k, u)
        xi = fixed_xi if fixed_xi is not None else float(spec.marks.sample_xi(gen, 1)[0])
        # a quenched prelimit event stays in the pass: its descendants share the graph
        if z_m is not None and (z_n is not None or quenched):
            lt = spec.lifetimes.sample_one(gen)
            if z_n is not None:
                shared.append(next_id)
                rows_n.append((next_id, t, z_n, xi, lt, generation, parent))
            rows_m.append((next_id, t, z_m, xi, lt, generation, parent))
            queue.append((t, z_n, k, xi, generation, next_id))
            next_id += 1
            return
        # on one side only: its cluster never meets the other side again
        engine, rows, z = (engine_m, rows_m, z_m) if z_n is None else (engine_n, rows_n, z_n)
        budget = cap - len(rows_n) - len(rows_m)
        if budget <= 0:
            censored = True
            return
        (ts, xs, xis, _, gens, parents, lts), (cens,), _ = cluster_sim._grow(
            engine, np.array([t]), np.array([z]), np.array([xi]), np.zeros(1, dtype=np.int64),
            generation, horizon, [gen], True, [budget],
        )
        censored = censored or cens
        parents = np.where(parents < 0, parent, next_id + parents)
        rows.extend(zip(range(next_id, next_id + ts.shape[0]), ts.tolist(), xs.tolist(),
                        xis.tolist(), lts.tolist(), gens.tolist(), parents.tolist()))
        next_id += ts.shape[0]

    # shared immigrants: per-cell baseline masses agree exactly
    n_imm = gen.poisson(setup.alpha * horizon)
    imm_times = np.sort(horizon * (1.0 - gen.random(n_imm)))
    # the fixed columns, named for `pick`'s cache
    lam_n, lam_m = ("lam", setup.lam_vals), ("lam_m", setup.lam_m_vals)
    ones = ("ones", setup.ones_col)
    for k, t in zip(cells_of(setup.immigrant_law, n_imm), imm_times.tolist()):
        step(k, t, lam_n, lam_m, 0, -1)

    while queue:
        if len(rows_n) + len(rows_m) >= cap:
            censored = True
            break
        t0, y_n, j, xi, generation, eid = queue.popleft()
        tau = horizon - t0
        if tau <= 0:
            continue
        h_mass = spec.excitation.H_at(tau)
        if h_mass <= 0:
            continue
        # annealed accepted mass per target cell, and the potential mass
        if unit is not None:
            (p_tilde, law_hat), p_hat = unit[j], None
        else:
            (p_tilde, p_hat), law_hat = setup.cell_masses(j, xi, rescale), None
        src_n = None
        if y_n is not None:
            key, scale, shape = setup.shape_of(y_n)
            col_n = xi * scale * shape
            p_n = setup.masses_by_cell(col_n)
            # a positive scale leaves a keyed shape's within-cell law as it is
            src_n = (None, col_n) if key is None else (key, shape)
            q_mass = np.minimum(p_n, p_tilde)
        # potential prelimit children: shared with probability q / p_tilde
        # once accepted, on the prelimit side where the edge is present
        for k, tc in offspring(p_hat, h_mass, t0, tau, law_hat):
            accept, edge = lazy.decide(k, j) if quenched else (True, 1)
            on_n = (src_n is not None and accept and p_tilde[k] > 0
                    and gen.random() < q_mass[k] / p_tilde[k])
            if on_n or edge:
                step(k, tc, src_n if on_n else None, ones if edge else None,
                     generation + 1, eid)
        # continuum-only residual children (a prelimit-only parent has none)
        if src_n is not None:
            for k, tc in offspring(p_n - q_mass, h_mass, t0, tau):
                step(k, tc, src_n, None, generation + 1, eid)

    real_n = _realization(rows_n, dim, horizon, stream.describe(), censored)
    real_m = _realization(rows_m, dim, horizon, stream.describe(), censored)
    occ_ok = all(np.bincount(partition.cell_of(real.locations), minlength=d).max() <= 1
                 for real in (real_n, real_m))
    n_tot = len(real_n) + len(real_m)
    return CoupledPair(
        n=real_n,
        nd=real_m,
        shared_ids=np.asarray(shared, dtype=np.int64),
        one_event_per_cell=occ_ok,
        shared_fraction=1.0 if n_tot == 0 else 2.0 * len(shared) / n_tot,
        avg=avg,
        graph=lazy.graph() if quenched else None,
        censored=censored,
    )
