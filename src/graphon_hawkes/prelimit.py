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
two uniforms pick its location on each side that holds it, then one mark
scalar is drawn.  An event on both sides (or, in quenched mode, on the
prelimit side, whose descendants share the graph) stays in the pass; an
event on one side only grows its whole cluster there with its model's
cluster engine, `ModelSpec.engine`.  The rest reads the two engines too: a
continuum parent's column is the base engine's offspring law (its scale
times its key's cached shape, or its own column with no key), and the
baselines are the engines', each read at every standard-grid node's engine
cell (an index built once per averaged model, `AveragedModel.coupling`, or
a view when the engine is on that grid).  That is the standard grid's value
save at a node within rounding of a cell face, which a count not dividing
grid_n can give (10 cells on 15 nodes): the engine's cell picks the side.
The order of the draws is part of the contract: the same (seed, path) gives
the same pair.

The within-cell pick is an inverse-CDF draw over the grid nodes of one
partition cell (`cluster_sim.cell_law`).  The setup caches the tables of a
fixed column, one per cell, when the column is first drawn: both baselines,
the ones column and each keyed shape, so at most (3 + keys) x d tables,
which live as long as the averaged model.  Row-wise sums round as the sum
of one row does, so a cached table is the one a single cell would build.
A keyed parent picks from its shape, not its scaled column: a positive
scale changes the table by rounding only, which moves a pick only where
u * total lies within rounding of a cumulative sum.  A parent's own column
(no key) builds its cell's table per pick.
"""

from __future__ import annotations

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


def average_model(spec: ModelSpec, partition: Partition) -> AveragedModel:
    """Cell means of baseline, graphon and mark profile by grid quadrature."""
    n, m = spec.grid_n, spec.domain.dim
    for c in partition.axis_counts:
        if n % c != 0:
            raise ResolutionTooCoarseError(
                f"standard grid {n} does not resolve {c} cells per axis"
            )
    if (n**m) ** 2 > 64_000_000:
        raise GridTooLargeError("pair averaging would exceed the memory cap")
    nodes, _ = spec.std_grid
    cell = partition.cell_of(nodes)
    d = partition.d
    per_cell = np.bincount(cell, minlength=d)
    lam = spec.baseline_on(nodes)
    lambda_cell = np.bincount(cell, weights=lam, minlength=d) / per_cell

    W_cell = _block_mean_matrix(spec.graphon.matrix(nodes, spec.domain), cell, d)
    if spec.marks.kind == "unmarked":
        b_cell = np.ones((d, d))
    else:
        b_cell = _block_mean_matrix(spec.marks.b.matrix(nodes, spec.domain), cell, d)
    return AveragedModel(spec, partition, lambda_cell, W_cell, b_cell)


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


def quenched_spec(avg: AveragedModel, graph: QuenchedGraph) -> ModelSpec:
    """The quenched prelimit as a piecewise-constant model: graphon Z with
    mark profile scaled by R * b_cell (so mean dynamics match annealed)."""
    return _cell_model(avg, graph.Z.astype(float), graph.rescale * avg.b_cell, 1.0)


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
    """One side's events from rows (id, t, x, xi, lifetime, generation, parent),
    ordered by time, then id."""
    if not rows:
        return Realization.empty(dim, horizon, seed_info, censored)
    ids, t, x, xi, lt, gen, parent = (np.asarray(c) for c in zip(*rows))
    order = np.lexsort((ids, t))
    return Realization(
        times=t[order],
        locations=x.reshape(len(rows), dim)[order],
        generations=gen.astype(np.int64)[order],
        parent_ids=parent.astype(np.int64)[order],
        mark_scalars=xi[order],
        lifetimes=lt[order],
        ids=ids.astype(np.int64)[order],
        horizon=float(horizon),
        seed=seed_info,
        censored=censored,
    )


class _CouplingSetup:
    """What a coupled pass reads of a base model and its average on the
    base's standard grid: the two engines at each node's engine cell, the
    partition-cell baseline masses, and within-cell location sampling from
    a grid column, shared-uniform aware.  It keeps no reference to the average."""

    def __init__(self, avg: AveragedModel):
        spec, self.d = avg.base, avg.partition.d
        self.nodes, self.weights = spec.std_grid
        domain = spec.domain
        self.grid_width = (domain.hi - domain.lo) / spec.grid_n
        self.cell_idx = avg.partition.cell_of(self.nodes)
        # row k: the grid nodes of partition cell k, which all hold as many
        self.cell_nodes = np.argsort(self.cell_idx, kind="stable").reshape(self.d, -1)
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
        self.ones_col = np.ones(self.nodes.shape[0])
        self._laws: dict = {}  # fixed column name -> its `cell_law` in every cell

    def shape_of(self, y: np.ndarray) -> tuple[int | None, float, np.ndarray]:
        """(key, scale, shape on the standard grid) of a continuum parent at y."""
        key, scale = self.engine.law_at(y)
        return key, scale, self.engine.column_of(key, y)[1][self.engine_cells]

    def masses_by_cell(self, col: np.ndarray) -> np.ndarray:
        return np.bincount(self.cell_idx, weights=col * self.weights, minlength=self.d)

    def pick(self, name, col: np.ndarray, k: int, u_cell: float, u_jit: np.ndarray) -> np.ndarray:
        """One point in cell k with density prop. to col, using shared uniforms.
        Cell k is only drawn where col has positive mass.  A fixed column has
        a `name` (a baseline, the ones column or a shape's key), and the
        tables of all its cells are built on its first pick and cached; a
        parent's own column has None, and builds cell k's table alone."""
        nodes = self.cell_nodes[k]
        if name is None:
            total, cum, top = cluster_sim.cell_law(np.maximum(col[nodes], 0.0))
        else:
            law = self._laws.get(name)
            if law is None:  # threads sharing the setup build equal tables
                law = self._laws[name] = cluster_sim.cell_law(np.maximum(col[self.cell_nodes], 0.0))
            total, cum, top = law[0][k], law[1][k], law[2][k]
        pos = min(cum.searchsorted(u_cell * total, side="right"), top)
        return self.nodes[nodes[pos]] + (u_jit - 0.5) * self.grid_width


class _LazyGraph:
    """Quenched 0/1 edges, sampled on first use unless frozen up front.

    On the first potential offspring through a cell pair (k, j), the
    annealed acceptance is coupled maximally to the edge (both are
    Bernoulli(W_kj / R)); later uses draw fresh annealed acceptances while
    the edge stays fixed, exactly the shared-graph dependence the quenched
    model has.
    """

    def __init__(self, avg: AveragedModel, frozen: QuenchedGraph | None, gen):
        self.frozen = frozen
        self.rescale = (frozen.rescale if frozen is not None
                        else max(1.0, float(avg.W_cell.max(initial=0.0))))
        self.probs = avg.W_cell / self.rescale
        self.gen = gen
        self.edges: dict[tuple[int, int], int] = {}

    def decide(self, k: int, j: int) -> tuple[bool, int]:
        """(annealed acceptance, edge) for one potential child through (k, j)."""
        edge = self.edges.get((k, j))
        if edge is None:
            edge = self.edges[k, j] = (
                int(self.frozen.Z[k, j]) if self.frozen is not None
                else int(self.gen.random() < self.probs[k, j])
            )
            return bool(edge), edge
        return bool(self.gen.random() < self.probs[k, j]), edge

    def graph(self) -> QuenchedGraph:
        """The frozen graph, or the lazily realized edges (unvisited pairs 0)."""
        if self.frozen is not None:
            return self.frozen
        z = np.zeros(self.probs.shape, dtype=np.int8)
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

    require_stable(spec.gate, UnstableModelError, "continuum model")
    require_stable(avg.spec.gate, PrelimitUnstableError, "averaged model at this partition")
    quenched = mode == "quenched"
    lazy = _LazyGraph(avg, quenched_graph, gen) if quenched else None

    d, dim = partition.d, spec.domain.dim
    engine_n, engine_m = spec.engine, avg.spec.engine
    setup = avg.coupling
    cell_vol = partition.cell_volume
    H = spec.excitation.H

    rows_n: list = []  # (id, t, x, xi, lifetime, generation, parent) per event
    rows_m: list = []
    shared: list[int] = []
    queue = deque()  # (t, continuum location or None, cell, xi, generation, id)
    next_id = 0
    censored = False

    def offspring(masses, h_mass, t0, tau):
        """(cell, time) of the Poisson children of a parent with these cell masses."""
        total = float(masses.sum())
        count = gen.poisson(total * h_mass) if total > 0 else 0
        if not count:
            return []
        cells = cluster_sim._categorical(masses, gen.random(count))
        delays = spec.excitation.sample_delay(1.0 - gen.random(count), np.full(count, tau))
        return zip(cells.tolist(), (t0 + delays).tolist())

    def step(k, t, src_n, src_m, generation, parent):
        """One event in cell k at time t on the sides whose column is given,
        as the (name, column) arguments of `_CouplingSetup.pick`."""
        nonlocal next_id, censored
        u_cell, u_jit = gen.random(), gen.random(dim)
        z_n = None if src_n is None else setup.pick(*src_n, k, u_cell, u_jit)
        z_m = None if src_m is None else setup.pick(*src_m, k, u_cell, u_jit)
        xi = float(spec.marks.sample_xi(gen, 1)[0])
        # a quenched prelimit event stays in the pass: its descendants share the graph
        if z_m is not None and (z_n is not None or quenched):
            lt = float(spec.lifetimes.sample(gen, 1)[0])
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
        (ts, xs, xis, _, gens, parents, lts), cens = cluster_sim._grow(
            engine, np.array([t]), z[None, :], np.array([xi]), np.zeros(1, dtype=np.int64),
            generation, horizon, gen, True, budget,
        )
        censored = censored or cens
        ids = next_id + np.arange(ts.shape[0])
        rows.extend(zip(ids, ts, xs, xis, lts, gens,
                        np.where(parents < 0, parent, next_id + parents)))
        next_id += ts.shape[0]

    # shared immigrants: per-cell baseline masses agree exactly
    n_imm = gen.poisson(setup.alpha * horizon)
    imm_times = np.sort(horizon * (1.0 - gen.random(n_imm)))
    cells = cluster_sim._categorical(setup.lam_cell_mass, gen.random(n_imm))
    # the fixed columns, named for `pick`'s cache
    lam_n, lam_m = ("lam", setup.lam_vals), ("lam_m", setup.lam_m_vals)
    ones = ("ones", setup.ones_col)
    for k, t in zip(cells.tolist(), imm_times.tolist()):
        step(k, t, lam_n, lam_m, 0, -1)

    while queue:
        if len(rows_n) + len(rows_m) >= cap:
            censored = True
            break
        t0, y_n, j, xi, generation, eid = queue.popleft()
        tau = horizon - t0
        if tau <= 0:
            continue
        h_mass = float(H(np.array([tau]))[0])
        if h_mass <= 0:
            continue
        # annealed accepted mass per target cell, and the potential mass
        p_tilde = xi * avg.b_cell[:, j] * avg.W_cell[:, j] * cell_vol
        p_hat = xi * lazy.rescale * avg.b_cell[:, j] * cell_vol if quenched else p_tilde
        src_n, p_n = None, np.zeros(d)
        if y_n is not None:
            key, scale, shape = setup.shape_of(y_n)
            col_n = xi * scale * shape
            p_n = setup.masses_by_cell(col_n)
            # a positive scale leaves a keyed shape's within-cell law as it is
            src_n = (None, col_n) if key is None else (key, shape)
        q_mass = np.minimum(p_n, p_tilde)
        # potential prelimit children: shared with probability q / p_tilde
        # once accepted, on the prelimit side where the edge is present
        for k, tc in offspring(p_hat, h_mass, t0, tau):
            accept, edge = lazy.decide(k, j) if quenched else (True, 1)
            on_n = (src_n is not None and accept and p_tilde[k] > 0
                    and gen.random() < q_mass[k] / p_tilde[k])
            if on_n or edge:
                step(k, tc, src_n if on_n else None, ones if edge else None,
                     generation + 1, eid)
        # continuum-only residual children (none for a prelimit-only parent)
        for k, tc in offspring(p_n - q_mass, h_mass, t0, tau):
            step(k, tc, src_n, None, generation + 1, eid)

    real_n = _realization(rows_n, dim, horizon, stream.describe(), censored)
    real_m = _realization(rows_m, dim, horizon, stream.describe(), censored)
    occ_ok = True
    for real in (real_n, real_m):
        if len(real):
            occ = np.bincount(partition.cell_of(real.locations), minlength=d)
            occ_ok = occ_ok and bool(occ.max(initial=0) <= 1)
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
