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
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import cluster_sim
from .cluster_sim import ClusterEngine
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
from .operators import KernelGrid, gate_grid, require_stable
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

    def cells(self) -> list[tuple[np.ndarray, np.ndarray]]:
        counts = np.asarray(self.axis_counts)
        widths = (self.domain.hi - self.domain.lo) / counts
        out = []
        for flat in range(self.d):
            idx = np.empty(len(counts), dtype=int)
            rem = flat
            for a in reversed(range(len(counts))):
                idx[a] = rem % counts[a]
                rem //= counts[a]
            lo = self.domain.lo + idx * widths
            out.append((lo, lo + widths))
        return out

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
        counts = self.partition.axis_counts
        if self.base.marks.kind == "unmarked":
            marks = MarkModel(kind="unmarked")
        else:
            marks = MarkModel(
                kind="scaled-profile",
                profile=PairFunction("grid", values=self.b_cell, axis_counts=counts),
                xi_family=self.base.marks.xi_family,
                xi_value=self.base.marks.xi_value,
                xi_shape=self.base.marks.xi_shape,
            )
        return ModelSpec(
            domain=self.base.domain,
            baseline=SpatialProfile("grid", values=self.lambda_cell, axis_counts=counts),
            graphon=PairFunction("grid", values=self.W_cell, axis_counts=counts),
            excitation=self.base.excitation,
            marks=marks,
            lifetimes=self.base.lifetimes,
            nonlinearity=self.base.nonlinearity,
            c_w=float(self.W_cell.max(initial=0.0)),
            symmetric=self.base.symmetric,
            grid_n=self.base.grid_n,
        )

    @cached_property
    def gate_grids(self) -> tuple[KernelGrid, KernelGrid]:
        """Gate grids of the continuum model and of this average.  They hold
        their analyses, so replications sharing this average share one
        coupling verdict."""
        return gate_grid(self.base), gate_grid(self.spec)


def _block_mean_matrix(values: np.ndarray, counts, n: int, m: int) -> np.ndarray:
    """Average an (n^m, n^m) pair matrix over cell-pair blocks -> (d, d)."""
    d = int(np.prod(counts))
    nodes_per_cell = n**m // d
    # row-major flat grid index -> flat cell index
    idx = _flat_cell_of_grid(counts, n, m)
    order = np.argsort(idx, kind="stable")
    v = values[np.ix_(order, order)]
    v = v.reshape(d, nodes_per_cell, d, nodes_per_cell)
    return v.mean(axis=(1, 3))


def _flat_cell_of_grid(counts, n: int, m: int) -> np.ndarray:
    axes = [np.minimum(np.arange(n) * counts[a] // n, counts[a] - 1) for a in range(m)]
    mesh = np.meshgrid(*axes, indexing="ij")
    flat = mesh[0].ravel()
    for a in range(1, m):
        flat = flat * counts[a] + mesh[a].ravel()
    return flat


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

    wmat = spec.graphon.matrix(nodes, spec.domain)
    W_cell = _block_mean_matrix(wmat, partition.axis_counts, n, m)
    if spec.marks.kind == "unmarked":
        b_cell = np.ones((d, d))
    else:
        bmat = spec.marks.b.matrix(nodes, spec.domain)
        b_cell = _block_mean_matrix(bmat, partition.axis_counts, n, m)
    return AveragedModel(spec, partition, lambda_cell, W_cell, b_cell)


# ---------------------------------------------------------------------------
# Quenched graphs


@dataclass(frozen=True, eq=False)
class QuenchedGraph:
    """Bernoulli 0/1 connectivity sampled from the averaged graphon."""

    Z: np.ndarray  # (d, d) in {0, 1}, looped digraph
    source_W: np.ndarray
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
    return QuenchedGraph(Z=Z, source_W=W, rescale=rescale)


def quenched_spec(avg: AveragedModel, graph: QuenchedGraph) -> ModelSpec:
    """The quenched prelimit as a piecewise-constant model: graphon Z with
    mark profile scaled by R * b_cell (so mean dynamics match annealed)."""
    counts = avg.partition.axis_counts
    base = avg.base
    profile_vals = graph.rescale * avg.b_cell
    marks = MarkModel(
        kind="scaled-profile",
        profile=PairFunction("grid", values=profile_vals, axis_counts=counts),
        xi_family=base.marks.xi_family if base.marks.kind != "unmarked" else "deterministic",
        xi_value=base.marks.xi_value if base.marks.kind != "unmarked" else 1.0,
        xi_shape=base.marks.xi_shape if base.marks.kind != "unmarked" else 1.0,
    )
    return ModelSpec(
        domain=base.domain,
        baseline=SpatialProfile("grid", values=avg.lambda_cell, axis_counts=counts),
        graphon=PairFunction("grid", values=graph.Z.astype(float), axis_counts=counts),
        excitation=base.excitation,
        marks=marks,
        lifetimes=base.lifetimes,
        nonlinearity=base.nonlinearity,
        c_w=1.0,
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


class _SideCollector:
    """Accumulates one realization's events with globally assigned ids."""

    def __init__(self, dim: int):
        self.dim = dim
        self.t, self.x, self.xi, self.lt = [], [], [], []
        self.gen, self.parent, self.ids = [], [], []

    def add(self, eid, t, x, xi, lt, gen, parent):
        self.ids.append(eid)
        self.t.append(t)
        self.x.append(np.atleast_1d(x))
        self.xi.append(xi)
        self.lt.append(lt)
        self.gen.append(gen)
        self.parent.append(parent)

    def __len__(self):
        return len(self.t)

    def realization(self, horizon, seed_info, censored) -> Realization:
        n = len(self.t)
        if n == 0:
            r = Realization.empty(self.dim, horizon, seed_info)
            r.censored = censored
            return r
        t = np.asarray(self.t)
        order = np.lexsort((np.asarray(self.ids), t))
        return Realization(
            times=t[order],
            locations=np.asarray(self.x).reshape(n, self.dim)[order],
            generations=np.asarray(self.gen, dtype=np.int64)[order],
            parent_ids=np.asarray(self.parent, dtype=np.int64)[order],
            mark_scalars=np.asarray(self.xi)[order],
            lifetimes=np.asarray(self.lt)[order],
            ids=np.asarray(self.ids, dtype=np.int64)[order],
            horizon=float(horizon),
            seed=seed_info,
            censored=censored,
        )


class _CellSampler:
    """Within-cell location sampling from a grid column, shared-uniform aware."""

    def __init__(self, spec: ModelSpec, partition: Partition):
        self.domain = spec.domain
        self.nodes, self.weights = spec.std_grid
        n = spec.grid_n
        self.grid_width = (self.domain.hi - self.domain.lo) / n
        self.cell_idx = partition.cell_of(self.nodes)
        order = np.argsort(self.cell_idx, kind="stable")
        self.order = order
        self.starts = np.searchsorted(self.cell_idx[order], np.arange(partition.d))
        self.ends = np.searchsorted(
            self.cell_idx[order], np.arange(partition.d), side="right"
        )

    def nodes_in(self, k: int) -> np.ndarray:
        return self.order[self.starts[k] : self.ends[k]]

    def masses_by_cell(self, col: np.ndarray, d: int) -> np.ndarray:
        return np.bincount(self.cell_idx, weights=col * self.weights, minlength=d)

    def pick(self, col: np.ndarray, k: int, u_cell: float, u_jit: np.ndarray) -> np.ndarray:
        """One point in cell k with density prop. to col, using shared uniforms."""
        idx = self.nodes_in(k)
        wts = np.maximum(col[idx], 0.0)
        total = wts.sum()
        if total <= 0:  # degenerate within the cell: fall back to uniform
            pos = min(int(u_cell * idx.size), idx.size - 1)
        else:
            pos = int(cluster_sim._categorical(wts, total, u_cell)[0])
        mid = self.nodes[idx[pos]]
        return mid + (u_jit - 0.5) * self.grid_width


class _LazyGraph:
    """Quenched 0/1 edges, sampled on first use unless frozen up front.

    On the first potential offspring through a cell pair (k, j), the
    annealed acceptance is coupled maximally to the edge (both are
    Bernoulli(W_kj / R)); later uses draw fresh annealed acceptances while
    the edge stays fixed, exactly the shared-graph dependence the quenched
    model has.
    """

    def __init__(self, probs: np.ndarray, frozen: np.ndarray | None, gen):
        self.probs = probs
        self.frozen = frozen
        self.gen = gen
        self.entries: dict[tuple[int, int], int] = {}
        self.used: set[tuple[int, int]] = set()

    def edge(self, k: int, j: int) -> int:
        if self.frozen is not None:
            return int(self.frozen[k, j])
        key = (k, j)
        if key not in self.entries:
            self.entries[key] = int(self.gen.random() < self.probs[k, j])
        return self.entries[key]

    def accept_annealed(self, k: int, j: int) -> bool:
        """Annealed thinning decision for one potential child through (k, j)."""
        key = (k, j)
        if key not in self.used:
            self.used.add(key)
            return bool(self.edge(k, j))
        return bool(self.gen.random() < self.probs[k, j])


def simulate_coupled(
    spec: ModelSpec,
    partition: Partition,
    horizon: float,
    mode: str = "annealed",
    rng=None,
    quenched_graph: QuenchedGraph | None = None,
    cap: int = cluster_sim.DEFAULT_EVENT_CAP,
    check_stability: bool = True,
    avg: AveragedModel | None = None,
) -> CoupledPair:
    """Simulate the continuum process and its prelimit on shared randomness.

    Both modes run one branching pass.  Prelimit offspring are generated as
    potential children (at the annealed rate in annealed mode, at the full
    R-scaled rate in quenched mode, then thinned by the 0/1 edge); children
    accepted on both sides become shared events carrying one id, a shared
    mark scalar, a shared lifetime and same-cell locations.  Returns both
    realizations plus the one-event-per-cell flag under which the quenched
    and annealed laws agree.  A given `avg` must be `average_model(spec,
    partition)`; it carries the cached stability verdict of both models.
    """
    if not spec.nonlinearity.is_identity:
        raise RequiresThinningError("coupled simulation covers linear models only")
    if mode not in ("annealed", "quenched"):
        raise InvalidArgumentError(f"unknown coupling mode {mode!r}")
    stream = rng if isinstance(rng, SplitStream) else SplitStream(int(rng))
    gen = stream.generator()

    avg = avg or average_model(spec, partition)
    if avg.base is not spec or avg.partition.axis_counts != partition.axis_counts:
        raise InvalidArgumentError("avg is not the average of this model on this partition")
    quenched = mode == "quenched"
    if check_stability:
        continuum, prelimit = avg.gate_grids
        require_stable(continuum, UnstableModelError, "continuum model")
        require_stable(prelimit, PrelimitUnstableError, "averaged model at this partition")

    d = partition.d
    rescale = max(1.0, float(avg.W_cell.max(initial=0.0)))
    graph = None
    lazy = None
    if quenched:
        graph = quenched_graph
        if graph is not None and graph.rescale != rescale:
            rescale = graph.rescale
        lazy = _LazyGraph(
            avg.W_cell / rescale, graph.Z if graph is not None else None, gen
        )

    engine_n = ClusterEngine(spec)
    engine_m = ClusterEngine(avg.spec)
    sampler = _CellSampler(spec, partition)
    lam_vals = np.maximum(spec.baseline_on(sampler.nodes), 0.0)
    lam_cell_mass = sampler.masses_by_cell(lam_vals, d)
    alpha = float(lam_cell_mass.sum())
    lam_m_vals = np.maximum(avg.spec.baseline_on(sampler.nodes), 0.0)
    ones_col = np.ones(sampler.nodes.shape[0])
    cell_vol = partition.cell_volume

    side_n = _SideCollector(spec.domain.dim)
    side_m = _SideCollector(spec.domain.dim)
    shared: list[int] = []
    next_id = [0]

    def new_id():
        i = next_id[0]
        next_id[0] += 1
        return i

    censored = [False]

    def total_events():
        return len(side_n) + len(side_m)

    def grow_one_sided(engine, collector, t0, x0, xi0, gen0, parent_id):
        budget = max(0, cap - total_events())
        if budget == 0:
            censored[0] = True
            return
        arrays, cens = cluster_sim._grow(
            engine,
            np.array([t0]),
            np.atleast_1d(x0)[None, :],
            np.array([xi0]),
            np.zeros(1, dtype=np.int64),
            gen0,
            horizon,
            gen,
            True,
            budget,
        )
        censored[0] = censored[0] or cens
        t_a, x_a, xi_a, _, gen_a, par_a, lt_a = arrays
        ids_local = [new_id() for _ in range(t_a.shape[0])]
        for i in range(t_a.shape[0]):
            pid = parent_id if par_a[i] < 0 else ids_local[int(par_a[i])]
            collector.add(
                ids_local[i], float(t_a[i]), x_a[i], float(xi_a[i]), float(lt_a[i]),
                int(gen_a[i]), pid,
            )

    # --- shared immigrants: per-cell baseline masses agree exactly ----------
    n_imm = gen.poisson(alpha * horizon)
    # queue nodes: (t, y_n, y_m, cell_j, xi, gen_no, in_n, in_q, eid)
    queue = deque()
    if n_imm > 0:
        imm_times = np.sort(horizon * (1.0 - gen.random(n_imm)))
        cells, _ = cluster_sim._categorical(lam_cell_mass, alpha, gen.random(n_imm))
        for i in range(n_imm):
            u_cell, u_jit = gen.random(), gen.random(spec.domain.dim)
            k = int(cells[i])
            y_n = sampler.pick(lam_vals, k, u_cell, u_jit)
            y_m = sampler.pick(lam_m_vals, k, u_cell, u_jit)
            xi = float(spec.marks.sample_xi(gen, 1)[0])
            lt = float(spec.lifetimes.sample(gen, 1)[0])
            eid = new_id()
            shared.append(eid)
            side_n.add(eid, float(imm_times[i]), y_n, xi, lt, 0, -1)
            side_m.add(eid, float(imm_times[i]), y_m, xi, lt, 0, -1)
            queue.append((float(imm_times[i]), y_n, y_m, k, xi, 0, True, True, eid))

    # --- coupled branching ---------------------------------------------------
    H = spec.excitation.H
    while queue:
        if total_events() >= cap:
            censored[0] = True
            break
        t0, y_n, y_m, cell_j, xi, gen_no, in_n, in_q, eid = queue.popleft()
        tau = horizon - t0
        if tau <= 0:
            continue
        h_mass = float(H(np.array([tau]))[0])
        if h_mass <= 0:
            continue

        p_n = np.zeros(d)
        col_n = None
        if in_n:
            col_n = np.maximum(xi * spec.excitation_column(sampler.nodes, y_n), 0.0)
            p_n = sampler.masses_by_cell(col_n, d)
        # annealed accepted mass per target cell, and the potential mass
        p_tilde = xi * avg.b_cell[:, cell_j] * avg.W_cell[:, cell_j] * cell_vol
        p_hat = (
            xi * rescale * avg.b_cell[:, cell_j] * cell_vol if quenched else p_tilde
        )
        q_mass = np.minimum(p_n, p_tilde) if in_n else np.zeros(d)

        # potential prelimit children, thinned to annealed / quenched sides
        if in_n or in_q:
            total = float(p_hat.sum())
            count = gen.poisson(total * h_mass) if total > 0 else 0
            if count:
                child_cells, _ = cluster_sim._categorical(p_hat, total, gen.random(count))
                delays = spec.excitation.sample_delay(
                    1.0 - gen.random(count), np.full(count, tau)
                )
                for c in range(count):
                    k = int(child_cells[c])
                    tc = t0 + float(delays[c])
                    if quenched:
                        accept_a = lazy.accept_annealed(k, cell_j)
                        edge = lazy.edge(k, cell_j)
                    else:
                        accept_a, edge = True, 1
                    is_shared = False
                    if in_n and accept_a and p_tilde[k] > 0:
                        is_shared = gen.random() < q_mass[k] / p_tilde[k]
                    in_q_child = in_q and bool(edge)
                    if not (is_shared or in_q_child):
                        continue
                    u_cell, u_jit = gen.random(), gen.random(spec.domain.dim)
                    if is_shared and in_q_child:
                        z_n = sampler.pick(col_n, k, u_cell, u_jit)
                        z_m = sampler.pick(ones_col, k, u_cell, u_jit)
                        xi_c = float(spec.marks.sample_xi(gen, 1)[0])
                        lt_c = float(spec.lifetimes.sample(gen, 1)[0])
                        cid = new_id()
                        shared.append(cid)
                        side_n.add(cid, tc, z_n, xi_c, lt_c, gen_no + 1, eid)
                        side_m.add(cid, tc, z_m, xi_c, lt_c, gen_no + 1, eid)
                        queue.append((tc, z_n, z_m, k, xi_c, gen_no + 1, True, True, cid))
                    elif is_shared:
                        z_n = sampler.pick(col_n, k, u_cell, u_jit)
                        xi_c = float(spec.marks.sample_xi(gen, 1)[0])
                        grow_one_sided(engine_n, side_n, tc, z_n, xi_c, gen_no + 1, eid)
                    else:
                        z_m = sampler.pick(ones_col, k, u_cell, u_jit)
                        xi_c = float(spec.marks.sample_xi(gen, 1)[0])
                        if quenched:
                            # stays in the coupled pass: descendants share Z
                            cid = new_id()
                            lt_c = float(spec.lifetimes.sample(gen, 1)[0])
                            side_m.add(cid, tc, z_m, xi_c, lt_c, gen_no + 1, eid)
                            queue.append(
                                (tc, None, z_m, k, xi_c, gen_no + 1, False, True, cid)
                            )
                        else:
                            grow_one_sided(
                                engine_m, side_m, tc, z_m, xi_c, gen_no + 1, eid
                            )

        # continuum-only residual children
        if in_n:
            r_n = p_n - q_mass
            total = float(r_n.sum())
            count = gen.poisson(total * h_mass) if total > 0 else 0
            if count:
                child_cells, _ = cluster_sim._categorical(r_n, total, gen.random(count))
                delays = spec.excitation.sample_delay(
                    1.0 - gen.random(count), np.full(count, tau)
                )
                for c in range(count):
                    k = int(child_cells[c])
                    tc = t0 + float(delays[c])
                    u_cell, u_jit = gen.random(), gen.random(spec.domain.dim)
                    z_n = sampler.pick(col_n, k, u_cell, u_jit)
                    xi_c = float(spec.marks.sample_xi(gen, 1)[0])
                    grow_one_sided(engine_n, side_n, tc, z_n, xi_c, gen_no + 1, eid)

    if quenched and graph is None and lazy is not None:
        # record the lazily realized edges (unvisited pairs stay 0)
        z_mat = np.zeros((d, d), dtype=np.int8)
        for (k, j), v in lazy.entries.items():
            z_mat[k, j] = v
        graph = QuenchedGraph(Z=z_mat, source_W=avg.W_cell, rescale=rescale)

    real_n = side_n.realization(horizon, stream.describe(), censored[0])
    real_m = side_m.realization(horizon, stream.describe(), censored[0])

    occ_ok = True
    for real in (real_n, real_m):
        if len(real):
            occ = np.bincount(partition.cell_of(real.locations), minlength=d)
            occ_ok = occ_ok and bool(occ.max(initial=0) <= 1)
    n_tot = len(real_n) + len(real_m)
    frac = 1.0 if n_tot == 0 else 2.0 * len(shared) / n_tot

    return CoupledPair(
        n=real_n,
        nd=real_m,
        shared_ids=np.asarray(shared, dtype=np.int64),
        one_event_per_cell=occ_ok,
        shared_fraction=frac,
        avg=avg,
        graph=graph,
        censored=censored[0],
    )
