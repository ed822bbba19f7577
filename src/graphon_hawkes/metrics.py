"""Realization distance, grid total variation, and the piecewise-averaging
(Poincare-type) bound check.

The distance treats two events as simultaneous when the chosen matching
pairs them: shared-ids (exact, from coupled simulation) or greedy
nearest-time within a tolerance (best-effort, for uncoupled runs).
Simultaneous pairs contribute |y - y'| plus the L1 gap of their mark
functions; every unmatched event contributes 1 + |y| + |mark|_L1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainMismatchError,
    InvalidArgumentError,
    ResolutionTooCoarseError,
)
from .events import Realization
from .model import ModelSpec


@dataclass(frozen=True)
class DistanceBreakdown:
    simultaneous_location_term: float
    simultaneous_mark_term: float
    nonsimultaneous_term: float

    @property
    def total(self) -> float:
        return (
            self.simultaneous_location_term
            + self.simultaneous_mark_term
            + self.nonsimultaneous_term
        )


def _mark_l1(spec: ModelSpec, xi: float, y: np.ndarray, nodes, weights) -> float:
    if spec.marks.kind == "unmarked":
        return spec.domain.volume
    vals = xi * spec.marks.b.column(nodes, y, spec.domain)
    return float(np.sum(np.abs(vals) * weights))


def _match_by_ids(n: Realization, m: Realization):
    ids_n = {i: j for j, i in enumerate(n.ids.tolist())}
    pairs = [(ids_n[i], k) for k, i in enumerate(m.ids.tolist()) if i in ids_n]
    matched_m = np.zeros(len(m), dtype=bool)
    matched_n = np.zeros(len(n), dtype=bool)
    for j, k in pairs:
        matched_n[j] = matched_m[k] = True
    return pairs, matched_n, matched_m


def _match_by_time(n: Realization, m: Realization, eps: float):
    """Greedy nearest-time matching within eps, ties to the smaller index."""
    matched_m = np.zeros(len(m), dtype=bool)
    matched_n = np.zeros(len(n), dtype=bool)
    pairs = []
    mt = m.times
    for j in range(len(n)):
        t = n.times[j]
        best, best_gap = -1, eps
        lo = int(np.searchsorted(mt, t - eps, side="left"))
        hi = int(np.searchsorted(mt, t + eps, side="right"))
        for k in range(lo, hi):
            if matched_m[k]:
                continue
            gap = abs(mt[k] - t)
            if gap < best_gap or (gap == best_gap and best == -1):
                best, best_gap = k, gap
        if best >= 0:
            pairs.append((j, best))
            matched_n[j] = True
            matched_m[best] = True
    return pairs, matched_n, matched_m


def pp_distance(
    n: Realization,
    m: Realization,
    spec_n: ModelSpec,
    spec_m: ModelSpec | None = None,
    matching: str = "shared-ids",
    eps: float = 0.0,
) -> DistanceBreakdown:
    """The realization metric with the chosen simultaneity matching."""
    spec_m = spec_m or spec_n
    dn, dm = spec_n.domain, spec_m.domain  # one domain object needs no check
    if dn is not dm and not (np.allclose(dn.lo, dm.lo) and np.allclose(dn.hi, dm.hi)):
        raise DomainMismatchError("realizations live on different domains")

    if matching == "shared-ids":
        pairs, matched_n, matched_m = _match_by_ids(n, m)
    elif matching == "time-tolerance":
        pairs, matched_n, matched_m = _match_by_time(n, m, eps)
    else:
        raise InvalidArgumentError(f"unknown matching mode {matching!r}")

    nodes, weights = spec_n.std_grid
    unmarked_pair = spec_n.marks.kind == "unmarked" and spec_m.marks.kind == "unmarked"

    loc_term = 0.0
    if pairs and dn.dim == 1:  # every |y - y'| at once, the norm's doubles, in pair order
        j, k = np.array(pairs).T
        gap = n.locations[j, 0] - m.locations[k, 0]
        loc_term = float(np.cumsum(np.sqrt(gap * gap))[-1])
    mark_term = 0.0
    for j, k in pairs:
        if dn.dim > 1:
            loc_term += float(np.linalg.norm(n.locations[j] - m.locations[k]))
        if not unmarked_pair:
            vals_n = n.mark_scalars[j] * spec_n.marks.b.column(
                nodes, n.locations[j], spec_n.domain
            )
            vals_m = m.mark_scalars[k] * spec_m.marks.b.column(
                nodes, m.locations[k], spec_m.domain
            )
            mark_term += float(np.sum(np.abs(vals_n - vals_m) * weights))

    nonsim = 0.0
    for real, spec, matched in ((n, spec_n, matched_n), (m, spec_m, matched_m)):
        for j in np.nonzero(~matched)[0]:
            nonsim += (
                1.0
                + float(np.linalg.norm(real.locations[j]))
                + _mark_l1(spec, real.mark_scalars[j], real.locations[j], nodes, weights)
            )

    return DistanceBreakdown(loc_term, mark_term, nonsim)


# ---------------------------------------------------------------------------
# Total variation of grid functions


def total_variation(
    values: np.ndarray, domain, axis_mode: str = "1d-exact"
) -> float:
    """Variation of a midpoint-grid function.

    1d-exact: sum of absolute successive differences (exact for monotone and
    piecewise-monotone grid functions, a lower bound of the supremum
    definition in general).  multi-directional-sum: per-axis line variations
    weighted by the transverse cell measure and summed over axes, an
    upper-bound surrogate of the distributional definition.
    """
    values = np.asarray(values, float)
    m = domain.dim
    n = round(values.size ** (1.0 / m))
    if n**m != values.size:
        raise InvalidArgumentError("grid function size is not n^m")
    if axis_mode == "1d-exact":
        if m != 1:
            raise InvalidArgumentError("1d-exact mode needs a one-dimensional domain")
        return float(np.sum(np.abs(np.diff(values))))
    if axis_mode != "multi-directional-sum":
        raise InvalidArgumentError(f"unknown axis_mode {axis_mode!r}")
    grid = values.reshape((n,) * m)
    widths = (domain.hi - domain.lo) / n
    total = 0.0
    for a in range(m):
        line_tv = np.abs(np.diff(grid, axis=a)).sum(axis=a)
        transverse_cell = np.prod(np.delete(widths, a)) if m > 1 else 1.0
        total += float(line_tv.sum() * transverse_cell)
    return total


@dataclass(frozen=True)
class PoincareRecord:
    lhs: float
    rhs: float
    holds: bool
    var: float
    var_source: str
    mesh: float


def poincare_check(
    values: np.ndarray, partition, var: float | None = None, tol: float = 1e-9
) -> PoincareRecord:
    """Check |f - f^d|_L1 <= (1/2) Var(f) mesh for cell-mean averaging, the
    Poincare-type bound behind the prelimit's rate.  Library API; checked by
    acceptance criterion 3 (`test_criterion_03_poincare_bound`).

    `values` lives on the model's midpoint grid; its per-axis resolution
    must be a multiple (>= 4x) of the partition's per-axis cell counts.
    When `var` is omitted it is computed from the grid (exact 1-d variation,
    directional-sum surrogate otherwise, and so labeled).
    """
    domain = partition.domain
    m = domain.dim
    values = np.asarray(values, float)
    n = round(values.size ** (1.0 / m))
    counts = partition.axis_counts
    for c in counts:
        if n % c != 0 or n // c < 4:
            raise ResolutionTooCoarseError(
                f"grid resolution {n} must be a >=4x multiple of cell count {c}"
            )
    shape = []
    mean_axes = []
    for a, c in enumerate(counts):
        shape.extend([c, n // c])
        mean_axes.append(2 * a + 1)
    grid = values.reshape((n,) * m).reshape(shape)
    cell_means = grid.mean(axis=tuple(mean_axes), keepdims=True)
    approx = np.broadcast_to(cell_means, grid.shape)
    w = domain.volume / n**m
    lhs = float(np.sum(np.abs(grid - approx)) * w)
    if var is None:
        mode = "1d-exact" if m == 1 else "multi-directional-sum"
        var_val = total_variation(values, domain, axis_mode=mode)
        var_source = mode if m == 1 else mode + " (surrogate)"
    else:
        var_val = float(var)
        var_source = "supplied"
    rhs = 0.5 * var_val * partition.mesh
    return PoincareRecord(lhs, rhs, bool(lhs <= rhs + tol), var_val, var_source, partition.mesh)
